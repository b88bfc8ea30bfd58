//! Error type for DStore operations.

use std::fmt;

/// Errors surfaced by the DStore API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsError {
    /// The named object does not exist.
    NotFound,
    /// The SSD block pool is exhausted.
    OutOfSpace,
    /// The PMEM pool cannot hold the metadata (arena exhausted).
    OutOfMetadataSpace,
    /// A read/write range exceeds the object size (filesystem API).
    OutOfRange {
        /// Requested end offset.
        requested: u64,
        /// Actual object size.
        size: u64,
    },
    /// Object name longer than [`crate::structures::MAX_NAME_LEN`].
    NameTooLong(usize),
    /// The PMEM pool does not contain a recognizable store.
    NotFormatted,
    /// The object was opened without the required access mode.
    BadMode,
    /// The name collides with a store-internal reserved prefix (e.g.
    /// `dstore-shard`'s shard-map superblock object).
    ReservedName,
    /// Recovery of a sharded store found inconsistent shard metadata
    /// (wrong shard count, mixed router seeds, duplicate shard index).
    ShardMismatch(String),
    /// Underlying device error (file-backed pools) or a network
    /// transport failure (`dstore-protocol` client/server I/O).
    Io(String),
    /// A malformed wire frame: bad magic/opcode, a length field
    /// exceeding the protocol limits, truncated or trailing bytes, or
    /// an undecodable payload. Surfaced by `dstore-protocol` instead of
    /// ever panicking on untrusted input.
    Protocol(String),
    /// The server's bounded per-shard queue is full; the request was
    /// rejected instead of buffered. Retry after backoff — acknowledged
    /// operations are never dropped, `Busy` is refused admission.
    Busy,
    /// The op's log record would be this many bytes, over the largest
    /// record the log takes: its blocks fall in too many runs of
    /// consecutive ids (or, in physical mode, the object has too many
    /// blocks). Nothing was logged and no block stays claimed.
    RecordTooLarge(usize),
    /// The log is full of records still pending (say, `olock`s one
    /// context holds), so a checkpoint's swap would relocate them without
    /// making room, and none committed within `stall_timeout`. Nothing
    /// was logged and no block stays claimed.
    LogFull,
}

impl fmt::Display for DsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsError::NotFound => write!(f, "object not found"),
            DsError::OutOfSpace => write!(f, "SSD block pool exhausted"),
            DsError::OutOfMetadataSpace => write!(f, "PMEM metadata space exhausted"),
            DsError::OutOfRange { requested, size } => {
                write!(f, "access beyond object end: {requested} > {size}")
            }
            DsError::NameTooLong(n) => write!(f, "object name too long: {n} bytes"),
            DsError::NotFormatted => write!(f, "pool does not contain a DStore instance"),
            DsError::BadMode => write!(f, "object not opened for this access"),
            DsError::ReservedName => write!(f, "object name uses a reserved prefix"),
            DsError::ShardMismatch(e) => write!(f, "shard metadata mismatch: {e}"),
            DsError::Io(e) => write!(f, "io error: {e}"),
            DsError::Protocol(e) => write!(f, "protocol error: {e}"),
            DsError::Busy => write!(f, "server busy: shard queue full, retry after backoff"),
            DsError::RecordTooLarge(n) => write!(f, "log record too large: {n} bytes"),
            DsError::LogFull => write!(f, "log full of pending records"),
        }
    }
}

impl std::error::Error for DsError {}

/// A malformed payload met by the shared telemetry codec is a protocol
/// error: the codec decodes what a peer (or a dead incarnation) sent.
impl From<dstore_telemetry::codec::CodecError> for DsError {
    fn from(e: dstore_telemetry::codec::CodecError) -> Self {
        DsError::Protocol(e.0)
    }
}

impl From<std::io::Error> for DsError {
    fn from(e: std::io::Error) -> Self {
        DsError::Io(e.to_string())
    }
}

/// Result alias for DStore operations.
pub type DsResult<T> = Result<T, DsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DsError::NotFound.to_string().contains("not found"));
        assert!(DsError::OutOfRange {
            requested: 10,
            size: 4
        }
        .to_string()
        .contains("10 > 4"));
        let io: DsError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }

    /// Every variant renders a stable, non-empty message. Wire clients
    /// (`dstore-protocol`) surface these strings verbatim, so the
    /// leading phrase of each is frozen API: extend, don't rewrite.
    #[test]
    fn every_variant_message_is_stable_and_non_empty() {
        let cases: Vec<(DsError, &str)> = vec![
            (DsError::NotFound, "object not found"),
            (DsError::OutOfSpace, "SSD block pool exhausted"),
            (DsError::OutOfMetadataSpace, "PMEM metadata space exhausted"),
            (
                DsError::OutOfRange {
                    requested: 7,
                    size: 3,
                },
                "access beyond object end",
            ),
            (DsError::NameTooLong(300), "object name too long"),
            (
                DsError::NotFormatted,
                "pool does not contain a DStore instance",
            ),
            (DsError::BadMode, "object not opened for this access"),
            (DsError::ReservedName, "object name uses a reserved prefix"),
            (
                DsError::ShardMismatch("x".into()),
                "shard metadata mismatch",
            ),
            (DsError::Io("disk gone".into()), "io error"),
            (DsError::Protocol("bad magic".into()), "protocol error"),
            (DsError::Busy, "server busy"),
            (DsError::RecordTooLarge(70_000), "log record too large"),
        ];
        for (err, prefix) in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty(), "{err:?} renders empty");
            assert!(
                msg.starts_with(prefix),
                "{err:?} message {msg:?} lost its stable prefix {prefix:?}"
            );
        }
    }

    #[test]
    fn io_conversion_preserves_the_inner_message() {
        let io: DsError = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer").into();
        assert_eq!(io, DsError::Io("peer".into()));
    }
}
