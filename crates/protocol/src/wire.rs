//! Frame encoding/decoding: requests, responses, and the incremental
//! [`FrameDecoder`].
//!
//! Everything here is pure byte manipulation — no I/O — so the same code
//! drives the blocking client, the server's nonblocking readiness loop,
//! and the property tests. All decode paths are total: any input yields
//! `Ok(frame)`, `Ok(None)` (need more bytes), or
//! [`DsError::Protocol`] — never a panic.

use crate::snapshot;
use dstore::{DsError, DsResult, ObjectStat};
use dstore_telemetry::codec::{read_telemetry, write_telemetry, Reader, Writer};

/// First payload byte of every frame; a cheap stream-desync detector.
pub const MAGIC: u8 = 0xD5;

/// Upper bound on a whole frame (length prefix included). A `len`
/// field implying more is a protocol error — the connection is
/// poisoned and must be closed, because the stream offset is lost.
pub const MAX_FRAME: usize = 32 << 20;

/// Upper bound on one value. Keys are separately capped by the store's
/// own `MAX_NAME_LEN` (255), which the u16 key-length field covers.
pub const MAX_VALUE_LEN: usize = MAX_FRAME - 1024;

/// Fixed payload overhead: magic + request id + kind.
const HEADER: usize = 1 + 8 + 1;

fn perr(what: impl Into<String>) -> DsError {
    DsError::Protocol(what.into())
}

// ---------------------------------------------------------------------
// requests

/// One client request. `kind` bytes are stable wire API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create or replace an object (`oput`).
    Put {
        /// Object name.
        key: Vec<u8>,
        /// Object contents.
        value: Vec<u8>,
    },
    /// Read a whole object (`oget`).
    Get {
        /// Object name.
        key: Vec<u8>,
    },
    /// Replace an **existing** object; `NotFound` if absent. Executed
    /// atomically w.r.t. other server ops on the same shard (one
    /// executor thread per shard).
    Update {
        /// Object name.
        key: Vec<u8>,
        /// New contents.
        value: Vec<u8>,
    },
    /// Delete an object (`odelete`).
    Delete {
        /// Object name.
        key: Vec<u8>,
    },
    /// Object metadata.
    Stat {
        /// Object name.
        key: Vec<u8>,
    },
    /// Existence probe.
    Exists {
        /// Object name.
        key: Vec<u8>,
    },
    /// Fleet-merged health summary.
    Health,
    /// The full merged telemetry snapshot (histograms, gauges, spans,
    /// flight-recorder traces) — what `dstore_top --server` polls.
    TelemetrySnapshot,
    /// Per-shard post-mortems of the previous incarnation, exhumed from
    /// each shard's crash-persistent black box during recovery — what
    /// `dstore_top --post-mortem` renders.
    CrashReport,
}

const REQ_PUT: u8 = 1;
const REQ_GET: u8 = 2;
const REQ_UPDATE: u8 = 3;
const REQ_DELETE: u8 = 4;
const REQ_STAT: u8 = 5;
const REQ_EXISTS: u8 = 6;
// 7 was the retired `stats` RPC; it stays unused, so an old client's
// `stats` frame is an unknown opcode rather than another request.
const REQ_HEALTH: u8 = 8;
const REQ_TELEMETRY: u8 = 9;
const REQ_CRASH_REPORT: u8 = 10;

impl Request {
    /// The key this request routes by (`None` for fleet-wide RPCs).
    pub fn key(&self) -> Option<&[u8]> {
        match self {
            Request::Put { key, .. }
            | Request::Get { key }
            | Request::Update { key, .. }
            | Request::Delete { key }
            | Request::Stat { key }
            | Request::Exists { key } => Some(key),
            _ => None,
        }
    }

    /// Metric label for this request kind.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Put { .. } => "put",
            Request::Get { .. } => "get",
            Request::Update { .. } => "update",
            Request::Delete { .. } => "delete",
            Request::Stat { .. } => "stat",
            Request::Exists { .. } => "exists",
            Request::Health => "health",
            Request::TelemetrySnapshot => "telemetry_snapshot",
            Request::CrashReport => "crash_report",
        }
    }

    fn kind(&self) -> u8 {
        match self {
            Request::Put { .. } => REQ_PUT,
            Request::Get { .. } => REQ_GET,
            Request::Update { .. } => REQ_UPDATE,
            Request::Delete { .. } => REQ_DELETE,
            Request::Stat { .. } => REQ_STAT,
            Request::Exists { .. } => REQ_EXISTS,
            Request::Health => REQ_HEALTH,
            Request::TelemetrySnapshot => REQ_TELEMETRY,
            Request::CrashReport => REQ_CRASH_REPORT,
        }
    }

    fn encode_body(&self, w: &mut Writer) {
        match self {
            Request::Put { key, value } | Request::Update { key, value } => {
                w.bytes16(key);
                w.bytes32(value);
            }
            Request::Get { key }
            | Request::Delete { key }
            | Request::Stat { key }
            | Request::Exists { key } => w.bytes16(key),
            Request::Health | Request::TelemetrySnapshot | Request::CrashReport => {}
        }
    }

    fn decode_body(kind: u8, r: &mut Reader<'_>) -> DsResult<Request> {
        Ok(match kind {
            REQ_PUT | REQ_UPDATE => {
                let key = r.bytes16()?.to_vec();
                let value = r.bytes32(MAX_VALUE_LEN)?.to_vec();
                if kind == REQ_PUT {
                    Request::Put { key, value }
                } else {
                    Request::Update { key, value }
                }
            }
            REQ_GET => Request::Get {
                key: r.bytes16()?.to_vec(),
            },
            REQ_DELETE => Request::Delete {
                key: r.bytes16()?.to_vec(),
            },
            REQ_STAT => Request::Stat {
                key: r.bytes16()?.to_vec(),
            },
            REQ_EXISTS => Request::Exists {
                key: r.bytes16()?.to_vec(),
            },
            REQ_HEALTH => Request::Health,
            REQ_TELEMETRY => Request::TelemetrySnapshot,
            REQ_CRASH_REPORT => Request::CrashReport,
            other => return Err(perr(format!("unknown request opcode {other}"))),
        })
    }
}

// ---------------------------------------------------------------------
// responses

/// One server response (the non-error payloads; errors travel as a
/// dedicated tag and surface as `Err(DsError)` on the client).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Mutation acknowledged — the operation is durable.
    Ok,
    /// `get` result.
    Value(Vec<u8>),
    /// `exists` result.
    Bool(bool),
    /// `stat` result.
    Stat(ObjectStat),
    /// `health` result, fleet-merged.
    Health(dstore::HealthSnapshot),
    /// `telemetry_snapshot` result.
    Telemetry(dstore_telemetry::TelemetrySnapshot),
    /// `crash_report` result: one entry per shard, index order; `None`
    /// entries are shards with nothing to report.
    CrashReports(Vec<Option<dstore::CrashReport>>),
}

const RESP_OK: u8 = 0;
const RESP_VALUE: u8 = 1;
const RESP_BOOL: u8 = 2;
const RESP_STAT: u8 = 3;
// 4 was the retired `stats` result; it stays unused.
const RESP_HEALTH: u8 = 5;
const RESP_TELEMETRY: u8 = 6;
const RESP_CRASH_REPORTS: u8 = 7;
const RESP_ERR: u8 = 0xEE;

impl Response {
    fn kind(&self) -> u8 {
        match self {
            Response::Ok => RESP_OK,
            Response::Value(_) => RESP_VALUE,
            Response::Bool(_) => RESP_BOOL,
            Response::Stat(_) => RESP_STAT,
            Response::Health(_) => RESP_HEALTH,
            Response::Telemetry(_) => RESP_TELEMETRY,
            Response::CrashReports(_) => RESP_CRASH_REPORTS,
        }
    }

    fn encode_body(&self, w: &mut Writer) {
        match self {
            Response::Ok => {}
            Response::Value(v) => w.bytes32(v),
            Response::Bool(b) => w.u8(*b as u8),
            Response::Stat(s) => snapshot::write_object_stat(w, s),
            Response::Health(h) => snapshot::write_health(w, h),
            Response::Telemetry(t) => write_telemetry(w, t),
            Response::CrashReports(reports) => snapshot::write_crash_reports(w, reports),
        }
    }

    fn decode_body(kind: u8, r: &mut Reader<'_>) -> DsResult<Response> {
        Ok(match kind {
            RESP_OK => Response::Ok,
            RESP_VALUE => Response::Value(r.bytes32(MAX_VALUE_LEN)?.to_vec()),
            RESP_BOOL => Response::Bool(match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(perr(format!("bool field holds {other}"))),
            }),
            RESP_STAT => Response::Stat(snapshot::read_object_stat(r)?),
            RESP_HEALTH => Response::Health(snapshot::read_health(r)?),
            RESP_TELEMETRY => Response::Telemetry(read_telemetry(r)?),
            RESP_CRASH_REPORTS => Response::CrashReports(snapshot::read_crash_reports(r)?),
            other => return Err(perr(format!("unknown response tag {other}"))),
        })
    }
}

// ---------------------------------------------------------------------
// error codes

/// Encodes a [`DsError`] as `(stable code, detail)`. The codes are
/// frozen wire API; the detail round-trips the human-readable part.
pub fn encode_error(e: &DsError) -> (u8, String) {
    match e {
        DsError::NotFound => (1, String::new()),
        DsError::OutOfSpace => (2, String::new()),
        DsError::OutOfMetadataSpace => (3, String::new()),
        DsError::OutOfRange { requested, size } => (4, format!("{requested}:{size}")),
        DsError::NameTooLong(n) => (5, n.to_string()),
        DsError::NotFormatted => (6, String::new()),
        DsError::BadMode => (7, String::new()),
        DsError::ReservedName => (8, String::new()),
        DsError::ShardMismatch(s) => (9, s.clone()),
        // Code 10 was an internal block-pool retry signal that could
        // never reach a client; it is retired and never reused.
        DsError::Io(s) => (11, s.clone()),
        DsError::Protocol(s) => (12, s.clone()),
        DsError::Busy => (13, String::new()),
        DsError::RecordTooLarge(n) => (14, n.to_string()),
    }
}

/// Decodes a `(code, detail)` pair back into the same [`DsError`].
pub fn decode_error(code: u8, detail: &str) -> DsResult<DsError> {
    Ok(match code {
        1 => DsError::NotFound,
        2 => DsError::OutOfSpace,
        3 => DsError::OutOfMetadataSpace,
        4 => {
            let (a, b) = detail
                .split_once(':')
                .ok_or_else(|| perr("malformed OutOfRange detail"))?;
            DsError::OutOfRange {
                requested: a.parse().map_err(|_| perr("malformed OutOfRange offset"))?,
                size: b.parse().map_err(|_| perr("malformed OutOfRange size"))?,
            }
        }
        5 => DsError::NameTooLong(detail.parse().map_err(|_| perr("malformed NameTooLong"))?),
        6 => DsError::NotFormatted,
        7 => DsError::BadMode,
        8 => DsError::ReservedName,
        9 => DsError::ShardMismatch(detail.into()),
        11 => DsError::Io(detail.into()),
        12 => DsError::Protocol(detail.into()),
        13 => DsError::Busy,
        14 => DsError::RecordTooLarge(
            detail
                .parse()
                .map_err(|_| perr("malformed RecordTooLarge"))?,
        ),
        other => return Err(perr(format!("unknown error code {other}"))),
    })
}

// ---------------------------------------------------------------------
// frame assembly

fn encode_frame(id: u64, kind: u8, out: &mut Vec<u8>, body: impl FnOnce(&mut Writer)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]); // length placeholder
    let mut w = Writer(std::mem::take(out));
    w.u8(MAGIC);
    w.u64(id);
    w.u8(kind);
    body(&mut w);
    *out = w.0;
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends one encoded request frame to `out`.
pub fn encode_request(id: u64, req: &Request, out: &mut Vec<u8>) {
    encode_frame(id, req.kind(), out, |w| req.encode_body(w));
}

/// Appends one encoded (success) response frame to `out`.
pub fn encode_response(id: u64, resp: &Response, out: &mut Vec<u8>) {
    encode_frame(id, resp.kind(), out, |w| resp.encode_body(w));
}

/// Appends one encoded error-response frame to `out`.
pub fn encode_error_response(id: u64, err: &DsError, out: &mut Vec<u8>) {
    let (code, detail) = encode_error(err);
    encode_frame(id, RESP_ERR, out, |w| {
        w.u8(code);
        w.str16(&detail);
    });
}

/// One decoded response: the request it answers, and either its payload
/// or the application error.
pub type ResponseFrame = (u64, Result<Response, DsError>);

/// Incremental frame decoder: feed bytes with [`FrameDecoder::push`],
/// pull frames with `next_request`/`next_response`.
///
/// The decoder is *poisoning*: after the first [`DsError::Protocol`] the
/// stream offset is unreliable, so every later call returns the same
/// error and the connection must be closed. Buffered bytes are bounded
/// by [`MAX_FRAME`] plus one read chunk — a peer cannot make the
/// decoder buffer unboundedly by never completing a frame, because a
/// frame longer than [`MAX_FRAME`] is rejected from its length prefix
/// alone.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<DsError>,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pulls the next complete frame payload, `None` if more bytes are
    /// needed.
    fn next_payload(&mut self) -> DsResult<Option<(u64, u8, usize, usize)>> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if len + 4 > MAX_FRAME || len < HEADER {
            return Err(self.poison(perr(format!("frame length {len} out of bounds"))));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let payload = &self.buf[start..start + len];
        if payload[0] != MAGIC {
            return Err(self.poison(perr(format!("bad magic byte {:#x}", payload[0]))));
        }
        let id = u64::from_le_bytes(payload[1..9].try_into().unwrap());
        let kind = payload[9];
        self.pos = start + len;
        Ok(Some((id, kind, start + HEADER, start + len)))
    }

    fn poison(&mut self, e: DsError) -> DsError {
        self.poisoned = Some(e.clone());
        e
    }

    /// Decodes the next request frame (server side).
    pub fn next_request(&mut self) -> DsResult<Option<(u64, Request)>> {
        let Some((id, kind, body_start, body_end)) = self.next_payload()? else {
            return Ok(None);
        };
        let mut r = Reader::new(&self.buf[body_start..body_end]);
        let req = Request::decode_body(kind, &mut r)
            .and_then(|req| r.finish().map(|()| req).map_err(DsError::from))
            .map_err(|e| self.poison(e))?;
        Ok(Some((id, req)))
    }

    /// Decodes the next response frame (client side).
    pub fn next_response(&mut self) -> DsResult<Option<ResponseFrame>> {
        let Some((id, kind, body_start, body_end)) = self.next_payload()? else {
            return Ok(None);
        };
        let mut r = Reader::new(&self.buf[body_start..body_end]);
        let result = (|| {
            if kind == RESP_ERR {
                let code = r.u8()?;
                let detail = r.str16()?.to_string();
                r.finish()?;
                Ok(Err(decode_error(code, &detail)?))
            } else {
                let resp = Response::decode_body(kind, &mut r)?;
                r.finish()?;
                Ok(Ok(resp))
            }
        })()
        .map_err(|e: DsError| self.poison(e))?;
        Ok(Some((id, result)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Put {
                key: b"k".to_vec(),
                value: vec![7; 1000],
            },
            Request::Get { key: b"k".to_vec() },
            Request::Update {
                key: b"k".to_vec(),
                value: vec![],
            },
            Request::Delete { key: vec![] },
            Request::Stat { key: b"s".to_vec() },
            Request::Exists { key: b"e".to_vec() },
            Request::Health,
            Request::TelemetrySnapshot,
            Request::CrashReport,
        ];
        let mut bytes = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            encode_request(i as u64, r, &mut bytes);
        }
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        for (i, want) in reqs.iter().enumerate() {
            let (id, got) = d.next_request().unwrap().unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&got, want);
        }
        assert!(d.next_request().unwrap().is_none());
    }

    #[test]
    fn split_delivery_reassembles() {
        let mut bytes = Vec::new();
        encode_request(
            42,
            &Request::Put {
                key: b"key".to_vec(),
                value: vec![1, 2, 3],
            },
            &mut bytes,
        );
        let mut d = FrameDecoder::new();
        for b in &bytes[..bytes.len() - 1] {
            d.push(std::slice::from_ref(b));
            assert!(d.next_request().unwrap().is_none());
        }
        d.push(&bytes[bytes.len() - 1..]);
        let (id, _) = d.next_request().unwrap().unwrap();
        assert_eq!(id, 42);
    }

    #[test]
    fn error_frames_roundtrip_every_variant() {
        let errors = vec![
            DsError::NotFound,
            DsError::OutOfSpace,
            DsError::OutOfMetadataSpace,
            DsError::OutOfRange {
                requested: 9,
                size: 5,
            },
            DsError::NameTooLong(999),
            DsError::NotFormatted,
            DsError::BadMode,
            DsError::ReservedName,
            DsError::ShardMismatch("seed".into()),
            DsError::Io("pipe".into()),
            DsError::Protocol("junk".into()),
            DsError::Busy,
            DsError::RecordTooLarge(70_000),
        ];
        let mut bytes = Vec::new();
        for (i, e) in errors.iter().enumerate() {
            encode_error_response(i as u64, e, &mut bytes);
        }
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        for (i, want) in errors.iter().enumerate() {
            let (id, got) = d.next_response().unwrap().unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&got.unwrap_err(), want);
        }
    }

    #[test]
    fn retired_error_code_is_rejected() {
        assert!(decode_error(10, "").is_err());
    }

    #[test]
    fn oversized_length_prefix_poisons() {
        let mut d = FrameDecoder::new();
        d.push(&u32::MAX.to_le_bytes());
        assert!(matches!(d.next_request(), Err(DsError::Protocol(_))));
        // Poisoned: still the same error, not a panic or a reset.
        assert!(matches!(d.next_request(), Err(DsError::Protocol(_))));
    }
}
