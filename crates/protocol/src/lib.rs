//! # dstore-protocol — the wire format of the DStore network front door
//!
//! A dependency-light, length-prefixed binary protocol covering the full
//! Table-2 point-op API (`put`/`get`/`update`/`delete`/`stat`/`exists`)
//! plus the observability RPCs (`health`, `telemetry_snapshot`,
//! `crash_report`), and [`DStoreClient`], a synchronous,
//! pipelining-capable client. Operation counts travel in the telemetry
//! snapshot (`dstore_ops_total{op}`).
//!
//! ## Frame layout
//!
//! Every frame — request or response — is one length-prefixed record,
//! all integers little-endian:
//!
//! ```text
//! frame    := len:u32           payload length, ≤ MAX_FRAME − 4
//!             payload
//! payload  := magic:u8          0xD5, cheap desync detection
//!             request_id:u64    chosen by the client, echoed by the server
//!             kind:u8           opcode (request) / response tag
//!             body              kind-specific, fixed-width + length-prefixed
//! ```
//!
//! Request IDs make the protocol *pipelined*: a connection may have any
//! number of requests in flight, and the server writes responses back in
//! **completion order**, not submission order — the client matches them
//! by ID ([`DStoreClient::submit`] / [`DStoreClient::wait`]). There is no
//! framing state beyond the length prefix, so a decoder can always make
//! progress on any byte stream: it yields a frame, asks for more bytes,
//! or fails with [`DsError::Protocol`] — never a panic, never a hang
//! (property-tested in `tests/wire_props.rs` against truncation, bit
//! flips, and random prefixes).
//!
//! ## Error model
//!
//! Application errors travel as a response tag carrying a stable numeric
//! code plus the [`DsError`] display text, and decode back into the same
//! `DsError` variant on the client — including [`DsError::Busy`], the
//! backpressure signal a `dstore-server` emits instead of buffering
//! unboundedly, and [`DsError::Protocol`] for malformed frames.

#![warn(missing_docs)]

pub mod client;
pub mod snapshot;
pub mod wire;

pub use client::DStoreClient;
pub use wire::{
    decode_error, encode_error, FrameDecoder, Request, Response, MAGIC, MAX_FRAME, MAX_VALUE_LEN,
};

/// Re-exported result/error types: the protocol speaks `DsError` end to
/// end.
pub use dstore::{DsError, DsResult};
