//! [`DStoreClient`]: a synchronous, pipelining-capable client for
//! `dstore-server`.
//!
//! Two usage styles share one connection:
//!
//! * **sync** — [`DStoreClient::put`], [`DStoreClient::get`], … submit
//!   one request and block for its response;
//! * **pipelined** — [`DStoreClient::submit`] queues any number of
//!   requests (returning their IDs), [`DStoreClient::flush`] pushes
//!   them out in one write, and [`DStoreClient::wait`] collects each
//!   response whenever it lands. The server replies in *completion*
//!   order; out-of-order arrivals are parked internally and handed out
//!   by ID, so callers can wait in any order.
//!
//! The client is deliberately `std`-only and single-threaded: one
//! `TcpStream`, blocking reads, no runtime. Share a store across
//! threads by opening one client per thread — exactly the paper's
//! one-context-per-thread pattern over the network.

use crate::wire::{encode_request, FrameDecoder, Request, Response};
use dstore::{DsError, DsResult, HealthSnapshot, ObjectStat};
use dstore_telemetry::TelemetrySnapshot;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A synchronous, pipelining-capable DStore connection.
pub struct DStoreClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    wbuf: Vec<u8>,
    next_id: u64,
    outstanding: HashSet<u64>,
    parked: HashMap<u64, Result<Response, DsError>>,
}

fn io_err(e: std::io::Error) -> DsError {
    DsError::Io(e.to_string())
}

impl DStoreClient {
    /// Connects to a `dstore-server` (e.g. `"127.0.0.1:7878"`).
    /// `TCP_NODELAY` is set: frames are already batched explicitly by
    /// the pipelining API, so Nagle only adds tail latency.
    pub fn connect(addr: impl ToSocketAddrs) -> DsResult<Self> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(DStoreClient {
            stream,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            next_id: 1,
            outstanding: HashSet::new(),
            parked: HashMap::new(),
        })
    }

    /// Sets (or clears) the blocking-read timeout; a response slower
    /// than this surfaces as [`DsError::Io`].
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> DsResult<()> {
        self.stream.set_read_timeout(t).map_err(io_err)
    }

    /// Requests submitted but not yet collected with [`Self::wait`].
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Queues a request into the client's write buffer and returns its
    /// request ID. Nothing reaches the socket until [`Self::flush`] (or
    /// a sync convenience method) runs — that batching is what makes a
    /// pipelined burst one `write`.
    ///
    /// A key longer than the frame's u16 length field is not encoded:
    /// the request's [`Self::wait`] returns [`DsError::NameTooLong`], as
    /// the store would for any key over its name limit.
    pub fn submit(&mut self, req: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(id);
        match req.key() {
            Some(key) if key.len() > u16::MAX as usize => {
                self.parked.insert(id, Err(DsError::NameTooLong(key.len())));
            }
            _ => encode_request(id, req, &mut self.wbuf),
        }
        id
    }

    /// Writes all queued requests to the socket.
    pub fn flush(&mut self) -> DsResult<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf).map_err(io_err)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Blocks until the response for `id` arrives (flushing first).
    /// Responses for *other* in-flight requests that arrive earlier are
    /// parked and returned by their own `wait` calls. An application
    /// error (e.g. [`DsError::NotFound`], [`DsError::Busy`]) is the
    /// `Err` of the returned result, exactly as the store would have
    /// returned it in-process.
    pub fn wait(&mut self, id: u64) -> DsResult<Response> {
        if !self.outstanding.contains(&id) && !self.parked.contains_key(&id) {
            return Err(DsError::Protocol(format!(
                "request id {id} never submitted"
            )));
        }
        self.flush()?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(result) = self.parked.remove(&id) {
                self.outstanding.remove(&id);
                return result;
            }
            while let Some((rid, result)) = self.decoder.next_response()? {
                if !self.outstanding.contains(&rid) {
                    return Err(DsError::Protocol(format!(
                        "response for unknown request id {rid}"
                    )));
                }
                self.parked.insert(rid, result);
            }
            if self.parked.contains_key(&id) {
                continue;
            }
            let n = self.stream.read(&mut chunk).map_err(io_err)?;
            if n == 0 {
                return Err(DsError::Io("connection closed by server".into()));
            }
            self.decoder.push(&chunk[..n]);
        }
    }

    fn call(&mut self, req: &Request) -> DsResult<Response> {
        let id = self.submit(req);
        self.wait(id)
    }

    // -----------------------------------------------------------------
    // sync conveniences

    /// Stores `value` under `key`; durable on the server when `Ok`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> DsResult<()> {
        match self.call(&Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(type_mismatch("put", &other)),
        }
    }

    /// Reads the object stored under `key`.
    pub fn get(&mut self, key: &[u8]) -> DsResult<Vec<u8>> {
        match self.call(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(v),
            other => Err(type_mismatch("get", &other)),
        }
    }

    /// Replaces an existing object; [`DsError::NotFound`] if absent.
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> DsResult<()> {
        match self.call(&Request::Update {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(type_mismatch("update", &other)),
        }
    }

    /// Deletes the object stored under `key`.
    pub fn delete(&mut self, key: &[u8]) -> DsResult<()> {
        match self.call(&Request::Delete { key: key.to_vec() })? {
            Response::Ok => Ok(()),
            other => Err(type_mismatch("delete", &other)),
        }
    }

    /// Object metadata.
    pub fn stat(&mut self, key: &[u8]) -> DsResult<ObjectStat> {
        match self.call(&Request::Stat { key: key.to_vec() })? {
            Response::Stat(s) => Ok(s),
            other => Err(type_mismatch("stat", &other)),
        }
    }

    /// Whether `key` exists.
    pub fn exists(&mut self, key: &[u8]) -> DsResult<bool> {
        match self.call(&Request::Exists { key: key.to_vec() })? {
            Response::Bool(b) => Ok(b),
            other => Err(type_mismatch("exists", &other)),
        }
    }

    /// Fleet-merged health summary.
    pub fn health(&mut self) -> DsResult<HealthSnapshot> {
        match self.call(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(type_mismatch("health", &other)),
        }
    }

    /// The server's full merged telemetry snapshot (store + server
    /// series).
    pub fn telemetry_snapshot(&mut self) -> DsResult<TelemetrySnapshot> {
        match self.call(&Request::TelemetrySnapshot)? {
            Response::Telemetry(t) => Ok(t),
            other => Err(type_mismatch("telemetry_snapshot", &other)),
        }
    }

    /// Per-shard post-mortems of the previous incarnation, exhumed from
    /// each shard's crash-persistent black box when the server
    /// recovered. One entry per shard, index order; `None` entries are
    /// shards with nothing to report (fresh store, or a region without
    /// its magic).
    pub fn crash_report(&mut self) -> DsResult<Vec<Option<dstore::CrashReport>>> {
        match self.call(&Request::CrashReport)? {
            Response::CrashReports(reports) => Ok(reports),
            other => Err(type_mismatch("crash_report", &other)),
        }
    }
}

fn type_mismatch(op: &str, got: &Response) -> DsError {
    DsError::Protocol(format!("{op}: unexpected response payload {got:?}"))
}
