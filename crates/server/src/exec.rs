//! Admission and execution: the seam between the epoll I/O loop and the
//! store.
//!
//! Decoded requests are routed by the store's own [`Router`] (same
//! seed, same placement as in-process callers) into one
//! [`BoundedQueue`] per shard; a single executor thread per shard owns
//! that shard's [`DsContext`] and drains its queue. One-thread-per-shard
//! gives two properties for free:
//!
//! * **per-shard atomicity** — `update` (exists + put) needs no lock:
//!   nothing else touches that shard through the server;
//! * **the paper's threading model** — a `DsContext` is a per-thread
//!   handle; the executor *is* that thread, regardless of how many
//!   network connections multiplex onto it.
//!
//! Observability RPCs (`stats`/`health`/`telemetry_snapshot`) run on a
//! separate control executor so a burst of snapshot polls cannot add
//! tail latency to the data path.

use crate::epoll::EpollSink;
use crate::queue::BoundedQueue;
use crate::telemetry::ServerMetrics;
use dstore::{DsContext, DsError};
use dstore_protocol::wire::{encode_error_response, encode_response};
use dstore_protocol::{Request, Response};
use dstore_shard::{is_reserved, Router, ShardedStore};
use dstore_telemetry::now_ns;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One admitted request, parked in a shard (or control) queue.
pub(crate) struct Job {
    pub req_id: u64,
    pub req: Request,
    /// Admission timestamp — flows into `DsContext::*_enqueued` so the
    /// store's flight recorder charges the wait to `net_queue`.
    pub enqueue_ns: u64,
    /// Where the response goes: the originating connection's outbound
    /// buffer.
    pub sink: Arc<EpollSink>,
}

/// Routing + backpressure state shared by every connection.
pub(crate) struct Admission {
    pub router: Router,
    pub shard_queues: Vec<Arc<BoundedQueue<Job>>>,
    pub control_queue: Arc<BoundedQueue<Job>>,
    pub metrics: Arc<ServerMetrics>,
}

impl Admission {
    /// Routes one decoded frame. Never blocks: a full queue turns into
    /// an immediate [`DsError::Busy`] error frame on the wire.
    pub fn admit(&self, req_id: u64, req: Request, sink: &Arc<EpollSink>) {
        // Reserved names never reach a shard: the shard-map superblock
        // is store-internal, exactly as in `ShardedCtx`.
        if let Some(key) = req.key() {
            if is_reserved(key) {
                let mut buf = Vec::new();
                if matches!(req, Request::Exists { .. }) {
                    encode_response(req_id, &Response::Bool(false), &mut buf);
                } else {
                    encode_error_response(req_id, &DsError::ReservedName, &mut buf);
                }
                self.metrics.responses_sent.inc();
                sink.send(&buf);
                return;
            }
        }
        let (queue, qi) = match req.key() {
            Some(key) => {
                let s = self.router.shard_of(key);
                (&self.shard_queues[s], s)
            }
            None => (&self.control_queue, self.shard_queues.len()),
        };
        let job = Job {
            req_id,
            req,
            enqueue_ns: now_ns(),
            sink: Arc::clone(sink),
        };
        match queue.try_push(job) {
            Ok(depth) => {
                self.metrics.requests_admitted.inc();
                self.metrics.set_queue_depth(qi, depth);
            }
            Err(job) => {
                self.metrics.busy_rejections.inc();
                self.metrics.record_error(&job.req, &DsError::Busy);
                self.metrics.responses_sent.inc();
                let mut buf = Vec::new();
                encode_error_response(job.req_id, &DsError::Busy, &mut buf);
                job.sink.send(&buf);
            }
        }
    }

    /// Closes every queue; executors drain what is queued, answer it,
    /// and exit — acknowledged work is never dropped.
    pub fn close_all(&self) {
        for q in &self.shard_queues {
            q.close();
        }
        self.control_queue.close();
    }
}

fn execute_data(ctx: &DsContext, req: &Request, enqueue_ns: u64) -> Result<Response, DsError> {
    match req {
        Request::Put { key, value } => ctx
            .put_enqueued(key, value, enqueue_ns)
            .map(|_| Response::Ok),
        Request::Get { key } => ctx.get_enqueued(key, enqueue_ns).map(Response::Value),
        Request::Update { key, value } => {
            // Atomic on this shard: the executor is the only server
            // thread touching it.
            if !ctx.exists(key) {
                return Err(DsError::NotFound);
            }
            ctx.put_enqueued(key, value, enqueue_ns)
                .map(|_| Response::Ok)
        }
        Request::Delete { key } => ctx.delete_enqueued(key, enqueue_ns).map(|_| Response::Ok),
        Request::Stat { key } => ctx.stat(key).map(Response::Stat),
        Request::Exists { key } => Ok(Response::Bool(ctx.exists(key))),
        Request::Stats | Request::Health | Request::TelemetrySnapshot | Request::CrashReport => {
            Err(DsError::Protocol(
                "control RPC routed to a data executor".into(),
            ))
        }
    }
}

fn respond(metrics: &ServerMetrics, job: &Job, result: Result<Response, DsError>) {
    let mut buf = Vec::new();
    match &result {
        Ok(resp) => encode_response(job.req_id, resp, &mut buf),
        Err(e) => {
            metrics.record_error(&job.req, e);
            encode_error_response(job.req_id, e, &mut buf);
        }
    }
    metrics.record_op(&job.req, now_ns().saturating_sub(job.enqueue_ns));
    metrics.responses_sent.inc();
    job.sink.send(&buf);
}

/// Spawns the per-shard executors. Each owns its shard's `DsContext`
/// and loops until its queue is closed and drained.
pub(crate) fn spawn_shard_executors(
    store: &Arc<ShardedStore>,
    queues: &[Arc<BoundedQueue<Job>>],
    metrics: &Arc<ServerMetrics>,
) -> Vec<JoinHandle<()>> {
    queues
        .iter()
        .enumerate()
        .map(|(i, queue)| {
            let ctx = store.shard(i).context();
            let queue = Arc::clone(queue);
            let metrics = Arc::clone(metrics);
            std::thread::Builder::new()
                .name(format!("ds-exec-{i}"))
                .spawn(move || {
                    while let Some((job, depth)) = queue.pop() {
                        metrics.set_queue_depth(i, depth);
                        let result = execute_data(&ctx, &job.req, job.enqueue_ns);
                        respond(&metrics, &job, result);
                    }
                })
                .expect("spawn shard executor")
        })
        .collect()
}

/// Spawns the control executor serving the observability RPCs. The
/// telemetry response merges the store's snapshot with the server
/// layer's own series (labelled `layer="server"`).
pub(crate) fn spawn_control_executor(
    store: &Arc<ShardedStore>,
    queue: &Arc<BoundedQueue<Job>>,
    metrics: &Arc<ServerMetrics>,
) -> JoinHandle<()> {
    let store = Arc::clone(store);
    let queue = Arc::clone(queue);
    let metrics = Arc::clone(metrics);
    let control_index = store.shard_count() as usize;
    std::thread::Builder::new()
        .name("ds-exec-ctl".into())
        .spawn(move || {
            while let Some((job, depth)) = queue.pop() {
                metrics.set_queue_depth(control_index, depth);
                let result = match &job.req {
                    Request::Stats => Ok(Response::Stats(store.stats())),
                    Request::Health => Ok(Response::Health(store.health())),
                    Request::TelemetrySnapshot => {
                        let mut snap = store.telemetry_snapshot();
                        snap.absorb(metrics.snapshot());
                        snap.sort();
                        Ok(Response::Telemetry(snap))
                    }
                    Request::CrashReport => Ok(Response::CrashReports(store.crash_reports())),
                    _ => Err(DsError::Protocol(
                        "data op routed to control executor".into(),
                    )),
                };
                respond(&metrics, &job, result);
            }
        })
        .expect("spawn control executor")
}
