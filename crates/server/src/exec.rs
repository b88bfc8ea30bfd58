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
//! Observability RPCs (`health`/`telemetry_snapshot`/`crash_report`)
//! run on a separate control executor so a burst of snapshot polls
//! cannot add tail latency to the data path.
//!
//! Every executor, shard or control, runs one loop ([`run_executor`]):
//! it takes everything queued in one pop, answers the jobs in order into
//! their connections' buffers, and then wakes the I/O loop once for the
//! whole batch. Under load a burst of N requests therefore costs one
//! eventfd round trip and one `write` per connection instead of N; at
//! queue depth 1 the batch is one job and the path is the same as an
//! unbatched one. Executing on the I/O thread instead would save the
//! hop entirely but serialise the modelled SSD waits the executors
//! overlap, which halves throughput (DESIGN.md §7).

use crate::epoll::{wake_for, EpollSink};
use crate::queue::BoundedQueue;
use crate::telemetry::ServerMetrics;
use dstore::{DsContext, DsError};
use dstore_protocol::wire::{encode_error_response, encode_response};
use dstore_protocol::{Request, Response};
use dstore_shard::{is_reserved, Router, ShardedStore};
use dstore_telemetry::now_ns;
use std::collections::VecDeque;
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
    /// an immediate [`DsError::Busy`] error frame on the wire. Runs on
    /// the I/O loop, which flushes the connection after reading from it,
    /// so immediate answers are only buffered.
    pub fn admit(&self, req_id: u64, req: Request, sink: &Arc<EpollSink>) {
        // Reserved names never reach a shard: the shard-map superblock
        // is store-internal, exactly as in `ShardedCtx`.
        if let Some(key) = req.key() {
            if is_reserved(key) {
                self.metrics.responses_sent.inc();
                sink.buffer(|out| {
                    if matches!(req, Request::Exists { .. }) {
                        encode_response(req_id, &Response::Bool(false), out);
                    } else {
                        encode_error_response(req_id, &DsError::ReservedName, out);
                    }
                });
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
                job.sink
                    .buffer(|out| encode_error_response(job.req_id, &DsError::Busy, out));
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
        Request::Health | Request::TelemetrySnapshot | Request::CrashReport => Err(
            DsError::Protocol("control RPC routed to a data executor".into()),
        ),
    }
}

fn execute_control(
    store: &ShardedStore,
    metrics: &ServerMetrics,
    req: &Request,
) -> Result<Response, DsError> {
    match req {
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
    }
}

/// Encodes `job`'s response straight into its connection's outbound
/// buffer. The loop is not woken here: see [`run_executor`].
fn respond(metrics: &ServerMetrics, job: &Job, result: Result<Response, DsError>) {
    if let Err(e) = &result {
        metrics.record_error(&job.req, e);
    }
    job.sink.buffer(|out| match &result {
        Ok(resp) => encode_response(job.req_id, resp, out),
        Err(e) => encode_error_response(job.req_id, e, out),
    });
    metrics.record_op(&job.req, now_ns().saturating_sub(job.enqueue_ns));
    metrics.responses_sent.inc();
}

/// One executor's life: take every queued job under one lock, run them
/// in order, buffer each response on its connection, then wake the I/O
/// loop once for all the connections the batch answered — always before
/// the next pop can park, so no response waits on a later request.
/// Returns once the queue is closed and drained. `gauge` indexes the
/// queue-depth gauge, which records each batch's length.
fn run_executor(
    queue: &BoundedQueue<Job>,
    gauge: usize,
    metrics: &ServerMetrics,
    mut execute: impl FnMut(&Job) -> Result<Response, DsError>,
) {
    let mut batch = VecDeque::new();
    let mut answered: Vec<Arc<EpollSink>> = Vec::new();
    while queue.pop_batch(&mut batch) {
        metrics.set_queue_depth(gauge, batch.len());
        for job in batch.drain(..) {
            let result = execute(&job);
            respond(metrics, &job, result);
            if !answered.iter().any(|s| Arc::ptr_eq(s, &job.sink)) {
                answered.push(job.sink);
            }
        }
        wake_for(&answered);
        answered.clear();
    }
}

/// Spawns one executor per shard queue — each owns its shard's
/// `DsContext` — plus the control executor serving the observability
/// RPCs, whose telemetry response merges the store's snapshot with the
/// server layer's own series (labelled `layer="server"`).
pub(crate) fn spawn_executors(
    store: &Arc<ShardedStore>,
    shard_queues: &[Arc<BoundedQueue<Job>>],
    control_queue: &Arc<BoundedQueue<Job>>,
    metrics: &Arc<ServerMetrics>,
) -> Vec<JoinHandle<()>> {
    let mut handles: Vec<JoinHandle<()>> = shard_queues
        .iter()
        .enumerate()
        .map(|(i, queue)| {
            let ctx = store.shard(i).context();
            spawn_executor(format!("ds-exec-{i}"), queue, i, metrics, move |job| {
                execute_data(&ctx, &job.req, job.enqueue_ns)
            })
        })
        .collect();
    let (store, ctl_metrics) = (Arc::clone(store), Arc::clone(metrics));
    handles.push(spawn_executor(
        "ds-exec-ctl".into(),
        control_queue,
        shard_queues.len(),
        metrics,
        move |job| execute_control(&store, &ctl_metrics, &job.req),
    ));
    handles
}

fn spawn_executor(
    name: String,
    queue: &Arc<BoundedQueue<Job>>,
    gauge: usize,
    metrics: &Arc<ServerMetrics>,
    execute: impl FnMut(&Job) -> Result<Response, DsError> + Send + 'static,
) -> JoinHandle<()> {
    let queue = Arc::clone(queue);
    let metrics = Arc::clone(metrics);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || run_executor(&queue, gauge, &metrics, execute))
        .expect("spawn executor")
}
