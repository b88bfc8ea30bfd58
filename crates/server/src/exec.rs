//! Admission and execution: the seam between the epoll I/O loop and the
//! store.
//!
//! Decoded requests are routed by the store's own [`Router`] (same
//! seed, same placement as in-process callers) into one
//! [`BoundedQueue`] per shard; a single executor thread per shard owns
//! that shard's [`DsContext`](dstore::DsContext) and drains its queue. One-thread-per-shard
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
//! it takes everything queued in one pop, runs the jobs in order,
//! answers them into their connections' buffers, and then wakes the I/O
//! loop once for the whole batch. Under load a burst of N requests
//! therefore costs one eventfd round trip and one `write` per connection
//! instead of N; at queue depth 1 the batch is one job and the path is
//! the same as an unbatched one.
//!
//! A shard executor's batch is also one durability epoch
//! ([`run_shard_batch`]): it begins every put of the batch, waits once
//! for their device writes and commits them behind one fence, and only
//! then answers. No other thread waits on the epoch: its jobs were
//! serialised on this thread, and their answers leave together anyway.

use crate::epoll::{wake_for, EpollSink};
use crate::queue::BoundedQueue;
use crate::telemetry::ServerMetrics;
use dstore::{DsError, Epoch};
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

/// Runs one data job on `epoch`'s context, adding a put (or an update
/// that finds its key) to `epoch` instead of committing it.
fn execute_data(
    epoch: &mut Epoch<'_>,
    req: &Request,
    enqueue_ns: u64,
) -> Result<Response, DsError> {
    let ctx = epoch.context();
    match req {
        Request::Put { key, value } => epoch
            .put_begin(key, value, enqueue_ns)
            .map(|_| Response::Ok),
        Request::Get { key } => ctx.get_enqueued(key, enqueue_ns).map(Response::Value),
        Request::Update { key, value } => {
            // Atomic on this shard: the executor is the only server
            // thread touching it.
            if !ctx.exists(key) {
                return Err(DsError::NotFound);
            }
            epoch
                .put_begin(key, value, enqueue_ns)
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

/// The results of one popped batch, one per job, in order.
type Results = Vec<Result<Response, DsError>>;

/// One executor's life: take every queued job under one lock, run the
/// batch (`run` pushes one result per job), buffer each response on its
/// connection, then wake the I/O loop once for all the connections the
/// batch answered — always before the next pop can park, so no response
/// waits on a later request. Returns once the queue is closed and
/// drained. `gauge` indexes the queue-depth gauge and batch-length
/// histogram, which record each batch's length. Every buffer is reused
/// across batches.
fn run_executor(
    queue: &BoundedQueue<Job>,
    gauge: usize,
    metrics: &ServerMetrics,
    mut run: impl FnMut(&VecDeque<Job>, &mut Results),
) {
    let mut batch = VecDeque::new();
    let mut results = Vec::new();
    let mut answered: Vec<Arc<EpollSink>> = Vec::new();
    while queue.pop_batch(&mut batch) {
        metrics.record_pop(gauge, batch.len());
        run(&batch, &mut results);
        assert_eq!(results.len(), batch.len(), "one result per job");
        for (job, result) in batch.drain(..).zip(results.drain(..)) {
            respond(metrics, &job, result);
            if !answered.iter().any(|s| Arc::ptr_eq(s, &job.sink)) {
                answered.push(job.sink);
            }
        }
        wake_for(&answered);
        answered.clear();
    }
}

/// Runs one shard batch as durability epochs of `epoch`: every put (and
/// every update that finds its key) is begun into `epoch`, the other jobs
/// run as they come, and the epoch finishes before the batch's answers
/// are encoded, so no put is answered before it commits. The epoch
/// finishes early before a job that names a key it holds (that job would
/// otherwise read an uncommitted value or, as a mutation, wait on the
/// executor's own record) and before a delete, the one mutation outside
/// the epoch, so the epoch never waits while it holds records.
fn run_shard_batch(
    epoch: &mut Epoch<'_>,
    batch: &VecDeque<Job>,
    results: &mut Results,
    metrics: &ServerMetrics,
    shard: usize,
) {
    let finish = |epoch: &mut Epoch<'_>| {
        if !epoch.is_empty() {
            metrics.record_epoch(shard, epoch.len());
            epoch.finish();
        }
    };
    for job in batch {
        let cut = matches!(job.req, Request::Delete { .. })
            || job.req.key().is_some_and(|k| epoch.names(k));
        if cut {
            finish(epoch);
        }
        results.push(execute_data(epoch, &job.req, job.enqueue_ns));
    }
    finish(epoch);
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
            let store = Arc::clone(store);
            spawn_executor(
                format!("ds-exec-{i}"),
                queue,
                move |queue, metrics| {
                    let ctx = store.shard(i).context();
                    let mut epoch = ctx.epoch();
                    run_executor(queue, i, metrics, |batch, results| {
                        run_shard_batch(&mut epoch, batch, results, metrics, i)
                    });
                },
                metrics,
            )
        })
        .collect();
    let store = Arc::clone(store);
    let gauge = shard_queues.len();
    handles.push(spawn_executor(
        "ds-exec-ctl".into(),
        control_queue,
        move |queue, metrics| {
            run_executor(queue, gauge, metrics, |batch, results| {
                results.extend(
                    batch
                        .iter()
                        .map(|job| execute_control(&store, metrics, &job.req)),
                )
            })
        },
        metrics,
    ));
    handles
}

fn spawn_executor(
    name: String,
    queue: &Arc<BoundedQueue<Job>>,
    body: impl FnOnce(&BoundedQueue<Job>, &ServerMetrics) + Send + 'static,
    metrics: &Arc<ServerMetrics>,
) -> JoinHandle<()> {
    let queue = Arc::clone(queue);
    let metrics = Arc::clone(metrics);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&queue, &metrics))
        .expect("spawn executor")
}

#[cfg(test)]
mod tests {
    use dstore::{CheckpointMode, DStore, DStoreConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Under CoW a put's guard is the drain lock `read`; an epoch that
    /// held one across calls could deadlock behind a queued trigger. Puts
    /// begun in epochs beside a thread that forces checkpoints, with a
    /// read between, must all complete and read back.
    #[test]
    fn cow_epochs_across_forced_checkpoints_do_not_hang() {
        let mut cfg = DStoreConfig::small().with_checkpoint(CheckpointMode::Cow);
        cfg.stall_timeout = Duration::from_secs(3);
        let store = DStore::create(cfg).unwrap();
        let (done, finished) = mpsc::channel();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let checkpoints = s.spawn(|| {
                let mut n = 0;
                while !stop.load(Ordering::Relaxed) {
                    store.checkpoint_now();
                    n += 1;
                }
                n
            });
            let store = &store;
            s.spawn(move || {
                let ctx = store.context();
                let mut epoch = ctx.epoch();
                for round in 0..200u32 {
                    for k in 0..4u32 {
                        let key = format!("k{}", (round + k) % 6);
                        let value = [round as u8; 2000];
                        epoch.put_begin(key.as_bytes(), &value, 0).unwrap();
                        assert!(epoch.is_empty(), "a CoW epoch held a put across calls");
                    }
                    ctx.get(b"k0").unwrap();
                    epoch.finish();
                }
                done.send(()).unwrap();
            });
            let ok = finished.recv_timeout(Duration::from_secs(60));
            stop.store(true, Ordering::Relaxed);
            assert!(ok.is_ok(), "the epochs hung beside the checkpoints");
            assert!(checkpoints.join().unwrap() > 0);
        });
        let ctx = store.context();
        for k in 0..6u32 {
            let last = (196..200u32)
                .flat_map(|r| (0..4u32).map(move |j| (r, j)))
                .filter(|(r, j)| (r + j) % 6 == k)
                .map(|(r, _)| r)
                .max()
                .unwrap();
            assert_eq!(
                ctx.get(format!("k{k}").as_bytes()).unwrap(),
                [last as u8; 2000]
            );
        }
    }
}
