//! Server-side telemetry: what the network layer adds on top of the
//! store's own flight recorder.
//!
//! The store already attributes queue wait inside each sampled
//! [`dstore_telemetry::OpTrace`] (the `net_queue` segment — the server
//! passes the admission timestamp into `DsContext::*_enqueued`). This
//! module adds the *server's* aggregate view:
//!
//! * `dstore_server_op_latency_ns{op}` — full server residency per op
//!   (admission → response encoded), one histogram per request kind;
//! * `dstore_server_queue_depth{shard}` — per-shard executor queue
//!   depth gauges: the depth after each push, and the length of each
//!   batch an executor pops;
//! * `dstore_server_batch_len{shard,of}` — every pop's job count
//!   (`of="jobs"`, the control queue included) and every shard
//!   durability epoch's put count (`of="puts"`), so batch sizes are read
//!   as a distribution, not a point sample;
//! * counters for connections, requests, responses, `Busy` rejections,
//!   and protocol errors.
//!
//! Everything lives in one [`MetricsRegistry`] so the `telemetry_snapshot`
//! RPC can merge it (labelled `layer="server"`) with the store's
//! snapshot and ship both over the wire in a single frame.

use dstore::DsError;
use dstore_protocol::Request;
use dstore_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry, TelemetrySnapshot};
use std::sync::Arc;

/// Request kinds, in wire order — index with [`op_index`].
const OP_NAMES: [&str; 9] = [
    "put",
    "get",
    "update",
    "delete",
    "stat",
    "exists",
    "health",
    "telemetry_snapshot",
    "crash_report",
];

fn op_index(req: &Request) -> usize {
    match req {
        Request::Put { .. } => 0,
        Request::Get { .. } => 1,
        Request::Update { .. } => 2,
        Request::Delete { .. } => 3,
        Request::Stat { .. } => 4,
        Request::Exists { .. } => 5,
        Request::Health => 6,
        Request::TelemetrySnapshot => 7,
        Request::CrashReport => 8,
    }
}

/// All server-layer instruments, pre-registered at startup so the hot
/// path only touches atomics.
pub struct ServerMetrics {
    registry: MetricsRegistry,
    op_latency: Vec<Arc<LatencyHistogram>>,
    queue_depth: Vec<Arc<Gauge>>,
    /// Per queue (the gauges' indexing): jobs per pop.
    pop_len: Vec<Arc<LatencyHistogram>>,
    /// Per shard: puts per durability epoch.
    epoch_len: Vec<Arc<LatencyHistogram>>,
    /// Error responses per request kind
    /// (`dstore_server_errors_total{kind}`). Application errors
    /// included — a `NotFound` probe counts, so the rate is the thing
    /// to alarm on, not the raw value.
    errors_total: Vec<Arc<Counter>>,
    /// Every [`dstore::DsError::Busy`] that went out on the wire
    /// (`dstore_server_busy_total`) — admission rejections included.
    pub busy_total: Arc<Counter>,
    /// Accepted connections.
    pub connections_opened: Arc<Counter>,
    /// Closed connections (EOF, error, or shutdown).
    pub connections_closed: Arc<Counter>,
    /// Frames admitted to an executor queue.
    pub requests_admitted: Arc<Counter>,
    /// Response frames produced (including error responses).
    pub responses_sent: Arc<Counter>,
    /// Requests refused with [`dstore::DsError::Busy`].
    pub busy_rejections: Arc<Counter>,
    /// Connections torn down on a malformed frame.
    pub protocol_errors: Arc<Counter>,
}

impl ServerMetrics {
    /// Registers every server series; `shards` + 1 depth gauges (the
    /// last one is the control queue).
    pub fn new(shards: usize) -> Self {
        let registry = MetricsRegistry::new();
        let op_latency = OP_NAMES
            .iter()
            .map(|op| registry.histogram("dstore_server_op_latency_ns", &[("op", op)]))
            .collect();
        let mut queue_depth: Vec<Arc<Gauge>> = (0..shards)
            .map(|i| registry.gauge("dstore_server_queue_depth", &[("shard", &i.to_string())]))
            .collect();
        queue_depth.push(registry.gauge("dstore_server_queue_depth", &[("shard", "control")]));
        let batch_len = |shard: &str, of: &str| {
            registry.histogram("dstore_server_batch_len", &[("shard", shard), ("of", of)])
        };
        let mut pop_len: Vec<_> = (0..shards)
            .map(|i| batch_len(&i.to_string(), "jobs"))
            .collect();
        pop_len.push(batch_len("control", "jobs"));
        let epoch_len = (0..shards)
            .map(|i| batch_len(&i.to_string(), "puts"))
            .collect();
        let errors_total = OP_NAMES
            .iter()
            .map(|op| registry.counter("dstore_server_errors_total", &[("kind", op)]))
            .collect();
        ServerMetrics {
            op_latency,
            queue_depth,
            pop_len,
            epoch_len,
            errors_total,
            busy_total: registry.counter("dstore_server_busy_total", &[]),
            connections_opened: registry.counter("dstore_server_connections_opened", &[]),
            connections_closed: registry.counter("dstore_server_connections_closed", &[]),
            requests_admitted: registry.counter("dstore_server_requests_admitted", &[]),
            responses_sent: registry.counter("dstore_server_responses_sent", &[]),
            busy_rejections: registry.counter("dstore_server_busy_rejections", &[]),
            protocol_errors: registry.counter("dstore_server_protocol_errors", &[]),
            registry,
        }
    }

    /// Records full server residency (admission → response encoded).
    pub fn record_op(&self, req: &Request, latency_ns: u64) {
        self.op_latency[op_index(req)].record(latency_ns);
    }

    /// Records an error response under its request kind; a `Busy` also
    /// bumps the dedicated backpressure counter.
    pub fn record_error(&self, req: &Request, err: &DsError) {
        self.errors_total[op_index(req)].inc();
        if matches!(err, DsError::Busy) {
            self.busy_total.inc();
        }
    }

    /// Updates the depth gauge for `shard` (or the control queue when
    /// `shard == shards`).
    pub fn set_queue_depth(&self, shard: usize, depth: usize) {
        self.queue_depth[shard].set(depth as f64);
    }

    /// Records a pop of `jobs` jobs from queue `shard`: its batch-length
    /// sample and the depth gauge.
    pub fn record_pop(&self, shard: usize, jobs: usize) {
        self.set_queue_depth(shard, jobs);
        self.pop_len[shard].record(jobs as u64);
    }

    /// Records a durability epoch of `puts` puts on `shard`.
    pub fn record_epoch(&self, shard: usize, puts: usize) {
        self.epoch_len[shard].record(puts as u64);
    }

    /// Snapshot of the server layer, labelled to keep it separable from
    /// the store's series after a merge.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.registry.snapshot().with_label("layer", "server")
    }
}
