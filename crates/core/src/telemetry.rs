//! Store-level telemetry: the per-op histograms, phase rings, and gauge
//! handles a [`crate::DStore`] records into, plus the [`HealthSnapshot`]
//! summary.
//!
//! Every store has one, shared with its checkpoint engine (DIPPER's
//! worker and the CoW copier record phase spans into the same ring).
//! Everything recorded on
//! an op path is a relaxed atomic — the registry lock is touched only at
//! registration (store assembly) and snapshot time.

use crate::replay::ReplayStats;
use dstore_dipper::checkpoint::{CheckpointTelemetry, CHECKPOINT_PHASES};
use dstore_telemetry::{
    Counter, Gauge, LatencyHistogram, MetricsRegistry, PhaseCell, SpanRing, TelemetrySnapshot,
    TraceConfig, TraceRing, TraceSampler,
};
use std::sync::Arc;

/// Spans kept per checkpoint ring (4 phases × 64 checkpoints).
const CKPT_RING_CAPACITY: usize = 256;
/// Spans kept for recovery (one recovery records 3).
const RECOVERY_RING_CAPACITY: usize = 32;

/// Flight-recorder handles: the ring retained traces land in plus the
/// per-op arming / SLO-retention decisions.
pub(crate) struct TraceTelemetry {
    /// The flight recorder itself.
    pub ring: Arc<TraceRing>,
    /// 1-in-N arming and the SLO threshold, shared by every op path.
    pub sampler: TraceSampler,
}

/// All telemetry handles of one store. Cheap to clone handles out of;
/// the registry owns the canonical series set.
pub(crate) struct StoreTelemetry {
    /// The registry every handle below is registered in.
    pub registry: MetricsRegistry,
    /// Latency of `put` (`oput`), ns.
    pub op_put: Arc<LatencyHistogram>,
    /// Latency of `get` (`oget`), ns.
    pub op_get: Arc<LatencyHistogram>,
    /// Latency of `delete` (`odelete`), ns.
    pub op_delete: Arc<LatencyHistogram>,
    /// Latency of `ObjectHandle::write` (`owrite`), ns.
    pub op_owrite: Arc<LatencyHistogram>,
    /// Latency of `ObjectHandle::read` (`oread`), ns.
    pub op_oread: Arc<LatencyHistogram>,
    /// Operations that had to retry due to a write-write conflict.
    pub ww_conflicts: Arc<Counter>,
    /// Reader back-offs due to an in-flight writer.
    pub rw_backoffs: Arc<Counter>,
    /// Appends that hit a full log and waited for a checkpoint.
    pub log_full_stalls: Arc<Counter>,
    /// Records the black box published (heartbeats, events, traces), one
    /// PMEM fence each: the share of `dstore_pmem_fences_total` that is
    /// not the op or checkpoint path's.
    pub blackbox_records: Arc<Counter>,
    /// Parallel-replay counters (`dstore_replay_*_total`), shared by the
    /// checkpoint applier and recovery.
    pub replay: ReplayStats,
    /// Checkpoint phase sinks, shared with the checkpoint engine.
    pub ckpt: CheckpointTelemetry,
    /// Gauge mirroring `ckpt.phase` for exporters (index into
    /// [`CHECKPOINT_PHASES`]).
    pub ckpt_phase_gauge: Arc<Gauge>,
    /// Recovery phase spans (`redo` / `copy` / `replay`).
    pub recovery_ring: Arc<SpanRing>,
    /// Active-log fill fraction, refreshed at snapshot time.
    pub log_used: Arc<Gauge>,
    /// DRAM arena high-water mark in bytes, refreshed at snapshot time.
    pub arena_high_water: Arc<Gauge>,
    /// SSD allocation blocks in use, refreshed at snapshot time.
    pub ssd_blocks_used: Arc<Gauge>,
    /// Per-op flight recorder, sized by [`crate::DStoreConfig::trace`].
    pub trace: TraceTelemetry,
}

impl StoreTelemetry {
    pub(crate) fn new(trace_cfg: &TraceConfig) -> Self {
        let registry = MetricsRegistry::new();
        let hist = |op: &str| registry.histogram("dstore_op_latency_ns", &[("op", op)]);
        let ckpt = CheckpointTelemetry {
            ring: registry.span_ring("dstore_checkpoint_spans", &[], CKPT_RING_CAPACITY),
            phase: Arc::new(PhaseCell::new(CHECKPOINT_PHASES)),
            panics: registry.counter("dstore_checkpoint_panics_total", &[]),
            events: Arc::new(|_, _, _| {}),
        };
        let trace = TraceTelemetry {
            ring: registry.trace_ring("dstore_op_traces", &[], trace_cfg.ring_capacity),
            sampler: TraceSampler::new(trace_cfg.sample_every, trace_cfg.slo_ns),
        };
        Self {
            trace,
            op_put: hist("put"),
            op_get: hist("get"),
            op_delete: hist("delete"),
            op_owrite: hist("owrite"),
            op_oread: hist("oread"),
            ww_conflicts: registry.counter("dstore_ww_conflicts_total", &[]),
            rw_backoffs: registry.counter("dstore_rw_backoffs_total", &[]),
            log_full_stalls: registry.counter("dstore_log_full_stalls_total", &[]),
            blackbox_records: registry.counter("dstore_blackbox_records_total", &[]),
            replay: ReplayStats::register(&registry),
            ckpt,
            ckpt_phase_gauge: registry.gauge("dstore_checkpoint_phase", &[]),
            recovery_ring: registry.span_ring("dstore_recovery_spans", &[], RECOVERY_RING_CAPACITY),
            log_used: registry.gauge("dstore_log_used_fraction", &[]),
            arena_high_water: registry.gauge("dstore_arena_high_water_bytes", &[]),
            ssd_blocks_used: registry.gauge("dstore_ssd_blocks_used", &[]),
            registry,
        }
    }

    /// Snapshots the registry, plus `dstore_ops_total{op}`: each op's
    /// latency histogram counts every completed op once, so the count
    /// is read from that histogram's snapshot, not kept a second time.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.registry.snapshot();
        let ops: Vec<_> = snap
            .histograms
            .iter()
            .filter(|s| s.name == "dstore_op_latency_ns")
            .map(|s| (s.labels.clone(), s.hist.count))
            .collect();
        for (labels, count) in ops {
            snap.push_counter("dstore_ops_total", labels, count);
        }
        snap
    }
}

/// A coarse liveness/health summary — the first thing to look at when a
/// store misbehaves, from [`crate::DStore::health`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Checkpoint apply-phase panics caught on the worker thread. Any
    /// non-zero value is an alarm: the store stays consistent (the root
    /// never committed) but the archived log is no longer draining, so
    /// the next swap will stall once both logs fill.
    pub checkpoint_panics: u64,
    /// The checkpoint phase currently in flight (see
    /// `dstore_dipper::checkpoint::CHECKPOINT_PHASES`; `"idle"` when
    /// none).
    pub checkpoint_phase: &'static str,
    /// Checkpoints completed since creation/recovery.
    pub checkpoints_completed: u64,
    /// Active-log fill fraction in [0, 1].
    pub log_used_fraction: f64,
    /// Appends that had to stall on a completely full log.
    pub log_full_stalls: u64,
    /// Phase spans dropped because the ring lapped a stalled writer
    /// (diagnostic for the telemetry itself; normally 0).
    pub spans_dropped: u64,
}

impl Default for HealthSnapshot {
    fn default() -> Self {
        HealthSnapshot {
            checkpoint_panics: 0,
            checkpoint_phase: "idle",
            checkpoints_completed: 0,
            log_used_fraction: 0.0,
            log_full_stalls: 0,
            spans_dropped: 0,
        }
    }
}

impl HealthSnapshot {
    /// Folds another store's health into this one — how
    /// `ShardedStore::health` condenses a fleet into one answer that
    /// stays alarming whenever any member is. Counters sum; the log
    /// fill keeps the *worst* shard (the one closest to a stall); the
    /// phase keeps the first non-`"idle"` phase seen, so "is anything
    /// checkpointing right now" survives the merge.
    pub fn merge(&mut self, other: &HealthSnapshot) {
        self.checkpoint_panics += other.checkpoint_panics;
        self.checkpoints_completed += other.checkpoints_completed;
        self.log_full_stalls += other.log_full_stalls;
        self.spans_dropped += other.spans_dropped;
        if self.log_used_fraction < other.log_used_fraction {
            self.log_used_fraction = other.log_used_fraction;
        }
        if self.checkpoint_phase == "idle" {
            self.checkpoint_phase = other.checkpoint_phase;
        }
    }
}
