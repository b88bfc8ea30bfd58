//! Telemetry for DStore: an always-on measurement substrate.
//!
//! DStore's headline claims — *taillessness* and *quiescent-freedom* —
//! are temporal properties: they are statements about what happens while
//! a checkpoint runs, not about end-state counters. This crate provides
//! the instruments to observe them in production rather than only on the
//! bench:
//!
//! * [`LatencyHistogram`] — the HDR-style log-bucketed histogram
//!   (promoted here from `dstore-workload`, which re-exports it), plus
//!   [`HistogramSnapshot`] for mergeable/diffable point-in-time views;
//! * [`SpanRing`] — a fixed-capacity, lock-free ring of phase spans
//!   (checkpoint trigger→apply→flush→swap, recovery scan→redo→copy→
//!   replay) with monotonic timestamps; old spans are dropped, never
//!   torn. It and [`TraceRing`] encode their records onto one private
//!   seqlock ring;
//! * [`PhaseCell`] — a one-word "what phase is in flight right now"
//!   indicator;
//! * [`TraceRing`] / [`OpTrace`] — the per-operation flight recorder:
//!   1-in-N sampled segment breakdowns with SLO-retained outliers,
//!   [`TailAttribution`] reports, and a Chrome trace-event / Perfetto
//!   exporter ([`export::to_perfetto`]);
//! * [`MetricsRegistry`] — named counters / gauges / histograms / span
//!   rings with Prometheus-style labels. Recording through a registered
//!   handle is lock-free (plain relaxed atomics); only registration and
//!   snapshotting take a lock;
//! * [`TelemetrySnapshot`] — a plain-data snapshot of any of the above,
//!   mergeable across shards (with per-shard labels) and renderable as
//!   Prometheus text exposition ([`export::to_prometheus`]) or a JSON
//!   document ([`export::to_json`]) — the single serialization path for
//!   every tool (`dstore_top`, `inspect`, scrapers);
//! * [`codec`] — the one binary codec for traces, black-box records and
//!   snapshots, shared by the wire protocol and the black box.

#![warn(missing_docs)]

pub mod clock;
pub mod codec;
pub mod export;
pub mod histogram;
pub mod registry;
mod ring;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use clock::{now_ns, rate_between, rate_per_sec};
pub use codec::{BlackBoxEvent, BlackBoxHeartbeat};
pub use export::{to_json, to_perfetto, to_prometheus};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use snapshot::{
    CounterSeries, GaugeSeries, HistogramSeries, Labels, SpanSeries, TelemetrySnapshot, TraceSeries,
};
pub use span::{PhaseCell, Span, SpanRing};
pub use trace::{
    ActiveTrace, OpTrace, TailAttribution, TraceConfig, TraceRing, TraceSampler, NUM_SEGMENTS,
    SEGMENT_NAMES,
};
