//! Workload generation and measurement for the DStore evaluation.
//!
//! * [`zipfian`] — the YCSB scrambled-zipfian key chooser (θ = 0.99).
//! * [`ycsb`] — workload definitions: A (50 % read / 50 % update) and
//!   B (95 % read / 5 % update), 4 KB values, plus arbitrary mixes.
//! * [`LatencyHistogram`] — HDR-style log-bucketed latency histogram with
//!   the percentile queries the paper reports (p50 → p9999), re-exported
//!   from `dstore-telemetry`.
//! * [`timeline`] — per-interval throughput/bandwidth sampling behind the
//!   Figure 7 timelines.
//! * [`runner`] — a closed-loop multi-threaded driver ("full
//!   subscription" = one client thread per core).

#![warn(missing_docs)]

pub mod runner;
pub mod timeline;
pub mod ycsb;
pub mod zipfian;

pub use dstore_telemetry::LatencyHistogram;
pub use runner::{run_closed_loop, ClientOp, RunOptions, RunReport};
pub use timeline::{Timeline, TimelineSample};
pub use ycsb::{Workload, WorkloadKind, YcsbOp};
pub use zipfian::ScrambledZipfian;
