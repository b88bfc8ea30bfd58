//! Closed-loop multi-threaded workload driver.
//!
//! "Full subscription" in the paper means one client thread per core
//! (28 on their testbed); each thread issues operations back-to-back and
//! records per-op latency into read/update histograms.

use crate::ycsb::{Workload, YcsbOp};
use crate::LatencyHistogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operation class, for latency reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOp {
    /// A read.
    Read,
    /// An update/write.
    Update,
}

/// Options for a closed-loop run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Client threads ("full subscription" = available cores).
    pub threads: usize,
    /// Run duration.
    pub duration: Duration,
    /// The workload to draw operations from.
    pub workload: Workload,
    /// RNG seed base (thread `t` uses `seed + t`).
    pub seed: u64,
}

/// Results of a closed-loop run.
pub struct RunReport {
    /// Read-op latencies.
    pub read_hist: LatencyHistogram,
    /// Update-op latencies.
    pub update_hist: LatencyHistogram,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
}

impl RunReport {
    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.read_hist.count() + self.update_hist.count()
    }

    /// Aggregate throughput in ops/s.
    pub fn throughput(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `opts.threads` closed-loop clients. `make_client(t)` builds the
/// per-thread executor, which is handed each generated op and must block
/// until it completes (closed loop).
pub fn run_closed_loop<F>(opts: &RunOptions, make_client: impl Fn(usize) -> F + Sync) -> RunReport
where
    F: FnMut(&YcsbOp) + Send,
{
    let read_hist = Arc::new(LatencyHistogram::new());
    let update_hist = Arc::new(LatencyHistogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();

    std::thread::scope(|s| {
        for t in 0..opts.threads {
            let mut client = make_client(t);
            let workload = opts.workload.clone();
            let read_hist = Arc::clone(&read_hist);
            let update_hist = Arc::clone(&update_hist);
            let stop = Arc::clone(&stop);
            let seed = opts.seed + t as u64;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                while !stop.load(Ordering::Relaxed) {
                    let op = workload.next_op(&mut rng);
                    let t0 = Instant::now();
                    client(&op);
                    let ns = t0.elapsed().as_nanos() as u64;
                    match op {
                        YcsbOp::Read { .. } => read_hist.record(ns),
                        YcsbOp::Update { .. } => update_hist.record(ns),
                    }
                }
            });
        }
        // Timer thread.
        let stop = Arc::clone(&stop);
        let duration = opts.duration;
        s.spawn(move || {
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        });
    });

    let elapsed = start.elapsed();
    RunReport {
        read_hist: Arc::try_unwrap(read_hist).unwrap_or_else(|a| {
            let h = LatencyHistogram::new();
            h.merge(&a);
            h
        }),
        update_hist: Arc::try_unwrap(update_hist).unwrap_or_else(|a| {
            let h = LatencyHistogram::new();
            h.merge(&a);
            h
        }),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::WorkloadKind;

    #[test]
    fn closed_loop_drives_all_threads() {
        use std::sync::atomic::AtomicU64;
        let per_thread: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let per_thread = Arc::new(per_thread);
        let opts = RunOptions {
            threads: 4,
            duration: Duration::from_millis(150),
            workload: Workload::new(WorkloadKind::A, 100, 128),
            seed: 1,
        };
        let pt = Arc::clone(&per_thread);
        let report = run_closed_loop(&opts, move |t| {
            let pt = Arc::clone(&pt);
            move |_op: &YcsbOp| {
                pt[t].fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        for (t, c) in per_thread.iter().enumerate() {
            assert!(c.load(Ordering::Relaxed) > 10, "thread {t} idle");
        }
        assert!(report.total_ops() > 100);
        assert!(report.throughput() > 100.0);
        // A 50/50 mix splits between the histograms.
        assert!(report.read_hist.count() > 0);
        assert!(report.update_hist.count() > 0);
        // Per-op latency ≈ the injected 50 µs sleep.
        let p50 = report.read_hist.percentile(50.0);
        assert!(p50 >= 50_000, "p50={p50}");
    }
}
