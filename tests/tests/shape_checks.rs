//! Performance-*shape* assertions from the paper, as executable checks.
//!
//! These are `#[ignore]` by default — they inject device latencies and
//! measure wall time, so they are environment-sensitive (run them
//! explicitly: `cargo test -p dstore-integration --release -- --ignored`).
//! Each test asserts a *relative* claim from §5, with generous margins.

use dstore::{CheckpointMode, DStore, DStoreConfig, LoggingMode};
use dstore_pmem::LatencyModel;
use dstore_ssd::SsdLatency;
use dstore_telemetry::trace::{
    SegmentBreakdown, SEG_ALLOC, SEG_COMMIT, SEG_INDEX, SEG_LOG_APPEND, SEG_LOG_FLUSH,
    SEG_SSD_WRITE,
};
use dstore_telemetry::TraceConfig;
use std::time::{Duration, Instant};

fn bench_cfg(checkpoint: CheckpointMode, logging: LoggingMode) -> DStoreConfig {
    let mut cfg = DStoreConfig::bench()
        .with_checkpoint(checkpoint)
        .with_logging(logging);
    cfg.log_size = 1 << 20;
    cfg.ssd_pages = 32 * 1024;
    cfg.pmem_latency = LatencyModel::optane();
    cfg.ssd_latency = SsdLatency::p4800x();
    cfg
}

fn bench_store(checkpoint: CheckpointMode, logging: LoggingMode) -> DStore {
    DStore::create(bench_cfg(checkpoint, logging)).unwrap()
}

/// A Table 3 store: every op traced, into a ring of `n` traces.
fn traced_store(n: usize) -> DStore {
    let cfg = bench_cfg(CheckpointMode::Dipper, LoggingMode::Logical).with_trace(TraceConfig {
        sample_every: 1,
        slo_ns: 0,
        ring_capacity: n,
    });
    DStore::create(cfg).unwrap()
}

/// Per-segment means of the last `n` ops, the ring of a
/// [`traced_store`] of `n` traces.
fn breakdown(store: &DStore, n: usize) -> SegmentBreakdown {
    // At the 100th percentile every trace is in the body.
    let bd = store.tail_attribution(100.0).unwrap().body;
    assert_eq!(bd.ops, n as u64);
    bd
}

/// Control-plane time of a put: every segment but the device write.
fn control_ns(bd: &SegmentBreakdown) -> u64 {
    [
        SEG_ALLOC,
        SEG_INDEX,
        SEG_LOG_APPEND,
        SEG_LOG_FLUSH,
        SEG_COMMIT,
    ]
    .iter()
    .map(|&s| bd.mean_seg_ns(s))
    .sum()
}

/// Drives `n` same-size 4 KB updates, returning (mean_ns, max_ns).
fn drive_updates(store: &DStore, n: usize) -> (u64, u64) {
    let ctx = store.context();
    let value = vec![0xAB; 4096];
    for i in 0..512 {
        ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
    }
    let mut total = 0u64;
    let mut max = 0u64;
    for i in 0..n {
        let t = Instant::now();
        ctx.put(format!("k{}", i % 512).as_bytes(), &value).unwrap();
        let ns = t.elapsed().as_nanos() as u64;
        total += ns;
        max = max.max(ns);
    }
    (total / n as u64, max)
}

/// Table 3's headline: the NVMe write dominates a 4 KB put — software
/// overhead stays near the paper's ~10 %.
#[test]
#[ignore = "timing-sensitive; run with --ignored on a quiet machine"]
fn software_overhead_is_small_fraction() {
    let n = 500;
    let store = traced_store(n);
    let ctx = store.context();
    let value = vec![0u8; 4096];
    for i in 0..256 {
        ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
    }
    for i in 0..n {
        ctx.put(format!("k{}", i % 256).as_bytes(), &value).unwrap();
    }
    let bd = breakdown(&store, n);
    let nvme_frac = bd.mean_seg_ns(SEG_SSD_WRITE) as f64 / bd.mean_ns() as f64;
    assert!(
        nvme_frac > 0.7,
        "NVMe write should dominate the 4 KB put: {nvme_frac:.2} of total"
    );
}

/// Figure 9's average-latency claim: logical logging beats physical
/// logging on mean write latency.
#[test]
#[ignore = "timing-sensitive; run with --ignored on a quiet machine"]
fn logical_logging_beats_physical_on_average() {
    let physical = bench_store(CheckpointMode::Cow, LoggingMode::Physical);
    let logical = bench_store(CheckpointMode::Cow, LoggingMode::Logical);
    let (phys_mean, _) = drive_updates(&physical, 2000);
    let (log_mean, _) = drive_updates(&logical, 2000);
    assert!(
        (log_mean as f64) < (phys_mean as f64) * 0.97,
        "logical ({log_mean} ns) should beat physical ({phys_mean} ns)"
    );
}

/// Figure 7's quiescent-freedom claim: with continuous write traffic and
/// many forced checkpoints, DStore never has an idle interval.
#[test]
#[ignore = "timing-sensitive; run with --ignored on a quiet machine"]
fn dipper_never_quiesces_under_checkpoints() {
    let store = bench_store(CheckpointMode::Dipper, LoggingMode::Logical);
    let ctx = store.context();
    let value = vec![1u8; 4096];
    for i in 0..512 {
        ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
    }
    let window = Duration::from_secs(3);
    let start = Instant::now();
    let mut intervals = [0u32; 30]; // 100 ms buckets
    let mut i = 0u64;
    while start.elapsed() < window {
        ctx.put(format!("k{}", i % 512).as_bytes(), &value).unwrap();
        let bucket = (start.elapsed().as_millis() / 100) as usize;
        if bucket < intervals.len() {
            intervals[bucket] += 1;
        }
        i += 1;
    }
    let ckpts = store.checkpoint_stats().completed;
    assert!(
        ckpts >= 2,
        "workload should force checkpoints (got {ckpts})"
    );
    let active = (start.elapsed().as_millis() / 100) as usize;
    for (b, &count) in intervals[..active.min(intervals.len())].iter().enumerate() {
        assert!(count > 0, "quiesced in interval {b} despite DIPPER");
    }
}

/// §5.2's logical-logging size-agnosticism: metadata + log-flush cost is
/// roughly the same for 4 KB and 16 KB writes (the data write grows, the
/// control plane does not).
#[test]
#[ignore = "timing-sensitive; run with --ignored on a quiet machine"]
fn control_plane_cost_is_size_agnostic() {
    let n = 300;
    let store = traced_store(n);
    let ctx = store.context();
    let mut avgs = vec![];
    for size in [4096usize, 16384] {
        let value = vec![0u8; size];
        for i in 0..128 {
            ctx.put(format!("s{size}k{i}").as_bytes(), &value).unwrap();
        }
        for i in 0..n {
            ctx.put(format!("s{size}k{}", i % 128).as_bytes(), &value)
                .unwrap();
        }
        avgs.push(breakdown(&store, n));
    }
    let (ctrl4, ctrl16) = (control_ns(&avgs[0]), control_ns(&avgs[1]));
    let nvme4 = avgs[0].mean_seg_ns(SEG_SSD_WRITE);
    let nvme16 = avgs[1].mean_seg_ns(SEG_SSD_WRITE);
    assert!(
        nvme16 as f64 > nvme4 as f64 * 2.0,
        "data cost must grow with size: {nvme4} → {nvme16}"
    );
    assert!(
        (ctrl16 as f64) < (ctrl4 as f64) * 3.0,
        "control-plane cost should not scale with size: {ctrl4} → {ctrl16}"
    );
}
