//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every figure/table of the paper's §5 has a `benches/` target built on
//! these helpers. Each target prints the same rows/series the paper
//! reports; EXPERIMENTS.md records paper-vs-measured.
//!
//! Environment knobs:
//!
//! * `DSTORE_BENCH_SCALE` — multiplies run durations and object counts
//!   (default 1.0; the defaults keep a full `cargo bench` run to
//!   minutes).
//! * `DSTORE_BENCH_THREADS` — client threads ("full subscription");
//!   defaults to 2× the available cores, min 2 (device waits are
//!   spin-injected, so oversubscription approximates overlap on small
//!   hosts).

use dstore::{CheckpointMode, DStore, DStoreConfig, DsError, LoggingMode};
use dstore_baselines::{
    lsm::LsmConfig, pagecache::PageCacheConfig, uncached::UncachedConfig, KvSystem, LsmStore,
    PageCacheBTree, UncachedStore,
};
use dstore_pmem::{LatencyModel, PmemPool, PoolBuilder};
use dstore_ssd::{SsdDevice, SsdLatency};
use dstore_workload::{
    run_closed_loop, LatencyHistogram, RunOptions, RunReport, Workload, WorkloadKind, YcsbOp,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Scale factor from `DSTORE_BENCH_SCALE`.
pub fn scale() -> f64 {
    std::env::var("DSTORE_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Client threads from `DSTORE_BENCH_THREADS`.
pub fn threads() -> usize {
    std::env::var("DSTORE_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            (cores * 2).max(2)
        })
}

/// A duration scaled by [`scale`].
pub fn secs(base: f64) -> Duration {
    Duration::from_secs_f64(base * scale())
}

/// An object count scaled by [`scale`].
pub fn count(base: usize) -> usize {
    ((base as f64) * scale()) as usize
}

// ----------------------------------------------------------------------
// system construction

/// Key space used by the YCSB benches.
pub const DEFAULT_KEYS: usize = 20_000;
/// The paper's operation size.
pub const VALUE_SIZE: usize = 4096;

/// Builds a benchmark-mode DStore with the given architecture knobs.
pub fn build_dstore(
    checkpoint: CheckpointMode,
    logging: LoggingMode,
    oe: bool,
    auto_checkpoint: bool,
    keys: usize,
) -> DStore {
    let mut cfg = DStoreConfig::bench()
        .with_checkpoint(checkpoint)
        .with_logging(logging)
        .with_oe(oe)
        .with_auto_checkpoint(auto_checkpoint);
    cfg.log_size = if auto_checkpoint { 4 << 20 } else { 512 << 20 };
    cfg.shadow_size = (64 << 20).max(keys * 1536);
    cfg.ssd_pages = (keys as u64) * 4 + 8192;
    DStore::create(cfg).expect("create bench store")
}

/// The standard DStore instance (DIPPER + logical + OE).
pub fn dstore_default(keys: usize) -> DStore {
    build_dstore(
        CheckpointMode::Dipper,
        LoggingMode::Logical,
        true,
        true,
        keys,
    )
}

/// Fresh bench-latency devices for a baseline proxy.
pub fn bench_devices(ssd_pages: u64) -> (Arc<PmemPool>, Arc<SsdDevice>) {
    let pool = Arc::new(
        PoolBuilder::new(64 << 20)
            .latency(LatencyModel::optane())
            .build()
            .expect("pmem pool"),
    );
    let ssd = Arc::new(SsdDevice::anon(ssd_pages).with_latency(SsdLatency::p4800x()));
    (pool, ssd)
}

/// Builds the PMEM-RocksDB proxy (checkpoints/compaction on or off).
pub fn build_lsm(keys: usize, checkpoints: bool) -> Arc<LsmStore> {
    let (pool, ssd) = bench_devices((keys as u64) * 16 + 8192);
    let cfg = if checkpoints {
        LsmConfig::default()
    } else {
        LsmConfig {
            memtable_bytes: usize::MAX / 2,
            compact_at: usize::MAX / 2,
            stall_at: usize::MAX / 2,
            ..Default::default()
        }
    };
    LsmStore::new(pool, ssd, cfg)
}

/// Builds the MongoDB-PM proxy (checkpoints on or off).
pub fn build_pagecache(checkpoints: bool) -> Arc<PageCacheBTree> {
    let cfg = if checkpoints {
        PageCacheConfig::default()
    } else {
        PageCacheConfig {
            checkpoint_every: u64::MAX,
            ..Default::default()
        }
    };
    let (pool, ssd) = bench_devices(1 + cfg.pages as u64 * 64 + 1024);
    PageCacheBTree::new(pool, ssd, cfg)
}

/// Builds the MongoDB-PMSE proxy.
pub fn build_uncached(keys: usize) -> Arc<UncachedStore> {
    let pool = Arc::new(
        PoolBuilder::new(((keys * 8192) + (64 << 20)).next_power_of_two())
            .latency(LatencyModel::optane())
            .build()
            .expect("pmem pool"),
    );
    UncachedStore::new(pool, UncachedConfig::default())
}

// ----------------------------------------------------------------------
// DStore ↔ KvSystem adapter

/// Wraps a [`DStore`] as a [`KvSystem`] for uniform benchmarking.
pub struct DStoreKv {
    store: DStore,
    label: &'static str,
}

impl DStoreKv {
    /// Wraps `store` with a display label.
    pub fn new(store: DStore, label: &'static str) -> Self {
        Self { store, label }
    }

    /// The wrapped store.
    pub fn store(&self) -> &DStore {
        &self.store
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> DStore {
        self.store
    }
}

impl KvSystem for DStoreKv {
    fn name(&self) -> &'static str {
        self.label
    }
    fn put(&self, key: &[u8], value: &[u8]) {
        self.store
            .context()
            .put(key, value)
            .expect("bench put failed");
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        match self.store.context().get(key) {
            Ok(v) => Some(v),
            Err(DsError::NotFound) => None,
            Err(e) => panic!("bench get failed: {e}"),
        }
    }
    fn delete(&self, key: &[u8]) {
        let _ = self.store.context().delete(key);
    }
    fn quiesce(&self) {
        self.store.wait_checkpoint_idle();
    }
    fn footprint(&self) -> (u64, u64, u64) {
        let f = self.store.footprint();
        (f.dram_bytes, f.pmem_bytes, f.ssd_bytes)
    }
}

/// Counts completed ops around an inner system (timeline probes).
pub struct CountingKv<'a> {
    inner: &'a dyn KvSystem,
    /// Completed operations.
    pub ops: AtomicU64,
}

impl<'a> CountingKv<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn KvSystem) -> Self {
        Self {
            inner,
            ops: AtomicU64::new(0),
        }
    }
}

impl KvSystem for CountingKv<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn put(&self, key: &[u8], value: &[u8]) {
        self.inner.put(key, value);
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let v = self.inner.get(key);
        self.ops.fetch_add(1, Ordering::Relaxed);
        v
    }
    fn delete(&self, key: &[u8]) {
        self.inner.delete(key);
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
    fn quiesce(&self) {
        self.inner.quiesce()
    }
    fn footprint(&self) -> (u64, u64, u64) {
        self.inner.footprint()
    }
}

// ----------------------------------------------------------------------
// workload driving

/// Loads `keys` objects of [`VALUE_SIZE`] bytes.
pub fn preload(sys: &dyn KvSystem, keys: usize) {
    let value = vec![0xA5u8; VALUE_SIZE];
    for i in 0..keys {
        sys.put(&Workload::key_name(i as u64), &value);
    }
    sys.quiesce();
}

/// Runs a closed-loop YCSB workload against `sys`.
pub fn run_ycsb(
    sys: &dyn KvSystem,
    kind: WorkloadKind,
    keys: usize,
    duration: Duration,
    threads: usize,
) -> RunReport {
    let workload = Workload::new(kind, keys as u64, VALUE_SIZE);
    let opts = RunOptions {
        threads,
        duration,
        workload,
        seed: 0xD57A_11AD,
    };
    let value = vec![0x5Au8; VALUE_SIZE];
    run_closed_loop(&opts, |_t| {
        let value = value.clone();
        move |op: &YcsbOp| match op {
            YcsbOp::Read { key } => {
                sys.get(key);
            }
            YcsbOp::Update { key, .. } => {
                sys.put(key, &value);
            }
        }
    })
}

// ----------------------------------------------------------------------
// reporting

/// Formats nanoseconds as microseconds with 1 decimal.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

/// Formats nanoseconds as milliseconds with 1 decimal.
pub fn ms(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e6)
}

/// Prints the standard percentile row for a histogram.
pub fn percentile_row(label: &str, h: &LatencyHistogram) {
    let (p50, p99, p999, p9999) = h.paper_percentiles();
    println!(
        "{label:<34} {:>9} {:>9} {:>9} {:>9} {:>10}",
        us(p50),
        us(p99),
        us(p999),
        us(p9999),
        h.count()
    );
}

/// Header matching [`percentile_row`].
pub fn percentile_header(title: &str) {
    println!("\n== {title}");
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "system", "p50(us)", "p99(us)", "p999(us)", "p9999(us)", "ops"
    );
}

/// The devices whose traffic counters a `Timeline` samples.
pub struct DeviceProbe {
    pub pmem: Arc<PmemPool>,
    pub ssd: Arc<SsdDevice>,
}

impl DeviceProbe {
    /// Current counters as a tuple for `Timeline`: ops, SSD write bytes,
    /// SSD read bytes, PMEM write bytes (flushed plus bulk).
    pub fn counters(&self, ops: &AtomicU64) -> (u64, u64, u64, u64) {
        let (s, p) = (self.ssd.stats(), self.pmem.stats());
        (
            ops.load(Ordering::Relaxed),
            s.write_bytes.get(),
            s.read_bytes.get(),
            p.flush_bytes.get() + p.bulk_write_bytes.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_and_threads_have_sane_defaults() {
        assert!(scale() > 0.0);
        assert!(threads() >= 2);
        assert!(secs(1.0) >= Duration::from_millis(100));
        assert!(count(100) >= 1);
    }

    #[test]
    fn dstore_adapter_roundtrip() {
        let kv = DStoreKv::new(
            build_dstore(CheckpointMode::Dipper, LoggingMode::Logical, true, true, 64),
            "DStore",
        );
        kv.put(b"k", b"v");
        assert_eq!(kv.get(b"k").unwrap(), b"v");
        assert_eq!(kv.get(b"missing"), None);
        kv.delete(b"k");
        assert_eq!(kv.get(b"k"), None);
        let (dram, pmem, ssd) = kv.footprint();
        assert!(dram > 0 && pmem > 0 && ssd > 0);
    }

    #[test]
    fn device_probe_sees_a_put_on_both_devices() {
        let kv = DStoreKv::new(
            build_dstore(CheckpointMode::Dipper, LoggingMode::Logical, true, true, 64),
            "DStore",
        );
        let probe = DeviceProbe {
            pmem: Arc::clone(kv.store().pmem()),
            ssd: Arc::clone(kv.store().ssd()),
        };
        let ops = AtomicU64::new(0);
        let (_, ssd_before, _, pmem_before) = probe.counters(&ops);
        kv.put(b"k", &[7u8; 4096]);
        let (_, ssd_after, _, pmem_after) = probe.counters(&ops);
        assert!(ssd_after > ssd_before, "SSD write bytes");
        assert!(pmem_after > pmem_before, "PMEM write bytes");
    }

    #[test]
    fn counting_adapter_counts() {
        let kv = DStoreKv::new(
            build_dstore(CheckpointMode::Dipper, LoggingMode::Logical, true, true, 64),
            "DStore",
        );
        let counted = CountingKv::new(&kv);
        counted.put(b"a", b"1");
        counted.get(b"a");
        counted.get(b"b");
        assert_eq!(counted.ops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn short_ycsb_run_works() {
        let kv = DStoreKv::new(dstore_default(256), "DStore");
        preload(&kv, 256);
        let report = run_ycsb(&kv, WorkloadKind::A, 256, Duration::from_millis(300), 2);
        assert!(report.total_ops() > 50, "{}", report.total_ops());
        assert!(report.read_hist.count() > 0);
        assert!(report.update_hist.count() > 0);
    }
}
