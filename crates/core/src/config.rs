//! Store configuration.

use dstore_pmem::LatencyModel;
use dstore_ssd::SsdLatency;
use dstore_telemetry::TraceConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Which checkpoint architecture the store runs (§4.5 "CoW Design" /
/// Figure 9 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointMode {
    /// DIPPER: decoupled, parallel, quiescent-free (the paper's design).
    Dipper,
    /// Copy-on-write checkpoints as used by NOVA and Pronto, implemented
    /// inside DStore for fair comparison: the trigger drains in-flight
    /// operations, and writes arriving during the checkpoint must wait
    /// for page copies.
    Cow,
}

/// Log record contents (Figure 9 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggingMode {
    /// Compact logical records: op code + parameters, ~40 B + name.
    Logical,
    /// ARIES-style physical records carrying metadata post-images and
    /// structure-page padding (DudeTM / NV-HTM style), several cache
    /// lines per record.
    Physical,
}

/// Configuration for creating or recovering a [`crate::DStore`].
#[derive(Debug, Clone)]
pub struct DStoreConfig {
    /// Capacity of each of the two PMEM log buffers.
    pub log_size: usize,
    /// Capacity of each PMEM shadow region (and of the DRAM system space).
    pub shadow_size: usize,
    /// SSD capacity in 4 KB pages (page 0 is the superblock).
    pub ssd_pages: u64,
    /// SSD pages per allocation block ("SSD pages are grouped into blocks
    /// which are the unit of data allocation", §4.2). 1 matches the
    /// paper's 4 KB evaluation; larger blocks shrink the pool and
    /// metadata for big-object workloads at the cost of internal
    /// fragmentation.
    pub pages_per_block: u64,
    /// Checkpoint architecture.
    pub checkpoint: CheckpointMode,
    /// Log record format.
    pub logging: LoggingMode,
    /// Observational-equivalence concurrency (§3.7/§4.4). When off, every
    /// mutating operation serializes on one global lock — the "-OE" point
    /// of Figure 9.
    pub oe: bool,
    /// Automatically trigger checkpoints when the log crosses
    /// `swap_threshold`. Disable to measure checkpoint-free behaviour
    /// (Figure 1) or to drive checkpoints manually in crash tests.
    pub auto_checkpoint: bool,
    /// Log-occupancy fraction that triggers a checkpoint.
    pub swap_threshold: f64,
    /// Block-pool free-list shards (§4.4 parallel persistence). Object
    /// names hash to a home shard; writers on different shards allocate
    /// concurrently, serializing only per shard. `1` restores a single
    /// global FIFO. Clamped at format time to the block count.
    pub pool_shards: usize,
    /// Use the strict cache-line persistence simulator (crash tests).
    /// Benchmarks leave this off and rely on the latency models.
    pub strict_pmem: bool,
    /// PMEM device latency model.
    pub pmem_latency: LatencyModel,
    /// SSD device latency model.
    pub ssd_latency: SsdLatency,
    /// Back the PMEM pool with this file (emulated DAX file).
    pub pmem_file: Option<PathBuf>,
    /// Back the SSD with this file.
    pub ssd_file: Option<PathBuf>,
    /// Always-on telemetry: per-op latency histograms, checkpoint and
    /// recovery phase spans, and device gauges, exposed through
    /// [`crate::DStore::telemetry_snapshot`]. Default on — measured
    /// overhead on the software path is within the <5 % budget. Turn it
    /// off to remove even the per-op `Instant::now` calls.
    pub telemetry: bool,
    /// Per-op flight recorder (requires `telemetry`): every
    /// `trace.sample_every`-th op carries a full segment breakdown, any
    /// op slower than `trace.slo_ns` is retained regardless of
    /// sampling, and the most recent `trace.ring_capacity` retained
    /// traces are exposed through
    /// [`crate::DStore::telemetry_snapshot`], `tail_attribution`, and
    /// the Perfetto exporter.
    pub trace: TraceConfig,
    /// Deadlock-detector budget for the store's three internal spin
    /// waits (reader drain, writer drain, log-record commit). A wait
    /// exceeding this panics with a diagnostic instead of hanging the
    /// process. Raise it for heavily oversubscribed hosts (e.g. many
    /// shards sharing few cores); lower it in tests that want stalls
    /// surfaced quickly.
    pub stall_timeout: Duration,
    /// Cap on the worker threads for OE-parallel checkpoint apply and
    /// recovery replay: the shadow bulk copy/flush is chunked across up
    /// to this many threads, and committed records are replayed grouped
    /// by their name's pool shard, one group set per worker (per-object
    /// LSN order preserved; windows containing shard-steal allocations
    /// fall back to serial log order). Each window and each copy/flush
    /// uses `min(replay_threads, CPUs the calling thread may run on)`,
    /// counted when it runs, so a checkpointer or recovery confined to
    /// one CPU takes the serial path. `1` reproduces the fully serial
    /// apply path everywhere. Defaults to the host's available
    /// parallelism, overridable with the `DSTORE_REPLAY_THREADS`
    /// environment variable.
    pub replay_threads: usize,
    /// Optimistic lock coupling on the object-index B-tree: gets, stats
    /// and exists descend latch-free (seqlock validation, restart on
    /// conflict), puts and deletes latch only the nodes they touch, and
    /// OE-parallel replay workers share the tree without a global lock.
    /// When off, every index access serializes on the store-wide
    /// `btree_lock` RwLock — the pre-OLC baseline. Defaults to on,
    /// overridable with the `DSTORE_INDEX_OLC` environment variable
    /// (`0`/`false`/`off` disables — CI pins its global-lock leg through
    /// this).
    pub index_olc: bool,
    /// Crash-persistent flight recorder (requires `telemetry`): a small
    /// PMEM region that mirrors retained op traces, a heartbeat record,
    /// and lifecycle events, exhumed after a crash into
    /// [`crate::DStore::crash_report`]. Off by default — disabled it
    /// reserves no PMEM and adds zero work to any path.
    pub blackbox: BlackBoxConfig,
}

/// Configuration of the crash-persistent black box
/// ([`DStoreConfig::blackbox`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackBoxConfig {
    /// Master switch. When off, no PMEM is reserved and the hot paths
    /// carry only a skipped `Option` check.
    pub enabled: bool,
    /// Persistent trace-ring slots (256 bytes each): how many retained
    /// op traces of the dying incarnation a post-mortem can recover.
    pub trace_slots: usize,
    /// Persistent lifecycle-event slots (128 bytes each).
    pub event_slots: usize,
    /// Publish a heartbeat every this many admitted log records
    /// (rounded up to a power of two, so the every-Nth check is a mask
    /// instead of a division). Lower values tighten the post-mortem
    /// "final commit window" at the cost of one extra fence per that
    /// many ops.
    pub heartbeat_every: u64,
}

impl Default for BlackBoxConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            trace_slots: 256,
            event_slots: 128,
            heartbeat_every: 1024,
        }
    }
}

impl BlackBoxConfig {
    /// An enabled recorder with the default ring sizes.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

impl Default for DStoreConfig {
    fn default() -> Self {
        Self {
            log_size: 4 << 20,
            shadow_size: 64 << 20,
            ssd_pages: 64 * 1024, // 256 MB
            pages_per_block: 1,
            checkpoint: CheckpointMode::Dipper,
            logging: LoggingMode::Logical,
            oe: true,
            auto_checkpoint: true,
            swap_threshold: 0.75,
            pool_shards: 8,
            strict_pmem: false,
            pmem_latency: LatencyModel::none(),
            ssd_latency: SsdLatency::none(),
            pmem_file: None,
            ssd_file: None,
            telemetry: true,
            trace: TraceConfig::default(),
            stall_timeout: Duration::from_secs(30),
            replay_threads: default_replay_threads(),
            index_olc: default_index_olc(),
            blackbox: BlackBoxConfig::default(),
        }
    }
}

/// Default for [`DStoreConfig::replay_threads`]: the
/// `DSTORE_REPLAY_THREADS` environment variable when set (CI pins its
/// serial leg through this), else the host's available parallelism.
fn default_replay_threads() -> usize {
    std::env::var("DSTORE_REPLAY_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Default for [`DStoreConfig::index_olc`]: on, unless the
/// `DSTORE_INDEX_OLC` environment variable disables it
/// (`0`/`false`/`off`).
fn default_index_olc() -> bool {
    !matches!(
        std::env::var("DSTORE_INDEX_OLC").as_deref(),
        Ok("0") | Ok("false") | Ok("off")
    )
}

impl DStoreConfig {
    /// A small configuration for tests and examples: 256 KB logs, 4 MB
    /// shadows, 16 MB SSD, strict persistence simulation.
    pub fn small() -> Self {
        Self {
            log_size: 256 << 10,
            shadow_size: 4 << 20,
            ssd_pages: 4096,
            strict_pmem: true,
            ..Default::default()
        }
    }

    /// Benchmark configuration: fast-mode PMEM with Optane-calibrated
    /// latencies and a P4800X-calibrated SSD.
    pub fn bench() -> Self {
        Self {
            strict_pmem: false,
            pmem_latency: LatencyModel::optane(),
            ssd_latency: SsdLatency::p4800x(),
            ..Default::default()
        }
    }

    /// Builder-style setters.
    pub fn with_checkpoint(mut self, m: CheckpointMode) -> Self {
        self.checkpoint = m;
        self
    }
    /// Sets the logging mode.
    pub fn with_logging(mut self, m: LoggingMode) -> Self {
        self.logging = m;
        self
    }
    /// Enables/disables observational-equivalence concurrency.
    pub fn with_oe(mut self, oe: bool) -> Self {
        self.oe = oe;
        self
    }
    /// Enables/disables automatic checkpoints.
    pub fn with_auto_checkpoint(mut self, auto: bool) -> Self {
        self.auto_checkpoint = auto;
        self
    }
    /// Enables/disables always-on telemetry.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }
    /// Sets the per-op flight-recorder configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
    /// Sets the deadlock-detector budget for internal spin waits.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }
    /// Sets the number of block-pool free-list shards.
    pub fn with_pool_shards(mut self, shards: usize) -> Self {
        self.pool_shards = shards;
        self
    }
    /// Sets the checkpoint-apply / recovery-replay worker count
    /// (`1` = serial).
    pub fn with_replay_threads(mut self, threads: usize) -> Self {
        self.replay_threads = threads;
        self
    }
    /// Enables/disables optimistic lock coupling on the object index
    /// (off = global `btree_lock` baseline).
    pub fn with_index_olc(mut self, on: bool) -> Self {
        self.index_olc = on;
        self
    }
    /// Sets the crash-persistent flight-recorder configuration.
    pub fn with_blackbox(mut self, blackbox: BlackBoxConfig) -> Self {
        self.blackbox = blackbox;
        self
    }

    /// Validates the configuration, returning a description of the first
    /// problem. Called by [`crate::DStore::create`] so misconfigurations
    /// fail fast instead of panicking deep inside an allocator.
    pub fn validate(&self) -> Result<(), String> {
        if self.ssd_pages < 8 {
            return Err(format!(
                "ssd_pages = {} is too small (minimum 8)",
                self.ssd_pages
            ));
        }
        if self.pages_per_block == 0 {
            return Err("pages_per_block must be at least 1".into());
        }
        if self.pages_per_block >= self.ssd_pages {
            return Err(format!(
                "pages_per_block = {} leaves no data blocks on a {}-page SSD",
                self.pages_per_block, self.ssd_pages
            ));
        }
        if self.log_size < 16 << 10 {
            return Err(format!(
                "log_size = {} is too small (minimum 16 KiB; records are up to ~64 KiB)",
                self.log_size
            ));
        }
        if !(0.05..=0.95).contains(&self.swap_threshold) {
            return Err(format!(
                "swap_threshold = {} must be within [0.05, 0.95]",
                self.swap_threshold
            ));
        }
        if self.trace.enabled && self.trace.ring_capacity == 0 {
            return Err("trace.ring_capacity must be at least 1 when tracing is enabled".into());
        }
        if self.trace.enabled && self.trace.ring_capacity > 1 << 20 {
            return Err(format!(
                "trace.ring_capacity = {} would pin >150 MB of flight-recorder slots; \
                 keep it within 2^20",
                self.trace.ring_capacity
            ));
        }
        if self.stall_timeout < Duration::from_millis(10) {
            return Err(format!(
                "stall_timeout = {:?} is shorter than a plausible checkpoint; \
                 the deadlock detector would fire on healthy waits",
                self.stall_timeout
            ));
        }
        if !(1..=crate::structures::MAX_POOL_SHARDS).contains(&self.pool_shards) {
            return Err(format!(
                "pool_shards = {} must be within [1, {}]",
                self.pool_shards,
                crate::structures::MAX_POOL_SHARDS
            ));
        }
        if !(1..=256).contains(&self.replay_threads) {
            return Err(format!(
                "replay_threads = {} must be within [1, 256]",
                self.replay_threads
            ));
        }
        if self.blackbox.enabled {
            if !self.telemetry {
                return Err("blackbox requires telemetry to be enabled".into());
            }
            let max = dstore_pmem::blackbox::MAX_RING_SLOTS;
            if !(1..=max).contains(&self.blackbox.trace_slots) {
                return Err(format!(
                    "blackbox.trace_slots = {} must be within [1, {max}]",
                    self.blackbox.trace_slots
                ));
            }
            if !(1..=max).contains(&self.blackbox.event_slots) {
                return Err(format!(
                    "blackbox.event_slots = {} must be within [1, {max}]",
                    self.blackbox.event_slots
                ));
            }
            if self.blackbox.heartbeat_every == 0 {
                return Err("blackbox.heartbeat_every must be at least 1".into());
            }
        }
        // The shadow arena must hold the block-pool rings plus headroom
        // for per-object metadata; a pool array that alone exceeds the
        // region would panic at format time. Each shard ring has full
        // capacity (freed blocks follow the freeing name's shard).
        let capacity = self.ssd_pages / self.pages_per_block;
        let shards = (self.pool_shards as u64).min(capacity.max(1));
        let pool_bytes = capacity * 8 * shards;
        if (self.shadow_size as u64) < pool_bytes * 2 + (1 << 20) {
            return Err(format!(
                "shadow_size = {} cannot hold {} block-pool shard rings of {} entries plus \
                 metadata; increase it to at least {}",
                self.shadow_size,
                shards,
                capacity,
                pool_bytes * 2 + (1 << 20)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DStoreConfig::default();
        assert!(c.oe);
        assert!(c.auto_checkpoint);
        assert!(c.telemetry);
        assert_eq!(c.checkpoint, CheckpointMode::Dipper);
        assert_eq!(c.logging, LoggingMode::Logical);
        assert!(c.swap_threshold > 0.0 && c.swap_threshold < 1.0);
        // DSTORE_INDEX_OLC may be pinned off in CI legs; both values are
        // valid defaults.
        let _ = c.index_olc;
        assert_eq!(c.pool_shards, 8);
        assert!(c.replay_threads >= 1);
    }

    #[test]
    fn validation_catches_misconfigurations() {
        assert!(DStoreConfig::default().validate().is_ok());
        assert!(DStoreConfig::small().validate().is_ok());
        assert!(DStoreConfig::bench().validate().is_ok());

        let mut c = DStoreConfig::small();
        c.ssd_pages = 2;
        assert!(c.validate().unwrap_err().contains("ssd_pages"));

        let mut c = DStoreConfig::small();
        c.pages_per_block = 0;
        assert!(c.validate().unwrap_err().contains("pages_per_block"));

        let mut c = DStoreConfig::small();
        c.log_size = 1024;
        assert!(c.validate().unwrap_err().contains("log_size"));

        let mut c = DStoreConfig::small();
        c.swap_threshold = 1.5;
        assert!(c.validate().unwrap_err().contains("swap_threshold"));

        let mut c = DStoreConfig::small();
        c.ssd_pages = 64 * 1024 * 1024; // pool ring alone > shadow
        assert!(c.validate().unwrap_err().contains("shadow_size"));

        let mut c = DStoreConfig::small();
        c.stall_timeout = Duration::from_millis(1);
        assert!(c.validate().unwrap_err().contains("stall_timeout"));

        let mut c = DStoreConfig::small();
        c.pool_shards = 0;
        assert!(c.validate().unwrap_err().contains("pool_shards"));
        c.pool_shards = crate::structures::MAX_POOL_SHARDS + 1;
        assert!(c.validate().unwrap_err().contains("pool_shards"));

        let mut c = DStoreConfig::small();
        c.replay_threads = 0;
        assert!(c.validate().unwrap_err().contains("replay_threads"));
        c.replay_threads = 257;
        assert!(c.validate().unwrap_err().contains("replay_threads"));

        let mut c = DStoreConfig::small();
        c.trace.ring_capacity = 0;
        assert!(c.validate().unwrap_err().contains("trace.ring_capacity"));
        c.trace.ring_capacity = (1 << 20) + 1;
        assert!(c.validate().unwrap_err().contains("trace.ring_capacity"));
        // A disabled recorder is never validated against.
        c.trace.enabled = false;
        assert!(c.validate().is_ok());

        let mut c = DStoreConfig::small().with_blackbox(BlackBoxConfig::on());
        assert!(c.validate().is_ok());
        c.telemetry = false;
        assert!(c.validate().unwrap_err().contains("telemetry"));
        c.telemetry = true;
        c.blackbox.trace_slots = 0;
        assert!(c.validate().unwrap_err().contains("blackbox.trace_slots"));
        c.blackbox.trace_slots = 16;
        c.blackbox.event_slots = usize::MAX;
        assert!(c.validate().unwrap_err().contains("blackbox.event_slots"));
        c.blackbox.event_slots = 16;
        c.blackbox.heartbeat_every = 0;
        assert!(c.validate().unwrap_err().contains("heartbeat_every"));
        // Disabled black box skips its own validation entirely.
        c.blackbox.enabled = false;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = DStoreConfig::small()
            .with_checkpoint(CheckpointMode::Cow)
            .with_logging(LoggingMode::Physical)
            .with_oe(false)
            .with_auto_checkpoint(false)
            .with_pool_shards(4)
            .with_index_olc(false)
            .with_replay_threads(2)
            .with_trace(TraceConfig {
                sample_every: 16,
                slo_ns: 250_000,
                ..TraceConfig::default()
            });
        assert_eq!(c.checkpoint, CheckpointMode::Cow);
        assert_eq!(c.logging, LoggingMode::Physical);
        assert!(!c.oe);
        assert!(!c.auto_checkpoint);
        assert_eq!(c.pool_shards, 4);
        assert!(!c.index_olc);
        assert_eq!(c.replay_threads, 2);
        assert!(c.strict_pmem);
        assert!(c.trace.enabled);
        assert_eq!(c.trace.sample_every, 16);
        assert_eq!(c.trace.slo_ns, 250_000);
    }
}
