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
///
/// The crash-persistent black box ([`crate::DStore::crash_report`]) has
/// no settings: every store reserves its region and records into it,
/// with ring sizes, heartbeat and mirror stride fixed by constants
/// ([`crate::HEARTBEAT_EVERY`], [`dstore_telemetry::trace::MIRROR_EVERY`],
/// [`dstore_pmem::blackbox::TRACE_SLOTS`],
/// [`dstore_pmem::blackbox::EVENT_SLOTS`]). Nor do the checkpoint-apply
/// and recovery-replay workers: each window and chunked copy/flush uses
/// [`dstore_dipper::usable_workers`], the CPUs the replaying thread may
/// run on.
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
    /// Block-pool shards (§4.4 parallel persistence): contiguous block-id
    /// ranges, each with its own lock. Object names hash to a home shard
    /// whose range their claims try first; writers on different shards
    /// allocate concurrently. `1` makes one range. Clamped at format time
    /// to the block count.
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
    /// Per-op flight recorder, always on: every `trace.sample_every`-th
    /// op carries a full segment breakdown, any op slower than
    /// `trace.slo_ns` is retained regardless of sampling, and the most
    /// recent `trace.ring_capacity` retained traces are exposed through
    /// [`crate::DStore::telemetry_snapshot`], `tail_attribution`, and
    /// the Perfetto exporter. The black box mirrors every outlier and
    /// the sampled traces whose sampler count is a multiple of
    /// [`dstore_telemetry::trace::MIRROR_EVERY`].
    pub trace: TraceConfig,
    /// Deadlock-detector budget for the store's internal waits: the
    /// three spin waits (reader drain, writer drain, log-record commit)
    /// and the checkpoint engine's waits for a checkpoint to start or
    /// finish. A wait exceeding this panics with a diagnostic instead of
    /// hanging the process. Raise it for heavily oversubscribed hosts
    /// (e.g. many shards sharing few cores); lower it in tests that want
    /// stalls surfaced quickly.
    pub stall_timeout: Duration,
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
            trace: TraceConfig::default(),
            stall_timeout: Duration::from_secs(30),
        }
    }
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
    /// Sets the number of block-pool shards.
    pub fn with_pool_shards(mut self, shards: usize) -> Self {
        self.pool_shards = shards;
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
        if self.trace.ring_capacity == 0 {
            return Err("trace.ring_capacity must be at least 1".into());
        }
        if self.trace.ring_capacity > 1 << 20 {
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
        // The shadow arena must hold the block pool's ownership map (one
        // byte per block) plus headroom for per-object metadata; a map
        // that alone exceeds the region would panic at format time.
        let blocks = self.ssd_pages / self.pages_per_block;
        if (self.shadow_size as u64) < blocks * 2 + (1 << 20) {
            return Err(format!(
                "shadow_size = {} cannot hold the {blocks}-block pool map plus metadata; \
                 increase it to at least {}",
                self.shadow_size,
                blocks * 2 + (1 << 20)
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
        assert_eq!(c.checkpoint, CheckpointMode::Dipper);
        assert_eq!(c.logging, LoggingMode::Logical);
        assert!(c.swap_threshold > 0.0 && c.swap_threshold < 1.0);
        assert_eq!(c.pool_shards, 8);
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
        c.ssd_pages = 64 * 1024 * 1024; // pool map alone > shadow
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
        c.trace.ring_capacity = 0;
        assert!(c.validate().unwrap_err().contains("trace.ring_capacity"));
        c.trace.ring_capacity = (1 << 20) + 1;
        assert!(c.validate().unwrap_err().contains("trace.ring_capacity"));
    }

    #[test]
    fn builders_compose() {
        let c = DStoreConfig::small()
            .with_checkpoint(CheckpointMode::Cow)
            .with_logging(LoggingMode::Physical)
            .with_oe(false)
            .with_auto_checkpoint(false)
            .with_pool_shards(4)
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
        assert!(c.strict_pmem);
        assert_eq!(c.trace.sample_every, 16);
        assert_eq!(c.trace.slo_ns, 250_000);
    }
}
