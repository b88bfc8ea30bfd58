//! [`ShardedStore`]: N fully independent DStore instances behind one
//! Table-2 API.
//!
//! Every shard owns its whole vertical slice — PMEM pool, SSD device,
//! DIPPER log, checkpoint engine — so shards share *nothing* but the
//! router. Scaling writes then reduces to scaling the number of
//! serialized pool+log sections, and a checkpoint on one shard cannot
//! quiesce, slow, or even observe another.

use crate::router::Router;
use crate::scheduler::{Scheduler, SchedulerConfig, SchedulerMode};
use crate::superblock::{is_reserved, ShardMap};
use dstore::{
    CrashImage, CrashReport, DStore, DStoreConfig, DsContext, DsError, DsLock, DsResult, Footprint,
    ObjectHandle, ObjectStat, OpenMode, RecoveryReport, StatsSnapshot,
};
use dstore_telemetry::TelemetrySnapshot;
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Default router seed for stores that don't pick one.
pub const DEFAULT_ROUTER_SEED: u64 = 0x5EED_D570_12E5_7A2E;

/// Configuration for creating a [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards (independent DStore instances).
    pub shards: u32,
    /// Router seed; persisted in every shard's shard map.
    pub router_seed: u64,
    /// Cross-shard checkpoint scheduling.
    pub scheduler: SchedulerConfig,
    /// Template for each shard's own config. File-backed paths get a
    /// `.shard<i>` suffix per shard; with any scheduler mode other than
    /// [`SchedulerMode::PerShardAuto`], per-shard `auto_checkpoint` is
    /// forced off so the scheduler is the only trigger.
    pub base: DStoreConfig,
}

impl ShardedConfig {
    /// A sharded config over `shards` copies of `base` with the default
    /// seed and staggered scheduling.
    pub fn new(shards: u32, base: DStoreConfig) -> Self {
        ShardedConfig {
            shards,
            router_seed: DEFAULT_ROUTER_SEED,
            scheduler: SchedulerConfig::default(),
            base,
        }
    }

    /// Sets the router seed.
    pub fn with_router_seed(mut self, seed: u64) -> Self {
        self.router_seed = seed;
        self
    }

    /// Sets the checkpoint scheduler configuration.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    fn shard_cfg(&self, index: u32) -> DStoreConfig {
        let mut cfg = self.base.clone();
        if self.scheduler.mode != SchedulerMode::PerShardAuto {
            cfg.auto_checkpoint = false;
        }
        let suffix = |p: &PathBuf| PathBuf::from(format!("{}.shard{index}", p.display()));
        cfg.pmem_file = self.base.pmem_file.as_ref().map(&suffix);
        cfg.ssd_file = self.base.ssd_file.as_ref().map(&suffix);
        cfg
    }
}

/// What a sharded recovery did, merged across shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverySummary {
    /// Shards recovered.
    pub shards: usize,
    /// Shards that had to redo an interrupted checkpoint.
    pub redo_shards: usize,
    /// Total records replayed in checkpoint redos.
    pub redo_records: usize,
    /// Total committed active-log records replayed.
    pub replayed_records: usize,
    /// Wall-clock time of the whole parallel recovery.
    pub wall_ns: u64,
    /// Sum of per-shard recovery work (≥ `wall_ns` when shards actually
    /// recovered concurrently).
    pub cpu_ns: u64,
}

impl RecoverySummary {
    fn from_reports(reports: &[RecoveryReport], wall_ns: u64) -> Self {
        RecoverySummary {
            shards: reports.len(),
            redo_shards: reports.iter().filter(|r| r.redo_checkpoint).count(),
            redo_records: reports.iter().map(|r| r.redo_records).sum(),
            replayed_records: reports.iter().map(|r| r.replayed_records).sum(),
            wall_ns,
            cpu_ns: reports.iter().map(|r| r.total_ns()).sum(),
        }
    }
}

/// A hash-partitioned store over N independent [`DStore`] shards.
pub struct ShardedStore {
    stores: Arc<Vec<DStore>>,
    router: Router,
    scheduler: Option<Scheduler>,
    recovery: RecoverySummary,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.stores.len())
            .field("router", &self.router)
            .finish_non_exhaustive()
    }
}

impl ShardedStore {
    /// Creates a fresh sharded store: `cfg.shards` DStore instances,
    /// each stamped with its shard map.
    pub fn create(cfg: ShardedConfig) -> DsResult<Self> {
        if cfg.shards == 0 {
            return Err(DsError::ShardMismatch("shard count must be ≥ 1".into()));
        }
        let mut stores = Vec::with_capacity(cfg.shards as usize);
        for i in 0..cfg.shards {
            let store = DStore::create(cfg.shard_cfg(i))?;
            ShardMap {
                shard_count: cfg.shards,
                shard_index: i,
                router_seed: cfg.router_seed,
            }
            .persist(&store.context())?;
            stores.push(store);
        }
        let stores = Arc::new(stores);
        let scheduler =
            Scheduler::spawn(Arc::clone(&stores), cfg.scheduler, cfg.base.swap_threshold);
        Ok(ShardedStore {
            stores,
            router: Router::new(cfg.router_seed, cfg.shards),
            scheduler: Some(scheduler),
            recovery: RecoverySummary::default(),
        })
    }

    /// Reopens a **file-backed** sharded store after a process restart
    /// (clean exit or `kill -9`): derives each shard's device paths
    /// from `cfg` exactly as [`ShardedStore::create`] did (the
    /// `.shard<i>` suffixes), maps them without reformatting, and runs
    /// the normal parallel [`ShardedStore::recover`]. `cfg.shards`,
    /// the path template, and the geometry must match creation; the
    /// persisted shard maps then re-validate count and router seed.
    pub fn reopen(cfg: ShardedConfig) -> DsResult<Self> {
        if cfg.base.pmem_file.is_none() || cfg.base.ssd_file.is_none() {
            return Err(DsError::Io(
                "ShardedStore::reopen needs file-backed pmem_file + ssd_file".into(),
            ));
        }
        let images: Vec<CrashImage> = (0..cfg.shards)
            .map(|i| CrashImage::open(cfg.shard_cfg(i)))
            .collect::<DsResult<_>>()?;
        Self::recover(images, cfg.scheduler)
    }

    /// Recovers every shard **in parallel** and reassembles the store.
    ///
    /// Images may arrive in any order: each shard's persisted shard map
    /// names its index, and the store is reassembled in map order.
    /// Recovery is rejected with [`DsError::ShardMismatch`] if the image
    /// count disagrees with the persisted shard count, seeds differ
    /// across shards, or two images claim the same index.
    ///
    /// This composes two levels of parallelism: rayon fans the shards
    /// out here, and *within* each shard recovery replays its log
    /// OE-parallel across up to `replay_threads` workers (DESIGN.md §6d).
    /// Each replay caps its workers at the CPUs its own thread may run
    /// on, but that cap is per shard: N shards recovering (or
    /// checkpointing) at once still multiply their workers. For a
    /// many-shard fleet on a small host, consider pinning each shard's
    /// [`DStoreConfig::replay_threads`] down (or `DSTORE_REPLAY_THREADS=1`)
    /// so the multiplied worker count does not oversubscribe the machine.
    pub fn recover(images: Vec<CrashImage>, scheduler: SchedulerConfig) -> DsResult<Self> {
        if images.is_empty() {
            return Err(DsError::ShardMismatch("no shard images".into()));
        }
        let t = Instant::now();
        let recovered: Vec<DsResult<DStore>> =
            images.into_par_iter().map(DStore::recover).collect();
        let mut stores = Vec::with_capacity(recovered.len());
        for r in recovered {
            stores.push(r?);
        }
        let wall_ns = t.elapsed().as_nanos() as u64;

        // Validate the shard maps and sort the shards into index order.
        let maps: Vec<ShardMap> = stores
            .iter()
            .map(|s| ShardMap::load(&s.context()))
            .collect::<DsResult<_>>()?;
        let count = maps[0].shard_count;
        let seed = maps[0].router_seed;
        if count as usize != stores.len() {
            return Err(DsError::ShardMismatch(format!(
                "store was created with {count} shards, got {} images",
                stores.len()
            )));
        }
        let mut slots: Vec<Option<DStore>> = (0..stores.len()).map(|_| None).collect();
        for (store, map) in stores.into_iter().zip(&maps) {
            if map.shard_count != count || map.router_seed != seed {
                return Err(DsError::ShardMismatch(format!(
                    "shard {} disagrees: count {} seed {:#x} vs count {count} seed {seed:#x}",
                    map.shard_index, map.shard_count, map.router_seed
                )));
            }
            let slot = &mut slots[map.shard_index as usize];
            if slot.is_some() {
                return Err(DsError::ShardMismatch(format!(
                    "two images claim shard index {}",
                    map.shard_index
                )));
            }
            *slot = Some(store);
        }
        let stores: Vec<DStore> = slots.into_iter().map(|s| s.unwrap()).collect();

        let reports: Vec<RecoveryReport> = stores.iter().map(|s| s.recovery_report()).collect();
        let swap_threshold = stores[0].config().swap_threshold;
        let stores = Arc::new(stores);
        let scheduler = Scheduler::spawn(Arc::clone(&stores), scheduler, swap_threshold);
        Ok(ShardedStore {
            stores,
            router: Router::new(seed, count),
            scheduler: Some(scheduler),
            recovery: RecoverySummary::from_reports(&reports, wall_ns),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.router.shard_count()
    }

    /// The key→shard router.
    pub fn router(&self) -> Router {
        self.router
    }

    /// Direct access to one shard (tests, benches, diagnostics).
    pub fn shard(&self, i: usize) -> &DStore {
        &self.stores[i]
    }

    /// A context routing the Table-2 API across shards.
    pub fn context(&self) -> ShardedCtx {
        ShardedCtx {
            ctxs: self.stores.iter().map(|s| s.context()).collect(),
            router: self.router,
        }
    }

    /// Operation counters summed across shards.
    pub fn stats(&self) -> StatsSnapshot {
        let mut acc = StatsSnapshot::default();
        for s in self.stores.iter() {
            acc.merge(&s.stats().snapshot());
        }
        acc
    }

    /// Storage footprint summed across shards.
    pub fn footprint(&self) -> Footprint {
        let mut acc = Footprint::default();
        for s in self.stores.iter() {
            acc.merge(&s.footprint());
        }
        acc
    }

    /// Checkpoints completed, summed across shards (either engine).
    pub fn checkpoints_completed(&self) -> u64 {
        self.stores.iter().map(|s| s.checkpoints_completed()).sum()
    }

    /// One merged telemetry snapshot for the whole fleet: every shard's
    /// series tagged `shard="<i>"`, plus the scheduler's trigger
    /// counters. Empty (but still stamped) if every shard was created
    /// with `telemetry = false`.
    ///
    /// Fleet-wide aggregates fall out of the snapshot helpers — e.g.
    /// `merged_histogram("dstore_op_latency_ns")` for a global latency
    /// distribution, or per-`shard` label filtering for skew.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut merged = TelemetrySnapshot::new();
        for (i, s) in self.stores.iter().enumerate() {
            if let Some(snap) = s.telemetry_snapshot() {
                merged.absorb(snap.with_label("shard", &i.to_string()));
            }
        }
        if let Some(sched) = &self.scheduler {
            let c = sched.counters();
            merged.push_counter(
                "dstore_scheduler_triggers_total",
                Vec::new(),
                c.triggers.get(),
            );
            merged.push_counter(
                "dstore_scheduler_panic_triggers_total",
                Vec::new(),
                c.panic_triggers.get(),
            );
        }
        merged.sort();
        merged
    }

    /// Fleet-wide tail-latency attribution: pools every shard's retained
    /// traces (the merged snapshot keeps them apart under `shard="<i>"`
    /// labels; the pooled cut here answers "which segment makes the
    /// fleet's tail slow"). `None` when no shard has a retained trace.
    pub fn tail_attribution(&self, percentile: f64) -> Option<dstore_telemetry::TailAttribution> {
        let traces = self.telemetry_snapshot().all_traces("dstore_op_traces");
        if traces.is_empty() {
            return None;
        }
        Some(dstore_telemetry::TailAttribution::from_traces(
            &traces, percentile,
        ))
    }

    /// One fleet-wide health summary: counters summed across shards,
    /// log fill from the worst shard, and the first non-idle checkpoint
    /// phase (see [`dstore::HealthSnapshot::merge`]). This is what the
    /// server's `health` RPC returns; drill into
    /// [`ShardedStore::health_per_shard`] when it alarms.
    pub fn health(&self) -> dstore::HealthSnapshot {
        let mut acc = dstore::HealthSnapshot::default();
        for s in self.stores.iter() {
            acc.merge(&s.health());
        }
        acc
    }

    /// Per-shard health snapshots, index order.
    pub fn health_per_shard(&self) -> Vec<dstore::HealthSnapshot> {
        self.stores.iter().map(|s| s.health()).collect()
    }

    /// Live objects across shards (excluding the N shard-map objects).
    pub fn object_count(&self) -> u64 {
        let raw: u64 = self.stores.iter().map(|s| s.object_count()).sum();
        raw - self.shard_count() as u64
    }

    /// What the last [`ShardedStore::recover`] did (zeroes for a fresh
    /// store).
    pub fn recovery_summary(&self) -> RecoverySummary {
        self.recovery
    }

    /// Per-shard recovery reports (zeroes for a fresh store).
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.stores.iter().map(|s| s.recovery_report()).collect()
    }

    /// Per-shard post-mortems of the previous incarnation, exhumed from
    /// each shard's crash-persistent black box during recovery. Index
    /// order; `None` entries are shards with nothing to report (fresh
    /// store, black box disabled, or nothing decodable survived).
    pub fn crash_reports(&self) -> Vec<Option<CrashReport>> {
        self.stores
            .iter()
            .map(|s| s.crash_report().cloned())
            .collect()
    }

    /// Reads every shard's black box **without** recovering the store:
    /// opens each shard's devices exactly as [`ShardedStore::reopen`]
    /// would (the `.shard<i>` path suffixes) and synthesizes the
    /// per-shard reports from the durable images, which are left
    /// untouched. The post-mortem path for a store that is still down.
    pub fn post_mortem(cfg: &ShardedConfig) -> DsResult<Vec<Option<CrashReport>>> {
        if cfg.base.pmem_file.is_none() || cfg.base.ssd_file.is_none() {
            return Err(DsError::Io(
                "ShardedStore::post_mortem needs file-backed pmem_file + ssd_file".into(),
            ));
        }
        (0..cfg.shards)
            .map(|i| DStore::post_mortem(&CrashImage::open(cfg.shard_cfg(i))?))
            .collect()
    }

    /// Runs one complete checkpoint on every shard, sequentially.
    pub fn checkpoint_now(&self) {
        for s in self.stores.iter() {
            s.checkpoint_now();
        }
    }

    /// Blocks until no shard is checkpointing.
    pub fn wait_checkpoint_idle(&self) {
        for s in self.stores.iter() {
            s.wait_checkpoint_idle();
        }
    }

    /// Failure injection: performs the checkpoint *swap* (but not the
    /// apply) on the listed shards, leaving exactly those shards in the
    /// paper's worst-case crash window. See
    /// [`DStore::begin_checkpoint_swap_only`] for the preconditions.
    pub fn begin_checkpoint_swap_only_on(&self, shards: &[usize]) {
        for &i in shards {
            self.stores[i].begin_checkpoint_swap_only();
        }
    }

    fn into_stores(mut self) -> Vec<DStore> {
        // Stop the scheduler first: it holds the only other Arc.
        if let Some(mut sched) = self.scheduler.take() {
            sched.stop();
        }
        Arc::try_unwrap(std::mem::take(&mut self.stores))
            .ok()
            .expect("scheduler stopped; no other store references")
    }

    /// Simulates a power failure on every shard. Returns the crash
    /// images in shard order (though [`ShardedStore::recover`] accepts
    /// any order).
    pub fn crash(self) -> Vec<CrashImage> {
        self.into_stores().into_iter().map(DStore::crash).collect()
    }

    /// Clean shutdown: checkpoint everything, stop, return the images.
    pub fn close(self) -> Vec<CrashImage> {
        self.into_stores().into_iter().map(DStore::close).collect()
    }
}

/// Table-2 operation context over a [`ShardedStore`].
///
/// Key-addressed operations route to the owning shard; `list`/
/// `list_prefix` merge across shards (reserved names filtered, result
/// sorted for determinism). Names under the reserved shard-internal
/// prefix are rejected with [`DsError::ReservedName`].
pub struct ShardedCtx {
    ctxs: Vec<DsContext>,
    router: Router,
}

impl ShardedCtx {
    #[inline]
    fn route(&self, key: &[u8]) -> DsResult<&DsContext> {
        if is_reserved(key) {
            return Err(DsError::ReservedName);
        }
        Ok(&self.ctxs[self.router.shard_of(key)])
    }

    /// Creates or overwrites an object (`ds_put`).
    pub fn put(&self, key: &[u8], value: &[u8]) -> DsResult<()> {
        self.route(key)?.put(key, value)
    }

    /// Reads a whole object (`ds_get`).
    pub fn get(&self, key: &[u8]) -> DsResult<Vec<u8>> {
        self.route(key)?.get(key)
    }

    /// Deletes an object (`ds_delete`).
    pub fn delete(&self, key: &[u8]) -> DsResult<()> {
        self.route(key)?.delete(key)
    }

    /// Whether the object exists (reserved names are invisible).
    pub fn exists(&self, key: &[u8]) -> bool {
        self.route(key).map(|c| c.exists(key)).unwrap_or(false)
    }

    /// Object size in bytes.
    pub fn size_of(&self, key: &[u8]) -> DsResult<u64> {
        self.route(key)?.size_of(key)
    }

    /// Object metadata.
    pub fn stat(&self, key: &[u8]) -> DsResult<ObjectStat> {
        self.route(key)?.stat(key)
    }

    /// Opens an object for partial reads/writes (`ds_oread`/`ds_owrite`
    /// go through the returned handle).
    pub fn open(&self, name: &[u8], mode: OpenMode) -> DsResult<ObjectHandle<'_>> {
        self.route(name)?.open(name, mode)
    }

    /// Advisory per-object lock.
    pub fn lock(&self, name: &[u8]) -> DsResult<DsLock<'_>> {
        self.route(name)?.lock(name)
    }

    /// All object names across shards, sorted.
    pub fn list(&self) -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = self
            .ctxs
            .iter()
            .flat_map(|c| c.list())
            .filter(|n| !is_reserved(n))
            .collect();
        all.sort_unstable();
        all
    }

    /// All object names with the given prefix across shards, sorted.
    pub fn list_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = self
            .ctxs
            .iter()
            .flat_map(|c| c.list_prefix(prefix))
            .filter(|n| !is_reserved(n))
            .collect();
        all.sort_unstable();
        all
    }
}
