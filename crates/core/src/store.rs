//! The store: device setup, checkpoint wiring, crash and recovery.

use crate::blackbox::{BlackBoxRecorder, CrashReport};
use crate::cc::InflightWriters;
use crate::config::{CheckpointMode, DStoreConfig};
use crate::cow::CowCheckpointer;
use crate::ctx::DsContext;
use crate::error::{DsError, DsResult};
use crate::replay::{self, ReplaySnapshot, ReplayStats};
use crate::stats::{Footprint, StoreStats};
use crate::structures::{Directory, Domain};
use crate::telemetry::{HealthSnapshot, StoreTelemetry};
use dstore_arena::{Arena, DramMemory, PmemRange, RelPtr};
use dstore_dipper::checkpoint::{apply_checkpoint, Applier, CheckpointStats, RecordWindows};
use dstore_dipper::layout::{LOG_HEADER_SIZE, ROOT_SIZE};
use dstore_dipper::{recover_scan, Checkpointer, DipperConfig, OpLog, PmemLayout, Root};
use dstore_index::{OlcStats, ReadCounts};
use dstore_pmem::blackbox::{exhume, region_size, BlackBoxRegion};
use dstore_pmem::{PersistenceMode, PmemPool, PoolBuilder};
use dstore_ssd::SsdDevice;
use dstore_telemetry::SpanRing;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// SSD superblock magic ("DSTORESB").
const SB_MAGIC: u64 = 0x4453_544f_5245_5342;

/// What recovery did and how long it took — the rows of Table 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Whether an interrupted checkpoint was redone.
    pub redo_checkpoint: bool,
    /// Records replayed during the checkpoint redo.
    pub redo_records: usize,
    /// Committed active-log records replayed onto the DRAM structures.
    pub replayed_records: usize,
    /// Time reading the persistent log: the scan, plus durably aborting
    /// the records it found in flight at the crash.
    pub scan_ns: u64,
    /// Time reconstructing metadata (checkpoint redo + PMEM→DRAM copy).
    pub metadata_ns: u64,
    /// Time replaying active-log records.
    pub replay_ns: u64,
}

impl RecoveryReport {
    /// Total recovery time.
    pub fn total_ns(&self) -> u64 {
        self.scan_ns + self.metadata_ns + self.replay_ns
    }
}

/// The devices of a crashed store, ready for [`DStore::recover`].
pub struct CrashImage {
    pub(crate) pool: Arc<PmemPool>,
    pub(crate) ssd: Arc<SsdDevice>,
    pub(crate) cfg: DStoreConfig,
}

impl CrashImage {
    /// Swaps the configuration used for recovery (failure-injection
    /// tests: recovering with mismatched sizes must be rejected).
    pub fn reconfigure(image: CrashImage, cfg: DStoreConfig) -> CrashImage {
        CrashImage {
            pool: image.pool,
            ssd: image.ssd,
            cfg,
        }
    }

    /// Builds an image from explicitly opened devices — how a real restart
    /// reopens file-backed pools before [`DStore::recover`].
    pub fn from_devices(pool: Arc<PmemPool>, ssd: Arc<SsdDevice>, cfg: DStoreConfig) -> CrashImage {
        CrashImage { pool, ssd, cfg }
    }

    /// Reopens a file-backed store's devices after a process restart
    /// (clean exit or `kill -9`): maps `cfg.pmem_file` and opens
    /// `cfg.ssd_file` exactly as [`DStore::create`] would, without
    /// reformatting, ready for [`DStore::recover`]. Both paths must be
    /// set; in-memory stores have nothing to reopen.
    pub fn open(cfg: DStoreConfig) -> DsResult<CrashImage> {
        cfg.validate().map_err(DsError::Io)?;
        let pmem_file = cfg
            .pmem_file
            .as_ref()
            .ok_or_else(|| DsError::Io("CrashImage::open needs cfg.pmem_file".into()))?;
        let ssd_file = cfg
            .ssd_file
            .as_ref()
            .ok_or_else(|| DsError::Io("CrashImage::open needs cfg.ssd_file".into()))?;
        let layout = PmemLayout::new(&dipper_cfg(&cfg));
        let pool = Arc::new(
            PoolBuilder::new(layout.total)
                .mode(if cfg.strict_pmem {
                    PersistenceMode::Strict
                } else {
                    PersistenceMode::Fast
                })
                .latency(cfg.pmem_latency.clone())
                .dax_file(pmem_file)
                .build()?,
        );
        let ssd = Arc::new(
            SsdDevice::file_backed(ssd_file, cfg.ssd_pages)?.with_latency(cfg.ssd_latency.clone()),
        );
        Ok(CrashImage { pool, ssd, cfg })
    }

    /// The crashed PMEM device (failure-injection tests corrupt regions
    /// through this before recovering).
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// The crashed SSD device.
    pub fn ssd(&self) -> &Arc<SsdDevice> {
        &self.ssd
    }
}

pub(crate) struct StoreInner {
    pub cfg: DStoreConfig,
    pub layout: PmemLayout,
    pub pool: Arc<PmemPool>,
    pub ssd: Arc<SsdDevice>,
    pub root: Arc<Root>,
    pub log: Arc<OpLog>,
    pub dram: Arc<Arena<DramMemory>>,
    pub dir: RelPtr<Directory>,
    /// Parallel-persistence locks, one per block-pool shard. An op
    /// holds its name's shard lock across log reservation + allocation
    /// (Figure 4 steps ①–⑤ minus the flush), so per-shard pool order
    /// equals per-shard LSN order — the invariant deterministic replay
    /// depends on. A starved op escalates to *all* shard locks in index
    /// order before stealing, which totally orders it against every
    /// concurrent planner.
    pub pool_shard_locks: Box<[Mutex<()>]>,
    /// Protects the object-index B-tree (step ⑦ and lookups) when
    /// `cfg.index_olc` is off. Under OLC (the default) the tree's
    /// per-node version words provide synchronization and this lock is
    /// never taken on the op path.
    pub btree_lock: RwLock<()>,
    /// OLC restart / latch-wait counters for the object index, shared
    /// by the frontend op paths, the checkpoint applier, and telemetry
    /// (`dstore_index_restarts_total` / `dstore_index_latch_waits_total`).
    pub index_stats: Arc<OlcStats>,
    /// Full-operation serialization for `oe = false` (Figure 9 "-OE").
    pub global_lock: Mutex<()>,
    /// Read-write CC: per-object read counts (§4.4).
    pub readers: ReadCounts,
    /// Read-write CC: objects with an in-flight writer.
    pub writers: InflightWriters,
    /// Held `read` by every op; held `write` by the CoW trigger.
    pub drain: Arc<RwLock<()>>,
    pub ckpt: Mutex<Option<Checkpointer>>,
    pub cow: Option<CowCheckpointer>,
    pub stats: StoreStats,
    pub recovery: RecoveryReport,
    /// Parallel-replay counters, shared with the checkpoint applier (and
    /// pre-populated by recovery's replay on a recovered store).
    pub replay: Arc<ReplayStats>,
    /// Always-on telemetry (None when `cfg.telemetry` is off).
    pub telemetry: Option<Arc<StoreTelemetry>>,
    /// Crash-persistent flight recorder (None when `cfg.blackbox` is
    /// off — every hook then collapses to a skipped branch).
    pub blackbox: Option<Arc<BlackBoxRecorder>>,
    /// Post-mortem of the previous incarnation, exhumed during recovery
    /// (None on a fresh store or when the black box is disabled).
    pub crash_report: Option<CrashReport>,
}

impl StoreInner {
    /// The frontend (DRAM) domain.
    pub fn domain(&self) -> Domain<'_, DramMemory> {
        Domain::attach(&self.dram, self.dir)
    }

    /// The index synchronization mode frontend ops run under: lock-free
    /// OLC when `cfg.index_olc` (the default). In legacy mode callers
    /// hold `btree_lock` themselves, so the sync object degenerates to
    /// `Exclusive`.
    pub fn index_sync(&self) -> crate::structures::IndexSync<'_> {
        if self.cfg.index_olc {
            crate::structures::IndexSync::Olc {
                stats: &self.index_stats,
            }
        } else {
            crate::structures::IndexSync::Exclusive
        }
    }

    /// Triggers a checkpoint if the active log crossed the threshold and
    /// automatic checkpointing is on.
    pub fn maybe_checkpoint(&self) {
        if !self.cfg.auto_checkpoint {
            return;
        }
        if self.log.used_fraction() < self.cfg.swap_threshold {
            return;
        }
        match self.cfg.checkpoint {
            CheckpointMode::Dipper => {
                if let Some(c) = self.ckpt.lock().as_ref() {
                    c.try_begin();
                }
            }
            CheckpointMode::Cow => {
                if let Some(c) = &self.cow {
                    // The CoW trigger takes the drain write lock; callers
                    // of maybe_checkpoint on the op path hold the read
                    // lock, so hand the trigger to a helper thread.
                    if !c.is_busy() {
                        let _ = c.try_begin_from_op_path();
                    }
                }
            }
        }
    }

    /// Handles a full log: force a checkpoint (blocking if one is already
    /// running) so the append can retry — the backpressure path.
    pub fn handle_log_full(&self) {
        self.stats
            .log_full_stalls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(bb) = &self.blackbox {
            bb.record_event("log_full_stall", 0, 0);
        }
        match self.cfg.checkpoint {
            CheckpointMode::Dipper => {
                if let Some(c) = self.ckpt.lock().as_ref() {
                    c.begin_blocking();
                }
            }
            CheckpointMode::Cow => {
                if let Some(c) = &self.cow {
                    c.begin_blocking_from_op_path();
                }
            }
        }
    }
}

/// The DStore handle. Clone-free: obtain per-thread [`DsContext`]s via
/// [`DStore::context`] (the paper's `ds_init`).
pub struct DStore {
    pub(crate) inner: Arc<StoreInner>,
}

/// Builds the DIPPER applier: replays committed records onto the given
/// shadow region using the same [`Domain`] code the frontend runs,
/// OE-parallel across pool shards when `threads > 1` (see
/// [`crate::replay`]), one [`RecordWindows`] window at a time over one
/// attach of the shadow arena. Per-group spans land in `ring` (the
/// checkpoint ring for live applies, the recovery ring for a redo).
fn make_applier(
    pool: &Arc<PmemPool>,
    layout: PmemLayout,
    dir: RelPtr<Directory>,
    threads: usize,
    stats: Arc<ReplayStats>,
    ring: Option<Arc<SpanRing>>,
    olc: Option<Arc<OlcStats>>,
) -> Applier {
    let pool = Arc::clone(pool);
    Arc::new(move |shadow_idx: usize, windows: &RecordWindows<'_>| {
        let arena = Arena::attach(PmemRange::new(
            Arc::clone(&pool),
            layout.shadow[shadow_idx],
            layout.shadow_size,
        ))
        .expect("shadow region holds a valid arena");
        windows.for_each(|records| {
            replay::replay_window(
                &arena,
                dir,
                records,
                threads,
                &stats,
                ring.as_deref(),
                olc.as_deref(),
            )
        });
    })
}

fn dipper_cfg(cfg: &DStoreConfig) -> DipperConfig {
    DipperConfig {
        log_size: cfg.log_size,
        shadow_size: cfg.shadow_size,
        swap_threshold: cfg.swap_threshold,
        blackbox_size: if cfg.blackbox.enabled {
            region_size(cfg.blackbox.trace_slots, cfg.blackbox.event_slots)
        } else {
            0
        },
    }
}

impl DStore {
    /// Creates a fresh store on fresh (or truncated) devices.
    pub fn create(cfg: DStoreConfig) -> DsResult<Self> {
        cfg.validate().map_err(DsError::Io)?;
        let layout = PmemLayout::new(&dipper_cfg(&cfg));
        let mut pb = PoolBuilder::new(layout.total)
            .mode(if cfg.strict_pmem {
                PersistenceMode::Strict
            } else {
                PersistenceMode::Fast
            })
            .latency(cfg.pmem_latency.clone());
        if let Some(f) = &cfg.pmem_file {
            pb = pb.dax_file(f);
        }
        let pool = Arc::new(pb.build()?);
        let ssd = Arc::new(match &cfg.ssd_file {
            Some(f) => {
                SsdDevice::file_backed(f, cfg.ssd_pages)?.with_latency(cfg.ssd_latency.clone())
            }
            None => SsdDevice::anon(cfg.ssd_pages).with_latency(cfg.ssd_latency.clone()),
        });
        // Superblock: "The first block is reserved for the superblock,
        // which contains relevant recovery information" (§4.2).
        let mut sb = vec![0u8; dstore_ssd::PAGE_SIZE];
        sb[..8].copy_from_slice(&SB_MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&cfg.ssd_pages.to_le_bytes());
        ssd.write_pages(0, &sb);

        let root = Arc::new(Root::format(
            Arc::clone(&pool),
            layout.log_size as u64,
            layout.shadow_size as u64,
        ));
        let mut log = OpLog::create(Arc::clone(&pool), layout);
        log.set_stall_timeout(cfg.stall_timeout);
        let log = Arc::new(log);

        // System space: format the DRAM domain, then seed shadow region 0
        // with an identical image so the first checkpoint has a base.
        let dram = Arc::new(Arena::create(DramMemory::new(layout.shadow_size)));
        let domain =
            Domain::format_with_shards(&dram, cfg.ssd_pages, cfg.pages_per_block, cfg.pool_shards);
        let dir = domain.dir_ptr();
        let shadow0 = Arena::create(PmemRange::new(
            Arc::clone(&pool),
            layout.shadow[0],
            layout.shadow_size,
        ));
        dram.copy_allocated_to(&shadow0);
        shadow0.persist_allocated();
        root.set_app_dir(dir.offset());

        let telemetry = cfg
            .telemetry
            .then(|| Arc::new(StoreTelemetry::new(&cfg.trace)));
        let store = Self {
            inner: Self::assemble(
                cfg,
                layout,
                pool,
                ssd,
                root,
                log,
                dram,
                dir,
                RecoveryReport::default(),
                Arc::new(ReplayStats::default()),
                telemetry,
                None,
            ),
        };
        if let Some(bb) = &store.inner.blackbox {
            bb.record_event("startup", 0, 0);
            bb.publish_heartbeat();
        }
        Ok(store)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        cfg: DStoreConfig,
        layout: PmemLayout,
        pool: Arc<PmemPool>,
        ssd: Arc<SsdDevice>,
        root: Arc<Root>,
        log: Arc<OpLog>,
        dram: Arc<Arena<DramMemory>>,
        dir: RelPtr<Directory>,
        recovery: RecoveryReport,
        replay: Arc<ReplayStats>,
        telemetry: Option<Arc<StoreTelemetry>>,
        crash_report: Option<CrashReport>,
    ) -> Arc<StoreInner> {
        let drain = Arc::new(RwLock::new(()));
        let stall_timeout = cfg.stall_timeout;
        let index_stats = Arc::new(OlcStats::default());
        // The domain clamps the shard count at format time (tiny pools get
        // fewer shards than configured), so read the on-media value back.
        let nshards = Domain::attach(&dram, dir).pool_shards().max(1);
        let pool_shard_locks: Box<[Mutex<()>]> = (0..nshards).map(|_| Mutex::new(())).collect();
        // Build the flight recorder before the checkpoint engines so the
        // lifecycle-event sink can be threaded into their telemetry.
        // The region is (re)formatted here — recovery exhumed the dead
        // incarnation's contents *before* calling assemble.
        let blackbox = match (&telemetry, cfg.blackbox.enabled && layout.blackbox_size > 0) {
            (Some(t), true) => {
                let region = BlackBoxRegion::format(
                    Arc::clone(&pool),
                    layout.blackbox,
                    cfg.blackbox.trace_slots,
                    cfg.blackbox.event_slots,
                );
                Some(Arc::new(BlackBoxRecorder::new(
                    region,
                    Arc::clone(&t.ckpt.phase),
                    Arc::clone(&log),
                    Arc::clone(&dram),
                    dir,
                    cfg.ssd_pages,
                    cfg.blackbox.heartbeat_every,
                )))
            }
            _ => None,
        };
        let ckpt_telemetry = telemetry.as_ref().map(|t| {
            let mut ct = t.ckpt.clone();
            if let Some(bb) = &blackbox {
                let bb = Arc::clone(bb);
                ct.events = Some(Arc::new(move |name, a, b| bb.record_event(name, a, b)));
            }
            ct
        });
        let (ckpt, cow) = match cfg.checkpoint {
            CheckpointMode::Dipper => {
                let applier = make_applier(
                    &pool,
                    layout,
                    dir,
                    cfg.replay_threads,
                    Arc::clone(&replay),
                    telemetry.as_ref().map(|t| Arc::clone(&t.ckpt.ring)),
                    cfg.index_olc.then(|| Arc::clone(&index_stats)),
                );
                let c = Checkpointer::new(
                    Arc::clone(&pool),
                    layout,
                    Arc::clone(&root),
                    Arc::clone(&log),
                    applier,
                );
                c.set_apply_threads(cfg.replay_threads);
                if let Some(ct) = &ckpt_telemetry {
                    c.set_telemetry(ct.clone());
                }
                (Some(c), None)
            }
            CheckpointMode::Cow => {
                let c = CowCheckpointer::new(
                    Arc::clone(&pool),
                    layout,
                    Arc::clone(&root),
                    Arc::clone(&log),
                    Arc::clone(&dram),
                    Arc::clone(&drain),
                );
                if let Some(ct) = &ckpt_telemetry {
                    c.set_telemetry(ct.clone());
                }
                (None, Some(c))
            }
        };
        Arc::new(StoreInner {
            cfg,
            layout,
            pool,
            ssd,
            root,
            log,
            dram,
            dir,
            pool_shard_locks,
            btree_lock: RwLock::new(()),
            index_stats,
            global_lock: Mutex::new(()),
            readers: ReadCounts::with_stall_timeout(stall_timeout),
            writers: InflightWriters::with_stall_timeout(stall_timeout),
            drain,
            ckpt: Mutex::new(ckpt),
            cow,
            stats: StoreStats::new(),
            recovery,
            replay,
            telemetry,
            blackbox,
            crash_report,
        })
    }

    /// A per-thread operation context — the paper's `ds_init`.
    pub fn context(&self) -> DsContext {
        DsContext::new(Arc::clone(&self.inner))
    }

    /// The configuration this store runs with.
    pub fn config(&self) -> &DStoreConfig {
        &self.inner.cfg
    }

    /// Runs one complete checkpoint synchronously.
    pub fn checkpoint_now(&self) {
        match self.inner.cfg.checkpoint {
            CheckpointMode::Dipper => {
                if let Some(c) = self.inner.ckpt.lock().as_ref() {
                    c.run_inline();
                }
            }
            CheckpointMode::Cow => {
                if let Some(c) = &self.inner.cow {
                    c.run_inline();
                }
            }
        }
    }

    /// Fraction of the active log buffer currently in use, in [0, 1].
    /// This is the signal external checkpoint schedulers (e.g.
    /// `dstore-shard`'s staggered scheduler) poll to decide when to
    /// trigger [`DStore::checkpoint_async`].
    pub fn log_used_fraction(&self) -> f64 {
        self.inner.log.used_fraction()
    }

    /// Starts a checkpoint without waiting for it to finish. Returns
    /// `false` if one is already running (nothing new is scheduled).
    /// Intended for external schedulers driving stores that were created
    /// with `auto_checkpoint = false`.
    pub fn checkpoint_async(&self) -> bool {
        match self.inner.cfg.checkpoint {
            CheckpointMode::Dipper => self
                .inner
                .ckpt
                .lock()
                .as_ref()
                .map(|c| c.try_begin())
                .unwrap_or(false),
            CheckpointMode::Cow => self
                .inner
                .cow
                .as_ref()
                .map(|c| c.try_begin())
                .unwrap_or(false),
        }
    }

    /// Blocks until no checkpoint is running.
    pub fn wait_checkpoint_idle(&self) {
        match self.inner.cfg.checkpoint {
            CheckpointMode::Dipper => {
                if let Some(c) = self.inner.ckpt.lock().as_ref() {
                    c.wait_idle();
                }
            }
            CheckpointMode::Cow => {
                if let Some(c) = &self.inner.cow {
                    c.wait_idle();
                }
            }
        }
    }

    /// Failure injection: performs only the checkpoint *swap* (log flip +
    /// root transition) without scheduling the apply phase, leaving the
    /// store in the paper's worst-case crash window — "an unexpected
    /// crash just before the checkpoint process is complete" (§5.5).
    /// Only meaningful with `auto_checkpoint = false`, and only in DIPPER
    /// mode: a CoW checkpoint's recovery contract assumes the archived
    /// log covers everything since the current image, which a second swap
    /// on top of an uncompleted one would violate. (Recovery itself
    /// always completes an interrupted checkpoint before handing the
    /// store over, so live stores never observe an orphaned one.)
    pub fn begin_checkpoint_swap_only(&self) {
        assert!(
            matches!(self.inner.cfg.checkpoint, CheckpointMode::Dipper),
            "swap-only crash injection requires DIPPER mode"
        );
        self.inner.log.swap(|| {
            self.inner.root.begin_checkpoint();
        });
    }

    /// DIPPER checkpoint counters (None in CoW mode).
    pub fn checkpoint_stats(&self) -> Option<CheckpointStats> {
        let g = self.inner.ckpt.lock();
        g.as_ref().map(|c| {
            let s = c.stats();
            CheckpointStats {
                completed: s
                    .completed
                    .load(std::sync::atomic::Ordering::Relaxed)
                    .into(),
                records_applied: s
                    .records_applied
                    .load(std::sync::atomic::Ordering::Relaxed)
                    .into(),
                bytes_copied: s
                    .bytes_copied
                    .load(std::sync::atomic::Ordering::Relaxed)
                    .into(),
                last_apply_ns: s
                    .last_apply_ns
                    .load(std::sync::atomic::Ordering::Relaxed)
                    .into(),
            }
        })
    }

    /// Checkpoints completed since creation/recovery, in either
    /// checkpoint mode.
    pub fn checkpoints_completed(&self) -> u64 {
        match self.inner.cfg.checkpoint {
            CheckpointMode::Dipper => self
                .checkpoint_stats()
                .map(|c| c.completed.load(std::sync::atomic::Ordering::Relaxed))
                .unwrap_or(0),
            CheckpointMode::Cow => self.inner.cow.as_ref().map(|c| c.completed()).unwrap_or(0),
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &StoreStats {
        &self.inner.stats
    }

    /// Parallel-replay counters: windows, shard groups, serialized
    /// fallbacks (steal-flagged windows), records, and the serialized
    /// nanoseconds the admission-rate bound is computed from. Covers the
    /// checkpoint applier of this store plus — on a recovered store —
    /// recovery's redo and active-log replay.
    pub fn replay_stats(&self) -> ReplaySnapshot {
        self.inner.replay.snapshot()
    }

    /// Full telemetry snapshot: per-op latency histograms, checkpoint and
    /// recovery phase spans, gauges (log fill, arena high-water, SSD
    /// blocks in use), operation/device counters. `None` when the store
    /// was created with `telemetry = false`.
    ///
    /// Render the result with `dstore_telemetry::to_prometheus` or
    /// `dstore_telemetry::to_json`.
    pub fn telemetry_snapshot(&self) -> Option<dstore_telemetry::TelemetrySnapshot> {
        let tel = self.inner.telemetry.as_ref()?;
        // Refresh the gauges the registry cannot compute itself.
        tel.log_used.set(self.inner.log.used_fraction());
        let arena = self.inner.dram.stats();
        tel.arena_high_water.set(arena.high_water as f64);
        let domain = self.inner.domain();
        let ppb = domain.pages_per_block();
        let capacity = (self.inner.cfg.ssd_pages - 1) / ppb;
        tel.ssd_blocks_used
            .set((capacity - domain.pool_free()) as f64);
        tel.ckpt_phase_gauge.set(tel.ckpt.phase.index() as f64);

        let mut snap = tel.registry.snapshot();
        // Operation and backpressure counters (kept in StoreStats, which
        // predates the registry; exported under stable metric names).
        let s = self.inner.stats.snapshot();
        let op = |name: &str| vec![("op".to_string(), name.to_string())];
        snap.push_counter("dstore_ops_total", op("put"), s.puts);
        snap.push_counter("dstore_ops_total", op("get"), s.gets);
        snap.push_counter("dstore_ops_total", op("delete"), s.deletes);
        snap.push_counter("dstore_ops_total", op("owrite"), s.writes);
        snap.push_counter("dstore_ops_total", op("oread"), s.reads);
        snap.push_counter("dstore_ww_conflicts_total", vec![], s.ww_conflicts);
        snap.push_counter("dstore_rw_backoffs_total", vec![], s.rw_backoffs);
        snap.push_counter("dstore_log_full_stalls_total", vec![], s.log_full_stalls);
        // Commit-flush combining (parallel persistence write path).
        let l = self.inner.log.stats();
        snap.push_counter(
            "dstore_log_commit_batches_total",
            vec![],
            l.commit_batches.load(Ordering::Relaxed),
        );
        snap.push_counter(
            "dstore_log_commits_combined_total",
            vec![],
            l.commits_combined.load(Ordering::Relaxed),
        );
        snap.push_counter(
            "dstore_log_commit_follower_sleeps_total",
            vec![],
            l.commit_follower_sleeps.load(Ordering::Relaxed),
        );
        snap.push_counter(
            "dstore_checkpoints_completed_total",
            vec![],
            self.checkpoints_completed(),
        );
        // OE-parallel replay (checkpoint apply + recovery).
        let r = self.replay_stats();
        snap.push_counter("dstore_replay_windows_total", vec![], r.windows);
        snap.push_counter("dstore_replay_groups_total", vec![], r.groups);
        snap.push_counter(
            "dstore_replay_parallel_windows_total",
            vec![],
            r.parallel_windows,
        );
        snap.push_counter(
            "dstore_replay_serial_fallbacks_total",
            vec![],
            r.serial_fallbacks,
        );
        snap.push_counter("dstore_replay_records_total", vec![], r.records);
        snap.push_counter("dstore_replay_serialized_ns_total", vec![], r.serialized_ns);
        snap.push_counter("dstore_replay_divergence_total", vec![], r.divergences);
        // Optimistic lock coupling on the object index (frontend ops +
        // checkpoint applier; zero when `index_olc` is off).
        let i = &self.inner.index_stats;
        snap.push_counter(
            "dstore_index_restarts_total",
            vec![],
            i.restarts.load(Ordering::Relaxed),
        );
        snap.push_counter(
            "dstore_index_latch_waits_total",
            vec![],
            i.latch_waits.load(Ordering::Relaxed),
        );
        // Device traffic.
        let p = self.inner.pool.stats().snapshot();
        snap.push_counter("dstore_pmem_flush_bytes_total", vec![], p.flush_bytes);
        // Ordering accounting (minimally-ordered durability): flush/fence
        // call counts plus the lines the batching machinery saved.
        snap.push_counter("dstore_pmem_flushes_total", vec![], p.flush_ops);
        snap.push_counter("dstore_pmem_fences_total", vec![], p.fences);
        snap.push_counter("dstore_pmem_dedup_lines_total", vec![], p.dedup_lines);
        snap.push_counter("dstore_pmem_elided_lines_total", vec![], p.elided_lines);
        snap.push_counter(
            "dstore_log_torn_commits_total",
            vec![],
            l.torn_commits.load(Ordering::Relaxed),
        );
        snap.push_counter(
            "dstore_pmem_bulk_write_bytes_total",
            vec![],
            p.bulk_write_bytes,
        );
        snap.push_counter(
            "dstore_pmem_bulk_read_bytes_total",
            vec![],
            p.bulk_read_bytes,
        );
        let d = self.inner.ssd.stats().snapshot();
        snap.push_counter("dstore_ssd_write_bytes_total", vec![], d.write_bytes);
        snap.push_counter("dstore_ssd_read_bytes_total", vec![], d.read_bytes);
        // Allocator contention (feeds the alloc segment's cc story).
        snap.push_counter(
            "dstore_arena_alloc_stalls_total",
            vec![],
            arena.alloc_stalls,
        );
        snap.push_counter(
            "dstore_arena_alloc_stall_ns_total",
            vec![],
            arena.alloc_stall_ns,
        );
        Some(snap)
    }

    /// Tail-latency attribution over the retained traces in the flight
    /// recorder: per-segment time split between ops above and below the
    /// given percentile of retained-trace duration (a live Table 3 for
    /// the tail). `None` when telemetry or tracing is disabled, or when
    /// no trace has been retained yet.
    pub fn tail_attribution(&self, percentile: f64) -> Option<dstore_telemetry::TailAttribution> {
        let tel = self.inner.telemetry.as_ref()?;
        let traces = tel.trace.as_ref()?.ring.snapshot();
        if traces.is_empty() {
            return None;
        }
        Some(dstore_telemetry::TailAttribution::from_traces(
            &traces, percentile,
        ))
    }

    /// Test-only injection: spin for `ns` nanoseconds inside the next
    /// checkpoints' flush phase (both engines), so tests can manufacture
    /// checkpoint-correlated tail latency deterministically. 0 disables.
    #[doc(hidden)]
    pub fn inject_checkpoint_flush_stall(&self, ns: u64) {
        match self.inner.cfg.checkpoint {
            CheckpointMode::Dipper => {
                if let Some(c) = self.inner.ckpt.lock().as_ref() {
                    c.inject_flush_stall_ns(ns);
                }
            }
            CheckpointMode::Cow => {
                if let Some(c) = &self.inner.cow {
                    c.inject_flush_stall_ns(ns);
                }
            }
        }
    }

    /// The checkpoint phase currently in flight (`"idle"` when none, or
    /// when telemetry is disabled).
    pub fn checkpoint_phase(&self) -> &'static str {
        self.inner
            .telemetry
            .as_ref()
            .map(|t| t.ckpt.phase.name())
            .unwrap_or("idle")
    }

    /// Coarse health summary — checkpoint panics, phase in flight, log
    /// fill, and stall counters. Panic/span accounting requires
    /// `telemetry = true` (the default); the rest is always live.
    pub fn health(&self) -> HealthSnapshot {
        let tel = self.inner.telemetry.as_ref();
        HealthSnapshot {
            checkpoint_panics: tel.map(|t| t.ckpt.panics.get()).unwrap_or(0),
            checkpoint_phase: self.checkpoint_phase(),
            checkpoints_completed: self.checkpoints_completed(),
            log_used_fraction: self.inner.log.used_fraction(),
            log_full_stalls: self
                .inner
                .stats
                .log_full_stalls
                .load(std::sync::atomic::Ordering::Relaxed),
            spans_dropped: tel
                .map(|t| {
                    t.ckpt.ring.dropped()
                        + t.recovery_ring.dropped()
                        + t.trace.as_ref().map(|tr| tr.ring.dropped()).unwrap_or(0)
                })
                .unwrap_or(0),
        }
    }

    /// What the last recovery did (zeroes for a fresh store).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.inner.recovery
    }

    /// Post-mortem of the previous incarnation, exhumed from the
    /// crash-persistent black box during [`DStore::recover`]. `None` on
    /// a fresh store, when `cfg.blackbox` is disabled, or when the
    /// previous incarnation ran without a black box (the region then
    /// fails its magic check and degrades to no report, never an error).
    pub fn crash_report(&self) -> Option<&CrashReport> {
        self.inner.crash_report.as_ref()
    }

    /// The live black-box heartbeat: the record the flight recorder
    /// would persist right now, built from the same gauges. `None` when
    /// the black box is disabled.
    pub fn blackbox_heartbeat(&self) -> Option<dstore_telemetry::BlackBoxHeartbeat> {
        self.inner
            .blackbox
            .as_ref()
            .map(|bb| bb.current_heartbeat())
    }

    /// Reads the black box of a crashed (or cleanly closed) store
    /// *without* recovering it: scans the durable logs read-only for the
    /// LSN fence, exhumes the region, and synthesizes the report. The
    /// image is untouched — [`DStore::recover`] afterwards sees exactly
    /// the same state. `Ok(None)` when the black box is disabled in the
    /// image's config or nothing decodable survived.
    pub fn post_mortem(image: &CrashImage) -> DsResult<Option<CrashReport>> {
        let cfg = &image.cfg;
        let layout = PmemLayout::new(&dipper_cfg(cfg));
        if !cfg.blackbox.enabled || layout.blackbox_size == 0 {
            return Ok(None);
        }
        let root = Root::attach(
            Arc::clone(&image.pool),
            layout.log_size as u64,
            layout.shadow_size as u64,
        )
        .ok_or(DsError::NotFormatted)?;
        let plan = recover_scan(&image.pool, &layout, &root);
        Ok(
            exhume(&image.pool, layout.blackbox, layout.blackbox_size).map(|ex| {
                CrashReport::synthesize(&ex, plan.next_lsn, plan.replay_records.len() as u64)
            }),
        )
    }

    /// The PMEM device (bandwidth counters for Figure 7).
    pub fn pmem(&self) -> &Arc<PmemPool> {
        &self.inner.pool
    }

    /// The SSD device (bandwidth counters for Figure 7).
    pub fn ssd(&self) -> &Arc<SsdDevice> {
        &self.inner.ssd
    }

    /// Storage footprint across DRAM, PMEM, and SSD (Figure 10).
    pub fn footprint(&self) -> Footprint {
        let inner = &self.inner;
        let dram_bytes = inner.dram.stats().high_water;
        let shadow_used: u64 = (0..2)
            .map(|i| {
                Arena::attach(PmemRange::new(
                    Arc::clone(&inner.pool),
                    inner.layout.shadow[i],
                    inner.layout.shadow_size,
                ))
                .map(|a| a.stats().high_water)
                .unwrap_or(0)
            })
            .sum();
        let pmem_bytes =
            (ROOT_SIZE + 2 * (LOG_HEADER_SIZE + inner.layout.log_size)) as u64 + shadow_used;
        let domain = inner.domain();
        let ppb = domain.pages_per_block();
        let capacity = (inner.cfg.ssd_pages - 1) / ppb;
        let used_blocks = capacity - domain.pool_free();
        let ssd_bytes = (used_blocks * ppb + 1) * dstore_ssd::PAGE_SIZE as u64;
        let (_, data_bytes) = domain.counters();
        Footprint {
            dram_bytes,
            pmem_bytes,
            ssd_bytes,
            logical_bytes: data_bytes,
        }
    }

    /// Number of live objects.
    pub fn object_count(&self) -> u64 {
        self.inner.domain().counters().0
    }

    /// Simulates a power failure: stops checkpoint machinery, discards
    /// every unflushed PMEM cache line, and returns the devices for
    /// [`DStore::recover`]. In-flight client operations must have
    /// finished (drop contexts first); to crash *inside* a checkpoint,
    /// use `auto_checkpoint = false` +
    /// [`DStore::begin_checkpoint_swap_only`].
    pub fn crash(self) -> CrashImage {
        // Dropping the checkpointer joins its worker; a mid-apply
        // checkpoint completes in volatile terms, but the crash below
        // discards everything it did not get to the persistent image +
        // root commit.
        drop(self.inner.ckpt.lock().take());
        if let Some(c) = &self.inner.cow {
            c.wait_idle();
        }
        self.inner.pool.simulate_crash();
        self.inner.ssd.simulate_crash();
        CrashImage {
            pool: Arc::clone(&self.inner.pool),
            ssd: Arc::clone(&self.inner.ssd),
            cfg: self.inner.cfg.clone(),
        }
    }

    /// Recovers a store from crashed devices (§3.6): redo any interrupted
    /// checkpoint, rebuild the volatile space from the checkpoint image,
    /// replay the active log, resume.
    pub fn recover(image: CrashImage) -> DsResult<Self> {
        let CrashImage { pool, ssd, cfg } = image;
        let layout = PmemLayout::new(&dipper_cfg(&cfg));
        let root = Arc::new(
            Root::attach(
                Arc::clone(&pool),
                layout.log_size as u64,
                layout.shadow_size as u64,
            )
            .ok_or(DsError::NotFormatted)?,
        );
        // Validate the SSD superblock.
        let mut sb = vec![0u8; dstore_ssd::PAGE_SIZE];
        ssd.read_pages(0, &mut sb);
        if u64::from_le_bytes(sb[..8].try_into().unwrap()) != SB_MAGIC {
            return Err(DsError::NotFormatted);
        }

        let dir: RelPtr<Directory> = RelPtr::from_offset(root.app_dir());
        let telemetry = cfg
            .telemetry
            .then(|| Arc::new(StoreTelemetry::new(&cfg.trace)));
        let rec_span = |name: &'static str, start: u64, a: u64, b: u64| {
            if let Some(t) = &telemetry {
                t.recovery_ring
                    .record(name, start, dstore_telemetry::now_ns(), a, b);
            }
        };
        let mut report = RecoveryReport::default();
        // Step 0: read the log once, and abort what was in flight at the
        // crash — the log is ready to resume before anything is replayed.
        let t_scan = dstore_telemetry::now_ns();
        let plan = recover_scan(&pool, &layout, &root);
        let mut log = plan.finish(Arc::clone(&pool), layout);
        report.scan_ns = dstore_telemetry::now_ns().saturating_sub(t_scan);
        rec_span(
            "scan",
            t_scan,
            plan.replay_records.len() as u64,
            plan.pending.len() as u64,
        );
        // Exhume the dead incarnation's black box *before* assemble
        // reformats the region. `plan.next_lsn` dominates every LSN the
        // dead process published, so it serves as the log-tail fence the
        // report's heartbeat is cross-checked against.
        let next_lsn = plan.next_lsn;
        let crash_report = if cfg.blackbox.enabled && layout.blackbox_size > 0 {
            exhume(&pool, layout.blackbox, layout.blackbox_size)
                .map(|ex| CrashReport::synthesize(&ex, next_lsn, plan.replay_records.len() as u64))
        } else {
            None
        };
        let replay_stats = Arc::new(ReplayStats::default());
        let rec_ring = telemetry.as_ref().map(|t| Arc::clone(&t.recovery_ring));
        // Recovery-time OLC counters. They are dropped after recovery —
        // the live store's `index_stats` counts op-path traffic only.
        let rec_olc = cfg.index_olc.then(|| Arc::new(OlcStats::default()));

        let t_meta = dstore_telemetry::now_ns();
        // Step 1: redo the interrupted checkpoint on the old shadow image.
        if let Some(redo) = &plan.redo_records {
            let t0 = dstore_telemetry::now_ns();
            let applier = make_applier(
                &pool,
                layout,
                dir,
                cfg.replay_threads,
                Arc::clone(&replay_stats),
                rec_ring.clone(),
                rec_olc.clone(),
            );
            let stats = dstore_dipper::CheckpointStats::default();
            let ckpt_tel = telemetry.as_ref().map(|t| t.ckpt.clone());
            apply_checkpoint(
                &pool,
                &layout,
                &root,
                &applier,
                RecordWindows::read(redo),
                &stats,
                ckpt_tel.as_ref(),
                cfg.replay_threads,
            );
            report.redo_checkpoint = true;
            report.redo_records = redo.len();
            rec_span("redo", t0, 0, redo.len() as u64);
        }
        // Step 2: reconstruct the volatile space from the (now consistent)
        // checkpoint image.
        let t_copy = dstore_telemetry::now_ns();
        let state = root.state();
        let shadow = Arena::attach(PmemRange::new(
            Arc::clone(&pool),
            layout.shadow[state.current_shadow],
            layout.shadow_size,
        ))
        .ok_or(DsError::NotFormatted)?;
        let dram = Arc::new(Arena::create(DramMemory::new(layout.shadow_size)));
        pool.bulk_read_charge(shadow.allocated_len());
        shadow.copy_allocated_to(&dram);
        report.metadata_ns = dstore_telemetry::now_ns().saturating_sub(t_meta);
        rec_span("copy", t_copy, shadow.allocated_len() as u64, 0);

        // Step 3: replay committed active-log records as new requests,
        // through the same OE-parallel engine the checkpoint applier
        // uses (`replay_threads = 1` restores the serial path).
        let t_replay = dstore_telemetry::now_ns();
        replay::replay_window(
            &dram,
            dir,
            &plan.replay_records,
            cfg.replay_threads,
            &replay_stats,
            rec_ring.as_deref(),
            rec_olc.as_deref(),
        );
        report.replayed_records = plan.replay_records.len();
        report.replay_ns = dstore_telemetry::now_ns().saturating_sub(t_replay);
        rec_span("replay", t_replay, 0, plan.replay_records.len() as u64);

        // Step 4: resume — volatile log state, fresh CC state.
        log.set_stall_timeout(cfg.stall_timeout);
        let log = Arc::new(log);
        let replayed = report.replayed_records as u64;
        let store = Self {
            inner: Self::assemble(
                cfg,
                layout,
                pool,
                ssd,
                root,
                log,
                dram,
                dir,
                report,
                replay_stats,
                telemetry,
                crash_report,
            ),
        };
        if let Some(bb) = &store.inner.blackbox {
            bb.record_event("recovered", replayed, next_lsn);
            bb.publish_heartbeat();
        }
        Ok(store)
    }

    /// Clean shutdown: checkpoint everything, then stop. Returns the
    /// devices so the store can be reopened with [`DStore::recover`]
    /// (which will find an empty active log).
    pub fn close(self) -> CrashImage {
        self.checkpoint_now();
        drop(self.inner.ckpt.lock().take());
        if let Some(c) = &self.inner.cow {
            c.wait_idle();
        }
        // The clean marker goes down last on the PMEM side, after the
        // final checkpoint: a crash *during* close still reads as dirty.
        if let Some(bb) = &self.inner.blackbox {
            bb.mark_clean();
        }
        let _ = self.inner.pool.sync_backing_file();
        let _ = self.inner.ssd.sync_backing_file();
        self.inner.pool.simulate_crash(); // a clean image: everything persisted
        CrashImage {
            pool: Arc::clone(&self.inner.pool),
            ssd: Arc::clone(&self.inner.ssd),
            cfg: self.inner.cfg.clone(),
        }
    }
}

impl CowCheckpointer {
    /// Trigger used from the op path, where the caller holds the drain
    /// *read* lock: hand the (write-locking) trigger to a helper thread.
    pub(crate) fn try_begin_from_op_path(&self) -> bool {
        let me = self.clone_handle();
        std::thread::Builder::new()
            .name("dstore-cow-trigger".into())
            .spawn(move || {
                me.try_begin();
            })
            .is_ok()
    }

    /// Blocking trigger from the op path: the caller must *release* its
    /// drain read lock before calling (it does: `handle_log_full` runs
    /// after the append loop dropped all locks).
    pub(crate) fn begin_blocking_from_op_path(&self) {
        // Wait for a running checkpoint; then trigger (possibly losing a
        // race to another thread, which is fine — space was freed).
        self.wait_idle();
        self.try_begin();
    }
}
