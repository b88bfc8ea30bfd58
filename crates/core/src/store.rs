//! The store: device setup, checkpoint wiring, crash and recovery.

use crate::blackbox::{BlackBoxRecorder, CrashReport};
use crate::cc::NameLatches;
use crate::config::{CheckpointMode, DStoreConfig};
use crate::cow::CowCheckpointer;
use crate::ctx::DsContext;
use crate::engine::CheckpointEngine;
use crate::error::{DsError, DsResult};
use crate::replay::{self, ReplayStats};
use crate::stats::Footprint;
use crate::structures::{Directory, Domain};
use crate::telemetry::{HealthSnapshot, StoreTelemetry};
use dstore_arena::{Arena, DramMemory, PmemRange, RelPtr};
use dstore_dipper::checkpoint::{
    apply_checkpoint, Applier, CheckpointStats, CheckpointTelemetry, Engine, EngineState,
    RecordWindows,
};
use dstore_dipper::layout::{LOG_HEADER_SIZE, ROOT_SIZE};
use dstore_dipper::{record, recover_scan, Checkpointer, DipperConfig, OpLog, PmemLayout, Root};
use dstore_pmem::blackbox::{exhume, BlackBoxRegion, EVENT_SLOTS, TRACE_SLOTS};
use dstore_pmem::{Backoff, PersistenceMode, PmemPool, PoolBuilder};
use dstore_ssd::SsdDevice;
use dstore_telemetry::SpanRing;
use parking_lot::{Mutex, RwLock};
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
        let ssd = SsdDevice::file_backed(ssd_file, cfg.ssd_pages)?;
        let ssd = Arc::new(ssd_for(&cfg, ssd));
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
    /// Parallel-persistence locks, one per block-pool shard: a claim
    /// holds shard `s`'s lock only while it claims from `s`'s range
    /// ([`Domain::claim`]), so writers on different shards allocate
    /// concurrently. No op holds one across its log reservation.
    pub pool_shard_locks: Box<[Mutex<()>]>,
    /// Protects the object-index B-tree: lookups and scans hold it
    /// `read`, a create's insert and a delete's remove (step ⑦) hold it
    /// `write`. Metadata entries are guarded by `latches`.
    pub btree_lock: RwLock<()>,
    /// Full-operation serialization for `oe = false` (Figure 9 "-OE").
    pub global_lock: Mutex<()>,
    /// Read-write CC: per-object read counts and writer marks (§4.4).
    pub latches: NameLatches,
    /// The checkpoint engine. Ops take their guards from it: none under
    /// DIPPER, the CoW drain under CoW.
    pub engine: CheckpointEngine,
    pub recovery: RecoveryReport,
    /// Per-op histograms, checkpoint and recovery spans, gauges and the
    /// flight recorder.
    pub telemetry: Arc<StoreTelemetry>,
    /// Crash-persistent flight recorder.
    pub blackbox: Arc<BlackBoxRecorder>,
    /// Post-mortem of the previous incarnation, exhumed during recovery
    /// (None on a fresh store, or when the region held no report).
    pub crash_report: Option<CrashReport>,
    /// Where a mutation waits between its publish and its commit when a
    /// test has armed it.
    #[cfg(test)]
    pub before_commit: PausePoint,
}

/// A test-only pause point on the write path. The next mutation of an
/// armed name parks there until the test lets it commit, or abandons it:
/// the op then unwinds without committing, as if its thread died in the
/// crash that follows.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct PausePoint {
    state: Mutex<PauseState>,
    cv: parking_lot::Condvar,
}

#[cfg(test)]
#[derive(Default)]
struct PauseState {
    armed: Option<Vec<u8>>,
    parked: bool,
    verdict: Option<bool>,
}

#[cfg(test)]
impl PausePoint {
    /// Parks the next mutation of `name` here.
    pub fn arm(&self, name: &[u8]) {
        self.state.lock().armed = Some(name.to_vec());
    }

    /// Blocks until the armed mutation has parked.
    pub fn wait_parked(&self) {
        crate::cc::tests::wait_until("a parked mutation", || self.state.lock().parked);
    }

    /// Lets the parked mutation commit (`true`) or abandons it (`false`).
    pub fn release(&self, commit: bool) {
        let mut st = self.state.lock();
        assert!(st.parked, "nothing is parked");
        st.verdict = Some(commit);
        self.cv.notify_all();
    }

    /// The hook itself: parks if `name` is armed.
    pub fn hit(&self, name: &[u8]) {
        let mut st = self.state.lock();
        if st.armed.as_deref() != Some(name) {
            return;
        }
        st.armed = None;
        st.parked = true;
        self.cv.notify_all();
        let commit = loop {
            if let Some(v) = st.verdict.take() {
                break v;
            }
            self.cv.wait(&mut st);
        };
        st.parked = false;
        drop(st);
        assert!(commit, "abandoned before its commit");
    }
}

impl StoreInner {
    /// The frontend (DRAM) domain.
    pub fn domain(&self) -> Domain<'_, DramMemory> {
        Domain::attach(&self.dram, self.dir)
    }

    /// Triggers a checkpoint if the active log crossed the threshold and
    /// automatic checkpointing is on. Op-path callers hold no guard of
    /// the engine here: the commit dropped it.
    pub fn maybe_checkpoint(&self) {
        if self.cfg.auto_checkpoint && self.log.used_fraction() >= self.cfg.swap_threshold {
            self.engine.try_begin();
        }
    }

    /// Handles a full log for a record of `len` encoded bytes: force a
    /// checkpoint (blocking if one is already running) so the append can
    /// retry — the backpressure path.
    ///
    /// The checkpoint's swap relocates every record still pending into
    /// the new buffer. When those leave less than `len` bytes free, a
    /// swap makes no room, and forcing one after another would spin
    /// forever; so the op first waits, at most `stall_timeout`, for
    /// enough of them to commit, and fails with [`DsError::LogFull`] if
    /// they do not (say, one context holds `olock`s that fill the log).
    pub fn handle_log_full(&self, len: usize) -> DsResult<()> {
        self.telemetry.log_full_stalls.inc();
        self.blackbox.record_event("log_full_stall", 0, 0);
        let t = std::time::Instant::now();
        let mut backoff = Backoff::new();
        while self.log.room_after_swap() < len {
            if t.elapsed() > self.cfg.stall_timeout {
                return Err(DsError::LogFull);
            }
            backoff.snooze();
        }
        self.engine.begin_blocking();
        Ok(())
    }
}

/// The DStore handle. Clone-free: obtain per-thread [`DsContext`]s via
/// [`DStore::context`] (the paper's `ds_init`).
pub struct DStore {
    pub(crate) inner: Arc<StoreInner>,
}

/// Builds the DIPPER applier: replays committed records onto the given
/// shadow region using the same [`Domain`] code the frontend runs,
/// OE-parallel across pool shards when more than one CPU is usable (see
/// [`crate::replay`]), one [`RecordWindows`] window at a time over one
/// attach of the shadow arena. Per-group spans land in `ring` (the
/// checkpoint ring for live applies, the recovery ring for a redo).
fn make_applier(
    pool: &Arc<PmemPool>,
    layout: PmemLayout,
    dir: RelPtr<Directory>,
    stats: ReplayStats,
    ring: Arc<SpanRing>,
) -> Applier {
    let pool = Arc::clone(pool);
    Arc::new(move |shadow_idx: usize, windows: &RecordWindows<'_>| {
        let arena = Arena::attach(PmemRange::new(
            Arc::clone(&pool),
            layout.shadow[shadow_idx],
            layout.shadow_size,
        ))
        .expect("shadow region holds a valid arena");
        windows.for_each(|records| replay::replay_window(&arena, dir, records, &stats, &ring));
    })
}

/// `ssd` with `cfg`'s latency model. A strict-persistence store's
/// device is crash-faithful too: a crash loses the writes still in
/// flight, as it loses the unflushed PMEM lines.
fn ssd_for(cfg: &DStoreConfig, ssd: SsdDevice) -> SsdDevice {
    let ssd = ssd.with_latency(cfg.ssd_latency.clone());
    if cfg.strict_pmem {
        ssd.crash_faithful()
    } else {
        ssd
    }
}

fn dipper_cfg(cfg: &DStoreConfig) -> DipperConfig {
    DipperConfig {
        log_size: cfg.log_size,
        shadow_size: cfg.shadow_size,
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
        let ssd = match &cfg.ssd_file {
            Some(f) => SsdDevice::file_backed(f, cfg.ssd_pages)?,
            None => SsdDevice::anon(cfg.ssd_pages),
        };
        let ssd = Arc::new(ssd_for(&cfg, ssd));
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

        let telemetry = Arc::new(StoreTelemetry::new(&cfg.trace));
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
                telemetry,
                None,
            ),
        };
        store.inner.blackbox.record_event("startup", 0, 0);
        store.inner.blackbox.publish_heartbeat();
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
        telemetry: Arc<StoreTelemetry>,
        crash_report: Option<CrashReport>,
    ) -> Arc<StoreInner> {
        let stall_timeout = cfg.stall_timeout;
        // The domain clamps the shard count at format time (tiny pools get
        // fewer shards than configured), so read the on-media value back.
        let nshards = Domain::attach(&dram, dir).pool_shards().max(1);
        let pool_shard_locks: Box<[Mutex<()>]> = (0..nshards).map(|_| Mutex::new(())).collect();
        // Build the flight recorder before the checkpoint engines so the
        // lifecycle-event sink can be threaded into their telemetry.
        // The region is (re)formatted here — recovery exhumed the dead
        // incarnation's contents *before* calling assemble.
        let blackbox = Arc::new(BlackBoxRecorder::new(
            BlackBoxRegion::format(Arc::clone(&pool), layout.blackbox, TRACE_SLOTS, EVENT_SLOTS),
            Arc::clone(&telemetry.ckpt.phase),
            Arc::clone(&log),
            Arc::clone(&dram),
            dir,
            Arc::clone(&telemetry.blackbox_records),
        ));
        // Every layer's counters, under the names their layers gave them.
        // The pool and the device outlive this incarnation, so theirs
        // keep counting across a crash; the log and the arena are new.
        pool.stats().register(&telemetry.registry);
        ssd.stats().register(&telemetry.registry);
        log.stats().register(&telemetry.registry);
        dram.register(&telemetry.registry);
        let bb = Arc::clone(&blackbox);
        let ckpt_telemetry = CheckpointTelemetry {
            events: Arc::new(move |name, a, b| bb.record_event(name, a, b)),
            ..telemetry.ckpt.clone()
        };
        let state = EngineState::new(ckpt_telemetry, cfg.stall_timeout);
        let engine = match cfg.checkpoint {
            CheckpointMode::Dipper => CheckpointEngine::Dipper(Checkpointer::new(
                Arc::clone(&pool),
                layout,
                Arc::clone(&root),
                Arc::clone(&log),
                make_applier(
                    &pool,
                    layout,
                    dir,
                    telemetry.replay.clone(),
                    Arc::clone(&telemetry.ckpt.ring),
                ),
                state,
            )),
            CheckpointMode::Cow => CheckpointEngine::Cow(CowCheckpointer::new(
                Arc::clone(&pool),
                layout,
                Arc::clone(&root),
                Arc::clone(&log),
                Arc::clone(&dram),
                state,
            )),
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
            global_lock: Mutex::new(()),
            latches: NameLatches::new(stall_timeout),
            engine,
            recovery,
            telemetry,
            blackbox,
            crash_report,
            #[cfg(test)]
            before_commit: PausePoint::default(),
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
        self.inner.engine.run_inline();
    }

    /// Blocks until no checkpoint is running.
    pub fn wait_checkpoint_idle(&self) {
        self.inner.engine.wait_idle();
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

    /// Checkpoint counters since creation/recovery, in either checkpoint
    /// mode (a CoW checkpoint applies no records).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.inner.engine.stats()
    }

    /// Checkpoints completed since creation/recovery.
    pub fn checkpoints_completed(&self) -> u64 {
        self.inner.engine.completed()
    }

    /// Full telemetry snapshot: per-op latency histograms, checkpoint and
    /// recovery phase spans, gauges (log fill, arena high-water, SSD
    /// blocks in use), and the counters every layer registered when the
    /// store was assembled (PMEM and SSD traffic, log commits, arena
    /// stalls, ops). Always `Some`.
    ///
    /// Render the result with `dstore_telemetry::to_prometheus` or
    /// `dstore_telemetry::to_json`.
    pub fn telemetry_snapshot(&self) -> Option<dstore_telemetry::TelemetrySnapshot> {
        let tel = &self.inner.telemetry;
        // Refresh the gauges the registry cannot compute itself.
        tel.log_used.set(self.inner.log.used_fraction());
        tel.arena_high_water
            .set(self.inner.dram.stats().high_water as f64);
        tel.ssd_blocks_used
            .set(self.inner.domain().pool_used() as f64);
        tel.ckpt_phase_gauge.set(tel.ckpt.phase.index() as f64);
        Some(tel.snapshot(self.checkpoints_completed()))
    }

    /// Tail-latency attribution over the retained traces in the flight
    /// recorder: per-segment time split between ops above and below the
    /// given percentile of retained-trace duration (a live Table 3 for
    /// the tail). `None` when no trace has been retained yet.
    pub fn tail_attribution(&self, percentile: f64) -> Option<dstore_telemetry::TailAttribution> {
        let traces = self.inner.telemetry.trace.ring.snapshot();
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
        self.inner.engine.inject_flush_stall_ns(ns);
    }

    /// The checkpoint phase currently in flight (`"idle"` when none).
    pub fn checkpoint_phase(&self) -> &'static str {
        self.inner.engine.phase()
    }

    /// Coarse health summary — checkpoint panics, phase in flight, log
    /// fill, and stall counters.
    pub fn health(&self) -> HealthSnapshot {
        let tel = &self.inner.telemetry;
        HealthSnapshot {
            checkpoint_panics: tel.ckpt.panics.get(),
            checkpoint_phase: self.checkpoint_phase(),
            checkpoints_completed: self.checkpoints_completed(),
            log_used_fraction: self.inner.log.used_fraction(),
            log_full_stalls: tel.log_full_stalls.get(),
            spans_dropped: tel.ckpt.ring.dropped()
                + tel.recovery_ring.dropped()
                + tel.trace.ring.dropped(),
        }
    }

    /// What the last recovery did (zeroes for a fresh store).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.inner.recovery
    }

    /// Post-mortem of the previous incarnation, exhumed from the
    /// crash-persistent black box during [`DStore::recover`]. `None` on
    /// a fresh store, or when the region does not carry its magic (it
    /// then degrades to no report, never an error).
    pub fn crash_report(&self) -> Option<&CrashReport> {
        self.inner.crash_report.as_ref()
    }

    /// The live black-box heartbeat: the record the flight recorder
    /// would persist right now, built from the same gauges.
    pub fn blackbox_heartbeat(&self) -> dstore_telemetry::BlackBoxHeartbeat {
        self.inner.blackbox.current_heartbeat()
    }

    /// Reads the black box of a crashed (or cleanly closed) store
    /// *without* recovering it: scans the durable logs read-only for the
    /// LSN fence, exhumes the region, and synthesizes the report. The
    /// image is untouched — [`DStore::recover`] afterwards sees exactly
    /// the same state. `Ok(None)` when the region does not carry its
    /// magic.
    pub fn post_mortem(image: &CrashImage) -> DsResult<Option<CrashReport>> {
        let layout = PmemLayout::new(&dipper_cfg(&image.cfg));
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
        let used_blocks = domain.pool_used();
        let ssd_bytes = (used_blocks * domain.pages_per_block() + 1) * dstore_ssd::PAGE_SIZE as u64;
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

    /// Simulates a power failure: loses every SSD write still in flight
    /// (on a crash-faithful device), stops checkpoint machinery, discards
    /// every unflushed PMEM cache line, and returns the devices for
    /// [`DStore::recover`]. In-flight client operations must have
    /// finished (drop contexts first); to crash *inside* a checkpoint,
    /// use `auto_checkpoint = false` +
    /// [`DStore::begin_checkpoint_swap_only`].
    pub fn crash(self) -> CrashImage {
        // The device crashes at the call, before the engine's join can
        // let an in-flight write's deadline pass; checkpoints write no
        // SSD page.
        self.inner.ssd.simulate_crash();
        // Shutting the engine down joins its worker; a mid-apply
        // checkpoint completes in volatile terms, but the crash below
        // discards everything it did not get to the persistent image +
        // root commit.
        self.inner.engine.shutdown();
        self.inner.pool.simulate_crash();
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
        let telemetry = Arc::new(StoreTelemetry::new(&cfg.trace));
        let rec_span = |name: &'static str, start: u64, a: u64, b: u64| {
            telemetry
                .recovery_ring
                .record(name, start, dstore_telemetry::now_ns(), a, b);
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
        let crash_report = exhume(&pool, layout.blackbox, layout.blackbox_size)
            .map(|ex| CrashReport::synthesize(&ex, next_lsn, plan.replay_records.len() as u64));
        let rec_ring = &telemetry.recovery_ring;

        let t_meta = dstore_telemetry::now_ns();
        // Step 1: redo the interrupted checkpoint on the old shadow image.
        if let Some(redo) = &plan.redo_records {
            let t0 = dstore_telemetry::now_ns();
            let applier = make_applier(
                &pool,
                layout,
                dir,
                telemetry.replay.clone(),
                Arc::clone(rec_ring),
            );
            apply_checkpoint(
                &pool,
                &layout,
                &root,
                &applier,
                // SAFETY: nothing writes the log until `recover` returns.
                unsafe { RecordWindows::at(&pool, redo) },
                &telemetry.ckpt,
                0,
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
        let dram = Arc::new(Arena::create(DramMemory::huge(layout.shadow_size)));
        pool.bulk_read_charge(shadow.allocated_len());
        shadow.copy_allocated_to(&dram);
        report.metadata_ns = dstore_telemetry::now_ns().saturating_sub(t_meta);
        rec_span("copy", t_copy, shadow.allocated_len() as u64, 0);

        // Step 3: replay committed active-log records as new requests,
        // through the same OE-parallel engine the checkpoint applier
        // uses (serial on one usable CPU), as one window of views at the
        // offsets the scan validated.
        let t_replay = dstore_telemetry::now_ns();
        replay::replay_window(
            &dram,
            dir,
            &plan
                .replay_records
                .iter()
                // SAFETY: nothing writes the log until `recover` returns.
                .map(|&off| unsafe { record::Header::read(&pool, off).view(&pool, off) })
                .collect::<Vec<_>>(),
            &telemetry.replay,
            rec_ring,
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
                telemetry,
                crash_report,
            ),
        };
        store
            .inner
            .blackbox
            .record_event("recovered", replayed, next_lsn);
        store.inner.blackbox.publish_heartbeat();
        Ok(store)
    }

    /// Clean shutdown: checkpoint everything, then stop. Returns the
    /// devices so the store can be reopened with [`DStore::recover`]
    /// (which will find an empty active log).
    pub fn close(self) -> CrashImage {
        self.checkpoint_now();
        self.inner.engine.shutdown();
        // The clean marker goes down last on the PMEM side, after the
        // final checkpoint: a crash *during* close still reads as dirty.
        self.inner.blackbox.mark_clean();
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

/// Allocation under a parked writer. Writer W1 parks at the
/// `before_commit` pause point, after its record is published, while a
/// second writer on the same pool shard, a checkpoint or a crash runs past
/// it. Each scenario runs in both logging modes, and every read-back is
/// checked against the values the committed ops wrote.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::wait_until;
    use crate::config::LoggingMode;

    fn store(ckpt: CheckpointMode, logging: LoggingMode) -> DStore {
        DStore::create(
            DStoreConfig::small()
                .with_checkpoint(ckpt)
                .with_logging(logging)
                .with_auto_checkpoint(false),
        )
        .unwrap()
    }

    /// Replay divergences, read from the telemetry snapshot.
    fn divergences(store: &DStore) -> u64 {
        let snap = store.telemetry_snapshot().unwrap();
        snap.counter_total("dstore_replay_divergence_total")
    }

    /// The `n`-th name starting with `tag` whose pool shard is `s`.
    fn name_in(store: &DStore, s: usize, tag: &str, n: usize) -> Vec<u8> {
        let d = store.inner.domain();
        (0..)
            .map(|i| format!("{tag}{i}").into_bytes())
            .filter(|k| d.shard_of_name(k) == s)
            .nth(n)
            .unwrap()
    }

    /// A value filling `blocks` single-page blocks, tagged `tag`.
    fn value(tag: u8, blocks: usize) -> Vec<u8> {
        vec![tag; blocks * 4096 - 100]
    }

    /// Runs `w1` (a mutation of `name`) on its own thread, parks it at
    /// `before_commit`, runs `meanwhile`, then abandons `w1`: it unwinds
    /// without committing, as if it died in the crash that follows.
    fn abandon_parked(
        store: &DStore,
        name: &[u8],
        w1: impl FnOnce() -> DsResult<()> + Send,
        meanwhile: impl FnOnce(),
    ) {
        let pause = &store.inner.before_commit;
        pause.arm(name);
        std::thread::scope(|s| {
            let w1 = s.spawn(w1);
            pause.wait_parked();
            meanwhile();
            pause.release(false);
            assert!(w1.join().is_err(), "W1 survived its abandonment");
        });
    }

    /// The checkpoint relocates W1's pending record behind W2's committed
    /// one; recovery then replays W1 from the new log.
    fn relocation(ckpt: CheckpointMode, logging: LoggingMode) {
        let store = store(ckpt, logging);
        let (a, b) = (name_in(&store, 0, "a", 0), name_in(&store, 0, "b", 0));
        let ctx = store.context();
        ctx.put(&a, &value(1, 1)).unwrap();
        let (va, vb) = (value(2, 2), value(3, 1));
        let pause = &store.inner.before_commit;
        pause.arm(&a);
        std::thread::scope(|s| {
            let w1 = s.spawn(|| store.context().put(&a, &va));
            pause.wait_parked();
            ctx.put(&b, &vb).unwrap();
            let c = s.spawn(|| store.checkpoint_now());
            // A DIPPER checkpoint runs past the parked op; a CoW trigger
            // waits for it to commit.
            wait_until("the checkpoint", || {
                c.is_finished() || (ckpt == CheckpointMode::Cow && store.inner.engine.is_busy())
            });
            pause.release(true);
            w1.join().unwrap().unwrap();
            c.join().unwrap();
        });
        assert_eq!(store.checkpoints_completed(), 1);
        assert_eq!(divergences(&store), 0, "checkpoint replay");
        drop(ctx);
        let r = DStore::recover(store.crash()).unwrap();
        assert_eq!(divergences(&r), 0, "recovery replay");
        let ctx = r.context();
        assert_eq!(ctx.get(&a).unwrap(), va);
        assert_eq!(ctx.get(&b).unwrap(), vb);
    }

    #[test]
    fn relocation_dipper_logical() {
        relocation(CheckpointMode::Dipper, LoggingMode::Logical);
    }

    #[test]
    fn relocation_dipper_physical() {
        relocation(CheckpointMode::Dipper, LoggingMode::Physical);
    }

    #[test]
    fn relocation_cow_logical() {
        relocation(CheckpointMode::Cow, LoggingMode::Logical);
    }

    #[test]
    fn relocation_cow_physical() {
        relocation(CheckpointMode::Cow, LoggingMode::Physical);
    }

    /// α: the crash leaves W1's record pending ahead of W2's committed one
    /// on the same shard, and recovery drops W1.
    fn alpha(logging: LoggingMode) {
        let store = store(CheckpointMode::Dipper, logging);
        let (a, b) = (name_in(&store, 0, "a", 0), name_in(&store, 0, "b", 0));
        let ctx = store.context();
        let vb = value(3, 1);
        abandon_parked(
            &store,
            &a,
            || store.context().put(&a, &value(2, 1)),
            || ctx.put(&b, &vb).unwrap(),
        );
        drop(ctx);
        let r = DStore::recover(store.crash()).unwrap();
        assert_eq!(divergences(&r), 0, "recovery replay");
        let ctx = r.context();
        assert_eq!(ctx.get(&a), Err(DsError::NotFound));
        assert_eq!(ctx.get(&b).unwrap(), vb);
    }

    #[test]
    fn alpha_logical() {
        alpha(LoggingMode::Logical);
    }

    #[test]
    fn alpha_physical() {
        alpha(LoggingMode::Physical);
    }

    /// β: W1 replaces `a` on a shard drained so that `a`'s old block is
    /// the next one free; W2 creates `b` and commits while W1 is parked,
    /// and W1 dies in the crash. `a` must still read its old value.
    fn beta(logging: LoggingMode) {
        let store = store(CheckpointMode::Dipper, logging);
        let (a, b) = (name_in(&store, 0, "a", 0), name_in(&store, 0, "b", 0));
        let ctx = store.context();
        let old = value(1, 1);
        ctx.put(&a, &old).unwrap();
        // Leave the shard exactly the two blocks W1's replace takes.
        let d = store.inner.domain();
        let mut n = 0;
        while d.pool_free_in(0) > 2 {
            let blocks = (d.pool_free_in(0) - 2).min(64) as usize;
            ctx.put(&name_in(&store, 0, "fill", n), &value(0, blocks))
                .unwrap();
            n += 1;
        }
        let vb = value(3, 1);
        abandon_parked(
            &store,
            &a,
            || store.context().put(&a, &value(2, 2)),
            || ctx.put(&b, &vb).unwrap(),
        );
        drop(ctx);
        let r = DStore::recover(store.crash()).unwrap();
        assert_eq!(divergences(&r), 0, "recovery replay");
        let ctx = r.context();
        assert_eq!(ctx.get(&a).unwrap(), old);
        assert_eq!(ctx.get(&b).unwrap(), vb);
    }

    #[test]
    fn beta_logical() {
        beta(LoggingMode::Logical);
    }

    #[test]
    fn beta_physical() {
        beta(LoggingMode::Physical);
    }
}
