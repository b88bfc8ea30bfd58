//! The atomic quiescent-free checkpoint (§3.5).
//!
//! A checkpoint is triggered when the active log's free space falls below
//! the configured threshold. It proceeds in two parts:
//!
//! 1. **Swap** — on the triggering thread, brief: the active and archived
//!    logs exchange roles and the root's state word persists
//!    `{active flipped, in-progress}` atomically. Frontend operation
//!    resumes immediately.
//! 2. **Apply** — on the dedicated checkpoint thread, overlapped with
//!    frontend operation: copy the current shadow region onto the spare
//!    one ("we always create a new copy of the shadow copies", for
//!    idempotency), replay the archived log's *committed* records onto it
//!    through the application-supplied [`Applier`] (the same code the
//!    frontend runs), flush every allocated byte, and atomically persist
//!    the root transition `{current shadow flipped, in-progress cleared}`.
//!
//! The applier receives the records as [`RecordWindows`]: windows of at
//! most [`APPLY_WINDOW`] records in LSN order. A live checkpoint walks
//! the archived buffer one window at a time, so its heap holds one
//! window of records however long the log is; recovery's redo hands its
//! already-read records through the same type.
//!
//! A crash anywhere before the final root store leaves the old shadow
//! image current and the archived log intact — recovery simply redoes the
//! checkpoint ([`apply_checkpoint`] is idempotent by construction).

use crate::layout::PmemLayout;
use crate::log::OpLog;
use crate::record::OwnedRecord;
use crate::root::Root;
use dstore_arena::{Arena, PmemRange};
use dstore_pmem::PmemPool;
use dstore_telemetry::{now_ns, Counter, PhaseCell, SpanRing};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Smallest per-thread unit of the chunked shadow copy / flush. Below
/// this, thread spawn overhead dominates and the work stays serial.
const CHUNK_MIN: usize = 1 << 20;

/// Workers a replay window or chunked copy/flush should use right now:
/// `min(threads, CPUs the calling thread may run on)`, at least 1.
///
/// Read at call time through [`std::thread::available_parallelism`],
/// which honours the thread's `sched_getaffinity` mask and the cgroup
/// CPU quota — so a checkpointer or recovery confined to one CPU takes
/// the serial path instead of time-slicing workers on a single core.
/// `threads` (the store's `replay_threads`) is therefore a cap.
pub fn usable_workers(threads: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads.min(cpus).max(1)
}

/// Phase-name table for the checkpoint [`PhaseCell`]; index 0 is idle.
pub static CHECKPOINT_PHASES: &[&str] = &["idle", "trigger", "apply", "flush", "swap"];

/// Index into [`CHECKPOINT_PHASES`]: no checkpoint in flight.
pub const PHASE_IDLE: usize = 0;
/// Index into [`CHECKPOINT_PHASES`]: log swap on the triggering thread.
pub const PHASE_TRIGGER: usize = 1;
/// Index into [`CHECKPOINT_PHASES`]: shadow copy + record replay.
pub const PHASE_APPLY: usize = 2;
/// Index into [`CHECKPOINT_PHASES`]: persisting the new shadow image.
pub const PHASE_FLUSH: usize = 3;
/// Index into [`CHECKPOINT_PHASES`]: atomic root commit.
pub const PHASE_SWAP: usize = 4;

/// Callback fired as each checkpoint phase completes:
/// `(phase_name, a, b)` with the same payload words the span ring gets
/// (`a` = bytes processed, `b` = records applied). The black box uses
/// this to persist lifecycle events; keep implementations cheap — they
/// run on the checkpoint worker (and the triggering thread for
/// `"trigger"`).
pub type CheckpointEventSink = Arc<dyn Fn(&'static str, u64, u64) + Send + Sync>;

/// Telemetry sinks for checkpoint observability, installed by the
/// embedding store via [`Checkpointer::set_telemetry`]. All sinks are
/// lock-free to record into, so attaching them does not perturb the
/// phases they measure.
#[derive(Clone)]
pub struct CheckpointTelemetry {
    /// Completed phase spans (trigger/apply/flush/swap), with payload
    /// words `a` = bytes processed, `b` = records applied.
    pub ring: Arc<SpanRing>,
    /// Which phase is in flight right now (indexes [`CHECKPOINT_PHASES`]).
    pub phase: Arc<PhaseCell>,
    /// Apply-phase panics caught on the checkpoint worker. A non-zero
    /// value means a checkpoint was abandoned mid-apply — the store is
    /// still consistent (the root never committed) but the log is no
    /// longer draining; surfaced through the store's health snapshot.
    pub panics: Arc<Counter>,
    /// Optional lifecycle-event sink (see [`CheckpointEventSink`]).
    pub events: Option<CheckpointEventSink>,
}

impl std::fmt::Debug for CheckpointTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointTelemetry")
            .field("ring", &self.ring)
            .field("phase", &self.phase)
            .field("panics", &self.panics)
            .field("events", &self.events.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Records per window handed to the [`Applier`]. A fixed internal
/// bound, not a knob: it caps the records a live checkpoint holds in
/// DRAM, and is large enough that each window's parallel replay still
/// spreads over every pool shard.
pub const APPLY_WINDOW: usize = 1024;

/// Replays committed records onto the shadow structures in the given
/// shadow region (0/1). Supplied by the application (DStore); must be
/// deterministic up to observational equivalence given the records'
/// conflict order, and may parallelize internally across non-conflicting
/// records. Called once per checkpoint: it attaches to the shadow region
/// once and then takes every window with [`RecordWindows::for_each`].
pub type Applier = Arc<dyn Fn(usize, &RecordWindows<'_>) + Send + Sync>;

/// The committed records of one checkpoint, as the [`Applier`] sees
/// them: windows of at most [`APPLY_WINDOW`] records, in LSN order.
pub struct RecordWindows<'a> {
    source: Source<'a>,
    /// Records handed out so far ([`CheckpointStats::records_applied`]).
    handed: Cell<u64>,
}

enum Source<'a> {
    /// An archived log buffer, walked window by window.
    Archived(&'a OpLog, usize),
    /// Records already read from the log.
    Read(&'a [OwnedRecord]),
}

impl<'a> RecordWindows<'a> {
    /// The committed records of `log`'s buffer `buf`, read one window at
    /// a time (a live checkpoint).
    pub fn archived(log: &'a OpLog, buf: usize) -> Self {
        Self::new(Source::Archived(log, buf))
    }

    /// Committed records already read from the log (recovery's redo).
    pub fn read(records: &'a [OwnedRecord]) -> Self {
        Self::new(Source::Read(records))
    }

    fn new(source: Source<'a>) -> Self {
        RecordWindows {
            source,
            handed: Cell::new(0),
        }
    }

    /// Hands every window to `apply`, in LSN order.
    pub fn for_each(&self, mut apply: impl FnMut(&[OwnedRecord])) {
        let hand = |w: &[OwnedRecord]| {
            self.handed.set(self.handed.get() + w.len() as u64);
            apply(w);
        };
        match self.source {
            Source::Archived(log, buf) => log.committed_windows(buf, APPLY_WINDOW, hand),
            Source::Read(records) => records.chunks(APPLY_WINDOW).for_each(hand),
        }
    }
}

/// Checkpoint counters (Figure 7 diagnostics, Table 4 accounting).
#[derive(Debug, Default)]
pub struct CheckpointStats {
    /// Checkpoints completed.
    pub completed: AtomicU64,
    /// Records replayed onto shadows.
    pub records_applied: AtomicU64,
    /// Bytes copied between shadow regions.
    pub bytes_copied: AtomicU64,
    /// Nanoseconds spent in the last checkpoint's apply phase.
    pub last_apply_ns: AtomicU64,
}

enum Job {
    Run { archived: usize },
    Shutdown,
}

/// Owns the background checkpoint thread and the trigger state machine.
pub struct Checkpointer {
    inner: Arc<CheckpointInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

struct CheckpointInner {
    pool: Arc<PmemPool>,
    layout: PmemLayout,
    root: Arc<Root>,
    log: Arc<OpLog>,
    applier: Applier,
    /// True from swap until the apply phase commits.
    busy: Mutex<bool>,
    cv: Condvar,
    stats: CheckpointStats,
    telemetry: Mutex<Option<CheckpointTelemetry>>,
    tx: Mutex<Option<crossbeam::channel::Sender<Job>>>,
    /// Test-only injection: extra nanoseconds spun inside the flush
    /// phase of every checkpoint (0 = none).
    flush_stall_ns: AtomicU64,
    /// Worker cap for the apply phase's chunked shadow copy and chunked
    /// flush (1 = serial, the pre-parallel behavior; see
    /// [`usable_workers`]).
    apply_threads: AtomicUsize,
}

impl Checkpointer {
    /// Spawns the checkpoint thread.
    pub fn new(
        pool: Arc<PmemPool>,
        layout: PmemLayout,
        root: Arc<Root>,
        log: Arc<OpLog>,
        applier: Applier,
    ) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        let inner = Arc::new(CheckpointInner {
            pool,
            layout,
            root,
            log,
            applier,
            busy: Mutex::new(false),
            cv: Condvar::new(),
            stats: CheckpointStats::default(),
            telemetry: Mutex::new(None),
            tx: Mutex::new(Some(tx)),
            flush_stall_ns: AtomicU64::new(0),
            apply_threads: AtomicUsize::new(1),
        });
        let w_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("dipper-checkpoint".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Run { archived } => {
                            // A panic here must not strand the store with
                            // `busy` stuck true (frontends would hang on
                            // backpressure forever); surface it loudly and
                            // release the state machine.
                            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                w_inner.run_apply(archived)
                            }));
                            let mut busy = w_inner.busy.lock();
                            *busy = false;
                            w_inner.cv.notify_all();
                            drop(busy);
                            if let Err(e) = r {
                                if let Some(t) = w_inner.telemetry.lock().as_ref() {
                                    t.panics.inc();
                                    t.phase.set(PHASE_IDLE);
                                }
                                eprintln!("dipper checkpoint apply panicked: {e:?}");
                            }
                        }
                        Job::Shutdown => break,
                    }
                }
            })
            .expect("spawn checkpoint thread");
        Self {
            inner,
            worker: Some(worker),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &CheckpointStats {
        &self.inner.stats
    }

    /// Installs telemetry sinks; subsequent checkpoints record phase
    /// spans into them. Intended to be called once at store assembly.
    pub fn set_telemetry(&self, t: CheckpointTelemetry) {
        *self.inner.telemetry.lock() = Some(t);
    }

    /// Sets the worker cap for the apply phase's chunked shadow copy and
    /// chunked flush (clamped to ≥ 1; 1 = serial; each call further
    /// clamps to the CPUs it may run on, see [`usable_workers`]). Intended to
    /// be called once at store assembly, from the same knob that sizes
    /// the applier's replay workers.
    pub fn set_apply_threads(&self, threads: usize) {
        self.inner
            .apply_threads
            .store(threads.max(1), Ordering::Relaxed);
    }

    /// Test-only injection: spin for `ns` nanoseconds inside the flush
    /// phase of every subsequent checkpoint (0 disables). Lets tests
    /// manufacture a slow checkpoint deterministically without a huge
    /// working set.
    #[doc(hidden)]
    pub fn inject_flush_stall_ns(&self, ns: u64) {
        self.inner.flush_stall_ns.store(ns, Ordering::Relaxed);
    }

    /// Whether a checkpoint is currently running.
    pub fn is_busy(&self) -> bool {
        *self.inner.busy.lock()
    }

    /// Starts a checkpoint if none is running; returns whether one was
    /// started. The swap happens on the calling thread (brief); the apply
    /// phase runs on the background thread.
    pub fn try_begin(&self) -> bool {
        {
            let mut busy = self.inner.busy.lock();
            if *busy {
                return false;
            }
            *busy = true;
        }
        // If the root says a checkpoint is in flight that nobody is
        // running (crash-injection hooks, or recovery handing over a
        // store mid-checkpoint), complete it first — swapping now would
        // recycle the archived log and lose its records.
        let st = self.inner.root.state();
        if st.checkpoint_in_progress {
            self.inner.run_apply(st.archived_log());
        }
        let tel = self.inner.telemetry.lock().clone();
        if let Some(t) = &tel {
            t.phase.set(PHASE_TRIGGER);
        }
        let t0 = now_ns();
        let archived = self.inner.log.swap(|| {
            self.inner.root.begin_checkpoint();
        });
        if let Some(t) = &tel {
            t.ring.record("trigger", t0, now_ns(), 0, 0);
            if let Some(ev) = &t.events {
                ev("trigger", 0, 0);
            }
        }
        let tx = self.inner.tx.lock();
        tx.as_ref()
            .expect("checkpointer shut down")
            .send(Job::Run { archived })
            .expect("checkpoint worker gone");
        true
    }

    /// Starts a checkpoint, waiting for any running one to finish first —
    /// the backpressure path taken when the log fills completely (the
    /// paper: workloads beyond ~70 % writes "lead to backlogging", §5.3).
    pub fn begin_blocking(&self) {
        loop {
            {
                let mut busy = self.inner.busy.lock();
                while *busy {
                    self.inner.cv.wait(&mut busy);
                }
            }
            if self.try_begin() {
                return;
            }
        }
    }

    /// Blocks until no checkpoint is running.
    pub fn wait_idle(&self) {
        let mut busy = self.inner.busy.lock();
        while *busy {
            self.inner.cv.wait(&mut busy);
        }
    }

    /// Runs one full checkpoint synchronously (swap + apply on the calling
    /// thread). Used by tests and shutdown flushes.
    pub fn run_inline(&self) {
        self.begin_blocking();
        self.wait_idle();
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.wait_idle();
        if let Some(tx) = self.inner.tx.lock().take() {
            let _ = tx.send(Job::Shutdown);
        }
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl CheckpointInner {
    fn run_apply(&self, archived: usize) {
        let tel = self.telemetry.lock().clone();
        apply_checkpoint_with_stall(
            &self.pool,
            &self.layout,
            &self.root,
            &self.applier,
            RecordWindows::archived(&self.log, archived),
            &self.stats,
            tel.as_ref(),
            self.flush_stall_ns.load(Ordering::Relaxed),
            self.apply_threads.load(Ordering::Relaxed),
        );
    }
}

/// Splits `[0, len)` into up-to-[`usable_workers`]`(threads)` page-aligned
/// chunks and runs `work(offset, chunk_len)` on scoped threads, one chunk
/// per thread. Falls back to one inline call when the range is too small
/// to be worth splitting (see [`CHUNK_MIN`]) or only one worker is usable.
fn run_chunked(len: usize, threads: usize, work: impl Fn(usize, usize) + Sync) {
    let threads = usable_workers(threads);
    let chunk = len.div_ceil(threads).max(CHUNK_MIN);
    // Page-align chunk boundaries so no two threads share a cache line.
    let chunk = chunk.div_ceil(4096) * 4096;
    if threads <= 1 || chunk >= len {
        work(0, len);
        return;
    }
    std::thread::scope(|s| {
        let work = &work;
        let mut off = 0;
        while off < len {
            let n = chunk.min(len - off);
            s.spawn(move || work(off, n));
            off += n;
        }
    });
}

/// The apply phase, shared by live checkpoints and recovery redo (§3.6:
/// "we redo the checkpoint procedure ongoing at the time of crash").
///
/// Copies shadow `current` → `spare`, replays `records` onto the spare
/// via `applier` one window at a time, persists every allocated byte, and
/// atomically commits the root transition. The bulk copy and the flush
/// are chunked across up to [`usable_workers`]`(threads)` scoped workers
/// (1 = serial).
#[allow(clippy::too_many_arguments)]
pub fn apply_checkpoint(
    pool: &Arc<PmemPool>,
    layout: &PmemLayout,
    root: &Root,
    applier: &Applier,
    records: RecordWindows<'_>,
    stats: &CheckpointStats,
    telemetry: Option<&CheckpointTelemetry>,
    threads: usize,
) {
    apply_checkpoint_with_stall(
        pool, layout, root, applier, records, stats, telemetry, 0, threads,
    );
}

/// [`apply_checkpoint`] with a test-only flush-phase stall (see
/// [`Checkpointer::inject_flush_stall_ns`]).
#[allow(clippy::too_many_arguments)]
fn apply_checkpoint_with_stall(
    pool: &Arc<PmemPool>,
    layout: &PmemLayout,
    root: &Root,
    applier: &Applier,
    records: RecordWindows<'_>,
    stats: &CheckpointStats,
    telemetry: Option<&CheckpointTelemetry>,
    flush_stall_ns: u64,
    threads: usize,
) {
    let t0 = now_ns();
    let enter = |idx: usize| {
        if let Some(t) = telemetry {
            t.phase.set(idx);
        }
    };
    let span = |name: &'static str, start: u64, a: u64, b: u64| {
        if let Some(t) = telemetry {
            t.ring.record(name, start, now_ns(), a, b);
            if let Some(ev) = &t.events {
                ev(name, a, b);
            }
        }
    };
    let state = root.state();
    let cur = state.current_shadow;
    let spare = state.spare_shadow();

    enter(PHASE_APPLY);
    let t_apply = now_ns();

    // 1. New copy of the shadow copies (idempotency): bulk copy of the
    //    allocated prefix at identical offsets — RelPtrs stay valid.
    let src = Arena::attach(PmemRange::new(
        Arc::clone(pool),
        layout.shadow[cur],
        layout.shadow_size,
    ))
    .expect("current shadow holds a valid arena");
    let dst_range = PmemRange::new(Arc::clone(pool), layout.shadow[spare], layout.shadow_size);
    let copy_len = src.allocated_len();
    // Chunked multi-threaded copy: each worker copies (and charges read
    // bandwidth for) a disjoint page-aligned slice of the allocated
    // prefix. Base addresses travel as integers — raw pointers are not
    // `Send`, and every `(off, n)` chunk is in-bounds and disjoint.
    let src_base = pool.base() as usize + layout.shadow[cur];
    let dst_base = pool.base() as usize + layout.shadow[spare];
    run_chunked(copy_len, threads, |off, n| {
        pool.bulk_read_charge(n); // reading the source region
                                  // SAFETY: both regions are `shadow_size` bytes and disjoint.
        unsafe {
            std::ptr::copy_nonoverlapping(
                (src_base + off) as *const u8,
                (dst_base + off) as *mut u8,
                n,
            );
        }
    });
    stats
        .bytes_copied
        .fetch_add(copy_len as u64, Ordering::Relaxed);

    // 2. Replay committed records with the same code the frontend ran.
    applier(spare, &records);
    let applied = records.handed.get();
    stats.records_applied.fetch_add(applied, Ordering::Relaxed);
    span("apply", t_apply, copy_len as u64, applied);

    // 3. Durability: iterate over all allocated memory and flush it.
    enter(PHASE_FLUSH);
    let t_flush = now_ns();
    if flush_stall_ns > 0 {
        dstore_pmem::latency::spin_for_ns(flush_stall_ns);
    }
    let dst = Arena::attach(dst_range).expect("copied shadow is a valid arena");
    // Chunked parallel flush: per-chunk bulk persists on scoped workers,
    // one fence at the end (`bulk_persist` deliberately skips the
    // pending set, so a single trailing fence suffices — same contract
    // `persist_allocated` relies on).
    let flush_len = dst.allocated_len();
    run_chunked(flush_len, threads, |off, n| {
        pool.bulk_persist(layout.shadow[spare] + off, n);
    });
    pool.fence();
    span("flush", t_flush, flush_len as u64, 0);

    // 4. Atomic commit: flip current shadow, clear in-progress — one
    //    persisted 8-byte store.
    enter(PHASE_SWAP);
    let t_swap = now_ns();
    root.commit_checkpoint();
    let _ = pool.sync_backing_file();
    span("swap", t_swap, 0, 0);
    enter(PHASE_IDLE);

    stats.completed.fetch_add(1, Ordering::Relaxed);
    stats
        .last_apply_ns
        .store(now_ns().saturating_sub(t0), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{self, COMMIT_COMMITTED};
    use crate::DipperConfig;

    /// A live checkpoint over an archived buffer three windows long —
    /// committed and aborted records, plus one torn commit — must hand
    /// the applier exactly the committed records, in LSN order, and never
    /// more than one window at a time.
    #[test]
    fn live_apply_hands_the_applier_one_window_at_a_time() {
        let cfg = DipperConfig {
            log_size: 1 << 20,
            shadow_size: 64 * 1024,
            ..Default::default()
        };
        let layout = PmemLayout::new(&cfg);
        let pool = Arc::new(PmemPool::strict(layout.total));
        let root = Arc::new(Root::format(
            Arc::clone(&pool),
            layout.log_size as u64,
            layout.shadow_size as u64,
        ));
        Arena::create(PmemRange::new(
            Arc::clone(&pool),
            layout.shadow[0],
            layout.shadow_size,
        ))
        .persist_allocated();
        let log = Arc::new(OpLog::create(Arc::clone(&pool), layout));

        let mut committed = Vec::new();
        for i in 0..3 * APPLY_WINDOW {
            if i == APPLY_WINDOW + 7 {
                // Torn epoch: the flag line reaches the media by eviction,
                // the body's middle lines never do. Later commits flush
                // its header, so the walk reaches it after the crash.
                let torn = log.try_append(1, b"torn", &[0xAB; 300]).unwrap().lsn;
                let off = log.walk(0).iter().find(|r| r.lsn == torn).unwrap().off;
                record::write_commit(&pool, off, COMMIT_COMMITTED);
                pool.evict_lines(off, record::HEADER_LEN);
            }
            let r = log
                .try_append(1, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
            if i % 5 == 3 {
                log.abort(r.handle);
            } else {
                log.commit(r.handle);
                committed.push(r.lsn);
            }
        }
        // Crash between swap and apply: the next trigger finishes this
        // checkpoint on the live path, walking the archived buffer.
        log.swap(|| {
            root.begin_checkpoint();
        });
        pool.simulate_crash();

        let seen = Arc::new(std::sync::Mutex::new((Vec::new(), Vec::new())));
        let applier: Applier = {
            let seen = Arc::clone(&seen);
            Arc::new(move |_, windows: &RecordWindows<'_>| {
                windows.for_each(|w| {
                    let mut seen = seen.lock().unwrap();
                    seen.0.push(w.len());
                    seen.1.extend(w.iter().map(|r| r.lsn));
                });
            })
        };
        let ckpt = Checkpointer::new(
            Arc::clone(&pool),
            layout,
            Arc::clone(&root),
            Arc::clone(&log),
            applier,
        );
        assert!(ckpt.try_begin());
        ckpt.wait_idle();

        let (window_lens, lsns) = &*seen.lock().unwrap();
        assert_eq!(
            lsns, &committed,
            "exactly the committed records, in LSN order"
        );
        assert_eq!(window_lens.len(), committed.len().div_ceil(APPLY_WINDOW));
        assert!(window_lens.len() >= 3, "{window_lens:?}");
        assert!(window_lens.iter().all(|&n| (1..=APPLY_WINDOW).contains(&n)));
        let stats = ckpt.stats();
        assert_eq!(
            stats.records_applied.load(Ordering::Relaxed),
            committed.len() as u64
        );
        assert_eq!(stats.completed.load(Ordering::Relaxed), 2);
        assert_eq!(log.stats().torn_commits.load(Ordering::Relaxed), 1);
    }

    /// `run_chunked` must cover `[0, len)` exactly once, serial or not.
    #[test]
    fn chunking_covers_range_exactly() {
        for (len, threads) in [(0usize, 4), (100, 1), (CHUNK_MIN - 1, 4), (7 << 20, 4)] {
            let covered = std::sync::Mutex::new(vec![]);
            run_chunked(len, threads, |off, n| {
                covered.lock().unwrap().push((off, n))
            });
            let mut chunks = covered.into_inner().unwrap();
            chunks.sort_unstable();
            let total: usize = chunks.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, len);
            let mut next = 0;
            for (off, n) in chunks {
                assert_eq!(off, next, "chunks must be contiguous and disjoint");
                next = off + n;
            }
        }
    }
}
