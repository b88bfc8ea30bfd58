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
//! most [`APPLY_WINDOW`] record views in LSN order, each borrowing its
//! name and params where they lie in the log. A live checkpoint walks the
//! archived buffer one window at a time, so its heap holds one window of
//! views however long the log is; recovery's redo re-reads the records
//! at the offsets its scan validated, one window at a time.
//!
//! A crash anywhere before the final root store leaves the old shadow
//! image current and the archived log intact — recovery simply redoes the
//! checkpoint ([`apply_checkpoint`] is idempotent by construction).

use crate::layout::PmemLayout;
use crate::log::OpLog;
use crate::record::{self, RecordView, COMMIT_COMMITTED};
use crate::root::Root;
use dstore_arena::{Arena, PmemRange};
use dstore_pmem::PmemPool;
use dstore_telemetry::trace::ActiveTrace;
use dstore_telemetry::{now_ns, Counter, PhaseCell, SpanRing};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Smallest per-thread unit of the chunked shadow copy / flush. Below
/// this, thread spawn overhead dominates and the work stays serial.
const CHUNK_MIN: usize = 1 << 20;

/// Workers a replay window or chunked copy/flush uses: the CPUs the
/// calling thread may run on right now, at least 1.
///
/// Read at call time through [`std::thread::available_parallelism`],
/// which honours the thread's `sched_getaffinity` mask and the cgroup
/// CPU quota — so a checkpointer or recovery confined to one CPU takes
/// the serial path instead of time-slicing workers on a single core. To
/// run fewer workers, confine the process (`taskset`) or the thread
/// ([`on_one_cpu`]).
pub fn usable_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Runs `f` on a new thread confined to the first CPU the caller may run
/// on, and returns its result. Everything `f` starts inherits the mask,
/// so a store it creates or recovers replays serially
/// ([`usable_workers`] reads 1): the one-CPU leg of a serial-vs-parallel
/// A/B. The caller's own affinity is left as it was.
pub fn on_one_cpu<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut mask = [0u64; 16];
            let size = std::mem::size_of_val(&mask);
            // SAFETY: the mask buffer is valid for `size` bytes; pid 0 is
            // the calling thread.
            assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
            let cpu = (0..16 * 64)
                .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .expect("some allowed CPU");
            let mut one = [0u64; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: as above; the mask is only read.
            assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
            f()
        })
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
    })
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
/// (`a` = bytes processed, `b` = records applied), and once as
/// `("stall_timeout", run state, waited ms)` before a stuck wait panics.
/// The black box uses this to persist lifecycle events; keep
/// implementations cheap — they run on the checkpoint worker (and the
/// triggering thread for `"trigger"`).
pub type CheckpointEventSink = Arc<dyn Fn(&'static str, u64, u64) + Send + Sync>;

/// Telemetry sinks for checkpoint observability, handed to a checkpoint
/// engine's constructor by the embedding store. All sinks are
/// lock-free to record into, so attaching them does not perturb the
/// phases they measure. [`Default`] makes a set registered nowhere.
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
    /// Lifecycle-event sink (see [`CheckpointEventSink`]).
    pub events: CheckpointEventSink,
}

impl Default for CheckpointTelemetry {
    fn default() -> Self {
        CheckpointTelemetry {
            ring: Arc::new(SpanRing::new(64)),
            phase: Arc::new(PhaseCell::new(CHECKPOINT_PHASES)),
            panics: Arc::new(Counter::default()),
            events: Arc::new(|_, _, _| {}),
        }
    }
}

impl CheckpointTelemetry {
    /// Re-stamps `at`'s fallback phase with the checkpoint phase in
    /// flight, if any. An op that began while the store was idle can
    /// still spend its life behind a checkpoint that triggered mid-op (a
    /// full log forces one; a CoW image copy blocks mutators), so an op
    /// samples the phase where it is about to wait, or has just waited.
    pub fn note_stall(&self, at: &mut ActiveTrace) {
        let p = self.phase.name();
        if p != CHECKPOINT_PHASES[PHASE_IDLE] {
            at.set_start_phase(p);
        }
    }
}

impl std::fmt::Debug for CheckpointTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointTelemetry")
            .field("ring", &self.ring)
            .field("phase", &self.phase)
            .field("panics", &self.panics)
            .field("events", &"…")
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
/// them: windows of at most [`APPLY_WINDOW`] views, in LSN order.
pub struct RecordWindows<'a> {
    source: Source<'a>,
    /// Records handed out so far ([`CheckpointStats::records_applied`]).
    handed: Cell<u64>,
}

enum Source<'a> {
    /// An archived log buffer, walked window by window. Nothing writes it
    /// while the windows live, as [`OpLog::visit`] requires: no swap
    /// recycles it before its checkpoint completes.
    Archived(&'a OpLog, usize),
    /// Records a recovery scan validated, by pool offset.
    At(&'a PmemPool, &'a [usize]),
}

impl<'a> RecordWindows<'a> {
    /// The committed records at pool offsets `offs`, which a recovery
    /// scan validated, re-read one window at a time (recovery's redo).
    ///
    /// # Safety
    ///
    /// Nothing writes those records while the windows live: the log is
    /// being recovered.
    pub unsafe fn at(pool: &'a PmemPool, offs: &'a [usize]) -> Self {
        Self::new(Source::At(pool, offs))
    }

    fn new(source: Source<'a>) -> Self {
        let handed = Cell::new(0);
        RecordWindows { source, handed }
    }

    /// Hands every window to `apply`, in LSN order. One window buffer is
    /// reused throughout, so at most [`APPLY_WINDOW`] views exist at once
    /// however long the source is.
    pub fn for_each(&self, mut apply: impl FnMut(&[RecordView<'_>])) {
        let mut w = Vec::with_capacity(APPLY_WINDOW);
        let mut hand = |w: &mut Vec<RecordView<'a>>| {
            self.handed.set(self.handed.get() + w.len() as u64);
            apply(&w[..]);
            w.clear();
        };
        let mut push = |r| {
            w.push(r);
            if w.len() == APPLY_WINDOW {
                hand(&mut w);
            }
        };
        // SAFETY (both arms): nothing writes the records while the views
        // live, per `Source`'s contracts.
        match self.source {
            Source::Archived(log, buf) => unsafe {
                log.visit(buf, |r| {
                    if r.commit == COMMIT_COMMITTED {
                        push(r)
                    }
                })
            },
            Source::At(pool, offs) => {
                for &off in offs {
                    push(unsafe { record::Header::read(pool, off).view(pool, off) });
                }
            }
        }
        if !w.is_empty() {
            hand(&mut w);
        }
    }
}

/// Checkpoint counters (Figure 7 diagnostics, Table 4 accounting), the
/// same in both checkpoint engines: what one checkpoint did, as
/// [`apply_checkpoint`] returns it, or an engine's running total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints completed.
    pub completed: u64,
    /// Records replayed onto shadows (0 for a CoW checkpoint).
    pub records_applied: u64,
    /// Bytes copied into the spare shadow region.
    pub bytes_copied: u64,
    /// Nanoseconds the last checkpoint took from its apply phase on.
    pub last_apply_ns: u64,
}

impl CheckpointStats {
    /// Adds one checkpoint's counts to this total.
    pub fn add(&mut self, run: CheckpointStats) {
        self.completed += run.completed;
        self.records_applied += run.records_applied;
        self.bytes_copied += run.bytes_copied;
        self.last_apply_ns = run.last_apply_ns;
    }
}

/// Where a checkpoint engine is. A `stall_timeout` event carries it as
/// its declaration index (`Idle` = 0 … `Shut` = 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Run {
    #[default]
    Idle,
    /// Claimed; its trigger (the log swap) is not done yet.
    Queued,
    /// Past its trigger.
    Running,
    /// Shut down: no checkpoint starts any more.
    Shut,
}

/// What both checkpoint engines keep the same way: the run state (at
/// most one checkpoint at a time, none after shutdown), the counters, the
/// telemetry sinks and the test-only flush stall.
pub struct EngineState {
    run: Mutex<Run>,
    cv: Condvar,
    /// How long a wait on `run` may take before it panics.
    stall_timeout: Duration,
    stats: Mutex<CheckpointStats>,
    /// Phase-span sinks.
    pub telemetry: CheckpointTelemetry,
    /// Test-only injection: extra nanoseconds spun inside the flush
    /// phase of every checkpoint (0 = none).
    pub flush_stall_ns: AtomicU64,
}

impl EngineState {
    /// An idle engine's state, recording phase spans into `telemetry`.
    /// A wait for a checkpoint to start or finish that takes longer than
    /// `stall_timeout` panics instead of hanging.
    pub fn new(telemetry: CheckpointTelemetry, stall_timeout: Duration) -> Self {
        EngineState {
            run: Mutex::default(),
            cv: Condvar::new(),
            stall_timeout,
            stats: Mutex::default(),
            telemetry,
            flush_stall_ns: AtomicU64::new(0),
        }
    }

    /// Claims the engine for a new checkpoint: false while one is queued
    /// or running, or after shutdown.
    pub fn claim(&self) -> bool {
        let mut r = self.run.lock();
        let idle = *r == Run::Idle;
        if idle {
            *r = Run::Queued;
        }
        idle
    }

    /// Marks the claimed checkpoint past its trigger. Call it before
    /// anything lets another thread finish the checkpoint: a
    /// [`EngineState::release`] that came first would be overwritten.
    pub fn started(&self) {
        self.set(Run::Running);
    }

    /// Adds what one checkpoint did to the counters.
    pub fn count(&self, run: CheckpointStats) {
        self.stats.lock().add(run);
    }

    /// Marks the running checkpoint done.
    pub fn release(&self) {
        self.set(Run::Idle);
    }

    /// Waits out a running checkpoint and refuses later ones: the first
    /// half of every engine's [`Engine::shutdown`].
    pub fn shut(&self) {
        *self.wait_while(busy) = Run::Shut;
    }

    fn set(&self, to: Run) {
        *self.run.lock() = to;
        self.cv.notify_all();
    }

    /// Blocks while `wait(state)` holds; returns the state, still locked.
    /// Panics, naming the state and the phase, once the wait outlasts
    /// the stall timeout.
    fn wait_while(&self, wait: impl Fn(Run) -> bool) -> MutexGuard<'_, Run> {
        let deadline = Instant::now() + self.stall_timeout;
        let mut r = self.run.lock();
        while wait(*r) {
            if self.cv.wait_until(&mut r, deadline).timed_out() && wait(*r) {
                (self.telemetry.events)(
                    "stall_timeout",
                    *r as u64,
                    self.stall_timeout.as_millis() as u64,
                );
                panic!(
                    "checkpoint engine stuck {:?} in phase {:?} for {:?}",
                    *r,
                    self.telemetry.phase.name(),
                    self.stall_timeout
                );
            }
        }
        r
    }
}

fn busy(r: Run) -> bool {
    matches!(r, Run::Queued | Run::Running)
}

/// A checkpoint engine. An implementation triggers checkpoints and stops
/// its worker; the rest is written once, over its [`EngineState`].
pub trait Engine {
    /// The state every engine keeps the same way.
    fn state(&self) -> &EngineState;

    /// Starts a checkpoint unless one is queued or running, or the engine
    /// has shut down; returns whether it did.
    fn try_begin(&self) -> bool;

    /// Waits out a running checkpoint, refuses later ones and joins the
    /// engine's worker. Idempotent.
    fn shutdown(&self);

    /// Whether a checkpoint is queued or running.
    fn is_busy(&self) -> bool {
        busy(*self.state().run.lock())
    }

    /// Blocks until no checkpoint is queued or running.
    fn wait_idle(&self) {
        self.state().wait_while(busy);
    }

    /// Starts a checkpoint, waiting out a running one first, and returns
    /// once it is past its trigger, so the log has room again, or once
    /// the engine has shut down. This is the backpressure path taken when
    /// the log fills completely (the paper: workloads beyond ~70 % writes
    /// "lead to backlogging", §5.3).
    fn begin_blocking(&self) {
        loop {
            self.wait_idle();
            if self.try_begin() {
                break;
            }
            if *self.state().run.lock() == Run::Shut {
                return;
            }
        }
        self.state().wait_while(|r| r == Run::Queued);
    }

    /// Runs one full checkpoint and waits for it.
    fn run_inline(&self) {
        self.begin_blocking();
        self.wait_idle();
    }

    /// The counters now.
    fn stats(&self) -> CheckpointStats {
        *self.state().stats.lock()
    }

    /// Checkpoints completed.
    fn completed(&self) -> u64 {
        self.stats().completed
    }

    /// The checkpoint phase in flight ([`CHECKPOINT_PHASES`]).
    fn phase(&self) -> &'static str {
        self.state().telemetry.phase.name()
    }

    /// Test-only injection: spin for `ns` nanoseconds inside the flush
    /// phase of every later checkpoint (0 disables), so tests manufacture
    /// a slow checkpoint without a huge working set.
    fn inject_flush_stall_ns(&self, ns: u64) {
        self.state().flush_stall_ns.store(ns, Ordering::Relaxed);
    }
}

/// A checkpoint engine's long-lived worker thread and the channel that
/// feeds it jobs.
pub struct Worker<J> {
    /// `None` stops the worker.
    tx: crossbeam::channel::Sender<Option<J>>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<J: Send + 'static> Worker<J> {
    /// Spawns thread `name`, which runs `job` on each job sent until the
    /// worker stops.
    pub fn spawn(name: &str, mut job: impl FnMut(J) + Send + 'static) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded::<Option<J>>();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while let Ok(Some(j)) = rx.recv() {
                    job(j);
                }
            })
            .expect("spawn checkpoint worker");
        let thread = Mutex::new(Some(thread));
        Worker { tx, thread }
    }

    /// Queues `job`. An engine refuses new checkpoints before its worker
    /// stops, so a claimed checkpoint always finds the worker running.
    pub fn send(&self, job: J) {
        self.tx.send(Some(job)).expect("checkpoint worker stopped");
    }

    /// Joins the thread once it has run every queued job. Idempotent.
    pub fn stop(&self) {
        if let Some(t) = self.thread.lock().take() {
            let _ = self.tx.send(None);
            let _ = t.join();
        }
    }
}

/// DIPPER's checkpoint engine: the trigger, on the calling thread, and
/// the worker thread that runs every apply phase.
pub struct Checkpointer {
    inner: Arc<CheckpointInner>,
    worker: Worker<usize>,
}

struct CheckpointInner {
    pool: Arc<PmemPool>,
    layout: PmemLayout,
    root: Arc<Root>,
    log: Arc<OpLog>,
    applier: Applier,
    /// Claimed from the swap until the apply phase commits.
    state: EngineState,
}

impl Checkpointer {
    /// Spawns the checkpoint thread over `state` (its telemetry sinks
    /// and stall timeout). The apply phase's chunked copy and flush use
    /// [`usable_workers`] workers of that thread.
    pub fn new(
        pool: Arc<PmemPool>,
        layout: PmemLayout,
        root: Arc<Root>,
        log: Arc<OpLog>,
        applier: Applier,
        state: EngineState,
    ) -> Self {
        let inner = Arc::new(CheckpointInner {
            pool,
            layout,
            root,
            log,
            applier,
            state,
        });
        let w = Arc::clone(&inner);
        let worker = Worker::spawn("dipper-checkpoint", move |archived| {
            // A panic here must not strand the store with the engine stuck
            // claimed (frontends would hang on backpressure forever);
            // surface it loudly and release the state machine.
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run_apply(archived)));
            w.state.release();
            if let Err(e) = r {
                w.state.telemetry.panics.inc();
                w.state.telemetry.phase.set(PHASE_IDLE);
                eprintln!("dipper checkpoint apply panicked: {e:?}");
            }
        });
        Self { inner, worker }
    }
}

impl Engine for Checkpointer {
    fn state(&self) -> &EngineState {
        &self.inner.state
    }

    /// The swap happens on the calling thread (brief); the apply phase
    /// runs on the worker.
    fn try_begin(&self) -> bool {
        let inner = &self.inner;
        if !inner.state.claim() {
            return false;
        }
        // If the root says a checkpoint is in flight that nobody is
        // running (crash-injection hooks, or recovery handing over a
        // store mid-checkpoint), complete it first — swapping now would
        // recycle the archived log and lose its records.
        let st = inner.root.state();
        if st.checkpoint_in_progress {
            inner.run_apply(st.archived_log());
        }
        let tel = &inner.state.telemetry;
        tel.phase.set(PHASE_TRIGGER);
        let t0 = now_ns();
        let archived = inner.log.swap(|| {
            inner.root.begin_checkpoint();
        });
        tel.ring.record("trigger", t0, now_ns(), 0, 0);
        (tel.events)("trigger", 0, 0);
        inner.state.started();
        self.worker.send(archived);
        true
    }

    fn shutdown(&self) {
        self.inner.state.shut();
        self.worker.stop();
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl CheckpointInner {
    fn run_apply(&self, archived: usize) {
        self.state.count(apply_checkpoint(
            &self.pool,
            &self.layout,
            &self.root,
            &self.applier,
            // The engine stays claimed from the swap that archived
            // `archived` until this apply returns, so no swap recycles it
            // meanwhile.
            RecordWindows::new(Source::Archived(&self.log, archived)),
            &self.state.telemetry,
            self.state.flush_stall_ns.load(Ordering::Relaxed),
        ));
    }
}

/// Splits `[0, len)` into up-to-[`usable_workers`] page-aligned chunks
/// and runs `work(offset, chunk_len)` on scoped threads, one chunk per
/// thread. Falls back to one inline call when the range is too small to
/// be worth splitting (see [`CHUNK_MIN`]) or only one worker is usable.
fn run_chunked(len: usize, work: impl Fn(usize, usize) + Sync) {
    let threads = usable_workers();
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
/// atomically commits the root transition; returns what it did. The bulk
/// copy and the flush are chunked across up to [`usable_workers`] scoped
/// workers (1 = serial). `flush_stall_ns` is a test-only stall spun
/// inside the flush phase (see [`Engine::inject_flush_stall_ns`]; 0 =
/// none).
pub fn apply_checkpoint(
    pool: &Arc<PmemPool>,
    layout: &PmemLayout,
    root: &Root,
    applier: &Applier,
    records: RecordWindows<'_>,
    telemetry: &CheckpointTelemetry,
    flush_stall_ns: u64,
) -> CheckpointStats {
    let t0 = now_ns();
    let enter = |idx: usize| telemetry.phase.set(idx);
    let span = |name: &'static str, start: u64, a: u64, b: u64| {
        telemetry.ring.record(name, start, now_ns(), a, b);
        (telemetry.events)(name, a, b);
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
    run_chunked(copy_len, |off, n| {
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
    // 2. Replay committed records with the same code the frontend ran.
    applier(spare, &records);
    let applied = records.handed.get();
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
    run_chunked(flush_len, |off, n| {
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
    CheckpointStats {
        completed: 1,
        records_applied: applied,
        bytes_copied: copy_len as u64,
        last_apply_ns: now_ns().saturating_sub(t0),
    }
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
            EngineState::new(CheckpointTelemetry::default(), Duration::from_secs(30)),
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
        assert_eq!(stats.records_applied, committed.len() as u64);
        assert_eq!(stats.completed, 2);
        assert_eq!(log.stats().torn_commits.load(Ordering::Relaxed), 1);
    }

    /// A wait on a checkpoint that never finishes panics, naming where it
    /// is stuck, instead of hanging, and first leaves a `stall_timeout`
    /// event carrying the run state and the waited ms.
    #[test]
    #[should_panic(expected = "checkpoint engine stuck Running in phase \"idle\"")]
    fn a_stuck_checkpoint_panics_its_waiter() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let tel = CheckpointTelemetry {
            events: Arc::new(move |name, a, b| sink.lock().unwrap().push((name, a, b))),
            ..CheckpointTelemetry::default()
        };
        let state = EngineState::new(tel, Duration::from_millis(20));
        assert!(state.claim());
        state.started();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.shut()))
            .expect_err("a stuck wait panics");
        assert_eq!(
            *seen.lock().unwrap(),
            [("stall_timeout", Run::Running as u64, 20)]
        );
        std::panic::resume_unwind(panic);
    }

    /// `run_chunked` must cover `[0, len)` exactly once, serial (on one
    /// CPU) or not.
    #[test]
    fn chunking_covers_range_exactly() {
        let chunks = |len: usize| {
            let covered = std::sync::Mutex::new(vec![]);
            run_chunked(len, |off, n| covered.lock().unwrap().push((off, n)));
            let mut chunks = covered.into_inner().unwrap();
            chunks.sort_unstable();
            chunks
        };
        for len in [0usize, 100, CHUNK_MIN - 1, 7 << 20] {
            for chunks in [chunks(len), on_one_cpu(|| chunks(len))] {
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
}
