//! Copy-on-write checkpoints (§4.5 "CoW Design") — the NOVA/Pronto-style
//! scheme the paper implements inside DStore for comparison.
//!
//! "When a checkpoint is triggered, all volatile pages in the frontend are
//! marked as read only. … When a client tries to modify a read-only page,
//! a page fault is triggered and a handler copies the page to PMEM.
//! Clients can assist in this copying process, but must wait until the
//! page is copied before making any modification to it."
//!
//! Emulation: the trigger *drains* in-flight operations (the brief
//! frontend lock cached designs cannot avoid), snapshots the DRAM arena's
//! page count, and marks the checkpoint active. The engine's worker thread
//! runs the trigger and then copies; any *mutating* client that arrives
//! while the checkpoint is active claims page chunks beside it and copies
//! them DRAM → spare PMEM shadow region; a mutator may only proceed once
//! the image is complete — the client-visible wait that produces CoW's
//! write tail-latency spikes (Figures 1, 8, 9). Readers never wait.
//!
//! Compared to per-page lazy faulting this is conservative (mutators wait
//! for the whole image, not just their page), which keeps the recovered
//! image exactly consistent without tracking which arena pages each B-tree
//! mutation will touch; the performance shape — writes stall during
//! checkpoints, reads do not — is the one the paper measures.

use dstore_arena::{Arena, DramMemory, Memory};
use dstore_dipper::checkpoint::{
    CheckpointStats, Engine, EngineState, Worker, PHASE_APPLY, PHASE_FLUSH, PHASE_IDLE, PHASE_SWAP,
    PHASE_TRIGGER,
};
use dstore_dipper::{OpLog, PmemLayout, Root};
use dstore_pmem::PmemPool;
use dstore_telemetry::now_ns;
use dstore_telemetry::trace::ActiveTrace;
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pages copied per claimed chunk.
const CHUNK: usize = 16;
/// Copy unit.
const PAGE: usize = 4096;
/// Per-page fault-handling cost in ns: a CoW checkpoint write-protects
/// the frontend, so every page additionally pays a fault trap, mprotect
/// churn, and handler dispatch before its copy — this, not the memcpy,
/// dominates real CoW checkpoint stalls (NOVA/Pronto measurements; the
/// paper's Fig 1/8 show DStore-CoW p9999 in the 10–17 ms range).
const FAULT_NS_PER_PAGE: u64 = 2_500;

/// The CoW checkpoint engine: the drain, the trigger state machine and
/// the worker thread that triggers and copies.
pub struct CowCheckpointer {
    inner: Arc<CowInner>,
    worker: Worker<()>,
}

struct CowInner {
    pool: Arc<PmemPool>,
    layout: PmemLayout,
    root: Arc<Root>,
    log: Arc<OpLog>,
    dram: Arc<Arena<DramMemory>>,
    /// Held `read` by every operation ([`CowCheckpointer::read_guard`],
    /// [`CowCheckpointer::mutation_guard`]); held `write` by the trigger
    /// — the drain that quiesces the frontend while the snapshot is taken.
    drain: RwLock<()>,
    active: AtomicBool,
    /// Pages in this checkpoint's image.
    snapshot_pages: AtomicUsize,
    /// Next page index to claim.
    cursor: AtomicUsize,
    /// Pages copied so far.
    copied: AtomicUsize,
    /// Claimed from the trigger request until the image is committed.
    state: EngineState,
    /// `now_ns` at which the current apply (page-copy) phase began.
    apply_start: AtomicU64,
}

impl CowCheckpointer {
    /// Creates the CoW machinery over `state` (its telemetry sinks and
    /// stall timeout) and spawns its worker.
    pub fn new(
        pool: Arc<PmemPool>,
        layout: PmemLayout,
        root: Arc<Root>,
        log: Arc<OpLog>,
        dram: Arc<Arena<DramMemory>>,
        state: EngineState,
    ) -> Self {
        let inner = Arc::new(CowInner {
            pool,
            layout,
            root,
            log,
            dram,
            drain: RwLock::new(()),
            active: AtomicBool::new(false),
            snapshot_pages: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            copied: AtomicUsize::new(0),
            state,
            apply_start: AtomicU64::new(0),
        });
        let w = Arc::clone(&inner);
        let worker = Worker::spawn("dstore-cow-checkpoint", move |()| {
            w.trigger();
            w.assist_until_done();
        });
        Self { inner, worker }
    }

    /// The drain lock `read`, held by an operation that reads the arena,
    /// so the trigger snapshots no half-done change.
    pub fn read_guard(&self) -> RwLockReadGuard<'_, ()> {
        self.inner.drain.read()
    }

    /// The guard a mutation holds from before its claims until it
    /// commits: the drain lock `read`, so the trigger swaps the log only
    /// when no claim or free is in flight. Before returning it waits out
    /// (and assists) a running image copy, so the mutation never changes
    /// a page the copy has yet to take.
    pub fn mutation_guard(&self, at: &mut ActiveTrace) -> RwLockReadGuard<'_, ()> {
        let drain = self.inner.drain.read();
        // The phase is published before `active`, so sampling it here
        // catches the checkpoint this op is about to wait on.
        self.inner.state.telemetry.note_stall(at);
        // The paper's "clients must wait until the page is copied": an
        // active copy is assisted and waited for.
        if self.inner.active.load(Ordering::Acquire) {
            self.inner.assist_until_done();
        }
        drain
    }
}

impl Engine for CowCheckpointer {
    fn state(&self) -> &EngineState {
        &self.inner.state
    }

    /// Queues a checkpoint for the worker, which drains in-flight
    /// operations, swaps the log, snapshots the arena and copies it. So a
    /// caller that holds a guard of this engine must not wait for it.
    fn try_begin(&self) -> bool {
        let claimed = self.inner.state.claim();
        if claimed {
            self.worker.send(());
        }
        claimed
    }

    fn shutdown(&self) {
        self.inner.state.shut();
        self.worker.stop();
    }
}

impl Drop for CowCheckpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl CowInner {
    /// The trigger, on the worker: drains in-flight operations, swaps the
    /// log, snapshots the arena's page count and marks the copy active.
    fn trigger(&self) {
        let tel = &self.state.telemetry;
        tel.phase.set(PHASE_TRIGGER);
        let t0 = now_ns();
        {
            // Quiesce: wait for in-flight ops, block new ones briefly.
            let _w = self.drain.write();
            self.log.swap(|| {
                self.root.begin_checkpoint();
            });
            let pages = self.dram.allocated_len().div_ceil(PAGE);
            self.cursor.store(0, Ordering::SeqCst);
            self.copied.store(0, Ordering::SeqCst);
            self.snapshot_pages.store(pages, Ordering::SeqCst);
            // All before `active`: once it is up, mutators may finish the
            // copy and release the engine before this thread runs again.
            self.apply_start.store(now_ns(), Ordering::Relaxed);
            tel.phase.set(PHASE_APPLY);
            self.state.started();
            self.active.store(true, Ordering::SeqCst);
        }
        tel.ring.record("trigger", t0, now_ns(), 0, 0);
    }

    /// Claims and copies chunks until the image is complete, finalizing
    /// the checkpoint if this thread copies the last chunk.
    fn assist_until_done(&self) {
        let total = self.snapshot_pages.load(Ordering::Acquire);
        loop {
            let start = self.cursor.fetch_add(CHUNK, Ordering::AcqRel);
            if start >= total {
                // Nothing left to claim; wait for stragglers to finish.
                while self.active.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                return;
            }
            let end = (start + CHUNK).min(total);
            self.copy_pages(start, end);
            let done = self.copied.fetch_add(end - start, Ordering::AcqRel) + (end - start);
            if done >= total {
                self.finalize();
                return;
            }
        }
    }

    fn copy_pages(&self, start: usize, end: usize) {
        dstore_pmem::latency::spin_for_ns(FAULT_NS_PER_PAGE * (end - start) as u64);
        let spare = self.root.state().spare_shadow();
        let dst_off = self.layout.shadow[spare];
        let len = (end - start) * PAGE;
        let src_off = start * PAGE;
        // SAFETY: pages within the snapshot are stable (mutators wait) and
        // within both regions' bounds (snapshot ≤ shadow_size).
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.dram.memory().base().add(src_off),
                self.pool.base().add(dst_off + src_off),
                len,
            );
        }
        self.pool.bulk_persist(dst_off + src_off, len);
    }

    fn finalize(&self) {
        let tel = &self.state.telemetry;
        let bytes = (self.snapshot_pages.load(Ordering::Relaxed) * PAGE) as u64;
        let apply_start = self.apply_start.load(Ordering::Relaxed);
        tel.ring.record("apply", apply_start, now_ns(), bytes, 0);
        tel.phase.set(PHASE_FLUSH);
        let t_flush = now_ns();
        let stall = self.state.flush_stall_ns.load(Ordering::Relaxed);
        if stall > 0 {
            dstore_pmem::latency::spin_for_ns(stall);
        }
        self.pool.fence();
        tel.ring.record("flush", t_flush, now_ns(), bytes, 0);
        tel.phase.set(PHASE_SWAP);
        let t_swap = now_ns();
        self.root.commit_checkpoint();
        let _ = self.pool.sync_backing_file();
        tel.ring.record("swap", t_swap, now_ns(), 0, 0);
        tel.phase.set(PHASE_IDLE);
        self.state.count(CheckpointStats {
            completed: 1,
            records_applied: 0,
            bytes_copied: bytes,
            last_apply_ns: now_ns().saturating_sub(apply_start),
        });
        self.active.store(false, Ordering::Release);
        self.state.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore_dipper::checkpoint::CheckpointTelemetry;
    use dstore_dipper::DipperConfig;
    use std::time::Duration;

    type Setup = (
        Arc<PmemPool>,
        PmemLayout,
        Arc<Root>,
        Arc<OpLog>,
        Arc<Arena<DramMemory>>,
    );

    fn setup() -> Setup {
        let cfg = DipperConfig {
            log_size: 1 << 16,
            shadow_size: 1 << 20,
        };
        let layout = PmemLayout::new(&cfg);
        let pool = Arc::new(PmemPool::strict(layout.total));
        let root = Arc::new(Root::format(
            Arc::clone(&pool),
            layout.log_size as u64,
            layout.shadow_size as u64,
        ));
        let log = Arc::new(OpLog::create(Arc::clone(&pool), layout));
        let dram = Arc::new(Arena::create(DramMemory::new(layout.shadow_size)));
        (pool, layout, root, log, dram)
    }

    #[test]
    fn cow_checkpoint_copies_dram_image() {
        let (pool, layout, root, log, dram) = setup();
        // Put recognizable data in the DRAM arena.
        let off = dram.alloc_block(8192);
        // SAFETY: fresh allocation.
        unsafe {
            std::ptr::write_bytes(dram.memory().base().add(off as usize), 0x7E, 8192);
        }
        let cow = CowCheckpointer::new(
            Arc::clone(&pool),
            layout,
            Arc::clone(&root),
            Arc::clone(&log),
            Arc::clone(&dram),
            EngineState::new(CheckpointTelemetry::default(), Duration::from_secs(30)),
        );
        cow.run_inline();
        let st = root.state();
        assert!(!st.checkpoint_in_progress);
        assert_eq!(st.current_shadow, 1);
        assert_eq!(cow.completed(), 1);
        // The image survives a crash.
        pool.simulate_crash();
        let mut buf = vec![0u8; 8192];
        pool.read_bytes(layout.shadow[1] + off as usize, &mut buf);
        assert!(buf.iter().all(|&b| b == 0x7E));
    }

    #[test]
    fn mutators_wait_for_active_checkpoint() {
        let (pool, layout, root, log, dram) = setup();
        // Enough pages that the copy takes a visible moment.
        dram.alloc_block(1 << 19);
        let cow = CowCheckpointer::new(
            pool,
            layout,
            root,
            log,
            Arc::clone(&dram),
            EngineState::new(CheckpointTelemetry::default(), Duration::from_secs(30)),
        );
        assert!(cow.try_begin());
        while cow.is_busy() && !cow.inner.active.load(Ordering::Acquire) {
            std::thread::yield_now(); // the worker has yet to trigger
        }
        // A mutator arriving now must wait until the image completes.
        drop(cow.mutation_guard(&mut ActiveTrace::disabled()));
        assert!(!cow.inner.active.load(Ordering::Acquire));
        cow.wait_idle();
        assert_eq!(cow.completed(), 1);
    }

    #[test]
    fn second_trigger_while_busy_is_rejected() {
        let (pool, layout, root, log, dram) = setup();
        dram.alloc_block(1 << 18);
        let cow = CowCheckpointer::new(
            pool,
            layout,
            root,
            log,
            dram,
            EngineState::new(CheckpointTelemetry::default(), Duration::from_secs(30)),
        );
        assert!(cow.try_begin());
        // Either still busy (false) or already done (then it's true).
        let second = cow.try_begin();
        cow.wait_idle();
        if second {
            cow.wait_idle();
            assert_eq!(cow.completed(), 2);
        } else {
            assert_eq!(cow.completed(), 1);
        }
    }
}
