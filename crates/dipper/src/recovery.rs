//! Idempotent system recovery (§3.6).
//!
//! Recovery has four steps, the first and last owned by this module and
//! the middle two by the application:
//!
//! 1. [`recover_scan`] reads the root and walks the active log once (the
//!    archived log too, only if a checkpoint must be redone), producing a
//!    [`RecoveryPlan`]: whether the in-flight checkpoint must be redone
//!    (and with which records), which committed records of the active log
//!    to replay, which were pending, and the volatile log state.
//! 2. If `redo_records` is `Some`, the caller redoes the checkpoint via
//!    [`crate::checkpoint::apply_checkpoint`] — "we redo the checkpoint
//!    procedure ongoing at the time of the crash".
//! 3. The caller copies the (now consistent) current shadow region into
//!    its DRAM arena and re-attaches its structures — "replicating the
//!    PMEM allocator state in the DRAM allocator and copying pages from
//!    PMEM to DRAM".
//! 4. The caller replays `replay_records` on the DRAM structures as if
//!    they were new requests. [`RecoveryPlan::finish`] (any time after
//!    the scan) aborts the pending records and rebuilds the volatile log.
//!
//! Every step is idempotent: redoing the checkpoint produces the same
//! image (determinism), replay touches only volatile state until the next
//! checkpoint, and crashing during recovery simply restarts it.

use crate::layout::PmemLayout;
use crate::log::OpLog;
use crate::record::{OwnedRecord, COMMIT_COMMITTED, COMMIT_PENDING, HEADER_LEN};
use crate::root::{Root, RootState};
use dstore_pmem::PmemPool;
use std::sync::Arc;

/// Everything recovery learned from persistent state.
#[derive(Debug)]
pub struct RecoveryPlan {
    /// Root state at crash time.
    pub state: RootState,
    /// Committed records of the archived log — present exactly when the
    /// crash interrupted a checkpoint, which must be redone first.
    pub redo_records: Option<Vec<OwnedRecord>>,
    /// Committed records of the active log, to replay on the recovered
    /// DRAM structures in order.
    pub replay_records: Vec<OwnedRecord>,
    /// Pool offsets of the active log's records still pending at the
    /// crash, which [`RecoveryPlan::finish`] aborts.
    pub pending: Vec<usize>,
    /// Next LSN (dominates every LSN that could exist anywhere in PMEM).
    pub next_lsn: u64,
    /// Append tail of the active log (end of its valid records).
    pub active_tail: usize,
}

/// Scans persistent state and builds the recovery plan. The pool must
/// already reflect post-crash contents (i.e. after
/// [`PmemPool::simulate_crash`] or a real reopen).
pub fn recover_scan(pool: &Arc<PmemPool>, layout: &PmemLayout, root: &Root) -> RecoveryPlan {
    let state = root.state();
    // A throwaway OpLog view for walking; volatile fields unused here.
    let scan = OpLog::attach(Arc::clone(pool), *layout, state.active_log, 0, 0);

    // The archived buffer is read only to redo its checkpoint, in a walk
    // concurrent with the active one (disjoint PMEM regions).
    let (archived_walk, active_walk) = std::thread::scope(|s| {
        let redo = state.checkpoint_in_progress;
        let h = redo.then(|| s.spawn(|| scan.walk(state.archived_log())));
        let active_walk = scan.walk(state.active_log);
        let archived_walk = h.map(|h| h.join().expect("archived-log walk panicked"));
        (archived_walk, active_walk)
    });

    let active_tail = active_walk
        .last()
        .map(|r| r.off + crate::record::encoded_len(r.name.len(), r.params.len()))
        .unwrap_or_else(|| layout.log_records(state.active_log));

    // next_lsn must dominate every LSN persisted anywhere: seen record
    // LSNs, both buffers' min_lsn fences, plus headroom for relocated
    // records a crashed swap may have written into a buffer whose root
    // transition never landed (their headers carry valid LSNs above the
    // fence but are unreachable by any walk). An archived buffer left
    // unwalked needs nothing more: every LSN in it is below the active
    // buffer's fence, persisted at the swap that archived it.
    let max_seen = archived_walk
        .iter()
        .flatten()
        .chain(&active_walk)
        .map(|r| r.lsn)
        .max()
        .unwrap_or(0);

    let pending = active_walk
        .iter()
        .filter(|r| r.commit == COMMIT_PENDING)
        .map(|r| r.off)
        .collect();
    // Filter the walks in place: the committed subsets are the records
    // themselves, not copies of every name and param blob in a buffer.
    let committed = |mut w: Vec<OwnedRecord>| {
        w.retain(|r| r.commit == COMMIT_COMMITTED);
        w
    };
    let redo_records = archived_walk.map(committed);
    let replay_records = committed(active_walk);
    let min0 = pool.read_u64(layout.log[0]);
    let min1 = pool.read_u64(layout.log[1]);
    let headroom = (layout.log_size / HEADER_LEN) as u64;
    let next_lsn = max_seen.max(min0).max(min1) + headroom + 1;

    RecoveryPlan {
        state,
        redo_records,
        replay_records,
        pending,
        next_lsn,
        active_tail,
    }
}

impl RecoveryPlan {
    /// Completes recovery: rebuilds the volatile log (durably aborting
    /// the scan's pending records so they are neither replayed nor
    /// treated as conflicts) and returns the ready-to-use [`OpLog`].
    pub fn finish(&self, pool: Arc<PmemPool>, layout: PmemLayout) -> OpLog {
        let log = OpLog::attach(
            pool,
            layout,
            self.state.active_log,
            self.active_tail,
            self.next_lsn,
        );
        log.abort_crashed(&self.pending);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DipperConfig;

    fn setup() -> (Arc<PmemPool>, PmemLayout, Arc<Root>, OpLog) {
        let cfg = DipperConfig {
            log_size: 1 << 16,
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
        let log = OpLog::create(Arc::clone(&pool), layout);
        (pool, layout, root, log)
    }

    #[test]
    fn clean_state_scan_is_empty() {
        let (pool, layout, root, _log) = setup();
        pool.simulate_crash();
        let plan = recover_scan(&pool, &layout, &root);
        assert!(plan.redo_records.is_none());
        assert!(plan.replay_records.is_empty());
        assert_eq!(plan.active_tail, layout.log_records(0));
        assert!(plan.next_lsn > 0);
    }

    #[test]
    fn committed_records_survive_crash_into_replay() {
        let (pool, layout, root, log) = setup();
        let a = log.try_append(1, b"alpha", &[1]).unwrap();
        log.commit(a.handle);
        let _b = log.try_append(2, b"beta", &[2]).unwrap(); // never committed
        pool.simulate_crash();
        let plan = recover_scan(&pool, &layout, &root);
        assert!(plan.redo_records.is_none());
        assert_eq!(plan.replay_records.len(), 1);
        assert_eq!(plan.replay_records[0].name, b"alpha");
        // Tail covers both records (the pending one still occupies space).
        assert!(plan.active_tail > layout.log_records(0));
        let log2 = plan.finish(Arc::clone(&pool), layout);
        // The zombie pending record is aborted: no conflicts, no replay.
        let r = log2.try_append(1, b"beta", &[]).unwrap();
        assert!(r.conflicts.is_empty());
    }

    #[test]
    fn crash_during_checkpoint_requests_redo() {
        let (pool, layout, root, log) = setup();
        for i in 0..3 {
            let r = log
                .try_append(1, format!("obj{i}").as_bytes(), &[i as u8])
                .unwrap();
            log.commit(r.handle);
        }
        // Swap (checkpoint begins) and crash before the apply commits.
        log.swap(|| {
            root.begin_checkpoint();
        });
        pool.simulate_crash();
        let plan = recover_scan(&pool, &layout, &root);
        assert!(plan.state.checkpoint_in_progress);
        let redo = plan.redo_records.as_ref().expect("redo required");
        assert_eq!(redo.len(), 3);
        assert!(
            plan.replay_records.is_empty(),
            "active log is empty post-swap"
        );
    }

    #[test]
    fn next_lsn_dominates_all_persisted_lsns() {
        let (pool, layout, root, log) = setup();
        for i in 0..10 {
            let r = log.try_append(1, format!("k{i}").as_bytes(), &[]).unwrap();
            log.commit(r.handle);
        }
        log.swap(|| {
            root.begin_checkpoint();
        });
        root.commit_checkpoint();
        let r = log.try_append(1, b"after-swap", &[]).unwrap();
        log.commit(r.handle);
        pool.simulate_crash();
        let plan = recover_scan(&pool, &layout, &root);
        // min_lsn of the recycled buffer is 11; the post-swap record got
        // LSN 11; headroom pushes next_lsn far beyond.
        assert!(plan.next_lsn > 11);
        let log2 = plan.finish(Arc::clone(&pool), layout);
        let r2 = log2.try_append(1, b"post-recovery", &[]).unwrap();
        assert!(r2.lsn >= plan.next_lsn);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (pool, layout, root, log) = setup();
        let a = log.try_append(1, b"x", &[7]).unwrap();
        log.commit(a.handle);
        pool.simulate_crash();
        let plan1 = recover_scan(&pool, &layout, &root);
        let _ = plan1.finish(Arc::clone(&pool), layout);
        // Crash immediately after recovery, recover again: same plan.
        pool.simulate_crash();
        let plan2 = recover_scan(&pool, &layout, &root);
        assert_eq!(plan1.replay_records, plan2.replay_records);
        assert_eq!(plan1.active_tail, plan2.active_tail);
    }
}
