//! Invariants of the single-pass recovery scan:
//!
//! * a crashed swap (recycled buffer's fence and relocated records
//!   durable, root transition lost) leaves `next_lsn` above every LSN in
//!   *both* buffers, while only the active log is replayed;
//! * without a checkpoint to redo, the archived buffer is never read, so
//!   stale bytes there cannot change the plan;
//! * the records the scan finds pending are aborted on media by
//!   [`RecoveryPlan::finish`], so a crash right after recovery sees them
//!   aborted.

use dstore_dipper::record::{self, RecordView, COMMIT_ABORTED, COMMIT_COMMITTED, COMMIT_PENDING};
use dstore_dipper::{recover_scan, DipperConfig, OpLog, PmemLayout, RecoveryPlan, Root};
use dstore_pmem::PmemPool;
use std::sync::Arc;

fn setup() -> (Arc<PmemPool>, PmemLayout, Root, OpLog) {
    let cfg = DipperConfig {
        log_size: 1 << 16,
        shadow_size: 64 << 10,
    };
    let layout = PmemLayout::new(&cfg);
    let pool = Arc::new(PmemPool::strict(layout.total));
    let root = Root::format(
        Arc::clone(&pool),
        layout.log_size as u64,
        layout.shadow_size as u64,
    );
    let log = OpLog::create(Arc::clone(&pool), layout);
    (pool, layout, root, log)
}

/// Every valid record of buffer `i`, viewed in place. Each test writes
/// nothing to a buffer while views of it are in use.
fn walk(log: &OpLog, i: usize) -> Vec<RecordView<'_>> {
    let mut out = Vec::new();
    // SAFETY: see above.
    unsafe { log.visit(i, |r| out.push(r)) };
    out
}

/// Appends and commits one record per name.
fn commit_all(log: &OpLog, names: &[&str]) {
    for n in names {
        let r = log.try_append(1, n.as_bytes(), &[7; 9]).unwrap();
        log.commit(r.handle);
    }
}

/// Appends one record per name and leaves it pending; returns the
/// records' pool offsets. A publish only stores, so the records reach
/// media only through a later commit's header-gap flush.
fn leave_pending(log: &OpLog, names: &[&str]) -> Vec<usize> {
    let lsns: Vec<u64> = names
        .iter()
        .map(|n| log.try_append(2, n.as_bytes(), &[3; 5]).unwrap().lsn)
        .collect();
    let recs = walk(log, log.active());
    lsns.iter()
        .map(|lsn| recs.iter().find(|r| r.lsn == *lsn).unwrap().off)
        .collect()
}

/// The names of the records the plan replays.
fn names<'a>(pool: &'a PmemPool, plan: &RecoveryPlan) -> Vec<&'a [u8]> {
    plan.replay_records
        .iter()
        // SAFETY: the tests write nothing while they compare names.
        .map(|&off| unsafe { record::Header::read(pool, off).view(pool, off) }.name)
        .collect()
}

fn assert_same_plan(a: &RecoveryPlan, b: &RecoveryPlan) {
    assert_eq!(a.state, b.state);
    assert_eq!(a.redo_records, b.redo_records);
    assert_eq!(a.replay_records, b.replay_records);
    assert_eq!(a.pending, b.pending);
    assert_eq!(a.next_lsn, b.next_lsn);
    assert_eq!(a.active_tail, b.active_tail);
}

#[test]
fn crashed_swap_keeps_next_lsn_above_both_buffers() {
    let (pool, layout, root, log) = setup();
    commit_all(&log, &["a", "b", "c"]);
    let pending = leave_pending(&log, &["p", "q", "r"]);
    commit_all(&log, &["s"]);
    // The swap persists buffer 1's fence and relocates the three pending
    // records into it; the crash lands before the root transition.
    log.swap(|| pool.simulate_crash());

    let view = OpLog::attach(Arc::clone(&pool), layout, 0, 0, 0);
    let relocated = walk(&view, 1);
    assert_eq!(relocated.len(), 3, "relocations are durable and walkable");
    let max_lsn = walk(&view, 0)
        .iter()
        .chain(&relocated)
        .map(|r| r.lsn)
        .max()
        .unwrap();

    let plan = recover_scan(&pool, &layout, &root);
    assert_eq!(plan.state.active_log, 0, "the root transition never landed");
    assert!(plan.redo_records.is_none());
    assert!(
        plan.next_lsn > max_lsn,
        "next_lsn {} must exceed every persisted LSN (max {max_lsn})",
        plan.next_lsn
    );
    // Only the active log replays: its committed records, nothing from
    // the recycled buffer.
    assert_eq!(names(&pool, &plan), [b"a", b"b", b"c", b"s"]);
    let active = layout.log_records(0)..layout.log_records(0) + layout.log_size;
    assert!(plan.replay_records.iter().all(|off| active.contains(off)));
    assert_eq!(plan.pending, pending);

    // The resumed log stamps fresh records above the relocated ones.
    let log2 = plan.finish(Arc::clone(&pool), layout);
    assert!(log2.try_append(1, b"next", &[]).unwrap().lsn > max_lsn);
}

#[test]
fn archived_buffer_is_not_read_without_a_redo() {
    let (pool, layout, root, log) = setup();
    commit_all(&log, &["old1", "old2", "old3"]);
    log.swap(|| {
        root.begin_checkpoint();
    });
    root.commit_checkpoint();
    commit_all(&log, &["new1", "new2"]);
    leave_pending(&log, &["inflight"]);
    pool.simulate_crash();
    let before = recover_scan(&pool, &layout, &root);
    assert_eq!(before.state.archived_log(), 0);
    assert_eq!(names(&pool, &before), [b"new1", b"new2"]);

    // Overwrite the archived buffer's record area with a committed,
    // checksum-valid record whose LSN is above the active fence, and make
    // it durable. A scan that read the archived buffer would see it.
    let off = layout.log_records(0);
    let (name, params) = (b"stale".as_slice(), [0xEE; 16]);
    let len = record::encoded_len(name.len(), params.len());
    record::write_header(&pool, off, before.next_lsn + 1000, len, 1, name);
    record::write_params(&pool, off, name.len(), &params);
    record::write_body_hash(&pool, off);
    record::flush_record(&pool, off, len);
    record::set_commit(&pool, off, COMMIT_COMMITTED);
    pool.simulate_crash();
    let stale_view = OpLog::attach(Arc::clone(&pool), layout, 1, 0, 0);
    assert_eq!(
        walk(&stale_view, 0).len(),
        1,
        "the forged record is walkable"
    );

    assert_same_plan(&recover_scan(&pool, &layout, &root), &before);
}

#[test]
fn finish_aborts_pending_records_on_media() {
    let (pool, layout, root, log) = setup();
    commit_all(&log, &["x", "y"]);
    let pending = leave_pending(&log, &["z1", "z2"]);
    commit_all(&log, &["w"]);
    pool.simulate_crash();

    let plan1 = recover_scan(&pool, &layout, &root);
    assert_eq!(plan1.pending, pending);
    let _log = plan1.finish(Arc::clone(&pool), layout);
    // Crash again at once: the aborts must already be durable.
    pool.simulate_crash();

    let view = OpLog::attach(Arc::clone(&pool), layout, 0, 0, 0);
    let recs = walk(&view, 0);
    for off in &pending {
        let r = recs.iter().find(|r| r.off == *off).unwrap();
        assert_eq!(r.commit, COMMIT_ABORTED, "record at {off} not aborted");
    }
    assert!(recs.iter().all(|r| r.commit != COMMIT_PENDING));

    let plan2 = recover_scan(&pool, &layout, &root);
    assert!(plan2.pending.is_empty());
    assert_eq!(plan2.replay_records, plan1.replay_records);
    assert_eq!(plan2.active_tail, plan1.active_tail);
}
