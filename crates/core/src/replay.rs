//! OE-parallel record replay — the shared engine behind checkpoint
//! apply and recovery (§3.7 applied to the backend).
//!
//! Records on distinct objects commute (observational equivalence). Each
//! record names the block ids it claimed, and replay applies claims and
//! releases as atomic adds on the pool's ownership map, so even the pool
//! state is independent of the order in which records on different
//! objects replay. Replay groups a window's records by the name's pool
//! shard (`fnv1a(name) % pool_shards`) only to keep each object's records
//! in LSN order on one worker; groups replay concurrently.
//!
//! Each run of records — the whole window on the serial path, one group
//! on a parallel worker — replays in batches of `REPLAY_BATCH` (16)
//! consecutive records, in two passes per batch: first every name of the
//! batch is looked up in one level-synchronous B-tree descent, and each
//! hit's entry line and inline slot are requested from memory
//! ([`Domain::find_many`]); then the records apply in log order. The
//! misses of a whole batch overlap, and log order, with the locality it
//! carries, is kept. An early lookup stays right unless an earlier record
//! of the same batch is on the same name; such a record is looked up
//! again at its turn. Records on other names commute with it, and a
//! lookup's result is an entry, not a tree position, so the splits and
//! merges they cause cannot invalidate it.
//!
//! After each window, every block id the window claimed or released must
//! be owned at most once; any other owner count is a divergence, counted
//! in [`ReplayStats::divergences`] and named (id and LSN) on stderr in
//! every build.
//!
//! Worker-local state: each worker attaches its own [`Domain`]. The
//! workers share one B-tree `RwLock` through [`IndexSync::Shared`] —
//! lookups take it `read`, structural insert/remove take it `write`.
//! Everything else partitions cleanly: same name → same group → same
//! worker (per-object metadata, overflow chains); pool claims and
//! directory counters are atomic.

use crate::structures::{Directory, Domain, IndexSync};
use dstore_arena::{Arena, Memory, RelPtr};
use dstore_dipper::record::RecordView;
use dstore_dipper::usable_workers;
use dstore_telemetry::{now_ns, Counter, MetricsRegistry, SpanRing};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters of the parallel replay engine, shared by the checkpoint
/// applier and recovery. Each is a registry counter of the store's
/// telemetry, read through its snapshot as `dstore_replay_*_total`;
/// [`Default`] makes a set registered nowhere.
#[derive(Debug, Default, Clone)]
pub struct ReplayStats {
    /// Replay windows processed: every window of at most
    /// [`dstore_dipper::APPLY_WINDOW`] records a checkpoint apply or redo
    /// hands the applier (none when it has no committed records), plus
    /// one for recovery's active-log replay, empty or not. A checkpoint
    /// of N records counts ⌈N / `APPLY_WINDOW`⌉.
    pub windows: Arc<Counter>,
    /// Shard groups replayed (serial windows count as one group).
    pub groups: Arc<Counter>,
    /// Non-empty windows that took the parallel path. A non-empty window
    /// not counted here ran serial because the replaying thread may run
    /// on a single CPU.
    pub parallel_windows: Arc<Counter>,
    /// Records replayed.
    pub records: Arc<Counter>,
    /// Serialized (non-overlappable) nanoseconds: the whole loop for
    /// serial windows; grouping, the B-tree write-lock *hold* time and
    /// the ownership check for parallel ones.
    /// `records / serialized_ns` is the admission-rate bound of one
    /// replay pipeline.
    pub serialized_ns: Arc<Counter>,
    /// Records whose replay diverged from the frontend (see
    /// [`Domain::replay`]) plus block ids a window left owned other than
    /// 0 or 1 times. Anything but 0 is a bug.
    pub divergences: Arc<Counter>,
}

impl ReplayStats {
    /// The six counters, registered in `registry` under their
    /// `dstore_replay_*_total` names.
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        let c = |name: &str| registry.counter(name, &[]);
        ReplayStats {
            windows: c("dstore_replay_windows_total"),
            groups: c("dstore_replay_groups_total"),
            parallel_windows: c("dstore_replay_parallel_windows_total"),
            records: c("dstore_replay_records_total"),
            serialized_ns: c("dstore_replay_serialized_ns_total"),
            divergences: c("dstore_replay_divergence_total"),
        }
    }
}

/// Replays one window of committed records onto the structures in
/// `arena`, using [`usable_workers`] workers: the CPUs the calling thread
/// may run on, counted now.
///
/// One usable worker replays the whole window in log order on the
/// calling thread, with the exclusive index descent (the window owns its
/// arena). More group the records by pool shard and replay the groups
/// concurrently. Either way the window ends with the ownership check.
///
/// Per-group spans (`replay_group`, payload `a` = shard, `b` = records;
/// `replay_serial` for the one-worker path) land in `ring` — the
/// checkpoint ring for applies, the recovery ring for recovery.
pub fn replay_window<M: Memory>(
    arena: &Arena<M>,
    dir: RelPtr<Directory>,
    records: &[RecordView<'_>],
    stats: &ReplayStats,
    ring: &SpanRing,
) {
    stats.windows.inc();
    stats.records.add(records.len() as u64);
    if records.is_empty() {
        return;
    }

    let threads = usable_workers();
    let domain = Domain::attach(arena, dir);
    let mut touched = Vec::new();
    let t0 = now_ns();
    let serialized_ns = if threads <= 1 {
        let diverged = replay_run(&domain, records.iter(), &IndexSync::Exclusive, &mut touched);
        stats.divergences.add(diverged as u64);
        stats.groups.inc();
        let end = now_ns();
        ring.record("replay_serial", t0, end, 0, records.len() as u64);
        end.saturating_sub(t0)
    } else {
        // Group record indices by pool shard; order within a group is
        // log order, so each object's records stay in LSN order.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); domain.pool_shards()];
        for (i, r) in records.iter().enumerate() {
            by_shard[domain.shard_of_name(r.name)].push(i);
        }
        let groups: Vec<(usize, Vec<usize>)> = by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .collect();
        let workers = threads.min(groups.len()).max(1);
        stats.parallel_windows.inc();
        stats.groups.add(groups.len() as u64);
        let group_ns = now_ns().saturating_sub(t0);

        let btree_lock = RwLock::new(());
        let write_ns = AtomicU64::new(0);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..workers)
                .map(|w| {
                    let (groups, btree_lock, write_ns) = (&groups, &btree_lock, &write_ns);
                    s.spawn(move || {
                        let domain = Domain::attach(arena, dir);
                        let sync = IndexSync::Shared {
                            lock: btree_lock,
                            write_ns,
                        };
                        let mut touched = Vec::new();
                        for (shard, group) in groups.iter().skip(w).step_by(workers) {
                            let t0 = now_ns();
                            let recs = group.iter().map(|&i| &records[i]);
                            let diverged = replay_run(&domain, recs, &sync, &mut touched);
                            stats.divergences.add(diverged as u64);
                            let (shard, n) = (*shard as u64, group.len() as u64);
                            ring.record("replay_group", t0, now_ns(), shard, n);
                        }
                        touched
                    })
                })
                .collect();
            for w in workers {
                touched.extend(w.join().expect("replay worker panicked"));
            }
        });
        group_ns + write_ns.load(Ordering::Relaxed)
    };

    let t_check = now_ns();
    let errors = domain.ownership_errors(&touched);
    for (id, owners, lsn) in &errors {
        eprintln!("replay divergence: block {id} has {owners} owners after LSN {lsn}");
    }
    stats.divergences.add(errors.len() as u64);
    stats
        .serialized_ns
        .add(serialized_ns + now_ns().saturating_sub(t_check));
}

/// Records [`replay_run`] looks up and fetches together before it applies
/// them. A sweep of 8, 16, 32 and 64 on the one-CPU recovery measured
/// 16 and 32 best, 8 slower and 64 no better (EXPERIMENTS.md, "Batched
/// replay").
pub(crate) const REPLAY_BATCH: usize = 16;

/// A name's length and last eight bytes as one word: equal names have
/// equal tags, so comparing tags first spares most name comparisons.
fn name_tag(name: &[u8]) -> u64 {
    let mut last = [0u8; 8];
    let n = name.len().min(8);
    last[8 - n..].copy_from_slice(&name[name.len() - n..]);
    u64::from_le_bytes(last) ^ ((name.len() as u64) << 56)
}

/// Replays `records` in order on `domain` and returns how many diverged.
///
/// The records go in batches of [`REPLAY_BATCH`] consecutive records, and
/// each batch in two passes. The first looks up every name of the batch
/// in one level-synchronous descent and starts the misses on each entry
/// and its slot ([`Domain::find_many`]), so the misses of the whole batch
/// overlap. The second applies the records in log order. A record's early
/// lookup stays right unless an earlier record of the same batch is on
/// the same name: only a record on a name creates, frees or refills that
/// name's entry and slot. Such a record is looked up again at its turn.
fn replay_run<'r, M: Memory>(
    domain: &Domain<'_, M>,
    mut records: impl Iterator<Item = &'r RecordView<'r>>,
    sync: &IndexSync<'_>,
    touched: &mut Vec<(u64, u64)>,
) -> usize {
    let mut batch: Vec<&RecordView<'_>> = Vec::with_capacity(REPLAY_BATCH);
    let mut names = Vec::with_capacity(REPLAY_BATCH);
    let mut tags = [0u64; REPLAY_BATCH];
    let mut entries = [None; REPLAY_BATCH];
    let mut diverged = 0;
    loop {
        batch.clear();
        batch.extend(records.by_ref().take(REPLAY_BATCH));
        if batch.is_empty() {
            return diverged;
        }
        names.clear();
        names.extend(batch.iter().map(|r| r.name));
        let entries = &mut entries[..batch.len()];
        domain.find_many(&names, sync, entries);
        for (tag, name) in tags.iter_mut().zip(&names) {
            *tag = name_tag(name);
        }
        for (i, rec) in batch.iter().enumerate() {
            if (0..i).any(|j| tags[j] == tags[i] && names[j] == rec.name) {
                domain.find_many(&[rec.name], sync, &mut entries[i..=i]);
            }
            diverged += domain.replay(rec, entries[i], sync, touched) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, ExtendParams, InlineParams, PhysImage, PutParams};
    use dstore_arena::DramMemory;
    use dstore_dipper::on_one_cpu;
    use dstore_dipper::record::{name_hash, COMMIT_COMMITTED};

    fn rec(name: &str, lsn: u64, op: u16) -> RecordView<'_> {
        RecordView {
            lsn,
            op,
            commit: COMMIT_COMMITTED,
            off: 0,
            name: name.as_bytes(),
            params: &[],
        }
    }

    /// The grouping key must match the frontend's shard derivation:
    /// `dstore_index::fnv1a` and `record::name_hash` are the same FNV-1a.
    #[test]
    fn shard_key_matches_frontend_hash() {
        for name in ["a", "obj42", "some-longer-object-name"] {
            assert_eq!(
                dstore_index::fnv1a(name.as_bytes()),
                name_hash(name.as_bytes()),
            );
        }
    }

    /// Grouping preserves per-object order: all records of one name land
    /// in one group, in LSN order (mirrors the former dipper-side
    /// `group_by_object` unit test, now against the real shard key).
    #[test]
    fn grouping_preserves_per_object_order() {
        let names: Vec<String> = (0..100).map(|i| format!("obj{}", i % 7)).collect();
        let records: Vec<RecordView> = (0..100).map(|i| rec(&names[i], i as u64 + 1, 1)).collect();
        let shards = 4usize;
        let mut groups: Vec<Vec<&RecordView>> = vec![Vec::new(); shards];
        for r in &records {
            groups[(name_hash(r.name) as usize) % shards].push(r);
        }
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 100);
        for g in &groups {
            let mut last: std::collections::HashMap<&[u8], u64> = Default::default();
            for r in g {
                if let Some(&prev) = last.get(r.name) {
                    assert!(r.lsn > prev, "order violated within group");
                }
                last.insert(r.name, r.lsn);
            }
        }
        for i in 0..7 {
            let name = format!("obj{i}");
            let g = (name_hash(name.as_bytes()) as usize) % shards;
            for (gi, grp) in groups.iter().enumerate() {
                let here = grp.iter().filter(|r| r.name == name.as_bytes()).count();
                assert_eq!(here > 0, gi == g);
            }
        }
    }

    /// A block claimed twice, and a free block released, each count one
    /// divergence at the end of their window — in every build, since the
    /// check is no debug assertion.
    #[test]
    fn ownership_errors_count_as_divergences() {
        let arena = Arena::create(DramMemory::new(4 << 20));
        let dir = Domain::format(&arena, 64).dir_ptr();
        let stats = ReplayStats::default();
        let window = |recs: &[(&str, u16, Vec<u8>)]| {
            let views: Vec<_> = recs
                .iter()
                .enumerate()
                .map(|(i, (name, op, params))| RecordView {
                    params,
                    ..rec(name, i as u64 + 1, *op)
                })
                .collect();
            replay_window(&arena, dir, &views, &stats, &SpanRing::new(8));
            stats.divergences.get()
        };
        let double_claim = window(&[
            ("a", ops::OP_PUT, PutParams::encode(4096, &[5])),
            ("b", ops::OP_PUT, PutParams::encode(4096, &[5])),
        ]);
        assert_eq!(double_claim, 1);
        let free_release = PhysImage {
            size: 4096,
            blocks: vec![6],
            pops: 1,
            pushes: vec![7],
            inline: vec![],
        };
        let released = window(&[("a", ops::OP_PHYS_INSTALL, free_release.encode())]);
        assert_eq!(released, 2);
    }

    /// A record that cannot apply to the entry's representation — a touch
    /// of an inline entry, an extend of one that claims fewer blocks than
    /// its new size needs — is a divergence that leaves the entry as it
    /// was. Every build counts one each.
    #[test]
    fn mismatched_representation_is_a_divergence() {
        let arena = Arena::create(DramMemory::new(4 << 20));
        let dir = Domain::format(&arena, 64).dir_ptr();
        let stats = ReplayStats::default();
        let replay = |op: u16, params: Vec<u8>, lsn: u64| {
            let view = RecordView {
                params: &params,
                ..rec("a", lsn, op)
            };
            // One record per window, on the serial path.
            on_one_cpu(|| replay_window(&arena, dir, &[view], &stats, &SpanRing::new(8)));
            stats.divergences.get()
        };
        assert_eq!(
            replay(ops::OP_PUT_INLINE, InlineParams::encode(b"small"), 1),
            0
        );
        assert_eq!(replay(ops::OP_TOUCH, PutParams::encode(4096, &[]), 2), 1);
        assert_eq!(
            replay(ops::OP_EXTEND, ExtendParams::encode(0, 9000, &[3, 4]), 3),
            2
        );
        let d = Domain::attach(&arena, dir);
        let e = d.lookup(b"a").unwrap();
        assert_eq!(d.read_entry(e).0, 5);
        // SAFETY: single-threaded test; the slot is live.
        let (off, len) = d.slot_of(e).unwrap();
        assert_eq!(unsafe { d.slot_bytes(off, len) }, b"small");
        // An extend that claims every block of its new size applies.
        assert_eq!(
            replay(ops::OP_EXTEND, ExtendParams::encode(0, 9000, &[3, 4, 5]), 4),
            2
        );
        let d = Domain::attach(&arena, dir);
        let e = d.lookup(b"a").unwrap();
        assert_eq!(d.read_entry(e), (9000, 2, vec![3, 4, 5]));
        assert_eq!(d.slot_of(e), None);
    }
}
