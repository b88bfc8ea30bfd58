//! OE-parallel record replay — the shared engine behind checkpoint
//! apply and recovery (§3.7 applied to the backend).
//!
//! Records on distinct objects commute (observational equivalence), and
//! the frontend already derives a stable partition of objects: the
//! name-directed block-pool shard, `fnv1a(name) % pool_shards`. Because
//! an op holds its shard lock across log reservation + allocation,
//! per-shard pool order equals per-shard LSN order — so replaying each
//! shard's records in log order, shards in parallel, reconstructs the
//! exact per-shard block-pool state and the per-object LSN order the
//! frontend produced.
//!
//! That invariant has one exception: a starved op escalates to all shard
//! locks and *steals* blocks from a foreign shard. Such an allocation
//! interleaves two shards' pop streams, so shard-parallel replay would
//! diverge. The frontend stamps every stealing record with
//! [`record::OP_STEAL_FLAG`]; any window containing one degrades to the
//! serialized fallback (whole window in log order on one thread), which
//! is trivially equivalent — counted in
//! [`ReplayStats::serial_fallbacks`].
//!
//! Worker-local state: each worker attaches its own [`Domain`] (the
//! domain carries a `Cell`-based steal latch, so it is deliberately
//! `!Sync`). B-tree coordination depends on the store's index mode: with
//! OLC (the default) workers pass [`IndexSync::Olc`] and rely on the
//! tree's own per-node version latches — no shared lock at all; in
//! global-lock mode they share one B-tree `RwLock` through
//! [`IndexSync::Shared`] — lookups take it `read`, structural
//! insert/remove take it `write`. Everything else partitions cleanly:
//! same name → same shard → same worker (per-object metadata, overflow
//! chains), pool headers are per-shard, directory counters are atomic.

use crate::structures::{Directory, Domain, IndexSync};
use dstore_arena::{Arena, Memory, RelPtr};
use dstore_dipper::record::{self, OwnedRecord};
use dstore_dipper::usable_workers;
use dstore_index::OlcStats;
use dstore_telemetry::{now_ns, SpanRing};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of the parallel replay engine, shared by the checkpoint
/// applier and recovery. Exported through the store's telemetry snapshot
/// (`dstore_replay_*_total`).
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Replay windows processed: every window of at most
    /// [`dstore_dipper::APPLY_WINDOW`] records a checkpoint apply or redo
    /// hands the applier (none when it has no committed records), plus
    /// one for recovery's active-log replay, empty or not. A checkpoint
    /// of N records counts ⌈N / `APPLY_WINDOW`⌉.
    pub windows: AtomicU64,
    /// Shard groups replayed (serial windows count as one group).
    pub groups: AtomicU64,
    /// Non-empty windows that took the parallel path. A non-empty window
    /// counted neither here nor in `serial_fallbacks` ran serial because
    /// only one worker was usable (`replay_threads = 1`, or the replaying
    /// thread may run on a single CPU).
    pub parallel_windows: AtomicU64,
    /// Windows that degraded to the serialized fallback because a record
    /// carried the steal flag while more than one worker was usable.
    pub serial_fallbacks: AtomicU64,
    /// Records replayed.
    pub records: AtomicU64,
    /// Serialized (non-overlappable) nanoseconds: the whole loop for
    /// serial windows; grouping plus — in global-lock index mode — the
    /// B-tree write-lock *hold* time for parallel ones (under OLC there
    /// is no shared index lock, so only grouping is serialized).
    /// `records / serialized_ns` is the admission-rate bound the
    /// `fig13_checkpoint_apply` bench reports.
    pub serialized_ns: AtomicU64,
    /// Records whose replay diverged from the frontend (see
    /// [`Domain::replay_in`]). Anything but 0 is a bug.
    pub divergences: AtomicU64,
}

/// Plain-value copy of [`ReplayStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySnapshot {
    /// See [`ReplayStats::windows`].
    pub windows: u64,
    /// See [`ReplayStats::groups`].
    pub groups: u64,
    /// See [`ReplayStats::parallel_windows`].
    pub parallel_windows: u64,
    /// See [`ReplayStats::serial_fallbacks`].
    pub serial_fallbacks: u64,
    /// See [`ReplayStats::records`].
    pub records: u64,
    /// See [`ReplayStats::serialized_ns`].
    pub serialized_ns: u64,
    /// See [`ReplayStats::divergences`].
    pub divergences: u64,
}

impl ReplayStats {
    /// Reads every counter (relaxed — diagnostics, not synchronization).
    pub fn snapshot(&self) -> ReplaySnapshot {
        ReplaySnapshot {
            windows: self.windows.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            parallel_windows: self.parallel_windows.load(Ordering::Relaxed),
            serial_fallbacks: self.serial_fallbacks.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            serialized_ns: self.serialized_ns.load(Ordering::Relaxed),
            divergences: self.divergences.load(Ordering::Relaxed),
        }
    }
}

/// Replays one window of committed records onto the structures in
/// `arena`, using [`usable_workers`]`(threads)` workers — `threads`
/// capped by the CPUs the calling thread may run on, counted now.
///
/// One usable worker or a steal-flagged record in the window selects the
/// serialized path: the whole window in log order on the calling thread,
/// with stealing allowed (exactly what the frontend did) and the
/// exclusive index descent (the window owns its arena). The parallel
/// path groups records by pool shard and replays groups concurrently
/// with stealing *forbidden* — a `ShardStarved` there would mean a
/// stealing record escaped its flag, which is a bug worth the panic (the
/// checkpoint worker catches it; the store stays consistent because the
/// root never commits).
///
/// Per-group spans (`replay_group`, payload `a` = shard, `b` = records;
/// `replay_serial` for the fallback) land in `ring` when given — the
/// checkpoint ring for applies, the recovery ring for recovery.
///
/// `olc` selects the parallel workers' index coordination: `Some(stats)`
/// uses the B-tree's optimistic lock coupling (restarts/latch waits
/// counted in `stats`), `None` the shared-`RwLock` baseline.
pub fn replay_window<M: Memory>(
    arena: &Arena<M>,
    dir: RelPtr<Directory>,
    records: &[OwnedRecord],
    threads: usize,
    stats: &ReplayStats,
    ring: Option<&SpanRing>,
    olc: Option<&OlcStats>,
) {
    stats.windows.fetch_add(1, Ordering::Relaxed);
    stats
        .records
        .fetch_add(records.len() as u64, Ordering::Relaxed);
    if records.is_empty() {
        return;
    }

    let threads = usable_workers(threads);
    let stole = records.iter().any(|r| record::op_stole(r.op));
    if threads <= 1 || stole {
        if stole && threads > 1 {
            stats.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = now_ns();
        let domain = Domain::attach(arena, dir);
        let diverged = records.iter().filter(|r| domain.replay(r)).count();
        stats
            .divergences
            .fetch_add(diverged as u64, Ordering::Relaxed);
        let end = now_ns();
        stats
            .serialized_ns
            .fetch_add(end.saturating_sub(t0), Ordering::Relaxed);
        stats.groups.fetch_add(1, Ordering::Relaxed);
        if let Some(ring) = ring {
            ring.record("replay_serial", t0, end, stole as u64, records.len() as u64);
        }
        return;
    }

    // Group record indices by pool shard; order within a group is log
    // order, which per the shard-lock invariant is that shard's pool
    // order and (a fortiori) per-object LSN order.
    let t_group = now_ns();
    let shards = Domain::attach(arena, dir).pool_shards().max(1);
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
    {
        let d = Domain::attach(arena, dir);
        for (i, r) in records.iter().enumerate() {
            by_shard[d.shard_of_name(&r.name)].push(i);
        }
    }
    let groups: Vec<(usize, Vec<usize>)> = by_shard
        .into_iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .collect();
    let workers = threads.min(groups.len()).max(1);
    stats.parallel_windows.fetch_add(1, Ordering::Relaxed);
    stats
        .groups
        .fetch_add(groups.len() as u64, Ordering::Relaxed);
    let group_ns = now_ns().saturating_sub(t_group);

    let btree_lock = RwLock::new(());
    let write_ns = AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let groups = &groups;
            let btree_lock = &btree_lock;
            let write_ns = &write_ns;
            s.spawn(move || {
                let domain = Domain::attach(arena, dir);
                let sync = match olc {
                    Some(stats) => IndexSync::Olc { stats },
                    None => IndexSync::Shared {
                        lock: btree_lock,
                        write_ns,
                    },
                };
                for (shard, group) in groups.iter().skip(w).step_by(workers) {
                    let t0 = now_ns();
                    let diverged = group
                        .iter()
                        .filter(|&&i| domain.replay_in(&records[i], false, &sync))
                        .count();
                    stats
                        .divergences
                        .fetch_add(diverged as u64, Ordering::Relaxed);
                    if let Some(ring) = ring {
                        ring.record(
                            "replay_group",
                            t0,
                            now_ns(),
                            *shard as u64,
                            group.len() as u64,
                        );
                    }
                }
            });
        }
    });
    stats.serialized_ns.fetch_add(
        group_ns + write_ns.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore_dipper::record::{name_hash, COMMIT_COMMITTED, OP_STEAL_FLAG};

    fn rec(name: &str, lsn: u64, op: u16) -> OwnedRecord {
        OwnedRecord {
            lsn,
            op,
            commit: COMMIT_COMMITTED,
            name: name.as_bytes().to_vec(),
            params: vec![],
            off: 0,
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

    #[test]
    fn steal_flag_detection_is_masked_from_op_code() {
        let r = rec("x", 1, 3 | OP_STEAL_FLAG);
        assert!(record::op_stole(r.op));
        assert_eq!(record::op_code(r.op), 3);
        let clean = rec("x", 2, 3);
        assert!(!record::op_stole(clean.op));
    }

    /// Grouping preserves per-object order: all records of one name land
    /// in one group, in LSN order (mirrors the former dipper-side
    /// `group_by_object` unit test, now against the real shard key).
    #[test]
    fn grouping_preserves_per_object_order() {
        let records: Vec<OwnedRecord> = (0..100)
            .map(|i| rec(&format!("obj{}", i % 7), i + 1, 1))
            .collect();
        let shards = 4usize;
        let mut groups: Vec<Vec<&OwnedRecord>> = vec![Vec::new(); shards];
        for r in &records {
            groups[(name_hash(&r.name) as usize) % shards].push(r);
        }
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 100);
        for g in &groups {
            let mut last: std::collections::HashMap<&[u8], u64> = Default::default();
            for r in g {
                if let Some(&prev) = last.get(r.name.as_slice()) {
                    assert!(r.lsn > prev, "order violated within group");
                }
                last.insert(&r.name, r.lsn);
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
}
