//! Store-level statistics: operation counters and the Figure 10 storage
//! footprint.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative operation counters.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Completed put/create operations.
    pub puts: AtomicU64,
    /// Completed get operations.
    pub gets: AtomicU64,
    /// Completed deletes.
    pub deletes: AtomicU64,
    /// Completed partial writes (`owrite`).
    pub writes: AtomicU64,
    /// Completed partial reads (`oread`).
    pub reads: AtomicU64,
    /// Operations that had to retry due to a write-write conflict.
    pub ww_conflicts: AtomicU64,
    /// Reader back-offs due to an in-flight writer.
    pub rw_backoffs: AtomicU64,
    /// Appends that hit a full log and waited for a checkpoint.
    pub log_full_stalls: AtomicU64,
}

impl StoreStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
            + self.gets.load(Ordering::Relaxed)
            + self.deletes.load(Ordering::Relaxed)
            + self.writes.load(Ordering::Relaxed)
            + self.reads.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all counters. Loads are relaxed and
    /// per-counter, so the snapshot is not an atomic cut across counters
    /// — fine for reporting, not for invariant checks.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            elapsed_ns: dstore_telemetry::now_ns(),
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            ww_conflicts: self.ww_conflicts.load(Ordering::Relaxed),
            rw_backoffs: self.rw_backoffs.load(Ordering::Relaxed),
            log_full_stalls: self.log_full_stalls.load(Ordering::Relaxed),
        }
    }
}

/// Plain-integer copy of [`StoreStats`], mergeable across shards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// When the snapshot was taken, in process-monotonic nanoseconds
    /// ([`dstore_telemetry::now_ns`]) — the anchor that turns two
    /// snapshots into an ops/s rate. [`StatsSnapshot::merge`] keeps the
    /// latest anchor, so a fleet-merged snapshot diffs correctly too.
    pub elapsed_ns: u64,
    /// Completed put/create operations.
    pub puts: u64,
    /// Completed get operations.
    pub gets: u64,
    /// Completed deletes.
    pub deletes: u64,
    /// Completed partial writes (`owrite`).
    pub writes: u64,
    /// Completed partial reads (`oread`).
    pub reads: u64,
    /// Operations that had to retry due to a write-write conflict.
    pub ww_conflicts: u64,
    /// Reader back-offs due to an in-flight writer.
    pub rw_backoffs: u64,
    /// Appends that hit a full log and waited for a checkpoint.
    pub log_full_stalls: u64,
}

impl StatsSnapshot {
    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.puts + self.gets + self.deletes + self.writes + self.reads
    }

    /// Operations per second between `earlier` and this snapshot — 0.0
    /// on an empty interval, a same-clock-tick pair, or snapshots
    /// compared out of order (as merged fleet snapshots can be).
    pub fn rate_since(&self, earlier: &StatsSnapshot) -> f64 {
        dstore_telemetry::rate_between(
            self.total_ops(),
            earlier.total_ops(),
            self.elapsed_ns,
            earlier.elapsed_ns,
        )
    }

    /// Accumulates another snapshot (shard aggregation).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.elapsed_ns = self.elapsed_ns.max(other.elapsed_ns);
        self.puts += other.puts;
        self.gets += other.gets;
        self.deletes += other.deletes;
        self.writes += other.writes;
        self.reads += other.reads;
        self.ww_conflicts += other.ww_conflicts;
        self.rw_backoffs += other.rw_backoffs;
        self.log_full_stalls += other.log_full_stalls;
    }
}

/// Storage consumed across the three tiers (Figure 10). "We define space
/// amplification as the ratio of size of application data to the size of
/// space utilized by the storage system across DRAM, PMEM, and SSD."
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// DRAM bytes in use (system-space arena high water).
    pub dram_bytes: u64,
    /// PMEM bytes in use (root + both logs + both shadow regions' high
    /// water).
    pub pmem_bytes: u64,
    /// SSD bytes in use (allocated blocks + superblock).
    pub ssd_bytes: u64,
    /// Logical application data bytes.
    pub logical_bytes: u64,
}

impl Footprint {
    /// Total physical bytes.
    pub fn total(&self) -> u64 {
        self.dram_bytes + self.pmem_bytes + self.ssd_bytes
    }

    /// Accumulates another footprint (shard aggregation).
    pub fn merge(&mut self, other: &Footprint) {
        self.dram_bytes += other.dram_bytes;
        self.pmem_bytes += other.pmem_bytes;
        self.ssd_bytes += other.ssd_bytes;
        self.logical_bytes += other.logical_bytes;
    }

    /// Space amplification = physical / logical.
    pub fn amplification(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        self.total() as f64 / self.logical_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_amplification() {
        let f = Footprint {
            dram_bytes: 100,
            pmem_bytes: 200,
            ssd_bytes: 700,
            logical_bytes: 500,
        };
        assert_eq!(f.total(), 1000);
        assert!((f.amplification() - 2.0).abs() < 1e-9);
        let empty = Footprint {
            dram_bytes: 0,
            pmem_bytes: 0,
            ssd_bytes: 0,
            logical_bytes: 0,
        };
        assert_eq!(empty.amplification(), 0.0);
    }

    #[test]
    fn stats_total() {
        let s = StoreStats::new();
        s.puts.fetch_add(3, Ordering::Relaxed);
        s.gets.fetch_add(4, Ordering::Relaxed);
        assert_eq!(s.total_ops(), 7);
    }

    #[test]
    fn snapshot_copies_and_merges() {
        let s = StoreStats::new();
        s.puts.fetch_add(3, Ordering::Relaxed);
        s.ww_conflicts.fetch_add(1, Ordering::Relaxed);
        let a = s.snapshot();
        assert_eq!(a.puts, 3);
        assert_eq!(a.ww_conflicts, 1);
        assert_eq!(a.total_ops(), 3);

        let mut acc = StatsSnapshot::default();
        acc.merge(&a);
        acc.merge(&a);
        assert_eq!(acc.puts, 6);
        assert_eq!(acc.ww_conflicts, 2);
        // Merging keeps the latest time anchor, not the sum.
        assert_eq!(acc.elapsed_ns, a.elapsed_ns);
        // The live counters are untouched by snapshot/merge (the time
        // anchor of a later snapshot necessarily moves forward).
        let again = StatsSnapshot {
            elapsed_ns: a.elapsed_ns,
            ..s.snapshot()
        };
        assert_eq!(again, a);
    }

    #[test]
    fn rate_since_uses_the_monotonic_anchor() {
        let earlier = StatsSnapshot {
            elapsed_ns: 1_000_000_000,
            puts: 100,
            ..Default::default()
        };
        let later = StatsSnapshot {
            elapsed_ns: 3_000_000_000,
            puts: 100,
            gets: 500,
            ..Default::default()
        };
        // 500 new ops over 2 seconds.
        assert!((later.rate_since(&earlier) - 250.0).abs() < 1e-9);
        // Wrong-direction and zero-width diffs degrade to 0, not NaN.
        assert_eq!(earlier.rate_since(&later), 0.0);
        assert_eq!(later.rate_since(&later), 0.0);
    }

    #[test]
    fn footprint_merge_sums_tiers() {
        let mut acc = Footprint::default();
        let f = Footprint {
            dram_bytes: 1,
            pmem_bytes: 2,
            ssd_bytes: 3,
            logical_bytes: 4,
        };
        acc.merge(&f);
        acc.merge(&f);
        assert_eq!(acc.dram_bytes, 2);
        assert_eq!(acc.pmem_bytes, 4);
        assert_eq!(acc.ssd_bytes, 6);
        assert_eq!(acc.logical_bytes, 8);
    }
}
