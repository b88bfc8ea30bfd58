//! Device traffic counters.
//!
//! Figure 7 of the paper plots PMEM (and SSD) bandwidth alongside system
//! throughput to show that DStore's backend actually exploits the device
//! while other designs leave it idle. [`PmemStats`] is the counter set the
//! benchmark timelines sample.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative traffic counters for one emulated PMEM device.
///
/// All counters are monotonically increasing; timeline samplers compute
/// per-interval bandwidth by differencing successive snapshots.
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Bytes persisted via explicit flushes (cache-line writebacks).
    pub flush_bytes: AtomicU64,
    /// Number of flush calls.
    pub flush_ops: AtomicU64,
    /// Number of store fences.
    pub fences: AtomicU64,
    /// Bytes written through bulk paths (checkpoint page copies).
    pub bulk_write_bytes: AtomicU64,
    /// Bytes read through bulk paths (recovery copies, replay reads).
    pub bulk_read_bytes: AtomicU64,
    /// Cache lines persisted by simulated spurious evictions.
    pub evicted_lines: AtomicU64,
    /// Duplicate cache lines merged away inside a `persist_many` batch
    /// (overlapping ranges flushed once instead of twice).
    pub dedup_lines: AtomicU64,
}

/// A point-in-time copy of [`PmemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmemSnapshot {
    /// When the snapshot was taken, in process-monotonic nanoseconds
    /// ([`dstore_telemetry::now_ns`]) — the anchor that turns two
    /// snapshots into a bandwidth.
    pub elapsed_ns: u64,
    /// Bytes persisted via explicit flushes.
    pub flush_bytes: u64,
    /// Number of flush calls.
    pub flush_ops: u64,
    /// Number of store fences.
    pub fences: u64,
    /// Bytes written through bulk paths.
    pub bulk_write_bytes: u64,
    /// Bytes read through bulk paths.
    pub bulk_read_bytes: u64,
    /// Cache lines persisted by simulated spurious evictions.
    pub evicted_lines: u64,
    /// Duplicate cache lines merged away inside `persist_many` batches.
    pub dedup_lines: u64,
}

impl PmemStats {
    /// New zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_flush(&self, bytes: u64) {
        self.flush_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.flush_ops.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_fence(&self) {
        self.fences.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_bulk_write(&self, bytes: u64) {
        self.bulk_write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_bulk_read(&self, bytes: u64) {
        self.bulk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_evictions(&self, lines: u64) {
        self.evicted_lines.fetch_add(lines, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_dedup_lines(&self, lines: u64) {
        self.dedup_lines.fetch_add(lines, Ordering::Relaxed);
    }

    /// Total bytes that reached the persistent medium.
    pub fn total_write_bytes(&self) -> u64 {
        self.flush_bytes.load(Ordering::Relaxed) + self.bulk_write_bytes.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot for timeline sampling.
    pub fn snapshot(&self) -> PmemSnapshot {
        PmemSnapshot {
            elapsed_ns: dstore_telemetry::now_ns(),
            flush_bytes: self.flush_bytes.load(Ordering::Relaxed),
            flush_ops: self.flush_ops.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            bulk_write_bytes: self.bulk_write_bytes.load(Ordering::Relaxed),
            bulk_read_bytes: self.bulk_read_bytes.load(Ordering::Relaxed),
            evicted_lines: self.evicted_lines.load(Ordering::Relaxed),
            dedup_lines: self.dedup_lines.load(Ordering::Relaxed),
        }
    }
}

impl PmemSnapshot {
    /// Bytes written between `earlier` and `self`.
    pub fn write_bytes_since(&self, earlier: &PmemSnapshot) -> u64 {
        (self.flush_bytes + self.bulk_write_bytes)
            .saturating_sub(earlier.flush_bytes + earlier.bulk_write_bytes)
    }

    /// Bytes read between `earlier` and `self`.
    pub fn read_bytes_since(&self, earlier: &PmemSnapshot) -> u64 {
        self.bulk_read_bytes.saturating_sub(earlier.bulk_read_bytes)
    }

    /// Write bandwidth in bytes/second over the interval since
    /// `earlier` (0.0 on a same-tick or out-of-order pair of snapshots).
    pub fn write_rate_since(&self, earlier: &PmemSnapshot) -> f64 {
        dstore_telemetry::rate_between(
            self.flush_bytes + self.bulk_write_bytes,
            earlier.flush_bytes + earlier.bulk_write_bytes,
            self.elapsed_ns,
            earlier.elapsed_ns,
        )
    }

    /// Read bandwidth in bytes/second over the interval since `earlier`.
    pub fn read_rate_since(&self, earlier: &PmemSnapshot) -> f64 {
        dstore_telemetry::rate_between(
            self.bulk_read_bytes,
            earlier.bulk_read_bytes,
            self.elapsed_ns,
            earlier.elapsed_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = PmemStats::new();
        s.record_flush(64);
        s.record_flush(128);
        s.record_fence();
        s.record_bulk_write(4096);
        s.record_bulk_read(100);
        s.record_evictions(3);
        s.record_dedup_lines(2);
        let snap = s.snapshot();
        assert_eq!(snap.flush_bytes, 192);
        assert_eq!(snap.flush_ops, 2);
        assert_eq!(snap.fences, 1);
        assert_eq!(snap.bulk_write_bytes, 4096);
        assert_eq!(snap.bulk_read_bytes, 100);
        assert_eq!(snap.evicted_lines, 3);
        assert_eq!(snap.dedup_lines, 2);
        assert_eq!(s.total_write_bytes(), 192 + 4096);
    }

    #[test]
    fn snapshot_deltas() {
        let s = PmemStats::new();
        s.record_flush(64);
        let a = s.snapshot();
        s.record_flush(64);
        s.record_bulk_write(1000);
        s.record_bulk_read(500);
        let b = s.snapshot();
        assert_eq!(b.write_bytes_since(&a), 1064);
        assert_eq!(b.read_bytes_since(&a), 500);
        // Differencing in the wrong direction saturates instead of wrapping.
        assert_eq!(a.write_bytes_since(&b), 0);
    }
}
