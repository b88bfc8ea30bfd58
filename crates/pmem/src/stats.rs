//! Device traffic counters.
//!
//! Figure 7 of the paper plots PMEM (and SSD) bandwidth alongside system
//! throughput to show that DStore's backend actually exploits the device
//! while other designs leave it idle. [`PmemStats`] holds the counters
//! behind that plot and behind the flush/fence budget.

use dstore_telemetry::{Counter, MetricsRegistry};
use std::sync::Arc;

/// Cumulative traffic counters of one emulated PMEM device, owned by its
/// [`crate::PmemPool`]. Each is a registry [`Counter`] that lives as long
/// as the pool, so it keeps counting across a simulated crash and the
/// recovery that reuses the pool. [`PmemStats::register`] exports them.
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Bytes persisted via explicit flushes (cache-line writebacks).
    pub flush_bytes: Arc<Counter>,
    /// Number of flush calls.
    pub flush_ops: Arc<Counter>,
    /// Number of store fences.
    pub fences: Arc<Counter>,
    /// Bytes written through bulk paths (checkpoint page copies).
    pub bulk_write_bytes: Arc<Counter>,
    /// Bytes read through bulk paths (recovery copies, replay reads).
    pub bulk_read_bytes: Arc<Counter>,
    /// Duplicate cache lines merged away inside a `persist_many` batch
    /// (overlapping ranges flushed once instead of twice).
    pub dedup_lines: Arc<Counter>,
}

impl PmemStats {
    /// Registers every counter in `registry` under its
    /// `dstore_pmem_*_total` name.
    pub fn register(&self, registry: &MetricsRegistry) {
        registry.register_counter("dstore_pmem_flush_bytes_total", &self.flush_bytes);
        registry.register_counter("dstore_pmem_flushes_total", &self.flush_ops);
        registry.register_counter("dstore_pmem_fences_total", &self.fences);
        registry.register_counter("dstore_pmem_bulk_write_bytes_total", &self.bulk_write_bytes);
        registry.register_counter("dstore_pmem_bulk_read_bytes_total", &self.bulk_read_bytes);
        registry.register_counter("dstore_pmem_dedup_lines_total", &self.dedup_lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmemPool;

    #[test]
    fn counters_accumulate() {
        let p = PmemPool::anon(1 << 16);
        p.flush(0, 64);
        p.flush(64, 128);
        p.fence();
        p.bulk_persist(4096, 4096);
        p.bulk_read_charge(100);
        p.persist_many(&[(0, 8), (8, 8)]);
        let registry = MetricsRegistry::new();
        p.stats().register(&registry);
        let snap = registry.snapshot();
        let c = |name| snap.counter_total(name);
        assert_eq!(c("dstore_pmem_flush_bytes_total"), 64 + 128 + 64);
        assert_eq!(c("dstore_pmem_flushes_total"), 3);
        assert_eq!(c("dstore_pmem_fences_total"), 2);
        assert_eq!(c("dstore_pmem_bulk_write_bytes_total"), 4096);
        assert_eq!(c("dstore_pmem_bulk_read_bytes_total"), 100);
        assert_eq!(c("dstore_pmem_dedup_lines_total"), 1);
    }
}
