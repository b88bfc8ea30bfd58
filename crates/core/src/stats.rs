//! The Figure 10 storage footprint. Operation counters live in the
//! store's telemetry registry (`DStore::telemetry_snapshot`).

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
