//! Metadata-update cost models for PMEM-aware filesystems (Figure 6).
//!
//! "We measure the metadata overhead of 4 KB writes to a file for each
//! system" (§5.2). Each model performs the PMEM persistence operations
//! its filesystem executes per 4 KB file write:
//!
//! * **xfs-DAX** — in-place inode update plus an XFS log (journal) record
//!   for the transaction: journal record + inode, each flushed+fenced.
//! * **ext4-DAX** — jbd2 journals whole metadata *blocks*: descriptor +
//!   a 4 KB block image + commit record, flushed+fenced in order.
//! * **NOVA** — appends a 64 B entry to the inode's per-inode log and
//!   persists the log tail: two small flush+fence pairs ("NOVA must
//!   update the file's inode as well as add the operation to the inode's
//!   log, both of which must be made in PMEM").
//! * **DStore** — updates metadata *in DRAM* and appends one compact
//!   logical record to the DIPPER log: a single cache-line flush+fence.

use dstore_pmem::latency::spin_for_ns;
use dstore_pmem::PmemPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which filesystem's metadata path to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    /// xfs with DAX.
    XfsDax,
    /// ext4 with DAX (jbd2 block journaling).
    Ext4Dax,
    /// NOVA (per-inode logs).
    Nova,
    /// DStore's DIPPER metadata path.
    DStore,
}

impl FsKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FsKind::XfsDax => "xfs-DAX",
            FsKind::Ext4Dax => "ext4-DAX",
            FsKind::Nova => "NOVA",
            FsKind::DStore => "DStore",
        }
    }

    /// All kinds, in the paper's figure order.
    pub fn all() -> [FsKind; 4] {
        [
            FsKind::DStore,
            FsKind::Nova,
            FsKind::XfsDax,
            FsKind::Ext4Dax,
        ]
    }
}

/// A filesystem metadata-path model over an emulated PMEM device.
pub struct DaxFs {
    kind: FsKind,
    pool: Arc<PmemPool>,
    cursor: AtomicUsize,
    /// Software path cost in ns (VFS + allocator + tree walk), calibrated
    /// per system; DStore's userspace run-to-completion path avoids most
    /// of it (§5.2 "avoiding context switches in the critical path").
    software_ns: u64,
}

impl DaxFs {
    /// Creates a model of `kind` over `pool`.
    pub fn new(kind: FsKind, pool: Arc<PmemPool>) -> Self {
        let software_ns = match kind {
            // Kernel VFS entry/exit + journal machinery.
            FsKind::XfsDax => 900,
            FsKind::Ext4Dax => 900,
            FsKind::Nova => 500,
            // Userspace run-to-completion.
            FsKind::DStore => 100,
        };
        Self {
            kind,
            pool,
            cursor: AtomicUsize::new(0),
            software_ns,
        }
    }

    fn bump(&self, len: usize) -> usize {
        let off = self.cursor.fetch_add(len, Ordering::Relaxed);
        off % (self.pool.len() - 8192)
    }

    /// Performs the metadata work of one 4 KB file write.
    pub fn metadata_update(&self) {
        spin_for_ns(self.software_ns);
        match self.kind {
            FsKind::XfsDax => {
                // XFS log record (~256 B: transaction header + inode core)
                let off = self.bump(256);
                self.pool.write_bytes(off, &[0xAA; 256]);
                self.pool.persist(off, 256);
                // In-place inode timestamp/size update.
                let ino = self.bump(64);
                self.pool.write_bytes(ino, &[0xBB; 64]);
                self.pool.persist(ino, 64);
            }
            FsKind::Ext4Dax => {
                // jbd2: descriptor block + full 4 KB metadata block image
                // + commit block.
                let off = self.bump(4096 + 128);
                self.pool.write_bytes(off, &[0xCC; 64]);
                self.pool.persist(off, 64);
                let img = self.bump(4096);
                self.pool.write_bytes(img, &[0xDD; 4096]);
                self.pool.persist(img, 4096);
                let commit = self.bump(64);
                self.pool.write_bytes(commit, &[0xEE; 64]);
                self.pool.persist(commit, 64);
            }
            FsKind::Nova => {
                // Per-inode log entry (64 B) + log tail pointer.
                let entry = self.bump(64);
                self.pool.write_bytes(entry, &[0x11; 64]);
                self.pool.persist(entry, 64);
                let tail = self.bump(8);
                self.pool.write_bytes(tail, &[0x22; 8]);
                self.pool.persist(tail, 8);
            }
            FsKind::DStore => {
                // DRAM metadata update (free) + one compact logical
                // record: a single cache-line flush + fence.
                let rec = self.bump(64);
                self.pool.write_bytes(rec, &[0x33; 48]);
                self.pool.persist(rec, 48);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore_pmem::{LatencyModel, PoolBuilder};
    use std::time::Instant;

    fn timed_pool() -> Arc<PmemPool> {
        Arc::new(
            PoolBuilder::new(16 << 20)
                .latency(LatencyModel::optane())
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn ordering_matches_figure6() {
        // DStore < NOVA < xfs-DAX < ext4-DAX in metadata cost. Other test
        // threads add noise to spin-injected latencies, so take the
        // minimum of several batches (robust to interference spikes).
        let pool = timed_pool();
        let mut costs = vec![];
        for kind in FsKind::all() {
            let fs = DaxFs::new(kind, Arc::clone(&pool));
            fs.metadata_update(); // warm
            let mut best = u64::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                for _ in 0..300 {
                    fs.metadata_update();
                }
                best = best.min(t.elapsed().as_nanos() as u64 / 300);
            }
            costs.push((kind, best));
        }
        // `all()` is ordered cheapest-first.
        for w in costs.windows(2) {
            assert!(
                w[0].1 < w[1].1,
                "{:?} ({} ns) should be cheaper than {:?} ({} ns)",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        // DStore is several times cheaper than ext4-DAX.
        let dstore = costs[0].1;
        let ext4 = costs[3].1;
        assert!(ext4 > 3 * dstore, "ext4 {ext4} vs dstore {dstore}");
    }

    #[test]
    fn updates_touch_pmem() {
        let pool = Arc::new(PmemPool::anon(16 << 20));
        let fs = DaxFs::new(FsKind::Nova, Arc::clone(&pool));
        fs.metadata_update();
        let s = pool.stats();
        assert!(s.flush_bytes.get() > 0);
        assert!(s.fences.get() >= 2);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FsKind::XfsDax.name(), "xfs-DAX");
        assert_eq!(FsKind::DStore.name(), "DStore");
        assert_eq!(FsKind::all().len(), 4);
    }
}
