//! Memory backends for arenas.
//!
//! An [`Arena`](crate::Arena) is generic over [`Memory`]: the frontend
//! instantiates it over [`DramMemory`] (anonymous mapping, persistence
//! no-ops) and the checkpoint space over [`PmemRange`] (a window of a
//! [`PmemPool`], persistence delegated to the pool). This is what lets the
//! *same* data-structure code run in both domains (§3.5: "the
//! representations of the DRAM and PMEM data structures are the same, the
//! same code can be used for both").

use dstore_pmem::mapping::Mapping;
use dstore_pmem::PmemPool;
use std::sync::Arc;

/// A contiguous byte region an arena can live in.
///
/// # Safety-relevant contract
///
/// `base()..base()+len()` must stay valid and stable for the lifetime of
/// the value, and the region must be exclusively owned by one arena.
pub trait Memory: Send + Sync {
    /// Base address of the region.
    fn base(&self) -> *mut u8;
    /// Region length in bytes.
    fn len(&self) -> usize;
    /// Whether the region is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Persists `[off, off+len)` at bulk bandwidth (checkpoint flush).
    /// No-op for volatile memory.
    fn bulk_persist(&self, _off: usize, _len: usize) {}
    /// Flushes the cache lines of `[off, off+len)` (fine-grained).
    /// No-op for volatile memory.
    fn flush(&self, _off: usize, _len: usize) {}
    /// Store fence. No-op for volatile memory.
    fn fence(&self) {}
}

/// Volatile memory backed by an anonymous mapping — the *system space*.
pub struct DramMemory {
    mapping: Mapping,
}

impl DramMemory {
    /// Allocates a zeroed volatile region of `len` bytes.
    pub fn new(len: usize) -> Self {
        Self {
            mapping: Mapping::anonymous(len).expect("anonymous mmap failed"),
        }
    }

    /// [`DramMemory::new`] backed by transparent huge pages where the
    /// kernel allows, for a region about to be written whole: recovery's
    /// bulk copy of the checkpoint image then faults 2 MiB at a time, and
    /// the replay after it reaches index nodes, entries and inline values
    /// at random without a TLB miss each. A region that grows with its
    /// objects keeps small pages, which keep its footprint tight.
    pub fn huge(len: usize) -> Self {
        let mem = Self::new(len);
        mem.mapping.advise_huge_pages();
        mem
    }
}

impl Memory for DramMemory {
    #[inline]
    fn base(&self) -> *mut u8 {
        self.mapping.as_ptr()
    }
    #[inline]
    fn len(&self) -> usize {
        self.mapping.len()
    }
}

/// A window `[off, off+len)` of a [`PmemPool`] — the *checkpoint space*.
///
/// Multiple non-overlapping ranges of one pool may exist (DStore uses two:
/// the double-buffered shadow regions) plus the pool's log/root areas.
#[derive(Clone)]
pub struct PmemRange {
    pool: Arc<PmemPool>,
    off: usize,
    len: usize,
}

impl PmemRange {
    /// Creates a range over `pool[off..off+len)`.
    ///
    /// Panics if the range exceeds the pool.
    pub fn new(pool: Arc<PmemPool>, off: usize, len: usize) -> Self {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= pool.len()),
            "PmemRange out of pool bounds: off={off} len={len} pool={}",
            pool.len()
        );
        Self { pool, off, len }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// This range's offset within the pool.
    pub fn pool_offset(&self) -> usize {
        self.off
    }
}

impl Memory for PmemRange {
    #[inline]
    fn base(&self) -> *mut u8 {
        // SAFETY: construction checked off <= pool len.
        unsafe { self.pool.base().add(self.off) }
    }
    #[inline]
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn bulk_persist(&self, off: usize, len: usize) {
        assert!(off + len <= self.len, "persist range out of bounds");
        self.pool.bulk_persist(self.off + off, len);
    }
    #[inline]
    fn flush(&self, off: usize, len: usize) {
        assert!(off + len <= self.len, "flush range out of bounds");
        self.pool.flush(self.off + off, len);
    }
    #[inline]
    fn fence(&self) {
        self.pool.fence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_memory_is_zeroed() {
        let m = DramMemory::new(4096);
        assert_eq!(m.len(), 4096);
        // SAFETY: in-bounds read of fresh mapping.
        unsafe {
            assert_eq!(*m.base(), 0);
            assert_eq!(*m.base().add(4095), 0);
        }
        // Persistence hooks are no-ops.
        m.bulk_persist(0, 4096);
        m.flush(0, 64);
        m.fence();
    }

    #[test]
    fn pmem_range_offsets_into_pool() {
        let pool = Arc::new(PmemPool::strict(8192));
        let range = PmemRange::new(Arc::clone(&pool), 4096, 4096);
        assert_eq!(range.len(), 4096);
        assert_eq!(range.pool_offset(), 4096);
        // Writing through the range lands at pool offset 4096.
        // SAFETY: in-bounds.
        unsafe { *range.base() = 0x5A };
        let mut b = [0u8; 1];
        pool.read_bytes(4096, &mut b);
        assert_eq!(b[0], 0x5A);
    }

    #[test]
    fn pmem_range_persist_survives_crash() {
        let pool = Arc::new(PmemPool::strict(8192));
        let range = PmemRange::new(Arc::clone(&pool), 1024, 2048);
        unsafe { *range.base().add(10) = 7 };
        range.flush(10, 1);
        range.fence();
        unsafe { *range.base().add(200) = 9 }; // not flushed
        pool.simulate_crash();
        let mut b = [0u8; 1];
        pool.read_bytes(1034, &mut b);
        assert_eq!(b[0], 7);
        pool.read_bytes(1224, &mut b);
        assert_eq!(b[0], 0);
    }

    #[test]
    fn pmem_range_bulk_persist() {
        let pool = Arc::new(PmemPool::strict(8192));
        let range = PmemRange::new(Arc::clone(&pool), 0, 4096);
        unsafe { std::ptr::write_bytes(range.base(), 0xEE, 1000) };
        range.bulk_persist(0, 1000);
        pool.simulate_crash();
        let mut b = vec![0u8; 1000];
        pool.read_bytes(0, &mut b);
        assert!(b.iter().all(|&x| x == 0xEE));
    }

    #[test]
    #[should_panic(expected = "out of pool bounds")]
    fn oversized_range_panics() {
        let pool = Arc::new(PmemPool::anon(4096));
        let _ = PmemRange::new(pool, 2048, 4096);
    }
}
