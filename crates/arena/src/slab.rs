//! The slab allocator shared by the system space and the checkpoint space.
//!
//! All allocator state — bump pointer, free-list heads, usage counters —
//! lives in an [`ArenaHeader`] at offset 0 of the region, and free lists
//! are threaded through the freed blocks themselves. The allocator is
//! therefore *position independent*: copying the first
//! [`Arena::allocated_len`] bytes of the region to another region
//! reproduces the allocator and every structure inside it, with all
//! [`RelPtr`]s still valid. That single property implements both of the
//! paper's required allocator functions (state copy and allocated-region
//! iteration, §3.3) and makes recovery's "replicate the PMEM allocator
//! state in the DRAM allocator and copy pages from PMEM to DRAM" (§3.6) a
//! bulk `memcpy`.

use crate::memory::Memory;
use crate::relptr::{ByteSlice, RelPtr};
use crate::ArenaPod;
use dstore_telemetry::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Smallest allocation class: 16 B.
pub const MIN_CLASS_SIZE: usize = 16;
/// Largest allocation class: 64 MiB (big enough for pool item arrays).
pub const MAX_CLASS_SIZE: usize = 1 << 26;
/// log2 of [`MIN_CLASS_SIZE`].
const MIN_SHIFT: u32 = 4;
/// Number of power-of-two size classes (16 B … 64 MiB).
const NUM_CLASSES: usize = 23;

/// Region-resident allocator state. Lives at offset 0.
#[repr(C)]
pub struct ArenaHeader {
    /// Identifies an initialized arena region.
    magic: u64,
    /// Length of the region this arena was initialized over.
    region_len: u64,
    /// Next never-used offset (monotonic high-water mark).
    bump: AtomicU64,
    /// Bytes in live allocations (class-rounded).
    allocated_bytes: AtomicU64,
    /// Number of live allocations.
    live_blocks: AtomicU64,
    /// Per-class free-list heads (offset of first free block; 0 = empty).
    free_heads: [AtomicU64; NUM_CLASSES],
}

const MAGIC: u64 = 0x4453_544f_5245_0001; // "DSTORE"v1

/// Header size rounded to a cache line so the first allocation starts
/// aligned.
const HEADER_SIZE: usize = (std::mem::size_of::<ArenaHeader>() + 63) & !63;

/// Point-in-time usage numbers (Figure 10's footprint accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes in live allocations (class-rounded).
    pub allocated_bytes: u64,
    /// Number of live allocations.
    pub live_blocks: u64,
    /// High-water mark: bytes of the region ever used (what checkpoints
    /// copy and flush).
    pub high_water: u64,
    /// Total region capacity.
    pub capacity: u64,
}

/// A slab allocator over a [`Memory`] region.
///
/// Concurrency: the bump pointer is an atomic; each size class's free list
/// is guarded by a volatile mutex living *outside* the region (lock state
/// need not survive a crash). Allocation and free from many threads are
/// safe; access to the allocated *contents* is governed by the caller's
/// own locking, as with any allocator.
pub struct Arena<M: Memory> {
    mem: M,
    class_locks: [Mutex<()>; NUM_CLASSES],
    /// Allocations that found their size-class lock contended (the
    /// allocator's only blocking point). Volatile, like the locks
    /// themselves: stall accounting restarts on create and attach.
    alloc_stalls: Arc<Counter>,
    /// Nanoseconds spent waiting on contended size-class locks.
    alloc_stall_ns: Arc<Counter>,
}

impl<M: Memory> Arena<M> {
    /// Creates a fresh arena over `mem`, writing a new header.
    pub fn create(mem: M) -> Self {
        assert!(
            mem.len() > HEADER_SIZE + MIN_CLASS_SIZE,
            "region too small for an arena: {} bytes",
            mem.len()
        );
        let arena = Self {
            mem,
            class_locks: Default::default(),
            alloc_stalls: Default::default(),
            alloc_stall_ns: Default::default(),
        };
        // SAFETY: region is at least HEADER_SIZE bytes and exclusively ours.
        unsafe {
            std::ptr::write_bytes(arena.mem.base(), 0, HEADER_SIZE);
            let h = arena.header();
            h.magic = MAGIC;
            h.region_len = arena.mem.len() as u64;
            *h.bump.get_mut() = HEADER_SIZE as u64;
        }
        arena
    }

    /// Attaches to a region that already contains an arena (e.g. after
    /// copying a checkpoint image, or reopening a file-backed pool).
    ///
    /// Returns `None` if the region does not hold a valid header.
    pub fn attach(mem: M) -> Option<Self> {
        if mem.len() < HEADER_SIZE {
            return None;
        }
        let arena = Self {
            mem,
            class_locks: Default::default(),
            alloc_stalls: Default::default(),
            alloc_stall_ns: Default::default(),
        };
        // SAFETY: header is within bounds.
        let h = unsafe { arena.header_ref() };
        if h.magic != MAGIC {
            return None;
        }
        let bump = h.bump.load(Ordering::Relaxed);
        if bump < HEADER_SIZE as u64 || bump > arena.mem.len() as u64 {
            return None;
        }
        Some(arena)
    }

    /// The backing memory.
    pub fn memory(&self) -> &M {
        &self.mem
    }

    #[allow(clippy::mut_from_ref)]
    unsafe fn header(&self) -> &mut ArenaHeader {
        &mut *(self.mem.base() as *mut ArenaHeader)
    }

    unsafe fn header_ref(&self) -> &ArenaHeader {
        &*(self.mem.base() as *const ArenaHeader)
    }

    /// Size class index for a request of `size` bytes.
    fn class_of(size: usize) -> usize {
        let size = size.max(MIN_CLASS_SIZE);
        assert!(
            size <= MAX_CLASS_SIZE,
            "allocation of {size} bytes exceeds max class {MAX_CLASS_SIZE}"
        );
        (size.next_power_of_two().trailing_zeros() - MIN_SHIFT) as usize
    }

    /// Byte size of class `c`.
    fn class_size(c: usize) -> usize {
        MIN_CLASS_SIZE << c
    }

    /// Bytes an allocation of `size` takes: its power-of-two class.
    pub fn class_bytes(size: usize) -> usize {
        Self::class_size(Self::class_of(size))
    }

    /// Allocates a zeroed block of at least `size` bytes; returns its
    /// region offset, or `None` when the region is exhausted.
    pub fn try_alloc_block(&self, size: usize) -> Option<u64> {
        let class = Self::class_of(size);
        let csize = Self::class_size(class);
        // SAFETY: header lives at offset 0 for the arena's lifetime.
        let h = unsafe { self.header_ref() };

        let off = {
            // Contention on a class lock is an allocation stall another
            // thread's alloc/free induced; count it (uncontended
            // allocations never read the clock).
            let _g = match self.class_locks[class].try_lock() {
                Some(g) => g,
                None => {
                    let t0 = std::time::Instant::now();
                    let g = self.class_locks[class].lock();
                    self.alloc_stalls.inc();
                    self.alloc_stall_ns.add(t0.elapsed().as_nanos() as u64);
                    g
                }
            };
            let head = h.free_heads[class].load(Ordering::Relaxed);
            if head != 0 {
                // Pop: block's first word is the next-free offset.
                // SAFETY: free-list entries were valid allocations.
                let next = unsafe {
                    (*(self.mem.base().add(head as usize) as *const AtomicU64))
                        .load(Ordering::Relaxed)
                };
                h.free_heads[class].store(next, Ordering::Relaxed);
                head
            } else {
                let off = h.bump.fetch_add(csize as u64, Ordering::Relaxed);
                if off + csize as u64 > self.mem.len() as u64 {
                    // Undo and fail.
                    h.bump.fetch_sub(csize as u64, Ordering::Relaxed);
                    return None;
                }
                off
            }
        };
        h.allocated_bytes.fetch_add(csize as u64, Ordering::Relaxed);
        h.live_blocks.fetch_add(1, Ordering::Relaxed);
        // Hand out zeroed memory: bump memory may be recycled checkpoint
        // bytes and freed blocks contain stale data + the free-list word.
        // SAFETY: [off, off+csize) was just reserved for us.
        unsafe {
            std::ptr::write_bytes(self.mem.base().add(off as usize), 0, csize);
        }
        Some(off)
    }

    /// Allocates a zeroed block of at least `size` bytes.
    ///
    /// Panics when the region is exhausted (DStore sizes its metadata
    /// arenas up front, like the paper's pre-created pools).
    pub fn alloc_block(&self, size: usize) -> u64 {
        self.try_alloc_block(size)
            .unwrap_or_else(|| panic!("arena exhausted allocating {size} bytes"))
    }

    /// Frees the block at `off` that was allocated with `size`.
    pub fn free_block(&self, off: u64, size: usize) {
        assert!(
            off as usize >= HEADER_SIZE,
            "freeing the header at offset {off}"
        );
        let class = Self::class_of(size);
        let csize = Self::class_size(class);
        // SAFETY: header valid; block was a live allocation of this class.
        let h = unsafe { self.header_ref() };
        {
            let _g = self.class_locks[class].lock();
            let head = h.free_heads[class].load(Ordering::Relaxed);
            // SAFETY: block is ours again; write the free-list link.
            unsafe {
                (*(self.mem.base().add(off as usize) as *const AtomicU64))
                    .store(head, Ordering::Relaxed);
            }
            h.free_heads[class].store(off, Ordering::Relaxed);
        }
        h.allocated_bytes.fetch_sub(csize as u64, Ordering::Relaxed);
        h.live_blocks.fetch_sub(1, Ordering::Relaxed);
    }

    /// Allocates a zeroed `T`.
    pub fn alloc<T: ArenaPod>(&self) -> RelPtr<T> {
        RelPtr::from_offset(self.alloc_block(std::mem::size_of::<T>().max(1)))
    }

    /// Frees a `T` allocated with [`Arena::alloc`].
    pub fn free<T: ArenaPod>(&self, p: RelPtr<T>) {
        assert!(!p.is_null(), "freeing null RelPtr");
        self.free_block(p.offset(), std::mem::size_of::<T>().max(1));
    }

    /// Copies `data` into a fresh allocation and returns the slice handle.
    pub fn alloc_bytes(&self, data: &[u8]) -> ByteSlice {
        if data.is_empty() {
            return ByteSlice::empty();
        }
        let off = self.alloc_block(data.len());
        // SAFETY: fresh allocation of at least data.len() bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.mem.base().add(off as usize),
                data.len(),
            );
        }
        ByteSlice {
            ptr: RelPtr::from_offset(off),
            len: data.len() as u32,
        }
    }

    /// Frees a slice allocated with [`Arena::alloc_bytes`].
    pub fn free_bytes(&self, s: ByteSlice) {
        if !s.is_empty() {
            self.free_block(s.ptr.offset(), s.len as usize);
        }
    }

    /// Resolves a relative pointer to an absolute one, bounds-checked.
    #[inline]
    pub fn resolve<T>(&self, p: RelPtr<T>) -> *mut T {
        assert!(!p.is_null(), "resolving null RelPtr");
        let end = p.offset() as usize + std::mem::size_of::<T>();
        assert!(end <= self.mem.len(), "RelPtr out of region bounds");
        // SAFETY: bounds just checked.
        unsafe { p.to_abs(self.mem.base()) }
    }

    /// Asks the CPU to bring the cache lines of region bytes
    /// `[off, off + len)` in ahead of their use. A hint: it reads nothing,
    /// never faults, skips lines past the region's end, and is a no-op
    /// off x86-64.
    #[inline]
    pub fn prefetch(&self, off: u64, len: u64) {
        let end = (off + len).min(self.mem.len() as u64);
        for line in (off & !63..end).step_by(64) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `line` lies inside the region, and a prefetch only
            // hints: it reads nothing and never faults.
            unsafe {
                let p = self.mem.base().add(line as usize);
                std::arch::x86_64::_mm_prefetch(p.cast(), std::arch::x86_64::_MM_HINT_T0)
            };
            #[cfg(not(target_arch = "x86_64"))]
            let _ = line;
        }
    }

    /// Shared reference to the pointee.
    ///
    /// # Safety
    ///
    /// Caller must uphold Rust aliasing for the pointee (no concurrent
    /// mutation) — in DStore this is guaranteed by the structure locks.
    #[inline]
    pub unsafe fn get<T>(&self, p: RelPtr<T>) -> &T {
        &*self.resolve(p)
    }

    /// Exclusive reference to the pointee.
    ///
    /// # Safety
    ///
    /// Caller must guarantee exclusive access to the pointee.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut<T>(&self, p: RelPtr<T>) -> &mut T {
        &mut *self.resolve(p)
    }

    /// The bytes of a [`ByteSlice`].
    ///
    /// # Safety
    ///
    /// Caller must guarantee the slice is live and not concurrently
    /// mutated.
    pub unsafe fn bytes(&self, s: ByteSlice) -> &[u8] {
        if s.is_empty() {
            return &[];
        }
        let end = s.ptr.offset() as usize + s.len as usize;
        assert!(end <= self.mem.len(), "ByteSlice out of region bounds");
        std::slice::from_raw_parts(self.mem.base().add(s.ptr.offset() as usize), s.len as usize)
    }

    /// Bytes of the region ever used — what checkpoints copy and flush.
    pub fn allocated_len(&self) -> usize {
        // SAFETY: header valid.
        unsafe { self.header_ref() }.bump.load(Ordering::Relaxed) as usize
    }

    /// Usage counters.
    pub fn stats(&self) -> ArenaStats {
        // SAFETY: header valid.
        let h = unsafe { self.header_ref() };
        ArenaStats {
            allocated_bytes: h.allocated_bytes.load(Ordering::Relaxed),
            live_blocks: h.live_blocks.load(Ordering::Relaxed),
            high_water: h.bump.load(Ordering::Relaxed),
            capacity: self.mem.len() as u64,
        }
    }

    /// Registers the allocation-stall counters in `registry` as
    /// `dstore_arena_alloc_stalls_total` and
    /// `dstore_arena_alloc_stall_ns_total`.
    pub fn register(&self, registry: &MetricsRegistry) {
        registry.register_counter("dstore_arena_alloc_stalls_total", &self.alloc_stalls);
        registry.register_counter("dstore_arena_alloc_stall_ns_total", &self.alloc_stall_ns);
    }

    /// Copies this arena's allocated prefix (header + every slab ever
    /// touched) into `dst`'s region at identical offsets: the paper's
    /// "create a copy of the allocator state" plus data, in one bulk copy.
    /// All [`RelPtr`]s remain valid in the destination.
    ///
    /// The caller must ensure no allocations or structure mutations run
    /// concurrently (DStore's checkpoint does this by construction:
    /// replay owns the shadow arena).
    pub fn copy_allocated_to<M2: Memory>(&self, dst: &Arena<M2>) {
        let len = self.allocated_len();
        assert!(
            len <= dst.mem.len(),
            "destination region too small: need {len}, have {}",
            dst.mem.len()
        );
        // SAFETY: both regions are at least `len` bytes; regions are
        // disjoint (distinct arenas own disjoint memory).
        unsafe {
            std::ptr::copy_nonoverlapping(self.mem.base(), dst.mem.base(), len);
        }
        // Fix the recorded region length: the destination may be larger or
        // smaller than the source region.
        // SAFETY: dst header valid after the copy.
        unsafe {
            dst.header().region_len = dst.mem.len() as u64;
        }
    }

    /// Persists every allocated byte of the region (the checkpoint's
    /// "iterate over all allocated pages … and flush each cache line",
    /// §3.5). No-op over volatile memory.
    pub fn persist_allocated(&self) {
        let len = self.allocated_len();
        self.mem.bulk_persist(0, len);
        self.mem.fence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DramMemory;

    fn dram_arena(len: usize) -> Arena<DramMemory> {
        Arena::create(DramMemory::new(len))
    }

    #[test]
    fn class_math() {
        assert_eq!(Arena::<DramMemory>::class_of(1), 0);
        assert_eq!(Arena::<DramMemory>::class_of(16), 0);
        assert_eq!(Arena::<DramMemory>::class_of(17), 1);
        assert_eq!(Arena::<DramMemory>::class_of(32), 1);
        assert_eq!(
            Arena::<DramMemory>::class_of(MAX_CLASS_SIZE),
            NUM_CLASSES - 1
        );
        assert_eq!(Arena::<DramMemory>::class_size(0), 16);
        assert_eq!(Arena::<DramMemory>::class_bytes(1), 16);
        assert_eq!(Arena::<DramMemory>::class_bytes(129), 256);
        assert_eq!(
            Arena::<DramMemory>::class_size(NUM_CLASSES - 1),
            MAX_CLASS_SIZE
        );
    }

    #[test]
    fn alloc_returns_zeroed_distinct_blocks() {
        let a = dram_arena(1 << 16);
        let p1 = a.alloc_block(100);
        let p2 = a.alloc_block(100);
        assert_ne!(p1, p2);
        // SAFETY: live allocations.
        unsafe {
            let s1 = std::slice::from_raw_parts(a.mem.base().add(p1 as usize), 128);
            assert!(s1.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn free_list_recycles() {
        let a = dram_arena(1 << 16);
        let p1 = a.alloc_block(100);
        a.free_block(p1, 100);
        let p2 = a.alloc_block(100);
        assert_eq!(p1, p2, "freed block should be recycled");
        // Recycled memory is zeroed again.
        // SAFETY: live allocation.
        unsafe {
            let s = std::slice::from_raw_parts(a.mem.base().add(p2 as usize), 128);
            assert!(s.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn typed_alloc_roundtrip() {
        let a = dram_arena(1 << 16);
        let p: RelPtr<u64> = a.alloc();
        // SAFETY: exclusive access in this test.
        unsafe {
            *a.get_mut(p) = 424242;
            assert_eq!(*a.get(p), 424242);
        }
        a.free(p);
    }

    #[test]
    fn byte_slices() {
        let a = dram_arena(1 << 16);
        let s = a.alloc_bytes(b"object/name/42");
        // SAFETY: live slice.
        unsafe {
            assert_eq!(a.bytes(s), b"object/name/42");
        }
        a.free_bytes(s);
        let empty = a.alloc_bytes(b"");
        assert!(empty.is_empty());
        // SAFETY: empty slice is always valid.
        unsafe { assert_eq!(a.bytes(empty), b"") };
    }

    #[test]
    fn stats_track_usage() {
        let a = dram_arena(1 << 16);
        let s0 = a.stats();
        assert_eq!(s0.live_blocks, 0);
        let p = a.alloc_block(100); // class 128
        let s1 = a.stats();
        assert_eq!(s1.live_blocks, 1);
        assert_eq!(s1.allocated_bytes, 128);
        assert!(s1.high_water > s0.high_water);
        a.free_block(p, 100);
        let s2 = a.stats();
        assert_eq!(s2.live_blocks, 0);
        assert_eq!(s2.allocated_bytes, 0);
        assert_eq!(s2.high_water, s1.high_water, "high water never shrinks");
    }

    #[test]
    fn exhaustion_returns_none() {
        let a = dram_arena(8192);
        let mut count = 0;
        while a.try_alloc_block(1024).is_some() {
            count += 1;
            assert!(count < 100, "runaway");
        }
        assert!(count >= 1);
        // After freeing, allocation succeeds again.
        // (Allocate one fresh block id by freeing a dummy: re-alloc path.)
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn exhaustion_panics_on_alloc_block() {
        let a = dram_arena(8192);
        for _ in 0..100 {
            a.alloc_block(1024);
        }
    }

    #[test]
    fn copy_allocated_preserves_structures() {
        let src = dram_arena(1 << 16);
        let p: RelPtr<[u64; 4]> = src.alloc();
        let name = src.alloc_bytes(b"hello");
        // SAFETY: exclusive in test.
        unsafe {
            (*src.resolve(p))[2] = 77;
        }
        let dst = dram_arena(1 << 16);
        src.copy_allocated_to(&dst);
        // Same offsets resolve to the same logical data in the copy.
        // SAFETY: copied structures are live in dst.
        unsafe {
            assert_eq!((*dst.resolve(p))[2], 77);
            assert_eq!(dst.bytes(name), b"hello");
        }
        // The copy's allocator keeps working where the source left off.
        let q = dst.alloc_block(64);
        assert!(q as usize >= src.allocated_len() - 64);
        assert_eq!(dst.stats().live_blocks, src.stats().live_blocks + 1);
    }

    #[test]
    fn attach_to_copied_region() {
        let src = dram_arena(1 << 16);
        let s = src.alloc_bytes(b"attached");
        let dst_mem = DramMemory::new(1 << 16);
        let dst = Arena::create(dst_mem);
        src.copy_allocated_to(&dst);
        // Re-attach over the same memory (simulating recovery).
        // (We can't move `dst.mem` out, so attach over a fresh copy.)
        let re_mem = DramMemory::new(1 << 16);
        // SAFETY: bulk copy of the full region.
        unsafe {
            std::ptr::copy_nonoverlapping(src.memory().base(), re_mem.base(), src.allocated_len());
        }
        let re = Arena::attach(re_mem).expect("valid header");
        // SAFETY: slice live in the attached region.
        unsafe {
            assert_eq!(re.bytes(s), b"attached");
        }
    }

    #[test]
    fn attach_rejects_garbage() {
        let mem = DramMemory::new(4096);
        assert!(Arena::attach(mem).is_none());
    }

    #[test]
    fn concurrent_alloc_free() {
        use std::sync::Arc;
        let a = Arc::new(dram_arena(1 << 22));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut blocks = vec![];
                    for i in 0..200 {
                        let sz = 16 + ((t * 37 + i * 13) % 500);
                        blocks.push((a.alloc_block(sz), sz));
                    }
                    for (off, sz) in blocks {
                        a.free_block(off, sz);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = a.stats();
        assert_eq!(s.live_blocks, 0);
        assert_eq!(s.allocated_bytes, 0);
    }

    #[test]
    fn concurrent_allocs_are_disjoint() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let a = Arc::new(dram_arena(1 << 22));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || (0..256).map(|_| a.alloc_block(48)).collect::<Vec<_>>())
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for off in h.join().unwrap() {
                assert!(seen.insert(off), "block {off} handed out twice");
            }
        }
    }
}
