//! DStore's arena-resident control-plane structures and the deterministic
//! state machine that mutates them.
//!
//! Everything in this module lives inside an arena and is therefore
//! shadow-copyable: the [`Directory`] (pointed to by the PMEM root's
//! app-dir word), the object-index B-tree, the metadata zone of
//! [`MetaEntry`]s, and the SSD [block pool](PoolHeader) — exactly the
//! boxes of the paper's Figure 4.
//!
//! [`Domain`] binds these structures to one arena (the DRAM system space,
//! or a PMEM shadow region during checkpoint replay / recovery) and
//! implements every logged operation in two phases:
//!
//! * **plan** — the block-pool interactions (steps ③/④ of Figure 4).
//!   These *must* execute in log order: the pool is a FIFO whose pops are
//!   only reproducible if replay consumes it in the same sequence the
//!   frontend did, which the frontend guarantees by planning inside the
//!   same critical section that appends the record (steps ①–⑤).
//! * **install** — the metadata-zone and B-tree updates (steps ⑥/⑦).
//!   These touch only the operation's own object, so by observational
//!   equivalence they may run outside the synchronous region and in
//!   parallel across objects; internal layout (entry offsets, tree shape)
//!   may differ between domains while observable state stays identical
//!   (§3.7).
//!
//! [`Domain::replay`] is the composition of both phases and is what
//! checkpoint replay and recovery execute, record by record.

use crate::error::{DsError, DsResult};
use crate::ops::{self, ExtendParams, PhysImage, PutParams};
use dstore_arena::{Arena, ArenaPod, Memory, RelPtr};
use dstore_dipper::record::{self, RecordView};
use dstore_dipper::OP_NOOP;
use dstore_index::{fnv1a, BTreeHandle, BTreeHeader};
use parking_lot::RwLock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on block-pool shards (a `Directory` sanity limit; the
/// config validates the same range).
pub const MAX_POOL_SHARDS: usize = 64;

/// Maximum object-name length (fits a log record comfortably).
pub const MAX_NAME_LEN: usize = 255;
/// Bytes per SSD page (blocks are `pages_per_block` of these).
pub const PAGE_BYTES: u64 = dstore_ssd::PAGE_SIZE as u64;
/// Bytes per SSD block in the default one-page-per-block configuration
/// (kept for callers that size buffers; per-store geometry lives in the
/// [`Directory`]).
pub const BLOCK_SIZE: u64 = PAGE_BYTES;
/// Direct block slots in a [`MetaEntry`] (objects ≤ 48 KB need no
/// overflow chain).
pub const NDIRECT: usize = 12;
/// Block slots per [`Overflow`] node.
pub const OVERFLOW_CAP: usize = 126;

/// The application directory: the single arena object the PMEM root
/// points at.
#[repr(C)]
#[derive(Debug)]
pub struct Directory {
    /// Object-index B-tree header.
    pub btree: RelPtr<BTreeHeader>,
    /// SSD block pool: the first of `pool_shards` contiguous
    /// [`PoolHeader`]s (free allocation blocks, sharded by object-name
    /// hash so non-conflicting writers allocate without contending).
    pub block_pool: RelPtr<PoolHeader>,
    /// Live object count.
    pub live_objects: u64,
    /// Logical bytes stored across all objects.
    pub data_bytes: u64,
    /// SSD pages per allocation block (store geometry; shadow replay
    /// reads it from the copied directory, keeping replay deterministic
    /// without re-reading configuration).
    pub pages_per_block: u64,
    /// Number of block-pool shards behind `block_pool` (store geometry,
    /// persisted for the same reason as `pages_per_block`; `0` from a
    /// pre-sharding image means one shard).
    pub pool_shards: u64,
}
// SAFETY: repr(C) composition of pods; zero-valid.
unsafe impl ArenaPod for Directory {}

/// Per-object metadata — one entry in the metadata zone.
#[repr(C)]
#[derive(Debug)]
pub struct MetaEntry {
    /// Object size in bytes.
    pub size: u64,
    /// Number of allocated blocks.
    pub nblocks: u32,
    /// Bumped on every mutation (update visibility / diagnostics).
    pub version: u32,
    /// LSN of the last mutating record (logical mtime).
    pub mtime_lsn: u64,
    /// First [`NDIRECT`] block ids.
    pub direct: [u64; NDIRECT],
    /// Chain of additional blocks for large objects.
    pub overflow: RelPtr<Overflow>,
}
// SAFETY: repr(C) pods; zero-valid (empty object).
unsafe impl ArenaPod for MetaEntry {}

/// Overflow node holding further block ids.
#[repr(C)]
pub struct Overflow {
    /// Blocks used in this node.
    pub count: u64,
    /// Next node in the chain.
    pub next: RelPtr<Overflow>,
    /// Block ids.
    pub blocks: [u64; OVERFLOW_CAP],
}
// SAFETY: repr(C) pods; zero-valid.
unsafe impl ArenaPod for Overflow {}

/// A FIFO ring of free u64 items in the arena — the paper's block pool
/// ("circular buffers containing free blocks", §4.2). FIFO order is
/// load-bearing: it makes allocation deterministic under log-order replay
/// and maximizes the reuse distance of freed blocks.
#[repr(C)]
#[derive(Debug)]
pub struct PoolHeader {
    /// Ring capacity.
    pub capacity: u64,
    /// Index of the next item to pop.
    pub head: u64,
    /// Items currently in the ring.
    pub count: u64,
    /// The ring storage (`capacity` u64s).
    pub items: RelPtr<u64>,
}
// SAFETY: repr(C) pods; zero-valid.
unsafe impl ArenaPod for PoolHeader {}

/// Number of blocks of `block_bytes` an object of `size` bytes occupies.
#[inline]
pub fn blocks_for_geometry(size: u64, block_bytes: u64) -> u64 {
    size.div_ceil(block_bytes)
}

/// The result of a put/create plan: the object's final block list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutPlan {
    /// What kind of mutation this is.
    pub kind: PutKind,
    /// The object's final, complete block list.
    pub blocks: Vec<u64>,
    /// Blocks returned to the pool (diagnostics / physical logging).
    pub freed: Vec<u64>,
}

/// Classification of a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutKind {
    /// New object.
    Create,
    /// Existing object, block count changed: reallocate.
    Replace,
    /// Existing object, same block count: in-place data update, metadata
    /// version bump only.
    Touch,
}

/// The result of an extend plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendPlan {
    /// Complete block list after the extension.
    pub blocks: Vec<u64>,
    /// New object size.
    pub new_size: u64,
}

/// The result of a delete plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletePlan {
    /// Blocks that were returned to the pool.
    pub freed: Vec<u64>,
}

/// How a [`Domain`] call synchronizes B-tree access against other
/// domains bound to the same arena.
///
/// Serial replay owns its domain, and frontend ops hold the store's
/// `btree_lock` around every lookup, insert and remove, so both pass
/// [`IndexSync::Exclusive`] (no locking here). OE-parallel replay workers
/// each own disjoint pool shards — their pool and metadata-entry accesses
/// never collide — but they share one B-tree through
/// [`IndexSync::Shared`]: lookups take a shared `RwLock` `read`,
/// structural mutations take it `write`, and write-lock *hold* time is
/// charged to `write_ns` — the sum across workers is the irreducibly
/// serialized portion, the admission-rate denominator of
/// `ReplayStats::serialized_ns`.
pub enum IndexSync<'l> {
    /// Caller already has exclusive access to the tree (single-threaded
    /// replay, or the frontend holding the store's B-tree lock).
    Exclusive,
    /// Concurrent distinct-shard replay: B-tree reads share `lock`,
    /// structural mutations take it exclusively.
    Shared {
        /// The B-tree lock shared by every worker of one replay window.
        lock: &'l RwLock<()>,
        /// Accumulated write-lock hold time (ns) across workers.
        write_ns: &'l AtomicU64,
    },
}

impl IndexSync<'_> {
    /// Looks up `name`'s metadata entry in `d`'s B-tree under this sync
    /// mode.
    #[inline]
    pub fn lookup<M: Memory>(&self, d: &Domain<'_, M>, name: &[u8]) -> Option<RelPtr<MetaEntry>> {
        let off = match self {
            IndexSync::Exclusive => d.btree().get(name),
            IndexSync::Shared { lock, .. } => {
                let _g = lock.read();
                d.btree().get(name)
            }
        };
        off.map(RelPtr::from_offset)
    }

    /// Inserts `name → off` into `d`'s B-tree under this sync mode and
    /// returns the mapping it displaced. In `Shared` mode the write-lock
    /// hold time (not the wait time — that would double-count contention)
    /// is charged to `write_ns`.
    #[inline]
    fn insert<M: Memory>(&self, d: &Domain<'_, M>, name: &[u8], off: u64) -> Option<u64> {
        match self {
            IndexSync::Exclusive => d.btree().insert(name, off),
            IndexSync::Shared { lock, write_ns } => {
                let _g = lock.write();
                let t = std::time::Instant::now();
                let prev = d.btree().insert(name, off);
                write_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                prev
            }
        }
    }

    /// Removes `name` from `d`'s B-tree under this sync mode and returns
    /// the entry it mapped to (hold-time charging as for
    /// [`IndexSync::insert`]).
    #[inline]
    fn remove<M: Memory>(&self, d: &Domain<'_, M>, name: &[u8]) -> Option<RelPtr<MetaEntry>> {
        let off = match self {
            IndexSync::Exclusive => d.btree().remove(name),
            IndexSync::Shared { lock, write_ns } => {
                let _g = lock.write();
                let t = std::time::Instant::now();
                let prev = d.btree().remove(name);
                write_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                prev
            }
        };
        off.map(RelPtr::from_offset)
    }
}

/// One control-plane domain: the structures of [`Directory`] bound to the
/// arena they live in.
///
/// Synchronization is the *caller's* job (the store wraps plan calls in
/// the pool lock and install calls in the B-tree lock; replay is
/// single-threaded per domain, or sharded across domains with
/// [`IndexSync::Shared`] guarding the B-tree).
pub struct Domain<'a, M: Memory> {
    arena: &'a Arena<M>,
    dir: RelPtr<Directory>,
    /// Whether a pool pop since the last [`Domain::take_stole`] came from
    /// a foreign shard. `Cell` (not atomic) on purpose: it also makes
    /// `Domain` `!Sync`, so a domain can never be shared across replay
    /// workers by accident — each worker attaches its own.
    stole: Cell<bool>,
}

impl<'a, M: Memory> Domain<'a, M> {
    /// Formats a fresh domain in `arena`: directory, empty B-tree, and a
    /// block pool pre-filled with every data block of an `ssd_pages`-page
    /// device (page 0 is the superblock and is never pooled). Blocks are
    /// the default single page.
    pub fn format(arena: &'a Arena<M>, ssd_pages: u64) -> Self {
        Self::format_with_geometry(arena, ssd_pages, 1)
    }

    /// [`Domain::format`] with `pages_per_block` pages per allocation
    /// block. Block `b` owns pages `[1 + b·ppb, 1 + (b+1)·ppb)`.
    pub fn format_with_geometry(arena: &'a Arena<M>, ssd_pages: u64, pages_per_block: u64) -> Self {
        Self::format_with_shards(arena, ssd_pages, pages_per_block, 1)
    }

    /// [`Domain::format_with_geometry`] with the block pool split into
    /// `shards` FIFO rings. Object names hash to a *home* shard
    /// ([`Domain::shard_of_name`]); the frontend serializes pool
    /// interactions per shard instead of globally, so allocations from
    /// writers on different shards run concurrently. Each ring has full
    /// capacity (freed blocks follow the freeing *name*, so any shard
    /// may in principle come to hold every block). The initial fill
    /// stripes contiguous ascending id ranges across shards, preserving
    /// the sequential-allocation SSD write pattern within a shard.
    ///
    /// `shards` is clamped to `[1, min(MAX_POOL_SHARDS, capacity)]` and
    /// recorded in the [`Directory`], making replay and recovery
    /// self-describing.
    pub fn format_with_shards(
        arena: &'a Arena<M>,
        ssd_pages: u64,
        pages_per_block: u64,
        shards: usize,
    ) -> Self {
        assert!(pages_per_block >= 1, "blocks hold at least one page");
        assert!(ssd_pages > pages_per_block, "SSD too small");
        let dir: RelPtr<Directory> = arena.alloc();
        let btree = BTreeHandle::create(arena);
        let capacity = (ssd_pages - 1) / pages_per_block;
        let nshards = shards.clamp(1, MAX_POOL_SHARDS).min(capacity as usize) as u64;
        let span = capacity.div_ceil(nshards);
        let pool = RelPtr::<PoolHeader>::from_offset(
            arena.alloc_block(nshards as usize * std::mem::size_of::<PoolHeader>()),
        );
        // SAFETY: fresh allocations, exclusive.
        unsafe {
            for s in 0..nshards {
                let items = RelPtr::<u64>::from_offset(arena.alloc_block((capacity * 8) as usize));
                let lo = s * span;
                let hi = ((s + 1) * span).min(capacity);
                let base = arena.resolve(items);
                for (i, id) in (lo..hi).enumerate() {
                    *base.add(i) = id;
                }
                let p = &mut *arena.resolve(pool).add(s as usize);
                p.capacity = capacity;
                p.head = 0;
                p.count = hi.saturating_sub(lo);
                p.items = items;
            }
            let d = &mut *arena.resolve(dir);
            d.btree = btree.header_ptr();
            d.block_pool = pool;
            d.pages_per_block = pages_per_block;
            d.pool_shards = nshards;
        }
        Self {
            arena,
            dir,
            stole: Cell::new(false),
        }
    }

    /// SSD pages per allocation block.
    pub fn pages_per_block(&self) -> u64 {
        // SAFETY: directory live.
        unsafe { (*self.arena.resolve(self.dir)).pages_per_block }
    }

    /// Bytes per allocation block.
    pub fn block_bytes(&self) -> u64 {
        self.pages_per_block() * PAGE_BYTES
    }

    /// First SSD page of block `id` (page 0 is the superblock).
    pub fn block_first_page(&self, id: u64) -> u64 {
        1 + id * self.pages_per_block()
    }

    /// Binds to an existing directory (shadow replay, recovery).
    pub fn attach(arena: &'a Arena<M>, dir: RelPtr<Directory>) -> Self {
        Self {
            arena,
            dir,
            stole: Cell::new(false),
        }
    }

    /// The directory's arena offset (stored in the PMEM root).
    pub fn dir_ptr(&self) -> RelPtr<Directory> {
        self.dir
    }

    /// The underlying arena.
    pub fn arena(&self) -> &'a Arena<M> {
        self.arena
    }

    /// The object-index B-tree.
    pub fn btree(&self) -> BTreeHandle<'a, M> {
        // SAFETY: directory is live for the domain's lifetime.
        let hdr = unsafe { (*self.arena.resolve(self.dir)).btree };
        BTreeHandle::attach(self.arena, hdr)
    }

    /// `name`'s metadata entry, for a caller with exclusive access to
    /// the B-tree ([`IndexSync::Exclusive`]).
    pub fn lookup(&self, name: &[u8]) -> Option<RelPtr<MetaEntry>> {
        IndexSync::Exclusive.lookup(self, name)
    }

    /// Directory counters `(live_objects, data_bytes)`.
    pub fn counters(&self) -> (u64, u64) {
        // SAFETY: directory live.
        unsafe {
            let d = &*self.arena.resolve(self.dir);
            (d.live_objects, d.data_bytes)
        }
    }

    // ------------------------------------------------------------------
    // block pool

    /// Number of block-pool shards (`0` in the directory means one).
    pub fn pool_shards(&self) -> usize {
        // SAFETY: directory live.
        unsafe { ((*self.arena.resolve(self.dir)).pool_shards).max(1) as usize }
    }

    /// The shard that owns `name`'s pool interactions. Every pop *and*
    /// push a record performs lands in its name's shard, so per-shard
    /// plan order equals per-shard log order — the invariant replay
    /// relies on ([`Domain::replay`] re-derives the same shard from the
    /// record's name).
    pub fn shard_of_name(&self, name: &[u8]) -> usize {
        (fnv1a(name) % self.pool_shards() as u64) as usize
    }

    /// Raw pointer to shard `s`'s header.
    ///
    /// # Safety
    ///
    /// `s < pool_shards()`; pool structures live; caller synchronizes.
    unsafe fn shard_ptr(&self, s: usize) -> *mut PoolHeader {
        debug_assert!(s < self.pool_shards());
        self.arena
            .resolve((*self.arena.resolve(self.dir)).block_pool)
            .add(s)
    }

    /// Pops one free block from shard `s`.
    fn shard_pop(&self, s: usize) -> Option<u64> {
        // SAFETY: pool structures live; caller synchronizes the shard.
        unsafe {
            let p = &mut *self.shard_ptr(s);
            if p.count == 0 {
                return None;
            }
            let base = self.arena.resolve(p.items);
            let v = *base.add(p.head as usize);
            p.head = (p.head + 1) % p.capacity;
            p.count -= 1;
            Some(v)
        }
    }

    /// Pushes a freed block to shard `s`'s FIFO tail.
    fn shard_push(&self, s: usize, id: u64) {
        // SAFETY: as in shard_pop.
        unsafe {
            let p = &mut *self.shard_ptr(s);
            assert!(p.count < p.capacity, "pool overflow: double free?");
            let base = self.arena.resolve(p.items);
            *base.add(((p.head + p.count) % p.capacity) as usize) = id;
            p.count += 1;
        }
    }

    /// Pops one free block, scanning shards in index order. Caller holds
    /// every shard lock (frontend) or is the single replay thread.
    pub fn pool_pop(&self) -> Option<u64> {
        (0..self.pool_shards()).find_map(|s| self.shard_pop(s))
    }

    /// Pushes a freed block to the first shard's FIFO tail. Kept for
    /// single-shard callers (tests, tools); the write path and replay
    /// use the name-directed pushes inside the plan functions.
    pub fn pool_push(&self, id: u64) {
        self.shard_push(0, id);
    }

    /// Pops `n` blocks for an operation on `name`: from the name's own
    /// shard when it suffices, otherwise — with `allow_steal` — the
    /// remainder is stolen from sibling shards in round-robin index
    /// order starting after the own shard. Deterministic given the pool
    /// state, which is what lets replay reproduce frontend allocations.
    ///
    /// Without `allow_steal`, an own-shard shortfall returns
    /// [`DsError::ShardStarved`] (and pops nothing) so the caller can
    /// retry holding every shard lock; a *global* shortfall is
    /// [`DsError::OutOfSpace`]. Partial pops never leak.
    pub fn pop_n_in(&self, name: &[u8], n: u64, allow_steal: bool) -> DsResult<Vec<u64>> {
        if n == 0 {
            return Ok(vec![]);
        }
        let own = self.shard_of_name(name);
        if self.pool_free_in(own) < n {
            if !allow_steal {
                return Err(DsError::ShardStarved);
            }
            if self.pool_free() < n {
                return Err(DsError::OutOfSpace);
            }
        }
        let ns = self.pool_shards();
        let mut out = Vec::with_capacity(n as usize);
        let mut s = own;
        while (out.len() as u64) < n {
            match self.shard_pop(s) {
                Some(b) => {
                    if s != own {
                        self.stole.set(true);
                    }
                    out.push(b);
                }
                None => s = (s + 1) % ns,
            }
        }
        Ok(out)
    }

    /// Whether any pop since the last call came from a foreign shard,
    /// clearing the flag. The frontend checks this after planning and
    /// stamps [`record::OP_STEAL_FLAG`] on the record, which is what
    /// demotes the record's checkpoint window to serial replay.
    pub fn take_stole(&self) -> bool {
        self.stole.replace(false)
    }

    /// Reads the next `n` blocks [`Domain::pop_n_in`] would pop for
    /// `name` (steal permitted), without popping. Used by physical-mode
    /// logging to encode the post-image before the record is appended
    /// (the actual pops happen only if the append wins its conflict
    /// check, and return exactly these ids — all under the shard locks).
    pub fn pool_peek_for(&self, name: &[u8], n: u64) -> Option<Vec<u64>> {
        if self.pool_free() < n {
            return None;
        }
        let ns = self.pool_shards();
        let own = self.shard_of_name(name);
        let mut out = Vec::with_capacity(n as usize);
        // One pass per shard mirrors `pop_n_in` exactly when the caller
        // holds the relevant locks (counts are stable, so the pop never
        // revisits a drained shard). Bounding the scan also keeps a peek
        // that races unlocked siblings from spinning.
        for i in 0..ns {
            let s = (own + i) % ns;
            // SAFETY: read-only under the caller's shard locks.
            unsafe {
                let p = &*self.shard_ptr(s);
                let take = (n - out.len() as u64).min(p.count);
                let base = self.arena.resolve(p.items);
                for k in 0..take {
                    out.push(*base.add(((p.head + k) % p.capacity) as usize));
                }
            }
            if (out.len() as u64) == n {
                break;
            }
        }
        ((out.len() as u64) == n).then_some(out)
    }

    /// Free blocks remaining in shard `s`.
    pub fn pool_free_in(&self, s: usize) -> u64 {
        // SAFETY: read-only.
        unsafe { (*self.shard_ptr(s)).count }
    }

    /// Free blocks remaining across all shards.
    pub fn pool_free(&self) -> u64 {
        (0..self.pool_shards()).map(|s| self.pool_free_in(s)).sum()
    }

    // ------------------------------------------------------------------
    // metadata entries

    /// Copies out an entry's `(size, version, block list)`.
    pub fn read_entry(&self, e: RelPtr<MetaEntry>) -> (u64, u32, Vec<u64>) {
        // SAFETY: entry live; caller excludes concurrent writers (CC).
        unsafe {
            let m = &*self.arena.resolve(e);
            (m.size, m.version, self.entry_blocks(m))
        }
    }

    /// Collects an entry's full block list (direct + overflow chain).
    ///
    /// # Safety
    ///
    /// `m` must be a live entry not concurrently mutated.
    unsafe fn entry_blocks(&self, m: &MetaEntry) -> Vec<u64> {
        let n = m.nblocks as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n.min(NDIRECT) {
            out.push(m.direct[i]);
        }
        let mut ov = m.overflow;
        while !ov.is_null() {
            let node = &*self.arena.resolve(ov);
            for i in 0..node.count as usize {
                out.push(node.blocks[i]);
            }
            ov = node.next;
        }
        let lsn = m.mtime_lsn;
        assert_eq!(out.len(), n, "block list inconsistent (entry of LSN {lsn})");
        out
    }

    /// Overwrites an entry's block list, growing/shrinking the overflow
    /// chain as needed.
    ///
    /// # Safety
    ///
    /// Exclusive access to the entry (CC).
    unsafe fn entry_set_blocks(&self, e: RelPtr<MetaEntry>, blocks: &[u64]) {
        let m = &mut *self.arena.resolve(e);
        // Free the old chain.
        let mut ov = m.overflow;
        while !ov.is_null() {
            let next = (*self.arena.resolve(ov)).next;
            self.arena.free(ov);
            ov = next;
        }
        m.overflow = RelPtr::null();
        m.nblocks = blocks.len() as u32;
        for (i, b) in blocks.iter().take(NDIRECT).enumerate() {
            m.direct[i] = *b;
        }
        // Build a fresh chain for the remainder.
        let mut rest = &blocks[blocks.len().min(NDIRECT)..];
        let mut tail: *mut RelPtr<Overflow> = &mut m.overflow;
        while !rest.is_empty() {
            let node_ptr: RelPtr<Overflow> = self.arena.alloc();
            let node = &mut *self.arena.resolve(node_ptr);
            let take = rest.len().min(OVERFLOW_CAP);
            node.count = take as u64;
            node.blocks[..take].copy_from_slice(&rest[..take]);
            *tail = node_ptr;
            tail = &mut node.next;
            rest = &rest[take..];
        }
    }

    // ------------------------------------------------------------------
    // plan phase (pool interactions; log order)

    /// Plans an [`ops::OP_PUT`]-family operation on `name`, whose current
    /// metadata entry the caller looked up (under its index sync mode):
    /// classifies it and performs the pool pops/pushes. Must run in
    /// per-shard log-append order. The frontend's fast path passes
    /// `allow_steal = false` while holding only the name's shard lock,
    /// escalating to all locks + `true` on [`DsError::ShardStarved`].
    pub fn plan_put_entry(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
        size: u64,
        allow_steal: bool,
    ) -> DsResult<PutPlan> {
        let need = blocks_for_geometry(size, self.block_bytes());
        match entry {
            Some(e) => {
                // SAFETY: CC guarantees no concurrent writer on `name`.
                let (_, _, old_blocks) = self.read_entry(e);
                if old_blocks.len() as u64 == need {
                    return Ok(PutPlan {
                        kind: PutKind::Touch,
                        blocks: old_blocks,
                        freed: vec![],
                    });
                }
                let blocks = self.pop_n_in(name, need, allow_steal)?;
                let home = self.shard_of_name(name);
                for &b in &old_blocks {
                    self.shard_push(home, b);
                }
                Ok(PutPlan {
                    kind: PutKind::Replace,
                    blocks,
                    freed: old_blocks,
                })
            }
            None => Ok(PutPlan {
                kind: PutKind::Create,
                blocks: self.pop_n_in(name, need, allow_steal)?,
                freed: vec![],
            }),
        }
    }

    /// Plans an [`ops::OP_EXTEND`]: pops the additional blocks (entry and
    /// steal permission as for [`Domain::plan_put_entry`]).
    pub fn plan_extend_entry(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
        offset: u64,
        len: u64,
        allow_steal: bool,
    ) -> DsResult<ExtendPlan> {
        let e = entry.ok_or(DsError::NotFound)?;
        let (size, _, mut blocks) = self.read_entry(e);
        let new_size = size.max(offset + len);
        let need = blocks_for_geometry(new_size, self.block_bytes());
        let extra = need.saturating_sub(blocks.len() as u64);
        blocks.extend(self.pop_n_in(name, extra, allow_steal)?);
        Ok(ExtendPlan { blocks, new_size })
    }

    /// Plans an [`ops::OP_DELETE`]: pushes the object's blocks back to
    /// the name's shard (pushes always land in the freeing name's shard,
    /// so an op touches no shard but its own unless it steals).
    pub fn plan_delete_entry(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
    ) -> DsResult<DeletePlan> {
        let e = entry.ok_or(DsError::NotFound)?;
        let (_, _, blocks) = self.read_entry(e);
        let home = self.shard_of_name(name);
        for &b in &blocks {
            self.shard_push(home, b);
        }
        Ok(DeletePlan { freed: blocks })
    }

    // ------------------------------------------------------------------
    // install phase (metadata zone + B-tree; per-object, OE-parallel)

    /// Adds signed deltas to the directory counters with atomic RMW ops.
    /// The adds commute, so concurrent distinct-shard replay workers
    /// reach the same final counters as any serial order — no lock, no
    /// nondeterminism.
    fn counters_add(&self, live: i64, bytes: i64) {
        // SAFETY: directory live; `AtomicU64` has `u64`'s layout, and
        // two's-complement wrapping makes `fetch_add` of a negative delta
        // a subtraction.
        unsafe {
            let d = self.arena.resolve(self.dir);
            if live != 0 {
                (*(&raw mut (*d).live_objects as *const AtomicU64))
                    .fetch_add(live as u64, Ordering::Relaxed);
            }
            if bytes != 0 {
                (*(&raw mut (*d).data_bytes as *const AtomicU64))
                    .fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
    }

    // The installs take the entry their plan was made against instead of
    // looking `name` up again: nothing can create, replace or delete
    // `name`'s entry between one op's plan and its install (the frontend
    // holds the name's writer registration across both; a replay worker
    // owns every record of the name's shard), so a second descent could
    // only find the same answer.

    /// Installs a planned put on `entry`, the metadata entry the plan read
    /// (`None`: a create, which allocates the entry and maps it under
    /// `sync` — the only step that touches shared tree structure). The
    /// entry itself is object-exclusive and updated outside any lock.
    /// Returns whether the index agreed with the plan: `false` when a
    /// create's insert displaced an existing mapping.
    pub fn install_put_entry(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
        size: u64,
        plan: &PutPlan,
        lsn: u64,
        sync: &IndexSync<'_>,
    ) -> bool {
        let (old_size, entry, agreed) = match entry {
            // SAFETY: CC excludes concurrent writers on this object.
            Some(e) => (unsafe { (*self.arena.resolve(e)).size }, e, true),
            None => {
                let e: RelPtr<MetaEntry> = self.arena.alloc();
                let displaced = sync.insert(self, name, e.offset());
                (0, e, displaced.is_none())
            }
        };
        // SAFETY: exclusive entry access via CC.
        unsafe {
            if plan.kind != PutKind::Touch {
                self.entry_set_blocks(entry, &plan.blocks);
            }
            let m = &mut *self.arena.resolve(entry);
            m.size = size;
            m.version += 1;
            m.mtime_lsn = lsn;
        }
        self.counters_add(
            (plan.kind == PutKind::Create) as i64,
            size as i64 - old_size as i64,
        );
        agreed
    }

    /// Installs a planned extension on the entry the plan read. Extends
    /// never touch the tree.
    pub fn install_extend_entry(&self, e: RelPtr<MetaEntry>, plan: &ExtendPlan, lsn: u64) {
        // SAFETY: exclusive entry access via CC.
        let old = unsafe {
            let old = (*self.arena.resolve(e)).size;
            self.entry_set_blocks(e, &plan.blocks);
            let m = &mut *self.arena.resolve(e);
            m.size = plan.new_size;
            m.version += 1;
            m.mtime_lsn = lsn;
            old
        };
        self.counters_add(0, plan.new_size as i64 - old as i64);
    }

    /// Installs a delete: removes `name`'s B-tree mapping, then frees the
    /// entry it mapped to. Returns that entry — the caller checks it is
    /// the one its plan read — or `None` (nothing freed) if `name` was
    /// not mapped.
    pub fn install_delete_sync(
        &self,
        name: &[u8],
        sync: &IndexSync<'_>,
    ) -> Option<RelPtr<MetaEntry>> {
        let e = sync.remove(self, name)?;
        // SAFETY: exclusive entry access via CC.
        let old = unsafe {
            let old = (*self.arena.resolve(e)).size;
            // Free the overflow chain, then the entry itself.
            self.entry_set_blocks(e, &[]);
            self.arena.free(e);
            old
        };
        self.counters_add(-1, -(old as i64));
        Some(e)
    }

    // ------------------------------------------------------------------
    // replay (checkpoint + recovery)

    /// Applies one committed log record to this domain — the deterministic
    /// state machine of §3.2 ("each logical operation translates to a set
    /// of functions to be performed on each data structure … used by the
    /// recovery logic to update the shadow copies"). Single-threaded
    /// replay: steals permitted, no B-tree locking. Returns whether the
    /// record diverged (see [`Domain::replay_in`]).
    pub fn replay(&self, rec: &RecordView<'_>) -> bool {
        self.replay_in(rec, true, &IndexSync::Exclusive)
    }

    /// [`Domain::replay`] with explicit steal permission and B-tree sync
    /// mode — the OE-parallel replay entry point. Workers replaying
    /// disjoint shard groups pass `allow_steal = false` (a stolen
    /// allocation in a supposedly steal-free window is a flag bug, and
    /// the resulting `ShardStarved` panic surfaces it) plus a
    /// [`IndexSync::Shared`] guarding the common B-tree. The record's
    /// [`record::OP_STEAL_FLAG`] bit is masked off before dispatch.
    ///
    /// Looks the record's name up once and hands that entry to both the
    /// plan and the install, so a record costs one descent (two for a
    /// create or a logical delete, whose insert/remove descend again).
    ///
    /// Returns whether the record *diverged* from the frontend: a physical
    /// record whose pool pops returned other blocks than its logged
    /// post-image names, a create whose insert displaced a mapping, or a
    /// delete whose remove found another entry than its plan (or none).
    /// Checked in every build; the caller counts it, and debug builds
    /// panic.
    pub fn replay_in(&self, rec: &RecordView<'_>, allow_steal: bool, sync: &IndexSync<'_>) -> bool {
        let name = rec.name;
        let diverged = match record::op_code(rec.op) {
            OP_NOOP => false,
            ops::OP_PUT | ops::OP_TOUCH | ops::OP_CREATE => {
                let p = PutParams::decode(rec.params).expect("valid put params");
                let entry = sync.lookup(self, name);
                let plan = self
                    .plan_put_entry(entry, name, p.size, allow_steal)
                    .expect("replay allocation mirrors frontend");
                !self.install_put_entry(entry, name, p.size, &plan, rec.lsn, sync)
            }
            ops::OP_EXTEND => {
                let p = ExtendParams::decode(rec.params).expect("valid extend params");
                let entry = sync.lookup(self, name);
                let plan = self
                    .plan_extend_entry(entry, name, p.offset, p.len, allow_steal)
                    .expect("replay extension mirrors frontend");
                let e = entry.expect("a successful extend plan read an entry");
                self.install_extend_entry(e, &plan, rec.lsn);
                false
            }
            ops::OP_DELETE => {
                let entry = sync.lookup(self, name);
                self.plan_delete_entry(entry, name)
                    .expect("replay delete mirrors frontend");
                self.install_delete_sync(name, sync) != entry
            }
            ops::OP_PHYS_INSTALL => {
                let img = PhysImage::decode(rec.params).expect("valid phys image");
                let popped = self
                    .pop_n_in(name, img.pops as u64, allow_steal)
                    .expect("phys replay pool pop");
                let pops_diverged = img.pops > 0 && popped != img.blocks;
                debug_assert!(
                    !pops_diverged,
                    "physical replay diverged from the encoded post-image: popped {popped:?}, logged {:?}",
                    img.blocks
                );
                let home = self.shard_of_name(name);
                for &b in &img.pushes {
                    self.shard_push(home, b);
                }
                let entry = sync.lookup(self, name);
                let kind = match entry {
                    None => PutKind::Create,
                    Some(_) if img.pops == 0 && img.pushes.is_empty() => PutKind::Touch,
                    Some(_) => PutKind::Replace,
                };
                let plan = PutPlan {
                    kind,
                    blocks: img.blocks,
                    freed: img.pushes,
                };
                let agreed = self.install_put_entry(entry, name, img.size, &plan, rec.lsn, sync);
                pops_diverged || !agreed
            }
            ops::OP_PHYS_DELETE => {
                let img = PhysImage::decode(rec.params).expect("valid phys image");
                let home = self.shard_of_name(name);
                for &b in &img.pushes {
                    self.shard_push(home, b);
                }
                self.install_delete_sync(name, sync).is_none()
            }
            other => panic!("unknown op code {other} in log"),
        };
        debug_assert!(
            !diverged,
            "replay of LSN {} on {:?} diverged from the frontend",
            rec.lsn,
            String::from_utf8_lossy(name)
        );
        diverged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore_arena::DramMemory;

    fn domain(arena: &Arena<DramMemory>) -> Domain<'_, DramMemory> {
        Domain::format(arena, 1024) // 1023 data blocks
    }

    fn arena() -> Arena<DramMemory> {
        Arena::create(DramMemory::new(16 << 20))
    }

    /// Single-threaded shorthands: steal permitted, no B-tree sync.
    impl<M: Memory> Domain<'_, M> {
        fn plan_put(&self, name: &[u8], size: u64) -> DsResult<PutPlan> {
            self.plan_put_entry(self.lookup(name), name, size, true)
        }

        fn plan_extend(&self, name: &[u8], offset: u64, len: u64) -> DsResult<ExtendPlan> {
            self.plan_extend_entry(self.lookup(name), name, offset, len, true)
        }

        fn plan_delete(&self, name: &[u8]) -> DsResult<DeletePlan> {
            self.plan_delete_entry(self.lookup(name), name)
        }

        fn install_put(&self, name: &[u8], size: u64, plan: &PutPlan, lsn: u64) {
            let e = self.lookup(name);
            assert!(self.install_put_entry(e, name, size, plan, lsn, &IndexSync::Exclusive));
        }

        fn install_extend(&self, name: &[u8], plan: &ExtendPlan, lsn: u64) {
            self.install_extend_entry(self.lookup(name).unwrap(), plan, lsn)
        }

        fn install_delete(&self, name: &[u8]) {
            let e = self.lookup(name);
            assert_eq!(self.install_delete_sync(name, &IndexSync::Exclusive), e);
        }
    }

    #[test]
    fn format_fills_pool_fifo() {
        let a = arena();
        let d = domain(&a);
        assert_eq!(d.pool_free(), 1023);
        assert_eq!(d.pool_pop(), Some(0));
        assert_eq!(d.pool_pop(), Some(1));
        d.pool_push(0);
        // FIFO: 0 goes to the back, next pop is 2.
        assert_eq!(d.pool_pop(), Some(2));
        assert_eq!(d.pool_free(), 1021);
        // Block 0 owns page 1 (page 0 is the superblock).
        assert_eq!(d.block_first_page(0), 1);
        assert_eq!(d.block_bytes(), 4096);
    }

    #[test]
    fn multi_page_block_geometry() {
        let a = arena();
        let d = Domain::format_with_geometry(&a, 1024, 4);
        // 1023 data pages → 255 four-page blocks.
        assert_eq!(d.pool_free(), 255);
        assert_eq!(d.block_bytes(), 16384);
        assert_eq!(d.block_first_page(0), 1);
        assert_eq!(d.block_first_page(3), 13);
        // A 20 KB object needs two 16 KB blocks.
        let p = d.plan_put(b"big", 20_000).unwrap();
        assert_eq!(p.blocks.len(), 2);
        d.install_put(b"big", 20_000, &p, 1);
        // A 4 KB object still takes one (whole) block.
        let q = d.plan_put(b"small", 4096).unwrap();
        assert_eq!(q.blocks.len(), 1);
        d.install_put(b"small", 4096, &q, 2);
        assert_eq!(d.pool_free(), 252);
        // Delete returns blocks.
        d.plan_delete(b"big").unwrap();
        d.install_delete(b"big");
        assert_eq!(d.pool_free(), 254);
    }

    #[test]
    fn put_create_then_touch_then_replace() {
        let a = arena();
        let d = domain(&a);
        let p1 = d.plan_put(b"obj", 4096).unwrap();
        assert_eq!(p1.kind, PutKind::Create);
        assert_eq!(p1.blocks.len(), 1);
        d.install_put(b"obj", 4096, &p1, 1);
        assert_eq!(d.counters(), (1, 4096));

        // Same block count: touch.
        let p2 = d.plan_put(b"obj", 4000).unwrap();
        assert_eq!(p2.kind, PutKind::Touch);
        assert_eq!(p2.blocks, p1.blocks);
        d.install_put(b"obj", 4000, &p2, 2);
        assert_eq!(d.counters(), (1, 4000));

        // Bigger: replace.
        let p3 = d.plan_put(b"obj", 10_000).unwrap();
        assert_eq!(p3.kind, PutKind::Replace);
        assert_eq!(p3.blocks.len(), 3);
        assert_eq!(p3.freed, p1.blocks);
        d.install_put(b"obj", 10_000, &p3, 3);
        let e = d.lookup(b"obj").unwrap();
        let (size, version, blocks) = d.read_entry(e);
        assert_eq!(size, 10_000);
        assert_eq!(version, 3);
        assert_eq!(blocks, p3.blocks);
    }

    #[test]
    fn delete_returns_blocks_and_removes_object() {
        let a = arena();
        let d = domain(&a);
        let before = d.pool_free();
        let p = d.plan_put(b"gone", 8192).unwrap();
        d.install_put(b"gone", 8192, &p, 1);
        assert_eq!(d.pool_free(), before - 2);
        let del = d.plan_delete(b"gone").unwrap();
        assert_eq!(del.freed, p.blocks);
        d.install_delete(b"gone");
        assert_eq!(d.pool_free(), before);
        assert!(d.lookup(b"gone").is_none());
        assert_eq!(d.counters(), (0, 0));
    }

    /// The installs report what the index held instead of trusting the
    /// plan's entry: a create over a mapped name and a delete of an
    /// unmapped one both disagree.
    #[test]
    fn installs_report_index_disagreement() {
        let a = arena();
        let d = domain(&a);
        let p = d.plan_put(b"x", 4096).unwrap();
        d.install_put(b"x", 4096, &p, 1);
        let stale_create = PutPlan {
            kind: PutKind::Create,
            blocks: vec![],
            freed: vec![],
        };
        assert!(!d.install_put_entry(None, b"x", 0, &stale_create, 2, &IndexSync::Exclusive));
        assert_eq!(
            d.install_delete_sync(b"missing", &IndexSync::Exclusive),
            None
        );
        assert!(d.install_delete_sync(b"x", &IndexSync::Exclusive).is_some());
    }

    #[test]
    fn extend_grows_block_list() {
        let a = arena();
        let d = domain(&a);
        let p = d.plan_put(b"f", 1000).unwrap();
        d.install_put(b"f", 1000, &p, 1);
        let ext = d.plan_extend(b"f", 4096, 5000).unwrap();
        assert_eq!(ext.new_size, 9096);
        assert_eq!(ext.blocks.len(), 3);
        assert_eq!(&ext.blocks[..1], &p.blocks[..]);
        d.install_extend(b"f", &ext, 2);
        let (size, _, blocks) = d.read_entry(d.lookup(b"f").unwrap());
        assert_eq!(size, 9096);
        assert_eq!(blocks, ext.blocks);
        // Extend entirely within the existing size allocates nothing.
        let free = d.pool_free();
        let ext2 = d.plan_extend(b"f", 0, 100).unwrap();
        assert_eq!(ext2.new_size, 9096);
        assert_eq!(d.pool_free(), free);
    }

    #[test]
    fn overflow_chain_for_large_objects() {
        let a = arena();
        let d = Domain::format(&a, 4096);
        // 200 blocks: 12 direct + 126 overflow + 62 overflow.
        let size = 200 * BLOCK_SIZE;
        let p = d.plan_put(b"big", size).unwrap();
        assert_eq!(p.blocks.len(), 200);
        d.install_put(b"big", size, &p, 1);
        let (_, _, blocks) = d.read_entry(d.lookup(b"big").unwrap());
        assert_eq!(blocks, p.blocks);
        // Shrink back to 1 block; chain is freed, blocks return to pool.
        let free_before = d.pool_free();
        let p2 = d.plan_put(b"big", 100).unwrap();
        assert_eq!(p2.kind, PutKind::Replace);
        d.install_put(b"big", 100, &p2, 2);
        assert_eq!(d.pool_free(), free_before + 200 - 1);
        let (_, _, blocks) = d.read_entry(d.lookup(b"big").unwrap());
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn out_of_space_is_reported() {
        let a = arena();
        let d = Domain::format(&a, 4); // 3 data blocks
        assert!(d.plan_put(b"big", 4 * BLOCK_SIZE).is_err());
        // Partial pops must not have leaked.
        assert_eq!(d.pool_free(), 3);
    }

    #[test]
    fn zero_size_object() {
        let a = arena();
        let d = domain(&a);
        let p = d.plan_put(b"empty", 0).unwrap();
        assert!(p.blocks.is_empty());
        d.install_put(b"empty", 0, &p, 1);
        let (size, _, blocks) = d.read_entry(d.lookup(b"empty").unwrap());
        assert_eq!(size, 0);
        assert!(blocks.is_empty());
        d.plan_delete(b"empty").unwrap();
        d.install_delete(b"empty");
    }

    /// The determinism property underpinning DIPPER: replaying the logged
    /// operations on a fresh domain reproduces block assignments and
    /// observable state exactly.
    /// A committed record whose bytes the test owns, for feeding replay.
    struct OwnedRecord {
        lsn: u64,
        op: u16,
        name: Vec<u8>,
        params: Vec<u8>,
    }

    impl OwnedRecord {
        fn view(&self) -> RecordView<'_> {
            RecordView {
                lsn: self.lsn,
                op: self.op,
                commit: dstore_dipper::COMMIT_COMMITTED,
                off: 0,
                name: &self.name,
                params: &self.params,
            }
        }
    }

    #[test]
    fn replay_reproduces_frontend_state() {
        let a1 = arena();
        let front = domain(&a1);
        let mut records: Vec<OwnedRecord> = vec![];
        let mut lsn = 0u64;
        let mut log_op = |op: u16, name: &[u8], params: Vec<u8>| {
            lsn += 1;
            OwnedRecord {
                lsn,
                op,
                name: name.to_vec(),
                params,
            }
        };

        // A busy little history: creates, touches, replaces, deletes,
        // extends, across several objects.
        for i in 0..40u64 {
            let name = format!("obj{}", i % 7);
            let size = (i % 5 + 1) * 3000;
            let rec = log_op(
                ops::OP_PUT,
                name.as_bytes(),
                PutParams { size }.encode().to_vec(),
            );
            let plan = front.plan_put(&rec.name, size).unwrap();
            front.install_put(&rec.name, size, &plan, rec.lsn);
            records.push(rec);
            if i % 7 == 3 {
                let (off, len) = (i * 1000, 9000);
                let rec = log_op(
                    ops::OP_EXTEND,
                    name.as_bytes(),
                    ExtendParams { offset: off, len }.encode().to_vec(),
                );
                let plan = front.plan_extend(&rec.name, off, len).unwrap();
                front.install_extend(&rec.name, &plan, rec.lsn);
                records.push(rec);
            }
            if i % 11 == 10 {
                let rec = log_op(ops::OP_DELETE, name.as_bytes(), vec![]);
                front.plan_delete(&rec.name).unwrap();
                front.install_delete(&rec.name);
                records.push(rec);
            }
        }

        // Replay on a fresh domain.
        let a2 = arena();
        let shadow = domain(&a2);
        for rec in &records {
            shadow.replay(&rec.view());
        }

        // Observable equivalence: same objects, same sizes, same block
        // lists, same pool state.
        assert_eq!(front.counters(), shadow.counters());
        assert_eq!(front.pool_free(), shadow.pool_free());
        let mut names = vec![];
        front.btree().for_each(|k, _| names.push(k.to_vec()));
        let mut shadow_names = vec![];
        shadow
            .btree()
            .for_each(|k, _| shadow_names.push(k.to_vec()));
        assert_eq!(names, shadow_names);
        for n in &names {
            let fe = front.read_entry(front.lookup(n).unwrap());
            let se = shadow.read_entry(shadow.lookup(n).unwrap());
            assert_eq!(fe.0, se.0, "size of {}", String::from_utf8_lossy(n));
            assert_eq!(fe.2, se.2, "blocks of {}", String::from_utf8_lossy(n));
        }
        // Pool contents in order must match too (future allocations
        // diverge otherwise).
        let pops_f: Vec<_> = (0..front.pool_free())
            .map(|_| front.pool_pop().unwrap())
            .collect();
        let pops_s: Vec<_> = (0..shadow.pool_free())
            .map(|_| shadow.pool_pop().unwrap())
            .collect();
        assert_eq!(pops_f, pops_s);
    }

    #[test]
    fn physical_records_replay_equivalently() {
        // Run a frontend history; encode it physically; replay on a fresh
        // domain; states must match.
        let a1 = arena();
        let front = domain(&a1);
        let mut records = vec![];
        let mut lsn = 0u64;
        for i in 0..20u64 {
            lsn += 1;
            let name = format!("p{}", i % 4);
            let size = (i % 3 + 1) * 4096;
            let plan = front.plan_put(name.as_bytes(), size).unwrap();
            front.install_put(name.as_bytes(), size, &plan, lsn);
            let img = PhysImage {
                size,
                blocks: plan.blocks.clone(),
                pops: if plan.kind == PutKind::Touch {
                    0
                } else {
                    plan.blocks.len() as u32
                },
                pushes: plan.freed.clone(),
            };
            records.push(OwnedRecord {
                lsn,
                op: ops::OP_PHYS_INSTALL,
                name: name.into_bytes(),
                params: img.encode(),
            });
        }
        let a2 = arena();
        let shadow = domain(&a2);
        for r in &records {
            shadow.replay(&r.view());
        }
        assert_eq!(front.counters(), shadow.counters());
        assert_eq!(front.pool_free(), shadow.pool_free());
        for i in 0..4 {
            let name = format!("p{i}");
            let fe = front.read_entry(front.lookup(name.as_bytes()).unwrap());
            let se = shadow.read_entry(shadow.lookup(name.as_bytes()).unwrap());
            assert_eq!(fe.0, se.0);
            assert_eq!(fe.2, se.2);
        }
    }

    #[test]
    fn sharded_format_stripes_and_tracks_shards() {
        let a = arena();
        let d = Domain::format_with_shards(&a, 1025, 1, 4); // 1024 blocks
        assert_eq!(d.pool_shards(), 4);
        assert_eq!(d.pool_free(), 1024);
        // Contiguous ascending stripes of 256 blocks per shard.
        for s in 0..4 {
            assert_eq!(d.pool_free_in(s), 256);
        }
        assert_eq!(d.shard_pop(0), Some(0));
        assert_eq!(d.shard_pop(1), Some(256));
        assert_eq!(d.shard_pop(3), Some(768));
        // Global pop scans shards in index order.
        assert_eq!(d.pool_pop(), Some(1));
        // Shard count excess is clamped to the block count.
        let a2 = arena();
        let tiny = Domain::format_with_shards(&a2, 4, 1, 8); // 3 blocks
        assert_eq!(tiny.pool_shards(), 3);
        assert_eq!(tiny.pool_free(), 3);
    }

    #[test]
    fn name_pops_and_pushes_stay_in_home_shard() {
        let a = arena();
        let d = Domain::format_with_shards(&a, 1025, 1, 4);
        let name = b"some-object";
        let own = d.shard_of_name(name);
        let other_free: u64 = (0..4)
            .filter(|&s| s != own)
            .map(|s| d.pool_free_in(s))
            .sum();
        let p = d
            .plan_put_entry(d.lookup(name), name, 3 * 4096, false)
            .unwrap();
        assert_eq!(p.blocks.len(), 3);
        assert_eq!(d.pool_free_in(own), 256 - 3);
        d.install_put(name, 3 * 4096, &p, 1);
        // Replace frees the old blocks into the same shard.
        let p2 = d.plan_put_entry(d.lookup(name), name, 4096, false).unwrap();
        d.install_put(name, 4096, &p2, 2);
        assert_eq!(d.pool_free_in(own), 256 - 1);
        let now_other: u64 = (0..4)
            .filter(|&s| s != own)
            .map(|s| d.pool_free_in(s))
            .sum();
        assert_eq!(other_free, now_other, "sibling shards untouched");
    }

    #[test]
    fn starved_shard_reports_and_steals_deterministically() {
        let a = arena();
        let d = Domain::format_with_shards(&a, 9, 1, 2); // 8 blocks: 4 + 4
        let name = b"n";
        let own = d.shard_of_name(name);
        // Drain the own shard.
        let drained = d.pop_n_in(name, 4, false).unwrap();
        assert_eq!(drained.len(), 4);
        assert_eq!(d.pool_free_in(own), 0);
        // Starved without steal; nothing popped.
        assert_eq!(d.pop_n_in(name, 2, false), Err(DsError::ShardStarved));
        assert_eq!(d.pool_free(), 4);
        // Peek predicts exactly what the stealing pop takes.
        let peeked = d.pool_peek_for(name, 2).unwrap();
        let stolen = d.pop_n_in(name, 2, true).unwrap();
        assert_eq!(peeked, stolen);
        assert_eq!(d.pool_free(), 2);
        // Global exhaustion is OutOfSpace, and partial pops never leak.
        assert_eq!(d.pop_n_in(name, 3, true), Err(DsError::OutOfSpace));
        assert_eq!(d.pool_free(), 2);
    }

    #[test]
    fn sharded_replay_reproduces_frontend_state() {
        // Mixed history over a 4-shard pool, including cross-shard
        // steals, replayed on a fresh 4-shard domain.
        let a1 = arena();
        let front = Domain::format_with_shards(&a1, 257, 1, 4); // 256 blocks
        let mut records: Vec<OwnedRecord> = vec![];
        let mut lsn = 0u64;
        for i in 0..60u64 {
            lsn += 1;
            let name = format!("obj{}", i % 9);
            // Large enough that some shards starve and steal.
            let size = (i % 4 + 1) * 20 * 4096;
            let rec = OwnedRecord {
                lsn,
                op: ops::OP_PUT,
                name: name.clone().into_bytes(),
                params: PutParams { size }.encode().to_vec(),
            };
            // Steal-permitted, like the frontend's escalated path.
            match front.plan_put(&rec.name, size) {
                Ok(plan) => {
                    front.install_put(&rec.name, size, &plan, rec.lsn);
                    records.push(rec);
                }
                Err(DsError::OutOfSpace) => {
                    lsn -= 1;
                    let del = OwnedRecord {
                        lsn: lsn + 1,
                        op: ops::OP_DELETE,
                        name: name.into_bytes(),
                        params: vec![],
                    };
                    if front.plan_delete(&del.name).is_ok() {
                        lsn += 1;
                        front.install_delete(&del.name);
                        records.push(del);
                    }
                }
                Err(e) => panic!("unexpected plan error {e}"),
            }
        }
        let a2 = arena();
        let shadow = Domain::format_with_shards(&a2, 257, 1, 4);
        for rec in &records {
            shadow.replay(&rec.view());
        }
        assert_eq!(front.counters(), shadow.counters());
        assert_eq!(front.pool_free(), shadow.pool_free());
        for s in 0..4 {
            assert_eq!(front.pool_free_in(s), shadow.pool_free_in(s));
        }
        // Per-shard pool contents in FIFO order must match exactly.
        loop {
            let (f, s) = (front.pool_pop(), shadow.pool_pop());
            assert_eq!(f, s);
            if f.is_none() {
                break;
            }
        }
    }

    #[test]
    fn domain_survives_region_copy() {
        let a1 = arena();
        let d1 = domain(&a1);
        let p = d1.plan_put(b"persisted", 6000).unwrap();
        d1.install_put(b"persisted", 6000, &p, 1);
        let a2 = arena();
        a1.copy_allocated_to(&a2);
        let d2 = Domain::attach(&a2, d1.dir_ptr());
        let (size, _, blocks) = d2.read_entry(d2.lookup(b"persisted").unwrap());
        assert_eq!(size, 6000);
        assert_eq!(blocks, p.blocks);
        assert_eq!(d2.pool_free(), d1.pool_free());
    }
}
