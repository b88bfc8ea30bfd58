//! DStore's arena-resident control-plane structures and the deterministic
//! state machine that mutates them.
//!
//! Everything in this module lives inside an arena and is therefore
//! shadow-copyable: the [`Directory`] (pointed to by the PMEM root's
//! app-dir word), the object-index B-tree, the metadata zone of
//! [`MetaEntry`]s, and the SSD [block pool](PoolHeader) — exactly the
//! boxes of the paper's Figure 4 — plus the slots that hold values of at
//! most [`INLINE_MAX`] bytes in place of SSD blocks.
//!
//! [`Domain`] binds these structures to one arena (the DRAM system space,
//! or a PMEM shadow region during checkpoint replay / recovery) and
//! implements every logged operation in two phases:
//!
//! * **plan** — the block-pool interactions (steps ③/④ of Figure 4). The
//!   frontend *claims* free blocks by id ([`Domain::claim`]) and its
//!   record names every id it claimed. The blocks an op frees are only
//!   listed; the frontend returns them ([`Domain::release`]) after the
//!   op's record commits, so no block is reused while the op that frees
//!   it can still die. An inline value's slot is allocated here too; a
//!   plan whose record is never logged gives both back
//!   ([`Domain::unclaim`]).
//! * **install** — the metadata-zone and B-tree updates (steps ⑥/⑦).
//!   These touch only the operation's own object, so by observational
//!   equivalence they may run outside the synchronous region and in
//!   parallel across objects; internal layout (entry offsets, tree shape)
//!   may differ between domains while observable state stays identical
//!   (§3.7).
//!
//! [`Domain::replay`] is what checkpoint replay and recovery execute,
//! record by record: it claims the ids the record names, releases the
//! blocks the record freed, copies an inline value into a slot, and
//! installs. Claims and releases are atomic adds on the ownership map, so
//! records on different objects replay in any order.

use crate::error::{DsError, DsResult};
use crate::ops::{self, ExtendParams, InlineParams, PhysImage, PutParams};
use dstore_arena::{Arena, ArenaPod, ByteSlice, Memory, RelPtr};
use dstore_dipper::record::RecordView;
use dstore_dipper::OP_NOOP;
use dstore_index::{fnv1a, BTreeHandle, BTreeHeader};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

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
/// Largest value stored inline: carried in its log record and kept in an
/// arena slot instead of an SSD block. Its three class-rounded copies
/// (DRAM and two PMEM shadows) take at most the one page it replaces.
pub const INLINE_MAX: u64 = PAGE_BYTES / 4;
/// Inline values may fill the DRAM arena up to this fraction of its
/// region, `(numerator, denominator)`; past it a small value takes the
/// block path. The rest leaves a same-size shadow room for layout
/// differences and keeps metadata allocations from running out.
const INLINE_FILL: (u64, u64) = (3, 4);

/// The application directory: the single arena object the PMEM root
/// points at.
#[repr(C)]
#[derive(Debug)]
pub struct Directory {
    /// Object-index B-tree header.
    pub btree: RelPtr<BTreeHeader>,
    /// SSD block pool: the first of `pool_shards` contiguous
    /// [`PoolHeader`]s, one per id range of the ownership map (sharded so
    /// that writers on different shards allocate without contending).
    pub block_pool: RelPtr<PoolHeader>,
    /// The ownership map: one byte per block, counting the objects that
    /// own it — 0 (free) or 1 in a consistent pool.
    pub owners: RelPtr<u8>,
    /// Allocation blocks in the pool (bytes of the ownership map).
    pub blocks: u64,
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

/// Per-object metadata — one entry in the metadata zone. It is exactly
/// 128 B, a power-of-two slab class.
///
/// An entry is *inline* iff `nblocks == 0 && size > 0`: its value lives
/// in the arena slot at offset `direct[0]`, allocated for `size` bytes.
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
    /// First [`NDIRECT`] block ids; an inline entry's slot offset in
    /// `direct[0]`.
    pub direct: [u64; NDIRECT],
    /// Chain of additional blocks for large objects.
    pub overflow: RelPtr<Overflow>,
}
// SAFETY: repr(C) pods; zero-valid (empty object).
unsafe impl ArenaPod for MetaEntry {}
const _: () = assert!(std::mem::size_of::<MetaEntry>() == 128);

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

/// One shard of the SSD block pool: the id range `[lo, hi)` of the
/// ownership map, with its free count and next-fit cursor. The paper's
/// pool is circular buffers (§4.2), which replay right only if popped in
/// frontend order; an owner byte per block lets a record name its ids
/// and replay claim exactly those, in any order (DESIGN.md §6a, 2).
#[repr(C)]
#[derive(Debug)]
pub struct PoolHeader {
    /// First block id of the range.
    pub lo: u64,
    /// One past the range's last block id.
    pub hi: u64,
    /// Free blocks in the range (updated atomically).
    pub free: u64,
    /// Where the range's next claim starts looking (frontend only, under
    /// the shard's lock).
    pub cursor: u64,
}
// SAFETY: repr(C) pods; zero-valid.
unsafe impl ArenaPod for PoolHeader {}

/// Number of blocks of `block_bytes` an object of `size` bytes occupies.
#[inline]
pub fn blocks_for_geometry(size: u64, block_bytes: u64) -> u64 {
    size.div_ceil(block_bytes)
}

/// The arena slot holding an inline value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Arena offset of the slot.
    pub off: u64,
    /// The value size it holds (its class is the allocation's).
    pub size: u64,
    /// Whether the plan allocated it; `false` is the entry's own slot,
    /// reused in place because the size class agrees.
    pub fresh: bool,
}

/// The result of a put/create (or delete) plan: the object's final block
/// list, or the slot of its inline value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutPlan {
    /// What kind of mutation this is.
    pub kind: PutKind,
    /// The object's final, complete block list: claimed by this plan
    /// unless it is a touch. Empty for an inline value.
    pub blocks: Vec<u64>,
    /// The object's old blocks, which the op frees: the frontend releases
    /// them once the op's record commits.
    pub freed: Vec<u64>,
    /// Where an inline value goes. The entry's old slot, if the plan does
    /// not reuse it, is freed at install.
    pub slot: Option<Slot>,
}

/// The blocks a plan claimed and the slot it allocated: the frontend
/// gives them back ([`Domain::unclaim`]) if the plan's record is never
/// logged.
pub trait Claims {
    /// The claimed block ids.
    fn claims(&self) -> &[u64];

    /// The slot the plan allocated, if any.
    fn fresh_slot(&self) -> Option<Slot> {
        None
    }
}

impl Claims for PutPlan {
    fn claims(&self) -> &[u64] {
        match self.kind {
            PutKind::Touch => &[],
            _ => &self.blocks,
        }
    }

    fn fresh_slot(&self) -> Option<Slot> {
        self.slot.filter(|s| s.fresh)
    }
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
    /// How many ids at the end of `blocks` this plan claimed.
    pub claimed: usize,
}

impl Claims for ExtendPlan {
    fn claims(&self) -> &[u64] {
        &self.blocks[self.blocks.len() - self.claimed..]
    }
}

/// The result of an `owrite` plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WritePlan {
    /// The object grows in place ([`ops::OP_EXTEND`]).
    Extend(ExtendPlan),
    /// A result of at most [`INLINE_MAX`] on an object holding no blocks
    /// is read, modified and written whole: the put that stores the new
    /// value, and that value.
    Rewrite(PutPlan, Vec<u8>),
}

impl Claims for WritePlan {
    fn claims(&self) -> &[u64] {
        match self {
            WritePlan::Extend(p) => p.claims(),
            WritePlan::Rewrite(p, _) => p.claims(),
        }
    }

    fn fresh_slot(&self) -> Option<Slot> {
        match self {
            WritePlan::Extend(_) => None,
            WritePlan::Rewrite(p, _) => p.fresh_slot(),
        }
    }
}

/// How a [`Domain`] call synchronizes B-tree access against other
/// domains bound to the same arena.
///
/// Serial replay owns its domain, and frontend ops hold the store's
/// `btree_lock` around every lookup, insert and remove, so both pass
/// [`IndexSync::Exclusive`] (no locking here). OE-parallel replay workers
/// each own disjoint name groups — their metadata-entry accesses never
/// collide, and their pool claims are atomic adds — but they share one
/// B-tree through
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
    /// Looks up every name of `names` in `d`'s B-tree under this sync
    /// mode, writing name `i`'s metadata entry to `out[i]`, in one
    /// level-synchronous descent ([`BTreeHandle::get_many`]). `Shared`
    /// takes the read lock once for the whole list.
    #[inline]
    fn lookup_many<M: Memory>(
        &self,
        d: &Domain<'_, M>,
        names: &[&[u8]],
        out: &mut [Option<RelPtr<MetaEntry>>],
    ) {
        let found = |i: usize, off: Option<u64>| out[i] = off.map(RelPtr::from_offset);
        match self {
            IndexSync::Exclusive => d.btree().get_many(names, found),
            IndexSync::Shared { lock, .. } => {
                let _g = lock.read();
                d.btree().get_many(names, found)
            }
        }
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
/// Synchronization is the *caller's* job (the store passes its shard
/// locks to [`Domain::claim`] and wraps install calls in the B-tree lock;
/// replay is single-threaded per domain, or sharded across domains with
/// [`IndexSync::Shared`] guarding the B-tree).
pub struct Domain<'a, M: Memory> {
    arena: &'a Arena<M>,
    dir: RelPtr<Directory>,
}

impl<'a, M: Memory> Domain<'a, M> {
    /// Formats a fresh domain in `arena`: directory, empty B-tree, and a
    /// block pool holding every data block of an `ssd_pages`-page device
    /// free (page 0 is the superblock and is never pooled). Blocks are
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
    /// `shards` contiguous ascending id ranges, each with its own free
    /// count and cursor. Object names hash to a *home* shard
    /// ([`Domain::shard_of_name`]) whose range their claims try first;
    /// the frontend serializes claims per shard instead of globally, so
    /// writers on different shards allocate concurrently, and claiming
    /// next-fit within a range keeps the SSD write pattern sequential.
    ///
    /// `shards` is clamped to `[1, min(MAX_POOL_SHARDS, blocks)]` and
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
        let blocks = (ssd_pages - 1) / pages_per_block;
        let nshards = shards.clamp(1, MAX_POOL_SHARDS).min(blocks as usize) as u64;
        let span = blocks.div_ceil(nshards);
        let pool = RelPtr::<PoolHeader>::from_offset(
            arena.alloc_block(nshards as usize * std::mem::size_of::<PoolHeader>()),
        );
        // Arena memory starts zeroed: every block free.
        let owners = RelPtr::<u8>::from_offset(arena.alloc_block(blocks as usize));
        // SAFETY: fresh allocations, exclusive.
        unsafe {
            for s in 0..nshards {
                let (lo, hi) = ((s * span).min(blocks), ((s + 1) * span).min(blocks));
                *arena.resolve(pool).add(s as usize) = PoolHeader {
                    lo,
                    hi,
                    free: hi - lo,
                    cursor: lo,
                };
            }
            let d = &mut *arena.resolve(dir);
            d.btree = btree.header_ptr();
            d.block_pool = pool;
            d.owners = owners;
            d.blocks = blocks;
            d.pages_per_block = pages_per_block;
            d.pool_shards = nshards;
        }
        Self { arena, dir }
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
        Self { arena, dir }
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
        self.btree().get(name).map(RelPtr::from_offset)
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

    /// `name`'s home shard: the range its claims try first. Replay groups
    /// records by it too, which keeps each object's records in LSN order
    /// on one worker.
    pub fn shard_of_name(&self, name: &[u8]) -> usize {
        (fnv1a(name) % self.pool_shards() as u64) as usize
    }

    /// Shard `s`'s header.
    fn shard(&self, s: usize) -> *mut PoolHeader {
        let n = self.pool_shards();
        assert!(s < n, "pool shard {s} of {n}");
        // SAFETY: in bounds; pool structures live.
        unsafe {
            self.arena
                .resolve((*self.arena.resolve(self.dir)).block_pool)
                .add(s)
        }
    }

    /// Shard `s`'s free count.
    fn free_count(&self, s: usize) -> &AtomicU64 {
        // SAFETY: the header is live; `AtomicU64` has `u64`'s layout.
        unsafe { &*(&raw mut (*self.shard(s)).free as *const AtomicU64) }
    }

    /// The ownership map, indexed by block id.
    fn owners(&self) -> &'a [AtomicU8] {
        // SAFETY: the directory's map holds `blocks` bytes; `AtomicU8`
        // has `u8`'s layout.
        unsafe {
            let d = &*self.arena.resolve(self.dir);
            std::slice::from_raw_parts(
                self.arena.resolve(d.owners) as *const AtomicU8,
                d.blocks as usize,
            )
        }
    }

    /// The shard whose range holds block `id`.
    fn shard_of_block(&self, id: u64) -> usize {
        let span = (self.owners().len() as u64).div_ceil(self.pool_shards() as u64);
        (id / span) as usize
    }

    /// Claims `n` free blocks for an operation on `name`: from its home
    /// shard's range first, then from each following shard's in turn,
    /// holding shard `s`'s lock (`locks[s]`) only for that range's claim.
    /// A shortfall releases what it took and is [`DsError::OutOfSpace`].
    pub fn claim(&self, name: &[u8], n: u64, locks: &[Mutex<()>]) -> DsResult<Vec<u64>> {
        let mut out = Vec::new();
        if n == 0 {
            return Ok(out);
        }
        // More than the whole pool never fits: fail before reserving.
        if n > self.owners().len() as u64 {
            return Err(DsError::OutOfSpace);
        }
        out.reserve_exact(n as usize);
        let shards = self.pool_shards();
        let home = self.shard_of_name(name);
        for s in (0..shards).map(|i| (home + i) % shards) {
            let _g = locks[s].lock();
            self.claim_in(s, n as usize - out.len(), &mut out);
            if out.len() as u64 == n {
                return Ok(out);
            }
        }
        self.release(&out);
        Err(DsError::OutOfSpace)
    }

    /// Claims up to `want` free blocks of shard `s` into `out`, next-fit
    /// from its cursor, under the shard's lock. A release clears its byte
    /// before it counts it, so one lap finds every block `free` counts.
    fn claim_in(&self, s: usize, want: usize, out: &mut Vec<u64>) {
        let free = self.free_count(s);
        let take = (free.load(Ordering::Acquire) as usize).min(want);
        if take == 0 {
            return;
        }
        let owners = self.owners();
        let h = self.shard(s);
        // SAFETY: the caller's lock makes the header's cursor ours.
        let (lo, hi, mut id) = unsafe { ((*h).lo, (*h).hi, (*h).cursor) };
        let mut got = 0;
        for _ in lo..hi {
            if got == take {
                break;
            }
            let o = &owners[id as usize];
            if o.load(Ordering::Relaxed) == 0 {
                o.store(1, Ordering::Relaxed);
                out.push(id);
                got += 1;
            }
            id = if id + 1 == hi { lo } else { id + 1 };
        }
        assert_eq!(
            got, take,
            "pool shard {s} counted free blocks its map lacks"
        );
        // SAFETY: as above.
        unsafe { (*h).cursor = id };
        free.fetch_sub(take as u64, Ordering::Relaxed);
    }

    /// Returns blocks to the pool, each to its own shard's range, and
    /// reports whether every one was owned exactly once. Needs no lock: a
    /// claim takes only bytes that read 0.
    pub fn release(&self, ids: &[u64]) -> bool {
        let owners = self.owners();
        let mut owned_once = true;
        for &id in ids {
            owned_once &= owners[id as usize].fetch_sub(1, Ordering::Relaxed) == 1;
            self.free_count(self.shard_of_block(id))
                .fetch_add(1, Ordering::Release);
        }
        owned_once
    }

    /// Gives back what a plan took when its record is never logged: its
    /// claimed blocks and the slot it allocated.
    pub fn unclaim(&self, plan: &impl Claims) {
        self.release(plan.claims());
        if let Some(s) = plan.fresh_slot() {
            self.arena.free_block(s.off, s.size as usize);
        }
    }

    /// Replays a record's pool effects: `+1` on the owner byte of each id
    /// it claimed and `−1` for each it freed (adds commute), noting every
    /// id with the record's LSN in `touched`.
    fn replay_pool(&self, claims: &[u64], freed: &[u64], lsn: u64, touched: &mut Vec<(u64, u64)>) {
        let owners = self.owners();
        for &id in claims {
            owners[id as usize].fetch_add(1, Ordering::Relaxed);
            self.free_count(self.shard_of_block(id))
                .fetch_sub(1, Ordering::Relaxed);
        }
        self.release(freed);
        touched.extend(claims.iter().chain(freed).map(|&id| (id, lsn)));
    }

    /// The `touched` ids whose owner count is neither 0 nor 1 — a double
    /// claim or a release of a free block — as `(id, owners, lsn)`, once
    /// per id with the last LSN that touched it. Only meaningful at a
    /// window's end: inside one, other objects' claims and releases of an
    /// id may apply in either order.
    pub fn ownership_errors(&self, touched: &[(u64, u64)]) -> Vec<(u64, i8, u64)> {
        let owners = self.owners();
        let mut errors: Vec<_> = touched
            .iter()
            .filter_map(|&(id, lsn)| {
                let n = owners[id as usize].load(Ordering::Relaxed);
                (n > 1).then_some((id, n as i8, lsn))
            })
            .collect();
        errors.sort_unstable_by_key(|&(id, _, lsn)| (id, std::cmp::Reverse(lsn)));
        errors.dedup_by_key(|e| e.0);
        errors
    }

    /// Free blocks remaining in shard `s`'s range.
    pub fn pool_free_in(&self, s: usize) -> u64 {
        self.free_count(s).load(Ordering::Relaxed)
    }

    /// Free blocks remaining across all shards.
    pub fn pool_free(&self) -> u64 {
        (0..self.pool_shards()).map(|s| self.pool_free_in(s)).sum()
    }

    /// Blocks owned by objects or by in-flight claims.
    pub fn pool_used(&self) -> u64 {
        self.owners().len() as u64 - self.pool_free()
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
        out.extend_from_slice(&m.direct[..n.min(NDIRECT)]);
        // Only an entry with more than NDIRECT blocks has a chain, so a
        // small one is read from its first cache line.
        let mut ov = if n > NDIRECT {
            m.overflow
        } else {
            RelPtr::null()
        };
        while !ov.is_null() {
            let node = &*self.arena.resolve(ov);
            out.extend_from_slice(&node.blocks[..node.count as usize]);
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
        // Free the old chain (only an entry with more than NDIRECT blocks
        // has one).
        if m.nblocks as usize > NDIRECT {
            let mut ov = m.overflow;
            while !ov.is_null() {
                let next = (*self.arena.resolve(ov)).next;
                self.arena.free(ov);
                ov = next;
            }
            m.overflow = RelPtr::null();
        }
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
    // inline slots

    /// An inline entry's slot as `(offset, size)`; `None` for an entry
    /// holding blocks or nothing.
    pub fn slot_of(&self, e: RelPtr<MetaEntry>) -> Option<(u64, u64)> {
        // SAFETY: entry live; caller excludes concurrent writers (CC).
        let m = unsafe { &*self.arena.resolve(e) };
        (m.nblocks == 0 && m.size > 0).then_some((m.direct[0], m.size))
    }

    /// The first `len` bytes of the slot at `off`.
    ///
    /// # Safety
    ///
    /// The slot must be live and not written while the slice is used: the
    /// caller holds the object's read latch, or owns it (writer mark,
    /// replay worker).
    pub unsafe fn slot_bytes(&self, off: u64, len: u64) -> &'a [u8] {
        self.arena.bytes(ByteSlice {
            ptr: RelPtr::from_offset(off),
            len: len as u32,
        })
    }

    /// Stores an inline value in `slot`: `value`, or `slot.size` zero
    /// bytes for a create (a fresh slot is already zeroed). The caller
    /// owns the object (writer mark with its readers drained, or replay).
    pub fn fill_slot(&self, slot: &Slot, value: Option<&[u8]>) {
        let len = slot.size as usize;
        assert!(
            slot.off as usize + len <= self.arena.memory().len(),
            "slot out of region bounds"
        );
        let dst = self.arena.resolve(RelPtr::<u8>::from_offset(slot.off));
        // SAFETY: in bounds (checked); the caller owns the slot.
        unsafe {
            match value {
                Some(v) => {
                    assert_eq!(v.len(), len, "inline value fills its slot");
                    std::ptr::copy_nonoverlapping(v.as_ptr(), dst, len);
                }
                None if !slot.fresh => std::ptr::write_bytes(dst, 0, len),
                None => {}
            }
        }
    }

    /// The slot for an inline value of `size` bytes on an entry whose
    /// slot is `old` (`(offset, size)`): `old` itself when the size class
    /// agrees, else a fresh zeroed one. With `headroom` (the frontend) no
    /// fresh slot is handed out past [`INLINE_FILL`] of the arena or when
    /// the arena is full — `None` sends the value to the block path.
    /// Replay follows its record and allocates unconditionally.
    fn slot_for(&self, old: Option<(u64, u64)>, size: u64, headroom: bool) -> Option<Slot> {
        let class = |n: u64| Arena::<M>::class_bytes(n as usize) as u64;
        if let Some((off, old_size)) = old {
            if class(old_size) == class(size) {
                return Some(Slot {
                    off,
                    size,
                    fresh: false,
                });
            }
        }
        let off = if headroom {
            let s = self.arena.stats();
            if s.allocated_bytes + class(size) > s.capacity / INLINE_FILL.1 * INLINE_FILL.0 {
                return None;
            }
            self.arena.try_alloc_block(size as usize)?
        } else {
            self.arena.alloc_block(size as usize)
        };
        Some(Slot {
            off,
            size,
            fresh: true,
        })
    }

    // ------------------------------------------------------------------
    // plan phase (frontend pool claims)

    /// Plans an [`ops::OP_PUT`]-family operation on `name`, whose current
    /// metadata entry the caller looked up (under its index sync mode). A
    /// value of 1 to [`INLINE_MAX`] bytes gets a slot (the entry's own when
    /// the size class agrees) unless the arena is past its headroom.
    /// Otherwise a create or a replace claims the new block list
    /// ([`Domain::claim`], with the store's shard `locks`), and the same
    /// block count on an entry holding blocks is a touch, which claims
    /// nothing. A replace lists the old blocks in `freed` for the caller
    /// to release once the record commits.
    pub fn plan_put_entry(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
        size: u64,
        locks: &[Mutex<()>],
    ) -> DsResult<PutPlan> {
        // CC guarantees no concurrent writer on `name`.
        let (kind, old, old_slot) = match entry {
            Some(e) => (PutKind::Replace, self.read_entry(e).2, self.slot_of(e)),
            None => (PutKind::Create, vec![], None),
        };
        if (1..=INLINE_MAX).contains(&size) {
            if let Some(slot) = self.slot_for(old_slot, size, true) {
                return Ok(PutPlan {
                    kind,
                    blocks: vec![],
                    freed: old,
                    slot: Some(slot),
                });
            }
        }
        let need = blocks_for_geometry(size, self.block_bytes());
        if entry.is_some() && old_slot.is_none() && old.len() as u64 == need {
            return Ok(PutPlan {
                kind: PutKind::Touch,
                blocks: old,
                freed: vec![],
                slot: None,
            });
        }
        Ok(PutPlan {
            kind,
            blocks: self.claim(name, need, locks)?,
            freed: old,
            slot: None,
        })
    }

    /// Plans an `owrite` of `data` at `offset` (entry and locks as for
    /// [`Domain::plan_put_entry`]). A result of at most [`INLINE_MAX`] on
    /// an object holding no blocks (inline or empty) is read, modified and
    /// planned as a put of the whole new value. Any other write extends
    /// ([`Domain::plan_extend_entry`]), an inline object too: the extend
    /// claims all of its blocks.
    pub fn plan_write_entry(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
        offset: u64,
        data: &[u8],
        locks: &[Mutex<()>],
    ) -> DsResult<WritePlan> {
        let e = entry.ok_or(DsError::NotFound)?;
        // SAFETY: entry live; CC excludes concurrent writers.
        let (size, nblocks) = unsafe {
            let m = &*self.arena.resolve(e);
            (m.size, m.nblocks)
        };
        let new_size = size.max(offset + data.len() as u64);
        if nblocks > 0 || new_size > INLINE_MAX {
            let plan = self.plan_extend_entry(entry, name, offset, data.len() as u64, locks)?;
            return Ok(WritePlan::Extend(plan));
        }
        let plan = self.plan_put_entry(entry, name, new_size, locks)?;
        let mut value = match self.slot_of(e) {
            // SAFETY: the caller's read latch keeps writers out.
            Some((off, len)) => unsafe { self.slot_bytes(off, len) }.to_vec(),
            None => vec![],
        };
        value.resize(new_size as usize, 0);
        value[offset as usize..][..data.len()].copy_from_slice(data);
        Ok(WritePlan::Rewrite(plan, value))
    }

    /// Plans an [`ops::OP_EXTEND`]: claims the additional blocks (entry
    /// and locks as for [`Domain::plan_put_entry`]).
    pub fn plan_extend_entry(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
        offset: u64,
        len: u64,
        locks: &[Mutex<()>],
    ) -> DsResult<ExtendPlan> {
        let e = entry.ok_or(DsError::NotFound)?;
        let (size, _, mut blocks) = self.read_entry(e);
        let new_size = size.max(offset + len);
        let need = blocks_for_geometry(new_size, self.block_bytes());
        let extra = need.saturating_sub(blocks.len() as u64);
        blocks.extend(self.claim(name, extra, locks)?);
        Ok(ExtendPlan {
            blocks,
            new_size,
            claimed: extra as usize,
        })
    }

    /// Plans an [`ops::OP_DELETE`]: lists the object's blocks in `freed`
    /// (released once the record commits) and claims nothing. An inline
    /// value's slot is freed at install.
    pub fn plan_delete_entry(&self, entry: Option<RelPtr<MetaEntry>>) -> DsResult<PutPlan> {
        let e = entry.ok_or(DsError::NotFound)?;
        Ok(PutPlan {
            kind: PutKind::Replace,
            blocks: vec![],
            freed: self.read_entry(e).2,
            slot: None,
        })
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
    /// entry itself is object-exclusive and updated outside any lock. An
    /// old slot the plan does not reuse is freed here; the slot's value
    /// is the caller's to store ([`Domain::fill_slot`]).
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
        let (old_size, old_slot, entry, agreed) = match entry {
            // SAFETY: CC excludes concurrent writers on this object.
            Some(e) => (
                unsafe { (*self.arena.resolve(e)).size },
                self.slot_of(e),
                e,
                true,
            ),
            None => {
                let e: RelPtr<MetaEntry> = self.arena.alloc();
                let displaced = sync.insert(self, name, e.offset());
                (0, None, e, displaced.is_none())
            }
        };
        if let Some((off, len)) = old_slot {
            if plan.slot.map(|s| s.off) != Some(off) {
                self.arena.free_block(off, len as usize);
            }
        }
        // SAFETY: exclusive entry access via CC.
        unsafe {
            if plan.kind != PutKind::Touch {
                self.entry_set_blocks(entry, &plan.blocks);
            }
            let m = &mut *self.arena.resolve(entry);
            if plan.blocks.is_empty() {
                m.direct[0] = plan.slot.map_or(0, |s| s.off);
            }
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

    /// Installs a planned extension on the entry the plan read. An inline
    /// entry's slot is freed: its bytes are the caller's to move to the
    /// first block. Extends never touch the tree.
    pub fn install_extend_entry(&self, e: RelPtr<MetaEntry>, plan: &ExtendPlan, lsn: u64) {
        if let Some((off, len)) = self.slot_of(e) {
            self.arena.free_block(off, len as usize);
        }
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
        if let Some((off, len)) = self.slot_of(e) {
            self.arena.free_block(off, len as usize);
        }
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

    /// The entries of `names`, looked up under `sync` in one descent,
    /// with their cache misses started: each hit's first line, then an
    /// inline entry's slot, are requested from memory, so that by the
    /// time replay reaches name `i` they are in cache. `out[i]` is name
    /// `i`'s entry as the tree maps it now.
    ///
    /// Replay looks up a batch of records' names here before it applies
    /// any of them. A record's result stays right while the records
    /// before it in the batch are on other names: only a record on a name
    /// creates, frees or refills that name's entry and slot, and a result
    /// is an entry, not a tree position, so the splits and merges other
    /// names cause cannot move it. A record with an earlier record in the
    /// batch on its own name is looked up again (a batch of one) at its
    /// turn.
    pub fn find_many(
        &self,
        names: &[&[u8]],
        sync: &IndexSync<'_>,
        out: &mut [Option<RelPtr<MetaEntry>>],
    ) {
        assert_eq!(names.len(), out.len(), "one entry per name");
        sync.lookup_many(self, names, out);
        // The fields an inline entry's replay reads: size to direct[0].
        for e in out.iter().flatten() {
            self.arena.prefetch(e.offset(), 32);
        }
        for &e in out.iter().flatten() {
            if let Some((off, len)) = self.slot_of(e) {
                self.arena.prefetch(off, len);
            }
        }
    }

    /// Applies one committed log record to this domain — the deterministic
    /// state machine of §3.2 ("each logical operation translates to a set
    /// of functions to be performed on each data structure … used by the
    /// recovery logic to update the shadow copies"). It removes what the
    /// entry held — releasing its blocks (the object's old blocks, or a
    /// physical record's logged ones) or freeing its slot — claims the
    /// block ids the record names or copies its inline value into a slot,
    /// and installs the result; `sync` says how the B-tree is shared.
    /// Every id claimed or released goes to `touched` with the record's
    /// LSN, for the window's [`Domain::ownership_errors`] check.
    ///
    /// `entry` is the record's name's entry now, as the caller looked it
    /// up ([`Domain::find_many`]); the record uses it throughout, so a record
    /// costs one descent (two for a create or a delete, whose
    /// insert/remove descend again).
    ///
    /// Returns whether the record *diverged* from the frontend: a touch
    /// or a delete of a missing object, a create whose insert displaced a
    /// mapping, a delete whose remove found another entry than its
    /// lookup, or a record that cannot apply to the entry's
    /// representation — a touch of an entry that does not hold the blocks
    /// its size needs (an inline one, say), or an extend whose blocks do
    /// not add up to its new size; those two leave the entry as it was.
    /// Checked in every build: it is named on stderr, and the caller
    /// counts it.
    pub fn replay(
        &self,
        rec: &RecordView<'_>,
        entry: Option<RelPtr<MetaEntry>>,
        sync: &IndexSync<'_>,
        touched: &mut Vec<(u64, u64)>,
    ) -> bool {
        let (name, lsn) = (rec.name, rec.lsn);
        let diverged = match rec.op {
            OP_NOOP => false,
            ops::OP_TOUCH => {
                let p = PutParams::decode(rec.params).expect("valid put params");
                let need = blocks_for_geometry(p.size, self.block_bytes());
                let blocks = entry
                    .filter(|&e| self.slot_of(e).is_none())
                    .map(|e| self.read_entry(e).2)
                    .filter(|b| b.len() as u64 == need);
                match blocks {
                    Some(blocks) => {
                        let plan = PutPlan {
                            kind: PutKind::Touch,
                            blocks,
                            freed: vec![],
                            slot: None,
                        };
                        !self.install_put_entry(entry, name, p.size, &plan, lsn, sync)
                    }
                    None => true,
                }
            }
            ops::OP_PUT | ops::OP_CREATE => {
                let p = PutParams::decode(rec.params).expect("valid put params");
                // A size with no blocks is an inline object of zeros.
                let slot = (p.blocks.is_empty() && p.size > 0)
                    .then(|| self.replay_slot(entry, p.size, None));
                self.replay_replace(entry, name, p.size, p.blocks, slot, lsn, sync, touched)
            }
            ops::OP_PUT_INLINE => {
                let value = InlineParams::decode(rec.params).expect("valid inline params");
                let size = value.len() as u64;
                let slot = self.replay_slot(entry, size, Some(value));
                self.replay_replace(entry, name, size, vec![], Some(slot), lsn, sync, touched)
            }
            ops::OP_EXTEND => {
                let p = ExtendParams::decode(rec.params).expect("valid extend params");
                let e = entry.expect("an extended object exists");
                // An inline entry holds no blocks: the record claims all.
                let (size, _, mut blocks) = self.read_entry(e);
                let new_size = size.max(p.offset + p.len);
                blocks.extend_from_slice(&p.blocks);
                if blocks.len() as u64 != blocks_for_geometry(new_size, self.block_bytes()) {
                    true
                } else {
                    self.replay_pool(&p.blocks, &[], lsn, touched);
                    let plan = ExtendPlan {
                        blocks,
                        new_size,
                        claimed: p.blocks.len(),
                    };
                    self.install_extend_entry(e, &plan, lsn);
                    false
                }
            }
            ops::OP_DELETE => {
                let freed = entry.map(|e| self.read_entry(e).2).unwrap_or_default();
                self.replay_pool(&[], &freed, lsn, touched);
                entry.is_none() || self.install_delete_sync(name, sync) != entry
            }
            ops::OP_PHYS_INSTALL => {
                let img = PhysImage::decode(rec.params).expect("valid phys image");
                let claims = &img.blocks[img.blocks.len() - img.pops as usize..];
                self.replay_pool(claims, &img.pushes, lsn, touched);
                let inline = img.blocks.is_empty() && img.size > 0;
                let kind = match entry {
                    None => PutKind::Create,
                    Some(_) if !inline && img.pops == 0 && img.pushes.is_empty() => PutKind::Touch,
                    Some(_) => PutKind::Replace,
                };
                let slot = inline.then(|| self.replay_slot(entry, img.size, Some(&img.inline)));
                let plan = PutPlan {
                    kind,
                    blocks: img.blocks,
                    freed: img.pushes,
                    slot,
                };
                !self.install_put_entry(entry, name, img.size, &plan, lsn, sync)
            }
            ops::OP_PHYS_DELETE => {
                let img = PhysImage::decode(rec.params).expect("valid phys image");
                self.replay_pool(&[], &img.pushes, lsn, touched);
                self.install_delete_sync(name, sync).is_none()
            }
            other => panic!("unknown op code {other} in log"),
        };
        if diverged {
            eprintln!(
                "replay divergence: LSN {lsn} on {:?} diverged from the frontend",
                String::from_utf8_lossy(name)
            );
        }
        diverged
    }

    /// Replay's slot for an inline value of `size` bytes on `entry` — in
    /// place when the class agrees, else fresh — holding `value` (`None`:
    /// zeros).
    fn replay_slot(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        size: u64,
        value: Option<&[u8]>,
    ) -> Slot {
        let old = entry.and_then(|e| self.slot_of(e));
        let slot = self
            .slot_for(old, size, false)
            .expect("replay allocates unconditionally");
        self.fill_slot(&slot, value);
        slot
    }

    /// Replays a put that replaces whatever `entry` held with `blocks`
    /// (claimed here) or `slot`: the entry's old blocks are released and
    /// its old slot freed. Returns whether it diverged.
    #[allow(clippy::too_many_arguments)]
    fn replay_replace(
        &self,
        entry: Option<RelPtr<MetaEntry>>,
        name: &[u8],
        size: u64,
        blocks: Vec<u64>,
        slot: Option<Slot>,
        lsn: u64,
        sync: &IndexSync<'_>,
        touched: &mut Vec<(u64, u64)>,
    ) -> bool {
        let (kind, freed) = match entry {
            Some(e) => (PutKind::Replace, self.read_entry(e).2),
            None => (PutKind::Create, vec![]),
        };
        let plan = PutPlan {
            kind,
            blocks,
            freed,
            slot,
        };
        self.replay_pool(plan.claims(), &plan.freed, lsn, touched);
        !self.install_put_entry(entry, name, size, &plan, lsn, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoggingMode;
    use crate::ctx::put_record;
    use dstore_arena::DramMemory;

    fn domain(arena: &Arena<DramMemory>) -> Domain<'_, DramMemory> {
        Domain::format(arena, 1024) // 1023 data blocks
    }

    fn arena() -> Arena<DramMemory> {
        Arena::create(DramMemory::new(16 << 20))
    }

    /// Single-threaded shorthands: fresh shard locks, no B-tree sync, and
    /// the freed blocks released at install, as the store does once the
    /// record commits.
    impl<M: Memory> Domain<'_, M> {
        fn locks(&self) -> Vec<Mutex<()>> {
            (0..self.pool_shards()).map(|_| Mutex::new(())).collect()
        }

        fn plan_put(&self, name: &[u8], size: u64) -> DsResult<PutPlan> {
            self.plan_put_entry(self.lookup(name), name, size, &self.locks())
        }

        fn plan_extend(&self, name: &[u8], offset: u64, len: u64) -> DsResult<ExtendPlan> {
            self.plan_extend_entry(self.lookup(name), name, offset, len, &self.locks())
        }

        fn plan_delete(&self, name: &[u8]) -> DsResult<PutPlan> {
            self.plan_delete_entry(self.lookup(name))
        }

        fn install_put(&self, name: &[u8], size: u64, plan: &PutPlan, lsn: u64) {
            let e = self.lookup(name);
            assert!(self.install_put_entry(e, name, size, plan, lsn, &IndexSync::Exclusive));
            assert!(self.release(&plan.freed));
        }

        fn install_extend(&self, name: &[u8], plan: &ExtendPlan, lsn: u64) {
            self.install_extend_entry(self.lookup(name).unwrap(), plan, lsn)
        }

        fn install_delete(&self, name: &[u8], plan: &PutPlan) {
            let e = self.lookup(name);
            assert_eq!(self.install_delete_sync(name, &IndexSync::Exclusive), e);
            assert!(self.release(&plan.freed));
        }

        /// The ownership map as plain bytes.
        fn owner_map(&self) -> Vec<u8> {
            self.owners()
                .iter()
                .map(|o| o.load(Ordering::Relaxed))
                .collect()
        }

        /// Replays `records` in order on the exclusive path, checking the
        /// window's ownership at the end; returns the divergences.
        fn replay_all(&self, records: &[OwnedRecord]) -> usize {
            let mut touched = vec![];
            let diverged = records
                .iter()
                .filter(|r| {
                    self.replay(
                        &r.view(),
                        self.lookup(&r.name),
                        &IndexSync::Exclusive,
                        &mut touched,
                    )
                })
                .count();
            diverged + self.ownership_errors(&touched).len()
        }
    }

    /// The name `tag{i}` for the first `i` whose home shard is `s`.
    fn name_in<M: Memory>(d: &Domain<'_, M>, s: usize, tag: &str) -> Vec<u8> {
        (0..)
            .map(|i| format!("{tag}{i}").into_bytes())
            .find(|n| d.shard_of_name(n) == s)
            .unwrap()
    }

    #[test]
    fn format_fills_pool() {
        let a = arena();
        let d = domain(&a);
        assert_eq!(d.pool_free(), 1023);
        assert_eq!(d.claim(b"x", 2, &d.locks()), Ok(vec![0, 1]));
        assert!(d.release(&[0]));
        // Next fit: the cursor moves on, so block 0 waits for the wrap.
        assert_eq!(d.claim(b"x", 1, &d.locks()), Ok(vec![2]));
        assert_eq!(d.pool_free(), 1021);
        assert_eq!(d.pool_used(), 2);
        // Releasing a free block is reported.
        assert!(!d.release(&[0]));
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
        let del = d.plan_delete(b"big").unwrap();
        d.install_delete(b"big", &del);
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
        assert!(p2.claims().is_empty());
        d.install_put(b"obj", 4000, &p2, 2);
        assert_eq!(d.counters(), (1, 4000));

        // Bigger: replace. The old block stays owned until the release.
        let p3 = d.plan_put(b"obj", 10_000).unwrap();
        assert_eq!(p3.kind, PutKind::Replace);
        assert_eq!(p3.blocks.len(), 3);
        assert_eq!(p3.freed, p1.blocks);
        assert_eq!(d.pool_used(), 4);
        d.install_put(b"obj", 10_000, &p3, 3);
        assert_eq!(d.pool_used(), 3);
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
        assert!(del.claims().is_empty());
        d.install_delete(b"gone", &del);
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
            slot: None,
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
        let p = d.plan_put(b"f", 2000).unwrap();
        d.install_put(b"f", 2000, &p, 1);
        let ext = d.plan_extend(b"f", 4096, 5000).unwrap();
        assert_eq!(ext.new_size, 9096);
        assert_eq!(ext.blocks.len(), 3);
        assert_eq!(&ext.blocks[..1], &p.blocks[..]);
        assert_eq!(ext.claims(), &ext.blocks[1..]);
        d.install_extend(b"f", &ext, 2);
        let (size, _, blocks) = d.read_entry(d.lookup(b"f").unwrap());
        assert_eq!(size, 9096);
        assert_eq!(blocks, ext.blocks);
        // Extend entirely within the existing size allocates nothing.
        let free = d.pool_free();
        let ext2 = d.plan_extend(b"f", 0, 100).unwrap();
        assert_eq!(ext2.new_size, 9096);
        assert!(ext2.claims().is_empty());
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
        let p2 = d.plan_put(b"big", 2000).unwrap();
        assert_eq!(p2.kind, PutKind::Replace);
        d.install_put(b"big", 2000, &p2, 2);
        assert_eq!(d.pool_free(), free_before + 200 - 1);
        let (_, _, blocks) = d.read_entry(d.lookup(b"big").unwrap());
        assert_eq!(blocks.len(), 1);
    }

    /// A shortfall across every range is `OutOfSpace`, and the ranges it
    /// drained on the way are handed back: no partial claim survives.
    #[test]
    fn out_of_space_is_reported() {
        let a = arena();
        let d = Domain::format_with_shards(&a, 9, 1, 2); // 8 blocks: 4 + 4
        assert_eq!(d.plan_put(b"big", 9 * BLOCK_SIZE), Err(DsError::OutOfSpace));
        assert_eq!(d.pool_free(), 8);
        assert_eq!((d.pool_free_in(0), d.pool_free_in(1)), (4, 4));
        assert_eq!(d.owner_map(), vec![0; 8]);
        assert_eq!(d.plan_put(b"huge", u64::MAX / 2), Err(DsError::OutOfSpace));
        // The whole pool is still claimable.
        assert_eq!(d.plan_put(b"big", 8 * BLOCK_SIZE).unwrap().blocks.len(), 8);
    }

    /// When the home range is empty, a claim continues in the next one.
    #[test]
    fn claim_crosses_into_the_next_range() {
        let a = arena();
        let d = Domain::format_with_shards(&a, 9, 1, 2); // 8 blocks: 4 + 4
        let name = name_in(&d, 1, "n");
        assert_eq!(d.claim(&name, 3, &d.locks()), Ok(vec![4, 5, 6]));
        // One left at home, then the range of shard 0 (wrapping).
        assert_eq!(d.claim(&name, 3, &d.locks()), Ok(vec![7, 0, 1]));
        assert_eq!((d.pool_free_in(0), d.pool_free_in(1)), (2, 0));
        // A release returns each block to its own range.
        assert!(d.release(&[7, 0]));
        assert_eq!((d.pool_free_in(0), d.pool_free_in(1)), (3, 1));
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
        let del = d.plan_delete(b"empty").unwrap();
        d.install_delete(b"empty", &del);
    }

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

    /// A frontend that logs what it runs: every op plans, installs and
    /// releases on `d` as the store would, and appends its record.
    struct Front<'d, 'a> {
        d: &'d Domain<'a, DramMemory>,
        mode: LoggingMode,
        records: Vec<OwnedRecord>,
    }

    impl Front<'_, '_> {
        fn log(&mut self, name: &[u8], (op, params): (u16, Vec<u8>)) {
            self.records.push(OwnedRecord {
                lsn: self.records.len() as u64 + 1,
                op,
                name: name.to_vec(),
                params,
            });
        }

        /// Puts `size` bytes of `name`'s last byte plus the LSN.
        fn put(&mut self, name: &[u8], size: u64) -> DsResult<()> {
            let plan = self.d.plan_put(name, size)?;
            let tag = name.last().unwrap().wrapping_add(self.records.len() as u8);
            let value = vec![tag; size as usize];
            self.log(
                name,
                put_record(ops::OP_PUT, size, &plan, self.mode, Some(&value)),
            );
            if let Some(slot) = &plan.slot {
                self.d.fill_slot(slot, Some(&value));
            }
            self.d
                .install_put(name, size, &plan, self.records.len() as u64);
            Ok(())
        }

        /// An `oopen` create of `size` zero bytes.
        fn create(&mut self, name: &[u8], size: u64) {
            let plan = self.d.plan_put(name, size).unwrap();
            self.log(
                name,
                put_record(ops::OP_CREATE, size, &plan, self.mode, None),
            );
            if let Some(slot) = &plan.slot {
                self.d.fill_slot(slot, None);
            }
            self.d
                .install_put(name, size, &plan, self.records.len() as u64);
        }

        fn extend(&mut self, name: &[u8], offset: u64, len: u64) {
            let plan = self.d.plan_extend(name, offset, len).unwrap();
            let params = ExtendParams::encode(offset, len, plan.claims());
            self.log(name, (ops::OP_EXTEND, params));
            self.d
                .install_extend(name, &plan, self.records.len() as u64);
        }

        fn delete(&mut self, name: &[u8]) {
            let plan = self.d.plan_delete(name).unwrap();
            let rec = match self.mode {
                LoggingMode::Logical => (ops::OP_DELETE, vec![]),
                LoggingMode::Physical => (
                    ops::OP_PHYS_DELETE,
                    PhysImage {
                        size: 0,
                        blocks: vec![],
                        pops: 0,
                        pushes: plan.freed.clone(),
                        inline: vec![],
                    }
                    .encode(),
                ),
            };
            self.log(name, rec);
            self.d.install_delete(name, &plan);
        }
    }

    /// An entry's inline value, if it has one.
    fn inline_value(d: &Domain<'_, DramMemory>, e: RelPtr<MetaEntry>) -> Option<Vec<u8>> {
        // SAFETY: single-threaded test; the slot is live.
        d.slot_of(e)
            .map(|(off, len)| unsafe { d.slot_bytes(off, len) }.to_vec())
    }

    /// Observable equivalence of two domains: same objects, sizes, block
    /// lists, inline values, counters, ownership map shard by shard, and
    /// arena bytes in live allocations.
    fn assert_same_state(front: &Domain<'_, DramMemory>, shadow: &Domain<'_, DramMemory>) {
        assert_eq!(front.counters(), shadow.counters());
        assert_eq!(
            front.arena().stats().allocated_bytes,
            shadow.arena().stats().allocated_bytes
        );
        assert_eq!(front.owner_map(), shadow.owner_map());
        for s in 0..front.pool_shards() {
            assert_eq!(front.pool_free_in(s), shadow.pool_free_in(s), "shard {s}");
        }
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
            assert_eq!(
                inline_value(front, front.lookup(n).unwrap()),
                inline_value(shadow, shadow.lookup(n).unwrap()),
                "inline value of {}",
                String::from_utf8_lossy(n)
            );
        }
    }

    /// The determinism property underpinning DIPPER: replaying the logged
    /// operations on a fresh domain reproduces block assignments and
    /// observable state exactly.
    #[test]
    fn replay_reproduces_frontend_state() {
        let a1 = arena();
        let front = domain(&a1);
        let mut f = Front {
            d: &front,
            mode: LoggingMode::Logical,
            records: vec![],
        };
        // A busy little history: creates, touches, replaces, deletes,
        // extends, across several objects.
        for i in 0..40u64 {
            let name = format!("obj{}", i % 7);
            f.put(name.as_bytes(), (i % 5 + 1) * 3000).unwrap();
            if i % 7 == 3 {
                f.extend(name.as_bytes(), i * 1000, 9000);
            }
            if i % 11 == 10 {
                f.delete(name.as_bytes());
            }
        }
        let a2 = arena();
        let shadow = domain(&a2);
        assert_eq!(shadow.replay_all(&f.records), 0);
        assert_same_state(&front, &shadow);
    }

    #[test]
    fn physical_records_replay_equivalently() {
        let a1 = arena();
        let front = domain(&a1);
        let mut f = Front {
            d: &front,
            mode: LoggingMode::Physical,
            records: vec![],
        };
        for i in 0..20u64 {
            let name = format!("p{}", i % 4);
            f.put(name.as_bytes(), (i % 3 + 1) * 4096).unwrap();
            if i % 9 == 8 {
                f.delete(name.as_bytes());
            }
        }
        let a2 = arena();
        let shadow = domain(&a2);
        assert_eq!(shadow.replay_all(&f.records), 0);
        assert_same_state(&front, &shadow);
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
            let name = name_in(&d, s, "s");
            assert_eq!(d.claim(&name, 1, &d.locks()), Ok(vec![s as u64 * 256]));
        }
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
        let p = d.plan_put(name, 3 * 4096).unwrap();
        assert_eq!(p.blocks.len(), 3);
        assert_eq!(d.pool_free_in(own), 256 - 3);
        d.install_put(name, 3 * 4096, &p, 1);
        // Replace frees the old blocks back into their own range.
        let p2 = d.plan_put(name, 4096).unwrap();
        d.install_put(name, 4096, &p2, 2);
        assert_eq!(d.pool_free_in(own), 256 - 1);
        let now_other: u64 = (0..4)
            .filter(|&s| s != own)
            .map(|s| d.pool_free_in(s))
            .sum();
        assert_eq!(other_free, now_other, "sibling shards untouched");
    }

    #[test]
    fn sharded_replay_reproduces_frontend_state() {
        // Mixed history over a 4-shard pool whose values overflow their
        // home range, replayed on a fresh 4-shard domain.
        let a1 = arena();
        let front = Domain::format_with_shards(&a1, 257, 1, 4); // 256 blocks
        let mut f = Front {
            d: &front,
            mode: LoggingMode::Logical,
            records: vec![],
        };
        for i in 0..60u64 {
            let name = format!("obj{}", i % 9);
            let size = (i % 4 + 1) * 20 * 4096;
            if f.put(name.as_bytes(), size) == Err(DsError::OutOfSpace)
                && front.lookup(name.as_bytes()).is_some()
            {
                f.delete(name.as_bytes());
            }
        }
        let a2 = arena();
        let shadow = Domain::format_with_shards(&a2, 257, 1, 4);
        assert_eq!(shadow.replay_all(&f.records), 0);
        assert_same_state(&front, &shadow);
    }

    /// Claims and releases are adds on the ownership map, so two groups
    /// of one window — one freeing a block, the other reusing it — leave
    /// the same map in either order, though the reuse may apply first.
    #[test]
    fn group_order_does_not_change_the_map() {
        let a0 = arena();
        let front = Domain::format_with_shards(&a0, 9, 1, 2); // 8 blocks: 4 + 4
        let (x, y) = (name_in(&front, 0, "x"), name_in(&front, 1, "y"));
        let mut f = Front {
            d: &front,
            mode: LoggingMode::Logical,
            records: vec![],
        };
        f.put(&x, 4 * BLOCK_SIZE).unwrap(); // all of range 0
        let base = f.records.len();
        f.delete(&x);
        // `y`'s range has 4; the fifth comes from the range `x` freed.
        f.put(&y, 5 * BLOCK_SIZE).unwrap();
        let (prefix, window) = f.records.split_at(base);
        let (group_x, group_y) = window.split_at(1);
        let replayed = |first: &[OwnedRecord], second: &[OwnedRecord]| {
            let a = arena();
            let d = Domain::format_with_shards(&a, 9, 1, 2);
            assert_eq!(d.replay_all(prefix), 0);
            let records: Vec<_> = first.iter().chain(second).collect();
            let mut touched = vec![];
            for r in records {
                assert!(!d.replay(
                    &r.view(),
                    d.lookup(&r.name),
                    &IndexSync::Exclusive,
                    &mut touched
                ));
            }
            assert!(d.ownership_errors(&touched).is_empty());
            (d.owner_map(), d.pool_free_in(0), d.pool_free_in(1))
        };
        let in_order = replayed(group_x, group_y);
        assert_eq!(in_order, replayed(group_y, group_x));
        assert_eq!(
            in_order,
            (
                front.owner_map(),
                front.pool_free_in(0),
                front.pool_free_in(1)
            )
        );
    }

    /// Batched replay (`replay::replay_window` looks up a whole batch's
    /// names before it applies any) leaves the state one-at-a-time replay
    /// leaves, in both logging modes, on the serial path (on one CPU) and
    /// on every usable CPU: with same-name runs inside one batch (create,
    /// delete, create; inline, blocks, inline), a same-name run across a
    /// batch boundary, and a window shorter than one batch.
    #[test]
    fn batched_replay_matches_one_at_a_time() {
        use crate::replay::{replay_window, ReplayStats, REPLAY_BATCH};
        use dstore_dipper::on_one_cpu;
        use dstore_telemetry::SpanRing;
        for mode in [LoggingMode::Logical, LoggingMode::Physical] {
            let a0 = arena();
            let front = domain(&a0);
            let mut f = Front {
                d: &front,
                mode,
                records: vec![],
            };
            f.put(b"a", 100).unwrap();
            f.create(b"x", BLOCK_SIZE + 1);
            f.put(b"b", 5000).unwrap();
            f.delete(b"x");
            f.create(b"x", 300);
            f.put(b"y", 200).unwrap();
            f.put(b"y", 3 * BLOCK_SIZE).unwrap();
            f.put(b"y", 64).unwrap();
            while f.records.len() < REPLAY_BATCH - 2 {
                let name = format!("f{}", f.records.len());
                f.put(name.as_bytes(), 700).unwrap();
            }
            for size in [10, 5000, 20, 9000, 0] {
                f.put(b"z", size).unwrap();
            }
            f.delete(b"a");
            f.put(b"a", 2 * BLOCK_SIZE).unwrap();
            f.delete(b"y");
            assert!(f.records.len() > REPLAY_BATCH + 4);

            for (len, serial) in [(f.records.len(), true), (f.records.len(), false), (5, true)] {
                let window = &f.records[..len];
                let a1 = arena();
                let one_at_a_time = domain(&a1);
                assert_eq!(one_at_a_time.replay_all(window), 0, "{mode:?}");
                let a2 = arena();
                let batched = domain(&a2);
                let views: Vec<_> = window.iter().map(OwnedRecord::view).collect();
                let stats = ReplayStats::default();
                let dir = batched.dir_ptr();
                let replay = || replay_window(&a2, dir, &views, &stats, &SpanRing::new(8));
                if serial {
                    on_one_cpu(replay);
                } else {
                    replay();
                }
                assert_eq!(stats.divergences.get(), 0, "{mode:?}, {len} records");
                assert_same_state(&one_at_a_time, &batched);
                if len == f.records.len() {
                    assert_same_state(&front, &batched);
                }
            }
        }
    }

    /// A value of at most `INLINE_MAX` bytes takes a slot and no block:
    /// the slot is reused in place while the size class agrees, replaced
    /// when it does not, and freed when the object moves to blocks or is
    /// deleted; arena bytes return to where they started.
    #[test]
    fn inline_values_take_slots_not_blocks() {
        let a = arena();
        let d = domain(&a);
        let base = a.stats().allocated_bytes;
        let put = |size: u64, lsn: u64| {
            let p = d.plan_put(b"s", size).unwrap();
            if let Some(slot) = &p.slot {
                d.fill_slot(slot, Some(&vec![lsn as u8; size as usize]));
            }
            d.install_put(b"s", size, &p, lsn);
            p
        };
        let p1 = put(128, 1);
        let s1 = p1.slot.unwrap();
        assert!(s1.fresh && p1.blocks.is_empty() && p1.claims().is_empty());
        assert_eq!(d.pool_used(), 0);
        let e = d.lookup(b"s").unwrap();
        assert_eq!(d.slot_of(e), Some((s1.off, 128)));
        assert_eq!(inline_value(&d, e).unwrap(), vec![1; 128]);
        assert_eq!(d.read_entry(e).2, Vec::<u64>::new());
        assert_eq!(a.stats().allocated_bytes, base + 128 + 128);
        // Same class (65..=128 B): in place.
        let p2 = put(100, 2);
        assert_eq!(
            p2.slot,
            Some(Slot {
                off: s1.off,
                size: 100,
                fresh: false
            })
        );
        assert_eq!(inline_value(&d, e).unwrap(), vec![2; 100]);
        // Another class: a fresh slot, the old one freed at install.
        let p3 = put(INLINE_MAX, 3);
        assert!(p3.slot.unwrap().fresh);
        assert_eq!(a.stats().allocated_bytes, base + 128 + 1024);
        // To blocks: one claim, the slot freed at install.
        let p4 = put(INLINE_MAX + 1, 4);
        assert_eq!(
            (p4.kind, p4.blocks.len(), p4.slot),
            (PutKind::Replace, 1, None)
        );
        assert_eq!(d.slot_of(e), None);
        assert_eq!(a.stats().allocated_bytes, base + 128);
        // Back inline: the block is freed (released after the commit).
        let p5 = put(1, 5);
        assert_eq!(p5.freed, p4.blocks);
        assert_eq!(d.pool_used(), 0);
        assert_eq!(d.counters(), (1, 1));
        // An empty value is neither inline nor on blocks.
        let p6 = put(0, 6);
        assert_eq!(
            (p6.kind, p6.slot, p6.blocks.len()),
            (PutKind::Replace, None, 0)
        );
        assert_eq!(d.slot_of(e), None);
        put(7, 7);
        // An extend past INLINE_MAX claims every block of the new size and
        // frees the slot at install.
        let x = d.plan_extend(b"s", INLINE_MAX, 1).unwrap();
        assert_eq!((x.claimed, x.new_size), (1, INLINE_MAX + 1));
        d.install_extend(b"s", &x, 8);
        assert_eq!(d.slot_of(e), None);
        assert_eq!(d.read_entry(e).2, x.blocks);
        assert_eq!(a.stats().allocated_bytes, base + 128);
        let del = d.plan_delete(b"s").unwrap();
        d.install_delete(b"s", &del);
        assert_eq!(d.pool_used(), 0);
        assert_eq!(a.stats().allocated_bytes, base);
        // A plan whose record is never logged gives its slot back.
        let p = d.plan_put(b"t", 64).unwrap();
        assert_eq!(p.fresh_slot(), p.slot);
        d.unclaim(&p);
        assert_eq!(a.stats().allocated_bytes, base);
    }

    /// Past three quarters of the arena a small value takes a block.
    #[test]
    fn inline_values_stop_at_the_headroom() {
        let a = Arena::create(DramMemory::new(1 << 20));
        let d = domain(&a);
        let limit = a.stats().capacity / 4 * 3;
        let mut i = 0u32;
        loop {
            let name = format!("n{i}");
            let p = d.plan_put(name.as_bytes(), INLINE_MAX).unwrap();
            d.install_put(name.as_bytes(), INLINE_MAX, &p, i as u64 + 1);
            i += 1;
            if p.slot.is_none() {
                assert_eq!(p.blocks.len(), 1);
                break;
            }
            assert!(a.stats().allocated_bytes <= limit);
        }
        assert!(
            a.stats().allocated_bytes + 1024 > limit - 4096,
            "stopped early"
        );
    }

    /// Replaying puts that cross `INLINE_MAX` both ways, extends past it,
    /// creates of zeros and deletes reproduces sizes, blocks, inline
    /// values and arena use, in both logging modes.
    #[test]
    fn inline_records_replay_equivalently() {
        for mode in [LoggingMode::Logical, LoggingMode::Physical] {
            let a1 = arena();
            let front = domain(&a1);
            let mut f = Front {
                d: &front,
                mode,
                records: vec![],
            };
            for i in 0..120u64 {
                let name = format!("i{}", i % 9);
                let size = (i * 397) % (2 * INLINE_MAX + 1);
                if i % 13 == 5 && front.lookup(name.as_bytes()).is_some() {
                    f.delete(name.as_bytes());
                } else if i % 17 == 3 && front.lookup(name.as_bytes()).is_none() {
                    f.create(name.as_bytes(), size);
                } else if i % 7 == 2 && front.lookup(name.as_bytes()).is_some() {
                    f.extend(name.as_bytes(), INLINE_MAX, size % 5000);
                } else {
                    f.put(name.as_bytes(), size).unwrap();
                }
            }
            let a2 = arena();
            let shadow = domain(&a2);
            assert_eq!(shadow.replay_all(&f.records), 0, "{mode:?}");
            assert_same_state(&front, &shadow);
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
        assert_eq!(d2.owner_map(), d1.owner_map());
    }
}
