//! The object-index B-tree.
//!
//! A classic B-tree (minimum degree `t = 8`) storing byte-string keys and
//! `u64` values, with every node and key allocated from an
//! [`Arena`] and linked by [`RelPtr`]s. Because the structure contains no
//! absolute pointers, it can be bulk-copied between regions (checkpoint
//! shadow copies, recovery PMEM→DRAM reconstruction) and the *same* code
//! mutates both the frontend tree and its PMEM shadow during replay.
//!
//! # Concurrency
//!
//! Two operating modes share one node layout:
//!
//! * **Exclusive** ([`BTreeHandle::get`], [`BTreeHandle::insert`],
//!   [`BTreeHandle::remove`], the `for_each*` walkers): the caller holds an
//!   external lock and the tree behaves like the original single-writer
//!   structure.
//! * **Optimistic lock coupling** (`*_olc` methods): every node's first
//!   word is a seqlock-style version/latch. Readers snapshot a node's
//!   version, read its fields with volatile loads, and re-validate the
//!   version before trusting anything (restarting from the root on
//!   conflict, with bounded [`Backoff`]). Writers latch-couple top-down:
//!   a node's version is made odd (CAS `v → v+1`) while it is being
//!   modified and bumped to `v+2` on release, so readers that overlapped a
//!   modification always fail validation.
//!
//! Three details make the optimistic protocol sound on arena memory:
//!
//! 1. **Type-stable nodes.** Freed nodes are never returned to the arena;
//!    they go on an internal per-tree free list (linked through
//!    `children[0]`) and are only ever reused as nodes. A stale reader can
//!    therefore always interpret the first word of a dangling node pointer
//!    as a version word.
//! 2. **Monotonic version clock.** The header carries a `version_clock`
//!    that is raised above a node's final version when the node is freed
//!    (`fetch_max`), and every (re)allocated node takes its fresh version
//!    from the clock. A recycled node can never re-expose a version an
//!    old reader snapped from that memory, which defeats ABA validation.
//!    While free, a node's version is `OBSOLETE` (odd), failing both
//!    validation and latch acquisition.
//! 3. **Hand-over-hand validation.** Key bytes live outside nodes and
//!    *are* recycled through the arena, so readers never trust a node's
//!    content until the parent version that produced the child pointer has
//!    been re-validated, and all byte accesses on the optimistic path are
//!    bounds-checked against the region instead of asserted.

use dstore_arena::{Arena, ArenaPod, ByteSlice, Memory, RelPtr};
use dstore_pmem::Backoff;
use std::cmp::Ordering;
use std::sync::atomic::{fence, AtomicU64, Ordering as AO};

/// Minimum degree `t`: every node except the root holds at least `t-1`
/// keys; every node holds at most `2t-1`.
const T: usize = 8;
/// Maximum keys per node.
const MAX_KEYS: usize = 2 * T - 1;
/// Maximum children per node.
const MAX_CHILDREN: usize = 2 * T;

/// Version word of a freed (pooled) node: odd, so it fails validation and
/// latch acquisition, and distinct from any live latched version because
/// the version clock never reaches it.
const OBSOLETE: u64 = u64::MAX;

/// How long a reader spins waiting for a latched node's version to settle
/// before giving up and restarting the whole operation.
const READ_SPIN_CAP: u32 = 128;
/// How long a writer spins on a held latch before restarting. Kept small:
/// on an oversubscribed core the latch holder needs our timeslice.
const LATCH_SPIN_CAP: u32 = 256;

/// Contention counters for the optimistic protocol, shared by every handle
/// attached to the same logical tree (frontend, shadow apply, replay).
#[derive(Debug, Default)]
pub struct OlcStats {
    /// Operations that had to restart from the root (failed validation,
    /// torn read, latch timeout).
    pub restarts: AtomicU64,
    /// Latch acquisitions that found the latch held and had to wait.
    pub latch_waits: AtomicU64,
}

/// Internal marker: optimistic validation failed, restart from the root.
#[derive(Debug, Clone, Copy)]
struct Conflict;

/// A B-tree node. `#[repr(C)]` and pod so it can live in an arena.
///
/// `version` MUST stay the first field: the free-node scrub in
/// `alloc_node` skips the first 8 bytes so the version word is never
/// transiently zero while stale readers may still validate against it.
#[repr(C)]
pub struct Node {
    /// Seqlock version/latch word (odd = latched or obsolete).
    version: u64,
    /// 1 if leaf, 0 if internal.
    leaf: u16,
    /// Number of keys currently stored.
    count: u16,
    _pad: u32,
    keys: [ByteSlice; MAX_KEYS],
    vals: [u64; MAX_KEYS],
    children: [RelPtr<Node>; MAX_CHILDREN],
}

// SAFETY: Node is repr(C), built from pods, zero-valid (version=0 is an
// even unlatched version; leaf=0/count=0 with null pointers is a valid
// empty internal node that is never dereferenced before initialization).
unsafe impl ArenaPod for Node {}

/// Arena-resident tree root state.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct BTreeHeader {
    root: RelPtr<Node>,
    len: u64,
    /// Seqlock version/latch word covering `root` (root swaps only).
    version: u64,
    /// Head of the internal free-node pool (linked through `children[0]`).
    free_nodes: RelPtr<Node>,
    /// Spinlock word guarding `free_nodes`.
    pool_lock: u64,
    /// Monotonic (even) clock for fresh node versions; raised above every
    /// freed node's version so recycled nodes always fail stale readers.
    version_clock: u64,
}

// SAFETY: pods only; zero means "empty tree, version 0, empty pool".
unsafe impl ArenaPod for BTreeHeader {}

/// A handle binding a tree header to the arena it lives in.
///
/// The exclusive methods require external synchronization; the `*_olc`
/// methods may run fully concurrently with each other (any mix of readers
/// and writers) but must not be mixed with exclusive mutation on the same
/// tree at the same time.
pub struct BTreeHandle<'a, M: Memory> {
    arena: &'a Arena<M>,
    hdr: RelPtr<BTreeHeader>,
}

/// Reinterprets a `u64` field as an atomic. Same trick as the replay
/// counters in `dstore-core`: the arena hands out plain pods, concurrency
/// is layered on via atomic views of the same memory.
#[inline]
unsafe fn as_atomic(p: *const u64) -> &'static AtomicU64 {
    &*(p as *const AtomicU64)
}

impl<'a, M: Memory> BTreeHandle<'a, M> {
    /// Allocates an empty tree in `arena` and returns its handle. The
    /// header offset ([`BTreeHandle::header_ptr`]) is what gets stored in
    /// DStore's directory so shadows can re-attach.
    pub fn create(arena: &'a Arena<M>) -> Self {
        let hdr: RelPtr<BTreeHeader> = arena.alloc();
        let root: RelPtr<Node> = arena.alloc();
        // SAFETY: fresh allocations, exclusively ours.
        unsafe {
            let r = &mut *arena.resolve(root);
            r.leaf = 1;
            let h = &mut *arena.resolve(hdr);
            h.root = root;
            h.len = 0;
            h.version_clock = 2;
        }
        Self { arena, hdr }
    }

    /// Re-binds a handle to an existing header (after a region copy or
    /// recovery).
    pub fn attach(arena: &'a Arena<M>, hdr: RelPtr<BTreeHeader>) -> Self {
        Self { arena, hdr }
    }

    /// The arena offset of the tree header.
    pub fn header_ptr(&self) -> RelPtr<BTreeHeader> {
        self.hdr
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        // SAFETY: header is live for the handle's lifetime; atomic view
        // because OLC writers update it without the tree lock.
        unsafe { as_atomic(&raw const (*self.arena.resolve(self.hdr)).len).load(AO::Relaxed) }
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ------------------------------------------------------------------
    // version-word helpers

    /// The version/latch word of node `p`.
    ///
    /// SAFETY contract: `p` must point into the region (live or pooled
    /// node — both keep a valid version word).
    unsafe fn vword(&self, p: RelPtr<Node>) -> &AtomicU64 {
        as_atomic(self.arena.resolve(p) as *const u64)
    }

    /// Waits (briefly) for an even, non-obsolete version and returns it.
    fn stable_version(vw: &AtomicU64) -> Result<u64, Conflict> {
        let mut spins = 0u32;
        loop {
            let v = vw.load(AO::Acquire);
            if v == OBSOLETE {
                return Err(Conflict);
            }
            if v & 1 == 0 {
                return Ok(v);
            }
            spins += 1;
            if spins >= READ_SPIN_CAP {
                return Err(Conflict);
            }
            std::hint::spin_loop();
        }
    }

    /// Acquires the latch on `vw` (CAS even → odd), returning the pre-latch
    /// version. Fails on an obsolete node or after a bounded spin.
    fn lock_vword(vw: &AtomicU64, stats: &OlcStats) -> Result<u64, Conflict> {
        let mut spins = 0u32;
        let mut waited = false;
        loop {
            let v = vw.load(AO::Relaxed);
            if v == OBSOLETE {
                return Err(Conflict);
            }
            if v & 1 == 0 {
                if vw
                    .compare_exchange_weak(v, v + 1, AO::Acquire, AO::Relaxed)
                    .is_ok()
                {
                    return Ok(v);
                }
            } else if !waited {
                waited = true;
                stats.latch_waits.fetch_add(1, AO::Relaxed);
            }
            spins += 1;
            if spins >= LATCH_SPIN_CAP {
                return Err(Conflict);
            }
            std::hint::spin_loop();
        }
    }

    /// Releases the latch on node `p` (odd version → next even).
    ///
    /// SAFETY contract: caller holds the latch.
    unsafe fn unlock_node(&self, p: RelPtr<Node>) {
        let vw = self.vword(p);
        debug_assert!(vw.load(AO::Relaxed) & 1 == 1, "unlocking unlatched node");
        vw.fetch_add(1, AO::Release);
    }

    /// Bounds- and alignment-checks an optimistically read node pointer.
    /// A torn or recycled pointer yields `Conflict`, never UB or a panic.
    fn try_node_ptr(&self, p: RelPtr<Node>) -> Result<*mut Node, Conflict> {
        let off = p.offset() as usize;
        if off == 0
            || !off.is_multiple_of(std::mem::align_of::<Node>())
            || off + std::mem::size_of::<Node>() > self.arena.memory().len()
        {
            return Err(Conflict);
        }
        // SAFETY: bounds just checked; the region stays mapped for 'a.
        Ok(unsafe { p.to_abs(self.arena.memory().base()) })
    }

    /// Adds `d` to the entry counter (atomic: OLC writers race on it).
    fn len_add(&self, d: i64) {
        // SAFETY: header is live for the handle's lifetime.
        unsafe {
            let l = as_atomic(&raw const (*self.arena.resolve(self.hdr)).len);
            if d >= 0 {
                l.fetch_add(d as u64, AO::Relaxed);
            } else {
                l.fetch_sub(d.unsigned_abs(), AO::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // node pool (type-stable node memory)

    /// Allocates a node, preferring the internal pool. The returned node is
    /// fully zeroed except for its version word, which is a fresh even
    /// value from the header clock (never transiently 0 on reuse).
    unsafe fn alloc_node(&self) -> RelPtr<Node> {
        let hdr = self.arena.resolve(self.hdr);
        let pool = as_atomic(&raw const (*hdr).pool_lock);
        while pool
            .compare_exchange_weak(0, 1, AO::Acquire, AO::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let head = std::ptr::read_volatile(&raw const (*hdr).free_nodes);
        let p = if head.is_null() {
            pool.store(0, AO::Release);
            self.arena.alloc::<Node>()
        } else {
            let hn = self.arena.resolve(head);
            let next = std::ptr::read_volatile(&raw const (*hn).children[0]);
            std::ptr::write_volatile(&raw mut (*hdr).free_nodes, next);
            pool.store(0, AO::Release);
            head
        };
        let np = self.arena.resolve(p);
        // Scrub everything EXCEPT the version word (first 8 bytes): stale
        // readers may still be validating against it, and 0 is a plausible
        // live version.
        std::ptr::write_bytes((np as *mut u8).add(8), 0, std::mem::size_of::<Node>() - 8);
        let clock = as_atomic(&raw const (*hdr).version_clock);
        let v = clock.fetch_add(2, AO::Relaxed);
        as_atomic(np as *const u64).store(v, AO::Release);
        p
    }

    /// Retires a node to the internal pool. Never returns node memory to
    /// the arena — that keeps node memory type-stable for stale readers.
    /// Raises the version clock above the node's final version first, so a
    /// future reuse can never re-expose a version this memory already had.
    ///
    /// SAFETY contract: node is unreachable from the tree (caller already
    /// unlinked it); caller may still hold its latch (it is consumed).
    unsafe fn free_node(&self, p: RelPtr<Node>) {
        let hdr = self.arena.resolve(self.hdr);
        let np = self.arena.resolve(p);
        let vw = as_atomic(np as *const u64);
        let v = vw.load(AO::Relaxed);
        // Next even value strictly above v (works for latched odd v too).
        as_atomic(&raw const (*hdr).version_clock).fetch_max((v | 1) + 1, AO::Relaxed);
        vw.store(OBSOLETE, AO::Release);
        let pool = as_atomic(&raw const (*hdr).pool_lock);
        while pool
            .compare_exchange_weak(0, 1, AO::Acquire, AO::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let head = std::ptr::read_volatile(&raw const (*hdr).free_nodes);
        std::ptr::write_volatile(&raw mut (*np).children[0], head);
        std::ptr::write_volatile(&raw mut (*hdr).free_nodes, p);
        pool.store(0, AO::Release);
    }

    // ------------------------------------------------------------------
    // shared helpers

    /// Raw node access.
    ///
    /// SAFETY contract: `p` must be a live node; caller must not create
    /// overlapping `&mut` to the same node.
    #[allow(clippy::mut_from_ref)]
    unsafe fn node(&self, p: RelPtr<Node>) -> &mut Node {
        &mut *self.arena.resolve(p)
    }

    unsafe fn key_bytes(&self, s: ByteSlice) -> &[u8] {
        self.arena.bytes(s)
    }

    /// Compares a stored key with a probe key.
    unsafe fn cmp(&self, stored: ByteSlice, probe: &[u8]) -> Ordering {
        self.key_bytes(stored).cmp(probe)
    }

    /// Position of `key` in `node`: `Ok(i)` exact match at `i`, `Err(i)`
    /// the child index to descend into.
    unsafe fn position(&self, n: &Node, key: &[u8]) -> Result<usize, usize> {
        // Nodes hold at most 15 keys; linear scan beats binary search here.
        for i in 0..n.count as usize {
            match self.cmp(n.keys[i], key) {
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
                Ordering::Less => {}
            }
        }
        Err(n.count as usize)
    }

    /// Optimistic key compare: every load is volatile and bounds-checked,
    /// because the slice header may be torn or the key bytes already
    /// recycled. A bad slice is a `Conflict`, not a panic.
    ///
    /// An 8-aligned stored slice (every arena allocation is) is compared a
    /// word at a time while both sides have 8 bytes left: each word is
    /// read big-endian, so integer order is lexicographic byte order. The
    /// tail, and a misaligned (torn) slice, fall back to bytes. No byte
    /// past `stored.len` is read.
    fn cmp_olc(&self, stored: ByteSlice, probe: &[u8]) -> Result<Ordering, Conflict> {
        let len = stored.len as usize;
        if len == 0 {
            return Ok((&[] as &[u8]).cmp(probe));
        }
        let off = stored.ptr.offset() as usize;
        let mem = self.arena.memory();
        if off == 0 || len > mem.len() || off > mem.len() - len {
            return Err(Conflict);
        }
        // SAFETY: `off + len` is in bounds (checked above); region stays
        // mapped.
        let key = unsafe { mem.base().add(off) };
        let common = len.min(probe.len());
        let mut i = 0;
        if (key as usize).is_multiple_of(8) {
            while i + 8 <= common {
                // SAFETY: 8-aligned, and `i + 8 <= len` keeps the load
                // inside the slice.
                let w = unsafe { std::ptr::read_volatile(key.add(i) as *const u64) };
                let s = u64::from_be(w);
                let p = u64::from_be_bytes(probe[i..i + 8].try_into().unwrap());
                if s != p {
                    return Ok(s.cmp(&p));
                }
                i += 8;
            }
        }
        for (j, &pb) in probe.iter().enumerate().take(common).skip(i) {
            // SAFETY: `j < len`, in bounds as above.
            let b = unsafe { std::ptr::read_volatile(key.add(j)) };
            if b != pb {
                return Ok(b.cmp(&pb));
            }
        }
        Ok(len.cmp(&probe.len()))
    }

    // ------------------------------------------------------------------
    // exclusive lookup

    /// Returns the value stored for `key` (exclusive mode).
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        // SAFETY: read-only traversal of live nodes.
        unsafe {
            let mut p = (*self.arena.resolve(self.hdr)).root;
            loop {
                let n = self.node(p);
                match self.position(n, key) {
                    Ok(i) => return Some(n.vals[i]),
                    Err(i) => {
                        if n.leaf == 1 {
                            return None;
                        }
                        p = n.children[i];
                    }
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    // ------------------------------------------------------------------
    // exclusive insert

    /// Inserts `key → val`; returns the previous value if the key existed.
    pub fn insert(&self, key: &[u8], val: u64) -> Option<u64> {
        // SAFETY: single-writer contract; distinct nodes only.
        unsafe {
            let hdr = self.arena.resolve(self.hdr);
            let root = (*hdr).root;
            if self.node(root).count as usize == MAX_KEYS {
                // Grow the tree: new root with old root as child 0.
                let new_root = self.alloc_node();
                {
                    let nr = self.node(new_root);
                    nr.leaf = 0;
                    nr.count = 0;
                    nr.children[0] = root;
                }
                self.split_child(new_root, 0);
                (*hdr).root = new_root;
            }
            let prev = self.insert_nonfull((*hdr).root, key, val);
            if prev.is_none() {
                self.len_add(1);
            }
            prev
        }
    }

    /// Splits the full child `ci` of `parent` (which must not be full).
    unsafe fn split_child(&self, parent: RelPtr<Node>, ci: usize) {
        let left_ptr = self.node(parent).children[ci];
        let right_ptr = self.alloc_node();
        let p = self.node(parent);
        let left = self.node(left_ptr);
        let right = self.node(right_ptr);
        debug_assert_eq!(left.count as usize, MAX_KEYS);

        right.leaf = left.leaf;
        right.count = (T - 1) as u16;
        // Upper T-1 keys move to the new right node.
        for i in 0..T - 1 {
            right.keys[i] = left.keys[i + T];
            right.vals[i] = left.vals[i + T];
            left.keys[i + T] = ByteSlice::empty();
        }
        if left.leaf == 0 {
            for i in 0..T {
                right.children[i] = left.children[i + T];
                left.children[i + T] = RelPtr::null();
            }
        }
        // Median key moves up into the parent.
        let median_key = left.keys[T - 1];
        let median_val = left.vals[T - 1];
        left.keys[T - 1] = ByteSlice::empty();
        left.count = (T - 1) as u16;

        let pc = p.count as usize;
        for i in (ci..pc).rev() {
            p.keys[i + 1] = p.keys[i];
            p.vals[i + 1] = p.vals[i];
        }
        for i in (ci + 1..=pc).rev() {
            p.children[i + 1] = p.children[i];
        }
        p.keys[ci] = median_key;
        p.vals[ci] = median_val;
        p.children[ci + 1] = right_ptr;
        p.count += 1;
    }

    unsafe fn insert_nonfull(&self, mut p: RelPtr<Node>, key: &[u8], val: u64) -> Option<u64> {
        loop {
            let n = self.node(p);
            match self.position(n, key) {
                Ok(i) => {
                    let old = n.vals[i];
                    n.vals[i] = val;
                    return Some(old);
                }
                Err(i) => {
                    if n.leaf == 1 {
                        let c = n.count as usize;
                        for j in (i..c).rev() {
                            n.keys[j + 1] = n.keys[j];
                            n.vals[j + 1] = n.vals[j];
                        }
                        n.keys[i] = self.arena.alloc_bytes(key);
                        n.vals[i] = val;
                        n.count += 1;
                        return None;
                    }
                    let child = n.children[i];
                    if self.node(child).count as usize == MAX_KEYS {
                        self.split_child(p, i);
                        // Re-examine this node: the median moved up.
                        continue;
                    }
                    p = child;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // exclusive delete (top-down, pre-emptive rebalancing)

    /// Removes `key`; returns its value if present.
    pub fn remove(&self, key: &[u8]) -> Option<u64> {
        // SAFETY: single-writer contract.
        unsafe {
            let hdr = self.arena.resolve(self.hdr);
            let root = (*hdr).root;
            let removed = self.delete(root, key);
            // Shrink the root if it became an empty internal node.
            let r = self.node((*hdr).root);
            if r.leaf == 0 && r.count == 0 {
                let old_root = (*hdr).root;
                (*hdr).root = r.children[0];
                self.free_node(old_root);
            }
            match removed {
                Some((slice, val)) => {
                    self.arena.free_bytes(slice);
                    self.len_add(-1);
                    Some(val)
                }
                None => None,
            }
        }
    }

    /// Deletes `key` from the subtree at `p`, returning ownership of the
    /// removed key slice and its value.
    unsafe fn delete(&self, p: RelPtr<Node>, key: &[u8]) -> Option<(ByteSlice, u64)> {
        let n = self.node(p);
        match self.position(n, key) {
            Ok(i) => {
                if n.leaf == 1 {
                    Some(self.remove_from_leaf(p, i))
                } else {
                    self.delete_internal_hit(p, i, key)
                }
            }
            Err(i) => {
                if n.leaf == 1 {
                    return None;
                }
                let (child, _) = self.fix_child(p, i);
                self.delete(child, key)
            }
        }
    }

    /// Removes entry `i` from leaf `p` (case 1).
    unsafe fn remove_from_leaf(&self, p: RelPtr<Node>, i: usize) -> (ByteSlice, u64) {
        let n = self.node(p);
        let slice = n.keys[i];
        let val = n.vals[i];
        let c = n.count as usize;
        for j in i..c - 1 {
            n.keys[j] = n.keys[j + 1];
            n.vals[j] = n.vals[j + 1];
        }
        n.keys[c - 1] = ByteSlice::empty();
        n.count -= 1;
        (slice, val)
    }

    /// `key` found at slot `i` of internal node `p` (case 2).
    unsafe fn delete_internal_hit(
        &self,
        p: RelPtr<Node>,
        i: usize,
        key: &[u8],
    ) -> Option<(ByteSlice, u64)> {
        let n = self.node(p);
        let left = n.children[i];
        let right = n.children[i + 1];
        if self.node(left).count as usize >= T {
            // 2a: replace with predecessor (max of the left subtree).
            let (pk, pv) = self.delete_extreme(left, true);
            let n = self.node(p);
            let old = (n.keys[i], n.vals[i]);
            n.keys[i] = pk;
            n.vals[i] = pv;
            Some(old)
        } else if self.node(right).count as usize >= T {
            // 2b: replace with successor (min of the right subtree).
            let (sk, sv) = self.delete_extreme(right, false);
            let n = self.node(p);
            let old = (n.keys[i], n.vals[i]);
            n.keys[i] = sk;
            n.vals[i] = sv;
            Some(old)
        } else {
            // 2c: merge the separator and right child into the left child,
            // then continue deleting inside the merged node.
            self.merge_children(p, i);
            self.delete(left, key)
        }
    }

    /// Removes and returns the maximum (`max = true`) or minimum entry of
    /// the subtree at `p`, rebalancing on the way down.
    unsafe fn delete_extreme(&self, mut p: RelPtr<Node>, max: bool) -> (ByteSlice, u64) {
        loop {
            let n = self.node(p);
            if n.leaf == 1 {
                let i = if max { n.count as usize - 1 } else { 0 };
                return self.remove_from_leaf(p, i);
            }
            let ci = if max { n.count as usize } else { 0 };
            let (child, _) = self.fix_child(p, ci);
            p = child;
        }
    }

    /// Ensures `children[ci]` of `p` has at least `T` keys before we
    /// descend into it, borrowing from a sibling or merging. Returns the
    /// (possibly different) child pointer and its index.
    unsafe fn fix_child(&self, p: RelPtr<Node>, ci: usize) -> (RelPtr<Node>, usize) {
        let n = self.node(p);
        let child = n.children[ci];
        if self.node(child).count as usize >= T {
            return (child, ci);
        }
        // Try borrowing from the left sibling.
        if ci > 0 && self.node(n.children[ci - 1]).count as usize >= T {
            self.rotate_right(p, ci - 1);
            return (child, ci);
        }
        // Try borrowing from the right sibling.
        if ci < n.count as usize && self.node(n.children[ci + 1]).count as usize >= T {
            self.rotate_left(p, ci);
            return (child, ci);
        }
        // Merge with a sibling.
        if ci > 0 {
            self.merge_children(p, ci - 1);
            (self.node(p).children[ci - 1], ci - 1)
        } else {
            self.merge_children(p, ci);
            (self.node(p).children[ci], ci)
        }
    }

    /// Moves the last entry of `children[si]` up to `p` slot `si` and the
    /// old separator down into the front of `children[si+1]`.
    unsafe fn rotate_right(&self, p: RelPtr<Node>, si: usize) {
        let n = self.node(p);
        let left = self.node(n.children[si]);
        let right = self.node(n.children[si + 1]);
        let rc = right.count as usize;
        for j in (0..rc).rev() {
            right.keys[j + 1] = right.keys[j];
            right.vals[j + 1] = right.vals[j];
        }
        right.keys[0] = n.keys[si];
        right.vals[0] = n.vals[si];
        if right.leaf == 0 {
            for j in (0..=rc).rev() {
                right.children[j + 1] = right.children[j];
            }
            right.children[0] = left.children[left.count as usize];
            left.children[left.count as usize] = RelPtr::null();
        }
        right.count += 1;
        let lc = left.count as usize;
        n.keys[si] = left.keys[lc - 1];
        n.vals[si] = left.vals[lc - 1];
        left.keys[lc - 1] = ByteSlice::empty();
        left.count -= 1;
    }

    /// Mirror of [`BTreeHandle::rotate_right`].
    unsafe fn rotate_left(&self, p: RelPtr<Node>, si: usize) {
        let n = self.node(p);
        let left = self.node(n.children[si]);
        let right = self.node(n.children[si + 1]);
        let lc = left.count as usize;
        left.keys[lc] = n.keys[si];
        left.vals[lc] = n.vals[si];
        if left.leaf == 0 {
            left.children[lc + 1] = right.children[0];
        }
        left.count += 1;
        n.keys[si] = right.keys[0];
        n.vals[si] = right.vals[0];
        let rc = right.count as usize;
        for j in 0..rc - 1 {
            right.keys[j] = right.keys[j + 1];
            right.vals[j] = right.vals[j + 1];
        }
        if right.leaf == 0 {
            for j in 0..rc {
                right.children[j] = right.children[j + 1];
            }
            right.children[rc] = RelPtr::null();
        }
        right.keys[rc - 1] = ByteSlice::empty();
        right.count -= 1;
    }

    /// Merges separator `si` and `children[si+1]` into `children[si]`,
    /// retiring the right node to the pool.
    unsafe fn merge_children(&self, p: RelPtr<Node>, si: usize) {
        let n = self.node(p);
        let left_ptr = n.children[si];
        let right_ptr = n.children[si + 1];
        let left = self.node(left_ptr);
        let right = self.node(right_ptr);
        let lc = left.count as usize;
        let rc = right.count as usize;
        debug_assert!(lc + rc < MAX_KEYS);

        left.keys[lc] = n.keys[si];
        left.vals[lc] = n.vals[si];
        for j in 0..rc {
            left.keys[lc + 1 + j] = right.keys[j];
            left.vals[lc + 1 + j] = right.vals[j];
        }
        if left.leaf == 0 {
            for j in 0..=rc {
                left.children[lc + 1 + j] = right.children[j];
            }
        }
        left.count = (lc + rc + 1) as u16;

        let pc = n.count as usize;
        for j in si..pc - 1 {
            n.keys[j] = n.keys[j + 1];
            n.vals[j] = n.vals[j + 1];
        }
        for j in si + 1..pc {
            n.children[j] = n.children[j + 1];
        }
        n.keys[pc - 1] = ByteSlice::empty();
        n.children[pc] = RelPtr::null();
        n.count -= 1;
        self.free_node(right_ptr);
    }

    // ------------------------------------------------------------------
    // optimistic lookup

    /// Returns the value stored for `key` without taking any lock.
    ///
    /// Safe to run concurrently with `*_olc` writers; restarts internally
    /// on conflict (counted in `stats.restarts`).
    pub fn get_olc(&self, key: &[u8], stats: &OlcStats) -> Option<u64> {
        let mut bo = Backoff::new();
        loop {
            match self.try_get_olc(key) {
                Ok(r) => return r,
                Err(Conflict) => {
                    stats.restarts.fetch_add(1, AO::Relaxed);
                    bo.snooze();
                }
            }
        }
    }

    /// Whether `key` is present (optimistic).
    pub fn contains_olc(&self, key: &[u8], stats: &OlcStats) -> bool {
        self.get_olc(key, stats).is_some()
    }

    /// One optimistic descent. Every load is volatile, every pointer and
    /// slice is bounds-checked, and each node's version is validated after
    /// its fields (and the parent's version after reading the child
    /// pointer, hand-over-hand) before anything is trusted.
    fn try_get_olc(&self, key: &[u8]) -> Result<Option<u64>, Conflict> {
        // SAFETY: all raw reads are bounds-checked against the region and
        // never trusted until the covering version validates.
        unsafe {
            let hdr = self.arena.resolve(self.hdr);
            let hvw = as_atomic(&raw const (*hdr).version);
            let mut pv = Self::stable_version(hvw)?;
            let mut pvw = hvw;
            let mut p = std::ptr::read_volatile(&raw const (*hdr).root);
            loop {
                let np = self.try_node_ptr(p)?;
                let nvw = as_atomic(np as *const u64);
                let nv = Self::stable_version(nvw)?;
                // The child pointer we followed is only meaningful if the
                // parent did not change under us.
                if pvw.load(AO::Acquire) != pv {
                    return Err(Conflict);
                }
                let leaf = std::ptr::read_volatile(&raw const (*np).leaf);
                let count = std::ptr::read_volatile(&raw const (*np).count) as usize;
                if count > MAX_KEYS {
                    return Err(Conflict);
                }
                // Linear position scan with torn-read-safe compares.
                let mut descend = count;
                let mut hit: Option<u64> = None;
                for i in 0..count {
                    let ks = std::ptr::read_volatile(&raw const (*np).keys[i]);
                    match self.cmp_olc(ks, key)? {
                        Ordering::Equal => {
                            hit = Some(std::ptr::read_volatile(&raw const (*np).vals[i]));
                            break;
                        }
                        Ordering::Greater => {
                            descend = i;
                            break;
                        }
                        Ordering::Less => {}
                    }
                }
                let child = std::ptr::read_volatile(&raw const (*np).children[descend]);
                // Validate everything read from this node.
                fence(AO::Acquire);
                if nvw.load(AO::Acquire) != nv {
                    return Err(Conflict);
                }
                if let Some(v) = hit {
                    return Ok(Some(v));
                }
                if leaf == 1 {
                    return Ok(None);
                }
                p = child;
                pvw = nvw;
                pv = nv;
            }
        }
    }

    // ------------------------------------------------------------------
    // optimistic insert / remove (lock coupling)

    /// Inserts `key → val` holding only per-node latches; returns the
    /// previous value if the key existed.
    pub fn insert_olc(&self, key: &[u8], val: u64, stats: &OlcStats) -> Option<u64> {
        let mut bo = Backoff::new();
        loop {
            // SAFETY: latches acquired top-down; see try_insert_olc.
            match unsafe { self.try_insert_olc(key, val, stats) } {
                Ok(prev) => {
                    if prev.is_none() {
                        self.len_add(1);
                    }
                    return prev;
                }
                Err(Conflict) => {
                    stats.restarts.fetch_add(1, AO::Relaxed);
                    bo.snooze();
                }
            }
        }
    }

    /// Removes `key` holding only per-node latches; returns its value if
    /// present.
    pub fn remove_olc(&self, key: &[u8], stats: &OlcStats) -> Option<u64> {
        let mut bo = Backoff::new();
        loop {
            // SAFETY: latches acquired top-down; see try_remove_olc.
            match unsafe { self.try_remove_olc(key, stats) } {
                Ok(Some((slice, val))) => {
                    self.arena.free_bytes(slice);
                    self.len_add(-1);
                    return Some(val);
                }
                Ok(None) => return None,
                Err(Conflict) => {
                    stats.restarts.fetch_add(1, AO::Relaxed);
                    bo.snooze();
                }
            }
        }
    }

    /// Latches the root node, handling a concurrent root swap: read the
    /// root pointer, latch it, then re-check the pointer (the swap happens
    /// under the old root's latch, so a stale latch always detects it).
    unsafe fn latch_root(&self, stats: &OlcStats) -> Result<RelPtr<Node>, Conflict> {
        let hdr = self.arena.resolve(self.hdr);
        let p = std::ptr::read_volatile(&raw const (*hdr).root);
        let np = self.try_node_ptr(p)?;
        let vw = as_atomic(np as *const u64);
        Self::lock_vword(vw, stats)?;
        let p2 = std::ptr::read_volatile(&raw const (*hdr).root);
        if p2.offset() != p.offset() {
            self.unlock_node(p);
            return Err(Conflict);
        }
        Ok(p)
    }

    /// Latches node `p` (a child reached under its parent's latch).
    unsafe fn latch_node(&self, p: RelPtr<Node>, stats: &OlcStats) -> Result<(), Conflict> {
        Self::lock_vword(self.vword(p), stats).map(|_| ())
    }

    /// Publishes a new root: latch the header version word, swap the
    /// pointer, release. Caller holds the old root's latch, which makes
    /// the header latch effectively uncontended (all root swaps happen
    /// under the old root's latch).
    unsafe fn publish_root(&self, new_root: RelPtr<Node>, stats: &OlcStats) {
        let hdr = self.arena.resolve(self.hdr);
        let hvw = as_atomic(&raw const (*hdr).version);
        while Self::lock_vword(hvw, stats).is_err() {
            std::hint::spin_loop();
        }
        std::ptr::write_volatile(&raw mut (*hdr).root, new_root);
        hvw.fetch_add(1, AO::Release);
    }

    unsafe fn try_insert_olc(
        &self,
        key: &[u8],
        val: u64,
        stats: &OlcStats,
    ) -> Result<Option<u64>, Conflict> {
        let mut cur = self.latch_root(stats)?;
        // Grow the tree if the root is full: split into a fresh root while
        // both old root (latched) and new root (unpublished) are ours.
        if self.node(cur).count as usize == MAX_KEYS {
            let new_root = self.alloc_node();
            {
                let nr = self.node(new_root);
                nr.leaf = 0;
                nr.count = 0;
                nr.children[0] = cur;
            }
            // Latch the new root pre-publication (always succeeds: the
            // node is private). Keeps the "cur is latched" invariant after
            // the swap.
            self.latch_node(new_root, stats)?;
            self.split_child(new_root, 0);
            self.publish_root(new_root, stats);
            self.unlock_node(cur);
            cur = new_root;
        }
        // Invariant: cur is latched and not full.
        loop {
            let n = self.node(cur);
            match self.position(n, key) {
                Ok(i) => {
                    let old = n.vals[i];
                    n.vals[i] = val;
                    self.unlock_node(cur);
                    return Ok(Some(old));
                }
                Err(i) => {
                    if n.leaf == 1 {
                        let c = n.count as usize;
                        for j in (i..c).rev() {
                            n.keys[j + 1] = n.keys[j];
                            n.vals[j + 1] = n.vals[j];
                        }
                        n.keys[i] = self.arena.alloc_bytes(key);
                        n.vals[i] = val;
                        n.count += 1;
                        self.unlock_node(cur);
                        return Ok(None);
                    }
                    let child = n.children[i];
                    if let Err(e) = self.latch_node(child, stats) {
                        self.unlock_node(cur);
                        return Err(e);
                    }
                    if self.node(child).count as usize == MAX_KEYS {
                        // Split under both latches; the new right sibling
                        // is only reachable through latched `cur`.
                        self.split_child(cur, i);
                        match self.cmp(self.node(cur).keys[i], key) {
                            Ordering::Equal => {
                                let n = self.node(cur);
                                let old = n.vals[i];
                                n.vals[i] = val;
                                self.unlock_node(child);
                                self.unlock_node(cur);
                                return Ok(Some(old));
                            }
                            Ordering::Greater => {
                                // key < median: continue into the left
                                // child, which stays `child`.
                                self.unlock_node(cur);
                                cur = child;
                            }
                            Ordering::Less => {
                                let right = self.node(cur).children[i + 1];
                                // Fresh node, only reachable via latched
                                // cur: latch cannot fail meaningfully.
                                if let Err(e) = self.latch_node(right, stats) {
                                    self.unlock_node(child);
                                    self.unlock_node(cur);
                                    return Err(e);
                                }
                                self.unlock_node(child);
                                self.unlock_node(cur);
                                cur = right;
                            }
                        }
                    } else {
                        self.unlock_node(cur);
                        cur = child;
                    }
                }
            }
        }
    }

    unsafe fn try_remove_olc(
        &self,
        key: &[u8],
        stats: &OlcStats,
    ) -> Result<Option<(ByteSlice, u64)>, Conflict> {
        let mut cur = self.latch_root(stats)?;
        let mut is_root = true;
        // Invariant: cur is latched, and (unless it is the root) holds at
        // least T keys, so removals below never need to touch above it.
        loop {
            let n = self.node(cur);
            match self.position(n, key) {
                Err(i) => {
                    if n.leaf == 1 {
                        self.unlock_node(cur);
                        return Ok(None);
                    }
                    let (child, _) = match self.fix_child_olc(cur, i, stats) {
                        Ok(x) => x,
                        Err(e) => {
                            self.unlock_node(cur);
                            return Err(e);
                        }
                    };
                    self.descend_unlock(&mut cur, &mut is_root, child, stats);
                }
                Ok(i) => {
                    if n.leaf == 1 {
                        let out = self.remove_from_leaf(cur, i);
                        self.unlock_node(cur);
                        return Ok(Some(out));
                    }
                    // Internal hit: swap in the predecessor or successor,
                    // keeping the WHOLE extreme-descent path latched so the
                    // separator replacement and the leaf removal are one
                    // atomic restructure from a reader's point of view.
                    let left = n.children[i];
                    let right = n.children[i + 1];
                    if let Err(e) = self.latch_node(left, stats) {
                        self.unlock_node(cur);
                        return Err(e);
                    }
                    if self.node(left).count as usize >= T {
                        return self.swap_separator(cur, i, left, true, stats);
                    }
                    if let Err(e) = self.latch_node(right, stats) {
                        self.unlock_node(left);
                        self.unlock_node(cur);
                        return Err(e);
                    }
                    if self.node(right).count as usize >= T {
                        self.unlock_node(left);
                        return self.swap_separator(cur, i, right, false, stats);
                    }
                    // 2c: both children minimal — merge them around the
                    // separator (consumes right's latch) and keep deleting
                    // inside the merged node.
                    self.merge_children(cur, i);
                    self.descend_unlock(&mut cur, &mut is_root, left, stats);
                }
            }
        }
    }

    /// Moves the latched descent from `cur` to `child`, shrinking the root
    /// first when a merge just emptied it. Consumes `cur`'s latch.
    unsafe fn descend_unlock(
        &self,
        cur: &mut RelPtr<Node>,
        is_root: &mut bool,
        child: RelPtr<Node>,
        stats: &OlcStats,
    ) {
        let n = self.node(*cur);
        if *is_root && n.leaf == 0 && n.count == 0 {
            // The merge left an empty internal root whose only child is
            // `child`: publish the child as the new root and retire the
            // old one (free_node consumes its latch).
            self.publish_root(child, stats);
            self.free_node(*cur);
        } else {
            self.unlock_node(*cur);
        }
        *cur = child;
        *is_root = false;
    }

    /// Case 2a/2b of the internal-hit delete: removes the extreme entry of
    /// the latched subtree `sub` (predecessor if `max`, else successor)
    /// with the full path latched, then swaps it into separator slot `i`
    /// of `cur`. Unlocks everything and returns the removed separator.
    unsafe fn swap_separator(
        &self,
        cur: RelPtr<Node>,
        i: usize,
        sub: RelPtr<Node>,
        max: bool,
        stats: &OlcStats,
    ) -> Result<Option<(ByteSlice, u64)>, Conflict> {
        let mut held: Vec<RelPtr<Node>> = Vec::new();
        match self.delete_extreme_olc(sub, max, &mut held, stats) {
            Ok((k, v)) => {
                let n = self.node(cur);
                let old = (n.keys[i], n.vals[i]);
                n.keys[i] = k;
                n.vals[i] = v;
                for &h in held.iter().rev() {
                    self.unlock_node(h);
                }
                self.unlock_node(cur);
                Ok(Some(old))
            }
            Err(e) => {
                for &h in held.iter().rev() {
                    self.unlock_node(h);
                }
                self.unlock_node(cur);
                Err(e)
            }
        }
    }

    /// Latched-path version of [`BTreeHandle::delete_extreme`]: every node
    /// on the way down is pushed to `held` and stays latched until the
    /// caller has swapped the separator. `start` must already be latched
    /// and hold at least `T` keys.
    unsafe fn delete_extreme_olc(
        &self,
        start: RelPtr<Node>,
        max: bool,
        held: &mut Vec<RelPtr<Node>>,
        stats: &OlcStats,
    ) -> Result<(ByteSlice, u64), Conflict> {
        let mut p = start;
        held.push(p);
        loop {
            let n = self.node(p);
            if n.leaf == 1 {
                let i = if max { n.count as usize - 1 } else { 0 };
                return Ok(self.remove_from_leaf(p, i));
            }
            let ci = if max { n.count as usize } else { 0 };
            let (child, _) = self.fix_child_olc(p, ci, stats)?;
            held.push(child);
            p = child;
        }
    }

    /// Latch-coupled version of [`BTreeHandle::fix_child`]: latches
    /// `children[ci]` of latched `p` and rebalances it to at least `T`
    /// keys (borrow from a sibling, else merge). Returns the latched child
    /// to descend into and its index; merged-away nodes are retired with
    /// their latch consumed. On `Err` no new latches remain held.
    unsafe fn fix_child_olc(
        &self,
        p: RelPtr<Node>,
        ci: usize,
        stats: &OlcStats,
    ) -> Result<(RelPtr<Node>, usize), Conflict> {
        let n = self.node(p);
        let child = n.children[ci];
        self.latch_node(child, stats)?;
        if self.node(child).count as usize >= T {
            return Ok((child, ci));
        }
        // Sibling latches are taken while holding the parent latch, so the
        // only contention is a writer already below us — strictly bounded.
        if ci > 0 {
            let left = n.children[ci - 1];
            if let Err(e) = self.latch_node(left, stats) {
                self.unlock_node(child);
                return Err(e);
            }
            if self.node(left).count as usize >= T {
                self.rotate_right(p, ci - 1);
                self.unlock_node(left);
                return Ok((child, ci));
            }
            if ci < n.count as usize {
                let right = n.children[ci + 1];
                if let Err(e) = self.latch_node(right, stats) {
                    self.unlock_node(left);
                    self.unlock_node(child);
                    return Err(e);
                }
                if self.node(right).count as usize >= T {
                    self.rotate_left(p, ci);
                    self.unlock_node(right);
                    self.unlock_node(left);
                    return Ok((child, ci));
                }
                self.unlock_node(right);
            }
            // Merge child into its left sibling (frees child, consuming
            // its latch); continue into the survivor.
            self.merge_children(p, ci - 1);
            Ok((left, ci - 1))
        } else {
            let right = n.children[ci + 1];
            if let Err(e) = self.latch_node(right, stats) {
                self.unlock_node(child);
                return Err(e);
            }
            if self.node(right).count as usize >= T {
                self.rotate_left(p, ci);
                self.unlock_node(right);
                return Ok((child, ci));
            }
            // Merge right sibling into child (frees right, consuming its
            // latch).
            self.merge_children(p, ci);
            Ok((child, ci))
        }
    }

    // ------------------------------------------------------------------
    // optimistic scans

    /// Collects all entries in `[lo, hi)` without taking any lock. The
    /// result is a hand-over-hand-consistent snapshot (each node read
    /// atomically, child reads validated against the parent); the scan
    /// restarts from scratch on conflict so no duplicates are emitted.
    pub fn collect_range_olc(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        stats: &OlcStats,
    ) -> Vec<(Vec<u8>, u64)> {
        let mut bo = Backoff::new();
        loop {
            let mut out = Vec::new();
            // SAFETY: every read bounds-checked and version-validated.
            let r = unsafe {
                let hdr = self.arena.resolve(self.hdr);
                let hvw = as_atomic(&raw const (*hdr).version);
                match Self::stable_version(hvw) {
                    Ok(hv) => {
                        let root = std::ptr::read_volatile(&raw const (*hdr).root);
                        self.walk_range_olc(root, hvw, hv, lo, hi, 0, &mut out)
                    }
                    Err(e) => Err(e),
                }
            };
            match r {
                Ok(()) => return out,
                Err(Conflict) => {
                    stats.restarts.fetch_add(1, AO::Relaxed);
                    bo.snooze();
                }
            }
        }
    }

    /// Collects every entry whose key starts with `prefix` (optimistic).
    pub fn collect_prefix_olc(&self, prefix: &[u8], stats: &OlcStats) -> Vec<(Vec<u8>, u64)> {
        let hi = prefix_upper_bound(prefix);
        self.collect_range_olc(prefix, hi.as_deref(), stats)
    }

    /// Collects all entries (optimistic).
    pub fn entries_olc(&self, stats: &OlcStats) -> Vec<(Vec<u8>, u64)> {
        self.collect_range_olc(b"", None, stats)
    }

    /// Takes an owned, validated snapshot of one node: version, fields and
    /// key bytes all copied out before the version check confirms nothing
    /// moved. The parent's version is re-validated first so the child
    /// pointer that led here is known-good (hand-over-hand).
    unsafe fn snap_node(
        &self,
        p: RelPtr<Node>,
        pvw: &AtomicU64,
        pv: u64,
        snap: &mut NodeSnap,
    ) -> Result<&AtomicU64, Conflict> {
        let np = self.try_node_ptr(p)?;
        let nvw = as_atomic(np as *const u64);
        let nv = Self::stable_version(nvw)?;
        if pvw.load(AO::Acquire) != pv {
            return Err(Conflict);
        }
        let count = std::ptr::read_volatile(&raw const (*np).count) as usize;
        if count > MAX_KEYS {
            return Err(Conflict);
        }
        snap.version = nv;
        snap.leaf = std::ptr::read_volatile(&raw const (*np).leaf) == 1;
        snap.keys.clear();
        snap.vals.clear();
        snap.children.clear();
        let mem = self.arena.memory();
        for i in 0..count {
            let ks = std::ptr::read_volatile(&raw const (*np).keys[i]);
            let len = ks.len as usize;
            let off = ks.ptr.offset() as usize;
            let mut key = Vec::new();
            if len > 0 {
                // Bounds-check BEFORE reserving: a torn length could be
                // gigabytes.
                if off == 0 || len > mem.len() || off > mem.len() - len {
                    return Err(Conflict);
                }
                key.reserve_exact(len);
                for b in 0..len {
                    key.push(std::ptr::read_volatile(mem.base().add(off + b)));
                }
            }
            snap.keys.push(key);
            snap.vals
                .push(std::ptr::read_volatile(&raw const (*np).vals[i]));
        }
        if !snap.leaf {
            for i in 0..=count {
                snap.children
                    .push(std::ptr::read_volatile(&raw const (*np).children[i]));
            }
        }
        fence(AO::Acquire);
        if nvw.load(AO::Acquire) != nv {
            return Err(Conflict);
        }
        Ok(nvw)
    }

    /// Range walk over validated node snapshots, pruning like
    /// [`BTreeHandle::for_each_range`]. `Err` aborts the whole scan (the
    /// caller clears and retries).
    #[allow(clippy::too_many_arguments)]
    unsafe fn walk_range_olc(
        &self,
        p: RelPtr<Node>,
        pvw: &AtomicU64,
        pv: u64,
        lo: &[u8],
        hi: Option<&[u8]>,
        depth: usize,
        out: &mut Vec<(Vec<u8>, u64)>,
    ) -> Result<(), Conflict> {
        if depth > 64 {
            // A torn pointer chain could loop; depth-bound it (a real tree
            // of degree 8 never gets remotely this deep).
            return Err(Conflict);
        }
        let mut snap = NodeSnap::default();
        let nvw = self.snap_node(p, pvw, pv, &mut snap)?;
        let c = snap.keys.len();
        let mut start = 0;
        while start < c && snap.keys[start].as_slice() < lo {
            start += 1;
        }
        for i in start..c {
            let in_range = hi.is_none_or(|h| snap.keys[i].as_slice() < h);
            if !snap.leaf {
                self.walk_range_olc(snap.children[i], nvw, snap.version, lo, hi, depth + 1, out)?;
            }
            if !in_range {
                return Ok(());
            }
            out.push((std::mem::take(&mut snap.keys[i]), snap.vals[i]));
        }
        if !snap.leaf {
            self.walk_range_olc(snap.children[c], nvw, snap.version, lo, hi, depth + 1, out)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // iteration & introspection (exclusive)

    /// In-order traversal; `f(key, value)` for every entry, ascending.
    pub fn for_each(&self, mut f: impl FnMut(&[u8], u64)) {
        // SAFETY: read-only traversal.
        unsafe {
            let root = (*self.arena.resolve(self.hdr)).root;
            self.walk(root, &mut f);
        }
    }

    unsafe fn walk(&self, p: RelPtr<Node>, f: &mut impl FnMut(&[u8], u64)) {
        let n = self.node(p);
        for i in 0..n.count as usize {
            if n.leaf == 0 {
                self.walk(n.children[i], f);
            }
            f(self.key_bytes(n.keys[i]), n.vals[i]);
        }
        if n.leaf == 0 {
            self.walk(n.children[n.count as usize], f);
        }
    }

    /// Collects all entries (tests and small trees only).
    pub fn entries(&self) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        self.for_each(|k, v| out.push((k.to_vec(), v)));
        out
    }

    /// In-order traversal of keys in `[lo, hi)`; `f(key, value)` for each.
    /// Subtrees outside the range are pruned, so a narrow range on a large
    /// tree touches only O(log n + matches) nodes.
    pub fn for_each_range(&self, lo: &[u8], hi: Option<&[u8]>, mut f: impl FnMut(&[u8], u64)) {
        // SAFETY: read-only traversal.
        unsafe {
            let root = (*self.arena.resolve(self.hdr)).root;
            self.walk_range(root, lo, hi, &mut f);
        }
    }

    unsafe fn walk_range(
        &self,
        p: RelPtr<Node>,
        lo: &[u8],
        hi: Option<&[u8]>,
        f: &mut impl FnMut(&[u8], u64),
    ) {
        let n = self.node(p);
        let c = n.count as usize;
        // First key index ≥ lo.
        let mut start = 0;
        while start < c && self.key_bytes(n.keys[start]) < lo {
            start += 1;
        }
        for i in start..c {
            let k = self.key_bytes(n.keys[i]);
            let in_range = hi.is_none_or(|h| k < h);
            if n.leaf == 0 {
                // The child left of keys[i] may hold in-range keys even if
                // keys[i] itself is past hi.
                self.walk_range(n.children[i], lo, hi, f);
            }
            if !in_range {
                return;
            }
            f(k, n.vals[i]);
        }
        if n.leaf == 0 {
            self.walk_range(n.children[c], lo, hi, f);
        }
    }

    /// Traverses every key starting with `prefix`, ascending.
    pub fn for_each_prefix(&self, prefix: &[u8], mut f: impl FnMut(&[u8], u64)) {
        let hi = prefix_upper_bound(prefix);
        self.for_each_range(prefix, hi.as_deref(), |k, v| {
            debug_assert!(k.starts_with(prefix));
            f(k, v)
        });
    }

    /// Verifies every B-tree invariant; panics with a description on
    /// violation. Used by tests and debug assertions. Requires exclusive
    /// access (quiesced tree).
    pub fn check_invariants(&self) {
        // SAFETY: read-only traversal.
        unsafe {
            let root = (*self.arena.resolve(self.hdr)).root;
            let mut count = 0u64;
            let mut depth = None;
            self.check_node(root, true, None, None, 0, &mut depth, &mut count);
            assert_eq!(
                count,
                self.len(),
                "len counter disagrees with tree contents"
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    unsafe fn check_node(
        &self,
        p: RelPtr<Node>,
        is_root: bool,
        lower: Option<&[u8]>,
        upper: Option<&[u8]>,
        depth: usize,
        leaf_depth: &mut Option<usize>,
        count: &mut u64,
    ) {
        let n = self.node(p);
        assert!(n.version != OBSOLETE, "reachable node marked obsolete");
        assert!(n.version & 1 == 0, "reachable node left latched");
        let c = n.count as usize;
        assert!(c <= MAX_KEYS, "node overfull");
        if !is_root {
            assert!(c >= T - 1, "non-root node underfull: {c} keys");
        }
        *count += c as u64;
        let mut prev: Option<&[u8]> = None;
        for i in 0..c {
            let k = self.key_bytes(n.keys[i]);
            if let Some(pk) = prev {
                assert!(pk < k, "keys out of order");
            }
            if let Some(lo) = lower {
                assert!(k > lo, "key below subtree lower bound");
            }
            if let Some(hi) = upper {
                assert!(k < hi, "key above subtree upper bound");
            }
            prev = Some(k);
        }
        if n.leaf == 1 {
            match *leaf_depth {
                None => *leaf_depth = Some(depth),
                Some(d) => assert_eq!(d, depth, "leaves at unequal depth"),
            }
        } else {
            for i in 0..=c {
                let lo = if i == 0 {
                    lower
                } else {
                    Some(self.key_bytes(n.keys[i - 1]))
                };
                let hi = if i == c {
                    upper
                } else {
                    Some(self.key_bytes(n.keys[i]))
                };
                assert!(!n.children[i].is_null(), "internal node with null child");
                self.check_node(n.children[i], false, lo, hi, depth + 1, leaf_depth, count);
            }
        }
    }
}

/// Owned snapshot of one node, reused across [`BTreeHandle::snap_node`]
/// calls in a scan.
#[derive(Default)]
struct NodeSnap {
    version: u64,
    leaf: bool,
    keys: Vec<Vec<u8>>,
    vals: Vec<u64>,
    children: Vec<RelPtr<Node>>,
}

/// The exclusive upper bound of the key range sharing `prefix`: the prefix
/// with its last byte bumped (carrying over 0xFF bytes); an all-0xFF
/// prefix has no bound.
fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut hi = prefix.to_vec();
    loop {
        match hi.pop() {
            None => return None,
            Some(b) if b < 0xFF => {
                hi.push(b + 1);
                return Some(hi);
            }
            Some(_) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;
    use dstore_arena::DramMemory;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;

    fn arena() -> Arena<DramMemory> {
        Arena::create(DramMemory::new(1 << 22))
    }

    #[test]
    fn empty_tree() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        assert!(t.is_empty());
        assert_eq!(t.get(b"nope"), None);
        assert!(!t.contains(b"nope"));
        t.check_invariants();
    }

    #[test]
    fn insert_get_roundtrip() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        assert_eq!(t.insert(b"alpha", 1), None);
        assert_eq!(t.insert(b"beta", 2), None);
        assert_eq!(t.insert(b"gamma", 3), None);
        assert_eq!(t.get(b"alpha"), Some(1));
        assert_eq!(t.get(b"beta"), Some(2));
        assert_eq!(t.get(b"gamma"), Some(3));
        assert_eq!(t.len(), 3);
        t.check_invariants();
    }

    #[test]
    fn insert_replace_returns_old() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        assert_eq!(t.insert(b"k", 1), None);
        assert_eq!(t.insert(b"k", 2), Some(1));
        assert_eq!(t.get(b"k"), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn splits_and_ordering_with_many_keys() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        let n = 2000u64;
        for i in 0..n {
            // Shuffled-ish insertion order.
            let k = (i * 7919) % n;
            t.insert(format!("key{k:06}").as_bytes(), k);
        }
        assert_eq!(t.len(), n);
        t.check_invariants();
        let entries = t.entries();
        assert_eq!(entries.len(), n as usize);
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "iteration out of order");
        }
        for i in 0..n {
            assert_eq!(t.get(format!("key{i:06}").as_bytes()), Some(i));
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        t.insert(b"present", 1);
        assert_eq!(t.remove(b"absent"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_all_in_various_orders() {
        for &stride in &[1u64, 3, 7, 11] {
            let a = arena();
            let t = BTreeHandle::create(&a);
            let n = 500u64;
            for i in 0..n {
                t.insert(format!("k{i:05}").as_bytes(), i);
            }
            for i in 0..n {
                let k = (i * stride) % n;
                assert_eq!(
                    t.remove(format!("k{k:05}").as_bytes()),
                    Some(k),
                    "stride {stride} remove {k}"
                );
                if i % 50 == 0 {
                    t.check_invariants();
                }
            }
            assert!(t.is_empty());
            t.check_invariants();
        }
    }

    #[test]
    fn interleaved_insert_remove() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        let mut model = std::collections::BTreeMap::new();
        for i in 0u64..3000 {
            let k = format!("obj{:04}", (i * 31) % 400);
            if i % 3 == 0 {
                let got = t.remove(k.as_bytes());
                let want = model.remove(k.as_bytes());
                assert_eq!(got, want, "remove {k}");
            } else {
                let got = t.insert(k.as_bytes(), i);
                let want = model.insert(k.clone().into_bytes(), i);
                assert_eq!(got, want, "insert {k}");
            }
        }
        t.check_invariants();
        let got = t.entries();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn keys_survive_region_copy() {
        // The whole point of the arena design: copy the region, re-attach,
        // and the tree is intact at the same offsets.
        let a = arena();
        let t = BTreeHandle::create(&a);
        for i in 0..300u64 {
            t.insert(format!("copy{i:04}").as_bytes(), i);
        }
        let hdr = t.header_ptr();
        let b = arena();
        a.copy_allocated_to(&b);
        let t2 = BTreeHandle::attach(&b, hdr);
        assert_eq!(t2.len(), 300);
        t2.check_invariants();
        for i in 0..300u64 {
            assert_eq!(t2.get(format!("copy{i:04}").as_bytes()), Some(i));
        }
        // Mutating the copy does not affect the original (shadow isolation).
        t2.remove(b"copy0000");
        assert_eq!(t.get(b"copy0000"), Some(0));
        assert_eq!(t2.get(b"copy0000"), None);
    }

    #[test]
    fn binary_keys_and_empty_key() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        t.insert(b"", 0);
        t.insert(&[0u8, 1, 2], 1);
        t.insert(&[0u8, 1], 2);
        t.insert(&[255u8; 32], 3);
        assert_eq!(t.get(b""), Some(0));
        assert_eq!(t.get(&[0u8, 1, 2]), Some(1));
        assert_eq!(t.get(&[0u8, 1]), Some(2));
        assert_eq!(t.get(&[255u8; 32]), Some(3));
        t.check_invariants();
        let e = t.entries();
        assert_eq!(e[0].0, b"");
    }

    #[test]
    fn range_scans_prune_correctly() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        for i in 0..1000u64 {
            t.insert(format!("k{i:04}").as_bytes(), i);
        }
        // Closed-open range.
        let mut got = vec![];
        t.for_each_range(b"k0100", Some(b"k0110"), |k, v| got.push((k.to_vec(), v)));
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, b"k0100");
        assert_eq!(got[9].0, b"k0109");
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Open-ended range.
        let mut n = 0;
        t.for_each_range(b"k0990", None, |_, _| n += 1);
        assert_eq!(n, 10);
        // Empty range.
        let mut n = 0;
        t.for_each_range(b"k0500", Some(b"k0500"), |_, _| n += 1);
        assert_eq!(n, 0);
        // Full range equals full traversal.
        let mut n = 0;
        t.for_each_range(b"", None, |_, _| n += 1);
        assert_eq!(n, 1000);
    }

    #[test]
    fn prefix_scans() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        for tenant in ["alpha", "beta", "gamma"] {
            for i in 0..50u64 {
                t.insert(format!("{tenant}/obj{i:03}").as_bytes(), i);
            }
        }
        let mut got = vec![];
        t.for_each_prefix(b"beta/", |k, _| got.push(k.to_vec()));
        assert_eq!(got.len(), 50);
        assert!(got.iter().all(|k| k.starts_with(b"beta/")));
        // Prefix that bumps through 0xFF bytes.
        t.insert(&[0xFF, 0xFF, 1], 1);
        t.insert(&[0xFF, 0xFF, 2], 2);
        let mut n = 0;
        t.for_each_prefix(&[0xFF, 0xFF], |_, _| n += 1);
        assert_eq!(n, 2);
        // Empty prefix = everything.
        let mut n = 0;
        t.for_each_prefix(b"", |_, _| n += 1);
        assert_eq!(n, 152);
    }

    #[test]
    fn node_fits_512_class() {
        assert!(
            std::mem::size_of::<Node>() <= 512,
            "{}",
            std::mem::size_of::<Node>()
        );
        // The free-node scrub and version protocol require the version
        // word to be the first field.
        assert_eq!(std::mem::offset_of!(Node, version), 0);
    }

    // ------------------------------------------------------------------
    // OLC mode

    #[test]
    fn olc_single_thread_matches_model() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        let stats = OlcStats::default();
        let mut model = std::collections::BTreeMap::new();
        for i in 0u64..4000 {
            let k = format!("olc{:04}", (i * 37) % 600);
            if i % 3 == 0 {
                assert_eq!(
                    t.remove_olc(k.as_bytes(), &stats),
                    model.remove(k.as_bytes()),
                    "remove {k}"
                );
            } else {
                assert_eq!(
                    t.insert_olc(k.as_bytes(), i, &stats),
                    model.insert(k.clone().into_bytes(), i),
                    "insert {k}"
                );
            }
            if i % 500 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        for (k, v) in &model {
            assert_eq!(t.get_olc(k, &stats), Some(*v));
        }
        assert_eq!(t.get_olc(b"missing", &stats), None);
        // Scans agree with the exclusive walkers.
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(t.entries_olc(&stats), want);
        assert_eq!(t.entries(), want);
    }

    #[test]
    fn olc_scans_prune_and_prefix() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        let stats = OlcStats::default();
        for i in 0..1000u64 {
            t.insert_olc(format!("k{i:04}").as_bytes(), i, &stats);
        }
        let got = t.collect_range_olc(b"k0100", Some(b"k0110"), &stats);
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, b"k0100");
        assert_eq!(got[9].0, b"k0109");
        assert_eq!(t.collect_range_olc(b"k0990", None, &stats).len(), 10);
        assert_eq!(
            t.collect_range_olc(b"k0500", Some(b"k0500"), &stats).len(),
            0
        );
        t.insert_olc(&[0xFF, 0xFF, 1], 1, &stats);
        assert_eq!(t.collect_prefix_olc(&[0xFF, 0xFF], &stats).len(), 1);
        assert_eq!(t.collect_prefix_olc(b"", &stats).len(), 1001);
    }

    /// N writers splitting/merging nodes while M readers validate that
    /// every observed value matches its key's FNV hash — a torn read
    /// (value from one entry, key from another) would fail the check.
    #[test]
    fn olc_concurrent_readers_see_no_torn_values() {
        let a = arena();
        let hdr = BTreeHandle::create(&a).header_ptr();
        let stats = OlcStats::default();
        let stop = AtomicBool::new(false);
        let key_of = |w: usize, i: usize| format!("w{w}/key{i:05}");
        const WRITERS: usize = 2;
        const READERS: usize = 2;
        const KEYS: usize = 400;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (a, stats, stop) = (&a, &stats, &stop);
                s.spawn(move || {
                    let t = BTreeHandle::attach(a, hdr);
                    // Churn: fill, drain half, refill — forces splits,
                    // borrows and merges while readers run.
                    for round in 0..6 {
                        for i in 0..KEYS {
                            let k = key_of(w, i);
                            t.insert_olc(k.as_bytes(), fnv1a(k.as_bytes()), stats);
                        }
                        for i in (round % 2..KEYS).step_by(2) {
                            let k = key_of(w, i);
                            t.remove_olc(k.as_bytes(), stats);
                        }
                    }
                    stop.store(true, AO::Release);
                });
            }
            for r in 0..READERS {
                let (a, stats, stop) = (&a, &stats, &stop);
                s.spawn(move || {
                    let t = BTreeHandle::attach(a, hdr);
                    let mut i = r;
                    let mut hits = 0u64;
                    while !stop.load(AO::Acquire) {
                        let k = key_of(i % WRITERS, (i * 13) % KEYS);
                        if let Some(v) = t.get_olc(k.as_bytes(), stats) {
                            assert_eq!(v, fnv1a(k.as_bytes()), "torn read for {k}");
                            hits += 1;
                        }
                        if i % 97 == 0 {
                            for (k, v) in t.collect_prefix_olc(b"w0/", stats) {
                                assert_eq!(v, fnv1a(&k), "torn scan entry");
                            }
                        }
                        i += 1;
                    }
                    hits
                });
            }
        });
        // Quiesced: the tree must be structurally sound.
        let t = BTreeHandle::attach(&a, hdr);
        t.check_invariants();
        for (k, v) in t.entries() {
            assert_eq!(v, fnv1a(&k));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Concurrent equivalence: writers on disjoint key spaces apply
        /// arbitrary op sequences concurrently; the final tree must equal
        /// the union of the per-writer sequential models.
        #[test]
        fn olc_concurrent_disjoint_writers_equivalence(
            ops in proptest::collection::vec(
                (0usize..3, 0u16..120, any::<u64>()), 60..240),
        ) {
            let a = arena();
            let hdr = BTreeHandle::create(&a).header_ptr();
            let stats = OlcStats::default();
            const WRITERS: usize = 3;
            let mut models: Vec<std::collections::BTreeMap<Vec<u8>, u64>> =
                vec![Default::default(); WRITERS];
            // Compute each writer's sequential model up front.
            for (w, model) in models.iter_mut().enumerate() {
                for &(op, k, v) in &ops {
                    let key = format!("w{w}/{k:05}").into_bytes();
                    match op {
                        0 | 1 => { model.insert(key, v); }
                        _ => { model.remove(&key); }
                    }
                }
            }
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    let (a, stats, ops) = (&a, &stats, &ops);
                    s.spawn(move || {
                        let t = BTreeHandle::attach(a, hdr);
                        for &(op, k, v) in ops {
                            let key = format!("w{w}/{k:05}").into_bytes();
                            match op {
                                0 | 1 => { t.insert_olc(&key, v, stats); }
                                _ => { t.remove_olc(&key, stats); }
                            }
                        }
                    });
                }
            });
            let t = BTreeHandle::attach(&a, hdr);
            t.check_invariants();
            let mut want: Vec<(Vec<u8>, u64)> = vec![];
            for m in models {
                want.extend(m);
            }
            want.sort();
            prop_assert_eq!(t.entries(), want);
        }
    }

    /// Key tails drawn around the byte values where a signed or
    /// wrong-endian word compare would disagree with byte order.
    fn key_tail() -> impl Strategy<Value = Vec<u8>> {
        const EDGES: [u8; 6] = [0, 1, 0x7f, 0x80, 0xfe, 0xff];
        proptest::collection::vec((0..EDGES.len()).prop_map(|i| EDGES[i]), 0..9)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Differential: the word-at-a-time optimistic compare agrees with
        /// `<[u8]>::cmp` for lengths 0–40, shared prefixes up to 32 bytes,
        /// and stored slices both 8-aligned (`shift == 0`, the word path)
        /// and not (the byte loop).
        #[test]
        fn olc_key_compare_matches_slice_order(
            prefix in proptest::collection::vec(any::<u8>(), 0..33),
            stored_tail in key_tail(),
            probe_tail in key_tail(),
            shift in 0usize..8,
        ) {
            let stored = [&prefix[..], &stored_tail[..]].concat();
            let probe = [&prefix[..], &probe_tail[..]].concat();
            let a = Arena::create(DramMemory::new(1 << 16));
            let t = BTreeHandle::create(&a);
            let off = a.alloc_block(stored.len() + 8) as usize + shift;
            // SAFETY: the block holds `shift + stored.len()` bytes.
            let at = unsafe { a.memory().base().add(off) };
            unsafe { std::ptr::copy_nonoverlapping(stored.as_ptr(), at, stored.len()) };
            prop_assert_eq!((at as usize).is_multiple_of(8), shift == 0);
            let s = ByteSlice {
                ptr: RelPtr::from_offset(off as u64),
                len: stored.len() as u32,
            };
            prop_assert_eq!(t.cmp_olc(s, &probe).unwrap(), stored.cmp(&probe));
        }
    }
}
