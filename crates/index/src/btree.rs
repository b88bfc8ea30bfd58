//! The object-index B-tree.
//!
//! A classic B-tree (minimum degree `t = 8`) storing byte-string keys and
//! `u64` values, with every node allocated from an [`Arena`] and linked by
//! [`RelPtr`]s. Because the structure contains no absolute pointers, it
//! can be bulk-copied between regions (checkpoint shadow copies, recovery
//! PMEM→DRAM reconstruction) and the *same* code mutates both the
//! frontend tree and its PMEM shadow during replay.
//!
//! # Keys
//!
//! Each key sits in a 16-byte slot of its node. A key of at most
//! 15 bytes is stored in the slot itself, so inserting it allocates
//! nothing and a descent compares it without leaving the node. A longer
//! key lives in its own arena allocation, which the slot points at.
//!
//! A descent packs a search key of at most 15 bytes once into the inline
//! slot form (bytes 0–14 zero-padded, byte 15 `INLINE_TAG | len`) and
//! compares it with each inline slot as one big-endian `u128`. That is
//! exactly `<[u8]>::cmp` order: the padded bytes decide first, and where
//! they tie one key is the other plus trailing zero bytes, so the length
//! in the tag byte puts the shorter (the proper prefix) first. An
//! out-of-line slot, or a longer search key, is compared as a slice.
//!
//! # Concurrency
//!
//! The tree does no synchronization of its own. Every mutation needs
//! exclusive access; lookups and walks need only that nothing mutates
//! the tree meanwhile. The store guards its frontend tree with one
//! `RwLock` (lookups `read`, inserts and removes `write`), and the
//! OE-parallel replay workers of one window share a lock the same way.

use dstore_arena::{Arena, ArenaPod, ByteSlice, Memory, RelPtr};
use std::cmp::Ordering;

/// Minimum degree `t`: every node except the root holds at least `t-1`
/// keys; every node holds at most `2t-1`.
const T: usize = 8;
/// Maximum keys per node.
const MAX_KEYS: usize = 2 * T - 1;
/// Maximum children per node.
const MAX_CHILDREN: usize = 2 * T;

/// Descents [`BTreeHandle::get_many`] runs side by side.
const GET_MANY_LANES: usize = 32;

/// Longest key stored inside its slot.
const INLINE_MAX: usize = 15;
/// Set in a slot's last byte when the key is stored inline; the low bits
/// hold the key's length.
const INLINE_TAG: u8 = 0x80;

/// A node's key slot. Bytes 0–14 hold an inline key and byte 15 is
/// `INLINE_TAG | len`. An out-of-line key stores its arena slice's offset
/// (bytes 0–7) and length (bytes 8–11), with byte 15 zero. All-zero is
/// the out-of-line empty key, so a zeroed node holds only empty keys.
#[repr(C)]
#[derive(Clone, Copy)]
struct Key([u8; 16]);

impl Key {
    /// The empty key, as a zeroed slot holds it.
    const EMPTY: Key = Key([0; 16]);

    /// The slot for `key`, allocating it in `arena` if it is too long to
    /// store inline.
    fn new<M: Memory>(arena: &Arena<M>, key: &[u8]) -> Self {
        Self::inline(key).unwrap_or_else(|| {
            let s = arena.alloc_bytes(key);
            let mut k = [0u8; 16];
            k[..8].copy_from_slice(&s.ptr.offset().to_le_bytes());
            k[8..12].copy_from_slice(&s.len.to_le_bytes());
            Key(k)
        })
    }

    /// The inline slot for `key`; `None` if it is longer than
    /// [`INLINE_MAX`].
    #[inline]
    fn inline(key: &[u8]) -> Option<Self> {
        (key.len() <= INLINE_MAX).then(|| {
            let mut k = [0u8; 16];
            k[..key.len()].copy_from_slice(key);
            k[15] = INLINE_TAG | key.len() as u8;
            Key(k)
        })
    }

    /// Whether the key is stored in the slot itself.
    #[inline]
    fn is_inline(&self) -> bool {
        self.0[15] & INLINE_TAG != 0
    }

    /// The slot as one big-endian integer: for two inline slots, integer
    /// order is their keys' byte order (see the module docs).
    #[inline]
    fn packed(&self) -> u128 {
        u128::from_be_bytes(self.0)
    }

    /// The arena slice of an out-of-line key; `None` for an inline one.
    fn out_of_line(&self) -> Option<ByteSlice> {
        (!self.is_inline()).then(|| ByteSlice {
            ptr: RelPtr::from_offset(u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))),
            len: u32::from_le_bytes(self.0[8..12].try_into().expect("4 bytes")),
        })
    }

    /// Frees an out-of-line key's allocation; an inline key owns none.
    fn free<M: Memory>(self, arena: &Arena<M>) {
        if let Some(s) = self.out_of_line() {
            arena.free_bytes(s);
        }
    }
}

// SAFETY: sixteen bytes; all-zero is the empty key.
unsafe impl ArenaPod for Key {}

/// A search key, packed once per descent: its bytes, and its inline slot
/// form as an integer when it has one.
struct Probe<'k> {
    bytes: &'k [u8],
    packed: Option<u128>,
}

impl<'k> Probe<'k> {
    #[inline]
    fn new(bytes: &'k [u8]) -> Self {
        Self {
            bytes,
            packed: Key::inline(bytes).map(|k| k.packed()),
        }
    }
}

/// A B-tree node. `#[repr(C)]` and pod so it can live in an arena.
#[repr(C)]
pub struct Node {
    /// 1 if leaf, 0 if internal.
    leaf: u16,
    /// Number of keys currently stored.
    count: u16,
    _pad: u32,
    keys: [Key; MAX_KEYS],
    vals: [u64; MAX_KEYS],
    children: [RelPtr<Node>; MAX_CHILDREN],
}

// SAFETY: Node is repr(C), built from pods, zero-valid (leaf=0/count=0
// with null pointers is a valid empty internal node that is never
// dereferenced before initialization).
unsafe impl ArenaPod for Node {}

/// Arena-resident tree root state.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct BTreeHeader {
    root: RelPtr<Node>,
    len: u64,
}

// SAFETY: pods only; zero means "empty tree".
unsafe impl ArenaPod for BTreeHeader {}

/// A handle binding a tree header to the arena it lives in. Every method
/// requires external synchronization (see the module docs).
pub struct BTreeHandle<'a, M: Memory> {
    arena: &'a Arena<M>,
    hdr: RelPtr<BTreeHeader>,
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
        // SAFETY: header is live for the handle's lifetime.
        unsafe { (*self.arena.resolve(self.hdr)).len }
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `d` to the entry counter.
    fn len_add(&self, d: i64) {
        // SAFETY: header is live for the handle's lifetime; the caller
        // has exclusive access.
        unsafe {
            let h = &mut *self.arena.resolve(self.hdr);
            h.len = h.len.wrapping_add_signed(d);
        }
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

    /// The bytes of the key in slot `k`: the slot's own for an inline
    /// key, its arena allocation's otherwise.
    #[inline]
    unsafe fn key_bytes<'k>(&'k self, k: &'k Key) -> &'k [u8] {
        let tag = k.0[15];
        if tag & INLINE_TAG != 0 {
            &k.0[..(tag & !INLINE_TAG) as usize]
        } else {
            self.arena.bytes(k.out_of_line().expect("out-of-line key"))
        }
    }

    /// Orders the key in slot `k` against `probe`: one integer compare
    /// when both are inline, a slice compare otherwise.
    #[inline]
    unsafe fn cmp_slot(&self, k: &Key, probe: &Probe<'_>) -> Ordering {
        match probe.packed {
            Some(p) if k.is_inline() => k.packed().cmp(&p),
            _ => self.key_bytes(k).cmp(probe.bytes),
        }
    }

    /// Position of `probe` in `node`: `Ok(i)` exact match at `i`, `Err(i)`
    /// the child index to descend into.
    unsafe fn position(&self, n: &Node, probe: &Probe<'_>) -> Result<usize, usize> {
        // Nodes hold at most 15 keys; linear scan beats binary search here.
        for i in 0..n.count as usize {
            match self.cmp_slot(&n.keys[i], probe) {
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
                Ordering::Less => {}
            }
        }
        Err(n.count as usize)
    }

    // ------------------------------------------------------------------
    // lookup

    /// Returns the value stored for `key`.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let probe = Probe::new(key);
        // SAFETY: read-only traversal of live nodes.
        unsafe {
            let mut p = (*self.arena.resolve(self.hdr)).root;
            loop {
                let n = self.node(p);
                match self.position(n, &probe) {
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

    /// Looks up every key of `keys` and hands key `i`'s value to
    /// `found(i, value)`: [`BTreeHandle::get`] for many keys, with their
    /// cache misses overlapped. The descents go down together, one level
    /// at a time: at each level every probe scans its node and requests
    /// its child's lines before any probe reads a child, so while one
    /// probe scans, the others' nodes are on their way. A longer list is
    /// looked up `GET_MANY_LANES` (32) keys at a time.
    pub fn get_many(&self, keys: &[&[u8]], mut found: impl FnMut(usize, Option<u64>)) {
        for (chunk, keys) in keys.chunks(GET_MANY_LANES).enumerate() {
            let base = chunk * GET_MANY_LANES;
            let probes: [Probe<'_>; GET_MANY_LANES] =
                std::array::from_fn(|i| Probe::new(keys.get(i).copied().unwrap_or_default()));
            // SAFETY: read-only traversal of live nodes.
            unsafe {
                let mut at = [(*self.arena.resolve(self.hdr)).root; GET_MANY_LANES];
                let mut descending = keys.len();
                while descending > 0 {
                    for (i, probe) in probes[..keys.len()].iter().enumerate() {
                        if at[i].is_null() {
                            continue;
                        }
                        let n = self.node(at[i]);
                        match self.position(n, probe) {
                            Err(c) if n.leaf == 0 => {
                                at[i] = n.children[c];
                                self.arena
                                    .prefetch(at[i].offset(), std::mem::size_of::<Node>() as u64);
                                continue;
                            }
                            Ok(v) => found(base + i, Some(n.vals[v])),
                            Err(_) => found(base + i, None),
                        }
                        at[i] = RelPtr::null();
                        descending -= 1;
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
    // insert

    /// Inserts `key → val`; returns the previous value if the key existed.
    pub fn insert(&self, key: &[u8], val: u64) -> Option<u64> {
        // SAFETY: single-writer contract; distinct nodes only.
        unsafe {
            let hdr = self.arena.resolve(self.hdr);
            let root = (*hdr).root;
            if self.node(root).count as usize == MAX_KEYS {
                // Grow the tree: new root with old root as child 0.
                let new_root: RelPtr<Node> = self.arena.alloc();
                {
                    let nr = self.node(new_root);
                    nr.leaf = 0;
                    nr.count = 0;
                    nr.children[0] = root;
                }
                self.split_child(new_root, 0);
                (*hdr).root = new_root;
            }
            let prev = self.insert_nonfull((*hdr).root, &Probe::new(key), val);
            if prev.is_none() {
                self.len_add(1);
            }
            prev
        }
    }

    /// Splits the full child `ci` of `parent` (which must not be full).
    unsafe fn split_child(&self, parent: RelPtr<Node>, ci: usize) {
        let left_ptr = self.node(parent).children[ci];
        let right_ptr: RelPtr<Node> = self.arena.alloc();
        let p = self.node(parent);
        let left = self.node(left_ptr);
        let right = self.node(right_ptr);
        assert_eq!(
            left.count as usize, MAX_KEYS,
            "splitting child {ci}, which is not full"
        );

        right.leaf = left.leaf;
        right.count = (T - 1) as u16;
        // Upper T-1 keys move to the new right node.
        for i in 0..T - 1 {
            right.keys[i] = left.keys[i + T];
            right.vals[i] = left.vals[i + T];
            left.keys[i + T] = Key::EMPTY;
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
        left.keys[T - 1] = Key::EMPTY;
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

    unsafe fn insert_nonfull(&self, mut p: RelPtr<Node>, key: &Probe<'_>, val: u64) -> Option<u64> {
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
                        n.keys[i] = Key::new(self.arena, key.bytes);
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
    // delete (top-down, pre-emptive rebalancing)

    /// Removes `key`; returns its value if present.
    pub fn remove(&self, key: &[u8]) -> Option<u64> {
        // SAFETY: single-writer contract.
        unsafe {
            let hdr = self.arena.resolve(self.hdr);
            let root = (*hdr).root;
            let removed = self.delete(root, &Probe::new(key));
            // Shrink the root if it became an empty internal node.
            let r = self.node((*hdr).root);
            if r.leaf == 0 && r.count == 0 {
                let old_root = (*hdr).root;
                (*hdr).root = r.children[0];
                self.arena.free(old_root);
            }
            match removed {
                Some((k, val)) => {
                    k.free(self.arena);
                    self.len_add(-1);
                    Some(val)
                }
                None => None,
            }
        }
    }

    /// Deletes `key` from the subtree at `p`, returning ownership of the
    /// removed key slot and its value.
    unsafe fn delete(&self, p: RelPtr<Node>, key: &Probe<'_>) -> Option<(Key, u64)> {
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
    unsafe fn remove_from_leaf(&self, p: RelPtr<Node>, i: usize) -> (Key, u64) {
        let n = self.node(p);
        let slot = n.keys[i];
        let val = n.vals[i];
        let c = n.count as usize;
        for j in i..c - 1 {
            n.keys[j] = n.keys[j + 1];
            n.vals[j] = n.vals[j + 1];
        }
        n.keys[c - 1] = Key::EMPTY;
        n.count -= 1;
        (slot, val)
    }

    /// `key` found at slot `i` of internal node `p` (case 2).
    unsafe fn delete_internal_hit(
        &self,
        p: RelPtr<Node>,
        i: usize,
        key: &Probe<'_>,
    ) -> Option<(Key, u64)> {
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
    unsafe fn delete_extreme(&self, mut p: RelPtr<Node>, max: bool) -> (Key, u64) {
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
        left.keys[lc - 1] = Key::EMPTY;
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
        right.keys[rc - 1] = Key::EMPTY;
        right.count -= 1;
    }

    /// Merges separator `si` and `children[si+1]` into `children[si]`,
    /// freeing the right node.
    unsafe fn merge_children(&self, p: RelPtr<Node>, si: usize) {
        let n = self.node(p);
        let left_ptr = n.children[si];
        let right_ptr = n.children[si + 1];
        let left = self.node(left_ptr);
        let right = self.node(right_ptr);
        let lc = left.count as usize;
        let rc = right.count as usize;
        assert!(
            lc + rc < MAX_KEYS,
            "merging children of {lc} and {rc} keys overfills a node"
        );

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
        n.keys[pc - 1] = Key::EMPTY;
        n.children[pc] = RelPtr::null();
        n.count -= 1;
        self.arena.free(right_ptr);
    }

    // ------------------------------------------------------------------
    // benchmark probe names

    /// [`BTreeHandle::get`], under the name the repository benchmark's
    /// index probes (`benchmark/src/probes.rs`) still call.
    #[doc(hidden)]
    pub fn get_olc(&self, key: &[u8], _stats: &OlcStats) -> Option<u64> {
        self.get(key)
    }

    /// [`BTreeHandle::insert`], for the benchmark's index probes.
    #[doc(hidden)]
    pub fn insert_olc(&self, key: &[u8], val: u64, _stats: &OlcStats) -> Option<u64> {
        self.insert(key, val)
    }

    /// [`BTreeHandle::remove`], for the benchmark's index probes.
    #[doc(hidden)]
    pub fn remove_olc(&self, key: &[u8], _stats: &OlcStats) -> Option<u64> {
        self.remove(key)
    }

    // ------------------------------------------------------------------
    // iteration & introspection

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
            f(self.key_bytes(&n.keys[i]), n.vals[i]);
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
        let (lo, hi) = (Probe::new(lo), hi.map(Probe::new));
        // SAFETY: read-only traversal.
        unsafe {
            let root = (*self.arena.resolve(self.hdr)).root;
            self.walk_range(root, &lo, hi.as_ref(), &mut f);
        }
    }

    unsafe fn walk_range(
        &self,
        p: RelPtr<Node>,
        lo: &Probe<'_>,
        hi: Option<&Probe<'_>>,
        f: &mut impl FnMut(&[u8], u64),
    ) {
        let n = self.node(p);
        let c = n.count as usize;
        // First key index ≥ lo.
        let mut start = 0;
        while start < c && self.cmp_slot(&n.keys[start], lo) == Ordering::Less {
            start += 1;
        }
        for i in start..c {
            let in_range = hi.is_none_or(|h| self.cmp_slot(&n.keys[i], h) == Ordering::Less);
            if n.leaf == 0 {
                // The child left of keys[i] may hold in-range keys even if
                // keys[i] itself is past hi.
                self.walk_range(n.children[i], lo, hi, f);
            }
            if !in_range {
                return;
            }
            f(self.key_bytes(&n.keys[i]), n.vals[i]);
        }
        if n.leaf == 0 {
            self.walk_range(n.children[c], lo, hi, f);
        }
    }

    /// Traverses every key starting with `prefix`, ascending.
    pub fn for_each_prefix(&self, prefix: &[u8], mut f: impl FnMut(&[u8], u64)) {
        let hi = prefix_upper_bound(prefix);
        self.for_each_range(prefix, hi.as_deref(), |k, v| {
            assert!(k.starts_with(prefix), "prefix scan left its range");
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
        let c = n.count as usize;
        assert!(c <= MAX_KEYS, "node overfull");
        if !is_root {
            assert!(c >= T - 1, "non-root node underfull: {c} keys");
        }
        *count += c as u64;
        let mut prev: Option<&[u8]> = None;
        for i in 0..c {
            let k = self.key_bytes(&n.keys[i]);
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
                    Some(self.key_bytes(&n.keys[i - 1]))
                };
                let hi = if i == c {
                    upper
                } else {
                    Some(self.key_bytes(&n.keys[i]))
                };
                assert!(!n.children[i].is_null(), "internal node with null child");
                self.check_node(n.children[i], false, lo, hi, depth + 1, leaf_depth, count);
            }
        }
    }
}

/// Counts nothing: the argument type of the `*_olc` probe names, kept
/// only because the repository benchmark (`benchmark/src/probes.rs`)
/// still constructs one.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct OlcStats;

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

    /// `get_many` answers what `get` answers, key by key: hits and misses,
    /// inline and out-of-line keys, duplicates, the empty key, and more
    /// keys than one run of lanes.
    #[test]
    fn get_many_matches_get() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        let key = |i: u64| {
            if i.is_multiple_of(3) {
                format!("a-much-longer-out-of-line-key-{i:06}").into_bytes()
            } else {
                format!("k{i:05}").into_bytes()
            }
        };
        for i in (0..2_000).step_by(2) {
            t.insert(&key(i), i);
        }
        t.insert(b"", 7);
        let mut keys: Vec<Vec<u8>> = (0..100).map(|i| key(i * 37 % 2_003)).collect();
        keys.push(key(74));
        keys.push(b"".to_vec());
        keys.push(b"zzz-past-every-key".to_vec());
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut got = vec![Some(u64::MAX); refs.len()];
        t.get_many(&refs, |i, v| got[i] = v);
        let want: Vec<_> = refs.iter().map(|k| t.get(k)).collect();
        assert_eq!(got, want);
        assert!(want.iter().any(Option::is_none) && want.iter().any(Option::is_some));
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

    /// Nodes reachable from the root.
    fn node_count(t: &BTreeHandle<'_, DramMemory>) -> u64 {
        fn below(t: &BTreeHandle<'_, DramMemory>, p: RelPtr<Node>) -> u64 {
            // SAFETY: read-only traversal of a quiesced tree.
            let n = unsafe { t.node(p) };
            let children: u64 = if n.leaf == 1 {
                0
            } else {
                (0..=n.count as usize)
                    .map(|i| below(t, n.children[i]))
                    .sum()
            };
            1 + children
        }
        // SAFETY: the header is live for the handle's lifetime.
        below(t, unsafe { (*t.arena.resolve(t.hdr)).root })
    }

    /// Inserts `keys` in a scattered order, checks that the arena holds
    /// exactly the tree's nodes plus one block per key longer than 15
    /// bytes, then removes every key and checks the arena is back to an
    /// empty tree's blocks: no out-of-line key leaks, and no inline key
    /// is handed to the allocator.
    fn assert_key_blocks(keys: &[Vec<u8>]) {
        let a = Arena::create(DramMemory::new(1 << 24));
        let t = BTreeHandle::create(&a);
        let empty = a.stats().live_blocks;
        let n = keys.len();
        for i in 0..n {
            let k = &keys[i * 7919 % n];
            assert_eq!(t.insert(k, i as u64), None);
        }
        t.check_invariants();
        let long = keys.iter().filter(|k| k.len() > INLINE_MAX).count() as u64;
        assert_eq!(
            a.stats().live_blocks,
            empty + node_count(&t) - 1 + long,
            "blocks beyond the nodes and out-of-line keys"
        );
        for i in 0..n {
            assert!(t.remove(&keys[i * 4099 % n]).is_some());
        }
        t.check_invariants();
        assert_eq!(a.stats().live_blocks, empty);
    }

    #[test]
    fn short_keys_allocate_nothing_but_nodes() {
        // 10 000 distinct keys of 5–15 bytes.
        let keys: Vec<Vec<u8>> = (0..10_000usize)
            .map(|i| format!("{i:0>w$}", w = 5 + i % 11).into_bytes())
            .collect();
        assert!(keys.iter().all(|k| k.len() <= INLINE_MAX));
        assert_key_blocks(&keys);
    }

    #[test]
    fn long_keys_are_freed_and_inline_keys_are_not() {
        // Lengths 5–24 straddle the inline limit.
        let keys: Vec<Vec<u8>> = (0..10_000usize)
            .map(|i| format!("{i:0>w$}", w = 5 + i % 20).into_bytes())
            .collect();
        assert!(keys.iter().any(|k| k.len() <= INLINE_MAX));
        assert!(keys.iter().any(|k| k.len() > INLINE_MAX));
        assert_key_blocks(&keys);
    }

    /// Keys of 0, 1, 14, 15, 16, 17 and 40 bytes: prefixes of one base
    /// string, some with a middle or last byte bumped across the signed
    /// boundary, so inline and out-of-line keys share prefixes and order.
    fn slot_key() -> impl Strategy<Value = Vec<u8>> {
        const LENS: [usize; 7] = [0, 1, 14, 15, 16, 17, 40];
        const BUMPS: [u8; 4] = [0, 1, 0x7f, 0x80];
        const BASE: &[u8; 40] = b"bucket/a-shared-prefix/for-every-key/xyz";
        (0..LENS.len(), 0..BUMPS.len(), 0..BUMPS.len()).prop_map(|(l, mid, last)| {
            let len = LENS[l];
            let mut k = BASE[..len].to_vec();
            if len > 0 {
                k[len / 2] = k[len / 2].wrapping_add(BUMPS[mid]);
                k[len - 1] = k[len - 1].wrapping_add(BUMPS[last]);
            }
            k
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Inserts and removes of keys around the inline limit agree with
        /// a `BTreeMap`, and the tree's invariants hold.
        #[test]
        fn inline_and_out_of_line_keys_match_model(
            ops in proptest::collection::vec((any::<bool>(), slot_key(), any::<u64>()), 1..600),
        ) {
            let a = arena();
            let t = BTreeHandle::create(&a);
            let mut model = std::collections::BTreeMap::new();
            for (insert, k, v) in ops {
                if insert {
                    prop_assert_eq!(t.insert(&k, v), model.insert(k.clone(), v));
                } else {
                    prop_assert_eq!(t.remove(&k), model.remove(&k));
                }
                prop_assert_eq!(t.get(&k), model.get(&k).copied());
            }
            t.check_invariants();
            prop_assert_eq!(t.entries(), model.into_iter().collect::<Vec<_>>());
        }
    }

    /// The packed inline compare at its edges: trailing zero bytes
    /// (`"a" < "a\0" < "a\0\0" < "a\x01"`), a 15-byte key beside the
    /// 16-byte key that extends it (inline against out-of-line), `0xFF`
    /// bytes against the tag byte, and the empty key. Every key is found,
    /// and iteration runs in slice order.
    #[test]
    fn packed_compare_edges_match_slice_order() {
        let fifteen = [b'k'; 15];
        let sixteen = [b'k'; 16];
        let keys: Vec<&[u8]> = vec![
            b"",
            b"\0",
            b"a",
            b"a\0",
            b"a\0\0",
            b"a\x01",
            &fifteen,
            &sixteen,
            b"kkkkkkkkkkkkkk\xff",
            &[0xFF],
            &[0xFF; 14],
            &[0xFF; 15],
            &[0xFF; 16],
            b"\xff\0",
        ];
        assert!(Key::inline(&fifteen).is_some() && Key::inline(&sixteen).is_none());
        for order in [1usize, 5, 9] {
            let a = arena();
            let t = BTreeHandle::create(&a);
            for i in 0..keys.len() {
                let k = keys[i * order % keys.len()];
                assert_eq!(t.insert(k, k.len() as u64), None, "insert {k:?}");
            }
            for k in &keys {
                assert_eq!(t.get(k), Some(k.len() as u64), "get {k:?}");
            }
            assert_eq!(t.get(b"a\0\0\0"), None);
            assert_eq!(t.get(&[b'k'; 14]), None);
            let mut want: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
            want.sort();
            let got: Vec<Vec<u8>> = t.entries().into_iter().map(|(k, _)| k).collect();
            assert_eq!(got, want);
            t.check_invariants();
        }
    }

    #[test]
    fn node_fits_512_class() {
        assert!(
            std::mem::size_of::<Node>() <= 512,
            "{}",
            std::mem::size_of::<Node>()
        );
    }

    // The `olc_` prefix is kept so these test IDs stay stable; each
    // test checks the locked tree.

    /// The benchmark probe names are the plain operations.
    #[test]
    fn olc_single_thread_matches_model() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        let stats = OlcStats;
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
        assert_eq!(t.entries(), model.into_iter().collect::<Vec<_>>());
    }

    /// Range and prefix scans still prune correctly after removes have
    /// merged, rotated and shrunk the tree.
    #[test]
    fn olc_scans_prune_and_prefix() {
        let a = arena();
        let t = BTreeHandle::create(&a);
        for i in 0..1000u64 {
            t.insert(format!("k{i:04}").as_bytes(), i);
        }
        for i in (0..1000u64).filter(|i| i % 3 != 0) {
            t.remove(format!("k{i:04}").as_bytes());
        }
        t.check_invariants();
        let mut got = vec![];
        t.for_each_range(b"k0100", Some(b"k0131"), |k, _| got.push(k.to_vec()));
        let want: Vec<Vec<u8>> = (100..131u64)
            .filter(|i| i % 3 == 0)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        assert_eq!(got, want);
        let mut n = 0;
        t.for_each_range(b"k0990", None, |_, _| n += 1);
        assert_eq!(n, 4);
        t.insert(&[0xFF, 0xFF, 1], 1);
        let mut n = 0;
        t.for_each_prefix(&[0xFF, 0xFF], |_, _| n += 1);
        assert_eq!(n, 1);
        let mut n = 0;
        t.for_each_prefix(b"", |_, _| n += 1);
        assert_eq!(n, 335);
    }

    /// Writers splitting and merging nodes under a shared `RwLock`'s
    /// write side while readers look up and scan under its read side,
    /// each thread through its own handle, as the store runs the tree.
    /// Every observed value must match its key's FNV hash.
    #[test]
    fn olc_concurrent_readers_see_no_torn_values() {
        let a = arena();
        let hdr = BTreeHandle::create(&a).header_ptr();
        let lock = parking_lot::RwLock::new(());
        let writers_left = std::sync::atomic::AtomicUsize::new(2);
        let key_of = |w: usize, i: usize| format!("w{w}/key{i:05}");
        const WRITERS: usize = 2;
        const READERS: usize = 2;
        const KEYS: usize = 400;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (a, lock, writers_left) = (&a, &lock, &writers_left);
                s.spawn(move || {
                    let t = BTreeHandle::attach(a, hdr);
                    // Churn: fill, drain half, refill.
                    for round in 0..6 {
                        for i in 0..KEYS {
                            let k = key_of(w, i);
                            let _g = lock.write();
                            t.insert(k.as_bytes(), fnv1a(k.as_bytes()));
                        }
                        for i in (round % 2..KEYS).step_by(2) {
                            let _g = lock.write();
                            t.remove(key_of(w, i).as_bytes());
                        }
                    }
                    writers_left.fetch_sub(1, std::sync::atomic::Ordering::Release);
                });
            }
            for r in 0..READERS {
                let (a, lock, writers_left) = (&a, &lock, &writers_left);
                s.spawn(move || {
                    let t = BTreeHandle::attach(a, hdr);
                    let mut i = r;
                    while writers_left.load(std::sync::atomic::Ordering::Acquire) > 0 {
                        let k = key_of(i % WRITERS, (i * 13) % KEYS);
                        let _g = lock.read();
                        if let Some(v) = t.get(k.as_bytes()) {
                            assert_eq!(v, fnv1a(k.as_bytes()), "torn read for {k}");
                        }
                        if i % 97 == 0 {
                            t.for_each_prefix(b"w0/", |k, v| {
                                assert_eq!(v, fnv1a(k), "torn scan entry")
                            });
                        }
                        i += 1;
                    }
                });
            }
        });
        let t = BTreeHandle::attach(&a, hdr);
        t.check_invariants();
        for (k, v) in t.entries() {
            assert_eq!(v, fnv1a(&k));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Concurrent equivalence: writers on disjoint key spaces apply
        /// arbitrary op sequences concurrently, serialized by a shared
        /// lock; the final tree must equal the union of the per-writer
        /// sequential models.
        #[test]
        fn olc_concurrent_disjoint_writers_equivalence(
            ops in proptest::collection::vec(
                (0usize..3, 0u16..120, any::<u64>()), 60..240),
        ) {
            let a = arena();
            let hdr = BTreeHandle::create(&a).header_ptr();
            let lock = parking_lot::Mutex::new(());
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
                    let (a, lock, ops) = (&a, &lock, &ops);
                    s.spawn(move || {
                        let t = BTreeHandle::attach(a, hdr);
                        for &(op, k, v) in ops {
                            let key = format!("w{w}/{k:05}").into_bytes();
                            let _g = lock.lock();
                            match op {
                                0 | 1 => { t.insert(&key, v); }
                                _ => { t.remove(&key); }
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
    /// wrong-endian compare would disagree with byte order.
    fn key_tail() -> impl Strategy<Value = Vec<u8>> {
        const EDGES: [u8; 6] = [0, 1, 0x7f, 0x80, 0xfe, 0xff];
        proptest::collection::vec((0..EDGES.len()).prop_map(|i| EDGES[i]), 0..9)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The descent's key compare agrees with `<[u8]>::cmp` for keys of
        /// length 0–40 sharing prefixes up to 32 bytes: each key finds
        /// only itself, and iteration runs in slice order.
        #[test]
        fn olc_key_compare_matches_slice_order(
            prefix in proptest::collection::vec(any::<u8>(), 0..33),
            stored_tail in key_tail(),
            probe_tail in key_tail(),
        ) {
            let stored = [&prefix[..], &stored_tail[..]].concat();
            let probe = [&prefix[..], &probe_tail[..]].concat();
            let a = Arena::create(DramMemory::new(1 << 16));
            let t = BTreeHandle::create(&a);
            t.insert(&stored, 1);
            prop_assert_eq!(t.get(&probe).is_some(), stored == probe);
            t.insert(&probe, 2);
            let mut want = vec![stored.clone(), probe.clone()];
            want.sort();
            want.dedup();
            let got: Vec<Vec<u8>> = t.entries().into_iter().map(|(k, _)| k).collect();
            prop_assert_eq!(got, want);
        }
    }
}
