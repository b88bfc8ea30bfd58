//! Heap allocations per operation are ceilings. A counting global
//! allocator tallies every `alloc`, `alloc_zeroed` and `realloc` made
//! by the calling thread (a const thread-local, so the checkpoint and
//! other background threads do not count), and each op kind's median
//! over a steady-state pass of the default configuration must stay at
//! or under its ceiling. A new allocation on a hot path, such as one per
//! concurrency-control latch, shows up here as a failed ceiling.

use dstore::{DStore, DStoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: usize = 1_000;

fn key(i: usize) -> Vec<u8> {
    format!("obj-{i:05}").into_bytes()
}

/// Calling-thread allocations made by `op`.
fn allocs_of(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

/// Median over one pass of `op` across every key.
fn median_allocs(keys: &[Vec<u8>], mut op: impl FnMut(&[u8])) -> u64 {
    let mut counts: Vec<u64> = keys.iter().map(|k| allocs_of(|| op(k))).collect();
    counts.sort_unstable();
    counts[counts.len() / 2]
}

/// Checks the steady-state medians of put, get, exists and delete+put
/// with `value` against `ceilings`, in that order.
fn assert_ceilings(value: &[u8], ceilings: [u64; 4]) {
    let store = DStore::create(DStoreConfig::default()).unwrap();
    let ctx = store.context();
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
    // Warm-up: create every object, then overwrite, read and
    // delete-recreate each once, so the index, the pools and every
    // per-shard table have reached their steady-state capacity.
    for k in &keys {
        ctx.put(k, value).unwrap();
    }
    for k in &keys {
        ctx.put(k, value).unwrap();
        assert_eq!(ctx.get(k).unwrap(), value);
        ctx.delete(k).unwrap();
        ctx.put(k, value).unwrap();
    }

    let put = median_allocs(&keys, |k| ctx.put(k, value).unwrap());
    let get = median_allocs(&keys, |k| {
        ctx.get(k).unwrap();
    });
    let exists = median_allocs(&keys, |k| assert!(ctx.exists(k)));
    let delete_put = median_allocs(&keys, |k| {
        ctx.delete(k).unwrap();
        ctx.put(k, value).unwrap();
    });
    println!(
        "{} B values, allocations per op: put {put}, get {get}, exists {exists}, delete+put {delete_put}",
        value.len()
    );
    for ((op, got), ceiling) in [
        ("put", put),
        ("get", get),
        ("exists", exists),
        ("delete+put", delete_put),
    ]
    .into_iter()
    .zip(ceilings)
    {
        assert!(
            got <= ceiling,
            "{} B values: {op} makes {got} heap allocations, its ceiling is {ceiling}",
            value.len()
        );
    }
}

/// 128 B values take the inline path: no block list, no page buffer, and
/// a get allocates only the value it returns. Ceilings: the counts this
/// leg read once the body hash was computed in place (a publish makes no
/// allocation).
#[test]
fn steady_state_ops_stay_under_their_allocation_ceilings() {
    assert_ceilings(&[0xA5; 128], [4, 1, 0, 7]);
}

/// 4 KiB values take the block path. Ceilings: the counts this leg read
/// once a put handed its whole pages to the device without a padded copy
/// and a get read them straight into the value it returns.
#[test]
fn block_path_ops_stay_under_their_allocation_ceilings() {
    assert_ceilings(&[0x5A; 4096], [5, 2, 0, 9]);
}
