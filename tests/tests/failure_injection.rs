//! Targeted failure injection around the write pipeline's commit point and
//! the checkpoint's atomic root transition — the two places where the
//! paper's crash-consistency argument concentrates (§3.5, §4.5).

use dstore::{DStore, DStoreConfig, DsError};
use dstore_pmem::PmemPool;
use std::sync::Arc;

fn small_manual() -> DStore {
    DStore::create(DStoreConfig::small().with_auto_checkpoint(false)).unwrap()
}

/// Garbage in the spare shadow region must not confuse recovery: the redo
/// overwrites it entirely (idempotency via "always create a new copy").
#[test]
fn recovery_ignores_garbage_in_spare_shadow() {
    let store = small_manual();
    let ctx = store.context();
    for i in 0..50 {
        ctx.put(format!("g{i}").as_bytes(), &vec![1u8; 700])
            .unwrap();
    }
    store.begin_checkpoint_swap_only();
    drop(ctx);
    let img = store.crash();
    // Scribble over the spare shadow region (where the interrupted
    // checkpoint would have been writing) directly in the pool.
    {
        let pool: &Arc<PmemPool> = img.pool();
        // The spare region is the upper half of the pool (shadow B);
        // trash a chunk of it and persist the damage.
        let off = pool.len() - (1 << 20);
        pool.write_bytes(off, &vec![0xDE; 1 << 20]);
        pool.bulk_persist(off, 1 << 20);
    }
    let recovered = DStore::recover(img).unwrap();
    assert!(recovered.recovery_report().redo_checkpoint);
    let ctx = recovered.context();
    for i in 0..50 {
        assert_eq!(ctx.get(format!("g{i}").as_bytes()).unwrap(), vec![1u8; 700]);
    }
}

/// Crash before the very first checkpoint: recovery must rebuild purely
/// from the initial shadow image + active log.
#[test]
fn crash_before_first_checkpoint() {
    let store = small_manual();
    let ctx = store.context();
    for i in 0..30 {
        ctx.put(format!("fresh{i}").as_bytes(), &vec![2u8; 512])
            .unwrap();
    }
    drop(ctx);
    let recovered = DStore::recover(store.crash()).unwrap();
    assert_eq!(recovered.recovery_report().replayed_records, 30);
    assert_eq!(recovered.object_count(), 30);
}

/// A crash on a completely empty store recovers to a working empty store.
#[test]
fn crash_on_empty_store() {
    let store = small_manual();
    let recovered = DStore::recover(store.crash()).unwrap();
    assert_eq!(recovered.object_count(), 0);
    let ctx = recovered.context();
    assert_eq!(ctx.get(b"anything"), Err(DsError::NotFound));
    ctx.put(b"first", b"works").unwrap();
    assert_eq!(ctx.get(b"first").unwrap(), b"works");
}

/// Repeated crash/recover cycles with work in between: no state decay,
/// no leaked pool blocks.
#[test]
fn many_crash_recover_cycles() {
    let mut store = small_manual();
    let mut expected = std::collections::BTreeMap::new();
    for cycle in 0..6u32 {
        let ctx = store.context();
        for i in 0..20 {
            let k = format!("c{}/o{}", cycle, i).into_bytes();
            // 300 B to 7.3 KiB: inline values and one- and two-block ones.
            let v = vec![(cycle * 20 + i) as u8; 300 + (i as usize) * 370];
            ctx.put(&k, &v).unwrap();
            expected.insert(k, v);
        }
        if cycle % 2 == 0 {
            let k = format!("c{}/o0", cycle).into_bytes();
            ctx.delete(&k).unwrap();
            expected.remove(&k);
        }
        if cycle % 3 == 1 {
            store.checkpoint_now();
        }
        if cycle % 3 == 2 {
            store.begin_checkpoint_swap_only();
        }
        drop(ctx);
        store = DStore::recover(store.crash()).unwrap();
        let ctx = store.context();
        assert_eq!(store.object_count(), expected.len() as u64);
        for (k, v) in &expected {
            assert_eq!(&ctx.get(k).unwrap(), v, "cycle {cycle}");
        }
    }
    // Block-pool conservation: free + allocated == capacity across all
    // that churn (delete/replace/recover cycles). Inline values hold no
    // block.
    let f = store.footprint();
    let used_pages = f.ssd_bytes / 4096;
    let logical_pages: u64 = expected
        .values()
        .filter(|v| v.len() as u64 > dstore::INLINE_MAX)
        .map(|v| (v.len() as u64).div_ceil(4096))
        .sum();
    assert_eq!(
        used_pages,
        logical_pages + 1, // +1 superblock
        "pool leaked or double-freed blocks"
    );
}

/// Objects written but never committed (simulated via a poisoned client
/// that crashes between data write and commit) never become visible.
/// We approximate the window by crashing while holding an olock whose
/// NOOP record is pending — structurally the same pending-record state.
#[test]
fn pending_records_are_invisible_and_harmless() {
    let store = small_manual();
    let ctx = store.context();
    ctx.put(b"visible", b"yes").unwrap();
    for i in 0..5 {
        let lock = ctx.lock(format!("ghost{i}").as_bytes()).unwrap();
        std::mem::forget(lock); // record stays pending forever
    }
    drop(ctx);
    let recovered = DStore::recover(store.crash()).unwrap();
    assert_eq!(recovered.object_count(), 1);
    let ctx = recovered.context();
    // Ghost names are free for use.
    for i in 0..5 {
        let name = format!("ghost{i}");
        ctx.put(name.as_bytes(), b"reborn").unwrap();
        assert_eq!(ctx.get(name.as_bytes()).unwrap(), b"reborn");
    }
}

/// list_prefix works and survives recovery (new index feature).
#[test]
fn prefix_listing_after_recovery() {
    let store = small_manual();
    let ctx = store.context();
    for tenant in ["a", "b"] {
        for i in 0..25 {
            ctx.put(format!("{tenant}/k{i:02}").as_bytes(), b"v")
                .unwrap();
        }
    }
    drop(ctx);
    let recovered = DStore::recover(store.crash()).unwrap();
    let ctx = recovered.context();
    let a = ctx.list_prefix(b"a/");
    assert_eq!(a.len(), 25);
    assert!(a.iter().all(|k| k.starts_with(b"a/")));
    assert!(a.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(ctx.list_prefix(b"zz/").len(), 0);
}
