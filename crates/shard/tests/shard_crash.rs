//! Deterministic crash/recovery tests for the sharded store: parallel
//! recovery, mid-checkpoint crashes on a *subset* of shards, recover
//! idempotency, and shard-map validation (wrong count, mixed seeds,
//! duplicate indices, reordered images).

use dstore::{DStoreConfig, DsError};
use dstore_shard::{ShardedConfig, ShardedStore, SHARD_MAP_NAME};

fn cfg(shards: u32) -> ShardedConfig {
    ShardedConfig::new(shards, DStoreConfig::small().with_auto_checkpoint(false))
}

fn fill(store: &ShardedStore, range: std::ops::Range<u32>, tag: u8) {
    let ctx = store.context();
    for i in range {
        let key = format!("obj{i:04}").into_bytes();
        ctx.put(&key, &[tag ^ (i as u8); 64]).unwrap();
    }
}

fn verify(store: &ShardedStore, range: std::ops::Range<u32>, tag: u8) {
    let ctx = store.context();
    for i in range {
        let key = format!("obj{i:04}").into_bytes();
        assert_eq!(
            ctx.get(&key).unwrap(),
            vec![tag ^ (i as u8); 64],
            "obj{i:04} corrupted"
        );
    }
}

#[test]
fn parallel_recovery_roundtrip() {
    let store = ShardedStore::create(cfg(4)).unwrap();
    fill(&store, 0..200, 0x11);
    let images = store.crash();
    assert_eq!(images.len(), 4);

    let store = ShardedStore::recover(images).unwrap();
    let summary = store.recovery_summary();
    assert_eq!(summary.shards, 4);
    assert_eq!(summary.redo_shards, 0, "no checkpoint was interrupted");
    assert!(
        summary.replayed_records >= 200,
        "all 200 uncheckpointed puts live in the logs, got {}",
        summary.replayed_records
    );
    assert_eq!(store.recovery_reports().len(), 4);
    verify(&store, 0..200, 0x11);
    assert_eq!(store.object_count(), 200);
}

#[test]
fn mid_checkpoint_crash_on_shard_subset() {
    let store = ShardedStore::create(cfg(3)).unwrap();
    fill(&store, 0..120, 0x22);
    // Durable baseline everywhere, then more writes into the fresh logs.
    store.checkpoint_now();
    fill(&store, 120..180, 0x22);
    // Swap-without-apply on shards 0 and 2 only: those two crash inside
    // the checkpoint window; shard 1 crashes with a plain dirty log.
    store.begin_checkpoint_swap_only_on(&[0, 2]);
    let images = store.crash();

    let store = ShardedStore::recover(images).unwrap();
    let summary = store.recovery_summary();
    assert_eq!(summary.shards, 3);
    assert_eq!(
        summary.redo_shards, 2,
        "exactly the two swap-only shards must redo their checkpoint"
    );
    verify(&store, 0..180, 0x22);
    assert_eq!(store.object_count(), 180);

    // Idempotency composes per shard: crash the recovered store without
    // further writes and recover again — same contents, no data loss.
    let images = store.crash();
    let store = ShardedStore::recover(images).unwrap();
    assert_eq!(store.recovery_summary().redo_shards, 0);
    verify(&store, 0..180, 0x22);
    assert_eq!(store.object_count(), 180);
}

#[test]
fn recover_twice_is_idempotent() {
    let store = ShardedStore::create(cfg(2)).unwrap();
    fill(&store, 0..80, 0x33);

    let store = ShardedStore::recover(store.crash()).unwrap();
    let first = store.context().list();

    let store = ShardedStore::recover(store.crash()).unwrap();
    assert_eq!(store.context().list(), first);
    verify(&store, 0..80, 0x33);

    // The twice-recovered store still takes writes on every shard path.
    fill(&store, 80..120, 0x33);
    verify(&store, 0..120, 0x33);
}

#[test]
fn recover_rejects_missing_shard() {
    let store = ShardedStore::create(cfg(3)).unwrap();
    fill(&store, 0..30, 0x44);
    let mut images = store.crash();
    images.pop();
    let err = ShardedStore::recover(images).unwrap_err();
    assert!(
        matches!(err, DsError::ShardMismatch(ref m) if m.contains("3 shards")),
        "unexpected error: {err}"
    );
}

#[test]
fn recover_rejects_mixed_router_seeds() {
    let a = ShardedStore::create(cfg(2).with_router_seed(1)).unwrap();
    let b = ShardedStore::create(cfg(2).with_router_seed(2)).unwrap();
    let mut images_a = a.crash();
    let mut images_b = b.crash();
    let mixed = vec![images_a.remove(0), images_b.remove(1)];
    let err = ShardedStore::recover(mixed).unwrap_err();
    assert!(matches!(err, DsError::ShardMismatch(_)), "got: {err}");
}

#[test]
fn recover_rejects_duplicate_shard_index() {
    // Same seed and count, but both images claim shard index 0.
    let a = ShardedStore::create(cfg(2)).unwrap();
    let b = ShardedStore::create(cfg(2)).unwrap();
    let mut images_a = a.crash();
    let mut images_b = b.crash();
    let dup = vec![images_a.remove(0), images_b.remove(0)];
    let err = ShardedStore::recover(dup).unwrap_err();
    assert!(
        matches!(err, DsError::ShardMismatch(ref m) if m.contains("claim shard index")),
        "unexpected error: {err}"
    );
}

#[test]
fn recover_accepts_reordered_images() {
    let store = ShardedStore::create(cfg(4)).unwrap();
    fill(&store, 0..100, 0x55);
    let mut images = store.crash();
    images.reverse();
    let store = ShardedStore::recover(images).unwrap();
    // Routing must land every key on the shard that owns it, or gets
    // would miss — the shard map, not image order, decides placement.
    verify(&store, 0..100, 0x55);
    assert_eq!(store.object_count(), 100);
}

#[test]
fn reserved_names_are_rejected_and_hidden() {
    let store = ShardedStore::create(cfg(2)).unwrap();
    let ctx = store.context();
    assert!(matches!(
        ctx.put(SHARD_MAP_NAME, b"evil"),
        Err(DsError::ReservedName)
    ));
    assert!(matches!(
        ctx.get(SHARD_MAP_NAME),
        Err(DsError::ReservedName)
    ));
    assert!(matches!(
        ctx.delete(SHARD_MAP_NAME),
        Err(DsError::ReservedName)
    ));
    assert!(!ctx.exists(SHARD_MAP_NAME));

    // Every shard holds a shard-map object, but the merged listing shows
    // only user data.
    ctx.put(b"visible", b"v").unwrap();
    assert_eq!(ctx.list(), vec![b"visible".to_vec()]);
    assert!(ctx.list_prefix(b"\0").is_empty());
    assert_eq!(store.object_count(), 1);
}

#[test]
fn stats_and_footprint_aggregate_across_shards() {
    let store = ShardedStore::create(cfg(3)).unwrap();
    let ctx = store.context();
    for i in 0..60u32 {
        ctx.put(format!("s{i}").as_bytes(), &[i as u8; 256])
            .unwrap();
    }
    for i in 0..60u32 {
        ctx.get(format!("s{i}").as_bytes()).unwrap();
    }
    ctx.delete(b"s0").unwrap();

    let snap = store.telemetry_snapshot();
    let ops = |op| snap.counter_with("dstore_ops_total", "op", op);
    // Creating the store does one shard-map put per shard.
    assert_eq!(ops("put"), 60 + 3);
    assert_eq!(ops("get"), 60);
    assert_eq!(ops("delete"), 1);

    let fp = store.footprint();
    assert!(fp.pmem_bytes > 0, "DIPPER logs hold the recent puts");
    assert_eq!(store.object_count(), 59);
}

#[test]
fn per_shard_auto_checkpoints_survive_a_crash() {
    // Every shard is its own checkpoint trigger: with `auto_checkpoint`
    // on, each shard's log crossing `swap_threshold` starts a background
    // checkpoint, and a full log forces one. 64 keys rewritten over a
    // 256 KiB log per shard: each put appends a record while the live
    // set stays fixed, so a fixed number of puts fills every shard's log
    // several times over.
    const KEYS: u64 = 64;
    const PUTS: u64 = 16_384;
    let sharded = ShardedConfig::new(2, DStoreConfig::small());
    let store = ShardedStore::create(sharded).unwrap();
    let ctx = store.context();
    for i in 0..PUTS {
        let tag = (i / KEYS) as u8;
        ctx.put(format!("w{}", i % KEYS).as_bytes(), &[tag; 128])
            .unwrap();
    }
    drop(ctx);
    store.wait_checkpoint_idle();
    for s in 0..2 {
        let completed = store.shard(s).checkpoints_completed();
        assert!(
            completed >= 1,
            "shard {s} completed no checkpoint in {PUTS} puts"
        );
        // A full log forces a checkpoint whether or not `auto_checkpoint`
        // is on; at least one must have started at `swap_threshold`.
        let stalls = store.shard(s).health().log_full_stalls;
        assert!(
            completed > stalls,
            "shard {s}: all {completed} checkpoints were forced by a full log"
        );
    }

    // Nothing acknowledged may be lost across crash + recovery.
    let store = ShardedStore::recover(store.crash()).unwrap();
    let ctx = store.context();
    let last = ((PUTS - 1) / KEYS) as u8;
    for j in 0..KEYS {
        assert_eq!(
            ctx.get(format!("w{j}").as_bytes()).unwrap(),
            vec![last; 128]
        );
    }
}
