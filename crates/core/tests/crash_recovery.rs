//! Crash-consistency tests: §3.6's two failure scenarios (inside and
//! outside a checkpoint), idempotency, and observational equivalence of
//! the recovered store.

use dstore::{CheckpointMode, DStore, DStoreConfig, DsError, LoggingMode};
use std::collections::BTreeMap;

fn assert_matches_model(s: &DStore, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    let ctx = s.context();
    let names = ctx.list();
    assert_eq!(
        names.len(),
        model.len(),
        "object count mismatch: {names:?} vs {:?}",
        model.keys().collect::<Vec<_>>()
    );
    for (k, v) in model {
        assert_eq!(
            &ctx.get(k).unwrap(),
            v,
            "object {}",
            String::from_utf8_lossy(k)
        );
    }
}

#[test]
fn recover_after_clean_crash_outside_checkpoint() {
    let s = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..100 {
        let k = format!("obj{i:03}").into_bytes();
        let v = vec![i as u8; 1000 + i * 7];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    for i in (0..100).step_by(4) {
        let k = format!("obj{i:03}").into_bytes();
        ctx.delete(&k).unwrap();
        model.remove(&k);
    }
    drop(ctx);
    let img = s.crash();
    let s2 = DStore::recover(img).unwrap();
    let r = s2.recovery_report();
    assert!(!r.redo_checkpoint);
    assert!(r.replayed_records > 0, "active log had committed records");
    assert_matches_model(&s2, &model);
    // The recovered store keeps working.
    let ctx = s2.context();
    ctx.put(b"post-recovery", b"alive").unwrap();
    assert_eq!(ctx.get(b"post-recovery").unwrap(), b"alive");
}

#[test]
fn recover_after_checkpoint_then_more_ops() {
    let s = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..50 {
        let k = format!("pre{i}").into_bytes();
        let v = vec![1u8; 500];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    s.checkpoint_now();
    for i in 0..30 {
        let k = format!("post{i}").into_bytes();
        let v = vec![2u8; 700];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    ctx.delete(b"pre0").unwrap();
    model.remove(b"pre0".as_slice());
    drop(ctx);
    let s2 = DStore::recover(s.crash()).unwrap();
    assert_matches_model(&s2, &model);
}

#[test]
fn crash_during_checkpoint_is_redone() {
    // The paper's worst case: "an unexpected crash just before the
    // checkpoint process is complete" (§5.5).
    let cfg = DStoreConfig::small().with_auto_checkpoint(false);
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..60 {
        let k = format!("ck{i}").into_bytes();
        let v = vec![3u8; 900];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    // Swap only: checkpoint marked in-progress, apply never runs.
    s.begin_checkpoint_swap_only();
    // A few operations after the swap land in the new active log.
    for i in 0..10 {
        let k = format!("after{i}").into_bytes();
        let v = vec![4u8; 300];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    drop(ctx);
    let s2 = DStore::recover(s.crash()).unwrap();
    let r = s2.recovery_report();
    assert!(r.redo_checkpoint, "must redo the interrupted checkpoint");
    assert_eq!(r.redo_records, 60);
    assert_eq!(r.replayed_records, 10);
    assert_matches_model(&s2, &model);
}

#[test]
fn double_crash_recovery_is_idempotent() {
    let cfg = DStoreConfig::small().with_auto_checkpoint(false);
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..40 {
        let k = format!("i{i}").into_bytes();
        let v = vec![5u8; 600];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    s.begin_checkpoint_swap_only();
    drop(ctx);
    // First recovery, then immediate crash before anything new happens.
    let s2 = DStore::recover(s.crash()).unwrap();
    assert_matches_model(&s2, &model);
    let s3 = DStore::recover(s2.crash()).unwrap();
    assert_matches_model(&s3, &model);
    // And a third time, exercising the already-redone checkpoint path.
    let s4 = DStore::recover(s3.crash()).unwrap();
    assert_matches_model(&s4, &model);
}

#[test]
fn uncommitted_operations_vanish() {
    // An operation whose record never committed must not appear after
    // recovery; committed ones must. We emulate the window between
    // record append and commit with an olock (a pending NOOP record plus
    // pending state).
    let s = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = s.context();
    ctx.put(b"committed", b"here").unwrap();
    let lock = ctx.lock(b"zombie").unwrap(); // pending record for "zombie"
    std::mem::forget(lock); // crash with the record pending
    drop(ctx);
    let s2 = DStore::recover(s.crash()).unwrap();
    let ctx = s2.context();
    assert_eq!(ctx.get(b"committed").unwrap(), b"here");
    // The pending NOOP is gone: a writer to "zombie" does not block.
    ctx.put(b"zombie", b"fresh").unwrap();
    assert_eq!(ctx.get(b"zombie").unwrap(), b"fresh");
}

#[test]
fn recovery_across_many_checkpoints() {
    // Small log forces frequent automatic checkpoints; state must still
    // be exact after crash.
    let mut cfg = DStoreConfig::small();
    cfg.log_size = 16 << 10;
    cfg.ssd_pages = 8192;
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..400 {
        let k = format!("churn{}", i % 80).into_bytes();
        let v = vec![(i % 250) as u8; 800 + (i % 5) * 1000];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    drop(ctx);
    s.wait_checkpoint_idle();
    assert!(
        s.checkpoint_stats().completed > 0,
        "workload should have triggered checkpoints"
    );
    let s2 = DStore::recover(s.crash()).unwrap();
    assert_matches_model(&s2, &model);
}

#[test]
fn cow_mode_crash_recovery() {
    let cfg = DStoreConfig::small().with_checkpoint(CheckpointMode::Cow);
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..80 {
        let k = format!("cow{i}").into_bytes();
        let v = vec![6u8; 512];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    s.checkpoint_now();
    for i in 0..20 {
        let k = format!("cow-post{i}").into_bytes();
        let v = vec![7u8; 256];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    drop(ctx);
    let s2 = DStore::recover(s.crash()).unwrap();
    assert_matches_model(&s2, &model);
}

#[test]
fn physical_logging_crash_recovery() {
    let cfg = DStoreConfig::small().with_logging(LoggingMode::Physical);
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..60 {
        let k = format!("phys{i}").into_bytes();
        let v = vec![8u8; 1200];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    ctx.delete(b"phys5").unwrap();
    model.remove(b"phys5".as_slice());
    ctx.put(b"phys6", &vec![9u8; 9000]).unwrap(); // replace, larger
    model.insert(b"phys6".to_vec(), vec![9u8; 9000]);
    drop(ctx);
    let s2 = DStore::recover(s.crash()).unwrap();
    assert_matches_model(&s2, &model);
}

#[test]
fn clean_shutdown_and_reopen() {
    let s = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    for i in 0..30 {
        let k = format!("clean{i}").into_bytes();
        let v = vec![10u8; 2000];
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    drop(ctx);
    let img = s.close(); // checkpoint + stop
    let s2 = DStore::recover(img).unwrap();
    // Clean shutdown ⇒ everything came from the checkpoint image; the
    // active log had nothing left to replay.
    assert_eq!(s2.recovery_report().replayed_records, 0);
    assert_matches_model(&s2, &model);
}

#[test]
fn recover_unformatted_pool_fails() {
    let s = DStore::create(DStoreConfig::small()).unwrap();
    let img = s.crash();
    let s2 = DStore::recover(img).unwrap(); // fine: formatted
                                            // Now corrupt the magic by recovering with a different config size.
    let img2 = s2.crash();
    let mut cfg = DStoreConfig::small();
    cfg.log_size *= 2;
    let broken = dstore::store::CrashImage::reconfigure(img2, cfg);
    assert!(matches!(
        DStore::recover(broken),
        Err(DsError::NotFormatted)
    ));
}

#[test]
fn ssd_data_written_before_commit_survives() {
    // Durability contract: data reaches the SSD (power-loss protected)
    // before the commit flag; a committed object's data is always intact.
    let s = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = s.context();
    let payload: Vec<u8> = (0..12_000).map(|i| (i % 241) as u8).collect();
    ctx.put(b"durable", &payload).unwrap();
    drop(ctx);
    let s2 = DStore::recover(s.crash()).unwrap();
    assert_eq!(s2.context().get(b"durable").unwrap(), payload);
}
