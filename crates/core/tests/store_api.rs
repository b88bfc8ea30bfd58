//! End-to-end API tests for DStore (Table 2 semantics).

use dstore::{CheckpointMode, DStore, DStoreConfig, DsError, LoggingMode, OpenMode};

fn store() -> DStore {
    DStore::create(DStoreConfig::small()).unwrap()
}

#[test]
fn put_get_roundtrip() {
    let s = store();
    let ctx = s.context();
    ctx.put(b"k1", b"value-one").unwrap();
    assert_eq!(ctx.get(b"k1").unwrap(), b"value-one");
    assert!(ctx.exists(b"k1"));
    assert_eq!(ctx.size_of(b"k1").unwrap(), 9);
}

#[test]
fn get_missing_is_not_found() {
    let s = store();
    let ctx = s.context();
    assert_eq!(ctx.get(b"nope"), Err(DsError::NotFound));
    assert_eq!(ctx.delete(b"nope"), Err(DsError::NotFound));
    assert!(!ctx.exists(b"nope"));
}

#[test]
fn overwrite_same_size_and_different_size() {
    let s = store();
    let ctx = s.context();
    ctx.put(b"k", &vec![1u8; 4096]).unwrap();
    ctx.put(b"k", &vec![2u8; 4096]).unwrap(); // touch path
    assert_eq!(ctx.get(b"k").unwrap(), vec![2u8; 4096]);
    ctx.put(b"k", &vec![3u8; 10_000]).unwrap(); // replace path
    assert_eq!(ctx.get(b"k").unwrap(), vec![3u8; 10_000]);
    ctx.put(b"k", b"tiny").unwrap(); // shrink
    assert_eq!(ctx.get(b"k").unwrap(), b"tiny");
}

#[test]
fn delete_frees_space() {
    let s = store();
    let ctx = s.context();
    let before = s.footprint().ssd_bytes;
    ctx.put(b"temp", &vec![9u8; 20_000]).unwrap();
    assert!(s.footprint().ssd_bytes > before);
    ctx.delete(b"temp").unwrap();
    assert_eq!(s.footprint().ssd_bytes, before);
    assert_eq!(ctx.get(b"temp"), Err(DsError::NotFound));
}

#[test]
fn many_objects_and_listing() {
    let s = store();
    let ctx = s.context();
    for i in 0..200 {
        ctx.put(format!("obj/{i:04}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    let names = ctx.list();
    assert_eq!(names.len(), 200);
    assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted listing");
    assert_eq!(s.object_count(), 200);
    for i in (0..200).step_by(3) {
        ctx.delete(format!("obj/{i:04}").as_bytes()).unwrap();
    }
    assert_eq!(ctx.list().len(), 200 - 67);
}

#[test]
fn empty_value_and_empty_key() {
    let s = store();
    let ctx = s.context();
    ctx.put(b"", b"empty key").unwrap();
    ctx.put(b"empty-val", b"").unwrap();
    assert_eq!(ctx.get(b"").unwrap(), b"empty key");
    assert_eq!(ctx.get(b"empty-val").unwrap(), b"");
    assert_eq!(ctx.size_of(b"empty-val").unwrap(), 0);
}

#[test]
fn stat_reports_metadata() {
    let s = store();
    let ctx = s.context();
    ctx.put(b"obj", &vec![1u8; 10_000]).unwrap();
    let st1 = ctx.stat(b"obj").unwrap();
    assert_eq!(st1.size, 10_000);
    assert_eq!(st1.blocks, 3);
    assert_eq!(st1.version, 1);
    ctx.put(b"obj", &vec![2u8; 10_000]).unwrap(); // touch
    let st2 = ctx.stat(b"obj").unwrap();
    assert_eq!(st2.version, 2);
    assert!(st2.mtime_lsn > st1.mtime_lsn, "logical mtime advances");
    assert!(ctx.stat(b"missing").is_err());
    // stat survives recovery.
    drop(ctx);
    let s2 = dstore::DStore::recover(s.crash()).unwrap();
    let st3 = s2.context().stat(b"obj").unwrap();
    assert_eq!(st3.size, 10_000);
    assert_eq!(st3.blocks, 3);
}

#[test]
fn name_too_long_is_rejected() {
    let s = store();
    let ctx = s.context();
    let long = vec![b'x'; 300];
    assert!(matches!(
        ctx.put(&long, b"v"),
        Err(DsError::NameTooLong(300))
    ));
}

#[test]
fn large_object_spanning_overflow_chain() {
    let s = store();
    let ctx = s.context();
    // 80 blocks: well past the 12 direct slots.
    let data: Vec<u8> = (0..80 * 4096).map(|i| (i % 251) as u8).collect();
    ctx.put(b"large", &data).unwrap();
    assert_eq!(ctx.get(b"large").unwrap(), data);
}

/// The wire protocol's largest value (`dstore_protocol::MAX_VALUE_LEN`,
/// 32 MiB − 1 KiB: 8 192 blocks) fits one logical record on the default
/// configuration, and replay rebuilds it from the record's block runs.
/// A physical record names every block, so physical mode refuses it.
#[test]
fn largest_wire_value_survives_recovery() {
    const MAX_VALUE_LEN: usize = (32 << 20) - 1024;
    let data: Vec<u8> = (0..MAX_VALUE_LEN).map(|i| (i % 251) as u8).collect();
    let s = DStore::create(DStoreConfig::default()).unwrap();
    let ctx = s.context();
    ctx.put(b"big", &data).unwrap();
    // An extend by as many blocks names them in one record too.
    let h = ctx.open(b"grown", OpenMode::Create(0)).unwrap();
    h.write(&data, 0).unwrap();
    drop(h);
    let s = DStore::recover(s.crash()).unwrap();
    let ctx = s.context();
    assert_eq!(ctx.get(b"big").unwrap(), data);
    assert_eq!(ctx.get(b"grown").unwrap(), data);
    ctx.put(b"big", &data[..4096]).unwrap();
    ctx.delete(b"grown").unwrap();
    // One data block plus the superblock page.
    assert_eq!(s.footprint().ssd_bytes, 2 * 4096);

    let s = DStore::create(DStoreConfig::default().with_logging(LoggingMode::Physical)).unwrap();
    let ctx = s.context();
    let before = s.footprint().ssd_bytes;
    assert!(matches!(
        ctx.put(b"big", &data),
        Err(DsError::RecordTooLarge(_))
    ));
    assert_eq!(
        s.footprint().ssd_bytes,
        before,
        "the refused put kept claims"
    );
    assert!(!ctx.exists(b"big"));
}

/// A record names its blocks as runs of consecutive ids: an object far
/// larger than one record's worth of ids fits when its blocks are
/// contiguous, and a claim scattered over more runs than a record holds
/// is refused before anything is logged, its claims released.
#[test]
fn scattered_claim_too_large_for_a_record_is_refused() {
    let mut cfg = DStoreConfig::small();
    cfg.ssd_pages = 8192; // 8 191 data blocks
    cfg.log_size = 16 << 10; // records up to 16 KiB: about 2 000 runs
    cfg.pool_shards = 1;
    cfg.strict_pmem = false;
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let big = vec![7u8; 3000 * 4096];
    ctx.put(b"big", &big).unwrap();
    ctx.delete(b"big").unwrap();
    // Every other block free: a claim of n blocks is about n runs.
    let key = |i: u32| format!("o{i}");
    for i in 0..8190 {
        ctx.put(key(i).as_bytes(), b"x").unwrap();
    }
    for i in (0..8190).step_by(2) {
        ctx.delete(key(i).as_bytes()).unwrap();
    }
    let before = s.footprint().ssd_bytes;
    assert!(matches!(
        ctx.put(b"big", &big),
        Err(DsError::RecordTooLarge(n)) if n > 16 << 10
    ));
    assert_eq!(
        s.footprint().ssd_bytes,
        before,
        "the refused put kept claims"
    );
    assert!(!ctx.exists(b"big"));
    // Half as many blocks fit.
    let half = vec![8u8; 1500 * 4096];
    ctx.put(b"half", &half).unwrap();
    let s = DStore::recover(s.crash()).unwrap();
    let ctx = s.context();
    assert_eq!(ctx.get(b"half").unwrap(), half);
    assert_eq!(ctx.get(b"o1").unwrap(), b"x");
    assert!(!ctx.exists(b"big"));
}

#[test]
fn out_of_space_reported_and_recoverable() {
    let mut cfg = DStoreConfig::small();
    cfg.ssd_pages = 16; // 15 data blocks
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    ctx.put(b"a", &vec![1u8; 8 * 4096]).unwrap();
    assert_eq!(
        ctx.put(b"b", &vec![2u8; 8 * 4096]),
        Err(DsError::OutOfSpace)
    );
    // The failed op must leave no trace.
    assert!(!ctx.exists(b"b"));
    ctx.delete(b"a").unwrap();
    ctx.put(b"b", &vec![2u8; 8 * 4096]).unwrap();
    assert_eq!(ctx.get(b"b").unwrap(), vec![2u8; 8 * 4096]);
}

#[test]
fn filesystem_api_read_write() {
    let s = store();
    let ctx = s.context();
    let obj = ctx.open(b"file.txt", OpenMode::Create(0)).unwrap();
    assert_eq!(obj.size().unwrap(), 0);
    obj.write(b"hello, ", 0).unwrap();
    obj.write(b"world", 7).unwrap();
    assert_eq!(obj.size().unwrap(), 12);
    let mut buf = [0u8; 12];
    assert_eq!(obj.read(&mut buf, 0).unwrap(), 12);
    assert_eq!(&buf, b"hello, world");
    // Partial read in the middle.
    let mut mid = [0u8; 5];
    assert_eq!(obj.read(&mut mid, 7).unwrap(), 5);
    assert_eq!(&mid, b"world");
    // Read past the end.
    assert_eq!(obj.read(&mut buf, 100).unwrap(), 0);
}

#[test]
fn write_across_block_boundary() {
    let s = store();
    let ctx = s.context();
    let obj = ctx.open(b"spanner", OpenMode::Create(0)).unwrap();
    let data: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
    obj.write(&data, 3000).unwrap();
    assert_eq!(obj.size().unwrap(), 13_000);
    let mut buf = vec![0u8; 10_000];
    obj.read(&mut buf, 3000).unwrap();
    assert_eq!(buf, data);
}

#[test]
fn open_modes_enforced() {
    let s = store();
    let ctx = s.context();
    assert!(matches!(
        ctx.open(b"missing", OpenMode::Read),
        Err(DsError::NotFound)
    ));
    assert!(matches!(
        ctx.open(b"missing", OpenMode::Write),
        Err(DsError::NotFound)
    ));
    ctx.put(b"ro", b"data").unwrap();
    let obj = ctx.open(b"ro", OpenMode::Read).unwrap();
    assert_eq!(obj.write(b"x", 0), Err(DsError::BadMode));
    // Create on an existing object just opens it.
    let obj2 = ctx.open(b"ro", OpenMode::Create(999)).unwrap();
    assert_eq!(obj2.size().unwrap(), 4);
}

#[test]
fn olock_serializes_writers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let s = Arc::new(store());
    let ctx = s.context();
    ctx.put(b"locked", b"v0").unwrap();
    let lock = ctx.lock(b"locked").unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let s2 = Arc::clone(&s);
    let done2 = Arc::clone(&done);
    let writer = std::thread::spawn(move || {
        let ctx = s2.context();
        ctx.put(b"locked", b"v1").unwrap(); // must wait for the lock
        done2.store(true, Ordering::SeqCst);
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!done.load(Ordering::SeqCst), "writer got in past olock");
    drop(lock); // ounlock
    writer.join().unwrap();
    assert_eq!(ctx.get(b"locked").unwrap(), b"v1");
}

#[test]
fn olock_holder_passes_its_own_lock() {
    // The paper's filesystem example: lock the directory, then modify it
    // and its files from the same context — must not self-deadlock.
    let s = store();
    let ctx = s.context();
    ctx.put(b"dir", b"v0").unwrap();
    {
        let _lock = ctx.lock(b"dir").unwrap();
        ctx.put(b"dir", b"v1").unwrap(); // own write passes own lock
        ctx.put(b"dir/file", b"child").unwrap();
    }
    assert_eq!(ctx.get(b"dir").unwrap(), b"v1");
    // After unlock, other contexts proceed normally.
    let ctx2 = s.context();
    ctx2.put(b"dir", b"v2").unwrap();
    assert_eq!(ctx.get(b"dir").unwrap(), b"v2");
}

#[test]
fn olock_reacquire_after_drop() {
    let s = store();
    let ctx = s.context();
    ctx.put(b"obj", b"x").unwrap();
    let l1 = ctx.lock(b"obj").unwrap();
    drop(l1);
    let l2 = ctx.lock(b"obj").unwrap(); // must not see the old record
    drop(l2);
}

#[test]
fn all_four_mode_combinations_work() {
    for ckpt in [CheckpointMode::Dipper, CheckpointMode::Cow] {
        for log in [LoggingMode::Logical, LoggingMode::Physical] {
            for oe in [true, false] {
                let cfg = DStoreConfig::small()
                    .with_checkpoint(ckpt)
                    .with_logging(log)
                    .with_oe(oe);
                let s = DStore::create(cfg).unwrap();
                let ctx = s.context();
                for i in 0..50 {
                    ctx.put(format!("m{i}").as_bytes(), &vec![i as u8; 2000])
                        .unwrap();
                }
                ctx.delete(b"m10").unwrap();
                s.checkpoint_now();
                for i in 0..50 {
                    if i == 10 {
                        assert!(!ctx.exists(b"m10"));
                    } else {
                        assert_eq!(
                            ctx.get(format!("m{i}").as_bytes()).unwrap(),
                            vec![i as u8; 2000],
                            "mode {ckpt:?}/{log:?}/oe={oe}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn concurrent_distinct_writers() {
    use std::sync::Arc;
    let s = Arc::new(store());
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let ctx = s.context();
                for i in 0..40 {
                    let key = format!("t{t}/k{i}");
                    ctx.put(key.as_bytes(), &vec![(t * 40 + i) as u8; 1000])
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let ctx = s.context();
    for t in 0..8 {
        for i in 0..40 {
            let key = format!("t{t}/k{i}");
            assert_eq!(
                ctx.get(key.as_bytes()).unwrap(),
                vec![(t * 40 + i) as u8; 1000]
            );
        }
    }
    assert_eq!(s.object_count(), 320);
}

#[test]
fn concurrent_same_key_writers_last_committed_wins() {
    use std::sync::Arc;
    let s = Arc::new(store());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let ctx = s.context();
                for i in 0..50u64 {
                    ctx.put(b"hot", &(t * 1000 + i).to_le_bytes()).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let ctx = s.context();
    let v = ctx.get(b"hot").unwrap();
    assert_eq!(v.len(), 8);
    // Conflicts must have occurred and been resolved.
    assert_eq!(s.object_count(), 1);
}

#[test]
fn concurrent_readers_and_writers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let s = Arc::new(store());
    let ctx = s.context();
    ctx.put(b"shared", &vec![0u8; 4096]).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = vec![];
    for _ in 0..3 {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let ctx = s.context();
            while !stop.load(Ordering::Relaxed) {
                let v = ctx.get(b"shared").unwrap();
                // A read must never see a torn value: all bytes equal.
                assert!(
                    v.windows(2).all(|w| w[0] == w[1]),
                    "torn read: {:?}…",
                    &v[..8]
                );
            }
        }));
    }
    let wctx = s.context();
    for i in 1..200u8 {
        wctx.put(b"shared", &vec![i; 4096]).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn stats_count_operations() {
    let s = store();
    let ctx = s.context();
    ctx.put(b"a", b"1").unwrap();
    ctx.put(b"b", b"2").unwrap();
    ctx.get(b"a").unwrap();
    ctx.delete(b"b").unwrap();
    use std::sync::atomic::Ordering;
    assert_eq!(s.stats().puts.load(Ordering::Relaxed), 2);
    assert_eq!(s.stats().gets.load(Ordering::Relaxed), 1);
    assert_eq!(s.stats().deletes.load(Ordering::Relaxed), 1);
    assert_eq!(s.stats().total_ops(), 4);
}

#[test]
fn footprint_tracks_data() {
    let s = store();
    let ctx = s.context();
    let f0 = s.footprint();
    assert_eq!(f0.logical_bytes, 0);
    ctx.put(b"x", &vec![1u8; 100_000]).unwrap();
    let f1 = s.footprint();
    assert_eq!(f1.logical_bytes, 100_000);
    assert!(f1.ssd_bytes >= 100_000);
    assert!(f1.amplification() > 1.0);
}

#[test]
fn instrumented_put_reports_breakdown() {
    let s = store();
    let ctx = s.context();
    let bd = ctx.put_instrumented(b"timed", &vec![0u8; 4096]).unwrap();
    assert!(bd.total_ns > 0);
    assert!(bd.accounted_ns() <= bd.total_ns * 2, "components plausible");
}
