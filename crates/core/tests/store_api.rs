//! End-to-end API tests for DStore (Table 2 semantics).

use dstore::{CheckpointMode, DStore, DStoreConfig, DsError, LoggingMode, OpenMode, INLINE_MAX};

/// Replay divergences, read from the telemetry snapshot by name.
fn divergences(s: &DStore) -> u64 {
    let snap = s.telemetry_snapshot().unwrap();
    snap.counter_total("dstore_replay_divergence_total")
}

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
    // Every other block free: a claim of n blocks is about n runs. Each
    // filler is one byte too large to be stored inline, so it takes a
    // block.
    let key = |i: u32| format!("o{i}");
    let filler = vec![b'x'; INLINE_MAX as usize + 1];
    for i in 0..8190 {
        ctx.put(key(i).as_bytes(), &filler).unwrap();
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
    assert_eq!(ctx.get(b"o1").unwrap(), filler);
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

/// Readers copying an inline value out of its slot never see a torn
/// value while a writer overwrites the slot in place (same size class)
/// or moves the value to a fresh slot and frees the old one.
#[test]
fn concurrent_readers_see_whole_inline_values() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let s = store();
    s.context().put(b"shared", &[0u8; 1000]).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let ctx = s.context();
                while !stop.load(Ordering::Relaxed) {
                    let v = ctx.get(b"shared").unwrap();
                    assert!(
                        [1000, INLINE_MAX as usize, 300].contains(&v.len()),
                        "read {} bytes",
                        v.len()
                    );
                    assert!(v.windows(2).all(|w| w[0] == w[1]), "torn read");
                }
            });
        }
        let ctx = s.context();
        for i in 1..300u32 {
            let len = [1000, INLINE_MAX as usize, 300][i as usize % 3];
            ctx.put(b"shared", &vec![i as u8; len]).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn stats_count_operations() {
    let s = store();
    let ctx = s.context();
    ctx.put(b"a", b"1").unwrap();
    ctx.put(b"b", b"2").unwrap();
    ctx.get(b"a").unwrap();
    ctx.delete(b"b").unwrap();
    // A failed op is not a completed one.
    assert_eq!(ctx.get(b"b"), Err(DsError::NotFound));
    let snap = s.telemetry_snapshot().unwrap();
    let ops = |op| snap.counter_with("dstore_ops_total", "op", op);
    assert_eq!([ops("put"), ops("get"), ops("delete")], [2, 1, 1]);
    assert_eq!(snap.counter_total("dstore_ops_total"), 4);
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

/// The checkpoint and logging modes the inline tests run in: DIPPER
/// logical, DIPPER physical, and CoW.
const INLINE_MODES: [(CheckpointMode, LoggingMode); 3] = [
    (CheckpointMode::Dipper, LoggingMode::Logical),
    (CheckpointMode::Dipper, LoggingMode::Physical),
    (CheckpointMode::Cow, LoggingMode::Logical),
];

fn mode_store(ckpt: CheckpointMode, logging: LoggingMode) -> DStore {
    DStore::create(
        DStoreConfig::small()
            .with_checkpoint(ckpt)
            .with_logging(logging)
            .with_auto_checkpoint(false),
    )
    .unwrap()
}

/// Crashes and recovers `s`, checking that neither the checkpoints nor
/// the recovery diverged.
fn crash_and_recover(s: DStore) -> DStore {
    assert_eq!(divergences(&s), 0, "checkpoint replay");
    let s = DStore::recover(s.crash()).unwrap();
    assert_eq!(divergences(&s), 0, "recovery replay");
    s
}

/// 128 B → 4 KiB → 128 B → delete, each step across a crash: the object
/// moves between its slot and a block, and the block pool is back at its
/// baseline whenever the value is inline.
#[test]
fn inline_value_moves_to_blocks_and_back_across_crashes() {
    for (ckpt, logging) in INLINE_MODES {
        let mut s = mode_store(ckpt, logging);
        let base = s.footprint().ssd_bytes;
        let steps: [(Option<Vec<u8>>, u64); 4] = [
            (Some(vec![1; 128]), 0),
            (Some(vec![2; 4096]), 1),
            (Some(vec![3; 128]), 0),
            (None, 0),
        ];
        for (i, (value, blocks)) in steps.into_iter().enumerate() {
            let ctx = s.context();
            match &value {
                Some(v) => ctx.put(b"obj", v).unwrap(),
                None => ctx.delete(b"obj").unwrap(),
            }
            if i == 1 {
                s.checkpoint_now();
            }
            drop(ctx);
            s = crash_and_recover(s);
            let ctx = s.context();
            match &value {
                Some(v) => {
                    assert_eq!(
                        &ctx.get(b"obj").unwrap(),
                        v,
                        "{ckpt:?}/{logging:?} step {i}"
                    );
                    assert_eq!(ctx.stat(b"obj").unwrap().blocks, blocks);
                }
                None => assert_eq!(ctx.get(b"obj"), Err(DsError::NotFound)),
            }
            let ssd = base + blocks * 4096;
            assert_eq!(
                s.footprint().ssd_bytes,
                ssd,
                "{ckpt:?}/{logging:?} step {i}"
            );
        }
    }
}

/// `owrite`/`oread` at offsets on an inline object: a write whose result
/// fits `INLINE_MAX` stays inline, one past it moves the object to blocks
/// with every byte kept, and gaps read as zeros.
#[test]
fn owrite_and_oread_on_an_inline_object() {
    let max = INLINE_MAX as usize;
    for (ckpt, logging) in INLINE_MODES {
        let s = mode_store(ckpt, logging);
        let ctx = s.context();
        let mut model = vec![7u8; 100];
        ctx.put(b"f", &model).unwrap();
        let obj = ctx.open(b"f", OpenMode::Write).unwrap();
        let write = |model: &mut Vec<u8>, data: &[u8], at: usize| {
            obj.write(data, at as u64).unwrap();
            if model.len() < at + data.len() {
                model.resize(at + data.len(), 0);
            }
            model[at..at + data.len()].copy_from_slice(data);
        };
        write(&mut model, &[8; 30], 50); // inside
        write(&mut model, &[9; 40], 90); // grows, same class
        write(&mut model, &[10; 10], max - 10); // to exactly INLINE_MAX, past a gap
        assert_eq!(ctx.stat(b"f").unwrap().blocks, 0);
        let mut buf = [0u8; 64];
        assert_eq!(obj.read(&mut buf, 40).unwrap(), 64);
        assert_eq!(&buf[..], &model[40..104]);
        assert_eq!(obj.read(&mut buf, max as u64 - 4).unwrap(), 4);
        assert_eq!(&buf[..4], &model[max - 4..]);
        assert_eq!(obj.read(&mut buf, max as u64).unwrap(), 0);
        // A result larger than the pool fails before anything is built.
        assert_eq!(obj.write(b"x", 1 << 40), Err(DsError::OutOfSpace));
        assert_eq!(ctx.get(b"f").unwrap(), model);
        write(&mut model, &[11; 20], max - 5); // crosses INLINE_MAX: to blocks
        assert_eq!(ctx.stat(b"f").unwrap().blocks, 1);
        assert_eq!(ctx.get(b"f").unwrap(), model);
        write(&mut model, &[12; 5000], 2000); // an extend of the block object
        drop(obj);
        drop(ctx);
        let s = crash_and_recover(s);
        let ctx = s.context();
        assert_eq!(ctx.get(b"f").unwrap(), model, "{ckpt:?}/{logging:?}");
        assert_eq!(ctx.stat(b"f").unwrap().blocks, 2);
        let obj = ctx.open(b"f", OpenMode::Read).unwrap();
        let mut buf = vec![0u8; 100];
        assert_eq!(obj.read(&mut buf, max as u64 - 50).unwrap(), 100);
        assert_eq!(buf, model[max - 50..max + 50]);
    }
}

/// An `owrite` far past `INLINE_MAX` on an inline object is one extend:
/// its record fits in every logging mode (33 MiB is more blocks than a
/// physical record may name), and it writes the page of the old bytes and
/// the page written, not the zeros between.
#[test]
fn owrite_grows_an_inline_object_far_past_inline_max() {
    const AT: u64 = 33 << 20;
    for (ckpt, logging) in INLINE_MODES {
        let mut cfg = DStoreConfig::small()
            .with_checkpoint(ckpt)
            .with_logging(logging)
            .with_auto_checkpoint(false);
        cfg.ssd_pages = 9000;
        let s = DStore::create(cfg).unwrap();
        let ctx = s.context();
        let base = s.footprint().ssd_bytes;
        ctx.put(b"f", &[5; 100]).unwrap();
        let obj = ctx.open(b"f", OpenMode::Write).unwrap();
        let before = s.ssd().stats().snapshot();
        obj.write(b"x", AT).unwrap();
        let written = s.ssd().stats().snapshot().write_bytes_since(&before);
        assert_eq!(written, 2 * 4096, "{ckpt:?}/{logging:?}");
        drop(obj);
        drop(ctx);
        let s = crash_and_recover(s);
        let ctx = s.context();
        let st = ctx.stat(b"f").unwrap();
        assert_eq!((st.size, st.blocks), (AT + 1, (AT + 1).div_ceil(4096)));
        let obj = ctx.open(b"f", OpenMode::Read).unwrap();
        let mut page = vec![9u8; 4096];
        assert_eq!(obj.read(&mut page, 0).unwrap(), 4096);
        assert_eq!(page[..100], [5; 100]);
        assert!(page[100..].iter().all(|&b| b == 0));
        assert_eq!(obj.read(&mut page, AT).unwrap(), 1);
        assert_eq!(page[0], b'x');
        drop(obj);
        let deleted = ctx.delete(b"f");
        if logging == LoggingMode::Physical {
            // A physical delete names every block it frees, so its record
            // has the physical put's limit.
            assert!(matches!(deleted, Err(DsError::RecordTooLarge(_))));
            assert_eq!(ctx.stat(b"f").unwrap().size, AT + 1);
        } else {
            deleted.unwrap();
            assert_eq!(s.footprint().ssd_bytes, base, "{ckpt:?}/{logging:?}");
        }
    }
}

/// `open(Create(n))` with `n ≤ INLINE_MAX` makes an inline object of `n`
/// zeros, also after a crash, and writes to it stay inline.
#[test]
fn inline_create_reads_zeros() {
    for (ckpt, logging) in INLINE_MODES {
        let s = mode_store(ckpt, logging);
        let ctx = s.context();
        let obj = ctx.open(b"z", OpenMode::Create(300)).unwrap();
        assert_eq!(obj.size().unwrap(), 300);
        let mut buf = vec![1u8; 300];
        assert_eq!(obj.read(&mut buf, 0).unwrap(), 300);
        assert_eq!(buf, vec![0; 300]);
        assert_eq!(ctx.stat(b"z").unwrap().blocks, 0);
        obj.write(b"abc", 10).unwrap();
        drop(obj);
        ctx.open(b"empty", OpenMode::Create(0)).unwrap();
        drop(ctx);
        let s = crash_and_recover(s);
        let ctx = s.context();
        let mut want = vec![0; 300];
        want[10..13].copy_from_slice(b"abc");
        assert_eq!(ctx.get(b"z").unwrap(), want, "{ckpt:?}/{logging:?}");
        assert_eq!(ctx.stat(b"z").unwrap().blocks, 0);
        assert_eq!(ctx.get(b"empty").unwrap(), b"");
    }
}

/// Once the DRAM arena passes its inline headroom, a small value is
/// stored on a block, and it reads back after recovery.
#[test]
fn small_value_past_the_arena_headroom_takes_a_block() {
    let value = vec![0x3C; INLINE_MAX as usize];
    for (ckpt, logging) in INLINE_MODES {
        let mut cfg = DStoreConfig::small()
            .with_checkpoint(ckpt)
            .with_logging(logging);
        cfg.ssd_pages = 8192;
        let s = DStore::create(cfg).unwrap();
        let ctx = s.context();
        let key = |i: u32| format!("fill{i}").into_bytes();
        let mut n = 0;
        while ctx.stat(&key(n.max(1) - 1)).map_or(0, |st| st.blocks) == 0 {
            ctx.put(&key(n), &value).unwrap();
            n += 1;
            assert!(n < 10_000, "the headroom never sent a value to blocks");
        }
        let last = key(n - 1);
        drop(ctx);
        s.checkpoint_now();
        s.wait_checkpoint_idle();
        let s = crash_and_recover(s);
        let ctx = s.context();
        assert_eq!(ctx.stat(&last).unwrap().blocks, 1, "{ckpt:?}/{logging:?}");
        assert_eq!(ctx.stat(&key(0)).unwrap().blocks, 0);
        for i in 0..n {
            assert_eq!(ctx.get(&key(i)).unwrap(), value);
        }
    }
}
