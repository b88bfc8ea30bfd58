//! Parallel-persistence write-path tests: multi-threaded stress over
//! disjoint and colliding keys (with concurrent readers checking for
//! torn values), allocations that overflow their home shard, and a
//! property test that a crash image taken after concurrent appends
//! recovers to a state observationally equivalent to *some* serial order
//! of the committed operations — on both checkpoint engines.

use dstore::{CheckpointMode, DStore, DStoreConfig, LoggingMode};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Replay divergences, read from the telemetry snapshot by name.
fn divergences(s: &DStore) -> u64 {
    let snap = s.telemetry_snapshot().unwrap();
    snap.counter_total("dstore_replay_divergence_total")
}

const WRITERS: usize = 4;
const READERS: usize = 2;
const ROUNDS: u32 = 150;

/// A tagged value: every 4-byte chunk repeats `(writer, round)`, so a
/// torn mix of two writes is detectable from the value alone.
fn tagged(writer: usize, round: u32, len: usize) -> Vec<u8> {
    let tag = ((writer as u32) << 20 | round).to_le_bytes();
    tag.iter().copied().cycle().take(len.max(4)).collect()
}

fn assert_untorn(name: &[u8], v: &[u8]) {
    assert!(
        v.len() >= 4,
        "short value in {}",
        String::from_utf8_lossy(name)
    );
    let tag = &v[..4];
    assert!(
        v.chunks(4).all(|c| c == &tag[..c.len()]),
        "torn value in {}",
        String::from_utf8_lossy(name)
    );
}

/// N writers × M readers over per-writer (disjoint) keys plus a small
/// colliding set; readers assert values are never torn mid-run; after
/// the join, disjoint keys must hold exactly their writer's last value,
/// and a crash + recovery must reproduce the whole final state.
fn stress(cfg: DStoreConfig) {
    let store = Arc::new(DStore::create(cfg).unwrap());
    let finals: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let ctx = store.context();
                    let mut last = BTreeMap::new();
                    for r in 0..ROUNDS {
                        // Disjoint key: only this writer ever touches it.
                        let k = format!("w{t}-k{}", r % 6).into_bytes();
                        let v = tagged(t, r, 64 + (r as usize % 5) * 700);
                        ctx.put(&k, &v).unwrap();
                        last.insert(k, v);
                        // Colliding key: all writers fight over it.
                        let k = format!("shared{}", r % 3).into_bytes();
                        ctx.put(&k, &tagged(t, r, 256)).unwrap();
                        if r % 11 == 10 {
                            // Churn pool pushes too.
                            let k = format!("w{t}-k{}", r % 6).into_bytes();
                            ctx.delete(&k).unwrap();
                            last.remove(&k);
                        }
                    }
                    last
                })
            })
            .collect();
        for m in 0..READERS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let ctx = store.context();
                for r in 0..ROUNDS * 2 {
                    let k = format!("shared{}", (r as usize + m) % 3).into_bytes();
                    if let Ok(v) = ctx.get(&k) {
                        assert_untorn(&k, &v);
                    }
                    let k = format!("w{}-k{}", r as usize % WRITERS, r % 6).into_bytes();
                    if let Ok(v) = ctx.get(&k) {
                        assert_untorn(&k, &v);
                    }
                }
            });
        }
        writers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let verify = |ctx: &dstore::DsContext| {
        for last in &finals {
            for (k, v) in last {
                assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
            }
        }
        for i in 0..3 {
            let k = format!("shared{i}").into_bytes();
            assert_untorn(&k, &ctx.get(&k).unwrap());
        }
    };
    verify(&store.context());

    let store = Arc::into_inner(store).unwrap();
    store.wait_checkpoint_idle();
    // Release builds count what debug builds panic on.
    assert_eq!(divergences(&store), 0, "checkpoint replay");
    let recovered = DStore::recover(store.crash()).unwrap();
    assert_eq!(divergences(&recovered), 0, "recovery replay");
    verify(&recovered.context());
}

#[test]
fn stress_dipper_physical() {
    stress(DStoreConfig::small().with_logging(LoggingMode::Physical));
}

#[test]
fn stress_dipper_logical() {
    stress(DStoreConfig::small().with_logging(LoggingMode::Logical));
}

#[test]
fn stress_cow() {
    stress(DStoreConfig::small().with_checkpoint(CheckpointMode::Cow));
}

#[test]
fn stress_single_shard() {
    stress(DStoreConfig::small().with_pool_shards(1));
}

/// The "-OE" ablation point (Figure 9): every mutation's planning step
/// serializes on one global lock, while its device write and its
/// commit's epoch drain still overlap other writers and the readers.
#[test]
fn stress_dipper_epoch() {
    stress(
        DStoreConfig::small()
            .with_logging(LoggingMode::Logical)
            .with_oe(false),
    );
}

/// Maximally sharded pool: every multi-block put overflows its name's
/// tiny shard, so its claim continues through the following shards. The
/// records name the blocks they took, so the allocations survive crash
/// recovery.
#[test]
fn shard_starvation_escalates_and_recovers() {
    let cfg = DStoreConfig::small()
        .with_logging(LoggingMode::Physical)
        .with_pool_shards(64);
    let block = cfg.pages_per_block * 4096; // PAGE_BYTES
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let mut model = BTreeMap::new();
    // ~4096 blocks across 64 shards is a 64-block stripe; every value
    // spans 80–200 blocks, so no shard can ever satisfy one alone. The
    // overwrites churn releases on top of the cross-shard claims.
    for r in 0..3u32 {
        for i in 0..10u32 {
            let k = format!("big{i}").into_bytes();
            let v = tagged(i as usize, r, ((i as usize % 4) + 2) * 40 * block as usize);
            ctx.put(&k, &v).unwrap();
            model.insert(k, v);
        }
    }
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v);
    }
    drop(ctx);
    let recovered = DStore::recover(s.crash()).unwrap();
    let ctx = recovered.context();
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v);
    }
}

// ---------------------------------------------------------------------
// property: concurrent appends + crash ≍ some serial order

/// One thread's scripted ops: `(key, len)` puts. Keys 0..3 are shared
/// across threads; higher keys are private to the thread.
type Script = Vec<(u8, u16)>;

fn run_concurrent_case(
    scripts: &[Script],
    ckpt: CheckpointMode,
    logging: LoggingMode,
) -> Result<(), TestCaseError> {
    let cfg = DStoreConfig::small()
        .with_checkpoint(ckpt)
        .with_logging(logging)
        .with_auto_checkpoint(false);
    let store = Arc::new(DStore::create(cfg).unwrap());
    // (private-key exact state, shared-key last value) per thread.
    type ThreadOut = (BTreeMap<Vec<u8>, Vec<u8>>, BTreeMap<Vec<u8>, Vec<u8>>);
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(t, script)| {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let ctx = store.context();
                    let mut private = BTreeMap::new();
                    let mut shared = BTreeMap::new();
                    for (r, &(key, len)) in script.iter().enumerate() {
                        let len = len as usize + 4;
                        if key < 3 {
                            let k = format!("s{key}").into_bytes();
                            let v = tagged(t, r as u32, len);
                            ctx.put(&k, &v).unwrap();
                            shared.insert(k, v);
                        } else if key % 7 == 6
                            && private.contains_key(&format!("p{t}-{key}").into_bytes())
                        {
                            let k = format!("p{t}-{key}").into_bytes();
                            ctx.delete(&k).unwrap();
                            private.remove(&k);
                        } else {
                            let k = format!("p{t}-{key}").into_bytes();
                            let v = tagged(t, r as u32, len);
                            ctx.put(&k, &v).unwrap();
                            private.insert(k, v);
                        }
                    }
                    (private, shared)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All ops committed before the crash image is taken: the recovered
    // state must equal the log's serial order, which is *some*
    // interleaving of the per-thread sequences.
    let store = Arc::into_inner(store).unwrap();
    let recovered = DStore::recover(store.crash()).unwrap();
    prop_assert_eq!(divergences(&recovered), 0);
    let ctx = recovered.context();

    // Private keys: exactly the owning thread's final state.
    for (private, _) in &outs {
        for (k, v) in private {
            prop_assert_eq!(&ctx.get(k).unwrap(), v);
        }
    }
    // Shared keys: the survivor is the highest-LSN commit, which is the
    // *last* value of one of the threads that wrote the key (a thread's
    // own writes are ordered by its program order).
    for i in 0..3u8 {
        let k = format!("s{i}").into_bytes();
        let candidates: Vec<_> = outs.iter().filter_map(|(_, sh)| sh.get(&k)).collect();
        match ctx.get(&k) {
            Ok(v) => {
                prop_assert!(
                    candidates.iter().any(|c| **c == v),
                    "shared key {} holds a value no thread wrote last",
                    i
                );
            }
            Err(_) => prop_assert!(candidates.is_empty()),
        }
    }
    // Recovered store accepts new work.
    ctx.put(b"fresh", b"okay").unwrap();
    prop_assert_eq!(ctx.get(b"fresh").unwrap(), b"okay");
    Ok(())
}

fn script_strategy() -> impl Strategy<Value = Vec<Script>> {
    prop::collection::vec(prop::collection::vec((0u8..10, 0u16..3000), 1..30), 2..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Publishes only store, one merged drain-side fence per combiner
    // batch, and proven-durable flush elision active on the strict pmem
    // simulator. (The torn-epoch window itself — a crash after the flag
    // store but before the epoch fence — is injected deterministically
    // in the dipper-level `torn_epoch_commit_is_demoted` test, where the
    // record offset is known.)
    #[test]
    fn concurrent_crash_equivalence_dipper(scripts in script_strategy()) {
        run_concurrent_case(&scripts, CheckpointMode::Dipper, LoggingMode::Physical)?;
    }

    #[test]
    fn concurrent_crash_equivalence_cow(scripts in script_strategy()) {
        run_concurrent_case(&scripts, CheckpointMode::Cow, LoggingMode::Logical)?;
    }

    // The other logging mode on each checkpoint engine, so every
    // engine × logging pair meets the epoch-drained commit path.
    #[test]
    fn concurrent_crash_equivalence_dipper_epoch(scripts in script_strategy()) {
        run_concurrent_case(&scripts, CheckpointMode::Dipper, LoggingMode::Logical)?;
    }

    #[test]
    fn concurrent_crash_equivalence_cow_epoch(scripts in script_strategy()) {
        run_concurrent_case(&scripts, CheckpointMode::Cow, LoggingMode::Physical)?;
    }
}
