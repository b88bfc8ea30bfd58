//! OE-parallel replay tests: serial-vs-parallel state equivalence on
//! both checkpoint engines (random scripts, random crash points,
//! including a mid-checkpoint crash for DIPPER), allocations that cross
//! pool shards, the single-CPU clamp, and the engine's telemetry
//! counters.
//!
//! The equivalence argument is two-layered: ops are issued from a single
//! thread, so the in-memory model *is* the serial order; and every crash
//! image is additionally recovered twice — once on every CPU this thread
//! may run on and once on a thread confined to one CPU
//! ([`on_one_cpu`]), the byte-identical durable state making the two
//! recoveries a direct parallel-vs-serial A/B. The engine's workers
//! follow the usable CPUs, so a run under `taskset -c 0` drives the
//! serial path everywhere.

use dstore::{CheckpointMode, DStore, DStoreConfig, LoggingMode};
use dstore_dipper::{on_one_cpu, usable_workers};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Whether the engine has more than one worker to give the parallel
/// legs on this thread. Prints why when it has not.
fn parallel_usable() -> bool {
    let usable = usable_workers() > 1;
    if !usable {
        eprintln!("parallel-path checks skipped: one usable CPU leaves one worker");
    }
    usable
}

/// The replay engine's counters, read from the telemetry snapshot by
/// name (`dstore_replay_*_total`).
#[derive(Debug)]
struct Replay {
    windows: u64,
    groups: u64,
    parallel_windows: u64,
    records: u64,
    divergences: u64,
}

fn replay(store: &DStore) -> Replay {
    let snap = store.telemetry_snapshot().unwrap();
    let c = |name: &str| snap.counter_total(&format!("dstore_replay_{name}_total"));
    Replay {
        windows: c("windows"),
        groups: c("groups"),
        parallel_windows: c("parallel_windows"),
        records: c("records"),
        divergences: c("divergence"),
    }
}

/// Checks which path a recovery's windows took: with more than one
/// usable worker every non-empty window ran parallel; with one, every
/// non-empty window ran serial as one group.
fn assert_recovery_path(store: &DStore, parallel: bool) -> Result<(), TestCaseError> {
    let r = store.recovery_report();
    let nonempty = (r.redo_records > 0) as u64 + (r.replayed_records > 0) as u64;
    let s = replay(store);
    if parallel {
        prop_assert_eq!(s.parallel_windows, nonempty, "{:?}", s);
    } else {
        prop_assert_eq!(s.parallel_windows, 0, "{:?}", s);
        prop_assert_eq!(s.groups, nonempty, "one group per serial window: {:?}", s);
    }
    Ok(())
}

/// A tagged value: every 4-byte chunk repeats `(writer, round)`, so any
/// torn or misdirected replay shows up in the value bytes.
fn tagged(writer: usize, round: u32, len: usize) -> Vec<u8> {
    let tag = ((writer as u32) << 20 | round).to_le_bytes();
    tag.iter().copied().cycle().take(len.max(4)).collect()
}

/// One single-threaded script op: `(key selector, value length)`.
type Script = Vec<(u8, u16)>;

fn script_strategy() -> impl Strategy<Value = Script> {
    prop::collection::vec((0u8..12, 0u16..3000), 5..60)
}

/// Runs a script with periodic checkpoints, crashes, recovers on every
/// usable CPU, then re-crashes and recovers the same durable state on one
/// CPU — both recoveries must reproduce the model exactly.
fn run_crash_case(
    script: &Script,
    ckpt: CheckpointMode,
    logging: LoggingMode,
    mid_ckpt_crash: bool,
) -> Result<(), TestCaseError> {
    let cfg = DStoreConfig::small()
        .with_checkpoint(ckpt)
        .with_logging(logging)
        .with_auto_checkpoint(false);
    let store = DStore::create(cfg).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    {
        let ctx = store.context();
        for (i, &(key, len)) in script.iter().enumerate() {
            let k = format!("k{key}").into_bytes();
            if key % 5 == 4 && model.contains_key(&k) {
                ctx.delete(&k).unwrap();
                model.remove(&k);
            } else {
                let v = tagged(key as usize, i as u32, len as usize + 4);
                ctx.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            // Random-ish crash points relative to checkpoints: a window
            // boundary every 17 ops leaves the final active log holding
            // anywhere from 0 to 16 replayable records.
            if i % 17 == 16 {
                store.checkpoint_now();
            }
        }
    }
    if mid_ckpt_crash {
        // The paper's worst case: crash with the swap persisted but the
        // apply phase never run — recovery must redo it (in parallel).
        store.begin_checkpoint_swap_only();
    } else {
        store.wait_checkpoint_idle();
    }

    prop_assert_eq!(replay(&store).divergences, 0, "checkpoint replay");
    let parallel = DStore::recover(store.crash()).unwrap();
    prop_assert_eq!(replay(&parallel).divergences, 0, "parallel recovery");
    assert_recovery_path(&parallel, parallel_usable())?;
    {
        let ctx = parallel.context();
        for (k, v) in &model {
            prop_assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
        }
        prop_assert_eq!(parallel.object_count() as usize, model.len());
    }

    // Same durable image, serial replay: must agree byte for byte.
    let img = parallel.crash();
    let serial = on_one_cpu(|| DStore::recover(img)).unwrap();
    prop_assert_eq!(replay(&serial).divergences, 0, "serial recovery");
    assert_recovery_path(&serial, false)?;
    let ctx = serial.context();
    for (k, v) in &model {
        prop_assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
    }
    prop_assert_eq!(serial.object_count() as usize, model.len());
    // Both recovered stores accept new work.
    ctx.put(b"fresh", b"okay").unwrap();
    prop_assert_eq!(ctx.get(b"fresh").unwrap(), b"okay");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn crash_equivalence_dipper(script in script_strategy(), mid in any::<bool>()) {
        run_crash_case(&script, CheckpointMode::Dipper, LoggingMode::Physical, mid)?;
    }

    #[test]
    fn crash_equivalence_dipper_logical(script in script_strategy()) {
        run_crash_case(&script, CheckpointMode::Dipper, LoggingMode::Logical, false)?;
    }

    #[test]
    fn crash_equivalence_cow(script in script_strategy()) {
        run_crash_case(&script, CheckpointMode::Cow, LoggingMode::Logical, false)?;
    }
}

/// A steal-free multi-object workload must actually take the parallel
/// path when more than one CPU is usable: more groups than windows
/// (several shards per window).
#[test]
fn parallel_path_engages_without_steals() {
    let cfg = DStoreConfig::small().with_auto_checkpoint(false);
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    for i in 0..64u32 {
        ctx.put(format!("obj{i}").as_bytes(), &tagged(0, i, 256))
            .unwrap();
    }
    drop(ctx);
    store.checkpoint_now();
    let s = replay(&store);
    assert!(s.windows >= 1, "{s:?}");
    if parallel_usable() {
        assert!(
            s.groups > s.windows,
            "64 distinct names must spread over several shard groups: {s:?}"
        );
        assert_eq!(s.parallel_windows, s.windows, "{s:?}");
    }
    assert_eq!(s.records, 64);
}

/// Forced steals: a tiny 64-way sharded pool where every value overflows
/// its home shard's range, so every allocation claims blocks from other
/// shards. Records name their blocks, so both the checkpoint applier and
/// recovery replay them on the parallel path — and the state must still
/// match the model.
#[test]
fn forced_steals_replay_in_parallel() {
    let cfg = DStoreConfig::small()
        .with_logging(LoggingMode::Physical)
        .with_pool_shards(64)
        .with_auto_checkpoint(false);
    let block = cfg.pages_per_block * 4096;
    let store = DStore::create(cfg.clone()).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let ctx = store.context();
    // ~4096 blocks across 64 shards is a 64-block stripe; every value
    // spans 80–200 blocks, so no shard can satisfy one alone.
    for i in 0..10u32 {
        let k = format!("big{i}").into_bytes();
        let v = tagged(i as usize, 0, ((i as usize % 4) + 2) * 40 * block as usize);
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    store.checkpoint_now();
    let s = replay(&store);
    assert!(s.windows >= 1, "{s:?}");
    if parallel_usable() {
        assert_eq!(s.parallel_windows, s.windows, "{s:?}");
    }

    // Steals *after* the checkpoint land in the active log, for
    // recovery's replay window.
    for i in 0..6u32 {
        let k = format!("late{i}").into_bytes();
        let v = tagged(i as usize, 1, ((i as usize % 4) + 2) * 40 * block as usize);
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    drop(ctx);
    assert_eq!(replay(&store).divergences, 0, "checkpoint replay");
    let recovered = DStore::recover(store.crash()).unwrap();
    let rs = replay(&recovered);
    assert_eq!(rs.divergences, 0, "recovery replay: {rs:?}");
    if parallel_usable() {
        assert_eq!(rs.parallel_windows, rs.windows, "{rs:?}");
    }
    let ctx = recovered.context();
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
    }
}

/// The replay counters surface through the telemetry snapshot under
/// stable metric names.
#[test]
fn replay_counters_exported() {
    let store = DStore::create(DStoreConfig::small().with_auto_checkpoint(false)).unwrap();
    let ctx = store.context();
    for i in 0..8u32 {
        ctx.put(format!("m{i}").as_bytes(), b"v").unwrap();
    }
    drop(ctx);
    store.checkpoint_now();
    let snap = store.telemetry_snapshot().expect("telemetry on by default");
    let text = dstore_telemetry::to_prometheus(&snap);
    for metric in [
        "dstore_replay_windows_total",
        "dstore_replay_groups_total",
        "dstore_replay_parallel_windows_total",
        "dstore_replay_records_total",
        "dstore_replay_serialized_ns_total",
        "dstore_replay_divergence_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
}

/// Workers follow the usable CPUs: a store created and recovered on a
/// thread confined to one CPU takes the serial path — one group per
/// window, no parallel windows — and still reproduces the model.
#[test]
fn single_cpu_recovery_takes_serial_path() {
    on_one_cpu(|| {
        assert_eq!(usable_workers(), 1);
        let cfg = DStoreConfig::small().with_auto_checkpoint(false);
        let store = DStore::create(cfg).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let ctx = store.context();
        let mut put = |i: u32, round: u32| {
            let k = format!("obj{i}").into_bytes();
            let v = tagged(i as usize, round, 300);
            ctx.put(&k, &v).unwrap();
            model.insert(k, v);
        };
        // Three non-empty windows over many shards: a completed checkpoint,
        // an interrupted one recovery must redo, and the active-log tail.
        for i in 0..64 {
            put(i, 0);
        }
        store.checkpoint_now();
        for i in 0..48 {
            put(i, 1);
        }
        store.begin_checkpoint_swap_only();
        for i in 16..64 {
            put(i, 2);
        }
        drop(ctx);
        let s = replay(&store);
        assert_eq!(
            (s.windows, s.groups, s.parallel_windows),
            (1, 1, 0),
            "{s:?}"
        );

        let recovered = DStore::recover(store.crash()).unwrap();
        let r = recovered.recovery_report();
        assert_eq!((r.redo_records, r.replayed_records), (48, 48), "{r:?}");
        let rs = replay(&recovered);
        assert_eq!(rs.windows, 2, "{rs:?}");
        assert_eq!(
            rs.groups, rs.windows,
            "serial windows are one group each: {rs:?}"
        );
        assert_eq!(rs.parallel_windows, 0, "{rs:?}");
        assert_eq!(rs.divergences, 0, "{rs:?}");
        let ctx = recovered.context();
        for (k, v) in &model {
            assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
        }
        assert_eq!(recovered.object_count() as usize, model.len());
    })
}

/// Records per wave in [`run_multi_window_case`]: enough that one
/// checkpoint spans several apply windows.
const MULTI_WINDOW_RECORDS: u32 = 3 * dstore_dipper::APPLY_WINDOW as u32 + 100;

/// Two waves of single-threaded mutations over a few hundred names, each
/// longer than three apply windows: the first checkpointed live, the
/// second left for recovery to redo. Both applies cross window
/// boundaries with the same names on both sides of each, so a window
/// replayed out of order or skipped shows up in the read-back. When
/// `parallel`, every window of both applies takes the parallel path;
/// otherwise none does.
fn run_multi_window_case(parallel: bool) {
    let mut cfg = DStoreConfig::small().with_auto_checkpoint(false);
    cfg.log_size = 2 << 20;
    let store = DStore::create(cfg).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let ctx = store.context();
    for wave in 0..2u32 {
        for i in 0..MULTI_WINDOW_RECORDS {
            let k = format!("obj{}", i % 300).into_bytes();
            if i % 7 == 6 && model.contains_key(&k) {
                ctx.delete(&k).unwrap();
                model.remove(&k);
            } else {
                let v = tagged(i as usize, wave, 64 + (i as usize % 5) * 16);
                ctx.put(&k, &v).unwrap();
                model.insert(k, v);
            }
        }
        if wave == 0 {
            store.checkpoint_now();
        } else {
            store.begin_checkpoint_swap_only();
        }
    }
    drop(ctx);
    let s = replay(&store);
    assert_eq!(s.records, MULTI_WINDOW_RECORDS as u64, "{s:?}");
    assert!(
        s.windows >= 4,
        "one checkpoint must span several windows: {s:?}"
    );
    assert_eq!(s.divergences, 0, "{s:?}");
    let expected = if parallel { s.windows } else { 0 };
    assert_eq!(s.parallel_windows, expected, "{s:?}");
    assert_eq!(store.health().log_full_stalls, 0);

    let recovered = DStore::recover(store.crash()).unwrap();
    let r = recovered.recovery_report();
    assert_eq!(r.redo_records, MULTI_WINDOW_RECORDS as usize, "{r:?}");
    let rs = replay(&recovered);
    assert!(
        rs.windows >= 5,
        "redo windows + the active-log replay: {rs:?}"
    );
    assert_eq!(rs.divergences, 0, "{rs:?}");
    // The active-log replay counts a window even when it is empty.
    let empty = (r.replayed_records == 0) as u64;
    let expected = if parallel { rs.windows - empty } else { 0 };
    assert_eq!(rs.parallel_windows, expected, "{rs:?}");
    let ctx = recovered.context();
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
    }
    assert_eq!(recovered.object_count() as usize, model.len());
}

#[test]
fn multi_window_apply_pinned_to_one_cpu() {
    on_one_cpu(|| {
        assert_eq!(usable_workers(), 1);
        run_multi_window_case(false);
    });
}

#[test]
fn multi_window_apply_on_every_cpu() {
    run_multi_window_case(parallel_usable());
}
