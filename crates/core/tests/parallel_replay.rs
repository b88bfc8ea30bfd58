//! OE-parallel replay tests: serial-vs-parallel state equivalence on
//! both checkpoint engines (random scripts, random crash points,
//! including a mid-checkpoint crash for DIPPER), the forced-steal
//! serialized fallback, the single-CPU clamp, and the engine's
//! telemetry counters.
//!
//! The equivalence argument is two-layered: ops are issued from a single
//! thread, so the in-memory model *is* the serial order; and every crash
//! image is additionally recovered twice — once with `replay_threads = 4`
//! and once (via [`CrashImage::reconfigure`]) with `replay_threads = 1`,
//! the byte-identical durable state making the two recoveries a direct
//! parallel-vs-serial A/B.

use dstore::{CheckpointMode, CrashImage, DStore, DStoreConfig, LoggingMode};
use dstore_dipper::usable_workers;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Worker count for the parallel legs: 4, unless CI pins the whole
/// suite onto the serial engine with `DSTORE_REPLAY_THREADS=1` (the
/// config default also reads this, but the tests set threads
/// explicitly for determinism, so they honor it themselves).
fn test_threads() -> usize {
    std::env::var("DSTORE_REPLAY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Whether the engine has more than one worker to give the parallel
/// legs on this thread (`test_threads()` capped by the usable CPUs, the
/// same clamp the engine applies). Prints why when it has not.
fn parallel_usable() -> bool {
    let usable = usable_workers(test_threads()) > 1;
    if !usable {
        eprintln!(
            "parallel-path checks skipped: replay_threads = {} and {} usable CPU(s) leave one worker",
            test_threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
    }
    usable
}

/// Checks which path a recovery's windows took: with more than one
/// usable worker every non-empty window ran parallel or fell back on a
/// steal flag; with one, every non-empty window ran serial as one group.
fn assert_recovery_path(store: &DStore, parallel: bool) -> Result<(), TestCaseError> {
    let r = store.recovery_report();
    let nonempty = (r.redo_records > 0) as u64 + (r.replayed_records > 0) as u64;
    let s = store.replay_stats();
    if parallel {
        prop_assert_eq!(s.parallel_windows + s.serial_fallbacks, nonempty, "{:?}", s);
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

/// Runs a script with periodic checkpoints, crashes, recovers with 4
/// replay threads, then re-crashes and recovers the same durable state
/// with 1 thread — both recoveries must reproduce the model exactly.
fn run_crash_case(
    script: &Script,
    ckpt: CheckpointMode,
    logging: LoggingMode,
    mid_ckpt_crash: bool,
) -> Result<(), TestCaseError> {
    let cfg = DStoreConfig::small()
        .with_checkpoint(ckpt)
        .with_logging(logging)
        .with_auto_checkpoint(false)
        .with_replay_threads(test_threads());
    let store = DStore::create(cfg.clone()).unwrap();
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

    prop_assert_eq!(store.replay_stats().divergences, 0, "checkpoint replay");
    let parallel = DStore::recover(store.crash()).unwrap();
    prop_assert_eq!(parallel.replay_stats().divergences, 0, "parallel recovery");
    assert_recovery_path(&parallel, parallel_usable())?;
    {
        let ctx = parallel.context();
        for (k, v) in &model {
            prop_assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
        }
        prop_assert_eq!(parallel.object_count() as usize, model.len());
    }

    // Same durable image, serial replay: must agree byte for byte.
    let serial = DStore::recover(CrashImage::reconfigure(
        parallel.crash(),
        cfg.with_replay_threads(1),
    ))
    .unwrap();
    prop_assert_eq!(serial.replay_stats().divergences, 0, "serial recovery");
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
/// (several shards per window) and zero serialized fallbacks.
#[test]
fn parallel_path_engages_without_steals() {
    let cfg = DStoreConfig::small()
        .with_auto_checkpoint(false)
        .with_replay_threads(test_threads());
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    for i in 0..64u32 {
        ctx.put(format!("obj{i}").as_bytes(), &tagged(0, i, 256))
            .unwrap();
    }
    drop(ctx);
    store.checkpoint_now();
    let s = store.replay_stats();
    assert!(s.windows >= 1, "{s:?}");
    assert_eq!(s.serial_fallbacks, 0, "{s:?}");
    if parallel_usable() {
        assert!(
            s.groups > s.windows,
            "64 distinct names must spread over several shard groups: {s:?}"
        );
        assert_eq!(s.parallel_windows, s.windows, "{s:?}");
    }
    assert_eq!(s.records, 64);
}

/// Forced steals: tiny 64-way sharded pool where every value overflows
/// its shard, so allocations escalate and steal. The steal flag must
/// drive both the checkpoint applier and recovery into the serialized
/// fallback — and the state must still match the model.
#[test]
fn steal_fallback_engages_and_stays_correct() {
    let mut cfg = DStoreConfig::small()
        .with_logging(LoggingMode::Physical)
        .with_pool_shards(64)
        .with_auto_checkpoint(false)
        .with_replay_threads(test_threads());
    // 64 full-capacity shard rings need a roomier shadow (the config
    // validator prices them in).
    cfg.shadow_size = 8 << 20;
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
    let s = store.replay_stats();
    assert!(s.windows >= 1, "{s:?}");
    // Fallbacks are only *counted* when there is parallelism to give up.
    if parallel_usable() {
        assert!(
            s.serial_fallbacks >= 1,
            "a steal-flagged window must degrade to serial replay: {s:?}"
        );
    }

    // Steals *after* the checkpoint land in the active log, so recovery's
    // replay window is also flagged and must also fall back.
    for i in 0..6u32 {
        let k = format!("late{i}").into_bytes();
        let v = tagged(i as usize, 1, ((i as usize % 4) + 2) * 40 * block as usize);
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    drop(ctx);
    assert_eq!(store.replay_stats().divergences, 0, "checkpoint replay");
    let recovered = DStore::recover(store.crash()).unwrap();
    let rs = recovered.replay_stats();
    assert_eq!(rs.divergences, 0, "recovery replay: {rs:?}");
    if parallel_usable() {
        assert!(
            rs.serial_fallbacks >= 1,
            "recovery of a stolen window must fall back: {rs:?}"
        );
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
    let store = DStore::create(
        DStoreConfig::small()
            .with_auto_checkpoint(false)
            .with_replay_threads(test_threads().min(2)),
    )
    .unwrap();
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
        "dstore_replay_serial_fallbacks_total",
        "dstore_replay_records_total",
        "dstore_replay_serialized_ns_total",
        "dstore_replay_divergence_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and the threads it starts afterwards)
/// to the first CPU it may currently run on.
fn pin_to_one_cpu() {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the mask buffer is valid for `size` bytes; pid 0 is the
    // calling thread.
    assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
    let cpu = (0..16 * 64)
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .expect("some allowed CPU");
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the mask is only read.
    assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
}

/// `replay_threads` is a cap, not a count: a recovery confined to one
/// CPU takes the serial path even with `replay_threads = 4` — one group
/// per window, no parallel windows — and still reproduces the model.
#[test]
fn single_cpu_recovery_takes_serial_path() {
    pin_to_one_cpu();
    assert_eq!(usable_workers(4), 1);
    let cfg = DStoreConfig::small()
        .with_auto_checkpoint(false)
        .with_replay_threads(4);
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
    let s = store.replay_stats();
    assert_eq!(
        (s.windows, s.groups, s.parallel_windows),
        (1, 1, 0),
        "{s:?}"
    );

    let recovered = DStore::recover(store.crash()).unwrap();
    let r = recovered.recovery_report();
    assert_eq!((r.redo_records, r.replayed_records), (48, 48), "{r:?}");
    let rs = recovered.replay_stats();
    assert_eq!(rs.windows, 2, "{rs:?}");
    assert_eq!(
        rs.groups, rs.windows,
        "serial windows are one group each: {rs:?}"
    );
    assert_eq!((rs.parallel_windows, rs.serial_fallbacks), (0, 0), "{rs:?}");
    assert_eq!(rs.divergences, 0, "{rs:?}");
    let ctx = recovered.context();
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
    }
    assert_eq!(recovered.object_count() as usize, model.len());
}

/// Records per wave in [`run_multi_window_case`]: enough that one
/// checkpoint spans several apply windows.
const MULTI_WINDOW_RECORDS: u32 = 3 * dstore_dipper::APPLY_WINDOW as u32 + 100;

/// Two waves of single-threaded mutations over a few hundred names, each
/// longer than three apply windows: the first checkpointed live, the
/// second left for recovery to redo. Both applies cross window
/// boundaries with the same names on both sides of each, so a window
/// replayed out of order or skipped shows up in the read-back.
fn run_multi_window_case(threads: usize) {
    let mut cfg = DStoreConfig::small()
        .with_auto_checkpoint(false)
        .with_replay_threads(threads);
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
    let s = store.replay_stats();
    assert_eq!(s.records, MULTI_WINDOW_RECORDS as u64, "{s:?}");
    assert!(
        s.windows >= 4,
        "one checkpoint must span several windows: {s:?}"
    );
    assert_eq!(s.divergences, 0, "{s:?}");
    assert_eq!(store.stats().snapshot().log_full_stalls, 0);

    let recovered = DStore::recover(store.crash()).unwrap();
    let r = recovered.recovery_report();
    assert_eq!(r.redo_records, MULTI_WINDOW_RECORDS as usize, "{r:?}");
    let rs = recovered.replay_stats();
    assert!(
        rs.windows >= 5,
        "redo windows + the active-log replay: {rs:?}"
    );
    assert_eq!(rs.divergences, 0, "{rs:?}");
    let ctx = recovered.context();
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
    }
    assert_eq!(recovered.object_count() as usize, model.len());
}

#[test]
fn multi_window_apply_pinned_to_one_cpu() {
    pin_to_one_cpu();
    assert_eq!(usable_workers(4), 1);
    run_multi_window_case(4);
}

#[test]
fn multi_window_apply_with_two_workers() {
    run_multi_window_case(2);
}
