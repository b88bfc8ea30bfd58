//! `crash_recover`: scripted mutations on a strict-PMEM store, a crash
//! that really discards every unflushed line, timed recovery, and a
//! read-back of every key against the script's model.
//!
//! One writer, so record counts repeat exactly: recovery must replay
//! exactly the cycle's mutation count.

use crate::cpu::{allowed_cpus, pin_to};
use crate::gen::{self, key_name, own_key_name, KeyDist, Kind, Mix, Rng, OWN_PRELOAD};
use crate::layers::{self, Window};
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::{self, SpanLog};
use crate::stats::{floor_frac, good_quartile, median, rep_percentiles_us, BIN_NS};
use crate::value::{self, PRELOAD_WRITER};
use crate::{probes, RunArgs};
use dstore::{CrashImage, DStore, DStoreConfig, DsError};
use dstore_telemetry::{now_ns, TelemetrySnapshot, TraceConfig};
use std::time::Instant;

const VALUE_LEN: usize = 128;
const WRITER: u32 = 0;
/// Timed recoveries of the same crashed log per cycle: the first
/// `PINNED_RECOVERIES` on the script's CPU alone (the gated rate), the
/// last on every allowed CPU (the per-layer wall time and its split).
const RECOVERIES: usize = 3;
const PINNED_RECOVERIES: usize = 2;

struct Sizes {
    keys: u32,
    mutations: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            keys: 2_000,
            mutations: 5_000,
        }
    } else {
        Sizes {
            keys: 100_000,
            mutations: 100_000,
        }
    }
}

fn config() -> DStoreConfig {
    DStoreConfig {
        strict_pmem: true,
        auto_checkpoint: false,
        log_size: 64 << 20,
        ssd_pages: 160 * 1024,
        ..DStoreConfig::bench()
    }
}

/// What the script has acknowledged so far.
struct Model {
    /// Version of the writer's last acknowledged put per base key
    /// (0 = still the preloaded value).
    issued: Vec<u32>,
    own_first: u32,
    own_next: u32,
}

fn set_up(sz: &Sizes) -> Result<(DStore, f64), String> {
    let t = Instant::now();
    let store = DStore::create(config()).map_err(|e| format!("create: {e}"))?;
    {
        let ctx = store.context();
        let mut buf = vec![0u8; VALUE_LEN];
        for k in 0..sz.keys {
            let key = key_name(k);
            value::fill(&mut buf, value::key_hash(&key), PRELOAD_WRITER, 1);
            ctx.put(&key, &buf)
                .map_err(|e| format!("preload put: {e}"))?;
        }
        for n in 0..OWN_PRELOAD {
            let key = own_key_name(WRITER, n);
            value::fill(&mut buf, value::key_hash(&key), WRITER, 1);
            ctx.put(&key, &buf)
                .map_err(|e| format!("preload own put: {e}"))?;
        }
    }
    store.checkpoint_now();
    store.wait_checkpoint_idle();
    Ok((store, t.elapsed().as_secs_f64()))
}

struct Cycle {
    lat: Vec<u32>,
    windows: Vec<u32>,
    script_s: f64,
    acked: u64,
    /// `DStore::recover` wall-clock on one CPU: the faster of the pinned
    /// recoveries.
    one_cpu_recovery_ms: f64,
    /// The same on every allowed CPU, and its split.
    recovery_ms: f64,
    meta_ms: f64,
    replay_ms: f64,
    replayed: u64,
    /// Records each of the cycle's recoveries replayed.
    replayed_each: Vec<u64>,
    ckpt_now_ms: f64,
    user_bytes: u64,
    script_start: u64,
    /// Counter and flight-recorder snapshots around the script (traced
    /// run only: they end with the store at the crash).
    around: Option<(TelemetrySnapshot, TelemetrySnapshot)>,
}

/// One cycle: script → crash → timed recover → read back everything →
/// checkpoint. `retrace` swaps the trace configuration in at recovery.
#[allow(clippy::too_many_arguments)]
fn cycle(
    store: DStore,
    model: &mut Model,
    sz: &Sizes,
    seed: u64,
    index: u32,
    retrace: Option<&DStoreConfig>,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(DStore, Cycle), String> {
    let span = log.open("cycle", 0, index);
    // The script: 80 % update / 10 % insert / 10 % delete, pre-generated.
    let mut rng = Rng::new(seed, 1000 + index as u64);
    let ops = gen::op_stream(
        &mut rng,
        sz.mutations,
        sz.keys,
        &KeyDist::Uniform,
        &Mix {
            get: 0,
            put: 80,
            insert: 10,
        },
    );
    let mut c = Cycle {
        lat: Vec::with_capacity(ops.len()),
        windows: Vec::new(),
        script_s: 0.0,
        acked: 0,
        one_cpu_recovery_ms: 0.0,
        recovery_ms: 0.0,
        meta_ms: 0.0,
        replay_ms: 0.0,
        replayed: 0,
        replayed_each: Vec::new(),
        ckpt_now_ms: 0.0,
        user_bytes: 0,
        script_start: 0,
        around: None,
    };
    let before = if log.enabled() {
        store.telemetry_snapshot()
    } else {
        None
    };
    // The script and the gated recoveries run on the first CPU alone;
    // with fewer than two CPUs nothing is pinned.
    let cpus = allowed_cpus();
    let pin_one = || {
        if cpus.len() >= 2 {
            pin_to(&cpus[..1]);
        }
    };
    pin_one();
    c.script_start = now_ns();
    {
        let s = log.open("script", span, index);
        let ctx = store.context();
        let mut buf = vec![0u8; VALUE_LEN];
        for op in &ops {
            out.attempted += 1;
            let (t0, r) = match op.kind() {
                Kind::Put | Kind::Get => {
                    let key = key_name(op.key());
                    let version = model.issued[op.key() as usize] + 1;
                    value::fill(&mut buf, value::key_hash(&key), WRITER, version as u64);
                    let t0 = now_ns();
                    let r = ctx.put(&key, &buf);
                    if r.is_ok() {
                        model.issued[op.key() as usize] = version;
                        c.user_bytes += VALUE_LEN as u64;
                    }
                    (t0, r)
                }
                Kind::Insert => {
                    let key = own_key_name(WRITER, model.own_next);
                    value::fill(&mut buf, value::key_hash(&key), WRITER, 1);
                    let t0 = now_ns();
                    let r = ctx.put(&key, &buf);
                    if r.is_ok() {
                        model.own_next += 1;
                        c.user_bytes += VALUE_LEN as u64;
                    }
                    (t0, r)
                }
                Kind::Delete if model.own_first == model.own_next => continue,
                Kind::Delete => {
                    let key = own_key_name(WRITER, model.own_first);
                    let t0 = now_ns();
                    let r = ctx.delete(&key);
                    if r.is_ok() {
                        model.own_first += 1;
                    }
                    (t0, r)
                }
            };
            let t1 = now_ns();
            match r {
                Ok(()) => {
                    c.acked += 1;
                    c.lat.push((t1 - t0).min(u32::MAX as u64) as u32);
                    let w = ((t1 - c.script_start) / BIN_NS) as usize;
                    if c.windows.len() <= w {
                        c.windows.resize(w + 1, 0);
                    }
                    c.windows[w] += 1;
                }
                Err(e) => out.fail(format!(
                    "cycle {index} {:?} key {}: {e}",
                    op.kind(),
                    op.key()
                )),
            }
        }
        log.close(s);
        pin_to(&cpus);
        c.script_s = (now_ns() - c.script_start) as f64 / 1e9;
        // The last window is partial.
        c.windows.pop();
    }
    if let Some(before) = before {
        c.around = store.telemetry_snapshot().map(|after| (before, after));
    }

    // Crash and recover `RECOVERIES` times over: the active log is not
    // checkpointed by a recovery, so crashing again at once replays the
    // same records, and each recovery must replay exactly what was
    // acknowledged (recovery is idempotent). With both CPUs, how fast the
    // parallel phases run depends on whether the host gives the second
    // vCPU its full share at that moment (README, "Findings"): the rate
    // that gates is therefore taken with recovery confined to the
    // script's CPU, where the replay workers take turns; the last
    // recovery, on every CPU, gives the per-layer wall time and split.
    let mut store = store;
    let mut one_cpu_ms = Vec::with_capacity(PINNED_RECOVERIES);
    for attempt in 0..RECOVERIES {
        let pinned = attempt < PINNED_RECOVERIES;
        let image = log.time("crash", span, index, || store.crash());
        let image = match retrace {
            Some(cfg) if attempt == RECOVERIES - 1 => CrashImage::reconfigure(image, cfg.clone()),
            _ => image,
        };
        if pinned {
            pin_one();
        }
        let t0 = now_ns();
        let recovered = DStore::recover(image);
        let t1 = now_ns();
        pin_to(&cpus);
        store = recovered.map_err(|e| format!("recover: {e}"))?;
        let wall_ms = (t1 - t0) as f64 / 1e6;
        let rep = store.recovery_report();
        c.replayed_each.push(rep.replayed_records as u64);
        if pinned {
            log.push("recover_one_cpu", t0, t1, span, index);
            one_cpu_ms.push(wall_ms);
        } else {
            log.push("recover", t0, t1, span, index);
            c.recovery_ms = wall_ms;
            c.meta_ms = rep.metadata_ns as f64 / 1e6;
            c.replay_ms = rep.replay_ns as f64 / 1e6;
        }
    }
    c.one_cpu_recovery_ms = good_quartile(&one_cpu_ms, true);
    c.replayed = c.replayed_each[0];

    let v = log.open("verify", span, index);
    verify(&store, model, sz, index, out);
    log.close(v);

    let t = now_ns();
    store.checkpoint_now();
    store.wait_checkpoint_idle();
    let t_end = now_ns();
    log.push("checkpoint", t, t_end, span, index);
    c.ckpt_now_ms = (t_end - t) as f64 / 1e6;
    log.close(span);
    Ok((store, c))
}

/// Reads back every key the script ever touched.
fn verify(store: &DStore, model: &Model, sz: &Sizes, index: u32, out: &mut Outcome) {
    let ctx = store.context();
    let mut lost = 0u64;
    let mut check = |key: &[u8], writer: u32, version: u64, out: &mut Outcome| {
        out.attempted += 1;
        match ctx.get(key) {
            Ok(v) => match value::check(&v, value::key_hash(key), VALUE_LEN, true) {
                Ok(h) if h.writer == writer && h.version == version => {}
                Ok(h) => {
                    lost += 1;
                    out.fail(format!(
                        "cycle {index} key {}: recovered writer {:#x} version {}, script acknowledged writer {writer:#x} version {version}",
                        String::from_utf8_lossy(key),
                        h.writer,
                        h.version
                    ));
                }
                Err(bad) => out.fail(format!(
                    "cycle {index} key {}: {bad:?}",
                    String::from_utf8_lossy(key)
                )),
            },
            Err(e) => {
                lost += 1;
                out.fail(format!(
                    "cycle {index} key {}: acknowledged object missing after recovery: {e}",
                    String::from_utf8_lossy(key)
                ));
            }
        }
    };
    for k in 0..sz.keys {
        match model.issued[k as usize] {
            0 => check(&key_name(k), PRELOAD_WRITER, 1, out),
            v => check(&key_name(k), WRITER, v as u64, out),
        }
    }
    for n in model.own_first..model.own_next {
        check(&own_key_name(WRITER, n), WRITER, 1, out);
    }
    for n in 0..model.own_first {
        out.attempted += 1;
        match ctx.get(&own_key_name(WRITER, n)) {
            Err(DsError::NotFound) => {}
            Ok(_) => {
                lost += 1;
                out.fail(format!(
                    "cycle {index}: acknowledged delete of t{WRITER}/{n} came back after recovery"
                ));
            }
            Err(e) => out.fail(format!("cycle {index}: t{WRITER}/{n}: {e}")),
        }
    }
    let so_far = out.get("core.lost_acks");
    out.set("core.lost_acks", so_far + lost as f64, out.attempted);
}

/// Mutation-latency percentiles (µs) per cycle, `[percentile][cycle]`,
/// with the pooled sample count.
fn pct(cycles: &[Cycle], ps: &[f64]) -> (Vec<Vec<f64>>, u64) {
    let n = cycles.iter().map(|c| c.lat.len() as u64).sum();
    (
        rep_percentiles_us(cycles.iter().map(|c| c.lat.clone()), ps),
        n,
    )
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sz = sizes(args.smoke);
    let mut out = Outcome::default();
    out.note("strict_pmem = true: the crash discards every unflushed cache line; device time is the repo's spin model, so times are the sandbox model's");
    out.note(format!(
        "available_parallelism = {} (replay_threads default), one writer",
        crate::nproc()
    ));
    let mut log = SpanLog::new(0, args.trace, 1024);

    let mut setups = Vec::new();
    let mut store = None;
    for _ in 0..if args.trace { 1 } else { 3 } {
        drop(store.take());
        let (s, t) = set_up(&sz)?;
        setups.push(t);
        store = Some(s);
    }
    let mut store = store.expect("at least one set-up");
    let mut model = Model {
        issued: vec![0; sz.keys as usize],
        own_first: 0,
        own_next: OWN_PRELOAD,
    };

    if !args.trace {
        // Cycle 0 is discarded (first-touch page faults, cold caches);
        // then cycles until the time is used, at least three kept.
        let started = Instant::now();
        let mut replayed = Vec::new();
        let mut kept: Vec<Cycle> = Vec::new();
        let mut i = 0;
        while kept.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
            let (s, c) = cycle(
                store, &mut model, &sz, args.seed, i, None, &mut log, &mut out,
            )?;
            store = s;
            replayed.push((c.replayed_each.clone(), c.acked));
            if i > 0 {
                kept.push(c);
            }
            i += 1;
            // One more cycle must fit in the run.
            if kept.len() >= 3
                && started.elapsed().as_secs_f64() * (i as f64 + 1.0) / i as f64 > args.seconds
            {
                break;
            }
        }
        out.check(
            "replayed_equals_acknowledged",
            replayed.iter().all(|(each, acked)| each.iter().all(|r| r == acked)),
            format!("(records each recovery replayed, mutations the script acknowledged) per cycle: {replayed:?}"),
        );
        out.set_reps("setup_s", &setups, setups.len() as u64);
        let rates: Vec<f64> = kept
            .iter()
            .map(|c| c.replayed as f64 / (c.one_cpu_recovery_ms / 1e3))
            .collect();
        out.set_reps("ops_per_s", &rates, kept.iter().map(|c| c.replayed).sum());
        let (pcts, n) = pct(&kept, &[50.0, 99.0, 99.9]);
        for (name, v) in ["p50_us", "p99_us", "core.put_p999_us"]
            .into_iter()
            .zip(&pcts)
        {
            out.set_reps(name, v, n);
        }
        let windows: Vec<u32> = kept
            .iter()
            .flat_map(|c| c.windows.iter().copied())
            .collect();
        out.set(
            "core.tput_floor_frac",
            floor_frac(&windows),
            windows.len() as u64,
        );
        let fp = store.footprint();
        out.set(
            "space_amp",
            fp.total() as f64 / fp.logical_bytes.max(1) as f64,
            store.object_count(),
        );
        out.set("peak_rss_mb", peak_rss_mb(std::process::id()), 1);
        let ms = |f: fn(&Cycle) -> f64| kept.iter().map(f).collect::<Vec<f64>>();
        out.set_reps(
            "core.recovery_ms",
            &ms(|c| c.recovery_ms),
            kept.len() as u64,
        );
        out.set_reps(
            "core.recovery_1cpu_ms",
            &ms(|c| c.one_cpu_recovery_ms),
            kept.len() as u64,
        );
        out.set_reps(
            "core.recover_meta_ms",
            &ms(|c| c.meta_ms),
            kept.len() as u64,
        );
        out.set_reps(
            "core.recover_replay_ms",
            &ms(|c| c.replay_ms),
            kept.len() as u64,
        );
        out.set_reps(
            "core.recover_other_ms",
            &ms(|c| c.recovery_ms - c.meta_ms - c.replay_ms),
            kept.len() as u64,
        );
        out.set_reps(
            "dipper.ckpt_now_ms",
            &ms(|c| c.ckpt_now_ms),
            kept.len() as u64,
        );
        out.note(format!(
            "{} cycles kept of {} mutations each",
            kept.len(),
            sz.mutations
        ));
        return Ok(out);
    }

    // Traced run: a discarded cycle, a reference cycle, then a cycle
    // recovered into a configuration that samples every operation.
    let traced_cfg = config().with_trace(TraceConfig {
        sample_every: 1,
        ring_capacity: 1 << 18,
        ..TraceConfig::default()
    });
    let (s, _) = cycle(
        store, &mut model, &sz, args.seed, 0, None, &mut log, &mut out,
    )?;
    let (s, reference) = cycle(
        s,
        &mut model,
        &sz,
        args.seed,
        1,
        Some(&traced_cfg),
        &mut log,
        &mut out,
    )?;
    let (s, traced) = cycle(s, &mut model, &sz, args.seed, 2, None, &mut log, &mut out)?;
    store = s;
    for (i, c) in [(1, &reference), (2, &traced)] {
        out.check(
            &format!("cycle_{i}_replayed_equals_acknowledged"),
            c.replayed_each.iter().all(|&r| r == c.acked),
            format!(
                "recoveries replayed {:?} records, the script acknowledged {}",
                c.replayed_each, c.acked
            ),
        );
    }
    let ref_rate = reference.acked as f64 / reference.script_s;
    let traced_rate = traced.acked as f64 / traced.script_s;
    out.set("core.traced_ops_per_s", traced_rate, traced.acked);
    out.set(
        "telemetry.trace_overhead_frac",
        1.0 - traced_rate / ref_rate.max(1.0),
        reference.acked,
    );
    out.set("core.recovery_ms", traced.recovery_ms, 1);
    out.set(
        "core.recovery_1cpu_ms",
        traced.one_cpu_recovery_ms,
        PINNED_RECOVERIES as u64,
    );
    out.set("core.recover_meta_ms", traced.meta_ms, 1);
    out.set("core.recover_replay_ms", traced.replay_ms, 1);
    out.set(
        "core.recover_other_ms",
        traced.recovery_ms - traced.meta_ms - traced.replay_ms,
        1,
    );
    out.set(
        "core.replay_recs_per_s",
        traced.replayed as f64 / (traced.replay_ms / 1e3).max(1e-9),
        traced.replayed,
    );
    out.set("core.replayed_records", traced.replayed as f64, 1);
    out.set(
        "dipper.ckpt_now_ms",
        median(&[reference.ckpt_now_ms, traced.ckpt_now_ms]),
        2,
    );
    out.set(
        "core.tput_floor_frac",
        floor_frac(&traced.windows),
        traced.windows.len() as u64,
    );
    let (pcts, n) = pct(std::slice::from_ref(&traced), &[50.0, 99.0, 99.9]);
    for (name, v) in ["core.put_p50_us", "core.put_p99_us", "core.put_p999_us"]
        .into_iter()
        .zip(&pcts)
    {
        out.set(name, v[0], n);
    }

    let logs = [&log];
    for (name, t) in &spans::self_times(&logs) {
        out.note(format!(
            "span {name}: n={} mean {:.2} ms self {:.2} ms",
            t.count,
            t.total_ns as f64 / t.count.max(1) as f64 / 1e6,
            t.self_ns as f64 / t.count.max(1) as f64 / 1e6
        ));
    }
    if let Err(e) = spans::write_chrome_trace(
        &crate::out_dir().join("trace.crash_recover.json"),
        "crash_recover",
        &logs,
    ) {
        out.note(format!("could not write the trace file: {e}"));
    }
    if let Some((before, after)) = &traced.around {
        Window {
            before,
            after,
            user_bytes_written: traced.user_bytes,
            objects: store.object_count(),
        }
        .counters_into(&mut out);
        let segs = layers::segment_means(after, traced.script_start);
        segs.fill(&mut out);
        if let Some((n, mean, seg_sum)) = segs.op("put") {
            out.set("core.put_span_ns", mean, n);
            out.set("core.unattributed_ns_per_put", mean - seg_sum, n);
        }
    }
    out.set(
        "core.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    out.set("core.verify_mismatches", out.failed as f64, out.attempted);
    drop(store);
    probes::run_all(&mut out);
    Ok(out)
}
