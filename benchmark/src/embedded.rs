//! The three in-process workloads — `put_4k`, `get_4k`, `mixed_small` —
//! closed-loop clients on `DsContext`, one store per leg.

use crate::cpu::{allowed_cpus, pin_to};
use crate::gen::{self, key_name, own_key_name, KeyDist, Kind, Mix, Op, Rng, OWN_PRELOAD};
use crate::layers::{self, Window};
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::{self, SpanLog};
use crate::stats::{beyond, floor_frac, rep_percentiles_us, BIN_NS};
use crate::value::{self, Bad, Seen, PRELOAD_WRITER};
use crate::{probes, RunArgs};
use dstore::{DStore, DStoreConfig, DsError};
use dstore_telemetry::{now_ns, TelemetrySnapshot, TraceConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub const CLIENTS: u32 = 2;
/// How far the harness's and the flight recorder's op counts may differ
/// over the compared window: each client can have one operation in flight
/// at either edge, and the recorder's oldest slots are being overwritten
/// while the snapshot is taken.
const EDGE_OPS: u64 = 16;
/// Back-to-back repetitions of an untraced run. Throughput is the median
/// of the repetitions, a latency percentile their lower quartile
/// (`stats::good_quartile`).
const REPS: usize = 9;
/// Every n-th get regenerates and compares the whole body.
const FULL_CHECK_EVERY: u64 = 16;

pub struct Spec {
    pub name: &'static str,
    pub keys: u32,
    pub value_len: usize,
    pub dist: KeyDist,
    /// One op mix per client.
    pub mixes: [Mix; CLIENTS as usize],
    pub cfg: DStoreConfig,
}

impl Spec {
    /// Whether any client inserts into / deletes from its own namespace.
    fn churns(&self) -> bool {
        self.mixes.iter().any(|m| m.get + m.put < 100)
    }
}

const PUT_ONLY: Mix = Mix {
    get: 0,
    put: 100,
    insert: 0,
};
const GET_ONLY: Mix = Mix {
    get: 100,
    put: 0,
    insert: 0,
};

pub fn spec_for(name: &str, smoke: bool) -> Option<Spec> {
    let scale = |n: u32| if smoke { 2_000 } else { n };
    let base = DStoreConfig::bench();
    // One 4 KB SSD block per 128 B object: 200 000 preloaded + the
    // clients' own namespaces need more than the default 64 Ki pages.
    let small = |name, mixes| Spec {
        name,
        keys: scale(200_000),
        value_len: 128,
        dist: KeyDist::Zipf(0.99),
        mixes,
        cfg: DStoreConfig {
            ssd_pages: 256 * 1024,
            shadow_size: 128 << 20,
            ..base.clone()
        },
    };
    Some(match name {
        // log_size stays at the 4 MiB default so several DIPPER
        // checkpoints complete per repetition.
        "put_4k" => Spec {
            name: "put_4k",
            keys: scale(50_000),
            value_len: 4096,
            dist: KeyDist::Uniform,
            mixes: [PUT_ONLY, PUT_ONLY],
            cfg: base,
        },
        "get_4k" => Spec {
            name: "get_4k",
            keys: scale(50_000),
            value_len: 4096,
            dist: KeyDist::Zipf(0.99),
            mixes: [GET_ONLY, GET_ONLY],
            cfg: base,
        },
        // One client mutates (60 % update / 20 % insert / 20 % delete),
        // the other reads the same hot keys: about 50/30/10/10 overall.
        // The mutating one is the last client, the one that shares its
        // CPU with the checkpointer (see `Placement`).
        // Two *mutating* clients crash the store at the commit that
        // defined this benchmark (see README "Findings"), and a workload
        // must not fail, so the symmetric mix is kept out of the gate.
        "mixed_small" => small(
            "mixed_small",
            [
                GET_ONLY,
                Mix {
                    get: 0,
                    put: 60,
                    insert: 20,
                },
            ],
        ),
        // The issue's original mix, both clients mutating: a reproducer
        // for that finding, not part of BENCHMARK.json.
        "mixed_symmetric" => {
            let m = || Mix {
                get: 50,
                put: 30,
                insert: 10,
            };
            small("mixed_symmetric", [m(), m()])
        }
        _ => return None,
    })
}

/// Latency classes, indexed by `Kind as usize`.
const CLASSES: usize = 4;

struct ClientOut {
    /// `[class][rep]` raw latencies in ns.
    lat: Vec<Vec<Vec<u32>>>,
    /// Completed, verified ops per `BIN_NS` since the measured start.
    windows: Vec<u32>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    mismatches: u64,
    user_bytes: u64,
    log: SpanLog,
    /// Final issued version per preloaded key, and the own-namespace
    /// model: `[first_live, next)` are live.
    issued: Vec<u32>,
    own_first: u32,
    own_next: u32,
    wrapped: bool,
}

pub struct Leg {
    pub store: DStore,
    pub rep_ns: u64,
    pub reps: usize,
    pub measure_start: u64,
    pub before: TelemetrySnapshot,
    pub after: TelemetrySnapshot,
    clients: Vec<ClientOut>,
}

fn describe(bad: &Bad) -> String {
    format!("{bad:?}")
}

/// Creates the store and preloads it (the timed set-up).
fn set_up(
    spec: &Spec,
    cfg: &DStoreConfig,
    khash: &[u64],
    place: &Placement,
) -> Result<(DStore, f64), String> {
    let t = Instant::now();
    // Threads inherit the affinity of the thread that starts them: the
    // store is created from the background CPUs, so its checkpointer and
    // replay workers live there for good.
    place.enter_background();
    let created = DStore::create(cfg.clone());
    place.leave_background();
    let store = created.map_err(|e| format!("create: {e}"))?;
    {
        let ctx = store.context();
        let mut buf = vec![0u8; spec.value_len];
        for k in 0..spec.keys {
            value::fill(&mut buf, khash[k as usize], PRELOAD_WRITER, 1);
            ctx.put(&key_name(k), &buf)
                .map_err(|e| format!("preload put {k}: {e}"))?;
        }
        if spec.churns() {
            for c in 0..CLIENTS {
                for n in 0..OWN_PRELOAD {
                    let key = own_key_name(c, n);
                    value::fill(&mut buf, value::key_hash(&key), c, 1);
                    ctx.put(&key, &buf)
                        .map_err(|e| format!("preload own put: {e}"))?;
                }
            }
        }
    }
    store.wait_checkpoint_idle();
    Ok((store, t.elapsed().as_secs_f64()))
}

/// Fixed CPU placement for the embedded workloads: client `i` runs on
/// the `i`-th allowed CPU, and every thread the store starts runs on the
/// last one (beside the last client). Left to the scheduler, the
/// checkpoint threads either stack on one CPU or spread over both, and
/// because a put's device wait is a `yield_now` loop that hands its CPU to
/// whatever else is runnable there, the two outcomes differ by 40 % in
/// throughput and persist for minutes (README, "Findings"). With fewer
/// than two CPUs nothing is pinned.
pub struct Placement {
    cpus: Vec<usize>,
}

impl Placement {
    pub fn new() -> Self {
        let cpus = allowed_cpus();
        Placement {
            cpus: if cpus.len() >= 2 { cpus } else { Vec::new() },
        }
    }

    fn enter_background(&self) {
        if let Some(&last) = self.cpus.last() {
            pin_to(&[last]);
        }
    }

    fn leave_background(&self) {
        pin_to(&self.cpus);
    }

    fn pin_client(&self, id: u32) {
        if !self.cpus.is_empty() {
            pin_to(&[self.cpus[id as usize % self.cpus.len()]]);
        }
    }

    pub fn describe(&self) -> String {
        match self.cpus.last() {
            Some(last) => format!(
                "client i pinned to CPU {:?}[i]; the store's own threads pinned to CPU {last}",
                self.cpus
            ),
            None => "fewer than two CPUs allowed: nothing pinned".into(),
        }
    }
}

struct ClientIn<'a> {
    id: u32,
    spec: &'a Spec,
    khash: &'a [u64],
    ops: Vec<Op>,
    measure_start: u64,
    rep_ns: u64,
    reps: usize,
    stop: &'a AtomicBool,
    spans: bool,
}

fn client(store: &DStore, c: ClientIn<'_>) -> ClientOut {
    let spec = c.spec;
    let ctx = store.context();
    let per_rep = (c.rep_ns / 1_000) as usize; // ≥ 1 op/µs of headroom
    let mut out = ClientOut {
        lat: (0..CLASSES)
            .map(|k| {
                let mix = &spec.mixes[c.id as usize];
                let used = match k {
                    0 => mix.get,
                    1 => mix.put,
                    2 => mix.insert,
                    _ => 100 - mix.get - mix.put - mix.insert,
                };
                (0..c.reps)
                    .map(|_| Vec::with_capacity(per_rep * used as usize / 100 / 4))
                    .collect()
            })
            .collect(),
        windows: vec![0; (c.rep_ns * c.reps as u64 / BIN_NS) as usize + 1],
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        mismatches: 0,
        user_bytes: 0,
        log: SpanLog::new(c.id, c.spans, 4 << 20),
        issued: vec![0; spec.keys as usize],
        own_first: 0,
        own_next: OWN_PRELOAD,
        wrapped: false,
    };
    let mut seen = Seen::new(CLIENTS as usize, spec.keys as usize);
    let mut buf = vec![0u8; spec.value_len];
    let mut live: VecDeque<u32> = (0..OWN_PRELOAD).collect();
    let mut gets = 0u64;
    let mut i = 0usize;
    let end = c.measure_start + c.rep_ns * c.reps as u64;
    let fail = |out: &mut ClientOut, what: String| {
        out.failed += 1;
        if out.failures.len() < crate::report::MAX_FAILURE_REPORTS {
            out.failures.push(what);
        }
    };
    while !c.stop.load(Ordering::Relaxed) {
        if i == c.ops.len() {
            i = 0;
            out.wrapped = true;
        }
        let op = c.ops[i];
        i += 1;
        let t_iter = if c.spans { now_ns() } else { 0 };
        let (kind, t0, t1, ok) = match op.kind() {
            Kind::Get => {
                let key = key_name(op.key());
                let t0 = now_ns();
                let r = ctx.get(&key);
                let t1 = now_ns();
                gets += 1;
                let ok = match r {
                    Ok(v) => {
                        let full = gets.is_multiple_of(FULL_CHECK_EVERY);
                        match value::check(&v, c.khash[op.key() as usize], spec.value_len, full)
                            .and_then(|h| seen.observe(op.key(), h))
                        {
                            Ok(()) => true,
                            Err(bad) => {
                                out.mismatches += 1;
                                fail(
                                    &mut out,
                                    format!(
                                        "get {}: {}",
                                        String::from_utf8_lossy(&key),
                                        describe(&bad)
                                    ),
                                );
                                false
                            }
                        }
                    }
                    Err(e) => {
                        fail(
                            &mut out,
                            format!("get {}: {e}", String::from_utf8_lossy(&key)),
                        );
                        false
                    }
                };
                (Kind::Get, t0, t1, ok)
            }
            Kind::Put => {
                let key = key_name(op.key());
                let version = out.issued[op.key() as usize] as u64 + 1;
                value::fill(&mut buf, c.khash[op.key() as usize], c.id, version);
                let t0 = now_ns();
                let r = ctx.put(&key, &buf);
                let t1 = now_ns();
                let ok = match r {
                    Ok(()) => {
                        out.issued[op.key() as usize] = version as u32;
                        seen.acked(c.id, op.key(), version);
                        out.user_bytes += spec.value_len as u64;
                        true
                    }
                    Err(e) => {
                        fail(
                            &mut out,
                            format!("put {}: {e}", String::from_utf8_lossy(&key)),
                        );
                        false
                    }
                };
                (Kind::Put, t0, t1, ok)
            }
            // An empty namespace turns a delete into an insert (only
            // possible if deletes outran inserts by the whole preload).
            Kind::Insert | Kind::Delete if op.kind() == Kind::Insert || live.is_empty() => {
                let n = out.own_next;
                let key = own_key_name(c.id, n);
                value::fill(&mut buf, value::key_hash(&key), c.id, 1);
                let t0 = now_ns();
                let r = ctx.put(&key, &buf);
                let t1 = now_ns();
                let ok = match r {
                    Ok(()) => {
                        out.own_next += 1;
                        live.push_back(n);
                        out.user_bytes += spec.value_len as u64;
                        true
                    }
                    Err(e) => {
                        fail(
                            &mut out,
                            format!("insert {}: {e}", String::from_utf8_lossy(&key)),
                        );
                        false
                    }
                };
                (Kind::Insert, t0, t1, ok)
            }
            Kind::Insert | Kind::Delete => {
                let n = live.pop_front().expect("checked non-empty");
                let key = own_key_name(c.id, n);
                let t0 = now_ns();
                let r = ctx.delete(&key);
                let t1 = now_ns();
                let ok = match r {
                    Ok(()) => {
                        out.own_first = n + 1;
                        true
                    }
                    Err(e) => {
                        fail(
                            &mut out,
                            format!("delete {}: {e}", String::from_utf8_lossy(&key)),
                        );
                        false
                    }
                };
                (Kind::Delete, t0, t1, ok)
            }
        };
        if c.spans {
            let parent = out.log.push("op", t_iter, 0, 0, i as u32);
            let name = match kind {
                Kind::Get => "ctx.get",
                Kind::Put | Kind::Insert => "ctx.put",
                Kind::Delete => "ctx.delete",
            };
            out.log.push(name, t0, t1, parent, i as u32);
            out.log.close(parent);
        }
        if t1 >= c.measure_start {
            if t1 >= end {
                break;
            }
            out.attempted += 1;
            if ok {
                let since = t1 - c.measure_start;
                out.lat[kind as usize][(since / c.rep_ns) as usize]
                    .push((t1 - t0).min(u32::MAX as u64) as u32);
                out.windows[(since / BIN_NS) as usize] += 1;
            }
        }
    }
    out
}

/// One store, one warm-up, `reps` back-to-back repetitions. Clients run
/// continuously; a sample belongs to the repetition its completion time
/// falls in, so there is no barrier (and no idle gap) between them.
#[allow(clippy::too_many_arguments)]
pub fn run_leg(
    spec: &Spec,
    cfg: &DStoreConfig,
    seed: u64,
    warm_s: f64,
    rep_s: f64,
    reps: usize,
    spans: bool,
    setups: usize,
) -> Result<(Leg, Vec<f64>), String> {
    let khash: Vec<u64> = (0..spec.keys)
        .map(|k| value::key_hash(&key_name(k)))
        .collect();
    let place = Placement::new();
    // Set up several times and keep the last store: set-up time is an
    // end-to-end metric and one sample of it would be too noisy.
    let mut setup_times = Vec::new();
    let mut store = None;
    for _ in 0..setups.max(1) {
        drop(store.take());
        let (s, t) = set_up(spec, cfg, &khash, &place)?;
        setup_times.push(t);
        store = Some(s);
    }
    let store = store.expect("at least one set-up");

    // Pre-generate every client's op stream before the clock starts.
    let expected = ((warm_s + rep_s * reps as f64) * 400_000.0) as usize; // 4 B per op
    let streams: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(seed, 100 + c as u64);
            gen::op_stream(
                &mut rng,
                expected.max(10_000),
                spec.keys,
                &spec.dist,
                &spec.mixes[c as usize],
            )
        })
        .collect();

    let rep_ns = (rep_s * 1e9) as u64;
    let stop = AtomicBool::new(false);
    let t_start = now_ns();
    let measure_start = t_start + (warm_s * 1e9) as u64;
    let mut before = None;
    let mut after = None;
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(id, ops)| {
                let input = ClientIn {
                    id: id as u32,
                    spec,
                    khash: &khash,
                    ops,
                    measure_start,
                    rep_ns,
                    reps,
                    stop: &stop,
                    spans,
                };
                let (store, place) = (&store, &place);
                s.spawn(move || {
                    place.pin_client(input.id);
                    client(store, input)
                })
            })
            .collect();
        let sleep_until = |t: u64| {
            let now = now_ns();
            if t > now {
                std::thread::sleep(std::time::Duration::from_nanos(t - now));
            }
        };
        sleep_until(measure_start);
        before = store.telemetry_snapshot();
        sleep_until(measure_start + rep_ns * reps as u64);
        after = store.telemetry_snapshot();
        // Clients stop on their own at the end of the last repetition;
        // the flag only bounds a client stuck behind a slow operation.
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Ok((
        Leg {
            store,
            rep_ns,
            reps,
            measure_start,
            before: before.ok_or("telemetry is off")?,
            after: after.ok_or("telemetry is off")?,
            clients,
        },
        setup_times,
    ))
}

impl Leg {
    /// One repetition's samples of the given op classes, all clients.
    fn merged(&self, classes: &[Kind], rep: usize) -> Vec<u32> {
        self.clients
            .iter()
            .flat_map(|c| {
                classes
                    .iter()
                    .flat_map(move |k| c.lat[*k as usize][rep].iter().copied())
            })
            .collect()
    }

    /// Percentiles (µs) per repetition, `[percentile][repetition]`, with
    /// the pooled sample count.
    fn pct(&self, classes: &[Kind], ps: &[f64]) -> (Vec<Vec<f64>>, u64) {
        let reps: Vec<Vec<u32>> = (0..self.reps).map(|r| self.merged(classes, r)).collect();
        let n = reps.iter().map(|r| r.len() as u64).sum();
        (rep_percentiles_us(reps, ps), n)
    }

    pub fn ops_per_s(&self) -> Vec<f64> {
        (0..self.reps)
            .map(|r| {
                let n: usize = self
                    .clients
                    .iter()
                    .flat_map(|c| c.lat.iter().map(move |k| k[r].len()))
                    .sum();
                n as f64 / (self.rep_ns as f64 / 1e9)
            })
            .collect()
    }

    fn windows(&self) -> Vec<u32> {
        let n = (self.rep_ns * self.reps as u64 / BIN_NS) as usize;
        (0..n)
            .map(|w| self.clients.iter().map(|c| c.windows[w]).sum())
            .collect()
    }

    /// Quiesced read-back of everything against the clients' models: the
    /// value under a key must be some client's *final* write to it (or
    /// the preloaded one if nobody wrote), own-namespace objects must be
    /// exactly the live range.
    fn read_back(&self, spec: &Spec, out: &mut Outcome) {
        let ctx = self.store.context();
        let mut lost = 0u64;
        for k in 0..spec.keys {
            let key = key_name(k);
            out.attempted += 1;
            let khash = value::key_hash(&key);
            match ctx.get(&key).map_err(|e| e.to_string()).and_then(|v| {
                let h = value::check(&v, khash, spec.value_len, true).map_err(|b| describe(&b))?;
                let written = self.clients.iter().any(|c| c.issued[k as usize] > 0);
                let want = match h.writer {
                    PRELOAD_WRITER if !written => 1,
                    w if (w as usize) < self.clients.len() => {
                        self.clients[w as usize].issued[k as usize] as u64
                    }
                    _ => 0,
                };
                if h.version == want && want > 0 {
                    Ok(())
                } else {
                    lost += 1;
                    Err(describe(&Bad::NotFinal {
                        header: h,
                        expected_version: want,
                    }))
                }
            }) {
                Ok(()) => {}
                Err(e) => out.fail(format!("read-back {}: {e}", String::from_utf8_lossy(&key))),
            }
        }
        if spec.churns() {
            for (id, c) in self.clients.iter().enumerate() {
                for n in 0..c.own_next {
                    let key = own_key_name(id as u32, n);
                    out.attempted += 1;
                    let live = n >= c.own_first;
                    match (live, ctx.get(&key)) {
                        (true, Ok(v)) => {
                            if let Err(b) =
                                value::check(&v, value::key_hash(&key), spec.value_len, true)
                            {
                                out.fail(format!(
                                    "read-back {}: {}",
                                    String::from_utf8_lossy(&key),
                                    describe(&b)
                                ));
                            }
                        }
                        (false, Err(DsError::NotFound)) => {}
                        (true, Err(e)) => {
                            lost += 1;
                            out.fail(format!(
                                "read-back {}: acknowledged insert missing: {e}",
                                String::from_utf8_lossy(&key)
                            ));
                        }
                        (false, Ok(_)) => {
                            lost += 1;
                            out.fail(format!(
                                "read-back {}: acknowledged delete came back",
                                String::from_utf8_lossy(&key)
                            ));
                        }
                        (false, Err(e)) => {
                            out.fail(format!("read-back {}: {e}", String::from_utf8_lossy(&key)))
                        }
                    }
                }
            }
        }
        out.set("core.lost_acks", lost as f64, spec.keys as u64);
    }

    /// Per op class, lower quartile over repetitions; and the trough depth
    /// of the throughput timeline.
    fn class_percentiles(&self, out: &mut Outcome) {
        let windows = self.windows();
        out.set(
            "core.tput_floor_frac",
            floor_frac(&windows),
            windows.len() as u64,
        );
        for (kind, names) in [
            (
                Kind::Put,
                &[
                    ("core.put_p50_us", 50.0),
                    ("core.put_p99_us", 99.0),
                    ("core.put_p999_us", 99.9),
                ][..],
            ),
            (
                Kind::Get,
                &[("core.get_p50_us", 50.0), ("core.get_p99_us", 99.0)][..],
            ),
            (Kind::Insert, &[("core.insert_p50_us", 50.0)][..]),
            (Kind::Delete, &[("core.delete_p50_us", 50.0)][..]),
        ] {
            let ps: Vec<f64> = names.iter().map(|(_, p)| *p).collect();
            let (reps, n) = self.pct(&[kind], &ps);
            for ((name, _), reps) in names.iter().zip(&reps) {
                if n > 0 {
                    out.set_latency_reps(name, reps, n);
                }
            }
        }
    }

    fn fold_clients(&self, out: &mut Outcome) {
        for c in &self.clients {
            let failures = c
                .failures
                .iter()
                .map(|f| format!("client {}: {f}", c.log.tid));
            out.absorb(c.attempted, c.failed, failures);
            if c.wrapped {
                out.note(format!(
                    "client {} exhausted its pre-generated stream and wrapped around",
                    c.log.tid
                ));
            }
        }
    }
}

fn primary(spec: &Spec) -> Vec<Kind> {
    match spec.name {
        "put_4k" => vec![Kind::Put],
        "get_4k" => vec![Kind::Get],
        _ => vec![Kind::Get, Kind::Put, Kind::Insert, Kind::Delete],
    }
}

/// Cost of the load generator alone: the same loop body — key naming,
/// value fill, header check, model update, sample push — against a sink
/// that hands back a valid value without calling the store. The cost is
/// that of the cheapest batch: a burst of host interference during this
/// fraction of a second must not read as a heavy generator.
fn loadgen_ns_per_op(spec: &Spec, seed: u64) -> (f64, u64) {
    const OPS: usize = 200_000;
    const BATCH: usize = 10_000;
    let keys = spec.keys.min(50_000);
    let khash: Vec<u64> = (0..keys).map(|k| value::key_hash(&key_name(k))).collect();
    let mut rng = Rng::new(seed, 999);
    // The last client's mix: the heavier one where the clients differ.
    let ops = gen::op_stream(
        &mut rng,
        OPS,
        keys,
        &spec.dist,
        &spec.mixes[CLIENTS as usize - 1],
    );
    let mut seen = Seen::new(CLIENTS as usize, keys as usize);
    let mut issued = vec![0u32; keys as usize];
    let mut buf = vec![0u8; spec.value_len];
    let mut canned = vec![0u8; spec.value_len];
    value::fill(&mut canned, khash[0], PRELOAD_WRITER, 1);
    let mut lat: Vec<u32> = Vec::with_capacity(OPS);
    let mut sink = 0u64;
    let mut batch_start = Instant::now();
    let mut best = std::time::Duration::MAX;
    for (i, op) in ops.iter().enumerate() {
        let t0 = now_ns();
        match op.kind() {
            Kind::Get => {
                let key = key_name(op.key());
                let full = (i as u64).is_multiple_of(FULL_CHECK_EVERY);
                if let Ok(h) = value::check(&canned, khash[0], spec.value_len, full) {
                    sink ^= seen.observe(op.key(), h).is_ok() as u64;
                }
                sink ^= key[3] as u64;
            }
            Kind::Put => {
                let key = key_name(op.key());
                let v = issued[op.key() as usize] as u64 + 1;
                value::fill(&mut buf, khash[op.key() as usize], 0, v);
                issued[op.key() as usize] = v as u32;
                seen.acked(0, op.key(), v);
                sink ^= key[3] as u64 ^ buf[30] as u64;
            }
            Kind::Insert | Kind::Delete => {
                let key = own_key_name(0, i as u32);
                value::fill(&mut buf, value::key_hash(&key), 0, 1);
                sink ^= buf[30] as u64;
            }
        }
        lat.push((now_ns() - t0) as u32);
        if (i + 1) % BATCH == 0 {
            let now = Instant::now();
            best = best.min(now - batch_start);
            batch_start = now;
        }
    }
    std::hint::black_box((sink, &lat));
    (best.as_nanos() as f64 / BATCH as f64, OPS as u64)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = spec_for(&args.workload, args.smoke).ok_or("not an embedded workload")?;
    let mut out = Outcome::default();
    out.note("device time is the repo's calibrated spin model (LatencyModel::optane, SsdLatency::p4800x): latencies are the sandbox model's, not a device's");
    out.note(format!(
        "available_parallelism = {}, clients = {CLIENTS} (closed loop); {}",
        crate::nproc(),
        Placement::new().describe()
    ));
    let (lg_ns, lg_n) = loadgen_ns_per_op(&spec, args.seed);

    if !args.trace {
        let warm = args.seconds / 8.0;
        let rep = (args.seconds - warm) / REPS as f64;
        let (leg, setups) = run_leg(&spec, &spec.cfg, args.seed, warm, rep, REPS, false, 3)?;
        leg.fold_clients(&mut out);
        out.set_reps("setup_s", &setups, setups.len() as u64);
        let classes = primary(&spec);
        let ops = leg.ops_per_s();
        let n_ops = (ops.iter().sum::<f64>() * rep) as u64;
        out.set_reps("ops_per_s", &ops, n_ops);
        let (pcts, n) = leg.pct(&classes, &[50.0, 99.0]);
        for ((name, p), reps) in [("p50_us", 50.0), ("p99_us", 99.0)].into_iter().zip(&pcts) {
            out.set_latency_reps(name, reps, n);
            if beyond(n as usize / REPS, p) < 10 {
                out.note(format!(
                    "{name}: fewer than 10 samples beyond the percentile per repetition"
                ));
            }
        }
        leg.class_percentiles(&mut out);
        // Footprint after the run has quiesced.
        leg.store.wait_checkpoint_idle();
        let fp = leg.store.footprint();
        out.set(
            "space_amp",
            fp.total() as f64 / fp.logical_bytes.max(1) as f64,
            leg.store.object_count(),
        );
        leg.read_back(&spec, &mut out);
        out.set("peak_rss_mb", peak_rss_mb(std::process::id()), 1);
        // Free counters ride along in the untraced run too.
        let user_bytes = leg.clients.iter().map(|c| c.user_bytes).sum();
        Window {
            before: &leg.before,
            after: &leg.after,
            user_bytes_written: user_bytes,
            objects: leg.store.object_count(),
        }
        .counters_into(&mut out);
        out.set("loadgen.ns_per_op", lg_ns, lg_n);
        let share = lg_ns / (out.get("p50_us") * 1e3).max(1.0);
        out.set("loadgen.share_of_p50", share, lg_n);
        out.flag(
            "loadgen_not_limiting",
            share < crate::LOADGEN_MAX_SHARE,
            format!(
                "load generator {lg_ns:.0} ns/op is {:.1}% of p50 (limit {:.0}%)",
                share * 100.0,
                crate::LOADGEN_MAX_SHARE * 100.0
            ),
        );
        return Ok(out);
    }

    // Traced run: an untraced reference leg, then one repetition with
    // every op sampled in-program and a harness span around every call.
    let warm = args.seconds / 10.0;
    let rep = args.seconds * 0.35;
    let (reference, _) = run_leg(&spec, &spec.cfg, args.seed, warm, rep, 1, false, 1)?;
    let ref_ops = reference.ops_per_s()[0];
    reference.fold_clients(&mut out);
    drop(reference);

    let traced_cfg = spec.cfg.clone().with_trace(TraceConfig {
        sample_every: 1,
        ring_capacity: 1 << 18,
        ..TraceConfig::default()
    });
    let (leg, _) = run_leg(&spec, &traced_cfg, args.seed, warm, rep, 1, true, 1)?;
    leg.fold_clients(&mut out);
    let traced_ops = leg.ops_per_s()[0];
    out.set(
        "core.traced_ops_per_s",
        traced_ops,
        (traced_ops * rep) as u64,
    );
    out.set(
        "telemetry.trace_overhead_frac",
        1.0 - traced_ops / ref_ops.max(1.0),
        (ref_ops * rep) as u64,
    );

    let user_bytes = leg.clients.iter().map(|c| c.user_bytes).sum();
    Window {
        before: &leg.before,
        after: &leg.after,
        user_bytes_written: user_bytes,
        objects: leg.store.object_count(),
    }
    .counters_into(&mut out);
    let segs = layers::segment_means(&leg.after, leg.measure_start);
    segs.fill(&mut out);

    leg.class_percentiles(&mut out);

    // Attribution: the harness span around ctx.put/ctx.get against the
    // program's own account of the same operations (the flight recorder
    // keeps the most recent 2^18, so compare from its oldest trace on).
    let logs: Vec<&SpanLog> = leg.clients.iter().map(|c| &c.log).collect();
    for (op, span_name, span_metric, unattr_metric) in [
        (
            "put",
            "ctx.put",
            "core.put_span_ns",
            "core.unattributed_ns_per_put",
        ),
        (
            "get",
            "ctx.get",
            "core.get_span_ns",
            "core.unattributed_ns_per_get",
        ),
    ] {
        let Some((n_prog, prog_mean, seg_sum)) = segs.op(op) else {
            continue;
        };
        let (span_mean, n_span) = spans::mean_since(&logs, span_name, segs.first_start_ns);
        out.set(span_metric, span_mean, n_span);
        out.set(unattr_metric, span_mean - seg_sum, n_span);
        // The outside view must contain the inside one: the same
        // operations (counts agree but for the window's two edges), and
        // a harness span longer than the program's own account of it by
        // no more than the call, two clock reads and the flight-recorder
        // write that follows the program's end stamp.
        let gap = span_mean - prog_mean;
        out.flag(
            &format!("attribution_{op}"),
            n_prog.abs_diff(n_span) <= EDGE_OPS && gap >= 0.0 && gap <= (0.02 * span_mean).max(1_000.0),
            format!(
                "harness span mean {span_mean:.0} ns over {n_span} ops = in-program segments {seg_sum:.0} + in-program unattributed {:.0} + outside {gap:.0} ns; in-program traces {n_prog}",
                prog_mean - seg_sum
            ),
        );
    }
    let table = spans::self_times(&logs);
    for (name, t) in &table {
        out.note(format!(
            "span {name}: n={} mean {:.0} ns self {:.0} ns",
            t.count,
            t.total_ns as f64 / t.count.max(1) as f64,
            t.self_ns as f64 / t.count.max(1) as f64
        ));
    }
    if let Err(e) = spans::write_chrome_trace(
        &crate::out_dir().join(format!("trace.{}.json", spec.name)),
        spec.name,
        &logs,
    ) {
        out.note(format!("could not write the trace file: {e}"));
    }

    leg.store.wait_checkpoint_idle();
    leg.read_back(&spec, &mut out);
    let mism: u64 = leg.clients.iter().map(|c| c.mismatches).sum();
    out.set("core.verify_mismatches", mism as f64, out.attempted);
    out.set(
        "core.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    out.set("loadgen.ns_per_op", lg_ns, lg_n);
    let p50_us = leg.pct(&primary(&spec), &[50.0]).0[0][0];
    out.set(
        "loadgen.share_of_p50",
        lg_ns / (p50_us * 1e3).max(1.0),
        lg_n,
    );

    if spec.name == "put_4k" {
        fence_accounting(&leg.store, &spec, &mut out);
    }
    drop(leg);
    probes::run_all(&mut out);
    Ok(out)
}

/// The budget `micro_ops::fence_accounting` asserts, reproduced from
/// outside: one client, a fixed op count, an empty log so no checkpoint
/// runs — exactly 1 flush and 1 fence per put.
fn fence_accounting(store: &DStore, spec: &Spec, out: &mut Outcome) {
    const OPS: u64 = 2000;
    store.checkpoint_now();
    store.wait_checkpoint_idle();
    let ctx = store.context();
    let mut buf = vec![0u8; spec.value_len];
    let count = |s: &TelemetrySnapshot| {
        (
            s.counter_total("dstore_pmem_flushes_total"),
            s.counter_total("dstore_pmem_fences_total"),
        )
    };
    let Some(a) = store.telemetry_snapshot() else {
        return;
    };
    for i in 0..OPS {
        // Same-size overwrites of preloaded keys, like the measured puts.
        let key = key_name((i % 1024) as u32);
        value::fill(&mut buf, value::key_hash(&key), 0, u32::MAX as u64);
        if let Err(e) = ctx.put(&key, &buf) {
            out.fail(format!("fence accounting put: {e}"));
        }
    }
    let Some(b) = store.telemetry_snapshot() else {
        return;
    };
    let (f, s) = (count(&b).0 - count(&a).0, count(&b).1 - count(&a).1);
    out.flag(
        "fence_budget_1_flush_1_fence_per_put",
        f == OPS && s == OPS,
        format!(
            "{OPS} single-client puts: {f} flushes, {s} fences ({:.3}/{:.3} per put)",
            f as f64 / OPS as f64,
            s as f64 / OPS as f64
        ),
    );
}
