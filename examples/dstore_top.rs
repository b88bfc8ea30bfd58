//! `dstore_top`: a terminal dashboard over the telemetry snapshot API.
//!
//! Runs a small sharded store under a mixed background load and renders
//! a frame per second: fleet ops/s, per-op interval percentiles
//! (p50/p99/p9999), the checkpoint phase in flight per shard, log fill,
//! and per-shard operation skew — everything a production `top` for
//! DStore would show, all read through [`ShardedStore::telemetry_snapshot`].
//!
//! ```text
//! cargo run --release -p dstore-server --example dstore_top            # live, ctrl-C to stop
//! cargo run --release -p dstore-server --example dstore_top -- --once  # one frame (CI smoke)
//! cargo run --release -p dstore-server --example dstore_top -- --prometheus
//! cargo run --release -p dstore-server --example dstore_top -- --server 127.0.0.1:7878
//! ```
//!
//! `--prometheus` prints one Prometheus text exposition of the fleet
//! snapshot and exits — pipe it to a file for the node-exporter
//! textfile collector, or serve it from any HTTP endpoint to scrape.
//!
//! `--server <addr>` attaches to a running `dstore_server` instead of
//! spinning up an in-process store: every frame below is rendered from
//! the `health`/`telemetry_snapshot` RPCs over the wire, and
//! the dashboard gains the server-side view — per-RPC residency
//! percentiles, shard-queue depths, and per-RPC error/busy counters.
//! Combines with `--once` and `--prometheus`.
//!
//! `--post-mortem` (requires `--server`) pulls each shard's crash
//! report — the black box exhumed from the *previous* incarnation when
//! the server recovered — and prints it human-readable, or as JSON
//! with `--json`. See `trace_dump --post-mortem` for the offline
//! (image-only, no server) variant.

use dstore::DStoreConfig;
use dstore_protocol::DStoreClient;
use dstore_shard::{ShardedConfig, ShardedStore};
use dstore_telemetry::{
    rate_between, to_prometheus, HistogramSnapshot, TelemetrySnapshot, SEGMENT_NAMES,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: u32 = 4;
const OPS: [&str; 5] = ["put", "get", "delete", "owrite", "oread"];

/// All series of one op's latency histogram (by series name) merged
/// across shards/layers.
fn named_op_hist(snap: &TelemetrySnapshot, name: &str, op: &str) -> HistogramSnapshot {
    let tag = ("op".to_string(), op.to_string());
    let mut acc = HistogramSnapshot::default();
    for s in snap
        .histograms
        .iter()
        .filter(|s| s.name == name && s.labels.contains(&tag))
    {
        acc.merge(&s.hist);
    }
    acc
}

/// Store-side per-op latency, merged across shards.
fn op_hist(snap: &TelemetrySnapshot, op: &str) -> HistogramSnapshot {
    named_op_hist(snap, "dstore_op_latency_ns", op)
}

/// Fleet ops/s between two snapshots, from `dstore_ops_total`.
fn ops_rate(snap: &TelemetrySnapshot, prev: &TelemetrySnapshot) -> f64 {
    let ops = |s: &TelemetrySnapshot| s.counter_total("dstore_ops_total");
    rate_between(ops(snap), ops(prev), snap.taken_ns, prev.taken_ns)
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        _ => format!("{:.2} ms", ns as f64 / 1e6),
    }
}

fn frame(store: &ShardedStore, prev_snap: &TelemetrySnapshot) -> TelemetrySnapshot {
    let snap = store.telemetry_snapshot();

    println!("── dstore_top ── {} shards ──", store.shard_count());
    println!(
        "ops/s {:>12.0}    checkpoints {:>6}",
        ops_rate(&snap, prev_snap),
        store.checkpoints_completed(),
    );

    println!("\n  op        count       p50       p99     p9999   (interval)");
    for op in OPS {
        let delta = op_hist(&snap, op).since(&op_hist(prev_snap, op));
        if delta.count == 0 {
            continue;
        }
        let (p50, p99, _p999, p9999) = delta.paper_percentiles();
        println!(
            "  {:<7}{:>8}  {:>9}  {:>9}  {:>9}",
            op,
            delta.count,
            fmt_ns(p50),
            fmt_ns(p99),
            fmt_ns(p9999)
        );
    }

    println!("\n  shard   phase     log-fill     ops     skew");
    let totals: Vec<u64> = (0..SHARDS)
        .map(|i| snap.counter_with("dstore_ops_total", "shard", &i.to_string()))
        .collect();
    let mean = (totals.iter().sum::<u64>() as f64 / SHARDS as f64).max(1.0);
    for i in 0..SHARDS {
        let s = store.shard(i as usize);
        let fill = s.health().log_used_fraction;
        let bar_len = (fill * 10.0).round() as usize;
        println!(
            "  {:>5}   {:<8}  [{:<10}]  {:>6}  {:>5.2}x",
            i,
            s.checkpoint_phase(),
            "#".repeat(bar_len.min(10)),
            totals[i as usize],
            totals[i as usize] as f64 / mean,
        );
    }
    print_ordering(&snap, prev_snap);
    print_replay(&snap);
    print_outliers(&snap);
    let panics = snap.counter_total("dstore_checkpoint_panics_total");
    if panics > 0 {
        println!("\n  !! checkpoint panics: {panics}");
    }
    println!();
    snap
}

/// Flight-recorder outliers: the most recent SLO-busting ops across
/// the fleet, with the checkpoint phase each one overlapped and the
/// segment it spent the most time in — the live tail-debugging view
/// (`trace_dump` exports the same ring to Perfetto).
fn print_outliers(snap: &TelemetrySnapshot) {
    let mut outliers: Vec<(u64, String)> = snap
        .traces
        .iter()
        .filter(|s| s.name == "dstore_op_traces")
        .flat_map(|s| {
            let shard = s
                .labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "-".into());
            s.traces.iter().filter(|t| t.slo).map(move |t| {
                let top = t
                    .seg_ns
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, ns)| **ns)
                    .filter(|(_, ns)| **ns > 0)
                    .map(|(i, _)| SEGMENT_NAMES[i])
                    .unwrap_or("-");
                (
                    t.end_ns,
                    format!(
                        "  {:>5}   {:<7}{:>10}   {:<8}{:<12}{:>7.0}%",
                        shard,
                        t.op,
                        fmt_ns(t.duration_ns()),
                        t.phase,
                        top,
                        t.log_used_fraction() * 100.0,
                    ),
                )
            })
        })
        .collect();
    outliers.sort_by_key(|(end, _)| std::cmp::Reverse(*end));
    if !outliers.is_empty() {
        println!("\n  outliers (SLO-retained)  shard/op/duration/phase/top-seg/log-fill");
        for (_, line) in outliers.iter().take(5) {
            println!("{line}");
        }
    }
}

/// Ordering-tax panel: interval flushes-per-op / fences-per-op across
/// the fleet, plus the cache lines merged inside `persist_many` batches.
/// The per-op ratios are the live view of the fence budget
/// `commit_path.rs` asserts.
fn print_ordering(snap: &TelemetrySnapshot, prev: &TelemetrySnapshot) {
    let delta = |name: &str| {
        snap.counter_total(name)
            .saturating_sub(prev.counter_total(name))
    };
    let ops = delta("dstore_ops_total");
    if ops == 0 {
        return;
    }
    println!(
        "\n  ordering  flushes/op {:>6.2}   fences/op {:>6.2}   dedup lines {:>8}",
        delta("dstore_pmem_flushes_total") as f64 / ops as f64,
        delta("dstore_pmem_fences_total") as f64 / ops as f64,
        delta("dstore_pmem_dedup_lines_total"),
    );
}

/// RPCs carried by the wire protocol, in `dstore_server`'s label order.
const SERVER_OPS: [&str; 9] = [
    "put",
    "get",
    "update",
    "delete",
    "stat",
    "exists",
    "health",
    "telemetry_snapshot",
    "crash_report",
];

/// Replay-engine panel: the `dstore_replay_*` counters from the last
/// recovery — how many dependency windows and parallel groups the
/// replay planner built, how many records it pushed through them, how
/// many windows ran parallel, how many divergences it counted (anything
/// but 0 is a bug), and the time spent serialized. Windows not counted
/// parallel ran serial because only one CPU was usable.
fn print_replay(snap: &TelemetrySnapshot) {
    let records = snap.counter_total("dstore_replay_records_total");
    if records == 0 {
        return; // fresh store: nothing was replayed
    }
    println!(
        "\n  replay    records {:>8}   windows {:>6}   groups {:>6}   parallel {:>6}   divergences {:>4}   serialized {}",
        records,
        snap.counter_total("dstore_replay_windows_total"),
        snap.counter_total("dstore_replay_groups_total"),
        snap.counter_total("dstore_replay_parallel_windows_total"),
        snap.counter_total("dstore_replay_divergence_total"),
        fmt_ns(snap.counter_total("dstore_replay_serialized_ns_total")),
    );
}

/// One frame of the *remote* dashboard: everything here crossed the
/// socket via the health/telemetry RPCs — nothing is read from
/// process-local state, so the same view works against any reachable
/// `dstore_server`.
fn remote_frame(
    c: &mut DStoreClient,
    addr: &str,
    prev_snap: &TelemetrySnapshot,
) -> TelemetrySnapshot {
    let health = c.health().expect("health rpc");
    let snap = c.telemetry_snapshot().expect("telemetry rpc");

    println!("── dstore_top ── remote {addr} ──");
    println!(
        "ops/s {:>12.0}    admitted {:>10}    busy rejections {:>6}",
        ops_rate(&snap, prev_snap),
        snap.counter_total("dstore_server_requests_admitted"),
        snap.counter_total("dstore_server_busy_rejections"),
    );

    // Store-side op latency (interval), as in the local view.
    println!("\n  op        count       p50       p99     p9999   (store, interval)");
    for op in OPS {
        let delta = op_hist(&snap, op).since(&op_hist(prev_snap, op));
        if delta.count == 0 {
            continue;
        }
        let (p50, p99, _p999, p9999) = delta.paper_percentiles();
        println!(
            "  {:<7}{:>8}  {:>9}  {:>9}  {:>9}",
            op,
            delta.count,
            fmt_ns(p50),
            fmt_ns(p99),
            fmt_ns(p9999)
        );
    }

    // Server-side residency: admission → response encoded, the layer
    // the in-process dashboard cannot see.
    println!("\n  rpc       count       p50       p99     p9999   (server residency, interval)");
    for op in SERVER_OPS {
        let name = "dstore_server_op_latency_ns";
        let delta = named_op_hist(&snap, name, op).since(&named_op_hist(prev_snap, name, op));
        if delta.count == 0 {
            continue;
        }
        let (p50, p99, _p999, p9999) = delta.paper_percentiles();
        println!(
            "  {:<7}{:>8}  {:>9}  {:>9}  {:>9}",
            op,
            delta.count,
            fmt_ns(p50),
            fmt_ns(p99),
            fmt_ns(p9999)
        );
    }

    // Shard-queue depths: the backpressure surface.
    let mut depths: Vec<(String, f64)> = snap
        .gauges
        .iter()
        .filter(|g| g.name == "dstore_server_queue_depth")
        .map(|g| {
            let shard = g
                .labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "-".into());
            (shard, g.value)
        })
        .collect();
    depths.sort_by(|a, b| a.0.cmp(&b.0));
    if !depths.is_empty() {
        print!("\n  queue depth ");
        for (shard, depth) in &depths {
            print!(" {shard}:{depth:.0}");
        }
        println!();
    }

    // Error surface: every error response by RPC kind, plus the
    // dedicated busy counter (admission rejections + executor Busy).
    let errors: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|s| s.name == "dstore_server_errors_total" && s.value > 0)
        .map(|s| {
            let kind = s
                .labels
                .iter()
                .find(|(k, _)| k == "kind")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "-".into());
            (kind, s.value)
        })
        .collect();
    let busy = snap.counter_total("dstore_server_busy_total");
    if busy > 0 || !errors.is_empty() {
        print!("\n  errors      busy:{busy}");
        for (kind, n) in &errors {
            print!("  {kind}:{n}");
        }
        println!();
    }

    print_ordering(&snap, prev_snap);
    print_replay(&snap);
    print_outliers(&snap);
    if health.checkpoint_panics > 0 {
        println!("\n  !! checkpoint panics: {}", health.checkpoint_panics);
    }
    println!();
    snap
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let once = args.iter().any(|a| a == "--once");
    let prometheus = args.iter().any(|a| a == "--prometheus");
    let post_mortem = args.iter().any(|a| a == "--post-mortem");
    let json = args.iter().any(|a| a == "--json");
    let server = args
        .iter()
        .position(|a| a == "--server")
        .map(|i| args.get(i + 1).expect("--server needs an address").clone());

    if let Some(addr) = server {
        if post_mortem {
            return remote_post_mortem(&addr, json);
        }
        return remote_main(&addr, once, prometheus);
    }
    if post_mortem {
        eprintln!(
            "--post-mortem needs --server <addr> (or use trace_dump --post-mortem for offline images)"
        );
        std::process::exit(2);
    }

    let base = DStoreConfig {
        log_size: 1 << 20,
        ssd_pages: 16 * 1024,
        ..Default::default()
    };
    let store = Arc::new(
        ShardedStore::create(ShardedConfig::new(SHARDS, base)).expect("create sharded store"),
    );

    // Background mixed load: writers on skewed keys, a reader, and an
    // occasional partial-IO worker.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let ctx = store.context();
                let value = vec![w as u8; 1024];
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Zipf-ish skew: low keys far more often than high.
                    let k = (i * 2654435761 % 1000).min(i % 4000);
                    match w {
                        0 | 1 => ctx.put(format!("w{w}k{k}").as_bytes(), &value).unwrap(),
                        // Reader follows writer 0's key space.
                        _ => {
                            let _ = ctx.get(format!("w0k{k}").as_bytes());
                        }
                    }
                    i += 1;
                }
            })
        })
        .collect();

    let frames = if once { 2 } else { usize::MAX };
    let interval = Duration::from_millis(if once { 300 } else { 1000 });
    let mut prev_snap = store.telemetry_snapshot();
    for n in 0..frames {
        std::thread::sleep(interval);
        if !once && !prometheus {
            print!("\x1b[2J\x1b[H"); // clear screen between live frames
        }
        if prometheus {
            println!("{}", to_prometheus(&store.telemetry_snapshot()));
            break;
        }
        prev_snap = frame(&store, &prev_snap);
        if once && n + 1 == frames {
            break;
        }
    }

    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap();
    }
    if once {
        // CI smoke: prove the acceptance-level signals are flowing.
        let snap = store.telemetry_snapshot();
        assert!(snap.merged_histogram("dstore_op_latency_ns").count > 0);
        assert_eq!(snap.counter_total("dstore_checkpoint_panics_total"), 0);
        println!("dstore_top --once: ok");
    }
}

/// `--post-mortem`: ask the server for each shard's exhumed crash
/// report and render it. The report describes the *previous*
/// incarnation — what the store was doing when it last died.
fn remote_post_mortem(addr: &str, json: bool) {
    let mut c = DStoreClient::connect(addr).expect("connect to --server address");
    let reports = c.crash_report().expect("crash_report rpc");
    if json {
        let entries: Vec<String> = reports
            .iter()
            .map(|r| match r {
                Some(r) => r.to_json(),
                None => "null".into(),
            })
            .collect();
        println!("[{}]", entries.join(","));
        return;
    }
    println!(
        "── post-mortem ── remote {addr} ── {} shards ──",
        reports.len()
    );
    for (shard, report) in reports.iter().enumerate() {
        match report {
            Some(r) => {
                println!("\nshard {shard}:");
                for line in r.render().lines() {
                    println!("  {line}");
                }
            }
            None => {
                println!("\nshard {shard}: no report (fresh store, or a region without its magic)")
            }
        }
    }
}

/// `--server` mode: attach to a running `dstore_server` and render the
/// dashboard from its RPCs. No local store, no generated load — the
/// traffic on screen is whatever the server is actually serving.
fn remote_main(addr: &str, once: bool, prometheus: bool) {
    let mut c = DStoreClient::connect(addr).expect("connect to --server address");
    if prometheus {
        println!(
            "{}",
            to_prometheus(&c.telemetry_snapshot().expect("telemetry rpc"))
        );
        return;
    }

    let frames = if once { 2 } else { usize::MAX };
    let interval = Duration::from_millis(if once { 300 } else { 1000 });
    let mut prev_snap = c.telemetry_snapshot().expect("telemetry rpc");
    for n in 0..frames {
        std::thread::sleep(interval);
        if !once {
            print!("\x1b[2J\x1b[H");
        }
        prev_snap = remote_frame(&mut c, addr, &prev_snap);
        if once && n + 1 == frames {
            break;
        }
    }
    if once {
        // CI smoke: the observability RPCs answered over a real socket.
        assert!(
            prev_snap
                .merged_histogram("dstore_server_op_latency_ns")
                .count
                > 0
        );
        println!("dstore_top --server: ok");
    }
}
