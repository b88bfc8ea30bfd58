//! `trace_dump`: the flight recorder's debugging workflow, end to end.
//!
//! Runs a small store under concurrent writers with a deliberately
//! stalled checkpoint flush (the paper's tail-latency villain), then
//! shows what the always-on tracing layer captured:
//!
//! 1. the tail-attribution table — a live reproduction of the paper's
//!    Table 3, splitting per-segment time between body and tail ops and
//!    counting how many tail ops overlapped a checkpoint phase;
//! 2. the retained outlier traces themselves (op, duration, phase,
//!    log fill);
//! 3. a Chrome trace-event / Perfetto JSON dump of the same ring —
//!    load it at <https://ui.perfetto.dev> for a zoomable timeline.
//!
//! ```text
//! cargo run --release -p dstore-shard --example trace_dump              # full run, JSON to trace.json
//! cargo run --release -p dstore-shard --example trace_dump -- --once   # abbreviated CI smoke
//! cargo run --release -p dstore-shard --example trace_dump -- --out /tmp/t.json
//! cargo run --release -p dstore-shard --example trace_dump -- \
//!     --post-mortem --data-dir /var/lib/dstore --shards 4 [--json]
//! ```
//!
//! `--once` validates its own Perfetto output (JSON shape + at least
//! one complete `"ph":"X"` op slice) and exits non-zero on failure —
//! the CI smoke for the exporter path.
//!
//! `--post-mortem` skips the live demo entirely: it opens the
//! file-backed image a `dstore_server` left behind (without recovering
//! it — the image stays exactly as the crash left it) and prints each
//! shard's exhumed crash report, human-readable or as a JSON array with
//! `--json`. The config flags must match the dead server's (`--shards`,
//! and the store config is assumed to be the binary's `--config small`
//! default) or the PMEM layouts disagree.

use dstore::{DStore, DStoreConfig};
use dstore_shard::{ShardedConfig, ShardedStore};
use dstore_telemetry::{to_perfetto, TraceConfig, SEGMENT_NAMES};
use std::sync::Arc;

/// Minimal structural check of a Chrome trace-event JSON string — no
/// serde in the tree, and CI only needs shape, not full parsing:
/// balanced brackets outside strings and at least one complete-event
/// op slice with the fields Perfetto requires.
fn validate_perfetto(json: &str) -> Result<usize, String> {
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in json.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return Err("unbalanced brackets".into());
        }
    }
    if depth != 0 || in_str {
        return Err(format!(
            "unterminated JSON (depth {depth}, in_str {in_str})"
        ));
    }
    if !json.contains("\"traceEvents\"") {
        return Err("missing traceEvents array".into());
    }
    let complete = json.matches("\"ph\":\"X\"").count();
    if complete == 0 {
        return Err("no complete (ph=X) slices".into());
    }
    for field in ["\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"] {
        if !json.contains(field) {
            return Err(format!("missing {field} field"));
        }
    }
    Ok(complete)
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        _ => format!("{:.2} ms", ns as f64 / 1e6),
    }
}

/// `--post-mortem`: exhume the black boxes of a dead (or cleanly
/// stopped) `dstore_server` image, offline. Read-only: the
/// log is scanned for its tail but never replayed, so running this
/// before the real recovery changes nothing.
fn post_mortem(data_dir: &str, shards: u32, json: bool) {
    // Mirror `dstore_server --config small`'s PMEM layout.
    let mut base = DStoreConfig::small();
    let dir = std::path::Path::new(data_dir);
    base.pmem_file = Some(dir.join("pmem.pool"));
    base.ssd_file = Some(dir.join("ssd.dev"));
    let cfg = ShardedConfig::new(shards, base);
    let reports = match ShardedStore::post_mortem(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("post-mortem failed: {e}");
            std::process::exit(1);
        }
    };
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
    println!("── post-mortem ── {data_dir} ── {shards} shards ──");
    for (shard, report) in reports.iter().enumerate() {
        match report {
            Some(r) => {
                println!("\nshard {shard}:");
                for line in r.render().lines() {
                    println!("  {line}");
                }
            }
            None => println!("\nshard {shard}: no report (black box absent or unreadable)"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let once = args.iter().any(|a| a == "--once");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if args.iter().any(|a| a == "--post-mortem") {
        let data_dir = args
            .iter()
            .position(|a| a == "--data-dir")
            .and_then(|i| args.get(i + 1))
            .expect("--post-mortem needs --data-dir PATH")
            .clone();
        let shards = args
            .iter()
            .position(|a| a == "--shards")
            .and_then(|i| args.get(i + 1))
            .map(|s| s.parse().expect("--shards must be a number"))
            .unwrap_or(4);
        let json = args.iter().any(|a| a == "--json");
        return post_mortem(&data_dir, shards, json);
    }

    // Small log so checkpoints fire often; sample 1 in 64 for segment
    // detail, retain anything over a 2 ms SLO.
    let cfg = DStoreConfig {
        log_size: 64 << 10,
        ..DStoreConfig::small()
    }
    .with_trace(TraceConfig {
        sample_every: 64,
        slo_ns: 2_000_000,
        ring_capacity: 8192,
    });
    let store = Arc::new(DStore::create(cfg).expect("create store"));
    // The villain: every checkpoint's flush phase stalls for 15 ms, so
    // writes that pile up behind it become SLO outliers.
    store.inject_checkpoint_flush_stall(15_000_000);

    let puts_per_writer = if once { 300 } else { 2000 };
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let ctx = store.context();
                let value = vec![w as u8; 2048];
                for i in 0..puts_per_writer {
                    let key = format!("writer{w}-object-{i:040}");
                    ctx.put(key.as_bytes(), &value).expect("put");
                    if i % 3 == 0 {
                        let _ = ctx.get(key.as_bytes());
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    store.wait_checkpoint_idle();

    // 1. Tail attribution: where does the p99 actually go?
    match store.tail_attribution(99.0) {
        Some(report) => println!("{}", report.render()),
        None => println!("no traces retained"),
    }

    // 2. The slowest retained outliers, with their blame stamps.
    let snap = store.telemetry_snapshot().expect("telemetry on");
    let mut traces = snap.all_traces("dstore_op_traces");
    traces.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
    println!("slowest retained traces (of {}):", traces.len());
    println!(
        "  {:<7}{:>10}   {:<8}{:>9}   top segment",
        "op", "duration", "phase", "log-fill"
    );
    for t in traces.iter().take(8) {
        let top = t
            .seg_ns
            .iter()
            .enumerate()
            .max_by_key(|(_, ns)| **ns)
            .filter(|(_, ns)| **ns > 0)
            .map(|(i, ns)| format!("{} {}", SEGMENT_NAMES[i], fmt_ns(*ns)))
            .unwrap_or_else(|| "- (unsampled outlier)".into());
        println!(
            "  {:<7}{:>10}   {:<8}{:>8.0}%   {}",
            t.op,
            fmt_ns(t.duration_ns()),
            t.phase,
            t.log_used_fraction() * 100.0,
            top
        );
    }

    // 3. Perfetto export.
    let json = to_perfetto(&snap);
    match validate_perfetto(&json) {
        Ok(n) => println!(
            "\nperfetto export: {} bytes, {n} complete slices",
            json.len()
        ),
        Err(e) => {
            eprintln!("perfetto export INVALID: {e}");
            std::process::exit(1);
        }
    }
    if once {
        assert!(
            !traces.is_empty(),
            "stalled checkpoints must retain outlier traces"
        );
        println!("trace_dump --once: ok");
        return;
    }
    let path = out_path.unwrap_or_else(|| "trace.json".into());
    std::fs::write(&path, &json).expect("write trace file");
    println!("wrote {path} — open it at https://ui.perfetto.dev");
}
