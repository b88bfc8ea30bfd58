//! End-to-end telemetry tests against a real store: checkpoint phase
//! spans in both engines, per-op histograms, recovery spans, health,
//! and the exporter paths.

use dstore::{CheckpointMode, DStore, DStoreConfig};
use dstore_telemetry::{to_json, to_prometheus};

fn mixed_load(store: &DStore, objects: usize) {
    let ctx = store.context();
    let value = vec![0xA5u8; 1024];
    for i in 0..objects {
        ctx.put(format!("obj{i}").as_bytes(), &value).unwrap();
    }
    for i in 0..objects {
        ctx.get(format!("obj{i}").as_bytes()).unwrap();
    }
}

/// The PR's acceptance criterion: after a checkpoint under load, the
/// span trace shows all four phases with non-zero durations.
fn assert_four_phases(cfg: DStoreConfig) {
    let store = DStore::create(cfg).unwrap();
    mixed_load(&store, 200);
    store.checkpoint_now();
    store.wait_checkpoint_idle();
    assert!(store.checkpoints_completed() >= 1);
    assert_eq!(store.checkpoint_phase(), "idle");

    let snap = store.telemetry_snapshot().expect("telemetry is on");
    let spans = snap.all_spans("dstore_checkpoint_spans");
    for phase in ["trigger", "apply", "flush", "swap"] {
        let found: Vec<_> = spans.iter().filter(|s| s.name == phase).collect();
        assert!(!found.is_empty(), "phase {phase} not recorded: {spans:?}");
        assert!(
            found.iter().all(|s| s.duration_ns() > 0),
            "phase {phase} has a zero-duration span: {found:?}"
        );
    }
    // Phases of one checkpoint appear in order on the shared timeline.
    let order: Vec<&str> = spans.iter().map(|s| s.name).collect();
    let first_of = |p: &str| order.iter().position(|n| *n == p).unwrap();
    assert!(first_of("trigger") < first_of("apply"));
    assert!(first_of("apply") < first_of("flush"));
    assert!(first_of("flush") < first_of("swap"));
}

#[test]
fn all_four_checkpoint_phases_in_dipper() {
    assert_four_phases(DStoreConfig::small());
}

#[test]
fn all_four_checkpoint_phases_in_cow() {
    assert_four_phases(DStoreConfig::small().with_checkpoint(CheckpointMode::Cow));
}

/// One checkpoint counts once, the same way, in either engine: the
/// store's count, its stats, its health and its exported counter.
#[test]
fn one_checkpoint_counts_once_everywhere_in_both_modes() {
    for mode in [CheckpointMode::Dipper, CheckpointMode::Cow] {
        let store = DStore::create(
            DStoreConfig::small()
                .with_checkpoint(mode)
                .with_auto_checkpoint(false),
        )
        .unwrap();
        mixed_load(&store, 50);
        let counts = |s: &DStore| {
            let total = s
                .telemetry_snapshot()
                .unwrap()
                .counter_total("dstore_checkpoints_completed_total");
            let h = s.health().checkpoints_completed;
            let c = s.checkpoints_completed();
            [c, s.checkpoint_stats().completed, h, total]
        };
        let before = counts(&store);
        let copied = store.checkpoint_stats().bytes_copied;
        store.checkpoint_now();
        store.wait_checkpoint_idle();
        let after = counts(&store);
        for (b, a) in before.iter().zip(after) {
            assert_eq!(a, b + 1, "{mode:?}: {before:?} → {after:?}");
        }
        assert!(
            store.checkpoint_stats().bytes_copied > copied,
            "{mode:?}: no bytes copied"
        );
        assert_eq!(store.checkpoint_phase(), "idle", "{mode:?}");
    }
}

#[test]
fn per_op_histograms_track_every_table2_op() {
    let store = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = store.context();
    for i in 0..50 {
        ctx.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    for i in 0..30 {
        ctx.get(format!("k{i}").as_bytes()).unwrap();
    }
    {
        let h = ctx.open(b"k0", dstore::OpenMode::Write).unwrap();
        h.write(b"xyz", 0).unwrap();
        let mut buf = [0u8; 3];
        h.read(&mut buf, 0).unwrap();
    }
    for i in 0..10 {
        ctx.delete(format!("k{i}").as_bytes()).unwrap();
    }

    let snap = store.telemetry_snapshot().unwrap();
    let count_of = |op: &str| {
        snap.histograms
            .iter()
            .find(|s| {
                s.name == "dstore_op_latency_ns" && s.labels.contains(&("op".into(), op.into()))
            })
            .map(|s| s.hist.count)
            .unwrap_or(0)
    };
    assert_eq!(count_of("put"), 50);
    assert_eq!(count_of("get"), 30);
    assert_eq!(count_of("delete"), 10);
    assert_eq!(count_of("owrite"), 1);
    assert_eq!(count_of("oread"), 1);
    // The histogram agrees with the plain counters exposed alongside.
    assert_eq!(snap.counter_total("dstore_ops_total"), 92);
    assert_eq!(snap.merged_histogram("dstore_op_latency_ns").count, 92);
}

#[test]
fn recovery_records_phase_spans() {
    let store = DStore::create(DStoreConfig::small()).unwrap();
    mixed_load(&store, 50);
    store.checkpoint_now();
    let ctx = store.context();
    ctx.put(b"tail", b"after checkpoint").unwrap();
    let image = store.crash();

    let store = DStore::recover(image).unwrap();
    assert_eq!(store.context().get(b"tail").unwrap(), b"after checkpoint");
    let snap = store.telemetry_snapshot().unwrap();
    let spans = snap.all_spans("dstore_recovery_spans");
    // Every recovery scans the log, copies the shadow image and replays
    // the active log (possibly zero records — the span is still recorded).
    for phase in ["scan", "copy", "replay"] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "recovery phase {phase} missing: {spans:?}"
        );
    }
    let replay = spans.iter().find(|s| s.name == "replay").unwrap();
    assert!(replay.b >= 1, "the tail put must be replayed");
}

/// Each layer's counters keep their own lifetime across `crash` →
/// `recover`: the pool and the device survive the crash, so theirs keep
/// counting; the log is attached anew, so its commit count restarts.
#[test]
fn device_counters_survive_recovery_and_log_counters_restart() {
    let store = DStore::create(DStoreConfig::small()).unwrap();
    mixed_load(&store, 20);
    store.context().put(b"block", &[7u8; 4096]).unwrap();
    let before = store.telemetry_snapshot().unwrap();
    let image = store.crash();

    let store = DStore::recover(image).unwrap();
    let after = store.telemetry_snapshot().unwrap();
    for name in ["dstore_pmem_fences_total", "dstore_ssd_write_bytes_total"] {
        let (b, a) = (before.counter_total(name), after.counter_total(name));
        assert!(b > 0 && a >= b, "{name}: {b} before the crash, {a} after");
    }
    assert!(before.counter_total("dstore_log_commit_batches_total") > 0);
    assert_eq!(after.counter_total("dstore_log_commit_batches_total"), 0);
    store.context().put(b"new", b"commit").unwrap();
    let snap = store.telemetry_snapshot().unwrap();
    assert_eq!(snap.counter_total("dstore_log_commit_batches_total"), 1);
}

#[test]
fn health_reflects_live_store() {
    let store = DStore::create(DStoreConfig::small()).unwrap();
    mixed_load(&store, 20);
    store.checkpoint_now();
    let h = store.health();
    assert_eq!(h.checkpoint_panics, 0);
    assert_eq!(h.checkpoint_phase, "idle");
    assert!(h.checkpoints_completed >= 1);
    assert_eq!(h.log_full_stalls, 0);
    assert_eq!(h.spans_dropped, 0);
}

#[test]
fn exporters_render_a_live_store_snapshot() {
    let store = DStore::create(DStoreConfig::small()).unwrap();
    mixed_load(&store, 25);
    store.checkpoint_now();
    store.wait_checkpoint_idle();
    let snap = store.telemetry_snapshot().unwrap();

    let prom = to_prometheus(&snap);
    for needle in [
        "# TYPE dstore_op_latency_ns histogram",
        "dstore_op_latency_ns_bucket{op=\"put\",le=\"+Inf\"}",
        "dstore_ops_total{op=\"put\"} 25",
        "# TYPE dstore_log_used_fraction gauge",
        "dstore_checkpoint_panics_total 0",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }

    let json = to_json(&snap);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains("\"dstore_checkpoint_spans\""));
    assert!(json.contains("\"phase\":\"apply\""));
}

/// Store-side series the benchmark harness reads
/// (`benchmark/src/{layers,server,embedded}.rs`), by kind. A rename here
/// without one there leaves a harness metric reading 0.
const HARNESS_COUNTERS: [&str; 15] = [
    "dstore_ops_total",
    "dstore_pmem_flushes_total",
    "dstore_pmem_fences_total",
    "dstore_pmem_flush_bytes_total",
    "dstore_pmem_bulk_write_bytes_total",
    "dstore_checkpoints_completed_total",
    "dstore_ssd_write_bytes_total",
    "dstore_ssd_read_bytes_total",
    "dstore_arena_alloc_stall_ns_total",
    "dstore_log_commit_batches_total",
    "dstore_log_commits_combined_total",
    "dstore_log_full_stalls_total",
    "dstore_log_torn_commits_total",
    "dstore_ww_conflicts_total",
    "dstore_rw_backoffs_total",
];
const HARNESS_GAUGES: [&str; 2] = ["dstore_arena_high_water_bytes", "dstore_ssd_blocks_used"];
/// Names the harness reads that no crate emits: its metrics over them
/// are constant 0 until the harness drops them.
const HARNESS_READS_UNEMITTED: [&str; 4] = [
    "dstore_pmem_elided_lines_total",
    "dstore_index_restarts_total",
    "dstore_index_latch_waits_total",
    "dstore_replay_serial_fallbacks_total",
];

/// Every series the harness reads is in a live snapshot under the name
/// it reads, and `dstore_ops_total{op}` is that op's histogram count —
/// an `oread` past the end of its object included.
#[test]
fn harness_series_names_are_emitted_and_op_counts_match_histograms() {
    let store = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = store.context();
    ctx.put(b"a", b"0123").unwrap();
    ctx.get(b"a").unwrap();
    {
        let h = ctx.open(b"a", dstore::OpenMode::Write).unwrap();
        h.write(b"xy", 1).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(h.read(&mut buf, 0).unwrap(), 4);
        assert_eq!(h.read(&mut buf, 4).unwrap(), 0, "read at EOF");
    }
    ctx.delete(b"a").unwrap();
    store.checkpoint_now();
    store.wait_checkpoint_idle();

    let snap = store.telemetry_snapshot().unwrap();
    let counter = |name: &str| snap.counters.iter().any(|s| s.name == name);
    let gauge = |name: &str| snap.gauges.iter().any(|s| s.name == name);
    for name in HARNESS_COUNTERS {
        assert!(counter(name), "counter {name} missing");
    }
    for name in HARNESS_GAUGES {
        assert!(gauge(name), "gauge {name} missing");
    }
    assert!(!snap.all_spans("dstore_checkpoint_spans").is_empty());
    assert!(snap.traces.iter().any(|s| s.name == "dstore_op_traces"));
    for name in HARNESS_READS_UNEMITTED {
        assert!(!counter(name), "{name} is emitted now: list it above");
    }

    let ops = ["put", "get", "delete", "owrite", "oread"];
    for op in ops {
        let hist = snap
            .histograms
            .iter()
            .find(|s| {
                s.name == "dstore_op_latency_ns" && s.labels.contains(&("op".into(), op.into()))
            })
            .unwrap_or_else(|| panic!("no histogram for {op}"));
        let count = snap.counter_with("dstore_ops_total", "op", op);
        assert_eq!(count, hist.hist.count, "{op}");
        assert_eq!(count, if op == "oread" { 2 } else { 1 }, "{op}");
    }
    assert_eq!(snap.counter_total("dstore_ops_total"), 6);
}
