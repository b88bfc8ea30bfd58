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

#[test]
fn telemetry_off_disables_snapshots_but_not_health() {
    let store = DStore::create(DStoreConfig::small().with_telemetry(false)).unwrap();
    mixed_load(&store, 10);
    store.checkpoint_now();
    assert!(store.telemetry_snapshot().is_none());
    assert_eq!(store.checkpoint_phase(), "idle");
    let h = store.health();
    assert_eq!(h.checkpoint_panics, 0);
    assert!(h.checkpoints_completed >= 1);
    assert!(h.log_used_fraction >= 0.0);
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
