//! Flight-recorder end-to-end tests against a real store: sampled
//! segment breakdowns, SLO-only outlier retention, and an injection
//! test — a put that stalls on a full log behind a deliberately stalled
//! checkpoint flush is attributed to the checkpoint phase in BOTH
//! engines.

use dstore::{CheckpointMode, DStore, DStoreConfig, OpenMode};
use dstore_telemetry::{OpTrace, TailAttribution, TraceConfig, SEGMENT_NAMES};
use std::sync::Arc;

fn traced(cfg: DStoreConfig, sample_every: u64, slo_ns: u64) -> DStoreConfig {
    cfg.with_trace(TraceConfig {
        sample_every,
        slo_ns,
        ring_capacity: 8192,
    })
}

fn traces_of(store: &DStore) -> Vec<OpTrace> {
    store
        .telemetry_snapshot()
        .expect("telemetry is on")
        .all_traces("dstore_op_traces")
}

#[test]
fn sampled_traces_carry_segment_breakdowns() {
    // Sample every op, SLO retention off: everything in the ring is a
    // sampled trace with segment detail.
    let store = DStore::create(traced(DStoreConfig::small(), 1, 0)).unwrap();
    let ctx = store.context();
    let value = vec![0x5Au8; 4096];
    for i in 0..40 {
        ctx.put(format!("obj{i}").as_bytes(), &value).unwrap();
    }
    for i in 0..40 {
        ctx.get(format!("obj{i}").as_bytes()).unwrap();
    }
    {
        let h = ctx.open(b"obj0", OpenMode::Write).unwrap();
        h.write(b"patch", 0).unwrap();
        let mut buf = [0u8; 5];
        h.read(&mut buf, 0).unwrap();
    }
    ctx.delete(b"obj1").unwrap();

    let traces = traces_of(&store);
    assert_eq!(
        traces.len(),
        83,
        "40 puts + 40 gets + owrite + oread + delete"
    );
    for t in &traces {
        assert!(t.sampled, "sample_every=1 arms every op: {t:?}");
        assert!(!t.slo, "slo_ns=0 disables SLO marking: {t:?}");
        assert!(t.end_ns > t.start_ns, "non-empty duration: {t:?}");
        let seg_sum: u64 = t.seg_ns.iter().sum();
        assert!(
            seg_sum <= t.duration_ns(),
            "segments cannot exceed the op duration: {t:?}"
        );
        assert!(t.log_used_milli <= 1000);
        assert_eq!(t.phase, "idle", "no checkpoint ran during this test");
        assert!(
            ["put", "get", "delete", "owrite", "oread"].contains(&t.op),
            "unexpected op name {:?}",
            t.op
        );
    }
    // The write path actually attributes time: every put charges the
    // log-append and ssd-write segments.
    let seg = |name: &str| SEGMENT_NAMES.iter().position(|s| *s == name).unwrap();
    let puts: Vec<_> = traces.iter().filter(|t| t.op == "put").collect();
    assert!(puts.iter().all(|t| t.seg_ns[seg("log_append")] > 0));
    assert!(puts.iter().all(|t| t.seg_ns[seg("ssd_write")] > 0));
    let gets: Vec<_> = traces.iter().filter(|t| t.op == "get").collect();
    assert!(gets.iter().all(|t| t.seg_ns[seg("lookup")] > 0));
    assert!(gets.iter().all(|t| t.seg_ns[seg("ssd_read")] > 0));
    // Sequence numbers are the ring's own, dense and in order.
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(t.seq, i as u64);
    }
}

#[test]
fn slo_retention_keeps_unsampled_outliers() {
    // Sampling off (outliers only) with an absurdly low SLO: every op
    // is over threshold, retained without segment detail.
    let store = DStore::create(traced(DStoreConfig::small(), 0, 1)).unwrap();
    let ctx = store.context();
    for i in 0..20 {
        ctx.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    let traces = traces_of(&store);
    assert_eq!(traces.len(), 20);
    for t in &traces {
        assert!(t.slo, "1 ns SLO marks every op: {t:?}");
        assert!(!t.sampled, "sample_every=0 never arms");
        assert_eq!(
            t.seg_ns.iter().sum::<u64>(),
            0,
            "unsampled outliers carry no segment detail: {t:?}"
        );
    }
    // And a sane SLO retains nothing on a healthy store.
    let store = DStore::create(traced(DStoreConfig::small(), 0, 10_000_000_000)).unwrap();
    let ctx = store.context();
    for i in 0..20 {
        ctx.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    assert!(traces_of(&store).is_empty());
}

/// The injection test: stall every checkpoint's flush phase by tens of
/// milliseconds and drive concurrent writers through a tiny log with
/// automatic checkpoints off, so every checkpoint is one a full log
/// forced: the first put to find the log full always stalls. Every op is
/// traced, and the flight recorder must pin the blame on counts, not on
/// wall-clock thresholds: every put that stalled on the full log (a
/// non-zero `log_stall` segment) carries a non-idle checkpoint phase. The
/// stall ends once the checkpoint it forced is past its trigger, which
/// leaves the phase non-idle for at least the injected flush stall.
fn stalled_flush_attributes_outliers(mode: CheckpointMode) {
    const STALL_NS: u64 = 30_000_000; // 30 ms inside each flush
    let cfg = traced(
        DStoreConfig {
            log_size: 16 << 10, // checkpoints every ~100 puts
            ..DStoreConfig::small()
        }
        .with_checkpoint(mode)
        .with_auto_checkpoint(false),
        1, // every op: the ring holds all 600 puts
        0,
    );
    let store = Arc::new(DStore::create(cfg).unwrap());
    store.inject_checkpoint_flush_stall(STALL_NS);

    let threads: Vec<_> = (0..4)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let ctx = store.context();
                let value = vec![w as u8; 2048];
                for i in 0..150 {
                    // 64-byte keys keep the log filling quickly.
                    let key = format!("writer{w}-object-{i:048}");
                    ctx.put(key.as_bytes(), &value).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    store.wait_checkpoint_idle();
    assert!(
        store.checkpoints_completed() >= 2,
        "the tiny log must have forced checkpoints"
    );

    let traces = traces_of(&store);
    assert_eq!(traces.len(), 600, "every put is traced");
    let log_stall = SEGMENT_NAMES
        .iter()
        .position(|s| *s == "log_stall")
        .unwrap();
    let stalled: Vec<_> = traces.iter().filter(|t| t.seg_ns[log_stall] > 0).collect();
    assert!(
        !stalled.is_empty(),
        "{} checkpoints, yet no put found the log full",
        store.checkpoints_completed()
    );
    for t in &stalled {
        assert_ne!(
            t.phase, "idle",
            "a log-full stall blamed on no phase: {t:?}"
        );
    }

    // The Table 3 report built from the same ring renders the phase
    // overlap.
    let report = store
        .tail_attribution(50.0)
        .expect("traces retained, report available");
    assert!(report.render().contains("non-idle checkpoint phase"));
}

#[test]
fn stalled_flush_attributes_outliers_in_dipper() {
    stalled_flush_attributes_outliers(CheckpointMode::Dipper);
}

#[test]
fn stalled_flush_attributes_outliers_in_cow() {
    stalled_flush_attributes_outliers(CheckpointMode::Cow);
}

#[test]
fn tail_attribution_is_none_without_traces() {
    // Nothing sampled and nothing over the SLO: no trace retained yet.
    let store = DStore::create(traced(DStoreConfig::small(), 0, u64::MAX)).unwrap();
    store.context().put(b"k", b"v").unwrap();
    assert!(store.tail_attribution(99.0).is_none());
}

#[test]
fn tail_attribution_splits_body_and_tail() {
    let store = DStore::create(traced(DStoreConfig::small(), 1, 0)).unwrap();
    let ctx = store.context();
    let value = vec![1u8; 1024];
    for i in 0..100 {
        ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
    }
    let report: TailAttribution = store.tail_attribution(90.0).unwrap();
    assert_eq!(report.percentile_hundredths, 9000);
    assert_eq!(report.tail.ops + report.body.ops, 100);
    assert!(report.body.ops >= report.tail.ops);
    assert!(report.cut_ns > 0);
    let rendered = report.render();
    assert!(
        rendered.contains("log_append"),
        "table lists segments:\n{rendered}"
    );
}
