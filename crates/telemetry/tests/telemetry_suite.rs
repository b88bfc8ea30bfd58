//! Integration suite for `dstore-telemetry`: a Prometheus exposition
//! golden test, property tests for histogram merge/percentiles, and
//! span-ring wraparound/concurrency tests.

use dstore_telemetry::{
    to_prometheus, HistogramSnapshot, LatencyHistogram, SpanRing, TelemetrySnapshot,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------

/// The exact exposition text for a hand-built snapshot: label values
/// with every escapable character, name sanitization, TYPE lines, and
/// cumulated histogram buckets with `+Inf`/`_sum`/`_count`.
#[test]
fn prometheus_exposition_golden() {
    let mut s = TelemetrySnapshot::new();
    s.push_counter(
        "dstore_ops_total",
        vec![("op".into(), "put".into()), ("shard".into(), "0".into())],
        42,
    );
    s.push_counter("weird-name", vec![("path".into(), "a\\b\"c\nd".into())], 1);
    s.push_gauge("fill", vec![], 0.5);
    // 10 → slot with upper bound 10; 100 → slot with upper bound 100.
    let h = LatencyHistogram::new();
    h.record(10);
    h.record(10);
    h.record(10);
    h.record(100);
    s.push_histogram("lat", vec![], h.snapshot());

    let expected = "\
# TYPE dstore_ops_total counter
dstore_ops_total{op=\"put\",shard=\"0\"} 42
# TYPE weird_name counter
weird_name{path=\"a\\\\b\\\"c\\nd\"} 1
# TYPE fill gauge
fill 0.5
# TYPE lat histogram
lat_bucket{le=\"10\"} 3
lat_bucket{le=\"100\"} 4
lat_bucket{le=\"+Inf\"} 4
lat_sum 130
lat_count 4
";
    assert_eq!(to_prometheus(&s), expected);
}

/// Parses `name_bucket{...le="N"...} C` lines back out of the
/// exposition for one histogram series.
fn parse_buckets(text: &str, name: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&format!("{name}_bucket{{"))?;
            let le_start = rest.find("le=\"")? + 4;
            let le_end = le_start + rest[le_start..].find('"')?;
            let cum = rest.rsplit(' ').next()?.parse().ok()?;
            Some((rest[le_start..le_end].to_string(), cum))
        })
        .collect()
}

proptest! {
    /// For any sample set, the rendered buckets are cumulative
    /// (non-decreasing), ascending in `le`, and terminate at
    /// `+Inf == _count == sample count`.
    #[test]
    fn prop_prometheus_buckets_are_cumulative(
        values in prop::collection::vec(0u64..10_000_000_000, 1..200)
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut s = TelemetrySnapshot::new();
        s.push_histogram("lat", vec![], h.snapshot());
        let text = to_prometheus(&s);
        let buckets = parse_buckets(&text, "lat");
        prop_assert!(buckets.len() >= 2, "no buckets rendered:\n{text}");
        let mut prev_cum = 0u64;
        let mut prev_le = None::<u64>;
        for (le, cum) in &buckets {
            prop_assert!(*cum >= prev_cum, "cumulative count regressed:\n{text}");
            prev_cum = *cum;
            if le != "+Inf" {
                let le: u64 = le.parse().unwrap();
                if let Some(p) = prev_le {
                    prop_assert!(le > p, "le not ascending:\n{text}");
                }
                prev_le = Some(le);
            }
        }
        prop_assert_eq!(buckets.last().unwrap(), &("+Inf".to_string(), values.len() as u64));
    }

    // -----------------------------------------------------------------
    // Histogram merge / percentile properties
    // -----------------------------------------------------------------

    /// Recording a sample set split across two histograms and merging
    /// their snapshots is identical to recording everything into one.
    #[test]
    fn prop_snapshot_merge_equals_single_histogram(
        values in prop::collection::vec(0u64..10_000_000_000, 1..300),
        split in 0usize..300,
    ) {
        let split = split.min(values.len());
        let (left, right) = values.split_at(split);
        let (a, b, all) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for &v in left {
            a.record(v);
            all.record(v);
        }
        for &v in right {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        prop_assert_eq!(merged, all.snapshot());
    }

    /// Percentiles are monotone in `p`, p100 recovers the exact max,
    /// and every percentile stays within the structure's relative
    /// error of a true (sorted-order) percentile.
    #[test]
    fn prop_percentiles_are_monotone_and_bounded(
        values in prop::collection::vec(1u64..10_000_000_000, 1..300)
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(s.percentile(100.0), *sorted.last().unwrap());
        let mut prev = 0u64;
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0] {
            let got = s.percentile(p);
            prop_assert!(got >= prev, "percentile not monotone at p={p}");
            prev = got;
            // True percentile by the same ceil-rank rule the histogram
            // uses; the log-bucketed answer may exceed it by at most
            // one slot width (≤ ~1.6 %) and never undershoots it by
            // more than one slot either.
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let truth = sorted[rank - 1];
            prop_assert!(
                got as f64 <= truth as f64 * 1.02 + 1.0,
                "p{p}: got {got}, true {truth}"
            );
            prop_assert!(
                got as f64 >= truth as f64 * 0.98 - 1.0,
                "p{p}: got {got}, true {truth}"
            );
        }
    }

    /// `since` of two snapshots of the same histogram is exactly the
    /// snapshot of the samples recorded in between.
    #[test]
    fn prop_since_isolates_the_interval(
        first in prop::collection::vec(0u64..1_000_000, 0..100),
        second in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let h = LatencyHistogram::new();
        for &v in &first {
            h.record(v);
        }
        let early = h.snapshot();
        for &v in &second {
            h.record(v);
        }
        let delta = h.snapshot().since(&early);
        let only_second = LatencyHistogram::new();
        for &v in &second {
            only_second.record(v);
        }
        let mut expect = only_second.snapshot();
        // `since` keeps the later snapshot's all-time max (interval max
        // is unrecoverable from slot data); align before comparing.
        expect.max = h.snapshot().max;
        prop_assert_eq!(delta, expect);
    }
}

/// Merging an empty snapshot is the identity.
#[test]
fn merge_with_empty_is_identity() {
    let h = LatencyHistogram::new();
    for v in [3u64, 77, 4096, 1_000_000] {
        h.record(v);
    }
    let mut s = h.snapshot();
    s.merge(&HistogramSnapshot::default());
    assert_eq!(s, h.snapshot());
}

// ---------------------------------------------------------------------
// Span ring
// ---------------------------------------------------------------------

/// Wrapping the ring drops the oldest spans and keeps the newest
/// `capacity`, in seq order, payloads intact.
#[test]
fn span_ring_wraparound_keeps_newest() {
    let ring = SpanRing::new(8);
    for k in 0..20u64 {
        ring.record("wrap", k * 10, k * 10 + 5, k * 3, k * 7);
    }
    assert_eq!(ring.recorded(), 20);
    assert_eq!(ring.dropped(), 0);
    let spans = ring.snapshot();
    assert_eq!(spans.len(), 8);
    for (i, s) in spans.iter().enumerate() {
        let k = 12 + i as u64; // oldest surviving span is seq 12
        assert_eq!(s.seq, k);
        assert_eq!(s.start_ns, k * 10);
        assert_eq!(s.end_ns, k * 10 + 5);
        assert_eq!(s.a, k * 3);
        assert_eq!(s.b, k * 7);
        assert_eq!(s.name, "wrap");
    }
}

/// Concurrent writers lapping the ring while a reader snapshots: every
/// observed span is internally consistent (never a torn mix of two
/// writers' words), and the total accounting adds up.
#[test]
fn span_ring_concurrent_drops_but_never_tears() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 5_000;
    let ring = Arc::new(SpanRing::new(32));
    let done = Arc::new(AtomicBool::new(false));
    // Writers start only once the reader is running, and the reader
    // snapshots at least once after they finish: on a busy host the
    // reader may otherwise never be scheduled while they write.
    let reader_started = Arc::new(std::sync::Barrier::new(WRITERS as usize + 1));

    let reader = {
        let ring = Arc::clone(&ring);
        let done = Arc::clone(&done);
        let reader_started = Arc::clone(&reader_started);
        std::thread::spawn(move || {
            reader_started.wait();
            let mut snapshots = 0u64;
            loop {
                let last = done.load(Ordering::Acquire);
                for s in ring.snapshot() {
                    // Writers only ever publish (start, start+1,
                    // start^MASK, start) — any cross-writer tear breaks
                    // at least one of these equalities.
                    assert_eq!(s.end_ns, s.start_ns + 1, "torn span: {s:?}");
                    assert_eq!(s.a, s.start_ns ^ 0xDEAD_BEEF, "torn span: {s:?}");
                    assert_eq!(s.b, s.start_ns, "torn span: {s:?}");
                    assert_eq!(s.name, "stress");
                }
                snapshots += 1;
                if last {
                    break;
                }
            }
            snapshots
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            let reader_started = Arc::clone(&reader_started);
            std::thread::spawn(move || {
                reader_started.wait();
                for i in 0..PER_WRITER {
                    let k = w * PER_WRITER + i;
                    ring.record("stress", k, k + 1, k ^ 0xDEAD_BEEF, k);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0);

    assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
    // Dropping is legal under contention; silent loss beyond the drop
    // counter is not: the final quiescent snapshot holds a full ring.
    assert!(ring.dropped() <= ring.recorded());
    assert_eq!(ring.snapshot().len() as u64, 32.min(WRITERS * PER_WRITER));
}
