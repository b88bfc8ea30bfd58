//! Plain-data telemetry snapshots.
//!
//! A [`TelemetrySnapshot`] is the one intermediate representation every
//! producer renders *to* and every consumer renders *from*: the
//! registry snapshots into it, layers append hand-computed series
//! (device counters, store stats), shards relabel and absorb each
//! other's snapshots, and the exporters ([`crate::export`]) turn the
//! result into Prometheus text or JSON.

use crate::histogram::HistogramSnapshot;
use crate::span::Span;
use crate::trace::OpTrace;

/// Label pairs, sorted by key on render.
pub type Labels = Vec<(String, String)>;

/// One counter time series.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSeries {
    /// Metric name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// Monotonic value.
    pub value: u64,
}

/// One gauge time series.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSeries {
    /// Metric name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// Point-in-time value.
    pub value: f64,
}

/// One histogram time series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSeries {
    /// Metric name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// The histogram contents.
    pub hist: HistogramSnapshot,
}

/// One span-ring snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSeries {
    /// Ring name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// Spans, oldest first.
    pub spans: Vec<Span>,
}

/// One trace-ring snapshot (per-op flight recorder contents).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSeries {
    /// Ring name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// Retained traces, oldest first.
    pub traces: Vec<OpTrace>,
}

/// A point-in-time copy of every metric a store (or shard fleet)
/// exposes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// When the snapshot was taken, in [`crate::now_ns`] nanoseconds.
    pub taken_ns: u64,
    /// Counter series.
    pub counters: Vec<CounterSeries>,
    /// Gauge series.
    pub gauges: Vec<GaugeSeries>,
    /// Histogram series.
    pub histograms: Vec<HistogramSeries>,
    /// Span-ring series.
    pub spans: Vec<SpanSeries>,
    /// Trace-ring series (flight recorder).
    pub traces: Vec<TraceSeries>,
}

impl TelemetrySnapshot {
    /// An empty snapshot stamped with the current time.
    pub fn new() -> Self {
        TelemetrySnapshot {
            taken_ns: crate::now_ns(),
            ..Default::default()
        }
    }

    /// Appends a counter series.
    pub fn push_counter(&mut self, name: &str, labels: Labels, value: u64) {
        self.counters.push(CounterSeries {
            name: name.into(),
            labels,
            value,
        });
    }

    /// Appends a gauge series.
    pub fn push_gauge(&mut self, name: &str, labels: Labels, value: f64) {
        self.gauges.push(GaugeSeries {
            name: name.into(),
            labels,
            value,
        });
    }

    /// Appends a histogram series.
    pub fn push_histogram(&mut self, name: &str, labels: Labels, hist: HistogramSnapshot) {
        self.histograms.push(HistogramSeries {
            name: name.into(),
            labels,
            hist,
        });
    }

    /// Appends a span-ring series.
    pub fn push_spans(&mut self, name: &str, labels: Labels, spans: Vec<Span>) {
        self.spans.push(SpanSeries {
            name: name.into(),
            labels,
            spans,
        });
    }

    /// Appends a trace-ring series.
    pub fn push_traces(&mut self, name: &str, labels: Labels, traces: Vec<OpTrace>) {
        self.traces.push(TraceSeries {
            name: name.into(),
            labels,
            traces,
        });
    }

    /// Adds a label pair to every series — how a shard's snapshot is
    /// tagged `shard="3"` before aggregation.
    pub fn with_label(mut self, key: &str, value: &str) -> Self {
        let pair = (key.to_string(), value.to_string());
        for s in &mut self.counters {
            s.labels.push(pair.clone());
        }
        for s in &mut self.gauges {
            s.labels.push(pair.clone());
        }
        for s in &mut self.histograms {
            s.labels.push(pair.clone());
        }
        for s in &mut self.spans {
            s.labels.push(pair.clone());
        }
        for s in &mut self.traces {
            s.labels.push(pair.clone());
        }
        self
    }

    /// Moves every series of `other` into `self` (shard aggregation).
    pub fn absorb(&mut self, other: TelemetrySnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.spans.extend(other.spans);
        self.traces.extend(other.traces);
    }

    /// Sorts every series by (name, labels) for deterministic render.
    pub fn sort(&mut self) {
        let key = |name: &str, labels: &Labels| {
            let mut l = labels.clone();
            l.sort();
            (name.to_string(), l)
        };
        self.counters.sort_by_key(|s| key(&s.name, &s.labels));
        self.gauges.sort_by_key(|s| key(&s.name, &s.labels));
        self.histograms.sort_by_key(|s| key(&s.name, &s.labels));
        self.spans.sort_by_key(|s| key(&s.name, &s.labels));
        self.traces.sort_by_key(|s| key(&s.name, &s.labels));
    }

    /// Sum of all counter series with this name (any labels).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Sum of the counter series with this name that carry the label
    /// `key="value"` (e.g. one op of `dstore_ops_total`, or one shard).
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == value))
            .map(|s| s.value)
            .sum()
    }

    /// The first gauge series with this name, if any.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|s| s.name == name).map(|s| s.value)
    }

    /// All histogram series with this name merged into one (shard-wide
    /// aggregate for a dashboard row).
    pub fn merged_histogram(&self, name: &str) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::default();
        for s in self.histograms.iter().filter(|s| s.name == name) {
            acc.merge(&s.hist);
        }
        acc
    }

    /// All spans across series with this ring name, oldest first.
    pub fn all_spans(&self, name: &str) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.spans.iter().copied())
            .collect();
        out.sort_by_key(|s| (s.start_ns, s.seq));
        out
    }

    /// All traces across series with this ring name, oldest first —
    /// a fleet-wide timeline after shard snapshots are absorbed.
    pub fn all_traces(&self, name: &str) -> Vec<OpTrace> {
        let mut out: Vec<OpTrace> = self
            .traces
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.traces.iter().copied())
            .collect();
        out.sort_by_key(|t| (t.start_ns, t.seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_and_absorb_aggregate_shards() {
        let mut a = TelemetrySnapshot::new();
        a.push_counter("ops", vec![("op".into(), "put".into())], 10);
        let a = a.with_label("shard", "0");
        let mut b = TelemetrySnapshot::new();
        b.push_counter("ops", vec![("op".into(), "put".into())], 32);
        let b = b.with_label("shard", "1");
        let mut merged = a;
        merged.absorb(b);
        assert_eq!(merged.counter_total("ops"), 42);
        assert_eq!(merged.counter_with("ops", "shard", "1"), 32);
        assert_eq!(merged.counter_with("ops", "op", "put"), 42);
        assert_eq!(merged.counter_with("ops", "op", "get"), 0);
        assert_eq!(merged.counters.len(), 2);
        assert!(merged.counters[0]
            .labels
            .contains(&("shard".into(), "0".into())));
    }

    #[test]
    fn merged_histogram_spans_series() {
        let h1 = crate::LatencyHistogram::new();
        let h2 = crate::LatencyHistogram::new();
        for _ in 0..10 {
            h1.record(100);
            h2.record(10_000);
        }
        let mut s = TelemetrySnapshot::new();
        s.push_histogram("lat", vec![], h1.snapshot());
        s.push_histogram("lat", vec![], h2.snapshot());
        let m = s.merged_histogram("lat");
        assert_eq!(m.count, 20);
        assert!(m.percentile(99.0) >= 9_000);
    }
}
