//! The metrics registry: named counters, gauges, histograms, and span
//! rings with Prometheus-style labels.
//!
//! Registration hands back an `Arc` handle; *recording through the
//! handle is lock-free* (relaxed atomics on fixed storage). The registry
//! lock is taken only to register a new series or to snapshot — never on
//! an op path, which is what keeps the always-on overhead inside the
//! <5 % budget.

use crate::histogram::LatencyHistogram;
use crate::snapshot::{Labels, TelemetrySnapshot};
use crate::span::SpanRing;
use crate::trace::TraceRing;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge (f64 stored as bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Series key: name plus sorted label pairs.
type Key = (String, Labels);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

/// The registry. Cheap to share (`Arc` it); one per store.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<Key, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<Key, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<Key, Arc<LatencyHistogram>>>,
    spans: RwLock<BTreeMap<Key, Arc<SpanRing>>>,
    traces: RwLock<BTreeMap<Key, Arc<TraceRing>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or fetches) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let k = key(name, labels);
        if let Some(c) = self.counters.read().get(&k) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(k).or_default())
    }

    /// Registers `counter`, a handle its owner already counts into, under
    /// `name` (no labels), replacing whatever was registered there. How a
    /// layer that outlives the registry, such as a device, exports its
    /// counters.
    pub fn register_counter(&self, name: &str, counter: &Arc<Counter>) {
        self.counters
            .write()
            .insert(key(name, &[]), Arc::clone(counter));
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let k = key(name, labels);
        if let Some(g) = self.gauges.read().get(&k) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(k).or_default())
    }

    /// Registers (or fetches) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LatencyHistogram> {
        let k = key(name, labels);
        if let Some(h) = self.histograms.read().get(&k) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(k).or_default())
    }

    /// Registers (or fetches) a span ring. `capacity` applies only on
    /// first registration.
    pub fn span_ring(&self, name: &str, labels: &[(&str, &str)], capacity: usize) -> Arc<SpanRing> {
        let k = key(name, labels);
        if let Some(r) = self.spans.read().get(&k) {
            return Arc::clone(r);
        }
        Arc::clone(
            self.spans
                .write()
                .entry(k)
                .or_insert_with(|| Arc::new(SpanRing::new(capacity))),
        )
    }

    /// Registers (or fetches) a trace ring (per-op flight recorder).
    /// `capacity` applies only on first registration.
    pub fn trace_ring(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        capacity: usize,
    ) -> Arc<TraceRing> {
        let k = key(name, labels);
        if let Some(r) = self.traces.read().get(&k) {
            return Arc::clone(r);
        }
        Arc::clone(
            self.traces
                .write()
                .entry(k)
                .or_insert_with(|| Arc::new(TraceRing::new(capacity))),
        )
    }

    /// Snapshots every registered series.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut out = TelemetrySnapshot::new();
        for ((name, labels), c) in self.counters.read().iter() {
            out.push_counter(name, labels.clone(), c.get());
        }
        for ((name, labels), g) in self.gauges.read().iter() {
            out.push_gauge(name, labels.clone(), g.get());
        }
        for ((name, labels), h) in self.histograms.read().iter() {
            out.push_histogram(name, labels.clone(), h.snapshot());
        }
        for ((name, labels), r) in self.spans.read().iter() {
            out.push_spans(name, labels.clone(), r.snapshot());
        }
        for ((name, labels), r) in self.traces.read().iter() {
            out.push_traces(name, labels.clone(), r.snapshot());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("ops", &[("op", "put")]);
        // Label order must not matter.
        let b = r.counter("ops", &[("op", "put")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("ops"), 3);
    }

    #[test]
    fn registered_handle_is_the_series() {
        let r = MetricsRegistry::new();
        let owned = Arc::new(Counter::default());
        owned.add(5);
        r.register_counter("dev_bytes_total", &owned);
        owned.add(2);
        assert_eq!(r.snapshot().counter_total("dev_bytes_total"), 7);
        assert_eq!(r.counter("dev_bytes_total", &[]).get(), 7, "same handle");
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let r = MetricsRegistry::new();
        r.counter("ops", &[("op", "put")]).add(1);
        r.counter("ops", &[("op", "get")]).add(10);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counter_total("ops"), 11);
    }

    #[test]
    fn gauges_histograms_and_rings_snapshot() {
        let r = MetricsRegistry::new();
        r.gauge("fill", &[]).set(0.5);
        r.histogram("lat", &[]).record(1000);
        r.span_ring("phases", &[], 16).record("apply", 0, 10, 0, 0);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("fill"), Some(0.5));
        assert_eq!(snap.merged_histogram("lat").count, 1);
        assert_eq!(snap.all_spans("phases").len(), 1);
    }
}
