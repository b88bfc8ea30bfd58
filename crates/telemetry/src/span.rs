//! A fixed-capacity, lock-free ring of phase spans.
//!
//! Checkpoint and recovery phases are recorded as [`Span`]s — a static
//! phase name, monotonic start/end timestamps ([`crate::now_ns`]), and
//! two free payload words (bytes, record counts). The ring keeps the
//! most recent `capacity` spans: writers claim slots with a CAS and
//! publish with a per-slot seqlock, so recording never blocks and a
//! snapshot never observes a torn span — a reader racing a writer simply
//! skips that slot. When the ring wraps, the oldest spans are silently
//! replaced; a writer that laps into a slot whose (descheduled) writer
//! is still mid-publish drops its span instead of waiting, counted in
//! [`SpanRing::dropped`]. The seqlock itself is the crate's one `ring`; this
//! module only encodes a span as its words and decodes it back.

use crate::ring::{static_str, str_words, SeqRing};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One recorded phase span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase name (e.g. `"checkpoint_apply"`).
    pub name: &'static str,
    /// Start, in [`crate::now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`crate::now_ns`] nanoseconds (≥ `start_ns`).
    pub end_ns: u64,
    /// First payload word (by convention: bytes processed).
    pub a: u64,
    /// Second payload word (by convention: records processed).
    pub b: u64,
    /// Global sequence number: the i-th span recorded into this ring.
    pub seq: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Words per span: name ptr, name len, start, end, a, b, seq.
const WORDS: usize = 7;

/// The ring. All methods are callable from any thread; `record` is
/// lock-free (one fetch_add + one CAS attempt).
#[derive(Debug)]
pub struct SpanRing(SeqRing<WORDS>);

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        SpanRing(SeqRing::new(capacity))
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Spans ever recorded (including since-overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Spans dropped due to lapping a stalled writer.
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }

    /// Records a completed span. Returns its global sequence number.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, a: u64, b: u64) -> u64 {
        self.0.record(|seq| {
            let [ptr, len] = str_words(name);
            [ptr, len, start_ns, end_ns, a, b, seq]
        })
    }

    /// The current contents, oldest first. Slots being concurrently
    /// rewritten are skipped — a snapshot never contains a torn span.
    pub fn snapshot(&self) -> Vec<Span> {
        self.0
            .snapshot()
            .into_iter()
            .map(|[ptr, len, start_ns, end_ns, a, b, seq]| Span {
                // SAFETY: the words came from `str_words` in `record`.
                name: unsafe { static_str(ptr, len) },
                start_ns,
                end_ns,
                a,
                b,
                seq,
            })
            .collect()
    }
}

/// A one-word "which phase is in flight" indicator: an index into a
/// static phase-name table. Index 0 is conventionally the idle state.
pub struct PhaseCell {
    names: &'static [&'static str],
    current: AtomicUsize,
}

impl PhaseCell {
    /// A cell over the given phase table (must be non-empty).
    pub fn new(names: &'static [&'static str]) -> Self {
        assert!(!names.is_empty());
        PhaseCell {
            names,
            current: AtomicUsize::new(0),
        }
    }

    /// Enters phase `idx` (clamped to the table).
    pub fn set(&self, idx: usize) {
        self.current
            .store(idx.min(self.names.len() - 1), Ordering::Release);
    }

    /// The current phase index.
    pub fn index(&self) -> usize {
        self.current.load(Ordering::Acquire)
    }

    /// The current phase name.
    pub fn name(&self) -> &'static str {
        self.names[self.index()]
    }

    /// The phase table.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }
}

impl std::fmt::Debug for PhaseCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhaseCell({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = SpanRing::new(8);
        for i in 0..5u64 {
            ring.record("phase", i * 10, i * 10 + 5, i, 0);
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 5);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.name, "phase");
            assert_eq!(s.duration_ns(), 5);
        }
    }

    #[test]
    fn phase_cell_tracks_current_phase() {
        static PHASES: [&str; 3] = ["idle", "apply", "flush"];
        let c = PhaseCell::new(&PHASES);
        assert_eq!(c.name(), "idle");
        c.set(2);
        assert_eq!(c.name(), "flush");
        c.set(99); // clamped
        assert_eq!(c.name(), "flush");
    }
}
