//! Per-operation flight recorder: traces, sampling, and tail attribution.
//!
//! A histogram can show *that* a p9999 spike happened; only per-op
//! causality can show *which layer* caused it. This module records one
//! [`OpTrace`] per traced operation — wall-clock start/end plus a
//! fixed-segment time breakdown (log append, allocation, index update,
//! SSD data write, commit, …) — into a lock-free [`TraceRing`] with the
//! same seqlock ring as [`crate::SpanRing`]: recording never
//! blocks, and a snapshot never observes a torn trace.
//!
//! Two retention rules work together (see [`TraceSampler`]):
//!
//! * **sampling** — 1-in-N ops carry a full segment breakdown (the
//!   per-segment clock reads are paid only when armed);
//! * **SLO retention** — any op whose total latency exceeds the SLO
//!   threshold is *always* retained, so outliers are never lost to
//!   sampling. An unsampled outlier has no per-boundary segment detail
//!   (those clock reads are only paid when armed) but keeps any
//!   segment *pre-charged* with [`ActiveTrace::charge_at`] from
//!   timestamps the op path already held — e.g. `net_queue` on the
//!   server path — plus the checkpoint phase and log-fill stamps that
//!   tie it to concurrent checkpoint activity.
//!
//! [`TailAttribution`] aggregates retained traces into an above/below
//! percentile-cut segment comparison — a live reproduction of the
//! paper's Table 3 write breakdown, computed from production traffic.

use crate::now_ns;
use crate::ring::{static_str, str_words, SeqRing};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed trace segments, in pipeline order. Indices are stable public
/// API: exporters and dashboards may hard-code them.
pub const SEGMENT_NAMES: [&str; 11] = [
    "log_append",
    "alloc",
    "index",
    "ssd_write",
    "commit",
    "lookup",
    "ssd_read",
    "cc_wait",
    "log_stall",
    "log_flush",
    "net_queue",
];

/// Number of fixed segments.
pub const NUM_SEGMENTS: usize = SEGMENT_NAMES.len();

/// Sampler-count stride of the traces a store mirrors into its
/// crash-persistent black box: a sampled trace is mirrored only when its
/// op's [`TraceSampler::arm`] count is a multiple of this (SLO outliers
/// always are). At the default 1-in-1 024 sampling that is every sampled
/// trace; with every op sampled it is one op in 64, so the mirror's
/// fence stays off all but 1/64 of the ops.
pub const MIRROR_EVERY: u64 = 64;

/// PMEM op-log ordering: lock acquisition + slot reservation (LSN +
/// header stamp + conflict scan) — the serialized part of Fig. 4 ②.
pub const SEG_LOG_APPEND: usize = 0;
/// DRAM/arena block allocation, including allocator lock stalls (③④).
pub const SEG_ALLOC: usize = 1;
/// Metadata + B-tree index update (⑥⑦).
pub const SEG_INDEX: usize = 2;
/// SSD data block write (⑧).
pub const SEG_SSD_WRITE: usize = 3;
/// Commit-flag set + flush (⑨).
pub const SEG_COMMIT: usize = 4;
/// Read-path index lookup + entry decode.
pub const SEG_LOOKUP: usize = 5;
/// SSD data block read.
pub const SEG_SSD_READ: usize = 6;
/// Concurrency-control waits: W-W conflict backoff, reader drain,
/// checkpoint assist.
pub const SEG_CC_WAIT: usize = 7;
/// Stalls waiting for a log-full checkpoint to free log space.
pub const SEG_LOG_STALL: usize = 8;
/// Out-of-lock record body write — the parallel part of Fig. 4 ② (runs
/// concurrently with other appenders; the commit drain persists it).
pub const SEG_LOG_FLUSH: usize = 9;
/// Time a request spent queued in a network front door (`dstore-server`
/// shard queues) before the store began executing it. Charged by the
/// `*_enqueued` op entry points; zero for in-process callers, so
/// Table-3 tail attribution extends end-to-end over the network path.
pub const SEG_NET_QUEUE: usize = 10;

/// One completed, retained operation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTrace {
    /// Operation name (`"put"`, `"get"`, …).
    pub op: &'static str,
    /// Start, in [`crate::now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`crate::now_ns`] nanoseconds (≥ `start_ns`).
    pub end_ns: u64,
    /// Time charged to each segment ([`SEGMENT_NAMES`] order). For an
    /// unsampled SLO-retained outlier only segments pre-charged via
    /// [`ActiveTrace::charge_at`] (e.g. `net_queue`) are nonzero; the
    /// rest of its duration is unattributed.
    pub seg_ns: [u64; NUM_SEGMENTS],
    /// Checkpoint phase the op overlapped (e.g. `"idle"`, `"flush"`),
    /// from the engine's `PhaseCell`: the phase in flight at
    /// completion, falling back to the phase at op start when the
    /// checkpoint ended mid-op (ops stalled behind a checkpoint resume
    /// right after it goes idle; only the start stamp attributes them).
    pub phase: &'static str,
    /// Op-log fill at completion, in thousandths (0..=1000).
    pub log_used_milli: u32,
    /// Whether the 1-in-N sampler armed this op (segment detail
    /// present).
    pub sampled: bool,
    /// Whether the op exceeded the latency SLO threshold.
    pub slo: bool,
    /// Global sequence number: the i-th trace recorded into its ring.
    pub seq: u64,
}

impl OpTrace {
    /// Total duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration not charged to any segment (the whole duration for an
    /// unsampled outlier; instrumentation gaps for a sampled one).
    pub fn unattributed_ns(&self) -> u64 {
        self.duration_ns()
            .saturating_sub(self.seg_ns.iter().sum::<u64>())
    }

    /// Op-log fill at completion as a fraction.
    pub fn log_used_fraction(&self) -> f64 {
        f64::from(self.log_used_milli) / 1000.0
    }
}

/// An in-flight trace being built on an op path's stack.
///
/// Created per op with [`ActiveTrace::start`] (or
/// [`ActiveTrace::disabled`] for an untraced op). The op path calls
/// [`ActiveTrace::mark`] at segment boundaries: each mark charges the
/// time since the previous boundary to the given segment, *reading the
/// clock only when the trace is armed* — an unarmed op pays one branch
/// per boundary and nothing else, which is what keeps 1-in-N sampling
/// within the tracing overhead budget. Marks accumulate, so a retried
/// iteration (W-W conflict, log-full stall) adds to the same segment.
#[derive(Debug, Clone, Copy)]
pub struct ActiveTrace {
    op: &'static str,
    start_ns: u64,
    last_ns: u64,
    armed: bool,
    mirror: bool,
    start_phase: &'static str,
    seg_ns: [u64; NUM_SEGMENTS],
}

impl ActiveTrace {
    /// A no-op trace: every method is a cheap early return and
    /// [`ActiveTrace::finish`] yields `None`.
    pub const fn disabled() -> Self {
        ActiveTrace {
            op: "",
            start_ns: 0,
            last_ns: 0,
            armed: false,
            mirror: false,
            start_phase: "",
            seg_ns: [0; NUM_SEGMENTS],
        }
    }

    /// Starts a trace for `op` at `start_ns` (a timestamp the caller
    /// already read for its latency histogram — the coalescing that
    /// keeps the unarmed path at zero extra clock reads). `armed` comes
    /// from [`TraceSampler::arm`]: `Some(count)` arms the op, and a count
    /// that is a multiple of [`MIRROR_EVERY`] also marks it for the
    /// black box.
    pub fn start(op: &'static str, armed: Option<u64>, start_ns: u64) -> Self {
        ActiveTrace {
            op,
            // now_ns() can legitimately return 0 on its very first
            // call; nudge so 0 stays reserved for "disabled".
            start_ns: start_ns.max(1),
            last_ns: start_ns.max(1),
            armed: armed.is_some(),
            mirror: armed.is_some_and(|n| n.is_multiple_of(MIRROR_EVERY)),
            start_phase: "",
            seg_ns: [0; NUM_SEGMENTS],
        }
    }

    /// Records the background phase (e.g. the checkpoint phase) in
    /// flight when the op began. The finisher consults it when the
    /// completion-time phase is uninformative: an op stalled *behind* a
    /// checkpoint resumes right after the checkpoint goes idle, and
    /// only the start-time stamp still attributes it.
    #[inline]
    pub fn set_start_phase(&mut self, phase: &'static str) {
        self.start_phase = phase;
    }

    /// The phase recorded by [`ActiveTrace::set_start_phase`] (`""` if
    /// never set).
    #[inline]
    pub fn start_phase(&self) -> &'static str {
        self.start_phase
    }

    /// Whether this op carries segment detail.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Whether this op's trace, if retained, is also mirrored into the
    /// black box (see [`MIRROR_EVERY`]).
    #[inline]
    pub fn mirror(&self) -> bool {
        self.mirror
    }

    /// Charges the time since the previous boundary to `seg`. One
    /// branch when unarmed; one clock read when armed.
    #[inline]
    pub fn mark(&mut self, seg: usize) {
        if self.armed {
            self.mark_at(seg, now_ns());
        }
    }

    /// [`ActiveTrace::mark`] with a caller-provided timestamp (when the
    /// op path already read the clock for another instrument).
    #[inline]
    pub fn mark_at(&mut self, seg: usize, now: u64) {
        if self.armed {
            self.seg_ns[seg] += now.saturating_sub(self.last_ns);
            self.last_ns = now;
        }
    }

    /// [`ActiveTrace::mark_at`] that charges **even when unarmed** —
    /// for boundaries whose timestamps the op path holds anyway, so the
    /// segment costs nothing extra to record. An SLO-retained outlier
    /// then carries this segment despite having no sampled detail: the
    /// server's `net_queue` wait (admission timestamp rides in on the
    /// request) stays attributable on exactly the slow ops that matter.
    #[inline]
    pub fn charge_at(&mut self, seg: usize, now: u64) {
        if self.start_ns == 0 {
            return; // disabled
        }
        self.seg_ns[seg] += now.saturating_sub(self.last_ns);
        self.last_ns = now;
    }

    /// Discards the time since the previous boundary (time that belongs
    /// to no segment, e.g. between retry iterations).
    #[inline]
    pub fn skip_to(&mut self, now: u64) {
        if self.armed {
            self.last_ns = now;
        }
    }

    /// Completes the trace at `end_ns`, charging the remainder to
    /// `last_seg` if armed. Returns the trace if it must be retained —
    /// armed, or over the `slo_ns` threshold (`slo_ns == 0` disables
    /// SLO retention) — with `phase`/`log_used_milli` left for the
    /// caller to stamp before recording.
    pub fn finish(mut self, last_seg: usize, end_ns: u64, slo_ns: u64) -> Option<OpTrace> {
        if self.start_ns == 0 {
            return None;
        }
        if self.armed {
            self.seg_ns[last_seg] += end_ns.saturating_sub(self.last_ns);
        }
        let duration = end_ns.saturating_sub(self.start_ns);
        let slo = slo_ns > 0 && duration >= slo_ns;
        if !self.armed && !slo {
            return None;
        }
        Some(OpTrace {
            op: self.op,
            start_ns: self.start_ns,
            end_ns,
            seg_ns: self.seg_ns,
            phase: "",
            log_used_milli: 0,
            sampled: self.armed,
            slo,
            seq: 0,
        })
    }
}

/// The 1-in-N arming decision plus the SLO threshold, shared by every
/// op path of a store.
#[derive(Debug)]
pub struct TraceSampler {
    sample_every: u64,
    slo_ns: u64,
    counter: AtomicU64,
}

impl TraceSampler {
    /// A sampler arming every `sample_every`-th op (0 = never arm) with
    /// SLO retention at `slo_ns` (0 = never retain by SLO).
    pub fn new(sample_every: u64, slo_ns: u64) -> Self {
        TraceSampler {
            sample_every,
            slo_ns,
            counter: AtomicU64::new(0),
        }
    }

    /// Whether the next op carries full segment detail: `Some` of its
    /// sampler count (ops seen before it) when armed. One relaxed
    /// `fetch_add` — the only cost tracing adds to an unarmed op.
    #[inline]
    pub fn arm(&self) -> Option<u64> {
        if self.sample_every == 0 {
            return None;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.sample_every).then_some(n)
    }

    /// The SLO retention threshold in nanoseconds.
    #[inline]
    pub fn slo_ns(&self) -> u64 {
        self.slo_ns
    }
}

/// Tracing configuration, embedded in a store's config. The flight
/// recorder is always on; these set how much it retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Arm full segment detail on every N-th op (0 = outliers only).
    pub sample_every: u64,
    /// Retain any op slower than this, regardless of sampling
    /// (0 disables SLO retention).
    pub slo_ns: u64,
    /// Flight-recorder ring capacity (most recent retained traces).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 1024,
            slo_ns: 1_000_000,
            ring_capacity: 4096,
        }
    }
}

/// Words per trace: start, end, NUM_SEGMENTS segment times, op ptr,
/// op len, phase ptr, phase len, packed flags, seq.
const WORDS: usize = 2 + NUM_SEGMENTS + 2 + 2 + 1 + 1;
/// Index of the first word after the segment times.
const BASE: usize = 2 + NUM_SEGMENTS;

/// The flight recorder: a fixed-capacity, lock-free ring of the most
/// recent retained [`OpTrace`]s, on the same seqlock as
/// [`crate::SpanRing`]: writers claim slots with a CAS and publish with
/// a per-slot version, readers skip slots mid-publish, and a writer
/// lapping a stalled writer drops its trace rather than blocking.
#[derive(Debug)]
pub struct TraceRing(SeqRing<WORDS>);

impl TraceRing {
    /// A ring holding the most recent `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing(SeqRing::new(capacity))
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Traces ever recorded (including since-overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Traces dropped due to lapping a stalled writer.
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }

    /// Records a retained trace (`t.seq` is assigned here). Returns its
    /// global sequence number.
    pub fn record(&self, t: &OpTrace) -> u64 {
        self.0.record(|seq| {
            let mut w = [0u64; WORDS];
            w[0] = t.start_ns;
            w[1] = t.end_ns;
            w[2..BASE].copy_from_slice(&t.seg_ns);
            w[BASE..BASE + 2].copy_from_slice(&str_words(t.op));
            w[BASE + 2..BASE + 4].copy_from_slice(&str_words(t.phase));
            w[BASE + 4] = (u64::from(t.log_used_milli) << 32)
                | (u64::from(t.sampled) << 1)
                | u64::from(t.slo);
            w[BASE + 5] = seq;
            w
        })
    }

    /// The current contents, oldest first. Slots being concurrently
    /// rewritten are skipped — a snapshot never contains a torn trace.
    pub fn snapshot(&self) -> Vec<OpTrace> {
        self.0
            .snapshot()
            .into_iter()
            .map(|w| {
                let mut seg_ns = [0u64; NUM_SEGMENTS];
                seg_ns.copy_from_slice(&w[2..BASE]);
                let packed = w[BASE + 4];
                // SAFETY (both names): the words came from `str_words`
                // in `record`.
                OpTrace {
                    op: unsafe { static_str(w[BASE], w[BASE + 1]) },
                    start_ns: w[0],
                    end_ns: w[1],
                    seg_ns,
                    phase: unsafe { static_str(w[BASE + 2], w[BASE + 3]) },
                    log_used_milli: (packed >> 32) as u32,
                    sampled: packed & 0b10 != 0,
                    slo: packed & 0b01 != 0,
                    seq: w[BASE + 5],
                }
            })
            .collect()
    }
}

/// Per-segment aggregate over one side of a percentile cut.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentBreakdown {
    /// Traces aggregated.
    pub ops: u64,
    /// Of which carried segment detail (were sampled).
    pub sampled_ops: u64,
    /// Sum of total durations.
    pub total_ns: u64,
    /// Sum of per-segment time ([`SEGMENT_NAMES`] order).
    pub seg_ns: [u64; NUM_SEGMENTS],
    /// Traces contributing to each segment's mean: sampled traces
    /// count everywhere (their zeros are real measurements); unsampled
    /// outliers count only where pre-charged
    /// ([`ActiveTrace::charge_at`]).
    pub seg_ops: [u64; NUM_SEGMENTS],
    /// Sum of time charged to no segment.
    pub unattributed_ns: u64,
    /// Traces stamped with a non-`"idle"` checkpoint phase.
    pub non_idle_phase_ops: u64,
}

impl SegmentBreakdown {
    fn add(&mut self, t: &OpTrace) {
        self.ops += 1;
        self.sampled_ops += u64::from(t.sampled);
        self.total_ns += t.duration_ns();
        for (i, (acc, ns)) in self.seg_ns.iter_mut().zip(t.seg_ns).enumerate() {
            *acc += ns;
            if t.sampled || ns > 0 {
                self.seg_ops[i] += 1;
            }
        }
        self.unattributed_ns += t.unattributed_ns();
        if !t.phase.is_empty() && t.phase != "idle" {
            self.non_idle_phase_ops += 1;
        }
    }

    /// Mean total duration per op, ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.ops).unwrap_or(0)
    }

    /// Mean time in segment `seg` per op *that measured it*, ns —
    /// sampled traces everywhere, unsampled outliers only where
    /// pre-charged. Traces blind to a segment would dilute its mean.
    pub fn mean_seg_ns(&self, seg: usize) -> u64 {
        self.seg_ns[seg].checked_div(self.seg_ops[seg]).unwrap_or(0)
    }
}

/// Per-segment time for ops above vs. below a percentile cut — a live
/// reproduction of the paper's Table 3 write breakdown, computed from
/// the flight recorder instead of a bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailAttribution {
    /// The percentile the cut was taken at, in hundredths (9900 =
    /// p99.00) — integer so the report stays `Eq`/hashable.
    pub percentile_hundredths: u32,
    /// Duration at the cut, ns.
    pub cut_ns: u64,
    /// Ops strictly above the cut.
    pub tail: SegmentBreakdown,
    /// Ops at or below the cut.
    pub body: SegmentBreakdown,
}

impl TailAttribution {
    /// Builds the report from retained traces at the given percentile
    /// (e.g. `99.0`). Traces of different ops may be mixed; filter
    /// first for a per-op table.
    pub fn from_traces(traces: &[OpTrace], percentile: f64) -> Self {
        let percentile = percentile.clamp(0.0, 100.0);
        let mut durations: Vec<u64> = traces.iter().map(OpTrace::duration_ns).collect();
        durations.sort_unstable();
        let cut_ns = if durations.is_empty() {
            0
        } else {
            let rank = (percentile / 100.0 * durations.len() as f64).ceil() as usize;
            durations[rank.saturating_sub(1).min(durations.len() - 1)]
        };
        let mut tail = SegmentBreakdown::default();
        let mut body = SegmentBreakdown::default();
        for t in traces {
            if t.duration_ns() > cut_ns {
                tail.add(t);
            } else {
                body.add(t);
            }
        }
        TailAttribution {
            percentile_hundredths: (percentile * 100.0).round() as u32,
            cut_ns,
            tail,
            body,
        }
    }

    /// Renders a terminal table: mean per-segment time for body vs.
    /// tail ops, plus phase-overlap counts.
    pub fn render(&self) -> String {
        let fmt_ns = |ns: u64| match ns {
            0..=9_999 => format!("{ns} ns"),
            10_000..=9_999_999 => format!("{:.1} µs", ns as f64 / 1e3),
            _ => format!("{:.2} ms", ns as f64 / 1e6),
        };
        let mut out = format!(
            "tail attribution (p{} cut {} · {} tail / {} body ops)\n",
            self.percentile_hundredths as f64 / 100.0,
            fmt_ns(self.cut_ns),
            self.tail.ops,
            self.body.ops,
        );
        out.push_str(&format!(
            "  {:<14}{:>12}{:>12}\n",
            "segment", "body/op", "tail/op"
        ));
        for (i, name) in SEGMENT_NAMES.iter().enumerate() {
            let (b, t) = (self.body.mean_seg_ns(i), self.tail.mean_seg_ns(i));
            if b == 0 && t == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<14}{:>12}{:>12}\n",
                name,
                fmt_ns(b),
                fmt_ns(t)
            ));
        }
        out.push_str(&format!(
            "  {:<14}{:>12}{:>12}\n",
            "total",
            fmt_ns(self.body.mean_ns()),
            fmt_ns(self.tail.mean_ns())
        ));
        out.push_str(&format!(
            "  non-idle checkpoint phase: {}/{} tail, {}/{} body\n",
            self.tail.non_idle_phase_ops,
            self.tail.ops,
            self.body.non_idle_phase_ops,
            self.body.ops
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(op: &'static str, start: u64, dur: u64, seg: usize) -> OpTrace {
        let mut t = OpTrace {
            op,
            start_ns: start,
            end_ns: start + dur,
            seg_ns: [0; NUM_SEGMENTS],
            phase: "idle",
            log_used_milli: 0,
            sampled: true,
            slo: false,
            seq: 0,
        };
        t.seg_ns[seg] = dur;
        t
    }

    #[test]
    fn ring_records_and_snapshots_in_order() {
        let ring = TraceRing::new(8);
        for i in 0..5u64 {
            ring.record(&traced("put", i * 100, 50, SEG_LOG_APPEND));
        }
        let traces = ring.snapshot();
        assert_eq!(traces.len(), 5);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.seq, i as u64);
            assert_eq!(t.op, "put");
            assert_eq!(t.phase, "idle");
            assert_eq!(t.duration_ns(), 50);
            assert_eq!(t.seg_ns[SEG_LOG_APPEND], 50);
            assert_eq!(t.unattributed_ns(), 0);
        }
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record(&traced("get", i, 1, SEG_LOOKUP));
        }
        let traces = ring.snapshot();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0].seq, 6);
        assert_eq!(traces[3].seq, 9);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn packed_flags_round_trip() {
        let ring = TraceRing::new(2);
        let mut t = traced("put", 10, 2_000_000, SEG_SSD_WRITE);
        t.phase = "flush";
        t.log_used_milli = 875;
        t.sampled = false;
        t.slo = true;
        ring.record(&t);
        let got = ring.snapshot()[0];
        assert_eq!(got.phase, "flush");
        assert_eq!(got.log_used_milli, 875);
        assert!(got.log_used_fraction() > 0.87 && got.log_used_fraction() < 0.88);
        assert!(!got.sampled);
        assert!(got.slo);
    }

    #[test]
    fn sampler_arms_one_in_n() {
        let s = TraceSampler::new(4, 0);
        let armed: Vec<bool> = (0..8).map(|_| s.arm().is_some()).collect();
        assert_eq!(
            armed,
            [true, false, false, false, true, false, false, false]
        );
        // 0 = never arm.
        let never = TraceSampler::new(0, 1000);
        assert!((0..10).all(|_| never.arm().is_none()));
    }

    #[test]
    fn mirror_follows_the_sampler_count() {
        let trace = |s: &TraceSampler| ActiveTrace::start("put", s.arm(), 1);
        // Every op sampled: one in MIRROR_EVERY is mirrored.
        let every = TraceSampler::new(1, 0);
        let mirrored: Vec<usize> = (0..3 * MIRROR_EVERY as usize)
            .filter(|_| trace(&every).mirror())
            .collect();
        assert_eq!(mirrored.len(), 3);
        // The default stride: every sampled op is mirrored, no other.
        let default = TraceSampler::new(TraceConfig::default().sample_every, 0);
        for _ in 0..3 * 1024 {
            let at = trace(&default);
            assert_eq!(at.mirror(), at.armed());
        }
        assert!(!ActiveTrace::start("get", None, 1).mirror());
    }

    #[test]
    fn active_trace_charges_segments_and_retains() {
        let mut at = ActiveTrace::start("put", Some(0), 1000);
        at.mark_at(SEG_LOG_APPEND, 1400);
        at.mark_at(SEG_ALLOC, 1500);
        at.mark_at(SEG_LOG_APPEND, 1900); // accumulates across retries
        let t = at.finish(SEG_COMMIT, 2000, 0).expect("armed is retained");
        assert_eq!(t.seg_ns[SEG_LOG_APPEND], 800);
        assert_eq!(t.seg_ns[SEG_ALLOC], 100);
        assert_eq!(t.seg_ns[SEG_COMMIT], 100);
        assert_eq!(t.duration_ns(), 1000);
        assert!(t.sampled);
        assert!(!t.slo);
    }

    #[test]
    fn unarmed_op_is_retained_only_over_slo() {
        // Fast unarmed op: dropped.
        let at = ActiveTrace::start("get", None, 1000);
        assert!(at.finish(SEG_LOOKUP, 1500, 1_000_000).is_none());
        // Slow unarmed op: retained with no segment detail.
        let at = ActiveTrace::start("get", None, 1000);
        let t = at.finish(SEG_LOOKUP, 2_001_000, 1_000_000).unwrap();
        assert!(t.slo);
        assert!(!t.sampled);
        assert_eq!(t.seg_ns, [0; NUM_SEGMENTS]);
        assert_eq!(t.unattributed_ns(), 2_000_000);
        // Disabled trace: never retained.
        assert!(ActiveTrace::disabled()
            .finish(SEG_LOOKUP, u64::MAX, 1)
            .is_none());
    }

    #[test]
    fn skip_to_discards_retry_gaps() {
        let mut at = ActiveTrace::start("put", Some(0), 1000);
        at.mark_at(SEG_LOG_APPEND, 1200);
        at.skip_to(5000); // e.g. descheduled between retries
        let t = at.finish(SEG_COMMIT, 5100, 0).unwrap();
        assert_eq!(t.seg_ns[SEG_LOG_APPEND], 200);
        assert_eq!(t.seg_ns[SEG_COMMIT], 100);
        assert_eq!(t.unattributed_ns(), 4100 - 300);
    }

    #[test]
    fn tail_attribution_splits_at_percentile() {
        let mut traces = Vec::new();
        // 99 fast ops dominated by log_append, 1 slow op dominated by
        // an SSD write during a checkpoint flush.
        for i in 0..99u64 {
            traces.push(traced("put", i * 10, 100, SEG_LOG_APPEND));
        }
        let mut slow = traced("put", 10_000, 50_000, SEG_SSD_WRITE);
        slow.phase = "flush";
        traces.push(slow);
        let rep = TailAttribution::from_traces(&traces, 99.0);
        assert_eq!(rep.tail.ops, 1);
        assert_eq!(rep.body.ops, 99);
        assert_eq!(rep.cut_ns, 100);
        assert_eq!(rep.tail.mean_seg_ns(SEG_SSD_WRITE), 50_000);
        assert_eq!(rep.tail.non_idle_phase_ops, 1);
        assert_eq!(rep.body.non_idle_phase_ops, 0);
        assert_eq!(rep.body.mean_seg_ns(SEG_LOG_APPEND), 100);
        let table = rep.render();
        assert!(table.contains("ssd_write"), "{table}");
        assert!(table.contains("log_append"), "{table}");
    }

    #[test]
    fn tail_attribution_handles_empty_and_unsampled() {
        let rep = TailAttribution::from_traces(&[], 99.0);
        assert_eq!(rep.tail.ops + rep.body.ops, 0);
        assert_eq!(rep.cut_ns, 0);

        // Unsampled outliers count ops but not segment means.
        let mut t = traced("put", 0, 9_000_000, SEG_LOG_APPEND);
        t.seg_ns = [0; NUM_SEGMENTS];
        t.sampled = false;
        t.slo = true;
        let rep = TailAttribution::from_traces(&[t], 50.0);
        assert_eq!(rep.body.ops, 1);
        assert_eq!(rep.body.sampled_ops, 0);
        assert_eq!(rep.body.mean_seg_ns(SEG_LOG_APPEND), 0);
        assert_eq!(rep.body.unattributed_ns, 9_000_000);
    }

    #[test]
    fn charge_at_survives_unarmed_slo_retention() {
        // The server path: admission at t=1000, execution begins at
        // t=401_000 — the queue wait is known regardless of arming.
        let mut at = ActiveTrace::start("put", None, 1000);
        at.charge_at(SEG_NET_QUEUE, 401_000);
        let t = at.finish(SEG_COMMIT, 2_001_000, 1_000_000).unwrap();
        assert!(t.slo && !t.sampled);
        assert_eq!(t.seg_ns[SEG_NET_QUEUE], 400_000);
        // The unarmed remainder stays unattributed (finish only charges
        // last_seg when armed).
        assert_eq!(t.seg_ns[SEG_COMMIT], 0);
        assert_eq!(t.unattributed_ns(), 2_000_000 - 400_000);

        // Aggregation: the pre-charged segment has a real denominator
        // even with zero sampled traces; blind segments still read 0.
        let rep = TailAttribution::from_traces(&[t], 50.0);
        assert_eq!(rep.body.sampled_ops, 0);
        assert_eq!(rep.body.seg_ops[SEG_NET_QUEUE], 1);
        assert_eq!(rep.body.mean_seg_ns(SEG_NET_QUEUE), 400_000);
        assert_eq!(rep.body.mean_seg_ns(SEG_LOG_APPEND), 0);

        // charge_at on a disabled trace stays a no-op.
        let mut off = ActiveTrace::disabled();
        off.charge_at(SEG_NET_QUEUE, u64::MAX);
        assert!(off.finish(SEG_COMMIT, u64::MAX, 1).is_none());
    }
}
