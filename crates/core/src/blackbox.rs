//! The store-side black box: a `BlackBoxRecorder` that mirrors hot
//! observability state into the crash-persistent PMEM region, and the
//! [`CrashReport`] synthesized from a dead incarnation's region during
//! recovery.
//!
//! Every store records; nothing about it is configurable. It is cheap
//! on the paths that matter:
//!
//! * `BlackBoxRecorder::note_lsn` — one plain load/branch/store max-LSN
//!   update (no lock-prefixed RMW) per mutation, and a heartbeat (a few
//!   volatile stores + one fence) when the LSN is a multiple of
//!   [`HEARTBEAT_EVERY`]. LSNs are dense per log and each is noted by
//!   one thread, so that is one heartbeat per [`HEARTBEAT_EVERY`]
//!   mutations with no shared counter; an LSN that a swap relocation or
//!   an aborted record takes skips its beat.
//! * `BlackBoxRecorder::record_trace` — runs for SLO outliers and for
//!   sampled traces whose sampler count is a multiple of
//!   [`dstore_telemetry::trace::MIRROR_EVERY`]: ~150 bytes encoded into a
//!   small `Vec` and one fence.
//! * Lifecycle events ride the checkpoint worker and stall paths, which
//!   are off the op fast path by construction.

use crate::structures::{Directory, Domain};
use dstore_arena::{Arena, DramMemory, RelPtr};
use dstore_dipper::{OpLog, CHECKPOINT_PHASES};
use dstore_pmem::blackbox::{BlackBoxRegion, ExhumedBlackBox};
use dstore_telemetry::codec::{
    read_event, read_heartbeat, read_trace, write_event, write_heartbeat, write_trace, CodecResult,
    Reader, Writer,
};
use dstore_telemetry::{
    now_ns, BlackBoxEvent, BlackBoxHeartbeat, Counter, OpTrace, PhaseCell, TailAttribution,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A heartbeat is published when a noted LSN is a multiple of this, so
/// the last-heartbeat LSN a post-mortem sees trails the durable log tail
/// by about this many records plus in-flight ops (twice this when a
/// skipped multiple loses one beat).
pub const HEARTBEAT_EVERY: u64 = 1024;

/// Writer half: mirrors observability state into the PMEM region.
pub(crate) struct BlackBoxRecorder {
    region: BlackBoxRegion,
    phase: Arc<PhaseCell>,
    log: Arc<OpLog>,
    dram: Arc<Arena<DramMemory>>,
    dir: RelPtr<Directory>,
    max_lsn: AtomicU64,
    records: Arc<Counter>,
}

impl BlackBoxRecorder {
    pub(crate) fn new(
        region: BlackBoxRegion,
        phase: Arc<PhaseCell>,
        log: Arc<OpLog>,
        dram: Arc<Arena<DramMemory>>,
        dir: RelPtr<Directory>,
        records: Arc<Counter>,
    ) -> Self {
        Self {
            region,
            phase,
            log,
            dram,
            dir,
            max_lsn: AtomicU64::new(0),
            records,
        }
    }

    /// Notes an admitted (reserved **and published**) LSN, and publishes
    /// a heartbeat when it is a multiple of [`HEARTBEAT_EVERY`].
    ///
    /// The max is load-compare-store, not `fetch_max`: racing threads
    /// can leave a value an in-flight window below the true max, which
    /// the post-mortem contract already tolerates, and the common case
    /// stays free of lock-prefixed RMWs on this line.
    pub(crate) fn note_lsn(&self, lsn: u64) {
        if lsn > self.max_lsn.load(Ordering::Relaxed) {
            self.max_lsn.store(lsn, Ordering::Relaxed);
        }
        if lsn.is_multiple_of(HEARTBEAT_EVERY) {
            self.publish_heartbeat();
        }
    }

    /// The heartbeat the recorder would persist right now, built from
    /// the live gauges — also the live view `inspect` prints.
    pub(crate) fn current_heartbeat(&self) -> BlackBoxHeartbeat {
        let domain = Domain::attach(&self.dram, self.dir);
        let wall_unix_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        BlackBoxHeartbeat {
            last_lsn: self.max_lsn.load(Ordering::Relaxed),
            checkpoint_phase: CHECKPOINT_PHASES[self.phase.index() % CHECKPOINT_PHASES.len()],
            log_used_milli: (self.log.used_fraction() * 1000.0) as u32,
            arena_high_water: self.dram.stats().high_water,
            ssd_blocks_used: domain.pool_used(),
            wall_unix_ns,
            mono_ns: now_ns(),
        }
    }

    /// Persists a heartbeat built from the live gauges.
    pub(crate) fn publish_heartbeat(&self) {
        let mut w = Writer::default();
        write_heartbeat(&mut w, &self.current_heartbeat());
        self.region.publish_heartbeat(&w.0);
        self.records.inc();
    }

    /// Mirrors an op trace into the persistent ring.
    pub(crate) fn record_trace(&self, t: &OpTrace) {
        let mut w = Writer::default();
        write_trace(&mut w, t);
        self.region.push_trace(&w.0);
        self.records.inc();
    }

    /// Records a lifecycle event (checkpoint phase, stall, recovery
    /// milestone) with the current monotonic timestamp.
    pub(crate) fn record_event(&self, name: &'static str, a: u64, b: u64) {
        let ev = BlackBoxEvent {
            name,
            mono_ns: now_ns(),
            a,
            b,
        };
        let mut w = Writer::default();
        write_event(&mut w, &ev);
        self.region.push_event(&w.0);
        self.records.inc();
    }

    /// Orderly-shutdown epilogue: a final event, a final heartbeat, and
    /// the persistent clean flag — in that order, so a crash *during*
    /// shutdown still reads as dirty.
    pub(crate) fn mark_clean(&self) {
        self.record_event("clean_shutdown", 0, 0);
        self.publish_heartbeat();
        self.region.set_clean();
    }
}

// ---------------------------------------------------------------------
// the report

/// Post-mortem of the previous incarnation, synthesized during
/// [`crate::DStore::recover`] from the exhumed black-box region and the
/// recovered log. Available via [`crate::DStore::crash_report`].
///
/// Monotonic timestamps inside the report (`heartbeat.mono_ns`, event
/// and trace times) belong to the **dead** process's clock; they are
/// comparable with each other but not with the current process. The
/// heartbeat's `wall_unix_ns` anchors them in real time.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// `true` when the previous incarnation shut down cleanly (its
    /// close path persisted the clean marker); `false` means it died
    /// mid-flight and the rest of this report describes the scene.
    pub clean: bool,
    /// Freshest valid heartbeat of the dead incarnation, if any.
    pub heartbeat: Option<BlackBoxHeartbeat>,
    /// Lifecycle events, oldest first.
    pub events: Vec<BlackBoxEvent>,
    /// Exhumed op traces (retained samples + SLO outliers), oldest
    /// first.
    pub traces: Vec<OpTrace>,
    /// LSN fence recovery derived from the durable log: every LSN the
    /// dead incarnation published is strictly below this. The
    /// heartbeat's `last_lsn` must be `<` this value — a violation
    /// would mean the black box saw a record the log lost.
    pub log_tail_lsn: u64,
    /// Committed records recovery replayed from the active log.
    pub replayed_records: u64,
}

impl CrashReport {
    /// Builds the report from an exhumed region; tolerant of partially
    /// decodable payloads (undecodable slots are dropped silently — the
    /// CRC layer already vouched for the bytes, so drops here only
    /// happen across incompatible build versions).
    pub(crate) fn synthesize(ex: &ExhumedBlackBox, log_tail_lsn: u64, replayed: u64) -> Self {
        fn decode<T>(
            slot: &(u64, Vec<u8>),
            read: fn(&mut Reader<'_>) -> CodecResult<T>,
        ) -> Option<T> {
            read(&mut Reader::new(&slot.1)).ok()
        }
        let heartbeat = ex
            .heartbeats
            .iter()
            .rev()
            .find_map(|s| decode(s, read_heartbeat));
        let events = ex
            .events
            .iter()
            .filter_map(|s| decode(s, read_event))
            .collect();
        let traces = ex
            .traces
            .iter()
            .filter_map(|s| decode(s, read_trace))
            .collect();
        CrashReport {
            clean: ex.clean,
            heartbeat,
            events,
            traces,
            log_tail_lsn,
            replayed_records: replayed,
        }
    }

    /// Traces that ended at or after the last heartbeat — the ops in
    /// flight during the final window before death. All traces when no
    /// heartbeat survived.
    pub fn death_window_traces(&self) -> Vec<&OpTrace> {
        match &self.heartbeat {
            Some(hb) => self
                .traces
                .iter()
                .filter(|t| t.end_ns >= hb.mono_ns)
                .collect(),
            None => self.traces.iter().collect(),
        }
    }

    /// Time-of-death tail attribution over the exhumed traces (same
    /// math as the live `DStore::tail_attribution`). `None` when no
    /// traces survived.
    pub fn tail_attribution(&self, percentile: f64) -> Option<TailAttribution> {
        if self.traces.is_empty() {
            return None;
        }
        Some(TailAttribution::from_traces(&self.traces, percentile))
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(if self.clean {
            "death: clean shutdown\n"
        } else {
            "death: DIRTY (crash or kill)\n"
        });
        match &self.heartbeat {
            Some(hb) => {
                out.push_str(&format!(
                    "last heartbeat: lsn={} phase={} log_used={:.1}% arena_hw={} ssd_blocks={}\n",
                    hb.last_lsn,
                    hb.checkpoint_phase,
                    hb.log_used_milli as f64 / 10.0,
                    hb.arena_high_water,
                    hb.ssd_blocks_used,
                ));
            }
            None => out.push_str("last heartbeat: none survived\n"),
        }
        out.push_str(&format!(
            "recovered log tail: lsn fence {} ({} committed records replayed)\n",
            self.log_tail_lsn, self.replayed_records
        ));
        if let Some(hb) = &self.heartbeat {
            out.push_str(&format!(
                "commit window: {} LSNs between last heartbeat and the fence\n",
                self.log_tail_lsn.saturating_sub(hb.last_lsn)
            ));
        }
        if !self.events.is_empty() {
            out.push_str("lifecycle events (oldest first):\n");
            for ev in &self.events {
                out.push_str(&format!(
                    "  t+{:>10.3}ms  {:<16} a={} b={}\n",
                    ev.mono_ns as f64 / 1e6,
                    ev.name,
                    ev.a,
                    ev.b
                ));
            }
        }
        let window = self.death_window_traces().len();
        out.push_str(&format!(
            "traces exhumed: {} ({} in the death window)\n",
            self.traces.len(),
            window
        ));
        if let Some(ta) = self.tail_attribution(0.99) {
            out.push_str("time-of-death tail attribution (p99):\n");
            for line in ta.render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Machine-readable JSON rendering (no external dependencies; all
    /// strings in the report are identifier-like statics, escaped
    /// anyway for safety).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut s = String::from("{");
        s.push_str(&format!("\"clean\":{},", self.clean));
        match &self.heartbeat {
            Some(hb) => s.push_str(&format!(
                "\"heartbeat\":{{\"last_lsn\":{},\"checkpoint_phase\":\"{}\",\
                 \"log_used_milli\":{},\"arena_high_water\":{},\"ssd_blocks_used\":{},\
                 \"wall_unix_ns\":{},\"mono_ns\":{}}},",
                hb.last_lsn,
                esc(hb.checkpoint_phase),
                hb.log_used_milli,
                hb.arena_high_water,
                hb.ssd_blocks_used,
                hb.wall_unix_ns,
                hb.mono_ns
            )),
            None => s.push_str("\"heartbeat\":null,"),
        }
        s.push_str("\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"mono_ns\":{},\"a\":{},\"b\":{}}}",
                esc(ev.name),
                ev.mono_ns,
                ev.a,
                ev.b
            ));
        }
        s.push_str("],\"traces\":[");
        for (i, t) in self.traces.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let segs: Vec<String> = t.seg_ns.iter().map(|v| v.to_string()).collect();
            s.push_str(&format!(
                "{{\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"seg_ns\":[{}],\
                 \"phase\":\"{}\",\"log_used_milli\":{},\"sampled\":{},\"slo\":{},\"seq\":{}}}",
                esc(t.op),
                t.start_ns,
                t.end_ns,
                segs.join(","),
                esc(t.phase),
                t.log_used_milli,
                t.sampled,
                t.slo,
                t.seq
            ));
        }
        s.push_str(&format!(
            "],\"log_tail_lsn\":{},\"replayed_records\":{},\"death_window_traces\":{}}}",
            self.log_tail_lsn,
            self.replayed_records,
            self.death_window_traces().len()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore_telemetry::NUM_SEGMENTS;

    fn sample_report() -> CrashReport {
        let mut seg_ns = [0u64; NUM_SEGMENTS];
        seg_ns[0] = 500;
        CrashReport {
            clean: false,
            heartbeat: Some(BlackBoxHeartbeat {
                last_lsn: 100,
                checkpoint_phase: "idle",
                log_used_milli: 420,
                arena_high_water: 1 << 20,
                ssd_blocks_used: 3,
                wall_unix_ns: 1_700_000_000_000_000_000,
                mono_ns: 5_000,
            }),
            events: vec![BlackBoxEvent {
                name: "trigger",
                mono_ns: 4_000,
                a: 0,
                b: 0,
            }],
            traces: vec![
                OpTrace {
                    op: "put",
                    start_ns: 1_000,
                    end_ns: 2_000,
                    seg_ns,
                    phase: "idle",
                    log_used_milli: 100,
                    sampled: true,
                    slo: false,
                    seq: 1,
                },
                OpTrace {
                    op: "put",
                    start_ns: 5_500,
                    end_ns: 6_000,
                    seg_ns,
                    phase: "idle",
                    log_used_milli: 200,
                    sampled: true,
                    slo: false,
                    seq: 2,
                },
            ],
            log_tail_lsn: 130,
            replayed_records: 90,
        }
    }

    #[test]
    fn death_window_filters_on_last_heartbeat() {
        let r = sample_report();
        let w = r.death_window_traces();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].seq, 2);
        let mut r2 = r.clone();
        r2.heartbeat = None;
        assert_eq!(r2.death_window_traces().len(), 2);
    }

    #[test]
    fn render_and_json_are_well_formed() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("DIRTY"));
        assert!(text.contains("lsn=100"));
        assert!(text.contains("commit window: 30"));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"last_lsn\":100"));
        assert!(json.contains("\"death_window_traces\":1"));
        // Balanced quotes/braces as a cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    /// The largest record each ring can be handed (names truncated at
    /// `MAX_NAME_LEN`) fits its slot, so the region never cuts a payload
    /// short into an undecodable one.
    #[test]
    fn worst_case_payloads_fit_their_slots() {
        use dstore_pmem::blackbox::{
            EVENT_SLOT_BYTES, HB_SLOT_BYTES, SLOT_HDR_BYTES, TRACE_SLOT_BYTES,
        };
        let long: &'static str = Box::leak("n".repeat(300).into_boxed_str());
        let r = sample_report();
        let mut hb = r.heartbeat.unwrap();
        hb.checkpoint_phase = long;
        let ev = BlackBoxEvent {
            name: long,
            ..r.events[0]
        };
        let t = OpTrace {
            op: long,
            phase: long,
            ..r.traces[0]
        };
        let len = |f: &dyn Fn(&mut Writer)| {
            let mut w = Writer::default();
            f(&mut w);
            w.0.len()
        };
        assert!(len(&|w| write_heartbeat(w, &hb)) <= HB_SLOT_BYTES - SLOT_HDR_BYTES);
        assert!(len(&|w| write_event(w, &ev)) <= EVENT_SLOT_BYTES - SLOT_HDR_BYTES);
        assert!(len(&|w| write_trace(w, &t)) <= TRACE_SLOT_BYTES - SLOT_HDR_BYTES);
    }

    #[test]
    fn tail_attribution_needs_traces() {
        let mut r = sample_report();
        assert!(r.tail_attribution(0.99).is_some());
        r.traces.clear();
        assert!(r.tail_attribution(0.99).is_none());
    }
}
