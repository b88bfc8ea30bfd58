//! Binary codecs for the observability payloads: [`ObjectStat`],
//! [`StatsSnapshot`], [`HealthSnapshot`], and the full
//! [`TelemetrySnapshot`] IR (counters, gauges, histograms, span rings,
//! and flight-recorder traces).
//!
//! The telemetry codec is what lets `dstore_top --server` and any other
//! remote consumer reuse the exact in-process rendering path: the
//! decoded snapshot is the same `TelemetrySnapshot` the registry
//! produces, so `merged_histogram`, `TailAttribution::from_traces`,
//! `to_prometheus`, and the Perfetto exporter all work unchanged on the
//! client side of a socket.
//!
//! ## String interning
//!
//! `Span::name`, `OpTrace::{op, phase}`, and
//! [`HealthSnapshot::checkpoint_phase`] are `&'static str` by design
//! (they are recorded on hot paths from compile-time constants). The
//! decoder maps incoming strings back to statics through a global
//! intern table pre-seeded with every name the workspace emits; an
//! unknown name is leaked **once** per distinct string, with a hard cap
//! ([`MAX_INTERNED`]) after which unknown names all decode to the
//! sentinel `"?"` — so a hostile peer cannot grow process memory
//! without bound through the telemetry channel.

use crate::wire::{Reader, Writer};
use dstore::{CrashReport, DsError, DsResult, HealthSnapshot, ObjectStat, StatsSnapshot};
use dstore_telemetry::{
    BlackBoxEvent, BlackBoxHeartbeat, CounterSeries, GaugeSeries, HistogramSeries,
    HistogramSnapshot, Labels, OpTrace, Span, SpanSeries, TelemetrySnapshot, TraceSeries,
    NUM_SEGMENTS, SEGMENT_NAMES,
};
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Hard cap on distinct strings the decoder will ever leak-intern.
pub const MAX_INTERNED: usize = 1 << 16;

/// Names every store in this workspace can legitimately emit; interned
/// for free so ordinary snapshots never leak at all.
const KNOWN_NAMES: &[&str] = &[
    "",
    "?",
    "idle",
    "trigger",
    "apply",
    "flush",
    "swap",
    "scan",
    "redo",
    "copy",
    "replay",
    "replay_group",
    "replay_serial",
    "put",
    "get",
    "update",
    "delete",
    "owrite",
    "oread",
    "exists",
    "stat",
    // black-box lifecycle events + server RPC names
    "startup",
    "recovered",
    "log_full_stall",
    "clean_shutdown",
    "stats",
    "health",
    "telemetry_snapshot",
    "crash_report",
];

fn intern(s: &str) -> &'static str {
    static SET: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let set = SET.get_or_init(|| {
        let mut seed: HashSet<&'static str> = HashSet::new();
        seed.extend(SEGMENT_NAMES);
        seed.extend(KNOWN_NAMES);
        Mutex::new(seed)
    });
    let mut set = set.lock().unwrap();
    if let Some(known) = set.get(s) {
        return known;
    }
    if set.len() >= MAX_INTERNED {
        return "?";
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------
// small fixed payloads

pub(crate) fn write_object_stat(w: &mut Writer, s: &ObjectStat) {
    w.u64(s.size);
    w.u32(s.version);
    w.u64(s.blocks);
    w.u64(s.mtime_lsn);
}

pub(crate) fn read_object_stat(r: &mut Reader<'_>) -> DsResult<ObjectStat> {
    Ok(ObjectStat {
        size: r.u64()?,
        version: r.u32()?,
        blocks: r.u64()?,
        mtime_lsn: r.u64()?,
    })
}

pub(crate) fn write_stats(w: &mut Writer, s: &StatsSnapshot) {
    for v in [
        s.elapsed_ns,
        s.puts,
        s.gets,
        s.deletes,
        s.writes,
        s.reads,
        s.ww_conflicts,
        s.rw_backoffs,
        s.log_full_stalls,
    ] {
        w.u64(v);
    }
}

pub(crate) fn read_stats(r: &mut Reader<'_>) -> DsResult<StatsSnapshot> {
    Ok(StatsSnapshot {
        elapsed_ns: r.u64()?,
        puts: r.u64()?,
        gets: r.u64()?,
        deletes: r.u64()?,
        writes: r.u64()?,
        reads: r.u64()?,
        ww_conflicts: r.u64()?,
        rw_backoffs: r.u64()?,
        log_full_stalls: r.u64()?,
    })
}

pub(crate) fn write_health(w: &mut Writer, h: &HealthSnapshot) {
    w.u64(h.checkpoint_panics);
    w.str16(h.checkpoint_phase);
    w.u64(h.checkpoints_completed);
    w.f64(h.log_used_fraction);
    w.u64(h.log_full_stalls);
    w.u64(h.spans_dropped);
}

pub(crate) fn read_health(r: &mut Reader<'_>) -> DsResult<HealthSnapshot> {
    Ok(HealthSnapshot {
        checkpoint_panics: r.u64()?,
        checkpoint_phase: intern(r.str16()?),
        checkpoints_completed: r.u64()?,
        log_used_fraction: r.f64()?,
        log_full_stalls: r.u64()?,
        spans_dropped: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// telemetry snapshot

fn write_labels(w: &mut Writer, labels: &Labels) {
    debug_assert!(labels.len() <= u16::MAX as usize);
    w.u16(labels.len() as u16);
    for (k, v) in labels {
        w.str16(k);
        w.str16(v);
    }
}

fn read_labels(r: &mut Reader<'_>) -> DsResult<Labels> {
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let k = r.str16()?.to_string();
        let v = r.str16()?.to_string();
        out.push((k, v));
    }
    Ok(out)
}

fn write_hist(w: &mut Writer, h: &HistogramSnapshot) {
    w.u64(h.count);
    w.u64(h.sum);
    w.u64(h.max);
    w.u32(h.buckets.len() as u32);
    for &(le, n) in &h.buckets {
        w.u64(le);
        w.u64(n);
    }
}

fn read_hist(r: &mut Reader<'_>) -> DsResult<HistogramSnapshot> {
    let count = r.u64()?;
    let sum = r.u64()?;
    let max = r.u64()?;
    let n = r.count(16)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push((r.u64()?, r.u64()?));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        max,
        buckets,
    })
}

fn write_span(w: &mut Writer, s: &Span) {
    w.str16(s.name);
    w.u64(s.start_ns);
    w.u64(s.end_ns);
    w.u64(s.a);
    w.u64(s.b);
    w.u64(s.seq);
}

fn read_span(r: &mut Reader<'_>) -> DsResult<Span> {
    Ok(Span {
        name: intern(r.str16()?),
        start_ns: r.u64()?,
        end_ns: r.u64()?,
        a: r.u64()?,
        b: r.u64()?,
        seq: r.u64()?,
    })
}

fn write_trace(w: &mut Writer, t: &OpTrace) {
    w.str16(t.op);
    w.u64(t.start_ns);
    w.u64(t.end_ns);
    w.u8(NUM_SEGMENTS as u8);
    for &ns in &t.seg_ns {
        w.u64(ns);
    }
    w.str16(t.phase);
    w.u32(t.log_used_milli);
    w.u8(t.sampled as u8 | (t.slo as u8) << 1);
    w.u64(t.seq);
}

fn read_trace(r: &mut Reader<'_>) -> DsResult<OpTrace> {
    let op = intern(r.str16()?);
    let start_ns = r.u64()?;
    let end_ns = r.u64()?;
    // Tolerate a peer built with a different segment table: extra
    // segments are dropped, missing ones stay zero.
    let nseg = r.u8()? as usize;
    let mut seg_ns = [0u64; NUM_SEGMENTS];
    let mut slots = seg_ns.iter_mut();
    for _ in 0..nseg {
        let v = r.u64()?;
        if let Some(slot) = slots.next() {
            *slot = v;
        }
    }
    let phase = intern(r.str16()?);
    let log_used_milli = r.u32()?;
    let flags = r.u8()?;
    if flags > 0b11 {
        return Err(DsError::Protocol(format!("bad trace flags {flags:#x}")));
    }
    Ok(OpTrace {
        op,
        start_ns,
        end_ns,
        seg_ns,
        phase,
        log_used_milli,
        sampled: flags & 1 != 0,
        slo: flags & 2 != 0,
        seq: r.u64()?,
    })
}

pub(crate) fn write_telemetry(w: &mut Writer, t: &TelemetrySnapshot) {
    w.u64(t.taken_ns);
    w.u32(t.counters.len() as u32);
    for s in &t.counters {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        w.u64(s.value);
    }
    w.u32(t.gauges.len() as u32);
    for s in &t.gauges {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        w.f64(s.value);
    }
    w.u32(t.histograms.len() as u32);
    for s in &t.histograms {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        write_hist(w, &s.hist);
    }
    w.u32(t.spans.len() as u32);
    for s in &t.spans {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        w.u32(s.spans.len() as u32);
        for span in &s.spans {
            write_span(w, span);
        }
    }
    w.u32(t.traces.len() as u32);
    for s in &t.traces {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        w.u32(s.traces.len() as u32);
        for trace in &s.traces {
            write_trace(w, trace);
        }
    }
}

pub(crate) fn read_telemetry(r: &mut Reader<'_>) -> DsResult<TelemetrySnapshot> {
    let taken_ns = r.u64()?;

    let n = r.count(12)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(CounterSeries {
            name: r.str16()?.to_string(),
            labels: read_labels(r)?,
            value: r.u64()?,
        });
    }

    let n = r.count(12)?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push(GaugeSeries {
            name: r.str16()?.to_string(),
            labels: read_labels(r)?,
            value: r.f64()?,
        });
    }

    let n = r.count(28)?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        histograms.push(HistogramSeries {
            name: r.str16()?.to_string(),
            labels: read_labels(r)?,
            hist: read_hist(r)?,
        });
    }

    let n = r.count(8)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str16()?.to_string();
        let labels = read_labels(r)?;
        let count = r.count(42)?;
        let mut list = Vec::with_capacity(count);
        for _ in 0..count {
            list.push(read_span(r)?);
        }
        spans.push(SpanSeries {
            name,
            labels,
            spans: list,
        });
    }

    let n = r.count(8)?;
    let mut traces = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str16()?.to_string();
        let labels = read_labels(r)?;
        let count = r.count(30)?;
        let mut list = Vec::with_capacity(count);
        for _ in 0..count {
            list.push(read_trace(r)?);
        }
        traces.push(TraceSeries {
            name,
            labels,
            traces: list,
        });
    }

    Ok(TelemetrySnapshot {
        taken_ns,
        counters,
        gauges,
        histograms,
        spans,
        traces,
    })
}

// ---------------------------------------------------------------------
// crash reports (post-mortem)

fn write_crash_report(w: &mut Writer, r: &CrashReport) {
    w.u8(r.clean as u8);
    match &r.heartbeat {
        Some(hb) => {
            w.u8(1);
            w.u64(hb.last_lsn);
            w.str16(hb.checkpoint_phase);
            w.u32(hb.log_used_milli);
            w.u64(hb.arena_high_water);
            w.u64(hb.ssd_blocks_used);
            w.u64(hb.wall_unix_ns);
            w.u64(hb.mono_ns);
        }
        None => w.u8(0),
    }
    w.u32(r.events.len() as u32);
    for ev in &r.events {
        w.str16(ev.name);
        w.u64(ev.mono_ns);
        w.u64(ev.a);
        w.u64(ev.b);
    }
    w.u32(r.traces.len() as u32);
    for t in &r.traces {
        write_trace(w, t);
    }
    w.u64(r.log_tail_lsn);
    w.u64(r.replayed_records);
}

fn read_crash_report(r: &mut Reader<'_>) -> DsResult<CrashReport> {
    let clean = r.u8()? != 0;
    let heartbeat = match r.u8()? {
        0 => None,
        1 => Some(BlackBoxHeartbeat {
            last_lsn: r.u64()?,
            checkpoint_phase: intern(r.str16()?),
            log_used_milli: r.u32()?,
            arena_high_water: r.u64()?,
            ssd_blocks_used: r.u64()?,
            wall_unix_ns: r.u64()?,
            mono_ns: r.u64()?,
        }),
        other => {
            return Err(DsError::Protocol(format!(
                "bad heartbeat presence byte {other}"
            )))
        }
    };
    let n = r.count(26)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(BlackBoxEvent {
            name: intern(r.str16()?),
            mono_ns: r.u64()?,
            a: r.u64()?,
            b: r.u64()?,
        });
    }
    let n = r.count(30)?;
    let mut traces = Vec::with_capacity(n);
    for _ in 0..n {
        traces.push(read_trace(r)?);
    }
    Ok(CrashReport {
        clean,
        heartbeat,
        events,
        traces,
        log_tail_lsn: r.u64()?,
        replayed_records: r.u64()?,
    })
}

pub(crate) fn write_crash_reports(w: &mut Writer, reports: &[Option<CrashReport>]) {
    w.u32(reports.len() as u32);
    for report in reports {
        match report {
            Some(report) => {
                w.u8(1);
                write_crash_report(w, report);
            }
            None => w.u8(0),
        }
    }
}

pub(crate) fn read_crash_reports(r: &mut Reader<'_>) -> DsResult<Vec<Option<CrashReport>>> {
    let n = r.count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.u8()? {
            0 => None,
            1 => Some(read_crash_report(r)?),
            other => {
                return Err(DsError::Protocol(format!(
                    "bad crash-report presence byte {other}"
                )))
            }
        });
    }
    Ok(out)
}
