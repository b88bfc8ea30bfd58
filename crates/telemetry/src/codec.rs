//! The one binary codec for observability payloads: a bounds-checked
//! [`Reader`]/[`Writer`] pair, one capped intern table, the black box's
//! two record types ([`BlackBoxHeartbeat`], [`BlackBoxEvent`]), and the
//! encoders for those, [`OpTrace`], labels, histograms, spans and the
//! whole [`TelemetrySnapshot`].
//!
//! Two consumers share it: the network protocol (`dstore-protocol`
//! frames a telemetry snapshot or a crash report with these encoders)
//! and the crash-persistent black box (the store's recorder writes a
//! trace, event or heartbeat payload into a PMEM slot, and recovery
//! decodes it). All integers are little-endian.
//!
//! ## Record payloads
//!
//! A trace, event or heartbeat is encoded the same way on both paths:
//! a leading record tag ([`REC_TRACE`], [`REC_EVENT`], [`REC_HEARTBEAT`]),
//! names as a u8 length plus at most [`MAX_NAME_LEN`] bytes (longer
//! names are truncated), and a trace's segment count ahead of its
//! segment times. These bytes are persisted, so they must not change: a
//! black box written by an older build decodes to the same post-mortem.
//! A decoder built with a different segment table drops extra segments
//! and zero-fills missing ones.
//!
//! ## String interning
//!
//! `Span::name`, `OpTrace::{op, phase}`, event names and checkpoint
//! phases are `&'static str` by design (they are recorded on hot paths
//! from compile-time constants). Decoding maps an incoming string back
//! to a static through [`intern`]: one process-wide table pre-seeded
//! with every name the workspace emits. An unknown name is leaked
//! **once** per distinct string, up to [`MAX_INTERNED`] entries; after
//! that every unknown name decodes to the sentinel `"?"`, so a hostile
//! peer or a corrupt image cannot grow process memory without bound.
//!
//! Every read is bounds-checked: malformed input yields a
//! [`CodecError`], never a panic.

use crate::histogram::HistogramSnapshot;
use crate::snapshot::{
    CounterSeries, GaugeSeries, HistogramSeries, Labels, SpanSeries, TelemetrySnapshot, TraceSeries,
};
use crate::span::Span;
use crate::trace::{OpTrace, NUM_SEGMENTS, SEGMENT_NAMES};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Record tag: an encoded [`OpTrace`].
pub const REC_TRACE: u8 = 1;
/// Record tag: an encoded [`BlackBoxEvent`].
pub const REC_EVENT: u8 = 2;
/// Record tag: an encoded [`BlackBoxHeartbeat`].
pub const REC_HEARTBEAT: u8 = 3;

/// The last-known-good vitals of an incarnation, republished every few
/// hundred operations and at every lifecycle transition. This is what a
/// post-mortem reads first: how far the store had admitted work when it
/// died, and what it was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackBoxHeartbeat {
    /// Highest LSN admitted (reserved *and published*) at publish time.
    pub last_lsn: u64,
    /// Checkpoint phase (`PhaseCell` name) at publish time.
    pub checkpoint_phase: &'static str,
    /// Log occupancy in thousandths at publish time.
    pub log_used_milli: u32,
    /// DRAM arena high-water mark in bytes.
    pub arena_high_water: u64,
    /// SSD blocks in use.
    pub ssd_blocks_used: u64,
    /// Wall clock (`UNIX_EPOCH` nanoseconds) at publish time — the
    /// anchor that places the monotonic timestamps in real time.
    pub wall_unix_ns: u64,
    /// Process-monotonic clock at publish time; comparable with
    /// [`OpTrace`] timestamps *of the same incarnation* only.
    pub mono_ns: u64,
}

/// One lifecycle transition: checkpoint phases, recovery milestones,
/// log-full stalls, the clean-shutdown marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackBoxEvent {
    /// Event name (e.g. `"trigger"`, `"swap"`, `"log_full_stall"`).
    pub name: &'static str,
    /// Process-monotonic timestamp of the event.
    pub mono_ns: u64,
    /// Event-specific payload (e.g. bytes copied for `"apply"`).
    pub a: u64,
    /// Second event-specific payload (e.g. records applied).
    pub b: u64,
}

/// Hard cap on distinct strings the intern table will ever hold.
pub const MAX_INTERNED: usize = 1 << 16;

/// Longest record name the encoder writes (op, phase and event names
/// are short compile-time constants; anything longer is truncated).
pub const MAX_NAME_LEN: usize = 48;

/// Smallest encoded [`OpTrace`]: tag, two empty names, times, segment
/// count, fill, flags and sequence number — a lower bound for
/// [`Reader::count`].
const MIN_TRACE_BYTES: usize = 1 + 1 + 8 + 8 + 1 + 1 + 4 + 1 + 8;

/// A malformed payload: truncated, trailing bytes, a bad tag, length or
/// flag field, or a string that is not UTF-8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result of a decode.
pub type CodecResult<T> = Result<T, CodecError>;

fn err<T>(what: impl Into<String>) -> CodecResult<T> {
    Err(CodecError(what.into()))
}

/// Kept out of line so the inlined [`Reader`] fast paths stay small.
#[cold]
fn truncated(n: usize) -> CodecError {
    CodecError(format!("payload truncated: need {n} more bytes"))
}

// ---------------------------------------------------------------------
// interning

/// Names the workspace emits (besides [`SEGMENT_NAMES`]): checkpoint
/// and recovery phases, op kinds, black-box lifecycle events and the
/// server's RPC names. They are interned for free, so ordinary payloads
/// never leak at all.
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
    "lock",
    "open",
    "startup",
    "recovered",
    "log_full_stall",
    "clean_shutdown",
    "stats",
    "health",
    "telemetry_snapshot",
    "crash_report",
];

fn intern_table() -> &'static Mutex<HashSet<&'static str>> {
    static SET: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    SET.get_or_init(|| {
        let mut seed: HashSet<&'static str> = HashSet::new();
        seed.extend(SEGMENT_NAMES);
        seed.extend(KNOWN_NAMES);
        Mutex::new(seed)
    })
}

/// Maps `s` to a `&'static str`: a seeded or earlier-leaked copy, a
/// fresh leak while the table is below [`MAX_INTERNED`], else `"?"`.
pub fn intern(s: &str) -> &'static str {
    let mut set = intern_table().lock().expect("intern table lock poisoned");
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

/// Distinct strings the intern table holds (never above
/// [`MAX_INTERNED`]).
pub fn interned_len() -> usize {
    intern_table()
        .lock()
        .expect("intern table lock poisoned")
        .len()
}

// ---------------------------------------------------------------------
// primitives

/// Byte-buffer writer; the inverse of [`Reader`].
#[derive(Default)]
pub struct Writer(pub Vec<u8>);

impl Writer {
    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// A little-endian u16.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// A little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// A little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// An f64 as its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Bytes with a u16 length prefix (keys, labels, short strings).
    #[inline]
    pub fn bytes16(&mut self, v: &[u8]) {
        assert!(v.len() <= u16::MAX as usize, "u16 length overflow");
        self.u16(v.len() as u16);
        self.0.extend_from_slice(v);
    }
    /// Bytes with a u32 length prefix (values).
    #[inline]
    pub fn bytes32(&mut self, v: &[u8]) {
        assert!(v.len() <= u32::MAX as usize, "u32 length overflow");
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    /// A string with a u16 length prefix.
    #[inline]
    pub fn str16(&mut self, v: &str) {
        self.bytes16(v.as_bytes());
    }
    /// A record name: u8 length prefix, truncated to [`MAX_NAME_LEN`]
    /// bytes.
    pub fn name(&mut self, s: &str) {
        let b = s.as_bytes();
        let n = b.len().min(MAX_NAME_LEN);
        self.u8(n as u8);
        self.0.extend_from_slice(&b[..n]);
    }
}

/// Bounds-checked reader over one payload. Every accessor fails with a
/// [`CodecError`] instead of slicing out of range.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    #[inline]
    fn bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        let Some(end) = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()) else {
            return Err(truncated(n));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.bytes(1)?[0])
    }
    /// A little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    /// A little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    /// A little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    /// An f64 from its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Bytes with a u16 length prefix.
    #[inline]
    pub fn bytes16(&mut self) -> CodecResult<&'a [u8]> {
        let n = self.u16()? as usize;
        self.bytes(n)
    }
    /// Bytes with a u32 length prefix of at most `max`.
    #[inline]
    pub fn bytes32(&mut self, max: usize) -> CodecResult<&'a [u8]> {
        let n = self.u32()? as usize;
        if n > max {
            return err(format!("value length {n} exceeds {max}"));
        }
        self.bytes(n)
    }
    /// A UTF-8 string with a u16 length prefix.
    #[inline]
    pub fn str16(&mut self) -> CodecResult<&'a str> {
        std::str::from_utf8(self.bytes16()?).or_else(|_| err("string field is not UTF-8"))
    }
    /// A record name written by [`Writer::name`], interned.
    pub fn name(&mut self) -> CodecResult<&'static str> {
        let n = self.u8()? as usize;
        if n > MAX_NAME_LEN {
            return err(format!("name length {n} exceeds {MAX_NAME_LEN}"));
        }
        std::str::from_utf8(self.bytes(n)?)
            .map(intern)
            .or_else(|_| err("name is not UTF-8"))
    }
    /// A u32 collection length. A count that could not possibly fit in
    /// the remaining payload at `elem_min_bytes` per element is rejected
    /// up front, so corrupt counts can't drive huge allocations.
    pub fn count(&mut self, elem_min_bytes: usize) -> CodecResult<usize> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(elem_min_bytes.max(1)) > remaining {
            return err(format!("count {n} exceeds remaining payload {remaining}"));
        }
        Ok(n)
    }
    /// Asserts the payload was consumed exactly.
    #[inline]
    pub fn finish(self) -> CodecResult<()> {
        if self.pos != self.buf.len() {
            return err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }

    fn tag(&mut self, want: u8) -> CodecResult<()> {
        match self.u8()? {
            t if t == want => Ok(()),
            t => err(format!("record tag {t}, expected {want}")),
        }
    }
}

// ---------------------------------------------------------------------
// records (persisted byte for byte in the black box)

/// Encodes an [`OpTrace`] record.
pub fn write_trace(w: &mut Writer, t: &OpTrace) {
    w.u8(REC_TRACE);
    w.name(t.op);
    w.u64(t.start_ns);
    w.u64(t.end_ns);
    w.u8(NUM_SEGMENTS as u8);
    for &ns in &t.seg_ns {
        w.u64(ns);
    }
    w.name(t.phase);
    w.u32(t.log_used_milli);
    w.u8(t.sampled as u8 | (t.slo as u8) << 1);
    w.u64(t.seq);
}

/// Decodes an [`OpTrace`] record, tolerating a different segment-table
/// length (extra segments dropped, missing ones zero).
pub fn read_trace(r: &mut Reader<'_>) -> CodecResult<OpTrace> {
    r.tag(REC_TRACE)?;
    let op = r.name()?;
    let start_ns = r.u64()?;
    let end_ns = r.u64()?;
    let nseg = r.u8()? as usize;
    let mut seg_ns = [0u64; NUM_SEGMENTS];
    let mut slots = seg_ns.iter_mut();
    for _ in 0..nseg {
        let v = r.u64()?;
        if let Some(slot) = slots.next() {
            *slot = v;
        }
    }
    let phase = r.name()?;
    let log_used_milli = r.u32()?;
    let flags = r.u8()?;
    if flags > 0b11 {
        return err(format!("bad trace flags {flags:#x}"));
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

/// Encodes a [`BlackBoxEvent`] record.
pub fn write_event(w: &mut Writer, ev: &BlackBoxEvent) {
    w.u8(REC_EVENT);
    w.name(ev.name);
    w.u64(ev.mono_ns);
    w.u64(ev.a);
    w.u64(ev.b);
}

/// Decodes a [`BlackBoxEvent`] record.
pub fn read_event(r: &mut Reader<'_>) -> CodecResult<BlackBoxEvent> {
    r.tag(REC_EVENT)?;
    Ok(BlackBoxEvent {
        name: r.name()?,
        mono_ns: r.u64()?,
        a: r.u64()?,
        b: r.u64()?,
    })
}

/// Encodes a [`BlackBoxHeartbeat`] record.
pub fn write_heartbeat(w: &mut Writer, h: &BlackBoxHeartbeat) {
    w.u8(REC_HEARTBEAT);
    w.u64(h.last_lsn);
    w.name(h.checkpoint_phase);
    w.u32(h.log_used_milli);
    w.u64(h.arena_high_water);
    w.u64(h.ssd_blocks_used);
    w.u64(h.wall_unix_ns);
    w.u64(h.mono_ns);
}

/// Decodes a [`BlackBoxHeartbeat`] record.
pub fn read_heartbeat(r: &mut Reader<'_>) -> CodecResult<BlackBoxHeartbeat> {
    r.tag(REC_HEARTBEAT)?;
    Ok(BlackBoxHeartbeat {
        last_lsn: r.u64()?,
        checkpoint_phase: r.name()?,
        log_used_milli: r.u32()?,
        arena_high_water: r.u64()?,
        ssd_blocks_used: r.u64()?,
        wall_unix_ns: r.u64()?,
        mono_ns: r.u64()?,
    })
}

/// Encodes a u32 count, then each item.
pub fn write_list<T>(w: &mut Writer, items: &[T], mut write: impl FnMut(&mut Writer, &T)) {
    w.u32(items.len() as u32);
    for item in items {
        write(w, item);
    }
}

/// Decodes a list written by [`write_list`] of items at least
/// `elem_min_bytes` long each.
pub fn read_list<'a, T>(
    r: &mut Reader<'a>,
    elem_min_bytes: usize,
    mut read: impl FnMut(&mut Reader<'a>) -> CodecResult<T>,
) -> CodecResult<Vec<T>> {
    let n = r.count(elem_min_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read(r)?);
    }
    Ok(out)
}

/// Decodes a list of [`OpTrace`] records.
pub fn read_traces(r: &mut Reader<'_>) -> CodecResult<Vec<OpTrace>> {
    read_list(r, MIN_TRACE_BYTES, read_trace)
}

// ---------------------------------------------------------------------
// telemetry snapshot

/// Encodes a label set (`str16` keys and values).
fn write_labels(w: &mut Writer, labels: &Labels) {
    assert!(
        labels.len() <= u16::MAX as usize,
        "u16 label count overflow"
    );
    w.u16(labels.len() as u16);
    for (k, v) in labels {
        w.str16(k);
        w.str16(v);
    }
}

/// Decodes a label set.
fn read_labels(r: &mut Reader<'_>) -> CodecResult<Labels> {
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let k = r.str16()?.to_string();
        let v = r.str16()?.to_string();
        out.push((k, v));
    }
    Ok(out)
}

/// Encodes a histogram snapshot.
fn write_hist(w: &mut Writer, h: &HistogramSnapshot) {
    w.u64(h.count);
    w.u64(h.sum);
    w.u64(h.max);
    write_list(w, &h.buckets, |w, &(le, n)| {
        w.u64(le);
        w.u64(n);
    });
}

/// Decodes a histogram snapshot.
fn read_hist(r: &mut Reader<'_>) -> CodecResult<HistogramSnapshot> {
    Ok(HistogramSnapshot {
        count: r.u64()?,
        sum: r.u64()?,
        max: r.u64()?,
        buckets: read_list(r, 16, |r| Ok((r.u64()?, r.u64()?)))?,
    })
}

/// Encodes a phase span.
fn write_span(w: &mut Writer, s: &Span) {
    w.str16(s.name);
    w.u64(s.start_ns);
    w.u64(s.end_ns);
    w.u64(s.a);
    w.u64(s.b);
    w.u64(s.seq);
}

/// Decodes a phase span (name interned).
fn read_span(r: &mut Reader<'_>) -> CodecResult<Span> {
    Ok(Span {
        name: intern(r.str16()?),
        start_ns: r.u64()?,
        end_ns: r.u64()?,
        a: r.u64()?,
        b: r.u64()?,
        seq: r.u64()?,
    })
}

/// Encodes a whole [`TelemetrySnapshot`].
pub fn write_telemetry(w: &mut Writer, t: &TelemetrySnapshot) {
    w.u64(t.taken_ns);
    write_list(w, &t.counters, |w, s| {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        w.u64(s.value);
    });
    write_list(w, &t.gauges, |w, s| {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        w.f64(s.value);
    });
    write_list(w, &t.histograms, |w, s| {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        write_hist(w, &s.hist);
    });
    write_list(w, &t.spans, |w, s| {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        write_list(w, &s.spans, write_span);
    });
    write_list(w, &t.traces, |w, s| {
        w.str16(&s.name);
        write_labels(w, &s.labels);
        write_list(w, &s.traces, write_trace);
    });
}

/// Decodes a whole [`TelemetrySnapshot`].
pub fn read_telemetry(r: &mut Reader<'_>) -> CodecResult<TelemetrySnapshot> {
    Ok(TelemetrySnapshot {
        taken_ns: r.u64()?,
        counters: read_list(r, 12, |r| {
            Ok(CounterSeries {
                name: r.str16()?.to_string(),
                labels: read_labels(r)?,
                value: r.u64()?,
            })
        })?,
        gauges: read_list(r, 12, |r| {
            Ok(GaugeSeries {
                name: r.str16()?.to_string(),
                labels: read_labels(r)?,
                value: r.f64()?,
            })
        })?,
        histograms: read_list(r, 28, |r| {
            Ok(HistogramSeries {
                name: r.str16()?.to_string(),
                labels: read_labels(r)?,
                hist: read_hist(r)?,
            })
        })?,
        spans: read_list(r, 8, |r| {
            Ok(SpanSeries {
                name: r.str16()?.to_string(),
                labels: read_labels(r)?,
                spans: read_list(r, 42, read_span)?,
            })
        })?,
        traces: read_list(r, 8, |r| {
            Ok(TraceSeries {
                name: r.str16()?.to_string(),
                labels: read_labels(r)?,
                traces: read_traces(r)?,
            })
        })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_trace() -> OpTrace {
        let mut seg_ns = [0u64; NUM_SEGMENTS];
        seg_ns[0] = 111;
        seg_ns[4] = 222;
        seg_ns[10] = 333;
        OpTrace {
            op: "put",
            start_ns: 1_000,
            end_ns: 9_000,
            seg_ns,
            phase: "apply",
            log_used_milli: 512,
            sampled: true,
            slo: true,
            seq: 42,
        }
    }

    fn encode(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        f(&mut w);
        w.0
    }

    fn sample_trace() -> OpTrace {
        OpTrace {
            slo: false,
            ..golden_trace()
        }
    }

    #[test]
    fn trace_roundtrips() {
        let bytes = encode(|w| write_trace(w, &sample_trace()));
        let mut r = Reader::new(&bytes);
        assert_eq!(read_trace(&mut r).unwrap(), sample_trace());
        r.finish().unwrap();
    }

    #[test]
    fn heartbeat_and_event_roundtrip() {
        let h = BlackBoxHeartbeat {
            last_lsn: 987,
            checkpoint_phase: "idle",
            log_used_milli: 250,
            arena_high_water: 1 << 20,
            ssd_blocks_used: 17,
            wall_unix_ns: 1_700_000_000_000_000_000,
            mono_ns: 555,
        };
        let bytes = encode(|w| write_heartbeat(w, &h));
        assert_eq!(read_heartbeat(&mut Reader::new(&bytes)).unwrap(), h);

        let ev = BlackBoxEvent {
            name: "swap",
            mono_ns: 777,
            a: 1,
            b: 2,
        };
        let bytes = encode(|w| write_event(w, &ev));
        assert_eq!(read_event(&mut Reader::new(&bytes)).unwrap(), ev);
    }

    #[test]
    fn truncated_and_garbage_payloads_decode_to_none() {
        let bytes = encode(|w| write_trace(w, &sample_trace()));
        for cut in 0..bytes.len() {
            assert!(read_trace(&mut Reader::new(&bytes[..cut])).is_err());
        }
        assert!(read_heartbeat(&mut Reader::new(&bytes)).is_err()); // wrong tag
        assert!(read_event(&mut Reader::new(&[0xFFu8; 64])).is_err());
        assert!(read_trace(&mut Reader::new(&[])).is_err());
    }

    #[test]
    fn overlong_names_are_truncated_not_dropped() {
        let long = "x".repeat(300);
        let ev = BlackBoxEvent {
            name: Box::leak(long.into_boxed_str()),
            mono_ns: 1,
            a: 0,
            b: 0,
        };
        let bytes = encode(|w| write_event(w, &ev));
        let back = read_event(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.name.len(), MAX_NAME_LEN);
    }

    /// The persisted record bytes, captured from the encoder that wrote
    /// the black boxes of earlier builds. A change here orphans every
    /// existing data directory's post-mortem.
    #[test]
    fn records_match_the_persisted_golden_bytes() {
        #[rustfmt::skip]
        const TRACE: &[u8] = &[
            1, 3, b'p', b'u', b't',
            232, 3, 0, 0, 0, 0, 0, 0,
            40, 35, 0, 0, 0, 0, 0, 0,
            11,
            111, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            222, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            77, 1, 0, 0, 0, 0, 0, 0,
            5, b'a', b'p', b'p', b'l', b'y',
            0, 2, 0, 0,
            3,
            42, 0, 0, 0, 0, 0, 0, 0,
        ];
        #[rustfmt::skip]
        const EVENT: &[u8] = &[
            2, 4, b's', b'w', b'a', b'p',
            9, 3, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
        ];
        #[rustfmt::skip]
        const HEARTBEAT: &[u8] = &[
            3,
            219, 3, 0, 0, 0, 0, 0, 0,
            4, b'i', b'd', b'l', b'e',
            250, 0, 0, 0,
            0, 0, 16, 0, 0, 0, 0, 0,
            17, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 42, 54, 254, 156, 151, 23,
            43, 2, 0, 0, 0, 0, 0, 0,
        ];
        let event = BlackBoxEvent {
            name: "swap",
            mono_ns: 777,
            a: 1,
            b: 2,
        };
        let heartbeat = BlackBoxHeartbeat {
            last_lsn: 987,
            checkpoint_phase: "idle",
            log_used_milli: 250,
            arena_high_water: 1 << 20,
            ssd_blocks_used: 17,
            wall_unix_ns: 1_700_000_000_000_000_000,
            mono_ns: 555,
        };
        assert_eq!(encode(|w| write_trace(w, &golden_trace())), TRACE);
        assert_eq!(encode(|w| write_event(w, &event)), EVENT);
        assert_eq!(encode(|w| write_heartbeat(w, &heartbeat)), HEARTBEAT);
        assert_eq!(read_trace(&mut Reader::new(TRACE)).unwrap(), golden_trace());
        assert_eq!(read_event(&mut Reader::new(EVENT)).unwrap(), event);
        assert_eq!(
            read_heartbeat(&mut Reader::new(HEARTBEAT)).unwrap(),
            heartbeat
        );
    }

    /// A trace written against a different segment table: one segment
    /// short leaves the last slot zero, one extra is dropped.
    #[test]
    fn trace_tolerates_segment_table_skew() {
        let t = golden_trace();
        for nseg in [NUM_SEGMENTS - 1, NUM_SEGMENTS + 1] {
            let bytes = encode(|w| {
                w.u8(REC_TRACE);
                w.name(t.op);
                w.u64(t.start_ns);
                w.u64(t.end_ns);
                w.u8(nseg as u8);
                for i in 0..nseg {
                    w.u64(1 + i as u64);
                }
                w.name(t.phase);
                w.u32(t.log_used_milli);
                w.u8(3);
                w.u64(t.seq);
            });
            let mut r = Reader::new(&bytes);
            let back = read_trace(&mut r).unwrap();
            r.finish().unwrap();
            for (i, &ns) in back.seg_ns.iter().enumerate() {
                let want = if i < nseg { 1 + i as u64 } else { 0 };
                assert_eq!(ns, want, "{nseg} segments, slot {i}");
            }
            assert_eq!((back.op, back.phase, back.seq), ("put", "apply", 42));
        }
    }

    #[test]
    fn reader_rejects_bad_lengths_and_counts() {
        let bytes = encode(|w| w.u32(1_000));
        assert!(Reader::new(&bytes).bytes32(999).is_err());
        assert!(Reader::new(&bytes).count(1).is_err());
        let bytes = encode(|w| w.u8(MAX_NAME_LEN as u8 + 1));
        assert!(Reader::new(&bytes).name().is_err());
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    /// A length that does not fit its prefix must not wrap into a shorter
    /// frame, in release builds too.
    #[test]
    #[should_panic(expected = "u16 length overflow")]
    fn bytes16_refuses_a_length_past_its_prefix() {
        encode(|w| w.bytes16(&vec![0; u16::MAX as usize + 1]));
    }
}
