//! Payload codecs for the crash-persistent black box.
//!
//! The PMEM layer (`dstore-pmem::blackbox`) stores opaque slot payloads
//! behind a CRC; this module defines what goes *inside* them — the
//! heartbeat record, lifecycle events, and the persistent shadow of
//! [`OpTrace`] — as a compact, length-checked little-endian encoding.
//!
//! Decoding is defensive in the same way the wire codecs are: every
//! read is bounds-checked and a malformed payload decodes to `None`,
//! never a panic. (The CRC already rejects torn slots; this layer
//! additionally survives version skew, where a payload written by a
//! different build decodes against a different segment table.)
//!
//! Strings decode through a capped intern table (op, phase, and event
//! names are `&'static str` throughout the workspace); unknown names
//! leak once each up to [`MAX_INTERNED`], then collapse to `"?"`.

use crate::trace::{OpTrace, NUM_SEGMENTS, SEGMENT_NAMES};
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Payload tag: an encoded [`OpTrace`].
pub const REC_TRACE: u8 = 1;
/// Payload tag: an encoded [`BlackBoxEvent`].
pub const REC_EVENT: u8 = 2;
/// Payload tag: an encoded [`BlackBoxHeartbeat`].
pub const REC_HEARTBEAT: u8 = 3;

/// Hard cap on distinct strings the decoder will leak-intern.
pub const MAX_INTERNED: usize = 1 << 16;

/// Longest string the encoder will write (op/phase/event names are
/// short compile-time constants; anything longer is truncated).
pub const MAX_NAME_LEN: usize = 48;

/// Names a black box can legitimately contain, interned for free.
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
// record types

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

// ---------------------------------------------------------------------
// cursor helpers (no-alloc encode into caller buffers)

struct Enc<'a> {
    buf: &'a mut [u8],
    at: usize,
    overflow: bool,
}

impl<'a> Enc<'a> {
    fn new(buf: &'a mut [u8]) -> Enc<'a> {
        Enc {
            buf,
            at: 0,
            overflow: false,
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        if self.at + b.len() > self.buf.len() {
            self.overflow = true;
            return;
        }
        self.buf[self.at..self.at + b.len()].copy_from_slice(b);
        self.at += b.len();
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed string, truncated to [`MAX_NAME_LEN`] bytes.
    fn name(&mut self, s: &str) {
        let b = s.as_bytes();
        let n = b.len().min(MAX_NAME_LEN);
        self.u8(n as u8);
        self.bytes(&b[..n]);
    }

    fn finish(self) -> Option<usize> {
        (!self.overflow).then_some(self.at)
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.at..end];
        self.at = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn name(&mut self) -> Option<&'static str> {
        let n = self.u8()? as usize;
        if n > MAX_NAME_LEN {
            return None;
        }
        let b = self.bytes(n)?;
        Some(intern(std::str::from_utf8(b).ok()?))
    }
}

// ---------------------------------------------------------------------
// codecs

/// Encodes an [`OpTrace`] into `buf`; returns the encoded length, or
/// `None` if the buffer is too small (a 256-byte slot always fits).
pub fn encode_trace(buf: &mut [u8], t: &OpTrace) -> Option<usize> {
    let mut e = Enc::new(buf);
    e.u8(REC_TRACE);
    e.name(t.op);
    e.u64(t.start_ns);
    e.u64(t.end_ns);
    e.u8(NUM_SEGMENTS as u8);
    for &ns in &t.seg_ns {
        e.u64(ns);
    }
    e.name(t.phase);
    e.u32(t.log_used_milli);
    e.u8(t.sampled as u8 | (t.slo as u8) << 1);
    e.u64(t.seq);
    e.finish()
}

/// Decodes an [`OpTrace`] payload. Tolerates a different segment-table
/// length (extra segments dropped, missing ones zero), like the wire
/// codec. `None` on anything malformed.
pub fn decode_trace(buf: &[u8]) -> Option<OpTrace> {
    let mut d = Dec::new(buf);
    if d.u8()? != REC_TRACE {
        return None;
    }
    let op = d.name()?;
    let start_ns = d.u64()?;
    let end_ns = d.u64()?;
    let nseg = d.u8()? as usize;
    let mut seg_ns = [0u64; NUM_SEGMENTS];
    let mut slots = seg_ns.iter_mut();
    for _ in 0..nseg {
        let v = d.u64()?;
        if let Some(slot) = slots.next() {
            *slot = v;
        }
    }
    let phase = d.name()?;
    let log_used_milli = d.u32()?;
    let flags = d.u8()?;
    if flags > 0b11 {
        return None;
    }
    Some(OpTrace {
        op,
        start_ns,
        end_ns,
        seg_ns,
        phase,
        log_used_milli,
        sampled: flags & 1 != 0,
        slo: flags & 2 != 0,
        seq: d.u64()?,
    })
}

/// Encodes a [`BlackBoxHeartbeat`]; returns the encoded length.
pub fn encode_heartbeat(buf: &mut [u8], h: &BlackBoxHeartbeat) -> Option<usize> {
    let mut e = Enc::new(buf);
    e.u8(REC_HEARTBEAT);
    e.u64(h.last_lsn);
    e.name(h.checkpoint_phase);
    e.u32(h.log_used_milli);
    e.u64(h.arena_high_water);
    e.u64(h.ssd_blocks_used);
    e.u64(h.wall_unix_ns);
    e.u64(h.mono_ns);
    e.finish()
}

/// Decodes a [`BlackBoxHeartbeat`] payload; `None` on anything malformed.
pub fn decode_heartbeat(buf: &[u8]) -> Option<BlackBoxHeartbeat> {
    let mut d = Dec::new(buf);
    if d.u8()? != REC_HEARTBEAT {
        return None;
    }
    Some(BlackBoxHeartbeat {
        last_lsn: d.u64()?,
        checkpoint_phase: d.name()?,
        log_used_milli: d.u32()?,
        arena_high_water: d.u64()?,
        ssd_blocks_used: d.u64()?,
        wall_unix_ns: d.u64()?,
        mono_ns: d.u64()?,
    })
}

/// Encodes a [`BlackBoxEvent`]; returns the encoded length.
pub fn encode_event(buf: &mut [u8], ev: &BlackBoxEvent) -> Option<usize> {
    let mut e = Enc::new(buf);
    e.u8(REC_EVENT);
    e.name(ev.name);
    e.u64(ev.mono_ns);
    e.u64(ev.a);
    e.u64(ev.b);
    e.finish()
}

/// Decodes a [`BlackBoxEvent`] payload; `None` on anything malformed.
pub fn decode_event(buf: &[u8]) -> Option<BlackBoxEvent> {
    let mut d = Dec::new(buf);
    if d.u8()? != REC_EVENT {
        return None;
    }
    Some(BlackBoxEvent {
        name: d.name()?,
        mono_ns: d.u64()?,
        a: d.u64()?,
        b: d.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> OpTrace {
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
            slo: false,
            seq: 42,
        }
    }

    #[test]
    fn trace_roundtrips() {
        let mut buf = [0u8; 240];
        let n = encode_trace(&mut buf, &sample_trace()).unwrap();
        assert!(n <= buf.len());
        assert_eq!(decode_trace(&buf[..n]).unwrap(), sample_trace());
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
        let mut buf = [0u8; 240];
        let n = encode_heartbeat(&mut buf, &h).unwrap();
        assert_eq!(decode_heartbeat(&buf[..n]).unwrap(), h);

        let ev = BlackBoxEvent {
            name: "swap",
            mono_ns: 777,
            a: 1,
            b: 2,
        };
        let n = encode_event(&mut buf, &ev).unwrap();
        assert_eq!(decode_event(&buf[..n]).unwrap(), ev);
    }

    #[test]
    fn truncated_and_garbage_payloads_decode_to_none() {
        let mut buf = [0u8; 240];
        let n = encode_trace(&mut buf, &sample_trace()).unwrap();
        for cut in 0..n {
            assert_eq!(decode_trace(&buf[..cut]), None);
        }
        assert_eq!(decode_heartbeat(&buf[..n]), None); // wrong tag
        assert_eq!(decode_event(&[0xFFu8; 64]), None);
        assert_eq!(decode_trace(&[]), None);
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
        let mut buf = [0u8; 112];
        let n = encode_event(&mut buf, &ev).unwrap();
        let back = decode_event(&buf[..n]).unwrap();
        assert_eq!(back.name.len(), MAX_NAME_LEN);
    }

    #[test]
    fn tiny_buffer_reports_overflow() {
        let mut buf = [0u8; 8];
        assert_eq!(encode_trace(&mut buf, &sample_trace()), None);
    }
}
