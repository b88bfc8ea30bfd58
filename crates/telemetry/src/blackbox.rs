//! Record types of the crash-persistent black box.
//!
//! The PMEM layer (`dstore-pmem::blackbox`) stores opaque slot payloads
//! behind a CRC; these are the records that go *inside* them — the
//! heartbeat, lifecycle events, and the persistent shadow of
//! [`OpTrace`](crate::OpTrace). Their encoding is the shared one in
//! [`crate::codec`], which the wire protocol uses too. The tests here
//! pin what the black box relies on: round trips, malformed payloads
//! decoding to errors (the CRC already rejects torn slots; this layer
//! additionally survives version skew), and name truncation.

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
    /// [`OpTrace`](crate::OpTrace) timestamps *of the same incarnation*
    /// only.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{
        read_event, read_heartbeat, read_trace, write_event, write_heartbeat, write_trace, Reader,
        Writer, MAX_NAME_LEN,
    };
    use crate::{OpTrace, NUM_SEGMENTS};

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

    fn encode(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        f(&mut w);
        w.0
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
}
