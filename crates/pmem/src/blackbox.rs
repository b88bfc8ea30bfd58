//! Crash-persistent flight-recorder region (the "black box").
//!
//! A small, versioned region of the pool that survives crashes and is
//! *exhumed* — read back from the persistent image — by the next
//! incarnation before recovery overwrites it. The region stores three
//! rings of fixed-size slots holding opaque payload bytes (the encoding
//! lives in `dstore-telemetry`; this layer only guarantees durability
//! and torn-write detection):
//!
//! * two alternating **heartbeat** slots (the writer flips between them
//!   so a torn heartbeat never destroys the previous one),
//! * a ring of **lifecycle events** (checkpoint phases, stalls,
//!   clean-shutdown markers),
//! * a ring of **op traces** (the retained flight-recorder samples).
//!
//! ## Slot format and publish discipline
//!
//! ```text
//! [ seq: u64 | len: u32 | crc: u32 | payload bytes … ]   (16-byte header)
//! ```
//!
//! A publish writes the whole slot through the volatile image and then
//! persists it with [`PmemPool::persist_many`] — **one fence per slot**,
//! the MOD-style minimal ordering budget. There is no ordering *within*
//! the slot: after a crash any subset of its cache lines may be old. The
//! CRC — computed over the sequence number, the length, and the payload
//! — is what detects that: a torn slot fails the check and exhumation
//! skips it. `seq == 0` means "never written". Exhumation therefore
//! never panics on garbage; the worst case is an empty report.
//!
//! ## Region header
//!
//! 128 bytes: magic, version, the two ring capacities, and a
//! clean-shutdown flag. [`exhume`] validates magic/version and bounds
//! the capacities against the region size before touching any slot, so
//! a bit-flipped header degrades to `None`, not out-of-bounds reads.

use crate::pool::PmemPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `b"DSBLKBX1"` — identifies a formatted black-box region.
pub const BB_MAGIC: u64 = u64::from_le_bytes(*b"DSBLKBX1");
/// Region format version; bump on any layout change.
pub const BB_VERSION: u64 = 1;

/// Region header size in bytes (magic, version, caps, clean flag).
pub const BB_HEADER_BYTES: usize = 128;
/// Heartbeat slot size; two alternating slots follow the header.
pub const HB_SLOT_BYTES: usize = 256;
/// Lifecycle-event slot size.
pub const EVENT_SLOT_BYTES: usize = 128;
/// Op-trace slot size (a full 11-segment trace encodes well under this).
pub const TRACE_SLOT_BYTES: usize = 256;
/// Per-slot header: `seq: u64 | len: u32 | crc: u32`.
pub const SLOT_HDR_BYTES: usize = 16;

/// Upper bound on either ring capacity accepted by [`exhume`]; bounds
/// the work a corrupted header can demand.
pub const MAX_RING_SLOTS: usize = 1 << 16;

// Header field offsets (u64 each).
const H_MAGIC: usize = 0;
const H_VERSION: usize = 8;
const H_TRACE_CAP: usize = 16;
const H_EVENT_CAP: usize = 24;
const H_CLEAN: usize = 32;

/// Trace-ring slots of a store's region: how many mirrored op traces of
/// the dying incarnation a post-mortem can recover.
pub const TRACE_SLOTS: usize = 256;
/// Lifecycle-event slots of a store's region.
pub const EVENT_SLOTS: usize = 128;

/// Bytes a black-box region with the given ring capacities occupies.
pub fn region_size(trace_cap: usize, event_cap: usize) -> usize {
    BB_HEADER_BYTES
        + 2 * HB_SLOT_BYTES
        + event_cap * EVENT_SLOT_BYTES
        + trace_cap * TRACE_SLOT_BYTES
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial), table built at compile time — no
// external dependency, and cheap at black-box publish rates.

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC over the slot's sequence number, payload length, and payload —
/// binding the epoch to the bytes so a slot assembled from two
/// different publishes fails the check.
fn slot_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let len = (payload.len() as u32).to_le_bytes();
    for &b in seq.to_le_bytes().iter().chain(len.iter()).chain(payload) {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// writer side

/// Live handle to a formatted black-box region: the writer side.
///
/// Sequence numbers live in DRAM (they restart at 1 each incarnation —
/// exhumation orders slots *within* one dead incarnation only, which is
/// all a post-mortem needs). Publishes from different threads may
/// interleave; each lands in its own slot unless the ring laps itself,
/// and a lapped collision is just a torn slot the CRC catches.
pub struct BlackBoxRegion {
    pool: Arc<PmemPool>,
    base: usize,
    trace_cap: usize,
    event_cap: usize,
    trace_seq: AtomicU64,
    event_seq: AtomicU64,
    hb_seq: AtomicU64,
}

impl BlackBoxRegion {
    /// Formats (zeroes + writes the header of) the region and returns
    /// the writer handle. Destroys any previous contents — exhume
    /// first. The clean flag starts at 0: only an explicit
    /// [`BlackBoxRegion::set_clean`] marks a death as clean.
    pub fn format(
        pool: Arc<PmemPool>,
        base: usize,
        trace_cap: usize,
        event_cap: usize,
    ) -> BlackBoxRegion {
        let size = region_size(trace_cap, event_cap);
        assert!(base + size <= pool.len(), "black-box region out of bounds");
        let zeros = [0u8; 4096];
        let mut off = base;
        while off < base + size {
            let n = zeros.len().min(base + size - off);
            pool.write_bytes(off, &zeros[..n]);
            off += n;
        }
        pool.bulk_persist(base, size);
        pool.write_u64(base + H_VERSION, BB_VERSION);
        pool.write_u64(base + H_TRACE_CAP, trace_cap as u64);
        pool.write_u64(base + H_EVENT_CAP, event_cap as u64);
        pool.write_u64(base + H_CLEAN, 0);
        pool.write_u64(base + H_MAGIC, BB_MAGIC);
        pool.persist(base, BB_HEADER_BYTES);
        BlackBoxRegion {
            pool,
            base,
            trace_cap,
            event_cap,
            trace_seq: AtomicU64::new(0),
            event_seq: AtomicU64::new(0),
            hb_seq: AtomicU64::new(0),
        }
    }

    fn hb_off(&self, slot: usize) -> usize {
        self.base + BB_HEADER_BYTES + slot * HB_SLOT_BYTES
    }

    fn event_off(&self, slot: usize) -> usize {
        self.base + BB_HEADER_BYTES + 2 * HB_SLOT_BYTES + slot * EVENT_SLOT_BYTES
    }

    fn trace_off(&self, slot: usize) -> usize {
        self.base
            + BB_HEADER_BYTES
            + 2 * HB_SLOT_BYTES
            + self.event_cap * EVENT_SLOT_BYTES
            + slot * TRACE_SLOT_BYTES
    }

    /// Writes one slot and persists it behind a single fence.
    fn publish_slot(&self, off: usize, slot_bytes: usize, seq: u64, payload: &[u8]) {
        let cap = slot_bytes - SLOT_HDR_BYTES;
        let len = payload.len().min(cap);
        let payload = &payload[..len];
        let mut hdr = [0u8; SLOT_HDR_BYTES];
        hdr[..8].copy_from_slice(&seq.to_le_bytes());
        hdr[8..12].copy_from_slice(&(len as u32).to_le_bytes());
        hdr[12..16].copy_from_slice(&slot_crc(seq, payload).to_le_bytes());
        self.pool.write_bytes(off, &hdr);
        self.pool.write_bytes(off + SLOT_HDR_BYTES, payload);
        self.pool.persist_many(&[(off, SLOT_HDR_BYTES + len)]);
    }

    /// Publishes an op-trace payload into the next trace slot.
    pub fn push_trace(&self, payload: &[u8]) {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = ((seq - 1) as usize) % self.trace_cap;
        self.publish_slot(self.trace_off(slot), TRACE_SLOT_BYTES, seq, payload);
    }

    /// Publishes a lifecycle-event payload into the next event slot.
    pub fn push_event(&self, payload: &[u8]) {
        let seq = self.event_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = ((seq - 1) as usize) % self.event_cap;
        self.publish_slot(self.event_off(slot), EVENT_SLOT_BYTES, seq, payload);
    }

    /// Publishes a heartbeat, alternating between the two slots so the
    /// previous heartbeat survives a torn write of the new one.
    pub fn publish_heartbeat(&self, payload: &[u8]) {
        let seq = self.hb_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = ((seq - 1) as usize) % 2;
        self.publish_slot(self.hb_off(slot), HB_SLOT_BYTES, seq, payload);
    }

    /// Persists the clean-shutdown flag. Call only after every other
    /// publish of the dying incarnation — a dirty crash after this
    /// point would be misreported as clean.
    pub fn set_clean(&self) {
        self.pool.write_u64(self.base + H_CLEAN, 1);
        self.pool.persist(self.base + H_CLEAN, 8);
    }
}

// ---------------------------------------------------------------------
// reader side

/// Everything recovered from a dead incarnation's black-box region:
/// raw slot payloads, each paired with its publish sequence number and
/// sorted ascending (oldest first). Decoding is the caller's business.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhumedBlackBox {
    /// The clean-shutdown flag: `true` means the previous incarnation
    /// closed in an orderly fashion, `false` means it died mid-flight.
    pub clean: bool,
    /// Trace-ring capacity the dead incarnation was formatted with.
    pub trace_cap: usize,
    /// Event-ring capacity the dead incarnation was formatted with.
    pub event_cap: usize,
    /// Valid heartbeat payloads (at most two; last is freshest).
    pub heartbeats: Vec<(u64, Vec<u8>)>,
    /// Valid lifecycle-event payloads, oldest first.
    pub events: Vec<(u64, Vec<u8>)>,
    /// Valid op-trace payloads, oldest first.
    pub traces: Vec<(u64, Vec<u8>)>,
}

fn read_ring(pool: &PmemPool, start: usize, cap: usize, slot_bytes: usize) -> Vec<(u64, Vec<u8>)> {
    let mut buf = vec![0u8; slot_bytes];
    let mut out = Vec::new();
    for i in 0..cap {
        pool.read_persistent(start + i * slot_bytes, &mut buf);
        let seq = u64::from_le_bytes(buf[..8].try_into().unwrap());
        if seq == 0 {
            continue; // never written
        }
        let len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        if len > slot_bytes - SLOT_HDR_BYTES {
            continue; // torn length
        }
        let crc = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        let payload = &buf[SLOT_HDR_BYTES..SLOT_HDR_BYTES + len];
        if slot_crc(seq, payload) != crc {
            continue; // torn slot
        }
        out.push((seq, payload.to_vec()));
    }
    out.sort_by_key(|&(seq, _)| seq);
    out
}

/// Reads a black-box region back from the pool's **persistent** image
/// (what actually survived the crash). Returns `None` when the region
/// was never formatted or its header is corrupt; individual torn slots
/// are silently skipped. Never panics on garbage.
pub fn exhume(pool: &PmemPool, base: usize, size: usize) -> Option<ExhumedBlackBox> {
    if size < BB_HEADER_BYTES || base.checked_add(size)? > pool.len() {
        return None;
    }
    let mut hdr = [0u8; BB_HEADER_BYTES];
    pool.read_persistent(base, &mut hdr);
    let field = |off: usize| u64::from_le_bytes(hdr[off..off + 8].try_into().unwrap());
    if field(H_MAGIC) != BB_MAGIC || field(H_VERSION) != BB_VERSION {
        return None;
    }
    let trace_cap = field(H_TRACE_CAP) as usize;
    let event_cap = field(H_EVENT_CAP) as usize;
    if trace_cap > MAX_RING_SLOTS
        || event_cap > MAX_RING_SLOTS
        || region_size(trace_cap, event_cap) > size
    {
        return None; // header torn into nonsense capacities
    }
    let hb_start = base + BB_HEADER_BYTES;
    let event_start = hb_start + 2 * HB_SLOT_BYTES;
    let trace_start = event_start + event_cap * EVENT_SLOT_BYTES;
    Some(ExhumedBlackBox {
        clean: field(H_CLEAN) == 1,
        trace_cap,
        event_cap,
        heartbeats: read_ring(pool, hb_start, 2, HB_SLOT_BYTES),
        events: read_ring(pool, event_start, event_cap, EVENT_SLOT_BYTES),
        traces: read_ring(pool, trace_start, trace_cap, TRACE_SLOT_BYTES),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict_pool(trace_cap: usize, event_cap: usize) -> (Arc<PmemPool>, usize) {
        let size = region_size(trace_cap, event_cap);
        (Arc::new(PmemPool::strict(size + 4096)), size)
    }

    #[test]
    fn roundtrip_survives_simulated_crash() {
        let (pool, size) = strict_pool(8, 4);
        let bb = BlackBoxRegion::format(Arc::clone(&pool), 0, 8, 4);
        bb.push_trace(b"trace-one");
        bb.push_trace(b"trace-two");
        bb.push_event(b"event-a");
        bb.publish_heartbeat(b"hb-1");
        bb.publish_heartbeat(b"hb-2");
        pool.simulate_crash();
        let ex = exhume(&pool, 0, size).expect("formatted region");
        assert!(!ex.clean);
        assert_eq!(ex.trace_cap, 8);
        assert_eq!(ex.event_cap, 4);
        assert_eq!(
            ex.traces,
            vec![(1, b"trace-one".to_vec()), (2, b"trace-two".to_vec())]
        );
        assert_eq!(ex.events, vec![(1, b"event-a".to_vec())]);
        assert_eq!(
            ex.heartbeats,
            vec![(1, b"hb-1".to_vec()), (2, b"hb-2".to_vec())]
        );
    }

    #[test]
    fn clean_flag_is_persisted() {
        let (pool, size) = strict_pool(2, 2);
        let bb = BlackBoxRegion::format(Arc::clone(&pool), 0, 2, 2);
        bb.publish_heartbeat(b"final");
        bb.set_clean();
        pool.simulate_crash();
        let ex = exhume(&pool, 0, size).unwrap();
        assert!(ex.clean);
        assert_eq!(ex.heartbeats.len(), 1);
    }

    #[test]
    fn ring_wraps_and_keeps_the_freshest_entries() {
        let (pool, size) = strict_pool(2, 4);
        let bb = BlackBoxRegion::format(Arc::clone(&pool), 0, 2, 4);
        for i in 0..7u32 {
            bb.push_event(format!("e{i}").as_bytes());
        }
        pool.simulate_crash();
        let ex = exhume(&pool, 0, size).unwrap();
        let seqs: Vec<u64> = ex.events.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7]);
        assert_eq!(ex.events.last().unwrap().1, b"e6".to_vec());
    }

    #[test]
    fn unfenced_slot_is_invisible_and_half_fenced_slot_is_skipped() {
        let (pool, size) = strict_pool(4, 4);
        let bb = BlackBoxRegion::format(Arc::clone(&pool), 0, 4, 4);
        bb.push_trace(b"durable");
        // Slot 1 written but never persisted at all: volatile only.
        let off1 = bb.trace_off(1);
        pool.write_bytes(off1, &2u64.to_le_bytes());
        // Slot 2 torn: header line persisted, payload lines not. Build a
        // plausible header claiming a payload the persistent image lacks.
        let off2 = bb.trace_off(2);
        let payload = [0xABu8; 100];
        let mut hdr = [0u8; SLOT_HDR_BYTES];
        hdr[..8].copy_from_slice(&3u64.to_le_bytes());
        hdr[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        hdr[12..16].copy_from_slice(&slot_crc(3, &payload).to_le_bytes());
        pool.write_bytes(off2, &hdr);
        pool.write_bytes(off2 + SLOT_HDR_BYTES, &payload);
        pool.flush(off2, 64); // first cache line only
        pool.fence();
        pool.simulate_crash();
        let ex = exhume(&pool, 0, size).unwrap();
        assert_eq!(ex.traces, vec![(1, b"durable".to_vec())]);
    }

    #[test]
    fn corrupt_header_degrades_to_none() {
        let (pool, size) = strict_pool(4, 4);
        let bb = BlackBoxRegion::format(Arc::clone(&pool), 0, 4, 4);
        bb.push_event(b"x");
        // Claim absurd capacities that would read past the region.
        pool.write_u64(H_TRACE_CAP, u64::MAX / 2);
        pool.persist(0, BB_HEADER_BYTES);
        pool.simulate_crash();
        assert!(exhume(&pool, 0, size).is_none());
        // An unformatted (all-zero) region is also None, not a panic.
        let fresh = PmemPool::strict(size);
        assert!(exhume(&fresh, 0, size).is_none());
    }

    #[test]
    fn exhume_out_of_bounds_is_none() {
        let pool = PmemPool::anon(4096);
        assert!(exhume(&pool, 0, 1 << 20).is_none());
        assert!(exhume(&pool, 4096, 64).is_none());
    }

    #[test]
    fn publish_is_one_fence() {
        let (pool, _) = strict_pool(4, 4);
        let bb = BlackBoxRegion::format(Arc::clone(&pool), 0, 4, 4);
        let before = pool.stats().fences.get();
        bb.push_trace(&[7u8; 200]);
        assert_eq!(pool.stats().fences.get() - before, 1);
        let before = pool.stats().fences.get();
        bb.publish_heartbeat(b"hb");
        assert_eq!(pool.stats().fences.get() - before, 1);
    }
}
