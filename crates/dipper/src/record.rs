//! DIPPER log records (Figure 3 of the paper).
//!
//! ```text
//! ┌─────────────────────────────┬────┬────────┬──────────┬──────┬───────────┬────────────┐
//! │ word: lsn(48) | len(16)     │ op │ commit │ name_len │ hash │ body hash │ name,params│
//! │ 8 B — atomically persisted  │ 2B │  2B    │   2B     │ 8B   │    8B     │  padded 8B │
//! └─────────────────────────────┴────┴────────┴──────────┴──────┴───────────┴────────────┘
//! ```
//!
//! * The first 8 bytes pack the LSN with the record length. PMEM persists
//!   8-byte words atomically (§2), so one store both validates the record
//!   and makes the log walkable past it — there are never unparseable
//!   holes.
//! * The `commit` flag is set only after the operation's data is durable
//!   (§4.5); recovery replays exclusively committed records.
//! * The `body hash` ([`write_body_hash`]) covers the name + padded params
//!   and is written at publish. The commit drain persists the commit flag
//!   and the record body behind the *same* fence, so a spurious eviction
//!   can land the flag line on media before the body lines — the walk
//!   demotes committed records whose body hash mismatches (safe: the
//!   operation is never acknowledged before its epoch fence returns).
//!   This replaces §3.4's "LSN last" flush order, which
//!   [`flush_record`] still follows for records a swap relocates.
//!
//! The fixed header is 32 bytes; with the two u64 parameters of a typical
//! write this matches the paper's "32 B plus the object name" record-size
//! class.

use dstore_pmem::PmemPool;

/// Operation code reserved for the NOOP / `olock` record (§4.5). Real
/// operation codes are defined by the application (DStore).
pub const OP_NOOP: u16 = 0;

/// High bit of the op field: the operation's pool allocation *stole*
/// blocks from a foreign shard. Parallel replay partitions records by
/// the name's home shard, which reproduces allocations only while every
/// pop comes from the home shard — a window containing a stolen
/// allocation must be replayed serially (in log order) instead. The flag
/// is set by the frontend after planning, before the record is
/// published, so the commit drain persists it with the record.
///
/// The bit lives outside the checksummed region (the header checksum
/// covers the validity word and name hash only), so flagging a reserved
/// record is crash-safe: a torn op field can at worst demote a parallel
/// window to the serial path.
pub const OP_STEAL_FLAG: u16 = 0x8000;

/// The operation code with the steal flag masked off.
#[inline]
pub fn op_code(op: u16) -> u16 {
    op & !OP_STEAL_FLAG
}

/// Whether the record's allocation stole from a foreign shard.
#[inline]
pub fn op_stole(op: u16) -> bool {
    op & OP_STEAL_FLAG != 0
}

/// `commit` values.
pub const COMMIT_PENDING: u16 = 0;
/// Data durable; replay this record.
pub const COMMIT_COMMITTED: u16 = 1;
/// Abandoned (crashed in-flight, or a record relocated at log swap);
/// never replayed, never a conflict.
pub const COMMIT_ABORTED: u16 = 2;

/// Byte offsets within a record.
const OFF_WORD: usize = 0;
const OFF_OP: usize = 8;
const OFF_COMMIT: usize = 10;
const OFF_NAME_LEN: usize = 12;
/// 16-bit header checksum over the validity word and name hash: stale
/// bytes of a previous, longer record can masquerade as a header at a
/// recycled buffer's write frontier; the checksum (together with the
/// monotonic-LSN rule) rejects them — the simulator's stand-in for the
/// per-record CRCs production logs carry.
const OFF_CHECK: usize = 14;
const OFF_HASH: usize = 16;
/// FNV-1a over the record body (name + padded params), written at publish
/// — the torn-epoch guard (see module docs).
const OFF_BODY_HASH: usize = 24;
/// Start of the variable-length section (name then params).
pub const HEADER_LEN: usize = 32;

/// Maximum record length (len field is 16 bits).
pub const MAX_RECORD_LEN: usize = u16::MAX as usize & !7;

/// FNV-1a — stable name hash for fast conflict scans.
#[inline]
pub fn name_hash(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`, so a body stored as two
/// pieces hashes like their concatenation.
#[inline]
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Total encoded length of a record, 8-byte aligned.
#[inline]
pub fn encoded_len(name_len: usize, params_len: usize) -> usize {
    (HEADER_LEN + name_len + params_len + 7) & !7
}

/// Header checksum: folds the validity word and the name hash to 16 bits.
#[inline]
fn header_check(word: u64, hash: u64) -> u16 {
    let x = word ^ hash.rotate_left(17) ^ 0xD57A_11AD_D57A_11AD;
    ((x >> 48) ^ (x >> 32) ^ (x >> 16) ^ x) as u16
}

#[inline]
fn pack_word(lsn: u64, total_len: usize) -> u64 {
    debug_assert!(lsn != 0, "LSN 0 is the invalid marker");
    debug_assert!(lsn < 1 << 48, "LSN overflow");
    debug_assert!(total_len <= MAX_RECORD_LEN && total_len.is_multiple_of(8));
    (lsn << 16) | total_len as u64
}

/// Splits a record word into `(lsn, total_len)`. A zero word means "no
/// record".
#[inline]
pub fn unpack_word(w: u64) -> (u64, usize) {
    (w >> 16, (w & 0xFFFF) as usize)
}

/// Writes (store only — **no flush**) the record header at pool offset
/// `off`: the validity word, op, pending commit, name length/hash, and
/// the name bytes. Called inside the reservation critical section so the
/// log is always walkable and conflict-scannable up to the tail in DRAM.
///
/// Durability is deferred out of the critical section: the record's own
/// [`flush_record`] at publish covers it, and for records that crash
/// between reservation and publish, every commit fence first flushes the
/// header gap (see `OpLog::header_gap`) over [`header_flush_range`] —
/// so by the time any commit flag is durable, the walk can chain past
/// every earlier header. Stale records from a recycled buffer's previous
/// incarnation are rejected by the persisted `min_lsn` fence plus the
/// header checksum, not by header durability.
pub fn write_header(pool: &PmemPool, off: usize, lsn: u64, total_len: usize, op: u16, name: &[u8]) {
    debug_assert!(name.len() <= u16::MAX as usize);
    let mut hdr = [0u8; HEADER_LEN];
    hdr[OFF_WORD..OFF_WORD + 8].copy_from_slice(&pack_word(lsn, total_len).to_le_bytes());
    hdr[OFF_OP..OFF_OP + 2].copy_from_slice(&op.to_le_bytes());
    hdr[OFF_COMMIT..OFF_COMMIT + 2].copy_from_slice(&COMMIT_PENDING.to_le_bytes());
    hdr[OFF_NAME_LEN..OFF_NAME_LEN + 2].copy_from_slice(&(name.len() as u16).to_le_bytes());
    let hash = name_hash(name);
    let word = pack_word(lsn, total_len);
    hdr[OFF_CHECK..OFF_CHECK + 2].copy_from_slice(&header_check(word, hash).to_le_bytes());
    hdr[OFF_HASH..OFF_HASH + 8].copy_from_slice(&hash.to_le_bytes());
    pool.write_bytes(off, &hdr);
    if !name.is_empty() {
        pool.write_bytes(off + HEADER_LEN, name);
    }
}

/// ORs [`OP_STEAL_FLAG`] into a reserved record's op field (store only —
/// the commit drain makes it durable along with the rest of the header
/// line). Must run before the record is published.
pub fn mark_steal(pool: &PmemPool, off: usize) {
    let mut ob = [0u8; 2];
    pool.read_bytes(off + OFF_OP, &mut ob);
    let op = u16::from_le_bytes(ob) | OP_STEAL_FLAG;
    pool.write_bytes(off + OFF_OP, &op.to_le_bytes());
}

/// The byte range a commit fence must flush for a reserved-but-unflushed
/// record so the recovery walk can chain past it: the fixed header only.
/// The name/params need no durability here — the header's checksum covers
/// only the word and name *hash*, and recovery reads name/params bytes
/// solely from committed records, whose whole body the commit drain
/// persisted.
#[inline]
pub fn header_flush_range(off: usize) -> (usize, usize) {
    (off, HEADER_LEN)
}

/// Writes the parameter bytes (after the name) of a reserved record.
pub fn write_params(pool: &PmemPool, off: usize, name_len: usize, params: &[u8]) {
    if !params.is_empty() {
        pool.write_bytes(off + HEADER_LEN + name_len, params);
    }
}

/// Reads the record's body (name + padded params) back from the pool.
fn read_body(pool: &PmemPool, off: usize) -> Vec<u8> {
    let (_, total_len) = read_word(pool, off);
    let mut body = vec![0u8; total_len.saturating_sub(HEADER_LEN)];
    if !body.is_empty() {
        pool.read_bytes(off + HEADER_LEN, &mut body);
    }
    body
}

/// Computes and stores the record's body hash. Must run after
/// [`write_params`] (it hashes the body bytes as they sit in the pool,
/// including the alignment padding, so a post-crash
/// [`Header::body_matches`] recomputes over exactly the same bytes).
pub fn write_body_hash(pool: &PmemPool, off: usize) {
    let h = name_hash(&read_body(pool, off));
    pool.write_u64(off + OFF_BODY_HASH, h);
}

/// Flushes all cache lines of the record in **reverse** order, then
/// fences — the paper's LSN-last protocol (§3.4).
pub fn flush_record(pool: &PmemPool, off: usize, total_len: usize) {
    let start = dstore_pmem::line_down(off);
    let end = dstore_pmem::line_up(off + total_len);
    let mut line = end;
    while line > start {
        line -= dstore_pmem::CACHE_LINE;
        pool.flush(line, dstore_pmem::CACHE_LINE.min(off + total_len - line));
    }
    pool.fence();
}

/// Sets and persists the commit flag.
pub fn set_commit(pool: &PmemPool, off: usize, value: u16) {
    pool.write_bytes(off + OFF_COMMIT, &value.to_le_bytes());
    pool.persist(off + OFF_COMMIT, 2);
}

/// Writes the commit flag **without** persisting it — the caller batches
/// the flush+fence for many records behind one call to
/// [`PmemPool::persist_many`].
pub fn write_commit(pool: &PmemPool, off: usize, value: u16) {
    pool.write_bytes(off + OFF_COMMIT, &value.to_le_bytes());
}

/// The byte range of a record's commit flag, for batched persistence.
#[inline]
pub fn commit_flag_range(off: usize) -> (usize, usize) {
    (off + OFF_COMMIT, 2)
}

/// Reads the commit flag.
#[inline]
pub fn read_commit(pool: &PmemPool, off: usize) -> u16 {
    let mut b = [0u8; 2];
    pool.read_bytes(off + OFF_COMMIT, &mut b);
    u16::from_le_bytes(b)
}

/// A record's fixed header, decoded from one read of its first
/// [`HEADER_LEN`] bytes.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Log sequence number (0: no record).
    pub lsn: u64,
    /// Total encoded record length.
    pub len: usize,
    /// Application operation code.
    pub op: u16,
    /// Commit flag.
    pub commit: u16,
    word: u64,
    name_len: usize,
    check: u16,
    hash: u64,
    body_hash: u64,
}

impl Header {
    /// Reads the header at `off`.
    pub fn read(pool: &PmemPool, off: usize) -> Self {
        let mut b = [0u8; HEADER_LEN];
        pool.read_bytes(off, &mut b);
        let u16_at = |o: usize| u16::from_le_bytes([b[o], b[o + 1]]);
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        let word = u64_at(OFF_WORD);
        let (lsn, len) = unpack_word(word);
        Self {
            lsn,
            len,
            op: u16_at(OFF_OP),
            commit: u16_at(OFF_COMMIT),
            word,
            name_len: u16_at(OFF_NAME_LEN) as usize,
            check: u16_at(OFF_CHECK),
            hash: u64_at(OFF_HASH),
            body_hash: u64_at(OFF_BODY_HASH),
        }
    }

    /// Whether this is a structurally valid record header: nonzero LSN,
    /// sane 8-aligned length of at most `max_len`, and a matching header
    /// checksum. The log walk's gate against stale bytes masquerading as
    /// records.
    pub fn valid(&self, max_len: usize) -> bool {
        self.lsn != 0
            && self.len >= HEADER_LEN
            && self.len.is_multiple_of(8)
            && self.len <= max_len
            && self.check == header_check(self.word, self.hash)
    }

    /// Reads the body of the record at `off` this header was read from —
    /// one read into the name, one into the params — and returns the
    /// record.
    pub fn read_record(&self, pool: &PmemPool, off: usize) -> OwnedRecord {
        // Defensive clamp: the header is persisted at reserve time so this
        // should never fire, but a corrupted length must not panic the walk.
        let body_len = self.len.saturating_sub(HEADER_LEN);
        let name_len = self.name_len.min(body_len);
        let mut name = vec![0u8; name_len];
        pool.read_bytes(off + HEADER_LEN, &mut name);
        // Params run to the padded end, so they include up to 7 pad bytes.
        // Applications encode self-sized params (fixed-width fields), so
        // trailing pad is harmless.
        let mut params = vec![0u8; body_len - name_len];
        pool.read_bytes(off + HEADER_LEN + name_len, &mut params);
        OwnedRecord {
            lsn: self.lsn,
            op: self.op,
            commit: self.commit,
            name,
            params,
            off,
        }
    }

    /// Whether `rec`'s body (its name then padded params, as
    /// [`Header::read_record`] returned them) matches the body hash stored
    /// at publish. False means the commit flag reached the media without
    /// the body (a torn epoch); the walk demotes such records to aborted.
    pub fn body_matches(&self, rec: &OwnedRecord) -> bool {
        self.body_hash == fnv1a_extend(name_hash(&rec.name), &rec.params)
    }
}

/// Reads the validity word `(lsn, total_len)`; `(0, _)` means no record.
#[inline]
pub fn read_word(pool: &PmemPool, off: usize) -> (u64, usize) {
    unpack_word(pool.read_u64(off + OFF_WORD))
}

/// Reads the stored name hash.
#[inline]
pub fn read_hash(pool: &PmemPool, off: usize) -> u64 {
    pool.read_u64(off + OFF_HASH)
}

/// Whether the record at `off` names exactly `name` (hash pre-filter then
/// byte compare) — the conflict-scan predicate.
pub fn name_matches(pool: &PmemPool, off: usize, hash: u64, name: &[u8]) -> bool {
    if read_hash(pool, off) != hash {
        return false;
    }
    let mut lb = [0u8; 2];
    pool.read_bytes(off + OFF_NAME_LEN, &mut lb);
    let nlen = u16::from_le_bytes(lb) as usize;
    if nlen != name.len() {
        return false;
    }
    if nlen == 0 {
        return true;
    }
    let mut buf = vec![0u8; nlen];
    pool.read_bytes(off + HEADER_LEN, &mut buf);
    buf == name
}

/// A record copied out of the log — what replay and recovery consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRecord {
    /// Log sequence number.
    pub lsn: u64,
    /// Application operation code.
    pub op: u16,
    /// Commit flag at read time.
    pub commit: u16,
    /// Object name.
    pub name: Vec<u8>,
    /// Operation parameters.
    pub params: Vec<u8>,
    /// Pool offset the record was read from.
    pub off: usize,
}

/// Reads the full record at `off`. Caller must know a valid record starts
/// there (validity word checked by the log walk).
pub fn read_record(pool: &PmemPool, off: usize) -> OwnedRecord {
    let hdr = Header::read(pool, off);
    debug_assert!(hdr.lsn != 0);
    hdr.read_record(pool, off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore_pmem::PmemPool;

    #[test]
    fn word_packing() {
        let w = pack_word(12345, 64);
        let (lsn, len) = unpack_word(w);
        assert_eq!(lsn, 12345);
        assert_eq!(len, 64);
        assert_eq!(unpack_word(0).0, 0);
    }

    #[test]
    fn encoded_len_is_aligned_and_minimal() {
        assert_eq!(encoded_len(0, 0), HEADER_LEN);
        assert_eq!(encoded_len(1, 0), 40);
        assert_eq!(encoded_len(8, 0), 40);
        assert_eq!(encoded_len(8, 16), 56);
        assert_eq!(encoded_len(5, 16) % 8, 0);
    }

    #[test]
    fn paper_record_size_claim() {
        // "the size of each log record is just 32B plus the object name":
        // with the two u64 params of a typical write we are 48 B + name —
        // same cache-line class for names up to 16 B.
        assert!(encoded_len(0, 16) <= 64);
    }

    #[test]
    fn body_hash_detects_torn_body() {
        let p = PmemPool::anon(1 << 16);
        let name = b"torn/object";
        let params = [0x5Au8; 24];
        let len = encoded_len(name.len(), params.len());
        write_header(&p, 0, 11, len, 2, name);
        write_params(&p, 0, name.len(), &params);
        write_body_hash(&p, 0);
        let body_ok = |p: &PmemPool| {
            let h = Header::read(p, 0);
            h.valid(len) && h.body_matches(&h.read_record(p, 0))
        };
        assert!(body_ok(&p));
        // Tear one params byte — the hash must catch it.
        p.write_bytes(HEADER_LEN + name.len() + 3, &[0xFF]);
        assert!(!body_ok(&p));
    }

    #[test]
    fn header_write_read_roundtrip() {
        let p = PmemPool::anon(1 << 16);
        let name = b"bucket/object-7";
        let params = [7u8; 16];
        let len = encoded_len(name.len(), params.len());
        write_header(&p, 256, 42, len, 3, name);
        write_params(&p, 256, name.len(), &params);
        flush_record(&p, 256, len);
        let r = read_record(&p, 256);
        assert_eq!(r.lsn, 42);
        assert_eq!(r.op, 3);
        assert_eq!(r.commit, COMMIT_PENDING);
        assert_eq!(r.name, name);
        assert_eq!(&r.params[..16], &params);
        assert_eq!(r.off, 256);
    }

    #[test]
    fn commit_flag_roundtrip() {
        let p = PmemPool::anon(1 << 16);
        write_header(&p, 0, 1, encoded_len(3, 0), 1, b"abc");
        assert_eq!(read_commit(&p, 0), COMMIT_PENDING);
        set_commit(&p, 0, COMMIT_COMMITTED);
        assert_eq!(read_commit(&p, 0), COMMIT_COMMITTED);
        set_commit(&p, 0, COMMIT_ABORTED);
        assert_eq!(read_commit(&p, 0), COMMIT_ABORTED);
    }

    #[test]
    fn name_matching() {
        let p = PmemPool::anon(1 << 16);
        write_header(&p, 0, 1, encoded_len(5, 0), 1, b"alpha");
        assert!(name_matches(&p, 0, name_hash(b"alpha"), b"alpha"));
        assert!(!name_matches(&p, 0, name_hash(b"beta"), b"beta"));
        // Same length, different bytes.
        assert!(!name_matches(&p, 0, name_hash(b"alphb"), b"alphb"));
    }

    #[test]
    fn header_durable_after_gap_flush() {
        let p = PmemPool::strict(1 << 16);
        write_header(&p, 128, 9, encoded_len(4, 8), 2, b"name");
        // Reservation alone is a store; the commit fence's header-gap
        // flush is what makes the header durable.
        let (off, len) = header_flush_range(128);
        p.persist(off, len);
        p.simulate_crash();
        let (lsn, len) = read_word(&p, 128);
        assert_eq!(lsn, 9, "validity word must survive the gap flush");
        assert_eq!(len, encoded_len(4, 8));
        // But the commit flag can never be durable-committed yet.
        assert_eq!(read_commit(&p, 128), COMMIT_PENDING);
    }

    #[test]
    fn reverse_order_flush_makes_whole_record_durable() {
        let p = PmemPool::strict(1 << 16);
        let name = vec![b'x'; 100]; // multi-line record
        let params = vec![0xAAu8; 64];
        let len = encoded_len(name.len(), params.len());
        write_header(&p, 64, 5, len, 7, &name);
        write_params(&p, 64, name.len(), &params);
        flush_record(&p, 64, len);
        p.simulate_crash();
        let r = read_record(&p, 64);
        assert_eq!(r.lsn, 5);
        assert_eq!(r.name, name);
        assert_eq!(&r.params[..64], &params[..]);
    }

    #[test]
    fn unflushed_params_lost_but_record_walkable() {
        let p = PmemPool::strict(1 << 16);
        let name = b"victim";
        let params = [0xBBu8; 32];
        let len = encoded_len(name.len(), params.len());
        write_header(&p, 0, 3, len, 1, name);
        write_params(&p, 0, name.len(), &params);
        let (o, l) = header_flush_range(0);
        p.persist(o, l);
        // Crash before flush_record: params lost, but the walk still sees
        // a pending record of known length.
        p.simulate_crash();
        let (lsn, l) = read_word(&p, 0);
        assert_eq!(lsn, 3);
        assert_eq!(l, len);
        assert_eq!(read_commit(&p, 0), COMMIT_PENDING);
    }
}
