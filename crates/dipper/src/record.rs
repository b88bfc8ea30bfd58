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
//!   and is written at publish. It is a word-at-a-time multiply hash
//!   (`body_hash`), not the byte-wise FNV-1a of the name hash: the body
//!   is a whole number of 8-byte words, and the recovery walk hashes every
//!   committed record's body. The commit persists the commit flag
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
/// The word-wise `body_hash` of the record body (name + padded params),
/// written at publish — the torn-epoch guard (see module docs).
const OFF_BODY_HASH: usize = 24;
/// Start of the variable-length section (name then params).
pub const HEADER_LEN: usize = 32;

/// Maximum record length (len field is 16 bits).
pub const MAX_RECORD_LEN: usize = u16::MAX as usize & !7;

/// FNV-1a — stable name hash for fast conflict scans.
#[inline]
pub fn name_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a record body, given as `head` then `tail` (a view's name
/// then params): one multiply per little-endian 8-byte word of their
/// concatenation; the one word that straddles the two is assembled.
/// Each step `h = (h ^ w) * K; h ^= h >> 29` (odd `K`) is a bijection of
/// the state for a fixed word and of the word for a fixed state, so
/// changing any one word of a body always changes its hash. The seed is
/// nonzero and a nonzero state stays nonzero under a zero word, so an
/// all-zero body (lines that never reached the media) never hashes to a
/// zeroed header's 0.
///
/// Panics if the body is not a whole number of words; every record body
/// is (the header is 32 B and records are 8-aligned).
#[inline]
fn body_hash(head: &[u8], mut tail: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    #[inline(always)]
    fn step(h: u64, w: &[u8]) -> u64 {
        let h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(K);
        h ^ (h >> 29)
    }
    let len = head.len() + tail.len();
    assert!(
        len.is_multiple_of(8),
        "record body of {len} B is not a whole number of words"
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let head_words = head.chunks_exact(8);
    let rest = head_words.remainder();
    for w in head_words {
        h = step(h, w);
    }
    if !rest.is_empty() {
        let (fill, after) = tail.split_at(8 - rest.len());
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        w[rest.len()..].copy_from_slice(fill);
        h = step(h, &w);
        tail = after;
    }
    for w in tail.chunks_exact(8) {
        h = step(h, w);
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
    assert!(lsn != 0, "LSN 0 is the invalid marker");
    assert!(lsn < 1 << 48, "LSN {lsn} overflows 48 bits");
    assert!(
        total_len <= MAX_RECORD_LEN && total_len.is_multiple_of(8),
        "record LSN {lsn}: length {total_len} is over {MAX_RECORD_LEN} B or not 8-aligned"
    );
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
    let n = name.len();
    assert!(
        n <= u16::MAX as usize,
        "LSN {lsn} at offset {off}: {n} B name"
    );
    let word = pack_word(lsn, total_len);
    let mut hdr = [0u8; HEADER_LEN];
    hdr[OFF_WORD..OFF_WORD + 8].copy_from_slice(&word.to_le_bytes());
    hdr[OFF_OP..OFF_OP + 2].copy_from_slice(&op.to_le_bytes());
    hdr[OFF_COMMIT..OFF_COMMIT + 2].copy_from_slice(&COMMIT_PENDING.to_le_bytes());
    hdr[OFF_NAME_LEN..OFF_NAME_LEN + 2].copy_from_slice(&(name.len() as u16).to_le_bytes());
    let hash = name_hash(name);
    hdr[OFF_CHECK..OFF_CHECK + 2].copy_from_slice(&header_check(word, hash).to_le_bytes());
    hdr[OFF_HASH..OFF_HASH + 8].copy_from_slice(&hash.to_le_bytes());
    pool.write_bytes(off, &hdr);
    if !name.is_empty() {
        pool.write_bytes(off + HEADER_LEN, name);
    }
}

/// The byte range a commit fence must flush for a reserved-but-unflushed
/// record so the recovery walk can chain past it: the fixed header only.
/// The name/params need no durability here — the header's checksum covers
/// only the word and name *hash*, and recovery reads name/params bytes
/// solely from committed records, whose whole body the commit
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

/// Computes and stores the record's body hash. Must run after
/// [`write_params`] (it hashes the body bytes where they sit in the pool,
/// including the alignment padding, so a post-crash
/// [`Header::body_matches`] recomputes over exactly the same bytes).
/// The caller owns the reserved record: nothing else writes its body.
pub fn write_body_hash(pool: &PmemPool, off: usize) {
    let (lsn, total_len) = read_word(pool, off);
    assert!(
        lsn != 0 && total_len >= HEADER_LEN,
        "no record at pool offset {off}"
    );
    // SAFETY: the record at `off` is the caller's reservation (or a swap's
    // relocation under the swap lock), so nothing writes its body while
    // it is hashed; the hash store below lies outside the body.
    let h = body_hash(
        unsafe { pool.bytes(off + HEADER_LEN, total_len - HEADER_LEN) },
        &[],
    );
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

    /// The record at `off` this header was read from, its name and params
    /// borrowed where they lie in the pool. Panics if this header is no
    /// record's (a zero LSN, or a length below the header's).
    ///
    /// # Safety
    ///
    /// As for [`PmemPool::bytes`]: nothing writes the record's body while
    /// the view lives.
    pub unsafe fn view<'a>(&self, pool: &'a PmemPool, off: usize) -> RecordView<'a> {
        assert!(
            self.lsn != 0 && self.len >= HEADER_LEN,
            "no record at pool offset {off}"
        );
        let body_len = self.len - HEADER_LEN;
        // Params run to the padded end, so they include up to 7 pad bytes.
        // Applications encode self-sized params (fixed-width fields), so
        // trailing pad is harmless.
        let (name, params) = pool
            .bytes(off + HEADER_LEN, body_len)
            .split_at(self.name_len.min(body_len));
        RecordView {
            lsn: self.lsn,
            op: self.op,
            commit: self.commit,
            off,
            name,
            params,
        }
    }

    /// Whether `rec`'s body (its name then padded params, as
    /// [`Header::view`] returned them) matches the body hash stored at
    /// publish. False means the commit flag reached the media without the
    /// body (a torn epoch); the walk demotes such records to aborted.
    pub fn body_matches(&self, rec: &RecordView<'_>) -> bool {
        self.body_hash == body_hash(rec.name, rec.params)
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

/// A log record read where it lies: the header fields by value, the name
/// and params borrowed from the pool's volatile view. What replay,
/// recovery and the checkpoint consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Log sequence number.
    pub lsn: u64,
    /// Application operation code.
    pub op: u16,
    /// Commit flag at read time.
    pub commit: u16,
    /// Pool offset of the record.
    pub off: usize,
    /// Object name.
    pub name: &'a [u8],
    /// Operation parameters, running to the record's padded end.
    pub params: &'a [u8],
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore_pmem::PmemPool;
    use proptest::prelude::*;

    #[test]
    fn word_packing() {
        let w = pack_word(12345, 64);
        let (lsn, len) = unpack_word(w);
        assert_eq!(lsn, 12345);
        assert_eq!(len, 64);
        assert_eq!(unpack_word(0).0, 0);
    }

    #[test]
    #[should_panic(expected = "LSN 0 is the invalid marker")]
    fn write_header_rejects_lsn_zero() {
        let p = PmemPool::anon(1 << 16);
        write_header(&p, 0, 0, encoded_len(3, 0), 1, b"obj");
    }

    #[test]
    #[should_panic(expected = "LSN 7 at offset 64: 65536 B name")]
    fn write_header_rejects_an_oversized_name() {
        let p = PmemPool::anon(1 << 16);
        let name = vec![b'n'; u16::MAX as usize + 1];
        write_header(&p, 64, 7, HEADER_LEN, 1, &name);
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
            // SAFETY: nothing writes the pool while the view lives.
            h.valid(len) && h.body_matches(&unsafe { h.view(p, 0) })
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
        // SAFETY: nothing writes the pool while the view lives.
        let r = unsafe { Header::read(&p, 256).view(&p, 256) };
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
        // SAFETY: nothing writes the pool while the view lives.
        let r = unsafe { Header::read(&p, 64).view(&p, 64) };
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

    /// Writes a published, pending record at `off` over a pool filled
    /// with `0xC3`, so the params' pad bytes are stale ones; returns the
    /// record length.
    fn write_over_stale(
        p: &PmemPool,
        off: usize,
        lsn: u64,
        op: u16,
        name: &[u8],
        params: &[u8],
    ) -> usize {
        p.write_bytes(0, &vec![0xC3; p.len()]);
        let len = encoded_len(name.len(), params.len());
        write_header(p, off, lsn, len, op, name);
        write_params(p, off, name.len(), params);
        write_body_hash(p, off);
        len
    }

    /// The body hash of a fixed body, pinned (the value follows from the
    /// formula in `body_hash`'s doc, computed apart from this code): a
    /// change to the hash is a change of the record format, and must show
    /// up here. Every split of the body into name and params agrees.
    #[test]
    fn body_hash_golden_value() {
        let p = PmemPool::anon(1 << 12);
        let len = write_over_stale(&p, 64, 5, 3, b"golden/key-01", &[0x11; 19]);
        assert_eq!(len, HEADER_LEN + 32);
        let h = Header::read(&p, 64);
        assert_eq!(h.body_hash, 0x77d7_87d3_10d5_f688);
        let mut body = [0u8; 32];
        p.read_bytes(64 + HEADER_LEN, &mut body);
        assert_eq!(body_hash(&body, &[]), h.body_hash);
        for split in 0..=body.len() {
            let (name, params) = body.split_at(split);
            assert_eq!(body_hash(name, params), h.body_hash, "split at {split}");
        }
    }

    /// A crash tears a body at cache-line granularity: a record whose last
    /// 64 B line reverts to the stale bytes it overwrote fails the body
    /// hash, whatever the record's offset and length.
    #[test]
    fn stale_last_line_fails_the_body_hash() {
        let mut torn = 0;
        for off in (64..192).step_by(8) {
            for params_len in (0..300).step_by(7) {
                let p = PmemPool::anon(1 << 12);
                let name = b"line/tear";
                let len = write_over_stale(&p, off, 9, 2, name, &vec![0x5A; params_len]);
                let end = off + len;
                let body_start = off + HEADER_LEN;
                let last_line = dstore_pmem::line_down(end - 1).max(body_start);
                if last_line >= body_start + name.len() + params_len {
                    continue; // the last line holds only pad, already stale
                }
                p.write_bytes(last_line, &vec![0xC3; end - last_line]);
                let h = Header::read(&p, off);
                assert!(h.valid(len));
                // SAFETY: nothing writes the pool while the view lives.
                let v = unsafe { h.view(&p, off) };
                assert!(!h.body_matches(&v), "offset {off}, {params_len} B params");
                torn += 1;
            }
        }
        assert_eq!(torn, 688, "torn records checked");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A view returns exactly the bytes written: the header fields,
        /// the name, and the params followed by their pad.
        #[test]
        fn view_returns_the_written_bytes(
            name in prop::collection::vec(any::<u8>(), 0..65),
            params in prop::collection::vec(any::<u8>(), 0..257),
            lsn in 1u64..1 << 40,
            op in any::<u16>(),
        ) {
            let p = PmemPool::anon(1 << 12);
            let len = write_over_stale(&p, 64, lsn, op, &name, &params);
            let h = Header::read(&p, 64);
            prop_assert!(h.valid(len));
            // SAFETY: nothing writes the pool while the view lives.
            let v = unsafe { h.view(&p, 64) };
            prop_assert_eq!((v.lsn, v.op, v.commit, v.off), (lsn, op, COMMIT_PENDING, 64));
            prop_assert_eq!(v.name, &name[..]);
            let mut padded = params.clone();
            padded.resize(len - HEADER_LEN - name.len(), 0xC3);
            prop_assert_eq!(v.params, &padded[..]);
            prop_assert!(h.body_matches(&v));
        }

        /// Changing any one body byte (name, params or pad) makes the
        /// body hash disagree. (Names are non-empty so a body exists.)
        #[test]
        fn any_changed_body_byte_fails_the_hash(
            name in prop::collection::vec(any::<u8>(), 1..65),
            params in prop::collection::vec(any::<u8>(), 0..257),
            at in any::<usize>(),
            flip in 1u8..255,
        ) {
            let p = PmemPool::anon(1 << 12);
            let len = write_over_stale(&p, 64, 7, 1, &name, &params);
            let byte = 64 + HEADER_LEN + at % (len - HEADER_LEN);
            let mut b = [0u8];
            p.read_bytes(byte, &mut b);
            p.write_bytes(byte, &[b[0] ^ flip]);
            let h = Header::read(&p, 64);
            // SAFETY: nothing writes the pool while the view lives.
            prop_assert!(!h.body_matches(&unsafe { h.view(&p, 64) }));
        }
    }
}
