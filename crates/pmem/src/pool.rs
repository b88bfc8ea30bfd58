//! The emulated PMEM device: [`PmemPool`].
//!
//! # Persistence model (strict mode)
//!
//! The pool maintains two same-sized images:
//!
//! * the **volatile view** — all loads and stores by application code go
//!   here (this is "DRAM caches + the CPU store buffer"),
//! * the **persistent image** — the state that survives
//!   [`PmemPool::simulate_crash`] (this is "the DIMM media").
//!
//! Data moves from the volatile view to the persistent image through three
//! channels, mirroring hardware:
//!
//! 1. [`PmemPool::flush`] (`clwb`/`clflushopt`) marks the cache lines of a
//!    range *pending*; the following [`PmemPool::fence`] (`sfence`) copies
//!    pending lines into the persistent image. A flush without a fence does
//!    **not** guarantee persistence — exactly the bug class the paper's
//!    reverse-order log-record flush protocol (§3.4) defends against.
//! 2. [`PmemPool::evict_lines`] / [`PmemPool::evict_random`] model
//!    *spurious cache-line evictions*: any line may reach the media at any
//!    time, in any order, without the program asking.
//! 3. [`PmemPool::bulk_persist`] models large sequential writebacks
//!    (checkpoint page copies) at device write bandwidth.
//!
//! On [`PmemPool::simulate_crash`] the pending set is discarded and the
//! volatile view is rewritten from the persistent image: everything that was
//! not flushed+fenced (or evicted) is gone.
//!
//! # Aliasing contract
//!
//! The pool hands out its base pointer and performs accesses through raw
//! pointer copies (never through references), treating the region as untyped
//! bytes. Concurrent accesses to *overlapping* ranges must be synchronized
//! by the caller, exactly as with real memory; disjoint concurrent accesses
//! are fine.

use crate::latency::LatencyModel;
use crate::mapping::Mapping;
use crate::stats::PmemStats;
use crate::{line_down, line_up, CACHE_LINE};
use parking_lot::Mutex;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// How faithfully the pool simulates persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistenceMode {
    /// Single image; flush/fence only charge the latency model. Crash
    /// simulation keeps everything. Used by benchmarks.
    Fast,
    /// Dual image with pending-line tracking and spurious evictions. Used
    /// by crash-consistency tests.
    Strict,
}

/// Builder for [`PmemPool`].
pub struct PoolBuilder {
    size: usize,
    mode: PersistenceMode,
    latency: LatencyModel,
    file: Option<PathBuf>,
    seed: u64,
}

impl PoolBuilder {
    /// Starts a builder for a pool of `size` bytes (rounded up to a cache
    /// line).
    pub fn new(size: usize) -> Self {
        Self {
            size: line_up(size.max(CACHE_LINE)),
            mode: PersistenceMode::Fast,
            latency: LatencyModel::none(),
            file: None,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Selects the persistence mode (default [`PersistenceMode::Fast`]).
    pub fn mode(mut self, mode: PersistenceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Installs a latency model (default: free).
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Backs the persistent image with a file (emulated DAX file). In fast
    /// mode the single image is file-backed.
    pub fn dax_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.file = Some(path.into());
        self
    }

    /// Seed for the spurious-eviction RNG (strict mode).
    pub fn eviction_seed(mut self, seed: u64) -> Self {
        self.seed = seed.max(1);
        self
    }

    /// Builds the pool.
    pub fn build(self) -> io::Result<PmemPool> {
        let (volatile, persistent) = match (self.mode, &self.file) {
            (PersistenceMode::Fast, None) => (Mapping::anonymous(self.size)?, None),
            (PersistenceMode::Fast, Some(p)) => (Mapping::file_backed(p, self.size)?, None),
            (PersistenceMode::Strict, None) => (
                Mapping::anonymous(self.size)?,
                Some(Mapping::anonymous(self.size)?),
            ),
            (PersistenceMode::Strict, Some(p)) => {
                let persistent = Mapping::file_backed(p, self.size)?;
                let volatile = Mapping::anonymous(self.size)?;
                // A reopened pool starts from the persistent contents.
                // SAFETY: both mappings are `size` bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        persistent.as_ptr(),
                        volatile.as_ptr(),
                        self.size,
                    );
                }
                (volatile, Some(persistent))
            }
        };
        Ok(PmemPool {
            volatile,
            persistent,
            mode: self.mode,
            latency: self.latency,
            stats: PmemStats::new(),
            pending: Mutex::new(Vec::new()),
            rng: AtomicU64::new(self.seed.max(1)),
        })
    }
}

/// A pending (flushed but not yet fenced) cache-line range.
#[derive(Debug, Clone, Copy)]
struct PendingRange {
    start: usize,
    end: usize,
}

/// An emulated byte-addressable persistent-memory device.
pub struct PmemPool {
    volatile: Mapping,
    persistent: Option<Mapping>,
    mode: PersistenceMode,
    latency: LatencyModel,
    stats: PmemStats,
    /// Flushed-but-unfenced line ranges (strict mode). Shared across
    /// threads: a fence by any thread drains all pending flushes, a benign
    /// over-approximation of per-thread `sfence` semantics.
    pending: Mutex<Vec<PendingRange>>,
    /// xorshift64 state for spurious evictions.
    rng: AtomicU64,
}

impl PmemPool {
    /// Convenience constructor: fast-mode anonymous pool with no latency.
    pub fn anon(size: usize) -> Self {
        PoolBuilder::new(size)
            .build()
            .expect("anonymous mmap failed")
    }

    /// Convenience constructor: strict-mode anonymous pool.
    pub fn strict(size: usize) -> Self {
        PoolBuilder::new(size)
            .mode(PersistenceMode::Strict)
            .build()
            .expect("anonymous mmap failed")
    }

    /// Base address of the volatile view. All offsets are relative to this.
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.volatile.as_ptr()
    }

    /// Pool size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.volatile.len()
    }

    /// Always false (pools are at least one cache line).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The persistence mode this pool was built with.
    #[inline]
    pub fn mode(&self) -> PersistenceMode {
        self.mode
    }

    /// Traffic counters for bandwidth timelines.
    #[inline]
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// The installed latency model.
    #[inline]
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    #[inline]
    fn check_range(&self, off: usize, len: usize) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len()),
            "pmem access out of bounds: off={off} len={len} pool={}",
            self.len()
        );
    }

    /// Copies `data` into the volatile view at `off`.
    #[inline]
    pub fn write_bytes(&self, off: usize, data: &[u8]) {
        self.check_range(off, data.len());
        // SAFETY: bounds checked; raw copy, no references formed.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.base().add(off), data.len());
        }
    }

    /// Copies `buf.len()` bytes from the volatile view at `off` into `buf`.
    #[inline]
    pub fn read_bytes(&self, off: usize, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base().add(off), buf.as_mut_ptr(), buf.len());
        }
    }

    /// Borrows `len` bytes of the volatile view at `off`: a
    /// [`PmemPool::read_bytes`] without the copy. Bounds-checked the same
    /// way and, like it, charges no modelled latency.
    ///
    /// # Safety
    ///
    /// Nothing may write `[off, off + len)` while the slice lives: no
    /// store through this pool and no [`PmemPool::simulate_crash`]
    /// (which rewrites the view's unflushed lines).
    #[inline]
    pub unsafe fn bytes(&self, off: usize, len: usize) -> &[u8] {
        self.check_range(off, len);
        std::slice::from_raw_parts(self.base().add(off), len)
    }

    /// 8-byte store. Real PMEM guarantees atomicity only at this width
    /// (§2); the log's LSN relies on it.
    #[inline]
    pub fn write_u64(&self, off: usize, v: u64) {
        self.check_range(off, 8);
        assert!(
            off.is_multiple_of(8),
            "pmem u64 store at misaligned offset {off}"
        );
        // SAFETY: bounds and alignment checked.
        unsafe {
            (self.base().add(off) as *mut AtomicU64)
                .as_ref()
                .unwrap()
                .store(v, Ordering::Release);
        }
    }

    /// 8-byte load paired with [`PmemPool::write_u64`].
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        self.check_range(off, 8);
        assert!(
            off.is_multiple_of(8),
            "pmem u64 load at misaligned offset {off}"
        );
        // SAFETY: bounds and alignment checked.
        unsafe {
            (self.base().add(off) as *const AtomicU64)
                .as_ref()
                .unwrap()
                .load(Ordering::Acquire)
        }
    }

    /// `clwb`/`clflushopt` over the cache lines covering `[off, off+len)`.
    ///
    /// Strict mode: the lines become *pending* and persist at the next
    /// [`PmemPool::fence`]. Fast mode: only charges latency.
    pub fn flush(&self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.check_range(off, len);
        let start = line_down(off);
        let end = line_up(off + len);
        let lines = (end - start) / CACHE_LINE;
        self.stats.record_flush((end - start) as u64);
        self.latency.charge_flush(lines);
        if self.mode == PersistenceMode::Strict {
            self.pending.lock().push(PendingRange { start, end });
        }
    }

    /// `sfence`: commits all pending flushed lines to the persistent image.
    pub fn fence(&self) {
        self.stats.record_fence();
        self.latency.charge_fence();
        if self.mode != PersistenceMode::Strict {
            return;
        }
        let mut pending = self.pending.lock();
        for r in pending.drain(..) {
            self.persist_lines(r.start, r.end);
        }
    }

    /// `flush` + `fence` in one call — the common "persist this record"
    /// idiom.
    #[inline]
    pub fn persist(&self, off: usize, len: usize) {
        self.flush(off, len);
        self.fence();
    }

    /// Persists several ranges behind a **single** fence — a log
    /// commit's one ordering point (header gap plus record). Latency-wise
    /// this models a train of independent `clwb`s (which pipeline, so the
    /// whole batch is charged as one multi-line flush) followed by one
    /// `sfence`, rather than `ranges.len()` full flush+fence round trips.
    ///
    /// Overlapping or duplicate ranges (a record header inside the header
    /// gap, commit flags sharing a line) are merged so each cache line is
    /// flushed at most once per batch; merged-away duplicates are counted
    /// in [`PmemStats::dedup_lines`].
    pub fn persist_many(&self, ranges: &[(usize, usize)]) {
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
        let mut raw_lines = 0usize;
        for &(off, len) in ranges {
            if len == 0 {
                continue;
            }
            self.check_range(off, len);
            let start = line_down(off);
            let end = line_up(off + len);
            raw_lines += (end - start) / CACHE_LINE;
            spans.push((start, end));
        }
        if spans.is_empty() {
            self.fence();
            return;
        }
        spans.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let merged_lines: usize = merged.iter().map(|&(s, e)| (e - s) / CACHE_LINE).sum();
        if raw_lines > merged_lines {
            self.stats
                .record_dedup_lines((raw_lines - merged_lines) as u64);
        }
        if self.mode == PersistenceMode::Strict {
            self.pending.lock().extend(
                merged
                    .iter()
                    .map(|&(start, end)| PendingRange { start, end }),
            );
        }
        self.stats.record_flush((merged_lines * CACHE_LINE) as u64);
        self.latency.charge_flush(merged_lines);
        self.fence();
    }

    /// Copies `[start, end)` (line-aligned) volatile → persistent.
    fn persist_lines(&self, start: usize, end: usize) {
        let Some(p) = &self.persistent else { return };
        assert!(start.is_multiple_of(CACHE_LINE) && end.is_multiple_of(CACHE_LINE));
        // SAFETY: both images are pool-sized; range is bounds-checked at
        // flush time.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.volatile.as_ptr().add(start),
                p.as_ptr().add(start),
                end - start,
            );
        }
    }

    /// Forces the cache lines covering `[off, off+len)` to persist *now*,
    /// modelling a spurious eviction of exactly those lines.
    pub fn evict_lines(&self, off: usize, len: usize) {
        if len == 0 || self.mode != PersistenceMode::Strict {
            return;
        }
        self.check_range(off, len);
        let start = line_down(off);
        let end = line_up(off + len);
        self.stats
            .record_evictions(((end - start) / CACHE_LINE) as u64);
        self.persist_lines(start, end);
    }

    /// Spuriously evicts `count` random cache lines anywhere in the pool.
    pub fn evict_random(&self, count: usize) {
        if self.mode != PersistenceMode::Strict {
            return;
        }
        let lines = self.len() / CACHE_LINE;
        for _ in 0..count {
            let r = self.next_rand() as usize % lines;
            self.persist_lines(r * CACHE_LINE, (r + 1) * CACHE_LINE);
        }
        self.stats.record_evictions(count as u64);
    }

    /// Spuriously evicts `count` random cache lines within `[off, off+len)`
    /// — used by tests to attack a specific structure (e.g. a log record
    /// being written).
    pub fn evict_random_in(&self, off: usize, len: usize, count: usize) {
        if len == 0 || self.mode != PersistenceMode::Strict {
            return;
        }
        self.check_range(off, len);
        let start = line_down(off);
        let end = line_up(off + len);
        let lines = (end - start) / CACHE_LINE;
        for _ in 0..count {
            let r = self.next_rand() as usize % lines;
            let s = start + r * CACHE_LINE;
            self.persist_lines(s, s + CACHE_LINE);
        }
        self.stats.record_evictions(count as u64);
    }

    #[inline]
    fn next_rand(&self) -> u64 {
        // xorshift64* — racy updates are fine, we only need arbitrary bits.
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Bulk sequential persist of `[off, off+len)` at device write
    /// bandwidth. Models the checkpoint's page-copy/flush loop; unlike
    /// [`PmemPool::flush`] it does not go through the pending set — the
    /// checkpoint always fences afterwards anyway and the ranges are large.
    pub fn bulk_persist(&self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.check_range(off, len);
        self.stats.record_bulk_write(len as u64);
        self.latency.charge_write_bw(len);
        if self.mode == PersistenceMode::Strict {
            self.persist_lines(line_down(off), line_up(off + len));
        }
    }

    /// Charges read bandwidth for a bulk read of `len` bytes (recovery
    /// copies PMEM → DRAM).
    pub fn bulk_read_charge(&self, len: usize) {
        self.stats.record_bulk_read(len as u64);
        self.latency.charge_read_bw(len);
    }

    /// Power failure: drops everything that never reached the persistent
    /// image. The volatile view is rewritten from the persistent image and
    /// the pending set is discarded. Fast-mode pools keep everything (they
    /// have a single image).
    pub fn simulate_crash(&self) {
        let Some(p) = &self.persistent else { return };
        self.pending.lock().clear();
        // SAFETY: both images are pool-sized.
        unsafe {
            std::ptr::copy_nonoverlapping(p.as_ptr(), self.volatile.as_ptr(), self.len());
        }
    }

    /// Synchronizes the persistent image (or the single fast-mode image) to
    /// its backing file, if any. Called at checkpoint completion so a real
    /// process restart can recover.
    pub fn sync_backing_file(&self) -> io::Result<()> {
        match &self.persistent {
            Some(p) => p.sync_range(0, p.len()),
            None => self.volatile.sync_range(0, self.volatile.len()),
        }
    }

    /// Reads `len` bytes from the **persistent image** (strict mode) — what
    /// a post-crash recovery would see. In fast mode reads the single image.
    pub fn read_persistent(&self, off: usize, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        let src = self.persistent.as_ref().map_or(self.base(), |p| p.as_ptr());
        // SAFETY: bounds checked against pool size; both images same size.
        unsafe {
            std::ptr::copy_nonoverlapping(src.add(off), buf.as_mut_ptr(), buf.len());
        }
    }
}

// SAFETY: all interior mutability is via atomics, a mutex, and raw memory
// whose overlapping concurrent access is the caller's contract (see module
// docs) — the same contract real memory imposes.
unsafe impl Send for PmemPool {}
unsafe impl Sync for PmemPool {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_roundtrip() {
        let p = PmemPool::anon(4096);
        p.write_bytes(100, b"hello");
        let mut buf = [0u8; 5];
        p.read_bytes(100, &mut buf);
        assert_eq!(&buf, b"hello");
        p.persist(100, 5);
        p.simulate_crash(); // no-op in fast mode
        p.read_bytes(100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn strict_unflushed_data_lost_on_crash() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, b"durable");
        p.persist(0, 7);
        p.write_bytes(256, b"volatile");
        p.simulate_crash();
        let mut buf = [0u8; 8];
        p.read_bytes(0, &mut buf);
        assert_eq!(&buf[..7], b"durable");
        p.read_bytes(256, &mut buf);
        assert_eq!(&buf, &[0u8; 8], "unflushed bytes must be lost");
    }

    #[test]
    fn flush_without_fence_is_not_durable() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, b"x");
        p.flush(0, 1);
        // No fence!
        p.simulate_crash();
        let mut b = [0u8; 1];
        p.read_bytes(0, &mut b);
        assert_eq!(b[0], 0, "flushed-but-unfenced line must not persist");
    }

    #[test]
    fn fence_commits_pending_flushes() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, b"y");
        p.flush(0, 1);
        p.fence();
        p.simulate_crash();
        let mut b = [0u8; 1];
        p.read_bytes(0, &mut b);
        assert_eq!(b[0], b'y');
    }

    #[test]
    fn persist_many_is_durable_behind_one_fence() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, b"aa");
        p.write_bytes(512, b"bb");
        p.write_bytes(1024, b"cc");
        let before = p.stats().snapshot().fences;
        p.persist_many(&[(0, 2), (512, 2), (1024, 2)]);
        let after = p.stats().snapshot().fences;
        assert_eq!(after - before, 1, "one fence covers the whole batch");
        p.simulate_crash();
        let mut b = [0u8; 2];
        for (off, want) in [(0usize, b"aa"), (512, b"bb"), (1024, b"cc")] {
            p.read_bytes(off, &mut b);
            assert_eq!(&b, want);
        }
    }

    #[test]
    fn spurious_eviction_persists_without_flush() {
        let p = PmemPool::strict(4096);
        p.write_bytes(128, b"evicted");
        p.evict_lines(128, 7);
        p.simulate_crash();
        let mut b = [0u8; 7];
        p.read_bytes(128, &mut b);
        assert_eq!(&b, b"evicted");
    }

    #[test]
    fn eviction_granularity_is_whole_lines() {
        let p = PmemPool::strict(4096);
        // Two values on the same cache line: evicting one persists both.
        p.write_bytes(64, b"a");
        p.write_bytes(100, b"b");
        p.evict_lines(64, 1);
        p.simulate_crash();
        let mut b = [0u8; 1];
        p.read_bytes(100, &mut b);
        assert_eq!(b[0], b'b', "whole cache line persists together");
    }

    #[test]
    fn crash_restores_previous_persistent_state() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, &[1, 2, 3, 4]);
        p.persist(0, 4);
        p.write_bytes(0, &[9, 9, 9, 9]); // overwrite, not persisted
        p.simulate_crash();
        let mut b = [0u8; 4];
        p.read_bytes(0, &mut b);
        assert_eq!(b, [1, 2, 3, 4], "crash rolls back to last persisted");
    }

    #[test]
    fn u64_store_load_roundtrip() {
        let p = PmemPool::anon(4096);
        p.write_u64(64, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.read_u64(64), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn bulk_persist_is_durable() {
        let p = PmemPool::strict(1 << 16);
        let data = vec![0xCCu8; 8192];
        p.write_bytes(4096, &data);
        p.bulk_persist(4096, 8192);
        p.simulate_crash();
        let mut b = vec![0u8; 8192];
        p.read_bytes(4096, &mut b);
        assert_eq!(b, data);
    }

    #[test]
    fn read_persistent_sees_only_durable_data() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, b"old");
        p.persist(0, 3);
        p.write_bytes(0, b"new");
        let mut b = [0u8; 3];
        p.read_persistent(0, &mut b);
        assert_eq!(&b, b"old");
        p.read_bytes(0, &mut b);
        assert_eq!(&b, b"new");
    }

    #[test]
    fn evict_random_in_targets_range() {
        let p = PmemPool::strict(1 << 16);
        p.write_bytes(1024, &[7u8; 512]);
        // Evict enough times that every line in the range is hit w.h.p.
        p.evict_random_in(1024, 512, 256);
        p.write_bytes(8192, &[8u8; 64]);
        p.simulate_crash();
        let mut b = [0u8; 64];
        p.read_bytes(8192, &mut b);
        assert_eq!(b, [0u8; 64], "evictions outside the range must not occur");
    }

    #[test]
    fn file_backed_strict_pool_reopens_persistent_image() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pool.pmem");
        {
            let p = PoolBuilder::new(4096)
                .mode(PersistenceMode::Strict)
                .dax_file(&path)
                .build()
                .unwrap();
            p.write_bytes(0, b"persisted");
            p.persist(0, 9);
            p.write_bytes(2048, b"lost");
            p.sync_backing_file().unwrap();
        }
        let p = PoolBuilder::new(4096)
            .mode(PersistenceMode::Strict)
            .dax_file(&path)
            .build()
            .unwrap();
        let mut b = [0u8; 9];
        p.read_bytes(0, &mut b);
        assert_eq!(&b, b"persisted");
        let mut b = [0u8; 4];
        p.read_bytes(2048, &mut b);
        assert_eq!(&b, &[0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let p = PmemPool::anon(4096);
        p.write_bytes(4090, b"toolong!!");
    }

    #[test]
    fn stats_track_traffic() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, &[1u8; 200]);
        p.persist(0, 200);
        let s = p.stats().snapshot();
        assert_eq!(s.flush_bytes, 256, "200B spans 4 lines = 256B");
        assert_eq!(s.fences, 1);
    }

    #[test]
    fn persist_many_merges_overlapping_ranges() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, &[1u8; 128]);
        let before = p.stats().snapshot();
        // Three ranges covering the same two lines: 4 raw lines, 2 merged.
        p.persist_many(&[(0, 128), (0, 64), (64, 64)]);
        let s = p.stats().snapshot();
        assert_eq!(s.flush_ops - before.flush_ops, 1, "one combined flush");
        assert_eq!(s.flush_bytes - before.flush_bytes, 128, "merged, not 256");
        assert_eq!(s.dedup_lines - before.dedup_lines, 2);
        assert_eq!(s.fences - before.fences, 1);
        p.simulate_crash();
        let mut b = [0u8; 128];
        p.read_bytes(0, &mut b);
        assert_eq!(b, [1u8; 128]);
    }

    #[test]
    fn flush_without_intervening_fence_is_not_elided() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, &[1u8; 64]);
        p.flush(0, 64);
        let before = p.stats().snapshot();
        p.flush(0, 64);
        let s = p.stats().snapshot();
        assert_eq!(s.flush_ops - before.flush_ops, 1);
        p.fence();
        p.simulate_crash();
        let mut b = [0u8; 64];
        p.read_bytes(0, &mut b);
        assert_eq!(b, [1u8; 64]);
    }

    #[test]
    fn store_invalidates_proven_durability() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, &[1u8; 64]);
        p.persist(0, 64);
        p.write_bytes(0, &[2u8; 64]); // same line dirtied again
        p.simulate_crash();
        let mut b = [0u8; 64];
        p.read_bytes(0, &mut b);
        assert_eq!(b, [1u8; 64], "the unflushed store is lost");
        p.write_bytes(0, &[2u8; 64]);
        p.persist(0, 64);
        p.simulate_crash();
        p.read_bytes(0, &mut b);
        assert_eq!(b, [2u8; 64]);
    }

    #[test]
    fn crash_resets_proven_durable_tracking() {
        let p = PmemPool::strict(4096);
        p.write_bytes(0, &[3u8; 64]);
        p.persist(0, 64);
        p.simulate_crash();
        let before = p.stats().snapshot();
        p.persist(0, 64); // post-crash: the line is flushed again
        let s = p.stats().snapshot();
        assert_eq!(s.flush_ops - before.flush_ops, 1);
        assert_eq!(s.flush_bytes - before.flush_bytes, 64);
    }

    #[test]
    fn untracked_lines_always_flush() {
        // No flush is skipped at run time: re-persisting a line that is
        // already durable issues the flush again.
        let p = PmemPool::strict(4096);
        p.write_bytes(1024, &[9u8; 64]);
        p.persist(1024, 64);
        let before = p.stats().snapshot();
        p.persist(1024, 64);
        p.persist_many(&[(1024, 64), (2048, 64)]);
        let s = p.stats().snapshot();
        assert_eq!(s.flush_ops - before.flush_ops, 2);
        assert_eq!(s.flush_bytes - before.flush_bytes, 64 + 128);
        assert_eq!(s.fences - before.fences, 2);
    }

    #[test]
    #[should_panic(expected = "misaligned offset 68")]
    fn misaligned_u64_store_panics() {
        let p = PmemPool::anon(4096);
        p.write_u64(68, 1);
    }

    #[test]
    #[should_panic(expected = "misaligned offset 12")]
    fn misaligned_u64_load_panics() {
        let p = PmemPool::anon(4096);
        p.read_u64(12);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use std::sync::Arc;
        let p = Arc::new(PmemPool::strict(1 << 20));
        let mut handles = vec![];
        for t in 0..8usize {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                let off = t * 4096;
                let pat = vec![t as u8 + 1; 4096];
                p.write_bytes(off, &pat);
                p.persist(off, 4096);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        p.simulate_crash();
        for t in 0..8usize {
            let mut b = vec![0u8; 4096];
            p.read_bytes(t * 4096, &mut b);
            assert!(b.iter().all(|&x| x == t as u8 + 1));
        }
    }
}
