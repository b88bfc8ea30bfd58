//! The PMEM-resident operation log: two buffers, O(1) swap, and
//! log-embedded concurrency control.
//!
//! # Roles
//!
//! * **Durability**: an operation is *committed* once its data is durable
//!   and its record, commit flag set, has passed its commit's fence — the
//!   commit flag is the unit of crash-recovery replay.
//! * **Write-write concurrency control** (§4.4): instead of per-object
//!   locks, a new write scans the log "from the first uncommitted record
//!   until the end" for in-flight records naming the same object and spins
//!   on their commit flags. The lock table *is* the log.
//! * **Checkpoint feed** (§3.5): when the active log fills past the
//!   threshold, [`OpLog::swap`] exchanges the active and archived buffers
//!   ("this is fast and only involves a pointer swap"), relocating the few
//!   still-uncommitted records into the new active buffer, and the
//!   archived buffer's committed records are replayed onto the shadow
//!   copies in the background.
//!
//! # Validity & walkability
//!
//! Reservations assign LSNs and tail space under one short lock and
//! *store* the record's header before releasing it, so the in-memory log
//! is always a walkable sequence: records start at the buffer head, each
//! one's length is trustworthy, and the walk ends at the first word whose
//! LSN breaks the expected sequence (stale bytes from a previous
//! incarnation always have `lsn < min_lsn`, which is persisted in the log
//! header at recycle time).
//!
//! Durability is deferred out of the reservation critical section and
//! out of the publish entirely — neither flushes nor fences. A commit is
//! one ordering point: it stores the commit flags of a set of records
//! (one thread's durability epoch; often a set of one), then persists
//! those records together with the **header gap** (all headers between
//! the durable-header frontier and the reserved tail) in one
//! [`PmemPool::persist_many`], behind **one** fence. No flush is skipped:
//! racing committers may both flush an overlapping gap. The durable image
//! therefore stays walkable up to every committed record, and recovery
//! always chains past crashed reservations to reach it.

use crate::layout::PmemLayout;
use crate::record::{self, RecordView, COMMIT_COMMITTED, COMMIT_PENDING};
use dstore_pmem::{Backoff, PmemPool};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A reference to a log record that survives log swaps.
///
/// Records are addressed by `(epoch, pool offset)`; the relocation table
/// maps a still-uncommitted record's address across each swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordHandle {
    epoch: u64,
    off: usize,
}

/// Result of a successful append.
#[derive(Debug)]
pub struct AppendResult {
    /// Handle for committing this record.
    pub handle: RecordHandle,
    /// In-flight records on the same object that must commit before this
    /// operation may touch the object (spin with
    /// [`OpLog::wait_committed`]).
    pub conflicts: Vec<RecordHandle>,
    /// The record's LSN (diagnostics).
    pub lsn: u64,
}

/// Error: the active log cannot fit the record; a checkpoint (swap) is
/// needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFull;

/// Reservation state, guarded by the reserve mutex.
struct ReserveState {
    /// Index of the active buffer (mirrors the root state word).
    active: usize,
    /// Pool offset of the next free byte in the active buffer.
    tail: usize,
    /// Next LSN to hand out (global across both buffers).
    next_lsn: u64,
}

/// Counters for diagnostics and benchmarks.
#[derive(Debug, Default)]
pub struct LogStats {
    /// Records appended.
    pub appends: AtomicU64,
    /// Log swaps performed.
    pub swaps: AtomicU64,
    /// Records relocated by swaps.
    pub relocated: AtomicU64,
    /// Records committed. Exported as `dstore_log_commits_combined_total`
    /// beside [`LogStats::commit_batches`]; their ratio is the mean number
    /// of records per commit fence (the mean durability epoch).
    pub commits_combined: AtomicU64,
    /// Commit fences issued: one per non-empty [`OpLog::commit_many`]
    /// (an [`OpLog::commit`] is one of size one).
    pub commit_batches: AtomicU64,
    /// Committed records demoted by the walk because their body hash
    /// mismatched — a commit flag that reached the media (spurious
    /// eviction) before its record body's commit fence.
    pub torn_commits: AtomicU64,
}

/// The double-buffered PMEM operation log.
pub struct OpLog {
    pool: Arc<PmemPool>,
    layout: PmemLayout,
    /// Held `read` for the full duration of every append and commit;
    /// held `write` by swap. Guarantees a swap never observes a
    /// half-written record body.
    swap_lock: RwLock<()>,
    /// Current swap epoch (only written under `swap_lock` write).
    epoch: AtomicU64,
    reserve: Mutex<ReserveState>,
    /// `(epoch, old offset) → new offset` for records relocated at the
    /// swap that ended `epoch`.
    relocations: Mutex<HashMap<(u64, usize), usize>>,
    /// Per-buffer "first possibly-uncommitted record" scan hints (pool
    /// offsets; purely an optimization).
    hints: [AtomicUsize; 2],
    /// End of the written (DRAM-visible) header prefix of the active
    /// buffer — advanced under the reserve lock by every reservation.
    hdr_written: AtomicUsize,
    /// End of the *durable* header prefix of the active buffer: every
    /// record header below it is flushed. Advanced by each commit's
    /// header-gap flush; reset by swap. Invariant: no commit flag becomes
    /// durable before the headers below the reserved tail do, so the
    /// recovery walk can always chain past crashed reservations to a
    /// committed record.
    hdr_durable: AtomicUsize,
    stats: LogStats,
    /// Deadlock-detector budget for [`OpLog::wait_committed`]. Written
    /// only by [`OpLog::set_stall_timeout`] before the log is shared.
    stall_timeout: std::time::Duration,
}

impl OpLog {
    /// Formats both buffers (fresh store).
    pub fn create(pool: Arc<PmemPool>, layout: PmemLayout) -> Self {
        for i in 0..2 {
            pool.write_u64(layout.log[i], 1); // min_lsn = 1
            pool.persist(layout.log[i], 8);
        }
        Self::attach(pool, layout, 0, layout.log_records(0), 1)
    }

    /// Rebuilds the volatile log state after recovery: `active` buffer,
    /// its append tail, and the next LSN (which must dominate every LSN
    /// ever persisted).
    pub fn attach(
        pool: Arc<PmemPool>,
        layout: PmemLayout,
        active: usize,
        tail: usize,
        next_lsn: u64,
    ) -> Self {
        let hints = [
            AtomicUsize::new(layout.log_records(0)),
            AtomicUsize::new(layout.log_records(1)),
        ];
        Self {
            // Everything recovered from the durable image is, by
            // definition, durable.
            hdr_written: AtomicUsize::new(tail),
            hdr_durable: AtomicUsize::new(tail),
            reserve: Mutex::new(ReserveState {
                active,
                tail,
                next_lsn,
            }),
            swap_lock: RwLock::new(()),
            epoch: AtomicU64::new(0),
            relocations: Mutex::new(HashMap::new()),
            hints,
            stats: LogStats::default(),
            stall_timeout: std::time::Duration::from_secs(30),
            pool,
            layout,
        }
    }

    /// Sets the deadlock-detector budget for [`OpLog::wait_committed`].
    /// Call before the log is shared across threads (it takes `&mut`).
    pub fn set_stall_timeout(&mut self, stall_timeout: std::time::Duration) {
        self.stall_timeout = stall_timeout;
    }

    /// Selects nothing: every commit is a direct commit. Kept only
    /// because the repository benchmark's `dipper.append_commit_ns` probe
    /// (`benchmark/src/probes.rs`) still calls it.
    #[doc(hidden)]
    pub fn set_commit_combining(&mut self, on: bool) {
        assert!(on, "the direct commit is the only commit path");
    }

    /// Selects nothing: a commit always persists its record behind the
    /// header-gap flush. Kept only because the repository benchmark's
    /// `dipper.append_commit_ns` probe (`benchmark/src/probes.rs`) still
    /// calls it.
    #[doc(hidden)]
    pub fn set_durability_epoch(&mut self, on: bool) {
        assert!(on, "the direct commit is the only durability path");
    }

    /// The pool this log lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Counters.
    pub fn stats(&self) -> &LogStats {
        &self.stats
    }

    /// Fraction of the active buffer in use.
    pub fn used_fraction(&self) -> f64 {
        let st = self.reserve.lock();
        (st.tail - self.layout.log_records(st.active)) as f64 / self.layout.log_size as f64
    }

    /// End offset of buffer `i`'s record area.
    fn buf_end(&self, i: usize) -> usize {
        self.layout.log_records(i) + self.layout.log_size
    }

    /// The largest record [`OpLog::reserve`] takes, in encoded bytes
    /// ([`record::encoded_len`]): [`record::MAX_RECORD_LEN`], or one log
    /// buffer if that is smaller.
    pub fn max_record_len(&self) -> usize {
        record::MAX_RECORD_LEN.min(self.layout.log_size)
    }

    /// Reserves a record slot for `op` on `name` — the short serialized
    /// step of an append (the paper's step ①): LSN + tail bump + header
    /// stamp under the reserve lock, plus the conflict scan. Returns a
    /// [`Reservation`] whose [`Reservation::publish`] writes the body
    /// *outside* any append-ordering lock, concurrently with other
    /// appenders, or [`LogFull`] when a swap is required first.
    ///
    /// The reservation pins the swap lock (shared), so the record cannot
    /// be relocated while its body is still being written. A record over
    /// [`OpLog::max_record_len`] panics: callers check first.
    pub fn reserve(
        &self,
        op: u16,
        name: &[u8],
        params_len: usize,
    ) -> Result<Reservation<'_>, LogFull> {
        let total_len = record::encoded_len(name.len(), params_len);
        assert!(
            total_len <= self.max_record_len(),
            "record too large: {total_len}"
        );
        let guard = self.swap_lock.read();
        let (off, lsn, active) = {
            let mut st = self.reserve.lock();
            if st.tail + total_len > self.buf_end(st.active) {
                return Err(LogFull);
            }
            let off = st.tail;
            let lsn = st.next_lsn;
            st.tail += total_len;
            st.next_lsn += 1;
            // Stamp the header + name (store only — durability is
            // deferred to the next commit's header-gap flush) so
            // later conflict scans and the swap relocator see a fully
            // written record prefix.
            record::write_header(&self.pool, off, lsn, total_len, op, name);
            self.hdr_written.store(off + total_len, Ordering::Release);
            (off, lsn, st.active)
        };
        // The scan runs *outside* the reserve lock: every header below
        // `off` was written under the lock before it was handed to us, so
        // the lock handoff orders those writes before our reads, and
        // concurrent reservations only write at offsets ≥ `off +
        // total_len`, which the scan never reaches. Racing hint updates
        // are safe — each scanner stores an offset it observed as "all
        // committed below", and committed flags are sticky within a
        // buffer incarnation.
        let conflicts = self.scan_conflicts(active, off, name);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        Ok(Reservation {
            log: self,
            off,
            total_len,
            name_len: name.len(),
            lsn,
            epoch: self.epoch.load(Ordering::Acquire),
            conflicts,
            _swap: guard,
        })
    }

    /// Appends a record for `op` on `name`, returning its handle and the
    /// in-flight conflicts to wait on, or [`LogFull`] when a swap is
    /// required first. Equivalent to [`OpLog::reserve`] followed
    /// immediately by [`Reservation::publish`].
    ///
    /// On return the record is fully written (the paper's step ②); it
    /// becomes durable and *committed* — and hence replayable — only via
    /// [`OpLog::commit`] (step ⑨).
    pub fn try_append(&self, op: u16, name: &[u8], params: &[u8]) -> Result<AppendResult, LogFull> {
        Ok(self.reserve(op, name, params.len())?.publish(params))
    }

    /// Scans the active buffer from the first-uncommitted hint up to (not
    /// including) `my_off` for pending records naming `name`.
    /// Called after the caller's own reservation (with the swap lock held
    /// shared), so every earlier record's header and name are visible —
    /// they were written under the reserve lock before it was handed to
    /// the caller.
    fn scan_conflicts(&self, active: usize, my_off: usize, name: &[u8]) -> Vec<RecordHandle> {
        let hash = record::name_hash(name);
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut conflicts = Vec::new();
        let mut off = self.hints[active].load(Ordering::Acquire);
        let mut hint_frontier = true;
        while off < my_off {
            let (lsn, len) = record::read_word(&self.pool, off);
            if lsn == 0 || len < record::HEADER_LEN {
                break;
            }
            let pending = record::read_commit(&self.pool, off) == COMMIT_PENDING;
            if pending {
                if hint_frontier {
                    // Hint stops advancing at the first pending record.
                    self.hints[active].store(off, Ordering::Release);
                    hint_frontier = false;
                }
                if record::name_matches(&self.pool, off, hash, name) {
                    conflicts.push(RecordHandle { epoch, off });
                }
            }
            off += len;
        }
        if hint_frontier {
            self.hints[active].store(my_off, Ordering::Release);
        }
        conflicts
    }

    /// Follows the relocation chain of `h`. `Ok(off)` — the record's
    /// current pool offset; `Err(())` — the record had already committed
    /// when a swap ran, so it is committed, full stop.
    fn resolve(&self, mut h: RecordHandle) -> Result<usize, ()> {
        let current = self.epoch.load(Ordering::Acquire);
        if h.epoch == current {
            return Ok(h.off);
        }
        let map = self.relocations.lock();
        while h.epoch < current {
            match map.get(&(h.epoch, h.off)) {
                Some(&new_off) => {
                    h = RecordHandle {
                        epoch: h.epoch + 1,
                        off: new_off,
                    }
                }
                None => return Err(()),
            }
        }
        Ok(h.off)
    }

    /// Header ranges between the durable-header frontier and the written
    /// frontier, walked by trustworthy (reserve-lock-ordered) length
    /// words, plus the new frontier to publish after they persist. Every
    /// commit flushes this gap in its fence, so a durable commit
    /// flag implies the walk can chain past every earlier record —
    /// including reservations that were never published or committed.
    /// Callers hold the swap lock shared, so the active buffer cannot be
    /// recycled underneath.
    ///
    /// Racing committers may both flush an overlapping gap — redundant
    /// but correct; `fetch_max` keeps the frontier monotonic.
    fn header_gap(&self) -> (Vec<(usize, usize)>, usize) {
        let target = self.hdr_written.load(Ordering::Acquire);
        let mut from = self.hdr_durable.load(Ordering::Acquire);
        let mut ranges = Vec::new();
        while from < target {
            let (_, len) = record::read_word(&self.pool, from);
            assert!(
                len >= record::HEADER_LEN,
                "header gap walk hit a hole at pool offset {from} (len {len})"
            );
            ranges.push(record::header_flush_range(from));
            from += len;
        }
        (ranges, target)
    }

    /// Commits one record: [`OpLog::commit_many`] of `h` alone.
    pub fn commit(&self, h: RecordHandle) {
        self.commit_many([h]);
    }

    /// Marks every record of `hs` committed and persists them, flags and
    /// bodies, behind the header-gap flush (see `OpLog::header_gap`), in
    /// one [`PmemPool::persist_many`] — one fence for the whole set.
    /// Called once per record, after the data of every op in the set is
    /// durable (§4.5) — a caller with a device write in flight waits it
    /// out *before* calling, so no commit ever waits on a device. Returns
    /// once every record is durable. An empty set does nothing.
    pub fn commit_many(&self, hs: impl IntoIterator<Item = RecordHandle>) {
        let _g = self.swap_lock.read();
        // Every record of `hs` was reserved before this call, so the gap
        // already reaches past each of their headers.
        let (mut ranges, hdr_target) = self.header_gap();
        let gap = ranges.len();
        for h in hs {
            let off = match self.resolve(h) {
                Ok(off) => off,
                Err(()) => unreachable!("only the owner commits, and it commits once"),
            };
            let total_len = record::read_word(&self.pool, off).1;
            record::write_commit(&self.pool, off, COMMIT_COMMITTED);
            ranges.push((off, total_len));
        }
        let n = (ranges.len() - gap) as u64;
        if n == 0 {
            return;
        }
        self.pool.persist_many(&ranges);
        self.hdr_durable.fetch_max(hdr_target, Ordering::AcqRel);
        self.stats.commit_batches.fetch_add(1, Ordering::Relaxed);
        self.stats.commits_combined.fetch_add(n, Ordering::Relaxed);
    }

    /// Whether two handles refer to the same (still-pending) record,
    /// following relocation chains — used to let an `olock` holder's own
    /// writes pass its own lock record.
    pub fn same_record(&self, a: RecordHandle, b: RecordHandle) -> bool {
        let _g = self.swap_lock.read();
        match (self.resolve(a), self.resolve(b)) {
            (Ok(x), Ok(y)) => x == y,
            _ => false,
        }
    }

    /// Marks the record aborted: it will never be replayed and is not a
    /// conflict. Used when an append raced a same-object in-flight
    /// operation (the op retries with a fresh record) and by recovery for
    /// records that were in flight at crash time.
    pub fn abort(&self, h: RecordHandle) {
        let _g = self.swap_lock.read();
        match self.resolve(h) {
            Ok(off) => record::set_commit(&self.pool, off, record::COMMIT_ABORTED),
            Err(()) => unreachable!("only the owner aborts, before committing"),
        }
    }

    /// Whether the record behind `h` has committed.
    pub fn is_committed(&self, h: RecordHandle) -> bool {
        let _g = self.swap_lock.read();
        match self.resolve(h) {
            Ok(off) => record::read_commit(&self.pool, off) != COMMIT_PENDING,
            Err(()) => true,
        }
    }

    /// Spins until the record behind `h` commits — the conflict wait of
    /// §4.4 ("conflicting requests do not use a hold and wait approach,
    /// but rather spin on dedicated flags").
    pub fn wait_committed(&self, h: RecordHandle) {
        let t = std::time::Instant::now();
        let mut backoff = Backoff::new();
        while !self.is_committed(h) {
            // Back off between probes: on small hosts the conflicting
            // op's thread needs the core to make progress, and a raw
            // yield loop burns a full core per blocked writer.
            backoff.snooze();
            // Deadlock detector: no operation legitimately holds a record
            // pending this long; fail loudly instead of hanging.
            if backoff.is_sleeping() && t.elapsed() > self.stall_timeout {
                let rec = self
                    .resolve(h)
                    .ok()
                    .map(|off| record::Header::read(&self.pool, off));
                panic!(
                    "wait_committed stalled >{:?} on {h:?} rec={rec:?} — CC invariant broken",
                    self.stall_timeout
                );
            }
        }
    }

    /// Swaps the active and archived buffers (checkpoint start). Must only
    /// be called when the previous checkpoint has completed (enforced by
    /// [`crate::Checkpointer`]). Relocates still-uncommitted records into
    /// the new active buffer with fresh LSNs, persists the new buffer's
    /// `min_lsn`, then atomically persists the root transition via
    /// `begin_root_transition`.
    ///
    /// Returns the index of the now-archived buffer.
    pub fn swap(&self, begin_root_transition: impl FnOnce()) -> usize {
        let _g = self.swap_lock.write();
        let mut st = self.reserve.lock();
        let old = st.active;
        let new = 1 - old;
        let old_epoch = self.epoch.load(Ordering::Acquire);

        // Recycle the new buffer: persist its min_lsn fence so stale
        // records from its previous incarnation can never be mistaken for
        // fresh ones.
        self.pool.write_u64(self.layout.log[new], st.next_lsn);
        self.pool.persist(self.layout.log[new], 8);

        // Relocate uncommitted records ("moving any uncommitted log
        // records to the new active log", §3.5).
        let mut new_tail = self.layout.log_records(new);
        let mut moves = Vec::new();
        let mut off = self.layout.log_records(old);
        let end = st.tail;
        while off < end {
            let (lsn, len) = record::read_word(&self.pool, off);
            assert!(
                lsn != 0 && len >= record::HEADER_LEN,
                "swap relocation hit a hole at pool offset {off} (lsn {lsn}, len {len})"
            );
            if record::read_commit(&self.pool, off) == COMMIT_PENDING {
                // SAFETY: the swap lock is held `write`, so no reservation
                // writes the old buffer, and the copy lands in the other
                // buffer.
                let rec = unsafe { record::Header::read(&self.pool, off).view(&self.pool, off) };
                let lsn = st.next_lsn;
                st.next_lsn += 1;
                record::write_header(&self.pool, new_tail, lsn, len, rec.op, rec.name);
                record::write_params(&self.pool, new_tail, rec.name.len(), rec.params);
                record::write_body_hash(&self.pool, new_tail);
                record::flush_record(&self.pool, new_tail, len);
                moves.push(((old_epoch, off), new_tail));
                new_tail += len;
            }
            off += len;
        }
        self.stats
            .relocated
            .fetch_add(moves.len() as u64, Ordering::Relaxed);

        // The atomic transition: active log flips + checkpoint-in-progress
        // sets, in one persisted 8-byte root store.
        begin_root_transition();

        // Publish the volatile side. The relocated records were fully
        // flushed above, so the new buffer's header frontiers start
        // durable at its tail.
        self.relocations.lock().extend(moves);
        self.hdr_written.store(new_tail, Ordering::Release);
        self.hdr_durable.store(new_tail, Ordering::Release);
        st.active = new;
        st.tail = new_tail;
        self.hints[new].store(self.layout.log_records(new), Ordering::Release);
        self.epoch.store(old_epoch + 1, Ordering::Release);
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        old
    }

    /// Walks buffer `i`, handing every valid record (pending and
    /// committed) to `visit` in physical order — which, by construction,
    /// is a valid conflict order. Each record is viewed where it lies, not
    /// copied. The one record loop behind a live checkpoint's
    /// [`crate::RecordWindows`] and the recovery scan.
    ///
    /// Validity: the first record's LSN must clear the buffer's `min_lsn`
    /// fence, and LSNs must be strictly increasing from there. Strictly
    /// increasing (rather than consecutive) is required because recovery
    /// resumes the LSN counter with headroom, leaving a gap mid-buffer;
    /// it still rejects every stale record, because stale LSNs (from
    /// before the buffer's recycle, or from a crashed swap's relocations)
    /// are always below both the fence and any fresh record's LSN.
    /// Each record's body hash is checked on the bytes the view borrows;
    /// a committed record whose body fails it is demoted to aborted.
    ///
    /// # Safety
    ///
    /// Nothing may write buffer `i` while the walk or any view it handed
    /// out lives: the buffer is archived and its checkpoint is running,
    /// or the log is being recovered. (The walk's own demotions write only
    /// commit flags, which lie outside every view.)
    pub unsafe fn visit<'a>(&'a self, i: usize, mut visit: impl FnMut(RecordView<'a>)) {
        // The lowest LSN the next record may carry: the fence, then one
        // above its predecessor.
        let mut lsn_floor = self.pool.read_u64(self.layout.log[i]);
        let mut off = self.layout.log_records(i);
        let end = self.buf_end(i);
        while off + record::HEADER_LEN <= end {
            let hdr = record::Header::read(&self.pool, off);
            if !hdr.valid(end - off) || hdr.lsn < lsn_floor {
                break;
            }
            lsn_floor = hdr.lsn + 1;
            let mut rec = hdr.view(&self.pool, off);
            if rec.commit == COMMIT_COMMITTED && !hdr.body_matches(&rec) {
                // Torn commit: the crash landed between the commit-flag
                // store and the commit fence, persisting the flag line
                // (eviction) over a partially persisted body. Demoting is
                // safe because no operation is acknowledged before its
                // commit fence completes.
                record::set_commit(&self.pool, off, record::COMMIT_ABORTED);
                rec.commit = record::COMMIT_ABORTED;
                self.stats.torn_commits.fetch_add(1, Ordering::Relaxed);
            }
            visit(rec);
            off += hdr.len; // checksum-validated header: len is trustworthy
        }
    }

    /// The active buffer index (diagnostics).
    pub fn active(&self) -> usize {
        self.reserve.lock().active
    }

    /// Durably marks the records at pool offsets `offs` aborted, behind
    /// one fence (recovery: operations in flight at the crash were never
    /// acknowledged and must not be replayed or treated as conflicts).
    pub fn abort_crashed(&self, offs: &[usize]) {
        for &off in offs {
            record::write_commit(&self.pool, off, record::COMMIT_ABORTED);
        }
        if !offs.is_empty() {
            let flags: Vec<_> = offs.iter().map(|&o| record::commit_flag_range(o)).collect();
            self.pool.persist_many(&flags);
        }
    }
}

/// A reserved-but-unpublished log record: the output of the short
/// serialized append step ([`OpLog::reserve`]). The header (validity
/// word, op, name) is already written and visible to conflict scans; the
/// parameter body is not, and nothing is durable yet — the record's
/// commit (or a later record's header-gap flush) takes care of that.
///
/// Holds the swap lock shared for its whole lifetime, so the slot cannot
/// be relocated mid-write. Because of that, **do not** call the
/// lock-taking `OpLog` record methods (`commit`/`abort`/`same_record`)
/// while a reservation is live — `parking_lot` read locks are not
/// reentrant past a queued writer. Use [`Reservation::same_record`] and
/// [`Reservation::abort`] instead; they rely on the already-held guard.
#[must_use = "a reservation must be published or aborted"]
pub struct Reservation<'a> {
    log: &'a OpLog,
    off: usize,
    total_len: usize,
    name_len: usize,
    lsn: u64,
    epoch: u64,
    conflicts: Vec<RecordHandle>,
    _swap: RwLockReadGuard<'a, ()>,
}

impl Reservation<'_> {
    /// The reserved record's LSN.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Handle to the reserved record.
    pub fn handle(&self) -> RecordHandle {
        RecordHandle {
            epoch: self.epoch,
            off: self.off,
        }
    }

    /// In-flight records on the same object that must commit before this
    /// operation may touch the object.
    pub fn conflicts(&self) -> &[RecordHandle] {
        &self.conflicts
    }

    /// Whether two handles refer to the same still-pending record — the
    /// reservation-safe variant of [`OpLog::same_record`] (resolves the
    /// relocation chains under the already-held swap guard instead of
    /// re-acquiring the lock).
    pub fn same_record(&self, a: RecordHandle, b: RecordHandle) -> bool {
        match (self.log.resolve(a), self.log.resolve(b)) {
            (Ok(x), Ok(y)) => x == y,
            _ => false,
        }
    }

    /// Writes the record body — the parallel persistence step (the
    /// paper's step ②). Runs concurrently with other publishers; only the
    /// reservation itself was serialized. Stores only: the commit persists
    /// the whole body behind its fence, and the body hash written here
    /// lets recovery demote a committed flag whose body the crash tore.
    ///
    /// Panics if `params` does not encode to exactly the reserved length:
    /// longer params would overwrite the next record's header.
    pub fn publish(self, params: &[u8]) -> AppendResult {
        assert_eq!(
            record::encoded_len(self.name_len, params.len()),
            self.total_len,
            "publish params length differs from the length reserved at pool offset {}",
            self.off
        );
        record::write_params(&self.log.pool, self.off, self.name_len, params);
        record::write_body_hash(&self.log.pool, self.off);
        AppendResult {
            handle: self.handle(),
            conflicts: self.conflicts,
            lsn: self.lsn,
        }
    }

    /// Marks the reserved record aborted without ever writing its body —
    /// used when the conflict scan or the allocation step fails
    /// and the operation will retry with a fresh record.
    pub fn abort(self) {
        record::set_commit(&self.log.pool, self.off, record::COMMIT_ABORTED);
    }
}

#[cfg(test)]
/// A record copied out of the log, for tests that write the log while
/// they still inspect what they walked.
#[derive(Debug)]
pub(crate) struct OwnedRecord {
    pub lsn: u64,
    pub op: u16,
    pub commit: u16,
    pub name: Vec<u8>,
    pub params: Vec<u8>,
    pub off: usize,
}

#[cfg(test)]
impl OpLog {
    /// Every valid record of buffer `i`, copied out, in physical order
    /// (see [`Self::visit`]).
    pub(crate) fn walk(&self, i: usize) -> Vec<OwnedRecord> {
        let mut out = Vec::new();
        // SAFETY: the views are copied before the walk returns, and tests
        // write no log while they walk it.
        unsafe {
            self.visit(i, |r| {
                out.push(OwnedRecord {
                    lsn: r.lsn,
                    op: r.op,
                    commit: r.commit,
                    name: r.name.to_vec(),
                    params: r.params.to_vec(),
                    off: r.off,
                })
            })
        };
        out
    }

    /// Committed records of buffer `i`, copied out.
    pub(crate) fn committed_records(&self, i: usize) -> Vec<OwnedRecord> {
        let mut out = self.walk(i);
        out.retain(|r| r.commit == COMMIT_COMMITTED);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DipperConfig;

    fn setup(log_size: usize) -> (Arc<PmemPool>, PmemLayout, OpLog) {
        let cfg = DipperConfig {
            log_size,
            shadow_size: 64 * 1024,
        };
        let layout = PmemLayout::new(&cfg);
        let pool = Arc::new(PmemPool::strict(layout.total));
        let log = OpLog::create(Arc::clone(&pool), layout);
        (pool, layout, log)
    }

    #[test]
    fn append_commit_walk() {
        let (_p, _l, log) = setup(1 << 16);
        let a = log.try_append(1, b"obj1", &[1, 2, 3]).unwrap();
        let b = log.try_append(2, b"obj2", &[4, 5]).unwrap();
        log.commit(a.handle);
        let recs = log.walk(0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, 1);
        assert_eq!(recs[0].op, 1);
        assert_eq!(recs[0].name, b"obj1");
        assert_eq!(&recs[0].params[..3], &[1, 2, 3]);
        assert_eq!(recs[0].commit, COMMIT_COMMITTED);
        assert_eq!(recs[1].lsn, 2);
        assert_eq!(recs[1].commit, COMMIT_PENDING);
        assert_eq!(log.committed_records(0).len(), 1);
        log.commit(b.handle);
        assert_eq!(log.committed_records(0).len(), 2);
    }

    #[test]
    fn conflict_detection_same_object_only() {
        let (_p, _l, log) = setup(1 << 16);
        let a = log.try_append(1, b"hot", &[]).unwrap();
        assert!(a.conflicts.is_empty());
        // Different object: no conflict.
        let b = log.try_append(1, b"cold", &[]).unwrap();
        assert!(b.conflicts.is_empty());
        // Same object while `a` is pending: conflict.
        let c = log.try_append(1, b"hot", &[]).unwrap();
        assert_eq!(c.conflicts.len(), 1);
        assert!(!log.is_committed(c.conflicts[0]));
        log.commit(a.handle);
        assert!(log.is_committed(c.conflicts[0]));
        // After commit, new appends see no conflict.
        log.commit(b.handle);
        log.commit(c.handle);
        let d = log.try_append(1, b"hot", &[]).unwrap();
        assert!(d.conflicts.is_empty());
    }

    #[test]
    fn wait_committed_spins_until_commit() {
        let (_p, _l, log) = setup(1 << 16);
        let log = Arc::new(log);
        let a = log.try_append(1, b"obj", &[]).unwrap();
        let b = log.try_append(1, b"obj", &[]).unwrap();
        assert_eq!(b.conflicts.len(), 1);
        let log2 = Arc::clone(&log);
        let h = b.conflicts[0];
        let waiter = std::thread::spawn(move || log2.wait_committed(h));
        std::thread::sleep(std::time::Duration::from_millis(20));
        log.commit(a.handle);
        waiter.join().unwrap();
    }

    #[test]
    fn log_full_is_reported() {
        let (_p, _l, log) = setup(4096);
        let mut n = 0;
        while let Ok(r) = log.try_append(1, b"k", &[0u8; 100]) {
            log.commit(r.handle);
            n += 1;
        }
        assert!(n > 10, "only {n} records fit");
    }

    #[test]
    fn swap_moves_uncommitted_and_preserves_committed() {
        let (_p, _l, log) = setup(1 << 16);
        let a = log.try_append(1, b"done", &[9]).unwrap();
        log.commit(a.handle);
        let b = log.try_append(2, b"inflight", &[7]).unwrap();

        let archived = log.swap(|| {});
        assert_eq!(archived, 0);
        assert_eq!(log.active(), 1);
        assert_eq!(log.stats().relocated.load(Ordering::Relaxed), 1);

        // Archived buffer: committed record replayable, moved record not.
        let committed = log.committed_records(0);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].name, b"done");

        // The in-flight record lives in the new buffer and its handle
        // still works.
        let recs = log.walk(1);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, b"inflight");
        assert_eq!(recs[0].commit, COMMIT_PENDING);
        assert!(!log.is_committed(b.handle));
        log.commit(b.handle);
        assert!(log.is_committed(b.handle));
        assert_eq!(log.committed_records(1).len(), 1);
    }

    #[test]
    fn handles_survive_multiple_swaps() {
        let (_p, _l, log) = setup(1 << 16);
        let a = log.try_append(1, b"longlived", &[]).unwrap();
        log.swap(|| {});
        log.swap(|| {});
        log.swap(|| {});
        assert!(!log.is_committed(a.handle));
        log.commit(a.handle);
        assert!(log.is_committed(a.handle));
        // The record is committed in the *current* active buffer.
        let recs = log.committed_records(log.active());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, b"longlived");
    }

    #[test]
    fn committed_handle_resolution_after_swap() {
        let (_p, _l, log) = setup(1 << 16);
        let a = log.try_append(1, b"x", &[]).unwrap();
        log.commit(a.handle);
        log.swap(|| {});
        // Committed-before-swap records resolve to "committed".
        assert!(log.is_committed(a.handle));
    }

    #[test]
    fn recycled_buffer_ignores_stale_records() {
        let (_p, _l, log) = setup(1 << 16);
        for i in 0..5 {
            let r = log.try_append(1, format!("k{i}").as_bytes(), &[]).unwrap();
            log.commit(r.handle);
        }
        log.swap(|| {}); // buffer 0 archived with 5 records
        log.swap(|| {}); // buffer 0 active again, recycled
                         // Stale records must be invisible despite still being in memory.
        assert_eq!(log.walk(0).len(), 0);
        let r = log.try_append(1, b"fresh", &[]).unwrap();
        log.commit(r.handle);
        let recs = log.walk(0);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, b"fresh");
    }

    #[test]
    fn walk_survives_crash_with_pending_tail() {
        let (p, _l, log) = setup(1 << 16);
        let a = log.try_append(1, b"committed", &[1]).unwrap();
        log.commit(a.handle);
        let _b = log.try_append(2, b"pending", &[2]).unwrap();
        // A publish only stores: the pending record's header reaches
        // media through a later commit's header-gap flush.
        let c = log.try_append(3, b"later", &[3]).unwrap();
        log.commit(c.handle);
        p.simulate_crash();
        let recs = log.walk(0);
        assert_eq!(recs.len(), 3, "every record walkable after crash");
        assert_eq!(recs[0].commit, COMMIT_COMMITTED);
        assert_eq!(recs[1].commit, COMMIT_PENDING);
        assert_eq!(recs[2].commit, COMMIT_COMMITTED);
        assert_eq!(log.committed_records(0).len(), 2);
    }

    #[test]
    fn commit_fence_covers_unpublished_reservations() {
        let (p, _l, log) = setup(1 << 16);
        // A reservation that never publishes before the crash, long
        // enough that the next record shares no cache line with its
        // header...
        let res = log.reserve(7, b"unpublished", 100).unwrap();
        // ...must not strand a later committed record: the commit fence
        // flushes the header gap, so the walk chains past the hole.
        let b = log.try_append(1, b"durable", &[9]).unwrap();
        log.commit(b.handle);
        p.simulate_crash();
        let recs = log.walk(0);
        assert_eq!(
            recs.len(),
            2,
            "walk must chain past the crashed reservation"
        );
        // The crashed reservation is pending (its name/params bytes are
        // not durable — only the header is, which is all recovery needs).
        assert_eq!(recs[0].commit, COMMIT_PENDING);
        let committed = log.committed_records(0);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].name, b"durable");
        assert_eq!(&committed[0].params[..1], &[9]);
        drop(res);
    }

    #[test]
    fn abort_pending_silences_conflicts_and_replay() {
        let (_p, _l, log) = setup(1 << 16);
        let a = log.try_append(1, b"zombie", &[]).unwrap();
        log.abort_crashed(&[a.handle.off]);
        assert_eq!(log.committed_records(0).len(), 0);
        let b = log.try_append(1, b"zombie", &[]).unwrap();
        assert!(b.conflicts.is_empty(), "aborted records are not conflicts");
    }

    #[test]
    fn concurrent_appends_have_unique_slots_and_lsns() {
        let (_p, _l, log) = setup(1 << 20);
        let log = Arc::new(log);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let mut lsns = vec![];
                    for i in 0..200 {
                        let name = format!("t{t}-o{i}");
                        let r = log.try_append(1, name.as_bytes(), &[t as u8]).unwrap();
                        lsns.push(r.lsn);
                        log.commit(r.handle);
                    }
                    lsns
                })
            })
            .collect();
        let mut all = vec![];
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1600, "duplicate LSNs");
        let recs = log.walk(0);
        assert_eq!(recs.len(), 1600);
        for w in recs.windows(2) {
            assert_eq!(w[1].lsn, w[0].lsn + 1, "walk sequence broken");
        }
    }

    #[test]
    fn reservation_is_conflict_visible_before_publish() {
        let (_p, _l, log) = setup(1 << 16);
        let res = log.reserve(1, b"hot", 3).unwrap();
        assert!(res.conflicts().is_empty());
        // A second reservation on the same object sees the unpublished
        // record as a conflict — the header alone carries the name.
        let other = log.reserve(1, b"hot", 0).unwrap();
        assert_eq!(other.conflicts().len(), 1);
        assert_eq!(other.conflicts()[0], res.handle());
        other.abort();
        let r = res.publish(&[7, 8, 9]);
        log.commit(r.handle);
        let recs = log.walk(0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].commit, COMMIT_COMMITTED);
        assert_eq!(&recs[0].params[..3], &[7, 8, 9]);
        assert_eq!(recs[1].commit, record::COMMIT_ABORTED);
        // Aborted reservations are not conflicts for later appends.
        let d = log.try_append(1, b"hot", &[]).unwrap();
        assert!(d.conflicts.is_empty());
        log.commit(d.handle);
    }

    #[test]
    fn aborted_reservation_keeps_log_walkable() {
        let (p, _l, log) = setup(1 << 16);
        let res = log.reserve(3, b"dropped", 100).unwrap();
        res.abort();
        let b = log.try_append(1, b"kept", &[1]).unwrap();
        log.commit(b.handle);
        p.simulate_crash();
        // The aborted record's header was persisted at reserve time, so
        // the walk steps over it and still finds the committed record.
        let recs = log.walk(0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].commit, record::COMMIT_ABORTED);
        let committed = log.committed_records(0);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].name, b"kept");
    }

    #[test]
    fn reservation_same_record_matches_own_handle() {
        let (_p, _l, log) = setup(1 << 16);
        let lockrec = log.try_append(record::OP_NOOP, b"obj", &[]).unwrap();
        let res = log.reserve(1, b"obj", 0).unwrap();
        assert_eq!(res.conflicts().len(), 1);
        assert!(res.same_record(lockrec.handle, res.conflicts()[0]));
        assert!(!res.same_record(res.handle(), res.conflicts()[0]));
        let r = res.publish(&[]);
        log.commit(r.handle);
        log.commit(lockrec.handle);
    }

    #[test]
    fn combined_commits_are_durable() {
        // Four threads commit their own objects on one log at once; each
        // committed record must survive the crash under its own name,
        // whichever thread's fence persisted the lines it shares.
        let (p, _l, log) = setup(1 << 20);
        let log = Arc::new(log);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let name = format!("t{t}-o{i}");
                        let r = log.try_append(1, name.as_bytes(), &[t as u8]).unwrap();
                        log.commit(r.handle);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        p.simulate_crash();
        let recs = log.committed_records(0);
        assert_eq!(recs.len(), 200);
        let names: std::collections::BTreeSet<Vec<u8>> =
            recs.iter().map(|r| r.name.clone()).collect();
        let expected: std::collections::BTreeSet<Vec<u8>> = (0..4)
            .flat_map(|t| (0..50).map(move |i| format!("t{t}-o{i}").into_bytes()))
            .collect();
        assert_eq!(names, expected);
        for r in &recs {
            let t = std::str::from_utf8(&r.name).unwrap()[1..2]
                .parse::<u8>()
                .unwrap();
            assert_eq!(
                r.params[0], t,
                "{:?} carries another thread's params",
                r.name
            );
        }
        // No commit waits on another: each is its own batch of one.
        let batches = log.stats().commit_batches.load(Ordering::Relaxed);
        let combined = log.stats().commits_combined.load(Ordering::Relaxed);
        assert_eq!(combined, 200);
        assert_eq!(batches, 200);
    }

    #[test]
    fn epoch_commits_are_durable() {
        const THREADS: usize = 4;
        const COMMITS: usize = 50;
        // Records span several cache lines, so a commit that persisted only
        // the flag/header line would leave torn bodies behind.
        const PARAMS: usize = 200;
        let (p, _l, log) = setup(1 << 20);
        let log = Arc::new(log);
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..COMMITS {
                        let name = format!("t{t}-o{i}");
                        let params = [t as u8 + 1; PARAMS];
                        let r = log.try_append(1, name.as_bytes(), &params).unwrap();
                        log.commit(r.handle);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every `commit` has returned: each record must survive a crash
        // as COMMITTED with its body hash intact (the walk demotes and
        // counts a torn body).
        p.simulate_crash();
        let recs = log.walk(0);
        assert_eq!(recs.len(), THREADS * COMMITS);
        for r in &recs {
            assert_eq!(r.commit, COMMIT_COMMITTED, "lsn {} not durable", r.lsn);
            let t = r.params[0];
            assert!((1..=THREADS as u8).contains(&t));
            assert!(r.params[..PARAMS].iter().all(|&b| b == t));
        }
        // One fence per commit.
        let stats = log.stats();
        let commits = (THREADS * COMMITS) as u64;
        assert_eq!(stats.commits_combined.load(Ordering::Relaxed), commits);
        assert_eq!(stats.commit_batches.load(Ordering::Relaxed), commits);
        assert_eq!(stats.torn_commits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn commit_many_is_one_fence_for_the_set() {
        const RECORDS: usize = 16;
        let (p, _l, log) = setup(1 << 16);
        let handles: Vec<_> = (0..RECORDS)
            .map(|i| {
                let r = log.try_append(1, format!("o{i}").as_bytes(), &[i as u8; 150]);
                r.unwrap().handle
            })
            .collect();
        let left = log.try_append(1, b"left", &[9; 10]).unwrap();
        let fences = p.stats().snapshot().fences;
        log.commit_many(handles.iter().copied());
        assert_eq!(p.stats().snapshot().fences - fences, 1);
        log.commit_many([]);
        assert_eq!(p.stats().snapshot().fences - fences, 1, "empty set");
        p.simulate_crash();
        let recs = log.walk(0);
        assert_eq!(recs.len(), RECORDS + 1);
        for (i, r) in recs[..RECORDS].iter().enumerate() {
            assert_eq!(r.commit, COMMIT_COMMITTED, "record {i}");
            assert!(r.params[..150].iter().all(|&b| b == i as u8));
        }
        assert_eq!(recs[RECORDS].commit, COMMIT_PENDING);
        assert!(!log.is_committed(left.handle));
        let stats = log.stats();
        assert_eq!(stats.commit_batches.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.commits_combined.load(Ordering::Relaxed),
            RECORDS as u64
        );
    }

    #[test]
    fn epoch_uncommitted_records_stay_pending_after_crash() {
        let (p, _l, log) = setup(1 << 16);
        // Published but never committed: nothing of this record was
        // flushed by the publish itself.
        let _a = log.try_append(1, b"limbo", &[0xEE; 80]).unwrap();
        // A later committed record's commit flushes the header gap,
        // so the walk can chain past the hole after the crash.
        let b = log.try_append(1, b"solid", &[7; 10]).unwrap();
        log.commit(b.handle);
        p.simulate_crash();
        let recs = log.walk(0);
        assert_eq!(recs.len(), 2, "walk must chain past the uncommitted record");
        assert_eq!(recs[0].commit, COMMIT_PENDING);
        let committed = log.committed_records(0);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].name, b"solid");
        assert_eq!(&committed[0].params[..10], &[7; 10]);
    }

    #[test]
    fn torn_epoch_commit_is_demoted() {
        let (p, _l, log) = setup(1 << 16);
        let r = log.try_append(1, b"torn", &[0xAB; 100]).unwrap();
        let off = r.handle.off;
        // Crash between the commit's flag store and its fence: the
        // flag line gets spuriously evicted, the rest of the body does
        // not. No fence ever runs.
        record::write_commit(&p, off, COMMIT_COMMITTED);
        p.evict_lines(off, record::HEADER_LEN);
        p.simulate_crash();
        let recs = log.walk(0);
        assert_eq!(recs.len(), 1);
        assert_eq!(
            recs[0].commit,
            record::COMMIT_ABORTED,
            "committed flag over a torn body must be demoted"
        );
        assert_eq!(log.stats().torn_commits.load(Ordering::Relaxed), 1);
        assert!(log.committed_records(0).is_empty());
    }

    #[test]
    fn combining_swaps_and_conflicts_interoperate() {
        // Contended writers wait on each other's records and commit while
        // a swap relocates whatever is pending mid-run.
        let (_p, _l, log) = setup(1 << 20);
        let log = Arc::new(log);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let r = log.try_append(1, b"contended", &[]).unwrap();
                        for c in &r.conflicts {
                            log.wait_committed(*c);
                        }
                        log.commit(r.handle);
                    }
                })
            })
            .collect();
        let mut backoff = Backoff::new();
        while log.stats().commits_combined.load(Ordering::Relaxed) < 100 {
            backoff.snooze();
        }
        assert_eq!(log.swap(|| {}), 0);
        for t in threads {
            t.join().unwrap();
        }
        // Relocated records commit in the new buffer; their archived
        // copies stay pending, so each commit is counted exactly once.
        let total = log.committed_records(0).len() + log.committed_records(1).len();
        assert_eq!(total, 400);
    }

    #[test]
    #[should_panic(expected = "reserved at pool offset")]
    fn publish_longer_than_reserved_panics() {
        let (_p, _l, log) = setup(1 << 16);
        let res = log.reserve(1, b"obj", 8).unwrap();
        // Enough extra bytes to spill into the next record's header.
        let _ = res.publish(&[0u8; 64]);
    }

    #[test]
    fn concurrent_same_object_writers_serialize_via_conflicts() {
        // Two threads hammer one object; conflicts must ensure that at
        // most one uncommitted record per object exists at any time, so
        // the final committed count equals the number of appends.
        let (_p, _l, log) = setup(1 << 20);
        let log = Arc::new(log);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let r = log.try_append(1, b"contended", &[]).unwrap();
                        for c in &r.conflicts {
                            log.wait_committed(*c);
                        }
                        // Critical section on the object would be here.
                        log.commit(r.handle);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.committed_records(0).len(), 400);
    }
}
