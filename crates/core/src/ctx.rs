//! The DStore operation context — the paper's Table 2 API.
//!
//! | Paper                      | Here                                    |
//! |----------------------------|-----------------------------------------|
//! | `ds_init` / `ds_finalize`  | [`DStore::context`](crate::DStore::context) / drop |
//! | `oput` / `oget` / `odelete`| [`DsContext::put`] / [`DsContext::get`] / [`DsContext::delete`] |
//! | `oopen` / `oclose`         | [`DsContext::open`] / drop              |
//! | `oread` / `owrite`         | [`ObjectHandle::read`] / [`ObjectHandle::write`] |
//! | `olock` / `ounlock`        | [`DsContext::lock`] / drop ([`DsLock`]) |
//!
//! Every mutating operation follows Figure 4's nine steps:
//! ① lock the pools, ② allocate and write the log record, ③ allocate
//! blocks, ④ allocate a metadata entry, ⑤ unlock, ⑥ write metadata,
//! ⑦ update the B-tree, ⑧ write data to SSD, ⑨ commit and flush the log
//! record. Steps ⑥–⑧ run outside the synchronous region — the
//! observational-equivalence concurrency of §4.3/§4.4.

use crate::config::LoggingMode;
use crate::error::{DsError, DsResult};
use crate::ops::{self, ExtendParams, PhysImage, PutParams};
use crate::stats::WriteBreakdown;
use crate::store::StoreInner;
use crate::structures::{
    blocks_for_geometry, Domain, MetaEntry, PutKind, PutPlan, MAX_NAME_LEN, PAGE_BYTES,
};
use crate::telemetry::StoreTelemetry;
use dstore_arena::{DramMemory, RelPtr};
use dstore_dipper::log::LogFull;
use dstore_dipper::OP_NOOP;
use dstore_telemetry::trace::{
    ActiveTrace, SEG_ALLOC, SEG_CC_WAIT, SEG_COMMIT, SEG_INDEX, SEG_LOG_APPEND, SEG_LOG_FLUSH,
    SEG_LOG_STALL, SEG_LOOKUP, SEG_NET_QUEUE, SEG_SSD_READ, SEG_SSD_WRITE,
};
use dstore_telemetry::{now_ns, LatencyHistogram};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Starts per-op instrumentation: ONE timestamp shared by the latency
/// histogram and the trace start, plus the 1-in-N arming decision (a
/// single relaxed `fetch_add`). With telemetry off the clock is read
/// only if the caller needs it anyway (`force_clock`, for an explicit
/// write breakdown).
#[inline]
fn op_begin(inner: &StoreInner, op: &'static str, force_clock: bool) -> (u64, ActiveTrace) {
    op_begin_enqueued(inner, op, force_clock, 0)
}

/// [`op_begin`] for an operation that spent time queued upstream (the
/// `dstore-server` shard queues): a nonzero `enqueue_ns` (in
/// [`now_ns`] time) backdates the trace to admission and charges the
/// wait to the `net_queue` segment, so Table-3 tail attribution covers
/// the network path. The latency histograms still measure execution
/// only (`t0` → completion); the SLO cut sees the full residency.
#[inline]
fn op_begin_enqueued(
    inner: &StoreInner,
    op: &'static str,
    force_clock: bool,
    enqueue_ns: u64,
) -> (u64, ActiveTrace) {
    let Some(tel) = inner.telemetry.as_deref() else {
        let t0 = if force_clock { now_ns() } else { 0 };
        return (t0, ActiveTrace::disabled());
    };
    let t0 = now_ns();
    let at = match &tel.trace {
        Some(tr) => {
            let start = if enqueue_ns != 0 {
                enqueue_ns.min(t0)
            } else {
                t0
            };
            let mut at = ActiveTrace::start(op, tr.sampler.arm(), start);
            if enqueue_ns != 0 {
                // charge_at, not mark_at: both timestamps are already
                // in hand, so even an *unarmed* op records its queue
                // wait — an SLO-retained outlier then shows net_queue
                // vs. unattributed instead of a blank breakdown.
                at.charge_at(SEG_NET_QUEUE, t0);
            }
            // One relaxed load: lets a retained trace attribute itself
            // to a checkpoint that ends mid-op (see op_end).
            at.set_start_phase(tel.ckpt.phase.name());
            at
        }
        None => ActiveTrace::disabled(),
    };
    (t0, at)
}

/// Completes per-op instrumentation: ONE `now_ns` read shared between
/// the histogram sample and the trace end — the clock-read coalescing
/// that keeps telemetry + tracing overhead on the hot path at two clock
/// reads per op. A trace retained by sampling or the SLO is stamped
/// with the in-flight checkpoint phase and the log fill before it lands
/// in the flight recorder, tying tail samples to concurrent checkpoint
/// activity.
#[inline]
fn op_end(
    inner: &StoreInner,
    hist: impl FnOnce(&StoreTelemetry) -> &LatencyHistogram,
    t0: u64,
    at: ActiveTrace,
    last_seg: usize,
) {
    let Some(tel) = inner.telemetry.as_deref() else {
        return;
    };
    let end = now_ns();
    hist(tel).record(end.saturating_sub(t0));
    if let Some(tr) = &tel.trace {
        let start_phase = at.start_phase();
        if let Some(mut t) = at.finish(last_seg, end, tr.sampler.slo_ns()) {
            // Attribute the op to the checkpoint phase in flight at
            // completion; if the checkpoint ended mid-op (an op stalled
            // behind a CoW image copy resumes only once the copier goes
            // idle), the phase at op start still names the culprit.
            let phase = tel.ckpt.phase.name();
            t.phase = if phase == "idle" && !start_phase.is_empty() {
                start_phase
            } else {
                phase
            };
            t.log_used_milli = (inner.log.used_fraction().clamp(0.0, 1.0) * 1000.0).round() as u32;
            tr.ring.record(&t);
            // Mirror every retained trace into the crash-persistent
            // black box — the ring only sees samples + SLO outliers, so
            // this fence stays off the common op path.
            if let Some(bb) = &inner.blackbox {
                bb.record_trace(&t);
            }
        }
    }
}

/// Re-stamps the trace's fallback phase at a stall point. An op that
/// began while the store was idle can still spend its whole life behind
/// a checkpoint that triggered mid-op (a full log forces one; a CoW
/// image copy blocks mutators); sampling the `PhaseCell` right where
/// the op is about to wait — or has just finished waiting — keeps the
/// attribution honest. Only called off the fast path.
#[inline]
fn note_stall_phase(inner: &StoreInner, at: &mut ActiveTrace) {
    if let Some(tel) = inner.telemetry.as_deref() {
        let p = tel.ckpt.phase.name();
        if p != "idle" {
            at.set_start_phase(p);
        }
    }
}

/// An op's one index lookup: `name`'s metadata entry, if it exists.
type Entry = Option<RelPtr<MetaEntry>>;

/// A per-thread handle for submitting operations (the paper's
/// `ds_ctx_t`). Cheap to create; one per thread is the intended pattern.
pub struct DsContext {
    inner: Arc<StoreInner>,
    /// NOOP (olock) records this context holds: its own writes must pass
    /// its own locks instead of deadlocking on them.
    held_locks: parking_lot::Mutex<Vec<(Vec<u8>, dstore_dipper::RecordHandle)>>,
}

/// Access mode for [`DsContext::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only access to an existing object.
    Read,
    /// Read-write access to an existing object.
    Write,
    /// Create the object (preallocated to `size` bytes) if missing, then
    /// read-write.
    Create(u64),
}

impl DsContext {
    pub(crate) fn new(inner: Arc<StoreInner>) -> Self {
        Self {
            inner,
            held_locks: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Whether `h` is one of this context's own lock records, checked
    /// while `res` is live (a reservation pins the log's swap lock, so
    /// the resolution must go through [`Reservation::same_record`]
    /// instead of the lock-taking [`OpLog::same_record`]).
    ///
    /// [`Reservation::same_record`]: dstore_dipper::Reservation::same_record
    /// [`OpLog::same_record`]: dstore_dipper::OpLog::same_record
    fn is_own_lock_res(
        &self,
        name: &[u8],
        h: dstore_dipper::RecordHandle,
        res: &dstore_dipper::Reservation<'_>,
    ) -> bool {
        self.held_locks
            .lock()
            .iter()
            .any(|(n, held)| n == name && res.same_record(*held, h))
    }

    fn check_name(name: &[u8]) -> DsResult<()> {
        if name.len() > MAX_NAME_LEN {
            return Err(DsError::NameTooLong(name.len()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // key-value API

    /// Stores `value` under `key` (the paper's `oput`), creating or
    /// replacing the object. Durable on return.
    pub fn put(&self, key: &[u8], value: &[u8]) -> DsResult<()> {
        self.put_timed(key, value, None, 0)
    }

    /// [`DsContext::put`] for a request that was queued upstream since
    /// `enqueue_ns` ([`dstore_telemetry::now_ns`] time): the wait is
    /// charged to the trace's `net_queue` segment. Semantically
    /// identical to [`DsContext::put`]; `0` disables the backdating.
    pub fn put_enqueued(&self, key: &[u8], value: &[u8], enqueue_ns: u64) -> DsResult<()> {
        self.put_timed(key, value, None, enqueue_ns)
    }

    /// [`DsContext::put`] with a Table 3 write-path breakdown.
    pub fn put_instrumented(&self, key: &[u8], value: &[u8]) -> DsResult<WriteBreakdown> {
        let mut bd = WriteBreakdown::default();
        self.put_timed(key, value, Some(&mut bd), 0)?;
        Ok(bd)
    }

    fn put_timed(
        &self,
        key: &[u8],
        value: &[u8],
        mut bd: Option<&mut WriteBreakdown>,
        enqueue_ns: u64,
    ) -> DsResult<()> {
        Self::check_name(key)?;
        let inner = &self.inner;
        let size = value.len() as u64;
        let (t0, mut at) = op_begin_enqueued(inner, "put", bd.is_some(), enqueue_ns);

        let (handle, lsn, entry, plan) = self.mutate_plan(
            key,
            |d, entry, log_mode| prepare_put_record(d, entry, log_mode, key, size),
            |d, entry, steal| d.plan_put_entry(entry, key, size, steal),
            &mut bd,
            &mut at,
        )?;

        // Steps ⑥⑦: metadata entry + B-tree, outside the synchronous
        // region (OE), on the entry the plan read. Under OLC (the
        // default) no whole-tree lock is taken — a create's insert
        // latches only the leaf path it restructures.
        let t = bd.is_some().then(now_ns);
        self.install_put(entry, key, size, &plan, lsn);
        at.mark(SEG_INDEX);
        let install_ns = t.map(|t| now_ns().saturating_sub(t)).unwrap_or(0);

        // Step ⑧: data to SSD. The pages are *submitted*; the op waits
        // out its own device deadline below, after releasing the writer
        // mark.
        let t = bd.is_some().then(now_ns);
        let ssd_deadline = self.submit_blocks(&plan.blocks, value);

        // The object's mutation is complete (data in the device's
        // power-loss-protected write cache): release the writer mark
        // *before* committing the record. A competing writer passes the
        // conflict scan only once the record commits, so the registration
        // windows of two writers can never overlap — in the other order
        // they briefly could.
        inner.writers.unregister(key);

        // This op's own device wait, outside every log lock: whatever
        // enters the commit combiner is already device-durable, so a
        // drain never holds another committer behind an SSD.
        inner.ssd.wait_durable(ssd_deadline);
        at.mark(SEG_SSD_WRITE);
        let nvme_ns = t.map(|t| now_ns().saturating_sub(t)).unwrap_or(0);

        // Step ⑨: commit.
        let t = bd.is_some().then(now_ns);
        inner.log.commit(handle);
        let commit_ns = t.map(|t| now_ns().saturating_sub(t)).unwrap_or(0);

        inner.stats.puts.fetch_add(1, Ordering::Relaxed);
        inner.maybe_checkpoint();
        if let Some(bd) = bd {
            bd.nvme_ns = nvme_ns;
            bd.btree_ns += install_ns / 2;
            bd.metadata_ns += install_ns - install_ns / 2;
            bd.log_flush_ns += commit_ns;
            bd.total_ns = now_ns().saturating_sub(t0);
        }
        op_end(inner, |tel| tel.op_put.as_ref(), t0, at, SEG_COMMIT);
        Ok(())
    }

    /// Fetches the object stored under `key` (the paper's `oget`).
    pub fn get(&self, key: &[u8]) -> DsResult<Vec<u8>> {
        self.get_enqueued(key, 0)
    }

    /// [`DsContext::get`] for a request queued upstream since
    /// `enqueue_ns` — see [`DsContext::put_enqueued`].
    pub fn get_enqueued(&self, key: &[u8], enqueue_ns: u64) -> DsResult<Vec<u8>> {
        Self::check_name(key)?;
        let inner = &self.inner;
        let (t0, mut at) = op_begin_enqueued(inner, "get", false, enqueue_ns);
        let _drain = inner.drain.read();
        loop {
            // Read-write CC (§4.4): register as a reader, then back off if
            // a writer is mutating this object.
            let _guard = inner.readers.begin_read(key);
            if inner.writers.contains(key) {
                drop(_guard);
                inner.stats.rw_backoffs.fetch_add(1, Ordering::Relaxed);
                inner.writers.wait_clear(key);
                at.mark(SEG_CC_WAIT);
                continue;
            }
            let (size, blocks) = {
                let _bt = (!inner.cfg.index_olc).then(|| inner.btree_lock.read());
                let d = inner.domain();
                // The `btree` segment is charged from the descent itself
                // (OLC restart loops included), not from a lock-acquire
                // span that no longer exists under OLC.
                let e = inner
                    .index_sync()
                    .lookup(&d, key)
                    .ok_or(DsError::NotFound)?;
                at.mark(SEG_INDEX);
                let (size, _, blocks) = d.read_entry(e);
                (size, blocks)
            };
            at.mark(SEG_LOOKUP);
            let out = self.read_blocks_into(&blocks, size as usize);
            inner.stats.gets.fetch_add(1, Ordering::Relaxed);
            op_end(inner, |tel| tel.op_get.as_ref(), t0, at, SEG_SSD_READ);
            return Ok(out);
        }
    }

    /// Removes the object under `key` (the paper's `odelete`).
    pub fn delete(&self, key: &[u8]) -> DsResult<()> {
        self.delete_enqueued(key, 0)
    }

    /// [`DsContext::delete`] for a request queued upstream since
    /// `enqueue_ns` — see [`DsContext::put_enqueued`].
    pub fn delete_enqueued(&self, key: &[u8], enqueue_ns: u64) -> DsResult<()> {
        Self::check_name(key)?;
        let inner = &self.inner;
        let (t0, mut at) = op_begin_enqueued(inner, "delete", false, enqueue_ns);
        let (handle, _lsn, entry, _plan) = self.mutate_plan(
            key,
            |d, entry, log_mode| match log_mode {
                LoggingMode::Logical => (ops::OP_DELETE, vec![]),
                LoggingMode::Physical => {
                    let pushes = entry.map(|e| d.read_entry(e).2).unwrap_or_default();
                    (
                        ops::OP_PHYS_DELETE,
                        PhysImage {
                            size: 0,
                            blocks: vec![],
                            pops: 0,
                            pushes,
                        }
                        .encode(),
                    )
                }
            },
            // Deletes only push (to the name's own shard) — no steal.
            |d, entry, _steal| {
                d.plan_delete_entry(entry, key).map(|p| PutPlan {
                    kind: PutKind::Replace,
                    blocks: vec![],
                    freed: p.freed,
                })
            },
            &mut None,
            &mut at,
        )?;
        let removed = {
            let _bt = (!inner.cfg.index_olc).then(|| inner.btree_lock.write());
            inner.domain().install_delete_sync(key, &inner.index_sync())
        };
        assert!(
            removed == entry,
            "delete removed {removed:?}, but its plan read {entry:?}"
        );
        at.mark(SEG_INDEX);
        // Unregister before commit (see put_timed).
        inner.writers.unregister(key);
        inner.log.commit(handle);
        inner.stats.deletes.fetch_add(1, Ordering::Relaxed);
        inner.maybe_checkpoint();
        op_end(inner, |tel| tel.op_delete.as_ref(), t0, at, SEG_COMMIT);
        Ok(())
    }

    /// Whether `key` exists.
    pub fn exists(&self, key: &[u8]) -> bool {
        let inner = &self.inner;
        let _bt = (!inner.cfg.index_olc).then(|| inner.btree_lock.read());
        // No entry dereference here — an optimistic descent alone is
        // safe against concurrent deletes.
        inner.index_sync().lookup(&inner.domain(), key).is_some()
    }

    /// Size of the object under `key`.
    pub fn size_of(&self, key: &[u8]) -> DsResult<u64> {
        Ok(self.stat(key)?.size)
    }

    /// Metadata snapshot of the object under `key`.
    pub fn stat(&self, key: &[u8]) -> DsResult<ObjectStat> {
        Self::check_name(key)?;
        let inner = &self.inner;
        loop {
            // Same CC dance as `get`: under OLC the reader registration —
            // not the index lock — is what keeps a concurrent delete from
            // freeing the entry mid-read.
            let _guard = inner.readers.begin_read(key);
            if inner.writers.contains(key) {
                drop(_guard);
                inner.stats.rw_backoffs.fetch_add(1, Ordering::Relaxed);
                inner.writers.wait_clear(key);
                continue;
            }
            let _bt = (!inner.cfg.index_olc).then(|| inner.btree_lock.read());
            let d = inner.domain();
            let e = inner
                .index_sync()
                .lookup(&d, key)
                .ok_or(DsError::NotFound)?;
            // SAFETY: entry live (reader registered, no in-flight writer on
            // this object — CC excludes the freeing delete).
            let (size, version, blocks) = d.read_entry(e);
            let mtime_lsn = unsafe { (*d.arena().resolve(e)).mtime_lsn };
            return Ok(ObjectStat {
                size,
                version,
                blocks: blocks.len() as u64,
                mtime_lsn,
            });
        }
    }

    /// All object names, ascending.
    pub fn list(&self) -> Vec<Vec<u8>> {
        let inner = &self.inner;
        if inner.cfg.index_olc {
            // Optimistic snapshot scan: retries whole-scan on conflict,
            // so the result is a point-in-time listing.
            return inner
                .domain()
                .btree()
                .entries_olc(&inner.index_stats)
                .into_iter()
                .map(|(k, _)| k)
                .collect();
        }
        let _bt = inner.btree_lock.read();
        let mut out = vec![];
        inner.domain().btree().for_each(|k, _| out.push(k.to_vec()));
        out
    }

    /// Object names starting with `prefix`, ascending — bucket-style
    /// listing over the B-tree index (touches only O(log n + matches)
    /// nodes).
    pub fn list_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let inner = &self.inner;
        if inner.cfg.index_olc {
            return inner
                .domain()
                .btree()
                .collect_prefix_olc(prefix, &inner.index_stats)
                .into_iter()
                .map(|(k, _)| k)
                .collect();
        }
        let _bt = inner.btree_lock.read();
        let mut out = vec![];
        inner
            .domain()
            .btree()
            .for_each_prefix(prefix, |k, _| out.push(k.to_vec()));
        out
    }

    // ------------------------------------------------------------------
    // filesystem-style API

    /// Opens an object (the paper's `oopen`).
    pub fn open(&self, name: &[u8], mode: OpenMode) -> DsResult<ObjectHandle<'_>> {
        Self::check_name(name)?;
        match mode {
            OpenMode::Read | OpenMode::Write => {
                if !self.exists(name) {
                    return Err(DsError::NotFound);
                }
            }
            OpenMode::Create(size) => {
                if !self.exists(name) {
                    // Preallocate: a put without data ("log records for
                    // oopen … only written if they modify any metadata").
                    let inner = &self.inner;
                    let (handle, lsn, entry, plan) = self.mutate_plan(
                        name,
                        |d, entry, log_mode| match log_mode {
                            LoggingMode::Logical => {
                                (ops::OP_CREATE, PutParams { size }.encode().to_vec())
                            }
                            LoggingMode::Physical => {
                                prepare_put_record(d, entry, log_mode, name, size)
                            }
                        },
                        |d, entry, steal| d.plan_put_entry(entry, name, size, steal),
                        &mut None,
                        &mut ActiveTrace::disabled(),
                    )?;
                    self.install_put(entry, name, size, &plan, lsn);
                    inner.writers.unregister(name);
                    inner.log.commit(handle);
                    inner.maybe_checkpoint();
                }
            }
        }
        Ok(ObjectHandle {
            ctx: self,
            name: name.to_vec(),
            writable: !matches!(mode, OpenMode::Read),
        })
    }

    /// Acquires an advisory inter-object lock (the paper's `olock`),
    /// implemented as a NOOP log record that conflicts with every
    /// operation on `name` (§4.5). Released on drop (`ounlock` marks the
    /// record committed).
    pub fn lock(&self, name: &[u8]) -> DsResult<DsLock<'_>> {
        Self::check_name(name)?;
        let inner = &self.inner;
        loop {
            let _drain = inner.drain.read();
            // A NOOP record touches no pool shard, so the log's own
            // reservation order is all the serialization it needs.
            let conflicts = match inner.log.reserve(OP_NOOP, name, 0) {
                Err(LogFull) => {
                    drop(_drain);
                    inner.handle_log_full();
                    continue;
                }
                Ok(res) => {
                    let conflicts: Vec<_> = res
                        .conflicts()
                        .iter()
                        .filter(|c| !self.is_own_lock_res(name, **c, &res))
                        .copied()
                        .collect();
                    if conflicts.is_empty() {
                        let r = res.publish(&[]);
                        self.held_locks.lock().push((name.to_vec(), r.handle));
                        return Ok(DsLock {
                            ctx: self,
                            name: name.to_vec(),
                            handle: r.handle,
                        });
                    }
                    res.abort();
                    conflicts
                }
            };
            inner.stats.ww_conflicts.fetch_add(1, Ordering::Relaxed);
            drop(_drain);
            for c in &conflicts {
                inner.log.wait_committed(*c);
            }
        }
    }

    // ------------------------------------------------------------------
    // the shared mutation prologue: Figure 4 steps ① – ⑤ plus CC

    /// Runs the synchronous region for a mutating op: reserves the log
    /// record (with write-write conflict detection and abort-retry),
    /// executes the pool plan in log order, and registers as the
    /// object's writer. On return the caller holds the object
    /// exclusively (no in-flight writers, no readers) and must
    /// eventually `commit` + `unregister`.
    ///
    /// Only the *decisions* are serialized: the op holds the lock of the
    /// block-pool shard that owns `name` across encode, log reservation
    /// and allocation, so per-shard pool order equals per-shard LSN
    /// order, and the record body is written *after* every lock drops —
    /// appenders publish concurrently. A shard that cannot satisfy the
    /// allocation alone makes the op retry holding every shard lock
    /// ([`DsError::ShardStarved`] → steal, totally ordered against all
    /// concurrent planners).
    ///
    /// Trace attribution (`at` is a no-op unless the op is armed):
    /// lock/drain acquisition, conflict spins, reader drains, and CoW
    /// assists land in `cc_wait`; the serialized portion (lock wait +
    /// reservation) in `log_append`; the out-of-lock record publish in
    /// `log_flush`; the pool plan in `alloc`; blocking log-full
    /// checkpoints in `log_stall`. The uninstrumented path performs zero
    /// clock reads here.
    ///
    /// The index is descended once per attempt, under the store's
    /// [`StoreInner::index_sync`] mode, and the entry found is handed to
    /// both closures, so the logged record and the executed plan cannot
    /// disagree about whether (and with which blocks) `name` exists.
    /// The final attempt's entry is returned for the caller's install,
    /// which therefore does not descend again. It is still `name`'s entry
    /// then: no other op's install on `name` could overlap the lookup
    /// (under OLC the op is a registered reader and no writer was
    /// registered; otherwise the B-tree read lock is held from the lookup
    /// through the plan), the reservation admitted no other in-flight
    /// record on `name`, and the op registers as `name`'s writer before
    /// leaving the synchronous region and unregisters only after its
    /// install. So nothing creates, replaces or deletes the entry in
    /// between.
    fn mutate_plan<P>(
        &self,
        name: &[u8],
        encode: impl Fn(&Domain<'_, DramMemory>, Entry, LoggingMode) -> (u16, Vec<u8>),
        plan: impl Fn(&Domain<'_, DramMemory>, Entry, bool) -> DsResult<P>,
        bd: &mut Option<&mut WriteBreakdown>,
        at: &mut ActiveTrace,
    ) -> DsResult<(dstore_dipper::RecordHandle, u64, Entry, P)> {
        enum Outcome<'l, P> {
            Full,
            Conflicts(Vec<dstore_dipper::RecordHandle>),
            /// OLC only: an in-flight writer is mid-install on this name,
            /// so the encode/plan closures' entry reads are not safe yet.
            WriterBusy,
            Starved,
            Failed(DsError),
            Planned(dstore_dipper::Reservation<'l>, Vec<u8>, P),
        }
        let inner = &self.inner;
        // Sticky within one op: once a shard starves, every retry takes
        // all shard locks so the (deterministic) steal cannot starve.
        let mut need_all = false;
        loop {
            let _drain = inner.drain.read();
            let _global = (!inner.cfg.oe).then(|| inner.global_lock.lock());
            // One stamp marks the sync-region start for both the write
            // breakdown and the trace (coalesced clock read).
            let t_log = if bd.is_some() || at.armed() {
                now_ns()
            } else {
                0
            };
            at.mark_at(SEG_CC_WAIT, t_log);
            let outcome: Outcome<'_, (Entry, P)> = 'outcome: {
                let d = inner.domain();
                let olc = inner.cfg.index_olc;
                // Under OLC the whole-tree lock is gone, so the entry
                // reads inside the encode/plan closures are protected by
                // reader registration (§4.4) instead: a writer drains
                // registered readers before it installs, and if one is
                // already mid-install on this name we back off like a WW
                // conflict (its record is uncommitted, so the reservation
                // scan would bounce us anyway). The guard drops at step ⑤.
                // Without OLC the B-tree read lock does the same job, held
                // from the lookup through the plan. The lookup runs before
                // the pool locks, so an OLC descent that waits out a
                // latched node never stalls other planners of the shard.
                let _read_guard = olc.then(|| inner.readers.begin_read(name));
                if olc && inner.writers.contains(name) {
                    break 'outcome Outcome::WriterBusy;
                }
                let bt = (!olc).then(|| inner.btree_lock.read());
                let entry = inner.index_sync().lookup(&d, name);
                // Step ①: lock the pools — the name's shard, or every
                // shard in index order (steal retry).
                let _shard =
                    (!need_all).then(|| inner.pool_shard_locks[d.shard_of_name(name)].lock());
                let _all: Vec<_> = if need_all {
                    inner.pool_shard_locks.iter().map(|m| m.lock()).collect()
                } else {
                    Vec::new()
                };
                let (op, params) = encode(&d, entry, inner.cfg.logging);
                // Step ②a: reserve the record slot (short serialized
                // step: LSN + header + conflict scan).
                match inner.log.reserve(op, name, params.len()) {
                    Err(LogFull) => Outcome::Full,
                    Ok(res) => {
                        at.mark(SEG_LOG_APPEND);
                        // The holder of an olock on this object passes
                        // its own lock record.
                        let conflicts: Vec<_> = res
                            .conflicts()
                            .iter()
                            .filter(|c| !self.is_own_lock_res(name, **c, &res))
                            .copied()
                            .collect();
                        if !conflicts.is_empty() {
                            res.abort();
                            Outcome::Conflicts(conflicts)
                        } else {
                            // Steps ③/④: pool allocations, in per-shard
                            // log order.
                            let p = plan(&d, entry, need_all).map(|p| (entry, p));
                            drop(bt);
                            match p {
                                Ok(p) => {
                                    // A plan that pulled blocks from a
                                    // foreign shard breaks per-shard
                                    // replay determinism: stamp the
                                    // record (before its body flush) so
                                    // replay of this window degrades to
                                    // serial log order.
                                    if d.take_stole() {
                                        res.set_steal_flag();
                                    }
                                    // Make the writer visible before
                                    // leaving the synchronous region.
                                    inner.writers.register(name);
                                    at.mark(SEG_ALLOC);
                                    Outcome::Planned(res, params, p)
                                }
                                Err(DsError::ShardStarved) => {
                                    // Aborted, never published: no replay
                                    // effects, retry holding every lock.
                                    res.abort();
                                    Outcome::Starved
                                }
                                Err(e) => {
                                    // Plan failed (e.g. out of space):
                                    // the record must not replay.
                                    res.abort();
                                    Outcome::Failed(e)
                                }
                            }
                        }
                    }
                }
                // Step ⑤: unlock (scope end).
            };
            let (r, (entry, p)) = match outcome {
                Outcome::Full => {
                    at.mark(SEG_LOG_APPEND);
                    drop(_global);
                    drop(_drain);
                    inner.handle_log_full();
                    // The forced checkpoint is in flight when the stall
                    // ends — name it even if it finishes before we do.
                    note_stall_phase(inner, at);
                    at.mark(SEG_LOG_STALL);
                    continue;
                }
                Outcome::Conflicts(conflicts) => {
                    // Another in-flight op owns this object: our record
                    // was aborted (it must have no replay effects); spin
                    // on the conflicting commit flags (§4.4).
                    inner.stats.ww_conflicts.fetch_add(1, Ordering::Relaxed);
                    drop(_global);
                    drop(_drain);
                    for c in &conflicts {
                        inner.log.wait_committed(*c);
                    }
                    at.mark(SEG_CC_WAIT);
                    continue;
                }
                Outcome::WriterBusy => {
                    // The writer unregisters before it commits, so this
                    // wait is bounded by that op's install, not its flush.
                    inner.stats.rw_backoffs.fetch_add(1, Ordering::Relaxed);
                    drop(_global);
                    drop(_drain);
                    inner.writers.wait_clear(name);
                    at.mark(SEG_CC_WAIT);
                    continue;
                }
                Outcome::Starved => {
                    need_all = true;
                    continue;
                }
                Outcome::Failed(e) => return Err(e),
                Outcome::Planned(res, params, p) => {
                    // Step ②b: store the record body outside every
                    // ordering lock; the commit drain persists it. Charged
                    // to its own `log_flush` segment so `log_append`
                    // isolates the serialized portion.
                    let r = res.publish(&params);
                    at.mark(SEG_LOG_FLUSH);
                    (r, p)
                }
            };
            if let Some(bd) = bd.as_deref_mut() {
                // The synchronous region ≈ log write + flush + pool
                // allocation; attribute it to the log-flush and metadata
                // columns.
                let ns = now_ns().saturating_sub(t_log);
                bd.log_flush_ns += ns / 2;
                bd.metadata_ns += ns - ns / 2;
            }
            // Read-write CC: drain current readers (new ones back off
            // because we are registered).
            inner.readers.wait_for_readers(name);
            // CoW checkpoints: wait for / assist the page copy before
            // mutating any frontend page. The phase is published before
            // `active`, so sampling it here catches the checkpoint this
            // op is about to wait on.
            if let Some(cow) = &inner.cow {
                note_stall_phase(inner, at);
                cow.wait_or_assist();
            }
            at.mark(SEG_CC_WAIT);
            // The record is published: let the black box note the
            // admitted LSN — one relaxed fetch_max, plus a heartbeat every
            // `heartbeat_every`-th mutation.
            if let Some(bb) = &inner.blackbox {
                bb.note_lsn(r.lsn);
            }
            return Ok((r.handle, r.lsn, entry, p));
        }
    }

    /// Steps ⑥⑦ of a put or create: installs `plan` on `entry`, the entry
    /// [`DsContext::mutate_plan`] returned. A create whose insert finds
    /// `name` already mapped means that entry went stale between plan and
    /// install, so it is checked in every build.
    fn install_put(&self, entry: Entry, name: &[u8], size: u64, plan: &PutPlan, lsn: u64) {
        let inner = &self.inner;
        let _bt = (!inner.cfg.index_olc).then(|| inner.btree_lock.write());
        let agreed =
            inner
                .domain()
                .install_put_entry(entry, name, size, plan, lsn, &inner.index_sync());
        assert!(agreed, "create displaced an existing index mapping");
    }

    // ------------------------------------------------------------------
    // data plane

    /// Submits `data` across allocation `blocks` without the device wait:
    /// one device command per contiguous run, the chunk zero-padded to
    /// whole pages. Pages beyond the data (pure preallocation) are left
    /// untouched. Returns the latest completion deadline (0 when `data`
    /// is empty) for the caller to wait out before it commits.
    fn submit_blocks(&self, blocks: &[u64], data: &[u8]) -> u64 {
        let ssd = &self.inner.ssd;
        let d = self.inner.domain();
        let bs = d.block_bytes() as usize;
        let page = PAGE_BYTES as usize;
        let data_blocks = data.len().div_ceil(bs);
        let blocks = &blocks[..data_blocks.min(blocks.len())];
        let mut deadline = 0u64;
        let mut i = 0;
        while i < blocks.len() {
            // Contiguous block ids own contiguous page ranges.
            let mut j = i + 1;
            while j < blocks.len() && blocks[j] == blocks[j - 1] + 1 {
                j += 1;
            }
            let start_byte = i * bs;
            let data_end = data.len().min(j * bs);
            let pages = (data_end - start_byte).div_ceil(page);
            let mut chunk = vec![0u8; pages * page];
            chunk[..data_end - start_byte].copy_from_slice(&data[start_byte..data_end]);
            let first_page = d.block_first_page(blocks[i]);
            deadline = deadline.max(ssd.submit_write_pages(first_page, &chunk));
            i = j;
        }
        deadline
    }

    /// Reads `size` bytes from allocation `blocks` into a fresh vector.
    /// The vector is never zero-initialized — bytes land in one reused
    /// block-sized scratch buffer and are appended from there, so a get
    /// pays one bounded scratch allocation instead of zeroing (and
    /// per-block reallocating) the whole value.
    fn read_blocks_into(&self, blocks: &[u64], size: usize) -> Vec<u8> {
        let ssd = &self.inner.ssd;
        let d = self.inner.domain();
        let bs = d.block_bytes() as usize;
        let page = PAGE_BYTES as usize;
        let mut out = Vec::with_capacity(size);
        let mut buf = vec![0u8; bs.div_ceil(page) * page];
        for &b in blocks {
            if out.len() >= size {
                break;
            }
            let n = (size - out.len()).min(bs);
            let pages = n.div_ceil(page);
            ssd.read_pages(d.block_first_page(b), &mut buf[..pages * page]);
            out.extend_from_slice(&buf[..n]);
        }
        out
    }
}

/// Point-in-time object metadata (the paper's metadata-zone entry, as an
/// API surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStat {
    /// Object size in bytes.
    pub size: u64,
    /// Mutation count (bumped by every metadata-changing operation).
    pub version: u32,
    /// Allocation blocks backing the object.
    pub blocks: u64,
    /// LSN of the last mutating log record — a logical mtime that is
    /// comparable across objects and survives recovery.
    pub mtime_lsn: u64,
}

/// Builds a put's record `(op, params)` for the configured logging mode.
/// Read-only against the domain (physical mode *peeks* the pool: the
/// actual pops happen after the conflict check and return the same ids,
/// all under the pool lock).
fn prepare_put_record(
    d: &Domain<'_, DramMemory>,
    entry: Entry,
    mode: LoggingMode,
    key: &[u8],
    size: u64,
) -> (u16, Vec<u8>) {
    let old = entry.map(|e| d.read_entry(e).2);
    let need = blocks_for_geometry(size, d.block_bytes());
    let touch = old
        .as_ref()
        .map(|b| b.len() as u64 == need)
        .unwrap_or(false);
    match mode {
        LoggingMode::Logical => (
            if touch { ops::OP_TOUCH } else { ops::OP_PUT },
            PutParams { size }.encode().to_vec(),
        ),
        LoggingMode::Physical => {
            let (pops, blocks, pushes) = if touch {
                (0, old.unwrap(), vec![])
            } else {
                // If the pool cannot satisfy the peek, encode an empty
                // image: the plan will fail with OutOfSpace and the
                // record is aborted, never replayed. (Likewise when the
                // plan starves without steal permission: the peeked ids
                // die with the aborted record, and the all-locks retry
                // re-peeks accurately.)
                let peeked = d.pool_peek_for(key, need).unwrap_or_default();
                (need as u32, peeked, old.unwrap_or_default())
            };
            (
                ops::OP_PHYS_INSTALL,
                PhysImage {
                    size,
                    blocks,
                    pops,
                    pushes,
                }
                .encode(),
            )
        }
    }
}

/// An open object — the paper's `OBJECT*` with `oread`/`owrite`.
pub struct ObjectHandle<'a> {
    ctx: &'a DsContext,
    name: Vec<u8>,
    writable: bool,
}

impl ObjectHandle<'_> {
    /// The object's name.
    pub fn name(&self) -> &[u8] {
        &self.name
    }

    /// Current object size.
    pub fn size(&self) -> DsResult<u64> {
        self.ctx.size_of(&self.name)
    }

    /// Partial read at `offset` (the paper's `oread`). Returns bytes
    /// read (clamped at the object end).
    pub fn read(&self, buf: &mut [u8], offset: u64) -> DsResult<usize> {
        let inner = &self.ctx.inner;
        let (t0, mut at) = op_begin(inner, "oread", false);
        let _drain = inner.drain.read();
        loop {
            let _guard = inner.readers.begin_read(&self.name);
            if inner.writers.contains(&self.name) {
                drop(_guard);
                inner.stats.rw_backoffs.fetch_add(1, Ordering::Relaxed);
                inner.writers.wait_clear(&self.name);
                at.mark(SEG_CC_WAIT);
                continue;
            }
            let (size, blocks) = {
                let _bt = (!inner.cfg.index_olc).then(|| inner.btree_lock.read());
                let d = inner.domain();
                let e = inner
                    .index_sync()
                    .lookup(&d, &self.name)
                    .ok_or(DsError::NotFound)?;
                at.mark(SEG_INDEX);
                let (size, _, blocks) = d.read_entry(e);
                (size, blocks)
            };
            at.mark(SEG_LOOKUP);
            if offset >= size {
                op_end(inner, |tel| tel.op_oread.as_ref(), t0, at, SEG_LOOKUP);
                return Ok(0);
            }
            let d = inner.domain();
            let bs = d.block_bytes() as usize;
            let page_sz = PAGE_BYTES as usize;
            let n = (buf.len() as u64).min(size - offset) as usize;
            let mut page = vec![0u8; page_sz];
            let mut done = 0;
            while done < n {
                let pos = offset as usize + done;
                let bi = pos / bs;
                let page_in_block = (pos % bs) / page_sz;
                let in_page = pos % page_sz;
                let take = (n - done).min(page_sz - in_page);
                inner.ssd.read_pages(
                    d.block_first_page(blocks[bi]) + page_in_block as u64,
                    &mut page,
                );
                buf[done..done + take].copy_from_slice(&page[in_page..in_page + take]);
                done += take;
            }
            inner.stats.reads.fetch_add(1, Ordering::Relaxed);
            op_end(inner, |tel| tel.op_oread.as_ref(), t0, at, SEG_SSD_READ);
            return Ok(n);
        }
    }

    /// Partial write at `offset` (the paper's `owrite`), extending the
    /// object if needed. Durable on return.
    pub fn write(&self, data: &[u8], offset: u64) -> DsResult<usize> {
        if !self.writable {
            return Err(DsError::BadMode);
        }
        let inner = &self.ctx.inner;
        let (t0, mut at) = op_begin(inner, "owrite", false);
        let len = data.len() as u64;
        let (handle, lsn, entry, plan) = self.ctx.mutate_plan(
            &self.name,
            |_d, _entry, _mode| {
                (
                    ops::OP_EXTEND,
                    ExtendParams { offset, len }.encode().to_vec(),
                )
            },
            |d, entry, steal| d.plan_extend_entry(entry, &self.name, offset, len, steal),
            &mut None,
            &mut at,
        )?;
        // An extend never touches the tree: no index lock, no descent.
        let e = entry.expect("a successful extend plan read an entry");
        inner.domain().install_extend_entry(e, &plan, lsn);
        at.mark(SEG_INDEX);
        // Data: sub-page head/tail via partial writes, whole pages via
        // page writes.
        let d = inner.domain();
        let bs = d.block_bytes() as usize;
        let page_sz = PAGE_BYTES as usize;
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset as usize + done;
            let bi = pos / bs;
            let page_id = d.block_first_page(plan.blocks[bi]) + ((pos % bs) / page_sz) as u64;
            let in_page = pos % page_sz;
            let take = (data.len() - done).min(page_sz - in_page);
            if in_page == 0 && take == page_sz {
                inner.ssd.write_pages(page_id, &data[done..done + page_sz]);
            } else {
                inner
                    .ssd
                    .write_partial(page_id, in_page, &data[done..done + take]);
            }
            done += take;
        }
        at.mark(SEG_SSD_WRITE);
        inner.writers.unregister(&self.name);
        inner.log.commit(handle);
        inner.stats.writes.fetch_add(1, Ordering::Relaxed);
        inner.maybe_checkpoint();
        op_end(inner, |tel| tel.op_owrite.as_ref(), t0, at, SEG_COMMIT);
        Ok(data.len())
    }
}

/// An advisory object lock (the paper's `olock`/`ounlock`): while held,
/// every write to the object (and any other `lock`) by *other* contexts
/// waits; the holding context's own operations pass through.
pub struct DsLock<'a> {
    ctx: &'a DsContext,
    name: Vec<u8>,
    handle: dstore_dipper::RecordHandle,
}

impl Drop for DsLock<'_> {
    fn drop(&mut self) {
        // `ounlock marks this record as committed` (§4.5).
        self.ctx.inner.log.commit(self.handle);
        let mut held = self.ctx.held_locks.lock();
        if let Some(i) = held
            .iter()
            .position(|(n, h)| n == &self.name && *h == self.handle)
        {
            held.swap_remove(i);
        }
    }
}
