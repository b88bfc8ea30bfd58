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
//! observational-equivalence concurrency of §4.3/§4.4. Here step ③ comes
//! first, so that the record can name the blocks it claimed, and the
//! blocks an op frees return to the pool only after step ⑨.
//!
//! A value of at most [`crate::INLINE_MAX`] bytes skips step ⑧: it
//! travels in its record (durable when the record commits) and lives in
//! an arena slot, so such a put makes no block claim, no SSD write and no
//! device wait, and a get of it reads no page.
//!
//! A put splits at its device wait. [`Epoch::put_begin`] runs steps ①–⑧
//! and leaves the op in its context's [`Epoch`] ([`DsContext::epoch`]);
//! [`Epoch::finish`] waits once, for the epoch's latest device deadline,
//! and commits every record of the epoch behind one fence
//! ([`dstore_dipper::OpLog::commit_many`]). [`DsContext::put`] is an
//! epoch of one, and every other mutation commits through the same step.

use crate::cc::{ReadLatch, WriteLatch};
use crate::config::LoggingMode;
use crate::engine::{CheckpointEngine, OpGuard};
use crate::error::{DsError, DsResult};
use crate::ops::{self, ExtendParams, InlineParams, PhysImage, PutParams};
use crate::store::StoreInner;
use crate::structures::{
    Claims, Domain, ExtendPlan, IndexSync, MetaEntry, PutKind, PutPlan, WritePlan, MAX_NAME_LEN,
    PAGE_BYTES,
};
use dstore_arena::{DramMemory, RelPtr};
use dstore_dipper::log::LogFull;
use dstore_dipper::{record, RecordHandle, OP_NOOP};
use dstore_telemetry::trace::{
    ActiveTrace, SEG_ALLOC, SEG_CC_WAIT, SEG_COMMIT, SEG_INDEX, SEG_LOG_APPEND, SEG_LOG_FLUSH,
    SEG_LOG_STALL, SEG_LOOKUP, SEG_NET_QUEUE, SEG_SSD_READ, SEG_SSD_WRITE,
};
use dstore_telemetry::{now_ns, LatencyHistogram};
use std::sync::Arc;

/// Starts per-op instrumentation: ONE timestamp shared by the latency
/// histogram and the trace start, plus the 1-in-N arming decision (a
/// single relaxed `fetch_add`). An operation that spent time queued
/// upstream (the `dstore-server` shard queues) passes a nonzero
/// `enqueue_ns` (in [`now_ns`] time): it backdates the trace to admission
/// and charges the wait to the `net_queue` segment, so Table-3 tail
/// attribution covers the network path. The latency histograms still
/// measure execution only (`t0` → completion); the SLO cut sees the full
/// residency.
#[inline]
fn op_begin(inner: &StoreInner, op: &'static str, enqueue_ns: u64) -> (u64, ActiveTrace) {
    let tel = &inner.telemetry;
    let t0 = now_ns();
    let start = if enqueue_ns != 0 {
        enqueue_ns.min(t0)
    } else {
        t0
    };
    let mut at = ActiveTrace::start(op, tel.trace.sampler.arm(), start);
    if enqueue_ns != 0 {
        // charge_at, not mark_at: both timestamps are already in hand, so
        // even an *unarmed* op records its queue wait — an SLO-retained
        // outlier then shows net_queue vs. unattributed instead of a
        // blank breakdown.
        at.charge_at(SEG_NET_QUEUE, t0);
    }
    // One relaxed load: lets a retained trace attribute itself to a
    // checkpoint that ends mid-op (see op_end).
    at.set_start_phase(tel.ckpt.phase.name());
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
fn op_end(inner: &StoreInner, hist: &LatencyHistogram, t0: u64, at: ActiveTrace, last_seg: usize) {
    let tel = &inner.telemetry;
    let end = now_ns();
    hist.record(end.saturating_sub(t0));
    let start_phase = at.start_phase();
    let mirror = at.mirror();
    if let Some(mut t) = at.finish(last_seg, end, tel.trace.sampler.slo_ns()) {
        // Attribute the op to the checkpoint phase in flight at
        // completion; if the checkpoint ended mid-op (an op stalled behind
        // a CoW image copy resumes only once the copier goes idle), the
        // phase at op start still names the culprit.
        let phase = tel.ckpt.phase.name();
        t.phase = if phase == "idle" && !start_phase.is_empty() {
            start_phase
        } else {
            phase
        };
        t.log_used_milli = (inner.log.used_fraction().clamp(0.0, 1.0) * 1000.0).round() as u32;
        t.seq = tel.trace.ring.record(&t);
        // Mirror outliers and one sampler count in MIRROR_EVERY into the
        // crash-persistent black box: its fence stays off all but a
        // bounded share of ops even when every op is sampled.
        if mirror || t.slo {
            inner.blackbox.record_trace(&t);
        }
    }
}

/// Where a read finds an object's bytes.
enum Data {
    /// Allocation blocks on the SSD.
    Blocks(Vec<u64>),
    /// The arena slot at this offset.
    Inline(u64),
}

/// A reader's step of §4.4's CC plus its lookup: registers as `name`'s
/// reader, backing off (counted in `rw_backoffs`, traced as `cc_wait`)
/// while a writer holds its mark, then reads `name`'s entry. The returned
/// latch keeps a writer from changing the object, and a delete from
/// freeing its blocks or slot, until it drops.
fn read_entry<'a>(
    inner: &'a StoreInner,
    name: &'a [u8],
    at: &mut ActiveTrace,
) -> DsResult<(ReadLatch<'a>, ObjectStat, Data)> {
    let latch = loop {
        if let Some(latch) = inner.latches.try_read(name) {
            break latch;
        }
        inner.telemetry.rw_backoffs.inc();
        inner.latches.wait_clear(name);
        at.mark(SEG_CC_WAIT);
    };
    let _bt = inner.btree_lock.read();
    let d = inner.domain();
    let e = d.lookup(name).ok_or(DsError::NotFound)?;
    at.mark(SEG_INDEX);
    let (size, version, blocks) = d.read_entry(e);
    // SAFETY: the entry is live: the latch excludes the freeing delete.
    let mtime_lsn = unsafe { (*d.arena().resolve(e)).mtime_lsn };
    let stat = ObjectStat {
        size,
        version,
        blocks: blocks.len() as u64,
        mtime_lsn,
    };
    let data = match d.slot_of(e) {
        Some((off, _)) => Data::Inline(off),
        None => Data::Blocks(blocks),
    };
    Ok((latch, stat, data))
}

/// An op's one index lookup: `name`'s metadata entry, if it exists.
type Entry = Option<RelPtr<MetaEntry>>;

/// A mutation past its synchronous region ([`DsContext::mutate_plan`]):
/// its published record and what it holds until it commits.
struct Admitted<'a, 'n> {
    name: &'n [u8],
    handle: RecordHandle,
    lsn: u64,
    /// The entry the plan read: the install's target.
    entry: Entry,
    /// `name`'s writer mark: dropped after the install, before the commit.
    latch: WriteLatch<'n>,
    /// The checkpoint engine's mutation guard (the CoW drain `read`,
    /// nothing under DIPPER), held until the commit.
    guard: OpGuard<'a>,
}

/// A mutation past its install, awaiting step ⑨: its record is
/// published and its writer mark dropped ([`Admitted::into_pending`]).
/// Every mutation commits through [`DsContext::commit`]; a put may first
/// wait in an epoch.
struct Pending<'a> {
    handle: RecordHandle,
    /// Its pages' device deadline (0: nothing submitted).
    deadline: u64,
    /// Blocks the op frees: returned to the pool after its commit.
    freed: Vec<u64>,
    /// The checkpoint engine's mutation guard, held until the commit.
    guard: OpGuard<'a>,
    /// [`record::name_hash`] of the key, for [`Epoch::names`] (set by
    /// [`Epoch::put_begin`]; left 0 outside any epoch).
    name_hash: u64,
    /// The op's start and trace, closed once it commits.
    t0: u64,
    at: ActiveTrace,
    #[cfg(test)]
    name: Vec<u8>,
}

impl<'a> Admitted<'a, '_> {
    /// Ends the op's mutation: drops its writer mark, *before* its commit.
    /// A competing writer passes the conflict scan only once the record
    /// commits, so the registration windows of two writers can never
    /// overlap; in the other order they briefly could.
    fn into_pending(self, deadline: u64, freed: Vec<u64>, t0: u64, at: ActiveTrace) -> Pending<'a> {
        drop(self.latch);
        Pending {
            handle: self.handle,
            deadline,
            freed,
            guard: self.guard,
            name_hash: 0,
            t0,
            at,
            #[cfg(test)]
            name: self.name.to_vec(),
        }
    }
}

/// A durability epoch of one context ([`DsContext::epoch`]): the puts it
/// has begun ([`Epoch::put_begin`]) and not yet finished
/// ([`Epoch::finish`]). Their records are pending and their device
/// writes in flight; none is durable, and none may be acknowledged,
/// before the epoch finishes. Keep one across batches: finishing empties
/// it and keeps its buffer. Dropping an epoch finishes it, except on a
/// panicking thread, whose puts are abandoned uncommitted as if it had
/// died in a crash.
///
/// While the epoch holds a put, its context must not run another
/// mutation of that put's name ([`Epoch::names`]): that mutation's
/// conflict scan would wait on the epoch's own record. Nor should it run
/// any other mutation (a delete, an `owrite`, an `olock`) that could wait
/// on another context's records: finish first. Reads are fine. For the
/// same reason a context keeps one epoch open at a time.
pub struct Epoch<'a> {
    ctx: &'a DsContext,
    puts: Vec<Pending<'a>>,
}

impl<'a> Epoch<'a> {
    /// Begins a put of `value` under `key`: plans it, installs it and
    /// submits its pages, like [`DsContext::put_enqueued`] up to its
    /// device wait, and returns its record handle and that wait's
    /// deadline (0: nothing submitted). The put is neither durable nor
    /// committed until the epoch finishes.
    ///
    /// The epoch finishes first when it already holds a put of `key`,
    /// and before any wait the put meets: a write-write conflict, a
    /// writer mark, a full log (a swap must not relocate the epoch's own
    /// records into the buffer it is trying to empty), or a full pool
    /// (the epoch's deferred frees may make room). So an epoch never
    /// waits on another op while it holds records. Under CoW an epoch
    /// holds no put across calls: the put's guard is the drain lock
    /// `read`, and a second `read` queued behind a waiting trigger would
    /// deadlock, so this put finishes before the call returns.
    pub fn put_begin(
        &mut self,
        key: &[u8],
        value: &[u8],
        enqueue_ns: u64,
    ) -> DsResult<(RecordHandle, u64)> {
        let ctx = self.ctx;
        DsContext::check_name(key)?;
        let name_hash = record::name_hash(key);
        if self.holds(name_hash) {
            self.finish();
        }
        let (t0, mut at) = op_begin(&ctx.inner, "put", enqueue_ns);
        let (m, plan) = loop {
            match ctx.plan_put(key, value, &mut at, &mut || self.finish()) {
                Err(DsError::OutOfSpace | DsError::OutOfMetadataSpace) if !self.is_empty() => {
                    self.finish()
                }
                planned => break planned?,
            }
        };
        let mut put = ctx.submit_put(m, plan, value.len() as u64, Some(value), t0, at);
        put.name_hash = name_hash;
        let begun = (put.handle, put.deadline);
        self.puts.push(put);
        if !matches!(ctx.inner.engine, CheckpointEngine::Dipper(_)) {
            self.finish();
        }
        Ok(begun)
    }

    /// Ends the epoch: waits once, for its latest device deadline, commits
    /// all its records behind one fence, returns the blocks they freed,
    /// and runs one checkpoint trigger. Every put of the epoch is durable
    /// on return, and the epoch is empty. An empty epoch costs nothing.
    pub fn finish(&mut self) {
        if self.puts.is_empty() {
            return;
        }
        let ctx = self.ctx;
        ctx.commit_puts(&mut self.puts);
        ctx.end_ops(&ctx.inner.telemetry.op_put, self.puts.drain(..));
    }

    /// The context the epoch belongs to.
    pub fn context(&self) -> &'a DsContext {
        self.ctx
    }

    /// Puts begun and not yet finished.
    pub fn len(&self) -> usize {
        self.puts.len()
    }

    /// Whether the epoch holds no put.
    pub fn is_empty(&self) -> bool {
        self.puts.is_empty()
    }

    /// Whether the epoch may hold a put of `key` (a hash match: a
    /// collision only finishes an epoch early).
    pub fn names(&self, key: &[u8]) -> bool {
        self.holds(record::name_hash(key))
    }

    fn holds(&self, name_hash: u64) -> bool {
        self.puts.iter().any(|p| p.name_hash == name_hash)
    }
}

impl Drop for Epoch<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.finish();
        }
    }
}

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
        self.put_enqueued(key, value, 0)
    }

    /// [`DsContext::put`] for a request that was queued upstream since
    /// `enqueue_ns` ([`dstore_telemetry::now_ns`] time): the wait is
    /// charged to the trace's `net_queue` segment. Semantically
    /// identical to [`DsContext::put`]; `0` disables the backdating.
    pub fn put_enqueued(&self, key: &[u8], value: &[u8], enqueue_ns: u64) -> DsResult<()> {
        Self::check_name(key)?;
        let (t0, mut at) = op_begin(&self.inner, "put", enqueue_ns);
        let (m, plan) = self.plan_put(key, value, &mut at, &mut || {})?;
        let size = value.len() as u64;
        let mut put = self.submit_put(m, plan, size, Some(value), t0, at);
        self.commit_puts(std::slice::from_mut(&mut put));
        self.end_ops(&self.inner.telemetry.op_put, std::iter::once(put));
        Ok(())
    }

    /// A new, empty durability epoch on this context.
    pub fn epoch(&self) -> Epoch<'_> {
        Epoch {
            ctx: self,
            puts: Vec::new(),
        }
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
        let (t0, mut at) = op_begin(inner, "get", enqueue_ns);
        let _guard = inner.engine.read_guard();
        let (_latch, stat, data) = read_entry(inner, key, &mut at)?;
        at.mark(SEG_LOOKUP);
        let out = match data {
            // SAFETY: the read latch keeps writers off the slot.
            Data::Inline(off) => unsafe { inner.domain().slot_bytes(off, stat.size) }.to_vec(),
            Data::Blocks(blocks) => self.read_blocks_into(&blocks, stat.size as usize),
        };
        op_end(inner, &inner.telemetry.op_get, t0, at, SEG_SSD_READ);
        Ok(out)
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
        let (t0, mut at) = op_begin(inner, "delete", enqueue_ns);
        let (m, plan) = self.mutate_plan(
            key,
            |d, entry| d.plan_delete_entry(entry),
            |plan, mode| match mode {
                LoggingMode::Logical => (ops::OP_DELETE, vec![]),
                LoggingMode::Physical => (
                    ops::OP_PHYS_DELETE,
                    PhysImage {
                        size: 0,
                        blocks: vec![],
                        pops: 0,
                        pushes: plan.freed.clone(),
                        inline: vec![],
                    }
                    .encode(),
                ),
            },
            &mut at,
            &mut || {},
        )?;
        let removed = {
            let _bt = inner.btree_lock.write();
            inner
                .domain()
                .install_delete_sync(key, &IndexSync::Exclusive)
        };
        assert!(
            removed == m.entry,
            "delete removed {removed:?}, but its plan read {:?}",
            m.entry
        );
        at.mark(SEG_INDEX);
        let mut rec = m.into_pending(0, plan.freed, t0, at);
        self.commit(std::slice::from_mut(&mut rec));
        self.end_ops(&inner.telemetry.op_delete, std::iter::once(rec));
        Ok(())
    }

    /// Whether `key` exists.
    pub fn exists(&self, key: &[u8]) -> bool {
        let inner = &self.inner;
        let _bt = inner.btree_lock.read();
        inner.domain().lookup(key).is_some()
    }

    /// Size of the object under `key`.
    pub fn size_of(&self, key: &[u8]) -> DsResult<u64> {
        Ok(self.stat(key)?.size)
    }

    /// Metadata snapshot of the object under `key`.
    pub fn stat(&self, key: &[u8]) -> DsResult<ObjectStat> {
        Self::check_name(key)?;
        read_entry(&self.inner, key, &mut ActiveTrace::disabled()).map(|(_, stat, _)| stat)
    }

    /// All object names, ascending.
    pub fn list(&self) -> Vec<Vec<u8>> {
        let inner = &self.inner;
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
                    let mut at = ActiveTrace::disabled();
                    let (m, plan) = self.mutate_plan(
                        name,
                        |d, entry| d.plan_put_entry(entry, name, size, &inner.pool_shard_locks),
                        |plan, mode| put_record(ops::OP_CREATE, size, plan, mode, None),
                        &mut at,
                        &mut || {},
                    )?;
                    self.finish_put(m, plan, size, None, &mut at);
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
            let guard = inner.engine.read_guard();
            // A NOOP record touches no pool shard, so the log's own
            // reservation order is all the serialization it needs.
            let conflicts = match inner.log.reserve(OP_NOOP, name, 0) {
                Err(LogFull) => {
                    drop(guard);
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
            inner.telemetry.ww_conflicts.inc();
            drop(guard);
            for c in &conflicts {
                inner.log.wait_committed(*c);
            }
        }
    }

    // ------------------------------------------------------------------
    // the shared mutation prologue: Figure 4 steps ① – ⑤ plus CC

    /// Runs the synchronous region for a mutating op: claims its blocks
    /// (or allocates its inline slot), encodes the record that names
    /// them, reserves the record (with write-write conflict detection and
    /// abort-retry) and takes the object's writer latch. It returns the
    /// admitted op and its plan. The caller then holds the object
    /// exclusively (no in-flight writers, no readers) and must drop the
    /// admission's [`WriteLatch`], then [`DsContext::commit`].
    ///
    /// Only the *decisions* are serialized. A claim holds each pool
    /// shard's lock only for that shard's part ([`Domain::claim`]), and
    /// no pool lock is held across the log reservation: the record names
    /// its blocks, so replay needs no particular order of claims across
    /// ops. The record body is written after the reservation — appenders
    /// publish concurrently. An attempt whose record is never logged (a
    /// full log, a conflict) gives back its claims and slot
    /// ([`Domain::unclaim`]) before it retries; a record over
    /// [`OpLog::max_record_len`] gives them back and fails with
    /// [`DsError::RecordTooLarge`].
    ///
    /// [`OpLog::max_record_len`]: dstore_dipper::OpLog::max_record_len
    ///
    /// The op holds the checkpoint engine's mutation guard from before its
    /// claims until it commits. Under DIPPER that guard is empty. Under
    /// CoW it is the drain lock `read`, so the trigger, which takes it
    /// `write`, swaps the log only when no claim or free is in flight; and
    /// taking it waits out (and assists) a running image copy, so the op
    /// never changes a page the copy has yet to take.
    ///
    /// Trace attribution (`at` is a no-op unless the op is armed):
    /// lock/guard acquisition, CoW assists, conflict spins and reader
    /// drains land in `cc_wait`; the claims and the encode in `alloc`; the
    /// reservation in `log_append`; the out-of-lock record publish in
    /// `log_flush`; blocking log-full checkpoints in `log_stall`. The
    /// uninstrumented path performs zero clock reads here.
    ///
    /// `before_wait` runs before every wait an attempt ends in (a full
    /// log, a conflict, a writer mark), once its guards are dropped:
    /// [`Epoch::put_begin`] finishes its epoch there.
    ///
    /// The index is descended once per attempt, under the B-tree read
    /// lock, and the entry found is handed to the plan, so the logged
    /// record and the executed plan cannot disagree about whether (and
    /// with which blocks) `name` exists. The final attempt's entry is
    /// returned for the caller's install, which therefore does not
    /// descend again. It is still `name`'s entry then: no other op's
    /// install on `name` could overlap the lookup (the op holds `name`'s
    /// read latch and no writer held its mark), the reservation admitted
    /// no other in-flight record on `name`, and the op turns its read
    /// latch into `name`'s writer mark before leaving the synchronous
    /// region and drops the mark only after its install. So nothing
    /// creates, replaces or deletes the entry in between.
    fn mutate_plan<'a: 'n, 'n, P: Claims>(
        &'a self,
        name: &'n [u8],
        plan: impl Fn(&Domain<'_, DramMemory>, Entry) -> DsResult<P>,
        encode: impl Fn(&P, LoggingMode) -> (u16, Vec<u8>),
        at: &mut ActiveTrace,
        before_wait: &mut dyn FnMut(),
    ) -> DsResult<(Admitted<'a, 'n>, P)> {
        enum Outcome<'l, P> {
            Full,
            Conflicts(Vec<RecordHandle>),
            /// An in-flight writer is mid-install on this name, so the
            /// plan's entry read is not safe yet.
            WriterBusy,
            Failed(DsError),
            Planned(dstore_dipper::Reservation<'l>, Vec<u8>, P, WriteLatch<'l>),
        }
        let inner = &self.inner;
        loop {
            let guard = inner.engine.mutation_guard(at);
            let _global = (!inner.cfg.oe).then(|| inner.global_lock.lock());
            at.mark(SEG_CC_WAIT);
            let outcome: Outcome<'_, (Entry, P)> = 'outcome: {
                let d = inner.domain();
                // The plan reads `name`'s entry outside the B-tree lock,
                // so the op holds its read latch (§4.4) until step ⑤: a
                // writer drains registered readers before it installs,
                // and if one is already mid-install on this name we back
                // off like a WW conflict (its record is uncommitted, so
                // the reservation would bounce us anyway).
                let Some(read) = inner.latches.try_read(name) else {
                    break 'outcome Outcome::WriterBusy;
                };
                let entry = {
                    let _bt = inner.btree_lock.read();
                    d.lookup(name)
                };
                // Steps ③/④: claim the blocks, then encode the record
                // that names them.
                let p = match plan(&d, entry) {
                    Ok(p) => p,
                    Err(e) => break 'outcome Outcome::Failed(e),
                };
                let (op, params) = encode(&p, inner.cfg.logging);
                let len = record::encoded_len(name.len(), params.len());
                if len > inner.log.max_record_len() {
                    d.unclaim(&p);
                    break 'outcome Outcome::Failed(DsError::RecordTooLarge(len));
                }
                at.mark(SEG_ALLOC);
                // Step ②a: reserve the record slot (short serialized
                // step: LSN + header + conflict scan).
                match inner.log.reserve(op, name, params.len()) {
                    Err(LogFull) => {
                        d.unclaim(&p);
                        Outcome::Full
                    }
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
                        if conflicts.is_empty() {
                            // Make the writer visible before leaving the
                            // synchronous region.
                            Outcome::Planned(res, params, (entry, p), read.into_writer())
                        } else {
                            // Aborted, never published: its claims and
                            // its slot were never logged.
                            res.abort();
                            d.unclaim(&p);
                            Outcome::Conflicts(conflicts)
                        }
                    }
                }
                // Step ⑤: unlock (scope end).
            };
            let (r, (entry, plan), latch) = match outcome {
                Outcome::Full => {
                    at.mark(SEG_LOG_APPEND);
                    drop(_global);
                    drop(guard);
                    before_wait();
                    inner.handle_log_full();
                    // The forced checkpoint is in flight when the stall
                    // ends — name it even if it finishes before we do.
                    inner.telemetry.ckpt.note_stall(at);
                    at.mark(SEG_LOG_STALL);
                    continue;
                }
                Outcome::Conflicts(conflicts) => {
                    // Another in-flight op owns this object: our record
                    // was aborted (it must have no replay effects); spin
                    // on the conflicting commit flags (§4.4).
                    inner.telemetry.ww_conflicts.inc();
                    drop(_global);
                    drop(guard);
                    before_wait();
                    for c in &conflicts {
                        inner.log.wait_committed(*c);
                    }
                    at.mark(SEG_CC_WAIT);
                    continue;
                }
                Outcome::WriterBusy => {
                    // The writer drops its mark before it commits, so this
                    // wait is bounded by that op's install, not its flush.
                    inner.telemetry.rw_backoffs.inc();
                    drop(_global);
                    drop(guard);
                    before_wait();
                    inner.latches.wait_clear(name);
                    at.mark(SEG_CC_WAIT);
                    continue;
                }
                Outcome::Failed(e) => return Err(e),
                Outcome::Planned(res, params, p, write) => {
                    // Step ②b: store the record body outside every
                    // ordering lock; the commit persists it. Charged
                    // to its own `log_flush` segment so `log_append`
                    // isolates the serialized portion.
                    let r = res.publish(&params);
                    at.mark(SEG_LOG_FLUSH);
                    (r, p, write)
                }
            };
            // Read-write CC: drain current readers (new ones back off
            // because the mark is up).
            latch.drain_readers();
            at.mark(SEG_CC_WAIT);
            // The record is published: let the black box note the
            // admitted LSN — a relaxed max, plus a heartbeat on every
            // HEARTBEAT_EVERY-th LSN.
            inner.blackbox.note_lsn(r.lsn);
            let m = Admitted {
                name,
                handle: r.handle,
                lsn: r.lsn,
                entry,
                latch,
                guard,
            };
            return Ok((m, plan));
        }
    }

    /// Step ⑨ and deferred reclamation, the one commit of every
    /// mutation: commits `recs` with one [`OpLog::commit_many`] (one
    /// fence), then returns the blocks each op freed to the pool (a block
    /// becomes reusable only once the record that frees it is durable),
    /// then drops each op's engine guard, before any checkpoint trigger.
    /// A record whose pages were submitted must be device-durable first
    /// ([`DsContext::commit_puts`]).
    ///
    /// [`OpLog::commit_many`]: dstore_dipper::OpLog::commit_many
    fn commit(&self, recs: &mut [Pending<'_>]) {
        let inner = &self.inner;
        #[cfg(test)]
        for p in recs.iter() {
            inner.before_commit.hit(&p.name);
        }
        inner.log.commit_many(recs.iter().map(|p| p.handle));
        for p in recs.iter_mut() {
            assert!(
                inner.domain().release(&p.freed),
                "a mutation freed blocks it did not own"
            );
            p.guard = None;
        }
    }

    /// Steps ①–⑤ of a put of `value` under `key`: [`DsContext::mutate_plan`]
    /// with the put's plan and record.
    fn plan_put<'a: 'n, 'n>(
        &'a self,
        key: &'n [u8],
        value: &[u8],
        at: &mut ActiveTrace,
        before_wait: &mut dyn FnMut(),
    ) -> DsResult<(Admitted<'a, 'n>, PutPlan)> {
        let inner = &self.inner;
        let size = value.len() as u64;
        self.mutate_plan(
            key,
            |d, entry| d.plan_put_entry(entry, key, size, &inner.pool_shard_locks),
            |plan, mode| put_record(ops::OP_PUT, size, plan, mode, Some(value)),
            at,
            before_wait,
        )
    }

    /// Steps ⑥–⑧ of an admitted put of `value` by `plan` (`None`: a
    /// create, whose inline slot reads as zeros and whose blocks are left
    /// unwritten) of `size` bytes, up to its device wait. `t0` and `at`
    /// are the op's start and trace.
    fn submit_put<'a>(
        &self,
        m: Admitted<'a, '_>,
        plan: PutPlan,
        size: u64,
        value: Option<&[u8]>,
        t0: u64,
        mut at: ActiveTrace,
    ) -> Pending<'a> {
        let inner = &self.inner;
        // Steps ⑥⑦: the inline value, metadata entry + B-tree, outside
        // the synchronous region (OE), on the entry the plan read. The
        // op's readers are drained, so an in-place slot is its own.
        if let Some(slot) = &plan.slot {
            inner.domain().fill_slot(slot, value);
        }
        self.install_put(m.entry, m.name, size, &plan, m.lsn);
        at.mark(SEG_INDEX);

        // Step ⑧: data to SSD. The pages are *submitted*; the epoch waits
        // out their device deadline before it commits. An inline value
        // has none: its record carries it.
        let deadline = self.submit_blocks(&plan.blocks, value.unwrap_or_default());
        // The object's mutation is complete (data in the device's write
        // cache).
        m.into_pending(deadline, plan.freed, t0, at)
    }

    /// Step ⑨ for a set of submitted puts: one device wait, for their
    /// latest deadline, outside every log lock (a record is device-durable
    /// before its commit, so a commit never holds the swap lock across an
    /// SSD wait), then [`DsContext::commit`].
    fn commit_puts(&self, puts: &mut [Pending<'_>]) {
        let deadline = puts.iter().map(|p| p.deadline).max().unwrap_or(0);
        self.inner.ssd.wait_durable(deadline);
        for p in puts.iter_mut() {
            p.at.mark(SEG_SSD_WRITE);
        }
        self.commit(puts);
    }

    /// Closes committed ops: one checkpoint trigger, then each op's
    /// `hist` sample and trace.
    fn end_ops<'a>(&self, hist: &LatencyHistogram, recs: impl Iterator<Item = Pending<'a>>) {
        let inner = &self.inner;
        inner.maybe_checkpoint();
        for p in recs {
            op_end(inner, hist, p.t0, p.at, SEG_COMMIT);
        }
    }

    /// Steps ⑥–⑨ of an admitted put (or create) outside any epoch, traced
    /// on the caller's `at`.
    fn finish_put(
        &self,
        m: Admitted<'_, '_>,
        plan: PutPlan,
        size: u64,
        value: Option<&[u8]>,
        at: &mut ActiveTrace,
    ) {
        let trace = std::mem::replace(at, ActiveTrace::disabled());
        let mut put = self.submit_put(m, plan, size, value, 0, trace);
        self.commit_puts(std::slice::from_mut(&mut put));
        *at = put.at;
    }

    /// Steps ⑥⑦ of a put or create: installs `plan` on `entry`, the entry
    /// [`DsContext::mutate_plan`] returned. A create whose insert finds
    /// `name` already mapped means that entry went stale between plan and
    /// install, so it is checked in every build.
    fn install_put(&self, entry: Entry, name: &[u8], size: u64, plan: &PutPlan, lsn: u64) {
        let inner = &self.inner;
        // Only a create changes the tree. An overwrite changes just the
        // entry, which CC already gives this op alone: it holds `name`'s
        // writer mark and has drained `name`'s readers.
        let _bt = entry.is_none().then(|| inner.btree_lock.write());
        let agreed =
            inner
                .domain()
                .install_put_entry(entry, name, size, plan, lsn, &IndexSync::Exclusive);
        assert!(agreed, "create displaced an existing index mapping");
    }

    // ------------------------------------------------------------------
    // data plane

    /// Submits `data` across allocation `blocks` without the device wait:
    /// per contiguous run, one device command for the run's whole pages,
    /// handed over straight from `data`, and one for a partial tail page,
    /// zero-padded in a page on the stack. Pages beyond the data (pure
    /// preallocation) are left untouched. Returns the latest completion
    /// deadline (0 when `data` is empty) for the caller to wait out
    /// before it commits.
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
            let run = &data[i * bs..data.len().min(j * bs)];
            let (whole, tail) = run.split_at(run.len() / page * page);
            let first_page = d.block_first_page(blocks[i]);
            if !whole.is_empty() {
                deadline = deadline.max(ssd.submit_write_pages(first_page, whole));
            }
            if !tail.is_empty() {
                let mut pad = [0u8; PAGE_BYTES as usize];
                pad[..tail.len()].copy_from_slice(tail);
                let tail_page = first_page + (whole.len() / page) as u64;
                deadline = deadline.max(ssd.submit_write_pages(tail_page, &pad));
            }
            i = j;
        }
        deadline
    }

    /// Reads `size` bytes from allocation `blocks` into a fresh vector.
    /// Whole pages are read straight into the vector's spare capacity, so
    /// it is never zero-initialized; only a partial tail page goes
    /// through a page on the stack. One device command per block, and a
    /// second for a block of several pages that ends in a partial one.
    fn read_blocks_into(&self, blocks: &[u64], size: usize) -> Vec<u8> {
        let ssd = &self.inner.ssd;
        let d = self.inner.domain();
        let bs = d.block_bytes() as usize;
        let page = PAGE_BYTES as usize;
        let mut out = Vec::with_capacity(size);
        for &b in blocks {
            if out.len() >= size {
                break;
            }
            let n = (size - out.len()).min(bs);
            let whole = n / page * page;
            let first_page = d.block_first_page(b);
            if whole > 0 {
                ssd.read_pages_uninit(first_page, &mut out.spare_capacity_mut()[..whole]);
                // SAFETY: the read initialized these `whole` bytes.
                unsafe { out.set_len(out.len() + whole) };
            }
            if whole < n {
                let mut tail = [0u8; PAGE_BYTES as usize];
                ssd.read_pages(first_page + (whole / page) as u64, &mut tail);
                out.extend_from_slice(&tail[..n - whole]);
            }
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

/// Builds a put's record `(op, params)` for `plan` in the configured
/// logging mode: `op` ([`ops::OP_PUT`] or [`ops::OP_CREATE`]) names the
/// blocks the plan claimed, and a touch logs [`ops::OP_TOUCH`]. An inline
/// put carries `value` ([`ops::OP_PUT_INLINE`]); an inline create (`value`
/// `None`) logs its size alone, and its object reads as zeros.
pub(crate) fn put_record(
    op: u16,
    size: u64,
    plan: &PutPlan,
    mode: LoggingMode,
    value: Option<&[u8]>,
) -> (u16, Vec<u8>) {
    let touch = plan.kind == PutKind::Touch;
    let inline = plan.slot.is_some();
    match mode {
        LoggingMode::Logical if touch => (ops::OP_TOUCH, PutParams::encode(size, &[])),
        LoggingMode::Logical => match value.filter(|_| inline) {
            Some(v) => (ops::OP_PUT_INLINE, InlineParams::encode(v)),
            None => (op, PutParams::encode(size, &plan.blocks)),
        },
        LoggingMode::Physical => (
            ops::OP_PHYS_INSTALL,
            PhysImage {
                size,
                blocks: plan.blocks.clone(),
                pops: plan.claims().len() as u32,
                pushes: plan.freed.clone(),
                inline: match (inline, value) {
                    (false, _) => vec![],
                    (true, Some(v)) => v.to_vec(),
                    (true, None) => vec![0; size as usize],
                },
            }
            .encode(),
        ),
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
        let (t0, mut at) = op_begin(inner, "oread", 0);
        let _guard = inner.engine.read_guard();
        let (_latch, stat, data) = read_entry(inner, &self.name, &mut at)?;
        let size = stat.size;
        at.mark(SEG_LOOKUP);
        if offset >= size {
            op_end(inner, &inner.telemetry.op_oread, t0, at, SEG_LOOKUP);
            return Ok(0);
        }
        let d = inner.domain();
        let n = (buf.len() as u64).min(size - offset) as usize;
        let blocks = match data {
            Data::Inline(off) => {
                // SAFETY: the read latch keeps writers off the slot.
                let value = unsafe { d.slot_bytes(off, size) };
                buf[..n].copy_from_slice(&value[offset as usize..][..n]);
                op_end(inner, &inner.telemetry.op_oread, t0, at, SEG_LOOKUP);
                return Ok(n);
            }
            Data::Blocks(blocks) => blocks,
        };
        let bs = d.block_bytes() as usize;
        let page_sz = PAGE_BYTES as usize;
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
        op_end(inner, &inner.telemetry.op_oread, t0, at, SEG_SSD_READ);
        Ok(n)
    }

    /// Partial write at `offset` (the paper's `owrite`), extending the
    /// object if needed. Durable on return.
    ///
    /// A result of at most [`crate::INLINE_MAX`] bytes on an object that
    /// holds no blocks (an inline or empty one) is read, modified and put
    /// whole under the writer mark. Any other write extends the object in
    /// place ([`ops::OP_EXTEND`]); an inline object's bytes then move to
    /// the first block the extend claims.
    pub fn write(&self, data: &[u8], offset: u64) -> DsResult<usize> {
        if !self.writable {
            return Err(DsError::BadMode);
        }
        let inner = &self.ctx.inner;
        let (t0, mut at) = op_begin(inner, "owrite", 0);
        let len = data.len() as u64;
        let (m, plan) = self.ctx.mutate_plan(
            &self.name,
            |d, entry| d.plan_write_entry(entry, &self.name, offset, data, &inner.pool_shard_locks),
            |plan, mode| match plan {
                WritePlan::Extend(p) => (
                    ops::OP_EXTEND,
                    ExtendParams::encode(offset, len, p.claims()),
                ),
                WritePlan::Rewrite(p, value) => {
                    put_record(ops::OP_PUT, value.len() as u64, p, mode, Some(value))
                }
            },
            &mut at,
            &mut || {},
        )?;
        match plan {
            WritePlan::Rewrite(p, value) => {
                let size = value.len() as u64;
                self.ctx.finish_put(m, p, size, Some(&value), &mut at);
            }
            WritePlan::Extend(p) => self.finish_extend(m, p, data, offset, &mut at),
        }
        inner.maybe_checkpoint();
        op_end(inner, &inner.telemetry.op_owrite, t0, at, SEG_COMMIT);
        Ok(data.len())
    }

    /// Steps ⑥–⑨ of an admitted extend that writes `data` at `offset`.
    fn finish_extend(
        &self,
        m: Admitted<'_, '_>,
        plan: ExtendPlan,
        data: &[u8],
        offset: u64,
        at: &mut ActiveTrace,
    ) {
        let inner = &self.ctx.inner;
        let d = inner.domain();
        let page_sz = PAGE_BYTES as usize;
        // An extend never touches the tree: no index lock, no descent.
        let e = m.entry.expect("a successful extend plan read an entry");
        // An inline object's bytes, zero-padded to a page, for its first
        // block: the install frees their slot.
        let head = d.slot_of(e).map(|(off, len)| {
            let mut page = vec![0u8; page_sz];
            // SAFETY: the writer mark, its readers drained, owns the slot.
            page[..len as usize].copy_from_slice(unsafe { d.slot_bytes(off, len) });
            page
        });
        d.install_extend_entry(e, &plan, m.lsn);
        at.mark(SEG_INDEX);
        if let Some(page) = head {
            inner
                .ssd
                .write_pages(d.block_first_page(plan.blocks[0]), &page);
        }
        // Data: sub-page head/tail via partial writes, whole pages via
        // page writes.
        let bs = d.block_bytes() as usize;
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
        let mut rec = m.into_pending(0, Vec::new(), 0, ActiveTrace::disabled());
        self.ctx.commit(std::slice::from_mut(&mut rec));
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

/// Read-write exclusion through the store's latch table. Every wait is on
/// a counter or a slot's state; the deadline only turns a hang into a
/// failure, and no assertion depends on how long anything took.
#[cfg(test)]
mod tests {
    use crate::cc::tests::wait_until;
    use crate::{DStore, DStoreConfig, OpenMode};

    const K: &[u8] = b"k";

    /// `read` on `K` backs off exactly once while the test holds `K`'s
    /// writer mark, and succeeds once the mark drops.
    fn reader_backs_off_from_a_writer_mark(read: fn(&DStore) -> bool) {
        let store = DStore::create(DStoreConfig::small()).unwrap();
        store.context().put(K, b"value").unwrap();
        let backoffs = || store.inner.telemetry.rw_backoffs.get();
        let before = backoffs();
        let mark = store.inner.latches.try_read(K).unwrap().into_writer();
        std::thread::scope(|s| {
            let reader = s.spawn(|| read(&store));
            wait_until("the reader's back-off", || backoffs() == before + 1);
            assert!(!reader.is_finished(), "a reader passed the writer mark");
            drop(mark);
            assert!(reader.join().unwrap(), "the read failed");
        });
        assert_eq!(backoffs(), before + 1);
        assert_eq!(store.inner.latches.slots(), 0);
    }

    #[test]
    fn get_backs_off_from_a_writer_mark() {
        reader_backs_off_from_a_writer_mark(|s| s.context().get(K).is_ok());
    }

    #[test]
    fn stat_backs_off_from_a_writer_mark() {
        reader_backs_off_from_a_writer_mark(|s| s.context().stat(K).is_ok());
    }

    #[test]
    fn oread_backs_off_from_a_writer_mark() {
        reader_backs_off_from_a_writer_mark(|s| {
            let ctx = s.context();
            let obj = ctx.open(K, OpenMode::Read).unwrap();
            let mut buf = [0u8; 5];
            obj.read(&mut buf, 0) == Ok(5)
        });
    }

    #[test]
    fn put_waits_for_a_registered_reader() {
        let store = DStore::create(DStoreConfig::small()).unwrap();
        store.context().put(K, b"old").unwrap();
        let read = store.inner.latches.try_read(K).unwrap();
        std::thread::scope(|s| {
            let writer = s.spawn(|| store.context().put(K, b"new"));
            // The put has its mark up and is draining our registration.
            wait_until("the put's writer mark", || {
                store.inner.latches.state(K) == Some((1, true))
            });
            assert!(!writer.is_finished(), "a put passed a registered reader");
            drop(read);
            writer.join().unwrap().unwrap();
        });
        assert_eq!(store.context().get(K).unwrap(), b"new");
        assert_eq!(store.inner.latches.slots(), 0);
    }

    #[test]
    fn latch_table_holds_no_slot_per_name_seen() {
        let store = DStore::create(DStoreConfig::small()).unwrap();
        let ctx = store.context();
        for i in 0..10_000 {
            let name = format!("name-{i}");
            ctx.put(name.as_bytes(), b"v").unwrap();
            assert_eq!(ctx.get(name.as_bytes()).unwrap(), b"v");
            ctx.delete(name.as_bytes()).unwrap();
        }
        assert_eq!(store.inner.latches.slots(), 0);
    }
}
