//! End-to-end DIPPER tests: a miniature application (a counter map) whose
//! frontend lives in a DRAM arena, is logged through the OpLog, is
//! checkpointed onto PMEM shadow copies, and is recovered after simulated
//! crashes — exercising the full §3 machinery without DStore on top.

use dstore_arena::{Arena, DramMemory, Memory, PmemRange, RelPtr};
use dstore_dipper::checkpoint::{apply_checkpoint, Applier, RecordWindows};
use dstore_dipper::record::OwnedRecord;
use dstore_dipper::{
    recover_scan, CheckpointStats, Checkpointer, DipperConfig, OpLog, PmemLayout, Root,
};
use dstore_pmem::PmemPool;
use std::sync::Arc;

/// The mini-app's arena-resident state: a fixed-slot counter table keyed
/// by name hash. Deterministic replay: op=1 params=[delta u64] adds to the
/// slot.
#[repr(C)]
struct CounterDir {
    slots: [u64; 64],
}
// SAFETY: plain array of u64, zero-valid.
unsafe impl dstore_arena::ArenaPod for CounterDir {}

const OP_ADD: u16 = 1;

fn slot_of(name: &[u8]) -> usize {
    (dstore_dipper::record::name_hash(name) as usize) % 64
}

fn apply_record<M: Memory>(arena: &Arena<M>, dir: RelPtr<CounterDir>, r: &OwnedRecord) {
    assert_eq!(r.op, OP_ADD);
    let delta = u64::from_le_bytes(r.params[..8].try_into().unwrap());
    // SAFETY: dir is live; callers serialize per test.
    unsafe {
        (*arena.resolve(dir)).slots[slot_of(&r.name)] += delta;
    }
}

struct Mini {
    pool: Arc<PmemPool>,
    layout: PmemLayout,
    root: Arc<Root>,
    log: Arc<OpLog>,
    dram: Arena<DramMemory>,
    dir: RelPtr<CounterDir>,
}

fn applier_for(pool: &Arc<PmemPool>, layout: PmemLayout, dir: RelPtr<CounterDir>) -> Applier {
    let pool = Arc::clone(pool);
    Arc::new(move |shadow_idx: usize, windows: &RecordWindows<'_>| {
        let arena = Arena::attach(PmemRange::new(
            Arc::clone(&pool),
            layout.shadow[shadow_idx],
            layout.shadow_size,
        ))
        .expect("shadow arena");
        windows.for_each(|records| {
            for r in records {
                apply_record(&arena, dir, r);
            }
        });
    })
}

fn mini_create(cfg: &DipperConfig) -> Mini {
    let layout = PmemLayout::new(cfg);
    let pool = Arc::new(PmemPool::strict(layout.total));
    let root = Arc::new(Root::format(
        Arc::clone(&pool),
        layout.log_size as u64,
        layout.shadow_size as u64,
    ));
    let log = Arc::new(OpLog::create(Arc::clone(&pool), layout));
    // Frontend state in DRAM.
    let dram = Arena::create(DramMemory::new(layout.shadow_size));
    let dir: RelPtr<CounterDir> = dram.alloc();
    // Initialize shadow region 0 with the identical empty state.
    let shadow0 = Arena::create(PmemRange::new(
        Arc::clone(&pool),
        layout.shadow[0],
        layout.shadow_size,
    ));
    dram.copy_allocated_to(&shadow0);
    shadow0.persist_allocated();
    root.set_app_dir(dir.offset());
    Mini {
        pool,
        layout,
        root,
        log,
        dram,
        dir,
    }
}

impl Mini {
    /// Frontend op: log it, apply to DRAM, commit.
    fn add(&self, name: &[u8], delta: u64) {
        let r = self
            .log
            .try_append(OP_ADD, name, &delta.to_le_bytes())
            .expect("log full — size the test config up");
        for c in &r.conflicts {
            self.log.wait_committed(*c);
        }
        // SAFETY: tests call add from one thread at a time per name.
        unsafe {
            (*self.dram.resolve(self.dir)).slots[slot_of(name)] += delta;
        }
        self.log.commit(r.handle);
    }

    fn read(&self, name: &[u8]) -> u64 {
        // SAFETY: read-only.
        unsafe { (*self.dram.resolve(self.dir)).slots[slot_of(name)] }
    }

    fn shadow_read(&self, shadow: usize, name: &[u8]) -> u64 {
        let arena = Arena::attach(PmemRange::new(
            Arc::clone(&self.pool),
            self.layout.shadow[shadow],
            self.layout.shadow_size,
        ))
        .expect("shadow arena");
        // SAFETY: read-only.
        unsafe { (*arena.resolve(self.dir)).slots[slot_of(name)] }
    }
}

fn small_cfg() -> DipperConfig {
    DipperConfig {
        log_size: 1 << 16,
        shadow_size: 128 * 1024,
        swap_threshold: 0.5,
        ..Default::default()
    }
}

#[test]
fn checkpoint_applies_log_to_shadow_and_commits_root() {
    let mini = mini_create(&small_cfg());
    let applier = applier_for(&mini.pool, mini.layout, mini.dir);
    let ckpt = Checkpointer::new(
        Arc::clone(&mini.pool),
        mini.layout,
        Arc::clone(&mini.root),
        Arc::clone(&mini.log),
        applier,
    );
    mini.add(b"a", 5);
    mini.add(b"b", 7);
    mini.add(b"a", 1);
    assert_eq!(mini.read(b"a"), 6);
    assert!(ckpt.try_begin());
    ckpt.wait_idle();
    let st = mini.root.state();
    assert!(!st.checkpoint_in_progress);
    assert_eq!(st.current_shadow, 1, "root flipped to the new image");
    assert_eq!(mini.shadow_read(1, b"a"), 6);
    assert_eq!(mini.shadow_read(1, b"b"), 7);
    assert_eq!(
        ckpt.stats()
            .completed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Frontend keeps running during/after checkpoints.
    mini.add(b"a", 10);
    assert_eq!(mini.read(b"a"), 16);
}

#[test]
fn crash_mid_checkpoint_redo_produces_same_image() {
    let mini = mini_create(&small_cfg());
    mini.add(b"x", 3);
    mini.add(b"y", 4);
    // Begin the checkpoint (swap + root transition) but crash before apply.
    mini.log.swap(|| {
        mini.root.begin_checkpoint();
    });
    mini.pool.simulate_crash();

    // Recovery: redo the interrupted checkpoint.
    let plan = recover_scan(&mini.pool, &mini.layout, &mini.root);
    let redo = plan.redo_records.clone().expect("must redo");
    assert_eq!(redo.len(), 2);
    let applier = applier_for(&mini.pool, mini.layout, mini.dir);
    let stats = CheckpointStats::default();
    apply_checkpoint(
        &mini.pool,
        &mini.layout,
        &mini.root,
        &applier,
        RecordWindows::read(&redo),
        &stats,
        None,
        2,
    );
    let st = mini.root.state();
    assert!(!st.checkpoint_in_progress);
    assert_eq!(mini.shadow_read(st.current_shadow, b"x"), 3);
    assert_eq!(mini.shadow_read(st.current_shadow, b"y"), 4);

    // Reconstruct DRAM from the shadow and replay the (empty) active log.
    let shadow = Arena::attach(PmemRange::new(
        Arc::clone(&mini.pool),
        mini.layout.shadow[st.current_shadow],
        mini.layout.shadow_size,
    ))
    .unwrap();
    let dram2 = Arena::create(DramMemory::new(mini.layout.shadow_size));
    shadow.copy_allocated_to(&dram2);
    for r in &plan.replay_records {
        apply_record(&dram2, mini.dir, r);
    }
    // SAFETY: read-only.
    unsafe {
        assert_eq!((*dram2.resolve(mini.dir)).slots[slot_of(b"x")], 3);
        assert_eq!((*dram2.resolve(mini.dir)).slots[slot_of(b"y")], 4);
    }
}

#[test]
fn crash_outside_checkpoint_replays_active_log() {
    let mini = mini_create(&small_cfg());
    let applier = applier_for(&mini.pool, mini.layout, mini.dir);
    {
        let ckpt = Checkpointer::new(
            Arc::clone(&mini.pool),
            mini.layout,
            Arc::clone(&mini.root),
            Arc::clone(&mini.log),
            Arc::clone(&applier),
        );
        mini.add(b"pre", 100);
        ckpt.run_inline(); // checkpoint covers "pre"
    }
    mini.add(b"post", 42); // only in the active log
    mini.pool.simulate_crash();

    let plan = recover_scan(&mini.pool, &mini.layout, &mini.root);
    assert!(plan.redo_records.is_none());
    let st = plan.state;
    // DRAM reconstruction: shadow image has "pre" but not "post".
    assert_eq!(mini.shadow_read(st.current_shadow, b"pre"), 100);
    assert_eq!(mini.shadow_read(st.current_shadow, b"post"), 0);
    let shadow = Arena::attach(PmemRange::new(
        Arc::clone(&mini.pool),
        mini.layout.shadow[st.current_shadow],
        mini.layout.shadow_size,
    ))
    .unwrap();
    let dram2 = Arena::create(DramMemory::new(mini.layout.shadow_size));
    shadow.copy_allocated_to(&dram2);
    assert_eq!(plan.replay_records.len(), 1);
    for r in &plan.replay_records {
        apply_record(&dram2, mini.dir, r);
    }
    // SAFETY: read-only.
    unsafe {
        assert_eq!((*dram2.resolve(mini.dir)).slots[slot_of(b"pre")], 100);
        assert_eq!((*dram2.resolve(mini.dir)).slots[slot_of(b"post")], 42);
    }
}

#[test]
fn frontend_progresses_during_background_checkpoint() {
    // Quiescent-freedom smoke test: appends succeed while the apply phase
    // runs concurrently.
    let mini = mini_create(&DipperConfig {
        log_size: 1 << 18,
        shadow_size: 1 << 20,
        swap_threshold: 0.5,
        ..Default::default()
    });
    let applier = applier_for(&mini.pool, mini.layout, mini.dir);
    let ckpt = Checkpointer::new(
        Arc::clone(&mini.pool),
        mini.layout,
        Arc::clone(&mini.root),
        Arc::clone(&mini.log),
        applier,
    );
    for round in 0..5 {
        for i in 0..200 {
            mini.add(format!("o{i}").as_bytes(), 1);
        }
        assert!(
            ckpt.try_begin(),
            "round {round}: previous checkpoint still busy"
        );
        // Interleave frontend work with the background apply.
        for i in 0..200 {
            mini.add(format!("o{i}").as_bytes(), 1);
        }
        ckpt.wait_idle();
    }
    // 5 rounds × 400 adds of 1 landed somewhere; after a final checkpoint
    // the shadow image must equal the DRAM state slot-for-slot.
    ckpt.run_inline();
    let st = mini.root.state();
    let shadow = Arena::attach(PmemRange::new(
        Arc::clone(&mini.pool),
        mini.layout.shadow[st.current_shadow],
        mini.layout.shadow_size,
    ))
    .unwrap();
    // SAFETY: read-only.
    unsafe {
        let dram_slots = (*mini.dram.resolve(mini.dir)).slots;
        let shadow_slots = (*shadow.resolve(mini.dir)).slots;
        assert_eq!(dram_slots.iter().sum::<u64>(), 2000);
        assert_eq!(dram_slots, shadow_slots);
    }
}

#[test]
fn apply_panic_is_counted_and_releases_the_store() {
    use dstore_dipper::checkpoint::{CheckpointTelemetry, CHECKPOINT_PHASES};
    use dstore_telemetry::{Counter, PhaseCell, SpanRing};
    use std::sync::atomic::{AtomicBool, Ordering};

    let mini = mini_create(&small_cfg());
    let boom = Arc::new(AtomicBool::new(true));
    let good = applier_for(&mini.pool, mini.layout, mini.dir);
    let applier: Applier = {
        let boom = Arc::clone(&boom);
        let good = Arc::clone(&good);
        Arc::new(move |idx, records| {
            if boom.load(Ordering::Relaxed) {
                panic!("injected apply failure");
            }
            good(idx, records);
        })
    };
    let ckpt = Checkpointer::new(
        Arc::clone(&mini.pool),
        mini.layout,
        Arc::clone(&mini.root),
        Arc::clone(&mini.log),
        applier,
    );
    let tel = CheckpointTelemetry {
        ring: Arc::new(SpanRing::new(64)),
        phase: Arc::new(PhaseCell::new(CHECKPOINT_PHASES)),
        panics: Arc::new(Counter::default()),
        events: None,
    };
    ckpt.set_telemetry(tel.clone());

    mini.add(b"k", 9);
    assert!(ckpt.try_begin());
    // Must return even though the apply phase panicked: a stuck `busy`
    // would hang every future backpressure wait.
    ckpt.wait_idle();
    assert!(!ckpt.is_busy());
    // The worker releases `busy` before it books the panic; poll.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while tel.panics.get() == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(tel.panics.get(), 1, "panic not counted");
    assert_eq!(tel.phase.name(), "idle");
    // The root never committed: the interrupted checkpoint is still
    // in progress on disk, exactly like a crash mid-apply.
    assert!(mini.root.state().checkpoint_in_progress);

    // The frontend is unaffected.
    mini.add(b"k", 1);
    assert_eq!(mini.read(b"k"), 10);

    // Heal the applier: the next trigger redoes the orphaned
    // checkpoint from the archived log, then runs a fresh one.
    boom.store(false, Ordering::Relaxed);
    assert!(ckpt.try_begin());
    ckpt.wait_idle();
    assert_eq!(tel.panics.get(), 1, "no new panics after healing");
    let st = mini.root.state();
    assert!(!st.checkpoint_in_progress);
    assert_eq!(mini.shadow_read(st.current_shadow, b"k"), 10);
}

#[test]
fn oe_parallel_replay_matches_serial() {
    // Replaying grouped-by-object in parallel yields the same final state
    // as serial replay — observational equivalence (§3.7).
    let records: Vec<OwnedRecord> = (0..500u64)
        .map(|i| OwnedRecord {
            lsn: i + 1,
            op: OP_ADD,
            commit: dstore_dipper::COMMIT_COMMITTED,
            name: format!("obj{}", i % 13).into_bytes(),
            params: (i % 7 + 1).to_le_bytes().to_vec(),
            off: 0,
        })
        .collect();

    let serial = Arena::create(DramMemory::new(1 << 20));
    let sdir: RelPtr<CounterDir> = serial.alloc();
    for r in &records {
        apply_record(&serial, sdir, r);
    }

    let parallel = Arena::create(DramMemory::new(1 << 20));
    let pdir: RelPtr<CounterDir> = parallel.alloc();
    // Group by name hash — the same stable-partition idea DStore's
    // OE-parallel applier uses (there: `fnv1a(name) % pool_shards`).
    let mut groups: Vec<Vec<&OwnedRecord>> = (0..8).map(|_| Vec::new()).collect();
    for r in &records {
        groups[(dstore_dipper::record::name_hash(&r.name) as usize) % 8].push(r);
    }
    let par_ref = &parallel;
    std::thread::scope(|s| {
        for g in &groups {
            s.spawn(move || {
                for r in g {
                    // Slot updates within a group are same-object ordered;
                    // distinct groups touch distinct slots (mod collisions
                    // stay within a group by construction).
                    apply_record(par_ref, pdir, r);
                }
            });
        }
    });

    // SAFETY: read-only.
    unsafe {
        for s in 0..64 {
            assert_eq!(
                (*serial.resolve(sdir)).slots[s],
                (*parallel.resolve(pdir)).slots[s],
                "slot {s} diverged"
            );
        }
    }
}
