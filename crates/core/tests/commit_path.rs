//! The put commit path with device latency on: every put waits out its
//! own SSD deadline before it commits, so (a) no put is acknowledged
//! before its device write has landed, and (b) the device wait is
//! attributed to the put trace's `ssd_write` segment, the NVMe row of
//! Table 3. It also holds
//! the ordering budget: fewer than two PMEM flushes and two fences per
//! put, with one writer and with two.
//!
//! A durability epoch (`Epoch::put_begin` … `finish`) waits once, for its latest
//! deadline, and commits behind one fence: sixteen puts cost one flush
//! and one fence, and a crash right after `finish` on a crash-faithful
//! device loses none of them.

use dstore::{DStore, DStoreConfig, LoggingMode};
use dstore_ssd::SsdLatency;
use dstore_telemetry::trace::SEG_SSD_WRITE;
use dstore_telemetry::TraceConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

const VALUE: [u8; 4096] = [0x5A; 4096];

/// Default store in front of the P4800X-calibrated device model.
fn store_with_device_latency() -> Arc<DStore> {
    let cfg = DStoreConfig {
        ssd_latency: SsdLatency::p4800x(),
        ..DStoreConfig::default()
    };
    Arc::new(DStore::create(cfg).unwrap())
}

/// `writers` threads × `puts` 4 KB puts over disjoint keys; returns the
/// shortest put observed.
fn shortest_put(store: &Arc<DStore>, writers: usize, puts: usize) -> Duration {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let store = Arc::clone(store);
                s.spawn(move || {
                    let ctx = store.context();
                    (0..puts)
                        .map(|i| {
                            let key = format!("w{w}-k{}", i % 64);
                            let t = Instant::now();
                            ctx.put(key.as_bytes(), &VALUE).unwrap();
                            t.elapsed()
                        })
                        .min()
                        .unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .min()
            .unwrap()
    })
}

fn assert_acknowledged_after_device_time(writers: usize) {
    let store = store_with_device_latency();
    let device = Duration::from_nanos(store.ssd().latency().write_cost_ns(VALUE.len()));
    assert!(
        device >= Duration::from_micros(5),
        "model too fast: {device:?}"
    );
    // The put's clock starts before its submit, so a put shorter than
    // the device time was acknowledged before its write landed.
    let min = shortest_put(&store, writers, 500);
    assert!(
        min >= device,
        "{writers} writer(s): a put returned after {min:?}, device time is {device:?}"
    );
}

#[test]
fn put_is_acknowledged_after_device_time_one_writer() {
    assert_acknowledged_after_device_time(1);
}

#[test]
fn put_is_acknowledged_after_device_time_two_writers() {
    assert_acknowledged_after_device_time(2);
}

#[test]
fn device_wait_is_attributed_to_nvme() {
    const PUTS: usize = 256;
    // Every op traced, into a ring that ends holding the measured puts.
    let cfg = DStoreConfig::bench().with_trace(TraceConfig {
        sample_every: 1,
        slo_ns: 0,
        ring_capacity: PUTS,
    });
    let store = DStore::create(cfg).unwrap();
    let device = store.ssd().latency().write_cost_ns(VALUE.len());
    let ctx = store.context();
    for i in 0..64 {
        ctx.put(format!("k{i}").as_bytes(), &VALUE).unwrap();
    }
    for i in 0..PUTS {
        ctx.put(format!("k{}", i % 64).as_bytes(), &VALUE).unwrap();
    }
    let traces = store
        .telemetry_snapshot()
        .unwrap()
        .all_traces("dstore_op_traces");
    assert_eq!(traces.len(), PUTS);
    let (mut nvme_ns, mut total_ns) = (0, 0);
    for t in &traces {
        assert!(t.op == "put" && t.sampled, "{t:?}");
        let ssd_write = t.seg_ns[SEG_SSD_WRITE];
        assert!(
            ssd_write >= device,
            "ssd_write {ssd_write} ns does not cover the {device} ns device wait"
        );
        nvme_ns += ssd_write;
        total_ns += t.duration_ns();
    }
    // Table 3's shape — the device dominates a 4 KB put — is a property
    // of optimized code: an unoptimized build's software path alone
    // costs about one device write.
    if !cfg!(debug_assertions) {
        assert!(
            nvme_ns * 10 >= total_ns * 6,
            "NVMe share {nvme_ns}/{total_ns} ns below the paper's dominant-device shape"
        );
    }
}

/// The ordering tax of minimally-ordered durability, counted rather than
/// timed: a put's record body, header gap and commit flag reach PMEM
/// behind one merged flush and one fence, so fewer than two of each per
/// put, amortized, whatever the host's speed — also when two writers on
/// disjoint keys commit side by side, and when a 128 B value rides in the
/// record (more lines in the same flush, no extra call).
#[test]
fn put_stays_within_the_fence_budget() {
    // The default sampling, and every op sampled as the benchmark's
    // traced legs run: the black box then mirrors one trace in
    // MIRROR_EVERY, not one per put.
    for sample_every in [TraceConfig::default().sample_every, 1] {
        for writers in [1, 2] {
            assert_fence_budget(writers, &VALUE, sample_every);
            assert_fence_budget(writers, &VALUE[..128], sample_every);
        }
    }
}

fn assert_fence_budget(writers: usize, value: &[u8], sample_every: u64) {
    const KEYS: usize = 1024;
    const PUTS: usize = 2000;
    let cfg = DStoreConfig {
        log_size: 64 << 20,
        ssd_pages: 32 * 1024,
        trace: TraceConfig {
            sample_every,
            ..TraceConfig::default()
        },
        ..Default::default()
    };
    let store = DStore::create(cfg).unwrap();
    let puts = |range: std::ops::Range<usize>| {
        std::thread::scope(|s| {
            for w in 0..writers {
                let (store, range) = (&store, range.clone());
                s.spawn(move || {
                    let ctx = store.context();
                    for i in range {
                        ctx.put(format!("w{w}-k{}", i % KEYS).as_bytes(), value)
                            .unwrap();
                    }
                });
            }
        })
    };
    puts(0..KEYS);
    let counter = |name: &str| {
        store
            .telemetry_snapshot()
            .expect("telemetry on")
            .counter_total(name)
    };
    let (f0, s0) = (
        counter("dstore_pmem_flushes_total"),
        counter("dstore_pmem_fences_total"),
    );
    puts(0..PUTS);
    let total = (writers * PUTS) as f64;
    let flushes = (counter("dstore_pmem_flushes_total") - f0) as f64 / total;
    let fences = (counter("dstore_pmem_fences_total") - s0) as f64 / total;
    let len = value.len();
    println!(
        "fence budget, {writers} writer(s), {len} B, 1 in {sample_every} sampled: \
         {flushes:.3} flushes/put, {fences:.3} fences/put"
    );
    assert!(
        flushes < 2.0 && fences < 2.0,
        "fence budget violated with {writers} writer(s), {len} B values, 1 in {sample_every} \
         sampled: {flushes:.3} flushes/put, {fences:.3} fences/put (budget: < 2 of each)"
    );
}

/// Sixteen puts begun into one epoch and finished together cost one
/// flush and one fence beyond the black box's own (one of each per
/// record it mirrors), for block values and for inline ones.
#[test]
fn an_epoch_of_sixteen_puts_costs_one_flush_and_one_fence() {
    const PUTS: usize = 16;
    let cfg = DStoreConfig {
        log_size: 64 << 20,
        ..Default::default()
    };
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    let counter = |name: &str| store.telemetry_snapshot().unwrap().counter_total(name);
    let key = |i: usize| format!("k{i}").into_bytes();
    for i in 0..PUTS {
        ctx.put(&key(i), &VALUE).unwrap();
    }
    for value in [&VALUE[..], &VALUE[..128]] {
        let flushes = counter("dstore_pmem_flushes_total");
        let fences = counter("dstore_pmem_fences_total");
        let mirrored = counter("dstore_blackbox_records_total");
        let batches = counter("dstore_log_commit_batches_total");
        let mut epoch = ctx.epoch();
        for i in 0..PUTS {
            epoch.put_begin(&key(i), value, 0).unwrap();
        }
        assert_eq!(epoch.len(), PUTS);
        epoch.finish();
        assert!(epoch.is_empty());
        let mirrored = counter("dstore_blackbox_records_total") - mirrored;
        let len = value.len();
        assert_eq!(
            counter("dstore_pmem_flushes_total") - flushes - mirrored,
            1,
            "{len} B values: flushes beyond the black box's {mirrored}"
        );
        assert_eq!(
            counter("dstore_pmem_fences_total") - fences - mirrored,
            1,
            "{len} B values: fences beyond the black box's {mirrored}"
        );
        assert_eq!(counter("dstore_log_commit_batches_total") - batches, 1);
        for i in 0..PUTS {
            assert_eq!(ctx.get(&key(i)).unwrap(), value);
        }
    }
}

/// An epoch's one wait must cover its *latest* deadline. Puts of growing
/// size (so later deadlines fall later) are begun into one epoch on a
/// strict store whose device is crash-faithful, the store crashes right
/// after `finish`, and every value must read back: a write still in
/// flight at the crash would have rolled its pages back.
fn epoch_survives_a_crash_right_after_finish(logging: LoggingMode) {
    const PUTS: usize = 16;
    let mut cfg = DStoreConfig::small()
        .with_logging(logging)
        .with_auto_checkpoint(false);
    // 2 ms a command plus 50 ns a byte: 2.2 ms for one page, 5.3 ms for
    // sixteen.
    cfg.ssd_latency = SsdLatency {
        write_base_ns: 2_000_000,
        write_ns_per_byte: 50.0,
        ..SsdLatency::none()
    };
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    let key = |i: usize| format!("k{i}").into_bytes();
    let value = |i: usize| vec![i as u8 + 1; (i + 1) * 4096 - 7];
    let mut epoch = ctx.epoch();
    let deadlines: Vec<u64> = (0..PUTS)
        .map(|i| epoch.put_begin(&key(i), &value(i), 0).unwrap().1)
        .collect();
    assert!(
        deadlines.windows(2).all(|w| w[0] < w[1]),
        "deadlines do not grow: {deadlines:?}"
    );
    epoch.finish();
    drop(epoch);
    drop(ctx);
    let recovered = DStore::recover(store.crash()).unwrap();
    let ctx = recovered.context();
    for i in 0..PUTS {
        assert_eq!(ctx.get(&key(i)).unwrap(), value(i), "{logging:?}: k{i}");
    }
}

#[test]
fn epoch_survives_a_crash_right_after_finish_logical() {
    epoch_survives_a_crash_right_after_finish(LoggingMode::Logical);
}

#[test]
fn epoch_survives_a_crash_right_after_finish_physical() {
    epoch_survives_a_crash_right_after_finish(LoggingMode::Physical);
}

/// Dropping an epoch that holds puts finishes it: its puts are committed
/// and durable, so another context's write of the same key passes its
/// conflict scan instead of waiting on a record nothing would commit.
#[test]
fn a_dropped_epoch_commits_its_puts() {
    let store = Arc::new(DStore::create(DStoreConfig::small()).unwrap());
    let ctx = store.context();
    ctx.put(b"k", b"first").unwrap();
    let mut epoch = ctx.epoch();
    epoch.put_begin(b"k", &VALUE, 0).unwrap();
    epoch.put_begin(b"other", &VALUE, 0).unwrap();
    drop(epoch);
    assert_eq!(ctx.get(b"k").unwrap(), VALUE);
    let (done, finished) = std::sync::mpsc::channel();
    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            store.context().put(b"k", b"second").unwrap();
            done.send(()).unwrap();
        })
    };
    assert!(
        finished.recv_timeout(Duration::from_secs(60)).is_ok(),
        "a second context's put waited on the dropped epoch's record"
    );
    writer.join().unwrap();
    drop(ctx);
    let store = Arc::into_inner(store).expect("the writer's handle was dropped");
    let recovered = DStore::recover(store.crash()).unwrap();
    let ctx = recovered.context();
    assert_eq!(ctx.get(b"k").unwrap(), b"second");
    assert_eq!(ctx.get(b"other").unwrap(), VALUE);
}
