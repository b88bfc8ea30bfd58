//! The put commit path with device latency on: every put waits out its
//! own SSD deadline before it enters the commit combiner, so (a) no put
//! is acknowledged before its device write has landed, (b) combiner
//! followers never wait long enough to sleep, and (c) the device wait is
//! attributed to the NVMe row of the Table 3 breakdown.

use dstore::{DStore, DStoreConfig};
use dstore_ssd::SsdLatency;
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
fn combiner_followers_do_not_sleep() {
    const WRITERS: usize = 2;
    const PUTS: usize = 5_000;
    let store = store_with_device_latency();
    shortest_put(&store, WRITERS, PUTS);
    let snap = store.telemetry_snapshot().unwrap();
    let commits = snap.counter_total("dstore_ops_total");
    assert_eq!(commits, (WRITERS * PUTS) as u64);
    // A drain is flag stores + one persist; no follower should wait the
    // ~64 µs it takes to reach the sleep stage, save for preemptions.
    let sleeps = snap.counter_total("dstore_log_commit_follower_sleeps_total");
    assert!(
        sleeps * 100 < commits,
        "{sleeps} of {commits} commits slept waiting for the combiner"
    );
}

#[test]
fn device_wait_is_attributed_to_nvme() {
    let store = DStore::create(DStoreConfig::bench()).unwrap();
    let device = store.ssd().latency().write_cost_ns(VALUE.len());
    let ctx = store.context();
    for i in 0..64 {
        ctx.put(format!("k{i}").as_bytes(), &VALUE).unwrap();
    }
    let (mut nvme_ns, mut total_ns) = (0, 0);
    for i in 0..256 {
        let bd = ctx
            .put_instrumented(format!("k{}", i % 64).as_bytes(), &VALUE)
            .unwrap();
        assert!(
            bd.nvme_ns >= device,
            "NVMe row {} ns does not cover the {device} ns device wait",
            bd.nvme_ns
        );
        nvme_ns += bd.nvme_ns;
        total_ns += bd.total_ns;
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
