//! A read-heavy session-store scenario (the workload class the paper's
//! introduction motivates: "several enterprise storage workloads have
//! been shown to be read-heavy … our intention is to lower the impact of
//! write operations by hiding their persistence overhead").
//!
//! Runs a YCSB-B-like 95/5 mix from several threads while checkpoints
//! happen in the background, then prints the latency histograms showing
//! the flat tail.
//!
//! ```text
//! cargo run --release --example kv_cache
//! ```

use dstore::{DStore, DStoreConfig};
use dstore_workload::{LatencyHistogram, ScrambledZipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: u64 = 2_000;
const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 20_000;

fn main() {
    let cfg = DStoreConfig {
        log_size: 128 << 10, // small log: force background checkpoints
        ssd_pages: 16 * 1024,
        ..Default::default()
    };
    let store = Arc::new(DStore::create(cfg).expect("create store"));

    // Preload session blobs.
    let ctx = store.context();
    for s in 0..SESSIONS {
        ctx.put(session_key(s).as_bytes(), &session_blob(s, 0))
            .unwrap();
    }

    let read_hist = Arc::new(LatencyHistogram::new());
    let write_hist = Arc::new(LatencyHistogram::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let read_hist = Arc::clone(&read_hist);
            let write_hist = Arc::clone(&write_hist);
            scope.spawn(move || {
                let ctx = store.context();
                let zipf = ScrambledZipfian::new(SESSIONS);
                let mut rng = StdRng::seed_from_u64(42 + t as u64);
                for i in 0..OPS_PER_THREAD {
                    let s = zipf.next(&mut rng);
                    let key = session_key(s);
                    let start = Instant::now();
                    if rng.gen_range(0..100) < 95 {
                        let blob = ctx.get(key.as_bytes()).unwrap();
                        assert!(!blob.is_empty());
                        read_hist.record(start.elapsed().as_nanos() as u64);
                    } else {
                        ctx.put(key.as_bytes(), &session_blob(s, i as u64)).unwrap();
                        write_hist.record(start.elapsed().as_nanos() as u64);
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();

    let total = read_hist.count() + write_hist.count();
    println!(
        "{total} ops across {THREADS} threads in {elapsed:?} ({:.0} ops/s)",
        total as f64 / elapsed.as_secs_f64()
    );
    for (name, h) in [("reads", &read_hist), ("writes", &write_hist)] {
        let (p50, p99, p999, p9999) = h.paper_percentiles();
        println!(
            "{name:<7} n={:<8} p50={:>6}us p99={:>6}us p999={:>6}us p9999={:>6}us",
            h.count(),
            p50 / 1000,
            p99 / 1000,
            p999 / 1000,
            p9999 / 1000
        );
    }
    let c = store.checkpoint_stats();
    println!(
        "background checkpoints: {} completed, {} records applied — zero quiescing",
        c.completed, c.records_applied
    );
}

fn session_key(s: u64) -> String {
    format!("session/{s:08x}")
}

fn session_blob(s: u64, version: u64) -> Vec<u8> {
    let mut v = format!("{{\"sid\":{s},\"v\":{version},\"payload\":\"").into_bytes();
    v.extend(std::iter::repeat_n(b'x', 1500));
    v.extend(b"\"}");
    v
}
