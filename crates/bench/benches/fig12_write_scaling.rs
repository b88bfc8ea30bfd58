//! **Figure 12** (extension) — index-mode read scaling.
//!
//! The write-path A/B this bench was named for (serialized pool lock vs
//! parallel persistence) is gone with the serialized path; what remains
//! is the *read* path (get-only and YCSB B) at 1/2/4/8 client threads.
//! The A/B there is the index mode — per-node optimistic lock coupling
//! (`index_olc = true`, the default) against the pre-OLC whole-tree
//! `RwLock` — with the `btree`/`lookup` segment means and the OLC
//! restart rate alongside wall throughput. Simulated device costs are
//! spin-waits, so wall scaling needs host cores ≥ client threads; on
//! smaller hosts the segment columns carry the signal.

use dstore::{DStore, DStoreConfig, LoggingMode};
use dstore_bench::*;
use dstore_telemetry::trace::{SEG_INDEX, SEG_LOOKUP};
use dstore_workload::{RunReport, WorkloadKind};

/// Bench store with the index-mode knob (read-leg A/B): `olc = true` is
/// the shipped per-node optimistic lock coupling, `false` the pre-OLC
/// whole-tree `RwLock`.
fn build_index(olc: bool, keys: usize) -> DStoreKv {
    let mut cfg = DStoreConfig::bench()
        .with_logging(LoggingMode::Logical)
        .with_index_olc(olc)
        .with_auto_checkpoint(true);
    cfg.log_size = 4 << 20;
    cfg.shadow_size = (64 << 20).max(keys * 1536);
    cfg.ssd_pages = (keys as u64) * 4 + 8192;
    cfg.trace.sample_every = 64;
    DStoreKv::new(
        DStore::create(cfg).expect("create bench store"),
        if olc { "olc" } else { "rwlock" },
    )
}

/// Mean `(btree, lookup)` segment time per sampled op — the read path's
/// index descent (OLC restart loops included) and entry decode.
fn index_seg_means_ns(store: &DStore) -> (u64, u64) {
    let Some(a) = store.tail_attribution(0.0) else {
        return (0, 0);
    };
    let ops = (a.tail.sampled_ops + a.body.sampled_ops).max(1);
    let seg = |s: usize| (a.tail.seg_ns[s] + a.body.seg_ns[s]) / ops;
    (seg(SEG_INDEX), seg(SEG_LOOKUP))
}

/// OLC conflict counters accumulated so far (zero in `rwlock` mode).
fn index_counters(store: &DStore) -> (u64, u64) {
    let Some(snap) = store.telemetry_snapshot() else {
        return (0, 0);
    };
    (
        snap.counter_total("dstore_index_restarts_total"),
        snap.counter_total("dstore_index_latch_waits_total"),
    )
}

fn main() {
    let keys = count(DEFAULT_KEYS);
    let duration = secs(3.0);
    let cap = threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# Figure 12: index-mode read scaling, value=4KB, keys={keys}, cores={cores}");
    if cores < 8 {
        println!("# (host has {cores} core(s); spin-modelled device waits do not overlap,");
        println!("#  so wall throughput is core-bound — the btree column carries the signal)");
    }

    // Index-mode A/B (global RwLock vs optimistic lock coupling). The
    // btree column is the index descent charged from the OLC read
    // protocol itself (restarts included), so it — not wall throughput —
    // carries the signal on core-starved hosts.
    for (wname, kind) in [
        ("get-only (100% read)", WorkloadKind::Custom(100)),
        ("YCSB B (95R/5W)", WorkloadKind::B),
    ] {
        println!("\n== {wname}: global-RwLock vs OLC index vs client threads");
        println!(
            "{:>8} {:>13} {:>13} {:>8} {:>11} {:>11} {:>11} {:>12}",
            "threads",
            "lock ops/s",
            "olc ops/s",
            "speedup",
            "lock btree",
            "olc btree",
            "olc lookup",
            "restarts/Mop"
        );
        for t in [1usize, 2, 4, 8] {
            if t > cap {
                println!("   (threads > DSTORE_BENCH_THREADS cap {cap}; row skipped)");
                continue;
            }
            let mut cells: Vec<(RunReport, u64, u64, u64)> = Vec::new();
            for olc in [false, true] {
                let kv = build_index(olc, keys);
                preload(&kv, keys);
                let r = run_ycsb(&kv, kind, keys, duration, t);
                let (btree, lookup) = index_seg_means_ns(kv.store());
                let (restarts, _waits) = index_counters(kv.store());
                cells.push((r, btree, lookup, restarts));
            }
            let (lock, olc) = (&cells[0], &cells[1]);
            let speedup = olc.0.throughput() / lock.0.throughput().max(1e-9);
            let mops = (olc.0.total_ops() as f64 / 1e6).max(1e-9);
            println!(
                "{:>8} {:>13.0} {:>13.0} {:>7.2}x {:>11} {:>11} {:>11} {:>12.1}",
                t,
                lock.0.throughput(),
                olc.0.throughput(),
                speedup,
                us(lock.1),
                us(olc.1),
                us(olc.2),
                olc.3 as f64 / mops,
            );
        }
    }
}
