//! Store inspector: dumps a live store's internals — the kind of
//! operational tool a production deployment grows. Everything dynamic
//! is read through the telemetry snapshot API ([`DStore::telemetry_snapshot`]),
//! the same single serialization path scrapers and `dstore_top` use;
//! `--json` prints the raw JSON document instead of the human view.
//!
//! ```text
//! cargo run --release --example inspect
//! cargo run --release --example inspect -- --json | python3 -m json.tool
//! ```

use dstore::{DStore, DStoreConfig};
use dstore_telemetry::to_json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    // Build a store with some history: loads, updates, deletes, and a
    // couple of checkpoints.
    let cfg = DStoreConfig {
        log_size: 256 << 10,
        ssd_pages: 16 * 1024,
        ..Default::default()
    };
    let store = DStore::create(cfg).expect("create");
    let ctx = store.context();
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..2000u32 {
        let key = format!("tenant{}/obj{:04}", i % 3, rng.gen_range(0..500));
        let size = rng.gen_range(64..6000);
        ctx.put(key.as_bytes(), &vec![(i % 251) as u8; size])
            .unwrap();
        if i % 17 == 0 {
            let victim = format!("tenant{}/obj{:04}", i % 3, rng.gen_range(0..500));
            let _ = ctx.delete(victim.as_bytes());
        }
    }
    store.checkpoint_now();
    store.wait_checkpoint_idle();

    let snap = store.telemetry_snapshot().expect("telemetry is on");
    if json {
        // The machine-readable path: the whole snapshot as one JSON
        // document (counters, gauges, histograms, and the phase spans
        // Prometheus text cannot express).
        println!("{}", to_json(&snap));
        return;
    }

    println!("=== dstore inspect ===\n");

    // Object index (application-level — not a telemetry concern).
    let names = ctx.list();
    println!("objects: {}", names.len());
    let mut per_tenant = std::collections::BTreeMap::new();
    let mut total_bytes = 0u64;
    for n in &names {
        let size = ctx.size_of(n).unwrap();
        total_bytes += size;
        let tenant = n.split(|&b| b == b'/').next().unwrap().to_vec();
        let e = per_tenant.entry(tenant).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += size;
    }
    for (tenant, (count, bytes)) in &per_tenant {
        println!(
            "  {:<10} {:>5} objects {:>10} bytes",
            String::from_utf8_lossy(tenant),
            count,
            bytes
        );
    }
    println!(
        "  {:<10} {:>5} objects {:>10} bytes (logical)\n",
        "total",
        names.len(),
        total_bytes
    );

    // Footprint across the storage tiers.
    let f = store.footprint();
    println!("footprint:");
    println!("  DRAM  (system space)      {:>12} B", f.dram_bytes);
    println!("  PMEM  (logs + shadows)    {:>12} B", f.pmem_bytes);
    println!("  SSD   (data blocks)       {:>12} B", f.ssd_bytes);
    println!("  space amplification       {:>12.2}x\n", f.amplification());

    // Checkpoint machinery — counters and the phase-span trace.
    println!("checkpoints:");
    println!(
        "  completed                 {:>12}",
        snap.counter_total("dstore_checkpoints_completed_total")
    );
    println!(
        "  apply panics              {:>12}",
        snap.counter_total("dstore_checkpoint_panics_total")
    );
    println!(
        "  phase in flight           {:>12}",
        store.checkpoint_phase()
    );
    let spans = snap.all_spans("dstore_checkpoint_spans");
    if let Some(last_swap) = spans.iter().rev().find(|s| s.name == "swap") {
        let last: Vec<_> = spans
            .iter()
            .filter(|s| s.end_ns <= last_swap.end_ns)
            .rev()
            .take(4)
            .collect();
        println!("  last checkpoint phases:");
        for s in last.iter().rev() {
            println!(
                "    {:<8} {:>9.2} ms  (bytes={}, records={})",
                s.name,
                s.duration_ns() as f64 / 1e6,
                s.a,
                s.b
            );
        }
    }
    println!();

    // Per-op latency, from the same histograms a scraper sees.
    println!("op latency (ns):");
    println!("  op        count       p50       p99     p9999");
    for op in ["put", "get", "delete", "owrite", "oread"] {
        let h = snap
            .histograms
            .iter()
            .filter(|s| {
                s.name == "dstore_op_latency_ns" && s.labels.contains(&("op".into(), op.into()))
            })
            .fold(
                dstore_telemetry::HistogramSnapshot::default(),
                |mut acc, s| {
                    acc.merge(&s.hist);
                    acc
                },
            );
        if h.count == 0 {
            continue;
        }
        let (p50, p99, _p999, p9999) = h.paper_percentiles();
        println!(
            "  {:<7}{:>8}  {:>9}  {:>9}  {:>9}",
            op, h.count, p50, p99, p9999
        );
    }
    println!();

    // Device traffic and fill, from counters and gauges.
    println!("devices:");
    println!(
        "  PMEM flush bytes          {:>12}",
        snap.counter_total("dstore_pmem_flush_bytes_total")
    );
    println!(
        "  PMEM bulk write bytes     {:>12}",
        snap.counter_total("dstore_pmem_bulk_write_bytes_total")
    );
    println!(
        "  SSD write bytes           {:>12}",
        snap.counter_total("dstore_ssd_write_bytes_total")
    );
    println!(
        "  SSD read bytes            {:>12}",
        snap.counter_total("dstore_ssd_read_bytes_total")
    );
    println!(
        "  log fill                  {:>11.1}%",
        snap.gauge("dstore_log_used_fraction").unwrap_or(0.0) * 100.0
    );
    println!(
        "  SSD blocks in use         {:>12}",
        snap.gauge("dstore_ssd_blocks_used").unwrap_or(0.0)
    );
    println!();

    // The crash-persistent black box: the heartbeat that would go down
    // with the ship if the process died right now. A post-mortem after
    // a crash starts from exactly this record.
    let hb = store.blackbox_heartbeat();
    println!("black box (live heartbeat):");
    println!("  last admitted LSN         {:>12}", hb.last_lsn);
    println!("  checkpoint phase          {:>12}", hb.checkpoint_phase);
    println!(
        "  log fill                  {:>11.1}%",
        hb.log_used_milli as f64 / 10.0
    );
    println!("  arena high water          {:>12}", hb.arena_high_water);
    println!("  SSD blocks used           {:>12}", hb.ssd_blocks_used);
    println!();

    // Operation counters.
    println!("operations:");
    for (label, v) in [
        ("puts", snap.counter_with("dstore_ops_total", "op", "put")),
        (
            "deletes",
            snap.counter_with("dstore_ops_total", "op", "delete"),
        ),
        (
            "ww conflicts retried",
            snap.counter_total("dstore_ww_conflicts_total"),
        ),
        (
            "reader backoffs",
            snap.counter_total("dstore_rw_backoffs_total"),
        ),
        (
            "log-full stalls",
            snap.counter_total("dstore_log_full_stalls_total"),
        ),
    ] {
        println!("  {label:<25} {v:>12}");
    }
}
