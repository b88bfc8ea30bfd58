//! **Table 3** — Time breakdown of write requests.
//!
//! 4 KB and 16 KB puts, every one traced by the store's flight recorder:
//! the mean time of each trace segment a put charges, "in cycles,
//! nanoseconds, and as a percentage of total time", then the paper's
//! rows, each a sum of whole segments — NVMe write = `ssd_write`,
//! B-tree + metadata = `alloc` + `index`, log = `log_append` +
//! `log_flush` + `commit`. Total is the mean trace duration. Expected
//! shape: the NVMe write dominates (~88 % at 4 KB, ~96 % at 16 KB —
//! "software overhead ~10%"); the other rows are size-agnostic (logical
//! logging).

use dstore::{DStore, DStoreConfig};
use dstore_bench::*;
use dstore_telemetry::trace::{
    SegmentBreakdown, SEG_ALLOC, SEG_CC_WAIT, SEG_COMMIT, SEG_INDEX, SEG_LOG_APPEND, SEG_LOG_FLUSH,
    SEG_SSD_WRITE,
};
use dstore_telemetry::{TraceConfig, SEGMENT_NAMES};

/// The paper's testbed clock (8280L @ 2.70 GHz) for the cycles column.
const GHZ: f64 = 2.7;

/// The segments a put charges, in pipeline order.
const SEGMENTS: [usize; 7] = [
    SEG_CC_WAIT,
    SEG_ALLOC,
    SEG_LOG_APPEND,
    SEG_LOG_FLUSH,
    SEG_INDEX,
    SEG_SSD_WRITE,
    SEG_COMMIT,
];

/// The paper's rows as sums of whole segments.
const ROWS: [(&str, &[usize]); 3] = [
    ("NVMe Write", &[SEG_SSD_WRITE]),
    ("BTree+Metadata", &[SEG_ALLOC, SEG_INDEX]),
    ("Log", &[SEG_LOG_APPEND, SEG_LOG_FLUSH, SEG_COMMIT]),
];

/// Per-segment means over `iters` steady-state puts of `size` bytes.
fn measure(size: usize, iters: usize) -> SegmentBreakdown {
    // A ring of exactly `iters` traces ends holding the measured puts.
    let cfg = DStoreConfig::bench().with_trace(TraceConfig {
        sample_every: 1,
        slo_ns: 0,
        ring_capacity: iters,
    });
    let store = DStore::create(cfg).expect("create bench store");
    let ctx = store.context();
    let value = vec![0xB7u8; size];
    // Preload so the measured puts are steady-state updates.
    for i in 0..256 {
        ctx.put(format!("obj{i}").as_bytes(), &value).unwrap();
    }
    for i in 0..iters {
        ctx.put(format!("obj{}", i % 256).as_bytes(), &value)
            .unwrap();
    }
    // At the 100th percentile every trace is in the body.
    let bd = store
        .tail_attribution(100.0)
        .expect("every put is traced")
        .body;
    assert_eq!(bd.ops, iters as u64, "the ring holds the measured puts");
    bd
}

fn main() {
    let iters = count(3000).max(200);
    let sizes = [("4KB", 4096), ("16KB", 16384)];
    let bds: Vec<_> = sizes.iter().map(|&(_, n)| measure(n, iters)).collect();
    println!("# Table 3: time breakdown of write requests ({iters} traced puts each)");
    print!("{:<16}", "segment");
    for (label, _) in sizes {
        print!(" {:>10} {:>10} {:>8}", format!("{label} cyc"), "ns", "%");
    }
    println!();
    let row = |name: &str, ns: &dyn Fn(&SegmentBreakdown) -> u64| {
        print!("{name:<16}");
        for bd in &bds {
            let ns = ns(bd);
            let pct = 100.0 * ns as f64 / bd.mean_ns().max(1) as f64;
            print!(" {:>10} {ns:>10} {pct:>8.2}", (ns as f64 * GHZ) as u64);
        }
        println!();
    };
    for seg in SEGMENTS {
        row(SEGMENT_NAMES[seg], &|bd| bd.mean_seg_ns(seg));
    }
    for (name, segs) in ROWS {
        row(name, &|bd| segs.iter().map(|&s| bd.mean_seg_ns(s)).sum());
    }
    row("Total", &|bd| bd.mean_ns());
}
