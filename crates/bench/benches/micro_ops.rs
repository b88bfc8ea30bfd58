//! Criterion micro-benchmarks for DStore's building blocks: log append +
//! commit, B-tree ops, arena allocation, PMEM flush primitives, and the
//! OE-vs-serialized frontend (the §5.3 "<300 ns in-lock metadata work"
//! claim).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dstore::{DStore, DStoreConfig};
use dstore_arena::{Arena, DramMemory};
use dstore_dipper::{DipperConfig, OpLog, PmemLayout};
use dstore_index::BTreeHandle;
use dstore_pmem::PmemPool;
use std::sync::Arc;

fn bench_log(c: &mut Criterion) {
    let cfg = DipperConfig {
        log_size: 64 << 20,
        shadow_size: 64 << 10,
        ..Default::default()
    };
    let layout = PmemLayout::new(&cfg);
    let pool = Arc::new(PmemPool::anon(layout.total));
    let log = OpLog::create(pool, layout);
    let mut g = c.benchmark_group("oplog");
    g.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    g.bench_function("append_commit_32B", |b| {
        b.iter(|| {
            i += 1;
            let name = format!("obj{}", i % 512);
            let r = match log.try_append(1, name.as_bytes(), &i.to_le_bytes()) {
                Ok(r) => r,
                Err(_) => {
                    // Criterion can outrun any fixed-size log; recycle via
                    // a swap (no checkpointer attached — records are
                    // measurement fodder).
                    log.swap(|| {});
                    log.try_append(1, name.as_bytes(), &i.to_le_bytes())
                        .unwrap()
                }
            };
            log.commit(r.handle);
        })
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    let arena = Arena::create(DramMemory::new(256 << 20));
    let tree = BTreeHandle::create(&arena);
    for i in 0..100_000u64 {
        tree.insert(format!("user{i:012}").as_bytes(), i);
    }
    let mut g = c.benchmark_group("btree_100k");
    let mut i = 0u64;
    g.bench_function("get", |b| {
        b.iter(|| {
            i = (i + 7919) % 100_000;
            tree.get(format!("user{i:012}").as_bytes())
        })
    });
    g.bench_function("insert_replace", |b| {
        b.iter(|| {
            i = (i + 7919) % 100_000;
            tree.insert(format!("user{i:012}").as_bytes(), i)
        })
    });
    g.finish();
}

fn bench_arena(c: &mut Criterion) {
    let arena = Arena::create(DramMemory::new(256 << 20));
    let mut g = c.benchmark_group("arena");
    g.bench_function("alloc_free_128B", |b| {
        b.iter(|| {
            let off = arena.alloc_block(128);
            arena.free_block(off, 128);
        })
    });
    g.finish();
}

fn bench_pmem(c: &mut Criterion) {
    let pool = PmemPool::strict(1 << 20);
    let mut g = c.benchmark_group("pmem_strict");
    g.bench_function("persist_one_line", |b| {
        b.iter(|| {
            pool.write_bytes(0, &[1u8; 48]);
            pool.persist(0, 48);
        })
    });
    g.finish();
}

fn bench_store_ops(c: &mut Criterion) {
    // Functional-mode store (no device latency): measures pure software
    // overhead — the paper's "~10%" claim rests on this being small
    // against the ~9 µs NVMe write.
    let cfg = DStoreConfig {
        log_size: 64 << 20,
        ssd_pages: 32 * 1024,
        ..Default::default()
    };
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    let value = vec![0u8; 4096];
    for i in 0..1024 {
        ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
    }
    let mut g = c.benchmark_group("dstore_software_path");
    g.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    g.bench_function("put_4k_update", |b| {
        b.iter(|| {
            i = (i + 1) % 1024;
            ctx.put(format!("k{i}").as_bytes(), &value).unwrap()
        })
    });
    g.bench_function("get_4k", |b| {
        b.iter(|| {
            i = (i + 1) % 1024;
            ctx.get(format!("k{i}").as_bytes()).unwrap()
        })
    });
    g.finish();

    // OE ablation: same ops with the global serializing lock.
    let cfg = DStoreConfig {
        log_size: 64 << 20,
        ssd_pages: 32 * 1024,
        ..Default::default()
    }
    .with_oe(false);
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    for i in 0..1024 {
        ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
    }
    let mut g = c.benchmark_group("dstore_software_path_no_oe");
    let mut i = 0u64;
    g.bench_function("put_4k_update", |b| {
        b.iter(|| {
            i = (i + 1) % 1024;
            ctx.put(format!("k{i}").as_bytes(), &value).unwrap()
        })
    });
    g.finish();
}

fn bench_fence_accounting(c: &mut Criterion) {
    // The ordering-tax budget (minimally-ordered durability): count PMEM
    // flush and fence calls per put via the telemetry counters. The
    // acceptance bar is < 2 flushes and < 2 fences per put, amortized
    // across the combiner batch. Violations panic, failing the bench —
    // CI runs this group as the fence-budget job.
    let cfg = DStoreConfig {
        log_size: 64 << 20,
        ssd_pages: 32 * 1024,
        ..Default::default()
    };
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    let value = vec![0u8; 4096];
    for i in 0..1024 {
        ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
    }
    let counter = |name: &str| {
        store
            .telemetry_snapshot()
            .expect("telemetry on")
            .counter_total(name)
    };

    // Accounting pass: a fixed op count outside the timed loop so the
    // ratios are exact, not warm-up-polluted.
    const OPS: u64 = 2000;
    let (f0, s0) = (
        counter("dstore_pmem_flushes_total"),
        counter("dstore_pmem_fences_total"),
    );
    for i in 0..OPS {
        ctx.put(format!("k{}", i % 1024).as_bytes(), &value)
            .unwrap();
    }
    let flushes_per_op = (counter("dstore_pmem_flushes_total") - f0) as f64 / OPS as f64;
    let fences_per_op = (counter("dstore_pmem_fences_total") - s0) as f64 / OPS as f64;
    println!(
        "fence_accounting: flushes/op={flushes_per_op:.3} fences/op={fences_per_op:.3} \
         dedup_lines={} elided_lines={}",
        counter("dstore_pmem_dedup_lines_total"),
        counter("dstore_pmem_elided_lines_total"),
    );
    assert!(
        flushes_per_op < 2.0 && fences_per_op < 2.0,
        "fence budget violated: {flushes_per_op:.3} flushes/op, \
         {fences_per_op:.3} fences/op (budget: < 2 of each)"
    );

    let mut g = c.benchmark_group("fence_accounting");
    g.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    g.bench_function("put_4k_update", |b| {
        b.iter(|| {
            i = (i + 1) % 1024;
            ctx.put(format!("k{i}").as_bytes(), &value).unwrap()
        })
    });
    g.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The always-on observability budget: identical software-path ops
    // with (a) everything off, (b) per-op histograms on but the flight
    // recorder off, (c) histograms plus the flight recorder at its
    // production setting (sample 1 in 1024, 1 ms SLO retention), and
    // (d) all of (c) plus the crash-persistent black box. Compare the
    // groups' medians: `telemetry_on` vs `_off` is the <5 % metrics
    // budget; `tracing_on` vs `telemetry_on` is the ≤2 % tracing
    // budget; `blackbox_on` vs `tracing_on` is the ≤2 % black-box
    // budget (one relaxed fetch_max per mutation, a persisted
    // heartbeat every 1024th, PMEM trace writes only on retained
    // samples).
    enum Mode {
        Off,
        Telemetry,
        Tracing,
        BlackBox,
    }
    for mode in [Mode::Off, Mode::Telemetry, Mode::Tracing, Mode::BlackBox] {
        let cfg = DStoreConfig {
            log_size: 64 << 20,
            ssd_pages: 32 * 1024,
            blackbox: if matches!(mode, Mode::BlackBox) {
                dstore::BlackBoxConfig::on()
            } else {
                dstore::BlackBoxConfig::default()
            },
            ..Default::default()
        }
        .with_telemetry(!matches!(mode, Mode::Off))
        .with_trace(dstore_telemetry::TraceConfig {
            enabled: matches!(mode, Mode::Tracing | Mode::BlackBox),
            ..dstore_telemetry::TraceConfig::default()
        });
        let store = DStore::create(cfg).unwrap();
        let ctx = store.context();
        let value = vec![0u8; 4096];
        for i in 0..1024 {
            ctx.put(format!("k{i}").as_bytes(), &value).unwrap();
        }
        let mut g = c.benchmark_group(match mode {
            Mode::Off => "dstore_telemetry_off",
            Mode::Telemetry => "dstore_telemetry_on",
            Mode::Tracing => "dstore_tracing_on",
            Mode::BlackBox => "dstore_blackbox_on",
        });
        g.throughput(Throughput::Elements(1));
        let mut i = 0u64;
        g.bench_function("put_4k_update", |b| {
            b.iter(|| {
                i = (i + 1) % 1024;
                ctx.put(format!("k{i}").as_bytes(), &value).unwrap()
            })
        });
        g.bench_function("get_4k", |b| {
            b.iter(|| {
                i = (i + 1) % 1024;
                ctx.get(format!("k{i}").as_bytes()).unwrap()
            })
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_log, bench_btree, bench_arena, bench_pmem, bench_store_ops,
    bench_fence_accounting, bench_telemetry_overhead
}
criterion_main!(benches);
