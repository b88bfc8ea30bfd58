//! Source-P metrics: harness-timed probes of each crate's public API.
//! Fixed iteration counts, the bench latency model, one thread unless
//! the name says otherwise. They measure a layer standing alone, so a
//! change inside one crate shows here before (and whether or not) it
//! shows end to end.

use crate::gen::{key_name, Rng};
use crate::report::Outcome;
use dstore_arena::{Arena, DramMemory};
use dstore_dipper::{DipperConfig, OpLog, PmemLayout, OP_NOOP};
use dstore_index::{BTreeHandle, OlcStats};
use dstore_pmem::{LatencyModel, PersistenceMode, PmemPool, PoolBuilder};
use dstore_protocol::wire::{encode_request, encode_response, FrameDecoder};
use dstore_protocol::{Request, Response};
use dstore_shard::{Router, DEFAULT_ROUTER_SEED};
use dstore_ssd::{SsdDevice, SsdLatency, PAGE_SIZE};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean ns per iteration of `f` over `n` iterations.
fn time_n(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn bench_pool(size: usize) -> PmemPool {
    PoolBuilder::new(size)
        .mode(PersistenceMode::Fast)
        .latency(LatencyModel::optane())
        .build()
        .expect("anonymous PMEM pool")
}

fn pmem(out: &mut Outcome) {
    let pool = bench_pool(1 << 20);
    const N: u64 = 20_000;
    let ns = time_n(N, |i| {
        let off = (i as usize % 1024) * 64;
        pool.write_u64(off, i);
        pool.persist(off, 8);
    });
    out.set("pmem.persist_line_ns", ns, N);
    const M: u64 = 5_000;
    let ns = time_n(M, |i| {
        let base = (i as usize % 64) * 8 * 128;
        let ranges: [(usize, usize); 8] = std::array::from_fn(|r| (base + r * 128, 8));
        for (off, _) in ranges {
            pool.write_u64(off, i);
        }
        pool.persist_many(&ranges);
    });
    out.set("pmem.persist_many_8_ns", ns, M);
}

fn ssd(out: &mut Outcome) {
    let dev = SsdDevice::anon(1024).with_latency(SsdLatency::p4800x());
    let page = vec![0xA5u8; PAGE_SIZE];
    let small = vec![0x5Au8; 128];
    let mut buf = vec![0u8; PAGE_SIZE];
    const N: u64 = 2_000;
    out.set(
        "ssd.write_4k_ns",
        time_n(N, |i| dev.write_pages(1 + i % 1000, &page)),
        N,
    );
    out.set(
        "ssd.write_128_ns",
        time_n(N, |i| dev.write_partial(1 + i % 1000, 0, &small)),
        N,
    );
    out.set(
        "ssd.read_4k_ns",
        time_n(N, |i| dev.read_pages(1 + i % 1000, &mut buf)),
        N,
    );
    black_box(&buf);
}

fn arena(out: &mut Outcome) {
    let arena = Arena::create(DramMemory::new(16 << 20));
    const N: u64 = 500_000;
    let ns = time_n(N, |_| {
        let off = arena.alloc_block(128);
        arena.free_block(black_box(off), 128);
    });
    out.set("arena.alloc_free_128_ns", ns, N);
}

fn index(out: &mut Outcome) {
    const KEYS: u32 = 200_000;
    let arena = Arena::create(DramMemory::new(128 << 20));
    let tree = BTreeHandle::create(&arena);
    let stats = OlcStats::default();
    // A fixed pseudo-random visiting order, so descents do not walk the
    // leaves left to right.
    let order: Vec<u32> = {
        let mut rng = Rng::new(0x1DE7, 0);
        let mut v: Vec<u32> = (0..KEYS).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    };
    let n = KEYS as u64;
    let ns = time_n(n, |i| {
        tree.insert_olc(&key_name(order[i as usize]), i, &stats);
    });
    out.set("index.insert_ns", ns, n);
    let ns = time_n(n, |i| {
        black_box(tree.get_olc(&key_name(order[(i as usize * 7) % order.len()]), &stats));
    });
    out.set("index.get_ns", ns, n);
    // Two concurrent readers, each timing its own descents.
    let hdr = tree.header_ptr();
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|t| {
                let (arena, order, stats) = (&arena, &order, &stats);
                s.spawn(move || {
                    let tree = BTreeHandle::attach(arena, hdr);
                    time_n(n, |i| {
                        black_box(tree.get_olc(
                            &key_name(order[(i as usize * 13 + t * 7919) % order.len()]),
                            stats,
                        ));
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("index reader panicked"))
            .collect()
    });
    out.set(
        "index.get_2t_ns",
        per_thread.iter().sum::<f64>() / 2.0,
        2 * n,
    );
    let ns = time_n(n, |i| {
        black_box(tree.remove_olc(&key_name(order[i as usize]), &stats));
    });
    out.set("index.remove_ns", ns, n);
}

fn dipper(out: &mut Outcome) {
    let layout = PmemLayout::new(&DipperConfig {
        log_size: 64 << 20,
        shadow_size: 64 << 10,
        ..Default::default()
    });
    let pool = Arc::new(bench_pool(layout.total));
    let mut log = OpLog::create(pool, layout);
    // The store's default write path: commit combining + epoch durability.
    log.set_commit_combining(true);
    log.set_durability_epoch(true);
    const N: u64 = 50_000;
    let params = [7u8; 32];
    let ns = time_n(N, |i| {
        let name = key_name((i % 512) as u32);
        let r = log
            .reserve(OP_NOOP, &name, params.len())
            .expect("64 MiB log holds the probe")
            .publish(&params);
        log.commit(r.handle);
    });
    out.set("dipper.append_commit_ns", ns, N);
}

fn shard(out: &mut Outcome) {
    let router = Router::new(DEFAULT_ROUTER_SEED, 2);
    const N: u64 = 2_000_000;
    let mut acc = 0usize;
    let ns = time_n(N, |i| acc += router.shard_of(&key_name(i as u32 % 50_000)));
    black_box(acc);
    out.set("shard.route_ns", ns, N);
}

fn protocol(out: &mut Outcome) {
    const N: u64 = 20_000;
    let put = Request::Put {
        key: key_name(42).to_vec(),
        value: vec![0xC3; 4096],
    };
    let mut frame = Vec::with_capacity(8192);
    let ns = time_n(N, |i| {
        frame.clear();
        encode_request(i, &put, &mut frame);
        black_box(&frame);
    });
    out.set("protocol.encode_put_4k_ns", ns, N);
    let mut dec = FrameDecoder::new();
    let ns = time_n(N, |_| {
        dec.push(&frame);
        black_box(dec.next_request().expect("valid frame"));
    });
    out.set("protocol.decode_put_4k_ns", ns, N);
    let mut resp = Vec::new();
    encode_response(1, &Response::Value(vec![0x3C; 4096]), &mut resp);
    let mut dec = FrameDecoder::new();
    let ns = time_n(N, |_| {
        dec.push(&resp);
        black_box(dec.next_response().expect("valid frame"));
    });
    out.set("protocol.decode_value_4k_ns", ns, N);
}

fn telemetry(out: &mut Outcome) {
    const N: u64 = 5_000_000;
    let mut acc = 0u64;
    let ns = time_n(N, |_| acc = acc.wrapping_add(dstore_telemetry::now_ns()));
    black_box(acc);
    out.set("telemetry.now_ns_call_ns", ns, N);
}

pub fn run_all(out: &mut Outcome) {
    pmem(out);
    ssd(out);
    arena(out);
    index(out);
    dipper(out);
    shard(out);
    protocol(out);
    telemetry(out);
}
