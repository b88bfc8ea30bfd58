//! **Figure 14** (extension) — Network front-door scaling: ops/s and
//! tail latency vs. simulated connection count.
//!
//! Open-loop loopback load against a live `dstore-server` (epoll
//! backend): N TCP connections each keep a fixed pipeline of requests
//! in flight, so a slow response does not stop the flow of new
//! requests on other connections — the server, not the client, decides
//! where queueing shows up. Each request is timestamped at *submit*,
//! so the reported client latency includes every queueing stage
//! (socket, net_queue, executor), the open-loop treatment that closed
//! loops famously understate (coordinated omission).
//!
//! For each connection count a **fresh** store + server is started, so
//! the server-side histograms and flight-recorder traces are per-cell.
//! After each cell we pull `telemetry_snapshot` *over the wire* and
//! report:
//!
//! * server-side residency p9999 (`dstore_server_op_latency_ns`), and
//! * the Table-3-style tail attribution with the new `net_queue`
//!   segment separated from the PMEM segments (`log_append`,
//!   `log_commit`, …) — "waited behind other connections" vs. "the
//!   device was slow", from the same sampled traces.
//!
//! Host note: connection counts are scaled by `DSTORE_BENCH_SCALE`; on
//! a single-core host the absolute ops/s is modest (client threads,
//! server loop, executors, and spin-injected device waits all share
//! one core) — the figure's signal is the *shape*: ops/s holding while
//! p9999 grows with connection count, and net_queue absorbing the
//! growth.

use dstore::DStoreConfig;
use dstore_bench::{count, scale, secs};
use dstore_protocol::{DStoreClient, Request, Response};
use dstore_server::{Server, ServerConfig};
use dstore_shard::{ShardedConfig, ShardedStore};
use dstore_telemetry::{now_ns, LatencyHistogram, TailAttribution, SEGMENT_NAMES};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: u32 = 4;
const VALUE_SIZE: usize = 4096;
/// Requests each connection keeps in flight.
const PIPELINE: usize = 4;

struct CellReport {
    conns: usize,
    ops_per_s: f64,
    client: LatencyHistogram,
    server_p9999_us: f64,
    busy: u64,
    attribution: Option<TailAttribution>,
}

/// Drives `conns` connections split over `driver_threads` threads for
/// `duration`, then collects the server's own view over the wire.
fn run_cell(conns: usize, driver_threads: usize, duration: Duration, keys: usize) -> CellReport {
    let mut base = DStoreConfig::bench();
    // Dense sampling so the p99 tail cut has armed traces on both sides
    // (SLO-retained outliers carry no segment detail by design).
    base.trace.sample_every = 64;
    let store = Arc::new(ShardedStore::create(ShardedConfig::new(SHARDS, base)).unwrap());
    let server = Server::start(
        Arc::clone(&store),
        ServerConfig {
            max_connections: conns + 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Preload so gets hit. Bounded window with Busy retry: an
    // unthrottled `keys`-deep burst would (correctly) trip the
    // admission backpressure this server exists to provide.
    {
        let mut c = DStoreClient::connect(addr).unwrap();
        let value = vec![0x5A; VALUE_SIZE];
        let mut pending = std::collections::VecDeque::new();
        let mut i = 0;
        while i < keys || !pending.is_empty() {
            while i < keys && pending.len() < 64 {
                let id = c.submit(&Request::Put {
                    key: key(i),
                    value: value.clone(),
                });
                pending.push_back((id, i));
                i += 1;
            }
            let (id, k) = pending.pop_front().unwrap();
            match c.wait(id) {
                Ok(Response::Ok) => {}
                Err(dstore::DsError::Busy) => {
                    let id = c.submit(&Request::Put {
                        key: key(k),
                        value: value.clone(),
                    });
                    pending.push_back((id, k));
                }
                other => panic!("preload: {other:?}"),
            }
        }
    }

    let stop = Instant::now() + duration;
    let per_thread = conns.div_ceil(driver_threads);
    let drivers: Vec<_> = (0..driver_threads)
        .map(|t| {
            let my_conns = per_thread.min(conns.saturating_sub(t * per_thread));
            std::thread::spawn(move || drive(addr, t, my_conns, stop, keys))
        })
        .collect();

    let client = LatencyHistogram::new();
    let mut responses = 0u64;
    let mut busy = 0u64;
    let started = Instant::now();
    for d in drivers {
        let (hist, n, b) = d.join().unwrap();
        client.merge(&hist);
        responses += n;
        busy += b;
    }
    let wall = started.elapsed().as_secs_f64();

    // The server's own view, fetched over the same protocol.
    let mut c = DStoreClient::connect(addr).unwrap();
    let snap = c.telemetry_snapshot().unwrap();
    let server_hist = snap.merged_histogram("dstore_server_op_latency_ns");
    let traces = snap.all_traces("dstore_op_traces");
    let attribution = (!traces.is_empty()).then(|| TailAttribution::from_traces(&traces, 99.0));
    server.shutdown();

    CellReport {
        conns,
        ops_per_s: responses as f64 / wall.max(1e-9),
        client,
        server_p9999_us: server_hist.percentile(99.99) as f64 / 1_000.0,
        busy,
        attribution,
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// One driver thread: `conns` connections, each with a fixed pipeline.
/// Submit timestamps ride along so latency covers all queueing.
fn drive(
    addr: std::net::SocketAddr,
    thread_id: usize,
    conns: usize,
    stop: Instant,
    keys: usize,
) -> (LatencyHistogram, u64, u64) {
    let hist = LatencyHistogram::new();
    let mut responses = 0u64;
    let mut busy = 0u64;
    let mut rng = 0x9E37_79B9_u64.wrapping_mul(thread_id as u64 + 1) | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let value = vec![0xA5u8; VALUE_SIZE];

    struct ConnState {
        client: DStoreClient,
        inflight: std::collections::VecDeque<(u64, u64)>, // (req id, submit ns)
    }
    let mut pool: Vec<ConnState> = (0..conns)
        .filter_map(|_| {
            let mut client = DStoreClient::connect(addr).ok()?;
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .ok()?;
            Some(ConnState {
                client,
                inflight: std::collections::VecDeque::new(),
            })
        })
        .collect();
    if pool.is_empty() {
        return (hist, 0, 0);
    }

    loop {
        let now = Instant::now();
        let done = now >= stop;
        for cs in &mut pool {
            // Refill the pipeline (only while the clock runs).
            while !done && cs.inflight.len() < PIPELINE {
                let k = key((next() as usize) % keys);
                let req = if next() % 2 == 0 {
                    Request::Put {
                        key: k,
                        value: value.clone(),
                    }
                } else {
                    Request::Get { key: k }
                };
                let id = cs.client.submit(&req);
                cs.inflight.push_back((id, now_ns()));
            }
            let _ = cs.client.flush();
            // Reap the oldest response; keep the rest pipelined.
            let drain = if done { cs.inflight.len() } else { 1 };
            for _ in 0..drain {
                let Some((id, t0)) = cs.inflight.pop_front() else {
                    break;
                };
                match cs.client.wait(id) {
                    Ok(_) => {
                        hist.record(now_ns().saturating_sub(t0));
                        responses += 1;
                    }
                    Err(dstore::DsError::Busy) => busy += 1,
                    Err(_) => break,
                }
            }
        }
        if done {
            return (hist, responses, busy);
        }
    }
}

fn main() {
    let duration = secs(3.0).max(Duration::from_millis(300));
    let keys = count(2000).max(64);
    let driver_threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let conn_counts: Vec<usize> = [64usize, 256, 1024]
        .iter()
        .map(|&c| ((c as f64 * scale()) as usize).max(4))
        .collect();

    println!(
        "== Figure 14: server scaling, {SHARDS} shards, epoll backend, \
         pipeline depth {PIPELINE}, 50/50 put/get {VALUE_SIZE} B, \
         {driver_threads} driver threads, {:.1}s per cell (scale {})",
        duration.as_secs_f64(),
        scale(),
    );
    println!(
        "{:>7} {:>12} {:>10} {:>10} {:>11} {:>13} {:>7}",
        "conns", "ops/s", "p50(us)", "p99(us)", "p9999(us)", "srv p9999(us)", "busy"
    );

    let mut last = None;
    for &conns in &conn_counts {
        let r = run_cell(conns, driver_threads, duration, keys);
        let (p50, p99, _p999, p9999) = r.client.paper_percentiles();
        println!(
            "{:>7} {:>12.0} {:>10.0} {:>10.0} {:>11.0} {:>13.0} {:>7}",
            r.conns,
            r.ops_per_s,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3,
            p9999 as f64 / 1e3,
            r.server_p9999_us,
            r.busy,
        );
        last = Some(r);
    }

    // Tail attribution for the heaviest cell: net_queue vs the PMEM
    // segments, from the store's own sampled traces, fetched remotely.
    if let Some(report) = last.and_then(|r| r.attribution) {
        println!("\n-- tail attribution at the largest connection count (p99 cut) --");
        println!("{}", report.render());
        let net_queue = SEGMENT_NAMES
            .iter()
            .position(|&n| n == "net_queue")
            .expect("net_queue segment");
        println!(
            "net_queue share of tail op time: {:.1}% (tail mean {} us vs body mean {} us)",
            100.0 * report.tail.seg_ns[net_queue] as f64 / report.tail.total_ns.max(1) as f64,
            report.tail.mean_ns() / 1_000,
            report.body.mean_ns() / 1_000,
        );
    } else {
        println!("\n(no traces retained — trace sampling disabled?)");
    }
}
