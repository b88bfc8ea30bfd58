//! End-to-end tests against a live in-process server: real TCP
//! sockets, pipelining, backpressure, graceful shutdown, and
//! malformed-input handling.

use dstore::{DStoreConfig, DsError};
use dstore_pmem::LatencyModel;
use dstore_protocol::{DStoreClient, FrameDecoder, Request, Response};
use dstore_server::{Server, ServerConfig};
use dstore_shard::{ShardedConfig, ShardedStore};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Every client in this suite connects through here. The read timeout
/// turns a lost wakeup (a response buffered but never flushed) into a
/// failed test instead of a hung suite.
fn connect(addr: SocketAddr) -> DStoreClient {
    let mut c = DStoreClient::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

fn start(shards: u32, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let store =
        Arc::new(ShardedStore::create(ShardedConfig::new(shards, DStoreConfig::small())).unwrap());
    let mut cfg = ServerConfig::default();
    tweak(&mut cfg);
    Server::start(store, cfg).unwrap()
}

#[test]
fn basic_ops_over_tcp_epoll() {
    let server = start(2, |_| {});
    let mut c = connect(server.local_addr());

    c.put(b"k1", b"v1").unwrap();
    assert_eq!(c.get(b"k1").unwrap(), b"v1");
    assert!(c.exists(b"k1").unwrap());
    assert!(!c.exists(b"nope").unwrap());

    c.update(b"k1", b"v2").unwrap();
    assert_eq!(c.get(b"k1").unwrap(), b"v2");
    assert_eq!(c.update(b"nope", b"x"), Err(DsError::NotFound));

    let stat = c.stat(b"k1").unwrap();
    assert_eq!(stat.size, 2);

    c.delete(b"k1").unwrap();
    assert_eq!(c.get(b"k1"), Err(DsError::NotFound));
    assert_eq!(c.delete(b"k1"), Err(DsError::NotFound));

    // Reserved names are store-internal and refused at admission.
    let reserved = dstore_shard::RESERVED_PREFIX;
    assert_eq!(c.put(reserved, b"x"), Err(DsError::ReservedName));
    assert!(!c.exists(reserved).unwrap());

    server.shutdown();
}

#[test]
fn pipelined_batch_waits_in_any_order() {
    let server = start(4, |_| {});
    let mut c = connect(server.local_addr());

    let put_ids: Vec<u64> = (0..100)
        .map(|i| {
            c.submit(&Request::Put {
                key: format!("p/{i}").into_bytes(),
                value: format!("val-{i}").into_bytes(),
            })
        })
        .collect();
    let get_ids: Vec<u64> = (0..100)
        .map(|i| {
            c.submit(&Request::Get {
                key: format!("p/{i}").into_bytes(),
            })
        })
        .collect();
    assert_eq!(c.in_flight(), 200);

    // Collect in reverse: the parked-response path must hand frames out
    // by ID however the server interleaved completions.
    for (i, id) in get_ids.iter().enumerate().rev() {
        match c.wait(*id).unwrap() {
            Response::Value(v) => assert_eq!(v, format!("val-{i}").into_bytes()),
            other => panic!("expected value, got {other:?}"),
        }
    }
    for id in put_ids.into_iter().rev() {
        assert!(matches!(c.wait(id).unwrap(), Response::Ok));
    }
    assert_eq!(c.in_flight(), 0);
    server.shutdown();
}

#[test]
fn full_queue_turns_into_busy_not_buffering() {
    // One shard, queue depth 1, and PMEM slow enough (100 µs per line
    // flush) that the executor is still busy when the burst lands.
    let mut base = DStoreConfig::small();
    base.pmem_latency = LatencyModel {
        flush_line_ns: 100_000,
        ..LatencyModel::none()
    };
    let store = Arc::new(ShardedStore::create(ShardedConfig::new(1, base)).unwrap());
    let server = Server::start(
        store,
        ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = connect(server.local_addr());

    let ids: Vec<u64> = (0..32)
        .map(|i| {
            c.submit(&Request::Put {
                key: format!("burst/{i}").into_bytes(),
                value: vec![7u8; 1024],
            })
        })
        .collect();
    let (mut ok, mut busy) = (0, 0);
    for id in ids {
        match c.wait(id) {
            Ok(Response::Ok) => ok += 1,
            Err(DsError::Busy) => busy += 1,
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(ok >= 1, "at least the queued put must succeed");
    assert!(
        busy >= 1,
        "a 32-deep burst into a depth-1 queue must trip Busy"
    );
    assert_eq!(ok + busy, 32);
    assert!(server.metrics().busy_rejections.get() >= busy);

    // Busy is backpressure, not damage: a retry on a quiet queue works.
    c.put(b"after", b"calm").unwrap();
    assert_eq!(c.get(b"after").unwrap(), b"calm");
    server.shutdown();
}

#[test]
fn observability_rpcs_over_the_wire() {
    let server = start(2, |_| {});
    let mut c = connect(server.local_addr());
    for i in 0..50 {
        c.put(format!("t/{i}").as_bytes(), b"x").unwrap();
        c.get(format!("t/{i}").as_bytes()).unwrap();
    }

    let stats = c.stats().unwrap();
    // >= : shard-map superblock writes at creation also count.
    assert!(stats.puts >= 50, "puts {}", stats.puts);
    assert!(stats.gets >= 50, "gets {}", stats.gets);

    let health = c.health().unwrap();
    assert_eq!(health.checkpoint_panics, 0);

    let snap = c.telemetry_snapshot().unwrap();
    // Server-layer series, labelled, merged with the store's.
    assert!(snap.counter_total("dstore_server_requests_admitted") >= 100);
    let hist = snap.merged_histogram("dstore_server_op_latency_ns");
    assert!(hist.count >= 100, "per-op residency histograms populated");
    // Store-side series arrive in the same snapshot (one frame).
    assert!(snap.counter_total("dstore_ops_total") > 0 || !snap.histograms.is_empty());
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_requests() {
    // Slow PMEM so the batch is still queued when shutdown begins.
    let mut base = DStoreConfig::small();
    base.pmem_latency = LatencyModel {
        flush_line_ns: 50_000,
        ..LatencyModel::none()
    };
    let store = Arc::new(ShardedStore::create(ShardedConfig::new(1, base)).unwrap());
    let server = Server::start(
        store,
        ServerConfig {
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let metrics = server.metrics();
    let addr = server.local_addr();
    let mut c = connect(addr);

    let ids: Vec<u64> = (0..16)
        .map(|i| {
            c.submit(&Request::Put {
                key: format!("drain/{i}").into_bytes(),
                value: vec![3u8; 512],
            })
        })
        .collect();
    c.flush().unwrap();

    // Wait until the server has admitted the whole batch, then shut
    // down concurrently with the in-flight work.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.requests_admitted.get() < 16 {
        assert!(Instant::now() < deadline, "batch never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let shutdown = std::thread::spawn(move || server.shutdown());

    // Every admitted request must still be answered and flushed.
    for id in ids {
        assert!(matches!(c.wait(id).unwrap(), Response::Ok));
    }
    shutdown.join().unwrap();

    // And the listener is really gone: a fresh connect is refused.
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
}

#[test]
fn malformed_frame_answers_protocol_error_then_closes() {
    let server = start(1, |_| {});
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Valid length, garbage magic.
    let mut frame = (16u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&[0u8; 16]);
    raw.write_all(&frame).unwrap();

    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut got_error = false;
    loop {
        match raw.read(&mut buf) {
            Ok(0) => break, // server closed after flushing the error
            Ok(n) => {
                dec.push(&buf[..n]);
                if let Some((id, result)) = dec.next_response().unwrap() {
                    assert_eq!(id, 0, "stream-level errors use request id 0");
                    assert!(matches!(result, Err(DsError::Protocol(_))));
                    got_error = true;
                }
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    assert!(got_error);
    assert!(server.metrics().protocol_errors.get() >= 1);

    // The poisoned connection is gone but the server is healthy.
    let mut c = connect(server.local_addr());
    c.put(b"still", b"alive").unwrap();
    server.shutdown();
}

#[test]
fn connection_cap_drops_excess_connections() {
    let server = start(1, |cfg| cfg.max_connections = 1);
    let mut first = connect(server.local_addr());
    first.put(b"one", b"1").unwrap(); // fully established + served

    let mut second = connect(server.local_addr());
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Accepted at the TCP level, then dropped by the server: the first
    // request observes the close as an I/O error, never a hang.
    match second.get(b"one") {
        Err(DsError::Io(_)) => {}
        other => panic!("expected dropped connection, got {other:?}"),
    }

    // The first connection is unaffected.
    assert_eq!(first.get(b"one").unwrap(), b"1");
    server.shutdown();
}

/// Waits (bounded) for the server's counters to settle: the I/O thread
/// counts an admission after the push, so an executor may answer first.
fn settled_counts(server: &Server) -> (u64, u64) {
    let m = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while m.responses_sent.get() != m.requests_admitted.get() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    (m.requests_admitted.get(), m.responses_sent.get())
}

#[test]
fn pipelined_connections_are_answered_in_batches() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 64;
    // One shard and slow PMEM: the single executor is still on one put
    // when the other connections' bursts land, so its pops take batches
    // answering several connections at once.
    let mut base = DStoreConfig::small();
    base.pmem_latency = LatencyModel {
        flush_line_ns: 20_000,
        ..LatencyModel::none()
    };
    let store = Arc::new(ShardedStore::create(ShardedConfig::new(1, base)).unwrap());
    let server = Server::start(
        store,
        ServerConfig {
            queue_depth: 2 * CONNS * PER_CONN,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let barrier = Arc::new(Barrier::new(CONNS));
    let clients: Vec<_> = (0..CONNS)
        .map(|conn| {
            let addr = server.local_addr();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = connect(addr);
                // Even slots put `k{i/2}`, odd slots read it back: FIFO
                // order on the one shard makes each get see its put.
                let ids: Vec<u64> = (0..PER_CONN)
                    .map(|i| {
                        let key = format!("c{conn}/k{}", i / 2).into_bytes();
                        if i % 2 == 0 {
                            let value = format!("v{conn}-{i}").into_bytes();
                            c.submit(&Request::Put { key, value })
                        } else {
                            c.submit(&Request::Get { key })
                        }
                    })
                    .collect();
                barrier.wait();
                c.flush().unwrap();
                for (i, id) in ids.into_iter().enumerate() {
                    match c.wait(id).unwrap() {
                        Response::Ok => assert_eq!(i % 2, 0, "conn {conn} slot {i}"),
                        Response::Value(v) => {
                            assert_eq!(v, format!("v{conn}-{}", i - 1).into_bytes())
                        }
                        other => panic!("conn {conn} slot {i}: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let (admitted, sent) = settled_counts(&server);
    assert_eq!(admitted, (CONNS * PER_CONN) as u64);
    assert_eq!(sent, admitted, "every admitted request answered once");
    assert_eq!(server.metrics().busy_rejections.get(), 0);
    server.shutdown();
}

/// A request arriving at an idle server finds its executor parked; the
/// answer must still go out. Each request here is sent only after the
/// previous answer arrived, so the executor has finished its batch and
/// parks (or is about to) every time — a response left buffered without
/// a wake would time the client out.
#[test]
fn lone_request_on_an_idle_server_is_answered() {
    let server = start(1, |_| {});
    let mut c = connect(server.local_addr());
    for i in 0..20u32 {
        let key = format!("lone/{}", i / 2);
        if i % 2 == 0 {
            c.put(key.as_bytes(), &i.to_le_bytes()).unwrap();
        } else {
            assert_eq!(c.get(key.as_bytes()).unwrap(), (i - 1).to_le_bytes());
        }
    }
    let (admitted, sent) = settled_counts(&server);
    assert_eq!((admitted, sent), (20, 20));
    server.shutdown();
}
