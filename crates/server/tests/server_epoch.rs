//! The shard executor's batch is one durability epoch: it begins every
//! put of a popped batch, waits once for their device writes, commits
//! them behind one fence, and only then answers. These tests pin the
//! epoch's rules end to end over real sockets. Every client read has a
//! 10 s timeout, every store a 3 s stall timeout, and every test body
//! runs under a 60 s deadline ([`within`]), so a self-wait or a livelock
//! (an executor spinning on its own pending record, a swap that
//! relocates an epoch's records into the buffer it empties) fails a test
//! instead of hanging the suite.

use dstore::{DStoreConfig, DsError};
use dstore_protocol::wire::encode_request;
use dstore_protocol::{DStoreClient, FrameDecoder, Request, Response};
use dstore_server::{Server, ServerConfig};
use dstore_shard::{ShardedConfig, ShardedStore};
use dstore_ssd::SsdLatency;
use dstore_telemetry::TelemetrySnapshot;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Device time of one write command in these tests: long enough that an
/// answer sent before the device wait is told apart from one sent after.
const DEVICE: Duration = Duration::from_millis(20);

/// A value that lives on an SSD block (over `INLINE_MAX`), so its put
/// has a device write to wait for.
fn block_value(tag: u8) -> Vec<u8> {
    vec![tag; 4096]
}

/// One shard over a strict small store with `tweak` applied, a 3 s stall
/// timeout and room for a large burst.
fn start(tweak: impl FnOnce(&mut DStoreConfig)) -> Server {
    let mut base = DStoreConfig::small();
    base.stall_timeout = Duration::from_secs(3);
    tweak(&mut base);
    let store = Arc::new(ShardedStore::create(ShardedConfig::new(1, base)).unwrap());
    let cfg = ServerConfig {
        queue_depth: 1024,
        ..ServerConfig::default()
    };
    Server::start(store, cfg).unwrap()
}

fn with_device_latency(cfg: &mut DStoreConfig) {
    cfg.ssd_latency = SsdLatency {
        write_base_ns: DEVICE.as_nanos() as u64,
        ..SsdLatency::none()
    };
}

fn connect(server: &Server) -> DStoreClient {
    let mut c = DStoreClient::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

/// A raw connection that sends `reqs` in one write and returns the
/// answers in arrival order, each with its time since the write.
fn burst(server: &Server, reqs: &[Request]) -> Vec<(u64, Result<Response, DsError>, Duration)> {
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frames = Vec::new();
    for (id, req) in reqs.iter().enumerate() {
        encode_request(id as u64 + 1, req, &mut frames);
    }
    let t0 = Instant::now();
    raw.write_all(&frames).unwrap();
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 << 10];
    let mut out = Vec::new();
    while out.len() < reqs.len() {
        let n = raw
            .read(&mut buf)
            .expect("an answer within the read timeout");
        assert!(
            n > 0,
            "server closed with {} answers missing",
            reqs.len() - out.len()
        );
        dec.push(&buf[..n]);
        while let Some((id, result)) = dec.next_response().unwrap() {
            out.push((id, result, t0.elapsed()));
        }
    }
    out
}

/// Runs `body` on its own thread and fails unless it returns within
/// 60 s. A body stuck past the deadline is left behind: a server whose
/// executor never returns cannot be shut down.
fn within(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        body();
        done.send(()).unwrap();
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => t.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(t.join().unwrap_err()),
        Err(RecvTimeoutError::Timeout) => panic!("the test body ran past its 60 s deadline"),
    }
}

fn snapshot(server: &Server) -> TelemetrySnapshot {
    connect(server).telemetry_snapshot().unwrap()
}

/// The largest epoch the shard executor committed, in puts.
fn largest_epoch(server: &Server) -> u64 {
    snapshot(server)
        .histograms
        .iter()
        .filter(|s| {
            s.name == "dstore_server_batch_len"
                && s.labels.iter().any(|(k, v)| k == "of" && v == "puts")
        })
        .map(|s| s.hist.max)
        .max()
        .unwrap_or(0)
}

#[test]
fn pipelined_put_then_get_is_answered_in_order_after_the_commit() {
    within(|| {
        let server = start(with_device_latency);
        connect(&server).put(b"k", &block_value(1)).unwrap();
        let answers = burst(
            &server,
            &[
                Request::Put {
                    key: b"k".to_vec(),
                    value: block_value(2),
                },
                Request::Get { key: b"k".to_vec() },
            ],
        );
        let ids: Vec<u64> = answers.iter().map(|a| a.0).collect();
        assert_eq!(ids, [1, 2], "answers out of order");
        assert!(
            matches!(answers[0].1, Ok(Response::Ok)),
            "{:?}",
            answers[0].1
        );
        match &answers[1].1 {
            Ok(Response::Value(v)) => assert_eq!(v, &block_value(2), "the get missed the put"),
            other => panic!("get answered {other:?}"),
        }
        // The put's write takes DEVICE; an answer sooner went out before
        // its commit.
        for (id, _, at) in &answers {
            assert!(
                *at >= DEVICE,
                "request {id} answered after {at:?}, device time {DEVICE:?}"
            );
        }
        server.shutdown();
    });
}

#[test]
fn put_update_delete_of_one_key_in_one_burst_completes() {
    within(|| {
        let server = start(with_device_latency);
        let mut c = connect(&server);
        // Keep the executor inside an epoch's device wait while the burst
        // lands, so its next pop takes the whole burst.
        let busy = c.submit(&Request::Put {
            key: b"other".to_vec(),
            value: block_value(9),
        });
        c.flush().unwrap();
        std::thread::sleep(DEVICE / 4);
        let k = b"k".to_vec();
        let answers = burst(
            &server,
            &[
                Request::Put {
                    key: k.clone(),
                    value: block_value(1),
                },
                Request::Update {
                    key: k.clone(),
                    value: block_value(2),
                },
                Request::Delete { key: k.clone() },
            ],
        );
        assert!(matches!(c.wait(busy).unwrap(), Response::Ok));
        for (id, result, _) in &answers {
            assert!(
                matches!(result, Ok(Response::Ok)),
                "request {id}: {result:?}"
            );
        }
        assert_eq!(c.get(&k), Err(DsError::NotFound));
        assert_eq!(c.get(b"other").unwrap(), block_value(9));
        server.shutdown();
    });
}

#[test]
fn burst_into_a_16k_log_loses_no_ack() {
    within(|| {
        const KEYS: usize = 48;
        const PUTS: usize = 320;
        // Inline values ride in their records, so about fourteen fill the
        // log: epochs meet log-full stalls while they hold records.
        let server = start(|cfg| cfg.log_size = 16 << 10);
        let value = |i: usize| vec![i as u8; 1000];
        let reqs: Vec<Request> = (0..PUTS)
            .map(|i| Request::Put {
                key: format!("k{}", i % KEYS).into_bytes(),
                value: value(i),
            })
            .collect();
        let answers = burst(&server, &reqs);
        assert_eq!(answers.len(), PUTS);
        for (id, result, _) in &answers {
            assert!(matches!(result, Ok(Response::Ok)), "put {id}: {result:?}");
        }
        let mut c = connect(&server);
        for k in 0..KEYS {
            let last = (0..PUTS).rev().find(|i| i % KEYS == k).unwrap();
            assert_eq!(
                c.get(format!("k{k}").as_bytes()).unwrap(),
                value(last),
                "k{k}"
            );
        }
        let snap = snapshot(&server);
        assert!(
            snap.counter_total("dstore_log_full_stalls_total") > 0,
            "the burst never filled the log"
        );
        assert!(
            largest_epoch(&server) > 1,
            "no epoch held more than one put"
        );
        server.shutdown();
    });
}
