//! `dstore_server` — serve a [`ShardedStore`] over TCP.
//!
//! ```text
//! dstore_server [--addr HOST:PORT] [--shards N] [--queue-depth N]
//!               [--config small|bench] [--blackbox]
//!               [--data-dir PATH] [--reopen] [--smoke]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once ready (port 0 resolves to
//! the ephemeral port — the harness and CI smoke parse this line), then
//! serves until **stdin reaches EOF**, at which point it shuts down
//! gracefully: drains in-flight requests, flushes acknowledgements,
//! closes. `kill -9` is the crash case: acknowledged writes are in the
//! PMEM image and recovery (`--reopen`) replays them.
//!
//! `--blackbox` turns on the crash-persistent flight recorder (and
//! dense trace sampling to feed it); after a crash, reopen with the
//! *same* flag so layouts agree, then pull the post-mortem with
//! `dstore_top --post-mortem` or offline with `trace_dump
//! --post-mortem`.

use dstore::{BlackBoxConfig, DStoreConfig};
use dstore_server::{Server, ServerConfig};
use dstore_shard::{ShardedConfig, ShardedStore};
use std::io::Read;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: dstore_server [--addr HOST:PORT] [--shards N] [--queue-depth N]\n\
         \x20                    [--config small|bench] [--blackbox]\n\
         \x20                    [--data-dir PATH] [--reopen] [--smoke]"
    );
    std::process::exit(2);
}

struct Args {
    addr: String,
    shards: u32,
    queue_depth: usize,
    config: String,
    blackbox: bool,
    data_dir: Option<std::path::PathBuf>,
    reopen: bool,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        shards: 4,
        queue_depth: 256,
        config: "small".into(),
        blackbox: false,
        data_dir: None,
        reopen: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => args.addr = val(&mut it),
            "--shards" => args.shards = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => args.queue_depth = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--config" => args.config = val(&mut it),
            "--blackbox" => args.blackbox = true,
            "--data-dir" => args.data_dir = Some(val(&mut it).into()),
            "--reopen" => args.reopen = true,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut base = match args.config.as_str() {
        "small" => DStoreConfig::small(),
        "bench" => DStoreConfig::bench(),
        _ => usage(),
    };
    if args.blackbox {
        // Dense sampling so the black box retains enough traces around
        // the moment of death to attribute the tail; a heartbeat every
        // 64 mutations keeps the last-known LSN close to the log tail.
        base.blackbox = BlackBoxConfig {
            heartbeat_every: 64,
            ..BlackBoxConfig::on()
        };
        base.trace.sample_every = 16;
    }
    if let Some(dir) = &args.data_dir {
        std::fs::create_dir_all(dir).expect("create --data-dir");
        base.pmem_file = Some(dir.join("pmem.pool"));
        base.ssd_file = Some(dir.join("ssd.dev"));
    } else if args.reopen {
        eprintln!("--reopen requires --data-dir");
        std::process::exit(2);
    }

    let cfg = ShardedConfig::new(args.shards, base);
    let store = if args.reopen {
        let s = ShardedStore::reopen(cfg).expect("reopen store");
        let r = s.recovery_summary();
        eprintln!(
            "recovered {} shards: {} records replayed, {} checkpoint-redo, {:.1} ms",
            r.shards,
            r.replayed_records,
            r.redo_records,
            r.wall_ns as f64 / 1e6
        );
        s
    } else {
        ShardedStore::create(cfg).expect("create store")
    };

    let server = Server::start(
        Arc::new(store),
        ServerConfig {
            addr: args.addr.clone(),
            queue_depth: args.queue_depth,
            ..ServerConfig::default()
        },
    )
    .expect("start server");

    // The harness (tests, CI smoke, dstore_top --server) parses this.
    println!("LISTENING {}", server.local_addr());
    use std::io::Write;
    std::io::stdout().flush().ok();

    if args.smoke {
        smoke(&server);
        close_store(server);
        println!("SMOKE OK");
        return;
    }

    // Serve until stdin closes (the parent dropping the pipe is the
    // graceful-stop signal; kill -9 is the crash case).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    let stats = server.store().stats();
    close_store(server);
    eprintln!(
        "shutdown: {} puts, {} gets, {} deletes served",
        stats.puts, stats.gets, stats.deletes
    );
}

/// Graceful exit: drain the server, then *close* the store — the final
/// checkpoint plus the black box's clean-shutdown marker, so the next
/// incarnation's post-mortem reads clean instead of dirty.
fn close_store(server: Server) {
    let store = Arc::clone(server.store());
    server.shutdown();
    if let Ok(store) = Arc::try_unwrap(store) {
        store.close();
    }
}

/// Self-test against the live socket: basic ops, a pipelined batch, and
/// the observability RPCs.
fn smoke(server: &Server) {
    use dstore_protocol::{DStoreClient, Request, Response};
    let mut c = DStoreClient::connect(server.local_addr()).expect("connect");
    c.put(b"smoke/a", b"alpha").expect("put");
    assert_eq!(c.get(b"smoke/a").expect("get"), b"alpha");
    assert!(c.exists(b"smoke/a").expect("exists"));

    let ids: Vec<u64> = (0..64)
        .map(|i| {
            c.submit(&Request::Put {
                key: format!("smoke/batch-{i}").into_bytes(),
                value: vec![0xAB; 128],
            })
        })
        .collect();
    c.flush().expect("flush");
    for id in ids {
        assert!(matches!(c.wait(id).expect("pipelined put"), Response::Ok));
    }

    let health = c.health().expect("health");
    assert_eq!(health.checkpoint_panics, 0);
    let snap = c.telemetry_snapshot().expect("telemetry");
    assert!(snap.counter_total("dstore_server_requests_admitted") >= 66);
    eprintln!(
        "smoke: {} objects, server residency p99 path exercised",
        server.store().object_count()
    );
}
