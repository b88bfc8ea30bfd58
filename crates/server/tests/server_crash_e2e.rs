//! The paper's durability contract, enforced across a process
//! boundary: concurrent clients drive pipelined batches against a live
//! `dstore_server` binary on a file-backed store, the process is killed
//! with SIGKILL mid-load, and recovery must surface **every
//! acknowledged write** — an `Ok` on the wire means the log record was
//! persisted before the response was encoded, so no crash window
//! exists between acknowledgement and durability.

use dstore::{DStoreConfig, DsError, HEARTBEAT_EVERY};
use dstore_protocol::{DStoreClient, Request, Response};
use dstore_shard::{ShardedConfig, ShardedStore};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SHARDS: u32 = 4;

fn spawn_server(data_dir: &std::path::Path, reopen: bool) -> (Child, std::net::SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dstore_server"));
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shards")
        .arg(SHARDS.to_string())
        .arg("--data-dir")
        .arg(data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if reopen {
        cmd.arg("--reopen");
    }
    let mut child = cmd.spawn().expect("spawn dstore_server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server printed nothing")
        .expect("read banner");
    let addr = banner
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .expect("parse addr");
    (child, addr)
}

/// The sharded config the binary builds from the same flags — used to
/// reopen the image in-process after the crash. Must mirror the
/// binary's `--config small` exactly or the PMEM layouts disagree.
fn store_cfg(data_dir: &std::path::Path) -> ShardedConfig {
    let mut base = DStoreConfig::small();
    base.pmem_file = Some(data_dir.join("pmem.pool"));
    base.ssd_file = Some(data_dir.join("ssd.dev"));
    ShardedConfig::new(SHARDS, base)
}

/// One client: pipelined batches of puts, recording each acknowledged
/// (key, value) pair. Stops on the first I/O error — the kill.
fn pump_writes(addr: std::net::SocketAddr, client_id: usize) -> HashMap<Vec<u8>, Vec<u8>> {
    let mut acked = HashMap::new();
    let Ok(mut c) = DStoreClient::connect(addr) else {
        return acked;
    };
    let _ = c.set_read_timeout(Some(Duration::from_secs(10)));
    'outer: for batch in 0.. {
        let reqs: Vec<(u64, Vec<u8>, Vec<u8>)> = (0..16)
            .map(|i| {
                let key = format!("c{client_id}/b{batch}/k{i}").into_bytes();
                let value = format!("v-{client_id}-{batch}-{i}").into_bytes();
                let id = c.submit(&Request::Put {
                    key: key.clone(),
                    value: value.clone(),
                });
                (id, key, value)
            })
            .collect();
        for (id, key, value) in reqs {
            match c.wait(id) {
                Ok(Response::Ok) => {
                    acked.insert(key, value);
                }
                Ok(other) => panic!("unexpected response: {other:?}"),
                Err(DsError::Busy) => {} // rejected, not acknowledged
                Err(_) => break 'outer,  // server died mid-flight
            }
        }
    }
    acked
}

#[test]
fn kill_nine_mid_load_loses_no_acknowledged_write() {
    let dir = tempfile::tempdir().unwrap();
    let (mut child, addr) = spawn_server(dir.path(), false);

    // Concurrent clients hammer pipelined batches…
    let writers: Vec<_> = (0..3)
        .map(|id| std::thread::spawn(move || pump_writes(addr, id)))
        .collect();

    // …until SIGKILL lands mid-load. No drain, no flush, no goodbye.
    std::thread::sleep(Duration::from_millis(600));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    let mut acked: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for w in writers {
        acked.extend(w.join().unwrap());
    }
    assert!(
        acked.len() >= 32,
        "load too light to mean anything: {} acked writes",
        acked.len()
    );

    // Recovery replays the op-log; every acknowledged write must be
    // there with exactly the acknowledged contents.
    let store = ShardedStore::reopen(store_cfg(dir.path())).expect("recover after SIGKILL");
    let ctx = store.context();
    for (key, value) in &acked {
        match ctx.get(key) {
            Ok(got) => assert_eq!(
                &got,
                value,
                "acknowledged write corrupted: {}",
                String::from_utf8_lossy(key)
            ),
            Err(e) => panic!(
                "acknowledged write lost after SIGKILL: {} ({e})",
                String::from_utf8_lossy(key)
            ),
        }
    }

    // The exhumed black boxes must describe the death coherently: a
    // dirty end, a final heartbeat whose last-known LSN sits at or
    // below the recovered log tail (and within one commit window of
    // it), and at least one in-flight op trace from the death window.
    let reports = store.crash_reports();
    assert_eq!(reports.len(), SHARDS as usize);
    // `log_tail_lsn` is recovery's *fence*, which sits a fixed headroom
    // (log_size / 24-byte record header) above the last persisted LSN;
    // the real commit window rides on top of that: up to two
    // HEARTBEAT_EVERY windows (an LSN a swap relocation takes skips its
    // beat), plus the ops in flight at the kill. That still pins the
    // heartbeat to the same neighbourhood as the tail (the fence alone
    // is ~10.9k LSNs on the 256 KiB log).
    let headroom = (256u64 << 10) / 24 + 1;
    let window = 2 * HEARTBEAT_EVERY;
    let mut death_traces = 0usize;
    let mut heartbeats = 0usize;
    for (shard, report) in reports.iter().enumerate() {
        let r = report
            .as_ref()
            .unwrap_or_else(|| panic!("shard {shard}: no crash report exhumed"));
        assert!(!r.clean, "shard {shard}: SIGKILL read back as clean");
        if let Some(hb) = &r.heartbeat {
            heartbeats += 1;
            assert!(
                hb.last_lsn <= r.log_tail_lsn,
                "shard {shard}: heartbeat LSN {} beyond recovered tail {}",
                hb.last_lsn,
                r.log_tail_lsn
            );
            assert!(
                r.log_tail_lsn - hb.last_lsn <= headroom + window,
                "shard {shard}: heartbeat LSN {} too far behind tail {} — \
                 the final commit window should be tight under load",
                hb.last_lsn,
                r.log_tail_lsn
            );
        }
        death_traces += r.death_window_traces().len();
    }
    assert!(heartbeats > 0, "no shard persisted a heartbeat under load");
    assert!(
        death_traces > 0,
        "no in-flight op traces from the death window across {SHARDS} shards"
    );
}

#[test]
fn graceful_stop_then_reopen_serves_the_same_data() {
    let dir = tempfile::tempdir().unwrap();
    let (mut child, addr) = spawn_server(dir.path(), false);

    let mut c = DStoreClient::connect(addr).unwrap();
    for i in 0..64 {
        c.put(format!("g/{i}").as_bytes(), format!("val{i}").as_bytes())
            .unwrap();
    }
    drop(c);

    // Closing stdin asks the binary for a graceful drain-and-exit.
    drop(child.stdin.take());
    let status = child.wait().expect("reap");
    assert!(status.success(), "graceful exit failed: {status:?}");

    // A second server process reopens the same image and serves it.
    let (mut child2, addr2) = spawn_server(dir.path(), true);
    let mut c2 = DStoreClient::connect(addr2).unwrap();
    for i in 0..64 {
        assert_eq!(
            c2.get(format!("g/{i}").as_bytes()).unwrap(),
            format!("val{i}").into_bytes()
        );
    }
    let health = c2.health().unwrap();
    assert_eq!(health.checkpoint_panics, 0);

    // Over the wire: every shard's post-mortem of the first incarnation
    // must read as a clean shutdown.
    let reports = c2.crash_report().unwrap();
    assert_eq!(reports.len(), SHARDS as usize);
    for (shard, report) in reports.iter().enumerate() {
        let r = report
            .as_ref()
            .unwrap_or_else(|| panic!("shard {shard}: no crash report after reopen"));
        assert!(
            r.clean,
            "shard {shard}: graceful shutdown read back as dirty"
        );
        assert!(
            r.events.iter().any(|e| e.name == "clean_shutdown"),
            "shard {shard}: clean_shutdown event missing"
        );
    }
    drop(c2);
    drop(child2.stdin.take());
    assert!(child2.wait().expect("reap").success());
}
