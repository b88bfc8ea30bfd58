//! `server_rate`: the repo's `dstore_server` binary as a child process,
//! two TCP connections (one thread each), open-loop Poisson arrivals at
//! four fixed rates, then a closed-loop saturation leg.
//!
//! Latency is measured from the time a request was *due*, not from when
//! it was sent, so a stall is charged to every request it delays. The
//! client here is the harness's own (public `encode_request` +
//! `FrameDecoder` on a raw socket) because an open loop has to send on
//! schedule while responses are outstanding, and because wire bytes and
//! the encode → socket → decode steps are measured at this boundary.

use crate::cpu::{allowed_cpus, pin_to};
use crate::gen::{key_name, Kind, Rng};
use crate::layers::{self, Window};
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::{self, SpanLog};
use crate::spec::{RATES, SRV_LIMIT_US};
use crate::stats::{floor_frac, good_quartile, percentile_sorted, rep_percentiles_us, BIN_NS};
use crate::value::{self, Seen, PRELOAD_WRITER};
use crate::{probes, RunArgs};
use dstore::DsError;
use dstore_protocol::wire::{encode_request, FrameDecoder};
use dstore_protocol::{DStoreClient, Request, Response};
use dstore_telemetry::{now_ns, TelemetrySnapshot};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNS: u32 = 2;
const SHARDS: u32 = 2;
const VALUE_LEN: usize = 4096;
/// Outstanding requests per connection beyond which a due request is
/// dropped and counted as refused: the backlog is growing.
const MAX_OUTSTANDING: usize = 1024;
/// Ring of in-flight bookkeeping, indexed by request id: far larger than
/// `MAX_OUTSTANDING` so a slow shard's request is not overwritten while
/// the other shard keeps completing newer ones.
const SLOTS: usize = 1 << 16;
const PIPELINE: usize = 16;
/// A pass of the open-loop polling loop takes about a microsecond; one
/// that took longer than this is a stall of the generator itself, and
/// the latencies of requests in flight across it are not recorded.
const GENERATOR_STALL_NS: u64 = 100_000;
/// How long a leg waits for its last responses before counting them lost.
const DRAIN_NS: u64 = 2_000_000_000;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Splits the allowed CPUs between the server (first half) and the load
/// generator (second half), so the generator never takes a core from the
/// program it measures and thread placement is the same in every run.
/// With fewer than two CPUs nothing is pinned.
struct CpuSplit {
    server: Vec<usize>,
    client: Vec<usize>,
}

impl CpuSplit {
    fn new() -> Self {
        let cpus = allowed_cpus();
        let (server, client) = cpus.split_at(cpus.len() / 2);
        CpuSplit {
            server: server.to_vec(),
            client: client.to_vec(),
        }
    }

    fn active(&self) -> bool {
        !self.server.is_empty() && !self.client.is_empty()
    }
}

/// Keeps the server's CPUs from going idle while a leg runs: one
/// `SCHED_IDLE` spinner per CPU, which any server thread preempts at
/// once. On a virtual machine a halted vCPU can take milliseconds to be
/// scheduled again by the host; that wake-up latency is the
/// hypervisor's, not the program's, and it is the same conditioning as
/// `idle=poll` on a latency testbed.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start(cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin_to(&[cpu]);
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is valid for the call; pid 0 is the
                    // calling thread. If the policy is refused the
                    // spinner would compete with the server, so it ends.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The child server. Closing its stdin is the graceful-stop signal.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawns the server on the server half of the CPUs; the calling
    /// thread ends up on the client half.
    fn spawn(split: &CpuSplit) -> Result<Self, String> {
        if split.active() {
            pin_to(&split.server);
        }
        let spawned = Self::spawn_here();
        if split.active() {
            pin_to(&split.client);
        }
        spawned
    }

    fn spawn_here() -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("dstore_server");
        let mut child = Command::new(&exe)
            .args([
                "--config",
                "bench",
                "--shards",
                &SHARDS.to_string(),
                "--addr",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        match line.trim().strip_prefix("LISTENING ") {
            Some(addr) => Ok(ServerProc {
                child,
                addr: addr.to_string(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "dstore_server did not announce its address (got {line:?})"
                ))
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }

    /// Graceful stop (stdin EOF), kill after a deadline; always reaps.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }
}

/// What the harness remembers about an in-flight request.
#[derive(Clone, Copy, Default)]
struct Slot {
    id: u64,
    due: u64,
    sent: u64,
    key: u32,
    /// 0 for a get, the version written for a put.
    version: u32,
    enc_start: u64,
}

struct Conn {
    id: u32,
    stream: TcpStream,
    decoder: FrameDecoder,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    next_id: u64,
    slots: Vec<Slot>,
    outstanding: usize,
    bytes_sent: u64,
    bytes_recv: u64,
    /// Highest version sent / acknowledged per key by this connection.
    sent_version: Vec<u32>,
    acked_version: Vec<u32>,
    seen: Seen,
    gets: u64,
    log: SpanLog,
    last_stall_end: u64,
}

#[derive(Default)]
struct LegOut {
    /// Due-time latencies (ns) of verified responses whose request was
    /// due inside the measured part of the leg, per repetition.
    lat: Vec<Vec<u32>>,
    late: Vec<u32>,
    windows: Vec<u32>,
    scheduled: u64,
    stalls: u64,
    censored: u64,
    completed: u64,
    refused: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    bytes: u64,
    user_bytes: u64,
}

impl LegOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < crate::report::MAX_FAILURE_REPORTS {
            self.failures.push(what);
        }
    }
}

/// When a leg's measured part starts and how it divides into
/// repetitions. A sample belongs to the repetition its due time falls in.
#[derive(Clone, Copy)]
struct Timing {
    leg_start: u64,
    measure_from: u64,
    rep_ns: u64,
    reps: usize,
}

impl Timing {
    /// A leg of `dur_s` starting at `start`: the first 15 % is discarded,
    /// the rest is `reps` equal repetitions.
    fn new(start: u64, dur_s: f64, reps: usize) -> Self {
        let dur_ns = (dur_s * 1e9) as u64;
        let measure_from = start + dur_ns * 15 / 100;
        Timing {
            leg_start: start,
            measure_from,
            rep_ns: (start + dur_ns - measure_from) / reps as u64,
            reps,
        }
    }

    fn end(&self) -> u64 {
        self.measure_from + self.rep_ns * self.reps as u64
    }

    fn rep_of(&self, due: u64) -> usize {
        (((due - self.measure_from) / self.rep_ns) as usize).min(self.reps - 1)
    }
}

/// One pre-generated arrival.
#[derive(Clone, Copy)]
struct Arrival {
    due: u64,
    kind: Kind,
    key: u32,
}

fn arrivals(rng: &mut Rng, rate_per_conn: f64, start: u64, dur_ns: u64, keys: u32) -> Vec<Arrival> {
    let mean_gap = 1e9 / rate_per_conn;
    let mut t = start as f64;
    let mut v = Vec::with_capacity((dur_ns as f64 / mean_gap * 1.1) as usize + 16);
    loop {
        t += rng.exp(mean_gap);
        if t >= (start + dur_ns) as f64 {
            return v;
        }
        let kind = if rng.below(2) == 0 {
            Kind::Get
        } else {
            Kind::Put
        };
        v.push(Arrival {
            due: t as u64,
            kind,
            key: rng.below(keys as u64) as u32,
        });
    }
}

impl Conn {
    fn connect(id: u32, addr: &str, keys: u32, spans: bool) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // The generator polls: it must send on schedule while responses
        // are outstanding, on every connection, from one thread.
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            id,
            stream,
            decoder: FrameDecoder::new(),
            wbuf: Vec::with_capacity(1 << 16),
            rbuf: vec![0u8; 1 << 16],
            next_id: 1,
            slots: vec![Slot::default(); SLOTS],
            outstanding: 0,
            bytes_sent: 0,
            bytes_recv: 0,
            sent_version: vec![0; keys as usize],
            acked_version: vec![0; keys as usize],
            seen: Seen::new(CONNS as usize, keys as usize),
            gets: 0,
            last_stall_end: 0,
            log: SpanLog::new(id, spans, 1 << 20),
        })
    }

    /// Encodes one request into the write buffer and remembers it.
    fn enqueue(&mut self, a: Arrival, buf: &mut [u8], khash: &[u64]) {
        let id = self.next_id;
        self.next_id += 1;
        let enc_start = now_ns();
        let key = key_name(a.key).to_vec();
        let (req, version) = match a.kind {
            Kind::Get => (Request::Get { key }, 0),
            _ => {
                let version = self.sent_version[a.key as usize] + 1;
                self.sent_version[a.key as usize] = version;
                value::fill(buf, khash[a.key as usize], self.id, version as u64);
                (
                    Request::Put {
                        key,
                        value: buf.to_vec(),
                    },
                    version,
                )
            }
        };
        encode_request(id, &req, &mut self.wbuf);
        self.slots[id as usize % SLOTS] = Slot {
            id,
            due: a.due,
            sent: 0,
            key: a.key,
            version,
            enc_start,
        };
        self.outstanding += 1;
    }

    /// Offers the write buffer to the socket; what does not fit stays
    /// for the next call. Requests from `first_new_id` on are stamped as
    /// sent now.
    fn flush(&mut self, first_new_id: u64) -> Result<(), String> {
        if first_new_id < self.next_id {
            let now = now_ns();
            for id in first_new_id..self.next_id {
                self.slots[id as usize % SLOTS].sent = now;
            }
        }
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(n) => {
                    self.bytes_sent += n as u64;
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("socket write: {e}")),
            }
        }
        Ok(())
    }

    /// Reads what the socket has, if anything, and settles every complete
    /// response. Returns whether any bytes arrived.
    fn receive(&mut self, khash: &[u64], t: &Timing, out: &mut LegOut) -> Result<bool, String> {
        let n = match self.stream.read(&mut self.rbuf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(false)
            }
            Err(e) => return Err(format!("socket read: {e}")),
        };
        self.bytes_recv += n as u64;
        self.decoder.push(&self.rbuf[..n]);
        loop {
            let dec_start = now_ns();
            let Some((id, result)) = self
                .decoder
                .next_response()
                .map_err(|e| format!("decode: {e}"))?
            else {
                return Ok(true);
            };
            let slot = self.slots[id as usize % SLOTS];
            if slot.id != id {
                return Err(format!("response for unknown request id {id}"));
            }
            self.outstanding -= 1;
            let measured = slot.due >= t.measure_from;
            if measured {
                out.attempted += 1;
            }
            let key = slot.key;
            let ok = match result {
                Ok(Response::Ok) if slot.version > 0 => {
                    let v = &mut self.acked_version[key as usize];
                    *v = (*v).max(slot.version);
                    self.seen.acked(self.id, key, slot.version as u64);
                    out.user_bytes += VALUE_LEN as u64;
                    true
                }
                Ok(Response::Value(v)) if slot.version == 0 => {
                    self.gets += 1;
                    match value::check(
                        &v,
                        khash[key as usize],
                        VALUE_LEN,
                        self.gets.is_multiple_of(16),
                    )
                    .and_then(|h| self.seen.observe(key, h))
                    {
                        Ok(()) => true,
                        Err(bad) => {
                            out.fail(format!("conn {} get k{key}: {bad:?}", self.id));
                            false
                        }
                    }
                }
                // Overload is the server refusing work, not doing it
                // wrong: it fails the rate, not the run.
                Err(DsError::Busy) => {
                    if measured {
                        out.refused += 1;
                        out.attempted -= 1;
                    }
                    false
                }
                Ok(other) => {
                    out.fail(format!(
                        "conn {} k{key}: unexpected response {other:?}",
                        self.id
                    ));
                    false
                }
                Err(e) => {
                    out.fail(format!("conn {} k{key}: {e}", self.id));
                    false
                }
            };
            let done = now_ns();
            if self.log.enabled() {
                let parent = self.log.push("request", slot.due, done, 0, id as u32);
                self.log.push(
                    "encode",
                    slot.enc_start,
                    slot.sent.max(slot.enc_start),
                    parent,
                    id as u32,
                );
                self.log.push(
                    "in_flight",
                    slot.sent,
                    dec_start.max(slot.sent),
                    parent,
                    id as u32,
                );
                self.log.push("decode", dec_start, done, parent, id as u32);
            }
            if ok && measured && self.last_stall_end > slot.due {
                // The generator itself was not running at some point of
                // this request's life: the answer is counted, its time is
                // not the server's.
                out.completed += 1;
                out.censored += 1;
            } else if ok && measured {
                out.completed += 1;
                out.lat[t.rep_of(slot.due)]
                    .push(done.saturating_sub(slot.due).min(u32::MAX as u64) as u32);
                out.late
                    .push(slot.sent.saturating_sub(slot.due).min(u32::MAX as u64) as u32);
                let w = ((done.saturating_sub(t.leg_start)) / BIN_NS) as usize;
                if out.windows.len() <= w {
                    out.windows.resize(w + 1, 0);
                }
                out.windows[w] += 1;
            }
        }
    }
}

/// What the polling loop does when a pass found nothing to do: spin when
/// the generator has CPUs of its own, yield when it shares them with the
/// server.
#[derive(Clone, Copy)]
struct Idle {
    yield_cpu: bool,
}

impl Idle {
    fn pause(self) {
        if self.yield_cpu {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop over every connection from one polling thread: each arrival
/// is sent when it is due, whatever is still outstanding.
fn open_loop(
    conns: &mut [Conn],
    scheds: &[Vec<Arrival>],
    khash: &[u64],
    t: &Timing,
    idle: Idle,
) -> Result<LegOut, String> {
    let mut out = LegOut {
        lat: vec![Vec::new(); t.reps],
        ..LegOut::default()
    };
    let bytes0: u64 = conns.iter().map(|c| c.bytes_sent + c.bytes_recv).sum();
    let mut buf = vec![0u8; VALUE_LEN];
    let mut next = vec![0usize; conns.len()];
    let last_due = scheds
        .iter()
        .filter_map(|s| s.last())
        .map(|a| a.due)
        .max()
        .unwrap_or(t.leg_start);
    let mut prev = now_ns();
    loop {
        let now = now_ns();
        // This thread never blocks and has its CPU to itself, so a long
        // gap between two passes means the CPU was taken from it (by the
        // hypervisor or the kernel), not that the server was slow.
        if now - prev > GENERATOR_STALL_NS {
            out.stalls += 1;
            conns.iter_mut().for_each(|c| c.last_stall_end = now);
        }
        prev = now;
        let mut busy = false;
        for (ci, c) in conns.iter_mut().enumerate() {
            let sched = &scheds[ci];
            let first_new = c.next_id;
            while next[ci] < sched.len() && sched[next[ci]].due <= now {
                let a = sched[next[ci]];
                next[ci] += 1;
                if a.due >= t.measure_from {
                    out.scheduled += 1;
                }
                if c.outstanding >= MAX_OUTSTANDING {
                    if a.due >= t.measure_from {
                        out.refused += 1;
                    }
                    continue;
                }
                c.enqueue(a, &mut buf, khash);
            }
            c.flush(first_new)?;
            busy |= c.receive(khash, t, &mut out)?;
        }
        let all_sent = next.iter().zip(scheds).all(|(n, s)| *n == s.len());
        let outstanding: usize = conns.iter().map(|c| c.outstanding).sum();
        if all_sent && outstanding == 0 {
            break;
        }
        if all_sent && now > last_due + DRAIN_NS {
            for c in conns.iter_mut() {
                for _ in 0..c.outstanding {
                    out.attempted += 1;
                    out.fail(format!(
                        "conn {}: no response within {} ms of the leg's end",
                        c.id,
                        DRAIN_NS / 1_000_000
                    ));
                }
                c.outstanding = 0;
            }
            break;
        }
        if !busy {
            idle.pause();
        }
    }
    out.bytes = conns
        .iter()
        .map(|c| c.bytes_sent + c.bytes_recv)
        .sum::<u64>()
        - bytes0;
    Ok(out)
}

/// Closed loop with `PIPELINE` requests in flight per connection until
/// the leg's end.
fn closed_loop(
    conns: &mut [Conn],
    rngs: &mut [Rng],
    keys: u32,
    khash: &[u64],
    t: &Timing,
    idle: Idle,
) -> Result<LegOut, String> {
    let mut out = LegOut {
        lat: vec![Vec::new(); t.reps],
        ..LegOut::default()
    };
    let bytes0: u64 = conns.iter().map(|c| c.bytes_sent + c.bytes_recv).sum();
    let mut buf = vec![0u8; VALUE_LEN];
    let until = t.end();
    loop {
        let now = now_ns();
        let mut busy = false;
        for (c, rng) in conns.iter_mut().zip(rngs.iter_mut()) {
            let first_new = c.next_id;
            while now < until && c.outstanding < PIPELINE {
                let kind = if rng.below(2) == 0 {
                    Kind::Get
                } else {
                    Kind::Put
                };
                c.enqueue(
                    Arrival {
                        due: now,
                        kind,
                        key: rng.below(keys as u64) as u32,
                    },
                    &mut buf,
                    khash,
                );
                if now >= t.measure_from {
                    out.scheduled += 1;
                }
            }
            c.flush(first_new)?;
            busy |= c.receive(khash, t, &mut out)?;
        }
        let outstanding: usize = conns.iter().map(|c| c.outstanding).sum();
        if now >= until && outstanding == 0 {
            break;
        }
        if now > until + DRAIN_NS {
            out.attempted += outstanding as u64;
            out.fail(format!(
                "{outstanding} responses missing after the saturation leg"
            ));
            conns.iter_mut().for_each(|c| c.outstanding = 0);
            break;
        }
        if !busy {
            idle.pause();
        }
    }
    out.bytes = conns
        .iter()
        .map(|c| c.bytes_sent + c.bytes_recv)
        .sum::<u64>()
        - bytes0;
    Ok(out)
}

/// Preloads `keys` objects over the wire (pipelined on one connection).
fn preload(addr: &str, keys: u32, khash: &[u64]) -> Result<(), String> {
    let mut c = DStoreClient::connect(addr).map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; VALUE_LEN];
    let mut pending = std::collections::VecDeque::new();
    for k in 0..keys {
        value::fill(&mut buf, khash[k as usize], PRELOAD_WRITER, 1);
        pending.push_back(c.submit(&Request::Put {
            key: key_name(k).to_vec(),
            value: buf.clone(),
        }));
        if pending.len() >= 32 {
            c.flush().map_err(|e| e.to_string())?;
            while pending.len() > 16 {
                let id = pending.pop_front().expect("non-empty");
                c.wait(id).map_err(|e| format!("preload put: {e}"))?;
            }
        }
    }
    for id in pending {
        c.wait(id).map_err(|e| format!("preload put: {e}"))?;
    }
    Ok(())
}

fn set_up(split: &CpuSplit, keys: u32, khash: &[u64]) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(split)?;
    if let Err(e) = preload(&server.addr, keys, khash) {
        server.stop();
        return Err(e);
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

struct RateResult {
    /// Median over the leg's repetitions, with each repetition's value.
    p50_us: (f64, Vec<f64>),
    p99_us: (f64, Vec<f64>),
    p999_us: (f64, Vec<f64>),
    achieved_frac: f64,
    late_p99_us: f64,
    ok: bool,
    leg: LegOut,
    measured_s: f64,
}

/// The lower quartile of a percentile's per-repetition values (see
/// `stats::good_quartile`), and the values.
fn lower_quartile(reps: Vec<f64>) -> (f64, Vec<f64>) {
    (good_quartile(&reps, true), reps)
}

#[allow(clippy::too_many_arguments)]
fn open_leg(
    conns: &mut [Conn],
    idle: Idle,
    seed: u64,
    leg: u64,
    rate: u64,
    dur_s: f64,
    reps: usize,
    keys: u32,
    khash: &[u64],
) -> Result<RateResult, String> {
    // Schedules are generated before the leg's clock starts.
    let gen_ns = 2_000_000 + (rate as f64 * dur_s * 150.0) as u64;
    let t = Timing::new(now_ns() + gen_ns, dur_s, reps);
    let scheds: Vec<Vec<Arrival>> = conns
        .iter()
        .map(|c| {
            let mut rng = Rng::new(seed, 2000 + leg * 16 + c.id as u64);
            arrivals(
                &mut rng,
                rate as f64 / CONNS as f64,
                t.leg_start,
                t.end() - t.leg_start,
                keys,
            )
        })
        .collect();
    let mut out = open_loop(conns, &scheds, khash, &t, idle)?;
    out.late.sort_unstable();
    let mut pcts =
        rep_percentiles_us(std::mem::take(&mut out.lat), &[50.0, 99.0, 99.9]).into_iter();
    let mut next = || lower_quartile(pcts.next().expect("three percentiles"));
    let (p50_us, p99_us, p999_us) = (next(), next(), next());
    let achieved_frac = out.completed as f64 / out.scheduled.max(1) as f64;
    Ok(RateResult {
        p50_us,
        p999_us,
        achieved_frac,
        late_p99_us: percentile_sorted(&out.late, 99.0) / 1e3,
        ok: p99_us.0 <= SRV_LIMIT_US
            && achieved_frac >= 0.99
            && out.refused == 0
            && out.failed == 0,
        p99_us,
        measured_s: (t.end() - t.measure_from) as f64 / 1e9,
        leg: out,
    })
}

/// Closed loop at `PIPELINE` per connection; ops/s per repetition.
#[allow(clippy::too_many_arguments)]
fn sat_leg(
    conns: &mut [Conn],
    idle: Idle,
    seed: u64,
    leg: u64,
    dur_s: f64,
    reps: usize,
    keys: u32,
    khash: &[u64],
) -> Result<(Vec<f64>, LegOut), String> {
    let t = Timing::new(now_ns(), dur_s, reps);
    let mut rngs: Vec<Rng> = conns
        .iter()
        .map(|c| Rng::new(seed, 3000 + leg * 16 + c.id as u64))
        .collect();
    let out = closed_loop(conns, &mut rngs, keys, khash, &t, idle)?;
    let ops = out
        .lat
        .iter()
        .map(|r| r.len() as f64 / (t.rep_ns as f64 / 1e9))
        .collect();
    Ok((ops, out))
}

/// Cost of generating and bookkeeping one request without a socket: that
/// of the cheapest batch, so that a burst of host interference during
/// these milliseconds does not read as a heavy generator.
fn loadgen_ns_per_op(seed: u64, keys: u32, khash: &[u64]) -> Result<(f64, u64), String> {
    const OPS: u64 = 50_000;
    const BATCH: usize = 5_000;
    // A connected pair gives `Conn` a real stream it never writes to.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let mut c = Conn::connect(0, &addr, keys, false)?;
    let mut rng = Rng::new(seed, 998);
    let sched = arrivals(&mut rng, 1e6, 0, OPS * 1_000, keys);
    let mut buf = vec![0u8; VALUE_LEN];
    let mut best = Duration::MAX;
    for batch in sched.chunks_exact(BATCH) {
        let t = Instant::now();
        for a in batch {
            c.enqueue(*a, &mut buf, khash);
            c.outstanding = 0;
            if c.wbuf.len() > 1 << 15 {
                c.wbuf.clear();
            }
        }
        best = best.min(t.elapsed());
    }
    std::hint::black_box(&c.wbuf);
    Ok((best.as_nanos() as f64 / BATCH as f64, sched.len() as u64))
}

fn telemetry(addr: &str) -> Result<TelemetrySnapshot, String> {
    DStoreClient::connect(addr)
        .and_then(|mut c| c.telemetry_snapshot())
        .map_err(|e| format!("telemetry_snapshot over the wire: {e}"))
}

/// Server residency (admission to response encoded) between two wire
/// snapshots.
fn residency_into(before: &TelemetrySnapshot, after: &TelemetrySnapshot, out: &mut Outcome) {
    let residency = after
        .merged_histogram("dstore_server_op_latency_ns")
        .since(&before.merged_histogram("dstore_server_op_latency_ns"));
    out.set(
        "server.residency_p50_us",
        residency.percentile(50.0) as f64 / 1e3,
        residency.count,
    );
    out.set(
        "server.residency_p99_us",
        residency.percentile(99.0) as f64 / 1e3,
        residency.count,
    );
}

/// Server-side counters between two wire snapshots.
fn server_layer(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    depth_max: f64,
    out: &mut Outcome,
) {
    let delta = |n: &str| {
        after
            .counter_total(n)
            .saturating_sub(before.counter_total(n))
    };
    let admitted = delta("dstore_server_requests_admitted");
    out.set(
        "server.busy_per_kop",
        delta("dstore_server_busy_total") as f64 * 1e3 / admitted.max(1) as f64,
        admitted,
    );
    out.set("server.queue_depth_max", depth_max, 0);
    let per_shard: Vec<f64> = (0..SHARDS)
        .map(|s| {
            let ops = |snap| layers::labelled(snap, "dstore_ops_total", "shard", &s.to_string());
            ops(after).saturating_sub(ops(before)) as f64
        })
        .collect();
    let mean = per_shard.iter().sum::<f64>() / SHARDS as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    out.set(
        "shard.imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
        mean as u64 * SHARDS as u64,
    );
}

fn queue_depth(s: &TelemetrySnapshot) -> f64 {
    s.gauges
        .iter()
        .filter(|g| g.name == "dstore_server_queue_depth")
        .map(|g| g.value)
        .fold(0.0, f64::max)
}

/// Bytes the store holds per byte of user data, from what the wire
/// exposes: DRAM arena high water + SSD blocks in use + the fixed PMEM
/// logs and root (shadow usage is not exported over the wire).
fn space_amp(s: &TelemetrySnapshot, keys: u32) -> f64 {
    let gauge_sum = |n: &str| {
        s.gauges
            .iter()
            .filter(|g| g.name == n)
            .map(|g| g.value)
            .sum::<f64>()
    };
    let cfg = dstore::DStoreConfig::bench();
    let pmem_fixed = SHARDS as f64
        * (dstore_dipper::layout::ROOT_SIZE
            + 2 * (dstore_dipper::layout::LOG_HEADER_SIZE + cfg.log_size)) as f64;
    let held = gauge_sum("dstore_arena_high_water_bytes")
        + gauge_sum("dstore_ssd_blocks_used") * 4096.0
        + pmem_fixed;
    held / (keys as f64 * VALUE_LEN as f64)
}

/// Reads every key back over the wire: the value must be a connection's
/// last acknowledged (or last sent, if its answer was lost) write.
fn read_back(
    addr: &str,
    conns: &[Conn],
    keys: u32,
    khash: &[u64],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut c = DStoreClient::connect(addr).map_err(|e| e.to_string())?;
    let mut lost = 0u64;
    let mut pending = std::collections::VecDeque::new();
    let mut settle = |k: u32, r: Result<Response, DsError>, out: &mut Outcome| {
        out.attempted += 1;
        let written = conns.iter().any(|c| c.sent_version[k as usize] > 0);
        let verdict = match r {
            Ok(Response::Value(v)) => value::check(&v, khash[k as usize], VALUE_LEN, true)
                .map_err(|b| format!("{b:?}"))
                .and_then(|h| {
                    let ok = match h.writer {
                        PRELOAD_WRITER => !conns.iter().any(|c| c.acked_version[k as usize] > 0),
                        w if (w as usize) < conns.len() => {
                            let c = &conns[w as usize];
                            (c.acked_version[k as usize] as u64..=c.sent_version[k as usize] as u64)
                                .contains(&h.version)
                                && h.version > 0
                        }
                        _ => false,
                    };
                    if ok {
                        Ok(())
                    } else {
                        lost += 1;
                        Err(format!(
                            "holds writer {:#x} version {}, acknowledged {:?} (written: {written})",
                            h.writer,
                            h.version,
                            conns
                                .iter()
                                .map(|c| c.acked_version[k as usize])
                                .collect::<Vec<_>>()
                        ))
                    }
                }),
            Ok(other) => Err(format!("unexpected response {other:?}")),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = verdict {
            out.fail(format!("read-back k{k}: {e}"));
        }
    };
    for k in 0..keys {
        pending.push_back((
            k,
            c.submit(&Request::Get {
                key: key_name(k).to_vec(),
            }),
        ));
        if pending.len() >= 32 {
            c.flush().map_err(|e| e.to_string())?;
            while pending.len() > 16 {
                let (k, id) = pending.pop_front().expect("non-empty");
                settle(k, c.wait(id), out);
            }
        }
    }
    for (k, id) in pending {
        settle(k, c.wait(id), out);
    }
    out.set("core.lost_acks", lost as f64, keys as u64);
    Ok(())
}

fn fold(out: &mut Outcome, leg: &LegOut) {
    out.absorb(leg.attempted, leg.failed, leg.failures.iter().cloned());
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let keys: u32 = if args.smoke { 2_000 } else { 10_000 };
    let khash: Vec<u64> = (0..keys).map(|k| value::key_hash(&key_name(k))).collect();
    let mut out = Outcome::default();
    out.note("client-observed through dstore_server --config bench --shards 2 on loopback; device time is the repo's spin model");
    out.note(format!(
        "available_parallelism = {}; {CONNS} connections, one thread each; open loop, Poisson arrivals, latency from the due time; limit p99 <= {SRV_LIMIT_US} us",
        crate::nproc()
    ));
    let (lg_ns, lg_n) = loadgen_ns_per_op(args.seed, keys, &khash)?;
    let split = CpuSplit::new();
    out.note(if split.active() {
        format!(
            "server pinned to CPUs {:?}, load generator to CPUs {:?}",
            split.server, split.client
        )
    } else {
        "fewer than two CPUs allowed: server and load generator share them, unpinned".into()
    });

    let mut setups = Vec::new();
    let mut server: Option<ServerProc> = None;
    for _ in 0..if args.trace { 1 } else { 3 } {
        if let Some(s) = server.take() {
            s.stop();
        }
        let (s, t) = set_up(&split, keys, &khash)?;
        setups.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let result = drive(
        args,
        keys,
        &khash,
        &server,
        &mut out,
        (lg_ns, lg_n),
        &setups,
        split.active(),
        &split.server,
    );
    out.set("peak_rss_mb", server.peak_rss_mb(), 1);
    server.stop();
    result?;
    if args.trace {
        probes::run_all(&mut out);
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn drive(
    args: &RunArgs,
    keys: u32,
    khash: &[u64],
    server: &ServerProc,
    out: &mut Outcome,
    (lg_ns, lg_n): (f64, u64),
    setups: &[f64],
    pinned: bool,
    server_cpus: &[usize],
) -> Result<(), String> {
    let addr = server.addr.as_str();
    let s = args.seconds;
    let idle = Idle { yield_cpu: !pinned };
    let _awake = pinned.then(|| KeepAwake::start(server_cpus));
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|id| Conn::connect(id, addr, keys, args.trace))
        .collect::<Result<_, _>>()?;

    // Warm-up at the reporting rate.
    let warm = open_leg(
        &mut conns,
        idle,
        args.seed,
        0,
        RATES[1],
        s * 0.05,
        1,
        keys,
        khash,
    )?;
    fold(out, &warm.leg);
    let before = telemetry(addr)?;
    let mut depth_max = queue_depth(&before);

    // The four fixed rates. The reporting rate gets the longest leg, cut
    // into ten repetitions whose lower quartile is reported: the host's
    // interference comes in bursts of a few seconds, which then spoil
    // some repetitions, not the metric (`core.tput_floor_frac` is the one
    // that looks for stalls). It also runs first: a shard's 4 MiB
    // log takes about 28 000 puts to its first checkpoint, and the preload
    // plus this leg stay under that, so the reported latencies are those
    // of protocol, event loop, queues and router — checkpoints beside
    // traffic are `put_4k`'s and `mixed_small`'s subject, and here they
    // fall into the later legs.
    let plan = [
        (1usize, 0.42, 10usize),
        (0, 0.10, 1),
        (2, 0.10, 1),
        (3, 0.10, 1),
    ];
    let mut by_rate: Vec<Option<RateResult>> = (0..RATES.len()).map(|_| None).collect();
    for (i, dur, reps) in plan {
        let rate = RATES[i];
        let r = open_leg(
            &mut conns,
            idle,
            args.seed,
            1 + i as u64,
            rate,
            s * dur,
            reps,
            keys,
            khash,
        )?;
        fold(out, &r.leg);
        let snap = telemetry(addr)?;
        depth_max = depth_max.max(queue_depth(&snap));
        if i == 1 {
            // Server-side residency over the reporting leg alone.
            residency_into(&before, &snap, out);
        }
        out.note(format!(
            "rate {rate}/s: offered {:.0}/s achieved {:.0}/s ({:.1}%), p50 {:.1} us p99 {:.1} us, refused {}, failed {}, sent late p99 {:.1} us, {} checkpoints completed since the server started -> {}",
            r.leg.scheduled as f64 / r.measured_s,
            r.leg.completed as f64 / r.measured_s,
            r.achieved_frac * 100.0,
            r.p50_us.0,
            r.p99_us.0,
            r.leg.refused,
            r.leg.failed,
            r.late_p99_us,
            snap.counter_total("dstore_checkpoints_completed_total"),
            if r.ok { "passes the limit" } else { "fails the limit" }
        ));
        if reps > 1 {
            out.note(format!(
                "rate {rate}/s per repetition: p50 {:.0?} p99 {:.0?} p999 {:.0?} us; {} generator stalls, {} of {} answers not timed because of them",
                r.p50_us.1, r.p99_us.1, r.p999_us.1, r.leg.stalls, r.leg.censored, r.leg.completed
            ));
        }
        by_rate[i] = Some(r);
    }
    let rates: Vec<RateResult> = by_rate
        .into_iter()
        .map(|r| r.expect("every rate ran"))
        .collect();
    let (sat_reps, sat) = sat_leg(&mut conns, idle, args.seed, 9, s * 0.20, 5, keys, khash)?;
    let sat_ops = good_quartile(&sat_reps, false);
    fold(out, &sat);
    out.note(format!("saturation leg ({CONNS} connections x pipeline {PIPELINE}): ops/s per repetition {sat_reps:.0?}"));
    let after = telemetry(addr)?;
    depth_max = depth_max.max(queue_depth(&after));

    let r2 = &rates[1];
    let max_ok = RATES
        .iter()
        .zip(&rates)
        .filter(|(_, r)| r.ok)
        .map(|(&rate, _)| rate)
        .max()
        .unwrap_or(0);
    let ops: u64 = rates.iter().map(|r| r.leg.completed).sum::<u64>() + sat.completed;
    let bytes: u64 = rates.iter().map(|r| r.leg.bytes).sum::<u64>() + sat.bytes;
    let user_bytes: u64 =
        rates.iter().map(|r| r.leg.user_bytes).sum::<u64>() + sat.user_bytes + warm.leg.user_bytes;

    if !args.trace {
        out.set_reps("setup_s", setups, setups.len() as u64);
        out.set_estimate("ops_per_s", sat_ops, &sat_reps, sat.completed);
        let timed = r2.leg.completed - r2.leg.censored;
        for (name, (value, reps)) in [("p50_us", &r2.p50_us), ("p99_us", &r2.p99_us)] {
            out.set_estimate(name, *value, reps, timed);
        }
        out.set("space_amp", space_amp(&after, keys), keys as u64);
    }
    out.set(
        "core.tput_floor_frac",
        floor_frac(&full_windows(&r2.leg)),
        r2.leg.windows.len() as u64,
    );
    // The per-layer view rides along untraced too (it is free: counter
    // deltas and the client's own timestamps).
    out.set("server.sat_ops_per_s", sat_ops, sat.completed);
    out.set("server.max_rate_ok", max_ok as f64, 4);
    let names: [[&'static str; 3]; 4] = [
        [
            "server.p50_us_r1",
            "server.p99_us_r1",
            "server.achieved_frac_r1",
        ],
        [
            "server.p50_us_r2",
            "server.p99_us_r2",
            "server.achieved_frac_r2",
        ],
        [
            "server.p50_us_r3",
            "server.p99_us_r3",
            "server.achieved_frac_r3",
        ],
        [
            "server.p50_us_r4",
            "server.p99_us_r4",
            "server.achieved_frac_r4",
        ],
    ];
    for (r, n) in rates.iter().zip(names) {
        out.set(n[0], r.p50_us.0, r.leg.completed);
        out.set(n[1], r.p99_us.0, r.leg.completed);
        out.set(n[2], r.achieved_frac, r.leg.scheduled);
    }
    let refused: u64 = rates.iter().map(|r| r.leg.refused).sum();
    let scheduled: u64 = rates.iter().map(|r| r.leg.scheduled).sum();
    out.set(
        "server.refused_per_kop",
        refused as f64 * 1e3 / scheduled.max(1) as f64,
        scheduled,
    );
    out.set(
        "protocol.wire_bytes_per_op",
        bytes as f64 / ops.max(1) as f64,
        ops,
    );
    server_layer(&before, &after, depth_max, out);
    out.set(
        "server.p999_us_r2",
        r2.p999_us.0,
        r2.leg.completed - r2.leg.censored,
    );
    out.set(
        "server.net_overhead_p50_us",
        r2.p50_us.0 - out.get("server.residency_p50_us"),
        r2.leg.completed,
    );
    Window {
        before: &before,
        after: &after,
        user_bytes_written: user_bytes,
        objects: keys as u64,
    }
    .counters_into(out);

    // Load-generator validity. Latency is taken from the due time, so a
    // late send is charged to the request, never hidden; the run only
    // fails when lateness alone would exceed the latency limit.
    out.set("loadgen.ns_per_op", lg_ns, lg_n);
    out.set("loadgen.late_p99_us", r2.late_p99_us, r2.leg.completed);
    let share_gen = lg_ns / 1e3 / r2.p50_us.0.max(1e-9);
    out.set("loadgen.share_of_p50", share_gen, lg_n);
    let censored = r2.leg.censored as f64 / r2.leg.completed.max(1) as f64;
    out.set("loadgen.stall_censored_frac", censored, r2.leg.completed);
    out.flag(
        "loadgen_not_limiting",
        share_gen < crate::LOADGEN_MAX_SHARE_SERVER
            && r2.late_p99_us < crate::LOADGEN_MAX_SHARE_SERVER * SRV_LIMIT_US
            && censored < crate::LOADGEN_MAX_CENSORED,
        format!(
            "generator {lg_ns:.0} ns/op = {:.1}% of p50 {:.1} us (limit {:.0}%); sends late p99 {:.1} us at {}/s (limit {:.0} us); {:.2}% of answers not timed because the generator stalled (limit {:.0}%)",
            share_gen * 100.0,
            r2.p50_us.0,
            crate::LOADGEN_MAX_SHARE_SERVER * 100.0,
            r2.late_p99_us,
            RATES[1],
            crate::LOADGEN_MAX_SHARE_SERVER * SRV_LIMIT_US,
            censored * 100.0,
            crate::LOADGEN_MAX_CENSORED * 100.0,
        ),
    );
    if r2.leg.refused > 0 {
        out.note(format!(
            "the reporting rate was not clean: {} requests refused at {}/s ({:.2}% of offered achieved) — a stall long enough to fill {MAX_OUTSTANDING} outstanding per connection",
            r2.leg.refused,
            RATES[1],
            r2.achieved_frac * 100.0
        ));
    }

    if args.trace {
        // Spans on vs. off over the same closed-loop leg.
        let traced_ops = sat_ops;
        let logs: Vec<SpanLog> = conns
            .iter_mut()
            .map(|c| std::mem::replace(&mut c.log, SpanLog::new(c.id, false, 0)))
            .collect();
        spans_into(&logs.iter().collect::<Vec<_>>(), out);
        drop(logs);
        let (ref_reps, ref_leg) =
            sat_leg(&mut conns, idle, args.seed, 10, s * 0.20, 5, keys, khash)?;
        let ref_ops = good_quartile(&ref_reps, false);
        fold(out, &ref_leg);
        out.set("core.traced_ops_per_s", traced_ops, sat.completed);
        out.set(
            "telemetry.trace_overhead_frac",
            1.0 - traced_ops / ref_ops.max(1.0),
            ref_leg.completed,
        );
        out.set("core.put_p50_us", r2.p50_us.0, r2.leg.completed);
        // The server samples 1 op in 1024 (its binary has no knob for
        // it), so these means rest on fewer traces than the embedded ones.
        let segs = layers::segment_means(&after, before.taken_ns);
        segs.fill(out);
        out.note(format!(
            "seg.* from {} sampled server-side traces",
            segs.traces
        ));
    }
    read_back(addr, &conns, keys, khash, out)?;
    out.set(
        "core.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    out.set("core.verify_mismatches", out.failed as f64, out.attempted);
    Ok(())
}

/// A leg's windows without the warm-up part and the partial last one.
fn full_windows(leg: &LegOut) -> Vec<u32> {
    let skip = leg.windows.len() * 15 / 100 + 1;
    let end = leg.windows.len().saturating_sub(1);
    leg.windows
        .get(skip..end)
        .map_or(Vec::new(), |w| w.to_vec())
}

/// The client-side span table and trace file of a traced run.
fn spans_into(conns_logs: &[&SpanLog], out: &mut Outcome) {
    let table = spans::self_times(conns_logs);
    for (metric, span) in [
        ("protocol.client_encode_ns", "encode"),
        ("protocol.client_socket_ns", "in_flight"),
        ("protocol.client_decode_ns", "decode"),
    ] {
        if let Some(t) = table.get(span) {
            out.set(metric, t.total_ns as f64 / t.count.max(1) as f64, t.count);
        }
    }
    for (name, t) in &table {
        out.note(format!(
            "span {name}: n={} mean {:.0} ns self {:.0} ns",
            t.count,
            t.total_ns as f64 / t.count.max(1) as f64,
            t.self_ns as f64 / t.count.max(1) as f64
        ));
    }
    if let Err(e) = spans::write_chrome_trace(
        &crate::out_dir().join("trace.server_rate.json"),
        "server_rate",
        conns_logs,
    ) {
        out.note(format!("could not write the trace file: {e}"));
    }
}
