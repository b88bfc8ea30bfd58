//! The I/O backend: a single-threaded epoll readiness loop over
//! nonblocking sockets (via the in-repo `libc` shim — no tokio, no mio;
//! the workspace builds offline).
//!
//! One thread owns the listener, an `eventfd` wakeup, and every
//! connection's read/write half. Executors never touch a socket: they
//! append encoded frames to the connection's outbound buffer
//! ([`EpollSink::buffer`]) and, once per batch, hand the connections
//! they answered to the loop with one eventfd write ([`wake_for`]). The
//! loop then drains all of a connection's buffered responses with one
//! `write`, and falls back to `EPOLLOUT` registration only when a
//! socket's send buffer fills. On a host with few cores (the paper's
//! PMEM testbed pins most of them to executors) this keeps the network
//! layer's CPU cost to one thread, and readiness — not thread count —
//! bounds connection fan-in.
//!
//! Frames the loop produces itself (admission's `Busy` and
//! reserved-name answers, protocol errors) are buffered without a wake:
//! the loop flushes the connection right after reading from it.

use crate::exec::Admission;
use crate::{ServerShared, STATE_DRAINING, STATE_FLUSHING, STATE_RUNNING};
use dstore_protocol::wire::encode_error_response;
use dstore_protocol::FrameDecoder;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Cross-thread wakeup state shared with every [`EpollSink`].
pub(crate) struct EpollWake {
    efd: libc::c_int,
    /// Tokens whose sinks gained output since the last loop iteration.
    dirty: Mutex<Vec<u64>>,
}

impl EpollWake {
    pub fn new() -> std::io::Result<Arc<Self>> {
        let efd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if efd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Arc::new(EpollWake {
            efd,
            dirty: Mutex::new(Vec::new()),
        }))
    }

    /// Wakes the loop without marking any connection dirty (used by
    /// shutdown to make it re-read the server state).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { libc::write(self.efd, (&one as *const u64).cast(), 8) };
    }

    fn drain(&self) {
        let mut v: u64 = 0;
        unsafe { libc::read(self.efd, (&mut v as *mut u64).cast(), 8) };
    }
}

impl Drop for EpollWake {
    fn drop(&mut self) {
        unsafe { libc::close(self.efd) };
    }
}

/// Per-connection outbound side, handed to executors with every job
/// admitted from that connection.
pub(crate) struct EpollSink {
    token: u64,
    out: Mutex<Vec<u8>>,
    /// True while `token` sits in the wake dirty list — collapses many
    /// sends into one wakeup.
    queued: AtomicBool,
    /// Admitted frames minus sent responses: >0 means executors still
    /// owe this connection bytes, so EOF must not close it yet.
    pending: AtomicI64,
    wake: Arc<EpollWake>,
}

impl EpollSink {
    /// Appends one response frame, written by `encode`, to the outbound
    /// buffer. Never blocks on the network and does not wake the loop:
    /// pass the sink to [`wake_for`] once the batch it belongs to is
    /// done.
    pub(crate) fn buffer(&self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.out.lock().expect("sink mutex poisoned"));
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Hands the loop every connection in `sinks` for flushing, with at most
/// one eventfd write however many there are. All sinks belong to one
/// loop. A sink already waiting for a flush costs nothing, and so does a
/// dirty list someone else already made non-empty: whoever did writes
/// the eventfd after pushing, and the loop takes the whole list.
pub(crate) fn wake_for(sinks: &[Arc<EpollSink>]) {
    let Some(first) = sinks.first() else {
        return;
    };
    let wake = &first.wake;
    let mut dirty = wake.dirty.lock().expect("wake mutex poisoned");
    let was_empty = dirty.is_empty();
    dirty.extend(
        sinks
            .iter()
            .filter(|s| !s.queued.swap(true, Ordering::AcqRel))
            .map(|s| s.token),
    );
    let first_in = was_empty && !dirty.is_empty();
    drop(dirty);
    if first_in {
        wake.wake();
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    sink: Arc<EpollSink>,
    /// Read half is done: EOF, protocol error, or draining shutdown.
    read_closed: bool,
    /// Whether `EPOLLOUT` is currently part of the interest mask.
    wants_out: bool,
}

impl Conn {
    fn closeable(&self) -> bool {
        self.read_closed
            && self.sink.pending.load(Ordering::Acquire) <= 0
            && self.sink.out.lock().unwrap().is_empty()
    }
}

fn epoll_ctl(epfd: libc::c_int, op: libc::c_int, fd: libc::c_int, events: u32, token: u64) {
    let mut ev = libc::epoll_event { events, u64: token };
    unsafe { libc::epoll_ctl(epfd, op, fd, &mut ev) };
}

/// Runs the readiness loop until shutdown completes. Owns the listener.
pub(crate) fn io_loop(
    listener: TcpListener,
    wake: Arc<EpollWake>,
    admission: Arc<Admission>,
    shared: Arc<ServerShared>,
) {
    let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
    assert!(epfd >= 0, "epoll_create1 failed");
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    epoll_ctl(
        epfd,
        libc::EPOLL_CTL_ADD,
        listener.as_raw_fd(),
        libc::EPOLLIN,
        TOKEN_LISTENER,
    );
    epoll_ctl(
        epfd,
        libc::EPOLL_CTL_ADD,
        wake.efd,
        libc::EPOLLIN,
        TOKEN_WAKE,
    );

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = [libc::epoll_event { events: 0, u64: 0 }; 64];
    let mut flush_deadline: Option<Instant> = None;
    let mut read_buf = vec![0u8; 64 * 1024];

    loop {
        let state = shared.state();
        if state >= STATE_FLUSHING {
            // Executors are drained and joined: everything owed is
            // already in the out buffers. Flush with a deadline.
            let deadline =
                *flush_deadline.get_or_insert_with(|| Instant::now() + shared.flush_timeout);
            conns.retain(|_, c| {
                flush(epfd, c);
                !c.sink.out.lock().unwrap().is_empty()
            });
            if conns.is_empty() || Instant::now() >= deadline {
                break;
            }
        }

        let n = unsafe { libc::epoll_wait(epfd, events.as_mut_ptr(), 64, 100) };
        if n < 0 {
            match std::io::Error::last_os_error().raw_os_error() {
                Some(libc::EINTR) => continue,
                e => panic!("epoll_wait failed: {e:?}"),
            }
        }

        for ev in &events[..n.max(0) as usize] {
            let token = ev.u64;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => {
                    accept_ready(epfd, &listener, &wake, &shared, &mut conns, &mut next_token)
                }
                TOKEN_WAKE => wake.drain(),
                _ => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0 {
                        remove(epfd, &mut conns, token, &shared);
                        continue;
                    }
                    if bits & (libc::EPOLLIN | libc::EPOLLRDHUP) != 0 && !conn.read_closed {
                        read_ready(conn, &admission, &shared, &mut read_buf);
                    }
                    // Always attempt a flush: a protocol-error frame or
                    // an immediate Busy reply may have landed in the out
                    // buffer without an EPOLLOUT registration yet.
                    flush(epfd, conn);
                    if conns.get(&token).is_some_and(|c| c.closeable()) {
                        remove(epfd, &mut conns, token, &shared);
                    }
                }
            }
        }

        // Executors marked these connections dirty since last pass.
        let dirty: Vec<u64> = std::mem::take(&mut *wake.dirty.lock().unwrap());
        for token in dirty {
            if let Some(conn) = conns.get_mut(&token) {
                conn.sink.queued.store(false, Ordering::Release);
                flush(epfd, conn);
                if conn.closeable() {
                    remove(epfd, &mut conns, token, &shared);
                }
            }
        }

        if shared.state() >= STATE_DRAINING {
            // Stop reading: anything not yet decoded is unacknowledged
            // and the client will retry against the recovered store.
            for conn in conns.values_mut() {
                conn.read_closed = true;
            }
            conns.retain(|&token, c| {
                if c.closeable() {
                    epoll_ctl(epfd, libc::EPOLL_CTL_DEL, c.stream.as_raw_fd(), 0, token);
                    shared.metrics.connections_closed.inc();
                    false
                } else {
                    true
                }
            });
        }
    }

    for (_, c) in conns.drain() {
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
        shared.metrics.connections_closed.inc();
    }
    unsafe { libc::close(epfd) };
}

fn accept_ready(
    epfd: libc::c_int,
    listener: &TcpListener,
    wake: &Arc<EpollWake>,
    shared: &Arc<ServerShared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.state() != STATE_RUNNING || conns.len() >= shared.max_connections {
                    continue; // drop: accepted only to clear readiness
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                epoll_ctl(
                    epfd,
                    libc::EPOLL_CTL_ADD,
                    stream.as_raw_fd(),
                    libc::EPOLLIN | libc::EPOLLRDHUP,
                    token,
                );
                conns.insert(
                    token,
                    Conn {
                        stream,
                        decoder: FrameDecoder::new(),
                        sink: Arc::new(EpollSink {
                            token,
                            out: Mutex::new(Vec::new()),
                            queued: AtomicBool::new(false),
                            pending: AtomicI64::new(0),
                            wake: Arc::clone(wake),
                        }),
                        read_closed: false,
                        wants_out: false,
                    },
                );
                shared.metrics.connections_opened.inc();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn read_ready(conn: &mut Conn, admission: &Admission, shared: &Arc<ServerShared>, buf: &mut [u8]) {
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.decoder.push(&buf[..n]);
                loop {
                    match conn.decoder.next_request() {
                        Ok(Some((req_id, req))) => {
                            conn.sink.pending.fetch_add(1, Ordering::AcqRel);
                            admission.admit(req_id, req, &conn.sink);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Malformed stream: answer with a frame the
                            // client can decode (request id 0 — it never
                            // issues id 0), then tear the read half down.
                            shared.metrics.protocol_errors.inc();
                            let mut frame = Vec::new();
                            encode_error_response(0, &e, &mut frame);
                            conn.sink.out.lock().unwrap().extend_from_slice(&frame);
                            conn.read_closed = true;
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                break;
            }
        }
    }
}

/// Writes as much buffered output as the socket accepts, adjusting the
/// `EPOLLOUT` registration to match what remains.
fn flush(epfd: libc::c_int, conn: &mut Conn) {
    let mut out = conn.sink.out.lock().unwrap();
    while !out.is_empty() {
        match conn.stream.write(&out) {
            Ok(0) => break,
            Ok(n) => {
                out.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                out.clear();
                conn.read_closed = true;
                break;
            }
        }
    }
    let want = !out.is_empty();
    drop(out);
    if want != conn.wants_out {
        conn.wants_out = want;
        let mut mask = libc::EPOLLIN | libc::EPOLLRDHUP;
        if want {
            mask |= libc::EPOLLOUT;
        }
        epoll_ctl(
            epfd,
            libc::EPOLL_CTL_MOD,
            conn.stream.as_raw_fd(),
            mask,
            conn.sink.token,
        );
    }
}

fn remove(
    epfd: libc::c_int,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    shared: &Arc<ServerShared>,
) {
    if let Some(conn) = conns.remove(&token) {
        epoll_ctl(epfd, libc::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, token);
        shared.metrics.connections_closed.inc();
    }
}
