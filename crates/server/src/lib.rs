//! # dstore-server — the network front door over [`ShardedStore`]
//!
//! A pipelined, multi-client TCP service layer speaking the
//! `dstore-protocol` wire format, built **std-only** from the in-repo
//! shims (no tokio / mio — this workspace builds offline): one epoll
//! readiness loop on the vendored `libc` shim moves every byte.
//!
//! ## Architecture
//!
//! ```text
//! clients ──TCP──▶ epoll loop ──▶ Router ──▶ per-shard BoundedQueue
//!                  (decode frames)            │ full? ─▶ Busy frame
//!                                             ▼
//!                                   one executor thread per shard
//!                                   (owns that shard's DsContext)
//!                                             │
//!                  epoll loop ◀── connection sink (completion order,
//!                                 one wake per executor batch)
//! ```
//!
//! * **Pipelining** — clients tag requests with IDs and keep any number
//!   in flight; responses return in completion order and the client
//!   matches by ID. One slow `put` does not convoy a fast `get` on
//!   another shard.
//! * **Backpressure** — per-shard queues are bounded; a full queue
//!   answers [`dstore::DsError::Busy`] *immediately* instead of
//!   buffering. Admission control, not unbounded DRAM.
//! * **Tail attribution** — the admission timestamp flows into
//!   `DsContext::*_enqueued`, so the store's flight recorder charges
//!   queue wait to the `net_queue` segment: Table-3 style attribution
//!   now separates "waited behind other requests" from "PMEM was slow"
//!   in the same sampled trace.
//! * **Graceful shutdown** — [`Server::shutdown`] drains in-flight
//!   requests, flushes every acknowledgement, then closes. Acknowledged
//!   writes are durable; unread bytes are unacknowledged by definition.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dstore_server::{Server, ServerConfig};
//! use dstore_shard::{ShardedConfig, ShardedStore};
//! use std::sync::Arc;
//!
//! let store = Arc::new(ShardedStore::create(ShardedConfig::new(
//!     4,
//!     dstore::DStoreConfig::small(),
//! ))?);
//! let server = Server::start(Arc::clone(&store), ServerConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! // … serve …
//! server.shutdown();
//! # Ok::<(), dstore::DsError>(())
//! ```

#![warn(missing_docs)]

mod epoll;
mod exec;
pub mod queue;
pub mod telemetry;

pub use queue::BoundedQueue;
pub use telemetry::ServerMetrics;

use dstore::{DsError, DsResult};
use dstore_shard::ShardedStore;
use exec::{Admission, Job};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub(crate) const STATE_RUNNING: u8 = 0;
pub(crate) const STATE_DRAINING: u8 = 1;
pub(crate) const STATE_FLUSHING: u8 = 2;

/// State shared between the server handle and its I/O backend.
pub(crate) struct ServerShared {
    state: AtomicU8,
    pub max_connections: usize,
    pub flush_timeout: Duration,
    pub metrics: Arc<ServerMetrics>,
}

impl ServerShared {
    pub fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }
    fn set_state(&self, s: u8) {
        self.state.store(s, Ordering::Release);
    }
}

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Capacity of each per-shard executor queue; the knob that turns
    /// overload into `Busy` responses instead of latency.
    pub queue_depth: usize,
    /// Capacity of the control (stats/health/telemetry) queue.
    pub control_queue_depth: usize,
    /// Hard cap on concurrent connections.
    pub max_connections: usize,
    /// How long shutdown may spend flushing outbound buffers.
    pub flush_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_depth: 256,
            control_queue_depth: 64,
            max_connections: 1024,
            flush_timeout: Duration::from_secs(5),
        }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// performs the same graceful drain.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    admission: Arc<Admission>,
    wake: Arc<epoll::EpollWake>,
    io_thread: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    store: Arc<ShardedStore>,
}

impl Server {
    /// Binds, spawns the per-shard executors and the epoll loop, and
    /// begins accepting connections.
    pub fn start(store: Arc<ShardedStore>, cfg: ServerConfig) -> DsResult<Server> {
        let listener = std::net::TcpListener::bind(&cfg.addr)
            .map_err(|e| DsError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DsError::Io(e.to_string()))?;

        let shards = store.shard_count() as usize;
        let metrics = Arc::new(ServerMetrics::new(shards));
        let shared = Arc::new(ServerShared {
            state: AtomicU8::new(STATE_RUNNING),
            max_connections: cfg.max_connections.max(1),
            flush_timeout: cfg.flush_timeout,
            metrics: Arc::clone(&metrics),
        });

        let shard_queues: Vec<Arc<BoundedQueue<Job>>> = (0..shards)
            .map(|_| Arc::new(BoundedQueue::new(cfg.queue_depth)))
            .collect();
        let control_queue = Arc::new(BoundedQueue::new(cfg.control_queue_depth));
        let admission = Arc::new(Admission {
            router: store.router(),
            shard_queues: shard_queues.clone(),
            control_queue: Arc::clone(&control_queue),
            metrics: Arc::clone(&metrics),
        });

        let executors = exec::spawn_executors(&store, &shard_queues, &control_queue, &metrics);

        let wake = epoll::EpollWake::new().map_err(|e| DsError::Io(e.to_string()))?;
        let io_thread = {
            let wake = Arc::clone(&wake);
            let admission = Arc::clone(&admission);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ds-epoll".into())
                .spawn(move || epoll::io_loop(listener, wake, admission, shared))
                .expect("spawn epoll loop")
        };

        Ok(Server {
            local_addr,
            shared,
            admission,
            wake,
            io_thread: Some(io_thread),
            executors,
            store,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server-layer metrics (connection counts, queue depths,
    /// per-op residency histograms, `Busy` rejections).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The store this server fronts.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Graceful shutdown: stop accepting and reading, drain every
    /// admitted request through its executor, flush all responses
    /// (bounded by [`ServerConfig::flush_timeout`]), then close.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(io_thread) = self.io_thread.take() else {
            return;
        };
        // 1. Stop admitting: no new connections, no more reads.
        self.shared.set_state(STATE_DRAINING);
        self.wake.wake();
        // 2. Drain: close the queues; executors answer what is already
        //    admitted, then exit.
        self.admission.close_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        // 3. Flush: every owed byte is now buffered; let the I/O loop
        //    push it out, bounded by flush_timeout.
        self.shared.set_state(STATE_FLUSHING);
        self.wake.wake();
        let _ = io_thread.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
