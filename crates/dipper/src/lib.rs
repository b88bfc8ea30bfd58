//! DIPPER — **D**ecoupled, **I**n-memory, and **P**arallel **PER**sistence.
//!
//! This crate implements §3 of the paper: the persistence engine that makes
//! a set of DRAM data structures durable by
//!
//! 1. logging every *logical* operation in a PMEM-resident log
//!    ([`log::OpLog`], record format in [`record`]),
//! 2. archiving the log when it fills (an O(1) pointer swap that also
//!    relocates in-flight records, [`log::OpLog::swap`]),
//! 3. replaying the archived log onto **shadow copies** of the structures
//!    in PMEM, in the background, using the *same code* the frontend runs
//!    ([`checkpoint`]).
//!
//! The frontend never quiesces: operations are durable at log-record
//! commit, and the checkpoint is pure log reclamation. Atomicity comes
//! from double-buffered shadow regions plus a single 8-byte root-object
//! state word ([`root::Root`]) that flips only on checkpoint completion.
//! Crash recovery ([`recovery`]) is redo-only and idempotent (§3.6).
//!
//! The engine is generic over the application: DStore (the `dstore` crate)
//! supplies an [`checkpoint::Applier`] that attaches its structures to a
//! shadow arena and replays records onto them.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod layout;
pub mod log;
pub mod record;
pub mod recovery;
pub mod root;

pub use checkpoint::{
    on_one_cpu, usable_workers, Applier, CheckpointEventSink, CheckpointStats, CheckpointTelemetry,
    Checkpointer, Engine, RecordWindows, APPLY_WINDOW, CHECKPOINT_PHASES,
};
pub use layout::PmemLayout;
pub use log::{AppendResult, LogFull, OpLog, RecordHandle, Reservation};
pub use record::{RecordView, COMMIT_ABORTED, COMMIT_COMMITTED, COMMIT_PENDING, OP_NOOP};
pub use recovery::{recover_scan, RecoveryPlan};
pub use root::{Root, RootState};

/// Configuration for a DIPPER instance.
#[derive(Debug, Clone)]
pub struct DipperConfig {
    /// Capacity of each of the two log buffers, in bytes (excluding the
    /// log header).
    pub log_size: usize,
    /// Capacity of each of the two shadow regions, in bytes.
    pub shadow_size: usize,
}

impl Default for DipperConfig {
    fn default() -> Self {
        Self {
            log_size: 4 << 20,
            shadow_size: 64 << 20,
        }
    }
}
