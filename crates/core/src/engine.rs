//! The store's one checkpoint engine: DIPPER's decoupled checkpoints or
//! the CoW baseline (§4.5), chosen once when the store is assembled, so
//! no caller branches on [`crate::CheckpointMode`]. Its methods are
//! [`Engine`]'s, plus the guards operations take.
//!
//! An operation's [`OpGuard`] is empty under DIPPER and touches no shared
//! state: the frontend never quiesces. Under CoW it is the drain lock
//! `read` that the CoW trigger takes `write`.

use crate::cow::CowCheckpointer;
use dstore_dipper::checkpoint::{Engine, EngineState};
use dstore_dipper::Checkpointer;
use dstore_telemetry::trace::ActiveTrace;
use parking_lot::RwLockReadGuard;

/// What an operation holds against a checkpoint trigger: nothing under
/// DIPPER, the CoW drain lock `read` under CoW.
pub(crate) type OpGuard<'a> = Option<RwLockReadGuard<'a, ()>>;

/// A store's checkpoint engine.
pub(crate) enum CheckpointEngine {
    /// Decoupled parallel checkpoints (§3.5).
    Dipper(Checkpointer),
    /// Copy-on-write checkpoints (§4.5).
    Cow(CowCheckpointer),
}

impl Engine for CheckpointEngine {
    fn state(&self) -> &EngineState {
        match self {
            CheckpointEngine::Dipper(c) => c.state(),
            CheckpointEngine::Cow(c) => c.state(),
        }
    }

    fn try_begin(&self) -> bool {
        match self {
            CheckpointEngine::Dipper(c) => c.try_begin(),
            CheckpointEngine::Cow(c) => c.try_begin(),
        }
    }

    fn shutdown(&self) {
        match self {
            CheckpointEngine::Dipper(c) => c.shutdown(),
            CheckpointEngine::Cow(c) => c.shutdown(),
        }
    }
}

impl CheckpointEngine {
    /// The guard a get, `oread` or `olock` holds.
    pub(crate) fn read_guard(&self) -> OpGuard<'_> {
        match self {
            CheckpointEngine::Dipper(_) => None,
            CheckpointEngine::Cow(c) => Some(c.read_guard()),
        }
    }

    /// The guard a mutation holds from before its claims until it commits
    /// ([`CowCheckpointer::mutation_guard`] under CoW).
    pub(crate) fn mutation_guard(&self, at: &mut ActiveTrace) -> OpGuard<'_> {
        match self {
            CheckpointEngine::Dipper(_) => None,
            CheckpointEngine::Cow(c) => Some(c.mutation_guard(at)),
        }
    }
}
