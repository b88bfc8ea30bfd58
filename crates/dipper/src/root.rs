//! The PMEM root object.
//!
//! "Finally, to achieve atomicity, we update the locations of shadow copies
//! in the root object atomically and *only* upon successful completion of
//! the checkpoint process." (§3.5)
//!
//! The root's mutable state fits one 8-byte word — the granularity PMEM
//! updates atomically — packing three facts:
//!
//! * which log buffer is **active** (the other is archived),
//! * which shadow region holds the **current** consistent checkpoint image,
//! * whether a checkpoint is **in progress** (recovery must redo it).
//!
//! Two transitions ever happen, each a single persisted word store:
//!
//! * **swap** (checkpoint start): flip the active log *and* set
//!   in-progress;
//! * **commit** (checkpoint end): flip the current shadow *and* clear
//!   in-progress.

use dstore_pmem::PmemPool;

/// Root magic ("DIPPER01").
const MAGIC: u64 = 0x4449_5050_4552_3031;

/// Field offsets within the root page.
const OFF_MAGIC: usize = 0;
const OFF_STATE: usize = 8;
const OFF_LOG_SIZE: usize = 16;
const OFF_SHADOW_SIZE: usize = 24;
/// Application directory word: DStore stores the arena offset of its
/// directory structure here (same in every shadow region).
const OFF_APP_DIR: usize = 32;

/// Decoded root state word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootState {
    /// Index (0/1) of the active log buffer.
    pub active_log: usize,
    /// Index (0/1) of the shadow region holding the current checkpoint
    /// image.
    pub current_shadow: usize,
    /// Whether a checkpoint was in flight.
    pub checkpoint_in_progress: bool,
}

impl RootState {
    fn pack(self) -> u64 {
        (self.active_log as u64)
            | ((self.current_shadow as u64) << 1)
            | ((self.checkpoint_in_progress as u64) << 2)
    }

    fn unpack(w: u64) -> Self {
        Self {
            active_log: (w & 1) as usize,
            current_shadow: ((w >> 1) & 1) as usize,
            checkpoint_in_progress: (w >> 2) & 1 == 1,
        }
    }

    /// The index of the archived (non-active) log.
    pub fn archived_log(self) -> usize {
        1 - self.active_log
    }

    /// The index of the spare (non-current) shadow region.
    pub fn spare_shadow(self) -> usize {
        1 - self.current_shadow
    }
}

/// Handle to the root object at pool offset 0.
pub struct Root {
    pool: std::sync::Arc<PmemPool>,
}

impl Root {
    /// Formats a fresh root (state: log 0 active, shadow 0 current, no
    /// checkpoint) and persists it.
    pub fn format(pool: std::sync::Arc<PmemPool>, log_size: u64, shadow_size: u64) -> Self {
        let r = Self { pool };
        r.pool.write_u64(OFF_STATE, 0);
        r.pool.write_u64(OFF_LOG_SIZE, log_size);
        r.pool.write_u64(OFF_SHADOW_SIZE, shadow_size);
        r.pool.write_u64(OFF_APP_DIR, 0);
        // Magic last: an interrupted format leaves an unrecognized root.
        r.pool.persist(OFF_STATE, 32);
        r.pool.write_u64(OFF_MAGIC, MAGIC);
        r.pool.persist(OFF_MAGIC, 8);
        r
    }

    /// Attaches to an existing root; `None` if the pool is not formatted
    /// or was formatted with different sizes.
    pub fn attach(pool: std::sync::Arc<PmemPool>, log_size: u64, shadow_size: u64) -> Option<Self> {
        let r = Self { pool };
        if r.pool.read_u64(OFF_MAGIC) != MAGIC {
            return None;
        }
        if r.pool.read_u64(OFF_LOG_SIZE) != log_size
            || r.pool.read_u64(OFF_SHADOW_SIZE) != shadow_size
        {
            return None;
        }
        Some(r)
    }

    /// Reads the current state.
    pub fn state(&self) -> RootState {
        RootState::unpack(self.pool.read_u64(OFF_STATE))
    }

    /// Atomically persists a new state word.
    pub fn set_state(&self, s: RootState) {
        self.pool.write_u64(OFF_STATE, s.pack());
        self.pool.persist(OFF_STATE, 8);
    }

    /// Checkpoint start: flip the active log, set in-progress. One atomic
    /// persisted store.
    pub fn begin_checkpoint(&self) -> RootState {
        let s = self.state();
        let next = RootState {
            active_log: s.archived_log(),
            current_shadow: s.current_shadow,
            checkpoint_in_progress: true,
        };
        self.set_state(next);
        next
    }

    /// Checkpoint completion: flip the current shadow, clear in-progress.
    /// One atomic persisted store — *this* is the commit point.
    pub fn commit_checkpoint(&self) -> RootState {
        let s = self.state();
        assert!(
            s.checkpoint_in_progress,
            "no checkpoint to commit: the state word at root offset {OFF_STATE} reads {s:?}"
        );
        let next = RootState {
            active_log: s.active_log,
            current_shadow: s.spare_shadow(),
            checkpoint_in_progress: false,
        };
        self.set_state(next);
        next
    }

    /// The application directory word (arena offset of the app's root
    /// structure inside every shadow region).
    pub fn app_dir(&self) -> u64 {
        self.pool.read_u64(OFF_APP_DIR)
    }

    /// Persists the application directory word.
    pub fn set_app_dir(&self, v: u64) {
        self.pool.write_u64(OFF_APP_DIR, v);
        self.pool.persist(OFF_APP_DIR, 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::strict(1 << 16))
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for al in 0..2 {
            for cs in 0..2 {
                for ip in [false, true] {
                    let s = RootState {
                        active_log: al,
                        current_shadow: cs,
                        checkpoint_in_progress: ip,
                    };
                    assert_eq!(RootState::unpack(s.pack()), s);
                }
            }
        }
    }

    #[test]
    fn format_then_attach() {
        let p = pool();
        Root::format(Arc::clone(&p), 4096, 65536);
        let r = Root::attach(Arc::clone(&p), 4096, 65536).expect("attach");
        let s = r.state();
        assert_eq!(s.active_log, 0);
        assert_eq!(s.current_shadow, 0);
        assert!(!s.checkpoint_in_progress);
    }

    #[test]
    fn attach_rejects_unformatted_and_mismatched() {
        let p = pool();
        assert!(Root::attach(Arc::clone(&p), 4096, 65536).is_none());
        Root::format(Arc::clone(&p), 4096, 65536);
        assert!(Root::attach(Arc::clone(&p), 8192, 65536).is_none());
        assert!(Root::attach(Arc::clone(&p), 4096, 131072).is_none());
    }

    #[test]
    fn transitions_are_crash_atomic() {
        let p = pool();
        let r = Root::format(Arc::clone(&p), 4096, 65536);
        let s1 = r.begin_checkpoint();
        assert_eq!(s1.active_log, 1);
        assert!(s1.checkpoint_in_progress);
        // Crash: the persisted state survives.
        p.simulate_crash();
        let r = Root::attach(Arc::clone(&p), 4096, 65536).unwrap();
        assert_eq!(r.state(), s1);
        let s2 = r.commit_checkpoint();
        assert_eq!(s2.current_shadow, 1);
        assert!(!s2.checkpoint_in_progress);
        p.simulate_crash();
        assert_eq!(r.state(), s2);
    }

    #[test]
    fn interrupted_format_is_unrecognized() {
        // Write everything except the magic — attach must refuse.
        let p = pool();
        p.write_u64(OFF_STATE, 0);
        p.write_u64(OFF_LOG_SIZE, 4096);
        p.write_u64(OFF_SHADOW_SIZE, 65536);
        p.persist(OFF_STATE, 24);
        assert!(Root::attach(Arc::clone(&p), 4096, 65536).is_none());
    }

    #[test]
    fn app_dir_roundtrip() {
        let p = pool();
        let r = Root::format(Arc::clone(&p), 4096, 65536);
        assert_eq!(r.app_dir(), 0);
        r.set_app_dir(0xABCD);
        p.simulate_crash();
        assert_eq!(r.app_dir(), 0xABCD);
    }
}
