//! Persistent-memory (PMEM) emulation for DStore.
//!
//! The paper evaluates DStore on Intel Optane DCPMM mapped into the address
//! space through an `xfs`-DAX file. This crate provides the equivalent
//! substrate for machines without PMEM: a byte-addressable [`PmemPool`]
//! backed by `mmap`, together with a **cache-line granular persistence
//! simulator** that reproduces the crash-consistency hazards real PMEM has:
//!
//! * stores land in (volatile) CPU caches and are *not* persistent until the
//!   cache line is written back,
//! * cache lines can be written back **spuriously** (implicit eviction) in
//!   arbitrary order,
//! * only an explicit `clwb`/`clflushopt` + `sfence` sequence guarantees
//!   persistence.
//!
//! In [`PersistenceMode::Strict`] the pool keeps two images of the memory:
//! the *volatile view* (what loads/stores see) and the *persistent image*
//! (what survives [`PmemPool::simulate_crash`]). [`PmemPool::flush`] copies
//! cache lines from the former to the latter, exactly like `clwb`;
//! [`PmemPool::evict_lines`] models spurious evictions. Because the
//! persistent image is maintained by *diffing* at flush time rather than by
//! intercepting stores, arbitrary code (e.g. the arena-generic B-tree) can
//! write through raw pointers into the pool and the simulation stays honest.
//!
//! In [`PersistenceMode::Fast`] there is a single image and `flush` only
//! charges the latency model — this is what benchmarks use.
//!
//! The [`latency::LatencyModel`] injects calibrated device costs (per-line
//! flush latency, fence cost, read/write bandwidth) so that benchmark
//! *shapes* match the paper's Optane numbers. The pool owns its traffic
//! counters ([`stats::PmemStats`]): registry counters behind Figure 7's
//! PMEM bandwidth plot and the flush/fence budget, which a store exports
//! as `dstore_pmem_*_total` and which outlive a simulated crash.

#![warn(missing_docs)]

pub mod backoff;
pub mod blackbox;
pub mod latency;
pub mod mapping;
pub mod pool;
pub mod stats;

pub use backoff::Backoff;
pub use blackbox::{exhume, BlackBoxRegion, ExhumedBlackBox};
pub use latency::LatencyModel;
pub use pool::{PersistenceMode, PmemPool, PoolBuilder};
pub use stats::PmemStats;

/// Size of a CPU cache line in bytes. All persistence in this crate is
/// tracked at this granularity, matching real hardware.
pub const CACHE_LINE: usize = 64;

/// Rounds `off` down to the containing cache-line boundary.
#[inline]
pub const fn line_down(off: usize) -> usize {
    off & !(CACHE_LINE - 1)
}

/// Rounds `off` up to the next cache-line boundary.
#[inline]
pub const fn line_up(off: usize) -> usize {
    (off + CACHE_LINE - 1) & !(CACHE_LINE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounding() {
        assert_eq!(line_down(0), 0);
        assert_eq!(line_down(63), 0);
        assert_eq!(line_down(64), 64);
        assert_eq!(line_down(65), 64);
        assert_eq!(line_up(0), 0);
        assert_eq!(line_up(1), 64);
        assert_eq!(line_up(64), 64);
        assert_eq!(line_up(65), 128);
    }
}
