//! NVMe SSD emulation for DStore's data plane.
//!
//! The paper stores object *data* on a 750 GB Intel P4800X NVMe drive and
//! leans on one hardware property (§4.5 "Durability and Consistency"): the
//! drive's internal DRAM write cache is **power-loss protected** by device
//! capacitors, so a completed write is durable without any explicit flush.
//! DStore exploits this to skip host-side buffering entirely.
//!
//! [`SsdDevice`] reproduces that contract: `write_page(s)` is durable on
//! return (crash simulation never loses completed writes), and a calibrated
//! [`SsdLatency`] model charges the device time that dominates the paper's
//! write path (Table 3: ~8.9 µs for a 4 KB write, ~40 µs for 16 KB — 88–96 %
//! of total request time). The device owns its traffic counters
//! ([`SsdStats`], exported as `dstore_ssd_*_total`), which back Figure 7's
//! SSD bandwidth timeline.

#![warn(missing_docs)]

pub mod device;
pub mod latency;
pub mod stats;

pub use device::SsdDevice;
pub use latency::SsdLatency;
pub use stats::SsdStats;

/// SSD hardware page size in bytes. The paper uses 4 KB operations "to
/// conform with the SSD hardware block size" (§5.1).
pub const PAGE_SIZE: usize = 4096;

/// A page number on the device.
pub type PageNo = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(PAGE_SIZE, 4096);
    }
}
