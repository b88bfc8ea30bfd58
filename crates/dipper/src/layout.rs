//! Static layout of the PMEM pool.
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬──────────┬──────────┬─────────────┐
//! │ root 4K  │ log 0    │ log 1    │ shadow A │ shadow B │ black box   │
//! └──────────┴──────────┴──────────┴──────────┴──────────┴─────────────┘
//! ```
//!
//! "A root object, placed in a well known offset in PMEM contains pointers
//! to current and old copies of the shadow copies as well as the current
//! state of the checkpoint process." (§3.5) — the well-known offset is 0.
//! Because the layout is deterministic from the configuration, the root
//! only needs the *state word* (which log is active, which shadow region
//! is current, whether a checkpoint is in flight), not raw pointers.

use crate::DipperConfig;
use dstore_pmem::blackbox::{region_size, EVENT_SLOTS, TRACE_SLOTS};

/// Space reserved for the root object.
pub const ROOT_SIZE: usize = 4096;
/// Size of each log buffer's persistent header (holds `min_lsn`).
pub const LOG_HEADER_SIZE: usize = 64;

/// Byte offsets of every component within the PMEM pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmemLayout {
    /// Offset of the root object (always 0).
    pub root: usize,
    /// Offsets of the two log buffers (header included).
    pub log: [usize; 2],
    /// Capacity of each log buffer *excluding* its header.
    pub log_size: usize,
    /// Offsets of the two shadow regions.
    pub shadow: [usize; 2],
    /// Capacity of each shadow region.
    pub shadow_size: usize,
    /// Offset of the crash-persistent black-box region. Placed last so
    /// resizing it never shifts any other component.
    pub blackbox: usize,
    /// Bytes reserved for the black-box region: one region of
    /// [`TRACE_SLOTS`] trace and [`EVENT_SLOTS`] event slots.
    pub blackbox_size: usize,
    /// Total pool bytes required.
    pub total: usize,
}

impl PmemLayout {
    /// Computes the layout for `cfg`, aligning every component to 4 KB.
    pub fn new(cfg: &DipperConfig) -> Self {
        let align = |x: usize| (x + 4095) & !4095;
        let log_size = align(cfg.log_size.max(4096));
        let shadow_size = align(cfg.shadow_size.max(64 * 1024));
        let log0 = ROOT_SIZE;
        let log1 = log0 + LOG_HEADER_SIZE + log_size;
        let shadow_a = align(log1 + LOG_HEADER_SIZE + log_size);
        let shadow_b = shadow_a + shadow_size;
        let blackbox = shadow_b + shadow_size;
        let blackbox_size = align(region_size(TRACE_SLOTS, EVENT_SLOTS));
        Self {
            root: 0,
            log: [log0, log1],
            log_size,
            shadow: [shadow_a, shadow_b],
            shadow_size,
            blackbox,
            blackbox_size,
            total: blackbox + blackbox_size,
        }
    }

    /// Offset of the first record slot of log `i`.
    pub fn log_records(&self, i: usize) -> usize {
        self.log[i] + LOG_HEADER_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_components_are_disjoint_and_ordered() {
        let cfg = DipperConfig {
            log_size: 1 << 20,
            shadow_size: 8 << 20,
        };
        let l = PmemLayout::new(&cfg);
        assert_eq!(l.root, 0);
        assert!(l.log[0] >= ROOT_SIZE);
        assert!(l.log[1] >= l.log[0] + LOG_HEADER_SIZE + l.log_size);
        assert!(l.shadow[0] >= l.log[1] + LOG_HEADER_SIZE + l.log_size);
        assert_eq!(l.shadow[1], l.shadow[0] + l.shadow_size);
        assert_eq!(l.blackbox, l.shadow[1] + l.shadow_size);
        assert_eq!(l.total, l.blackbox + l.blackbox_size);
        assert_eq!(l.log_records(0), l.log[0] + LOG_HEADER_SIZE);
    }

    #[test]
    fn blackbox_region_appends_without_shifting_anything() {
        let cfg = DipperConfig {
            log_size: 1 << 20,
            shadow_size: 8 << 20,
        };
        let l = PmemLayout::new(&cfg);
        // A larger shadow moves only the region: it stays last.
        let big = PmemLayout::new(&DipperConfig {
            shadow_size: 16 << 20,
            ..cfg
        });
        assert_eq!(big.log, l.log);
        assert_eq!(big.shadow[0], l.shadow[0]);
        assert_eq!(big.blackbox, big.shadow[1] + big.shadow_size);
        assert_eq!(big.blackbox_size, l.blackbox_size);
        assert_eq!(l.blackbox % 4096, 0);
        assert_eq!(l.blackbox_size % 4096, 0);
        assert!(l.blackbox_size >= region_size(TRACE_SLOTS, EVENT_SLOTS));
        assert_eq!(l.total, l.blackbox + l.blackbox_size);
    }

    #[test]
    fn layout_is_page_aligned() {
        let l = PmemLayout::new(&DipperConfig::default());
        assert_eq!(l.shadow[0] % 4096, 0);
        assert_eq!(l.shadow[1] % 4096, 0);
        assert_eq!(l.log_size % 4096, 0);
    }

    #[test]
    fn tiny_configs_are_clamped() {
        let cfg = DipperConfig {
            log_size: 1,
            shadow_size: 1,
        };
        let l = PmemLayout::new(&cfg);
        assert!(l.log_size >= 4096);
        assert!(l.shadow_size >= 64 * 1024);
    }
}
