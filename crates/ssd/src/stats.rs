//! SSD traffic counters (Figure 7's SSD bandwidth timeline).

use dstore_telemetry::{Counter, MetricsRegistry};
use std::sync::Arc;

/// Cumulative traffic counters of one emulated SSD, owned by its
/// [`crate::SsdDevice`]. Each is a registry [`Counter`] that lives as
/// long as the device, so it keeps counting across a simulated crash and
/// the recovery that reuses the device. [`SsdStats::register`] exports
/// them.
#[derive(Debug, Default)]
pub struct SsdStats {
    /// Bytes written to the device.
    pub write_bytes: Arc<Counter>,
    /// Write commands issued.
    pub write_ops: Arc<Counter>,
    /// Bytes read from the device.
    pub read_bytes: Arc<Counter>,
}

impl SsdStats {
    /// Registers every counter in `registry` under its
    /// `dstore_ssd_*_total` name.
    pub fn register(&self, registry: &MetricsRegistry) {
        registry.register_counter("dstore_ssd_write_bytes_total", &self.write_bytes);
        registry.register_counter("dstore_ssd_write_ops_total", &self.write_ops);
        registry.register_counter("dstore_ssd_read_bytes_total", &self.read_bytes);
    }

    #[inline]
    pub(crate) fn record_write(&self, bytes: u64) {
        self.write_bytes.add(bytes);
        self.write_ops.inc();
    }
}

#[cfg(test)]
mod tests {
    use crate::{SsdDevice, PAGE_SIZE};
    use dstore_telemetry::MetricsRegistry;

    #[test]
    fn counters_accumulate_and_diff() {
        let d = SsdDevice::anon(4);
        let s = d.stats();
        d.write_pages(0, &[1u8; PAGE_SIZE]);
        let written = s.write_bytes.get();
        d.write_pages(1, &[2u8; 2 * PAGE_SIZE]);
        let mut buf = [0u8; PAGE_SIZE];
        d.read_pages(0, &mut buf);
        assert_eq!(written, PAGE_SIZE as u64);
        assert_eq!(s.write_ops.get(), 2);
        assert_eq!(s.write_bytes.get() - written, 2 * PAGE_SIZE as u64);
        let registry = MetricsRegistry::new();
        s.register(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_total("dstore_ssd_write_bytes_total"),
            3 * PAGE_SIZE as u64
        );
        assert_eq!(snap.counter_total("dstore_ssd_write_ops_total"), 2);
        assert_eq!(
            snap.counter_total("dstore_ssd_read_bytes_total"),
            PAGE_SIZE as u64
        );
    }
}
