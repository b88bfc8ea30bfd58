//! Calibrated device-latency injection.
//!
//! Benchmarks need the *relative* costs of the paper's devices: a single
//! cache-line flush to Optane costs a few hundred nanoseconds (Table 3
//! measures a full log flush at ~616 ns), PMEM read bandwidth is ~30 GB/s
//! and write bandwidth ~10 GB/s on the paper's testbed (§1). The
//! [`LatencyModel`] charges those costs with a calibrated spin-wait — sleeps
//! are far too coarse at the sub-microsecond scale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Busy-waits for `ns` nanoseconds. Returns immediately for `ns == 0`.
///
/// Spinning (rather than `thread::sleep`) is required because the modelled
/// costs are in the 100 ns – 10 µs range, well below scheduler resolution.
#[inline]
pub fn spin_for_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    let target = Duration::from_nanos(ns);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// Waits `ns` nanoseconds like [`spin_for_ns`], but **yields the CPU**
/// while more than a couple of microseconds remain, busy-spinning only
/// the final stretch for precision.
///
/// Use this for waits on *already-submitted* device work (an NVMe
/// completion deadline): the modelled device is doing the work, so the
/// real CPU is schedulable in the meantime. A pure spin would serialize
/// exactly the overlap an asynchronous submission exists to create on
/// hosts with fewer cores than client threads. Synchronous charges
/// ([`LatencyModel`], `charge_write`) keep spinning — there the op
/// itself occupies the issuing context.
///
/// Keeping the CPU schedulable has a price: each `yield_now` may hand
/// the CPU to any other runnable thread for as long as the scheduler
/// lets it run. On a 2-vCPU host, an 8.85 µs wait on a CPU it shares
/// with a `SCHED_IDLE` spinner read p50 9.0 µs but p99 3.5 ms (4 000
/// waits, three sets); beside a CPU-bound `SCHED_OTHER` thread its mean
/// was 3.8–4.1 ms, because each yield can give away a whole time slice.
/// So a thread that runs many ops back to back waits once for all of
/// them (the store's durability epoch, `Epoch::finish`), not once
/// per op.
pub fn yield_wait_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    let target = Duration::from_nanos(ns);
    let spin_tail = Duration::from_micros(2);
    loop {
        let elapsed = start.elapsed();
        if elapsed >= target {
            return;
        }
        if target - elapsed > spin_tail {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Latency/bandwidth model for an emulated PMEM device.
///
/// All costs default to **zero** so unit tests run at memory speed; bench
/// harnesses install [`LatencyModel::optane`].
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Cost of persisting one cache line (`clwb` reaching the DIMM), in ns.
    pub flush_line_ns: u64,
    /// Cost of a store fence, in ns.
    pub fence_ns: u64,
    /// Sequential write bandwidth in bytes/ns (GB/s ≈ bytes/ns). Zero
    /// disables bandwidth charging.
    pub write_gb_per_s: f64,
    /// Sequential read bandwidth in bytes/ns. Zero disables charging.
    pub read_gb_per_s: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::none()
    }
}

impl LatencyModel {
    /// No injected latency (unit tests, functional runs).
    pub fn none() -> Self {
        Self {
            flush_line_ns: 0,
            fence_ns: 0,
            write_gb_per_s: 0.0,
            read_gb_per_s: 0.0,
        }
    }

    /// Calibrated to the paper's Optane DCPMM testbed: ~200 ns per line
    /// flush (a 32 B log record flush measures ~616 ns including the fence,
    /// Table 3), ~30 GB/s read and ~10 GB/s write bandwidth (§1).
    pub fn optane() -> Self {
        Self {
            flush_line_ns: 200,
            fence_ns: 50,
            write_gb_per_s: 10.0,
            read_gb_per_s: 30.0,
        }
    }

    /// True when every knob is zero — lets hot paths skip `Instant` math.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.flush_line_ns == 0
            && self.fence_ns == 0
            && self.write_gb_per_s == 0.0
            && self.read_gb_per_s == 0.0
    }

    /// Charges the cost of flushing `lines` cache lines.
    #[inline]
    pub fn charge_flush(&self, lines: usize) {
        if self.flush_line_ns > 0 && lines > 0 {
            // Flushes of adjacent lines pipeline on real hardware; charge
            // the first line at full cost and the rest at 1/4 cost, which
            // reproduces the paper's ~2000-cycle multi-line log flush.
            let extra = (lines as u64 - 1) * self.flush_line_ns / 4;
            spin_for_ns(self.flush_line_ns + extra);
        }
    }

    /// Charges a store-fence.
    #[inline]
    pub fn charge_fence(&self) {
        spin_for_ns(self.fence_ns);
    }

    /// Charges bulk-write bandwidth for `bytes` (checkpoint page copies).
    #[inline]
    pub fn charge_write_bw(&self, bytes: usize) {
        if self.write_gb_per_s > 0.0 && bytes > 0 {
            spin_for_ns((bytes as f64 / self.write_gb_per_s) as u64);
        }
    }

    /// Charges bulk-read bandwidth for `bytes`.
    #[inline]
    pub fn charge_read_bw(&self, bytes: usize) {
        if self.read_gb_per_s > 0.0 && bytes > 0 {
            spin_for_ns((bytes as f64 / self.read_gb_per_s) as u64);
        }
    }
}

/// Monotonic nanosecond clock used by bandwidth timelines.
pub struct NanoClock {
    origin: Instant,
    /// Cached origin offset so multiple clocks can be compared.
    epoch_ns: AtomicU64,
}

impl NanoClock {
    /// Creates a clock whose zero is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            epoch_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds elapsed since the clock was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64 + self.epoch_ns.load(Ordering::Relaxed)
    }

    /// Shifts the clock origin forward (used by tests).
    pub fn advance_ns(&self, ns: u64) {
        self.epoch_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Default for NanoClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free() {
        let m = LatencyModel::none();
        assert!(m.is_free());
        // Must return instantly.
        let t = Instant::now();
        m.charge_flush(1000);
        m.charge_fence();
        m.charge_write_bw(1 << 20);
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn optane_model_charges_time() {
        let m = LatencyModel::optane();
        assert!(!m.is_free());
        let t = Instant::now();
        m.charge_flush(1);
        let e = t.elapsed();
        assert!(e >= Duration::from_nanos(150), "flush too fast: {e:?}");
    }

    #[test]
    fn bandwidth_charge_scales_with_bytes() {
        let m = LatencyModel {
            write_gb_per_s: 1.0, // 1 byte per ns
            ..LatencyModel::none()
        };
        let t = Instant::now();
        m.charge_write_bw(100_000); // => 100 µs
        let e = t.elapsed();
        assert!(e >= Duration::from_micros(90), "bw charge too fast: {e:?}");
    }

    #[test]
    fn spin_for_zero_is_instant() {
        let t = Instant::now();
        spin_for_ns(0);
        assert!(t.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn nano_clock_is_monotonic() {
        let c = NanoClock::new();
        let a = c.now_ns();
        spin_for_ns(1000);
        let b = c.now_ns();
        assert!(b > a);
        c.advance_ns(5_000_000);
        assert!(c.now_ns() >= b + 5_000_000);
    }
}
