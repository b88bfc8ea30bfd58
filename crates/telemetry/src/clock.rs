//! A process-wide monotonic nanosecond clock.
//!
//! Spans recorded from different threads (frontend trigger, checkpoint
//! worker, recovery) must be comparable on one timeline; anchoring every
//! reading to a single process-wide [`Instant`] gives exactly that
//! without carrying an epoch through every constructor.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide telemetry epoch (first call).
/// Monotonic and comparable across threads.
///
/// On x86-64 hosts with an invariant TSC this is a calibrated `rdtsc`
/// — roughly half the cost of `clock_gettime`, which matters at two
/// reads per operation (the histogram + flight-recorder coalesced
/// path). Elsewhere, and on hosts whose TSC is not invariant, it falls
/// back to a process-wide [`Instant`].
#[inline]
pub fn now_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(ns) = tsc::now_ns() {
            return ns;
        }
    }
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(target_arch = "x86_64")]
mod tsc {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Calibration: `ns = (tsc - tsc0) * mult_q32 >> 32` (Q32 fixed
    /// point). `None` when the host TSC cannot serve as a timeline.
    struct Calib {
        tsc0: u64,
        mult_q32: u64,
    }

    static CALIB: OnceLock<Option<Calib>> = OnceLock::new();

    #[inline]
    fn rdtsc() -> u64 {
        // SAFETY: `rdtsc` is unprivileged and always present on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Whether CPUID advertises an invariant TSC (constant rate across
    /// P-/C-states: leaf 0x8000_0007, EDX bit 8). Without it a TSC
    /// timeline drifts with frequency scaling.
    fn invariant_tsc() -> bool {
        use core::arch::x86_64::__cpuid;
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
    }

    /// Measures the TSC frequency against the OS monotonic clock. The
    /// 1 ms spin bounds the frequency error around ±0.1 % — ample for
    /// latency telemetry — and is paid once per process.
    fn calibrate() -> Option<Calib> {
        if !invariant_tsc() {
            return None;
        }
        let t0 = Instant::now();
        let tsc0 = rdtsc();
        let (dt, dtsc) = loop {
            let dt = t0.elapsed().as_nanos() as u64;
            if dt >= 1_000_000 {
                break (dt, rdtsc().wrapping_sub(tsc0));
            }
            std::hint::spin_loop();
        };
        if dtsc == 0 {
            return None;
        }
        Some(Calib {
            tsc0,
            mult_q32: ((u128::from(dt) << 32) / u128::from(dtsc)) as u64,
        })
    }

    #[inline]
    pub(super) fn now_ns() -> Option<u64> {
        let c = CALIB.get_or_init(calibrate).as_ref()?;
        let dtsc = rdtsc().wrapping_sub(c.tsc0);
        Some(((u128::from(dtsc) * u128::from(c.mult_q32)) >> 32) as u64)
    }
}

/// `units` spread over `dt_ns` as units/second — the one formula every
/// rate between two snapshots shares. 0.0 on an empty interval (differencing
/// two snapshots taken in the same nanosecond is a caller bug, not a
/// division by zero).
#[inline]
pub fn rate_per_sec(units: u64, dt_ns: u64) -> f64 {
    if dt_ns == 0 {
        return 0.0;
    }
    units as f64 * 1e9 / dt_ns as f64
}

/// Rate between two cumulative samples, each a (units, anchor-ns) pair.
///
/// Both subtractions saturate: differencing snapshots taken within the
/// same clock tick yields 0.0 (not ∞/NaN), and differencing snapshots
/// merged out of order — `then` actually newer than `now`, which
/// happens when shard snapshots taken on different threads are compared
/// — yields 0.0 (not a negative rate). Every rate between two snapshots
/// (`dstore_top`'s ops/s) funnels through here so the edge cases are
/// fixed in one place.
#[inline]
pub fn rate_between(
    now_units: u64,
    then_units: u64,
    now_anchor_ns: u64,
    then_anchor_ns: u64,
) -> f64 {
    rate_per_sec(
        now_units.saturating_sub(then_units),
        now_anchor_ns.saturating_sub(then_anchor_ns),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_wall_time() {
        // Whichever backend serves (calibrated TSC or Instant), a
        // measured interval must agree with the OS clock to well
        // within calibration error. Generous bounds for loaded CI.
        let w0 = Instant::now();
        let a = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let b = now_ns();
        let wall = w0.elapsed().as_nanos() as u64;
        let ours = b - a;
        assert!(ours >= 15_000_000, "clock too slow: {ours} vs wall {wall}");
        assert!(
            ours <= wall + wall / 4 + 1_000_000,
            "clock too fast: {ours} vs wall {wall}"
        );
    }

    #[test]
    fn monotonic_across_calls_and_threads() {
        let a = now_ns();
        let h = std::thread::spawn(now_ns);
        let b = h.join().unwrap();
        let c = now_ns();
        assert!(a <= b || a <= c, "clock went backwards: {a} {b} {c}");
        assert!(c >= a);
    }

    #[test]
    fn same_clock_tick_saturates_to_zero() {
        // Two snapshots in the same nanosecond: no elapsed time, so the
        // rate must be 0.0, never ±∞ or NaN.
        let r = rate_between(100, 50, 12_345, 12_345);
        assert_eq!(r, 0.0);
        assert!(r.is_finite());
    }

    #[test]
    fn out_of_order_merge_saturates_to_zero() {
        // "then" is actually newer on both axes (snapshots merged out
        // of order): saturate to 0.0 instead of a negative rate.
        let r = rate_between(50, 100, 1_000, 2_000);
        assert_eq!(r, 0.0);
        // Mixed case: units went forward but the anchor went backwards.
        assert_eq!(rate_between(100, 50, 1_000, 2_000), 0.0);
        // And the ordinary forward case still works.
        let ok = rate_between(100, 50, 2_000_000_000, 1_000_000_000);
        assert!((ok - 50.0).abs() < 1e-9, "{ok}");
    }
}
