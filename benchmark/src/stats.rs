//! Exact order statistics over raw samples. Latencies are kept as raw
//! nanosecond samples per thread (merged after the clock stops) rather
//! than in the store's bucketed histogram, so a percentile carries all
//! its digits and two runs never read the same by quantisation.

/// Interpolated percentile (`p` in 0..=100) of ascending `sorted`
/// nanosecond samples, in the samples' unit.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The percentiles `ps`, in µs, of each repetition's nanosecond samples,
/// indexed `[percentile][repetition]`; one sort per repetition however
/// many percentiles are asked for.
pub fn rep_percentiles_us(reps: impl IntoIterator<Item = Vec<u32>>, ps: &[f64]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); ps.len()];
    for mut samples in reps {
        samples.sort_unstable();
        for (row, p) in out.iter_mut().zip(ps) {
            row.push(percentile_sorted(&samples, *p) / 1e3);
        }
    }
    out
}

/// Samples beyond percentile `p` — the guide's "at least ten beyond it".
pub fn beyond(n: usize, p: f64) -> u64 {
    (n as f64 * (100.0 - p) / 100.0 + 1e-6).floor() as u64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The quartile of `values` on the side that host interference does not
/// reach: interference from the host only ever adds latency and takes
/// throughput away, so over repetitions of the same load the good side
/// is the program and the bad side is noise. `low` picks the lower
/// quartile (latencies), otherwise the upper (throughputs). With five
/// repetitions it is the second best, with ten the third best.
pub fn good_quartile(values: &[f64], low: bool) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let k = (v.len() - 1) / 4;
    if low {
        v[k]
    } else {
        v[v.len() - 1 - k]
    }
}

/// `(max − min) / median` over repetitions.
pub fn rel_range(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

pub fn mean_u32(samples: &[u32]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&s| s as u64).sum::<u64>() as f64 / samples.len() as f64
    }
}

/// Completions are counted in bins of this length ...
pub const BIN_NS: u64 = 10_000_000;
/// ... and a throughput window is this many consecutive bins (100 ms).
const BINS_PER_WINDOW: usize = 10;

/// Trough depth of a throughput timeline (Fig. 7): over every 100 ms
/// window, sliding in 10 ms steps, the mean of the lowest tenth over the
/// median. A checkpoint stall empties windows that a median latency
/// cannot see. Sliding windows, because on a fixed 100 ms grid how a
/// stall straddles the boundaries is a coin toss; the mean of the low
/// tail rather than one low percentile, for the same reason.
pub fn floor_frac(bins: &[u32]) -> f64 {
    let mut w: Vec<u32> = bins
        .windows(BINS_PER_WINDOW)
        .map(|b| b.iter().sum())
        .collect();
    if w.is_empty() {
        return 0.0;
    }
    w.sort_unstable();
    let med = percentile_sorted(&w, 50.0);
    let k = (w.len() as f64 * 0.10).ceil() as usize;
    if med == 0.0 {
        0.0
    } else {
        mean_u32(&w[..k]) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s: Vec<u32> = (1..=101).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 51.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 100.0), 101.0);
        assert!((percentile_sorted(&[10, 20], 25.0) - 12.5).abs() < 1e-9);
        assert_eq!(beyond(600_000, 99.9), 600);
    }

    #[test]
    fn good_quartile_picks_the_quiet_side() {
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(good_quartile(&five, true), 2.0);
        assert_eq!(good_quartile(&five, false), 4.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(good_quartile(&ten, true), 3.0);
        assert_eq!(good_quartile(&ten, false), 8.0);
        assert_eq!(good_quartile(&[7.0], true), 7.0);
        assert_eq!(good_quartile(&[], false), 0.0);
    }

    #[test]
    fn floor_sees_a_stall() {
        // 10 s at 100 completions per 10 ms bin, then a 60 ms stall every
        // second, deliberately off the 100 ms grid.
        let mut bins = vec![100u32; 1000];
        assert!(floor_frac(&bins) > 0.99);
        for stall in (37..1000).step_by(100) {
            bins[stall..stall + 6].fill(0);
        }
        // The worst windows hold the whole stall: 40 % of a full one.
        let f = floor_frac(&bins);
        assert!((0.40..0.50).contains(&f), "{f}");
    }
}
