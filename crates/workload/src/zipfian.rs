//! Scrambled-zipfian key distribution, as used by YCSB \[13\].
//!
//! The zipfian generator follows Gray et al.'s rejection-free inversion
//! (the same algorithm YCSB's `ZipfianGenerator` uses); the *scrambled*
//! variant hashes the rank so that popular keys are spread across the key
//! space instead of clustering at low ids.

use rand::Rng;

/// Default YCSB zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// A scrambled-zipfian generator over `[0, n)`.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ScrambledZipfian {
    /// Creates a generator over `n` items with the default constant.
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, ZIPFIAN_CONSTANT)
    }

    /// Creates a generator with an explicit zipfian constant.
    pub fn with_theta(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact sum for small n; Euler–Maclaurin tail approximation for
        // large n keeps construction O(1)-ish for multi-million key
        // spaces.
        const EXACT: u64 = 1_000_000;
        if n <= EXACT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{EXACT}^{n} x^-θ dx
            let tail =
                ((n as f64).powf(1.0 - theta) - (EXACT as f64).powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws an *unscrambled* zipfian rank (0 is the most popular).
    pub fn next_rank(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// Draws a scrambled key id in `[0, n)`.
    pub fn next(&self, rng: &mut impl Rng) -> u64 {
        let rank = self.next_rank(rng);
        // FNV-style scramble (YCSB uses fnv64 of the rank).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in rank.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranks_are_in_bounds() {
        let z = ScrambledZipfian::new(1000);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!(z.next_rank(&mut rng) < 1000);
            assert!(z.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = ScrambledZipfian::new(10_000);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0;
        let total = 100_000;
        for _ in 0..total {
            if z.next_rank(&mut rng) < 100 {
                head += 1;
            }
        }
        // With θ=0.99 the top 1% of ranks should receive well over a
        // third of the draws.
        let frac = head as f64 / total as f64;
        assert!(frac > 0.35, "head fraction {frac}");
    }

    #[test]
    fn scrambling_spreads_popular_keys() {
        let z = ScrambledZipfian::new(10_000);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..200_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        // The most popular *scrambled* keys should not be adjacent ids.
        let mut top: Vec<usize> = (0..10_000).collect();
        top.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let top5 = &top[..5];
        let adjacent = top5.windows(2).filter(|w| w[0].abs_diff(w[1]) == 1).count();
        assert!(
            adjacent < 2,
            "popular keys suspiciously clustered: {top5:?}"
        );
    }

    #[test]
    fn uniform_theta_zero() {
        let z = ScrambledZipfian::with_theta(100, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.next_rank(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.6, "θ=0 should be near-uniform: {max}/{min}");
    }

    #[test]
    fn large_keyspace_constructs_quickly() {
        let t = std::time::Instant::now();
        let z = ScrambledZipfian::new(100_000_000);
        assert!(t.elapsed() < std::time::Duration::from_secs(2));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(z.next(&mut rng) < 100_000_000);
    }
}
