//! Seeded input generation. Everything the store sees — keys, op kinds,
//! arrival times — is generated here from `--seed` before the clock
//! starts; the same seed gives the same inputs.

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit mix for deriving sub-seeds and scrambling zipfian ranks.
pub fn mix64(mut x: u64) -> u64 {
    splitmix(&mut x)
}

impl Rng {
    /// One independent stream per `(seed, stream)` pair, so every
    /// client, leg and script has its own generator plumbed from `--seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut x = seed ^ mix64(stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng {
            s: [
                splitmix(&mut x),
                splitmix(&mut x),
                splitmix(&mut x),
                splitmix(&mut x),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// YCSB's zipfian generator (Gray et al.), scrambled so the hot items
/// are spread over the key space instead of clustered at index 0.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: u64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64, scramble: u64) -> Self {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            scramble,
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        mix64(rank.min(self.n - 1) ^ self.scramble) % self.n
    }
}

/// Fixed-width key names: `k0000001234` for the preloaded key space,
/// `t<client>/<n>` for a client's own insert namespace.
pub fn key_name(idx: u32) -> [u8; 11] {
    let mut k = *b"k0000000000";
    let mut v = idx;
    for b in k[1..].iter_mut().rev() {
        *b = b'0' + (v % 10) as u8;
        v /= 10;
    }
    k
}

/// Live objects a client's own namespace starts with, so a delete always
/// has an oldest insert to remove.
pub const OWN_PRELOAD: u32 = 1000;

pub fn own_key_name(client: u32, n: u32) -> Vec<u8> {
    format!("t{client}/{n:010}").into_bytes()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Insert = 2,
    Delete = 3,
}

/// One pre-generated operation, packed into 4 bytes (streams hold
/// millions): the kind in the top two bits, the key index below.
#[derive(Clone, Copy)]
pub struct Op(u32);

impl Op {
    pub fn new(kind: Kind, key: u32) -> Self {
        debug_assert!(key < 1 << 30);
        Op((kind as u32) << 30 | key)
    }

    pub fn kind(self) -> Kind {
        match self.0 >> 30 {
            0 => Kind::Get,
            1 => Kind::Put,
            2 => Kind::Insert,
            _ => Kind::Delete,
        }
    }

    /// Index into the preloaded key space (unused for insert/delete,
    /// which address the client's own namespace by counter).
    pub fn key(self) -> u32 {
        self.0 & ((1 << 30) - 1)
    }
}

pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// Shares of get / put / insert / delete, in percent (sum 100).
pub struct Mix {
    pub get: u32,
    pub put: u32,
    pub insert: u32,
}

pub fn op_stream(rng: &mut Rng, n: usize, keys: u32, dist: &KeyDist, mix: &Mix) -> Vec<Op> {
    let zipf = match dist {
        KeyDist::Zipf(theta) => Some(Zipf::new(keys as u64, *theta, rng.next_u64())),
        KeyDist::Uniform => None,
    };
    (0..n)
        .map(|_| {
            let roll = rng.below(100) as u32;
            let kind = if roll < mix.get {
                Kind::Get
            } else if roll < mix.get + mix.put {
                Kind::Put
            } else if roll < mix.get + mix.put + mix.insert {
                Kind::Insert
            } else {
                Kind::Delete
            };
            let key = match &zipf {
                Some(z) => z.next(rng) as u32,
                None => rng.below(keys as u64) as u32,
            };
            Op::new(kind, key)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mk = |seed| {
            let mut r = Rng::new(seed, 3);
            op_stream(
                &mut r,
                1000,
                500,
                &KeyDist::Zipf(0.99),
                &Mix {
                    get: 50,
                    put: 30,
                    insert: 10,
                },
            )
            .iter()
            .map(|o| (o.kind() as u8, o.key()))
            .collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = Rng::new(1, 0);
        let z = Zipf::new(1000, 0.99, 42);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.next(&mut r) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max > 5_000,
            "hottest key should draw >5% at theta 0.99, got {max}"
        );
    }

    #[test]
    fn key_names_are_fixed_width_and_ordered() {
        assert_eq!(&key_name(0), b"k0000000000");
        assert_eq!(&key_name(1234), b"k0000001234");
        assert!(key_name(9) < key_name(10));
    }
}
