//! Self-describing values and the checker that reads them back.
//!
//! Every value carries a 24-byte header — key hash, writer id, the
//! writer's per-key version, length — and a body that is a pure function
//! of (key hash, writer, version), so any get can be checked without
//! remembering what was written: a header for another key is a misplaced
//! object, a body that does not regenerate is torn, and a version below
//! one this client already saw from the same writer is a lost update.

use crate::gen::mix64;
use std::sync::OnceLock;

pub const HEADER_LEN: usize = 24;
/// Writer id of the preload phase; clients are 0, 1, ...
pub const PRELOAD_WRITER: u32 = 0xFFFF;

pub fn key_hash(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// Fills `buf` (its length is the value length, ≥ `HEADER_LEN`).
pub fn fill(buf: &mut [u8], khash: u64, writer: u32, version: u64) {
    let len = buf.len();
    debug_assert!(len >= HEADER_LEN);
    buf[0..8].copy_from_slice(&khash.to_le_bytes());
    buf[8..12].copy_from_slice(&writer.to_le_bytes());
    buf[12..20].copy_from_slice(&version.to_le_bytes());
    buf[20..24].copy_from_slice(&(len as u32).to_le_bytes());
    fill_body(&mut buf[HEADER_LEN..], khash, writer, version);
}

/// Fixed pseudo-random words the body is masked with, so that filling
/// 4 KB is one independent XOR per word (the load generator must stay a
/// small share of an operation).
fn mask() -> &'static [u64; 512] {
    static MASK: OnceLock<[u64; 512]> = OnceLock::new();
    MASK.get_or_init(|| {
        let mut m = [0u64; 512];
        for (i, w) in m.iter_mut().enumerate() {
            *w = mix64(0x5EED_0000 + i as u64);
        }
        m
    })
}

fn fill_body(body: &mut [u8], khash: u64, writer: u32, version: u64) {
    let x = khash ^ mix64(version ^ ((writer as u64) << 48));
    let mut words = body.chunks_exact_mut(8);
    for (chunk, m) in (&mut words).zip(mask().iter().cycle()) {
        chunk.copy_from_slice(&(x ^ m).to_le_bytes());
    }
    let rest = words.into_remainder();
    let n = rest.len();
    rest.copy_from_slice(&x.to_le_bytes()[..n]);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub khash: u64,
    pub writer: u32,
    pub version: u64,
    pub len: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bad {
    TooShort(usize),
    WrongKey {
        expected: u64,
        got: Header,
    },
    WrongLength {
        expected: usize,
        got: Header,
    },
    TornBody {
        header: Header,
        first_bad_byte: usize,
    },
    StaleVersion {
        header: Header,
        floor: u64,
    },
    NotFinal {
        header: Header,
        expected_version: u64,
    },
}

pub fn parse_header(v: &[u8]) -> Result<Header, Bad> {
    if v.len() < HEADER_LEN {
        return Err(Bad::TooShort(v.len()));
    }
    Ok(Header {
        khash: u64::from_le_bytes(v[0..8].try_into().unwrap()),
        writer: u32::from_le_bytes(v[8..12].try_into().unwrap()),
        version: u64::from_le_bytes(v[12..20].try_into().unwrap()),
        len: u32::from_le_bytes(v[20..24].try_into().unwrap()),
    })
}

/// Header check, plus the full body when `full` is set.
pub fn check(v: &[u8], khash: u64, expect_len: usize, full: bool) -> Result<Header, Bad> {
    let h = parse_header(v)?;
    if h.khash != khash {
        return Err(Bad::WrongKey {
            expected: khash,
            got: h,
        });
    }
    if h.len as usize != v.len() || v.len() != expect_len {
        return Err(Bad::WrongLength {
            expected: expect_len,
            got: h,
        });
    }
    if full {
        let mut want = vec![0u8; v.len() - HEADER_LEN];
        fill_body(&mut want, h.khash, h.writer, h.version);
        if let Some(i) = want.iter().zip(&v[HEADER_LEN..]).position(|(a, b)| a != b) {
            return Err(Bad::TornBody {
                header: h,
                first_bad_byte: HEADER_LEN + i,
            });
        }
    }
    Ok(h)
}

/// What one client has seen per key: for each writer, the highest version
/// observed (its own acknowledged writes included). A writer's versions
/// for one key are issued in program order and a later write replaces an
/// earlier one, so under any interleaving a reader can never move
/// backwards within one writer's sequence.
pub struct Seen {
    /// `[writer][key]`; the preload writer is the last row.
    floors: Vec<Vec<u32>>,
}

impl Seen {
    pub fn new(writers: usize, keys: usize) -> Self {
        Seen {
            floors: vec![vec![0; keys]; writers + 1],
        }
    }

    fn row(&self, writer: u32) -> Option<usize> {
        let last = self.floors.len() - 1;
        if writer == PRELOAD_WRITER {
            Some(last)
        } else if (writer as usize) < last {
            Some(writer as usize)
        } else {
            None
        }
    }

    /// Records this client's own acknowledged write.
    pub fn acked(&mut self, me: u32, key: u32, version: u64) {
        self.floors[me as usize][key as usize] = version as u32;
    }

    /// Checks a value just read against everything seen so far.
    pub fn observe(&mut self, key: u32, h: Header) -> Result<(), Bad> {
        let Some(row) = self.row(h.writer) else {
            return Err(Bad::WrongKey {
                expected: h.khash,
                got: h,
            });
        };
        // Any client write replaces the preloaded value for good.
        let preload_row = self.floors.len() - 1;
        if row == preload_row {
            if let Some(f) = self.floors[..preload_row]
                .iter()
                .map(|r| r[key as usize])
                .find(|&f| f > 0)
            {
                return Err(Bad::StaleVersion {
                    header: h,
                    floor: f as u64,
                });
            }
        }
        let floor = &mut self.floors[row][key as usize];
        if h.version < *floor as u64 {
            return Err(Bad::StaleVersion {
                header: h,
                floor: *floor as u64,
            });
        }
        *floor = h.version as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &[u8], writer: u32, version: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        fill(&mut v, key_hash(key), writer, version);
        v
    }

    #[test]
    fn a_good_value_passes() {
        let v = sample(b"k1", 0, 7, 4096);
        let h = check(&v, key_hash(b"k1"), 4096, true).unwrap();
        assert_eq!((h.writer, h.version, h.len), (0, 7, 4096));
    }

    #[test]
    fn wrong_key_header_fails() {
        let v = sample(b"k2", 0, 7, 128);
        assert!(matches!(
            check(&v, key_hash(b"k1"), 128, false),
            Err(Bad::WrongKey { .. })
        ));
    }

    #[test]
    fn torn_body_fails_only_the_full_check() {
        let mut v = sample(b"k1", 1, 3, 4096);
        v[2048] ^= 0x40;
        assert!(check(&v, key_hash(b"k1"), 4096, false).is_ok());
        assert_eq!(
            check(&v, key_hash(b"k1"), 4096, true),
            Err(Bad::TornBody {
                header: parse_header(&v).unwrap(),
                first_bad_byte: 2048
            })
        );
        // A body from another version of the same key is torn too.
        let old = sample(b"k1", 1, 2, 4096);
        v[HEADER_LEN..].copy_from_slice(&old[HEADER_LEN..]);
        assert!(matches!(
            check(&v, key_hash(b"k1"), 4096, true),
            Err(Bad::TornBody { .. })
        ));
    }

    #[test]
    fn below_acked_version_fails() {
        let mut seen = Seen::new(2, 10);
        seen.acked(0, 4, 9);
        let hdr = |writer, version| Header {
            khash: 1,
            writer,
            version,
            len: 128,
        };
        assert!(seen.observe(4, hdr(0, 9)).is_ok());
        assert!(
            seen.observe(4, hdr(1, 2)).is_ok(),
            "another writer's value may win the race"
        );
        assert_eq!(
            seen.observe(4, hdr(0, 8)),
            Err(Bad::StaleVersion {
                header: hdr(0, 8),
                floor: 9
            })
        );
        assert!(matches!(
            seen.observe(4, hdr(1, 1)),
            Err(Bad::StaleVersion { .. })
        ));
        assert!(
            matches!(
                seen.observe(4, hdr(PRELOAD_WRITER, 1)),
                Err(Bad::StaleVersion { .. })
            ),
            "the preloaded value may not come back after a client write was seen"
        );
        assert!(seen.observe(5, hdr(PRELOAD_WRITER, 1)).is_ok());
    }

    #[test]
    fn wrong_length_and_short_values_fail() {
        let v = sample(b"k1", 0, 1, 128);
        assert!(matches!(
            check(&v, key_hash(b"k1"), 4096, false),
            Err(Bad::WrongLength { .. })
        ));
        assert_eq!(
            check(&v[..10], key_hash(b"k1"), 10, false),
            Err(Bad::TooShort(10))
        );
    }
}
