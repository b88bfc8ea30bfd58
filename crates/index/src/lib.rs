//! Index structures for DStore.
//!
//! * [`btree`] — the object index ("For maintaining an index of objects in
//!   the system, we utilize a btree", §4.2). It is generic over the arena
//!   it lives in, so the **same code** maintains the DRAM frontend tree and
//!   its PMEM shadow copy during checkpoint replay — the core enabler of
//!   DIPPER's backend design (§3.5).

#![warn(missing_docs)]

pub mod btree;

pub use btree::{BTreeHandle, BTreeHeader, OlcStats};

/// FNV-1a hash of a byte string — used for shard selection and object-name
/// hashing throughout DStore (stable across runs, unlike `DefaultHasher`).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        // Known FNV-1a vector.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
