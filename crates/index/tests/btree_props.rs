//! Property tests: the arena B-tree is observationally equivalent to
//! `std::collections::BTreeMap` under arbitrary op sequences, and its
//! structural invariants hold throughout.

use dstore_arena::{Arena, DramMemory};
use dstore_index::{BTreeHandle, OlcStats};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, u64),
    Remove(Vec<u8>),
    Get(Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small key space to force collisions, replacements, and deletes of
    // present keys. The long arm shares up to 24 bytes of prefix, so
    // compares run deep into the keys. The third arm straddles the
    // 15-byte inline-key limit: 14–17 bytes, prefixes of one another.
    prop_oneof![
        prop::collection::vec(0u8..8, 0..6),
        (0usize..25, prop::collection::vec(0u8..4, 0..12)).prop_map(|(n, tail)| {
            let mut k = b"object/name/prefix/00000".to_vec();
            k.truncate(n);
            k.extend(tail);
            k
        }),
        (14usize..18, 0u8..3).prop_map(|(n, last)| {
            let mut k = b"object/name/prefix/00000"[..n].to_vec();
            k[n - 1] += last;
            k
        }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => key_strategy().prop_map(Op::Remove),
        1 => key_strategy().prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn equivalent_to_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let arena = Arena::create(DramMemory::new(1 << 22));
        let tree = BTreeHandle::create(&arena);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(&k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k).copied());
                }
            }
        }
        tree.check_invariants();
        prop_assert_eq!(tree.len(), model.len() as u64);
        let got = tree.entries();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// The same equivalence through the `*_olc` names the benchmark's
    /// index probes call.
    #[test]
    fn olc_equivalent_to_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let arena = Arena::create(DramMemory::new(1 << 22));
        let tree = BTreeHandle::create(&arena);
        let stats = OlcStats;
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert_olc(&k, v, &stats), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove_olc(&k, &stats), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get_olc(&k, &stats), model.get(&k).copied());
                }
            }
        }
        tree.check_invariants();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(tree.entries(), want);
    }

    /// Range scans agree with the BTreeMap model for arbitrary bounds.
    #[test]
    fn range_scans_match_model(
        kvs in prop::collection::vec((key_strategy(), any::<u64>()), 1..200),
        lo in key_strategy(),
        hi in key_strategy(),
    ) {
        let arena = Arena::create(DramMemory::new(1 << 22));
        let tree = BTreeHandle::create(&arena);
        let mut model = BTreeMap::new();
        for (k, v) in kvs {
            tree.insert(&k, v);
            model.insert(k, v);
        }
        // Closed-open range [lo, hi). (std's range() panics on inverted
        // bounds; ours just yields nothing.)
        let mut got = vec![];
        tree.for_each_range(&lo, Some(&hi), |k, v| got.push((k.to_vec(), v)));
        let want: Vec<_> = if lo < hi {
            model
                .range::<[u8], _>((
                    std::ops::Bound::Included(&lo[..]),
                    std::ops::Bound::Excluded(&hi[..]),
                ))
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        } else {
            vec![]
        };
        prop_assert_eq!(got, want);
        // Open-ended range [lo, ∞).
        let mut got = vec![];
        tree.for_each_range(&lo, None, |k, v| got.push((k.to_vec(), v)));
        let want: Vec<_> = model
            .range::<[u8], _>((std::ops::Bound::Included(&lo[..]), std::ops::Bound::Unbounded))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Prefix scans return exactly the keys with that prefix, in order.
    #[test]
    fn prefix_scans_match_model(
        kvs in prop::collection::vec((key_strategy(), any::<u64>()), 1..200),
        prefix in key_strategy(),
    ) {
        let arena = Arena::create(DramMemory::new(1 << 22));
        let tree = BTreeHandle::create(&arena);
        let mut model = BTreeMap::new();
        for (k, v) in kvs {
            tree.insert(&k, v);
            model.insert(k, v);
        }
        let mut got = vec![];
        tree.for_each_prefix(&prefix, |k, v| got.push((k.to_vec(), v)));
        let want: Vec<_> = model
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// A copied region re-attached as a second tree is observationally
    /// equal — the checkpoint shadow-copy property.
    #[test]
    fn region_copy_is_observationally_equal(
        kvs in prop::collection::vec((key_strategy(), any::<u64>()), 1..150)
    ) {
        let a = Arena::create(DramMemory::new(1 << 22));
        let tree = BTreeHandle::create(&a);
        let mut model = BTreeMap::new();
        for (k, v) in kvs {
            tree.insert(&k, v);
            model.insert(k, v);
        }
        let b = Arena::create(DramMemory::new(1 << 22));
        a.copy_allocated_to(&b);
        let shadow = BTreeHandle::attach(&b, tree.header_ptr());
        shadow.check_invariants();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(shadow.entries(), want);
    }
}
