//! Property test: a [`ShardedStore`] over any sequence of operations —
//! including checkpoints and full crash/recover cycles mid-sequence —
//! is observationally equivalent to a flat `BTreeMap` model. This is
//! the single-store §3.6 guarantee lifted to the partition: routing,
//! shard-map persistence, and per-shard recovery must compose without
//! losing or misplacing a key.

use dstore::{DStoreConfig, OpenMode};
use dstore_shard::{ShardedConfig, ShardedStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, len: usize },
    Delete { key: u8 },
    Append { key: u8, len: usize },
    Checkpoint,
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..16, 0usize..6000).prop_map(|(key, len)| Op::Put { key, len }),
        2 => (0u8..16).prop_map(|key| Op::Delete { key }),
        2 => (0u8..16, 1usize..2000).prop_map(|(key, len)| Op::Append { key, len }),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::CrashRecover),
    ]
}

fn sharded(shards: u32) -> ShardedConfig {
    // Explicit checkpoints only: per-shard auto-checkpoint would make
    // crash points nondeterministic.
    ShardedConfig::new(shards, DStoreConfig::small().with_auto_checkpoint(false))
}

fn run_case(ops: &[Op], shards: u32) -> Result<(), TestCaseError> {
    let mut store = ShardedStore::create(sharded(shards)).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put { key, len } => {
                let k = format!("k{key}").into_bytes();
                let v = vec![key.wrapping_mul(31); *len];
                store.context().put(&k, &v).unwrap();
                model.insert(k, v);
            }
            Op::Delete { key } => {
                let k = format!("k{key}").into_bytes();
                let expect = model.remove(&k);
                let got = store.context().delete(&k);
                prop_assert_eq!(got.is_ok(), expect.is_some());
            }
            Op::Append { key, len } => {
                let k = format!("k{key}").into_bytes();
                let ctx = store.context();
                match model.get_mut(&k) {
                    Some(v) => {
                        let add = vec![key.wrapping_mul(17) ^ 0x5A; *len];
                        let obj = ctx.open(&k, OpenMode::Write).expect("model says it exists");
                        obj.write(&add, v.len() as u64).unwrap();
                        v.extend_from_slice(&add);
                    }
                    None => {
                        prop_assert!(ctx.open(&k, OpenMode::Write).is_err());
                    }
                }
            }
            Op::Checkpoint => store.checkpoint_now(),
            Op::CrashRecover => {
                let images = store.crash();
                store = ShardedStore::recover(images).unwrap();
                prop_assert_eq!(store.shard_count(), shards);
            }
        }
    }
    // Final crash + recovery, then full model comparison.
    let images = store.crash();
    let store = ShardedStore::recover(images).unwrap();
    let ctx = store.context();
    let names = ctx.list();
    prop_assert_eq!(names.len(), model.len());
    prop_assert_eq!(store.object_count() as usize, model.len());
    for (k, v) in &model {
        prop_assert_eq!(&ctx.get(k).unwrap(), v);
    }
    // The recovered partition accepts new work on every shard's path.
    for i in 0..32u32 {
        let k = format!("fresh{i}").into_bytes();
        ctx.put(&k, b"ok").unwrap();
        prop_assert_eq!(ctx.get(&k).unwrap(), b"ok");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn three_shard_model_equivalence(ops in prop::collection::vec(op_strategy(), 1..50)) {
        run_case(&ops, 3)?;
    }

    #[test]
    fn single_shard_degenerates_to_dstore(ops in prop::collection::vec(op_strategy(), 1..40)) {
        run_case(&ops, 1)?;
    }
}
