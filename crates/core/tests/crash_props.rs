//! Property test: for any sequence of operations, any checkpoint
//! placement, and a crash at the end, the recovered store is
//! observationally equivalent to a model that saw exactly the completed
//! operations — the paper's §3.6 guarantee.

use dstore::{CheckpointMode, DStore, DStoreConfig, LoggingMode};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put {
        key: u8,
        len: usize,
    },
    Delete {
        key: u8,
    },
    /// `owrite` appending `len` bytes to an existing object (filesystem
    /// API path: OP_EXTEND records).
    Append {
        key: u8,
        len: usize,
    },
    /// `olock` whose guard is leaked — a pending NOOP record at crash
    /// time, which recovery must discard.
    LeakLock {
        key: u8,
    },
    Checkpoint,
    SwapOnly,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..12, 0usize..9000).prop_map(|(key, len)| Op::Put { key, len }),
        2 => (0u8..12).prop_map(|key| Op::Delete { key }),
        2 => (0u8..12, 1usize..3000).prop_map(|(key, len)| Op::Append { key, len }),
        1 => (0u8..12).prop_map(|key| Op::LeakLock { key }),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::SwapOnly),
    ]
}

fn run_case(
    ops: &[Op],
    ckpt: CheckpointMode,
    logging: LoggingMode,
    oe: bool,
) -> Result<(), TestCaseError> {
    let cfg = DStoreConfig::small()
        .with_checkpoint(ckpt)
        .with_logging(logging)
        .with_oe(oe)
        .with_auto_checkpoint(false);
    let s = DStore::create(cfg).unwrap();
    let ctx = s.context();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut swapped = false;
    for op in ops {
        match op {
            Op::Put { key, len } => {
                let k = format!("k{key}").into_bytes();
                let v = vec![key.wrapping_mul(31); *len];
                ctx.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            Op::Delete { key } => {
                let k = format!("k{key}").into_bytes();
                let expect = model.remove(&k);
                let got = ctx.delete(&k);
                prop_assert_eq!(got.is_ok(), expect.is_some());
            }
            Op::Append { key, len } => {
                let k = format!("k{key}").into_bytes();
                match model.get_mut(&k) {
                    Some(v) => {
                        let add = vec![key.wrapping_mul(17) ^ 0x5A; *len];
                        let obj = ctx
                            .open(&k, dstore::OpenMode::Write)
                            .expect("model says it exists");
                        obj.write(&add, v.len() as u64).unwrap();
                        v.extend_from_slice(&add);
                    }
                    None => {
                        prop_assert!(ctx.open(&k, dstore::OpenMode::Write).is_err());
                    }
                }
            }
            Op::LeakLock { key } => {
                let k = format!("lock{key}").into_bytes();
                // Only one leaked lock per name per run: a second olock on
                // the same name by this ctx passes (own lock) and would
                // stack another pending record — allowed, so just leak.
                let lock = ctx.lock(&k).unwrap();
                std::mem::forget(lock);
            }
            Op::Checkpoint => {
                s.checkpoint_now();
                swapped = false;
            }
            Op::SwapOnly => {
                // Only one interrupted checkpoint can be outstanding
                // (a second swap requires the first apply to finish).
                if !swapped && ckpt == CheckpointMode::Dipper {
                    s.begin_checkpoint_swap_only();
                    swapped = true;
                }
            }
        }
    }
    drop(ctx);
    prop_assert_eq!(s.replay_stats().divergences, 0, "checkpoint replay");
    let s2 = DStore::recover(s.crash()).unwrap();
    prop_assert_eq!(s2.replay_stats().divergences, 0, "recovery replay");
    let ctx = s2.context();
    let names = ctx.list();
    prop_assert_eq!(names.len(), model.len());
    for (k, v) in &model {
        prop_assert_eq!(&ctx.get(k).unwrap(), v);
    }
    // Recovered store accepts new work.
    ctx.put(b"fresh", b"ok").unwrap();
    prop_assert_eq!(ctx.get(b"fresh").unwrap(), b"ok");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dipper_logical_crash_equivalence(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_case(&ops, CheckpointMode::Dipper, LoggingMode::Logical, true)?;
    }

    #[test]
    fn dipper_physical_crash_equivalence(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_case(&ops, CheckpointMode::Dipper, LoggingMode::Physical, true)?;
    }

    #[test]
    fn cow_logical_crash_equivalence(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_case(&ops, CheckpointMode::Cow, LoggingMode::Logical, true)?;
    }

    // Global-lock legs: the "-OE" ablation point (Figure 9), where every
    // mutation runs under the store's global lock, on both checkpoint
    // engines.
    #[test]
    fn dipper_logical_crash_equivalence_global_lock(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_case(&ops, CheckpointMode::Dipper, LoggingMode::Logical, false)?;
    }

    #[test]
    fn cow_logical_crash_equivalence_global_lock(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_case(&ops, CheckpointMode::Cow, LoggingMode::Logical, false)?;
    }
}
