//! Property tests for the log's crash behaviour: for any sequence of
//! appends/commits/aborts/swaps with spurious cache-line evictions
//! sprinkled in, a crash leaves the log in a state where
//!
//! 1. every committed record is recovered intact (durability),
//! 2. no pending/aborted record is ever replayed (atomicity),
//! 3. the recovery walk terminates with strictly increasing LSNs,
//! 4. recovering twice yields the same plan (idempotency).
//!
//! (Write-write CC is exercised elsewhere; this test appends freely, so
//! per-object recovery content is compared as a multiset.)

use dstore_dipper::record::{Header, COMMIT_COMMITTED};
use dstore_dipper::{recover_scan, DipperConfig, OpLog, PmemLayout, RecordHandle, Root};
use dstore_pmem::PmemPool;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Append a record for object `key` with a payload derived from it.
    Append { key: u8, payload: u8 },
    /// Commit one of the still-pending appends.
    Commit { idx: usize },
    /// Abort one of the still-pending appends.
    Abort { idx: usize },
    /// Swap the logs (checkpoint start) and complete the checkpoint
    /// immediately, recycling the archived side.
    SwapAndComplete,
    /// Spuriously evict random cache lines across the log area.
    Evict { count: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>()).prop_map(|(key, payload)| Op::Append { key, payload }),
        3 => (0usize..8).prop_map(|idx| Op::Commit { idx }),
        1 => (0usize..8).prop_map(|idx| Op::Abort { idx }),
        1 => Just(Op::SwapAndComplete),
        1 => (1u8..16).prop_map(|count| Op::Evict { count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn committed_records_survive_any_crash(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let cfg = DipperConfig {
            log_size: 1 << 16,
            shadow_size: 64 << 10,
        };
        let layout = PmemLayout::new(&cfg);
        let pool = Arc::new(PmemPool::strict(layout.total));
        let root = Arc::new(Root::format(
            Arc::clone(&pool),
            layout.log_size as u64,
            layout.shadow_size as u64,
        ));
        let log = OpLog::create(Arc::clone(&pool), layout);

        let mut handles: HashMap<u64, RecordHandle> = HashMap::new();
        // Pending appends: (lsn, name, params).
        let mut pending: Vec<(u64, Vec<u8>, Vec<u8>)> = vec![];
        // Records the recovery replay must return (committed, in the
        // current active log).
        let mut committed_since_swap: Vec<(Vec<u8>, Vec<u8>)> = vec![];

        for op in &ops {
            match op {
                Op::Append { key, payload } => {
                    let name = format!("obj{}", key % 16).into_bytes();
                    let params = vec![*payload; (*payload as usize % 24) + 1];
                    if let Ok(r) = log.try_append(7, &name, &params) {
                        handles.insert(r.lsn, r.handle);
                        pending.push((r.lsn, name, params));
                    }
                }
                Op::Commit { idx } => {
                    if !pending.is_empty() {
                        let (lsn, name, params) = pending.remove(idx % pending.len());
                        log.commit(handles[&lsn]);
                        committed_since_swap.push((name, params));
                    }
                }
                Op::Abort { idx } => {
                    if !pending.is_empty() {
                        let (lsn, _, _) = pending.remove(idx % pending.len());
                        log.abort(handles[&lsn]);
                    }
                }
                Op::SwapAndComplete => {
                    log.swap(|| {
                        root.begin_checkpoint();
                    });
                    root.commit_checkpoint();
                    // Archived commits are now "applied" — replay resets.
                    committed_since_swap.clear();
                }
                Op::Evict { count } => {
                    pool.evict_random_in(
                        layout.log[0],
                        2 * (layout.log_size + 64),
                        *count as usize,
                    );
                }
            }
        }

        // Crash.
        pool.simulate_crash();
        let plan1 = recover_scan(&pool, &layout, &root);
        let replay: Vec<_> = plan1
            .replay_records
            .iter()
            // SAFETY: nothing writes the pool until the next crash, after
            // the last use of these views.
            .map(|&off| unsafe { Header::read(&pool, off).view(&pool, off) })
            .collect();

        // (2): only committed records replay.
        for r in &replay {
            prop_assert_eq!(r.commit, COMMIT_COMMITTED);
        }

        // (1): the replay set equals the model's committed set, compared
        // per object as a multiset (records pad params to 8 bytes, so
        // compare the unpadded prefix).
        let project = |pairs: Vec<(Vec<u8>, Vec<u8>)>| {
            let mut m: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
            for (n, p) in pairs {
                m.entry(n).or_default().push(p);
            }
            for v in m.values_mut() {
                v.sort();
            }
            m
        };
        // Record padding bytes are unspecified (recycled buffers keep
        // stale bytes); our test params are self-describing — the first
        // byte determines the true length — so truncate before comparing.
        let truncate = |p: &[u8]| {
            let len = (p[0] as usize % 24) + 1;
            p[..len].to_vec()
        };
        let got = project(
            replay
                .iter()
                .map(|r| (r.name.to_vec(), truncate(r.params)))
                .collect(),
        );
        let want = project(committed_since_swap.clone());
        prop_assert_eq!(got.len(), want.len(), "object sets differ");
        for (name, want_params) in &want {
            let got_params = &got[name];
            prop_assert_eq!(got_params, want_params, "params for {:?}", name);
        }

        // (3): strictly increasing LSNs.
        for w in replay.windows(2) {
            prop_assert!(w[0].lsn < w[1].lsn, "walk order broken");
        }

        // (4): idempotent.
        pool.simulate_crash();
        let plan2 = recover_scan(&pool, &layout, &root);
        prop_assert_eq!(plan1.replay_records, plan2.replay_records);
        prop_assert_eq!(plan1.active_tail, plan2.active_tail);
    }
}
