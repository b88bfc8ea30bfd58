//! Property tests for the per-op flight recorder: ring wraparound keeps
//! the newest traces with payloads intact, and concurrent writers
//! lapping the ring never produce a torn trace in any snapshot.

use dstore_telemetry::trace::{OpTrace, TraceRing, NUM_SEGMENTS};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

static PHASES: [&str; 3] = ["idle", "apply", "flush"];

/// A trace whose every field is derived from `k`, so a reader can
/// verify internal consistency from `start_ns` alone: any cross-writer
/// tear breaks at least one derived equality.
fn derived(k: u64) -> OpTrace {
    let mut seg_ns = [0u64; NUM_SEGMENTS];
    for (i, s) in seg_ns.iter_mut().enumerate() {
        *s = k.wrapping_mul(i as u64 + 1) & 0xFFFF;
    }
    OpTrace {
        op: "put",
        start_ns: k + 1,
        end_ns: k + 1 + (k % 1000),
        seg_ns,
        phase: PHASES[(k % 3) as usize],
        log_used_milli: (k % 1001) as u32,
        sampled: k.is_multiple_of(2),
        slo: k.is_multiple_of(3),
        seq: 0,
    }
}

fn assert_consistent(t: &OpTrace) {
    let k = t.start_ns - 1;
    let expect = derived(k);
    assert_eq!(t.end_ns, expect.end_ns, "torn trace: {t:?}");
    assert_eq!(t.seg_ns, expect.seg_ns, "torn trace: {t:?}");
    assert_eq!(t.phase, expect.phase, "torn trace: {t:?}");
    assert_eq!(t.log_used_milli, expect.log_used_milli, "torn trace: {t:?}");
    assert_eq!(t.sampled, expect.sampled, "torn trace: {t:?}");
    assert_eq!(t.slo, expect.slo, "torn trace: {t:?}");
    assert_eq!(t.op, "put");
}

proptest! {
    /// For any capacity and write count, the snapshot after quiescence
    /// holds exactly the newest `min(n, capacity)` traces in seq order
    /// with payloads intact.
    #[test]
    fn prop_wraparound_keeps_newest_payloads_intact(
        capacity in 1usize..64,
        n in 0u64..300,
    ) {
        let ring = TraceRing::new(capacity);
        for k in 0..n {
            ring.record(&derived(k));
        }
        prop_assert_eq!(ring.recorded(), n);
        prop_assert_eq!(ring.dropped(), 0);
        let traces = ring.snapshot();
        let survivors = (n as usize).min(capacity);
        prop_assert_eq!(traces.len(), survivors);
        for (i, t) in traces.iter().enumerate() {
            let seq = n - survivors as u64 + i as u64;
            prop_assert_eq!(t.seq, seq);
            assert_consistent(t);
        }
    }
}

proptest! {
    // Thread-spawning cases are expensive; a few diverse shapes suffice
    // to exercise claim/lap/publish interleavings on a tiny ring.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent writers lapping the ring while a reader snapshots:
    /// no snapshot ever observes a torn trace, and the accounting
    /// (recorded / dropped / surviving slots) adds up.
    #[test]
    fn prop_concurrent_wraparound_never_tears(
        capacity in 1usize..16,
        writers in 2u64..5,
        per_writer in 200u64..1500,
    ) {
        let ring = Arc::new(TraceRing::new(capacity));
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Snapshot first, check `done` after: the reader may be
                // scheduled only once the writers have finished.
                let mut snapshots = 0u64;
                loop {
                    for t in ring.snapshot() {
                        assert_consistent(&t);
                    }
                    snapshots += 1;
                    if done.load(Ordering::Acquire) {
                        return snapshots;
                    }
                }
            })
        };

        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        ring.record(&derived(w * per_writer + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let snapshots = reader.join().unwrap();
        prop_assert!(snapshots > 0);

        prop_assert_eq!(ring.recorded(), writers * per_writer);
        prop_assert!(ring.dropped() <= ring.recorded());
        // Dropped slots keep their previous (still consistent) trace;
        // the quiescent ring is full once enough traces were written.
        let quiescent = ring.snapshot();
        prop_assert_eq!(
            quiescent.len() as u64,
            (capacity as u64).min(writers * per_writer)
        );
        for t in &quiescent {
            assert_consistent(t);
        }
    }
}
