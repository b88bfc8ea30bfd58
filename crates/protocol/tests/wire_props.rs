//! Property suite for the wire format: round-trips under arbitrary
//! chunking, and a corruption battery (truncation, bit flips, random
//! garbage, oversized length prefixes). The invariant under attack is
//! the decoder contract: every call yields a frame, asks for more
//! bytes, or fails with a clean [`DsError::Protocol`] — it never
//! panics, never loops, and never hands back a frame it did not fully
//! validate.

use dstore::{DsError, HealthSnapshot, ObjectStat, StatsSnapshot};
use dstore_protocol::wire::{
    encode_error_response, encode_request, encode_response, FrameDecoder, Request, Response,
    MAX_FRAME,
};
use proptest::prelude::*;

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..40)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..300)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        3 => (key_strategy(), value_strategy())
            .prop_map(|(key, value)| Request::Put { key, value }),
        3 => key_strategy().prop_map(|key| Request::Get { key }),
        1 => (key_strategy(), value_strategy())
            .prop_map(|(key, value)| Request::Update { key, value }),
        1 => key_strategy().prop_map(|key| Request::Delete { key }),
        1 => key_strategy().prop_map(|key| Request::Stat { key }),
        1 => key_strategy().prop_map(|key| Request::Exists { key }),
        1 => Just(Request::Stats),
        1 => Just(Request::Health),
        1 => Just(Request::TelemetrySnapshot),
        1 => Just(Request::CrashReport),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        2 => Just(Response::Ok),
        2 => value_strategy().prop_map(Response::Value),
        1 => any::<u64>().prop_map(|v| Response::Bool(v & 1 == 1)),
        1 => (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(size, blocks, lsn)| {
            Response::Stat(ObjectStat {
                size,
                version: (blocks % 1000) as u32,
                blocks,
                mtime_lsn: lsn,
            })
        }),
        1 => (any::<u64>(), any::<u64>()).prop_map(|(a, b)| {
            Response::Stats(StatsSnapshot {
                elapsed_ns: a,
                puts: b,
                gets: a ^ b,
                deletes: a.wrapping_add(b),
                writes: a >> 1,
                reads: b >> 1,
                ww_conflicts: a & 0xff,
                rw_backoffs: b & 0xff,
                log_full_stalls: (a ^ b) & 0xff,
            })
        }),
        1 => (any::<u64>(), 0u64..1000).prop_map(|(n, fill)| {
            Response::Health(HealthSnapshot {
                checkpoint_panics: n & 1,
                checkpoint_phase: if n & 2 == 0 { "idle" } else { "apply" },
                checkpoints_completed: n >> 2,
                log_used_fraction: fill as f64 / 1000.0,
                log_full_stalls: n & 0xff,
                spans_dropped: n >> 8,
            })
        }),
        1 => (any::<u64>(), any::<u64>(), 0u32..4).prop_map(|(flushes, fences, shard)| {
            // The ordering-accounting counters as a sharded fleet merge
            // exports them: per-shard labels on every series.
            let mut snap = dstore_telemetry::TelemetrySnapshot::new();
            let labels = vec![("shard".to_string(), shard.to_string())];
            snap.push_counter("dstore_pmem_flushes_total", labels.clone(), flushes);
            snap.push_counter("dstore_pmem_fences_total", labels.clone(), fences);
            snap.push_counter("dstore_pmem_dedup_lines_total", labels.clone(), flushes ^ fences);
            snap.push_counter(
                "dstore_pmem_elided_lines_total",
                labels.clone(),
                flushes.wrapping_add(fences),
            );
            // Index OLC conflict counters ride the same snapshot.
            snap.push_counter("dstore_index_restarts_total", labels.clone(), flushes >> 1);
            snap.push_counter("dstore_index_latch_waits_total", labels.clone(), fences >> 1);
            // So does the replay engine's parallel-window counter.
            snap.push_counter("dstore_replay_parallel_windows_total", labels, flushes >> 2);
            Response::Telemetry(snap)
        }),
        1 => (any::<u64>(), any::<u64>()).prop_map(|(lsn, n)| {
            Response::CrashReports(vec![
                None,
                Some(dstore::CrashReport {
                    clean: n & 1 == 0,
                    heartbeat: (n & 2 == 0).then(|| dstore_telemetry::BlackBoxHeartbeat {
                        last_lsn: lsn,
                        checkpoint_phase: "idle",
                        log_used_milli: (n % 1000) as u32,
                        arena_high_water: n,
                        ssd_blocks_used: n >> 3,
                        wall_unix_ns: lsn ^ n,
                        mono_ns: lsn.wrapping_add(n),
                    }),
                    events: vec![dstore_telemetry::BlackBoxEvent {
                        name: "trigger",
                        mono_ns: n,
                        a: lsn,
                        b: n >> 1,
                    }],
                    traces: vec![],
                    log_tail_lsn: lsn.wrapping_add(1),
                    replayed_records: n & 0xffff,
                }),
            ])
        }),
    ]
}

fn error_strategy() -> impl Strategy<Value = DsError> {
    prop_oneof![
        Just(DsError::NotFound),
        Just(DsError::OutOfSpace),
        Just(DsError::Busy),
        Just(DsError::ReservedName),
        (0u64..999, 0u64..999)
            .prop_map(|(requested, size)| DsError::OutOfRange { requested, size }),
        key_strategy().prop_map(|k| DsError::Protocol(format!("bad {}", k.len()))),
        key_strategy().prop_map(|k| DsError::Io(format!("io {}", k.len()))),
    ]
}

/// Splits `bytes` into chunks at the (normalized) cut points and feeds
/// them to `f` one at a time — simulating arbitrary TCP segmentation.
fn feed_chunked(
    decoder: &mut FrameDecoder,
    bytes: &[u8],
    cuts: &[usize],
    mut on_chunk: impl FnMut(&mut FrameDecoder),
) {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|&c| if bytes.is_empty() { 0 } else { c % bytes.len() })
        .collect();
    points.push(bytes.len());
    points.sort_unstable();
    let mut prev = 0;
    for p in points {
        decoder.push(&bytes[prev..p]);
        prev = p;
        on_chunk(decoder);
    }
}

/// The OLC index counters survive the wire encode/decode unchanged —
/// `dstore_top --server` reads these two names from the decoded
/// snapshot, so their round-trip is pinned here by name.
#[test]
fn index_olc_counters_roundtrip_by_name() {
    let mut snap = dstore_telemetry::TelemetrySnapshot::new();
    snap.push_counter("dstore_index_restarts_total", vec![], 42);
    snap.push_counter("dstore_index_latch_waits_total", vec![], 7);
    let mut stream = Vec::new();
    encode_response(9, &Response::Telemetry(snap), &mut stream);
    let mut dec = FrameDecoder::new();
    dec.push(&stream);
    let (id, resp) = dec.next_response().unwrap().expect("one whole frame");
    assert_eq!(id, 9);
    let Ok(Response::Telemetry(got)) = resp else {
        panic!("expected a telemetry response, got {resp:?}");
    };
    assert_eq!(got.counter_total("dstore_index_restarts_total"), 42);
    assert_eq!(got.counter_total("dstore_index_latch_waits_total"), 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_roundtrip_under_any_chunking(
        reqs in prop::collection::vec((any::<u64>(), request_strategy()), 1..12),
        cuts in prop::collection::vec(any::<u64>().prop_map(|v| v as usize), 0..8),
    ) {
        let mut stream = Vec::new();
        for (id, req) in &reqs {
            encode_request(*id, req, &mut stream);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        feed_chunked(&mut dec, &stream, &cuts, |d| {
            while let Some(frame) = d.next_request().unwrap() {
                got.push(frame);
            }
        });
        prop_assert_eq!(got, reqs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn responses_and_errors_roundtrip(
        frames in prop::collection::vec(
            (any::<u64>(), prop_oneof![
                3 => response_strategy().prop_map(Ok),
                1 => error_strategy().prop_map(Err),
            ]),
            1..12,
        ),
        cuts in prop::collection::vec(any::<u64>().prop_map(|v| v as usize), 0..8),
    ) {
        let mut stream = Vec::new();
        for (id, frame) in &frames {
            match frame {
                Ok(resp) => encode_response(*id, resp, &mut stream),
                Err(e) => encode_error_response(*id, e, &mut stream),
            }
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        feed_chunked(&mut dec, &stream, &cuts, |d| {
            while let Some(frame) = d.next_response().unwrap() {
                got.push(frame);
            }
        });
        prop_assert_eq!(got.len(), frames.len());
        for ((gid, gres), (wid, wres)) in got.iter().zip(frames.iter()) {
            prop_assert_eq!(gid, wid);
            match (gres, wres) {
                (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
                // Errors compare by Display: the wire carries the stable
                // code + detail, and decode must rebuild the same text.
                (Err(g), Err(w)) => prop_assert_eq!(g.to_string(), w.to_string()),
                (g, w) => prop_assert!(false, "ok/err mismatch: {g:?} vs {w:?}"),
            }
        }
    }

    #[test]
    fn truncated_stream_never_yields_a_partial_frame(
        reqs in prop::collection::vec((any::<u64>(), request_strategy()), 1..8),
        cut in any::<u64>(),
    ) {
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for (id, req) in &reqs {
            encode_request(*id, req, &mut stream);
            boundaries.push(stream.len());
        }
        let cut = cut as usize % stream.len();
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut yielded = 0usize;
        while let Some((id, req)) = dec.next_request().unwrap() {
            // Every decoded frame must be one of the originals, intact.
            prop_assert_eq!((id, req), reqs[yielded].clone());
            yielded += 1;
        }
        // Exactly the frames whose encoding ended at or before the cut.
        let complete = boundaries.iter().filter(|&&b| b <= cut).count();
        prop_assert_eq!(yielded, complete);
    }

    #[test]
    fn bit_flips_never_panic_or_hang(
        reqs in prop::collection::vec((any::<u64>(), request_strategy()), 1..6),
        flip in any::<u64>(),
    ) {
        let mut stream = Vec::new();
        for (id, req) in &reqs {
            encode_request(*id, req, &mut stream);
        }
        let byte = (flip as usize / 8) % stream.len();
        stream[byte] ^= 1 << (flip % 8);
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        // Progress bound: the decoder can never yield more frames than
        // were encoded plus one phantom born of the flip. Each call
        // either consumes bytes, returns need-more, or poisons — so a
        // bounded loop suffices to prove no livelock.
        let mut yielded = 0usize;
        for _ in 0..reqs.len() + 2 {
            match dec.next_request() {
                Ok(Some(_)) => yielded += 1,
                Ok(None) => break,          // waiting for bytes that will never come
                Err(DsError::Protocol(msg)) => {
                    prop_assert!(!msg.is_empty());
                    // Poisoned: every later call must keep failing.
                    prop_assert!(dec.next_request().is_err());
                    break;
                }
                Err(other) => prop_assert!(false, "non-protocol error: {other}"),
            }
        }
        prop_assert!(yielded <= reqs.len() + 1, "yielded {yielded} from {} frames", reqs.len());
    }

    #[test]
    fn random_garbage_never_panics(
        garbage in prop::collection::vec(any::<u8>(), 0..4096),
        cuts in prop::collection::vec(any::<u64>().prop_map(|v| v as usize), 0..6),
    ) {
        let mut dec = FrameDecoder::new();
        feed_chunked(&mut dec, &garbage, &cuts, |d| {
            for _ in 0..64 {
                match d.next_request() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
        });
    }

    #[test]
    fn oversized_length_prefix_is_rejected_up_front(
        excess in 1u64..1 << 30,
        id in any::<u64>(),
    ) {
        // A length prefix past MAX_FRAME poisons immediately — the
        // decoder must not buffer toward an unbounded allocation.
        let len = (MAX_FRAME as u64 - 4 + excess).min(u32::MAX as u64) as u32;
        let mut dec = FrameDecoder::new();
        dec.push(&len.to_le_bytes());
        dec.push(&id.to_le_bytes()); // a few bytes of "payload"
        match dec.next_request() {
            Err(DsError::Protocol(msg)) => prop_assert!(msg.contains("frame")),
            other => prop_assert!(false, "expected protocol error, got {other:?}"),
        }
        prop_assert!(dec.next_request().is_err());
    }
}

/// Deterministic (non-property) check: a pipelined burst decodes to the
/// same frames as one-at-a-time delivery, byte-for-byte.
#[test]
fn pipelined_burst_equals_sequential_delivery() {
    let reqs: Vec<(u64, Request)> = (0..32)
        .map(|i| {
            (
                i,
                Request::Put {
                    key: format!("obj-{i}").into_bytes(),
                    value: vec![i as u8; (i as usize * 37) % 512],
                },
            )
        })
        .collect();
    let mut burst = Vec::new();
    for (id, r) in &reqs {
        encode_request(*id, r, &mut burst);
    }

    let mut all_at_once = FrameDecoder::new();
    all_at_once.push(&burst);
    let mut byte_by_byte = FrameDecoder::new();

    let mut got_burst = Vec::new();
    while let Some(f) = all_at_once.next_request().unwrap() {
        got_burst.push(f);
    }
    let mut got_dribble = Vec::new();
    for b in &burst {
        byte_by_byte.push(std::slice::from_ref(b));
        while let Some(f) = byte_by_byte.next_request().unwrap() {
            got_dribble.push(f);
        }
    }
    assert_eq!(got_burst, reqs);
    assert_eq!(got_dribble, reqs);
}
