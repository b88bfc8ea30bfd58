//! The one intern table behind both decoders stays bounded. Names fed
//! through the wire decoder and the black-box record decoder land in
//! the same table; past `MAX_INTERNED` it stops growing and every new
//! name decodes to `"?"` on either path.
//!
//! A test binary of its own: it fills the process-wide table, which
//! would starve any other test decoding names in the same process.

use dstore_protocol::wire::{encode_response, FrameDecoder, Response};
use dstore_telemetry::codec::{
    interned_len, read_event, write_event, Reader, Writer, MAX_INTERNED,
};
use dstore_telemetry::{BlackBoxEvent, OpTrace, TelemetrySnapshot, NUM_SEGMENTS};

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Decoded `op` names of `names` sent as traces in one telemetry frame.
fn through_wire(names: &[&'static str]) -> Vec<&'static str> {
    let traces = names
        .iter()
        .enumerate()
        .map(|(i, &op)| OpTrace {
            op,
            start_ns: i as u64,
            end_ns: i as u64 + 1,
            seg_ns: [0; NUM_SEGMENTS],
            phase: "idle",
            log_used_milli: 0,
            sampled: true,
            slo: false,
            seq: i as u64,
        })
        .collect();
    let mut snap = TelemetrySnapshot::new();
    snap.push_traces("dstore_op_traces", vec![], traces);
    let mut stream = Vec::new();
    encode_response(1, &Response::Telemetry(snap), &mut stream);
    let mut dec = FrameDecoder::new();
    dec.push(&stream);
    let Some((1, Ok(Response::Telemetry(got)))) = dec.next_response().unwrap() else {
        panic!("expected one telemetry frame");
    };
    got.all_traces("dstore_op_traces")
        .iter()
        .map(|t| t.op)
        .collect()
}

/// Decoded name of a black-box event record named `name`.
fn through_blackbox(name: &'static str) -> &'static str {
    let mut w = Writer::default();
    write_event(
        &mut w,
        &BlackBoxEvent {
            name,
            mono_ns: 1,
            a: 2,
            b: 3,
        },
    );
    read_event(&mut Reader::new(&w.0)).unwrap().name
}

#[test]
fn one_intern_table_stays_at_its_cap() {
    let seeded = interned_len();
    assert!(seeded < MAX_INTERNED / 2, "{seeded} seeded names");

    // Half the headroom through the wire, in frames of 1 000 traces.
    let wire_names = (MAX_INTERNED - seeded) / 2;
    for chunk in (0..wire_names).collect::<Vec<_>>().chunks(1_000) {
        let names: Vec<_> = chunk.iter().map(|i| leak(format!("wire-{i}"))).collect();
        assert_eq!(through_wire(&names), names);
    }
    assert_eq!(interned_len(), seeded + wire_names);

    // The rest, and 1 000 more, through the black-box decoder.
    let room = MAX_INTERNED - interned_len();
    for i in 0..room + 1_000 {
        let name = leak(format!("blackbox-{i}"));
        let want = if i < room { name } else { "?" };
        assert_eq!(through_blackbox(name), want, "name {i}");
    }
    assert_eq!(interned_len(), MAX_INTERNED);

    // Full: a new name is "?" on both paths, and known names still
    // decode to themselves.
    assert_eq!(through_wire(&["never-seen-wire"]), ["?"]);
    assert_eq!(through_blackbox("never-seen-blackbox"), "?");
    assert_eq!(through_wire(&["wire-0", "put"]), ["wire-0", "put"]);
    assert_eq!(through_blackbox("blackbox-0"), "blackbox-0");
    assert_eq!(interned_len(), MAX_INTERNED);
}
