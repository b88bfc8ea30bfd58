//! Binary codecs for the store-side observability payloads:
//! [`ObjectStat`], [`HealthSnapshot`], and the
//! [`CrashReport`] shell.
//!
//! Everything the telemetry layer defines — the [`TelemetrySnapshot`]
//! IR, op traces, black-box events and heartbeats — is encoded by the
//! shared [`dstore_telemetry::codec`], the same codec the black box
//! persists with. That is what lets `dstore_top --server` and any other
//! remote consumer reuse the exact in-process rendering path: the
//! decoded snapshot is the same `TelemetrySnapshot` the registry
//! produces, so `merged_histogram`, `TailAttribution::from_traces`,
//! `to_prometheus`, and the Perfetto exporter all work unchanged on the
//! client side of a socket. Decoded names go through the codec's one
//! capped intern table.
//!
//! [`TelemetrySnapshot`]: dstore_telemetry::TelemetrySnapshot

use dstore::{CrashReport, DsError, DsResult, HealthSnapshot, ObjectStat};
use dstore_telemetry::codec::{
    intern, read_event, read_heartbeat, read_list, read_traces, write_event, write_heartbeat,
    write_list, write_trace, Reader, Writer,
};

// ---------------------------------------------------------------------
// small fixed payloads

pub(crate) fn write_object_stat(w: &mut Writer, s: &ObjectStat) {
    w.u64(s.size);
    w.u32(s.version);
    w.u64(s.blocks);
    w.u64(s.mtime_lsn);
}

pub(crate) fn read_object_stat(r: &mut Reader<'_>) -> DsResult<ObjectStat> {
    Ok(ObjectStat {
        size: r.u64()?,
        version: r.u32()?,
        blocks: r.u64()?,
        mtime_lsn: r.u64()?,
    })
}

pub(crate) fn write_health(w: &mut Writer, h: &HealthSnapshot) {
    w.u64(h.checkpoint_panics);
    w.str16(h.checkpoint_phase);
    w.u64(h.checkpoints_completed);
    w.f64(h.log_used_fraction);
    w.u64(h.log_full_stalls);
    w.u64(h.spans_dropped);
}

pub(crate) fn read_health(r: &mut Reader<'_>) -> DsResult<HealthSnapshot> {
    Ok(HealthSnapshot {
        checkpoint_panics: r.u64()?,
        checkpoint_phase: intern(r.str16()?),
        checkpoints_completed: r.u64()?,
        log_used_fraction: r.f64()?,
        log_full_stalls: r.u64()?,
        spans_dropped: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// crash reports (post-mortem)

/// The report's own fields around the shared heartbeat, event and
/// trace records.
fn write_crash_report(w: &mut Writer, r: &CrashReport) {
    w.u8(r.clean as u8);
    match &r.heartbeat {
        Some(hb) => {
            w.u8(1);
            write_heartbeat(w, hb);
        }
        None => w.u8(0),
    }
    write_list(w, &r.events, write_event);
    write_list(w, &r.traces, write_trace);
    w.u64(r.log_tail_lsn);
    w.u64(r.replayed_records);
}

fn read_crash_report(r: &mut Reader<'_>) -> DsResult<CrashReport> {
    let clean = r.u8()? != 0;
    let heartbeat = match r.u8()? {
        0 => None,
        1 => Some(read_heartbeat(r)?),
        other => {
            return Err(DsError::Protocol(format!(
                "bad heartbeat presence byte {other}"
            )))
        }
    };
    Ok(CrashReport {
        clean,
        heartbeat,
        // Tag, empty name and three u64s.
        events: read_list(r, 26, read_event)?,
        traces: read_traces(r)?,
        log_tail_lsn: r.u64()?,
        replayed_records: r.u64()?,
    })
}

pub(crate) fn write_crash_reports(w: &mut Writer, reports: &[Option<CrashReport>]) {
    write_list(w, reports, |w, report| match report {
        Some(report) => {
            w.u8(1);
            write_crash_report(w, report);
        }
        None => w.u8(0),
    });
}

pub(crate) fn read_crash_reports(r: &mut Reader<'_>) -> DsResult<Vec<Option<CrashReport>>> {
    let n = r.count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.u8()? {
            0 => None,
            1 => Some(read_crash_report(r)?),
            other => {
                return Err(DsError::Protocol(format!(
                    "bad crash-report presence byte {other}"
                )))
            }
        });
    }
    Ok(out)
}
