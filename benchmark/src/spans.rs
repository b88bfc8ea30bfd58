//! Harness-side spans for the traced run: recorded around the calls into
//! the store (not inside it), kept in memory, written out as Chrome
//! trace-event JSON when the run ends, and folded into a self-time table
//! (self = span − children).

use crate::json::escape;
use dstore_telemetry::now_ns;
use std::collections::BTreeMap;
use std::io::Write;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index + 1 of the parent span in the same thread's log; 0 = root.
    pub parent: u32,
    /// The operation (or cycle) this span belongs to; spans of one
    /// request share it.
    pub op: u32,
}

/// One thread's span log. A disabled log records nothing, so the
/// untraced run pays one predictable branch per call site.
pub struct SpanLog {
    pub tid: u32,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(tid: u32, enabled: bool, capacity: usize) -> Self {
        SpanLog {
            tid,
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; returns its id for use as a parent.
    #[inline]
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = now_ns();
        let out = f();
        self.push(name, t0, now_ns(), parent, op);
        out
    }

    /// Opens a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        self.push(name, now_ns(), 0, parent, op)
    }

    pub fn close(&mut self, id: u32) {
        if id > 0 {
            self.spans[id as usize - 1].end = now_ns();
        }
    }
}

#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals with self time = duration − time covered by children.
pub fn self_times(logs: &[&SpanLog]) -> BTreeMap<&'static str, SelfTime> {
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.end.saturating_sub(s.start);
            }
        }
        for (s, kids) in log.spans.iter().zip(child_ns) {
            let dur = s.end.saturating_sub(s.start);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(kids);
        }
    }
    out
}

/// Mean duration of the spans called `name` that start at or after
/// `from_ns`, and how many there were.
pub fn mean_since(logs: &[&SpanLog], name: &str, from_ns: u64) -> (f64, u64) {
    let (mut sum, mut n) = (0u64, 0u64);
    for s in logs.iter().flat_map(|l| &l.spans) {
        if s.name == name && s.start >= from_ns {
            sum += s.end.saturating_sub(s.start);
            n += 1;
        }
    }
    (if n == 0 { 0.0 } else { sum as f64 / n as f64 }, n)
}

/// Most per-operation spans a trace file keeps per thread (a full run has
/// millions; the table above is computed from all of them in memory).
const MAX_EVENTS_PER_THREAD: usize = 20_000;

/// Writes Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(
    path: &std::path::Path,
    process: &str,
    logs: &[&SpanLog],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{}\"}}}}",
        escape(process)
    )?;
    for log in logs {
        for (i, s) in log.spans.iter().take(MAX_EVENTS_PER_THREAD).enumerate() {
            write!(
                w,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                escape(s.name),
                log.tid,
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                i + 1,
                s.parent,
                s.op
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(0, true, 8);
        let op = log.push("op", 100, 200, 0, 1);
        log.push("call", 110, 170, op, 1);
        log.push("verify", 170, 190, op, 1);
        let t = self_times(&[&log]);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["call"].self_ns, 60);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(0, false, 8);
        assert_eq!(log.push("op", 1, 2, 0, 0), 0);
        let id = log.open("x", 0, 0);
        log.close(id);
        assert!(log.spans.is_empty());
    }
}
