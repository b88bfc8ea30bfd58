//! Per-layer metrics read from outside the crates: deltas of the public
//! counter snapshot over the measured window (source C) and means of the
//! in-program trace segments (source S). Both come through
//! `TelemetrySnapshot`, which the embedded store and the wire protocol
//! expose identically, so `server_rate` reads the same names over TCP.

use crate::report::Outcome;
use crate::stats::median;
use dstore_telemetry::{OpTrace, TelemetrySnapshot, NUM_SEGMENTS, SEGMENT_NAMES};

pub struct Window<'a> {
    pub before: &'a TelemetrySnapshot,
    pub after: &'a TelemetrySnapshot,
    /// Value bytes of the puts acknowledged in the window.
    pub user_bytes_written: u64,
    /// Live objects at the end of the window.
    pub objects: u64,
}

/// Sum of the counters called `name` that carry the label `key=value`.
pub fn labelled(s: &TelemetrySnapshot, name: &str, key: &str, value: &str) -> u64 {
    s.counters
        .iter()
        .filter(|c| c.name == name && c.labels.iter().any(|(k, v)| k == key && v == value))
        .map(|c| c.value)
        .sum()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

impl Window<'_> {
    fn delta(&self, name: &str) -> u64 {
        self.after
            .counter_total(name)
            .saturating_sub(self.before.counter_total(name))
    }

    fn ops(&self, op: &str) -> u64 {
        labelled(self.after, "dstore_ops_total", "op", op).saturating_sub(labelled(
            self.before,
            "dstore_ops_total",
            "op",
            op,
        ))
    }

    /// Fills every source-C metric.
    pub fn counters_into(&self, out: &mut Outcome) {
        let mutations = self.ops("put") + self.ops("delete");
        let gets = self.ops("get");
        let ops = mutations + gets;
        let per_mop = |n: u64| ratio(n, ops) * 1e6;

        out.set(
            "pmem.flushes_per_put",
            ratio(self.delta("dstore_pmem_flushes_total"), mutations),
            mutations,
        );
        out.set(
            "pmem.fences_per_put",
            ratio(self.delta("dstore_pmem_fences_total"), mutations),
            mutations,
        );
        out.set(
            "pmem.flush_bytes_per_put",
            ratio(self.delta("dstore_pmem_flush_bytes_total"), mutations),
            mutations,
        );
        out.set(
            "pmem.elided_lines_per_put",
            ratio(self.delta("dstore_pmem_elided_lines_total"), mutations),
            mutations,
        );
        let ckpts = self.delta("dstore_checkpoints_completed_total");
        out.set(
            "pmem.bulk_bytes_per_ckpt",
            ratio(self.delta("dstore_pmem_bulk_write_bytes_total"), ckpts),
            ckpts,
        );

        out.set(
            "ssd.write_bytes_per_user_byte",
            ratio(
                self.delta("dstore_ssd_write_bytes_total"),
                self.user_bytes_written,
            ),
            mutations,
        );
        out.set(
            "ssd.read_bytes_per_get",
            ratio(self.delta("dstore_ssd_read_bytes_total"), gets),
            gets,
        );

        out.set(
            "arena.alloc_stall_ns_per_op",
            ratio(self.delta("dstore_arena_alloc_stall_ns_total"), ops),
            ops,
        );
        let high_water: f64 = self
            .after
            .gauges
            .iter()
            .filter(|g| g.name == "dstore_arena_high_water_bytes")
            .map(|g| g.value)
            .sum();
        out.set("arena.high_water_bytes", high_water, 0);
        out.set(
            "arena.dram_bytes_per_obj",
            if self.objects == 0 {
                0.0
            } else {
                high_water / self.objects as f64
            },
            self.objects,
        );

        out.set(
            "index.restarts_per_mop",
            per_mop(self.delta("dstore_index_restarts_total")),
            ops,
        );
        out.set(
            "index.latch_waits_per_mop",
            per_mop(self.delta("dstore_index_latch_waits_total")),
            ops,
        );

        let batches = self.delta("dstore_log_commit_batches_total");
        out.set(
            "dipper.commits_per_batch",
            ratio(self.delta("dstore_log_commits_combined_total"), batches),
            batches,
        );
        out.set(
            "dipper.log_full_stalls_per_mop",
            per_mop(self.delta("dstore_log_full_stalls_total")),
            ops,
        );
        out.set("dipper.ckpts_completed", ckpts as f64, 0);
        out.set(
            "dipper.torn_commits",
            self.delta("dstore_log_torn_commits_total") as f64,
            0,
        );
        // Checkpoint apply phases that ended inside the window.
        let applies: Vec<_> = self
            .after
            .all_spans("dstore_checkpoint_spans")
            .into_iter()
            .filter(|s| {
                s.name == "apply"
                    && s.end_ns > self.before.taken_ns
                    && s.end_ns <= self.after.taken_ns
            })
            .collect();
        let apply_ms: Vec<f64> = applies
            .iter()
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        out.set(
            "dipper.ckpt_apply_ms",
            median(&apply_ms),
            applies.len() as u64,
        );
        let (recs, ns) = applies
            .iter()
            .fold((0u64, 0u64), |(r, n), s| (r + s.b, n + s.duration_ns()));
        out.set("dipper.ckpt_recs_per_s", ratio(recs, ns) * 1e9, recs);

        out.set(
            "core.ww_conflicts_per_mop",
            per_mop(self.delta("dstore_ww_conflicts_total")),
            ops,
        );
        out.set(
            "core.rw_backoffs_per_mop",
            per_mop(self.delta("dstore_rw_backoffs_total")),
            ops,
        );
        out.set(
            "core.replay_serial_fallbacks",
            self.delta("dstore_replay_serial_fallbacks_total") as f64,
            0,
        );
    }
}

/// Means over the sampled in-program traces that started at or after
/// `from_ns`.
pub struct SegmentMeans {
    pub traces: u64,
    pub first_start_ns: u64,
    /// Mean ns per traced op, by segment, over all op kinds.
    pub seg: [f64; NUM_SEGMENTS],
    /// Per op kind (`"put"`, `"get"`, `"delete"`): count, mean in-program
    /// duration, mean of the segment sum.
    pub by_op: Vec<(&'static str, u64, f64, f64)>,
}

pub fn segment_means(snapshot: &TelemetrySnapshot, from_ns: u64) -> SegmentMeans {
    let traces: Vec<OpTrace> = snapshot
        .all_traces("dstore_op_traces")
        .into_iter()
        .filter(|t| t.sampled && t.start_ns >= from_ns)
        .collect();
    let n = traces.len() as f64;
    let mut seg = [0.0; NUM_SEGMENTS];
    for t in &traces {
        for (acc, ns) in seg.iter_mut().zip(t.seg_ns) {
            *acc += ns as f64;
        }
    }
    if n > 0.0 {
        seg.iter_mut().for_each(|s| *s /= n);
    }
    let mut by_op: Vec<(&'static str, u64, f64, f64)> = Vec::new();
    for t in &traces {
        let segsum: u64 = t.seg_ns.iter().sum();
        match by_op.iter_mut().find(|e| e.0 == t.op) {
            Some(e) => {
                e.1 += 1;
                e.2 += t.duration_ns() as f64;
                e.3 += segsum as f64;
            }
            None => by_op.push((t.op, 1, t.duration_ns() as f64, segsum as f64)),
        }
    }
    for e in &mut by_op {
        e.2 /= e.1 as f64;
        e.3 /= e.1 as f64;
    }
    SegmentMeans {
        traces: traces.len() as u64,
        first_start_ns: traces.iter().map(|t| t.start_ns).min().unwrap_or(0),
        seg,
        by_op,
    }
}

impl SegmentMeans {
    /// Fills every `seg.*` metric.
    pub fn fill(&self, out: &mut Outcome) {
        for (i, name) in SEGMENT_NAMES.iter().enumerate() {
            // The names are fixed by spec::PER_LAYER; map by segment name.
            let metric: &'static str = match *name {
                "log_append" => "seg.log_append_ns",
                "alloc" => "seg.alloc_ns",
                "index" => "seg.index_ns",
                "ssd_write" => "seg.ssd_write_ns",
                "commit" => "seg.commit_ns",
                "lookup" => "seg.lookup_ns",
                "ssd_read" => "seg.ssd_read_ns",
                "cc_wait" => "seg.cc_wait_ns",
                "log_stall" => "seg.log_stall_ns",
                "log_flush" => "seg.log_flush_ns",
                "net_queue" => "seg.net_queue_ns",
                _ => continue,
            };
            out.set(metric, self.seg[i], self.traces);
        }
    }

    pub fn op(&self, op: &str) -> Option<(u64, f64, f64)> {
        self.by_op
            .iter()
            .find(|e| e.0 == op)
            .map(|e| (e.1, e.2, e.3))
    }
}
