//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` is printed from
//! these tables (`dstore_bench --print-spec`) and a test keeps the
//! committed file equal to them, so a later issue can quote a name from
//! either place.

use crate::json::escape;

/// One measured run's length in seconds, as the driver passes it.
pub const RUN_SECONDS: u32 = 15;

/// Latency limit for `server.max_rate_ok`: a rate passes when its
/// due-time p99 is at most this, it achieved ≥ 99 % of the offered rate,
/// and no request at that rate was refused or failed.
pub const SRV_LIMIT_US: f64 = 1000.0;
/// The four fixed open-loop rates of `server_rate`, total ops/s over
/// both connections. `RATES[1]` is the rate the end-to-end latencies are
/// taken at.
pub const RATES: [u64; 4] = [5_000, 10_000, 20_000, 40_000];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "put_4k",
        why: "100% 4 KB overwrites, uniform keys, 2 clients: SSD write, log, commit combiner, PMEM flushes, and a checkpoint always running behind the writers",
    },
    Workload {
        name: "get_4k",
        why: "100% 4 KB gets, zipfian keys, 2 clients: index descent, reader registry and SSD read only, so write-path work must predict no change here",
    },
    Workload {
        name: "mixed_small",
        why: "128 B values, one client mutating (60% update / 20% insert / 20% delete) beside one reading the same zipfian hot keys: index restructuring, allocator churn, frequent checkpoints",
    },
    Workload {
        name: "crash_recover",
        why: "strict PMEM, scripted mutations, crash that drops unflushed lines, timed recovery, full read-back against a model: durability and replay speed",
    },
    Workload {
        name: "server_rate",
        why: "child dstore_server, 2 connections, open-loop Poisson arrivals at four fixed rates plus a saturation leg: protocol, epoll loop, shard queues, Busy",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined per workload in README.md. A bound is one number per
/// metric for all workloads. The timing bounds are the most the contract
/// allows: ten-seed spreads are a few percent (BASELINE.json), but on
/// this shared two-core host the same binary drifted by 15-25 % within an
/// hour when a neighbour took part of a vCPU, and a bound below that
/// would reject innocent changes. Space and memory do not drift.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.06,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// C = counter delta over the measured window, P = harness-timed
    /// probe of the crate's public API, S = in-program trace segment mean,
    /// H = measured by the harness around the calls.
    pub source: char,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: char,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

pub const PER_LAYER: [PerLayer; 103] = [
    // pmem
    pl("pmem.flushes_per_put", "count", "lower", 'C'),
    pl("pmem.fences_per_put", "count", "lower", 'C'),
    pl("pmem.flush_bytes_per_put", "B", "lower", 'C'),
    pl("pmem.elided_lines_per_put", "count", "higher", 'C'),
    pl("pmem.bulk_bytes_per_ckpt", "B", "lower", 'C'),
    pl("pmem.persist_line_ns", "ns", "lower", 'P'),
    pl("pmem.persist_many_8_ns", "ns", "lower", 'P'),
    // ssd
    pl("ssd.write_4k_ns", "ns", "lower", 'P'),
    pl("ssd.write_128_ns", "ns", "lower", 'P'),
    pl("ssd.read_4k_ns", "ns", "lower", 'P'),
    pl("ssd.write_bytes_per_user_byte", "ratio", "lower", 'C'),
    pl("ssd.read_bytes_per_get", "B", "lower", 'C'),
    pl("seg.ssd_write_ns", "ns", "lower", 'S'),
    pl("seg.ssd_read_ns", "ns", "lower", 'S'),
    // arena
    pl("arena.alloc_free_128_ns", "ns", "lower", 'P'),
    pl("arena.alloc_stall_ns_per_op", "ns", "lower", 'C'),
    pl("arena.high_water_bytes", "B", "lower", 'C'),
    pl("arena.dram_bytes_per_obj", "B", "lower", 'C'),
    pl("seg.alloc_ns", "ns", "lower", 'S'),
    // index
    pl("index.get_ns", "ns", "lower", 'P'),
    pl("index.insert_ns", "ns", "lower", 'P'),
    pl("index.remove_ns", "ns", "lower", 'P'),
    pl("index.get_2t_ns", "ns", "lower", 'P'),
    pl("index.restarts_per_mop", "count", "lower", 'C'),
    pl("index.latch_waits_per_mop", "count", "lower", 'C'),
    pl("seg.index_ns", "ns", "lower", 'S'),
    pl("seg.lookup_ns", "ns", "lower", 'S'),
    // dipper
    pl("dipper.append_commit_ns", "ns", "lower", 'P'),
    pl("dipper.commits_per_batch", "count", "higher", 'C'),
    pl("dipper.log_full_stalls_per_mop", "count", "lower", 'C'),
    pl("dipper.ckpts_completed", "count", "higher", 'C'),
    pl("dipper.ckpt_apply_ms", "ms", "lower", 'C'),
    pl("dipper.ckpt_recs_per_s", "1/s", "higher", 'C'),
    pl("dipper.torn_commits", "count", "lower", 'C'),
    pl("dipper.ckpt_now_ms", "ms", "lower", 'H'),
    pl("seg.log_append_ns", "ns", "lower", 'S'),
    pl("seg.log_flush_ns", "ns", "lower", 'S'),
    pl("seg.commit_ns", "ns", "lower", 'S'),
    pl("seg.log_stall_ns", "ns", "lower", 'S'),
    // core
    pl("core.ww_conflicts_per_mop", "count", "lower", 'C'),
    pl("core.rw_backoffs_per_mop", "count", "lower", 'C'),
    pl("core.replay_serial_fallbacks", "count", "lower", 'C'),
    pl("core.recovery_ms", "ms", "lower", 'H'),
    pl("core.recovery_1cpu_ms", "ms", "lower", 'H'),
    pl("core.recover_meta_ms", "ms", "lower", 'C'),
    pl("core.recover_replay_ms", "ms", "lower", 'C'),
    pl("core.recover_other_ms", "ms", "lower", 'H'),
    pl("core.replay_recs_per_s", "1/s", "higher", 'C'),
    pl("core.replayed_records", "count", "lower", 'C'),
    pl("core.unattributed_ns_per_put", "ns", "lower", 'H'),
    pl("core.unattributed_ns_per_get", "ns", "lower", 'H'),
    pl("seg.cc_wait_ns", "ns", "lower", 'S'),
    pl("core.put_p50_us", "us", "lower", 'H'),
    pl("core.put_p99_us", "us", "lower", 'H'),
    pl("core.put_p999_us", "us", "lower", 'H'),
    pl("core.get_p50_us", "us", "lower", 'H'),
    pl("core.get_p99_us", "us", "lower", 'H'),
    pl("core.tput_floor_frac", "ratio", "higher", 'H'),
    pl("core.insert_p50_us", "us", "lower", 'H'),
    pl("core.delete_p50_us", "us", "lower", 'H'),
    pl("core.put_span_ns", "ns", "lower", 'H'),
    pl("core.get_span_ns", "ns", "lower", 'H'),
    pl("core.traced_ops_per_s", "ops/s", "higher", 'H'),
    pl("core.lost_acks", "count", "lower", 'H'),
    pl("core.verify_mismatches", "count", "lower", 'H'),
    pl("core.failed_frac", "ratio", "lower", 'H'),
    // shard
    pl("shard.route_ns", "ns", "lower", 'P'),
    pl("shard.imbalance", "ratio", "lower", 'C'),
    // protocol
    pl("protocol.encode_put_4k_ns", "ns", "lower", 'P'),
    pl("protocol.decode_put_4k_ns", "ns", "lower", 'P'),
    pl("protocol.decode_value_4k_ns", "ns", "lower", 'P'),
    pl("protocol.wire_bytes_per_op", "B", "lower", 'C'),
    pl("protocol.client_encode_ns", "ns", "lower", 'H'),
    pl("protocol.client_socket_ns", "ns", "lower", 'H'),
    pl("protocol.client_decode_ns", "ns", "lower", 'H'),
    // server
    pl("server.residency_p50_us", "us", "lower", 'C'),
    pl("server.residency_p99_us", "us", "lower", 'C'),
    pl("server.busy_per_kop", "count", "lower", 'C'),
    pl("server.refused_per_kop", "count", "lower", 'H'),
    pl("server.queue_depth_max", "count", "lower", 'C'),
    pl("server.net_overhead_p50_us", "us", "lower", 'H'),
    pl("server.sat_ops_per_s", "ops/s", "higher", 'H'),
    pl("server.max_rate_ok", "ops/s", "higher", 'H'),
    pl("server.p50_us_r1", "us", "lower", 'H'),
    pl("server.p50_us_r2", "us", "lower", 'H'),
    pl("server.p50_us_r3", "us", "lower", 'H'),
    pl("server.p50_us_r4", "us", "lower", 'H'),
    pl("server.p99_us_r1", "us", "lower", 'H'),
    pl("server.p99_us_r2", "us", "lower", 'H'),
    pl("server.p99_us_r3", "us", "lower", 'H'),
    pl("server.p99_us_r4", "us", "lower", 'H'),
    pl("server.p999_us_r2", "us", "lower", 'H'),
    pl("server.achieved_frac_r1", "ratio", "higher", 'H'),
    pl("server.achieved_frac_r2", "ratio", "higher", 'H'),
    pl("server.achieved_frac_r3", "ratio", "higher", 'H'),
    pl("server.achieved_frac_r4", "ratio", "higher", 'H'),
    pl("seg.net_queue_ns", "ns", "lower", 'S'),
    // telemetry
    pl("telemetry.trace_overhead_frac", "ratio", "lower", 'H'),
    pl("telemetry.now_ns_call_ns", "ns", "lower", 'P'),
    // loadgen (the harness itself)
    pl("loadgen.ns_per_op", "ns", "lower", 'H'),
    pl("loadgen.late_p99_us", "us", "lower", 'H'),
    pl("loadgen.share_of_p50", "ratio", "lower", 'H'),
    pl("loadgen.stall_censored_frac", "ratio", "lower", 'H'),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// The unit of a declared metric, end-to-end or per-layer.
pub fn unit(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(per_layer)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name,
            escape(w.why)
        );
    }
    s += "  ],\n  \"end_to_end\": [\n";
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        );
    }
    s += "  ],\n  \"per_layer\": [\n";
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        );
    }
    s += "  ]\n}\n";
    s
}

/// The README's metric tables (markdown), from the same tables.
pub fn glossary() -> String {
    let mut s = String::from("| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n");
    for m in &END_TO_END {
        s += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound
        );
    }
    s += "\n| per-layer metric | unit | better | source |\n|---|---|---|---|\n";
    for m in &PER_LAYER {
        s += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.source
        );
    }
    s
}
