//! The two multi-run modes: `all` (every workload once, each in its own
//! process so `peak_rss_mb` is the workload's own) and `aa` (the whole
//! untraced benchmark twice on the same binary, plus once on another
//! seed, against the bounds in `BENCHMARK.json`).

use crate::json::{self, escape, num, Value};
use crate::spec;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

pub struct AllOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// One child run: its detail document (second-to-last stdout line) and
/// whether it exited 0 with a well-formed result line, correct and with
/// no measurement flag raised.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().unwrap_or("");
    let detail = lines.next().ok_or(format!("{workload}: no detail line"))?;
    let parsed =
        json::parse(detail).map_err(|e| format!("{workload}: detail line does not parse: {e}"))?;
    let ok = output.status.success()
        && json::parse(result)
            .ok()
            .and_then(|v| v.get("correct")?.as_bool())
            == Some(true)
        && parsed.get("valid").and_then(Value::as_bool) == Some(true);
    Ok((detail.to_string(), ok))
}

fn document(
    opts: &AllOpts,
    runs: &BTreeMap<&'static str, (String, Option<String>)>,
    correct: bool,
) -> String {
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .filter_map(|w| runs.get(w.name).map(|r| (w, r)))
        .map(|(w, (untraced, traced))| {
            format!(
                "    \"{}\": {{\n      \"why\": \"{}\",\n      \"untraced\": {untraced},\n      \"traced\": {}\n    }}",
                w.name,
                escape(w.why),
                traced.as_deref().unwrap_or("null")
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"dstore-benchmark\",\n  \"host\": {{\"available_parallelism\": {}, \"device_time\": \"spin-modelled (LatencyModel::optane, SsdLatency::p4800x): latencies are the sandbox model's, not a device's\"}},\n  \"seed\": {},\n  \"seconds\": {},\n  \"correct\": {correct},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        crate::nproc(),
        opts.seed,
        num(opts.seconds),
        workloads.join(",\n")
    )
}

/// Runs every workload; returns the combined document and whether every
/// run was correct.
fn run_all(opts: &AllOpts) -> Result<(String, bool), String> {
    let mut runs = BTreeMap::new();
    let mut correct = true;
    for w in &spec::WORKLOADS {
        let (untraced, ok) = child(w.name, opts.seed, opts.seconds, false, opts.smoke)?;
        correct &= ok;
        let traced = if opts.traced {
            let (t, ok) = child(w.name, opts.seed, opts.seconds, true, opts.smoke)?;
            correct &= ok;
            Some(t)
        } else {
            None
        };
        runs.insert(w.name, (untraced, traced));
    }
    Ok((document(opts, &runs, correct), correct))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn all(opts: &AllOpts, out: Option<&Path>) -> ExitCode {
    match run_all(opts) {
        Ok((doc, correct)) => {
            print!("{doc}");
            if let Some(path) = out {
                if let Err(e) = write_file(path, &doc) {
                    eprintln!("dstore_bench: {e}");
                    return ExitCode::from(1);
                }
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("dstore_bench: at least one workload failed a correctness check or raised a measurement flag");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("dstore_bench: {e}");
            ExitCode::from(1)
        }
    }
}

/// `{workload: {metric: value}}` of the end-to-end metrics in a combined
/// document.
fn end_to_end(doc: &str) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let v = json::parse(doc)?;
    let mut out = BTreeMap::new();
    for (name, w) in v
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("no workloads")?
    {
        let metrics = w
            .get("untraced")
            .and_then(|u| u.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or("no metrics")?;
        let row = spec::END_TO_END
            .iter()
            .filter_map(|m| {
                Some((
                    m.name.to_string(),
                    metrics.get(m.name)?.get("value")?.as_f64()?,
                ))
            })
            .collect();
        out.insert(name.clone(), row);
    }
    Ok(out)
}

/// Set-up times this close in absolute terms are equal, whatever the
/// ratio says.
const SETUP_ABS_FLOOR_S: f64 = 0.2;

pub fn aa(opts: &AllOpts) -> ExitCode {
    let run = |seed: u64| {
        run_all(&AllOpts {
            seed,
            traced: false,
            ..*opts
        })
    };
    let docs = match run(opts.seed).and_then(|a| Ok((a, run(opts.seed)?, run(opts.seed + 1)?))) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("dstore_bench: {e}");
            return ExitCode::from(1);
        }
    };
    let ((doc_a, ok_a), (doc_b, ok_b), (doc_c, ok_c)) = docs;
    let parsed = end_to_end(&doc_a).and_then(|a| Ok((a, end_to_end(&doc_b)?, end_to_end(&doc_c)?)));
    let (a, b, c) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dstore_bench: {e}");
            return ExitCode::from(1);
        }
    };
    // A test keeps `BENCHMARK.json` equal to these tables.
    let bounds: BTreeMap<&str, (f64, bool)> = spec::END_TO_END
        .iter()
        .map(|m| (m.name, (m.bound, m.better == "lower")))
        .collect();
    let mut rows = Vec::new();
    let mut excess = 0;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "run A", "run B", "other seed", "B vs A", "C vs A", "bound"
    );
    for (workload, metrics) in &a {
        for (metric, &va) in metrics {
            let (bound, lower_better) = bounds.get(metric.as_str()).copied().unwrap_or((0.0, true));
            let worse = |v: f64| {
                let d = if lower_better { v - va } else { va - v };
                if metric == "setup_s" && d.abs() < SETUP_ABS_FLOOR_S {
                    0.0
                } else {
                    d / va.abs().max(f64::MIN_POSITIVE)
                }
            };
            let vb = b
                .get(workload)
                .and_then(|m| m.get(metric))
                .copied()
                .unwrap_or(f64::NAN);
            let vc = c
                .get(workload)
                .and_then(|m| m.get(metric))
                .copied()
                .unwrap_or(f64::NAN);
            // Either run may be the "parent": the difference must hold
            // in both directions.
            let (db, dc) = (worse(vb).abs(), worse(vc).abs());
            let over = !(db <= bound && dc <= bound);
            excess += over as u32;
            println!(
                "{workload:<14} {metric:<16} {va:>12.4} {vb:>12.4} {vc:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%{}",
                db * 100.0,
                dc * 100.0,
                bound * 100.0,
                if over { "  EXCESS" } else { "" }
            );
            rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"metric\": \"{metric}\", \"run_a\": {}, \"run_b\": {}, \"other_seed\": {}, \"rel_diff_b\": {}, \"rel_diff_other_seed\": {}, \"bound\": {}, \"within_bound\": {}}}",
                num(va), num(vb), num(vc), num(db), num(dc), num(bound), !over
            ));
        }
    }
    let correct = ok_a && ok_b && ok_c;
    let report = format!(
        "{{\n  \"seed\": {},\n  \"other_seed\": {},\n  \"seconds\": {},\n  \"available_parallelism\": {},\n  \"all_correct\": {correct},\n  \"excesses\": {excess},\n  \"comparisons\": [\n{}\n  ],\n  \"run_a\": {},\n  \"run_b\": {},\n  \"run_other_seed\": {}\n}}\n",
        opts.seed,
        opts.seed + 1,
        num(opts.seconds),
        crate::nproc(),
        rows.join(",\n"),
        doc_a.trim_end(),
        doc_b.trim_end(),
        doc_c.trim_end()
    );
    if let Err(e) = write_file(&crate::out_dir().join("aa.json"), &report) {
        eprintln!("dstore_bench: {e}");
        return ExitCode::from(1);
    }
    eprintln!("wrote {}", crate::out_dir().join("aa.json").display());
    if excess == 0 && correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("dstore_bench: A/A check failed: {excess} metric(s) beyond their bound, all runs correct and unflagged: {correct}");
        ExitCode::from(1)
    }
}
