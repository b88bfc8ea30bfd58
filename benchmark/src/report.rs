//! What one run produces and how it is printed.

use crate::json::{escape, num};
use crate::spec;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Default)]
pub struct Metric {
    pub value: f64,
    /// Samples behind the value (ops for a percentile, windows for a
    /// floor, iterations for a probe, 0 for a plain counter ratio).
    pub samples: u64,
    /// `(max − min) / median` across repetitions, where there are any.
    pub spread: Option<f64>,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named pass/fail checks of the *program* beyond per-operation
    /// verification (recovery replays exactly what was acknowledged); a
    /// failing one makes the run incorrect.
    pub checks: Vec<(String, bool, String)>,
    /// Named pass/fail checks of the *measurement* (load-generator
    /// validity, attribution, the fence budget). A failing one leaves the
    /// run correct but not valid: the single-run form reports it and still
    /// exits 0, because a burst of host interference can trip one and the
    /// program's outputs were right; the all-workloads and A/A forms exit
    /// non-zero on it.
    pub flags: Vec<(String, bool, String)>,
    /// First few failed operations, with key and observed-vs-expected.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
}

pub const MAX_FAILURE_REPORTS: usize = 20;

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                samples,
                spread: None,
            },
        );
    }

    /// A metric that is the median of its repetitions.
    pub fn set_reps(&mut self, name: &'static str, reps: &[f64], samples: u64) {
        self.set_estimate(name, crate::stats::median(reps), reps, samples);
    }

    /// A latency that is the lower quartile of its repetitions (see
    /// `stats::good_quartile`).
    pub fn set_latency_reps(&mut self, name: &'static str, reps: &[f64], samples: u64) {
        self.set_estimate(name, crate::stats::good_quartile(reps, true), reps, samples);
    }

    /// A metric estimated from repetitions by some other rule.
    pub fn set_estimate(&mut self, name: &'static str, value: f64, reps: &[f64], samples: u64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                samples,
                spread: Some(crate::stats::rel_range(reps)),
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn flag(&mut self, name: &str, ok: bool, detail: String) {
        self.flags.push((name.to_string(), ok, detail));
    }

    pub fn fail(&mut self, what: String) {
        self.absorb(0, 1, [what]);
    }

    /// Adds what a client thread or a leg counted; keeps the first
    /// `MAX_FAILURE_REPORTS` descriptions.
    pub fn absorb(
        &mut self,
        attempted: u64,
        failed: u64,
        failures: impl IntoIterator<Item = String>,
    ) {
        self.attempted += attempted;
        self.failed += failed;
        let room = MAX_FAILURE_REPORTS.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    pub fn valid(&self) -> bool {
        self.flags.iter().all(|c| c.1)
    }

    /// The names a run must print: every end-to-end metric untraced,
    /// every per-layer metric traced. Per-layer metrics a workload does
    /// not exercise read 0.
    pub fn required(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// The driver's result line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::required(trace)
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(self.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything measured, for the combined document of `run.sh`.
    pub fn detail_line(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        let unit = |n: &str| spec::unit(n).unwrap_or("");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let spread = m
                    .spread
                    .map_or(String::new(), |s| format!(", \"rep_spread\": {}", num(s)));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}{spread}}}",
                    num(m.value),
                    unit(name),
                    m.samples
                )
            })
            .collect();
        let checks = |v: &[(String, bool, String)]| {
            v.iter()
                .map(|(n, ok, d)| {
                    format!(
                        "{{\"name\": \"{}\", \"ok\": {ok}, \"detail\": \"{}\"}}",
                        escape(n),
                        escape(d)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let strs = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {}, \"traced\": {trace}, \"correct\": {}, \"valid\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"checks\": [{}], \"flags\": [{}], \"failures\": [{}], \"notes\": [{}]}}",
            num(seconds),
            self.correct(),
            self.valid(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            checks(&self.checks),
            checks(&self.flags),
            strs(&self.failures),
            strs(&self.notes)
        )
    }

    /// Human-readable table on stderr.
    pub fn print_table(&self, workload: &str, trace: bool) {
        eprintln!(
            "== {workload} ({}) ==",
            if trace { "traced" } else { "untraced" }
        );
        for (name, m) in &self.metrics {
            let spread = m
                .spread
                .map_or(String::new(), |s| format!("  rep-spread {:.1}%", s * 100.0));
            let unit = spec::unit(name).unwrap_or("");
            eprintln!(
                "  {name:<34} {:>16.4} {unit:<6} n={}{spread}",
                m.value, m.samples
            );
        }
        for (n, ok, d) in &self.checks {
            eprintln!("  check {n}: {} ({d})", if *ok { "ok" } else { "FAILED" });
        }
        for (n, ok, d) in &self.flags {
            eprintln!("  flag {n}: {} ({d})", if *ok { "ok" } else { "RAISED" });
        }
        for f in &self.failures {
            eprintln!("  FAILED OP: {f}");
        }
        for n in &self.notes {
            eprintln!("  note: {n}");
        }
        eprintln!(
            "  attempted {} failed {} correct {} valid {}",
            self.attempted,
            self.failed,
            self.correct(),
            self.valid()
        );
    }
}

/// `VmHWM` of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
