//! End-to-end smoke test of the harness: every workload, untraced and
//! traced, at `--smoke` size (2 000 keys, sub-second repetitions), through
//! the real binaries. Checks the *shape* of what is printed — names,
//! units, sample counts, the driver's result line — never a number.

use dstore_benchmark::json::{self, Value};
use dstore_benchmark::spec;
use std::collections::BTreeSet;
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_dstore_bench");

/// Tests run on parallel threads; two benchmark runs at once on a
/// two-core host would (rightly) be flagged `loadgen_limited`.
static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_what_the_spec_prints() {
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `dstore_bench --print-spec > BENCHMARK.json`"
    );
    let v = json::parse(&committed).expect("BENCHMARK.json parses");
    let keys: BTreeSet<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let mut names = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for m in v.get(section).unwrap().as_arr().unwrap() {
            let name = m.get("name").unwrap().as_str().unwrap();
            assert!(name_ok(name), "bad name {name:?}");
            assert!(names.insert(name.to_string()), "{name} is used twice");
        }
    }
    assert!(v
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .any(|m| {
            m.get("name").unwrap().as_str() == Some("setup_s")
                && m.get("unit").unwrap().as_str() == Some("s")
        }));
    for m in v.get("end_to_end").unwrap().as_arr().unwrap() {
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    assert!(committed.len() < 64 * 1024);
}

#[test]
fn readme_lists_every_name() {
    let readme = std::fs::read_to_string(repo_root().join("benchmark/README.md"))
        .expect("benchmark/README.md");
    for w in &spec::WORKLOADS {
        assert!(
            readme.contains(&format!("`{}`", w.name)),
            "README does not mention workload {}",
            w.name
        );
    }
    for name in spec::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(spec::PER_LAYER.iter().map(|m| m.name))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README glossary lacks {name}"
        );
    }
}

#[test]
fn refuses_leaked_store_variables() {
    let _one = exclusive();
    let out = Command::new(BENCH)
        .args([
            "--workload",
            "get_4k",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("DSTORE_INDEX_OLC", "0")
        .output()
        .expect("spawn dstore_bench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("DSTORE_INDEX_OLC"));
}

/// One run in the driver's form; returns the parsed result line.
fn driver_run(workload: &str, trace: bool) -> Value {
    let _one = exclusive();
    let out = Command::new(BENCH)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .current_dir(repo_root())
        .output()
        .expect("spawn dstore_bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

#[test]
fn every_workload_prints_every_metric_once() {
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            let v = driver_run(w.name, trace);
            let keys: BTreeSet<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                BTreeSet::from(["correct", "attempted", "failed", "metrics"]),
                "{}",
                w.name
            );
            assert_eq!(
                v.get("correct").unwrap().as_bool(),
                Some(true),
                "{} trace={trace}",
                w.name
            );
            assert!(v.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            assert_eq!(v.get("failed").unwrap().as_f64(), Some(0.0));
            let metrics = v.get("metrics").unwrap().as_obj().unwrap();
            // The parser rejects duplicate keys, so presence is "exactly once".
            let want: Vec<(&str, &str)> = if trace {
                spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            assert_eq!(
                metrics.len(),
                want.len(),
                "{} trace={trace}: wrong number of metrics",
                w.name
            );
            for (name, unit) in want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} trace={trace}: {name} missing", w.name));
                let keys: BTreeSet<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
                assert_eq!(keys, BTreeSet::from(["value", "unit"]));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(unit), "{name}");
                let value = m.get("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite(), "{name}");
                if !trace {
                    assert!(
                        value > 0.0,
                        "{}: end-to-end metric {name} must never be 0",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn the_combined_document_carries_units_and_sample_counts() {
    let _one = exclusive();
    let out = Command::new(BENCH)
        .args(["--seed", "3", "--smoke", "--traced"])
        .current_dir(repo_root())
        .output()
        .expect("spawn dstore_bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("the document parses");
    assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
    let workloads = doc.get("workloads").unwrap().as_obj().unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for w in &spec::WORKLOADS {
        let runs = workloads
            .get(w.name)
            .unwrap_or_else(|| panic!("{} missing", w.name));
        for (mode, required) in [
            (
                "untraced",
                &spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            (
                "traced",
                &spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
        ] {
            let metrics = runs
                .get(mode)
                .unwrap()
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap();
            for (name, m) in metrics {
                assert!(name_ok(name), "bad metric name {name:?}");
                assert!(
                    m.get("unit")
                        .unwrap()
                        .as_str()
                        .is_some_and(|u| !u.is_empty()),
                    "{name} has no unit"
                );
                assert!(
                    m.get("samples").unwrap().as_f64().is_some(),
                    "{name} has no sample count"
                );
            }
            // Metrics a workload does not exercise are absent here (and 0
            // in the driver's line); the ones it reports must be declared.
            for name in metrics.keys() {
                assert!(
                    spec::unit(name).is_some(),
                    "{}: {name} is not declared in BENCHMARK.json",
                    w.name
                );
            }
            if mode == "untraced" {
                for name in required {
                    assert!(
                        metrics.contains_key(*name),
                        "{} {mode}: {name} missing",
                        w.name
                    );
                }
            }
        }
    }
}
