//! `dstore_bench` — the repo benchmark's harness. See `README.md` beside
//! `Cargo.toml` for the metric glossary and how to compare two commits.
//!
//! ```text
//! dstore_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run; last stdout line is the driver's result object
//! dstore_bench [--seed N] [--seconds S] [--traced] [--out FILE] [--smoke]
//!     all five workloads (each in a process of its own), one JSON document
//! dstore_bench --aa [--seed N] [--seconds S] [--smoke]
//!     the full untraced benchmark twice plus once on another seed;
//!     per-metric difference against its bound; non-zero exit on excess
//! dstore_bench --print-spec | --print-glossary
//!     BENCHMARK.json / the README's metric tables, as spec.rs defines them
//! ```

mod compare;
mod cpu;
mod crash;
mod embedded;
pub mod gen;
pub mod json;
mod layers;
mod probes;
mod report;
mod server;
mod spans;
pub mod spec;
pub mod stats;
pub mod value;

use std::path::PathBuf;
use std::process::ExitCode;

/// The load generator may cost this share of an embedded workload's p50
/// before the run is flagged `loadgen_limited` and fails.
pub const LOADGEN_MAX_SHARE: f64 = 0.05;
/// Same for `server_rate`: generating and bookkeeping one request
/// against the p50 at the reporting rate.
pub const LOADGEN_MAX_SHARE_SERVER: f64 = 0.10;
/// Share of a leg's answers the open-loop generator may leave untimed
/// because it was itself stalled (see `GENERATOR_STALL_NS`).
pub const LOADGEN_MAX_CENSORED: f64 = 0.10;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where trace files and combined documents go: `out/` beside the
/// benchmark's `Cargo.toml` when run from a checkout root.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    print_spec: bool,
    print_glossary: bool,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dstore_bench --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n       dstore_bench [--seed N] [--seconds S] [--traced] [--out FILE] [--smoke]\n       dstore_bench --aa [--seed N] [--seconds S] [--smoke]\n       dstore_bench --print-spec | --print-glossary",
        spec::workload_names().join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        print_spec: false,
        print_glossary: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(val()?),
            "--seed" => cli.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = Some(val()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => cli.trace = val()? == "1",
            "--traced" => cli.trace = true,
            "--out" => cli.out = Some(val()?.into()),
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            "--print-spec" => cli.print_spec = true,
            "--print-glossary" => cli.print_glossary = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds.is_some_and(|s| !(0.5..=120.0).contains(&s)) {
        return Err("--seconds must be within 0.5..=120".into());
    }
    Ok(cli)
}

fn run_one(args: &RunArgs) -> ExitCode {
    let outcome = match args.workload.as_str() {
        "put_4k" | "get_4k" | "mixed_small" | "mixed_symmetric" => embedded::run(args),
        "crash_recover" => crash::run(args),
        "server_rate" => server::run(args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(out) => {
            out.print_table(&args.workload, args.trace);
            println!(
                "{}",
                out.detail_line(&args.workload, args.seed, args.seconds, args.trace)
            );
            println!("{}", out.result_line(args.trace));
            if !out.valid() {
                eprintln!(
                    "dstore_bench: {}: a measurement flag was raised (see above); the numbers of this run are suspect",
                    args.workload
                );
            }
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("dstore_bench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

/// The command line of `dstore_bench`.
pub fn run() -> ExitCode {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dstore_bench: {e}");
            return usage();
        }
    };
    if cli.print_spec || cli.print_glossary {
        print!(
            "{}",
            if cli.print_spec {
                spec::benchmark_json()
            } else {
                spec::glossary()
            }
        );
        return ExitCode::SUCCESS;
    }
    // config.rs reads DSTORE_* variables into the store's defaults; a
    // leaked A/B variable would silently benchmark a different program.
    let leaked: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DSTORE_"))
        .collect();
    if !leaked.is_empty() {
        eprintln!(
            "dstore_bench: refusing to start with {} set: they change the store's defaults",
            leaked.join(", ")
        );
        return ExitCode::from(2);
    }
    let default_seconds = if cli.smoke {
        2.0
    } else {
        spec::RUN_SECONDS as f64
    };
    let seconds = cli.seconds.unwrap_or(default_seconds);
    if let Some(workload) = cli.workload {
        return run_one(&RunArgs {
            workload,
            seed: cli.seed,
            seconds,
            trace: cli.trace,
            smoke: cli.smoke,
        });
    }
    let opts = compare::AllOpts {
        seed: cli.seed,
        seconds,
        traced: cli.trace,
        smoke: cli.smoke,
    };
    if cli.aa {
        return compare::aa(&opts);
    }
    compare::all(&opts, cli.out.as_deref())
}
