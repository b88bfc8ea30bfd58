#!/usr/bin/env bash
# The repo benchmark. Builds the harness and the dstore_server binary
# (release, offline, this directory's own cargo package), then runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--out FILE]
#       all five workloads, every metric by name, one JSON document
#
# See benchmark/README.md. Exits non-zero if the build fails, a
# correctness check fails, or the load generator is flagged as limiting.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/benchmark}"
# stdout carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/dstore_bench" "$@"
