#!/usr/bin/env bash
# A/A check: the full untraced benchmark twice on the same binary, plus
# once on another seed. Prints each end-to-end metric's relative
# difference against its bound in BENCHMARK.json, writes
# benchmark/out/aa.json, and exits non-zero on any excess.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "$@"
