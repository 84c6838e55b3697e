#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it. From the
# repository root:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. See bench/e2e/README.md for the other modes.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
