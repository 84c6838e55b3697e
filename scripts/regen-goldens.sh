#!/bin/sh
# Regenerate every golden file CI diffs against. Run after a change
# that legitimately shifts golden output (new metrics registered, new
# matrix rows/columns, reworded lint diagnostics), then review the
# git diff of test/golden/ like any other code change — a golden
# update is a semantic claim, not a formality.
set -eu

cd "$(dirname "$0")/.."

dune build

echo "== test/golden/detection_matrix.golden"
dune exec bin/cage_chaos.exe -- matrix --seed 7 \
  > test/golden/detection_matrix.golden

echo "== test/golden/chaos_fuzz.golden"
dune exec bin/cage_chaos.exe -- fuzz --count 200 \
  > test/golden/chaos_fuzz.golden

echo "== test/golden/served_matrix.golden"
dune exec bin/cage_chaos.exe -- served --seed 7 \
  > test/golden/served_matrix.golden

echo "== test/golden/serve_smoke.golden"
dune exec bin/cage_serve.exe -- --smoke --slo-report \
  --trace-requests _build/req_trace.json \
  --json _build/BENCH_serve_smoke.json | grep -v '^  wrote ' \
  > test/golden/serve_smoke.golden

echo "== test/golden/lint.golden"
{ dune exec bin/cage_lint.exe -- examples/quickstart.c
  dune exec bin/cage_lint.exe -- --cve-suite
} > test/golden/lint.golden

echo "== test/golden/lint_wspectre.golden"
{ dune exec bin/cage_lint.exe -- --cve-suite --Wspectre
  dune exec bin/cage_lint.exe -- --polybench --Wspectre
} > test/golden/lint_wspectre.golden

echo "== test/golden/lint.json.golden"
dune exec bin/cage_lint.exe -- examples/quickstart.c --json \
  > test/golden/lint.json.golden

echo "== test/golden/metrics.golden"
dune exec bin/cage_run.exe -- examples/quickstart.c --config CAGE --seed 7 \
  --metrics > test/golden/metrics.golden 2>/dev/null || true

echo "done — review: git diff test/golden/"
