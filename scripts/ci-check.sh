#!/bin/sh
# Tier-1 CI gate: build, tests, and (when ocamlformat is installed) a
# formatting check. The fmt check is gated because the build image does
# not ship ocamlformat; .ocamlformat sets `disable = true` so that when
# it IS present, `dune build @fmt` is a no-op pass rather than a
# whole-tree reformat.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== chaos detection matrix (golden diff, seed 7)"
dune exec bin/cage_chaos.exe -- matrix --seed 7 > _build/detection_matrix.out
diff test/golden/detection_matrix.golden _build/detection_matrix.out

echo "== chaos fuzz (200 seeded programs)"
dune exec bin/cage_chaos.exe -- fuzz --count 200

echo "== cage-lint (golden diff: quickstart + CVE suite)"
{ dune exec bin/cage_lint.exe -- examples/quickstart.c
  dune exec bin/cage_lint.exe -- --cve-suite
} > _build/lint.out
diff test/golden/lint.golden _build/lint.out

echo "== check-elision differential (200 seeded programs)"
dune exec bin/cage_chaos.exe -- elidediff --count 200

echo "== full-elision differential (200 seeded programs, bounds + arena)"
dune exec bin/cage_chaos.exe -- elidediff --count 200 --full

echo "== engine differential (200 seeded programs, interp vs threaded)"
dune exec bin/cage_chaos.exe -- enginediff --count 200

echo "== detection matrix with elision (must match the golden byte-for-byte)"
dune exec bin/cage_chaos.exe -- matrix --seed 7 --elide > _build/detection_matrix_elide.out
diff test/golden/detection_matrix.golden _build/detection_matrix_elide.out

echo "== detection matrix with full elision (bounds + arena, still byte-identical)"
dune exec bin/cage_chaos.exe -- matrix --seed 7 --elide --elide-bounds \
  > _build/detection_matrix_full.out
diff test/golden/detection_matrix.golden _build/detection_matrix_full.out

echo "== cage-lint --json (golden diff, quickstart)"
dune exec bin/cage_lint.exe -- examples/quickstart.c --json > _build/lint_json.out
diff test/golden/lint.json.golden _build/lint_json.out

echo "== metrics snapshot (golden diff, quickstart seed 7)"
dune exec bin/cage_run.exe -- examples/quickstart.c --config CAGE --seed 7 \
  --metrics > _build/metrics.out 2>/dev/null || true  # guest tag fault: exit 1 by design
diff test/golden/metrics.golden _build/metrics.out

echo "== serving-path detection matrix (golden diff, seed 7)"
dune exec bin/cage_chaos.exe -- served --seed 7 > _build/served_matrix.out
diff test/golden/served_matrix.golden _build/served_matrix.out

echo "== serving-path matrix with full elision (still byte-identical)"
dune exec bin/cage_chaos.exe -- served --seed 7 --elide-bounds \
  > _build/served_matrix_full.out
diff test/golden/served_matrix.golden _build/served_matrix_full.out

echo "== serving smoke (zero escapes, all tenants >= 80% chaos-on goodput)"
dune exec bin/cage_serve.exe -- --smoke --slo-report \
  --trace-requests _build/req_trace.json \
  --json _build/BENCH_serve_smoke.json > _build/serve_smoke.out || {
  cat _build/serve_smoke.out; exit 1; }
grep -q "escaped under chaos : 0" _build/serve_smoke.out || {
  echo "FAIL: serving smoke reported escapes"; cat _build/serve_smoke.out
  exit 1; }

echo "== dirty-chunk restore engaged (copied < restores x image bytes, per side)"
sed -n 's/.*"restore_copied_bytes": \([0-9]*\), "restore_image_bytes": \([0-9]*\).*/\1 \2/p' \
  _build/BENCH_serve_smoke.json > _build/restore_bytes.out
[ "$(wc -l < _build/restore_bytes.out)" -eq 2 ] || {
  echo "FAIL: restore byte counts missing from the smoke JSON"; exit 1; }
awk '{ print "   copied " $1 " of " $2 " image bytes"; if (!($1 < $2)) bad = 1 }
  END { exit bad }' _build/restore_bytes.out || {
  echo "FAIL: restores copied whole images (dirty-chunk path not engaged)"
  exit 1; }

echo "== request observability smoke (SLO report + stitched chrome trace)"
grep -q "burn" _build/serve_smoke.out || {
  echo "FAIL: SLO report missing burn rates"; exit 1; }
grep -q "tail attribution" _build/serve_smoke.out || {
  echo "FAIL: tail-attribution table missing"; exit 1; }
grep -q "exec reconciliation: .* — exact" _build/serve_smoke.out || {
  echo "FAIL: phase attribution does not reconcile against the pool meters"
  grep "exec reconciliation" _build/serve_smoke.out || true; exit 1; }
[ -s _build/req_trace.json ] || {
  echo "FAIL: request trace not written"; exit 1; }
grep -q '"ph":"s"' _build/req_trace.json || {
  echo "FAIL: request trace has no flow arrows (span stitching broken)"
  exit 1; }

echo "== serving bench drift vs committed baseline"
scripts/bench-diff.sh _build/BENCH_serve_smoke.json \
  bench/baselines/BENCH_serve_smoke.json \
  ok:eq escaped:eq injections:eq makespan_cycles:eq \
  p99_exact_cycles:eq goodput_ratio:eq ok_per_mcycle:rel:0.001

echo "== observability overhead gate (disabled <= 2%)"
dune exec bench/main.exe -- obsoverhead > /dev/null
disabled_pct=$(sed -n 's/.*"disabled_overhead_pct": \([0-9.]*\).*/\1/p' BENCH_obsoverhead.json)
echo "   disabled_overhead_pct = ${disabled_pct}"
awk "BEGIN { exit !($disabled_pct <= 2.0) }" || {
  echo "FAIL: disabled-observability overhead ${disabled_pct}% exceeds 2%"; exit 1; }

echo "== observability bench drift vs committed baseline"
scripts/bench-diff.sh BENCH_obsoverhead.json \
  bench/baselines/BENCH_obsoverhead.json \
  ops:eq checks_per_run:eq disabled_overhead_pct:abs:2.0 \
  serve_spans_overhead_pct:abs:15.0

echo "== interprocedural analysis gate (tag writes elided > 0, full beats PR 5's 2.2%)"
dune exec bench/main.exe -- analysis > /dev/null
tw_total=$(sed -n 's/.*"tag_writes_elided_total": \([0-9]*\).*/\1/p' BENCH_analysis.json)
full_pct=$(sed -n 's/.*"mean_speedup_full_pct": \([0-9.]*\).*/\1/p' BENCH_analysis.json)
echo "   tag_writes_elided_total = ${tw_total}, mean_speedup_full_pct = ${full_pct}"
awk "BEGIN { exit !($tw_total > 0) }" || {
  echo "FAIL: no tag-plane writes elided on PolyBench"; exit 1; }
awk "BEGIN { exit !($full_pct > 2.2) }" || {
  echo "FAIL: full-elision speedup ${full_pct}% does not beat the 2.2% baseline"
  exit 1; }

echo "== analysis bench drift vs committed baseline"
scripts/bench-diff.sh BENCH_analysis.json \
  bench/baselines/BENCH_analysis.json \
  mean_tag_elided_frac:abs:0.02 mean_bounds_elided_frac:abs:0.02 \
  mean_tag_writes_elided_frac:abs:0.05 tag_writes_elided_total:rel:0.2 \
  mean_speedup_tag_pct:abs:1.0 mean_speedup_full_pct:abs:2.0

echo "== execution-engine smoke gate (threaded >= 2x interp)"
dune exec bench/main.exe -- exec > /dev/null
geomean=$(sed -n 's/.*"geomean_speedup": \([0-9.]*\).*/\1/p' BENCH_exec.json)
echo "   geomean_speedup = ${geomean}x"
awk "BEGIN { exit !($geomean >= 2.0) }" || {
  echo "FAIL: threaded engine only ${geomean}x over the interpreter"; exit 1; }

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping fmt check (ocamlformat not installed)"
fi

echo "CI checks passed."
