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

echo "== validation at the door (cage_run rejects an ill-typed module)"
printf '(module\n  (type (func (result i64)))\n  (func (type 0)\n    i32.const 1\n  )\n  (export "main" (func 0))\n)\n' \
  > _build/ill_typed.wat
if dune exec bin/cage_run.exe -- _build/ill_typed.wat > _build/ill_typed.out 2>&1; then
  echo "FAIL: cage_run executed an ill-typed module"; exit 1; fi
grep -q "^invalid module: .*type mismatch" _build/ill_typed.out || {
  echo "FAIL: rejection not reported as an invalid module"; cat _build/ill_typed.out
  exit 1; }

echo "== the door answers malformed input (an error or a trap, exit 1, within 5 s)"
# A custom section whose size decoded negative jumped back and looped for
# ever; a function section longer than the code section escaped as an
# uncaught Invalid_argument (exit 125); a non-numeric alignment escaped as
# a bare Failure. A table minimum of 2^64 - 1 validated and escaped from
# instantiation as Invalid_argument, and so did 20,000 wasm32 pages,
# which the spec allows but the 16,384-page cap does not. Two function
# bodies whose declared sizes trade one byte decoded, because only the
# code section's total was read.
printf '\000asm\001\000\000\000\000\001X\000\362\377\377\377\377\377\377\377\377\001' \
  > _build/door_loop.wasm
printf '\000asm\001\000\000\000\001\004\001\140\000\000\003\003\002\000\000\012\004\001\002\000\013' \
  > _build/door_counts.wasm
printf '\000asm\001\000\000\000\001\004\001\140\000\000\003\003\002\000\000\012\010\002\003\000\013\002\000\001\013' \
  > _build/door_sizes.wasm
printf '(module\n  (type (func))\n  (memory i64 1)\n  (func (type 0)\n    i64.const 0\n    i64.load align=x\n    drop\n  )\n)\n' \
  > _build/door_align.wat
printf '(module\n  (type (func (result i64)))\n  (table -1 funcref)\n  (func (type 0) i64.const 7)\n  (export "main" (func 0))\n)\n' \
  > _build/door_table.wat
printf '(module\n  (type (func (result i64)))\n  (memory i32 20000)\n  (func (type 0) i64.const 7)\n  (export "main" (func 0))\n)\n' \
  > _build/door_memory.wat
for case in door_loop.wasm:"decode error:" door_counts.wasm:"decode error:" \
            door_sizes.wasm:"decode error:" door_align.wat:"wat parse error:" door_table.wat:"invalid module:" \
            door_memory.wat:"trap:"; do
  file=${case%%:*}; want=${case#*:}; status=0
  timeout 5 ./_build/default/bin/cage_run.exe "_build/$file" > _build/door.out 2>&1 || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "^$want" _build/door.out; then
    echo "FAIL: cage_run $file exited $status without '$want'"; cat _build/door.out; exit 1; fi
done
# The analyzer reads a module only through the door, so planning answers
# a call to a function that does not exist as an invalid module (it
# escaped as Invalid_argument when planning ran on unvalidated bodies).
printf '(module\n  (type (func (result i64)))\n  (memory i64 1)\n  (func (type 0) call 9 i64.const 7)\n  (export "main" (func 0))\n)\n' \
  > _build/door_plan.wat
status=0
timeout 5 ./_build/default/bin/cage_run.exe _build/door_plan.wat --config CAGE --elide-checks \
  > _build/door.out 2>&1 || status=$?
if [ "$status" -ne 1 ] || ! grep -q "^invalid module:" _build/door.out; then
  echo "FAIL: cage_run --elide-checks door_plan.wat exited $status without 'invalid module:'"
  cat _build/door.out; exit 1; fi

echo "== the door stays linear (a deep operand stack and 20,000 chained functions)"
# One function stacks 100,000 i32.consts and drops them; 20,000 more call
# one another in a ring that main never enters. Parsing, validation,
# preparation and lowering are linear in stack depth and module size, so
# cage_run takes about 0.3 s on a 2-core x86-64 VM; with a per-pop stack
# length and per-call list lookups it took 25 s.
awk 'BEGIN {
  print "(module"
  print "  (type (func (result i64)))"
  print "  (type (func))"
  print "  (func $main (type 0) i64.const 7)"
  printf "  (func $deep (type 1)"
  for (i = 0; i < 100000; i++) printf " i32.const %d", i
  for (i = 0; i < 100000; i++) printf " drop"
  print ")"
  for (i = 2; i < 20002; i++) printf "  (func (type 1) call %d)\n", (i < 20001 ? i + 1 : 1)
  print "  (export \"main\" (func 0))"
  print ")"
}' > _build/door_linear.wat
timeout 5 ./_build/default/bin/cage_run.exe _build/door_linear.wat \
  > _build/door_linear.out 2>&1 || {
  echo "FAIL: cage_run did not accept and run the module within 5 s"
  cat _build/door_linear.out; exit 1; }
grep -q "^main() -> i64:7$" _build/door_linear.out || {
  echo "FAIL: unexpected result"; cat _build/door_linear.out; exit 1; }

echo "== the analysis stays linear (a 20-function chain beside a 60,000-function ring)"
# main calls down a chain of 20 functions; 60,000 more call one another
# in a ring that main never enters. Both analyses of --no-spec-elide share
# one index and one walk of each body, and each call graph component is
# solved in one step, so cage_run takes about 0.3 s on a 2-core x86-64 VM;
# with list lookups and a scan per analysis it took 31 s.
awk 'BEGIN {
  print "(module"
  print "  (type (func (result i64)))"
  print "  (type (func))"
  print "  (func $main (type 0) call 1)"
  for (i = 1; i <= 20; i++) printf "  (func (type 0) %s)\n", (i < 20 ? "call " (i + 1) : "i64.const 7")
  for (i = 21; i < 60021; i++) printf "  (func (type 1) call %d)\n", (i < 60020 ? i + 1 : 21)
  print "  (export \"main\" (func 0))"
  print ")"
}' > _build/analysis_linear.wat
timeout 5 ./_build/default/bin/cage_run.exe _build/analysis_linear.wat \
  --config CAGE --elide-checks --no-spec-elide > _build/analysis_linear.out 2>&1 || {
  echo "FAIL: cage_run did not plan and run the module within 5 s"
  cat _build/analysis_linear.out; exit 1; }
grep -q "^main() -> i64:7$" _build/analysis_linear.out || {
  echo "FAIL: unexpected result"; cat _build/analysis_linear.out; exit 1; }

echo "== labels stay O(1) (60,000 nested blocks, each closed by a branch to the outermost)"
# Every end is preceded by a br_if to the outermost block, so a label
# lookup that walks a list costs O(depth) and the module O(D^2).
# Validation, preparation, lowering and the analyzer read labels from an
# array, so cage_run takes about 0.5 s (0.65 s with --elide-checks) on a
# 2-core x86-64 VM; with list lookups it took 18.8 s (30.3 s).
awk 'BEGIN {
  D = 60000
  print "(module"
  print "  (type (func (result i64)))"
  print "  (memory i64 1)"
  print "  (func $main (type 0)"
  for (i = 0; i < D; i++) print "    block"
  for (i = D - 1; i >= 0; i--) { print "    i32.const 0"; print "    br_if " i; print "    end" }
  print "    i64.const 7)"
  print "  (export \"main\" (func 0))"
  print ")"
}' > _build/labels_linear.wat
for flags in "" "--config CAGE --elide-checks"; do
  timeout 5 ./_build/default/bin/cage_run.exe _build/labels_linear.wat $flags \
    > _build/labels_linear.out 2>&1 || {
    echo "FAIL: cage_run ${flags} did not run the module within 5 s"
    cat _build/labels_linear.out; exit 1; }
  grep -q "^main() -> i64:7$" _build/labels_linear.out || {
    echo "FAIL: unexpected result"; cat _build/labels_linear.out; exit 1; }
done

echo "== slot bits move inline (no int64/float cast stub in the threaded engine)"
# The threaded engine moves a slot's 64 bits through a Bytes view of the
# slot array (Compile.get64/set64). At the commit before it did, 262
# relocations in wasm__Compile.o named these two C stubs; now none does.
objdump -r _build/default/lib/wasm/.wasm.objs/native/wasm__Compile.o \
  > _build/compile_relocs.out
casts=$(grep -c 'caml_int64_\(bits_of_float\|float_of_bits\)_unboxed' \
  _build/compile_relocs.out || true)
echo "   relocations to caml_int64_{bits_of_float,float_of_bits}_unboxed: ${casts}"
[ "$casts" -le 0 ] || {
  echo "FAIL: wasm__Compile.o calls an int64/float cast stub ${casts} times (bound 0)"
  exit 1; }

echo "== elision at the door (a stale local under a block must not skip a check)"
# The value of local 2 pushed before the block is compared after the
# block overwrote local 2; with j = 1000 << 20 the store lands 1001 bytes
# into a 64-byte segment, so the elided run must trap as the checked one.
cat > _build/stale_local.wat <<'WAT'
(module
  (type (func (param i64) (result i64)))
  (memory i64 1 1)
  (func $main (type 0) (local i64 i64)
    i64.const 1024
    i64.const 64
    segment.new offset=0
    local.set 1
    local.get 0
    i64.const 1023
    i64.and
    local.set 2
    local.get 2
    block
      local.get 0
      i64.const 20
      i64.shr_u
      i64.const 1023
      i64.and
      i64.const 1
      i64.add
      local.set 2
    end
    i64.const 8
    i64.lt_s
    if
      local.get 1
      local.get 2
      i64.add
      i32.const 0
      i32.store8
    end
    i64.const 0
  )
  (export "main" (func 0))
)
WAT
if dune exec bin/cage_run.exe -- --config CAGE --elide-checks \
     _build/stale_local.wat 1048576000 > _build/stale_local.out 2>&1; then
  echo "FAIL: the elided run returned"; cat _build/stale_local.out; exit 1; fi
grep -q "^trap: tag fault:" _build/stale_local.out || {
  echo "FAIL: the elided run did not trap with a tag fault"
  cat _build/stale_local.out; exit 1; }

echo "== cagec --Wstack (per-function verdicts only where the sanitizer ran, summing to its totals)"
dune exec bin/cagec.exe -- examples/quickstart.c --Wstack \
  -o _build/wstack.wasm > /dev/null 2> _build/wstack_baseline.out
if grep -q ': slots: ' _build/wstack_baseline.out; then
  echo "FAIL: the baseline compile printed per-function sanitizer verdicts"
  cat _build/wstack_baseline.out; exit 1; fi
dune exec bin/cagec.exe -- examples/quickstart.c --Wstack --config CAGE \
  -o _build/wstack.wasm > /dev/null 2> _build/wstack_cage.out
awk '/: slots: / { sub(/.*instrumented: /, ""); sum += $1 }
  /^cage_stack_slots_instrumented_total / { total = $2 }
  END { print "   CAGE: per-function instrumented sum " sum + 0 ", total " total
        exit !(total != "" && sum + 0 == total + 0) }' _build/wstack_cage.out || {
  echo "FAIL: per-function instrumented counts do not sum to the module total"
  cat _build/wstack_cage.out; exit 1; }

echo "== chaos detection matrix (golden diff, seed 7)"
dune exec bin/cage_chaos.exe -- matrix --seed 7 > _build/detection_matrix.out
diff test/golden/detection_matrix.golden _build/detection_matrix.out

echo "== chaos fuzz (golden diff, 200 seeded programs)"
dune exec bin/cage_chaos.exe -- fuzz --count 200 > _build/chaos_fuzz.out
diff test/golden/chaos_fuzz.golden _build/chaos_fuzz.out

echo "== cage-lint (golden diff: quickstart + CVE suite)"
{ dune exec bin/cage_lint.exe -- examples/quickstart.c
  dune exec bin/cage_lint.exe -- --cve-suite
} > _build/lint.out
diff test/golden/lint.golden _build/lint.out

echo "== cage-lint --Wspectre (golden diff: CVE suite + PolyBench, speculative analysis)"
{ dune exec bin/cage_lint.exe -- --cve-suite --Wspectre
  dune exec bin/cage_lint.exe -- --polybench --Wspectre
} > _build/lint_wspectre.out
diff test/golden/lint_wspectre.golden _build/lint_wspectre.out

echo "== check-elision differential (200 seeded programs)"
dune exec bin/cage_chaos.exe -- elidediff --count 200

echo "== full-elision differential (200 seeded programs, bounds + arena)"
dune exec bin/cage_chaos.exe -- elidediff --count 200 --full

echo "== engine differential (200 seeded programs x 3 configurations, interp vs threaded)"
dune exec bin/cage_chaos.exe -- enginediff --count 200

echo "== engine differential over the benchmark programs (26 PolyBench kernels + 3 serving tenants x 3 configurations)"
# Fuzzgen has no row-major x * y + z index and few counted loops; the
# kernels and tenants exercise the threaded engine's index, back-edge
# and temporary rules. Outcome or trap text, memory digest and every
# meter counter must match; about 5 s on a 2-core x86-64 VM.
dune exec bin/cage_chaos.exe -- benchdiff

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

echo "== instance trace (quickstart seed 7: function slices on the per-op clock)"
rm -f _build/inst_trace.json
dune exec bin/cage_run.exe -- examples/quickstart.c --config CAGE --seed 7 \
  --trace _build/inst_trace.json > /dev/null 2>&1 || true  # guest tag fault: exit 1 by design
grep -q '"ph":"B"' _build/inst_trace.json || {
  echo "FAIL: instance trace has no function slices"; exit 1; }
grep -q '"clock":"simulated-cycles"' _build/inst_trace.json || {
  echo "FAIL: instance trace does not declare the per-op clock"; exit 1; }

echo "== serving-path detection matrix (golden diff, seed 7)"
dune exec bin/cage_chaos.exe -- served --seed 7 > _build/served_matrix.out
diff test/golden/served_matrix.golden _build/served_matrix.out

echo "== serving-path matrix with full elision (still byte-identical)"
dune exec bin/cage_chaos.exe -- served --seed 7 --elide-bounds \
  > _build/served_matrix_full.out
diff test/golden/served_matrix.golden _build/served_matrix_full.out

echo "== serving hands every free core to a ready job (seed 1005 returns, gate passes)"
timeout 120 dune exec bin/cage_serve.exe -- --requests 4000 --seed 1005 \
  --json "" > _build/serve_1005.out || {
  echo "FAIL: seed-1005 serving run hung or failed its gate (exit $?)"
  cat _build/serve_1005.out; exit 1; }

echo "== serving smoke (zero escapes, all tenants >= 80% chaos-on goodput)"
dune exec bin/cage_serve.exe -- --smoke --slo-report \
  --trace-requests _build/req_trace.json \
  --json _build/BENCH_serve_smoke.json > _build/serve_smoke.out || {
  cat _build/serve_smoke.out; exit 1; }
grep -q "escaped under chaos : 0" _build/serve_smoke.out || {
  echo "FAIL: serving smoke reported escapes"; cat _build/serve_smoke.out
  exit 1; }

echo "== serving smoke report (golden diff, without the wrote lines: paths, wall time)"
grep -v '^  wrote ' _build/serve_smoke.out > _build/serve_smoke.golden.out
diff test/golden/serve_smoke.golden _build/serve_smoke.golden.out

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
grep -q '"clock":"des-cycles"' _build/req_trace.json || {
  echo "FAIL: request trace does not declare the DES clock"; exit 1; }

echo "== serving bench drift vs committed baseline"
scripts/bench-diff.sh _build/BENCH_serve_smoke.json \
  bench/baselines/BENCH_serve_smoke.json \
  ok:eq escaped:eq injections:eq makespan_cycles:eq \
  p99_exact_cycles:eq goodput_ratio:eq ok_per_mcycle:rel:0.001

# The bench experiments write their JSON into the working directory; run
# them from _build/bench-ci so a CI run leaves the committed BENCH_*.json
# (the re-baselined figures) alone.
mkdir -p _build/bench-ci
bench() { (cd _build/bench-ci && ../default/bench/main.exe "$@"); }

echo "== observability overhead gate (disabled <= 2%)"
bench obsoverhead > /dev/null
disabled_pct=$(sed -n 's/.*"disabled_overhead_pct": \([0-9.]*\).*/\1/p' _build/bench-ci/BENCH_obsoverhead.json)
echo "   disabled_overhead_pct = ${disabled_pct}"
awk "BEGIN { exit !($disabled_pct <= 2.0) }" || {
  echo "FAIL: disabled-observability overhead ${disabled_pct}% exceeds 2%"; exit 1; }

echo "== observability bench drift vs committed baseline"
scripts/bench-diff.sh _build/bench-ci/BENCH_obsoverhead.json \
  bench/baselines/BENCH_obsoverhead.json \
  ops:eq checks_per_run:eq disabled_overhead_pct:abs:2.0 \
  serve_spans_overhead_pct:abs:15.0

echo "== interprocedural analysis gate (tag writes elided > 0, full beats PR 5's 2.2%)"
bench analysis > /dev/null
tw_total=$(sed -n 's/.*"tag_writes_elided_total": \([0-9]*\).*/\1/p' _build/bench-ci/BENCH_analysis.json)
full_pct=$(sed -n 's/.*"mean_speedup_full_pct": \([0-9.]*\).*/\1/p' _build/bench-ci/BENCH_analysis.json)
echo "   tag_writes_elided_total = ${tw_total}, mean_speedup_full_pct = ${full_pct}"
awk "BEGIN { exit !($tw_total > 0) }" || {
  echo "FAIL: no tag-plane writes elided on PolyBench"; exit 1; }
awk "BEGIN { exit !($full_pct > 2.2) }" || {
  echo "FAIL: full-elision speedup ${full_pct}% does not beat the 2.2% baseline"
  exit 1; }

echo "== analysis bench drift vs committed baseline"
scripts/bench-diff.sh _build/bench-ci/BENCH_analysis.json \
  bench/baselines/BENCH_analysis.json \
  mean_tag_elided_frac:abs:0.02 mean_bounds_elided_frac:abs:0.02 \
  mean_tag_writes_elided_frac:abs:0.05 tag_writes_elided_total:rel:0.2 \
  mean_speedup_tag_pct:abs:1.0 mean_speedup_full_pct:abs:2.0

echo "== execution-engine smoke gate (threaded >= 2x interp)"
bench exec > /dev/null
geomean=$(sed -n 's/.*"geomean_speedup": \([0-9.]*\).*/\1/p' _build/bench-ci/BENCH_exec.json)
echo "   geomean_speedup = ${geomean}x"
awk "BEGIN { exit !($geomean >= 2.0) }" || {
  echo "FAIL: threaded engine only ${geomean}x over the interpreter"; exit 1; }

echo "== access path allocation gate (threaded minor words per access <= 1.0, both columns)"
words=$(sed -n 's/.*"minor_words_per_access": \([0-9.]*\).*/\1/p' _build/bench-ci/BENCH_exec.json)
[ "$(echo "$words" | wc -w)" -eq 2 ] || {
  echo "FAIL: _build/bench-ci/BENCH_exec.json lacks minor_words_per_access in both columns"; exit 1; }
for w in $words; do
  echo "   minor_words_per_access = ${w}"
  awk "BEGIN { exit !($w <= 1.0) }" || {
    echo "FAIL: threaded accesses allocate ${w} minor words each"; exit 1; }
done

echo "== tag-plane span check gate (a 1 MiB check costs <= 0.45x the fill it guards)"
# On 2-core x86-64 VMs the per-granule loop read 2.3-3.6x, one word per
# load 0.55-0.8x, and eight words per step 0.24-0.30x (DESIGN.md 3b).
bench tagscan > /dev/null
ratio=$(sed -n 's/.*"check_to_fill_ratio": \([0-9.]*\).*/\1/p' _build/bench-ci/BENCH_tagscan.json)
echo "   check_to_fill_ratio = ${ratio}"
awk "BEGIN { exit !($ratio <= 0.45) }" || {
  echo "FAIL: a 1 MiB span check costs ${ratio}x the fill it guards (bound 0.45)"
  exit 1; }

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping fmt check (ocamlformat not installed)"
fi

echo "CI checks passed."
