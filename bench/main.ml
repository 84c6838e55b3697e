(* The benchmark harness: regenerates every table and figure of the
   paper and prints paper-vs-measured rows.

     dune exec bench/main.exe             -- all experiments
     dune exec bench/main.exe fig14       -- one experiment
     dune exec bench/main.exe bechamel    -- wall-clock library benches

   Experiment ids: table1 fig4 fig14 fig14-detail fig15 fig16 table2 mem
   startup collision ablation modes escape obsoverhead analysis exec
   tagscan bechamel *)

let ppf_ref = ref Format.std_formatter

(* Seconds [f ()] takes on the monotonic clock. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (f ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

(* The fastest of [n] timings. [prepare] builds each timed thunk outside
   the timer, so setup such as a fresh instance is not counted. *)
let best_of n prepare =
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (timed (prepare ()))
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  (* insn -> (tp, lat option) per core, paper order X3/A715/A510 *)
  [
    ("irg", [ (1.34, Some 1.99); (1.00, Some 2.00); (0.50, Some 3.00) ]);
    ("addg", [ (2.01, Some 1.99); (3.81, Some 1.00); (2.22, Some 2.00) ]);
    ("subg", [ (2.01, Some 1.99); (3.81, Some 1.00); (2.22, Some 2.00) ]);
    ("subp", [ (3.49, Some 0.99); (3.81, Some 1.00); (2.50, Some 2.00) ]);
    ("subps", [ (2.88, Some 0.99); (3.80, Some 1.00); (2.50, Some 2.00) ]);
    ("stg", [ (1.00, None); (1.81, None); (1.00, None) ]);
    ("st2g", [ (1.00, None); (1.84, None); (0.46, None) ]);
    ("stzg", [ (1.00, None); (1.84, None); (0.98, None) ]);
    ("st2zg", [ (0.34, None); (1.79, None); (0.45, None) ]);
    ("stgp", [ (1.00, None); (1.69, None); (0.98, None) ]);
    ("ldg", [ (2.92, None); (1.91, None); (0.93, None) ]);
    ("pacdza", [ (1.01, Some 4.97); (1.51, Some 5.00); (0.20, Some 4.99) ]);
    ("pacda", [ (1.01, Some 4.97); (1.42, Some 5.00); (0.20, Some 5.00) ]);
    ("autdza", [ (1.01, Some 4.97); (1.51, Some 5.00); (0.20, Some 7.99) ]);
    ("autda", [ (1.01, Some 4.97); (1.43, Some 5.00); (0.20, Some 7.99) ]);
    ("xpacd", [ (1.01, Some 1.99); (1.56, Some 2.00); (0.20, Some 4.99) ]);
  ]

let run_table1 () =
  Harness.Report.title (!ppf_ref)
    "Table 1: MTE/PAC instruction throughput (insn/cycle) and latency (cycles)";
  let rows = Workloads.Microbench.table1 () in
  let fmt_lat = function Some l -> Printf.sprintf "%.2f" l | None -> "-" in
  let table_rows =
    List.map
      (fun (r : Workloads.Microbench.insn_row) ->
        let paper = List.assoc_opt r.ir_insn paper_table1 in
        r.ir_insn
        :: List.concat
             (List.mapi
                (fun i (_, tp, lat) ->
                  let ptp, plat =
                    match paper with
                    | Some l ->
                        let a, b = List.nth l i in
                        (Printf.sprintf "%.2f" a, fmt_lat b)
                    | None -> ("-", "-")
                  in
                  [
                    Printf.sprintf "%.2f/%s" tp ptp;
                    Printf.sprintf "%s/%s" (fmt_lat lat) plat;
                  ])
                r.ir_results))
      rows
  in
  Harness.Report.table (!ppf_ref)
    ~header:
      [ "insn"; "X3 tp"; "X3 lat"; "A715 tp"; "A715 lat"; "A510 tp";
        "A510 lat" ]
    table_rows;
  Format.fprintf (!ppf_ref) "  (each cell: measured/paper)@."

(* ------------------------------------------------------------------ *)
(* Fig. 4                                                              *)
(* ------------------------------------------------------------------ *)

let run_fig4 () =
  Harness.Report.title (!ppf_ref)
    "Fig. 4: memset of 128 MiB under MTE modes (overhead vs disabled)";
  let paper = [ (19.1, 2.6); (14.4, 3.3); (29.9, 11.3) ] in
  let rows = Workloads.Microbench.fig4 () in
  Harness.Report.table (!ppf_ref)
    ~header:
      [ "core"; "disabled"; "sync"; "async"; "sync ovh (m/p)";
        "async ovh (m/p)" ]
    (List.mapi
       (fun i (r : Workloads.Microbench.memset_row) ->
         let psync, pasync = List.nth paper i in
         let ovh a = 100.0 *. ((a /. r.ms_off) -. 1.0) in
         [
           r.ms_core;
           Harness.Report.seconds r.ms_off;
           Harness.Report.seconds r.ms_sync;
           Harness.Report.seconds r.ms_async;
           Printf.sprintf "%.1f%%/%.1f%%" (ovh r.ms_sync) psync;
           Printf.sprintf "%.1f%%/%.1f%%" (ovh r.ms_async) pasync;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Fig. 14                                                             *)
(* ------------------------------------------------------------------ *)

let run_fig14 () =
  Harness.Report.title (!ppf_ref)
    "Fig. 14: PolyBench/C runtime overhead vs baseline wasm64 (mean +- std over %d kernels)"
    (List.length Workloads.Polybench.all);
  let cells, _detail = Harness.Experiment.fig14 () in
  Harness.Report.table (!ppf_ref)
    ~header:[ "configuration"; "core"; "measured"; "paper" ]
    (List.map
       (fun (c : Harness.Experiment.fig14_cell) ->
         [
           c.fc_config;
           c.fc_core;
           Printf.sprintf "%+.1f%% +- %.1f%%" c.fc_mean c.fc_std;
           (match c.fc_paper with
           | Some p -> Printf.sprintf "%+.1f%%" p
           | None -> "~0% (within error)");
         ])
       cells);
  Format.fprintf (!ppf_ref)
    "  (negative = faster than wasm64; the wasm32 row restates the paper's \
     6-8%% OoO / 52%% in-order cost of 64-bit wasm)@."

let run_fig14_detail () =
  Harness.Report.title (!ppf_ref) "Fig. 14 (per-kernel detail, Cortex-X3)";
  let _, detail = Harness.Experiment.fig14 () in
  let kernels =
    List.sort_uniq compare (List.map (fun (kn, _, _, _) -> kn) detail)
  in
  let cfgs =
    [ "baseline wasm32"; "Cage-mem-safety"; "Cage-sandboxing"; "CAGE" ]
  in
  Harness.Report.table (!ppf_ref)
    ~header:("kernel" :: cfgs)
    (List.map
       (fun kernel ->
         kernel
         :: List.map
              (fun cfg ->
                match
                  List.find_opt
                    (fun (kn, c, core, _) ->
                      kn = kernel && c = cfg && core = "Cortex-X3")
                    detail
                with
                | Some (_, _, _, ov) -> Printf.sprintf "%+.1f%%" ov
                | None -> "-")
              cfgs)
       kernels)

(* ------------------------------------------------------------------ *)
(* Fig. 15                                                             *)
(* ------------------------------------------------------------------ *)

let run_fig15 () =
  Harness.Report.title (!ppf_ref)
    "Fig. 15: static vs dynamic vs authenticated dynamic calls (modified 2mm)";
  let rows = Workloads.Microbench.fig15 () in
  Harness.Report.table (!ppf_ref)
    ~header:[ "core"; "static"; "dynamic"; "dyn+auth"; "dyn ovh"; "auth ovh" ]
    (List.map
       (fun (r : Workloads.Microbench.fig15_row) ->
         [
           r.f15_core;
           Harness.Report.seconds r.f15_static;
           Harness.Report.seconds r.f15_dynamic;
           Harness.Report.seconds r.f15_dynamic_auth;
           Harness.Report.pct
             (100.0 *. ((r.f15_dynamic /. r.f15_static) -. 1.0));
           Harness.Report.pct
             (100.0 *. ((r.f15_dynamic_auth /. r.f15_dynamic) -. 1.0));
         ])
       rows);
  Format.fprintf (!ppf_ref)
    "  (paper: dynamic costs 15-22%% over static; authentication adds \
     virtually nothing)@."

(* ------------------------------------------------------------------ *)
(* Fig. 16                                                             *)
(* ------------------------------------------------------------------ *)

let run_fig16 () =
  Harness.Report.title (!ppf_ref)
    "Fig. 16 / Table 4: initialising + tagging 128 MiB (relative to plain memset)";
  let rows = Workloads.Microbench.fig16 () in
  let variants = List.map fst (List.hd rows).Workloads.Microbench.f16_times in
  Harness.Report.table (!ppf_ref)
    ~header:
      ("variant"
      :: List.map (fun r -> r.Workloads.Microbench.f16_core) rows)
    (List.map
       (fun v ->
         v
         :: List.map
              (fun (r : Workloads.Microbench.fig16_row) ->
                let t = List.assoc v r.f16_times in
                let memset = List.assoc "memset" r.f16_times in
                Printf.sprintf "%s (%.2fx)" (Harness.Report.seconds t)
                  (t /. memset))
              rows)
       variants);
  Format.fprintf (!ppf_ref)
    "  (paper: stzg/st2zg/stgp slightly beat memset - they skip the tag \
     check; stg-only passes touch 1/32 of the data)@."

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  Harness.Report.title (!ppf_ref)
    "Table 2: CVE re-creations under baseline wasm64 vs Cage-mem-safety";
  let verdicts = Workloads.Cve_suite.evaluate_all () in
  Harness.Report.table (!ppf_ref)
    ~header:[ "CVE"; "cause"; "baseline wasm64"; "Cage" ]
    (List.map
       (fun (v : Workloads.Cve_suite.verdict) ->
         [
           v.v_entry.cve;
           v.v_entry.cause;
           v.v_baseline;
           (if v.v_caught then "trapped (caught)" else "MISSED");
         ])
       verdicts);
  let caught =
    List.length
      (List.filter (fun v -> v.Workloads.Cve_suite.v_caught) verdicts)
  in
  Format.fprintf (!ppf_ref) "  caught %d/%d (paper: all exploitable in plain WASM)@."
    caught (List.length verdicts)

(* ------------------------------------------------------------------ *)
(* §7.3 memory overhead                                                *)
(* ------------------------------------------------------------------ *)

let run_mem () =
  Harness.Report.title (!ppf_ref) "Sec 7.3: memory overhead (rss analogue)";
  let rows = Harness.Experiment.memory_overhead () in
  let ovh64 =
    List.map
      (fun (r : Harness.Experiment.mem_row) ->
        100.0
        *. ((Int64.to_float r.mr_rss64 /. Int64.to_float r.mr_rss32) -. 1.0))
      rows
  in
  let ovh_cage =
    List.map
      (fun (r : Harness.Experiment.mem_row) ->
        100.0
        *. ((Int64.to_float r.mr_cage /. Int64.to_float r.mr_rss32) -. 1.0))
      rows
  in
  let m64, _ = Harness.Report.mean_std ovh64 in
  let mc, _ = Harness.Report.mean_std ovh_cage in
  Harness.Report.compare_line (!ppf_ref) ~label:"wasm64 over wasm32" ~paper:"+0.6%"
    ~measured:(Harness.Report.pct m64) ~unit_:"";
  Harness.Report.compare_line (!ppf_ref) ~label:"CAGE total (incl. 3.125% tags)"
    ~paper:"< +5.3%" ~measured:(Harness.Report.pct mc) ~unit_:"";
  Harness.Report.table (!ppf_ref)
    ~header:[ "kernel"; "rss32"; "rss64"; "cage (rss64 + tags)" ]
    (List.map
       (fun (r : Harness.Experiment.mem_row) ->
         [
           r.mr_kernel;
           Printf.sprintf "%Ld B" r.mr_rss32;
           Printf.sprintf "%Ld B" r.mr_rss64;
           Printf.sprintf "%Ld B" r.mr_cage;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* §7.2 startup                                                        *)
(* ------------------------------------------------------------------ *)

let run_startup () =
  Harness.Report.title (!ppf_ref)
    "Sec 7.2: startup of an instance with 128 MiB memory";
  Harness.Report.table (!ppf_ref)
    ~header:[ "core"; "baseline"; "CAGE (tagging)"; "delta" ]
    (List.map
       (fun (r : Workloads.Microbench.startup_row) ->
         [
           r.su_core;
           Harness.Report.seconds r.su_baseline;
           Harness.Report.seconds r.su_cage;
           Harness.Report.pct (100.0 *. ((r.su_cage /. r.su_baseline) -. 1.0));
         ])
       (Workloads.Microbench.startup ()));
  Format.fprintf (!ppf_ref)
    "  (paper: the tagging cost is hidden by the runtime's startup work)@."

(* ------------------------------------------------------------------ *)
(* §7.4 collisions, ablations, sandbox experiments                     *)
(* ------------------------------------------------------------------ *)

let run_collision () =
  Harness.Report.title (!ppf_ref) "Sec 7.4: allocation-tag collision probability";
  List.iter
    (fun (r : Harness.Experiment.collision_row) ->
      Harness.Report.compare_line (!ppf_ref) ~label:r.cr_label
        ~paper:(Printf.sprintf "%.3f" r.cr_theory)
        ~measured:(Printf.sprintf "%.3f" r.cr_measured)
        ~unit_:"")
    (Harness.Experiment.tag_collisions ())

let run_ablation () =
  Harness.Report.title (!ppf_ref)
    "Ablation: Algorithm 1 selectivity (instrumented stack slots)";
  let rows = Harness.Experiment.sanitizer_ablation () in
  Harness.Report.table (!ppf_ref)
    ~header:
      [ "program"; "Algorithm 1"; "instrument-all"; "before optimiser";
        "all/selective runtime" ]
    (List.map
       (fun (r : Harness.Experiment.sanitizer_ablation) ->
         [
           r.sa_kernel;
           string_of_int r.sa_selective;
           string_of_int r.sa_all;
           string_of_int r.sa_unoptimised;
           Printf.sprintf "%.2fx" r.sa_runtime_cost;
         ])
       rows);
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  Format.fprintf (!ppf_ref)
    "  totals: selective %d, all %d, pre-optimiser %d@."
    (total (fun r -> r.Harness.Experiment.sa_selective))
    (total (fun r -> r.Harness.Experiment.sa_all))
    (total (fun r -> r.Harness.Experiment.sa_unoptimised));
  let guard_rate = Harness.Experiment.guard_slot_ablation () in
  Format.fprintf (!ppf_ref)
    "  guard slots (Fig. 8b): inter-frame underflow caught in %.0f%% of seeds@."
    (100.0 *. guard_rate)

let run_escape () =
  Harness.Report.title (!ppf_ref)
    "Sandboxing: CVE-2023-26489-style buggy lowering, and Sec 6.4 capacity";
  List.iter
    (fun (r : Harness.Experiment.escape_result) ->
      Format.fprintf (!ppf_ref) "  %-42s -> %s%s@." r.er_strategy r.er_outcome
        (if r.er_escaped then "  ** SANDBOX ESCAPE **" else ""))
    (Harness.Experiment.sandbox_escape ());
  Format.fprintf (!ppf_ref)
    "  max concurrent MTE sandboxes per process: %d (paper: 15)@."
    (Harness.Experiment.sandbox_capacity ())

let run_modes () =
  Harness.Report.title (!ppf_ref)
    "Ablation: MTE checking modes on a heap overflow (Sec 2.3 / Fig. 2)";
  List.iter
    (fun (r : Harness.Experiment.mode_row) ->
      Format.fprintf (!ppf_ref) "  %-10s %-70s cost vs sync: %+.1f%%@."
        (Arch.Mte.mode_to_string r.md_mode)
        r.md_outcome r.md_polybench_cost)
    (Harness.Experiment.mte_modes ());
  Format.fprintf (!ppf_ref)
    "  (sync/asymmetric trap before the write lands; async detects at the      next context switch; the paper uses sync, Sec 6.3)@."

(* ------------------------------------------------------------------ *)
(* Observability overhead (BENCH_obsoverhead.json)                     *)
(* ------------------------------------------------------------------ *)

(* The obs layer's contract is "zero-cost when disabled": with no sink
   installed the interpreter pays one load-and-compare per interpreted
   op (obs_tick) and one per checked span (span_check). The pre-obs
   interpreter no longer exists in this binary, so the disabled
   overhead is computed honestly from parts: microbench the
   load-and-compare itself, count how many the workload executes (from
   the meter), and divide by the measured uninstrumented runtime.
   Tracing-on cost is measured directly as full-sink vs no-sink. *)
let run_obsoverhead () =
  Harness.Report.title (!ppf_ref)
    "Observability overhead: disabled hook cost and full-sink tracing cost";
  let kernel =
    match Workloads.Polybench.find "atax" with
    | Some kn -> kn
    | None -> assert false
  in
  let time f = best_of 6 (fun () -> f) in
  let meter = Wasm.Meter.create () in
  let run_on engine () =
    Wasm.Meter.reset meter;
    Libc.Run.run ~cfg:Cage.Config.full ~engine ~meter
      kernel.Workloads.Polybench.k_source
  in
  (* The disabled-overhead model prices one obs_tick per interpreted op
     and one span_check per access, so the gated measurement pins the
     reference interpreter. The threaded engine batches those checks
     per superinstruction and runs several times faster; its no-sink
     runtime is reported informationally below. *)
  let run_workload = run_on Wasm.Instance.Interp in
  Obs.Hook.uninstall ();
  let t_off = time run_workload in
  let t_off_threaded = time (run_on Wasm.Instance.Threaded) in
  let ops = Wasm.Meter.total meter in
  let mem = Wasm.Meter.mem_accesses meter in
  let t_full =
    time (fun () ->
        Obs.Hook.with_sink
          (Obs.Hook.make ~trace:(Obs.Trace.create ())
             ~metrics:(Obs.Metrics.cage ())
             ~profiler:(Obs.Profiler.create ()) ())
          run_workload)
  in
  (* The disabled fast path, exactly as the interpreter spells it: one
     load of the hook ref and a branch. Best-of-N like the workload
     timings above — the ratio below divides this by a best-of-N
     runtime, so a single load-inflated sample here would bias the
     gate upward. Eight checks per loop iteration so the loop
     counter's own decrement-and-branch is amortized out of the
     per-check figure instead of dominating it — at the interpreter's
     call sites the guard sits inside an already-running dispatch
     loop, so pricing the bare guard is the honest model. *)
  let check_ns =
    let n = 1_000_000 in
    let acc = ref 0 in
    let step () = match !Obs.Hook.hook with None -> () | Some _ -> incr acc in
    let loop () =
      for _ = 1 to n do
        step (); step (); step (); step ();
        step (); step (); step (); step ()
      done
    in
    let t = best_of 20 (fun () -> loop) in
    ignore (Sys.opaque_identity !acc);
    t *. 1e9 /. float_of_int (8 * n)
  in
  (* obs_tick once per interpreted op, span_check once per scalar
     memory access: the checks this workload actually executes. *)
  let checks = ops + mem in
  let disabled_pct =
    float_of_int checks *. check_ns /. (t_off *. 1e9) *. 100.0
  in
  let full_pct = 100.0 *. ((t_full /. t_off) -. 1.0) in
  (* Request-span overhead on the serving path: the same chaos-on
     replay with the span recorder + SLO collector installed vs bare.
     Tenants are compiled once, outside the timed region, so the ratio
     isolates the instrumentation. Each side is priced in process CPU
     time over interleaved off/on pairs, alternating which side runs
     first, and the figure is the median per-pair overhead: host drift
     then hits both sides of a pair alike. *)
  let serve_seed = 7 in
  let serve_tenants = Harness.Serve_bench.tenants ~seed:serve_seed () in
  let serve_config =
    {
      Serve.Server.default_config with
      Serve.Server.requests = 2_000;
      seed = serve_seed;
    }
  in
  let serve_run ?collect () =
    ignore
      (Serve.Server.run
         ~chaos:(Harness.Serve_bench.chaos_policy ~seed:serve_seed)
         ?collect serve_config serve_tenants)
  in
  let cpu_s f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let spans_off () = cpu_s serve_run in
  let spans_on () =
    cpu_s (fun () ->
        Obs.Span.with_recorder (Obs.Trace.create ()) (fun () ->
            serve_run ~collect:(Serve.Slo.collector ()) ()))
  in
  Obs.Span.uninstall ();
  serve_run ();
  let pairs =
    List.init 12 (fun i ->
        if i mod 2 = 0 then
          let off = spans_off () in
          (off, spans_on ())
        else
          let on_ = spans_on () in
          (spans_off (), on_))
  in
  let median l =
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0
  in
  let t_serve_off = median (List.map fst pairs) in
  let t_serve_on = median (List.map snd pairs) in
  let serve_spans_pct =
    median (List.map (fun (off, on_) -> 100.0 *. ((on_ /. off) -. 1.0)) pairs)
  in
  Harness.Report.table (!ppf_ref)
    ~header:[ "configuration"; "runtime"; "overhead" ]
    [
      [ "no sink (measured, interp)"; Harness.Report.seconds t_off;
        "baseline" ];
      [ "no sink (measured, threaded)";
        Harness.Report.seconds t_off_threaded;
        Printf.sprintf "%.1fx faster" (t_off /. t_off_threaded) ];
      [ "no sink vs pre-obs (computed)"; Harness.Report.seconds t_off;
        Printf.sprintf "%.3f%%" disabled_pct ];
      [ "trace+metrics+profiler"; Harness.Report.seconds t_full;
        Harness.Report.pct full_pct ];
      [ "serving, spans off"; Harness.Report.seconds t_serve_off;
        "baseline" ];
      [ "serving, spans+slo on"; Harness.Report.seconds t_serve_on;
        Harness.Report.pct serve_spans_pct ];
    ];
  Format.fprintf (!ppf_ref)
    "  hook check: %.2f ns; %d checks over %d ops (target: disabled <= 2%%)@."
    check_ns checks ops;
  let oc = open_out "BENCH_obsoverhead.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"atax\",\n\
    \  \"ops\": %d,\n\
    \  \"mem_accesses\": %d,\n\
    \  \"t_off_s\": %.9f,\n\
    \  \"t_off_threaded_s\": %.9f,\n\
    \  \"t_full_s\": %.9f,\n\
    \  \"check_ns\": %.4f,\n\
    \  \"checks_per_run\": %d,\n\
    \  \"disabled_overhead_pct\": %.4f,\n\
    \  \"full_sink_overhead_pct\": %.2f,\n\
    \  \"serve_spans_off_s\": %.9f,\n\
    \  \"serve_spans_on_s\": %.9f,\n\
    \  \"serve_spans_overhead_pct\": %.2f\n\
     }\n"
    ops mem t_off t_off_threaded t_full check_ns checks disabled_pct
    full_pct t_serve_off t_serve_on serve_spans_pct;
  close_out oc;
  Format.fprintf (!ppf_ref) "  wrote BENCH_obsoverhead.json@."

(* ------------------------------------------------------------------ *)
(* Interprocedural analysis (BENCH_analysis.json)                      *)
(* ------------------------------------------------------------------ *)

(* The summary-based analyzer's three consumers, priced on PolyBench:
   tag-check elision (the PR 5 baseline), full-check elision (span
   checks dropped where the access is span-provable), and arena
   lowering (segment.new/segment.free tag-plane writes dropped for
   proven non-escaping segments). Every kernel runs three times —
   unelided, tag-only, full — and all three checksums must agree, so
   the experiment doubles as a soundness differential. *)
let run_analysis () =
  Harness.Report.title (!ppf_ref)
    "Interprocedural elision: PolyBench under Cage-mem-safety (Cortex-X3 \
     model)";
  let core = Arch.Cpu_model.cortex_x3 in
  let cfg = Cage.Config.mem_safety in
  let tag_cfg = Cage.Config.with_elision cfg in
  let full_cfg = Cage.Config.with_arena (Cage.Config.with_bounds_elision cfg) in
  let rows =
    List.map
      (fun (k : Workloads.Polybench.kernel) ->
        let m0 = Wasm.Meter.create ()
        and m1 = Wasm.Meter.create ()
        and m2 = Wasm.Meter.create () in
        let v0 = Libc.Run.ret_i32 (Libc.Run.run ~cfg ~meter:m0 k.k_source) in
        let v1 =
          Libc.Run.ret_i32 (Libc.Run.run ~cfg:tag_cfg ~meter:m1 k.k_source)
        in
        let v2 =
          Libc.Run.ret_i32 (Libc.Run.run ~cfg:full_cfg ~meter:m2 k.k_source)
        in
        if v0 <> v1 || v0 <> v2 then
          failwith
            (Printf.sprintf
               "%s: elision changed the checksum (%ld / %ld / %ld)" k.k_name
               v0 v1 v2);
        let accesses = float_of_int (Wasm.Meter.mem_accesses m2) in
        let frac n = if accesses = 0.0 then 0.0 else float_of_int n /. accesses in
        let tag_frac = frac m2.Wasm.Meter.elided_checks in
        let bounds_frac = frac m2.Wasm.Meter.elided_bounds in
        let tw_elided =
          m2.Wasm.Meter.arena_new_granules + m2.Wasm.Meter.arena_free_granules
        in
        let tw_total =
          m0.Wasm.Meter.seg_new_granules + m0.Wasm.Meter.seg_free_granules
        in
        let tw_frac =
          if tw_total = 0 then 0.0
          else float_of_int tw_elided /. float_of_int tw_total
        in
        let base = Cage.Lowering.seconds core cfg m0 in
        let t_tag = Cage.Lowering.seconds core cfg m1 in
        let t_full = Cage.Lowering.seconds core cfg m2 in
        let sp_tag = 100.0 *. (1.0 -. (t_tag /. base)) in
        let sp_full = 100.0 *. (1.0 -. (t_full /. base)) in
        (k.k_name, tag_frac, bounds_frac, tw_frac, tw_elided, sp_tag, sp_full))
      Workloads.Polybench.all
  in
  Harness.Report.table (!ppf_ref)
    ~header:
      [ "kernel"; "tag elided"; "bounds elided"; "tag writes elided";
        "speedup (tag)"; "speedup (full)" ]
    (List.map
       (fun (name, tf, bf, twf, _, st, sf) ->
         [
           name;
           Printf.sprintf "%.1f%%" (100.0 *. tf);
           Printf.sprintf "%.1f%%" (100.0 *. bf);
           Printf.sprintf "%.1f%%" (100.0 *. twf);
           Printf.sprintf "%.2f%%" st;
           Printf.sprintf "%.2f%%" sf;
         ])
       rows);
  let mean f =
    List.fold_left (fun a r -> a +. f r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  let mean_tag = mean (fun (_, tf, _, _, _, _, _) -> tf) in
  let mean_bounds = mean (fun (_, _, bf, _, _, _, _) -> bf) in
  let mean_tw = mean (fun (_, _, _, twf, _, _, _) -> twf) in
  let tw_elided_total =
    List.fold_left (fun a (_, _, _, _, tw, _, _) -> a + tw) 0 rows
  in
  let mean_sp_tag = mean (fun (_, _, _, _, _, st, _) -> st) in
  let mean_sp_full = mean (fun (_, _, _, _, _, _, sf) -> sf) in
  Format.fprintf (!ppf_ref)
    "  mean: %.1f%% tag checks, %.1f%% span checks, %.1f%% tag-plane writes \
     elided;@.  modeled speedup %.2f%% (tag-only) -> %.2f%% (full) — target: \
     tag-write elision > 0, full > tag-only@."
    (100.0 *. mean_tag) (100.0 *. mean_bounds) (100.0 *. mean_tw) mean_sp_tag
    mean_sp_full;
  if tw_elided_total = 0 then
    failwith "analysis: no tag-plane writes elided on any PolyBench kernel";
  if mean_sp_full <= mean_sp_tag then
    failwith
      (Printf.sprintf
         "analysis: full elision (%.3f%%) does not beat tag-only (%.3f%%)"
         mean_sp_full mean_sp_tag);
  let oc = open_out "BENCH_analysis.json" in
  Printf.fprintf oc "{\n  \"config\": %S,\n  \"core\": %S,\n  \"kernels\": [\n"
    cfg.Cage.Config.name core.Arch.Cpu_model.name;
  List.iteri
    (fun i (name, tf, bf, twf, tw, st, sf) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"tag_elided_frac\": %.4f, \
         \"bounds_elided_frac\": %.4f, \"tag_writes_elided_frac\": %.4f, \
         \"tag_writes_elided\": %d, \"speedup_tag_pct\": %.3f, \
         \"speedup_full_pct\": %.3f }%s\n"
        name tf bf twf tw st sf
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n\
    \  \"mean_tag_elided_frac\": %.4f,\n\
    \  \"mean_bounds_elided_frac\": %.4f,\n\
    \  \"mean_tag_writes_elided_frac\": %.4f,\n\
    \  \"tag_writes_elided_total\": %d,\n\
    \  \"mean_speedup_tag_pct\": %.3f,\n\
    \  \"mean_speedup_full_pct\": %.3f\n\
     }\n"
    mean_tag mean_bounds mean_tw tw_elided_total mean_sp_tag mean_sp_full;
  close_out oc;
  Format.fprintf (!ppf_ref) "  wrote BENCH_analysis.json@."

(* ------------------------------------------------------------------ *)
(* Execution engines (BENCH_exec.json)                                 *)
(* ------------------------------------------------------------------ *)

(* Wall-clock comparison of the reference interpreter against the
   direct-threaded engine on every PolyBench kernel, in two columns:
   the untagged wasm32 sandbox (the column CI gates) and CAGE with the
   whole elision plan (tags, bounds, arena), the paper's configuration,
   where the wasm64 address idioms run. One compile per kernel; every
   timed run gets a fresh instance (instantiation — including
   threaded-code lowering — happens outside the timer, as a serving
   pool would amortize it). The two engines run interleaved, [exec_reps]
   times each, alternating which goes first, and each kernel reports
   both engines' median and interquartile range: a best-of figure moved
   the geomean by 10-15% between runs of one build, more than an engine
   change shows, and a median beside its spread shows when a difference
   is smaller than the noise. Before timing, a metered verification
   pass runs each kernel once per engine and asserts the checksum and
   every meter counter agree, so the modeled cycle counts
   (Cage.Lowering prices the meter, not the clock) are engine-invariant
   by construction. The threaded verification run also counts the minor
   words its invoke allocates: the column's words per memory access
   over all kernels is CI-gated, since an access that boxes shows up
   there first. *)
let exec_reps = 11

(* The median and the interquartile range of [l] (quartiles as the
   medians of the halves below and above the median). *)
let median_iqr l =
  let a = Array.of_list (List.sort compare l) in
  let med a lo hi =
    let n = hi - lo in
    (a.(lo + ((n - 1) / 2)) +. a.(lo + (n / 2))) /. 2.0
  in
  let n = Array.length a in
  (med a 0 n, med a ((n + 1) / 2) n -. med a 0 (n / 2))

let exec_column core (cfg : Cage.Config.t) =
  let words = ref 0.0 and accesses = ref 0 in
  let rows =
    List.map
      (fun (kernel : Workloads.Polybench.kernel) ->
        let compiled = (Libc.Run.compile cfg kernel.k_source).co_module in
        let icfg = Cage.Config.instance_config ~m:compiled cfg in
        let fresh ?meter engine =
          let wasi = Libc.Wasi.create () in
          Wasm.Exec.instantiate
            ~config:{ icfg with Wasm.Instance.meter; engine }
            ~imports:(Libc.Wasi.imports wasi) compiled
        in
        (* verification pass: outcomes and meters must be identical *)
        let run_metered engine =
          let meter = Wasm.Meter.create () in
          let inst = fresh ~meter engine in
          let w0 = Gc.minor_words () in
          let vs = Wasm.Exec.invoke inst "main" [] in
          (vs, meter, Gc.minor_words () -. w0)
        in
        let v_i, m_i, _ = run_metered Wasm.Instance.Interp in
        let v_t, m_t, w_t = run_metered Wasm.Instance.Threaded in
        words := !words +. w_t;
        accesses := !accesses + Wasm.Meter.mem_accesses m_t;
        if v_i <> v_t then
          failwith
            (Printf.sprintf "%s (%s): engines disagree on the result"
               kernel.k_name cfg.name);
        if m_i <> m_t then
          failwith
            (Printf.sprintf
               "%s (%s): engines disagree on the meter (%d vs %d ops)"
               kernel.k_name cfg.name (Wasm.Meter.total m_i)
               (Wasm.Meter.total m_t));
        let time engine =
          let inst = fresh engine in
          timed (fun () -> Wasm.Exec.invoke inst "main" [])
        in
        let pairs =
          List.init exec_reps (fun r ->
              if r mod 2 = 0 then
                let t_i = time Wasm.Instance.Interp in
                (t_i, time Wasm.Instance.Threaded)
              else
                let t_t = time Wasm.Instance.Threaded in
                (time Wasm.Instance.Interp, t_t))
        in
        let t_i = median_iqr (List.map fst pairs) in
        let t_t = median_iqr (List.map snd pairs) in
        let modeled = Cage.Lowering.seconds core cfg m_t in
        (kernel.k_name, t_i, t_t, fst t_i /. fst t_t, modeled))
      Workloads.Polybench.all
  in
  Harness.Report.table (!ppf_ref)
    ~header:[ "kernel"; "interp (median)"; "IQR"; "threaded (median)"; "IQR"; "speedup"; "modeled" ]
    (List.map
       (fun (name, (t_i, q_i), (t_t, q_t), s, modeled) ->
         [
           name; Harness.Report.seconds t_i; Harness.Report.seconds q_i;
           Harness.Report.seconds t_t; Harness.Report.seconds q_t;
           Printf.sprintf "%.2fx" s; Harness.Report.seconds modeled;
         ])
       rows);
  let geomean =
    exp
      (List.fold_left (fun a (_, _, _, s, _) -> a +. log s) 0.0 rows
      /. float_of_int (List.length rows))
  in
  let words_per_access = !words /. float_of_int !accesses in
  Format.fprintf (!ppf_ref)
    "  %s: geomean speedup %.2fx of medians over %d kernels, %d interleaved \
     reps a side (modeled cycles engine-invariant, meters bit-identical); \
     threaded minor words per access %.3f@."
    cfg.name geomean (List.length rows) exec_reps words_per_access;
  (rows, geomean, words_per_access)

let run_exec () =
  Harness.Report.title (!ppf_ref)
    "Execution engines: reference interpreter vs direct-threaded code";
  let core = Arch.Cpu_model.cortex_x3 in
  Obs.Hook.uninstall ();
  let cfg = Cage.Config.baseline_wasm32 in
  let cage = Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.full) in
  let rows, geomean, words = exec_column core cfg in
  let cage_rows, cage_geomean, cage_words = exec_column core cage in
  let kernels oc indent rows =
    List.iteri
      (fun i (name, (t_i, q_i), (t_t, q_t), s, modeled) ->
        Printf.fprintf oc
          "%s{ \"name\": %S, \"interp_s\": %.9f, \"interp_iqr_s\": %.9f, \
           \"threaded_s\": %.9f, \"threaded_iqr_s\": %.9f, \"speedup\": %.3f, \
           \"modeled_s\": %.9f }%s\n"
          indent name t_i q_i t_t q_t s modeled
          (if i = List.length rows - 1 then "" else ","))
      rows
  in
  (* the CAGE column sits under its own key, and its geomean is not
     named [geomean_speedup]: the CI gate greps for that key *)
  let oc = open_out "BENCH_exec.json" in
  Printf.fprintf oc
    "{\n  \"config\": %S,\n  \"core\": %S,\n  \"timing\": \"median and interquartile \
     range of %d interleaved reps per engine\",\n  \"kernels\": [\n"
    cfg.name core.Arch.Cpu_model.name exec_reps;
  kernels oc "    " rows;
  Printf.fprintf oc "  ],\n  \"geomean_speedup\": %.3f,\n" geomean;
  Printf.fprintf oc "  \"minor_words_per_access\": %.3f,\n" words;
  Printf.fprintf oc
    "  \"cage_full_plan\": {\n    \"config\": %S,\n    \"plan\": \"tags + \
     bounds + arena\",\n    \"kernels\": [\n"
    cage.name;
  kernels oc "      " cage_rows;
  Printf.fprintf oc
    "    ],\n    \"geomean\": %.3f,\n    \"minor_words_per_access\": %.3f\n  }\n}\n"
    cage_geomean cage_words;
  close_out oc;
  Format.fprintf (!ppf_ref)
    "  wrote BENCH_exec.json (threaded vs seed interpreter)@."

(* ------------------------------------------------------------------ *)
(* Tag-plane span check (BENCH_tagscan.json)                           *)
(* ------------------------------------------------------------------ *)

(* The host cost of a span tag check against the write it guards: the
   best of [reps] timings of one [Tag_memory.matches_native] over a
   matching 1 MiB span (65,536 granules: serve-bigimage's [memory.fill]
   check) and of one [Bytes.fill] of the same 1 MiB, in the same
   process. CI gates the check-to-fill ratio, in which the host's speed
   mostly cancels. *)
let run_tagscan () =
  Harness.Report.title (!ppf_ref)
    "Tag-plane span check vs the fill it guards (1 MiB)";
  let bytes = 1 lsl 20 and reps = 200 in
  let granules = bytes / Arch.Tag_memory.granule_bytes in
  let tm = Arch.Tag_memory.create ~size_bytes:bytes in
  let tag = Arch.Tag.of_int 5 in
  (match Arch.Tag_memory.set_region tm ~addr:0L ~len:(Int64.of_int bytes) tag with
  | Ok () -> ()
  | Error e -> failwith e);
  let buf = Bytes.make bytes '\000' in
  let check =
    best_of reps (fun () () ->
        if not (Arch.Tag_memory.matches_native tm ~addr:0 ~len:bytes tag) then
          failwith "tagscan: a matching span failed its check")
  in
  let fill = best_of reps (fun () () -> Bytes.fill buf 0 bytes '\x5a') in
  let per_granule s = s *. 1e9 /. float_of_int granules in
  let ratio = check /. fill in
  Format.fprintf (!ppf_ref)
    "  check %.3f ns/granule (%.1f us), fill %.3f ns/granule (%.1f us), \
     check/fill %.2f (best of %d)@."
    (per_granule check) (check *. 1e6) (per_granule fill) (fill *. 1e6) ratio
    reps;
  let oc = open_out "BENCH_tagscan.json" in
  Printf.fprintf oc
    "{\n\
    \  \"span_bytes\": %d,\n\
    \  \"granules\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"check_ns_per_granule\": %.4f,\n\
    \  \"fill_ns_per_granule\": %.4f,\n\
    \  \"check_to_fill_ratio\": %.3f\n\
     }\n"
    bytes granules reps (per_granule check) (per_granule fill) ratio;
  close_out oc;
  Format.fprintf (!ppf_ref) "  wrote BENCH_tagscan.json@."

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benches (one per table/figure)                  *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let stream = Arch.Insn.independent Arch.Insn.Irg 512 in
  let atax =
    match Workloads.Polybench.find "atax" with
    | Some kn -> kn
    | None -> assert false
  in
  let compiled = (Libc.Run.compile Cage.Config.full atax.k_source).co_module in
  let meter = Wasm.Meter.create () in
  let _warm = Libc.Run.run ~cfg:Cage.Config.full ~meter atax.k_source in
  let tm = Arch.Tag_memory.create ~size_bytes:65536 in
  let key = Arch.Pac.key_of_int64s 1L 2L in
  [
    (* Table 1: the pipeline simulator recovering the insn figures *)
    Test.make ~name:"table1/pipeline-sim"
      (Staged.stage (fun () ->
           ignore (Arch.Timing.run Arch.Cpu_model.cortex_x3 stream)));
    (* Fig. 4: the memset timing model *)
    Test.make ~name:"fig4/memset-model"
      (Staged.stage (fun () ->
           ignore
             (Arch.Timing.memset_seconds Arch.Cpu_model.cortex_a510
                ~mode:Arch.Mte.Sync
                ~bytes:(128.0 *. 1024.0 *. 1024.0))));
    (* Fig. 14: interpret a PolyBench kernel under full CAGE *)
    Test.make ~name:"fig14/interpret-atax-cage"
      (Staged.stage (fun () ->
           let wasi = Libc.Wasi.create () in
           let inst =
             Wasm.Exec.instantiate
               ~config:(Cage.Config.instance_config Cage.Config.full)
               ~imports:(Libc.Wasi.imports wasi) compiled
           in
           ignore (Wasm.Exec.invoke inst "main" [])));
    (* Fig. 14 pricing: the lowering cost model *)
    Test.make ~name:"fig14/lowering-price"
      (Staged.stage (fun () ->
           ignore
             (Cage.Lowering.seconds Arch.Cpu_model.cortex_a715 Cage.Config.full
                meter)));
    (* Fig. 15: PAC sign+auth round *)
    Test.make ~name:"fig15/pac-sign-auth"
      (Staged.stage (fun () ->
           let p =
             Arch.Pac.sign Arch.Pac.default_config key ~modifier:0L 0x4000L
           in
           ignore (Arch.Pac.auth Arch.Pac.default_config key ~modifier:0L p)));
    (* Fig. 16: the tagged-init variant model *)
    Test.make ~name:"fig16/variant-model"
      (Staged.stage (fun () ->
           List.iter
             (fun v ->
               ignore
                 (Workloads.Microbench.variant_seconds Arch.Cpu_model.cortex_x3
                    v
                    ~bytes:(128.0 *. 1024.0 *. 1024.0)))
             Workloads.Microbench.table4_variants));
    (* Table 2 / Sec 7.4: the MTE check fast path *)
    Test.make ~name:"table2/mte-check"
      (Staged.stage
         (let mte = Arch.Mte.create tm in
          let ptr = Arch.Ptr.with_tag 64L Arch.Tag.zero in
          fun () -> ignore (Arch.Mte.check mte Arch.Mte.Load ~ptr ~len:8L)));
    (* Sec 7.3: tag-memory region updates *)
    Test.make ~name:"mem/set-region"
      (Staged.stage (fun () ->
           ignore
             (Arch.Tag_memory.set_region tm ~addr:0L ~len:4096L
                (Arch.Tag.of_int 3))));
    (* Sec 7.2: instantiating a module *)
    Test.make ~name:"startup/instantiate"
      (Staged.stage (fun () ->
           let wasi = Libc.Wasi.create () in
           ignore
             (Wasm.Exec.instantiate
                ~config:(Cage.Config.instance_config Cage.Config.full)
                ~imports:(Libc.Wasi.imports wasi) compiled)));
    (* Sec 7.4: tag drawing *)
    Test.make ~name:"collision/irg"
      (Staged.stage
         (let rng = Random.State.make [| 7 |] in
          let ex = Cage.Config.exclusion Cage.Config.full in
          fun () ->
            ignore (Arch.Tag.irg ex ~rng:(fun nn -> Random.State.int rng nn))));
  ]

let run_bechamel () =
  let open Bechamel in
  Harness.Report.title (!ppf_ref)
    "Bechamel wall-clock benchmarks of the library primitives";
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.fprintf (!ppf_ref) "  %-32s %12.1f ns/run@." name est
          | _ -> Format.fprintf (!ppf_ref) "  %-32s (no estimate)@." name)
        analysis)
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("fig4", run_fig4);
    ("fig14", run_fig14);
    ("fig14-detail", run_fig14_detail);
    ("fig15", run_fig15);
    ("fig16", run_fig16);
    ("table2", run_table2);
    ("mem", run_mem);
    ("startup", run_startup);
    ("collision", run_collision);
    ("ablation", run_ablation);
    ("modes", run_modes);
    ("escape", run_escape);
    ("obsoverhead", run_obsoverhead);
    ("analysis", run_analysis);
    ("exec", run_exec);
    ("tagscan", run_tagscan);
    ("bechamel", run_bechamel);
  ]

let default_order =
  [
    "table1"; "fig4"; "fig14"; "fig15"; "fig16"; "table2"; "mem"; "startup";
    "collision"; "ablation"; "modes"; "escape"; "obsoverhead";
    "analysis"; "exec"; "tagscan"; "bechamel";
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --out DIR: also write each experiment's report to DIR/<name>.txt,
     mirroring the artifact's results/ directory *)
  let out_dir, args =
    match args with
    | "--out" :: dir :: rest ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        (Some dir, rest)
    | args -> (None, args)
  in
  let to_run = match args with [] -> default_order | names -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> (
          match out_dir with
          | None -> f ()
          | Some dir ->
              let path = Filename.concat dir (name ^ ".txt") in
              let oc = open_out path in
              let file_ppf = Format.formatter_of_out_channel oc in
              ppf_ref := file_ppf;
              f ();
              Format.pp_print_flush file_ppf ();
              close_out oc;
              ppf_ref := Format.std_formatter;
              Format.printf "wrote %s@." path)
      | None ->
          Format.fprintf (!ppf_ref) "unknown experiment %S; available: %s@." name
            (String.concat ", " (List.map fst experiments)))
    to_run;
  Format.pp_print_flush (!ppf_ref) ()
