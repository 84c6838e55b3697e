(* The end-to-end benchmark: one command, four workloads, host-time and
   modeled end-to-end metrics, traced per-layer metrics.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--record FILE]
     main.exe --smoke [--benchmark FILE] [--serve-baseline FILE]
     main.exe --set FILE [--seeds A-B] [--seconds S]
     main.exe --compare A.jsonl B.jsonl [--benchmark FILE]

   A measured run (--trace 0) starts [workers] fresh processes one after
   another. Each sets up (timed), runs one discarded warm-up pass on the
   run seed's own inputs, then its timed reps; the last one first runs a
   small pass of every other workload, so its results show whether a
   workload depends on what ran before it in the process. A traced run
   (--trace 1) is one process that times the calls into each layer. The
   last line of standard output is the result as one JSON object. *)

let workers = 5

(* Runs must end well inside the 180 s a caller allows one run. *)
let run_budget_s = 170.0

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench/e2e: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> acc)
        nan (String.split_on_char '\n' s)

let metrics_json l = Json.Obj (List.map (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.num v); ("unit", Json.Str u) ])) l)

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct); ("attempted", Json.int attempted);
      ("failed", Json.int failed); ("metrics", metrics_json metrics) ]

(* ------------------------------------------------------------------ *)
(* One worker process                                                  *)
(* ------------------------------------------------------------------ *)

let first_errors l = List.filteri (fun i _ -> i < 10) l

(* Run [passes] passes of sub-seed [sub]'s inputs as one rep. *)
let run_rep (p : Workload.prepared) ~passes ~sub =
  let run = p.Workload.stage ~sub in
  let results = List.init passes (fun _ -> Layers.time (fun () -> run ~tr:None ~obs:Workload.Off)) in
  let reps = List.map fst results in
  let secs = List.fold_left (fun a (_, s) -> a +. s) 0.0 results in
  let first = List.hd reps in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  let errors =
    List.concat_map (fun (r : Workload.rep) -> r.Workload.errors) reps
    @
    if List.for_all (fun (r : Workload.rep) -> String.equal r.Workload.digest first.Workload.digest) reps
    then []
    else [ Printf.sprintf "sub-seed %d: passes over the same inputs differ" sub ]
  in
  ( { first with
      Workload.items = sum (fun r -> r.Workload.items);
      ok = sum (fun r -> r.Workload.ok);
      wrong = sum (fun r -> r.Workload.wrong);
      errors = first_errors errors },
    secs )

let model_json pairs = Json.Arr (List.map (fun (c, b) -> Json.nums [ c; b ]) pairs)

let rep_json ?(ref_s = 0.0) ~sub ~passes ((r : Workload.rep), secs) =
  Json.Obj
    [ ("sub", Json.int sub); ("secs", Json.num secs); ("passes", Json.int passes);
      ("ref_s", Json.num ref_s);
      ("items", Json.int r.Workload.items); ("ok", Json.int r.Workload.ok);
      ("wrong", Json.int r.Workload.wrong); ("p50", Json.num r.Workload.p50);
      ("p99", Json.num r.Workload.p99); ("digest", Json.Str r.Workload.digest);
      ("history", Json.Str r.Workload.history); ("errors", Json.strs r.Workload.errors) ]

(* A fixed computation that uses no code from this repository: sorting,
   hash-table inserts and byte-buffer writes, ~45 ms on a 2-core x86-64
   VM. It is timed before and after every rep, in the same process. A
   shared host's speed moves by up to ~40% in phases of minutes, and
   [pass_rel] divides that out of each rep. *)
let reference_s () =
  let a = Array.init 100_000 (fun i -> (i * 7919) land 0xfffff) in
  let buf = Bytes.create (1 lsl 20) in
  snd
    (Layers.time (fun () ->
         let b = Array.copy a in
         Array.sort compare b;
         let h = Hashtbl.create 1024 in
         Array.iter (fun x -> Hashtbl.replace h (x land 0xffff) x) b;
         for r = 0 to 7 do
           for i = 0 to Bytes.length buf - 1 do
             Bytes.unsafe_set buf i (Char.unsafe_chr ((i + r) land 0xff))
           done
         done))

let worker (w : Workload.t) ~seed ~scale ~index ~reps ~others =
  if others then
    List.iter
      (fun (o : Workload.t) ->
        if o.Workload.name <> w.Workload.name then begin
          let p = o.Workload.prepare ~scale:0.05 ~seed ~tr:None in
          ignore (p.Workload.stage ~sub:0 ~tr:None ~obs:Workload.Off)
        end)
      Workload.all;
  let p, setup_s = Layers.time (fun () -> w.Workload.prepare ~scale ~seed ~tr:None) in
  let passes = Workload.scaled scale w.Workload.passes_per_rep in
  let warm, _ = run_rep p ~passes:1 ~sub:0 in
  let before = ref (reference_s ()) in
  let timed =
    List.init reps (fun j ->
        let sub = if w.Workload.subseeded then 1 + (index * reps) + j else 0 in
        let r = run_rep p ~passes ~sub in
        let after = reference_s () in
        let ref_s = (!before +. after) /. 2.0 in
        before := after;
        rep_json ~ref_s ~sub ~passes r)
  in
  Json.Obj
    [ ("setup_s", Json.num setup_s); ("warm", rep_json ~sub:0 ~passes:1 (warm, 0.0));
      ("model", model_json (p.Workload.model warm)); ("reps", Json.Arr timed);
      ("rss_mb", Json.num (peak_rss_mb ())); ("errors", Json.strs p.Workload.setup_errors) ]

(* ------------------------------------------------------------------ *)
(* Aggregating a measured run                                          *)
(* ------------------------------------------------------------------ *)

let field k j = Json.to_num (Json.member k j)

let describe name unit l =
  let q1, med, q3 = Stats.quartiles l in
  Printf.sprintf "  %-22s %14.6g %-8s median of %d; quartiles %.6g .. %.6g; p90 %.6g" name med unit
    (List.length l) q1 q3 (Stats.percentile l 90.0)

(* The end-to-end metrics of one measured run, from its workers'
   reports, with the determinism gate. Returns (info lines, result). *)
let aggregate (w : Workload.t) (reports : Json.t list) =
  let errors = ref [] and notes = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter (fun r -> List.iter (fun e -> err "%s" (Json.to_str e)) (Json.to_list (Json.member "errors" r))) reports;
  let reps = List.concat_map (fun r -> Json.to_list (Json.member "reps" r)) reports in
  List.iter
    (fun r -> List.iter (fun e -> err "%s" (Json.to_str e)) (Json.to_list (Json.member "errors" r)))
    (reps @ List.map (Json.member "warm") reports);
  (* determinism gate: the same inputs give the same outputs in every
     process, including the one that ran the other workloads first *)
  let same ?(key = "digest") ?(gate = true) what l =
    let l = List.map (fun r -> Json.to_string (Json.member key r)) l in
    match l with
    | x :: rest when not (List.for_all (String.equal x) rest) ->
        if gate then err "determinism: %s %s differs between processes or reps" what key
        else
          notes :=
            Printf.sprintf "NOTE %s of %s differ between processes: %s" key what
              (String.concat ", " (List.sort_uniq compare l))
            :: !notes
    | _ -> ()
  in
  let warms = List.map (Json.member "warm") reports in
  same "warm-up pass" warms;
  same ~key:"history" ~gate:false "warm-up pass" warms;
  same ~key:"model" "set-up" reports;
  let subs = List.sort_uniq compare (List.map (fun r -> Json.to_int (Json.member "sub" r)) reps) in
  List.iter
    (fun s ->
      let of_sub = List.filter (fun r -> Json.to_int (Json.member "sub" r) = s) reps in
      same (Printf.sprintf "sub-seed %d" s) of_sub;
      same ~key:"history" ~gate:false (Printf.sprintf "sub-seed %d" s) of_sub)
    subs;
  let setup = List.map (field "setup_s") reports in
  let pass = List.map (fun r -> field "secs" r /. field "passes" r) reps in
  let refs = List.map (field "ref_s") reps in
  let rel = List.map2 ( /. ) pass refs in
  let rate = List.map (fun r -> field "items" r /. field "secs" r) reps in
  let rss = List.map (field "rss_mb") reports in
  let p50 = List.map (field "p50") reps and p99 = List.map (field "p99") reps in
  let sum k = List.fold_left (fun a r -> a + Json.to_int (Json.member k r)) 0 reps in
  let attempted = sum "items" and ok = sum "ok" and wrong = sum "wrong" in
  let ratios =
    match reports with
    | r :: _ ->
        List.map
          (fun pair ->
            match Json.to_list pair with
            | [ c; b ] -> Json.to_num c /. Json.to_num b
            | _ -> nan)
          (Json.to_list (Json.member "model" r))
    | [] -> []
  in
  let goodput = float_of_int ok /. float_of_int (max 1 attempted) in
  let metrics =
    [ ("setup_s", "s", Stats.median setup);
      ("pass_rel", "x", Stats.median rel);
      ("peak_rss_mb", "MiB", Stats.median rss);
      ("modeled_cage_ratio", "x", Stats.geomean ratios);
      ("p50_cycles", "cycles", Stats.median p50);
      ("p99_cycles", "cycles", Stats.median p99);
      ("goodput_frac", "fraction", goodput) ]
  in
  List.iter (fun (n, _, v) -> if not (Float.is_finite v) then err "metric %s is not a number" n) metrics;
  let info =
    [ Printf.sprintf "%s: %d processes, %d timed reps, %d items attempted, %d wrong" w.Workload.name
        (List.length reports) (List.length reps) attempted wrong;
      describe "setup_s" "s" setup;
      describe "pass_rel" "x" rel;
      describe "  pass_s" "s" pass;
      describe "  req_per_s" "1/s" rate;
      describe "  reference" "s" refs;
      describe "peak_rss_mb" "MiB" rss;
      Printf.sprintf "  %-22s %14.6g %-8s geomean over %d programs (CAGE / baseline wasm64, Cortex-X3)"
        "modeled_cage_ratio" (Stats.geomean ratios) "x" (List.length ratios);
      describe "p50_cycles" "cycles" p50;
      describe "p99_cycles" "cycles" p99;
      Printf.sprintf "  %-22s %14.6g %-8s %d ok of %d" "goodput_frac" goodput "fraction" ok attempted ]
    @ List.rev !notes
    @ List.map (fun e -> "ERROR " ^ e) (List.rev !errors)
  in
  let correct = !errors = [] && wrong = 0 in
  (info, correct, result_json ~correct ~attempted ~failed:wrong metrics)

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let with_obs obs f =
  match obs with
  | Workload.Off -> f ()
  | Workload.Sink ->
      Obs.Hook.with_sink
        (Obs.Hook.make ~trace:(Obs.Trace.create ()) ~metrics:(Obs.Metrics.cage ())
           ~profiler:(Obs.Profiler.create ()) ())
        f
  | Workload.Spans -> Obs.Span.with_recorder (Obs.Span.create ()) f

let traced_rounds = 3

(* Per-layer metrics: setup, the traced passes and the probes, each
   reduced over the calls the spans recorded. *)
let traced (w : Workload.t) ~seed ~scale =
  let setup_tr = Layers.create () in
  let p = w.Workload.prepare ~scale ~seed ~tr:(Some setup_tr) in
  let run ?tr obs =
    let go = p.Workload.stage ~sub:0 in
    (* start every compared pass from the same heap: a sink-on pass
       leaves garbage the next pass would otherwise collect *)
    Gc.full_major ();
    Layers.time (fun () -> with_obs obs (fun () -> go ~tr ~obs))
  in
  let warm, _ = run Workload.Off in
  (* Rounds of untraced, traced, sink-on and spans-on passes: each
     overhead is the median of ratios within a round, so host-speed
     drift between rounds cancels. *)
  let rounds =
    List.init traced_rounds (fun _ ->
        let _, off = run Workload.Off in
        let tr = Layers.create () in
        let r, on = run ~tr Workload.Off in
        let _, sink = run Workload.Sink in
        let _, spans = run Workload.Spans in
        (off, (r, on, tr), sink, spans))
  in
  let traced_runs = List.map (fun (_, t, _, _) -> t) rounds in
  let probe_tr = Layers.create () in
  let probe_lines, probe_errors = p.Workload.probe probe_tr in
  let all = Layers.create () in
  List.iter (Layers.merge ~into:all)
    ((setup_tr :: List.map (fun (_, _, tr) -> tr) traced_runs) @ [ probe_tr ]);
  let last, _, _ = List.nth traced_runs (traced_rounds - 1) in
  let base = Stats.median (List.map (fun (off, _, _, _) -> off) rounds) in
  let traced_s = Stats.mean (List.map (fun (_, s, _) -> s) traced_runs) in
  let attributed =
    Stats.mean
      (List.map (fun (r, _, tr) -> p.Workload.attributed r ~pass:tr ~probe:probe_tr) traced_runs)
  in
  let overhead f = 100.0 *. (Stats.median (List.map (fun ((off, _, _, _) as r) -> f r /. off) rounds) -. 1.0) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let mean = Layers.mean all and count = Layers.count all in
  let per name what = ratio (count name) (float_of_int (Layers.calls all what)) in
  let invocations = count "exec.invocations" in
  let model = p.Workload.model warm in
  let server f = match last.Workload.report with Some r -> float_of_int (f r) | None -> 0.0 in
  let metrics =
    [ ("minic.compile_s", "s", mean "minic.compile");
      ("minic.self_s", "s", mean "minic.compile" -. mean "validate.validate");
      ("validate.validate_s", "s", mean "validate.validate");
      ("analysis.plan_s", "s", mean "analysis.plan");
      ("analysis.tag_proven_frac", "fraction", ratio (count "analysis.proven") (count "analysis.considered"));
      ("analysis.bounds_proven_frac", "fraction", ratio (count "analysis.bproven") (count "analysis.considered"));
      ("analysis.arena_sites", "count", per "analysis.arena_sites" "analysis.plan");
      ("lower.lower_s", "s", mean "lower.lower");
      ("lower.instrs", "count", per "lower.instrs" "lower.lower");
      ("lower.fused_frac", "fraction", ratio (count "lower.fused") (count "lower.instrs"));
      ("exec.instantiate_s", "s", mean "exec.instantiate");
      ("exec.invoke_s", "s", mean "exec.invoke");
      ("exec.ns_per_op", "ns", 1e9 *. ratio (Layers.secs all "exec.invoke") (count "exec.ops"));
      ("exec.ops", "count", ratio (count "exec.ops") invocations);
      ("exec.mem_accesses", "count", ratio (count "exec.mem_accesses") invocations);
      ("exec.elided_check_frac", "fraction", ratio (count "exec.elided_checks") (count "exec.mem_accesses"));
      ("exec.tag_granules", "count", ratio (count "exec.tag_granules") invocations);
      ("exec.arena_granules", "count", ratio (count "exec.arena_granules") invocations);
      ("model.cage_cycles", "cycles", Stats.mean (List.map fst model));
      ("model.base64_cycles", "cycles", Stats.mean (List.map snd model));
      ("snapshot.restore_s", "s", mean "snapshot.restore");
      ("snapshot.bytes", "B", per "snapshot.bytes" "snapshot.restore");
      ("snapshot.restore_cycles", "cycles", per "snapshot.restore_cycles" "snapshot.restore");
      ("server.restores", "count", server (fun r -> r.Serve.Server.rp_restores));
      ("server.retries", "count", server (fun r -> r.Serve.Server.rp_retries));
      ("server.crashes", "count", server (fun r -> r.Serve.Server.rp_crashes));
      ("server.injections", "count", server (fun r -> r.Serve.Server.rp_injections));
      ("bench.pass_s", "s", traced_s);
      ("bench.attributed_s", "s", attributed);
      ("bench.unattributed_s", "s", traced_s -. attributed);
      ("bench.reconcile_gap_pct", "%", 100.0 *. (traced_s -. attributed) /. traced_s);
      ("bench.trace_overhead_pct", "%", overhead (fun (_, (_, on, _), _, _) -> on));
      ("obs.sink_on_overhead_pct", "%", overhead (fun (_, _, sink, _) -> sink));
      ("obs.spans_on_overhead_pct", "%", overhead (fun (_, _, _, spans) -> spans)) ]
  in
  let reps = warm :: List.map (fun (r, _, _) -> r) traced_runs in
  let errors =
    p.Workload.setup_errors @ probe_errors
    @ List.concat_map (fun (r : Workload.rep) -> r.Workload.errors) reps
    @ List.filter_map
        (fun (n, _, v) -> if Float.is_finite v then None else Some ("metric " ^ n ^ " is not a number"))
        metrics
    @
    if List.for_all (fun (r : Workload.rep) -> String.equal r.Workload.digest warm.Workload.digest) reps
    then []
    else [ "determinism: traced passes differ from the untraced one" ]
  in
  let notes =
    List.sort_uniq compare (List.map (fun (r : Workload.rep) -> r.Workload.history) reps)
  in
  let attempted = List.fold_left (fun a (r : Workload.rep) -> a + r.Workload.items) 0 reps in
  let failed = List.fold_left (fun a (r : Workload.rep) -> a + r.Workload.wrong) 0 reps in
  let info =
    (Printf.sprintf "%s (traced): untraced pass %.4f s, traced %.4f s; attributed %.4f s, unattributed %.4f s%s"
       w.Workload.name base traced_s attributed (traced_s -. attributed)
       (if last.Workload.report = None then "" else " (derived: counts x probe means)"))
    :: List.map (fun (n, u, v) -> Printf.sprintf "  %-30s %14.6g %s" n v u) metrics
    @ probe_lines
    @ (if List.length notes > 1 then [ "NOTE history differs between passes: " ^ String.concat ", " notes ] else [])
    @ List.map (fun e -> "ERROR " ^ e) (first_errors errors)
  in
  let correct = errors = [] && failed = 0 in
  (info, correct, result_json ~correct ~attempted ~failed metrics)

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* Run this executable with [args]; its stdout is returned once it
   exits. A child still running at [deadline] is killed and reaped. *)
let child args ~deadline =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec pump () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match restart (fun () -> Unix.select [ rd ] [] [] left) with
      | [], _, _ -> false
      | _ ->
          let n = restart (fun () -> Unix.read rd chunk 0 (Bytes.length chunk)) in
          if n = 0 then true else (Buffer.add_subbytes buf chunk 0 n; pump ())
  in
  let finished = pump () in
  Unix.close rd;
  if not finished then Unix.kill pid Sys.sigkill;
  let _, status = restart (fun () -> Unix.waitpid [] pid) in
  match (finished, status) with
  | true, Unix.WEXITED 0 -> Ok (Buffer.contents buf)
  | false, _ -> Error "timed out"
  | _, (Unix.WEXITED c) -> Error (Printf.sprintf "exited with %d" c)
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Error (Printf.sprintf "killed by signal %d" s)

let last_line s =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let reps_for (w : Workload.t) ~seconds =
  max 2 (int_of_float (Float.round (seconds /. (float_of_int workers *. w.Workload.rep_s))))

let measured_run (w : Workload.t) ~seed ~seconds =
  let deadline = Unix.gettimeofday () +. run_budget_s in
  let reps = reps_for w ~seconds in
  let reports =
    List.init workers (fun i ->
        let args =
          [ "--worker"; w.Workload.name; "--seed"; string_of_int seed; "--index"; string_of_int i;
            "--reps"; string_of_int reps ]
          @ if i = workers - 1 then [ "--others" ] else []
        in
        match child args ~deadline with
        | Ok out -> Json.parse (last_line out)
        | Error e -> fail "%s worker %d %s" w.Workload.name i e)
  in
  aggregate w reports

let print_result (info, correct, json) =
  List.iter print_endline info;
  print_endline (Json.to_string json);
  correct

(* ------------------------------------------------------------------ *)
(* Smoke, sets and comparisons                                         *)
(* ------------------------------------------------------------------ *)

let spec_metrics spec key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key spec))

(* The metrics a result prints must be exactly the ones BENCHMARK.json
   names, with the same units. *)
let check_names spec key result =
  let want = spec_metrics spec key in
  let got =
    match Json.member "metrics" result with
    | Json.Obj l -> List.map (fun (n, v) -> (n, Json.to_str (Json.member "unit" v))) l
    | _ -> []
  in
  List.filter_map
    (fun (n, u) ->
      match List.assoc_opt n got with
      | Some u' when u = u' -> None
      | Some u' -> Some (Printf.sprintf "%s printed in %s, BENCHMARK.json says %s" n u' u)
      | None -> Some (Printf.sprintf "%s (%s) not printed" n key))
    want
  @ List.filter_map
      (fun (n, _) ->
        if List.mem_assoc n want then None else Some (Printf.sprintf "%s printed but not in %s" n key))
      got

(* One process, one rep, about a tenth of the normal sizes: every
   metric printed, every output check run. *)
let smoke ~benchmark =
  let spec = Json.parse (Json.read_file benchmark) in
  let names = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" spec)) in
  let problems = ref [] in
  if names <> List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all then
    problems := "BENCHMARK.json workloads differ from the benchmark's" :: !problems;
  List.iter
    (fun (w : Workload.t) ->
      let report = worker w ~seed:42 ~scale:0.1 ~index:0 ~reps:1 ~others:false in
      let ((_, ok1, r1) as e2e) = aggregate w [ report ] in
      let ((_, ok2, r2) as tr) = traced w ~seed:42 ~scale:0.1 in
      ignore (print_result e2e);
      ignore (print_result tr);
      if not (ok1 && ok2) then problems := (w.Workload.name ^ ": output checks failed") :: !problems;
      problems :=
        List.map (fun p -> w.Workload.name ^ ": " ^ p) (check_names spec "end_to_end" r1 @ check_names spec "per_layer" r2)
        @ !problems)
    Workload.all;
  List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev !problems);
  if !problems <> [] then exit 1;
  print_endline "smoke: ok"

let parse_range s =
  match String.split_on_char '-' s with
  | [ a; b ] -> (int_of_string a, int_of_string b)
  | [ a ] -> (int_of_string a, int_of_string a)
  | _ -> fail "bad range %s" s

(* A full set: every workload on every seed, then one traced run each,
   appended to [file] as JSON lines. *)
let full_set file ~seeds:(lo, hi) ~seconds =
  let runs =
    List.concat_map
      (fun (w : Workload.t) -> List.init (hi - lo + 1) (fun i -> (w, lo + i, 0)))
      Workload.all
    @ List.map (fun (w : Workload.t) -> (w, lo, 1)) Workload.all
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun ((w : Workload.t), seed, trace) ->
      let args =
        [ "--workload"; w.Workload.name; "--seed"; string_of_int seed; "--seconds";
          Printf.sprintf "%g" seconds; "--trace"; string_of_int trace; "--record"; file ]
      in
      match child args ~deadline:(Unix.gettimeofday () +. 180.0) with
      | Ok out ->
          Printf.printf "%-15s seed %-3d trace %d  %s\n%!" w.Workload.name seed trace
            (if String.length (last_line out) > 0 then "done" else "no result")
      | Error e -> fail "%s seed %d trace %d %s" w.Workload.name seed trace e)
    runs;
  Printf.printf "full set: %d runs in %.0f s\n" (List.length runs) (Unix.gettimeofday () -. t0)

let record file ~workload ~seed ~trace ~seconds result =
  let line =
    Json.to_string
      (Json.Obj
         [ ("workload", Json.Str workload); ("seed", Json.int seed); ("trace", Json.int trace);
           ("seconds", Json.num seconds); ("result", result) ])
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  output_string oc (line ^ "\n");
  close_out oc

let read_set file =
  List.filter_map
    (fun l -> if String.trim l = "" then None else Some (Json.parse l))
    (String.split_on_char '\n' (Json.read_file file))

(* Guide rule: worse when the median moved the wrong way by more than
   the bound; unresolved when either side's spread exceeds the bound,
   unless every run of B beats every run of A. *)
let compare_sets ~benchmark a b =
  let spec = Json.parse (Json.read_file benchmark) in
  let sa = read_set a and sb = read_set b in
  let values set ~workload ~trace name =
    List.filter_map
      (fun r ->
        if Json.to_str (Json.member "workload" r) = workload && Json.to_int (Json.member "trace" r) = trace
        then
          Option.map
            (fun m -> Json.to_num (Json.member "value" m))
            (Json.member_opt name (Json.member "metrics" (Json.member "result" r)))
        else None)
      set
  in
  let worse = ref 0 in
  Printf.printf "%-15s %-30s %12s %12s %8s %8s %8s  %s\n" "workload" "metric" "median A" "median B"
    "delta" "spread" "bound" "verdict";
  List.iter
    (fun wj ->
      let workload = Json.to_str (Json.member "name" wj) in
      List.iter
        (fun (key, trace) ->
          List.iter
            (fun m ->
              let name = Json.to_str (Json.member "name" m) in
              let lower = Json.to_str (Json.member "better" m) = "lower" in
              let bound = Option.map Json.to_num (Json.member_opt "bound" m) in
              let va = values sa ~workload ~trace name and vb = values sb ~workload ~trace name in
              if va <> [] && vb <> [] then begin
                let ma = Stats.median va and mb = Stats.median vb in
                let delta = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
                let loss = if lower then delta else -.delta in
                let spread = Float.max (Stats.spread va) (Stats.spread vb) in
                let dominates =
                  if lower then List.fold_left Float.max neg_infinity vb < List.fold_left Float.min infinity va
                  else List.fold_left Float.min infinity vb > List.fold_left Float.max neg_infinity va
                in
                let verdict =
                  match bound with
                  | None -> "-"
                  | Some bd when loss > bd -> incr worse; "worse"
                  | Some bd when spread > bd && not dominates -> "unresolved"
                  | Some _ -> "ok"
                in
                Printf.printf "%-15s %-30s %12.6g %12.6g %+7.2f%% %7.2f%% %8s  %s\n" workload name ma mb
                  (100.0 *. delta) (100.0 *. spread)
                  (match bound with Some bd -> Printf.sprintf "%.0f%%" (100.0 *. bd) | None -> "-")
                  verdict
              end)
            (Json.to_list (Json.member key spec)))
        [ ("end_to_end", 0); ("per_layer", 1) ])
    (Json.to_list (Json.member "workloads" spec));
  if !worse > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let flag name = List.mem name args in
  let int_opt name default = match opt name args with Some v -> int_of_string v | None -> default in
  let str_opt name default = Option.value (opt name args) ~default in
  let workload name =
    match Workload.find name with Some w -> w | None -> fail "unknown workload %s" name
  in
  Workload.serve_baseline := str_opt "--serve-baseline" !Workload.serve_baseline;
  let benchmark = str_opt "--benchmark" "BENCHMARK.json" in
  let seed = int_opt "--seed" 1 in
  let seconds = float_of_string (str_opt "--seconds" "15") in
  match opt "--worker" args, opt "--workload" args, opt "--set" args, opt "--compare" args with
  | Some name, _, _, _ ->
      print_endline
        (Json.to_string
           (worker (workload name) ~seed ~scale:1.0 ~index:(int_opt "--index" 0)
              ~reps:(int_opt "--reps" 2) ~others:(flag "--others")))
  | None, Some name, _, _ ->
      let w = workload name in
      let trace = int_opt "--trace" 0 in
      let ((_, _, json) as result) =
        if trace = 1 then traced w ~seed ~scale:1.0 else measured_run w ~seed ~seconds
      in
      Option.iter
        (fun file -> record file ~workload:name ~seed ~trace ~seconds json)
        (opt "--record" args);
      if not (print_result result) then exit 1
  | None, None, Some file, _ ->
      full_set file ~seeds:(parse_range (str_opt "--seeds" "1-10")) ~seconds
  | None, None, None, Some a ->
      let rec second = function
        | k :: x :: y :: _ when k = "--compare" && x = a -> y
        | _ :: rest -> second rest
        | [] -> fail "--compare needs two set files"
      in
      compare_sets ~benchmark a (second args)
  | None, None, None, None ->
      if flag "--smoke" then smoke ~benchmark
      else fail "usage: main.exe --workload W --seed N --seconds S --trace 0|1 | --smoke | --set FILE | --compare A B"

