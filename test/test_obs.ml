(* Tests for the observability substrate (lib/obs): the trace recorder
   (instance and request traces), metrics registry, sampling profiler,
   the zero-cost-when-disabled hook contract, the supervisor's black-box
   flight recording, and the Report.table ragged-row regression. *)

open Wasm

(* ------------------------------------------------------------------ *)
(* Builders (same shapes as test_wasm)                                 *)
(* ------------------------------------------------------------------ *)

let ft params results = { Types.params; results }

let mem64 =
  { Types.mem_idx = Types.Idx64;
    mem_limits = { Types.min = 1L; max = Some 16L } }

let module_of funcs =
  let types = List.map (fun (ty, _, _) -> ty) funcs in
  {
    Ast.empty_module with
    types;
    funcs =
      List.mapi
        (fun i (_, locals, body) ->
          { Ast.ftype = i; locals; body; fname = Some (Printf.sprintf "f%d" i) })
        funcs;
    memory = Some mem64;
    exports =
      List.mapi
        (fun i _ ->
          { Ast.ex_name = Printf.sprintf "f%d" i; ex_desc = Ast.Func_export i })
        funcs;
  }

let memarg offset = { Ast.offset; align = 0 }

(* ------------------------------------------------------------------ *)
(* Trace: ring buffer and cycle clock                                  *)
(* ------------------------------------------------------------------ *)

let test_ring_keeps_newest () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Trace.record tr ~tid:1 (Obs.Event.Spawn { instance = i })
  done;
  Alcotest.(check int) "all records counted" 10 (Obs.Trace.recorded tr);
  Alcotest.(check int) "overflow dropped oldest" 6 (Obs.Trace.dropped tr);
  let instance_of r =
    match r.Obs.Trace.payload with
    | Obs.Trace.Event (Obs.Event.Spawn { instance }) -> instance
    | _ -> -1
  in
  Alcotest.(check (list int)) "survivors are the newest, oldest first"
    [ 6; 7; 8; 9 ]
    (List.map instance_of (Obs.Trace.records tr));
  Alcotest.(check (list int)) "recent takes the tail" [ 8; 9 ]
    (List.map instance_of (Obs.Trace.recent tr 2))

let test_clock_monotone () =
  let tr = Obs.Trace.create () in
  Obs.Trace.record tr ~tid:1 (Obs.Event.Host_call { name = "a" });
  Obs.Trace.advance tr 3;
  Obs.Trace.record tr ~tid:1
    (Obs.Event.Seg_new { addr = 0L; len = 64L; granules = 4; tag = 3 });
  Obs.Trace.record tr ~tid:1 (Obs.Event.Pac_sign { ptr = 0L });
  let cycles = List.map (fun r -> r.Obs.Trace.ts) (Obs.Trace.records tr) in
  (* host 20; +3 ticks; seg_new 2 + 4/2 = 4; pac 5 *)
  Alcotest.(check (list int)) "per-event costs land on a monotone clock"
    [ 20; 27; 32 ] cycles;
  Alcotest.(check int) "clock reads the final stamp" 32 (Obs.Trace.clock tr)

let test_chrome_json_shape () =
  let tr = Obs.Trace.create () in
  Obs.Trace.record tr ~tid:7 (Obs.Event.Func_enter { idx = 0; name = "main" });
  Obs.Trace.record tr ~tid:7
    (Obs.Event.Tag_fault
       { addr = 0x420L; len = 1L; ptr_tag = 5; mem_tag = Some 0;
         access = Obs.Event.Store; deferred = false });
  let json = Obs.Trace.to_chrome_json tr in
  let has s = Astring.String.is_infix ~affix:s json in
  Alcotest.(check bool) "has traceEvents" true (has "\"traceEvents\"");
  Alcotest.(check bool) "func enter is a B phase" true (has "\"ph\":\"B\"");
  Alcotest.(check bool) "fault is named" true
    (has "\"name\":\"tag-check-fault\"");
  Alcotest.(check bool) "tid carried through" true (has "\"tid\":7");
  Alcotest.(check bool) "args carry the address" true (has "\"addr\":\"0x420\"")

(* ------------------------------------------------------------------ *)
(* The disabled fast path allocates nothing                            *)
(* ------------------------------------------------------------------ *)

(* The exact call-site pattern every instrumented layer uses: a
   span_check, an enabled() guard around an event construction, and a
   direct match on the hook ref. With no sink installed, a hundred
   thousand rounds must not allocate — the event record behind the
   untaken guard never exists. *)
let test_disabled_path_no_alloc () =
  Obs.Hook.uninstall ();
  let rounds = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to rounds do
    Obs.Hook.span_check i;
    if Obs.Hook.enabled () then
      Obs.Hook.event
        (Obs.Event.Seg_new
           { addr = Int64.of_int i; len = 64L; granules = 4; tag = 1 });
    match !Obs.Hook.hook with
    | None -> ()
    | Some _ -> Obs.Hook.set_instance i
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d disabled rounds allocated %.0f words" rounds dw)
    true
    (dw < float_of_int rounds /. 100.0)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_render () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r ~help:"test counter" "t_total" in
  let h =
    Obs.Metrics.histogram r ~bounds:[| 1.0; 4.0 |] ~help:"test histo" "t_h"
  in
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:2 c;
  List.iter (Obs.Metrics.observe h) [ 0.5; 3.0; 100.0 ];
  let prom = Obs.Metrics.prometheus_string r in
  let has s = Astring.String.is_infix ~affix:s prom in
  Alcotest.(check bool) "counter line" true (has "t_total 3");
  Alcotest.(check bool) "TYPE line" true (has "# TYPE t_total counter");
  Alcotest.(check bool) "bucket counts are cumulative" true
    (has "t_h_bucket{le=\"1\"} 1" && has "t_h_bucket{le=\"4\"} 2"
    && has "t_h_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "sum and count" true
    (has "t_h_sum 103.5" && has "t_h_count 3");
  Alcotest.(check bool) "counter renders before the histogram" true
    (Astring.String.find_sub ~sub:"t_total" prom
    < Astring.String.find_sub ~sub:"t_h_bucket" prom)

let test_metrics_observe_events () =
  let m = Obs.Metrics.cage () in
  Obs.Metrics.observe_event m
    (Obs.Event.Seg_new { addr = 0L; len = 64L; granules = 4; tag = 1 });
  Obs.Metrics.observe_event m
    (Obs.Event.Seg_free { addr = 0L; len = 64L; granules = 4; tag = 2 });
  Obs.Metrics.observe_event m
    (Obs.Event.Tag_fault
       { addr = 0L; len = 8L; ptr_tag = 1; mem_tag = Some 2;
         access = Obs.Event.Load; deferred = true });
  Alcotest.(check int) "seg ops counted" 1
    m.Obs.Metrics.seg_new.Obs.Metrics.c_value;
  Alcotest.(check int) "granules accumulate across ops" 8
    m.Obs.Metrics.granules_tagged.Obs.Metrics.c_value;
  Alcotest.(check int) "deferred fault lands on its own counter" 1
    m.Obs.Metrics.tag_faults_deferred.Obs.Metrics.c_value;
  Alcotest.(check int) "sync-fault counter untouched" 0
    m.Obs.Metrics.tag_faults.Obs.Metrics.c_value

(* A near-miss: an Allowed access whose span's following granule holds
   a different tag. Driven through Mte.check directly: granule [0,16)
   tagged 5, [16,48) tagged 9 — the access ending at 15 brushes the
   boundary, the one ending at 23 does not. *)
let test_near_miss_counter () =
  let tm = Arch.Tag_memory.create ~size_bytes:256 in
  let t5 = Arch.Tag.of_int 5 and t9 = Arch.Tag.of_int 9 in
  (match Arch.Tag_memory.set_region tm ~addr:0L ~len:16L t5 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Arch.Tag_memory.set_region tm ~addr:16L ~len:32L t9 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let mte = Arch.Mte.create tm in
  let metrics = Obs.Metrics.cage () in
  Obs.Hook.with_sink (Obs.Hook.make ~metrics ()) (fun () ->
      (match
         Arch.Mte.check mte Arch.Mte.Load ~ptr:(Arch.Ptr.with_tag 8L t5)
           ~len:8L
       with
      | Arch.Mte.Allowed -> ()
      | _ -> Alcotest.fail "in-segment access must be Allowed");
      (* same-tag neighbour: no near-miss *)
      match
        Arch.Mte.check mte Arch.Mte.Load ~ptr:(Arch.Ptr.with_tag 16L t9)
          ~len:8L
      with
      | Arch.Mte.Allowed -> ()
      | _ -> Alcotest.fail "in-segment access must be Allowed");
  Alcotest.(check int) "exactly the boundary access is a near miss" 1
    metrics.Obs.Metrics.near_misses.Obs.Metrics.c_value

(* ------------------------------------------------------------------ *)
(* Profiler: weights partition the meter total exactly                 *)
(* ------------------------------------------------------------------ *)

(* f0 spins a coarse loop calling f1; f1 burns a finer loop. With the
   sink installed, folded weights must sum to the meter total exactly
   (after flush) — the profile is a loss-free partition of the run, not
   an approximate sample count. *)
let two_function_module =
  let counted_loop limit body =
    [ Ast.I64Const 0L; Ast.LocalSet 0;
      Ast.Block
        (Ast.ValBlock None,
         [ Ast.Loop
             (Ast.ValBlock None,
              body
              @ [ Ast.LocalGet 0; Ast.I64Const 1L;
                  Ast.IBinop (Ast.W64, Ast.Add); Ast.LocalTee 0;
                  Ast.I64Const limit; Ast.IRelop (Ast.W64, Ast.GeS);
                  Ast.BrIf 1; Ast.Br 0 ]) ]) ]
  in
  module_of
    [ (ft [] [], [ Types.I64 ],
       counted_loop 50L [ Ast.Call 1; Ast.Drop ]);
      (ft [] [ Types.I64 ], [ Types.I64 ],
       counted_loop 20L [] @ [ Ast.LocalGet 0 ]) ]

let test_profiler_partitions_meter () =
  let meter = Meter.create () in
  let profiler = Obs.Profiler.create ~interval:13 () in
  Obs.Hook.with_sink
    (Obs.Hook.make ~profiler ())
    (fun () ->
      let inst =
        Exec.instantiate
          ~config:{ Instance.default_config with meter = Some meter }
          two_function_module
      in
      ignore (Exec.invoke inst "f0" []));
  let total = Meter.total meter in
  Obs.Profiler.flush profiler ~stack:[] ~total;
  Alcotest.(check bool) "profiler took samples" true
    (Obs.Profiler.samples profiler > 1);
  Alcotest.(check int) "folded weights sum exactly to the meter total" total
    (Obs.Profiler.total_weight profiler);
  let name i = Printf.sprintf "f%d" i in
  let folded_sum =
    List.fold_left (fun a (_, w) -> a + w) 0 (Obs.Profiler.folded profiler ~name)
  in
  Alcotest.(check int) "folded lines agree" total folded_sum;
  let attr = Obs.Profiler.attribution profiler ~name in
  let self_sum = List.fold_left (fun a r -> a + r.Obs.Profiler.self) 0 attr in
  Alcotest.(check int) "self column partitions the total (100%)" total self_sum;
  let find fn = List.find_opt (fun r -> r.Obs.Profiler.fn = fn) attr in
  match (find "f0", find "f1") with
  | Some a0, Some a1 ->
      Alcotest.(check bool) "inner loop dominates self time" true
        (a1.Obs.Profiler.self > a0.Obs.Profiler.self);
      Alcotest.(check bool) "caller total covers its callees" true
        (a0.Obs.Profiler.total >= a0.Obs.Profiler.self + a1.Obs.Profiler.self)
  | _ -> Alcotest.fail "both functions must appear in the attribution"

(* ------------------------------------------------------------------ *)
(* Supervisor black box                                                *)
(* ------------------------------------------------------------------ *)

(* Heap overflow: allocate a 32-byte segment, store one byte past its
   end. With a tracer installed, the post-mortem must embed the final K
   trace events, ending with the crash record itself. *)
let test_post_mortem_flight_recorder () =
  let k = 4 in
  let m =
    module_of
      [ (ft [] [], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.I64Const 1L;
           Ast.Store (Types.I64, None, memarg 32L) ]) ]
  in
  let trace = Obs.Trace.create () in
  let pm =
    Obs.Hook.with_sink
      (Obs.Hook.make ~trace ())
      (fun () ->
        let proc =
          Cage.Process.create ~config:Cage.Config.mem_safety ~seed:11 ()
        in
        let sup = Cage.Supervisor.create ~black_box:k proc in
        let inst = Cage.Supervisor.spawn sup m in
        match Cage.Supervisor.run sup inst "f0" [] with
        | Cage.Supervisor.Crashed pm -> pm
        | Cage.Supervisor.Finished _ -> Alcotest.fail "expected a tag fault")
  in
  Alcotest.(check string) "crash classified as a tag fault" "tag fault"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  let tr = pm.Cage.Supervisor.pm_trace in
  Alcotest.(check bool) "flight recording present, at most K events" true
    (List.length tr > 0 && List.length tr <= k);
  Alcotest.(check bool) "recording ends with the crash record" true
    (Astring.String.is_infix ~affix:"crash [tag fault]"
       (List.nth tr (List.length tr - 1)));
  Alcotest.(check bool) "the faulting store is on the recording" true
    (List.exists (Astring.String.is_infix ~affix:"tag-check-fault") tr);
  Alcotest.(check bool) "every line is cycle-stamped" true
    (List.for_all (Astring.String.is_prefix ~affix:"[cycle ") tr);
  let report = Format.asprintf "%a" Cage.Supervisor.pp_post_mortem pm in
  Alcotest.(check bool) "report prints the flight recording" true
    (Astring.String.is_infix ~affix:"flight rec" report)

(* Without a tracer the post-mortem carries no recording, and the
   report omits the section entirely (the detection-matrix golden
   stays byte-identical). *)
let test_post_mortem_empty_without_tracer () =
  Obs.Hook.uninstall ();
  let m =
    module_of
      [ (ft [] [], [],
         [ Ast.I64Const 100000L; Ast.I64Const 1L;
           Ast.Store (Types.I64, None, memarg 0L) ]) ]
  in
  let proc = Cage.Process.create ~config:Cage.Config.mem_safety ~seed:11 () in
  let sup = Cage.Supervisor.create proc in
  let inst = Cage.Supervisor.spawn sup m in
  match Cage.Supervisor.run sup inst "f0" [] with
  | Cage.Supervisor.Crashed pm ->
      Alcotest.(check (list string)) "no tracer, no recording" []
        pm.Cage.Supervisor.pm_trace;
      let report = Format.asprintf "%a" Cage.Supervisor.pp_post_mortem pm in
      Alcotest.(check bool) "report omits the flight-recorder section" false
        (Astring.String.is_infix ~affix:"flight rec" report)
  | Cage.Supervisor.Finished _ -> Alcotest.fail "expected a bounds crash"

(* ------------------------------------------------------------------ *)
(* Trace-ring drop visibility                                          *)
(* ------------------------------------------------------------------ *)

(* Wraparound through the full hook path: the ring silently overwrote
   its oldest records before this satellite; now the drop count is a
   first-class signal — mirrored into cage_trace_dropped_total and
   flagged by a single warning instant in the Chrome export. *)
let test_ring_drops_visible () =
  let tr = Obs.Trace.create ~capacity:4 () in
  let m = Obs.Metrics.cage () in
  Obs.Hook.with_sink
    (Obs.Hook.make ~trace:tr ~metrics:m ())
    (fun () ->
      for i = 0 to 9 do
        Obs.Hook.event (Obs.Event.Spawn { instance = i })
      done);
  Alcotest.(check int) "ring dropped the six oldest" 6 (Obs.Trace.dropped tr);
  Alcotest.(check int) "cage_trace_dropped_total mirrors the ring" 6
    m.Obs.Metrics.trace_dropped.Obs.Metrics.c_value;
  let json = Obs.Trace.to_chrome_json tr in
  let has s = Astring.String.is_infix ~affix:s json in
  Alcotest.(check bool) "export warns about the gap" true
    (has "\"name\":\"trace-dropped\"");
  Alcotest.(check bool) "warning carries the drop count" true
    (has "\"dropped\":6");
  Alcotest.(check int) "one warning instant, not one per lost record" 1
    (List.length (Astring.String.cuts ~sep:"trace-dropped" json) - 1);
  (* a ring that never wrapped exports no warning *)
  let quiet = Obs.Trace.create ~capacity:16 () in
  Obs.Trace.record quiet ~tid:1 (Obs.Event.Spawn { instance = 0 });
  Alcotest.(check bool) "no drops, no warning" false
    (Astring.String.is_infix ~affix:"trace-dropped"
       (Obs.Trace.to_chrome_json quiet))

(* ------------------------------------------------------------------ *)
(* Request spans                                                       *)
(* ------------------------------------------------------------------ *)

let test_span_records_and_json () =
  let r = Obs.Trace.create () in
  let id = 0 in
  Obs.Span.with_recorder r (fun () ->
      Obs.Span.set_track ~tid:1 "core 0";
      Obs.Span.set_track ~tid:(Obs.Span.tenant_tid 0) "tenant compute";
      Obs.Span.set_now 100;
      Obs.Span.async_begin ~id ~tid:(Obs.Span.tenant_tid 0) ~ts:100 "request";
      Obs.Span.flow_start ~id ~tid:(Obs.Span.tenant_tid 0) ~ts:100 "queue";
      Obs.Span.complete
        ~args:[ ("req", Obs.Span.I id) ]
        ~tid:1 ~start:100 ~stop:250 "t:compute";
      Obs.Span.flow_step ~id ~tid:1 ~ts:100 "t:compute";
      Obs.Span.instant ~tid:Obs.Span.runtime_tid "pool.acquire";
      Obs.Span.flow_end ~id ~tid:(Obs.Span.tenant_tid 0) ~ts:250 "done";
      Obs.Span.async_end ~id ~tid:(Obs.Span.tenant_tid 0) ~ts:250 "request");
  Alcotest.(check bool) "uninstalled after with_recorder" false
    (Obs.Span.enabled ());
  let recs = Obs.Trace.records r in
  Alcotest.(check int) "seven records" 7 (List.length recs);
  Alcotest.(check (list int)) "stamped on the published DES clock"
    [ 100; 100; 100; 100; 100; 250; 250 ]
    (List.map (fun x -> x.Obs.Trace.ts) recs);
  Alcotest.(check bool) "the slice carries its duration" true
    (List.exists (fun x -> x.Obs.Trace.ph = Obs.Trace.Complete 150) recs);
  let json = Obs.Trace.to_chrome_json r in
  let has s = Astring.String.is_infix ~affix:s json in
  Alcotest.(check bool) "core track named" true (has "\"name\":\"core 0\"");
  Alcotest.(check bool) "tenant track named" true
    (has "\"name\":\"tenant compute\"");
  Alcotest.(check bool) "complete slice with duration" true
    (has "\"ph\":\"X\"" && has "\"dur\":150");
  Alcotest.(check bool) "async envelope" true
    (has "\"ph\":\"b\"" && has "\"ph\":\"e\"");
  Alcotest.(check bool) "flow start/step/finish" true
    (has "\"ph\":\"s\"" && has "\"ph\":\"t\"" && has "\"ph\":\"f\"");
  Alcotest.(check bool) "flow finish binds to the enclosing slice" true
    (has "\"bp\":\"e\"");
  Alcotest.(check bool) "instant lands on the runtime track" true
    (has "\"name\":\"pool.acquire\"");
  Alcotest.(check bool) "des clock declared" true (has "\"clock\":\"des-cycles\"")

(* Same contract as the hook: a serving loop running with no recorder
   installed must not allocate on the guarded call sites. *)
let test_span_disabled_no_alloc () =
  Obs.Span.uninstall ();
  let rounds = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to rounds do
    Obs.Span.set_now i;
    if Obs.Span.enabled () then
      Obs.Span.instant ~tid:1 ~args:[ ("req", Obs.Span.I i) ] "never"
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d disabled span rounds allocated %.0f words" rounds dw)
    true (dw < 256.0)

(* A request trace overflows like any other trace: the ring keeps the
   newest window and the export announces what it lost. *)
let test_span_capacity_keeps_newest () =
  let r = Obs.Trace.create ~capacity:4 () in
  Obs.Span.with_recorder r (fun () ->
      for i = 0 to 9 do
        Obs.Span.instant ~tid:1 ~ts:i (Printf.sprintf "ev%d" i)
      done);
  Alcotest.(check int) "six oldest dropped" 6 (Obs.Trace.dropped r);
  Alcotest.(check (list string)) "survivors are the newest, in order"
    [ "ev6"; "ev7"; "ev8"; "ev9" ]
    (List.map
       (fun x ->
         match x.Obs.Trace.payload with
         | Obs.Trace.Named (name, _) -> name
         | Obs.Trace.Event _ -> "?")
       (Obs.Trace.records r));
  let json = Obs.Trace.to_chrome_json r in
  let has s = Astring.String.is_infix ~affix:s json in
  Alcotest.(check bool) "export carries the drop warning" true
    (has "\"name\":\"trace-dropped\"");
  Alcotest.(check bool) "export reports the drop count" true
    (has "\"dropped\":6")

(* The two install points are two cost tiers: a request recorder must
   not switch on the engines' per-op instrumentation. *)
let test_span_leaves_hook_off () =
  Obs.Hook.uninstall ();
  Obs.Span.with_recorder (Obs.Trace.create ~capacity:16 ()) (fun () ->
      Alcotest.(check bool) "request recorder installed" true
        (Obs.Span.enabled ());
      Alcotest.(check bool) "per-op hook still off" false
        (Obs.Hook.enabled ()))

(* ------------------------------------------------------------------ *)
(* Report.table ragged rows (satellite regression)                     *)
(* ------------------------------------------------------------------ *)

let test_table_ragged_rows () =
  let header = [ "a"; "bb"; "ccc" ] in
  let render rows =
    Format.asprintf "%t" (fun ppf -> Harness.Report.table ppf ~header rows)
  in
  (* used to raise Invalid_argument from List.map2; now a short row
     renders as if padded with empty cells ... *)
  Alcotest.(check string) "short row is padded"
    (render [ [ "only"; ""; "" ] ])
    (render [ [ "only" ] ]);
  (* ... and a long row as if truncated to the header's width *)
  Alcotest.(check string) "long row is truncated"
    (render [ [ "1"; "2"; "3" ] ])
    (render [ [ "1"; "2"; "3"; "extra" ] ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring keeps newest" `Quick test_ring_keeps_newest;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "drops visible end-to-end" `Quick
            test_ring_drops_visible;
        ] );
      ( "span",
        [
          Alcotest.test_case "records + chrome json" `Quick
            test_span_records_and_json;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_span_disabled_no_alloc;
          Alcotest.test_case "capacity keeps newest" `Quick
            test_span_capacity_keeps_newest;
          Alcotest.test_case "request tracing leaves the per-op path off"
            `Quick test_span_leaves_hook_off;
        ] );
      ( "hook",
        [
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_no_alloc;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "prometheus/json rendering" `Quick
            test_metrics_render;
          Alcotest.test_case "event dispatch" `Quick test_metrics_observe_events;
          Alcotest.test_case "near-miss counter" `Quick test_near_miss_counter;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "weights partition the meter" `Quick
            test_profiler_partitions_meter;
        ] );
      ( "black-box",
        [
          Alcotest.test_case "post-mortem embeds final events" `Quick
            test_post_mortem_flight_recorder;
          Alcotest.test_case "empty without tracer" `Quick
            test_post_mortem_empty_without_tracer;
        ] );
      ( "report",
        [
          Alcotest.test_case "ragged rows normalized" `Quick
            test_table_ragged_rows;
        ] );
    ]
