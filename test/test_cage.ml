(* Tests for the Cage library: configurations (Table 3), the sandbox
   model (§6.4), multi-instance processes (§6.3) and the cost-model
   lowering. *)

open Cage

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_table3_complete () =
  (* every distinguishing field of every row, in paper order *)
  let row (c : Config.t) =
    Printf.sprintf "%s ptr%d %s%s%s %s" c.name
      (if c.ptr64 then 64 else 32)
      (Config.sandbox_to_string c.sandbox)
      (if c.internal_safety then " mem-safety" else "")
      (if c.ptr_auth then " ptr-auth" else "")
      (Arch.Mte.mode_to_string c.mte_mode)
  in
  Alcotest.(check (list string)) "Table 3 rows in paper order"
    [ "baseline wasm32 ptr32 guard-pages disabled";
      "baseline wasm64 ptr64 software-bounds disabled";
      "Cage-mem-safety ptr64 software-bounds mem-safety sync";
      "Cage-ptr-auth ptr64 software-bounds ptr-auth disabled";
      "Cage-sandboxing ptr64 mte sync";
      "CAGE ptr64 mte mem-safety ptr-auth sync" ]
    (List.map row Config.table3);
  List.iter
    (fun (c : Config.t) ->
      Alcotest.(check (list bool)) (c.name ^ ": every elision flag off")
        [ false; false; false; false ]
        [ c.elide_checks; c.elide_bounds; c.arena; c.spec_safe_only ])
    Config.table3

let test_usable_tags () =
  Alcotest.(check int) "standalone internal: 15 tags" 15
    (Config.usable_tags Config.mem_safety);
  Alcotest.(check int) "combined: 7 tags" 7 (Config.usable_tags Config.full)

let test_exclusion_sets () =
  Alcotest.(check int) "mem-safety allows 15" 15
    (Arch.Tag.Exclude.count_allowed (Config.exclusion Config.mem_safety));
  Alcotest.(check int) "full allows 7" 7
    (Arch.Tag.Exclude.count_allowed (Config.exclusion Config.full));
  (* combined mode must only allow tags with bit 56 set *)
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "tag %d has guest bit" (Arch.Tag.to_int t))
        true
        (Arch.Tag.to_int t land 1 = 1))
    (Arch.Tag.Exclude.allowed (Config.exclusion Config.full))

let test_index_mask () =
  (match Config.index_mask Config.sandboxing with
  | Some mask ->
      let forged = Arch.Ptr.with_tag 0x100L (Arch.Tag.of_int 0xf) in
      Alcotest.(check bool) "sandbox-only mask clears all tag bits" true
        (Arch.Tag.is_zero (Arch.Ptr.tag (mask forged)))
  | None -> Alcotest.fail "sandboxing must mask");
  (match Config.index_mask Config.full with
  | Some mask ->
      let forged = Arch.Ptr.with_tag 0x100L (Arch.Tag.of_int 0xf) in
      Alcotest.(check int) "combined mask clears only bit 56" 0b1110
        (Arch.Tag.to_int (Arch.Ptr.tag (mask forged)))
  | None -> Alcotest.fail "full must mask");
  Alcotest.(check bool) "software bounds needs no mask" true
    (Config.index_mask Config.baseline_wasm64 = None)

let test_max_sandboxes () =
  Alcotest.(check int) "sandbox-only: 15" 15
    (Config.max_sandboxes Config.sandboxing);
  Alcotest.(check int) "combined: 1" 1 (Config.max_sandboxes Config.full)

(* ------------------------------------------------------------------ *)
(* Sandbox                                                             *)
(* ------------------------------------------------------------------ *)

let mk_two_instances cfg =
  let host = Sandbox.create ~config:cfg ~size:(1 lsl 20) () in
  let a = Sandbox.add_instance host ~size:65536 in
  let b = Sandbox.add_instance host ~size:65536 in
  (host, a, b)

let test_sandbox_inbounds_load () =
  let host, a, _ = mk_two_instances Config.sandboxing in
  Sandbox.poke host a ~index:64L 7777L;
  match Sandbox.guest_load host a ~index:64L with
  | Sandbox.Value v -> Alcotest.(check int64) "reads own data" 7777L v
  | _ -> Alcotest.fail "in-bounds load failed"

let test_sandbox_escape_matrix () =
  (* the buggy-lowering OOB read across instances *)
  List.iter
    (fun (cfg, should_escape) ->
      let host, a, b = mk_two_instances cfg in
      Sandbox.poke host a ~index:128L 0xdeadL;
      let index = Int64.add (Int64.sub a.Sandbox.base b.Sandbox.base) 128L in
      let outcome = Sandbox.guest_load ~buggy_lowering:true host b ~index in
      let escaped =
        match outcome with
        | Sandbox.Value v -> Int64.equal v 0xdeadL
        | _ -> false
      in
      Alcotest.(check bool)
        (cfg.Config.name ^ " escape?")
        should_escape escaped)
    [ (Config.baseline_wasm64, true); (Config.sandboxing, false) ]

let test_sandbox_sound_lowering_bounds () =
  (* without the bug, the software check still works *)
  let host, a, b = mk_two_instances Config.baseline_wasm64 in
  Sandbox.poke host a ~index:128L 0xdeadL;
  let index = Int64.add (Int64.sub a.Sandbox.base b.Sandbox.base) 128L in
  match Sandbox.guest_load ~buggy_lowering:false host b ~index with
  | Sandbox.Bounds_trap -> ()
  | _ -> Alcotest.fail "sound bounds check should trap"

let test_sandbox_forged_tag_masked () =
  let host, a, b = mk_two_instances Config.sandboxing in
  Sandbox.poke host a ~index:128L 0xdeadL;
  let index = Int64.add (Int64.sub a.Sandbox.base b.Sandbox.base) 128L in
  (* forge the victim's tag on the index: Fig. 13 masking must strip it *)
  let forged = Arch.Ptr.with_tag index a.Sandbox.tag in
  match Sandbox.guest_load ~buggy_lowering:true host b ~index:forged with
  | Sandbox.Tag_fault _ -> ()
  | Sandbox.Value _ -> Alcotest.fail "forged tag escaped the sandbox"
  | _ -> Alcotest.fail "unexpected outcome"

let test_sandbox_capacity_15 () =
  let host = Sandbox.create ~config:Config.sandboxing ~size:(1 lsl 21) () in
  let rec fill n =
    match Sandbox.add_instance host ~size:4096 with
    | (_ : Sandbox.instance_region) -> fill (n + 1)
    | exception Sandbox.Too_many_sandboxes -> n
  in
  Alcotest.(check int) "15 sandboxes max" 15 (fill 0)

let test_sandbox_distinct_tags () =
  let host = Sandbox.create ~config:Config.sandboxing ~size:(1 lsl 20) () in
  let regions = List.init 8 (fun _ -> Sandbox.add_instance host ~size:4096) in
  let tags = List.map (fun r -> Arch.Tag.to_int r.Sandbox.tag) regions in
  Alcotest.(check int) "all tags distinct" (List.length tags)
    (List.length (List.sort_uniq compare tags))

let test_sandbox_guard_pages_32bit () =
  let host = Sandbox.create ~config:Config.baseline_wasm32 ~size:(1 lsl 20) () in
  let a = Sandbox.add_instance host ~size:65536 in
  (* any 32-bit index beyond the memory hits a guard page *)
  match Sandbox.guest_load host a ~index:0x10000L with
  | Sandbox.Segfault -> ()
  | _ -> Alcotest.fail "guard page should fault"

let test_tag_reuse_extends_capacity () =
  (* §6.4 future work: with distance-based tag reuse, more than 15
     sandboxes fit in one process *)
  let host =
    Sandbox.create ~config:Config.sandboxing
      ~tag_reuse_reach:(Int64.of_int (8 * 4096))
      ~size:(1 lsl 21) ()
  in
  let regions = List.init 40 (fun _ -> Sandbox.add_instance host ~size:4096) in
  Alcotest.(check int) "40 sandboxes" 40 (List.length regions);
  (* neighbours within reach never share a tag *)
  let arr = Array.of_list regions in
  Array.iteri
    (fun i r ->
      Array.iteri
        (fun j r' ->
          if i <> j then
            let dist = Int64.abs (Int64.sub r.Sandbox.base r'.Sandbox.base) in
            if dist <= Int64.of_int (8 * 4096) then
              Alcotest.(check bool)
                (Printf.sprintf "regions %d and %d within reach differ" i j)
                false
                (Arch.Tag.equal r.Sandbox.tag r'.Sandbox.tag))
        arr)
    arr

let test_tag_reuse_still_isolates_neighbours () =
  let reach = Int64.of_int (4 * 65536) in
  let host =
    Sandbox.create ~config:Config.sandboxing ~tag_reuse_reach:reach
      ~size:(1 lsl 21) ()
  in
  let a = Sandbox.add_instance host ~size:65536 in
  let b = Sandbox.add_instance host ~size:65536 in
  Sandbox.poke host a ~index:128L 0xdeadL;
  let index = Int64.add (Int64.sub a.Sandbox.base b.Sandbox.base) 128L in
  match Sandbox.guest_load ~buggy_lowering:true host b ~index with
  | Sandbox.Tag_fault _ -> ()
  | Sandbox.Value _ -> Alcotest.fail "neighbour escape with tag reuse"
  | _ -> Alcotest.fail "unexpected outcome"

let test_heap_base_is_tagged () =
  let host = Sandbox.create ~config:Config.sandboxing ~size:(1 lsl 20) () in
  let r = Sandbox.add_instance host ~size:65536 in
  Alcotest.(check bool) "heap base pointer carries the instance tag" true
    (Arch.Tag.equal (Arch.Ptr.tag (Sandbox.heap_base r)) r.Sandbox.tag)

(* ------------------------------------------------------------------ *)
(* Process (§6.3)                                                      *)
(* ------------------------------------------------------------------ *)

let sign_auth_module =
  let ft = { Wasm.Types.params = [ Wasm.Types.I64 ]; results = [ Wasm.Types.I64 ] } in
  {
    Wasm.Ast.empty_module with
    types = [ ft; ft ];
    funcs =
      [
        { Wasm.Ast.ftype = 0; locals = [];
          body = [ Wasm.Ast.LocalGet 0; Wasm.Ast.PointerSign ];
          fname = Some "sign" };
        { Wasm.Ast.ftype = 1; locals = [];
          body = [ Wasm.Ast.LocalGet 0; Wasm.Ast.PointerAuth ];
          fname = Some "auth" };
      ];
    memory =
      Some { Wasm.Types.mem_idx = Wasm.Types.Idx64;
             mem_limits = { Wasm.Types.min = 1L; max = Some 1L } };
    exports =
      [
        { Wasm.Ast.ex_name = "sign"; ex_desc = Wasm.Ast.Func_export 0 };
        { Wasm.Ast.ex_name = "auth"; ex_desc = Wasm.Ast.Func_export 1 };
      ];
  }

let test_process_modifier_isolation () =
  let p = Process.create ~config:Config.sandboxing () in
  let a = Process.spawn p sign_auth_module in
  let b = Process.spawn p sign_auth_module in
  (* same process key... *)
  Alcotest.(check bool) "shared process key" true
    (Arch.Pac.key_equal a.Wasm.Instance.pac_key b.Wasm.Instance.pac_key);
  (* ...but signatures do not transfer *)
  match Wasm.Exec.invoke a "sign" [ Wasm.Values.I64 77L ] with
  | [ Wasm.Values.I64 signed ] -> (
      (match Wasm.Exec.invoke a "auth" [ Wasm.Values.I64 signed ] with
      | [ Wasm.Values.I64 v ] ->
          Alcotest.(check int64) "A authenticates its own" 77L v
      | _ -> Alcotest.fail "A auth failed");
      match Wasm.Exec.invoke b "auth" [ Wasm.Values.I64 signed ] with
      | _ -> Alcotest.fail "B accepted A's signature"
      | exception Wasm.Instance.Trap _ -> ())
  | _ -> Alcotest.fail "sign failed"

let test_process_spawn_limit () =
  let p = Process.create ~config:Config.full () in
  let (_ : Wasm.Instance.t) = Process.spawn p sign_auth_module in
  match Process.spawn p sign_auth_module with
  | (_ : Wasm.Instance.t) -> Alcotest.fail "combined config allows only one"
  | exception Sandbox.Too_many_sandboxes -> ()

let test_process_polls_deferred_faults () =
  (* the kernel-style context-switch poll: a deferred (Async) tag
     mismatch latched in one instance's TFSR is surfaced by the process
     drain, exactly once *)
  let cfg = { Config.mem_safety with Config.mte_mode = Arch.Mte.Async } in
  let p = Process.create ~config:cfg () in
  let a = Process.spawn p sign_auth_module in
  let _b = Process.spawn p sign_auth_module in
  Alcotest.(check (list (pair int pass))) "quiet process, no faults" []
    (Process.poll_deferred_faults p);
  let mte = Wasm.Instance.mte a in
  let bad_ptr = Arch.Ptr.with_tag 0L (Arch.Tag.of_int 5) in
  (match Arch.Mte.check mte Arch.Mte.Store ~ptr:bad_ptr ~len:16L with
  | Arch.Mte.Deferred _ -> ()
  | _ -> Alcotest.fail "async store mismatch should defer");
  (match Process.poll_deferred_faults p with
  | [ (id, f) ] ->
      Alcotest.(check int) "faulting instance" a.Wasm.Instance.id id;
      Alcotest.(check int64) "fault address" 0L f.Arch.Mte.fault_addr
  | _ -> Alcotest.fail "expected exactly one deferred fault");
  Alcotest.(check (list (pair int pass))) "drained: second poll empty" []
    (Process.poll_deferred_faults p)

(* ------------------------------------------------------------------ *)
(* Lowering cost model                                                 *)
(* ------------------------------------------------------------------ *)

let meter_with ?(loads = 0) ?(stores = 0) ?(seg_new = 0) ?(granules = 0)
    ?(ptr_auth = 0) ?(ialu = 0) () =
  let m = Wasm.Meter.create () in
  m.Wasm.Meter.loads <- loads;
  m.Wasm.Meter.stores <- stores;
  m.Wasm.Meter.seg_new <- seg_new;
  m.Wasm.Meter.seg_new_granules <- granules;
  m.Wasm.Meter.ptr_auth <- ptr_auth;
  m.Wasm.Meter.ialu <- ialu;
  m

let x3 = Arch.Cpu_model.cortex_x3

let test_lowering_bounds_vs_mte () =
  (* same event record: software bounds must cost more than MTE
     sandboxing on every core *)
  let m = meter_with ~loads:10000 ~stores:5000 ~ialu:20000 () in
  List.iter
    (fun cpu ->
      let sw = Lowering.cycles cpu Config.baseline_wasm64 m in
      let mte = Lowering.cycles cpu Config.sandboxing m in
      Alcotest.(check bool)
        (cpu.Arch.Cpu_model.name ^ ": bounds > mte")
        true (sw > mte))
    Arch.Cpu_model.tensor_g3

let test_lowering_segments_cost () =
  let quiet = meter_with ~ialu:1000 () in
  let busy = meter_with ~ialu:1000 ~seg_new:100 ~granules:1000 () in
  let base = Lowering.cycles x3 Config.mem_safety quiet in
  let with_segs = Lowering.cycles x3 Config.mem_safety busy in
  Alcotest.(check bool) "segment work costs cycles" true (with_segs > base);
  (* but only when internal safety is on *)
  let off = Lowering.cycles x3 Config.baseline_wasm64 busy in
  let off_quiet = Lowering.cycles x3 Config.baseline_wasm64 quiet in
  Alcotest.(check bool) "baseline ignores segment events" true
    (Float.abs (off -. off_quiet) < 1e-9)

let test_lowering_auth_costs_little () =
  let plain = meter_with ~ialu:100000 () in
  let authd = meter_with ~ialu:100000 ~ptr_auth:100 () in
  let a = Lowering.cycles x3 Config.ptr_auth plain in
  let b = Lowering.cycles x3 Config.ptr_auth authd in
  let rel = (b -. a) /. a in
  Alcotest.(check bool)
    (Printf.sprintf "100 auths on 100k ops cost %.2f%%" (100.0 *. rel))
    true
    (rel > 0.0 && rel < 0.01)

let test_lowering_positive () =
  let m = meter_with ~loads:1 () in
  List.iter
    (fun cpu ->
      List.iter
        (fun cfg ->
          Alcotest.(check bool)
            (cfg.Config.name ^ "/" ^ cpu.Arch.Cpu_model.name ^ " positive")
            true
            (Lowering.cycles cpu cfg m > 0.0))
        Config.table3)
    Arch.Cpu_model.tensor_g3

let test_startup_ordering () =
  List.iter
    (fun cpu ->
      let base =
        Lowering.startup_seconds cpu Config.baseline_wasm64
          ~mem_bytes:(128.0 *. 1024.0 *. 1024.0)
      in
      let cage =
        Lowering.startup_seconds cpu Config.full
          ~mem_bytes:(128.0 *. 1024.0 *. 1024.0)
      in
      Alcotest.(check bool) "cage startup costs a bit more" true (cage >= base);
      Alcotest.(check bool) "but is hidden (< 10%)" true
        ((cage -. base) /. base < 0.10))
    Arch.Cpu_model.tensor_g3

let prop_lowering_monotone_in_loads =
  QCheck.Test.make ~name:"cost is monotone in access count" ~count:200
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let m1 = meter_with ~loads:lo () in
      let m2 = meter_with ~loads:hi () in
      Lowering.cycles x3 Config.full m1 <= Lowering.cycles x3 Config.full m2)

let prop_price_nonnegative =
  QCheck.Test.make ~name:"any meter prices non-negative" ~count:200
    QCheck.(
      quad (int_bound 10000) (int_bound 10000) (int_bound 1000)
        (int_bound 10000))
    (fun (loads, stores, seg_new, ialu) ->
      let m = meter_with ~loads ~stores ~seg_new ~ialu () in
      List.for_all
        (fun cfg -> Lowering.cycles x3 cfg m >= 0.0)
        Config.table3)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lowering_monotone_in_loads; prop_price_nonnegative ]

let () =
  Alcotest.run "cage"
    [
      ( "config",
        [
          tc "table3 complete" test_table3_complete;
          tc "usable tags" test_usable_tags;
          tc "exclusion sets" test_exclusion_sets;
          tc "index mask" test_index_mask;
          tc "max sandboxes" test_max_sandboxes;
        ] );
      ( "sandbox",
        [
          tc "in-bounds load" test_sandbox_inbounds_load;
          tc "escape matrix" test_sandbox_escape_matrix;
          tc "sound bounds trap" test_sandbox_sound_lowering_bounds;
          tc "forged tag masked" test_sandbox_forged_tag_masked;
          tc "capacity 15" test_sandbox_capacity_15;
          tc "distinct tags" test_sandbox_distinct_tags;
          tc "guard pages 32-bit" test_sandbox_guard_pages_32bit;
          tc "tag reuse capacity (Sec 6.4 ext)" test_tag_reuse_extends_capacity;
          tc "tag reuse isolates" test_tag_reuse_still_isolates_neighbours;
          tc "heap base tagged" test_heap_base_is_tagged;
        ] );
      ( "process",
        [
          tc "modifier isolation" test_process_modifier_isolation;
          tc "spawn limit" test_process_spawn_limit;
          tc "polls deferred faults" test_process_polls_deferred_faults;
        ] );
      ( "lowering",
        [
          tc "bounds > mte" test_lowering_bounds_vs_mte;
          tc "segments cost" test_lowering_segments_cost;
          tc "auth costs little" test_lowering_auth_costs_little;
          tc "always positive" test_lowering_positive;
          tc "startup ordering" test_startup_ordering;
        ] );
      ("cage-properties", qtests);
    ]
