(* Engine-parity tests: the direct-threaded engine must be
   observationally identical to the reference interpreter — same
   results, same trap messages (including the trap-prefix taxonomy),
   same deferred-fault sync points, same fuel accounting — on the
   control-flow and fault edge cases where a compiled dispatch most
   plausibly diverges from a tree-walker. *)

open Wasm

let value = Alcotest.testable Values.pp Values.equal
let ft params results = { Types.params; results }

let mem64 =
  { Types.mem_idx = Types.Idx64;
    mem_limits = { Types.min = 1L; max = Some 16L } }

let module_of ?(memory = Some mem64) funcs =
  let types = List.map (fun (ty, _, _) -> ty) funcs in
  {
    Ast.empty_module with
    types;
    funcs =
      List.mapi
        (fun i (_, locals, body) ->
          { Ast.ftype = i; locals; body; fname = Some (Printf.sprintf "f%d" i) })
        funcs;
    memory;
    exports =
      List.mapi
        (fun i _ ->
          { Ast.ex_name = Printf.sprintf "f%d" i; ex_desc = Ast.Func_export i })
        funcs;
  }

let engines = [ ("interp", Instance.Interp); ("threaded", Instance.Threaded) ]

(* Run [name] on a fresh instance per engine and return the outcomes
   (result or trap message) paired with the meters. *)
let on_both ?(config = Instance.default_config) m name args =
  List.map
    (fun (label, engine) ->
      let meter = Meter.create () in
      let config = { config with Instance.engine; meter = Some meter } in
      let outcome =
        match Exec.invoke (Exec.instantiate ~config m) name args with
        | vs -> Ok vs
        | exception Instance.Trap msg -> Error msg
      in
      (label, outcome, meter))
    engines

(* Assert both engines produced [expected] and identical meters. *)
let check_both ?config m name args expected =
  let results = on_both ?config m name args in
  List.iter
    (fun (label, outcome, _) ->
      match outcome with
      | Ok vs -> Alcotest.(check (list value)) label expected vs
      | Error msg -> Alcotest.failf "%s trapped: %s" label msg)
    results;
  match results with
  | [ (_, _, m_i); (_, _, m_t) ] ->
      Alcotest.(check bool) "meters bit-identical" true (m_i = m_t)
  | _ -> assert false

(* Tag identities are drawn from a per-instance RNG keyed on a global
   instance counter, so two fresh instances legitimately report
   different [#n] tag values in otherwise identical trap messages.
   Mask the digits after '#' so the comparison pins everything else:
   fault kind, access size, address, memory-vs-tag role. *)
let mask_tags msg =
  let b = Buffer.create (String.length msg) in
  let n = String.length msg in
  let i = ref 0 in
  while !i < n do
    let c = msg.[!i] in
    Buffer.add_char b c;
    incr i;
    if c = '#' then begin
      while !i < n && msg.[!i] >= '0' && msg.[!i] <= '9' do incr i done;
      Buffer.add_char b 'N'
    end
  done;
  Buffer.contents b

(* Assert both engines trapped with the same message (modulo tags)
   after bit-identical meters. *)
let check_both_trap ?config ~substring m name args =
  let results = on_both ?config m name args in
  (match results with
  | [ (_, _, m_i); (_, _, m_t) ] ->
      Alcotest.(check bool) "meters bit-identical" true (m_i = m_t)
  | _ -> assert false);
  let msgs =
    List.map
      (fun (label, outcome, _) ->
        match outcome with
        | Ok _ -> Alcotest.failf "%s: expected trap containing %S" label
                    substring
        | Error msg ->
            if not (Astring.String.is_infix ~affix:substring msg) then
              Alcotest.failf "%s: trap %S does not mention %S" label msg
                substring;
            msg)
      results
  in
  match msgs with
  | [ mi; mt ] ->
      Alcotest.(check string) "identical trap message" (mask_tags mi)
        (mask_tags mt)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Control-flow edge cases                                              *)
(* ------------------------------------------------------------------ *)

let test_branch_drops_operands () =
  (* a validated branch may leave operands below the values it carries:
     the spec drops them at the target, and the threaded engine (which
     used to hand such functions to the interpreter) must agree *)
  let i32 v = Ast.I32Const v in
  let m =
    module_of
      [ (ft [ Types.I32 ] [ Types.I32 ], [],
         [ i32 100l;
           Ast.Block
             (Ast.ValBlock (Some Types.I32),
              [ i32 7l; i32 1l; Ast.LocalGet 0; Ast.BrIf 0; Ast.Drop ]);
           Ast.IBinop (Ast.W32, Ast.Add) ]);
        (ft [] [ Types.I32 ], [],
         [ i32 9l;
           Ast.Block (Ast.ValBlock None, [ i32 8l; i32 42l; Ast.Return ]) ]);
        (ft [] [ Types.I32 ], [ Types.I32 ],
         [ Ast.Block
             (Ast.ValBlock None,
              [ Ast.Loop
                  (Ast.ValBlock None,
                   [ i32 5l; Ast.LocalGet 0; i32 1l;
                     Ast.IBinop (Ast.W32, Ast.Add); Ast.LocalTee 0;
                     i32 3l; Ast.IRelop (Ast.W32, Ast.LtS); Ast.BrIf 0;
                     Ast.Br 1 ]) ]);
           Ast.LocalGet 0 ]) ]
  in
  check_both m "f0" [ Values.I32 1l ] [ Values.I32 101l ];
  check_both m "f0" [ Values.I32 0l ] [ Values.I32 107l ];
  check_both m "f1" [] [ Values.I32 42l ];
  check_both m "f2" [] [ Values.I32 3l ]

let test_huge_offset_bounds () =
  (* memarg offsets beyond the native address field compile too: every
     such access is out of bounds, with the interpreter's trap and
     meter *)
  let ma offset = { Ast.offset; align = 0 } in
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 8L; Ast.Load (Types.I64, None, ma 0x1_0000_0000L) ]);
        (ft [] [], [],
         [ Ast.I64Const 0L; Ast.I64Const 1L;
           Ast.Store (Types.I64, None, ma Int64.max_int) ]) ]
  in
  check_both_trap ~substring:"bounds: out of bounds" m "f0" [];
  check_both_trap ~substring:"bounds: out of bounds" m "f1" []

let test_zero_iteration_loop () =
  (* the loop header is entered once, the back-edge never taken: the
     fall-through must not re-run the body or desync the stack *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [ Types.I32 ],
         [ Ast.Block
             (Ast.ValBlock None,
              [ Ast.Loop
                  (Ast.ValBlock None,
                   [ Ast.LocalGet 0; Ast.BrIf 0 ]) ]);
           Ast.I32Const 42l ]) ]
  in
  check_both m "f0" [] [ Values.I32 42l ]

let test_if_empty_else () =
  (* a false condition with an empty else arm falls through cleanly *)
  let m =
    module_of
      [ (ft [ Types.I32 ] [ Types.I32 ], [ Types.I32 ],
         [ Ast.LocalGet 0;
           Ast.If (Ast.ValBlock None, [ Ast.I32Const 7l; Ast.LocalSet 1 ], []);
           Ast.LocalGet 1 ]) ]
  in
  check_both m "f0" [ Values.I32 0l ] [ Values.I32 0l ];
  check_both m "f0" [ Values.I32 1l ] [ Values.I32 7l ]

(* ------------------------------------------------------------------ *)
(* Deferred (TFSR) faults drain at the same sync points                 *)
(* ------------------------------------------------------------------ *)

(* Allocate a segment, free it, then touch it: the access faults. *)
let freed_segment_module after =
  module_of
    [ (ft [] [], [ Types.I64 ],
       [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
         Ast.LocalSet 0;
         Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L ]
       @ after) ]

let memarg () = { Ast.offset = 0L; align = 3 }

let test_async_deferred_same_sync_point () =
  (* Async mode: the faulting store proceeds, the mismatch latches, and
     both engines report the same sticky first fault at the same sync
     point (function return) *)
  let m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.I64Const 99L; Ast.Store (Types.I64, None, memarg ());
        Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()); Ast.Drop ]
  in
  let config = { Instance.default_config with mte_mode = Arch.Mte.Async } in
  check_both_trap ~config ~substring:"deferred" m "f0" []

let test_asymmetric_store_sync_load_deferred () =
  (* Asymmetric: stores trap synchronously (identical immediate trap),
     loads latch and drain at return *)
  let store_m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.I64Const 99L;
        Ast.Store (Types.I64, None, memarg ()) ]
  in
  let load_m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()); Ast.Drop ]
  in
  let config =
    { Instance.default_config with mte_mode = Arch.Mte.Asymmetric }
  in
  check_both_trap ~config ~substring:"tag fault" store_m "f0" [];
  check_both_trap ~config ~substring:"deferred" load_m "f0" []

(* ------------------------------------------------------------------ *)
(* Check policies forced onto every access                              *)
(* ------------------------------------------------------------------ *)

(* An analyzer plan only marks accesses it proved, so no other test
   meets a bounds-elided access at an out-of-bounds address. Marking
   every access forces each policy onto in-bounds and out-of-bounds
   addresses alike: with the span check elided, the tag check must
   still fault; with both checks elided, the raw memory primitive must
   still raise and become the interpreter's bounds trap. *)
let policies =
  [ ("checked", false, false); ("tag-elided", true, false);
    ("bounds-elided", false, true); ("fully elided", true, true) ]

let access_module idx =
  let i32 = Types.I32 and i64 = Types.I64 and f64 = Types.F64 in
  let at = Types.addr_type idx in
  let ma offset = { Ast.offset; align = 0 } in
  (* [addr + 0] as an address chain: on wasm32 the add fuses into the
     access that follows it *)
  let chain =
    match idx with
    | Types.Idx32 ->
        [ Ast.LocalGet 0; Ast.Nop; Ast.I32Const 0l; Ast.Nop;
          Ast.IBinop (Ast.W32, Ast.Add) ]
    | Types.Idx64 ->
        [ Ast.LocalGet 0; Ast.Nop; Ast.I64Const 0L; Ast.Nop;
          Ast.IBinop (Ast.W64, Ast.Add) ]
  in
  let data =
    "\x81\x82\x83\x84\x85\x86\x87\x88\x00\x00\x00\x00\x00\x00\x00\x40"
  in
  {
    (module_of
       ~memory:(Some { Types.mem_idx = idx;
                       mem_limits = { Types.min = 4L; max = Some 4L } })
       [ (ft [ at ] [ i64 ], [],
          [ Ast.LocalGet 0; Ast.Load (i64, None, ma 0L) ]);
         (ft [ at ] [ i32 ], [],
          [ Ast.LocalGet 0; Ast.Nop; Ast.Load (i32, Some (Ast.Pack8, Ast.SX), ma 0L) ]);
         (ft [ at ] [ i64 ], [ i64 ],
          [ Ast.LocalGet 0; Ast.Nop;
            Ast.Load (i64, Some (Ast.Pack32, Ast.ZX), ma 4L); Ast.LocalSet 1;
            Ast.LocalGet 1 ]);
         (ft [ at; i64 ] [ i64 ], [],
          [ Ast.LocalGet 0; Ast.LocalGet 1; Ast.Store (i64, None, ma 0L);
            Ast.LocalGet 0; Ast.Load (i64, None, ma 0L) ]);
         (ft [ at ] [ i32 ], [],
          [ Ast.LocalGet 0; Ast.Nop; Ast.I32Const 0x12345l;
            Ast.Store (i32, Some Ast.Pack16, ma 2L); Ast.LocalGet 0; Ast.Nop;
            Ast.Load (i32, Some (Ast.Pack16, Ast.ZX), ma 2L) ]);
         (ft [ at; f64 ] [ f64 ], [],
          [ Ast.LocalGet 0; Ast.Nop; Ast.LocalGet 1; Ast.Store (f64, None, ma 8L);
            Ast.LocalGet 0; Ast.Load (f64, None, ma 8L) ]);
         (ft [ at ] [ f64 ], [],
          (Ast.F64Const 0.5 :: chain)
          @ [ Ast.Load (f64, None, ma 8L); Ast.FBinop (Ast.W64, Ast.FAdd) ]);
         (ft [ at; i64 ] [ i64 ], [],
          chain
          @ [ Ast.LocalGet 1; Ast.Store (i64, Some Ast.Pack32, ma 0L);
              Ast.LocalGet 0; Ast.Load (i64, Some (Ast.Pack32, Ast.SX), ma 0L) ]) ])
    with
    Ast.datas = [ { Ast.d_offset = 64L; d_bytes = data } ];
  }

(* Four pages, so that the data segment commits only the first
   (memory is committed on first touch) and an access at the far end
   first reaches past the committed prefix: it must commit, read zeros
   and keep what it stores, under every policy. *)
let access_size = 0x40000L

let test_access_policies () =
  List.iter
    (fun idx ->
      let m = access_module idx in
      let addr a =
        match idx with
        | Types.Idx32 -> Values.I32 (Int64.to_int32 a)
        | Types.Idx64 -> Values.I64 a
      in
      (* (function, extra arguments, in-bounds result at address 64,
         result at the last address it can reach, end of its first
         access past the address) *)
      let cases =
        [ ("f0", [], Values.I64 0x8887868584838281L, Values.I64 0L, 8L);
          ("f1", [], Values.I32 (-127l), Values.I32 0l, 1L);
          ("f2", [], Values.I64 0x88878685L, Values.I64 0L, 8L);
          ("f3", [ Values.I64 0x0102030405060708L ],
           Values.I64 0x0102030405060708L, Values.I64 0x0102030405060708L, 8L);
          ("f4", [], Values.I32 0x2345l, Values.I32 0x2345l, 4L);
          ("f5", [ Values.F64 (-2.25) ], Values.F64 (-2.25), Values.F64 (-2.25),
           16L);
          ("f6", [], Values.F64 2.5, Values.F64 0.5, 16L);
          ("f7", [ Values.I64 0x80000001L ], Values.I64 (-0x7fffffffL),
           Values.I64 (-0x7fffffffL), 4L) ]
      in
      (* one byte past the end of memory, far past it, and (wasm32) an
         address with the sign bit set, which must zero-extend *)
      let oob reach =
        [ Int64.sub (Int64.succ access_size) reach; 0x12345678L ]
        @ (match idx with Types.Idx32 -> [ 0xfffffff0L ] | Types.Idx64 -> [])
      in
      List.iter
        (fun (policy, elide, belide) ->
          let marks on = if on then Array.make 8 (Bytes.make 4 '\xff') else [||] in
          let config =
            { Instance.default_config with elide = marks elide; belide = marks belide }
          in
          let substring =
            if belide && not elide then "tag fault"
            else "bounds: out of bounds memory access"
          in
          List.iter
            (fun (f, extra, expected, at_end, reach) ->
              (* shown in the test's log when a check fails *)
              Printf.printf "%s memory, %s, %s\n"
                (Types.string_of_idx_type idx) policy f;
              check_both ~config m f (addr 64L :: extra) [ expected ];
              check_both ~config m f
                (addr (Int64.sub access_size reach) :: extra)
                [ at_end ];
              List.iter
                (fun a -> check_both_trap ~config ~substring m f (addr a :: extra))
                (oob reach))
            cases)
        policies)
    [ Types.Idx32; Types.Idx64 ]

(* ------------------------------------------------------------------ *)
(* Linear memory: grow limits and commit on first touch                 *)
(* ------------------------------------------------------------------ *)

(* [memory.grow] checks its delta against the room left before adding
   it: a wasm64 delta near 2^63 would otherwise wrap into a small (or
   negative) page count. It must fail with -1 and leave the size
   alone, on both engines, with and without a declared maximum. *)
let test_grow_overflow_fails () =
  List.iter
    (fun max ->
      let m =
        module_of
          ~memory:(Some { Types.mem_idx = Types.Idx64;
                          mem_limits = { Types.min = 1L; max } })
          [ (ft [] [ Types.I64 ], [],
             [ Ast.I64Const Int64.max_int; Ast.MemoryGrow ]);
            (ft [] [ Types.I64 ], [],
             [ Ast.I64Const Int64.max_int; Ast.MemoryGrow; Ast.Drop;
               Ast.MemorySize ]) ]
      in
      check_both m "f0" [] [ Values.I64 (-1L) ];
      check_both m "f1" [] [ Values.I64 1L ])
    [ None; Some 16L ]

(* An empty span is in bounds up to the memory's end, however little of
   it is committed: a zero-length [segment.new], [memory.fill] and
   [memory.copy] past the committed prefix return on both engines. *)
let test_empty_spans_past_prefix () =
  let i64 v = Ast.I64Const v in
  let m =
    module_of
      ~memory:(Some { Types.mem_idx = Types.Idx64;
                      mem_limits = { Types.min = 4L; max = Some 4L } })
      [ (ft [] [ Types.I64 ], [],
         [ i64 200_000L; i64 0L; Ast.SegmentNew 0L; Ast.Drop; i64 1L ]);
        (ft [] [ Types.I64 ], [],
         [ i64 0x40000L; Ast.I32Const 0xffl; i64 0L; Ast.MemoryFill;
           i64 200_000L; i64 0L; i64 0L; Ast.MemoryCopy;
           i64 0L; i64 0x40000L; i64 0L; Ast.MemoryCopy;
           i64 200_000L; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  check_both m "f0" [] [ Values.I64 1L ];
  check_both m "f1" [] [ Values.I64 0L ]

(* Every PolyBench kernel declares 80 pages (5 MiB) and runs in
   128 KiB of them. Instantiation commits only the 64 KiB floor, and a
   run stays within 256 KiB: an eager touch of the whole memory fails
   here instead of quietly multiplying the cost of instantiation. *)
let test_polybench_commits () =
  let cfg =
    Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.full)
  in
  List.iter
    (fun (k : Workloads.Polybench.kernel) ->
      let m =
        (Libc.Run.compile ~mem_pages:80L cfg k.k_source).Minic.Driver.co_module
      in
      let inst =
        Exec.instantiate ~config:(Cage.Config.instance_config ~m cfg)
          ~imports:(Libc.Wasi.imports (Libc.Wasi.create ())) m
      in
      let mem = Instance.memory inst in
      Alcotest.(check int) (k.k_name ^ ": instantiation commits the floor")
        0x10000 (Memory.length_bytes mem);
      ignore (Exec.invoke inst "main" []);
      let used = Memory.length_bytes mem in
      if used > 0x40000 then
        Alcotest.failf "%s commits %d of %Ld bytes" k.k_name used
          (Memory.size_bytes mem))
    Workloads.Polybench.all

(* ------------------------------------------------------------------ *)
(* Superinstruction coverage on PolyBench                               *)
(* ------------------------------------------------------------------ *)

(* Lowering statistics summed over the 26 PolyBench kernels: how many
   instructions, accesses and elided accesses the compiler saw, and how
   often each fused idiom matched. Pinned so that a change to the
   lowerer cannot silently lose a superinstruction or an elision. *)
let polybench_fusion (cfg : Cage.Config.t) =
  let idioms = Hashtbl.create 32 in
  let totals = [| 0; 0; 0; 0 |] in
  List.iter
    (fun (k : Workloads.Polybench.kernel) ->
      let m = (Libc.Run.compile cfg k.k_source).Minic.Driver.co_module in
      let c = Cage.Config.instance_config ~m cfg in
      let stats =
        Compile.module_stats ~elide:c.Instance.elide ~belide:c.Instance.belide
          ~arena:c.Instance.arena m
      in
      List.iter
        (fun (s : Xcode.stats) ->
          List.iteri
            (fun i n -> totals.(i) <- totals.(i) + n)
            [ s.st_instrs; s.st_fused; s.st_accesses; s.st_elided ];
          List.iter
            (fun (name, n) ->
              Hashtbl.replace idioms name
                (n + Option.value ~default:0 (Hashtbl.find_opt idioms name)))
            s.st_idioms)
        stats)
    Workloads.Polybench.all;
  (Array.to_list totals, List.sort compare (List.of_seq (Hashtbl.to_seq idioms)))

let test_fusion_pinned () =
  let check name cfg totals idioms =
    let t, i = polybench_fusion cfg in
    Alcotest.(check (list int))
      (name ^ ": instrs, fused, accesses, elided") totals t;
    Alcotest.(check (list (pair string int))) (name ^ ": idiom matches") idioms i
  in
  check "baseline wasm32" Cage.Config.baseline_wasm32 [ 25065; 10748; 1441; 0 ]
    [ ("f64.lg.lg.op", 30); ("f64.lg.op", 35); ("f64.op.ls", 140);
      ("i32.add.lg.store", 258); ("i32.add.load", 490);
      ("i32.add.load.f64.op", 91); ("i32.const.op", 303);
      ("i32.eqz.brif", 205); ("i32.lg.const.op", 158);
      ("i32.lg.const.op.ls", 181); ("i32.lg.lg.lg.op", 231);
      ("i32.lg.lg.op", 35); ("i32.lg.lg.relop.eqz.brif", 150);
      ("i32.lg.op", 298); ("lg.lg.store", 184); ("lg.load", 106);
      ("lg.ls", 1230); ("lg.store", 130); ("load.ls", 104) ];
  check "CAGE, full plan"
    (Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.full))
    [ 24384; 8695; 1467; 372 ]
    [ ("f64.lg.lg.op", 30); ("f64.lg.op", 35); ("f64.op.ls", 152);
      ("i32.const.op", 26); ("i32.eqz.brif", 205); ("i32.lg.const.op", 62);
      ("i32.lg.const.op.ls", 181); ("i32.lg.lg.lg.op", 231);
      ("i32.lg.lg.op", 35); ("i32.lg.lg.relop.eqz.brif", 150);
      ("i32.lg.op", 298); ("lg.lg.store", 184); ("lg.load", 132);
      ("lg.ls", 1256); ("lg.store", 388); ("load.ls", 190) ]

(* ------------------------------------------------------------------ *)
(* Fuel watchdog parity                                                 *)
(* ------------------------------------------------------------------ *)

let test_fuel_exhaustion_identical () =
  (* a runaway loop must burn its budget to exactly zero and trap with
     the same message on both engines *)
  let m =
    module_of [ (ft [] [], [], [ Ast.Loop (Ast.ValBlock None, [ Ast.Br 0 ]) ]) ]
  in
  let config = { Instance.default_config with fuel = 10_000 } in
  check_both_trap ~config ~substring:"fuel" m "f0" []

let test_fuel_remaining_identical () =
  (* a terminating loop leaves the same fuel on both engines: every
     branch and call burns exactly one unit in the same places *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [ Types.I32 ],
         [ Ast.I32Const 50l; Ast.LocalSet 0;
           Ast.Block
             (Ast.ValBlock None,
              [ Ast.Loop
                  (Ast.ValBlock None,
                   [ Ast.LocalGet 0; Ast.I32Const 1l;
                     Ast.IBinop (Ast.W32, Ast.Sub); Ast.LocalSet 0;
                     Ast.LocalGet 0; Ast.BrIf 0 ]) ]);
           Ast.LocalGet 0 ]) ]
  in
  let left =
    List.map
      (fun (label, engine) ->
        let config =
          { Instance.default_config with Instance.engine; fuel = 10_000 }
        in
        let inst = Exec.instantiate ~config m in
        (match Exec.invoke inst "f0" [] with
        | [ Values.I32 0l ] -> ()
        | vs ->
            Alcotest.failf "%s: unexpected result %s" label
              (Format.asprintf "%a"
                 (Format.pp_print_list Values.pp)
                 vs));
        inst.Instance.fuel)
      engines
  in
  match left with
  | [ f_i; f_t ] ->
      Alcotest.(check int) "identical fuel remaining" f_i f_t;
      Alcotest.(check bool) "fuel was actually burned" true (f_i < 10_000)
  | _ -> assert false

let () =
  Alcotest.run "engine"
    [
      ( "control",
        [
          Alcotest.test_case "branches drop operands" `Quick
            test_branch_drops_operands;
          Alcotest.test_case "huge memarg offset" `Quick test_huge_offset_bounds;
          Alcotest.test_case "zero-iteration loop" `Quick
            test_zero_iteration_loop;
          Alcotest.test_case "if with empty else" `Quick test_if_empty_else;
        ] );
      ( "faults",
        [
          Alcotest.test_case "async deferred drains at return" `Quick
            test_async_deferred_same_sync_point;
          Alcotest.test_case "asymmetric store sync, load deferred" `Quick
            test_asymmetric_store_sync_load_deferred;
        ] );
      ( "access",
        [
          Alcotest.test_case "every policy, every access" `Quick
            test_access_policies;
        ] );
      ( "memory",
        [
          Alcotest.test_case "grow overflow fails" `Quick
            test_grow_overflow_fails;
          Alcotest.test_case "empty spans past the prefix" `Quick
            test_empty_spans_past_prefix;
          Alcotest.test_case "polybench commits at most 256 KiB" `Quick
            test_polybench_commits;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "polybench idiom counts pinned" `Quick
            test_fusion_pinned;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "exhaustion identical" `Quick
            test_fuel_exhaustion_identical;
          Alcotest.test_case "remaining identical" `Quick
            test_fuel_remaining_identical;
        ] );
    ]
