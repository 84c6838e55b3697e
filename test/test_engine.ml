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
      ( "fuel",
        [
          Alcotest.test_case "exhaustion identical" `Quick
            test_fuel_exhaustion_identical;
          Alcotest.test_case "remaining identical" `Quick
            test_fuel_remaining_identical;
        ] );
    ]
