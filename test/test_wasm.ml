(* Tests for the WebAssembly substrate: validation, core semantics, and
   the Cage extension instructions (paper Fig. 7 / Fig. 10 / Fig. 11). *)

open Wasm

let value = Alcotest.testable Values.pp Values.equal

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let ft params results = { Types.params; results }

let mem64 =
  { Types.mem_idx = Types.Idx64;
    mem_limits = { Types.min = 1L; max = Some 16L } }

let mem32 =
  { Types.mem_idx = Types.Idx32;
    mem_limits = { Types.min = 1L; max = Some 16L } }

(* A module with one exported function "f" per entry in [funcs]. *)
let module_of ?(memory = Some mem64) ?(table = None) ?(globals = [])
    ?(elems = []) ?(datas = []) funcs =
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
    table;
    globals;
    elems;
    datas;
    exports =
      List.mapi
        (fun i _ ->
          { Ast.ex_name = Printf.sprintf "f%d" i; ex_desc = Ast.Func_export i })
        funcs;
  }

let run_f0 ?config ?imports m args =
  Exec.invoke (Exec.instantiate ?config ?imports m) "f0" args

let expect_trap ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected trap containing %S" substring
  | exception Instance.Trap msg ->
      if not (Astring.String.is_infix ~affix:substring msg) then
        Alcotest.failf "trap %S does not mention %S" msg substring

(* ------------------------------------------------------------------ *)
(* Core semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_i32_arith () =
  let m =
    module_of
      [ (ft [ Types.I32; Types.I32 ] [ Types.I32 ], [],
         [ Ast.LocalGet 0; Ast.LocalGet 1; Ast.IBinop (Ast.W32, Ast.Add) ]) ]
  in
  Alcotest.(check (list value)) "3 + 4" [ Values.I32 7l ]
    (run_f0 m [ Values.I32 3l; Values.I32 4l ])

let test_div_by_zero_traps () =
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.I32Const 1l; Ast.I32Const 0l; Ast.IBinop (Ast.W32, Ast.DivS) ])
      ]
  in
  expect_trap ~substring:"divide by zero" (fun () -> run_f0 m [])

let test_div_overflow_traps () =
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.I32Const Int32.min_int; Ast.I32Const (-1l);
           Ast.IBinop (Ast.W32, Ast.DivS) ]) ]
  in
  expect_trap ~substring:"integer overflow" (fun () -> run_f0 m [])

let test_unreachable_traps () =
  let m = module_of [ (ft [] [], [], [ Ast.Unreachable ]) ] in
  expect_trap ~substring:"unreachable" (fun () -> run_f0 m [])

let test_block_br () =
  (* block (result i32) i32.const 1 br 0 i32.const 2 end *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.Block
             (Ast.ValBlock (Some Types.I32),
              [ Ast.I32Const 1l; Ast.Br 0; Ast.Unreachable ]) ]) ]
  in
  Alcotest.(check (list value)) "br carries value" [ Values.I32 1l ]
    (run_f0 m [])

let test_loop_countdown () =
  (* local 0 = 5; loop: local0 -= 1; br_if 0 (local0 != 0); end; return 42 *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [ Types.I32 ],
         [ Ast.I32Const 5l; Ast.LocalSet 0;
           Ast.Loop
             (Ast.ValBlock None,
              [ Ast.LocalGet 0; Ast.I32Const 1l; Ast.IBinop (Ast.W32, Ast.Sub);
                Ast.LocalTee 0; Ast.I32Const 0l; Ast.IRelop (Ast.W32, Ast.Ne);
                Ast.BrIf 0 ]);
           Ast.I32Const 42l ]) ]
  in
  Alcotest.(check (list value)) "loop terminates" [ Values.I32 42l ]
    (run_f0 m [])

let test_nested_br_depth () =
  (* br 1 out of two nested blocks skips code in both *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.Block
             (Ast.ValBlock (Some Types.I32),
              [ Ast.Block
                  (Ast.ValBlock None, [ Ast.I32Const 7l; Ast.Br 1 ]);
                Ast.Unreachable ]) ]) ]
  in
  Alcotest.(check (list value)) "br 1 escapes both" [ Values.I32 7l ]
    (run_f0 m [])

let test_br_table () =
  let case i =
    [ Ast.Block
        (Ast.ValBlock None,
         [ Ast.Block
             (Ast.ValBlock None,
              [ Ast.Block
                  (Ast.ValBlock None,
                   [ Ast.I32Const (Int32.of_int i); Ast.BrTable ([ 0; 1 ], 2) ]);
                (* case 0 *) Ast.I32Const 100l; Ast.Return ]);
           (* case 1 *) Ast.I32Const 200l; Ast.Return ]);
      (* default *) Ast.I32Const 300l ]
  in
  List.iter
    (fun (i, expect) ->
      let m = module_of [ (ft [] [ Types.I32 ], [], case i) ] in
      Alcotest.(check (list value))
        (Printf.sprintf "br_table %d" i)
        [ Values.I32 expect ] (run_f0 m []))
    [ (0, 100l); (1, 200l); (5, 300l) ]

let test_if_else () =
  let mk c =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.I32Const c;
           Ast.If
             (Ast.ValBlock (Some Types.I32),
              [ Ast.I32Const 1l ], [ Ast.I32Const 2l ]) ]) ]
  in
  Alcotest.(check (list value)) "then" [ Values.I32 1l ] (run_f0 (mk 1l) []);
  Alcotest.(check (list value)) "else" [ Values.I32 2l ] (run_f0 (mk 0l) [])

let test_select () =
  let m =
    module_of
      [ (ft [ Types.I32 ] [ Types.I64 ], [],
         [ Ast.I64Const 10L; Ast.I64Const 20L; Ast.LocalGet 0; Ast.Select ]) ]
  in
  Alcotest.(check (list value)) "select true" [ Values.I64 10L ]
    (run_f0 m [ Values.I32 1l ]);
  Alcotest.(check (list value)) "select false" [ Values.I64 20L ]
    (run_f0 m [ Values.I32 0l ])

let test_globals () =
  let m =
    module_of
      ~globals:
        [ { Ast.g_type = { Types.mut = true; g_type = Types.I64 };
            g_init = Values.I64 5L } ]
      [ (ft [] [ Types.I64 ], [],
         [ Ast.GlobalGet 0; Ast.I64Const 3L; Ast.IBinop (Ast.W64, Ast.Add);
           Ast.GlobalSet 0; Ast.GlobalGet 0 ]) ]
  in
  Alcotest.(check (list value)) "global updated" [ Values.I64 8L ]
    (run_f0 m [])

let test_call () =
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [], [ Ast.I32Const 20l; Ast.Call 1 ]);
        (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.LocalGet 0; Ast.I32Const 1l; Ast.IBinop (Ast.W32, Ast.Add) ]) ]
  in
  Alcotest.(check (list value)) "call" [ Values.I32 21l ] (run_f0 m [])

let test_host_import () =
  let m =
    {
      (module_of [ (ft [] [ Types.I32 ], [], [ Ast.I32Const 5l; Ast.Call 0 ]) ]) with
      types = [ ft [ Types.I32 ] [ Types.I32 ]; ft [] [ Types.I32 ] ];
      imports = [ { Ast.im_module = "env"; im_name = "double"; im_type = 0 } ];
      funcs =
        [ { Ast.ftype = 1; locals = []; body = [ Ast.I32Const 5l; Ast.Call 0 ];
            fname = Some "main" } ];
      exports = [ { Ast.ex_name = "f0"; ex_desc = Ast.Func_export 1 } ];
    }
  in
  let double _ = function
    | [ Values.I32 x ] -> [ Values.I32 (Int32.mul x 2l) ]
    | _ -> Alcotest.fail "bad host args"
  in
  Alcotest.(check (list value)) "host import" [ Values.I32 10l ]
    (run_f0 ~imports:[ ("env", "double", double) ] m [])

let test_call_indirect () =
  let table = Some { Types.tbl_limits = { Types.min = 2L; max = Some 2L } } in
  let m =
    module_of ~table
      ~elems:[ { Ast.e_offset = 0L; e_funcs = [ 1; 2 ] } ]
      [ (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.I32Const 50l; Ast.LocalGet 0; Ast.CallIndirect 1 ]);
        (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.LocalGet 0; Ast.I32Const 1l; Ast.IBinop (Ast.W32, Ast.Add) ]);
        (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.LocalGet 0; Ast.I32Const 2l; Ast.IBinop (Ast.W32, Ast.Mul) ]) ]
  in
  Alcotest.(check (list value)) "slot 0" [ Values.I32 51l ]
    (run_f0 m [ Values.I32 0l ]);
  Alcotest.(check (list value)) "slot 1" [ Values.I32 100l ]
    (run_f0 m [ Values.I32 1l ])

let test_call_indirect_type_mismatch () =
  let table = Some { Types.tbl_limits = { Types.min = 1L; max = Some 1L } } in
  let m =
    module_of ~table
      ~elems:[ { Ast.e_offset = 0L; e_funcs = [ 1 ] } ]
      [ (ft [] [ Types.I64 ], [], [ Ast.I32Const 0l; Ast.CallIndirect 2 ]);
        (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.LocalGet 0 ]);
        (ft [] [ Types.I64 ], [], [ Ast.I64Const 0L ]) ]
  in
  expect_trap ~substring:"indirect call type mismatch" (fun () -> run_f0 m [])

let test_call_indirect_oob () =
  let table = Some { Types.tbl_limits = { Types.min = 1L; max = Some 1L } } in
  let m =
    module_of ~table
      [ (ft [] [], [], [ Ast.I32Const 7l; Ast.CallIndirect 0 ]) ]
  in
  expect_trap ~substring:"undefined element" (fun () -> run_f0 m [])

let test_call_indirect_null () =
  let table = Some { Types.tbl_limits = { Types.min = 1L; max = Some 1L } } in
  let m =
    module_of ~table
      [ (ft [] [], [], [ Ast.I32Const 0l; Ast.CallIndirect 0 ]) ]
  in
  expect_trap ~substring:"uninitialized table element" (fun () -> run_f0 m [])

let test_recursion_exhausts () =
  let m = module_of [ (ft [] [], [], [ Ast.Call 0 ]) ] in
  expect_trap ~substring:"call stack exhausted" (fun () -> run_f0 m [])

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let memarg ?(offset = 0L) () = { Ast.offset; align = 0 }

let test_store_load_roundtrip () =
  let m =
    module_of
      [ (ft [ Types.I64 ] [ Types.I64 ], [],
         [ Ast.I64Const 128L; Ast.LocalGet 0;
           Ast.Store (Types.I64, None, memarg ());
           Ast.I64Const 128L; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "roundtrip" [ Values.I64 0xdeadbeefL ]
    (run_f0 m [ Values.I64 0xdeadbeefL ])

let test_load_offset_folding () =
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.I64Const 100L; Ast.I32Const 77l;
           Ast.Store (Types.I32, None, memarg ~offset:24L ());
           Ast.I64Const 124L; Ast.Load (Types.I32, None, memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "static offset added" [ Values.I32 77l ]
    (run_f0 m [])

let test_packed_sign_extension () =
  let m =
    module_of
      [ (ft [] [ Types.I32; Types.I32 ], [],
         [ Ast.I64Const 0L; Ast.I32Const 0xffl;
           Ast.Store (Types.I32, Some Ast.Pack8, memarg ());
           Ast.I64Const 0L;
           Ast.Load (Types.I32, Some (Ast.Pack8, Ast.SX), memarg ());
           Ast.I64Const 0L;
           Ast.Load (Types.I32, Some (Ast.Pack8, Ast.ZX), memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "sx then zx" [ Values.I32 (-1l); Values.I32 255l ]
    (run_f0 m [])

let test_oob_load_traps () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 65536L; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  expect_trap ~substring:"out of bounds" (fun () -> run_f0 m [])

let test_oob_store_edge () =
  (* last valid byte is 65535; an 8-byte store at 65529 crosses the end *)
  let m =
    module_of
      [ (ft [] [], [],
         [ Ast.I64Const 65529L; Ast.I64Const 1L;
           Ast.Store (Types.I64, None, memarg ()) ]) ]
  in
  expect_trap ~substring:"out of bounds" (fun () -> run_f0 m [])

let test_memory_grow_size () =
  let m =
    module_of
      [ (ft [] [ Types.I64; Types.I64; Types.I64 ], [],
         [ Ast.MemorySize; Ast.I64Const 2L; Ast.MemoryGrow; Ast.MemorySize ]) ]
  in
  Alcotest.(check (list value)) "grow"
    [ Values.I64 1L; Values.I64 1L; Values.I64 3L ]
    (run_f0 m [])

let test_memory_grow_beyond_max_fails () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [], [ Ast.I64Const 100L; Ast.MemoryGrow ]) ]
  in
  Alcotest.(check (list value)) "grow fails with -1" [ Values.I64 (-1L) ]
    (run_f0 m [])

let test_memory_fill_and_copy () =
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ (* fill [64, 96) with 0xAB *)
           Ast.I64Const 64L; Ast.I32Const 0xabl; Ast.I64Const 32L;
           Ast.MemoryFill;
           (* copy [64,96) to [200,232) *)
           Ast.I64Const 200L; Ast.I64Const 64L; Ast.I64Const 32L;
           Ast.MemoryCopy;
           Ast.I64Const 231L;
           Ast.Load (Types.I32, Some (Ast.Pack8, Ast.ZX), memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "fill+copy" [ Values.I32 0xabl ] (run_f0 m [])

let test_wasm32_memory_addressing () =
  let m =
    module_of ~memory:(Some mem32)
      [ (ft [] [ Types.I32 ], [],
         [ Ast.I32Const 16l; Ast.I32Const 99l;
           Ast.Store (Types.I32, None, memarg ());
           Ast.I32Const 16l; Ast.Load (Types.I32, None, memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "wasm32 store/load" [ Values.I32 99l ]
    (run_f0 m [])

let test_data_segment_applied () =
  let m =
    module_of
      ~datas:[ { Ast.d_offset = 8L; d_bytes = "hi" } ]
      [ (ft [] [ Types.I32 ], [],
         [ Ast.I64Const 8L;
           Ast.Load (Types.I32, Some (Ast.Pack8, Ast.ZX), memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "data segment" [ Values.I32 104l ]
    (run_f0 m [])

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let expect_invalid ?(cage = true) ~substring m =
  match Validate.validate ~cage m with
  | Ok () -> Alcotest.failf "expected validation error mentioning %S" substring
  | Error e ->
      if not (Astring.String.is_infix ~affix:substring e) then
        Alcotest.failf "error %S does not mention %S" e substring

let test_validate_type_mismatch () =
  expect_invalid ~substring:"type mismatch"
    (module_of
       [ (ft [] [ Types.I32 ], [],
          [ Ast.I64Const 0L ]) ])

let test_validate_stack_underflow () =
  expect_invalid ~substring:"underflow"
    (module_of [ (ft [] [ Types.I32 ], [], [ Ast.IBinop (Ast.W32, Ast.Add) ]) ])

let test_validate_bad_br_depth () =
  expect_invalid ~substring:"branch depth"
    (module_of [ (ft [] [], [], [ Ast.Br 3 ]) ])

let test_validate_leftover_values () =
  expect_invalid ~substring:"values left"
    (module_of
       [ (ft [] [], [], [ Ast.I32Const 0l ]) ])

let test_validate_immutable_global () =
  expect_invalid ~substring:"immutable"
    (module_of
       ~globals:
         [ { Ast.g_type = { Types.mut = false; g_type = Types.I32 };
             g_init = Values.I32 0l } ]
       [ (ft [] [], [], [ Ast.I32Const 1l; Ast.GlobalSet 0 ]) ])

let test_validate_local_oob () =
  expect_invalid ~substring:"local index"
    (module_of [ (ft [] [], [], [ Ast.LocalGet 3 ]) ])

(* Index lookups read the module's index arrays; every out-of-range
   index, negative ones included, is a verdict naming it. *)
let test_validate_index_out_of_range () =
  let one body = module_of [ (ft [] [], [], body) ] in
  let check msg m =
    match Validate.validate m with
    | Error e when e = "in function f0: " ^ msg -> ()
    | Error e -> Alcotest.failf "expected %S, got %S" msg e
    | Ok () -> Alcotest.failf "expected %S, module validated" msg
  in
  check "function index 1 out of range" (one [ Ast.Call 1 ]);
  check "function index -1 out of range" (one [ Ast.Call (-1) ]);
  check "type index 1 out of range"
    (module_of ~table:(Some { Types.tbl_limits = { Types.min = 1L; max = None } })
       [ (ft [] [], [], [ Ast.I32Const 0l; Ast.CallIndirect 1 ]) ]);
  check "global index 0 out of range" (one [ Ast.GlobalGet 0 ]);
  check "global index -2 out of range" (one [ Ast.GlobalGet (-2) ]);
  check "branch depth -1 out of range" (one [ Ast.Br (-1) ]);
  match Validate.validate { (one []) with Ast.start = Some 4 } with
  | Error "function index 4 out of range" -> ()
  | Error e -> Alcotest.failf "start: got %S" e
  | Ok () -> Alcotest.fail "start: module validated"

let test_validate_align_too_large () =
  expect_invalid ~substring:"alignment"
    (module_of
       [ (ft [] [ Types.I32 ], [],
          [ Ast.I64Const 0L;
            Ast.Load (Types.I32, None, { Ast.offset = 0L; align = 3 }) ]) ])

let test_validate_unreachable_polymorphism () =
  (* after unreachable, anything typechecks *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.Unreachable; Ast.IBinop (Ast.W64, Ast.Add); Ast.Drop;
           Ast.I32Const 0l ]) ]
  in
  match Validate.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unreachable polymorphism rejected: %s" e

let test_validate_cage_requires_feature () =
  expect_invalid ~cage:false ~substring:"cage feature"
    (module_of
       [ (ft [] [ Types.I64 ], [],
          [ Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentNew 0L ]) ])

let test_validate_cage_requires_memory64 () =
  expect_invalid ~substring:"memory64"
    (module_of ~memory:(Some mem32)
       [ (ft [] [ Types.I64 ], [],
          [ Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentNew 0L ]) ])

let test_validate_cage_typing () =
  (* Fig. 10 rules accept well-typed uses *)
  let m =
    module_of
      [ (ft [] [], [],
         [ Ast.I64Const 16L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           (* ptr on stack: set_tag of the same region *)
           Ast.I64Const 16L; Ast.LocalGet 0; Ast.I64Const 32L;
           Ast.SegmentSetTag 0L ]) ]
  in
  (* LocalGet 0 refers to a local we didn't declare: fix with a local *)
  let m =
    { m with
      Ast.funcs =
        List.map (fun f -> { f with Ast.locals = [ Types.I64 ] }) m.Ast.funcs
    }
  in
  (* adjust body: store segment.new result in the local *)
  let body =
    [ Ast.I64Const 16L; Ast.I64Const 32L; Ast.SegmentNew 0L; Ast.LocalSet 0;
      Ast.I64Const 16L; Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentSetTag 0L;
      Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L;
      Ast.I64Const 5L; Ast.PointerSign; Ast.PointerAuth; Ast.Drop ]
  in
  let m =
    { m with
      Ast.funcs = List.map (fun f -> { f with Ast.body }) m.Ast.funcs }
  in
  match Validate.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cage typing rejected: %s" e

let test_validate_pointer_sign_type () =
  expect_invalid ~substring:"type mismatch"
    (module_of
       [ (ft [] [ Types.I64 ], [], [ Ast.I32Const 0l; Ast.PointerSign ]) ])

let test_validate_segment_unaligned_offset () =
  expect_invalid ~substring:"granule aligned"
    (module_of
       [ (ft [] [ Types.I64 ], [],
          [ Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentNew 8L ]) ])

let test_validate_segment_negative_offset () =
  expect_invalid ~substring:"negative offset"
    (module_of
       [ (ft [] [], [],
          [ Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentFree (-16L) ]) ])

let test_validate_segment_no_tag_space () =
  (* zero minimum pages: no granules exist, every segment op would trap *)
  let mem0 =
    { Types.mem_idx = Types.Idx64;
      mem_limits = { Types.min = 0L; max = Some 16L } }
  in
  expect_invalid ~substring:"tag space"
    (module_of ~memory:(Some mem0)
       [ (ft [] [ Types.I64 ], [],
          [ Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentNew 0L ]) ])

let test_validate_segment_operand_types () =
  (* segment.new takes [i64 i64]; an i32 length must be rejected *)
  expect_invalid ~substring:"type mismatch"
    (module_of
       [ (ft [] [ Types.I64 ], [],
          [ Ast.I64Const 0L; Ast.I32Const 16l; Ast.SegmentNew 0L ]) ]);
  (* segment.set_tag takes [i64 i64 i64] *)
  expect_invalid ~substring:"type mismatch"
    (module_of
       [ (ft [] [], [],
          [ Ast.I32Const 0l; Ast.I64Const 0L; Ast.I64Const 32L;
            Ast.SegmentSetTag 0L ]) ]);
  (* segment.free takes [i64 i64] and pushes nothing *)
  expect_invalid ~substring:"type mismatch"
    (module_of
       [ (ft [] [], [],
          [ Ast.I64Const 0L; Ast.I32Const 32l; Ast.SegmentFree 0L ]) ])

let test_validate_segment_requires_memory () =
  expect_invalid ~substring:"memory"
    (module_of ~memory:None
       [ (ft [] [ Types.I64 ], [],
          [ Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentNew 0L ]) ])

(* ------------------------------------------------------------------ *)
(* Cage extension semantics                                            *)
(* ------------------------------------------------------------------ *)

(* f0: allocates a 32-byte segment at address 1024, stores 42 through the
   tagged pointer at [idx], loads it back. *)
let segment_rw_module idx =
  module_of
    [ (ft [] [ Types.I64 ], [ Types.I64 ],
       [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
         Ast.LocalSet 0;
         Ast.LocalGet 0; Ast.I64Const 42L;
         Ast.Store (Types.I64, None, memarg ~offset:idx ());
         Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ~offset:idx ()) ])
    ]

let test_segment_new_rw () =
  Alcotest.(check (list value)) "tagged rw" [ Values.I64 42L ]
    (run_f0 (segment_rw_module 0L) []);
  Alcotest.(check (list value)) "tagged rw at end" [ Values.I64 42L ]
    (run_f0 (segment_rw_module 24L) [])

let test_segment_overflow_traps () =
  (* store 8 bytes at offset 32: one past the segment end *)
  expect_trap ~substring:"tag fault" (fun () ->
      run_f0 (segment_rw_module 32L) [])

let test_segment_untagged_access_traps () =
  (* access the segment through the raw (untagged) address *)
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.I64Const 1024L; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  expect_trap ~substring:"tag fault" (fun () -> run_f0 m [])

let test_segment_new_zeroes () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ (* dirty the memory first *)
           Ast.I64Const 1024L; Ast.I64Const (-1L);
           Ast.Store (Types.I64, None, memarg ());
           Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "segment.new zeroes" [ Values.I64 0L ]
    (run_f0 m [])

let test_segment_free_catches_uaf () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L;
           Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  expect_trap ~substring:"tag fault" (fun () -> run_f0 m [])

let test_segment_double_free_traps () =
  let m =
    module_of
      [ (ft [] [], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L;
           Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L ]) ]
  in
  expect_trap ~substring:"double free" (fun () -> run_f0 m [])

let test_segment_unaligned_traps () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 1030L; Ast.I64Const 32L; Ast.SegmentNew 0L ]) ]
  in
  expect_trap ~substring:"aligned" (fun () -> run_f0 m [])

let test_segment_oob_traps () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 65520L; Ast.I64Const 64L; Ast.SegmentNew 0L ]) ]
  in
  expect_trap ~substring:"bounds" (fun () -> run_f0 m [])

let test_segment_set_tag_transfers () =
  (* create a segment, then set_tag an adjacent region to the same tag
     and access it through the tagged pointer *)
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 16L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.I64Const 1040L; Ast.LocalGet 0; Ast.I64Const 16L;
           Ast.SegmentSetTag 0L;
           Ast.LocalGet 0; Ast.I64Const 7L;
           Ast.Store (Types.I64, None, memarg ~offset:16L ());
           Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ~offset:16L ()) ])
      ]
  in
  Alcotest.(check (list value)) "merged segment" [ Values.I64 7L ]
    (run_f0 m [])

let test_segment_disabled_tags_ignored () =
  (* with enforce_tags = false (baseline wasm64), untagged access to a
     tagged segment is fine: the checks are off *)
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.I64Const 1024L; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  let config = { Instance.default_config with enforce_tags = false } in
  Alcotest.(check (list value)) "checks off" [ Values.I64 0L ]
    (run_f0 ~config m [])

(* ------------------------------------------------------------------ *)
(* Checked bulk memory operations (Eq. 1-4 coverage for fill/copy)     *)
(* ------------------------------------------------------------------ *)

(* Allocate a 32-byte segment at 1024, free it, then run [after] with
   the stale tagged pointer in local 0. *)
let freed_segment_module after =
  module_of
    [ (ft [] [], [ Types.I64 ],
       [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
         Ast.LocalSet 0;
         Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L ]
       @ after) ]

let async_config =
  { Instance.default_config with mte_mode = Arch.Mte.Async }

let asymm_config =
  { Instance.default_config with mte_mode = Arch.Mte.Asymmetric }

let test_fill_freed_segment_traps_sync () =
  let m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.I32Const 0xabl; Ast.I64Const 32L; Ast.MemoryFill ]
  in
  expect_trap ~substring:"tag fault" (fun () -> run_f0 m [])

let test_copy_freed_segment_traps_sync () =
  (* the freed segment is the copy *source*: the load side of
     memory.copy must be tag-checked too *)
  let m =
    freed_segment_module
      [ Ast.I64Const 64L; Ast.LocalGet 0; Ast.I64Const 32L; Ast.MemoryCopy ]
  in
  expect_trap ~substring:"tag fault" (fun () -> run_f0 m [])

let test_fill_freed_async_deferred_sticky () =
  (* Async: the fill proceeds, the mismatch latches in the sticky TFSR,
     and the trap is reported ("deferred ...") when the function
     returns. The later faulting load must not displace the first
     (store) fault. *)
  let m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.I32Const 0xabl; Ast.I64Const 32L; Ast.MemoryFill;
        Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()); Ast.Drop ]
  in
  match run_f0 ~config:async_config m [] with
  | _ -> Alcotest.fail "expected deferred trap at function return"
  | exception Instance.Trap msg ->
      Alcotest.(check bool) "reported at sync point" true
        (Astring.String.is_prefix ~affix:"deferred" msg);
      Alcotest.(check bool) "sticky first fault is the store" true
        (Astring.String.is_infix ~affix:"store" msg)

let test_asymmetric_fill_store_sync () =
  (* Asymmetric checks stores synchronously: the trap is immediate, not
     a "deferred" report *)
  let m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.I32Const 0xabl; Ast.I64Const 32L; Ast.MemoryFill ]
  in
  match run_f0 ~config:asymm_config m [] with
  | _ -> Alcotest.fail "expected synchronous trap"
  | exception Instance.Trap msg ->
      Alcotest.(check bool) "store side faults synchronously" false
        (Astring.String.is_prefix ~affix:"deferred" msg);
      Alcotest.(check bool) "is a tag fault" true
        (Astring.String.is_infix ~affix:"tag fault" msg)

let test_asymmetric_copy_load_async () =
  (* ... but loads asynchronously: copying *from* the freed segment
     defers to the function-return sync point *)
  let m =
    freed_segment_module
      [ Ast.I64Const 64L; Ast.LocalGet 0; Ast.I64Const 32L; Ast.MemoryCopy ]
  in
  match run_f0 ~config:asymm_config m [] with
  | _ -> Alcotest.fail "expected deferred trap at function return"
  | exception Instance.Trap msg ->
      Alcotest.(check bool) "load side defers to sync point" true
        (Astring.String.is_prefix ~affix:"deferred" msg)

let test_zero_length_bulk_at_boundary () =
  (* len = 0 at addr = memsize is legal (the boundary address is in
     bounds and no granule is touched); one byte past is not *)
  let page = 65536L in
  let ok =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.I64Const page; Ast.I32Const 0l; Ast.I64Const 0L;
           Ast.MemoryFill;
           Ast.I64Const page; Ast.I64Const page; Ast.I64Const 0L;
           Ast.MemoryCopy;
           Ast.I32Const 1l ]) ]
  in
  Alcotest.(check (list value)) "zero-length ops at boundary allowed"
    [ Values.I32 1l ] (run_f0 ok []);
  let oob =
    module_of
      [ (ft [] [], [],
         [ Ast.I64Const (Int64.add page 1L); Ast.I32Const 0l; Ast.I64Const 0L;
           Ast.MemoryFill ]) ]
  in
  expect_trap ~substring:"out of bounds" (fun () -> run_f0 oob [])

let test_memory_grow_zero_queries () =
  (* memory.grow 0 is the "query the size" idiom: must succeed and must
     not disturb memory contents (no realloc happens) *)
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [], [ Ast.I64Const 0L; Ast.MemoryGrow ]);
        (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 100L; Ast.I64Const 7L;
           Ast.Store (Types.I64, None, memarg ());
           Ast.I64Const 0L; Ast.MemoryGrow; Ast.Drop;
           Ast.I64Const 100L; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  let inst = Exec.instantiate m in
  Alcotest.(check (list value)) "grow 0 returns current size"
    [ Values.I64 1L ] (Exec.invoke inst "f0" []);
  Alcotest.(check (list value)) "contents preserved" [ Values.I64 7L ]
    (Exec.invoke inst "f1" [])

let test_instantiate_rejects_unvalidated () =
  (* bodies the engines used to run with dynamic-typing traps or a
     hard-trapping bad label are rejected before any instance exists,
     under either engine, and consume no instance id *)
  let bad =
    [ ("branch depth",
       [ Ast.Block
           (Ast.ValBlock None, [ Ast.I32Const 0l; Ast.BrTable ([ 5 ], 6) ]) ]);
      ("type mismatch",
       [ Ast.I32Const 1l; Ast.I64Const 2L; Ast.IBinop (Ast.W64, Ast.Add);
         Ast.Drop ]);
      ("underflow", [ Ast.Drop ]) ]
  in
  let id () = (Exec.instantiate (module_of [])).Instance.id in
  List.iter
    (fun engine ->
      List.iter
        (fun (substring, body) ->
          let before = id () in
          (match
             Exec.instantiate
               ~config:{ Instance.default_config with engine }
               (module_of [ (ft [] [], [], body) ])
           with
          | _ -> Alcotest.failf "instantiated an invalid module (%s)" substring
          | exception Validate.Invalid e ->
              if not (Astring.String.is_infix ~affix:substring e) then
                Alcotest.failf "rejection %S does not mention %S" e substring);
          Alcotest.(check int) "no instance id consumed" (before + 1) (id ()))
        bad)
    [ Instance.Interp; Instance.Threaded ]

(* A pack at least as wide as its type has no encoding in either
   format: [i32.load32_s], [i32.load32_u] and [i32.store32] must not
   validate, so [Binary.encode] never meets them. *)
let test_validate_wide_pack () =
  let ma = { Ast.offset = 0L; align = 2 } in
  List.iter
    (fun (name, body) ->
      match Validate.check (module_of [ (ft [] [], [], body) ]) with
      | () -> Alcotest.failf "%s validated" name
      | exception Validate.Invalid _ -> ())
    [ ("i32.load32_s",
       [ Ast.I64Const 0L; Ast.Load (Types.I32, Some (Ast.Pack32, Ast.SX), ma);
         Ast.Drop ]);
      ("i32.load32_u",
       [ Ast.I64Const 0L; Ast.Load (Types.I32, Some (Ast.Pack32, Ast.ZX), ma);
         Ast.Drop ]);
      ("i32.store32",
       [ Ast.I64Const 0L; Ast.I32Const 1l;
         Ast.Store (Types.I32, Some Ast.Pack32, ma) ]) ]

let test_duplicate_export_rejected () =
  (* two exports named [f0]: the core spec forbids it, and a lookup by
     name would silently find the first *)
  let m =
    let m = module_of [ (ft [] [], [], []); (ft [] [], [], []) ] in
    { m with
      exports =
        List.map
          (fun (ex : Ast.export) -> { ex with Ast.ex_name = "f0" })
          m.exports }
  in
  (match Validate.validate m with
  | Ok () -> Alcotest.fail "validated two exports named f0"
  | Error e ->
      Alcotest.(check string) "reason" "duplicate export name f0" e);
  let id () = (Exec.instantiate (module_of [])).Instance.id in
  let before = id () in
  (match Exec.instantiate m with
  | _ -> Alcotest.fail "instantiated two exports named f0"
  | exception Validate.Invalid _ -> ());
  Alcotest.(check int) "no instance id consumed" (before + 1) (id ())

let test_embedder_boundary_checked () =
  (* entry arguments and host results are the operands validation
     cannot vouch for: both are type-checked where they cross in *)
  let m =
    {
      (module_of [ (ft [] [], [], []) ]) with
      types = [ ft [ Types.I32 ] [ Types.I32 ]; ft [ Types.I32 ] [ Types.I32 ] ];
      imports = [ { Ast.im_module = "env"; im_name = "bad"; im_type = 0 } ];
      funcs =
        [ { Ast.ftype = 1; locals = [];
            body = [ Ast.LocalGet 0; Ast.Call 0 ]; fname = Some "f" } ];
      exports = [ { Ast.ex_name = "f0"; ex_desc = Ast.Func_export 1 } ];
    }
  in
  let bad _ _ = [ Values.I64 1L ] in
  List.iter
    (fun engine ->
      let config = { Instance.default_config with engine } in
      let inst = Exec.instantiate ~config ~imports:[ ("env", "bad", bad) ] m in
      expect_trap ~substring:"invoke f: expected [i32], got [i64]" (fun () ->
          Exec.invoke inst "f0" [ Values.I64 3L ]);
      expect_trap ~substring:"invoke f: expected [i32], got []" (fun () ->
          Exec.invoke inst "f0" []);
      expect_trap ~substring:"host env.bad: expected [i32], got [i64]"
        (fun () -> Exec.invoke inst "f0" [ Values.I32 3l ]))
    [ Instance.Interp; Instance.Threaded ]

let test_pointer_sign_auth_roundtrip () =
  let m =
    module_of
      [ (ft [ Types.I64 ] [ Types.I64 ], [],
         [ Ast.LocalGet 0; Ast.PointerSign; Ast.PointerAuth ]) ]
  in
  Alcotest.(check (list value)) "sign-auth" [ Values.I64 123456L ]
    (run_f0 m [ Values.I64 123456L ])

let test_pointer_auth_unsigned_traps () =
  let m =
    module_of
      [ (ft [ Types.I64 ] [ Types.I64 ], [],
         [ Ast.LocalGet 0; Ast.PointerAuth ]) ]
  in
  expect_trap ~substring:"invalid signature" (fun () ->
      run_f0 m [ Values.I64 99L ])

let test_signed_pointer_cannot_load () =
  (* a signed pointer carries non-canonical bits: dereference must trap *)
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ Ast.I64Const 128L; Ast.PointerSign; Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  (* The signature could be 0 by chance for this key; accept either a
     trap or, in that rare case, a successful load of 0. *)
  match run_f0 m [] with
  | [ Values.I64 0L ] -> ()
  | other ->
      Alcotest.failf "expected trap or [0], got %d values" (List.length other)
  | exception Instance.Trap msg ->
      Alcotest.(check bool)
        (Printf.sprintf "trap is about canonicality: %s" msg)
        true
        (Astring.String.is_infix ~affix:"non-canonical" msg)

let test_cross_instance_auth_fails () =
  (* sign in instance A, authenticate in instance B: different k_s *)
  let sign_m =
    module_of
      [ (ft [ Types.I64 ] [ Types.I64 ], [], [ Ast.LocalGet 0; Ast.PointerSign ]) ]
  in
  let auth_m =
    module_of
      [ (ft [ Types.I64 ] [ Types.I64 ], [], [ Ast.LocalGet 0; Ast.PointerAuth ]) ]
  in
  let a = Exec.instantiate sign_m in
  let b = Exec.instantiate auth_m in
  match Exec.invoke a "f0" [ Values.I64 400L ] with
  | [ Values.I64 signed ] -> (
      match Exec.invoke b "f0" [ Values.I64 signed ] with
      | _ -> Alcotest.fail "cross-instance signature accepted"
      | exception Instance.Trap _ -> ())
  | _ -> Alcotest.fail "sign produced nothing"

let test_meter_counts () =
  let meter = Meter.create () in
  let config = { Instance.default_config with meter = Some meter } in
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 0L; Ast.I64Const 1L;
           Ast.Store (Types.I64, None, memarg ());
           Ast.I64Const 0L; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  ignore (run_f0 ~config m []);
  Alcotest.(check int) "1 load" 1 meter.Meter.loads;
  Alcotest.(check int) "1 store" 1 meter.Meter.stores;
  Alcotest.(check int) "8 bytes loaded" 8 meter.Meter.load_bytes;
  Alcotest.(check int) "constants" 3 meter.Meter.const

(* ------------------------------------------------------------------ *)
(* Numeric edge cases                                                  *)
(* ------------------------------------------------------------------ *)

let run1 body =
  match run_f0 (module_of [ (ft [] [ Types.I64 ], [], body) ]) [] with
  | [ v ] -> v
  | _ -> Alcotest.fail "expected one result"

let run1_i32 body =
  match run_f0 (module_of [ (ft [] [ Types.I32 ], [], body) ]) [] with
  | [ v ] -> v
  | _ -> Alcotest.fail "expected one result"

let test_bitcount_ops () =
  let check name expect body =
    Alcotest.(check value) name (Values.I64 expect) (run1 body)
  in
  check "clz64 of 1" 63L [ Ast.I64Const 1L; Ast.IUnop (Ast.W64, Ast.Clz) ];
  check "clz64 of 0" 64L [ Ast.I64Const 0L; Ast.IUnop (Ast.W64, Ast.Clz) ];
  check "ctz64 of 0x8000" 15L
    [ Ast.I64Const 0x8000L; Ast.IUnop (Ast.W64, Ast.Ctz) ];
  check "popcnt64 of -1" 64L
    [ Ast.I64Const (-1L); Ast.IUnop (Ast.W64, Ast.Popcnt) ];
  Alcotest.(check value) "clz32 of 0x80000000" (Values.I32 0l)
    (run1_i32 [ Ast.I32Const 0x80000000l; Ast.IUnop (Ast.W32, Ast.Clz) ])

let test_rotates () =
  Alcotest.(check value) "rotl64" (Values.I64 0x00000000000000FFL)
    (run1
       [ Ast.I64Const 0xFF00000000000000L; Ast.I64Const 8L;
         Ast.IBinop (Ast.W64, Ast.Rotl) ]);
  Alcotest.(check value) "rotr32 wraps count" (Values.I32 0x80000000l)
    (run1_i32
       [ Ast.I32Const 1l; Ast.I32Const 33l; Ast.IBinop (Ast.W32, Ast.Rotr) ])

let test_div_rem_signs () =
  let bin op x y =
    run1 [ Ast.I64Const x; Ast.I64Const y; Ast.IBinop (Ast.W64, op) ]
  in
  Alcotest.(check value) "divs trunc toward zero" (Values.I64 (-3L))
    (bin Ast.DivS (-7L) 2L);
  Alcotest.(check value) "rems sign follows dividend" (Values.I64 (-1L))
    (bin Ast.RemS (-7L) 2L);
  Alcotest.(check value) "divu treats as unsigned" (Values.I64 0L)
    (bin Ast.DivU (-7L) 100L |> fun v -> ignore v; bin Ast.DivU 7L 100L);
  Alcotest.(check value) "min_int rem -1 is 0" (Values.I64 0L)
    (bin Ast.RemS Int64.min_int (-1L))

let test_trunc_traps () =
  expect_trap ~substring:"invalid conversion" (fun () ->
      run_f0
        (module_of
           [ (ft [] [ Types.I32 ], [],
              [ Ast.F64Const Float.nan; Ast.Cvtop Ast.I32TruncF64S ]) ])
        []);
  expect_trap ~substring:"integer overflow" (fun () ->
      run_f0
        (module_of
           [ (ft [] [ Types.I32 ], [],
              [ Ast.F64Const 3.0e9; Ast.Cvtop Ast.I32TruncF64S ]) ])
        []);
  (* in range: fine *)
  Alcotest.(check value) "trunc -2.9 to -2" (Values.I32 (-2l))
    (run1_i32 [ Ast.F64Const (-2.9); Ast.Cvtop Ast.I32TruncF64S ])

let test_unsigned_conversions () =
  Alcotest.(check value) "u32 to f64" (Values.F64 4294967295.0)
    (match
       run_f0
         (module_of
            [ (ft [] [ Types.F64 ], [],
               [ Ast.I32Const (-1l); Ast.Cvtop Ast.F64ConvertI32U ]) ])
         []
     with
    | [ v ] -> v
    | _ -> Alcotest.fail "one result");
  Alcotest.(check value) "extend_i32_u" (Values.I64 0xffffffffL)
    (run1 [ Ast.I32Const (-1l); Ast.Cvtop Ast.I64ExtendI32U ])

let test_reinterpret_roundtrip () =
  Alcotest.(check value) "f64 bits roundtrip" (Values.F64 (-0.5))
    (match
       run_f0
         (module_of
            [ (ft [] [ Types.F64 ], [],
               [ Ast.F64Const (-0.5); Ast.Cvtop Ast.I64ReinterpretF64;
                 Ast.Cvtop Ast.F64ReinterpretI64 ]) ])
         []
     with
    | [ v ] -> v
    | _ -> Alcotest.fail "one result")

let test_f32_rounding_visible () =
  (* 0.1 is not representable: f32 and f64 views differ *)
  Alcotest.(check value) "demote rounds" (Values.I32 1l)
    (run1_i32
       [ Ast.F64Const 0.1; Ast.Cvtop Ast.F32DemoteF64;
         Ast.Cvtop Ast.F64PromoteF32; Ast.F64Const 0.1;
         Ast.FRelop (Ast.W64, Ast.FNe) ])

let test_br_table_negative_index () =
  (* a negative i32 selector is a huge unsigned value: default target *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.Block
             (Ast.ValBlock None,
              [ Ast.Block
                  (Ast.ValBlock None,
                   [ Ast.I32Const (-5l); Ast.BrTable ([ 0 ], 1) ]);
                Ast.I32Const 10l; Ast.Return ]);
           Ast.I32Const 20l ]) ]
  in
  Alcotest.(check (list value)) "negative -> default" [ Values.I32 20l ]
    (run_f0 m [])

let test_packed_store_truncates () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 0L; Ast.I64Const 0x1234567890L;
           Ast.Store (Types.I64, Some Ast.Pack16, memarg ());
           Ast.I64Const 0L;
           Ast.Load (Types.I64, Some (Ast.Pack16, Ast.ZX), memarg ()) ]) ]
  in
  Alcotest.(check (list value)) "store16 keeps low bits" [ Values.I64 0x7890L ]
    (run_f0 m [])

let test_fmin_nan_propagates () =
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [],
         [ Ast.F64Const Float.nan; Ast.F64Const 1.0;
           Ast.FBinop (Ast.W64, Ast.FMin);
           (* NaN != NaN *)
           Ast.F64Const 0.0; Ast.FRelop (Ast.W64, Ast.FEq);
           Ast.ITestop Ast.W32 ]) ]
  in
  Alcotest.(check (list value)) "fmin(nan, 1) is nan" [ Values.I32 1l ]
    (run_f0 m [])

(* ------------------------------------------------------------------ *)
(* Differential property tests                                         *)
(* ------------------------------------------------------------------ *)

let arith_op_gen =
  QCheck.Gen.oneofl
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.And; Ast.Or; Ast.Xor; Ast.Shl;
      Ast.ShrS; Ast.ShrU; Ast.Rotl; Ast.Rotr ]

let prop_i64_binop_matches_ocaml =
  QCheck.Test.make ~name:"wasm i64 binop agrees with direct evaluation"
    ~count:300
    QCheck.(
      triple (make arith_op_gen) int64 int64)
    (fun (op, x, y) ->
      let m =
        module_of
          [ (ft [] [ Types.I64 ], [],
             [ Ast.I64Const x; Ast.I64Const y; Ast.IBinop (Ast.W64, op) ]) ]
      in
      let expect =
        match op with
        | Ast.Add -> Int64.add x y
        | Ast.Sub -> Int64.sub x y
        | Ast.Mul -> Int64.mul x y
        | Ast.And -> Int64.logand x y
        | Ast.Or -> Int64.logor x y
        | Ast.Xor -> Int64.logxor x y
        | Ast.Shl -> Int64.shift_left x (Int64.to_int (Int64.logand y 63L))
        | Ast.ShrS -> Int64.shift_right x (Int64.to_int (Int64.logand y 63L))
        | Ast.ShrU ->
            Int64.shift_right_logical x (Int64.to_int (Int64.logand y 63L))
        | Ast.Rotl -> Values.rotl64 x y
        | Ast.Rotr -> Values.rotr64 x y
        | _ -> assert false
      in
      match run_f0 m [] with
      | [ Values.I64 got ] -> Int64.equal got expect
      | _ -> false)

let prop_store_load_identity =
  QCheck.Test.make ~name:"store/load roundtrips any i64 at any granule"
    ~count:300
    QCheck.(pair int64 (int_bound 4000))
    (fun (v, slot) ->
      let addr = Int64.of_int (slot * 8) in
      let m =
        module_of
          [ (ft [] [ Types.I64 ], [],
             [ Ast.I64Const addr; Ast.I64Const v;
               Ast.Store (Types.I64, None, memarg ());
               Ast.I64Const addr; Ast.Load (Types.I64, None, memarg ()) ]) ]
      in
      match run_f0 m [] with
      | [ Values.I64 got ] -> Int64.equal got v
      | _ -> false)

let prop_segment_lifecycle =
  QCheck.Test.make
    ~name:"segment new/store/load/free lifecycle at random granules"
    ~count:200
    QCheck.(pair (int_bound 100) (int_bound 30))
    (fun (granule, glen) ->
      let addr = Int64.of_int (1024 + (granule * 16)) in
      let len = Int64.of_int ((glen + 1) * 16) in
      let m =
        module_of
          [ (ft [] [ Types.I64 ], [ Types.I64 ],
             [ Ast.I64Const addr; Ast.I64Const len; Ast.SegmentNew 0L;
               Ast.LocalSet 0;
               Ast.LocalGet 0; Ast.I64Const 7L;
               Ast.Store (Types.I64, None, memarg ());
               Ast.LocalGet 0; Ast.I64Const len; Ast.SegmentFree 0L;
               Ast.I64Const 1L ]) ]
      in
      match run_f0 m [] with
      | [ Values.I64 1L ] -> true
      | _ -> false)

(* Robustness: random instruction soups that pass validation must never
   crash the interpreter with anything but a clean Trap. *)
let random_instr rng : Ast.instr =
  let int_ops =
    [| Ast.Add; Ast.Sub; Ast.Mul; Ast.DivS; Ast.DivU; Ast.RemS; Ast.RemU;
       Ast.And; Ast.Or; Ast.Xor; Ast.Shl; Ast.ShrS; Ast.ShrU; Ast.Rotl;
       Ast.Rotr |]
  in
  match Random.State.int rng 12 with
  | 0 -> Ast.I64Const (Random.State.int64 rng 1000L)
  | 1 -> Ast.LocalGet 0
  | 2 -> Ast.LocalTee 0
  | 3 -> Ast.IBinop (Ast.W64, int_ops.(Random.State.int rng 15))
  | 4 -> Ast.IUnop (Ast.W64, Ast.Popcnt)
  | 5 ->
      Ast.Load (Types.I64, None,
                { Ast.offset = Int64.of_int (Random.State.int rng 200000);
                  align = 0 })
  | 6 -> Ast.Cvtop Ast.I32WrapI64
  | 7 -> Ast.Cvtop Ast.I64ExtendI32S
  | 8 -> Ast.ITestop Ast.W64
  | 9 -> Ast.IUnop (Ast.W64, Ast.Clz)
  | 10 -> Ast.I64Const 16L
  | _ -> Ast.PointerSign

let prop_validated_soup_never_crashes =
  QCheck.Test.make
    ~name:"validated instruction soups trap cleanly or return" ~count:300
    QCheck.(pair small_int (int_bound 40))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed |] in
      let body = List.init (max 1 len) (fun _ -> random_instr rng) in
      (* normalise the stack: drop everything, then push a result *)
      let body =
        [ Ast.I64Const 0L; Ast.LocalSet 0 ]
        @ List.concat_map
            (fun i ->
              (* keep the stack balanced: save intermediate into local 0 *)
              match i with
              | Ast.IBinop _ ->
                  [ Ast.LocalGet 0; Ast.LocalGet 0; i; Ast.LocalSet 0 ]
              | Ast.IUnop _ | Ast.Load _ | Ast.PointerSign ->
                  [ Ast.LocalGet 0; i; Ast.LocalSet 0 ]
              | Ast.ITestop _ ->
                  [ Ast.LocalGet 0; i; Ast.Cvtop Ast.I64ExtendI32S;
                    Ast.LocalSet 0 ]
              | Ast.Cvtop Ast.I32WrapI64 ->
                  [ Ast.LocalGet 0; i; Ast.Cvtop Ast.I64ExtendI32S;
                    Ast.LocalSet 0 ]
              | Ast.Cvtop _ -> []
              | Ast.LocalGet _ | Ast.LocalTee _ -> []
              | i -> [ i; Ast.LocalSet 0 ])
            body
        @ [ Ast.LocalGet 0 ]
      in
      let m = module_of [ (ft [] [ Types.I64 ], [ Types.I64 ], body) ] in
      match Validate.validate m with
      | Error _ -> true (* only validated modules are in scope *)
      | Ok () -> (
          match Exec.invoke (Exec.instantiate m) "f0" [] with
          | _ -> true
          | exception Instance.Trap _ -> true
          | exception _ -> false))

let test_grow_then_segment_in_new_region () =
  (* memory.grow must extend the tag space so segments work in the
     fresh pages *)
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ Ast.I64Const 2L; Ast.MemoryGrow; Ast.Drop;
           (* a segment in the second page, beyond the original 64 KiB *)
           Ast.I64Const 70000L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.I64Const 9L;
           Ast.Store (Types.I64, None, memarg ());
           Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()) ]) ]
  in
  (* 70000 is not 16-aligned: use 70016 *)
  let m =
    match m.Ast.funcs with
    | [ f ] ->
        { m with
          Ast.funcs =
            [ { f with
                Ast.body =
                  List.map
                    (function
                      | Ast.I64Const 70000L -> Ast.I64Const 70016L
                      | i -> i)
                    f.Ast.body } ] }
    | _ -> m
  in
  Alcotest.(check (list value)) "segment in grown region" [ Values.I64 9L ]
    (run_f0 m [])

let test_meter_total_consistency () =
  let meter = Meter.create () in
  let config = { Instance.default_config with meter = Some meter } in
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 5L; Ast.I64Const 6L; Ast.IBinop (Ast.W64, Ast.Add) ])
      ]
  in
  ignore (run_f0 ~config m []);
  Alcotest.(check int) "total = consts + alu" 3 (Meter.total meter)

(* ------------------------------------------------------------------ *)
(* Dirty-chunk snapshot restore                                         *)
(* ------------------------------------------------------------------ *)

let chunk = 4096

(* The threaded engine's raw store of an integer, on a committed
   address: the write, then the chunk's dirty mark. *)
let store_raw kind m a v =
  let stk = [| 0.0 |] in
  Compile.seti stk 0 v;
  Compile.do_store kind m a stk 0

let restored_exactly name m s =
  Alcotest.(check bool) name true
    (String.equal (Memory.to_string m) (Memory.snapshot_to_string s))

let test_dirty_restore_copies_touched_chunks () =
  let m = Memory.create { mem64 with Types.mem_limits = { Types.min = 2L; max = Some 4L } } in
  (* commits the whole memory: [length_bytes] below is its full size *)
  Memory.fill m ~addr:0L ~len:(Memory.size_bytes m) 0x5a;
  let s = Memory.snapshot m in
  Alcotest.(check int) "nothing written: nothing copied" 0 (Memory.restore m s);
  (* an 8-byte store straddling chunks 2/3 marks chunk 2 only; the
     spill tail brings chunk 3's first bytes back too *)
  store_raw Compile.Sk_i64 m ((3 * chunk) - 3) (-1);
  Alcotest.(check int) "one chunk plus the spill" (chunk + 7) (Memory.restore m s);
  restored_exactly "straddling store undone" m s;
  Memory.store_n m (Int64.of_int ((6 * chunk) - 1)) 2 0xbeefL;
  Memory.store_byte m 0L 1;
  Alcotest.(check int) "two separate runs" (2 * (chunk + 7)) (Memory.restore m s);
  restored_exactly "packed stores undone" m s;
  (* bulk writes mark every chunk they cover *)
  Memory.fill m ~addr:(Int64.of_int (chunk + 10)) ~len:(Int64.of_int (2 * chunk)) 0;
  Memory.copy m ~dst:(Int64.of_int (20 * chunk)) ~src:0L ~len:5L;
  Memory.write_string m ~addr:(Int64.of_int ((16 * chunk) - 2)) "abcd";
  ignore (Memory.restore m s);
  restored_exactly "fill/copy/write_string undone" m s;
  (* a store that traps never reaches the map *)
  (match Memory.store_i64 m (Int64.sub (Memory.size_bytes m) 4L) 7L with
  | () -> Alcotest.fail "store past the end succeeded"
  | exception Memory.Out_of_bounds _ -> ());
  (match store_raw Compile.Sk_i32 m (Memory.length_bytes m - 2) 7 with
  | () -> Alcotest.fail "raw store past the end succeeded"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "a trapped store marks nothing" 0 (Memory.restore m s);
  (* the last chunk's spill is clamped to the buffer *)
  store_raw (Compile.Sk_pack 1) m (Memory.length_bytes m - 1) 0;
  Alcotest.(check int) "last chunk clamped" chunk (Memory.restore m s);
  restored_exactly "last byte undone" m s

let test_restore_fallback_full_copy () =
  let mt = { mem64 with Types.mem_limits = { Types.min = 1L; max = Some 4L } } in
  let m = Memory.create mt and other = Memory.create mt in
  Memory.store_i64 other 64L 42L;
  let s = Memory.snapshot m and foreign = Memory.snapshot other in
  let full = Memory.snapshot_bytes s in
  Alcotest.(check int) "an image from another memory is a full copy" full
    (Memory.restore m foreign);
  restored_exactly "foreign image restored" m foreign;
  Alcotest.(check int) "which then becomes the base" 0 (Memory.restore m foreign);
  Alcotest.(check int) "switching back is a full copy again" full (Memory.restore m s);
  restored_exactly "own image restored" m s;
  Alcotest.(check int64) "grow" 1L (Memory.grow m 2L);
  (* a raw store needs a committed address *)
  Alcotest.(check bool) "grown pages commit" true (Memory.reach m 100_001);
  store_raw (Compile.Sk_pack 1) m 100_000 1;
  Alcotest.(check int) "after grow: full copy" full (Memory.restore m s);
  restored_exactly "grown memory shrinks back to the image" m s;
  Alcotest.(check int64) "size restored" 1L (Memory.size_pages m);
  Alcotest.(check int) "and the dirty path resumes" 0 (Memory.restore m s)

(* ------------------------------------------------------------------ *)
(* Commit on first touch                                                *)
(* ------------------------------------------------------------------ *)

let commit_floor = 0x10000

let test_instantiate_commits_data () =
  let committed datas =
    let memory =
      Some { mem64 with Types.mem_limits = { Types.min = 80L; max = None } }
    in
    Memory.length_bytes
      (Instance.memory (Exec.instantiate (module_of ~memory ~datas [])))
  in
  let seg d_offset d_bytes = { Ast.d_offset; d_bytes } in
  Alcotest.(check int) "no data segment: nothing" 0 (committed []);
  Alcotest.(check int) "a low segment: the 64 KiB floor" commit_floor
    (committed [ seg 1024L "hello" ]);
  Alcotest.(check int) "a high segment: through its last 4 KiB chunk"
    (74 * chunk)
    (committed [ seg 300_000L (String.make 16 'x'); seg 64L "y" ])

let test_bulk_across_prefix_end () =
  let m =
    Memory.create { mem64 with Types.mem_limits = { Types.min = 4L; max = None } }
  in
  Alcotest.(check int) "created: nothing committed" 0 (Memory.length_bytes m);
  Memory.store_byte m 0L 1;
  Alcotest.(check int) "first touch: the floor" commit_floor
    (Memory.length_bytes m);
  Memory.fill m ~addr:(Int64.of_int (commit_floor - 8)) ~len:16L 0xab;
  Alcotest.(check int) "a fill across the end: doubled" (2 * commit_floor)
    (Memory.length_bytes m);
  Memory.copy m ~dst:(Int64.of_int (commit_floor - 4))
    ~src:(Int64.of_int (3 * commit_floor)) ~len:8L;
  Alcotest.(check int) "a copy from the tail commits it too" (4 * commit_floor)
    (Memory.length_bytes m);
  Alcotest.(check int64) "fill landed, copy brought the tail's zeros"
    0x0000_0000_abab_ababL
    (Memory.load_n m (Int64.of_int (commit_floor - 8)) 8);
  Alcotest.(check int64) "the fill's end survived" 0xabab_abab_0000_0000L
    (Memory.load_n m (Int64.of_int commit_floor) 8);
  Alcotest.(check bool) "reach past the end fails" false
    (Memory.reach m ((4 * commit_floor) + 1));
  Alcotest.(check int) "full size as a string" (4 * commit_floor)
    (String.length (Memory.to_string m))

let test_grow_commits_nothing () =
  let m =
    Memory.create { mem64 with Types.mem_limits = { Types.min = 1L; max = None } }
  in
  Memory.store_byte m 10L 7;
  Alcotest.(check int64) "grow" 1L (Memory.grow m 99L);
  Alcotest.(check int) "still the floor" commit_floor (Memory.length_bytes m);
  Alcotest.(check int64) "size" (Int64.mul 100L Memory.page_size)
    (Memory.size_bytes m);
  Alcotest.(check int) "old contents kept" 7 (Memory.load_byte m 10L);
  Alcotest.(check int) "a new page reads zero" 0
    (Memory.load_byte m 6_000_000L)

(* An empty span is in bounds up to and including the memory's end,
   wherever the committed prefix stops: every entry point accepts it. *)
let test_empty_spans_past_prefix () =
  let memory =
    Some { mem64 with Types.mem_limits = { Types.min = 4L; max = None } }
  in
  let inst =
    Exec.instantiate
      (module_of ~memory ~datas:[ { Ast.d_offset = 100L; d_bytes = "" } ] [])
  in
  let m = Instance.memory inst in
  Alcotest.(check bool) "an empty data segment instantiates" true
    (Memory.length_bytes m <= commit_floor);
  let past = Int64.of_int (2 * commit_floor) and end_ = Memory.size_bytes m in
  List.iter
    (fun addr ->
      Memory.write_string m ~addr "";
      Alcotest.(check string) "empty read" "" (Memory.read_string m ~addr ~len:0);
      Memory.fill m ~addr ~len:0L 0xff;
      Memory.copy m ~dst:addr ~src:0L ~len:0L;
      Memory.copy m ~dst:0L ~src:addr ~len:0L)
    [ past; end_ ];
  Alcotest.(check string) "and writes nothing"
    (String.make (Int64.to_int end_) '\000')
    (Memory.to_string m);
  Alcotest.check_raises "one past the end is still out of bounds"
    (Memory.Out_of_bounds (Int64.succ end_, 0))
    (fun () -> Memory.write_string m ~addr:(Int64.succ end_) "")

let test_tag_restore_dirty_runs () =
  let tm = Arch.Tag_memory.create ~size_bytes:(16 * chunk) in
  let s = Arch.Tag_memory.snapshot tm in
  let tagged addr len t =
    match Arch.Tag_memory.set_region tm ~addr ~len (Arch.Tag.of_int t) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  let same () =
    Alcotest.(check bool) "tags restored" true
      (String.equal (Arch.Tag_memory.to_string tm)
         (Arch.Tag_memory.snapshot_to_string s))
  in
  Alcotest.(check int) "clean: nothing copied" 0 (Arch.Tag_memory.restore tm s);
  (* one chunk's tags are 256 granules = 128 bytes of tag storage *)
  tagged (Int64.of_int ((2 * chunk) - 32)) 64L 5;
  Alcotest.(check int) "a region across a chunk edge marks both" 256
    (Arch.Tag_memory.restore tm s);
  same ();
  (match Arch.Tag_memory.set_region tm ~addr:8L ~len:16L (Arch.Tag.of_int 1) with
  | Ok () -> Alcotest.fail "misaligned retag accepted"
  | Error _ -> ());
  Alcotest.(check int) "a rejected retag marks nothing" 0
    (Arch.Tag_memory.restore tm s);
  ignore (Arch.Tag_memory.grow tm ~new_size_bytes:(32 * chunk));
  Alcotest.(check int) "after grow: full copy" (Arch.Tag_memory.snapshot_bytes s)
    (Arch.Tag_memory.restore tm s);
  same ()

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_i64_binop_matches_ocaml; prop_store_load_identity;
      prop_segment_lifecycle; prop_validated_soup_never_crashes ]

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "wasm"
    [
      ( "semantics",
        [
          tc "i32 arith" test_i32_arith;
          tc "div by zero traps" test_div_by_zero_traps;
          tc "div overflow traps" test_div_overflow_traps;
          tc "unreachable traps" test_unreachable_traps;
          tc "block br" test_block_br;
          tc "loop countdown" test_loop_countdown;
          tc "nested br depth" test_nested_br_depth;
          tc "br_table" test_br_table;
          tc "if/else" test_if_else;
          tc "select" test_select;
          tc "globals" test_globals;
          tc "call" test_call;
          tc "host import" test_host_import;
          tc "call_indirect" test_call_indirect;
          tc "call_indirect type mismatch" test_call_indirect_type_mismatch;
          tc "call_indirect oob" test_call_indirect_oob;
          tc "call_indirect null" test_call_indirect_null;
          tc "recursion exhausts" test_recursion_exhausts;
        ] );
      ( "memory",
        [
          tc "store/load roundtrip" test_store_load_roundtrip;
          tc "offset folding" test_load_offset_folding;
          tc "packed sign extension" test_packed_sign_extension;
          tc "oob load traps" test_oob_load_traps;
          tc "oob store at edge" test_oob_store_edge;
          tc "grow/size" test_memory_grow_size;
          tc "grow beyond max fails" test_memory_grow_beyond_max_fails;
          tc "fill and copy" test_memory_fill_and_copy;
          tc "wasm32 addressing" test_wasm32_memory_addressing;
          tc "data segments" test_data_segment_applied;
        ] );
      ( "numeric-edges",
        [
          tc "bit counts" test_bitcount_ops;
          tc "rotates" test_rotates;
          tc "div/rem signs" test_div_rem_signs;
          tc "trunc traps" test_trunc_traps;
          tc "unsigned conversions" test_unsigned_conversions;
          tc "reinterpret roundtrip" test_reinterpret_roundtrip;
          tc "f32 rounding" test_f32_rounding_visible;
          tc "br_table negative" test_br_table_negative_index;
          tc "packed store truncates" test_packed_store_truncates;
          tc "fmin nan" test_fmin_nan_propagates;
        ] );
      ( "validation",
        [
          tc "type mismatch" test_validate_type_mismatch;
          tc "stack underflow" test_validate_stack_underflow;
          tc "bad br depth" test_validate_bad_br_depth;
          tc "leftover values" test_validate_leftover_values;
          tc "immutable global" test_validate_immutable_global;
          tc "local oob" test_validate_local_oob;
          tc "index out of range" test_validate_index_out_of_range;
          tc "align too large" test_validate_align_too_large;
          tc "unreachable polymorphism" test_validate_unreachable_polymorphism;
          tc "cage requires feature" test_validate_cage_requires_feature;
          tc "cage requires memory64" test_validate_cage_requires_memory64;
          tc "cage typing accepts" test_validate_cage_typing;
          tc "pointer_sign wants i64" test_validate_pointer_sign_type;
          tc "segment unaligned offset" test_validate_segment_unaligned_offset;
          tc "segment negative offset" test_validate_segment_negative_offset;
          tc "segment no tag space" test_validate_segment_no_tag_space;
          tc "segment operand types" test_validate_segment_operand_types;
          tc "segment requires memory" test_validate_segment_requires_memory;
          tc "instantiate rejects unvalidated"
            test_instantiate_rejects_unvalidated;
          tc "duplicate export names rejected" test_duplicate_export_rejected;
          tc "pack as wide as its type" test_validate_wide_pack;
          tc "embedder boundary checked" test_embedder_boundary_checked;
        ] );
      ( "cage-extension",
        [
          tc "segment.new rw" test_segment_new_rw;
          tc "segment overflow traps" test_segment_overflow_traps;
          tc "untagged access traps" test_segment_untagged_access_traps;
          tc "segment.new zeroes" test_segment_new_zeroes;
          tc "use-after-free traps" test_segment_free_catches_uaf;
          tc "double free traps" test_segment_double_free_traps;
          tc "unaligned traps" test_segment_unaligned_traps;
          tc "oob segment traps" test_segment_oob_traps;
          tc "set_tag transfers" test_segment_set_tag_transfers;
          tc "checks off for baseline" test_segment_disabled_tags_ignored;
          tc "sign/auth roundtrip" test_pointer_sign_auth_roundtrip;
          tc "auth unsigned traps" test_pointer_auth_unsigned_traps;
          tc "signed ptr cannot load" test_signed_pointer_cannot_load;
          tc "cross-instance auth fails" test_cross_instance_auth_fails;
          tc "meter counts" test_meter_counts;
          tc "grow then segment" test_grow_then_segment_in_new_region;
          tc "meter total consistency" test_meter_total_consistency;
        ] );
      ( "checked-bulk",
        [
          tc "fill over freed segment traps (sync)"
            test_fill_freed_segment_traps_sync;
          tc "copy from freed segment traps (sync)"
            test_copy_freed_segment_traps_sync;
          tc "fill over freed segment defers sticky (async)"
            test_fill_freed_async_deferred_sticky;
          tc "asymmetric: store side faults sync"
            test_asymmetric_fill_store_sync;
          tc "asymmetric: load side defers"
            test_asymmetric_copy_load_async;
          tc "zero-length fill/copy at boundary"
            test_zero_length_bulk_at_boundary;
          tc "memory.grow 0 queries" test_memory_grow_zero_queries;
        ] );
      ( "snapshot",
        [
          tc "dirty restore copies touched chunks"
            test_dirty_restore_copies_touched_chunks;
          tc "foreign or resized image: full copy" test_restore_fallback_full_copy;
          tc "tag plane dirty runs" test_tag_restore_dirty_runs;
        ] );
      ( "commit",
        [
          tc "instantiation commits its data segments"
            test_instantiate_commits_data;
          tc "fill/copy across the prefix end" test_bulk_across_prefix_end;
          tc "grow commits nothing" test_grow_commits_nothing;
          tc "empty spans past the prefix" test_empty_spans_past_prefix;
        ] );
      ("wasm-properties", qtests);
    ]
