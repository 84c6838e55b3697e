(* Tests for the wasm binary encoder/decoder (including the Cage opcode
   prefix) and the text printer. *)

open Wasm

let tc name f = Alcotest.test_case name `Quick f

(* function names are not preserved by the binary format *)
let strip_names (m : Ast.module_) =
  { m with Ast.funcs = List.map (fun f -> { f with Ast.fname = None }) m.funcs }

let roundtrip m = Binary.decode (Binary.encode m)

let check_roundtrip name m =
  let m' = roundtrip m in
  if strip_names m <> m' then Alcotest.failf "%s: roundtrip mismatch" name

let ft params results = { Types.params; results }

let mem64 =
  { Types.mem_idx = Types.Idx64;
    mem_limits = { Types.min = 1L; max = Some 16L } }

let simple_module body =
  {
    Ast.empty_module with
    types = [ ft [] [ Types.I64 ] ];
    funcs = [ { Ast.ftype = 0; locals = [ Types.I64 ]; body; fname = None } ];
    memory = Some mem64;
    exports = [ { Ast.ex_name = "f"; ex_desc = Ast.Func_export 0 } ];
  }

let test_roundtrip_minimal () =
  check_roundtrip "minimal" (simple_module [ Ast.I64Const 42L ])

let test_roundtrip_control_flow () =
  check_roundtrip "control flow"
    (simple_module
       [
         Ast.Block
           (Ast.ValBlock (Some Types.I64),
            [
              Ast.I32Const 1l;
              Ast.If
                (Ast.ValBlock (Some Types.I64),
                 [ Ast.I64Const 1L ],
                 [
                   Ast.Loop
                     (Ast.ValBlock None,
                      [ Ast.I32Const 0l; Ast.BrIf 0 ]);
                   Ast.I64Const 2L;
                 ]);
              Ast.Br 0;
            ]);
       ])

let test_roundtrip_br_table () =
  check_roundtrip "br_table"
    (simple_module
       [
         Ast.Block
           (Ast.ValBlock None,
            [ Ast.I32Const 2l; Ast.BrTable ([ 0; 0 ], 0) ]);
         Ast.I64Const 9L;
       ])

let test_roundtrip_memory_ops () =
  check_roundtrip "memory ops"
    (simple_module
       [
         Ast.I64Const 8L;
         Ast.I64Const (-1L);
         Ast.Store (Types.I64, Some Ast.Pack16,
                    { Ast.offset = 123456789L; align = 1 });
         Ast.I64Const 8L;
         Ast.Load (Types.I64, Some (Ast.Pack16, Ast.SX),
                   { Ast.offset = 123456789L; align = 1 });
       ])

let test_roundtrip_cage_instrs () =
  check_roundtrip "cage instructions"
    (simple_module
       [
         Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 16L;
         Ast.LocalSet 0;
         Ast.I64Const 1024L; Ast.LocalGet 0; Ast.I64Const 16L;
         Ast.SegmentSetTag 0L;
         Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L;
         Ast.I64Const 7L; Ast.PointerSign; Ast.PointerAuth;
       ])

let test_roundtrip_full_module () =
  let m =
    {
      Ast.types = [ ft [] []; ft [ Types.I32; Types.F64 ] [ Types.F32 ] ];
      imports =
        [ { Ast.im_module = "env"; im_name = "host"; im_type = 0 } ];
      funcs =
        [
          { Ast.ftype = 1;
            locals = [ Types.I32; Types.I32; Types.F64 ];
            body =
              [ Ast.LocalGet 0; Ast.Drop; Ast.LocalGet 1;
                Ast.Cvtop Ast.F32DemoteF64 ];
            fname = None };
        ];
      table = Some { Types.tbl_limits = { Types.min = 3L; max = Some 3L } };
      memory = Some mem64;
      globals =
        [
          { Ast.g_type = { Types.mut = true; g_type = Types.I64 };
            g_init = Values.I64 99L };
          { Ast.g_type = { Types.mut = false; g_type = Types.F64 };
            g_init = Values.F64 2.5 };
        ];
      exports =
        [
          { Ast.ex_name = "f"; ex_desc = Ast.Func_export 1 };
          { Ast.ex_name = "memory"; ex_desc = Ast.Mem_export 0 };
        ];
      elems = [ { Ast.e_offset = 1L; e_funcs = [ 0; 1 ] } ];
      datas = [ { Ast.d_offset = 64L; d_bytes = "hello\x00\xff" } ];
      start = None;
    }
  in
  check_roundtrip "full module" m

let test_decode_rejects_garbage () =
  (match Binary.decode "not a wasm module" with
  | _ -> Alcotest.fail "garbage accepted"
  | exception Binary.Decode_error _ -> ());
  match Binary.decode "\x00asm\x02\x00\x00\x00" with
  | _ -> Alcotest.fail "bad version accepted"
  | exception Binary.Decode_error _ -> ()

let test_decode_truncated () =
  let bytes = Binary.encode (simple_module [ Ast.I64Const 42L ]) in
  let truncated = String.sub bytes 0 (String.length bytes - 3) in
  match Binary.decode truncated with
  | _ -> Alcotest.fail "truncated module accepted"
  | exception Binary.Decode_error _ -> ()

let test_compiled_module_roundtrips () =
  (* compile a real kernel, encode, decode, re-run: same checksum *)
  let kernel =
    match Workloads.Polybench.find "atax" with
    | Some k -> k
    | None -> Alcotest.fail "no atax"
  in
  let cfg = Cage.Config.full in
  let compiled = Libc.Run.compile cfg kernel.k_source in
  let m' = roundtrip compiled.co_module in
  (match Validate.validate m' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decoded module invalid: %s" e);
  let run m =
    let wasi = Libc.Wasi.create () in
    let inst =
      Exec.instantiate
        ~config:(Cage.Config.instance_config cfg)
        ~imports:(Libc.Wasi.imports wasi) m
    in
    Exec.invoke inst "main" []
  in
  match (run compiled.co_module, run m') with
  | [ Values.I32 a ], [ Values.I32 b ] ->
      Alcotest.(check int32) "same checksum after roundtrip" a b
  | _ -> Alcotest.fail "kernel did not return a single i32"

let check_text_roundtrip name m =
  let m' = Text.parse (Text.to_string m) in
  if strip_names m <> strip_names m' then
    Alcotest.failf "%s: text roundtrip mismatch" name

let test_text_roundtrip_cases () =
  check_text_roundtrip "minimal" (simple_module [ Ast.I64Const 42L ]);
  check_text_roundtrip "cage"
    (simple_module
       [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 16L;
         Ast.LocalSet 0; Ast.LocalGet 0; Ast.I64Const 32L;
         Ast.SegmentFree 0L; Ast.I64Const 7L; Ast.PointerSign;
         Ast.PointerAuth ]);
  check_text_roundtrip "control"
    (simple_module
       [ Ast.Block
           (Ast.ValBlock (Some Types.I64),
            [ Ast.I32Const 1l;
              Ast.If (Ast.ValBlock (Some Types.I64),
                      [ Ast.I64Const 1L ], [ Ast.I64Const 2L ]);
              Ast.Br 0 ]) ])

let test_text_roundtrip_compiled () =
  let kernel =
    match Workloads.Polybench.find "bicg" with
    | Some k -> k
    | None -> Alcotest.fail "no bicg"
  in
  let compiled = Libc.Run.compile Cage.Config.full kernel.k_source in
  check_text_roundtrip "compiled bicg" compiled.co_module

let prop_text_const_roundtrip =
  QCheck.Test.make ~name:"text consts roundtrip (incl. hex floats)"
    ~count:300
    QCheck.(triple int64 int32 float)
    (fun (a, b, c) ->
      QCheck.assume (Float.is_finite c || Float.is_nan c || c = infinity);
      let m =
        simple_module
          [ Ast.I64Const a; Ast.Drop; Ast.I32Const b; Ast.Drop;
            Ast.F64Const c; Ast.Drop; Ast.I64Const 0L ]
      in
      strip_names m = strip_names (Text.parse (Text.to_string m)))

let test_text_printer_mentions_cage () =
  let m =
    simple_module
      [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
        Ast.PointerSign; Ast.PointerAuth ]
  in
  let s = Text.to_string m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prints " ^ needle) true
        (Astring.String.is_infix ~affix:needle s))
    [ "segment.new"; "i64.pointer_sign"; "i64.pointer_auth"; "(module";
      "memory i64" ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_const_roundtrip =
  QCheck.Test.make ~name:"i64/i32/f64 consts roundtrip (LEB + IEEE)"
    ~count:500
    QCheck.(triple int64 int32 float)
    (fun (a, b, c) ->
      let m =
        simple_module
          [
            Ast.I64Const a; Ast.Drop; Ast.I32Const b; Ast.Drop;
            Ast.F64Const c; Ast.Drop; Ast.F32Const (Values.to_f32 c);
            Ast.Drop; Ast.I64Const 0L;
          ]
      in
      strip_names m = roundtrip m)

let prop_leb_edge_values =
  QCheck.Test.make ~name:"LEB encodes extremes" ~count:50
    (QCheck.oneofl
       [ Int64.min_int; Int64.max_int; 0L; -1L; 1L; 0x7fL; 0x80L; -64L;
         -65L; 0x3fffffffffffffffL ])
    (fun v ->
      let m = simple_module [ Ast.I64Const v ] in
      strip_names m = roundtrip m)

let prop_memarg_roundtrip =
  QCheck.Test.make ~name:"memarg offsets roundtrip" ~count:300
    QCheck.(pair (int_bound 0x7fffffff) (int_bound 3))
    (fun (off, align) ->
      let m =
        simple_module
          [
            Ast.I64Const 0L;
            Ast.Load (Types.I64, None,
                      { Ast.offset = Int64.of_int off; align });
          ]
      in
      strip_names m = roundtrip m)

let all_numeric_instrs =
  let widths = [ Ast.W32; Ast.W64 ] in
  List.concat_map
    (fun w ->
      List.map (fun op -> Ast.IBinop (w, op))
        [ Ast.Add; Ast.Sub; Ast.Mul; Ast.DivS; Ast.DivU; Ast.RemS;
          Ast.RemU; Ast.And; Ast.Or; Ast.Xor; Ast.Shl; Ast.ShrS; Ast.ShrU;
          Ast.Rotl; Ast.Rotr ]
      @ List.map (fun op -> Ast.IRelop (w, op))
          [ Ast.Eq; Ast.Ne; Ast.LtS; Ast.LtU; Ast.GtS; Ast.GtU; Ast.LeS;
            Ast.LeU; Ast.GeS; Ast.GeU ]
      @ List.map (fun op -> Ast.IUnop (w, op)) [ Ast.Clz; Ast.Ctz; Ast.Popcnt ]
      @ List.map (fun op -> Ast.FBinop (w, op))
          [ Ast.FAdd; Ast.FSub; Ast.FMul; Ast.FDiv; Ast.FMin; Ast.FMax;
            Ast.Copysign ]
      @ List.map (fun op -> Ast.FUnop (w, op))
          [ Ast.Neg; Ast.Abs; Ast.Ceil; Ast.Floor; Ast.Trunc; Ast.Nearest;
            Ast.Sqrt ]
      @ List.map (fun op -> Ast.FRelop (w, op))
          [ Ast.FEq; Ast.FNe; Ast.FLt; Ast.FGt; Ast.FLe; Ast.FGe ])
    widths
  @ List.map (fun c -> Ast.Cvtop c)
      [ Ast.I32WrapI64; Ast.I64ExtendI32S; Ast.I64ExtendI32U;
        Ast.I32TruncF64S; Ast.I64TruncF64U; Ast.F32ConvertI32S;
        Ast.F64ConvertI64U; Ast.F32DemoteF64; Ast.F64PromoteF32;
        Ast.I32ReinterpretF32; Ast.I64ReinterpretF64; Ast.F32ReinterpretI32;
        Ast.F64ReinterpretI64 ]

let test_every_numeric_opcode_roundtrips () =
  (* not type-correct wasm (never validated or run); only the
     encode/decode tables are exercised *)
  List.iter
    (fun ins ->
      let m =
        { Ast.empty_module with
          types = [ ft [] [] ];
          funcs =
            [ { Ast.ftype = 0; locals = []; body = [ ins ]; fname = None } ] }
      in
      if strip_names m <> roundtrip m then
        Alcotest.failf "opcode table mismatch for some instruction")
    all_numeric_instrs

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_const_roundtrip; prop_leb_edge_values; prop_memarg_roundtrip;
      prop_text_const_roundtrip ]

let () =
  Alcotest.run "binary"
    [
      ( "roundtrip",
        [
          tc "minimal" test_roundtrip_minimal;
          tc "control flow" test_roundtrip_control_flow;
          tc "br_table" test_roundtrip_br_table;
          tc "memory ops" test_roundtrip_memory_ops;
          tc "cage instructions" test_roundtrip_cage_instrs;
          tc "full module" test_roundtrip_full_module;
          tc "compiled kernel" test_compiled_module_roundtrips;
          tc "every numeric opcode" test_every_numeric_opcode_roundtrips;
        ] );
      ( "robustness",
        [
          tc "rejects garbage" test_decode_rejects_garbage;
          tc "rejects truncation" test_decode_truncated;
        ] );
      ( "text",
        [
          tc "printer mentions cage" test_text_printer_mentions_cage;
          tc "roundtrip cases" test_text_roundtrip_cases;
          tc "roundtrip compiled kernel" test_text_roundtrip_compiled;
        ] );
      ("binary-properties", qtests);
    ]
