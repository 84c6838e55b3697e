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
              Ast.Br 0 ]) ]);
  (* offsets print unsigned, so 2^63 and above must read back *)
  let huge =
    simple_module
      [ Ast.I64Const 0L; Ast.Load (Types.I64, None, { Ast.offset = -1L; align = 3 });
        Ast.Drop; Ast.I64Const 0L; Ast.I64Const 0L;
        Ast.Store (Types.I64, None, { Ast.offset = Int64.min_int; align = 3 });
        Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentNew (-16L); Ast.Drop;
        Ast.I64Const 0L; Ast.I64Const 0L; Ast.I64Const 16L;
        Ast.SegmentSetTag Int64.min_int;
        Ast.I64Const 0L; Ast.I64Const 16L; Ast.SegmentFree (-1L);
        Ast.I64Const 0L ]
  in
  check_text_roundtrip "offsets of 2^63 and above" huge;
  if roundtrip huge <> strip_names huge then
    Alcotest.fail "offsets of 2^63 and above: binary roundtrip mismatch"

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

(* ------------------------------------------------------------------ *)
(* The instruction table                                               *)
(* ------------------------------------------------------------------ *)

let one_instr_module ins =
  { Ast.empty_module with
    types = [ ft [] [] ];
    funcs = [ { Ast.ftype = 0; locals = []; body = [ ins ]; fname = None } ] }

(* An instruction's bytes: magic, version, the type and function sections
   and the code section's header take 22 bytes, then the locals count;
   the body ends with 0x0b. *)
let encoded_instr ins =
  let s = Binary.encode (one_instr_module ins) in
  String.sub s 23 (String.length s - 24)

let hex s =
  String.concat " "
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* golden/opcodes.golden holds one line per immediate-free and load/store
   form, written by the printer and encoder that each spelled every
   mnemonic and opcode out by hand: the hex of its encoding, then its
   text line, sorted. The table must render the same lines, name and
   code each form once, and every form must round-trip through both
   codecs with a memarg that is not zero. (The modules are not
   type-correct; they are never validated or run.) *)
let test_opcode_table () =
  let line (e : Opcode.entry) =
    let m = one_instr_module (Opcode.with_memarg { Ast.offset = 5L; align = 1 } e.instr) in
    if roundtrip m <> m then Alcotest.failf "%s: binary roundtrip mismatch" e.name;
    check_text_roundtrip e.name m;
    let text = String.trim (Format.asprintf "%a" (Text.instr ~indent:0) e.instr) in
    Printf.sprintf "%-12s%s" (hex (encoded_instr e.instr)) text
  in
  let golden =
    In_channel.with_open_text "golden/opcodes.golden" In_channel.input_lines
  in
  Alcotest.(check (list string)) "golden/opcodes.golden" golden
    (List.sort compare (List.map line Opcode.all));
  let unique what keys =
    Alcotest.(check int) ("unique " ^ what) (List.length keys)
      (List.length (List.sort_uniq compare keys))
  in
  unique "mnemonics" (List.map (fun (e : Opcode.entry) -> e.name) Opcode.all);
  unique "codes"
    (List.map (fun (e : Opcode.entry) -> (e.code.prefix, e.code.op)) Opcode.all)

(* ------------------------------------------------------------------ *)
(* The door: malformed input raises only the codec's own error          *)
(* ------------------------------------------------------------------ *)

let header = "\x00asm\x01\x00\x00\x00"
let one_func_type = "\x01\x04\x01\x60\x00\x00\x03\x02\x01\x00"

let malformed_binaries =
  [ ("custom section size decodes negative",
     header ^ "\x00\x01\x58\x00\xf2\xff\xff\xff\xff\xff\xff\xff\xff\x01");
    ("two function types, one body",
     header ^ "\x01\x04\x01\x60\x00\x00\x03\x03\x02\x00\x00\x0a\x04\x01\x02\x00\x0b");
    ("vector count of -1", header ^ "\x01\x0a\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01");
    ("name length of -1", header ^ "\x02\x0b\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01");
    ("2^32 - 1 locals in one run",
     header ^ one_func_type ^ "\x0a\x0a\x01\x08\x01\xff\xff\xff\xff\x0f\x7f\x0b");
    ("60,000 locals in two runs",
     header ^ one_func_type
     ^ "\x0a\x0c\x01\x0a\x02\xb0\xea\x01\x7f\xb0\xea\x01\x7e\x0b");
    (* bodies of 2 and 3 bytes declared as 3 and 2: the section's total
       still matches *)
    ("one byte of body size moved to the next body",
     header
     ^ "\x01\x04\x01\x60\x00\x00\x03\x03\x02\x00\x00\x0a\x08\x02\x03\x00\x0b\x02\x00\x01\x0b") ]

let wat body =
  Printf.sprintf
    "(module\n  (type (func))\n  (memory i64 1)\n  (func (type 0)\n    %s\n  )\n)\n" body

let malformed_texts =
  [ ("align=x", wat "i64.const 0 i64.load align=x drop");
    ("align=3", wat "i64.const 0 i64.load align=3 drop");
    ("offset=zz", wat "i64.const 0 i64.load offset=zz drop");
    ("segment.new offset=q", wat "i64.const 0 i64.const 16 segment.new offset=q drop");
    ("f32.const abc", wat "f32.const abc drop");
    ("br_table index 2^62", wat "block i32.const 0 br_table 4611686018427387904 0 end");
    ("elem index 2^62", "(module (table 1 funcref) (elem (offset 0) func 4611686018427387904))");
    ("\\zz escape", "(module (memory i64 1) (data (offset 0) \"\\zz\"))") ]

let door_cases =
  List.map
    (fun (name, bytes) ->
      tc ("decode: " ^ name) (fun () ->
          match Binary.decode bytes with
          | _ -> Alcotest.fail "decoded"
          | exception Binary.Decode_error _ -> ()))
    malformed_binaries
  @ List.map
      (fun (name, src) ->
        tc ("parse: " ^ name) (fun () ->
            match Text.parse src with
            | _ -> Alcotest.fail "parsed"
            | exception Text.Parse_error _ -> ()))
      malformed_texts

(* Declared sizes that validation cannot bound below what this runtime
   gives one instance: a table minimum of 2^64 - 1 is outside the
   spec's u32 range and fails validation; 20,000 wasm32 pages are
   inside the spec's range but above the 16,384-page cap, and
   instantiation traps naming the cap. Either way no instance number is
   consumed, and the module read from text and from its encoding agree. *)
let oversized_declarations =
  let src decl =
    Printf.sprintf
      "(module\n  (type (func (result i64)))\n  %s\n  (func (type 0) i64.const 7)\n  (export \"main\" (func 0))\n)\n"
      decl
  in
  let id () = (Exec.instantiate (Text.parse (src ""))).Instance.id in
  List.concat_map
    (fun (name, decl, expect) ->
      let m = Text.parse (src decl) in
      List.map
        (fun (form, m) ->
          tc (Printf.sprintf "instantiate %s (%s)" name form) (fun () ->
              let before = id () in
              (match Exec.instantiate m with
              | _ -> Alcotest.fail "instantiated"
              | exception Validate.Invalid e -> expect (Error e)
              | exception Instance.Trap e -> expect (Ok e));
              Alcotest.(check int) "no instance id consumed" (before + 1) (id ())))
        [ ("wat", m); ("wasm", Binary.decode (Binary.encode m)) ])
    [ ("(table -1 funcref)", "(table -1 funcref)",
       function
       | Error e -> Alcotest.(check string) "invalid" "invalid table limits" e
       | Ok e -> Alcotest.failf "trapped: %s" e);
      ("(memory i32 20000)", "(memory i32 20000)",
       function
       | Ok e ->
           Alcotest.(check string) "trap"
             "initial memory pages of 20000 exceeds the implementation cap of 16384" e
       | Error e -> Alcotest.failf "rejected: %s" e) ]

(* Seeded byte mutants of modules compiled under CAGE, each changing one
   to three bytes to a random value, by one bit flip or by one: decoding
   returns or raises Decode_error, and validating what decodes returns or
   raises Invalid. *)
let test_door_mutants () =
  let cage src = Binary.encode (Libc.Run.compile Cage.Config.full src).co_module in
  let corpus =
    Array.of_list
      (List.filteri (fun i _ -> i mod 6 = 0)
         (List.map (fun (k : Workloads.Polybench.kernel) -> cage k.k_source)
            Workloads.Polybench.all)
      @ List.map (fun (e : Workloads.Cve_suite.entry) -> cage e.source)
          Workloads.Cve_suite.entries
      @ List.init 4 (fun seed ->
            cage (Workloads.Fuzzgen.render (Workloads.Fuzzgen.generate ~seed))))
  in
  let rng = Random.State.make [| 1 |] in
  let valid = ref 0 in
  for i = 1 to 5000 do
    let b = Bytes.of_string corpus.(Random.State.int rng (Array.length corpus)) in
    for _ = 0 to Random.State.int rng 3 do
      let at = Random.State.int rng (Bytes.length b) in
      let c = Char.code (Bytes.get b at) in
      let c =
        match Random.State.int rng 3 with
        | 0 -> Random.State.int rng 256
        | 1 -> c lxor (1 lsl Random.State.int rng 8)
        | _ -> if Random.State.bool rng then c + 1 else c - 1
      in
      Bytes.set b at (Char.chr (c land 0xff))
    done;
    match Validate.check (Binary.decode (Bytes.to_string b)) with
    | () -> incr valid
    | exception (Binary.Decode_error _ | Validate.Invalid _) -> ()
    | exception e -> Alcotest.failf "mutant %d: %s" i (Printexc.to_string e)
  done;
  if !valid = 0 then Alcotest.fail "no mutant decoded and validated"

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
          tc "opcode table" test_opcode_table;
        ] );
      ( "robustness",
        [
          tc "rejects garbage" test_decode_rejects_garbage;
          tc "rejects truncation" test_decode_truncated;
          tc "mutants raise only the door's errors" test_door_mutants;
        ]
        @ door_cases @ oversized_declarations );
      ( "text",
        [
          tc "printer mentions cage" test_text_printer_mentions_cage;
          tc "roundtrip cases" test_text_roundtrip_cases;
          tc "roundtrip compiled kernel" test_text_roundtrip_compiled;
        ] );
      ("binary-properties", qtests);
    ]
