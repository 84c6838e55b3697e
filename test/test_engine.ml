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

(* Each function takes an address (parameter 0) and [extra] values.
   With an [index] type, the address is [base + index × 8] instead: the
   base in parameter 0, the index in the last parameter, combined by
   the element-address step [[i64.extend_i32_s]; iW.const 8; iW.mul;
   iW.add] (the extension only for an i32 index on wasm64). [addr] is
   the address operand; [chain] is the same as an address chain whose
   final add fuses into the access that follows it. A [Nop] emits
   nothing, but one between a step and its access keeps the access from
   absorbing the step, so every access kind is reached through each
   fused form and after the bare step, which leaves the address in its
   slot. *)
let access_module ?index idx =
  let i32 = Types.I32 and i64 = Types.I64 and f64 = Types.F64 in
  let ma offset = { Ast.offset; align = 0 } in
  let w, const =
    match idx with
    | Types.Idx32 -> (Ast.W32, fun c -> Ast.I32Const (Int64.to_int32 c))
    | Types.Idx64 -> (Ast.W64, fun c -> Ast.I64Const c)
  in
  let fn extra results locals body =
    let params = (Types.addr_type idx :: extra) @ Option.to_list index in
    let addr, chain =
      match index with
      | None ->
          ( [ Ast.LocalGet 0 ],
            [ Ast.LocalGet 0; Ast.Nop; const 0L; Ast.Nop; Ast.IBinop (w, Ast.Add) ] )
      | Some ity ->
          let ext = if ity = i32 && w = Ast.W64 then [ Ast.Cvtop Ast.I64ExtendI32S ] else [] in
          let step =
            [ Ast.LocalGet 0; Ast.Nop; Ast.LocalGet (List.length params - 1); Ast.Nop ]
            @ ext @ [ const 8L; Ast.IBinop (w, Ast.Mul); Ast.IBinop (w, Ast.Add) ]
          in
          (step, step)
    in
    (ft params results, locals, body addr chain (List.length params))
  in
  let data =
    "\x81\x82\x83\x84\x85\x86\x87\x88\x00\x00\x00\x00\x00\x00\x00\x40"
  in
  {
    (module_of
       ~memory:(Some { Types.mem_idx = idx;
                       mem_limits = { Types.min = 4L; max = Some 4L } })
       [ fn [] [ i64 ] [] (fun addr _ _ -> addr @ [ Ast.Load (i64, None, ma 0L) ]);
         fn [] [ i32 ] [] (fun addr _ _ ->
             addr @ [ Ast.Nop; Ast.Load (i32, Some (Ast.Pack8, Ast.SX), ma 0L) ]);
         fn [] [ i64 ] [ i64 ] (fun addr _ l ->
             addr
             @ [ Ast.Nop; Ast.Load (i64, Some (Ast.Pack32, Ast.ZX), ma 4L);
                 Ast.LocalSet l; Ast.LocalGet l ]);
         fn [ i64 ] [ i64 ] [] (fun addr _ _ ->
             addr @ [ Ast.LocalGet 1; Ast.Store (i64, None, ma 0L) ]
             @ addr @ [ Ast.Load (i64, None, ma 0L) ]);
         fn [] [ i32 ] [] (fun addr _ _ ->
             addr @ [ Ast.Nop; Ast.I32Const 0x12345l; Ast.Store (i32, Some Ast.Pack16, ma 2L) ]
             @ addr @ [ Ast.Nop; Ast.Load (i32, Some (Ast.Pack16, Ast.ZX), ma 2L) ]);
         fn [ f64 ] [ f64 ] [] (fun addr _ _ ->
             addr @ [ Ast.Nop; Ast.LocalGet 1; Ast.Store (f64, None, ma 8L) ]
             @ addr @ [ Ast.Load (f64, None, ma 8L) ]);
         fn [] [ f64 ] [] (fun _ chain _ ->
             (Ast.F64Const 0.5 :: chain)
             @ [ Ast.Load (f64, None, ma 8L); Ast.FBinop (Ast.W64, Ast.FAdd) ]);
         fn [ i64 ] [ i64 ] [] (fun addr chain _ ->
             chain @ [ Ast.LocalGet 1; Ast.Store (i64, Some Ast.Pack32, ma 0L) ]
             @ addr @ [ Ast.Load (i64, Some (Ast.Pack32, Ast.SX), ma 0L) ]) ])
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
    (fun (idx, index) ->
      let m = access_module ?index idx in
      let addr a =
        match idx with
        | Types.Idx32 -> Values.I32 (Int64.to_int32 a)
        | Types.Idx64 -> Values.I64 a
      in
      (* through the step, address [a] is base [a - 8i] at index [i] *)
      let args ?(i = 3L) a extra =
        match index with
        | None -> addr a :: extra
        | Some ity ->
            let iv = if ity = Types.I32 then Values.I32 (Int64.to_int32 i) else Values.I64 i in
            addr (Int64.sub a (Int64.mul 8L i)) :: extra @ [ iv ]
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
              Printf.printf "%s memory, %s index, %s, %s\n"
                (Types.string_of_idx_type idx)
                (match index with
                | None -> "no"
                | Some t -> Types.string_of_num_type t)
                policy f;
              check_both ~config m f (args 64L extra) [ expected ];
              check_both ~config m f
                (args (Int64.sub access_size reach) extra)
                [ at_end ];
              List.iter
                (fun a -> check_both_trap ~config ~substring m f (args a extra))
                (oob reach);
              (* base 0 at index -1: the address is -8, on wasm64 a
                 non-canonical pointer that no policy may resolve *)
              if index <> None then
                check_both_trap ~config
                  ~substring:
                    (if idx = Types.Idx64 then "bounds: non-canonical address"
                     else substring)
                  m f (args ~i:(-1L) (-8L) extra))
            cases)
        policies)
    [ (Types.Idx32, None); (Types.Idx32, Some Types.I32); (Types.Idx64, None);
      (Types.Idx64, Some Types.I32); (Types.Idx64, Some Types.I64) ]

(* A bounds-elided tag check sees the pointer's 48-bit address field,
   on both engines: an effective address past 2^48, which only a wrong
   plan can bring to it, wraps, and the raw access then takes the
   bounds trap. *)
let test_elided_bounds_wraps_48_bits () =
  let m =
    module_of
      [ (ft [ Types.I64 ] [ Types.I64 ], [],
         [ Ast.LocalGet 0; Ast.Load (Types.I64, None, { Ast.offset = 16L; align = 0 }) ]) ]
  in
  let config = { Instance.default_config with belide = [| Bytes.make 1 '\xff' |] } in
  check_both_trap ~config ~substring:"bounds: out of bounds" m "f0"
    [ Values.I64 0xffff_ffff_fff8L ]

(* A threaded access allocates nothing unless a fault or an injection
   fires: the tag check rides along with the access, as MTE's does.
   [f0] loops [n] times over every load kind and store width at the
   address in parameter 0, each once on operands read from locals and
   once on operands in their slots (a value a branch carries out of a
   block lands in its slot). *)
let alloc_module idx =
  let open Ast in
  let i32 = Types.I32 and i64 = Types.I64 and f32 = Types.F32 and f64 = Types.F64 in
  let ma = { offset = 8L; align = 0 } in
  (* the value locals, one per type *)
  let v ty = List.assoc ty [ (i32, 2); (i64, 3); (f32, 4); (f64, 5) ] in
  let in_slot ty i = Block (ValBlock (Some ty), [ LocalGet i; Br 0 ]) in
  let at = Types.addr_type idx in
  let loads =
    [ (i32, None); (i64, None); (f32, None); (f64, None) ]
    @ List.concat_map
        (fun (ty, p) -> [ (ty, Some (p, SX)); (ty, Some (p, ZX)) ])
        [ (i32, Pack8); (i32, Pack16); (i64, Pack8); (i64, Pack16); (i64, Pack32) ]
  and stores =
    [ (i32, None); (i64, None); (f32, None); (f64, None); (i32, Some Pack8);
      (i32, Some Pack16); (i64, Some Pack8); (i64, Some Pack16); (i64, Some Pack32) ]
  in
  let body =
    List.concat_map
      (fun (ty, pack) ->
        [ LocalGet 0; Load (ty, pack, ma); LocalSet (v ty);
          in_slot at 0; Load (ty, pack, ma); Drop ])
      loads
    @ List.concat_map
        (fun (ty, pack) ->
          [ LocalGet 0; LocalGet (v ty); Store (ty, pack, ma);
            in_slot at 0; in_slot ty (v ty); Store (ty, pack, ma) ])
        stores
  in
  module_of
    ~memory:(Some { Types.mem_idx = idx;
                    mem_limits = { Types.min = 1L; max = Some 1L } })
    [ (ft [ Types.addr_type idx; i32 ] [], [ i32; i64; f32; f64 ],
       [ Loop
           ( ValBlock None,
             body
             @ [ LocalGet 1; I32Const (-1l); IBinop (W32, Add); LocalTee 1;
                 BrIf 0 ] ) ]) ]

(* Minor words per metered access over one run of [alloc_module]'s
   loop, after a warm-up run on the same instance. *)
let words_per_access ?chaos ~config idx =
  let meter = Meter.create () in
  let inst =
    Exec.instantiate ~config:{ config with Instance.meter = Some meter }
      (alloc_module idx)
  in
  Option.iter (Instance.arm inst) chaos;
  let addr =
    match idx with Types.Idx32 -> Values.I32 64l | Types.Idx64 -> Values.I64 64L
  in
  let run () = ignore (Exec.invoke inst "f0" [ addr; Values.I32 500l ]) in
  run ();
  let a0 = Meter.mem_accesses meter and w0 = Gc.minor_words () in
  run ();
  let w = Gc.minor_words () -. w0 and a = Meter.mem_accesses meter - a0 in
  if a < 10_000 then Alcotest.failf "only %d accesses measured" a;
  w /. float_of_int a

let test_access_no_allocation () =
  let over = ref [] in
  (* a lane whose budget is spent: every draw is made and misses *)
  let spent () =
    let e =
      Arch.Fault_inject.create
        (Arch.Fault_inject.policy ~seed:3 Arch.Fault_inject.all_sites)
    in
    let ln = Arch.Fault_inject.lane e 1 in
    if not (Arch.Fault_inject.draw ln Arch.Fault_inject.Tag_flip) then
      Alcotest.fail "the first draw of a fresh lane did not fire";
    Some ln
  in
  List.iter
    (fun (chaos, lane) ->
      let lane = lane () in
      List.iter
        (fun idx ->
          List.iter
            (fun (policy, elide, belide) ->
              let marks on = if on then [| Bytes.make 64 '\xff' |] else [||] in
              let config =
                { Instance.default_config with elide = marks elide; belide = marks belide }
              in
              let w = words_per_access ?chaos:lane ~config idx in
              let row =
                Printf.sprintf "%s memory, %s, %s: %.4f minor words per access"
                  (Types.string_of_idx_type idx) policy chaos w
              in
              print_endline row;
              if w >= 0.1 then over := row :: !over)
            policies)
        [ Types.Idx32; Types.Idx64 ])
    [ ("no chaos", fun () -> None); ("chaos budget spent", spent) ];
  if !over <> [] then Alcotest.fail (String.concat "; " (List.rev !over))

(* The scan kernel allocates nothing: a span check over a matching
   1 MiB span (65,536 granules, eight per load) and a drain of a clean
   1,024-chunk dirty map, after a warm-up call of each. *)
let test_scan_no_allocation () =
  let bytes = 1 lsl 20 and calls = 20 in
  let tm = Arch.Tag_memory.create ~size_bytes:bytes in
  let tag = Arch.Tag.of_int 5 in
  (match
     Arch.Tag_memory.set_region tm ~addr:0L ~len:(Int64.of_int bytes) tag
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let map = Arch.Dirty.create ~bits:8 ~dirty:false (1024 * 256) in
  let words name f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do f () done;
    let w = (Gc.minor_words () -. w0) /. float_of_int calls in
    Printf.printf "%s: %.4f minor words per call\n" name w;
    if w >= 0.1 then Alcotest.failf "%s allocates %.1f minor words per call" name w
  in
  words "matches_native, 1 MiB" (fun () ->
      if not (Arch.Tag_memory.matches_native tm ~addr:0 ~len:bytes tag) then
        Alcotest.fail "a matching span failed its check");
  words "Dirty.drain, 1,024 clean chunks" (fun () ->
      if Arch.Dirty.drain map ~bits:8 ~f:(fun _ _ -> 1) <> 0 then
        Alcotest.fail "a clean map drained a run")

(* ------------------------------------------------------------------ *)
(* The operator table allocates nothing                                 *)
(* ------------------------------------------------------------------ *)

(* Every numeric operator (each width's unops, binops, tests and
   relops, and every conversion) with operands that do not trap:
   (instruction, operand types, result type, arguments). *)
let operator_cases =
  let open Ast in
  let i32 = Types.I32 and i64 = Types.I64 and f32 = Types.F32 and f64 = Types.F64 in
  let x = function
    | Types.I32 -> Values.I32 (-123_456_789l)
    | Types.I64 -> Values.I64 (-0x1234_5678_9abc_def0L)
    | Types.F32 -> Values.F32 (Values.to_f32 (-98765.25))
    | Types.F64 -> Values.F64 12345.75
  and y = function
    | Types.I32 -> Values.I32 0x13l
    | Types.I64 -> Values.I64 0x7_0000_0013L
    | Types.F32 -> Values.F32 (-1.5)
    | Types.F64 -> Values.F64 (-1.5)
  in
  let un t = fun ins -> (ins, [ t ], t, [ x t ])
  and bin t res = fun ins -> (ins, [ t; t ], res, [ x t; y t ]) in
  let int_ops w t =
    List.map (fun op -> un t (IUnop (w, op))) [ Clz; Ctz; Popcnt ]
    @ [ (ITestop w, [ t ], i32, [ x t ]) ]
    @ List.map
        (fun op -> bin t t (IBinop (w, op)))
        [ Add; Sub; Mul; DivS; DivU; RemS; RemU; And; Or; Xor; Shl; ShrS; ShrU; Rotl; Rotr ]
    @ List.map
        (fun op -> bin t i32 (IRelop (w, op)))
        [ Eq; Ne; LtS; LtU; GtS; GtU; LeS; LeU; GeS; GeU ]
  and float_ops w t =
    List.map (fun op -> un t (FUnop (w, op))) [ Neg; Abs; Sqrt; Ceil; Floor; Trunc; Nearest ]
    @ List.map
        (fun op -> bin t t (FBinop (w, op)))
        [ FAdd; FSub; FMul; FDiv; FMin; FMax; Copysign ]
    @ List.map (fun op -> bin t i32 (FRelop (w, op))) [ FEq; FNe; FLt; FGt; FLe; FGe ]
  in
  let cvt op src dst =
    let v =
      match op with
      (* an unsigned truncation of a negative operand traps *)
      | I32TruncF32U | I32TruncF64U | I64TruncF32U | I64TruncF64U -> (
          match src with Types.F32 -> Values.F32 4096.5 | _ -> Values.F64 3e9)
      | _ -> x src
    in
    (Cvtop op, [ src ], dst, [ v ])
  in
  int_ops W32 i32 @ int_ops W64 i64 @ float_ops W32 f32 @ float_ops W64 f64
  @ [ (IUnop (W32, Clz), [ i32 ], i32, [ Values.I32 0l ]);
      (IUnop (W64, Clz), [ i64 ], i64, [ Values.I64 0L ]) ]
  (* signed zeros and a NaN payload through min, max and copysign *)
  @ List.concat_map
      (fun op ->
        let z = Values.F64 (-0.0) and p = Values.F64 0.0 in
        let q = Values.F64 (Int64.float_of_bits 0x7ff4_0000_0000_0123L) in
        [ (FBinop (W64, op), [ f64; f64 ], f64, [ z; p ]);
          (FBinop (W64, op), [ f64; f64 ], f64, [ p; z ]);
          (FBinop (W64, op), [ f64; f64 ], f64, [ q; p ]) ])
      [ FMin; FMax; Copysign ]
  @ [ cvt I32WrapI64 i64 i32; cvt I64ExtendI32S i32 i64; cvt I64ExtendI32U i32 i64;
      cvt I32TruncF32S f32 i32; cvt I32TruncF32U f32 i32; cvt I32TruncF64S f64 i32;
      cvt I32TruncF64U f64 i32; cvt I64TruncF32S f32 i64; cvt I64TruncF32U f32 i64;
      cvt I64TruncF64S f64 i64; cvt I64TruncF64U f64 i64; cvt F32ConvertI32S i32 f32;
      cvt F32ConvertI32U i32 f32; cvt F32ConvertI64S i64 f32; cvt F32ConvertI64U i64 f32;
      cvt F64ConvertI32S i32 f64; cvt F64ConvertI32U i32 f64; cvt F64ConvertI64S i64 f64;
      cvt F64ConvertI64U i64 f64; cvt F32DemoteF64 f64 f32; cvt F64PromoteF32 f32 f64;
      cvt I32ReinterpretF32 f32 i32; cvt I64ReinterpretF64 f64 i64;
      cvt F32ReinterpretI32 i32 f32; cvt F64ReinterpretI64 i64 f64 ]

(* Function [f<i>] runs case [i]'s instruction on its parameters, as a
   singleton, as many times as its last parameter says, and returns the
   last result. *)
let operator_module () =
  module_of ~memory:None
    (List.map
       (fun (ins, params, result, _) ->
         let n = List.length params in
         ( ft (params @ [ Types.I32 ]) [ result ],
           [ result ],
           [ Ast.Loop
               ( Ast.ValBlock None,
                 List.init n (fun j -> Ast.LocalGet j)
                 @ [ ins; Ast.LocalSet (n + 1); Ast.LocalGet n; Ast.I32Const (-1l);
                     Ast.IBinop (Ast.W32, Ast.Add); Ast.LocalTee n; Ast.BrIf 0 ] );
             Ast.LocalGet (n + 1) ] ))
       operator_cases)

(* Minor words per execution of each operator on the threaded engine:
   the difference between a run of 1,100 executions and one of 100, so
   that what an invocation allocates cancels out. Each result must
   match the interpreter's. *)
let test_operators_no_allocation () =
  let m = operator_module () in
  let inst = Exec.instantiate m in
  let over = ref [] in
  List.iteri
    (fun i (ins, _, _, args) ->
      let f = Printf.sprintf "f%d" i in
      let run n = Exec.invoke inst f (args @ [ Values.I32 (Int32.of_int n) ]) in
      let words n =
        let w0 = Gc.minor_words () in
        ignore (run n);
        Gc.minor_words () -. w0
      in
      ignore (words 100);
      let w = (words 1100 -. words 100) /. 1000.0 in
      let name = String.trim (Format.asprintf "%a" (Text.instr ~indent:0) ins) in
      Printf.printf "%s: %.4f minor words per execution\n" name w;
      if w <> 0.0 then over := Printf.sprintf "%s (%.3f)" name w :: !over;
      check_both m f (args @ [ Values.I32 1l ]) (run 1))
    operator_cases;
  if !over <> [] then
    Alcotest.failf "operators that allocate: %s" (String.concat ", " (List.rev !over))

(* ------------------------------------------------------------------ *)
(* Slot round trips                                                     *)
(* ------------------------------------------------------------------ *)

(* Values whose bits a slot must carry unchanged: quiet and signalling
   NaN payloads, -0.0, subnormals, the i64 extremes and i32 patterns
   that sign-extend. An f32 value is the rounded double the interpreter
   holds, so its NaNs are the ones [Int32.float_of_bits] makes. *)
let slot_values =
  let f64 b = Values.F64 (Int64.float_of_bits b)
  and f32 b = Values.F32 (Int32.float_of_bits b) in
  [ (Types.F64,
     [ f64 0x7ff8_0000_dead_beefL; f64 0x7ff0_0000_0000_0001L;
       f64 0xfff4_0000_0000_0123L; f64 Int64.min_int; f64 1L;
       f64 0x000f_ffff_ffff_ffffL ]);
    (Types.F32,
     [ f32 0x7fc0_1234l; f32 0x7f80_0001l; f32 0xffc0_0001l; f32 Int32.min_int;
       f32 1l; f32 0x007f_ffffl ]);
    (Types.I64,
     [ Values.I64 Int64.min_int; Values.I64 Int64.max_int; Values.I64 (-1L);
       Values.I64 0x8000_0000L ]);
    (Types.I32,
     [ Values.I32 Int32.min_int; Values.I32 Int32.max_int; Values.I32 (-1l);
       Values.I32 (-0x1234_5678l) ]) ]

(* The ways a value of type [t] travels, as (name, params, locals, body,
   arguments for value [v], whether the result is [v] itself). Function
   [k] of the module is type [k]'s identity (the callee of "call") and
   global [k] its mutable global. Memory forms take an address, the
   value and an index, and read back what they stored, each once with
   every operand in its slot (a value a branch carries out of a block
   lands in its slot) and once
   on operands read where they live: [store.gg] and [load.g] from
   locals, [store.sg] and [load.s.set] (into a local), the address steps
   [add] and [scale.add] into a store of a local and into a load, and
   for f64 the step into [load.f64.op]. *)
let slot_routes idx k t =
  let open Ast in
  let w, const =
    match idx with
    | Types.Idx32 -> (W32, fun c -> I32Const (Int64.to_int32 c))
    | Types.Idx64 -> (W64, fun c -> I64Const c)
  in
  let addr, index =
    match idx with
    | Types.Idx32 -> (Values.I32 64l, Values.I32 2l)
    | Types.Idx64 -> (Values.I64 64L, Values.I64 2L)
  in
  let ma offset = { offset; align = 0 } in
  let at = Types.addr_type idx and other = Values.default t in
  let mem name locals body = (name, [ at; t; at ], locals, body, (fun v -> [ addr; v; index ]), true) in
  let step = [ LocalGet 0; Nop; LocalGet 2; Nop; const 8L; IBinop (w, Mul); IBinop (w, Add) ] in
  let add = [ LocalGet 0; Nop; const 24L; IBinop (w, Add) ] in
  let in_slot ty i = Block (ValBlock (Some ty), [ LocalGet i; Br 0 ]) in
  [ ("locals", [ t ], [ t; t ],
     [ LocalGet 0; LocalSet 1; LocalGet 1; Nop; LocalSet 2; LocalGet 2; LocalTee 1; Nop;
       LocalSet 2; in_slot t 2; LocalSet 1; LocalGet 1 ],
     (fun v -> [ v ]), true);
    ("select taken", [ t; t; Types.I32 ], [], [ LocalGet 0; LocalGet 1; LocalGet 2; Select ],
     (fun v -> [ v; other; Values.I32 1l ]), true);
    ("select not taken", [ t; t; Types.I32 ], [], [ LocalGet 0; LocalGet 1; LocalGet 2; Select ],
     (fun v -> [ other; v; Values.I32 0l ]), true);
    ("br", [ t ], [], [ Block (ValBlock (Some t), [ I32Const 5l; LocalGet 0; Br 0 ]) ],
     (fun v -> [ v ]), true);
    ("br_if", [ t ], [],
     [ Block (ValBlock (Some t), [ LocalGet 0; LocalGet 0; I32Const 1l; BrIf 0; Drop ]) ],
     (fun v -> [ v ]), true);
    ("return", [ t ], [], [ I32Const 3l; LocalGet 0; Return ], (fun v -> [ v ]), true);
    ("call", [ t ], [], [ LocalGet 0; Call k ], (fun v -> [ v ]), true);
    ("global", [ t ], [], [ LocalGet 0; GlobalSet k; GlobalGet k ], (fun v -> [ v ]), true);
    mem "store, load" []
      [ in_slot at 0; in_slot t 1; Store (t, None, ma 0L); in_slot at 0; Load (t, None, ma 0L) ];
    mem "store.gg, load.g" []
      [ LocalGet 0; LocalGet 1; Store (t, None, ma 8L); LocalGet 0; Load (t, None, ma 8L) ];
    mem "store.sg, load.s.set" [ t ]
      [ in_slot at 0; LocalGet 1; Store (t, None, ma 16L); in_slot at 0;
        Load (t, None, ma 16L); LocalSet 3; LocalGet 3 ];
    mem "add.lg.store, add.load" []
      (add @ [ LocalGet 1; Store (t, None, ma 0L) ] @ add @ [ Load (t, None, ma 0L) ]);
    mem "scale.add.lg.store, scale.add.load" []
      (step @ [ LocalGet 1; Store (t, None, ma 32L) ] @ step @ [ Load (t, None, ma 32L) ]) ]
  @
  if t <> Types.F64 then []
  else
    [ ( "scale.add.load.f64.op", [ at; t; at ], [],
        step @ [ LocalGet 1; Store (t, None, ma 40L); F64Const 1.0 ] @ step
        @ [ Load (t, None, ma 40L); FBinop (W64, FMul) ],
        (fun v -> [ addr; v; index ]), false ) ]

(* Every value through every route on both engines, in one instance
   each: results, meters and the memory's bytes must be identical, and
   a pure move must return its value bit for bit. *)
let test_slot_round_trips () =
  List.iter
    (fun idx ->
      let tys = List.map fst slot_values in
      let routes = List.concat (List.mapi (fun k t -> List.map (fun r -> (t, r)) (slot_routes idx k t)) tys) in
      let funcs =
        List.map (fun t -> (ft [ t ] [ t ], [], [ Ast.LocalGet 0 ])) tys
        @ List.map (fun (t, (_, params, locals, body, _, _)) -> (ft params [ t ], locals, body)) routes
      in
      let m =
        { (module_of
             ~memory:(Some { Types.mem_idx = idx;
                             mem_limits = { Types.min = 1L; max = Some 1L } })
             funcs)
          with
          Ast.globals =
            List.map
              (fun t -> { Ast.g_type = { Types.mut = true; g_type = t }; g_init = Values.default t })
              tys }
      in
      let calls =
        List.concat
          (List.mapi
             (fun j (t, (name, _, _, _, args, move)) ->
               List.map
                 (fun v -> (Printf.sprintf "f%d" (List.length tys + j), name, args v, v, move))
                 (List.assoc t slot_values))
             routes)
      in
      let run engine =
        let meter = Meter.create () in
        let inst =
          Exec.instantiate ~config:{ Instance.default_config with engine; meter = Some meter } m
        in
        let outcomes =
          List.map
            (fun (f, _, args, _, _) ->
              match Exec.invoke inst f args with
              | vs -> Ok vs
              | exception Instance.Trap msg -> Error msg)
            calls
        in
        (outcomes, meter, Memory.to_string (Instance.memory inst))
      in
      (* the routes reach the fused forms they name *)
      let idioms =
        List.concat_map (fun (s : Xcode.stats) -> List.map fst s.st_idioms) (Compile.module_stats m)
      and w = Types.string_of_idx_type idx in
      List.iter
        (fun name ->
          if not (List.mem name idioms) then Alcotest.failf "%s memory: no route is fused as %s" w name)
        [ "set.g"; "tee.g"; "select.ggg"; "br.g"; "brif.k"; "return.g"; "global.set.g";
          "store.gg"; "load.g"; "store.sg"; "load.s.set"; w ^ ".add.gkg.store"; w ^ ".add.gk.load";
          w ^ ".scale.add.ggg.store"; w ^ ".scale.add.gg.load"; w ^ ".scale.add.kgg.load.f64.op" ];
      let o_i, m_i, b_i = run Instance.Interp and o_t, m_t, b_t = run Instance.Threaded in
      List.iter2
        (fun (_, name, _, v, move) (oi, ot) ->
          let label =
            Format.asprintf "%s memory, %s, %a" (Types.string_of_idx_type idx) name Values.pp v
          in
          match (oi, ot) with
          | Ok ri, Ok rt ->
              Alcotest.(check (list value)) (label ^ ": engines agree") ri rt;
              if move then Alcotest.(check (list value)) (label ^ ": bits kept") [ v ] rt
          | _ -> Alcotest.failf "%s trapped" label)
        calls (List.combine o_i o_t);
      Alcotest.(check bool) "meters bit-identical" true (m_i = m_t);
      Alcotest.(check bool) "memory bytes identical" true (String.equal b_i b_t))
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
   128 KiB of them. Instantiation commits only the 64 KiB floor of
   memory and no tag granule, and a run stays within 256 KiB of memory
   and 16,384 of the 327,680 tag granules: an eager touch of either
   plane fails here instead of quietly multiplying the cost of
   instantiation. *)
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
      let tm = Arch.Mte.tag_memory (Option.get inst.Instance.mte) in
      Alcotest.(check int) (k.k_name ^ ": instantiation commits the floor")
        0x10000 (Memory.length_bytes mem);
      Alcotest.(check int) (k.k_name ^ ": and no tag granule") 0
        (Arch.Tag_memory.committed_granules tm);
      ignore (Exec.invoke inst "main" []);
      let used = Memory.length_bytes mem in
      if used > 0x40000 then
        Alcotest.failf "%s commits %d of %Ld bytes" k.k_name used
          (Memory.size_bytes mem);
      let granules = Arch.Tag_memory.committed_granules tm in
      if granules > 16384 then
        Alcotest.failf "%s commits %d tag granules" k.k_name granules)
    Workloads.Polybench.all

(* The tag plane commits on first retag, and reads never commit. A
   16,384-page (1 GiB) CAGE module instantiates with nothing committed.
   On both engines a checked load past the tag prefix passes with a
   tag-0 pointer and traps with any other tag, reporting memory tag 0,
   before and after a retag commits the first 4,096 granules. *)
let test_tag_plane_past_prefix () =
  let far = 0x40000L in
  let load a = [ Ast.I64Const a; Ast.Load (Types.I64, None, memarg ()) ] in
  let m =
    module_of
      ~memory:(Some { Types.mem_idx = Types.Idx64;
                      mem_limits = { Types.min = 16384L; max = None } })
      [ (ft [] [ Types.I64 ], [], load far);
        (ft [] [ Types.I64 ], [], load (Int64.logor far 0x0300_0000_0000_0000L));
        (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 0x400L; Ast.I64Const 64L; Ast.SegmentNew 0L; Ast.Drop;
           Ast.I64Const 1L ]) ]
  in
  List.iter
    (fun (label, engine) ->
      let config =
        { (Cage.Config.instance_config Cage.Config.full) with Instance.engine }
      in
      let inst = Exec.instantiate ~config m in
      let tm = Arch.Mte.tag_memory (Option.get inst.Instance.mte) in
      let committed what n =
        Alcotest.(check int) (label ^ ": " ^ what) n
          (Arch.Tag_memory.committed_granules tm)
      in
      committed "instantiation commits no tag granule" 0;
      Alcotest.(check int) (label ^ ": nor a memory byte") 0
        (Memory.length_bytes (Instance.memory inst));
      let loads () =
        Alcotest.(check (list value)) (label ^ ": tag-0 load passes")
          [ Values.I64 0L ] (Exec.invoke inst "f0" []);
        match Exec.invoke inst "f1" [] with
        | _ -> Alcotest.failf "%s: a tag-3 load passed" label
        | exception Instance.Trap msg ->
            if not (Astring.String.is_infix ~affix:"with #3, memory #0" msg)
            then Alcotest.failf "%s: trap %S" label msg;
            Alcotest.(check (option int)) (label ^ ": memory tag 0") (Some 0)
              (Option.bind inst.Instance.last_fault (fun f ->
                   Option.map Arch.Tag.to_int f.Arch.Mte.mem_tag))
      in
      loads ();
      committed "checks commit nothing" 0;
      Alcotest.(check (list value)) (label ^ ": retag") [ Values.I64 1L ]
        (Exec.invoke inst "f2" []);
      committed "a retag commits the floor" 4096;
      loads ();
      committed "checks past the prefix commit nothing" 4096)
    engines

(* ------------------------------------------------------------------ *)
(* Lowering coverage on PolyBench and the serving tenants               *)
(* ------------------------------------------------------------------ *)

(* Lowering statistics summed over [modules] as [cfg] instantiates
   them: how many instructions, of which how many emitted no op of
   their own, accesses, elided accesses and emitted ops, and how often
   each idiom (an op that read a local or a constant where it lives, or
   absorbed an instruction past its own) was emitted. Pinned so that a
   change to the lowerer cannot silently lose a folded operand, a fused
   access or an elision. *)
let fusion (cfg : Cage.Config.t) modules =
  let idioms = Hashtbl.create 32 in
  let totals = [| 0; 0; 0; 0; 0 |] in
  List.iter
    (fun m ->
      let c = Cage.Config.instance_config ~m cfg in
      let stats =
        Compile.module_stats ~elide:c.Instance.elide ~belide:c.Instance.belide
          ~arena:c.Instance.arena m
      in
      List.iter
        (fun (s : Xcode.stats) ->
          List.iteri
            (fun i n -> totals.(i) <- totals.(i) + n)
            [ s.st_instrs; s.st_fused; s.st_accesses; s.st_elided; s.st_ops ];
          List.iter
            (fun (name, n) ->
              Hashtbl.replace idioms name
                (n + Option.value ~default:0 (Hashtbl.find_opt idioms name)))
            s.st_idioms)
        stats)
    modules;
  (Array.to_list totals, List.sort compare (List.of_seq (Hashtbl.to_seq idioms)))

let check_fusion name cfg modules totals idioms =
  let t, i = fusion cfg modules in
  Alcotest.(check (list int)) (name ^ ": instrs, fused, accesses, elided, ops") totals t;
  Alcotest.(check (list (pair string int))) (name ^ ": idiom matches") idioms i

let test_fusion_pinned () =
  let polybench cfg =
    List.map
      (fun (k : Workloads.Polybench.kernel) ->
        (Libc.Run.compile cfg k.k_source).Minic.Driver.co_module)
      Workloads.Polybench.all
  in
  let pb_wasm32 = Cage.Config.baseline_wasm32 in
  check_fusion "PolyBench, baseline wasm32" pb_wasm32 (polybench pb_wasm32)
    [ 25065; 16671; 1441; 0; 8919 ]
    [ ("br.guard", 283); ("cvt.g", 981); ("cvt.g.set", 81); ("cvt.s.set", 156);
      ("f64.op.gg", 4); ("f64.op.gg.set.get.set", 26); ("f64.op.gk", 26);
      ("f64.op.gk.set.get.set", 26); ("f64.op.gs", 2); ("f64.op.gs.set.get.set", 7);
      ("f64.op.kg.set", 1); ("f64.op.kg.set.get.set", 26); ("f64.op.ks", 4);
      ("f64.op.ks.set", 7); ("f64.op.ks.set.get.set", 3); ("f64.op.sg", 2);
      ("f64.op.sg.set", 5); ("f64.op.sg.set.get.set", 1); ("f64.op.sk", 13);
      ("f64.op.sk.set", 45); ("f64.op.ss.set", 52); ("f64.relop.gg.if", 26);
      ("f64.relop.gk.eqz.brif", 26); ("f64.relop.gk.if", 28); ("global.set.g", 1);
      ("i32.add.gs.load", 312); ("i32.add.gs.load.set", 52); ("i32.add.gsg.store", 52);
      ("i32.add.gsk.store", 52); ("i32.div.gk", 8); ("i32.div.sk", 32); ("i32.eqz.g", 52);
      ("i32.eqz.s.if", 52); ("i32.op.gg", 60); ("i32.op.gg.set", 4); ("i32.op.gk", 62);
      ("i32.op.gk.set", 7); ("i32.op.gk.set.get.set", 173); ("i32.op.gs", 4);
      ("i32.op.kg", 2); ("i32.op.kk.set", 1); ("i32.op.sg", 48); ("i32.op.sk", 26);
      ("i32.op.sk.tee", 1); ("i32.relop.gg.eqz.brif", 150); ("i32.relop.gg.if", 2);
      ("i32.relop.gk.eqz.brif", 3); ("i32.relop.gk.if", 104);
      ("i32.relop.gs.eqz.brif", 20); ("i32.relop.sk.eqz.brif", 52);
      ("i32.relop.sk.if", 26); ("i32.relop.sk.set", 26); ("i32.relop.ss.if", 27);
      ("i32.relop.ss.set", 26); ("i32.row.scale.add.gggg.load", 57);
      ("i32.row.scale.add.gggg.load.set", 4); ("i32.row.scale.add.ggggg.load.f64.op", 11);
      ("i32.row.scale.add.ggggg.store", 86); ("i32.row.scale.add.ggggk.store", 8);
      ("i32.row.scale.add.gsgg.load", 5); ("i32.row.scale.add.gsgg.load.set", 1);
      ("i32.row.scale.add.gsggg.store", 5); ("i32.row.scale.add.gsggk.store", 2);
      ("i32.row.scale.add.sgggg.load.f64.op", 30);
      ("i32.row.scale.add.sgggg.load.f64.op.set", 6);
      ("i32.row.scale.add.sgsgg.load.f64.op", 9);
      ("i32.row.scale.add.sgsgg.load.f64.op.set", 1); ("i32.scale.add.gg.load", 21);
      ("i32.scale.add.gg.load.set", 3); ("i32.scale.add.ggg.load.f64.op", 2);
      ("i32.scale.add.ggg.load.f64.op.set", 1); ("i32.scale.add.ggg.store", 42);
      ("i32.scale.add.ggk.store", 10); ("i32.scale.add.ggs.load.f64.op", 1);
      ("i32.scale.add.ggs.load.f64.op.set.get.set", 1); ("i32.scale.add.gs.load", 9);
      ("i32.scale.add.gs.load.set", 26); ("i32.scale.add.gsg.store", 1);
      ("i32.scale.add.sg", 1); ("i32.scale.add.sgg.load.f64.op", 14);
      ("i32.scale.add.sgg.load.f64.op.set", 2); ("i32.scale.add.sgs.load.f64.op", 12);
      ("i32.scale.add.sgs.load.f64.op.set", 1); ("i64.div.gk", 27); ("i64.op.gg", 156);
      ("i64.op.gg.set", 26); ("i64.op.gk", 182); ("i64.op.gk.set", 26);
      ("i64.op.gk.set.get.set", 182); ("i64.op.gs.set.get.set", 1); ("i64.op.sk", 1);
      ("i64.op.sk.set", 78); ("i64.op.ss.set", 2); ("i64.relop.gg.eqz.brif", 78);
      ("i64.relop.gg.if", 78); ("i64.relop.gk.eqz.brif", 26); ("i64.relop.gk.if", 78);
      ("i64.relop.gs.if", 1); ("i64.relop.sk.if", 52); ("i64.relop.ss.if", 26);
      ("load.g", 2); ("load.g.set", 78); ("load.g.set.get.set", 26); ("load.k", 78);
      ("load.k.set", 104); ("memory.fill.sgs", 26); ("memory.fill.sks", 26);
      ("return.g", 313); ("return.k", 106); ("set.g", 272); ("set.k", 517);
      ("store.gg", 158); ("store.gk", 26); ("store.kg", 130) ];
  let pb_cage =
    Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.full)
  in
  check_fusion "PolyBench, CAGE, full plan" pb_cage (polybench pb_cage)
    [ 24384; 17051; 1467; 372; 7858 ]
    [ ("br.guard", 283); ("cvt.g", 226); ("cvt.g.set", 3); ("cvt.s.set", 26);
      ("f64.op.gg", 4); ("f64.op.gg.set.get.set", 26); ("f64.op.gk", 26);
      ("f64.op.gk.set.get.set", 26); ("f64.op.gs", 2); ("f64.op.gs.set.get.set", 7);
      ("f64.op.kg.set", 1); ("f64.op.kg.set.get.set", 26); ("f64.op.ks", 4);
      ("f64.op.ks.set", 7); ("f64.op.ks.set.get.set", 3); ("f64.op.sg", 2);
      ("f64.op.sg.set", 5); ("f64.op.sg.set.get.set", 1); ("f64.op.sk", 13);
      ("f64.op.sk.set", 45); ("f64.op.ss.set", 52); ("f64.relop.gg.if", 26);
      ("f64.relop.gk.eqz.brif", 26); ("f64.relop.gk.if", 28); ("global.set.g", 1);
      ("i32.div.gk", 8); ("i32.div.sk", 32); ("i32.eqz.g", 52); ("i32.eqz.s.if", 52);
      ("i32.op.gg", 60); ("i32.op.gg.set", 4); ("i32.op.gk", 62); ("i32.op.gk.set", 7);
      ("i32.op.gk.set.get.set", 173); ("i32.op.gs", 4); ("i32.op.kg", 2);
      ("i32.op.kk.set", 1); ("i32.op.sg", 48); ("i32.op.sk", 26);
      ("i32.relop.gg.eqz.brif", 150); ("i32.relop.gg.if", 2); ("i32.relop.gk.eqz.brif", 3);
      ("i32.relop.gs.eqz.brif", 20); ("i32.relop.sk.eqz.brif", 52);
      ("i32.relop.sk.if", 26); ("i32.relop.sk.set", 26); ("i32.relop.ss.if", 27);
      ("i32.relop.ss.set", 26); ("i64.add.gg.load", 312); ("i64.add.gg.load.set", 52);
      ("i64.add.ggg.store", 52); ("i64.add.ggk.store", 52); ("i64.div.gk", 27);
      ("i64.ext.add.sg.set", 1); ("i64.ext.row.scale.add.gggg.load", 57);
      ("i64.ext.row.scale.add.gggg.load.set", 4);
      ("i64.ext.row.scale.add.ggggg.load.f64.op", 11);
      ("i64.ext.row.scale.add.ggggg.store", 86); ("i64.ext.row.scale.add.ggggk.store", 8);
      ("i64.ext.row.scale.add.gsgg.load", 5); ("i64.ext.row.scale.add.gsgg.load.set", 1);
      ("i64.ext.row.scale.add.gsggg.store", 5); ("i64.ext.row.scale.add.gsggk.store", 2);
      ("i64.ext.row.scale.add.sgggg.load.f64.op", 30);
      ("i64.ext.row.scale.add.sgggg.load.f64.op.set", 6);
      ("i64.ext.row.scale.add.sgsgg.load.f64.op", 9);
      ("i64.ext.row.scale.add.sgsgg.load.f64.op.set", 1);
      ("i64.ext.scale.add.gg.load", 21); ("i64.ext.scale.add.gg.load.set", 3);
      ("i64.ext.scale.add.ggg.load.f64.op", 2);
      ("i64.ext.scale.add.ggg.load.f64.op.set", 1); ("i64.ext.scale.add.ggg.store", 42);
      ("i64.ext.scale.add.ggk.store", 10); ("i64.ext.scale.add.ggs.load.f64.op", 1);
      ("i64.ext.scale.add.ggs.load.f64.op.set.get.set", 1);
      ("i64.ext.scale.add.gs.load", 9); ("i64.ext.scale.add.gsg.store", 1);
      ("i64.ext.scale.add.sgg.load.f64.op", 14);
      ("i64.ext.scale.add.sgg.load.f64.op.set", 2);
      ("i64.ext.scale.add.sgs.load.f64.op", 12);
      ("i64.ext.scale.add.sgs.load.f64.op.set", 1); ("i64.op.gg", 130);
      ("i64.op.gg.set", 26); ("i64.op.gk", 56); ("i64.op.gk.set", 208);
      ("i64.op.gk.set.get.set", 182); ("i64.op.gs.set.get.set", 1); ("i64.op.sk", 1);
      ("i64.op.sk.set", 78); ("i64.op.sk.tee", 1); ("i64.op.ss.set", 1);
      ("i64.relop.gg.eqz.brif", 78); ("i64.relop.gg.if", 78);
      ("i64.relop.gk.eqz.brif", 26); ("i64.relop.gk.if", 156); ("i64.relop.gs.if", 1);
      ("i64.relop.sk.if", 52); ("i64.relop.ss.if", 26); ("i64.scale.add.gg.load.set", 26);
      ("load.g", 2); ("load.g.set", 104); ("load.g.set.get.set", 26); ("load.k", 78);
      ("load.k.set", 104); ("memory.copy.ggg", 52); ("memory.fill.ggg", 26);
      ("return.g", 339); ("return.k", 106); ("segment.free.gg", 26);
      ("segment.new.gg.set", 26); ("segment.new.sk.set", 1); ("segment.set_tag.ssk", 1);
      ("set.g", 298); ("set.k", 517); ("store.gg", 158); ("store.gk", 26);
      ("store.kg", 130) ]

(* The three stock serving tenants (compute, fuzz, malicious), as the
   serving benchmark and the CI smoke run compile them. *)
let test_fusion_tenants_pinned () =
  check_fusion "serving tenants, CAGE" Cage.Config.full
    (List.map
       (fun (t : Serve.Pool.tenant) -> t.tn_module)
       (Harness.Serve_bench.tenants ~seed:1 ()))
    [ 2394; 1605; 169; 0; 838 ]
    [ ("br.guard", 17); ("cvt.g.set", 1); ("cvt.s.set", 2); ("global.set.g", 1);
      ("i32.eqz.g", 6); ("i32.eqz.s.if", 6); ("i32.op.gk", 1);
      ("i32.op.gk.set.get.set", 8); ("i32.op.kg", 1); ("i32.relop.gg.eqz.brif", 1);
      ("i32.relop.gk.eqz.brif", 7); ("i32.relop.sk.eqz.brif", 6); ("i32.relop.sk.if", 3);
      ("i32.relop.sk.set", 3); ("i32.relop.ss.if", 3); ("i32.relop.ss.set", 3);
      ("i64.add.gg.load", 36); ("i64.add.gg.load.set", 6); ("i64.add.ggg.store", 6);
      ("i64.add.ggk.store", 6); ("i64.div.gk", 3); ("i64.div.kk", 27);
      ("i64.div.kk.set.get.set", 1); ("i64.div.ks", 2); ("i64.div.sk", 3);
      ("i64.div.sk.set", 1); ("i64.ext.add.ggk.store", 1);
      ("i64.ext.row.scale.add.ggkg.load", 3); ("i64.ext.row.scale.add.ggkgg.store", 1);
      ("i64.ext.scale.add.gg.load", 2); ("i64.ext.scale.add.ggg.store", 3);
      ("i64.ext.scale.add.ggk.store", 1); ("i64.ext.scale.add.gs.load", 26);
      ("i64.ext.scale.add.gsg.store", 3); ("i64.ext.scale.add.gsk.store", 1);
      ("i64.op.gg", 20); ("i64.op.gg.set", 3); ("i64.op.gk", 20); ("i64.op.gk.set", 24);
      ("i64.op.gk.set.get.set", 18); ("i64.op.gs", 6); ("i64.op.kg", 3); ("i64.op.ks", 7);
      ("i64.op.ks.set.get.set", 1); ("i64.op.sg", 4); ("i64.op.sg.set.get.set", 3);
      ("i64.op.sk", 30); ("i64.op.sk.set", 9); ("i64.op.sk.set.get.set", 1);
      ("i64.op.sk.tee", 1); ("i64.op.ss.set", 3); ("i64.op.ss.set.get.set", 5);
      ("i64.relop.gg.eqz.brif", 6); ("i64.relop.gg.if", 9); ("i64.relop.gk.eqz.brif", 3);
      ("i64.relop.gk.if", 18); ("i64.relop.sk", 1); ("i64.relop.sk.if", 7);
      ("i64.relop.ss.if", 3); ("load.g", 1); ("load.g.set", 12); ("load.g.set.get.set", 3);
      ("load.k", 9); ("load.k.set", 12); ("memory.copy.ggg", 6); ("memory.fill.ggg", 3);
      ("return.g", 33); ("return.k", 12); ("segment.free.gg", 3);
      ("segment.new.gg.set", 3); ("segment.new.sk.set", 1); ("segment.set_tag.ssk", 1);
      ("select.kss", 1); ("set.g", 28); ("set.k", 40); ("store.gg", 18); ("store.gk", 4);
      ("store.kg", 15) ]

(* ------------------------------------------------------------------ *)
(* Lowering parity: register operands and pending charges               *)
(* ------------------------------------------------------------------ *)

(* Run [name] on both engines, with fuel, under a sink whose trace
   advances one tick per instruction: the outcome (values, or the trap
   text), the meter, the fuel left, the memory's bytes, the tick count
   and the timestamped events must be identical. The threaded engine
   reads a folded local or constant where it lives and charges the
   folded instructions' ticks and counts on a later op, so these are
   the shapes where a stale read or a misplaced charge would show.
   Returns the outcome. *)
let lowering_parity ?(config = Instance.default_config) ?(fuel = 10_000) m name args =
  let run engine =
    let meter = Meter.create () in
    let inst =
      Exec.instantiate ~config:{ config with engine; meter = Some meter; fuel } m
    in
    let tr = Obs.Trace.create () in
    let outcome =
      Obs.Hook.with_sink (Obs.Hook.make ~trace:tr ()) (fun () ->
          match Exec.invoke inst name args with
          | vs -> Ok vs
          | exception Instance.Trap msg -> Error (mask_tags msg))
    in
    let events =
      List.map (fun (r : Obs.Trace.record) -> (r.ts, r.payload)) (Obs.Trace.records tr)
    in
    ( outcome, meter, inst.Instance.fuel, Memory.to_string (Instance.memory inst),
      Obs.Trace.clock tr, events )
  in
  let o_i, m_i, f_i, b_i, t_i, e_i = run Instance.Interp in
  let o_t, m_t, f_t, b_t, t_t, e_t = run Instance.Threaded in
  let label what = Printf.sprintf "%s: %s" name what in
  Alcotest.(check bool) (label "outcomes identical") true (o_i = o_t);
  Alcotest.(check bool) (label "meters identical") true (m_i = m_t);
  Alcotest.(check int) (label "fuel identical") f_i f_t;
  Alcotest.(check bool) (label "memory identical") true (String.equal b_i b_t);
  Alcotest.(check int) (label "ticks identical") t_i t_t;
  Alcotest.(check bool) (label "events identical") true (e_i = e_t);
  o_i

let lowering_returns ?config m name args expected =
  match lowering_parity ?config m name args with
  | Ok vs -> Alcotest.(check (list value)) name expected vs
  | Error msg -> Alcotest.failf "%s trapped: %s" name msg

let lowering_traps ?config ?fuel m name args substring =
  match lowering_parity ?config ?fuel m name args with
  | Ok _ -> Alcotest.failf "%s: expected a trap containing %S" name substring
  | Error msg ->
      if not (Astring.String.is_infix ~affix:substring msg) then
        Alcotest.failf "%s: trap %S does not mention %S" name msg substring

let lowering_module =
  let open Ast in
  let i32 = Types.I32 and i64 = Types.I64 in
  let ma = { offset = 0L; align = 0 } in
  let add = IBinop (W32, Add) in
  module_of
    [ (* f0: local 0 is read, then written while the read is pending *)
      ( ft [ i32; i32 ] [ i32 ], [],
        [ LocalGet 0; LocalGet 0; LocalGet 1; LocalSet 0; IBinop (W32, Mul); LocalGet 0;
          add ] );
      (* f1: local.tee of a local whose earlier read is pending *)
      ( ft [ i32; i32 ] [ i32 ], [],
        [ LocalGet 1; LocalGet 0; LocalTee 1; IBinop (W32, Sub); LocalGet 1;
          IBinop (W32, Mul) ] );
      (* f2: values carried out of block and if results, and by br_table
         and br_if, with folded operands below and on top *)
      ( ft [ i32; i32 ] [ i32 ], [],
        [ I32Const 1000l;
          Block
            ( ValBlock (Some i32),
              [ Block
                  (ValBlock (Some i32), [ LocalGet 0; LocalGet 1; BrTable ([ 0; 1 ], 1) ]);
                I32Const 100l; add ] );
          Block
            (ValBlock (Some i32), [ LocalGet 0; LocalGet 1; BrIf 0; Drop; I32Const 7l ]);
          add;
          LocalGet 1;
          If (ValBlock (Some i32), [ LocalGet 0 ], [ I32Const 11l ]);
          add; add ] );
      (* f3: select on locals and constants *)
      ( ft [ i32; i32 ] [ i32 ], [],
        [ LocalGet 0; I32Const 9l; LocalGet 1; Select; I32Const 4l; LocalGet 1; I32Const 0l;
          Select; add ] );
      (* f4: a call with local and constant arguments *)
      ( ft [ i32; i32 ] [ i32 ], [],
        [ LocalGet 0; I32Const 7l; LocalGet 1; Call 5; LocalGet 0; add ] );
      (* f5: 100a + 10b + c *)
      ( ft [ i32; i32; i32 ] [ i32 ], [],
        [ LocalGet 0; I32Const 100l; IBinop (W32, Mul); LocalGet 1; I32Const 10l;
          IBinop (W32, Mul); add; LocalGet 2; add ] );
      (* f6: a division by a zero local, with folded operands pending *)
      ( ft [ i32; i32 ] [ i32 ], [],
        [ I32Const 1l; LocalGet 0; LocalGet 1; IBinop (W32, DivS); add ] );
      (* f7: a store and a load through local addresses; out of bounds,
         the load traps with its operands folded *)
      ( ft [ i64; i32 ] [ i32 ], [],
        [ I64Const 16L; LocalGet 1; Store (i32, None, ma); LocalGet 0;
          Load (i32, None, ma); LocalGet 1; add ] );
      (* f8: a loop whose back-edge runs out of fuel *)
      ( ft [ i32 ] [], [],
        [ Loop (ValBlock None, [ LocalGet 0; I32Const 1l; add; LocalSet 0; Br 0 ]) ] ) ]

let test_lowering_pending_write () =
  (* the old local 0 squared, plus the new local 0 *)
  lowering_returns lowering_module "f0" [ Values.I32 3l; Values.I32 4l ] [ Values.I32 13l ]

let test_lowering_tee () =
  (* (old local 1 - local 0) times the new local 1 *)
  lowering_returns lowering_module "f1" [ Values.I32 3l; Values.I32 7l ] [ Values.I32 12l ]

let test_lowering_carried () =
  List.iter
    (fun (b, expected) ->
      lowering_returns lowering_module "f2" [ Values.I32 5l; Values.I32 b ] [ Values.I32 expected ])
    [ (0l, 1123l); (1l, 1015l); (2l, 1015l) ]

let test_lowering_select () =
  lowering_returns lowering_module "f3" [ Values.I32 5l; Values.I32 1l ] [ Values.I32 6l ];
  lowering_returns lowering_module "f3" [ Values.I32 5l; Values.I32 0l ] [ Values.I32 9l ]

let test_lowering_call () =
  lowering_returns lowering_module "f4" [ Values.I32 2l; Values.I32 3l ] [ Values.I32 275l ]

let test_lowering_traps () =
  lowering_returns lowering_module "f6" [ Values.I32 6l; Values.I32 3l ] [ Values.I32 3l ];
  lowering_traps lowering_module "f6" [ Values.I32 6l; Values.I32 0l ] "integer divide by zero";
  lowering_returns lowering_module "f7" [ Values.I64 16L; Values.I32 21l ] [ Values.I32 42l ];
  lowering_traps lowering_module "f7" [ Values.I64 0x10_0000L; Values.I32 21l ]
    "bounds: out of bounds";
  lowering_traps ~fuel:100 lowering_module "f8" [ Values.I32 0l ] "fuel"

(* The idioms [m]'s functions are lowered as include [names]: the
   shapes a test builds reach the rule it tests. *)
let lowered_as m names =
  let idioms =
    List.concat_map (fun (s : Xcode.stats) -> List.map fst s.st_idioms) (Compile.module_stats m)
  in
  List.iter
    (fun name -> if not (List.mem name idioms) then Alcotest.failf "no op is lowered as %s" name)
    names

let mem32 = { mem64 with Types.mem_idx = Types.Idx32 }

(* Row-major accesses [base + (x * y + z) * 8] in the memory's index
   width, whose address step absorbs [x; y; i32.mul; z; i32.add].
   Parameters: base, i, j; locals: n (set to 5), k (i * n + j, computed
   apart) and t. Each function first stores through [k]'s address, the
   plain step, and reads or writes the same word through the row. *)
let row_module idx =
  let open Ast in
  let w, konst, ext, addr_ty, memory =
    match idx with
    | Types.Idx32 -> (W32, (fun c -> I32Const (Int64.to_int32 c)), [], Types.I32, mem32)
    | Types.Idx64 -> (W64, (fun c -> I64Const c), [ Cvtop I64ExtendI32S ], Types.I64, mem64)
  in
  let i32 = Types.I32 and i64 = Types.I64 and f64 = Types.F64 in
  let ld ty = Load (ty, None, { offset = 0L; align = 0 }) in
  let st ty = Store (ty, None, { offset = 0L; align = 0 }) in
  let step = ext @ [ konst 8L; IBinop (w, Mul); IBinop (w, Add) ] in
  (* base + (x * y + z) * 8 *)
  let row x y z = (LocalGet 0 :: x) @ y @ [ IBinop (W32, Mul) ] @ z @ [ IBinop (W32, Add) ] @ step in
  let ij = row [ LocalGet 1 ] [ LocalGet 3 ] [ LocalGet 2 ] in
  (* n = 5, k = i * n + j, then [v] stored through k *)
  let at_k v =
    [ I32Const 5l; LocalSet 3; LocalGet 1; LocalGet 3; IBinop (W32, Mul); LocalGet 2;
      IBinop (W32, Add); LocalSet 4; LocalGet 0; LocalGet 4 ]
    @ step @ v
  in
  let f results body = (ft [ addr_ty; i32; i32 ] results, [ i32; i32; i32 ], body) in
  module_of ~memory:(Some memory)
    [ (* f0: a load *)
      f [ i64 ] (at_k [ I64Const 7007L; st i64 ] @ ij @ [ ld i64 ]);
      (* f1: a load whose value an f64 add folds into a constant *)
      f [ f64 ] (at_k [ F64Const 2.5; st f64 ] @ [ F64Const 0.25 ] @ ij @ [ ld f64; FBinop (W64, FAdd) ]);
      (* f2: a store of a constant, read back through k *)
      f [ i64 ] ([ I32Const 5l; LocalSet 3 ] @ ij @ [ I64Const 99L; st i64 ] @ at_k [ ld i64 ]);
      (* f3: x a slot (i + 1), z a constant: the word at (i + 1) * n + 3,
         which is k for j = n + 3 *)
      f [ i64 ]
        (at_k [ I64Const 1L; st i64 ]
        @ row [ LocalGet 1; I32Const 1l; IBinop (W32, Add) ] [ LocalGet 3 ] [ I32Const 3l ]
        @ [ ld i64 ]);
      (* f4: a load through the row alone, for indexes out of bounds *)
      f [ i64 ] ([ I32Const 5l; LocalSet 3 ] @ ij @ [ ld i64 ]);
      (* f5-f7: the loaded value written to x, y or z, then i + n + j *)
      f [ i32 ] (at_k [ I64Const 7007L; st i64 ] @ ij @ [ ld i32; LocalSet 1; LocalGet 1; LocalGet 3; IBinop (W32, Add); LocalGet 2; IBinop (W32, Add) ]);
      f [ i32 ] (at_k [ I64Const 7007L; st i64 ] @ ij @ [ ld i32; LocalSet 3; LocalGet 1; LocalGet 3; IBinop (W32, Add); LocalGet 2; IBinop (W32, Add) ]);
      f [ i32 ] (at_k [ I64Const 7007L; st i64 ] @ ij @ [ ld i32; LocalSet 2; LocalGet 1; LocalGet 3; IBinop (W32, Add); LocalGet 2; IBinop (W32, Add) ]);
      (* f8: the loaded value written to x through a single-use
         temporary, then i + n + j *)
      f [ i32 ]
        (at_k [ I64Const 7007L; st i64 ] @ ij
        @ [ ld i32; LocalSet 5; LocalGet 5; LocalSet 1; LocalGet 1; LocalGet 3; IBinop (W32, Add);
            LocalGet 2; IBinop (W32, Add) ]) ]

let test_lowering_row_index () =
  let cage = Cage.Config.instance_config Cage.Config.full in
  List.iter
    (fun (idx, config, base) ->
      let m = row_module idx in
      let w = match idx with Types.Idx32 -> "i32.row" | Types.Idx64 -> "i64.ext.row" in
      lowered_as m
        [ w ^ ".scale.add.gggg.load"; w ^ ".scale.add.kgggg.load.f64.op";
          w ^ ".scale.add.ggggk.store"; w ^ ".scale.add.gsgk.load"; w ^ ".scale.add.gggg.load.set";
          w ^ ".scale.add.gggg.load.set.get.set" ];
      let args i j = [ base; Values.I32 i; Values.I32 j ] in
      let returns ?(i = 1l) ?(j = 2l) f v = lowering_returns ?config m f (args i j) [ v ] in
      returns "f0" (Values.I64 7007L);
      returns ~i:(-1l) ~j:9l "f0" (Values.I64 7007L);
      returns "f1" (Values.F64 2.75);
      returns "f2" (Values.I64 99L);
      returns ~j:8l "f3" (Values.I64 1L);
      lowering_traps ?config m "f4" (args 100_000l 2l) "out of bounds";
      lowering_traps ?config m "f4" (args (-100l) 0l) "bounds:";
      returns "f5" (Values.I32 7014l);
      returns "f6" (Values.I32 7010l);
      returns "f7" (Values.I32 7013l);
      returns "f8" (Values.I32 7014l))
    [ (Types.Idx32, None, Values.I32 64l); (Types.Idx64, None, Values.I64 64L);
      (Types.Idx64, Some cage, Values.I64 64L) ]

(* A counting loop whose first op is its guard, [i >= n; br_if 1]: the
   back-edge runs the guard in its own op. Fuel is burned at the call,
   the guard, and then per iteration at the [br], the loop's re-entry
   and the guard again; budgets of 11, 12 and 13 run out at each of
   the three. *)
let test_lowering_guarded_loop () =
  let open Ast in
  let m =
    module_of
      [ ( ft [ Types.I32 ] [ Types.I32 ], [ Types.I32; Types.I32 ],
          [ Block
              ( ValBlock None,
                [ Loop
                    ( ValBlock None,
                      [ LocalGet 1; LocalGet 0; IRelop (W32, GeS); BrIf 1; LocalGet 2; LocalGet 1;
                        IBinop (W32, Add); LocalSet 2; LocalGet 1; I32Const 1l; IBinop (W32, Add);
                        LocalSet 1; Br 0 ] ) ] );
            LocalGet 2 ] ) ]
  in
  lowered_as m [ "br.guard"; "i32.relop.gg.brif" ];
  lowering_returns m "f0" [ Values.I32 10l ] [ Values.I32 45l ];
  lowering_returns m "f0" [ Values.I32 0l ] [ Values.I32 0l ];
  List.iter
    (fun fuel -> lowering_traps ~fuel m "f0" [ Values.I32 100l ] "fuel")
    [ 11; 12; 13 ]

(* Single-use temporaries: [local.get a; local.set t] emits nothing and
   [t]'s read reads [a], unless [a] is written, a label intervenes or a
   branch leaves first; then [t] takes its value. Locals past the
   parameters are the temporaries. *)
let test_lowering_temporaries () =
  let open Ast in
  let i32 = Types.I32 in
  let gt0 = [ LocalGet 0; I32Const 0l; IRelop (W32, GtS) ] in
  let m =
    module_of
      [ (* f0: a write of the source: 2a + 1 *)
        ( ft [ i32 ] [ i32 ], [ i32 ],
          [ LocalGet 0; LocalSet 1; LocalGet 0; I32Const 1l; IBinop (W32, Add); LocalSet 0;
            LocalGet 1; LocalGet 0; IBinop (W32, Add) ] );
        (* f1: a compare-folded br_if to a block's end: a *)
        ( ft [ i32 ] [ i32 ], [ i32 ],
          [ LocalGet 0; LocalSet 1; Block (ValBlock None, gt0 @ [ BrIf 0; Nop ]); LocalGet 1 ] );
        (* f2: a compare-folded if: a *)
        ( ft [ i32 ] [ i32 ], [ i32 ],
          [ LocalGet 0; LocalSet 1 ] @ gt0 @ [ If (ValBlock None, [ Nop ], [ Nop ]); LocalGet 1 ] );
        (* f3: a block's end that a branch reaches: b ? 0 : a *)
        ( ft [ i32; i32 ] [ i32 ], [ i32 ],
          [ Block (ValBlock None, [ LocalGet 1; BrIf 0; LocalGet 0; LocalSet 2 ]); LocalGet 2 ] );
        (* f4: a back-edge: the sum of t over n iterations, t = 0 and then
           k, so (n - 1) * k *)
        ( ft [ i32; i32 ] [ i32 ], [ i32; i32; i32 ],
          [ Block
              ( ValBlock None,
                [ Loop
                    ( ValBlock None,
                      [ LocalGet 2; LocalGet 0; IRelop (W32, GeS); BrIf 1; LocalGet 4; LocalGet 3;
                        IBinop (W32, Add); LocalSet 4; LocalGet 2; I32Const 1l; IBinop (W32, Add);
                        LocalSet 2; LocalGet 1; LocalSet 3; Br 0 ] ) ] );
            LocalGet 4 ] );
        (* f5: a result written through a temporary to one of the op's
           own operands: (a - b) * 10 + b *)
        ( ft [ i32; i32 ] [ i32 ], [ i32 ],
          [ LocalGet 0; LocalGet 1; IBinop (W32, Sub); LocalSet 2; LocalGet 2; LocalSet 0;
            LocalGet 0; I32Const 10l; IBinop (W32, Mul); LocalGet 1; IBinop (W32, Add) ] );
        (* f6: a constant's temporary: a + 7 *)
        ( ft [ i32 ] [ i32 ], [ i32 ],
          [ I32Const 7l; LocalSet 1; LocalGet 0; LocalGet 1; IBinop (W32, Add) ] );
        (* f7: a loop's head, with the source written in the loop: the
           sum of t = a over n iterations, n * a *)
        ( ft [ i32; i32 ] [ i32 ], [ i32; i32; i32 ],
          [ LocalGet 0; LocalSet 2;
            Block
              ( ValBlock None,
                [ Loop
                    ( ValBlock None,
                      [ LocalGet 3; LocalGet 1; IRelop (W32, GeS); BrIf 1; LocalGet 4; LocalGet 2;
                        IBinop (W32, Add); LocalSet 4; LocalGet 0; I32Const 1l; IBinop (W32, Add);
                        LocalSet 0; LocalGet 3; I32Const 1l; IBinop (W32, Add); LocalSet 3; Br 0 ] ) ] );
            LocalGet 4 ] );
        (* f8: the end of an if's then arm, which jumps over the else
           arm: c ? a : 0 *)
        ( ft [ i32; i32 ] [ i32 ], [ i32 ],
          [ LocalGet 0; If (ValBlock None, [ LocalGet 1; LocalSet 2 ], [ Nop ]); LocalGet 2 ] ) ]
  in
  lowered_as m [ "i32.op.gg.set.get.set"; "i32.op.gk" ];
  (match List.concat_map (fun (s : Xcode.stats) -> s.st_idioms) (Compile.module_stats m) with
  | idioms when List.mem_assoc "set.g" idioms || List.mem_assoc "set.k" idioms ->
      Alcotest.fail "a temporary's local.set was lowered to a move"
  | _ -> ());
  let returns f args v = lowering_returns m f (List.map (fun a -> Values.I32 a) args) [ Values.I32 v ] in
  returns "f0" [ 20l ] 41l;
  returns "f1" [ 5l ] 5l;
  returns "f1" [ -5l ] (-5l);
  returns "f2" [ 5l ] 5l;
  returns "f2" [ -5l ] (-5l);
  returns "f3" [ 9l; 1l ] 0l;
  returns "f3" [ 9l; 0l ] 9l;
  returns "f4" [ 4l; 10l ] 30l;
  returns "f5" [ 7l; 3l ] 43l;
  returns "f6" [ 5l ] 12l;
  returns "f7" [ 5l; 3l ] 15l;
  returns "f8" [ 1l; 9l ] 9l;
  returns "f8" [ 0l; 9l ] 0l

(* An i64 address step [a + b * c] reads its index whole: with bits 62
   and 63 of the operands unequal, a 63-bit index would change the
   step's value, or the address a non-canonical trap reports. *)
let test_lowering_i64_step () =
  let open Ast in
  let i64 = Types.I64 in
  let m =
    module_of
      [ ( ft [ i64; i64 ] [ i64 ], [],
          [ LocalGet 0; LocalGet 1; I64Const 3L; IBinop (W64, Mul); IBinop (W64, Add) ] );
        ( ft [ i64; i64 ] [ i64 ], [],
          [ LocalGet 0; LocalGet 1; I64Const 8L; IBinop (W64, Mul); IBinop (W64, Add);
            Load (i64, None, { offset = 0L; align = 0 }) ] ) ]
  in
  lowered_as m [ "i64.scale.add.gg"; "i64.scale.add.gg.load" ];
  List.iter
    (fun (a, b) ->
      lowering_returns m "f0" [ Values.I64 a; Values.I64 b ] [ Values.I64 Int64.(add a (mul b 3L)) ];
      let p = Int64.(add a (mul b 8L)) in
      if Int64.logand p 0x00ff_0000_0000_0000L <> 0L then
        lowering_traps m "f1" [ Values.I64 a; Values.I64 b ]
          (Printf.sprintf "bounds: non-canonical address 0x%Lx" p))
    [ (0x4000_0000_0000_0010L, 0x8800_2000_0000_0000L);
      (0x7fff_ffff_ffff_ffffL, 0x4000_0000_0000_0001L);
      (0x8000_0000_0000_0000L, 0x4001_0000_0000_0000L) ]

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
          Alcotest.test_case "elided bounds wrap at 2^48" `Quick
            test_elided_bounds_wraps_48_bits;
          Alcotest.test_case "no allocation" `Quick test_access_no_allocation;
          Alcotest.test_case "tag scan: no allocation" `Quick
            test_scan_no_allocation;
        ] );
      ( "operators",
        [
          Alcotest.test_case "numeric operators: no allocation" `Quick
            test_operators_no_allocation;
        ] );
      ( "slots",
        [
          Alcotest.test_case "round trips keep every bit" `Quick
            test_slot_round_trips;
        ] );
      ( "memory",
        [
          Alcotest.test_case "grow overflow fails" `Quick
            test_grow_overflow_fails;
          Alcotest.test_case "empty spans past the prefix" `Quick
            test_empty_spans_past_prefix;
          Alcotest.test_case "polybench commits at most 256 KiB" `Quick
            test_polybench_commits;
          Alcotest.test_case "tag checks past the tag prefix" `Quick
            test_tag_plane_past_prefix;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "a pending read of a written local" `Quick
            test_lowering_pending_write;
          Alcotest.test_case "local.tee of a pending local" `Quick test_lowering_tee;
          Alcotest.test_case "values carried by blocks and branches" `Quick
            test_lowering_carried;
          Alcotest.test_case "select on locals and constants" `Quick test_lowering_select;
          Alcotest.test_case "a call with local and constant arguments" `Quick
            test_lowering_call;
          Alcotest.test_case "traps with folded operands pending" `Quick
            test_lowering_traps;
          Alcotest.test_case "row-major indexes in the address step" `Quick
            test_lowering_row_index;
          Alcotest.test_case "a back-edge runs its loop's guard" `Quick
            test_lowering_guarded_loop;
          Alcotest.test_case "single-use temporaries" `Quick test_lowering_temporaries;
          Alcotest.test_case "an i64 step reads its index whole" `Quick
            test_lowering_i64_step;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "polybench idiom counts pinned" `Quick
            test_fusion_pinned;
          Alcotest.test_case "serving tenants idiom counts pinned" `Quick
            test_fusion_tenants_pinned;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "exhaustion identical" `Quick
            test_fuel_exhaustion_identical;
          Alcotest.test_case "remaining identical" `Quick
            test_fuel_remaining_identical;
        ] );
    ]
