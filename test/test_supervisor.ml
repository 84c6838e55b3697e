(* Tests for the chaos-injection substrate (Arch.Fault_inject), the
   crash-containment supervisor (Cage.Supervisor) with its MTE-style
   post-mortems, the partial-write semantics of the checked bulk
   operations under fault, and the detection matrix. *)

open Wasm

let value = Alcotest.testable Values.pp Values.equal

(* ------------------------------------------------------------------ *)
(* Builders (same shapes as test_wasm)                                  *)
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

let supervised ?fuel cfg m =
  let proc = Cage.Process.create ~config:cfg ~seed:11 () in
  let sup = Cage.Supervisor.create ?fuel proc in
  let inst = Cage.Supervisor.spawn sup m in
  (sup, inst)

let crash_of = function
  | Cage.Supervisor.Crashed pm -> pm
  | Cage.Supervisor.Finished _ -> Alcotest.fail "expected a crash"

let mem_byte (inst : Instance.t) addr =
  Memory.load_byte (Option.get inst.Instance.mem) (Int64.of_int addr)

(* ------------------------------------------------------------------ *)
(* Fault_inject engine                                                  *)
(* ------------------------------------------------------------------ *)

(* Replay a fixed draw schedule against an engine and record what
   fired. Two engines from the same policy must agree exactly. *)
let draw_trace pol sched =
  let ln = Arch.Fault_inject.lane (Arch.Fault_inject.create pol) 0 in
  List.map
    (fun site ->
      let fired = Arch.Fault_inject.draw ln site in
      (fired, if fired then Arch.Fault_inject.rand_int ln 1000 else -1))
    sched

let test_engine_deterministic () =
  let pol =
    Arch.Fault_inject.policy ~seed:42 ~probability:0.5 ~max_injections:10
      [ Arch.Fault_inject.Tag_flip; Arch.Fault_inject.Ptr_tag ]
  in
  let sched =
    List.concat
      (List.init 20 (fun _ ->
           [ Arch.Fault_inject.Tag_flip; Arch.Fault_inject.Ptr_tag;
             Arch.Fault_inject.Pac_forge ]))
  in
  Alcotest.(check bool) "same policy replays the same fault sequence" true
    (draw_trace pol sched = draw_trace pol sched)

let test_engine_budget_and_filter () =
  let pol =
    Arch.Fault_inject.policy ~seed:1 ~max_injections:2
      [ Arch.Fault_inject.Tag_flip ]
  in
  let e = Arch.Fault_inject.create pol in
  let ln = Arch.Fault_inject.lane e 0 in
  Alcotest.(check bool) "unarmed site never fires" false
    (Arch.Fault_inject.draw ln Arch.Fault_inject.Pac_forge);
  Alcotest.(check bool) "first draw fires" true
    (Arch.Fault_inject.draw ln Arch.Fault_inject.Tag_flip);
  Alcotest.(check bool) "second draw fires" true
    (Arch.Fault_inject.draw ln Arch.Fault_inject.Tag_flip);
  Alcotest.(check bool) "budget exhausted" false
    (Arch.Fault_inject.draw ln Arch.Fault_inject.Tag_flip);
  Alcotest.(check int) "two injections recorded" 2 (Arch.Fault_inject.count e)

let test_engine_site_max () =
  let pol =
    Arch.Fault_inject.policy ~seed:1 ~max_injections:100
      ~site_max:[ (Arch.Fault_inject.Tag_flip, 1) ]
      [ Arch.Fault_inject.Tag_flip; Arch.Fault_inject.Tfsr_drop ]
  in
  let ln = Arch.Fault_inject.lane (Arch.Fault_inject.create pol) 0 in
  Alcotest.(check bool) "capped site fires once" true
    (Arch.Fault_inject.draw ln Arch.Fault_inject.Tag_flip);
  Alcotest.(check bool) "capped site is then exhausted" false
    (Arch.Fault_inject.draw ln Arch.Fault_inject.Tag_flip);
  Alcotest.(check bool) "uncapped site still fires" true
    (Arch.Fault_inject.draw ln Arch.Fault_inject.Tfsr_drop)

(* ------------------------------------------------------------------ *)
(* Trap-message classification                                          *)
(* ------------------------------------------------------------------ *)

let test_classify_taxonomy () =
  let check msg cls =
    Alcotest.(check string) msg
      (Cage.Supervisor.fault_class_to_string cls)
      (Cage.Supervisor.fault_class_to_string (Cage.Supervisor.classify msg))
  in
  check "tag fault: store of 8 byte(s)" Cage.Supervisor.Tag_fault;
  check "deferred: tag fault: load" Cage.Supervisor.Deferred_tag_fault;
  check "pac auth: invalid signature" Cage.Supervisor.Pac_auth;
  check "bounds: out of bounds memory access" Cage.Supervisor.Bounds;
  check "bounds: non-canonical address 0x2000000000000" Cage.Supervisor.Bounds;
  check "fuel: execution budget exhausted" Cage.Supervisor.Fuel;
  check "stack: call stack exhausted (depth 1025)" Cage.Supervisor.Stack;
  check "unreachable executed" Cage.Supervisor.Unreachable;
  check "integer divide by zero" Cage.Supervisor.Guest_trap

(* ------------------------------------------------------------------ *)
(* Satellite 1: a latched deferred fault survives a synchronous trap    *)
(* ------------------------------------------------------------------ *)

let memarg offset = { Ast.offset; align = 0 }

(* Allocate + free a segment, store through the stale pointer (Async:
   latches in the TFSR), then trap out-of-bounds. The latched fault
   must surface in the post-mortem, not silently vanish with the
   unwound interpreter. *)
let test_pending_fault_survives_sync_trap () =
  let m =
    module_of
      [ (ft [] [], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L;
           Ast.LocalGet 0; Ast.I64Const 1L;
           Ast.Store (Types.I64, None, memarg 0L);
           Ast.I64Const 100000L; Ast.Load (Types.I64, None, memarg 0L);
           Ast.Drop ]) ]
  in
  let cfg = { Cage.Config.mem_safety with Cage.Config.mte_mode = Arch.Mte.Async } in
  let sup, inst = supervised cfg m in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  Alcotest.(check string) "the synchronous trap is the bounds violation"
    "bounds violation"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  (match pm.Cage.Supervisor.pm_pending with
  | Some f ->
      Alcotest.(check bool) "drained TFSR holds the store fault" true
        (f.Arch.Mte.fault_access = Arch.Mte.Store);
      Alcotest.(check int64) "at the freed segment" 1024L f.Arch.Mte.fault_addr
  | None ->
      Alcotest.fail
        "deferred fault latched before the trap was lost by the unwind");
  (* the TFSR was drained INTO the post-mortem: nothing may leak into
     the next invocation's report *)
  (match inst.Instance.mte with
  | Some mte ->
      Alcotest.(check bool) "TFSR empty after the post-mortem" true
        (Arch.Mte.pending_fault mte = None)
  | None -> Alcotest.fail "mem_safety instance has an MTE engine");
  Alcotest.(check (list string)) "backtrace froze the faulting frame"
    [ "f0" ] pm.Cage.Supervisor.pm_backtrace

let test_deferred_report_post_mortem () =
  (* same scenario without the bounds trap: the deferred fault is
     reported at function return and becomes the structured fault *)
  let m =
    module_of
      [ (ft [] [], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L;
           Ast.LocalGet 0; Ast.I64Const 1L;
           Ast.Store (Types.I64, None, memarg 0L) ]) ]
  in
  let cfg = { Cage.Config.mem_safety with Cage.Config.mte_mode = Arch.Mte.Async } in
  let sup, inst = supervised cfg m in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  Alcotest.(check string) "classified as a deferred tag fault"
    "deferred tag fault"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  match pm.Cage.Supervisor.pm_fault with
  | Some f ->
      Alcotest.(check bool) "structured fault is the store" true
        (f.Arch.Mte.fault_access = Arch.Mte.Store)
  | None -> Alcotest.fail "post-mortem lacks the structured fault"

(* ------------------------------------------------------------------ *)
(* Satellite 3: PAC authentication failures under FEAT_FPAC             *)
(* ------------------------------------------------------------------ *)

let sign_auth_module =
  module_of
    [ (ft [ Types.I64 ] [ Types.I64 ], [],
       [ Ast.LocalGet 0; Ast.PointerSign ]);
      (ft [ Types.I64 ] [ Types.I64 ], [],
       [ Ast.LocalGet 0; Ast.PointerAuth ]) ]

let test_pac_cross_instance_pointer () =
  (* §6.3: one process key, per-instance modifiers — a pointer signed
     in instance A must not authenticate in instance B *)
  let proc = Cage.Process.create ~config:Cage.Config.ptr_auth ~seed:5 () in
  let sup = Cage.Supervisor.create proc in
  let a = Cage.Supervisor.spawn sup sign_auth_module in
  let b = Cage.Supervisor.spawn sup sign_auth_module in
  let signed =
    match Cage.Supervisor.run sup a "f0" [ Values.I64 1234L ] with
    | Cage.Supervisor.Finished [ v ] -> v
    | _ -> Alcotest.fail "signing crashed"
  in
  (match Cage.Supervisor.run sup a "f1" [ signed ] with
  | Cage.Supervisor.Finished vs ->
      Alcotest.(check (list value)) "same instance authenticates"
        [ Values.I64 1234L ] vs
  | Cage.Supervisor.Crashed _ -> Alcotest.fail "same-instance auth crashed");
  let pm = crash_of (Cage.Supervisor.run sup b "f1" [ signed ]) in
  Alcotest.(check string) "cross-instance auth is a PAC failure"
    "pac auth failure"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check bool) "message carries the pac auth prefix" true
    (Astring.String.is_prefix ~affix:"pac auth:" pm.Cage.Supervisor.pm_message);
  Alcotest.(check bool) "faulting instance is quarantined" true
    (Cage.Supervisor.is_quarantined sup b);
  Alcotest.(check bool) "signer is not" false
    (Cage.Supervisor.is_quarantined sup a)

let pac_engine_crash site =
  let m =
    module_of
      [ (ft [ Types.I64 ] [ Types.I64 ], [],
         [ Ast.LocalGet 0; Ast.PointerSign; Ast.PointerAuth ]) ]
  in
  let sup, inst = supervised Cage.Config.ptr_auth m in
  let engine =
    Arch.Fault_inject.create (Arch.Fault_inject.policy ~seed:9 [ site ])
  in
  Instance.arm inst (Arch.Fault_inject.lane engine 0);
  let outcome = Cage.Supervisor.run sup inst "f0" [ Values.I64 99L ] in
  Alcotest.(check int) "the chaos engine fired" 1
    (Arch.Fault_inject.count engine);
  outcome

let test_pac_forged_signature () =
  let pm = crash_of (pac_engine_crash Arch.Fault_inject.Pac_forge) in
  Alcotest.(check string) "a flipped signature bit fails autda"
    "pac auth failure"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check bool) "post-mortem lists the injection" true
    (List.exists
       (fun s -> Astring.String.is_infix ~affix:"pac-forge" s)
       pm.Cage.Supervisor.pm_injections)

let test_pac_stripped_signature () =
  let pm = crash_of (pac_engine_crash Arch.Fault_inject.Pac_strip) in
  Alcotest.(check string) "a stripped (xpacd) signature fails autda"
    "pac auth failure"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class)

(* One engine can arm every instance of a process, so a post-mortem
   must list only what was injected into the crashed instance's own
   lane during the crashed invocation: a sibling's injection is not
   its. *)
let test_post_mortem_own_lane_only () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.Load (Types.I64, None, memarg 0L) ]);
        (ft [] [], [], [ Ast.Unreachable ]) ]
  in
  let sup, victim = supervised Cage.Config.mem_safety m in
  let sibling = Cage.Supervisor.spawn sup m in
  let engine =
    Arch.Fault_inject.create
      (Arch.Fault_inject.policy ~seed:3 [ Arch.Fault_inject.Ptr_sig ])
  in
  Instance.arm victim (Arch.Fault_inject.lane engine 0);
  Instance.arm sibling (Arch.Fault_inject.lane engine 1);
  let vpm = crash_of (Cage.Supervisor.run sup victim "f0" []) in
  let spm = crash_of (Cage.Supervisor.run sup sibling "f1" []) in
  Alcotest.(check (pair int int)) "victim on lane 0, sibling on lane 1" (0, 1)
    (Arch.Fault_inject.lane_number (Option.get victim.Instance.chaos),
     Arch.Fault_inject.lane_number (Option.get sibling.Instance.chaos));
  Alcotest.(check bool) "victim's post-mortem lists its injection" true
    (List.exists
       (fun s -> Astring.String.is_infix ~affix:"ptr-sig" s)
       vpm.Cage.Supervisor.pm_injections);
  Alcotest.(check string) "sibling trapped on its own" "unreachable"
    (Cage.Supervisor.fault_class_to_string spm.Cage.Supervisor.pm_class);
  Alcotest.(check (list string)) "sibling's post-mortem lists no injection" []
    spm.Cage.Supervisor.pm_injections

(* Two engines live at once, each armed on its own instance of one
   process, and a third instance left unarmed: an invocation draws only
   on its own instance's lane, so both engines see the same site
   sequence however the invocations interleave, and the unarmed
   instance draws nothing. MTE is off, so no injection crashes. *)
let test_arming_isolates () =
  let m =
    module_of
      [ (ft [] [ Types.I64 ], [ Types.I64 ],
         [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalTee 0; Ast.Load (Types.I64, None, memarg 0L);
           Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L ]) ]
  in
  let cfg =
    { Cage.Config.mem_safety with Cage.Config.mte_mode = Arch.Mte.Disabled }
  in
  let sup, a = supervised cfg m in
  let b = Cage.Supervisor.spawn sup m and idle = Cage.Supervisor.spawn sup m in
  let pol =
    Arch.Fault_inject.policy ~seed:5 ~probability:0.5 ~max_injections:100
      Arch.Fault_inject.[ Ptr_tag; Heap_scribble ]
  in
  let ea = Arch.Fault_inject.create pol and eb = Arch.Fault_inject.create pol in
  Instance.arm a (Arch.Fault_inject.lane ea 0);
  Instance.arm b (Arch.Fault_inject.lane eb 0);
  List.iter
    (fun (name, inst) ->
      let ca = Arch.Fault_inject.count ea and cb = Arch.Fault_inject.count eb in
      (match Cage.Supervisor.run sup inst "f0" [] with
      | Cage.Supervisor.Finished _ -> ()
      | Cage.Supervisor.Crashed pm ->
          Alcotest.failf "%s crashed: %s" name pm.Cage.Supervisor.pm_message);
      if name <> "A" then
        Alcotest.(check int) (name ^ " leaves A's count alone") ca
          (Arch.Fault_inject.count ea);
      if name <> "B" then
        Alcotest.(check int) (name ^ " leaves B's count alone") cb
          (Arch.Fault_inject.count eb))
    [ ("A", a); ("B", b); ("A", a); ("B", b); ("unarmed", idle);
      ("B", b); ("A", a); ("B", b); ("A", a); ("unarmed", idle) ];
  let sites e =
    List.map
      (fun (i : Arch.Fault_inject.injection) -> i.inj_site)
      (Arch.Fault_inject.injections (Arch.Fault_inject.lane e 0))
  in
  Alcotest.(check bool) "the engines fired" true (sites ea <> []);
  Alcotest.(check bool) "both engines drew the same site sequence" true
    (sites ea = sites eb)

(* ------------------------------------------------------------------ *)
(* Satellite 4: partial-write semantics of bulk ops under fault         *)
(* ------------------------------------------------------------------ *)

(* A 32-byte tagged segment at 1024 inside a 64-byte fill span: the
   granule at 1056 has a different (untagged) tag, so the store span
   mismatches 32 bytes in. *)
let fill_overrun_module =
  module_of
    [ (ft [] [], [ Types.I64 ],
       [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
         Ast.LocalSet 0;
         Ast.LocalGet 0; Ast.I32Const 0xabl; Ast.I64Const 64L;
         Ast.MemoryFill ]) ]

let count_bytes inst v ~from ~len =
  let n = ref 0 in
  for a = from to from + len - 1 do
    if mem_byte inst a = v then incr n
  done;
  !n

let test_fill_partial_write_sync () =
  let cfg = Cage.Config.mem_safety in
  let sup, inst = supervised cfg fill_overrun_module in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  Alcotest.(check string) "synchronous tag fault" "tag fault"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check int) "exactly the bytes before the faulting granule land"
    32
    (count_bytes inst 0xab ~from:1024 ~len:64);
  Alcotest.(check int) "nothing past the mismatch" 0
    (count_bytes inst 0xab ~from:1056 ~len:32)

let test_fill_partial_write_async () =
  let cfg = { Cage.Config.mem_safety with Cage.Config.mte_mode = Arch.Mte.Async } in
  let sup, inst = supervised cfg fill_overrun_module in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  Alcotest.(check string) "reported late, at the sync point"
    "deferred tag fault"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check int) "every byte of the span landed" 64
    (count_bytes inst 0xab ~from:1024 ~len:64)

(* Copy with a mid-span destination fault: 64 bytes of 0x55 at 2048
   (untagged source) into the tagged-then-untagged span at the segment
   pointer. *)
let copy_overrun_module =
  module_of
    [ (ft [] [], [ Types.I64 ],
       [ Ast.I64Const 2048L; Ast.I32Const 0x55l; Ast.I64Const 64L;
         Ast.MemoryFill;
         Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
         Ast.LocalSet 0;
         Ast.LocalGet 0; Ast.I64Const 2048L; Ast.I64Const 64L;
         Ast.MemoryCopy ]) ]

let test_copy_partial_write_sync () =
  let sup, inst = supervised Cage.Config.mem_safety copy_overrun_module in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  Alcotest.(check string) "synchronous tag fault on the store side"
    "tag fault"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check int) "prefix before the mismatching granule copied" 32
    (count_bytes inst 0x55 ~from:1024 ~len:64);
  Alcotest.(check int) "tail untouched" 0
    (count_bytes inst 0x55 ~from:1056 ~len:32)

let test_copy_partial_write_async () =
  let cfg = { Cage.Config.mem_safety with Cage.Config.mte_mode = Arch.Mte.Async } in
  let sup, inst = supervised cfg copy_overrun_module in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  Alcotest.(check string) "deferred report" "deferred tag fault"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check int) "all 64 bytes copied" 64
    (count_bytes inst 0x55 ~from:1024 ~len:64)

let test_copy_faulting_source_writes_nothing () =
  (* the whole source span mismatches (freed segment): the load fault
     is at offset 0 and not a single destination byte may change *)
  let m =
    module_of
      [ (ft [] [], [ Types.I64 ],
         [ Ast.I64Const 2048L; Ast.I32Const 0x77l; Ast.I64Const 32L;
           Ast.MemoryFill;
           Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
           Ast.LocalSet 0;
           Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L;
           Ast.I64Const 2048L; Ast.LocalGet 0; Ast.I64Const 32L;
           Ast.MemoryCopy ]) ]
  in
  let sup, inst = supervised Cage.Config.mem_safety m in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  (match pm.Cage.Supervisor.pm_fault with
  | Some f ->
      Alcotest.(check bool) "the load side is reported" true
        (f.Arch.Mte.fault_access = Arch.Mte.Load)
  | None -> Alcotest.fail "no structured fault");
  Alcotest.(check int) "destination bytes untouched" 32
    (count_bytes inst 0x77 ~from:2048 ~len:32)

(* ------------------------------------------------------------------ *)
(* Supervisor: watchdog, quarantine, host errors                        *)
(* ------------------------------------------------------------------ *)

let spin_module =
  module_of
    [ (ft [] [], [],
       [ Ast.Loop (Ast.ValBlock None, [ Ast.Br 0 ]) ]);
      (ft [] [ Types.I32 ], [], [ Ast.I32Const 41l ]) ]

let test_fuel_watchdog () =
  let sup, inst = supervised ~fuel:10_000 Cage.Config.baseline_wasm64 spin_module in
  let pm = crash_of (Cage.Supervisor.run sup inst "f0" []) in
  Alcotest.(check string) "runaway loop is cut off" "out of fuel"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check int) "budget fully burned" 0 pm.Cage.Supervisor.pm_fuel_left

let test_quarantine_and_sibling () =
  let proc = Cage.Process.create ~config:Cage.Config.baseline_wasm64 ~seed:3 () in
  let sup = Cage.Supervisor.create ~fuel:10_000 proc in
  let victim = Cage.Supervisor.spawn sup spin_module in
  let sibling = Cage.Supervisor.spawn sup spin_module in
  ignore (crash_of (Cage.Supervisor.run sup victim "f0" []));
  (* re-running the quarantined instance is refused, not executed *)
  let pm = crash_of (Cage.Supervisor.run sup victim "f1" []) in
  Alcotest.(check string) "quarantined instance is refused" "quarantined"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  (* the sibling in the same process still executes *)
  (match Cage.Supervisor.run sup sibling "f1" [] with
  | Cage.Supervisor.Finished vs ->
      Alcotest.(check (list value)) "sibling unaffected" [ Values.I32 41l ] vs
  | Cage.Supervisor.Crashed _ -> Alcotest.fail "sibling was poisoned");
  Alcotest.(check int) "one instance quarantined" 1
    (List.length (Cage.Supervisor.quarantined sup))

(* A heap scribble is drawn when a chunk is freed and written at the
   next synchronization point. Seed 57 draws one in the victim's first
   free, then a stray signature bit crashes the victim before that
   point: the pending scribble must die with the crashed invocation,
   not wait on the victim's lane for its next sync point. *)
let test_scribble_dies_with_crash () =
  let cfg = Cage.Config.full and seed = 57 in
  let compile src = (Libc.Run.compile cfg src).Minic.Driver.co_module in
  let spawn sup m =
    Cage.Supervisor.spawn ~imports:(Libc.Wasi.imports (Libc.Wasi.create ())) sup m
  in
  let sup =
    Cage.Supervisor.create (Cage.Process.create ~config:cfg ~seed ())
  in
  let victim = spawn sup (compile Harness.Detection_matrix.victim_source) in
  let sup2 =
    Cage.Supervisor.create
      (Cage.Process.create ~config:cfg ~seed:(seed + 5000) ())
  in
  let sibling =
    spawn sup2
      (compile
         "int main() { long *p = (long *)malloc(64); p[0] = 5; return \
          (int)p[0]; }")
  in
  let engine =
    Arch.Fault_inject.create
      (Arch.Fault_inject.policy ~seed ~probability:0.003
         ~site_probability:[ (Arch.Fault_inject.Heap_scribble, 1.0) ]
         ~max_injections:4
         Arch.Fault_inject.[ Heap_scribble; Ptr_sig; Ptr_tag ])
  in
  Instance.arm victim (Arch.Fault_inject.lane engine 0);
  Instance.arm sibling (Arch.Fault_inject.lane engine 1);
  let vpm = crash_of (Cage.Supervisor.run sup victim "main" []) in
  let sibling_out = Cage.Supervisor.run sup2 sibling "main" [] in
  let after = Memory.load_i64 (Option.get sibling.Instance.mem) 0x104b8L in
  Alcotest.(check (list string)) "the victim drew a scribble, then crashed"
    [ "heap-scribble"; "ptr-sig" ]
    (List.map
       (fun s -> List.hd (String.split_on_char ' ' s))
       vpm.Cage.Supervisor.pm_injections);
  (match sibling_out with
  | Cage.Supervisor.Finished vs ->
      Alcotest.(check (list value)) "sibling returns its value"
        [ Values.I32 5l ] vs
  | Cage.Supervisor.Crashed pm ->
      Alcotest.failf "sibling crashed: %s" pm.Cage.Supervisor.pm_message);
  Alcotest.(check bool) "the crash dropped the victim's scribble" true
    (Option.is_none
       (Arch.Fault_inject.take_scribble (Arch.Fault_inject.lane engine 0)));
  Alcotest.(check int) "no injection on the sibling's lane" 0
    (Arch.Fault_inject.lane_count (Arch.Fault_inject.lane engine 1));
  Alcotest.(check int64) "the sibling's heap word is untouched" 0L after

(* A heap scribble is noted when it lands, at the sync point after its
   draw. Seed 57 fires a pointer-tag corruption in between: each record
   must keep its own detail. *)
let test_scribble_keeps_its_record () =
  let cfg = { Cage.Config.full with Cage.Config.mte_mode = Arch.Mte.Async }
  and seed = 57 in
  let m =
    (Libc.Run.compile cfg Harness.Detection_matrix.victim_source)
      .Minic.Driver.co_module
  in
  let sup =
    Cage.Supervisor.create ~fuel:2_000_000
      (Cage.Process.create ~config:cfg ~seed ())
  in
  let victim =
    Cage.Supervisor.spawn ~imports:(Libc.Wasi.imports (Libc.Wasi.create ()))
      sup m
  in
  let engine =
    Arch.Fault_inject.create
      (Arch.Fault_inject.policy ~seed ~probability:0.01
         ~site_probability:[ (Arch.Fault_inject.Heap_scribble, 1.0) ]
         ~max_injections:4
         Arch.Fault_inject.[ Heap_scribble; Tfsr_drop; Tag_flip; Ptr_tag ])
  in
  let lane = Arch.Fault_inject.lane engine 0 in
  Instance.arm victim lane;
  ignore (Cage.Supervisor.run sup victim "main" []);
  let starts expect site =
    match
      List.find_opt
        (fun (i : Arch.Fault_inject.injection) -> i.inj_site = site)
        (Arch.Fault_inject.injections lane)
    with
    | None -> Alcotest.failf "no %s injection" (Arch.Fault_inject.site_to_string site)
    | Some i ->
        let d = i.inj_detail in
        Alcotest.(check string)
          (Arch.Fault_inject.site_to_string site ^ " keeps its own detail")
          expect
          (String.sub d 0 (min (String.length d) (String.length expect)))
  in
  starts "free-list link at 0x104b8" Arch.Fault_inject.Heap_scribble;
  starts "pointer " Arch.Fault_inject.Ptr_tag

let test_host_error_contained () =
  let sup, inst = supervised Cage.Config.baseline_wasm64 spin_module in
  let pm =
    crash_of
      (Cage.Supervisor.run_thunk sup inst (fun () -> failwith "host blew up"))
  in
  Alcotest.(check string) "an OCaml exception becomes a contained crash"
    "host error"
    (Cage.Supervisor.fault_class_to_string pm.Cage.Supervisor.pm_class);
  Alcotest.(check bool) "message preserved" true
    (Astring.String.is_infix ~affix:"host blew up"
       pm.Cage.Supervisor.pm_message)

(* ------------------------------------------------------------------ *)
(* Detection matrix + chaos fuzz                                        *)
(* ------------------------------------------------------------------ *)

let render_to_string results =
  Format.asprintf "%a" (fun ppf -> Harness.Detection_matrix.render ppf) results

let test_matrix_deterministic () =
  let a = render_to_string (Harness.Detection_matrix.run ~seed:3 ()) in
  let b = render_to_string (Harness.Detection_matrix.run ~seed:3 ()) in
  Alcotest.(check string) "same seed renders the same matrix" a b

let test_matrix_gate () =
  let results = Harness.Detection_matrix.run ~seed:7 () in
  Alcotest.(check (list string)) "no full+sync escapes, no poisoned siblings"
    []
    (Harness.Detection_matrix.violations results);
  (* every armed fault class is exercised somewhere in the matrix *)
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Arch.Fault_inject.site_to_string site ^ " triggered somewhere") true
        (List.exists
           (fun r ->
             r.Harness.Detection_matrix.r_site = site
             && r.Harness.Detection_matrix.r_injections > 0)
           results))
    Arch.Fault_inject.all_sites

let test_chaos_fuzz_invariant () =
  let stats = Harness.Detection_matrix.chaos_fuzz ~seed:2026 ~count:40 () in
  Alcotest.(check (list string)) "no supervisor-invariant violations" []
    stats.Harness.Detection_matrix.fz_failures;
  Alcotest.(check bool) "chaos actually fired in some runs" true
    (stats.Harness.Detection_matrix.fz_injected > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "supervisor"
    [
      ( "fault-inject",
        [
          Alcotest.test_case "deterministic replay" `Quick
            test_engine_deterministic;
          Alcotest.test_case "budget and site filter" `Quick
            test_engine_budget_and_filter;
          Alcotest.test_case "per-site caps" `Quick test_engine_site_max;
          Alcotest.test_case "arming isolates" `Quick test_arming_isolates;
        ] );
      ( "classify",
        [ Alcotest.test_case "prefix taxonomy" `Quick test_classify_taxonomy ]
      );
      ( "post-mortem",
        [
          Alcotest.test_case "pending fault survives sync trap" `Quick
            test_pending_fault_survives_sync_trap;
          Alcotest.test_case "deferred report post-mortem" `Quick
            test_deferred_report_post_mortem;
        ] );
      ( "pac",
        [
          Alcotest.test_case "cross-instance pointer" `Quick
            test_pac_cross_instance_pointer;
          Alcotest.test_case "forged signature" `Quick
            test_pac_forged_signature;
          Alcotest.test_case "stripped signature" `Quick
            test_pac_stripped_signature;
          Alcotest.test_case "post-mortem lists own lane only" `Quick
            test_post_mortem_own_lane_only;
        ] );
      ( "partial-write",
        [
          Alcotest.test_case "fill sync stops at mismatch" `Quick
            test_fill_partial_write_sync;
          Alcotest.test_case "fill async lands everything" `Quick
            test_fill_partial_write_async;
          Alcotest.test_case "copy sync stops at mismatch" `Quick
            test_copy_partial_write_sync;
          Alcotest.test_case "copy async lands everything" `Quick
            test_copy_partial_write_async;
          Alcotest.test_case "faulting source writes nothing" `Quick
            test_copy_faulting_source_writes_nothing;
        ] );
      ( "containment",
        [
          Alcotest.test_case "fuel watchdog" `Quick test_fuel_watchdog;
          Alcotest.test_case "quarantine and sibling" `Quick
            test_quarantine_and_sibling;
          Alcotest.test_case "host error contained" `Quick
            test_host_error_contained;
          Alcotest.test_case "pending scribble dies with its crash" `Quick
            test_scribble_dies_with_crash;
          Alcotest.test_case "scribble keeps its own record" `Quick
            test_scribble_keeps_its_record;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "deterministic" `Quick test_matrix_deterministic;
          Alcotest.test_case "gate holds" `Quick test_matrix_gate;
          Alcotest.test_case "chaos fuzz invariant" `Quick
            test_chaos_fuzz_invariant;
        ] );
    ]
