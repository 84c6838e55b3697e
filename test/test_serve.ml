(* Tests for the serving runtime: snapshot/restore fidelity, per-lane
   chaos determinism, the quarantine cap, the robustness policy pieces
   (breaker, backoff, restart-storm bucket), the discrete-event
   scheduler, and end-to-end serving invariants under chaos. *)

open Wasm

let value = Alcotest.testable Values.pp Values.equal

(* ------------------------------------------------------------------ *)
(* Builders (same shapes as test_supervisor)                            *)
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

let const_module =
  module_of [ (ft [] [ Types.I32 ], [], [ Ast.I32Const 41l ]) ]

let run_main sup inst = Cage.Supervisor.run sup inst "main" []

let finished_of = function
  | Cage.Supervisor.Finished vs -> vs
  | Cage.Supervisor.Crashed pm ->
      Alcotest.failf "unexpected crash: %s" pm.Cage.Supervisor.pm_message

let crash_of = function
  | Cage.Supervisor.Crashed pm -> pm
  | Cage.Supervisor.Finished _ -> Alcotest.fail "expected a crash"

(* A supervised MiniC guest under [cfg], serve-sized memory. *)
let minic_guest ?(seed = 11) cfg source =
  let m = Harness.Serve_bench.compile cfg source in
  let proc = Cage.Process.create ~config:cfg ~seed () in
  let sup = Cage.Supervisor.create ~fuel:2_000_000 proc in
  let imports, _ = Harness.Serve_bench.wasi_imports () in
  let inst = Cage.Supervisor.spawn ~imports sup m in
  (sup, inst)

(* ------------------------------------------------------------------ *)
(* Snapshot/restore fidelity                                            *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip () =
  let sup, inst =
    minic_guest Cage.Config.full Harness.Serve_bench.compute_source
  in
  let snap = Serve.Snapshot.capture inst in
  Alcotest.(check bool) "fresh instance matches its own snapshot" true
    (Serve.Snapshot.matches snap inst);
  let first = finished_of (run_main sup inst) in
  (* the run dirtied the heap (mallocs, tag draws, stores) *)
  Alcotest.(check bool) "running dirties the image" false
    (Serve.Snapshot.matches snap inst);
  Serve.Snapshot.restore snap inst;
  Alcotest.(check bool)
    "restore brings memory, tags, globals and table back byte-identical"
    true
    (Serve.Snapshot.matches snap inst);
  let second = finished_of (run_main sup inst) in
  Alcotest.(check (list value)) "restored instance replays the same result"
    first second

let test_snapshot_replay_is_exact () =
  (* without the PRNG rewind the second run would draw different irg
     tags; with it, N restore-run cycles all agree *)
  let sup, inst =
    minic_guest Cage.Config.full Harness.Serve_bench.compute_source
  in
  let snap = Serve.Snapshot.capture inst in
  let results =
    List.init 4 (fun _ ->
        Serve.Snapshot.restore snap inst;
        finished_of (run_main sup inst))
  in
  List.iter
    (fun r -> Alcotest.(check (list value)) "every replay identical" (List.hd results) r)
    results

let test_crashed_then_restored () =
  let sup, inst =
    minic_guest Cage.Config.full Harness.Serve_bench.malicious_source
  in
  let snap = Serve.Snapshot.capture inst in
  let pm1 = crash_of (run_main sup inst) in
  Serve.Snapshot.restore snap inst;
  Cage.Supervisor.release sup inst;
  let pm2 = crash_of (run_main sup inst) in
  Alcotest.(check string) "a restored crasher crashes identically"
    pm1.Cage.Supervisor.pm_message pm2.Cage.Supervisor.pm_message;
  Alcotest.(check bool) "and it really re-ran (not a quarantine refusal)"
    true
    (pm2.Cage.Supervisor.pm_class <> Cage.Supervisor.Quarantine)

(* ------------------------------------------------------------------ *)
(* Dirty-chunk restore fidelity                                         *)
(* ------------------------------------------------------------------ *)

(* A 2-page CAGE instance (growable to 4) whose planes the property
   writes directly. *)
let dirty_guest ?(seed = 5) () =
  let m =
    { const_module with
      Ast.memory =
        Some { mem64 with Types.mem_limits = { Types.min = 2L; max = Some 4L } } }
  in
  let proc = Cage.Process.create ~config:Cage.Config.full ~seed () in
  Cage.Supervisor.spawn (Cage.Supervisor.create proc) m

(* One write through a [Memory] or [Tag_memory] entry point. The [int]
   selectors pick among the entry points of a kind. *)
type wop =
  | Set of int * int * int64    (* engine stores: u8 u16 32 64 f32 f64 *)
  | Store of int * int * int64  (* int64-address stores, incl. store_n *)
  | Fill of int * int * int
  | Copy of int * int * int
  | Write of int * string
  | Retag of int * int * int    (* addr, granules, tag *)
  | Grow

let show_wop = function
  | Set (k, a, v) -> Printf.sprintf "set%d @%d %Ld" k a v
  | Store (k, a, v) -> Printf.sprintf "store%d @%d %Ld" k a v
  | Fill (a, n, v) -> Printf.sprintf "fill @%d +%d %d" a n v
  | Copy (d, s, n) -> Printf.sprintf "copy @%d <- @%d +%d" d s n
  | Write (a, str) -> Printf.sprintf "write @%d %S" a str
  | Retag (a, g, t) -> Printf.sprintf "retag @%d %dg tag %d" a g t
  | Grow -> "grow"

let apply_wop (inst : Instance.t) op =
  let mem = Option.get inst.Instance.mem in
  let tm = Arch.Mte.tag_memory (Option.get inst.Instance.mte) in
  let a64 = Int64.of_int in
  try
    match op with
    | Set (k, a, v) ->
        (* the threaded engine's own store, after its slow path: commit
           first; past the end this fails and the store's range test
           raises before it marks anything *)
        let kind, slot =
          match k mod 6 with
          | 0 -> (Compile.Sk_pack 1, Int64.float_of_bits v)
          | 1 -> (Compile.Sk_pack 2, Int64.float_of_bits v)
          | 2 -> (Compile.Sk_i32, Int64.float_of_bits v)
          | 3 -> (Compile.Sk_i64, Int64.float_of_bits v)
          | 4 -> (Compile.Sk_f32, Int64.to_float v)
          | _ -> (Compile.Sk_f64, Int64.float_of_bits v)
        in
        ignore (Memory.reach mem (a + [| 1; 2; 4; 8; 4; 8 |].(k mod 6)));
        Compile.do_store kind mem a [| slot |] 0
    | Store (k, a, v) -> (
        let addr = a64 a in
        match k mod 8 with
        | 0 -> Memory.store_byte mem addr (Int64.to_int v)
        | 1 -> Memory.store_i32 mem addr (Int64.to_int32 v)
        | 2 -> Memory.store_i64 mem addr v
        | 3 -> Memory.store_f32 mem addr (Int64.to_float v)
        | 4 -> Memory.store_f64 mem addr (Int64.float_of_bits v)
        | k -> Memory.store_n mem addr (1 lsl (k - 4)) v)
    | Fill (a, n, v) -> Memory.fill mem ~addr:(a64 a) ~len:(a64 n) v
    | Copy (d, s, n) -> Memory.copy mem ~dst:(a64 d) ~src:(a64 s) ~len:(a64 n)
    | Write (a, str) -> Memory.write_string mem ~addr:(a64 a) str
    | Retag (a, g, t) ->
        ignore
          (Arch.Tag_memory.set_region tm ~addr:(a64 (a land lnot 15))
             ~len:(a64 (16 * g)) (Arch.Tag.of_int t))
    | Grow -> ignore (Rt.memory_grow inst 1L)
  with Memory.Out_of_bounds _ | Invalid_argument _ -> ()

(* Addresses cluster just below 4 KiB chunk edges, so 2/4/8-byte stores
   straddle them; some fall past the end of memory and must trap
   without marking anything. *)
let gen_wop =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (3, map2 (fun k d -> (k * 4096) - d) (1 -- 64) (0 -- 8));
        (1, 0 -- ((4 * 65536) + 16)) ]
  in
  frequency
    [ (4, map3 (fun k a v -> Set (k, a, v)) (0 -- 5) addr ui64);
      (4, map3 (fun k a v -> Store (k, a, v)) (0 -- 7) addr ui64);
      (1, map3 (fun a n v -> Fill (a, n, v)) addr (0 -- 10_000) (0 -- 255));
      (1, map3 (fun d s n -> Copy (d, s, n)) addr addr (0 -- 10_000));
      (1, map2 (fun a str -> Write (a, str)) addr (string_size (0 -- 12)));
      (2, map3 (fun a g t -> Retag (a, g, t)) addr (0 -- 600) (0 -- 15));
      (1, return Grow) ]

let arb_rounds =
  let ops = QCheck.Gen.(list_size (0 -- 25) gen_wop) in
  QCheck.make
    ~print:(fun (pre, rounds) ->
      String.concat " | "
        (List.map (fun ops -> String.concat "; " (List.map show_wop ops))
           (pre :: rounds)))
    QCheck.Gen.(pair ops (list_size (1 -- 4) ops))

let prop_dirty_restore_matches =
  QCheck.Test.make ~name:"restore after any write sequence matches the image"
    ~count:150 arb_rounds (fun (pre, rounds) ->
      let inst = dirty_guest () in
      List.iter (apply_wop inst) pre;
      let snap = Serve.Snapshot.capture inst in
      List.for_all
        (fun ops ->
          List.iter (apply_wop inst) ops;
          let copied = Serve.Snapshot.restore_copied snap inst in
          Serve.Snapshot.matches snap inst
          && copied <= Serve.Snapshot.bytes snap)
        rounds)

(* Memory contents after every write. A restore rewrites every marked
   chunk, so a byte a write left wrong in a chunk it marked never shows
   after one: this property compares the whole memory with a plain
   [Bytes] model after every single step, snapshots and restores
   included. Zero fills are weighted up, since [Memory.fill] with 0
   skips chunks the dirty map proves zero, and some follow a store
   that straddles a chunk edge, through either engine's store path,
   over the chunk its spill reached, mostly past the image's end. *)
type step = Op of wop | Snap | Restore

let show_step = function
  | Op w -> show_wop w
  | Snap -> "snapshot"
  | Restore -> "restore"

(* The bytes a store writes: its width and little-endian bits. *)
let stored_bytes = function
  | Set (k, _, v) -> (
      match k mod 6 with
      | 0 -> (1, v)
      | 1 -> (2, v)
      | 2 -> (4, v)
      | 4 -> (4, Int64.of_int32 (Int32.bits_of_float (Int64.to_float v)))
      | _ -> (8, v))
  | Store (k, _, v) -> (
      match k mod 8 with
      | 0 -> (1, v)
      | 1 -> (4, v)
      | 3 -> (4, Int64.of_int32 (Int32.bits_of_float (Int64.to_float v)))
      | 2 | 4 -> (8, v)
      | k -> (1 lsl (k - 4), v))
  | _ -> invalid_arg "stored_bytes"

(* [op] applied to the model [b] of a memory of [Bytes.length b] bytes;
   an out-of-bounds op changes nothing. *)
let model_wop b op =
  let fits a n = a >= 0 && n >= 0 && a + n <= Bytes.length b in
  match op with
  | Set (_, a, _) | Store (_, a, _) ->
      let w, v = stored_bytes op in
      if fits a w then
        for i = 0 to w - 1 do
          Bytes.set b (a + i)
            (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
        done
  | Fill (a, n, v) -> if fits a n then Bytes.fill b a n (Char.chr (v land 0xff))
  | Copy (d, s, n) -> if fits d n && fits s n then Bytes.blit b s b d n
  | Write (a, str) ->
      if fits a (String.length str) then
        Bytes.blit_string str 0 b a (String.length str)
  | Retag _ | Grow -> ()

let gen_steps =
  let open QCheck.Gen in
  let edge = map2 (fun k d -> (k * 4096) - d) (1 -- 64) (0 -- 8) in
  let zero_fill = map2 (fun a n -> Fill (a, n, 0)) edge (0 -- 12_000) in
  (* an 8-byte store 1-7 bytes below the edge of chunk [k], then a zero
     fill over chunk [k] from at most [spill] bytes into it; chunks 16
     and up lie past a 64 KiB image *)
  let straddle_then_fill =
    map
      (fun (((k, d), (eng, v)), (o, n)) ->
        let e = k * 4096 in
        [ Op (if eng then Set (3, e - d, v) else Store (7, e - d, v));
          Op (Fill (e + o, n, 0)) ])
      (pair
         (pair (pair (frequency [ (1, 1 -- 15); (3, 16 -- 63) ]) (1 -- 7))
            (pair bool ui64))
         (pair (0 -- 7) (1 -- 9_000)))
  in
  let one g = map (fun x -> [ x ]) g in
  map List.concat
    (list_size (10 -- 40)
       (frequency
          [ (6, one (map (fun w -> Op w) gen_wop));
            (3, one (map (fun w -> Op w) zero_fill));
            (3, straddle_then_fill);
            (1, return [ Snap ]);
            (2, return [ Restore ]) ]))

let prop_memory_matches_model =
  QCheck.Test.make ~name:"memory equals its model after every write"
    ~count:200
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map show_step steps))
       gen_steps)
    (fun steps ->
      let inst = dirty_guest () in
      let mem = Option.get inst.Instance.mem in
      let model = ref (Bytes.of_string (Memory.to_string mem)) in
      let snap = ref None in
      List.iteri
        (fun i step ->
          (match step with
          | Op w ->
              apply_wop inst w;
              model_wop !model w;
              let size = Int64.to_int (Memory.size_bytes mem) in
              if size > Bytes.length !model then
                model := Bytes.cat !model (Bytes.make (size - Bytes.length !model) '\000')
          | Snap ->
              snap := Some (Serve.Snapshot.capture inst, Bytes.copy !model)
          | Restore ->
              Option.iter
                (fun (s, image) ->
                  ignore (Serve.Snapshot.restore_copied s inst);
                  model := Bytes.copy image)
                !snap);
          if Memory.to_string mem <> Bytes.to_string !model then
            QCheck.Test.fail_reportf "memory differs from its model after step %d (%s)"
              i (show_step step))
        steps;
      true)

let test_restore_fallback_full_copy () =
  let a = dirty_guest ~seed:1 () and b = dirty_guest ~seed:2 () in
  apply_wop b (Set (3, 4090, 0x1122334455667788L));
  let mem_b = Option.get b.Instance.mem in
  Alcotest.(check int64) "b holds its write" 0x1122334455667788L
    (Memory.load_i64 mem_b 4090L);
  let snap = Serve.Snapshot.capture a in
  Alcotest.(check int) "a clean restore copies only globals and table"
    (8 * (Array.length a.Instance.globals + Array.length a.Instance.table))
    (Serve.Snapshot.restore_copied snap a);
  Alcotest.(check int) "onto another instance: full copy"
    (Serve.Snapshot.bytes snap)
    (Serve.Snapshot.restore_copied snap b);
  Alcotest.(check bool) "and it matches" true (Serve.Snapshot.matches snap b);
  Alcotest.(check int64) "the write is gone" 0L (Memory.load_i64 mem_b 4090L);
  apply_wop a Grow;
  apply_wop a (Retag (200_000, 4, 9));
  Alcotest.(check bool) "grown" true (Memory.size_pages (Option.get a.Instance.mem) = 3L);
  Alcotest.(check int) "after grow: full copy" (Serve.Snapshot.bytes snap)
    (Serve.Snapshot.restore_copied snap a);
  Alcotest.(check bool) "and it matches, at the image's size" true
    (Serve.Snapshot.matches snap a)

(* A 2-page guest whose image holds only its committed 64 KiB prefix
   serves a request that commits and writes past it, up to the last
   byte of memory. The restore rewrites those runs from the image's
   zero tail, and counts each one as it would against an image of the
   whole memory, so restore prices do not depend on how much of a
   memory is committed. *)
let test_restore_past_image_prefix () =
  let chunk = 4096 in
  let store addr =
    [ Ast.I64Const addr; Ast.I64Const (-1L);
      Ast.Store (Types.I64, None, { Ast.offset = 0L; align = 3 }) ]
  in
  let m =
    { (module_of
         [ (ft [] [ Types.I32 ], [],
            store 65_532L @ store 100_000L @ store 131_064L
            @ [ Ast.I64Const 70_000L; Ast.I32Const 0xcdl; Ast.I64Const 5_000L;
                Ast.MemoryFill; Ast.I32Const 0l ]) ])
      with
      Ast.memory =
        Some { mem64 with Types.mem_limits = { Types.min = 2L; max = Some 4L } };
      datas = [ { Ast.d_offset = 64L; d_bytes = "image" } ] }
  in
  let proc = Cage.Process.create ~config:Cage.Config.full ~seed:5 () in
  let sup = Cage.Supervisor.create proc in
  let inst = Cage.Supervisor.spawn sup m in
  let mem = Option.get inst.Instance.mem in
  let snap = Serve.Snapshot.capture inst in
  Alcotest.(check int) "the image is the 64 KiB prefix" 0x10000
    (Memory.length_bytes mem);
  ignore (finished_of (Cage.Supervisor.run sup inst "f0" []));
  Alcotest.(check int) "the request committed the whole memory" 0x20000
    (Memory.length_bytes mem);
  (* four dirty runs, each with the 7-byte spill: the store straddling
     the image's end, the fill's two chunks, the store at 100,000; and
     the last chunk, whose spill is clamped to the end of memory *)
  Alcotest.(check int) "restore counts each run up to the memory's size"
    ((chunk + 7) + ((2 * chunk) + 7) + (chunk + 7) + chunk)
    (Serve.Snapshot.restore_copied snap inst);
  Alcotest.(check bool) "and matches the image with its zero tail" true
    (Serve.Snapshot.matches snap inst);
  Alcotest.(check int) "a second restore copies only globals and table"
    (8 * (Array.length inst.Instance.globals + Array.length inst.Instance.table))
    (Serve.Snapshot.restore_copied snap inst)

(* The tag plane's image is its committed prefix too. A 2-page guest
   whose init retags once (committing the 4,096-granule floor) serves a
   request that retags across the image's end and the last granule of
   memory, committing the whole plane. The restore rewrites those runs
   from the image below its end and with tag 0 past it, and returns
   the count the eager plane returned for the same writes: two dirty
   runs in each plane, 8,199 + 4,096 bytes of memory and 256 + 128
   bytes of tags. *)
let test_restore_past_tag_prefix () =
  let seg_new addr len =
    [ Ast.I64Const addr; Ast.I64Const len; Ast.SegmentNew 0L; Ast.Drop ]
  in
  let m =
    { (module_of
         [ (ft [] [ Types.I32 ], [], seg_new 0x400L 64L @ [ Ast.I32Const 0l ]);
           (ft [] [ Types.I32 ], [],
            seg_new 65_520L 32L @ seg_new 131_056L 16L @ [ Ast.I32Const 0l ]) ])
      with
      Ast.memory =
        Some { mem64 with Types.mem_limits = { Types.min = 2L; max = Some 4L } } }
  in
  let proc = Cage.Process.create ~config:Cage.Config.full ~seed:5 () in
  let sup = Cage.Supervisor.create proc in
  let inst = Cage.Supervisor.spawn sup m in
  let tm = Arch.Mte.tag_memory (Option.get inst.Instance.mte) in
  ignore (finished_of (Cage.Supervisor.run sup inst "f0" []));
  let snap = Serve.Snapshot.capture inst in
  Alcotest.(check int) "the image is the 4,096-granule prefix" 4096
    (Arch.Tag_memory.committed_granules tm);
  ignore (finished_of (Cage.Supervisor.run sup inst "f1" []));
  Alcotest.(check int) "the request committed the whole plane" 8192
    (Arch.Tag_memory.committed_granules tm);
  Alcotest.(check int) "restore counts what the eager plane counted" 12679
    (Serve.Snapshot.restore_copied snap inst);
  Alcotest.(check bool) "and matches the image with its tag-0 tail" true
    (Serve.Snapshot.matches snap inst);
  Alcotest.(check int) "a second restore copies nothing" 0
    (Serve.Snapshot.restore_copied snap inst)

(* Chaos on, every fault site in turn: heap scribbles and tag flips
   write outside guest stores, and every restore must still reproduce
   the image exactly. *)
let test_chaos_restores_match () =
  let policy = Serve.Server.default_config.Serve.Server.policy in
  List.iteri
    (fun i site ->
      let name = Arch.Fault_inject.site_to_string site in
      let tenant =
        Harness.Serve_bench.tenant_of_source Cage.Config.full ~name ~weight:1
          ~seed:(7 + i) Harness.Detection_matrix.victim_source
      in
      let pool =
        Serve.Pool.create ~lane_base:0 ~size:2 ~seed:(7 + i) ~policy tenant
      in
      let restored_match () =
        Array.iter
          (fun (s : Serve.Pool.slot) ->
            if s.Serve.Pool.sl_state = Serve.Pool.Idle && not s.Serve.Pool.sl_dirty
            then
              Alcotest.(check bool) (name ^ ": restored slot matches") true
                (Serve.Snapshot.matches s.Serve.Pool.sl_snapshot s.Serve.Pool.sl_inst))
          pool.Serve.Pool.pl_slots
      in
      let engine =
        Arch.Fault_inject.create
          (Harness.Detection_matrix.policy_for site ~seed:(7 + (31 * i)))
      in
      Serve.Pool.arm pool engine;
      for call = 1 to 24 do
        restored_match ();
        match Serve.Pool.acquire pool with
        | None -> Alcotest.failf "%s: no idle slot" name
        | Some slot -> (
            Alcotest.(check bool) (name ^ ": acquired slot matches") true
              (Serve.Snapshot.matches slot.Serve.Pool.sl_snapshot
                 slot.Serve.Pool.sl_inst);
            match fst (Serve.Pool.serve pool slot) with
            | Cage.Supervisor.Finished _ -> Serve.Pool.settle_ok slot
            | Cage.Supervisor.Crashed _ ->
                Serve.Pool.settle_crashed slot;
                ignore
                  (Serve.Pool.heal pool
                     ~now:(call * policy.Serve.Policy.heal_refill)))
      done;
      restored_match ();
      Alcotest.(check bool) (name ^ " fired") true
        (Arch.Fault_inject.count engine > 0);
      Alcotest.(check bool) (name ^ ": restores ran") true
        (Serve.Pool.restores pool > 0))
    Arch.Fault_inject.all_sites

(* ------------------------------------------------------------------ *)
(* Per-lane chaos streams: scheduling-order independence                *)
(* ------------------------------------------------------------------ *)

let lane_pol =
  Arch.Fault_inject.policy ~seed:99 ~probability:0.5 ~max_injections:1000
    [ Arch.Fault_inject.Tag_flip ]

(* Draw [n] times on lane [lane] of [e], recording the outcomes. *)
let draws_on e lane n =
  let ln = Arch.Fault_inject.lane e lane in
  List.init n (fun _ -> Arch.Fault_inject.draw ln Arch.Fault_inject.Tag_flip)

let test_lane_streams_independent_of_interleaving () =
  (* sequential: all of lane 0, then all of lane 1 *)
  let e1 = Arch.Fault_inject.create lane_pol in
  let seq0 = draws_on e1 0 40 in
  let seq1 = draws_on e1 1 40 in
  (* interleaved: lanes alternate every 5 draws — as a pool scheduler
     bouncing between two slots would *)
  let e2 = Arch.Fault_inject.create lane_pol in
  let int0, int1 =
    let a = ref [] and b = ref [] in
    for _ = 1 to 8 do
      a := !a @ draws_on e2 0 5;
      b := !b @ draws_on e2 1 5
    done;
    (!a, !b)
  in
  Alcotest.(check (list bool)) "lane 0 stream unchanged by interleaving"
    seq0 int0;
  Alcotest.(check (list bool)) "lane 1 stream unchanged by interleaving"
    seq1 int1;
  Alcotest.(check bool) "lanes draw distinct streams" true (seq0 <> seq1);
  Alcotest.(check int) "per-lane charging matches"
    (Arch.Fault_inject.lane_count (Arch.Fault_inject.lane e1 0))
    (Arch.Fault_inject.lane_count (Arch.Fault_inject.lane e2 0))

let test_lane_budget_is_per_lane () =
  let pol =
    Arch.Fault_inject.policy ~seed:7 ~max_injections:2
      [ Arch.Fault_inject.Tag_flip ]
  in
  let e = Arch.Fault_inject.create pol in
  ignore (draws_on e 0 10);
  ignore (draws_on e 1 10);
  Alcotest.(check int) "lane 0 spent its own budget" 2
    (Arch.Fault_inject.lane_count (Arch.Fault_inject.lane e 0));
  Alcotest.(check int) "lane 1 spent its own budget" 2
    (Arch.Fault_inject.lane_count (Arch.Fault_inject.lane e 1));
  Alcotest.(check int) "total is the sum" 4 (Arch.Fault_inject.count e)

(* ------------------------------------------------------------------ *)
(* Quarantine cap                                                       *)
(* ------------------------------------------------------------------ *)

let test_quarantine_cap () =
  let proc =
    Cage.Process.create ~config:Cage.Config.baseline_wasm64 ~seed:3 ()
  in
  let sup = Cage.Supervisor.create ~max_quarantined:2 proc in
  let insts =
    List.init 5 (fun _ -> Cage.Supervisor.spawn sup const_module)
  in
  let metrics = Obs.Metrics.cage () in
  Obs.Hook.with_sink (Obs.Hook.make ~metrics ()) (fun () ->
      List.iter
        (fun inst ->
          ignore
            (crash_of
               (Cage.Supervisor.run_thunk sup inst (fun () ->
                    failwith "boom"))))
        insts);
  Alcotest.(check int) "retained post-mortems capped" 2
    (List.length (Cage.Supervisor.quarantined sup));
  (* the cap evicts records, never membership *)
  List.iter
    (fun inst ->
      Alcotest.(check bool) "every crasher still quarantined" true
        (Cage.Supervisor.is_quarantined sup inst))
    insts;
  Alcotest.(check int) "evictions counted" 3
    metrics.Obs.Metrics.quarantine_evicted.Obs.Metrics.c_value;
  (* newest records survive: the last crash is among the retained *)
  let last = List.nth insts 4 in
  Alcotest.(check bool) "newest post-mortem retained" true
    (List.exists
       (fun (id, _) -> id = last.Instance.id)
       (Cage.Supervisor.quarantined sup));
  Cage.Supervisor.release sup last;
  Alcotest.(check bool) "release clears membership" false
    (Cage.Supervisor.is_quarantined sup last)

(* ------------------------------------------------------------------ *)
(* Policy: breaker, backoff, restart-storm bucket                       *)
(* ------------------------------------------------------------------ *)

let test_breaker_lifecycle () =
  let b =
    Serve.Policy.breaker_create
      { Serve.Policy.trip_after = 3; cooldown = 100 }
  in
  Alcotest.(check bool) "closed admits" true
    (Serve.Policy.breaker_admits b ~now:0);
  Alcotest.(check bool) "first crashes do not trip" false
    (Serve.Policy.breaker_crash b ~now:1);
  ignore (Serve.Policy.breaker_crash b ~now:2);
  Alcotest.(check bool) "third consecutive crash trips" true
    (Serve.Policy.breaker_crash b ~now:3);
  Alcotest.(check bool) "open sheds" false
    (Serve.Policy.breaker_admits b ~now:50);
  Alcotest.(check bool) "after cooldown the half-open probe admits" true
    (Serve.Policy.breaker_admits b ~now:150);
  Alcotest.(check bool) "probe failure re-opens (and counts as a trip)" true
    (Serve.Policy.breaker_crash b ~now:151);
  Alcotest.(check bool) "re-opened sheds again" false
    (Serve.Policy.breaker_admits b ~now:200);
  ignore (Serve.Policy.breaker_admits b ~now:300);
  Serve.Policy.breaker_success b;
  Alcotest.(check bool) "probe success closes" true
    (Serve.Policy.breaker_admits b ~now:301);
  Alcotest.(check int) "two trips recorded" 2 (Serve.Policy.breaker_trips b)

let test_breaker_success_resets_run () =
  let b =
    Serve.Policy.breaker_create
      { Serve.Policy.trip_after = 3; cooldown = 100 }
  in
  ignore (Serve.Policy.breaker_crash b ~now:1);
  ignore (Serve.Policy.breaker_crash b ~now:2);
  Serve.Policy.breaker_success b;
  Alcotest.(check bool) "a success interrupts the crash run" false
    (Serve.Policy.breaker_crash b ~now:3);
  Alcotest.(check int) "no trips" 0 (Serve.Policy.breaker_trips b)

let test_backoff_shape () =
  let r =
    { Serve.Policy.max_attempts = 5; backoff_base = 100; backoff_factor = 2;
      backoff_cap = 500; jitter = 0 }
  in
  let rng = Random.State.make [| 1 |] in
  Alcotest.(check int) "first retry waits the base" 100
    (Serve.Policy.backoff r rng ~attempt:1);
  Alcotest.(check int) "second doubles" 200
    (Serve.Policy.backoff r rng ~attempt:2);
  Alcotest.(check int) "growth is capped" 500
    (Serve.Policy.backoff r rng ~attempt:5);
  let j = { r with Serve.Policy.jitter = 50 } in
  let d = Serve.Policy.backoff j rng ~attempt:1 in
  Alcotest.(check bool) "jitter stays within its bound" true
    (d >= 100 && d < 150)

let test_bucket_rate_limits () =
  let b = Serve.Policy.bucket_create ~capacity:2 ~refill_every:100 in
  Alcotest.(check bool) "token 1" true (Serve.Policy.bucket_take b ~now:0);
  Alcotest.(check bool) "token 2" true (Serve.Policy.bucket_take b ~now:0);
  Alcotest.(check bool) "bucket empty: the restart storm is stopped" false
    (Serve.Policy.bucket_take b ~now:50);
  Alcotest.(check bool) "a refill period restores one token" true
    (Serve.Policy.bucket_take b ~now:120);
  Alcotest.(check bool) "but only one" false
    (Serve.Policy.bucket_take b ~now:130);
  Alcotest.(check bool) "refill never exceeds capacity" true
    (Serve.Policy.bucket_take b ~now:10_000);
  Alcotest.(check bool) "capacity is 2" true
    (Serve.Policy.bucket_take b ~now:10_000);
  Alcotest.(check bool) "not 3" false (Serve.Policy.bucket_take b ~now:10_000)

let test_retryable_classes () =
  let open Cage.Supervisor in
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (fault_class_to_string cls ^ " retries") true
        (Serve.Policy.retryable cls))
    [ Tag_fault; Deferred_tag_fault; Pac_auth; Bounds; Fuel; Host_error ];
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (fault_class_to_string cls ^ " never retries") false
        (Serve.Policy.retryable cls))
    [ Stack; Unreachable; Guest_trap; Quarantine ]

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

let test_heap_order_and_ties () =
  let h = Serve.Scheduler.Heap.create () in
  Serve.Scheduler.Heap.push h ~time:30 "c";
  Serve.Scheduler.Heap.push h ~time:10 "a1";
  Serve.Scheduler.Heap.push h ~time:10 "a2";
  Serve.Scheduler.Heap.push h ~time:20 "b";
  let order =
    List.init 4 (fun _ ->
        match Serve.Scheduler.Heap.pop h with
        | Some (_, v) -> v
        | None -> Alcotest.fail "heap empty early")
  in
  Alcotest.(check (list string))
    "time order, ties broken by insertion sequence"
    [ "a1"; "a2"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (Serve.Scheduler.Heap.is_empty h)

let test_fuel_sliced_round_robin () =
  let cpu = Serve.Scheduler.create ~cores:1 ~quantum:10 in
  Serve.Scheduler.submit cpu "long" ~demand:25;
  Serve.Scheduler.submit cpu "short" ~demand:5;
  let h = Serve.Scheduler.Heap.create () in
  let completions = ref [] in
  (match Serve.Scheduler.dispatch cpu ~now:0 with
  | Some s -> Serve.Scheduler.Heap.push h ~time:s.Serve.Scheduler.s_end (`S s)
  | None -> Alcotest.fail "core should dispatch");
  let rec drain () =
    match Serve.Scheduler.Heap.pop h with
    | None -> ()
    | Some (now, `S s) ->
        (match Serve.Scheduler.slice_done cpu s with
        | Some payload -> completions := (payload, now) :: !completions
        | None -> ());
        let rec refill () =
          match Serve.Scheduler.dispatch cpu ~now with
          | Some s' ->
              Serve.Scheduler.Heap.push h ~time:s'.Serve.Scheduler.s_end (`S s');
              refill ()
          | None -> ()
        in
        refill ();
        drain ()
  in
  drain ();
  (* long runs 10, short runs 5 to completion, long 10, long 5:
     short completes at t=15, long at t=30 — the quantum kept the
     short request from waiting out the long one *)
  Alcotest.(check (list (pair string int)))
    "slice interleaving lets the short request finish first"
    [ ("short", 15); ("long", 30) ]
    (List.rev !completions)

(* ------------------------------------------------------------------ *)
(* End-to-end serving invariants                                        *)
(* ------------------------------------------------------------------ *)

let mini_config requests seed =
  { Serve.Server.default_config with Serve.Server.requests; seed; slots = 2 }

let test_serving_accounting_conserves () =
  let report =
    Serve.Server.run
      ~chaos:(Harness.Serve_bench.chaos_policy ~seed:5)
      (mini_config 300 5)
      (Harness.Serve_bench.tenants ~seed:5 ())
  in
  List.iter
    (fun (tr : Serve.Server.tenant_report) ->
      Alcotest.(check int)
        (tr.Serve.Server.tr_name ^ ": ok + failed + shed = requests")
        tr.Serve.Server.tr_requests
        (tr.Serve.Server.tr_ok + tr.Serve.Server.tr_failed
        + tr.Serve.Server.tr_shed))
    report.Serve.Server.rp_tenants;
  Alcotest.(check int) "totals conserve too" report.Serve.Server.rp_requests
    (report.Serve.Server.rp_ok + report.Serve.Server.rp_failed
    + report.Serve.Server.rp_shed);
  Alcotest.(check int) "nothing escaped" 0 report.Serve.Server.rp_escaped

let test_serving_deterministic () =
  let go () =
    let r =
      Serve.Server.run
        ~chaos:(Harness.Serve_bench.chaos_policy ~seed:9)
        (mini_config 250 9)
        (Harness.Serve_bench.tenants ~seed:9 ())
    in
    ( r.Serve.Server.rp_ok, r.Serve.Server.rp_failed, r.Serve.Server.rp_shed,
      r.Serve.Server.rp_crashes, r.Serve.Server.rp_retries,
      r.Serve.Server.rp_makespan, r.Serve.Server.rp_p99_exact,
      r.Serve.Server.rp_injections )
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "two chaos-on runs replay identically" true (a = b)

(* Heap scribbles that the accepted attempt survives: the only smoke-free
   path that counts sanitized requests. Every report field, every
   tenant field and the hit list are pinned. *)
let test_sanitized_requests_pinned () =
  let co = Serve.Slo.collector () in
  let r =
    Serve.Server.run
      ~chaos:
        (Arch.Fault_inject.policy ~seed:0 ~probability:0.02 ~max_injections:2
           [ Arch.Fault_inject.Heap_scribble ])
      ~collect:co
      { Serve.Server.default_config with
        Serve.Server.requests = 300; seed = 0; slots = 2; cores = 2 }
      (Harness.Serve_bench.tenants ~seed:5 ())
  in
  let fields = Alcotest.(list (pair string int)) in
  Alcotest.check fields "report"
    [ ("requests", 300); ("ok", 263); ("sanitized", 4); ("escaped", 0);
      ("failed", 2); ("shed", 35); ("crashes", 12); ("retries", 10);
      ("timeouts", 0); ("trips", 5); ("restores", 271);
      ("copied", 1_901_786); ("image", 73_265_392); ("heals", 12);
      ("heals deferred", 5); ("injections", 4); ("makespan", 3_560_000);
      ("p50", 223_255); ("p99", 1_034_764); ("max ready", 4);
      ("served cycles", 6_919_733) ]
    Serve.Server.
      [ ("requests", r.rp_requests); ("ok", r.rp_ok);
        ("sanitized", r.rp_sanitized); ("escaped", r.rp_escaped);
        ("failed", r.rp_failed); ("shed", r.rp_shed);
        ("crashes", r.rp_crashes); ("retries", r.rp_retries);
        ("timeouts", r.rp_timeouts); ("trips", r.rp_breaker_trips);
        ("restores", r.rp_restores); ("copied", r.rp_restore_copied_bytes);
        ("image", r.rp_restore_image_bytes); ("heals", r.rp_heals);
        ("heals deferred", r.rp_heals_deferred);
        ("injections", r.rp_injections); ("makespan", r.rp_makespan);
        ("p50", r.rp_p50_exact); ("p99", r.rp_p99_exact);
        ("max ready", r.rp_max_ready);
        ("served cycles", r.rp_served_cycles) ];
  let tenant (t : Serve.Server.tenant_report) =
    Serve.Server.
      ( t.tr_name,
        [ t.tr_requests; t.tr_ok; t.tr_sanitized; t.tr_escaped; t.tr_failed;
          t.tr_shed; t.tr_crashes; t.tr_retries; t.tr_timeouts;
          t.tr_breaker_trips; t.tr_p50_exact; t.tr_p99_exact ] )
  in
  Alcotest.(check (list (pair string (list int))))
    "tenants: requests ok sanitized escaped failed shed crashes retries \
     timeouts trips p50 p99"
    [ ("compute", [ 173; 173; 4; 0; 0; 0; 0; 0; 0; 0; 519_106; 1_051_073 ]);
      ("fuzz", [ 90; 90; 0; 0; 0; 0; 0; 0; 0; 0; 10_285; 28_728 ]);
      ("malicious", [ 37; 0; 0; 0; 2; 35; 12; 10; 0; 5; 0; 0 ]) ]
    (List.map tenant r.Serve.Server.rp_tenants);
  let hit (h : Serve.Slo.hit) =
    Serve.Slo.
      ( Printf.sprintf "%d %s lane %d %s" h.ht_request h.ht_tenant h.ht_lane
          (String.concat "+" h.ht_sites),
        (h.ht_attempts, h.ht_contained, h.ht_cost) )
  in
  Alcotest.(check (list (pair string (triple int bool int))))
    "hits: attempts, contained, cost"
    [ ("34 compute lane 1001 heap-scribble", (1, true, 0));
      ("58 compute lane 1001 heap-scribble", (1, true, 0));
      ("71 compute lane 1000 heap-scribble", (1, true, 0));
      ("79 compute lane 1000 heap-scribble", (1, true, 0)) ]
    (List.map hit (Serve.Slo.hits co))

(* Work conservation, read off a request trace: whenever an attempt
   waits for a core (from its submission, the start of its restore span,
   or from the end of its previous slice, until its next slice starts)
   every core is mid-slice. Returns the waits seen and the first wait
   that overlapped an idle core, as (request, from, until). *)
let idle_core_waits ~cores tr =
  let recs = Obs.Trace.records tr in
  let req args =
    match List.assoc_opt "req" args with Some (Obs.Trace.I id) -> id | _ -> -1
  in
  let slices =
    List.filter_map
      (fun (r : Obs.Trace.record) ->
        match (r.ph, r.payload) with
        | Obs.Trace.Complete d, Obs.Trace.Named (_, args)
          when r.tid >= 1 && r.tid <= cores ->
            Some (r.tid, req args, r.ts, r.ts + d)
        | _ -> None)
      recs
  in
  let submits =
    List.filter_map
      (fun (r : Obs.Trace.record) ->
        match (r.ph, r.payload) with
        | Obs.Trace.Complete _, Obs.Trace.Named ("restore", args) ->
            Some (req args, r.ts)
        | _ -> None)
      recs
  in
  (* core [c]'s slices cover [a, b) *)
  let busy_through c a b =
    let rec covered t = function
      | _ when t >= b -> true
      | [] -> false
      | (s, e) :: rest -> if e <= t then covered t rest else s <= t && covered e rest
    in
    covered a
      (List.sort compare
         (List.filter_map
            (fun (tid, _, s, e) -> if tid = c then Some (s, e) else None)
            slices))
  in
  let waits = ref 0 and bad = ref None in
  List.iter
    (fun (_, id, start, _) ->
      let latest l = List.fold_left max min_int l in
      let from =
        max
          (latest
             (List.filter_map
                (fun (sid, t) -> if sid = id && t <= start then Some t else None)
                submits))
          (latest
             (List.filter_map
                (fun (_, rid, _, e) ->
                  if rid = id && e <= start then Some e else None)
                slices))
      in
      if from < start then begin
        incr waits;
        if !bad = None
           && not (List.for_all (fun c -> busy_through c from start)
                     (List.init cores (fun c -> c + 1)))
        then bad := Some (id, from, start)
      end)
    slices;
  (!waits, !bad)

let test_free_core_takes_ready_job () =
  (* Two cores for six slots, and quanta short enough that requests
     queue for a core: a core freed by a finishing request must go to
     the next ready job at once, not at the next arrival or heal tick. *)
  let config =
    { Serve.Server.default_config with
      Serve.Server.requests = 30; seed = 1; slots = 2; cores = 2;
      quantum = 2_000 }
  in
  let tr = Obs.Trace.create () in
  ignore
    (Obs.Span.with_recorder tr (fun () ->
         Serve.Server.run config (Harness.Serve_bench.tenants ~seed:1 ())));
  let waits, bad = idle_core_waits ~cores:2 tr in
  Alcotest.(check bool) "some request waited for a core" true (waits > 0);
  match bad with
  | None -> ()
  | Some (id, from, until) ->
      Alcotest.failf "request %d was ready from %d to %d while a core idled"
        id from until

let test_malicious_tenant_contained () =
  let report =
    Serve.Server.run (mini_config 300 11)
      (Harness.Serve_bench.tenants ~seed:11 ())
  in
  let tr name =
    match Serve.Server.tenant_of report name with
    | Some t -> t
    | None -> Alcotest.failf "missing tenant %s" name
  in
  Alcotest.(check bool) "malicious tenant crashed" true
    ((tr "malicious").Serve.Server.tr_crashes > 0);
  Alcotest.(check int) "malicious tenant never succeeds" 0
    (tr "malicious").Serve.Server.tr_ok;
  Alcotest.(check bool) "its breaker tripped" true
    ((tr "malicious").Serve.Server.tr_breaker_trips > 0);
  (* chaos is off: the well-behaved neighbours are untouched *)
  List.iter
    (fun name ->
      let t = tr name in
      Alcotest.(check int)
        (name ^ " loses nothing to the noisy neighbour")
        t.Serve.Server.tr_requests t.Serve.Server.tr_ok)
    [ "compute"; "fuzz" ]

(* ------------------------------------------------------------------ *)
(* Heap tie-breaking as a property                                      *)
(* ------------------------------------------------------------------ *)

(* The DES heap's determinism rests on lexicographic (time, seq)
   ordering: equal-time entries MUST dequeue in push order, whatever
   the push pattern. The unit test above pins one shape; this pins
   them all. *)
let prop_heap_ties_fifo =
  QCheck.Test.make ~name:"equal-time entries dequeue in push order"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 64) (int_bound 4))
    (fun times ->
      let h = Serve.Scheduler.Heap.create () in
      List.iteri
        (fun i time -> Serve.Scheduler.Heap.push h ~time (time, i))
        times;
      let rec drain acc =
        match Serve.Scheduler.Heap.pop h with
        | None -> List.rev acc
        | Some (t, (t', i)) -> drain ((t, t', i) :: acc)
      in
      let out = drain [] in
      List.length out = List.length times
      && List.for_all (fun (t, t', _) -> t = t') out
      && (* popped (time, push-index) keys are lexicographically sorted:
            time order overall, FIFO within each tie class *)
      let keys = List.map (fun (t, _, i) -> (t, i)) out in
      keys = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Exact percentiles                                                    *)
(* ------------------------------------------------------------------ *)

let test_percentile_exact_pinned () =
  (* 1..100: nearest-rank pN is exactly N *)
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50 of 1..100" 50 (Serve.Slo.percentile_exact a 50.0);
  Alcotest.(check int) "p99 of 1..100" 99 (Serve.Slo.percentile_exact a 99.0);
  Alcotest.(check int) "p1 of 1..100" 1 (Serve.Slo.percentile_exact a 1.0);
  Alcotest.(check int) "p100 of 1..100" 100
    (Serve.Slo.percentile_exact a 100.0);
  Alcotest.(check int) "empty sample" 0 (Serve.Slo.percentile_exact [||] 99.0);
  (* odd size with duplicates: rank ceil(0.5*5)=3 -> third value *)
  let b = [| 2; 2; 3; 7; 11 |] in
  Alcotest.(check int) "p50 of 5" 3 (Serve.Slo.percentile_exact b 50.0);
  Alcotest.(check int) "p90 of 5" 11 (Serve.Slo.percentile_exact b 90.0)

(* ------------------------------------------------------------------ *)
(* SLO burn rates                                                       *)
(* ------------------------------------------------------------------ *)

let test_burn_rates () =
  let co = Serve.Slo.collector () in
  (* one terminated request per sample: ended at [now], ok after
     [latency] cycles or failed *)
  let sample co ~tenant ~now ~ok ~latency =
    let r = Serve.Slo.request ~id:now ~tenant ~now:(now - latency) in
    r.Serve.Slo.rr_end <- (if ok then Serve.Slo.Done else Serve.Slo.Failed);
    r.Serve.Slo.rr_ended <- now;
    Serve.Slo.record co r
  in
  (* 100 samples at cycles 1..100, failing at 50 and 100: 2% error
     rate against a 1% budget is exactly a 2x burn *)
  for i = 1 to 100 do
    let ok = i mod 50 <> 0 in
    sample co ~tenant:"t" ~now:i ~ok
      ~latency:(if ok then 100 else -1)
  done;
  let m = Serve.Slo.monitor co "t" in
  let obj = Serve.Slo.default_objective in
  let ab, lb = Serve.Slo.burn_rates m obj ~now:100 ~window:100 in
  Alcotest.(check (float 1e-9)) "availability burn 2x over the full window"
    2.0 ab;
  Alcotest.(check (float 1e-9)) "all ok samples fast: latency burn 0" 0.0 lb;
  (* failures older than the lookback fall out of the window: a tenant
     that failed early but ran clean since burns nothing now *)
  for i = 1 to 100 do
    let ok = i > 2 in
    sample co ~tenant:"recovered" ~now:i ~ok
      ~latency:(if ok then 100 else -1)
  done;
  let mr = Serve.Slo.monitor co "recovered" in
  let ab2, _ = Serve.Slo.burn_rates mr obj ~now:100 ~window:50 in
  Alcotest.(check (float 1e-9)) "old failures age out of the window" 0.0 ab2;
  let ab2', _ = Serve.Slo.burn_rates mr obj ~now:100 ~window:100 in
  Alcotest.(check (float 1e-9)) "but still burn over the full window" 2.0
    ab2';
  (* latency objective: 10% of ok samples over threshold against a 5%
     budget is a 2x latency burn *)
  for i = 1 to 100 do
    sample co ~tenant:"lat" ~now:i ~ok:true
      ~latency:(if i mod 10 = 0 then obj.Serve.Slo.ob_latency + 1 else 100)
  done;
  let ml = Serve.Slo.monitor co "lat" in
  let ab3, lb3 = Serve.Slo.burn_rates ml obj ~now:100 ~window:100 in
  Alcotest.(check (float 1e-9)) "all ok: availability burn 0" 0.0 ab3;
  Alcotest.(check (float 1e-9)) "latency burn 2x" 2.0 lb3;
  (* empty window burns 0, not NaN *)
  let ab4, lb4 = Serve.Slo.burn_rates ml obj ~now:1_000_000 ~window:10 in
  Alcotest.(check (float 1e-9)) "empty window avail burn" 0.0 ab4;
  Alcotest.(check (float 1e-9)) "empty window latency burn" 0.0 lb4

(* ------------------------------------------------------------------ *)
(* Phase attribution: exact, conserved, reconciled                      *)
(* ------------------------------------------------------------------ *)

let test_phase_attribution_exact () =
  let co = Serve.Slo.collector () in
  let report =
    Serve.Server.run
      ~chaos:(Harness.Serve_bench.chaos_policy ~seed:5)
      ~collect:co (mini_config 300 5)
      (Harness.Serve_bench.tenants ~seed:5 ())
  in
  let recs = Serve.Slo.records co in
  Alcotest.(check int) "one record per terminated request"
    report.Serve.Server.rp_requests (List.length recs);
  let oks = List.filter Serve.Slo.ok recs in
  Alcotest.(check bool) "some requests succeeded" true (oks <> []);
  List.iter
    (fun (r : Serve.Slo.req_rec) ->
      Alcotest.(check int)
        (Printf.sprintf
           "request %d: latency = queue + restore + exec + retry + drain"
           r.Serve.Slo.rr_id)
        (Serve.Slo.latency r)
        (r.Serve.Slo.rr_queue + r.Serve.Slo.rr_restore + r.Serve.Slo.rr_exec
        + r.Serve.Slo.rr_retry + r.Serve.Slo.rr_drain))
    oks;
  (* every metered guest cycle the pools served shows up in exactly
     one attribution bucket *)
  Alcotest.(check int) "exec cycles reconcile against the pool meters"
    report.Serve.Server.rp_served_cycles
    (Serve.Slo.exec_cycles co);
  (* the report's exact percentiles recompute from the records *)
  let lat =
    Array.of_list (List.map Serve.Slo.latency oks)
  in
  Array.sort compare lat;
  Alcotest.(check int) "rp_p99_exact recomputes from the record stream"
    (Serve.Slo.percentile_exact lat 99.0)
    report.Serve.Server.rp_p99_exact;
  Alcotest.(check int) "rp_p50_exact recomputes from the record stream"
    (Serve.Slo.percentile_exact lat 50.0)
    report.Serve.Server.rp_p50_exact;
  (* the tail table is a partition of the slow slice: per-tenant rows
     sum to the (all) row, phase by phase *)
  let t = Serve.Slo.tail co ~pct:99.0 in
  let rows, all =
    match List.rev t.Serve.Slo.tt_rows with
    | total :: rest -> (List.rev rest, total)
    | [] -> Alcotest.fail "tail table empty"
  in
  let sum f = List.fold_left (fun n r -> n + f r) 0 rows in
  Alcotest.(check string) "total row label" "(all)" all.Serve.Slo.tl_tenant;
  Alcotest.(check int) "tail rows partition queue"
    all.Serve.Slo.tl_queue (sum (fun r -> r.Serve.Slo.tl_queue));
  Alcotest.(check int) "tail rows partition exec"
    all.Serve.Slo.tl_exec (sum (fun r -> r.Serve.Slo.tl_exec));
  Alcotest.(check int) "tail rows partition total"
    all.Serve.Slo.tl_total (sum (fun r -> r.Serve.Slo.tl_total))

(* ------------------------------------------------------------------ *)
(* Fault -> request correlation                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_correlation () =
  let co = Serve.Slo.collector () in
  let report =
    Serve.Server.run
      ~chaos:(Harness.Serve_bench.chaos_policy ~seed:5)
      ~collect:co (mini_config 300 5)
      (Harness.Serve_bench.tenants ~seed:5 ())
  in
  let hits = Serve.Slo.hits co in
  Alcotest.(check bool) "chaos injections landed in requests" true
    (hits <> []);
  Alcotest.(check bool) "no more hit reports than injections" true
    (List.length hits <= report.Serve.Server.rp_injections);
  List.iter
    (fun (h : Serve.Slo.hit) ->
      Alcotest.(check bool) "request id is a real arrival" true
        (h.Serve.Slo.ht_request >= 0
        && h.Serve.Slo.ht_request < report.Serve.Server.rp_requests);
      Alcotest.(check bool) "at least one site named" true
        (h.Serve.Slo.ht_sites <> []);
      Alcotest.(check bool) "attempts counted" true
        (h.Serve.Slo.ht_attempts >= 1);
      Alcotest.(check bool) "induced cost is non-negative" true
        (h.Serve.Slo.ht_cost >= 0))
    hits;
  (* a contained hit means the request still terminated ok after
     retries: it must have used more than one attempt *)
  List.iter
    (fun (h : Serve.Slo.hit) ->
      if h.Serve.Slo.ht_contained then
        Alcotest.(check bool) "containment implies a retry happened" true
          (h.Serve.Slo.ht_attempts >= 1))
    hits

(* ------------------------------------------------------------------ *)
(* Span stitching end-to-end                                            *)
(* ------------------------------------------------------------------ *)

let test_span_stitching_e2e () =
  let run () =
    Serve.Server.run
      ~chaos:(Harness.Serve_bench.chaos_policy ~seed:9)
      (mini_config 250 9)
      (Harness.Serve_bench.tenants ~seed:9 ())
  in
  let digest (r : Serve.Server.report) =
    ( r.Serve.Server.rp_ok, r.Serve.Server.rp_failed, r.Serve.Server.rp_shed,
      r.Serve.Server.rp_crashes, r.Serve.Server.rp_retries,
      r.Serve.Server.rp_makespan, r.Serve.Server.rp_p99_exact,
      r.Serve.Server.rp_injections )
  in
  let bare = run () in
  let rec_ = Obs.Trace.create () in
  let traced = Obs.Span.with_recorder rec_ run in
  (* observation must not perturb the simulation: bit-identical run *)
  Alcotest.(check bool) "recorder does not perturb the replay" true
    (digest bare = digest traced);
  let json = Obs.Trace.to_chrome_json rec_ in
  let has s = Astring.String.is_infix ~affix:s json in
  (* one retried request's causal chain: flow start on its first queue
     slice, steps across scheduler slices, finish at the terminal *)
  Alcotest.(check bool) "flow arrows start" true (has "\"ph\":\"s\"");
  Alcotest.(check bool) "flow arrows step" true (has "\"ph\":\"t\"");
  Alcotest.(check bool) "flow arrows finish" true (has "\"ph\":\"f\"");
  Alcotest.(check bool) "request envelopes open/close" true
    (has "\"ph\":\"b\"" && has "\"ph\":\"e\"");
  Alcotest.(check bool) "queue phase present" true (has "\"name\":\"queue\"");
  Alcotest.(check bool) "restore phase present" true
    (has "\"name\":\"restore\"");
  Alcotest.(check bool) "retry instants present under chaos" true
    (has "\"name\":\"retry\"");
  Alcotest.(check bool) "backoff slices present under chaos" true
    (has "\"name\":\"backoff\"");
  Alcotest.(check bool) "per-core tracks named" true
    (has "\"name\":\"core 0\"");
  Alcotest.(check bool) "per-tenant tracks named" true
    (has "\"name\":\"tenant compute\"")

let test_served_sites_recover () =
  (* the serving path absorbs a single-shot tag flip: crash, retry on
     a pristine snapshot, succeed *)
  let cell =
    Harness.Serve_bench.served_cell ~seed:7 ~index:1
      Arch.Fault_inject.Tag_flip Arch.Mte.Sync
  in
  Alcotest.(check string) "tag-flip x sync recovers through serving"
    "recovered" cell

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip fidelity" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "replay exact" `Quick test_snapshot_replay_is_exact;
          Alcotest.test_case "crashed then restored" `Quick
            test_crashed_then_restored;
          Alcotest.test_case "foreign or grown image: full copy" `Quick
            test_restore_fallback_full_copy;
          Alcotest.test_case "restore past the image's prefix" `Quick
            test_restore_past_image_prefix;
          Alcotest.test_case "restore past the tag image's prefix" `Quick
            test_restore_past_tag_prefix;
          Alcotest.test_case "chaos restores match" `Quick
            test_chaos_restores_match;
          QCheck_alcotest.to_alcotest prop_dirty_restore_matches;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 38 |])
            prop_memory_matches_model;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "interleaving independence" `Quick
            test_lane_streams_independent_of_interleaving;
          Alcotest.test_case "budget per lane" `Quick test_lane_budget_is_per_lane;
        ] );
      ( "quarantine",
        [ Alcotest.test_case "cap + eviction metric" `Quick test_quarantine_cap ]
      );
      ( "policy",
        [
          Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "breaker success resets" `Quick
            test_breaker_success_resets_run;
          Alcotest.test_case "backoff shape" `Quick test_backoff_shape;
          Alcotest.test_case "restart-storm bucket" `Quick test_bucket_rate_limits;
          Alcotest.test_case "retryable classes" `Quick test_retryable_classes;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "heap order + ties" `Quick test_heap_order_and_ties;
          Alcotest.test_case "fuel-sliced round robin" `Quick
            test_fuel_sliced_round_robin;
          QCheck_alcotest.to_alcotest prop_heap_ties_fifo;
        ] );
      ( "slo",
        [
          Alcotest.test_case "exact percentiles pinned" `Quick
            test_percentile_exact_pinned;
          Alcotest.test_case "burn rates" `Quick test_burn_rates;
          Alcotest.test_case "phase attribution exact" `Quick
            test_phase_attribution_exact;
          Alcotest.test_case "fault -> request correlation" `Quick
            test_fault_correlation;
        ] );
      ( "server",
        [
          Alcotest.test_case "accounting conserves" `Quick
            test_serving_accounting_conserves;
          Alcotest.test_case "deterministic replay" `Quick
            test_serving_deterministic;
          Alcotest.test_case "malicious tenant contained" `Quick
            test_malicious_tenant_contained;
          Alcotest.test_case "served site recovers" `Quick
            test_served_sites_recover;
          Alcotest.test_case "span stitching e2e" `Quick
            test_span_stitching_e2e;
          Alcotest.test_case "free core takes a ready job" `Quick
            test_free_core_takes_ready_job;
          Alcotest.test_case "sanitized requests pinned" `Quick
            test_sanitized_requests_pinned;
        ] );
    ]
