(* Tests for the whole-module tag-safety analyzer (cage-lint) and the
   check-elision plan it derives. *)

module I = Analysis.Interval

let iv = Alcotest.testable (fun ppf (t : I.t) ->
    let b = function Some v -> Int64.to_string v | None -> "_" in
    Format.fprintf ppf "[%s,%s]" (b t.I.lo) (b t.I.hi))
    I.equal

(* ------------------------------------------------------------------ *)
(* Interval arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  Alcotest.(check iv) "add" (I.range 3L 7L) (I.add (I.range 1L 2L) (I.range 2L 5L));
  Alcotest.(check iv) "sub" (I.range (-4L) 0L)
    (I.sub (I.range 1L 2L) (I.range 2L 5L));
  Alcotest.(check iv) "mul nonneg" (I.range 0L 10L)
    (I.mul (I.range 0L 2L) (I.range 0L 5L));
  Alcotest.(check iv) "mul mixed signs is top" I.top
    (I.mul (I.range (-2L) 2L) (I.range 0L 5L));
  Alcotest.(check iv) "join" (I.range 0L 9L) (I.join (I.range 0L 2L) (I.range 7L 9L));
  Alcotest.(check (option iv)) "meet" (Some (I.range 2L 5L))
    (I.meet (I.range 0L 5L) (I.range 2L 9L));
  Alcotest.(check (option iv)) "empty meet" None
    (I.meet (I.range 0L 1L) (I.range 5L 9L))

let test_interval_widen () =
  (* widening drops the moving bound to infinity, keeps the stable one *)
  let w = I.widen ~prev:(I.range 0L 4L) ~next:(I.range 0L 8L) in
  Alcotest.(check iv) "hi widens" (I.of_bounds (Some 0L) None) w;
  let w = I.widen ~prev:(I.range 0L 4L) ~next:(I.range 0L 4L) in
  Alcotest.(check iv) "stable stays" (I.range 0L 4L) w

let test_interval_overflow_safe () =
  (* bound arithmetic near Int64 extremes must go to top, not wrap *)
  let huge = I.const Int64.max_int in
  let r = I.add huge (I.const 1L) in
  Alcotest.(check bool) "overflowing add has no finite hi" true (r.I.hi = None);
  Alcotest.(check (option int64)) "exact add detects overflow" None
    (I.add_exact Int64.max_int 1L)

let test_interval_saturation () =
  (* the overflow-boundary regressions: bound steps at the Int64
     extremes must saturate to infinity, never wrap *)
  Alcotest.(check (option int64)) "succ_sat saturates" None
    (I.succ_sat Int64.max_int);
  Alcotest.(check (option int64)) "succ_sat steps" (Some 6L) (I.succ_sat 5L);
  Alcotest.(check (option int64)) "pred_sat saturates" None
    (I.pred_sat Int64.min_int);
  Alcotest.(check (option int64)) "pred_sat steps" (Some 4L) (I.pred_sat 5L);
  (* add near max_int: hi blows to +oo, lo stays exact *)
  let r = I.add (I.range 1L Int64.max_int) (I.const 1L) in
  Alcotest.(check iv) "add saturates hi only" (I.of_bounds (Some 2L) None) r;
  (* mul near max_int: a wrapped product must not appear as a bound *)
  let r = I.mul (I.range 2L Int64.max_int) (I.const 2L) in
  Alcotest.(check iv) "mul saturates hi only" (I.of_bounds (Some 4L) None) r;
  (* widening of [k, max_int]-shaped intervals: a stable extreme bound
     is kept, a moving one goes to infinity — no wraparound either way *)
  let w =
    I.widen ~prev:(I.range 0L Int64.max_int) ~next:(I.range 0L Int64.max_int)
  in
  Alcotest.(check iv) "stable [0,max_int] stays" (I.range 0L Int64.max_int) w;
  let w = I.widen ~prev:(I.range 0L 4L) ~next:(I.range 0L Int64.max_int) in
  Alcotest.(check iv) "bound moving to max_int widens" (I.of_bounds (Some 0L) None) w;
  let w =
    I.widen ~prev:(I.range Int64.min_int 4L) ~next:(I.range Int64.min_int 4L)
  in
  Alcotest.(check iv) "stable [min_int,4] stays" (I.range Int64.min_int 4L) w

let test_interval_bitops () =
  (* logand with a nonneg constant mask is bounded by the mask *)
  let m = I.logand I.top (I.const 0xffL) in
  Alcotest.(check bool) "mask bounds result" true
    (I.is_nonneg m && match m.I.hi with Some h -> h <= 0xffL | None -> false);
  let u = I.rem_u I.top (I.const 8L) in
  Alcotest.(check bool) "rem_u bounded" true
    (I.is_nonneg u && match u.I.hi with Some h -> h <= 7L | None -> false)

(* ------------------------------------------------------------------ *)
(* Whole-module lint                                                   *)
(* ------------------------------------------------------------------ *)

let compile ?(cfg = Cage.Config.mem_safety) source =
  (Libc.Run.compile cfg source).Minic.Driver.co_module

let lint ?cfg source = Analysis.Lint.run (compile ?cfg source)

let test_cve_suite_all_flagged () =
  (* every Table 2 known-bad pattern must produce at least one
     diagnostic before execution *)
  List.iter
    (fun (e : Workloads.Cve_suite.entry) ->
      let t = lint e.source in
      if Analysis.Lint.clean t then
        Alcotest.failf "%s: no diagnostics for a known-bad program" e.cve)
    Workloads.Cve_suite.entries

let test_cve_uaf_definite () =
  (* the three UAF recreations are statically definite *)
  List.iter
    (fun cve ->
      let e =
        List.find
          (fun (e : Workloads.Cve_suite.entry) -> e.cve = cve)
          Workloads.Cve_suite.entries
      in
      let t = lint e.Workloads.Cve_suite.source in
      Alcotest.(check bool)
        (cve ^ " has a definite diagnostic")
        true (t.Analysis.Lint.definite >= 1))
    [ "CVE-2021-22940"; "CVE-2021-33574"; "CVE-2020-1752"; "CVE-2019-11932" ]

let test_polybench_clean () =
  (* correct programs: zero diagnostics, nonzero elision *)
  List.iter
    (fun (k : Workloads.Polybench.kernel) ->
      let t = lint k.k_source in
      if not (Analysis.Lint.clean t) then
        Alcotest.failf "%s: spurious diagnostics:@ %s" k.k_name
          (String.concat "\n" (Analysis.Lint.to_lines t));
      if t.Analysis.Lint.elide_proven = 0 then
        Alcotest.failf "%s: no access proven elidable" k.k_name)
    Workloads.Polybench.all

let quickstart_source () =
  (* tests run from _build/default/test; walk up until the example is
     found so this works from the source tree too *)
  let rec find dir n =
    let p = Filename.concat dir "examples/quickstart.c" in
    if Sys.file_exists p then p
    else if n = 0 then Alcotest.fail "examples/quickstart.c not found"
    else find (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  In_channel.with_open_text (find Filename.current_dir_name 6)
    In_channel.input_all

let test_quickstart_one_bug () =
  let t = lint (quickstart_source ()) in
  Alcotest.(check int) "exactly one diagnostic" 1
    (List.length t.Analysis.Lint.diags);
  Alcotest.(check int) "it is possible, not definite" 1
    t.Analysis.Lint.possible

(* ------------------------------------------------------------------ *)
(* Elision                                                             *)
(* ------------------------------------------------------------------ *)

let test_elide_plan_nonempty () =
  let m = compile (List.hd Workloads.Polybench.all).Workloads.Polybench.k_source in
  let p = Analysis.Elide.plan m in
  Alcotest.(check bool) "some accesses proven" true (p.Analysis.Elide.proven > 0);
  Alcotest.(check bool) "proven <= considered" true
    (p.Analysis.Elide.proven <= p.Analysis.Elide.considered)

(* What the analysis concludes about one module, as text: the
   architectural tag and bounds verdict rows, the full plan's tag, span
   and arena bit rows and its counts, the sorted diagnostics, and the
   speculative analysis's verdict rows. *)
let analysis_fingerprint (m : Wasm.Ast.module_) =
  let a = Analysis.Absint.analyze m in
  let sp = Analysis.Absint.analyze ~spec:true m in
  let p = Analysis.Elide.of_analysis ~arena:true a in
  let b = Buffer.create 4096 in
  let rows what =
    Array.iteri (fun f row ->
        Printf.bprintf b "%s %d:" what f;
        Array.iter (fun v -> Buffer.add_char b (Char.chr (48 + v))) row;
        Buffer.add_char b '\n')
  in
  let bits what =
    Array.iteri (fun f row ->
        Printf.bprintf b "%s %d:%S\n" what f (Bytes.to_string row))
  in
  rows "verdicts" a.Analysis.Absint.a_verdicts;
  rows "bverdicts" a.Analysis.Absint.a_bverdicts;
  rows "spec verdicts" sp.Analysis.Absint.a_verdicts;
  rows "spec bverdicts" sp.Analysis.Absint.a_bverdicts;
  bits "tag" p.Analysis.Elide.bitsets;
  bits "span" p.Analysis.Elide.bbitsets;
  bits "arena" p.Analysis.Elide.arena;
  Printf.bprintf b "proven %d bproven %d considered %d arena %d/%d/%d\n"
    p.Analysis.Elide.proven p.Analysis.Elide.bproven
    p.Analysis.Elide.considered p.Analysis.Elide.arena_sites
    p.Analysis.Elide.arena_news p.Analysis.Elide.arena_frees;
  List.iter
    (fun d -> Printf.bprintf b "%s\n" (Analysis.Absint.diag_to_string d))
    (List.sort compare a.Analysis.Absint.a_diags);
  Buffer.contents b

(* MD5 of the concatenated [analysis_fingerprint]s of each corpus. A
   change to the analyzer that moves one verdict, plan bit, count or
   diagnostic moves a digest. *)
let plan_digests =
  [ ("polybench", "5a17466588c8313490394141c60652f7");
    ("fuzzgen 0-199", "2ce72a03f10c93150feeb5da407a3ca2");
    ("cve suite + quickstart", "09ef74b97db844ba6f3866d24bcf8df5") ]

(* Every bit of a plan names the instruction whose check it skips:
   tag and span bits sit on scalar loads/stores, every tag bit has its
   span bit, and arena bits sit on segment.new/segment.free. The rows
   are read back through the bodies the engines run, so a numbering
   drift between the analyzer and the door fails here. What the
   analysis concluded is pinned by [plan_digests]. *)
let test_plan_bits_name_instructions () =
  let cfg =
    Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.mem_safety)
  in
  let corpora =
    [ List.map
        (fun (k : Workloads.Polybench.kernel) -> (k.k_name, k.k_source))
        Workloads.Polybench.all;
      List.init 200 (fun seed ->
          ( Printf.sprintf "fuzzgen seed %d" seed,
            Workloads.Fuzzgen.render (Workloads.Fuzzgen.generate ~seed) ));
      List.map
        (fun (e : Workloads.Cve_suite.entry) -> (e.cve, e.source))
        Workloads.Cve_suite.entries
      @ [ ("quickstart", quickstart_source ()) ] ]
  in
  let tags = ref 0 and spans = ref 0 and arenas = ref 0 in
  let check_module fp (name, source) =
    let m = compile ~cfg source in
    Buffer.add_string fp name;
    Buffer.add_string fp (analysis_fingerprint m);
    let c = Cage.Config.instance_config ~m cfg in
    let codes =
      Wasm.Code.with_plan ~elide:c.Wasm.Instance.elide
        ~belide:c.Wasm.Instance.belide ~arena:c.Wasm.Instance.arena
        (snd (Wasm.Validate.prepare m))
    in
    Array.iteri
      (fun f (code : Wasm.Code.func) ->
        let instrs = Array.make code.Wasm.Code.nbasic Wasm.Ast.Nop in
        let rec walk body =
          Array.iter
            (function
              | Wasm.Code.Basic (i, id) -> instrs.(id) <- i
              | Wasm.Code.Block (_, b) | Wasm.Code.Loop (_, b) -> walk b
              | Wasm.Code.If (_, t, e) -> walk t; walk e
              | _ -> ())
            body
        in
        walk code.Wasm.Code.body;
        let fail id what =
          Alcotest.failf "%s: function %d, instruction %d: %s" name f id what
        in
        let bits row count ok what =
          for id = 0 to (8 * Bytes.length row) - 1 do
            if Wasm.Code.elidable row id then begin
              incr count;
              if id >= code.Wasm.Code.nbasic || not (ok instrs.(id)) then
                fail id what
            end
          done
        in
        let access = function
          | Wasm.Ast.Load _ | Wasm.Ast.Store _ -> true
          | _ -> false
        in
        bits code.Wasm.Code.elide tags access "tag bit off a load/store";
        bits code.Wasm.Code.belide spans access "span bit off a load/store";
        bits code.Wasm.Code.arena arenas
          (function
            | Wasm.Ast.SegmentNew _ | Wasm.Ast.SegmentFree _ -> true
            | _ -> false)
          "arena bit off a segment.new/segment.free";
        for id = 0 to code.Wasm.Code.nbasic - 1 do
          if Wasm.Code.elidable code.Wasm.Code.elide id
             && not (Wasm.Code.elidable code.Wasm.Code.belide id)
          then fail id "tag bit without its span bit"
        done)
      codes
  in
  let diffs =
    List.concat
      (List.map2
         (fun (corpus, want) sources ->
           let fp = Buffer.create 65536 in
           List.iter (check_module fp) sources;
           let got = Digest.to_hex (Digest.string (Buffer.contents fp)) in
           if got = want then []
           else [ Printf.sprintf "%s: got %s, want %s" corpus got want ])
         plan_digests corpora)
  in
  if diffs <> [] then Alcotest.fail (String.concat "\n" diffs);
  Alcotest.(check bool) "the plans elide tag and span checks" true
    (!tags > 0 && !spans >= !tags);
  Alcotest.(check bool) "the plans lower some segments" true (!arenas > 0)

(* Writing a local must forget every comparison that named it. [i] is
   compared with 8, then overwritten with a value up to 1024; the
   comparison, kept in local [c] or left on the operand stack, guards a
   one-byte store at [p + i] into a 64-byte segment. The branch says
   nothing about the new [i], so the store stays checked (verdict 2)
   and is reported as possibly past the end. An analyzer that kept the
   stale comparison would narrow [i] to [1,7] at the branch and elide
   the check on an out-of-bounds store. The body is built as wasm so
   that no optimiser reshapes it. *)
let scrub_module ~stored =
  let open Wasm.Ast in
  let i64 c = I64Const c in
  (* locals: 0 = j (parameter), 1 = p, 2 = i, 3 = c *)
  let masked_j = [ LocalGet 0; i64 1023L; IBinop (W64, And) ] in
  let cmp = [ LocalGet 2; i64 8L; IRelop (W64, LtS) ] in
  let body =
    [ i64 1024L; i64 64L; SegmentNew 0L; LocalSet 1 ]
    @ masked_j @ [ LocalSet 2 ]
    @ cmp
    @ (if stored then [ LocalSet 3 ] else [])
    @ masked_j @ [ i64 1L; IBinop (W64, Add); LocalSet 2 ]
    @ (if stored then [ LocalGet 3 ] else [])
    @ [ If
          ( ValBlock None,
            [ LocalGet 1; LocalGet 2; IBinop (W64, Add); I32Const 0l;
              Store (Wasm.Types.I32, Some Pack8, { offset = 0L; align = 0 }) ],
            [] );
        i64 0L ]
  in
  { empty_module with
    types = [ { Wasm.Types.params = [ Wasm.Types.I64 ];
                results = [ Wasm.Types.I64 ] } ];
    funcs =
      [ { ftype = 0; fname = Some "main"; body;
          locals = Wasm.Types.[ I64; I64; I32 ] } ];
    memory =
      Some { Wasm.Types.mem_idx = Wasm.Types.Idx64;
             mem_limits = { Wasm.Types.min = 1L; max = Some 1L } };
    exports = [ { ex_name = "main"; ex_desc = Func_export 0 } ] }

let test_scrub_forgets_comparison ~stored () =
  let m = scrub_module ~stored in
  Wasm.Validate.check m;
  let a = Analysis.Absint.analyze m in
  let visited =
    List.filter (fun v -> v > 0)
      (Array.to_list a.Analysis.Absint.a_verdicts.(0))
  in
  Alcotest.(check (list int)) "the store stays checked" [ 2 ] visited;
  Alcotest.(check (list string)) "and may run past the segment"
    [ "possible: store may run past end of main@heap#2: offset [1,1024] + 1 \
       > 64 bytes" ]
    (List.map
       (fun (d : Analysis.Absint.diag) ->
         Analysis.Absint.severity_string d.d_severity ^ ": " ^ d.d_msg)
       a.Analysis.Absint.a_diags)

(* The stale [i] waits under an enclosing construct instead: [wrap]
   puts the overwrite [i = ((j >> 20) & 1023) + 1] in a [block], an
   [if] or a [loop], and [test] compares the stale value ([< 8], or
   [i64.eqz], which would mark the reachable arm dead). A write must
   scrub the stacks enclosing blocks set aside too. *)
let saved_module ~wrap ~test =
  let open Wasm.Ast in
  let i64 c = I64Const c in
  let overwrite =
    [ LocalGet 0; i64 20L; IBinop (W64, ShrU); i64 1023L; IBinop (W64, And);
      i64 1L; IBinop (W64, Add); LocalSet 2 ]
  in
  let body =
    [ i64 1024L; i64 64L; SegmentNew 0L; LocalSet 1;
      LocalGet 0; i64 1023L; IBinop (W64, And); LocalSet 2;
      LocalGet 2 ]
    @ wrap overwrite @ test
    @ [ If
          ( ValBlock None,
            [ LocalGet 1; LocalGet 2; IBinop (W64, Add); I32Const 0l;
              Store (Wasm.Types.I32, Some Pack8, { offset = 0L; align = 0 }) ],
            [] );
        i64 0L ]
  in
  { (scrub_module ~stored:false) with
    funcs =
      [ { ftype = 0; fname = Some "main"; body;
          locals = Wasm.Types.[ I64; I64 ] } ] }

let saved_shapes =
  let open Wasm.Ast in
  let lt8 = [ I64Const 8L; IRelop (W64, LtS) ] in
  [ ("block", (fun b -> [ Block (ValBlock None, b) ]), lt8);
    ("if", (fun b -> [ I32Const 1l; If (ValBlock None, b, []) ]), lt8);
    ("loop", (fun b -> [ Loop (ValBlock None, b) ]), lt8);
    ("block, i64.eqz", (fun b -> [ Block (ValBlock None, b) ]),
     [ ITestop W64 ]) ]

let test_scrub_saved_stacks () =
  List.iter
    (fun (shape, wrap, test) ->
      let m = saved_module ~wrap ~test in
      Wasm.Validate.check m;
      let a = Analysis.Absint.analyze m in
      let visited =
        List.filter (fun v -> v > 0)
          (Array.to_list a.Analysis.Absint.a_verdicts.(0))
      in
      Alcotest.(check (list int)) (shape ^ ": the store stays checked") [ 2 ]
        visited;
      Alcotest.(check (list string)) (shape ^ ": and may run past the segment")
        [ "possible: store may run past end of main@heap#2: offset [1,1024] \
           + 1 > 64 bytes" ]
        (List.map
           (fun (d : Analysis.Absint.diag) ->
             Analysis.Absint.severity_string d.d_severity ^ ": " ^ d.d_msg)
           a.Analysis.Absint.a_diags))
    saved_shapes

(* With [j = 1000 << 20] the stale [i] is 0 and the store lands 1001
   bytes into the 64-byte segment: the elided run traps as the checked
   one does. *)
let test_saved_stack_elided_run_traps () =
  List.iter
    (fun (shape, wrap, test) ->
      let m = saved_module ~wrap ~test in
      List.iter
        (fun cfg ->
          let config = Cage.Config.instance_config ~m cfg in
          let inst = Wasm.Exec.instantiate ~config m in
          match
            Wasm.Exec.invoke inst "main"
              [ Wasm.Values.I64 (Int64.of_int (1000 lsl 20)) ]
          with
          | _ -> Alcotest.failf "%s under %s: returned" shape cfg.name
          | exception Wasm.Instance.Trap msg ->
              if not (Astring.String.is_prefix ~affix:"tag fault" msg) then
                Alcotest.failf "%s under %s: %s" shape cfg.name msg)
        Cage.Config.[ full; with_elision full ])
    saved_shapes

(* The analyzer runs each function on one frame it mutates in place:
   a push, a pop or a local write allocates no state record and copies
   no locals array, and a loop's last stable pass is its recording
   pass. Mean minor words of one full plan per module: 347,228 on
   PolyBench and 88,345 on Fuzzgen (1,308,167 and 232,983 when every
   instruction built a new state); each bound is 1.1 times the
   reading. *)
(* PolyBench and Fuzzgen seeds 0-199 compiled under Cage-mem-safety
   with the full plan (tags, bounds, arenas), with each module's
   instance configuration, compiled once for the allocation tests. *)
let full_plan = Cage.Config.(with_arena (with_bounds_elision mem_safety))

let allocation_corpora =
  lazy
    (List.map
       (fun (corpus, sources) ->
         ( corpus,
           List.map
             (fun src ->
               let m = compile ~cfg:full_plan src in
               (m, Cage.Config.instance_config ~m full_plan))
             sources ))
       [ ("polybench",
          List.map
            (fun k -> k.Workloads.Polybench.k_source)
            Workloads.Polybench.all);
         ("fuzzgen 0-199",
          List.init 200 (fun seed ->
              Workloads.Fuzzgen.render (Workloads.Fuzzgen.generate ~seed))) ])

let test_plan_allocation () =
  List.iter
    (fun (corpus, bound) ->
      let ms = List.map fst (List.assoc corpus (Lazy.force allocation_corpora)) in
      let before = Gc.minor_words () in
      List.iter
        (fun m ->
          ignore (Sys.opaque_identity (Analysis.Elide.plan ~arena:true m)))
        ms;
      let per_module =
        (Gc.minor_words () -. before) /. float_of_int (List.length ms)
      in
      if per_module > bound then
        Alcotest.failf "%s: %.0f minor words per plan (bound %.0f)" corpus
          per_module bound)
    [ ("polybench", 381_900.); ("fuzzgen 0-199", 97_100.) ]

(* Preparing, lowering and instantiating a module runs no minor
   collection its own allocation does not fill: from an emptied minor
   heap, each stage of each module may run [minor words / minor heap
   size] (rounded down) collections. An array of more than 256 words
   made with a young value runs one more (DESIGN §3g, the array rule).
   The test runs on the default minor heap (256k words), whatever
   OCAMLRUNPARAM says: with a smaller one the major GC's pacing can end
   a cycle, which empties the minor heap, inside a stage. *)
let test_module_path_collections () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 262_144 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  let heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  let forced f =
    Gc.minor ();
    let s0 = Gc.quick_stat () in
    ignore (Sys.opaque_identity (f ()));
    let s1 = Gc.quick_stat () in
    let fills = int_of_float ((s1.Gc.minor_words -. s0.Gc.minor_words) /. heap) in
    max 0 (s1.Gc.minor_collections - s0.Gc.minor_collections - fills)
  in
  List.iter
    (fun (corpus, ms) ->
      let prepare = ref 0 and lower = ref 0 and instantiate = ref 0 in
      List.iter
        (fun (m, (c : Wasm.Instance.config)) ->
          let imports, _ = Harness.Serve_bench.wasi_imports () in
          let elide = c.elide and belide = c.belide and arena = c.arena in
          prepare :=
            !prepare
            + forced (fun () ->
                  Wasm.Code.with_plan ~elide ~belide ~arena (snd (Wasm.Validate.prepare m)));
          lower :=
            !lower + forced (fun () -> Wasm.Compile.module_stats ~elide ~belide ~arena m);
          instantiate :=
            !instantiate + forced (fun () -> Wasm.Exec.instantiate ~config:c ~imports m))
        ms;
      if !prepare + !lower + !instantiate > 0 then
        Alcotest.failf
          "%s: minor collections beyond the allocation: prepare %d, lower %d, \
           instantiate %d"
          corpus !prepare !lower !instantiate)
    (Lazy.force allocation_corpora)

(* Minor words per lowered instruction of [Compile.module_stats]
   (the door included), bounded at 1.1x the reading when the fusion
   window stopped allocating (PolyBench 22.24, Fuzzgen 18.76; 40.42 and
   38.71 before). *)
let test_lower_allocation () =
  List.iter
    (fun (corpus, bound) ->
      let ms = List.assoc corpus (Lazy.force allocation_corpora) in
      let instrs = ref 0 in
      let before = Gc.minor_words () in
      List.iter
        (fun (m, (c : Wasm.Instance.config)) ->
          List.iter
            (fun (s : Wasm.Xcode.stats) -> instrs := !instrs + s.st_instrs)
            (Wasm.Compile.module_stats ~elide:c.elide ~belide:c.belide
               ~arena:c.arena m))
        ms;
      let per_instr = (Gc.minor_words () -. before) /. float_of_int !instrs in
      if per_instr > bound then
        Alcotest.failf "%s: %.2f minor words per lowered instruction (bound %.2f)"
          corpus per_instr bound)
    [ ("polybench", 24.5); ("fuzzgen 0-199", 20.6) ]

let test_elide_differential () =
  (* a small in-process slice of the 200-seed CI gate *)
  let r =
    Harness.Differential.run
      (Harness.Differential.fuzzgen ~count:8 ~seed0:3000 ())
      (Harness.Differential.elision_pair Cage.Config.with_elision)
  in
  if not (Harness.Differential.ok r) then
    Alcotest.failf "elision diverged:@ %s"
      (String.concat "\n" r.Harness.Differential.df_failures);
  Alcotest.(check bool) "checks actually elided" true
    (r.Harness.Differential.df_elided > 0)

let test_supervised_full_plan () =
  (* a supervised spawn bakes in the variant's whole plan, as a direct
     run does: span checks are elided and segments arena-lowered *)
  let cfg =
    Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.full)
  in
  let atax = Workloads.Polybench.atax.Workloads.Polybench.k_source in
  let meter = Wasm.Meter.create () in
  let sup =
    Cage.Supervisor.create (Cage.Process.create ~config:cfg ~seed:7 ())
  in
  let imports, _ = Harness.Serve_bench.wasi_imports () in
  let inst = Cage.Supervisor.spawn ~meter ~imports sup (compile ~cfg atax) in
  (match Cage.Supervisor.run sup inst "main" [] with
  | Cage.Supervisor.Finished _ -> ()
  | Cage.Supervisor.Crashed pm ->
      Alcotest.failf "atax crashed: %s" pm.Cage.Supervisor.pm_message);
  Alcotest.(check bool) "span checks elided" true
    (meter.Wasm.Meter.elided_bounds > 0);
  Alcotest.(check bool) "segments arena-lowered" true
    (meter.Wasm.Meter.arena_new_granules > 0)

let test_elide_preserves_trap () =
  (* a program with a real bug must still trap identically with
     elision on: the analyzer only elides proven-safe accesses *)
  let source =
    {|
      int main() {
        long *p = (long*)malloc(32);
        p[0] = 1;
        free(p);
        return (int)p[0];  /* UAF: must tag-fault either way */
      }
    |}
  in
  let trap_of cfg =
    match Libc.Run.run ~cfg source with
    | _ -> None
    | exception Wasm.Instance.Trap msg -> Some msg
  in
  let plain = trap_of Cage.Config.mem_safety in
  let elided = trap_of (Cage.Config.with_elision Cage.Config.mem_safety) in
  (* allocation-tag numbers in the message vary with the global tag
     draw, so compare the fault class, not the exact rendering *)
  let is_tag_fault = function
    | Some msg -> Astring.String.is_infix ~affix:"tag fault" msg
    | None -> false
  in
  Alcotest.(check bool) "baseline tag-faults" true (is_tag_fault plain);
  Alcotest.(check bool) "elided run tag-faults too" true (is_tag_fault elided)

(* ------------------------------------------------------------------ *)
(* Interprocedural: call graph, summaries, escape, speculation         *)
(* ------------------------------------------------------------------ *)

let fidx_of m name =
  let ix = Wasm.Ast.index m in
  match
    Array.find_index (fun (f : Wasm.Ast.func) -> f.fname = Some name) ix.ix_funcs
  with
  | Some i -> Array.length ix.ix_imports + i
  | None -> Alcotest.failf "no function %S in module" name

let test_mutual_recursion_scc () =
  (* even/odd call each other; the base case frees. The call graph must
     put both in one SCC and the summary fixpoint must propagate the
     free around the cycle, so the caller's liveness is havocked. *)
  let m =
    compile
      {|
        void odd(long *p, int n);
        void even(long *p, int n) { if (n == 0) { free(p); return; } odd(p, n - 1); }
        void odd(long *p, int n) { if (n == 0) { return; } even(p, n - 1); }
        int main() {
          long *p = (long *)malloc(16);
          even(p, 4);
          return 0;
        }
      |}
  in
  let ix, code = Wasm.Validate.prepare m in
  let cg = Analysis.Callgraph.build m ix code in
  let e = fidx_of m "even" and o = fidx_of m "odd" in
  Alcotest.(check bool) "even and odd share an SCC" true
    (List.exists
       (fun c -> List.mem e c && List.mem o c)
       (Analysis.Callgraph.sccs cg));
  let summaries = Analysis.Summary.compute cg in
  Alcotest.(check bool) "even's summary frees" true
    summaries.(e).Analysis.Summary.sm_mutates;
  Alcotest.(check bool) "odd frees transitively (cycle fixpoint)" true
    summaries.(o).Analysis.Summary.sm_mutates

let test_call_indirect_conservative () =
  (* an indirect call joins the summaries of every type-matching table
     member: with a freeing function in the table, accesses after the
     call must not be elided; with only a benign one, they may be *)
  let prog callee =
    Printf.sprintf
      {|
        void killer(long *p) { free(p); }
        void keeper(long *p) { p[0] = p[0] + 1; }
        int main() {
          long *p = (long *)malloc(16);
          p[0] = 1;
          void (*f)(long *) = &%s;
          f(p);
          p[0] = 2;
          return 0;
        }
      |}
      callee
  in
  let killed = lint (prog "killer") and kept = lint (prog "keeper") in
  Alcotest.(check bool) "freeing table member blocks post-call elision" true
    (killed.Analysis.Lint.elide_proven < kept.Analysis.Lint.elide_proven)

let test_call_indirect_type_match () =
  (* a call_indirect joins only the table members of its own type: a
     freeing [killer] of another type beside [keeper] leaves the
     post-call access elided, as with [keeper] alone; a freeing member
     of the called type still withholds it *)
  let prog killer =
    Printf.sprintf
      {|
        %s
        void keeper(long *p) { p[0] = p[0] + 1; }
        int main() {
          long *p = (long *)malloc(16);
          p[0] = 1;
          void (*f)(long *) = &keeper;
          f(p);
          p[0] = 2;
          return 0;
        }
      |}
      killer
  in
  let main_proven ?(killer = true) source =
    let m = compile source in
    if killer then begin
      let k = fidx_of m "killer" in
      if not (List.exists (fun (e : Wasm.Ast.elem) -> List.mem k e.e_funcs) m.elems)
      then Alcotest.fail "killer is not in the table"
    end;
    let a = Analysis.Absint.analyze m in
    let lidx = fidx_of m "main" - Array.length a.a_ix.ix_imports in
    Array.fold_left (fun n v -> if v = 1 then n + 1 else n) 0 a.a_verdicts.(lidx)
  in
  (* [take] puts [killer] in the table; nothing calls it *)
  let with_killer params ptr =
    main_proven
      (prog
         (Printf.sprintf
            "void killer(%s) { free(p); }\nvoid take() { void (*g)(%s) = &killer; }"
            params ptr))
  in
  let alone = main_proven ~killer:false (prog "") in
  let other = with_killer "long *p, int n" "long *, int" in
  let same = with_killer "long *p" "long *" in
  Alcotest.(check int) "another type's freeing member leaves it elided" alone other;
  Alcotest.(check bool) "a freeing member of the called type withholds it" true
    (same < alone)

let test_indirect_callee_summary_first () =
  (* [walk]'s summary is read at its recursive call, and its base case
     frees through a pointer to [killer], defined after it. The
     component order must put [killer] (a call_indirect target) before
     [walk], or [walk]'s summary misses the free and the use after it is
     elided: the elided run must trap as the checked one does *)
  let source =
    {|
      void killer(long *p);
      void walk(long *p, int n, void (*f)(long *)) {
        if (n > 0) { walk(p, n - 1, f); return; }
        f(p);
      }
      void killer(long *p) { free(p); }
      int main() {
        long *p = (long *)malloc(16);
        p[0] = 1;
        walk(p, 3, &killer);
        p[0] = 2;
        return 0;
      }
    |}
  in
  List.iter
    (fun cfg ->
      match Libc.Run.run ~cfg source with
      | _ -> Alcotest.fail "the use after free ran"
      | exception Wasm.Instance.Trap msg ->
          Alcotest.(check bool) "tag fault" true
            (Astring.String.is_infix ~affix:"tag fault" msg))
    [ Cage.Config.mem_safety; Cage.Config.with_elision Cage.Config.mem_safety ]

let test_summary_invalidated_by_free () =
  (* the recursive self-call is summarized, not inlined: a callee that
     frees its aliased argument must invalidate the caller's liveness,
     withholding elision of the post-call access *)
  let prog base_case =
    Printf.sprintf
      {|
        void drop(long *p, int n) {
          if (n > 0) { drop(p, n - 1); return; }
          %s
        }
        int main() {
          long *p = (long *)malloc(16);
          p[0] = 1;
          drop(p, 3);
          long v = p[0];
          %s
          return (int)v;
        }
      |}
      base_case
      (if base_case = "free(p);" then "" else "free(p);")
  in
  let freeing = lint (prog "free(p);") and benign = lint (prog "p[0] = 9;") in
  Alcotest.(check bool) "summarized free invalidates elision" true
    (freeing.Analysis.Lint.elide_proven < benign.Analysis.Lint.elide_proven)

let arena_source =
  {|
    int main() {
      long *p = (long *)malloc(64);
      for (int i = 0; i < 8; i++) { p[i] = (long)i; }
      long s = 0;
      for (int i = 0; i < 8; i++) { s = s + p[i]; }
      free(p);
      return (int)s;
    }
  |}

let test_arena_lowering_runtime () =
  (* a non-escaping malloc/free pair: the plan lowers it to the arena,
     the run skips its tag-plane writes, and the result is unchanged *)
  let t = lint arena_source in
  Alcotest.(check int) "one arena-lowerable site" 1
    t.Analysis.Lint.arena_sites;
  let run cfg =
    let meter = Wasm.Meter.create () in
    let v = Libc.Run.ret_i32 (Libc.Run.run ~cfg ~meter arena_source) in
    (v, meter)
  in
  let v0, m0 = run Cage.Config.mem_safety in
  let v1, m1 =
    run
      (Cage.Config.with_arena
         (Cage.Config.with_bounds_elision Cage.Config.mem_safety))
  in
  Alcotest.(check int32) "checksum unchanged" v0 v1;
  Alcotest.(check int) "baseline writes every granule tag" 0
    (m0.Wasm.Meter.arena_new_granules + m0.Wasm.Meter.arena_free_granules);
  Alcotest.(check int) "arena skips segment.new tag writes" 4
    m1.Wasm.Meter.arena_new_granules;
  Alcotest.(check int) "arena skips segment.free retags" 4
    m1.Wasm.Meter.arena_free_granules;
  Alcotest.(check bool) "span checks elided too" true
    (m1.Wasm.Meter.elided_bounds > 0)

let bits_subset ~sub ~super =
  let ok = ref true in
  Array.iteri
    (fun i (b : Bytes.t) ->
      let fb = if i < Array.length super then super.(i) else Bytes.empty in
      Bytes.iteri
        (fun j c ->
          let s = Char.code c in
          let f =
            if j < Bytes.length fb then Char.code (Bytes.get fb j) else 0
          in
          if s land lnot f <> 0 then ok := false)
        b)
    sub;
  !ok

let test_spec_safe_plan_subset () =
  (* --no-spec-elide: the speculation-safe plan may only elide a subset
     of what the architectural plan elides, and on a CVE-suite program
     with branch-refinement-dependent proofs it must withhold some *)
  let e =
    List.find
      (fun (e : Workloads.Cve_suite.entry) -> e.cve = "CVE-2023-4863")
      Workloads.Cve_suite.entries
  in
  let m = compile e.Workloads.Cve_suite.source in
  let full = Analysis.Elide.plan m in
  let spec = Analysis.Elide.plan ~spec_safe:true m in
  Alcotest.(check bool) "some elisions are speculation-unsafe" true
    (spec.Analysis.Elide.spec_unsafe >= 1);
  Alcotest.(check bool) "spec-safe plan keeps those checks" true
    (spec.Analysis.Elide.proven < full.Analysis.Elide.proven);
  Alcotest.(check bool) "spec-safe bitsets are a subset" true
    (bits_subset ~sub:spec.Analysis.Elide.bitsets
       ~super:full.Analysis.Elide.bitsets)

let test_no_spec_elide_runtime () =
  (* the loop proofs in [arena_source] lean on branch refinement, so
     under --no-spec-elide the runtime must keep (and count) those
     checks — with an unchanged result *)
  let run cfg =
    let meter = Wasm.Meter.create () in
    let v = Libc.Run.ret_i32 (Libc.Run.run ~cfg ~meter arena_source) in
    (v, meter)
  in
  let v_full, m_full = run (Cage.Config.with_elision Cage.Config.mem_safety) in
  let v_spec, m_spec =
    run
      (Cage.Config.with_spec_safe_only
         (Cage.Config.with_elision Cage.Config.mem_safety))
  in
  Alcotest.(check int32) "result unchanged" v_full v_spec;
  Alcotest.(check bool) "spec-safe mode retains checks" true
    (m_spec.Wasm.Meter.elided_checks < m_full.Wasm.Meter.elided_checks)

(* ------------------------------------------------------------------ *)
(* The door                                                            *)
(* ------------------------------------------------------------------ *)

(* Every consumer of a module reads it through the door, so each answers
   an invalid one with [Validate.check]'s own rejection, before it plans,
   lowers, numbers or runs anything. *)
let test_door_rejects_invalid () =
  let wat func =
    Printf.sprintf
      "(module\n  (type (func (result i32)))\n  (memory i64 1)\n  %s\n  \
       (export \"main\" (func 0))\n)\n"
      func
  in
  let modules =
    [ ("call 9", wat "(func (type 0) call 9 i32.const 0)");
      ("type 4", wat "(func (type 4) i32.const 0)");
      ("i64.add on an empty stack", wat "(func (type 0) i64.add drop i32.const 0)");
      ("br 3 under one label", wat "(func (type 0) br 3)");
      ("global.get 3 with no globals", wat "(func (type 0) global.get 3 drop i32.const 0)");
      (* lowering reads a local's register unchecked: before the door, this
         module crashed [Compile.module_stats] with a segmentation fault *)
      ("local.get 2070143 with no locals", wat "(func (type 0) local.get 2070143)") ]
  in
  let config = Cage.Config.with_elision Cage.Config.full in
  let consumers =
    [ ("Elide.plan", fun m -> ignore (Analysis.Elide.plan m));
      ("Absint.analyze ~spec:true", fun m -> ignore (Analysis.Absint.analyze ~spec:true m));
      ("Compile.module_stats", fun m -> ignore (Wasm.Compile.module_stats m));
      ("Config.instance_config ~m", fun m -> ignore (Cage.Config.instance_config ~m config));
      ( "Supervisor.spawn",
        fun m ->
          let sup = Cage.Supervisor.create (Cage.Process.create ~config ()) in
          ignore (Cage.Supervisor.spawn sup m) );
      ( "Pool.create",
        fun m ->
          ignore
            (Serve.Pool.create ~lane_base:0 ~size:1 ~seed:0 ~policy:Serve.Policy.default
               (Serve.Pool.tenant ~config ~entry:"main" ~args:[] "invalid" m)) );
      ("Exec.instantiate", fun m -> ignore (Wasm.Exec.instantiate m)) ]
  in
  List.iter
    (fun (what, src) ->
      let m = Wasm.Text.parse src in
      let want =
        match Wasm.Validate.check m with
        | () -> Alcotest.failf "%s: the module validates" what
        | exception Wasm.Validate.Invalid e -> e
      in
      List.iter
        (fun (consumer, run) ->
          match run m with
          | () -> Alcotest.failf "%s: %s returned" what consumer
          | exception Wasm.Validate.Invalid e when e = want -> ()
          | exception e ->
              Alcotest.failf "%s: %s raised %s, not Invalid %S" what consumer
                (Printexc.to_string e) want)
        consumers)
    modules

(* A caller that already holds the plan ([cagec] reports it, then
   lowers with it) hands it in and gets the instance bits that
   planning [m] inside [instance_config] gives, with and without
   speculation-unsafe proofs, on PolyBench and the CVE programs. *)
let test_instance_config_plan () =
  let sources =
    List.map
      (fun (k : Workloads.Polybench.kernel) -> (k.k_name, k.k_source))
      Workloads.Polybench.all
    @ List.map
        (fun (e : Workloads.Cve_suite.entry) -> (e.cve, e.source))
        Workloads.Cve_suite.entries
  in
  let bits (c : Wasm.Instance.config) =
    (c.Wasm.Instance.elide, c.Wasm.Instance.belide, c.Wasm.Instance.arena)
  in
  List.iter
    (fun (cfg : Cage.Config.t) ->
      List.iter
        (fun (name, source) ->
          let m = compile ~cfg source in
          let plan =
            Analysis.Elide.plan ~spec_safe:cfg.spec_safe_only ~arena:cfg.arena m
          in
          if bits (Cage.Config.instance_config ~plan cfg)
             <> bits (Cage.Config.instance_config ~m cfg)
          then
            Alcotest.failf "%s%s: the plan handed in gives other bits" name
              (if cfg.spec_safe_only then " (spec-safe)" else ""))
        sources)
    [ full_plan; Cage.Config.with_spec_safe_only full_plan ]

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "analysis"
    [
      ( "interval",
        [
          tc "basics" test_interval_basics;
          tc "widening" test_interval_widen;
          tc "overflow safe" test_interval_overflow_safe;
          tc "saturation at extremes" test_interval_saturation;
          tc "bit operations" test_interval_bitops;
        ] );
      ( "interprocedural",
        [
          tc "mutual recursion SCC" test_mutual_recursion_scc;
          tc "call_indirect conservative" test_call_indirect_conservative;
          tc "call_indirect joins only its type" test_call_indirect_type_match;
          tc "indirect callee summarized first" test_indirect_callee_summary_first;
          tc "summary invalidated by free" test_summary_invalidated_by_free;
          tc "arena lowering runtime" test_arena_lowering_runtime;
          tc "spec-safe plan subset" test_spec_safe_plan_subset;
          tc "no-spec-elide runtime" test_no_spec_elide_runtime;
        ] );
      ( "lint",
        [
          tc "cve suite all flagged" test_cve_suite_all_flagged;
          tc "uaf entries definite" test_cve_uaf_definite;
          tc "polybench clean" test_polybench_clean;
          tc "quickstart one bug" test_quickstart_one_bug;
        ] );
      ( "elision",
        [
          tc "plan nonempty" test_elide_plan_nonempty;
          tc "plan bits name instructions" test_plan_bits_name_instructions;
          tc "local write forgets a stored comparison"
            (test_scrub_forgets_comparison ~stored:true);
          tc "local write forgets a stacked comparison"
            (test_scrub_forgets_comparison ~stored:false);
          tc "local write scrubs enclosing stacks" test_scrub_saved_stacks;
          tc "elided run traps on a stale enclosing value"
            test_saved_stack_elided_run_traps;
          tc "plan allocation" test_plan_allocation;
          tc "module path forces no collection" test_module_path_collections;
          tc "lowering allocation" test_lower_allocation;
          tc "differential slice" test_elide_differential;
          tc "trap preserved" test_elide_preserves_trap;
          tc "supervised full plan" test_supervised_full_plan;
          tc "instance config takes a plan" test_instance_config_plan;
        ] );
      ("door", [ tc "every consumer rejects an invalid module" test_door_rejects_invalid ]);
    ]
