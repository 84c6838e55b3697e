(** Differential testing over configuration pairs.

    A sweep runs every program of a {!source} under side A and side B
    of a pair (a side is a variant and the engine that drives it), and
    the two runs must agree on everything a program's result depends
    on: the outcome (value or trap message, including the trap-prefix
    taxonomy), the final linear-memory digest (after a trap too), and
    the load/store access counts (elision skips a check, never the
    access). Where a source knows a program's result independently of
    the compiler (the Fuzzgen reference evaluator), side A must match
    it and never trap, which anchors both sides to the semantics.

    The rest follows from the pair itself:
    - sides that differ only in engine must agree on every meter
      counter;
    - a side B that arms elision must elide at least one granule check
      across the sweep — and one span check when bounds elision is on —
      otherwise the gate is testing nothing.

    Both sides of a program start from the same instance ordinal, so
    they draw the same allocation tags.

    [cage_chaos enginediff] runs {!engine_pairs} over {!fuzzgen},
    [cage_chaos benchdiff] over {!polybench} and {!tenants}, and
    [cage_chaos elidediff [--full]] runs {!elision_pair} over
    {!fuzzgen}. *)

type side = Cage.Config.t * Wasm.Instance.engine

(** One program: a MiniC [int main()] with its compile sizes, the seed
    its instances draw tags from, and its result when known
    independently of the compiler. *)
type case = {
  c_name : string;
  c_source : string;
  c_mem_pages : int64 option;
  c_stack_bytes : int option;
  c_seed : int;
  c_expected : int32 option;
}

(** A named list of programs, made when a sweep starts. *)
type source = { src_name : string; src_cases : unit -> case list }

let case ?mem_pages ?stack_bytes ?(seed = 0) ?expected name source =
  { c_name = name; c_source = source; c_mem_pages = mem_pages; c_stack_bytes = stack_bytes;
    c_seed = seed; c_expected = expected }

(** [count] Fuzzgen programs from seed [seed0] on, each checked against
    the reference evaluator. *)
let fuzzgen ?(count = 200) ?(seed0 = 0) () =
  { src_name = "fuzzgen";
    src_cases =
      (fun () ->
        List.init count (fun i ->
            let seed = seed0 + i in
            let prog = Workloads.Fuzzgen.generate ~seed in
            case ~seed ~expected:(Workloads.Fuzzgen.reference prog)
              (Printf.sprintf "seed %d" seed)
              (Workloads.Fuzzgen.render prog))) }

(** The 26 PolyBench kernels. *)
let polybench =
  { src_name = "polybench";
    src_cases =
      (fun () ->
        List.map
          (fun (k : Workloads.Polybench.kernel) -> case k.k_name k.k_source)
          Workloads.Polybench.all) }

(** The three serving tenants' programs, at the sizes the pool runs
    them: compute, fuzz and the always-faulting malicious one. *)
let tenants =
  { src_name = "tenants";
    src_cases =
      (fun () ->
        let tenant name =
          case ~mem_pages:Serve_bench.serve_mem_pages
            ~stack_bytes:Serve_bench.serve_stack_bytes name
        in
        [ tenant "compute" Serve_bench.compute_source;
          tenant "fuzz"
            (Workloads.Fuzzgen.render
               (Workloads.Fuzzgen.generate ~seed:Serve_bench.fuzz_seed));
          tenant "malicious" Serve_bench.malicious_source ]) }

type report = {
  df_a : side;
  df_b : side;
  df_source : string;
  df_cases : int;
  df_failures : string list;  (** one line per divergence, oldest first *)
  df_elided : int;            (** granule checks side B skipped *)
  df_bounds_elided : int;     (** span checks side B skipped *)
  df_tag_writes : int;        (** tag-plane granule writes side B skipped *)
}

type outcome = Value of int32 | Trap of string

let outcome_to_string = function
  | Value v -> Printf.sprintf "%ld" v
  | Trap m -> Printf.sprintf "trap(%s)" m

(* [c]'s main on a fresh instance of [cfg] driven by [engine]: its
   outcome, meter and final memory digest ([None] when instantiation
   trapped). *)
let run_once (cfg, engine) (c : case) =
  let meter = Wasm.Meter.create () in
  let compiled =
    Libc.Run.compile ?mem_pages:c.c_mem_pages ?stack_bytes:c.c_stack_bytes cfg c.c_source
  in
  let m = compiled.Minic.Driver.co_module in
  let wasi = Libc.Wasi.create () in
  let config =
    { (Cage.Config.instance_config ~meter ~seed:c.c_seed ~m cfg) with Wasm.Instance.engine }
  in
  match Wasm.Exec.instantiate ~config ~imports:(Libc.Wasi.imports wasi) m with
  | exception Wasm.Instance.Trap msg -> (Trap msg, meter, None)
  | inst ->
      let outcome =
        match Wasm.Exec.invoke inst "main" [] with
        | [ Wasm.Values.I32 v ] -> Value v
        | _ -> Trap "main did not return one i32"
        | exception Libc.Wasi.Proc_exit code -> Value (Int32.of_int code)
        | exception Wasm.Instance.Trap msg -> Trap msg
      in
      let memory = Wasm.Memory.to_string (Wasm.Instance.memory inst) in
      (outcome, meter, Some (Digest.to_hex (Digest.string memory)))

let run (src : source) ((a : side), (b : side)) =
  let failures = ref [] in
  let elided = ref 0 and belided = ref 0 and tag_writes = ref 0 in
  let cases = src.src_cases () in
  let engine_only = fst a = fst b in
  List.iter
    (fun (c : case) ->
      let fail fmt =
        Printf.ksprintf
          (fun m -> failures := Printf.sprintf "%s: %s" c.c_name m :: !failures)
          fmt
      in
      let ordinal = !Wasm.Exec.instance_counter in
      let o_a, m_a, d_a = run_once a c in
      Wasm.Exec.instance_counter := ordinal;
      let o_b, m_b, d_b = run_once b c in
      (match (c.c_expected, o_a) with
      | Some e, Value v when v <> e ->
          fail "side A diverged from the reference: %ld <> %ld" v e
      | Some _, Trap m -> fail "side A trapped: %s" m
      | _ -> ());
      if o_a <> o_b then
        fail "sides disagree on the outcome: %s <> %s"
          (outcome_to_string o_a) (outcome_to_string o_b);
      if d_a <> d_b then fail "sides disagree on the final memory";
      if m_a.Wasm.Meter.loads <> m_b.Wasm.Meter.loads
         || m_a.Wasm.Meter.stores <> m_b.Wasm.Meter.stores
      then
        fail "sides disagree on access counts: %d/%d <> %d/%d"
          m_a.Wasm.Meter.loads m_a.Wasm.Meter.stores m_b.Wasm.Meter.loads
          m_b.Wasm.Meter.stores;
      (* The meter is a flat record of counters, so structural equality
         is exactly "every counter identical". *)
      if engine_only && m_a <> m_b then
        fail "engines disagree on meter totals: %d <> %d ops"
          (Wasm.Meter.total m_a) (Wasm.Meter.total m_b);
      elided := !elided + m_b.Wasm.Meter.elided_checks;
      belided := !belided + m_b.Wasm.Meter.elided_bounds;
      tag_writes :=
        !tag_writes + m_b.Wasm.Meter.arena_new_granules
        + m_b.Wasm.Meter.arena_free_granules)
    cases;
  let b_cfg = fst b in
  if b_cfg.elide_checks && !elided = 0 then
    failures := "no granule check was elided across the sweep" :: !failures;
  if b_cfg.elide_bounds && !belided = 0 then
    failures := "no span check was elided across the sweep" :: !failures;
  { df_a = a; df_b = b; df_source = src.src_name; df_cases = List.length cases;
    df_failures = List.rev !failures;
    df_elided = !elided; df_bounds_elided = !belided;
    df_tag_writes = !tag_writes }

(** Interpreter against threaded code under the checked memory-safety
    path, the same with the analyzer's whole plan (bounds elision and
    arena lowering) baked into both engines, and the untagged 32-bit
    sandbox, whose accesses take the wasm32 address path. *)
let engine_pairs =
  List.map
    (fun c -> ((c, Wasm.Instance.Interp), (c, Wasm.Instance.Threaded)))
    Cage.Config.
      [ mem_safety; with_arena (with_bounds_elision mem_safety);
        baseline_wasm32 ]

(** Unelided memory safety against the same variant under [plan] (an
    elision transform such as {!Cage.Config.with_elision}), both on
    threaded code. *)
let elision_pair (plan : Cage.Config.t -> Cage.Config.t) =
  let m = Cage.Config.mem_safety in
  ((m, Wasm.Instance.Threaded), (plan m, Wasm.Instance.Threaded))

let ok r = r.df_failures = []

let describe ((c : Cage.Config.t), engine) =
  Printf.sprintf "%s/%s/plan %s" c.name
    (match engine with
    | Wasm.Instance.Interp -> "interp"
    | Threaded -> "threaded")
    (if not c.elide_checks then "none"
     else
       String.concat " + "
         (("tags" :: (if c.elide_bounds then [ "bounds" ] else []))
         @ if c.arena then [ "arena" ] else []))

let pp ppf r =
  Format.fprintf ppf "@[<v>differential: %s, %d programs, %s vs %s: %s" r.df_source r.df_cases
    (describe r.df_a) (describe r.df_b)
    (if ok r then "identical"
     else Printf.sprintf "%d FAILURES" (List.length r.df_failures));
  if (fst r.df_b).elide_checks then
    Format.fprintf ppf
      "@ side B elided %d granule checks, %d span checks, %d tag-plane writes"
      r.df_elided r.df_bounds_elided r.df_tag_writes;
  Format.fprintf ppf "@]"
