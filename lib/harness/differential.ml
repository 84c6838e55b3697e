(** Differential fuzzing over configuration pairs.

    For each seed, a random Fuzzgen program runs under side A and side
    B of a pair (a side is a variant and the engine that drives it),
    and the two runs must agree on everything a program's result
    depends on: the outcome (value or trap message, including the
    trap-prefix taxonomy), the final linear-memory digest, and the
    load/store access counts (elision skips a check, never the access).
    Side A must also match the Fuzzgen reference evaluator and never
    trap, which anchors both sides to the semantics.

    The rest follows from the pair itself:
    - sides that differ only in engine must agree on every meter
      counter;
    - a side B that arms elision must elide at least one granule check
      across the sweep — and one span check when bounds elision is on —
      otherwise the gate is testing nothing.

    [cage_chaos enginediff] runs {!engine_pairs}; [cage_chaos elidediff
    [--full]] runs {!elision_pair}. *)

type side = Cage.Config.t * Wasm.Instance.engine

type report = {
  df_a : side;
  df_b : side;
  df_seeds : int;
  df_failures : string list;  (** one line per divergence, oldest first *)
  df_elided : int;            (** granule checks side B skipped *)
  df_bounds_elided : int;     (** span checks side B skipped *)
  df_tag_writes : int;        (** tag-plane granule writes side B skipped *)
}

type outcome = Value of int32 | Trap of string

let outcome_to_string = function
  | Value v -> Printf.sprintf "%ld" v
  | Trap m -> Printf.sprintf "trap(%s)" m

(* A trap unwinds out of [Libc.Run.run] before the instance surfaces,
   so the memory digest exists only for completed runs; trap identity
   is compared through the outcome. *)
let run_once (cfg, engine) ~seed source =
  let meter = Wasm.Meter.create () in
  try
    let r = Libc.Run.run ~cfg ~engine ~meter ~seed source in
    let digest =
      Digest.to_hex
        (Digest.string
           (Wasm.Memory.to_string
              (Wasm.Instance.memory r.Libc.Run.instance)))
    in
    (Value (Libc.Run.ret_i32 r), meter, Some digest)
  with Wasm.Instance.Trap msg -> (Trap msg, meter, None)

let run ?(count = 200) ?(seed0 = 0) ((a : side), (b : side)) =
  let failures = ref [] in
  let elided = ref 0 and belided = ref 0 and tag_writes = ref 0 in
  let fail seed fmt =
    Printf.ksprintf
      (fun m -> failures := Printf.sprintf "seed %d: %s" seed m :: !failures)
      fmt
  in
  let engine_only = fst a = fst b in
  for i = 0 to count - 1 do
    let seed = seed0 + i in
    let prog = Workloads.Fuzzgen.generate ~seed in
    let source = Workloads.Fuzzgen.render prog in
    let expected = Workloads.Fuzzgen.reference prog in
    let o_a, m_a, d_a = run_once a ~seed source in
    let o_b, m_b, d_b = run_once b ~seed source in
    (match o_a with
    | Value v when v <> expected ->
        fail seed "side A diverged from the reference: %ld <> %ld" v expected
    | Trap m -> fail seed "side A trapped: %s" m
    | Value _ -> ());
    if o_a <> o_b then
      fail seed "sides disagree on the outcome: %s <> %s"
        (outcome_to_string o_a) (outcome_to_string o_b);
    if d_a <> d_b then fail seed "sides disagree on the final memory";
    if m_a.Wasm.Meter.loads <> m_b.Wasm.Meter.loads
       || m_a.Wasm.Meter.stores <> m_b.Wasm.Meter.stores
    then
      fail seed "sides disagree on access counts: %d/%d <> %d/%d"
        m_a.Wasm.Meter.loads m_a.Wasm.Meter.stores m_b.Wasm.Meter.loads
        m_b.Wasm.Meter.stores;
    (* The meter is a flat record of counters, so structural equality
       is exactly "every counter identical". *)
    if engine_only && m_a <> m_b then
      fail seed "engines disagree on meter totals: %d <> %d ops"
        (Wasm.Meter.total m_a) (Wasm.Meter.total m_b);
    elided := !elided + m_b.Wasm.Meter.elided_checks;
    belided := !belided + m_b.Wasm.Meter.elided_bounds;
    tag_writes :=
      !tag_writes + m_b.Wasm.Meter.arena_new_granules
      + m_b.Wasm.Meter.arena_free_granules
  done;
  let b_cfg = fst b in
  if b_cfg.elide_checks && !elided = 0 then
    failures := "no granule check was elided across the sweep" :: !failures;
  if b_cfg.elide_bounds && !belided = 0 then
    failures := "no span check was elided across the sweep" :: !failures;
  { df_a = a; df_b = b; df_seeds = count; df_failures = List.rev !failures;
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
  Format.fprintf ppf "@[<v>differential: %d seeds, %s vs %s: %s" r.df_seeds
    (describe r.df_a) (describe r.df_b)
    (if ok r then "identical"
     else Printf.sprintf "%d FAILURES" (List.length r.df_failures));
  if (fst r.df_b).elide_checks then
    Format.fprintf ppf
      "@ side B elided %d granule checks, %d span checks, %d tag-plane writes"
      r.df_elided r.df_bounds_elided r.df_tag_writes;
  Format.fprintf ppf "@]"
