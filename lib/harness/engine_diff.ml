(** Engine equivalence gate: a differential fuzz run proving that the
    threaded-code engine is observationally identical to the reference
    interpreter.

    For each seed, a random Fuzzgen program runs twice under the same
    configuration — once forced onto the [Interp] engine, once on
    [Threaded] — and the two runs must agree on {e everything} an
    instance exposes: the outcome (value or trap message, including the
    trap-prefix taxonomy), the final linear-memory image (compared by
    digest), every meter counter, and the load/store access counts in
    particular. The interpreter run must also match the Fuzzgen
    reference evaluator, anchoring both engines to the semantics.
    [cage_chaos enginediff] runs the sweep once under each of
    {!configs}. *)

type report = {
  gd_config : Cage.Config.t;
  gd_seeds : int;
  gd_failures : string list;  (** one line per divergence, oldest first *)
}

type outcome = Value of int32 | Trap of string

let outcome_to_string = function
  | Value v -> Printf.sprintf "%ld" v
  | Trap m -> Printf.sprintf "trap(%s)" m

let run_once ~cfg ~seed source =
  let meter = Wasm.Meter.create () in
  let result = ref None in
  let outcome =
    try
      let r = Libc.Run.run ~cfg ~meter ~seed source in
      result := Some r;
      Value (Libc.Run.ret_i32 r)
    with Wasm.Instance.Trap msg -> Trap msg
  in
  let digest =
    match !result with
    | Some r ->
        Digest.to_hex
          (Digest.string
             (Wasm.Memory.to_string
                (Wasm.Instance.memory r.Libc.Run.instance)))
    | None -> "(no instance)"
  in
  (outcome, meter, digest)

let run ?(cfg = Cage.Config.mem_safety) ?(count = 200) ?(seed0 = 0) () =
  let failures = ref [] in
  let fail seed fmt =
    Printf.ksprintf
      (fun m -> failures := Printf.sprintf "seed %d: %s" seed m :: !failures)
      fmt
  in
  for i = 0 to count - 1 do
    let seed = seed0 + i in
    let prog = Workloads.Fuzzgen.generate ~seed in
    let source = Workloads.Fuzzgen.render prog in
    let expected = Workloads.Fuzzgen.reference prog in
    let icfg = Cage.Config.with_engine Wasm.Instance.Interp cfg in
    let tcfg = Cage.Config.with_engine Wasm.Instance.Threaded cfg in
    let o_i, m_i, d_i = run_once ~cfg:icfg ~seed source in
    let o_t, m_t, d_t = run_once ~cfg:tcfg ~seed source in
    (match o_i with
    | Value v when v <> expected ->
        fail seed "interpreter diverged from reference: %ld <> %ld" v
          expected
    | Trap m -> fail seed "interpreter trapped: %s" m
    | Value _ -> ());
    if o_i <> o_t then
      fail seed "engines disagree on the outcome: interp %s <> threaded %s"
        (outcome_to_string o_i) (outcome_to_string o_t);
    if d_i <> d_t then
      fail seed "engines disagree on the final memory: %s <> %s" d_i d_t;
    if m_i.Wasm.Meter.loads <> m_t.Wasm.Meter.loads
       || m_i.Wasm.Meter.stores <> m_t.Wasm.Meter.stores
    then
      fail seed "engines disagree on access counts: %d/%d <> %d/%d"
        m_i.Wasm.Meter.loads m_i.Wasm.Meter.stores m_t.Wasm.Meter.loads
        m_t.Wasm.Meter.stores;
    (* The meter is a flat record of counters, so structural equality
       is exactly "every counter identical". *)
    if m_i <> m_t then
      fail seed
        "engines disagree on meter totals: interp %d <> threaded %d ops"
        (Wasm.Meter.total m_i) (Wasm.Meter.total m_t)
  done;
  { gd_config = cfg; gd_seeds = count; gd_failures = List.rev !failures }

(** The configurations the CI gate runs every seed under: the
    checked memory-safety path, the same with the analyzer's whole plan
    (bounds elision and arena lowering) baked into both engines, and
    the untagged 32-bit sandbox, whose accesses take the wasm32
    address path. *)
let configs =
  [ Cage.Config.mem_safety;
    Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.mem_safety);
    Cage.Config.baseline_wasm32 ]

let ok r = r.gd_failures = []

let plan_name (c : Cage.Config.t) =
  if not c.Cage.Config.elide_checks then "none"
  else
    String.concat " + "
      (("tags" :: (if c.Cage.Config.elide_bounds then [ "bounds" ] else []))
      @ if c.Cage.Config.arena then [ "arena" ] else [])

let pp ppf r =
  Format.fprintf ppf
    "@[<v>engine-diff: %d seeds under %s (plan: %s): %s@]" r.gd_seeds
    r.gd_config.Cage.Config.name (plan_name r.gd_config)
    (if ok r then "interp and threaded engines observationally identical"
     else Printf.sprintf "%d FAILURES" (List.length r.gd_failures))
