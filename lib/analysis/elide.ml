(** Check-elision planning: turn {!Absint} verdicts into the
    per-function bitsets {!Wasm.Code.with_plan} attaches to the door's
    bodies.

    A tag bit is set only for verdict 1 — an access proven in-bounds on
    a definitely-live, single-allocation segment in {e every} analyzed
    context. A bounds bit needs only the in-segment half of the proof
    (a successfully created segment lies inside linear memory), so the
    tag set is a subset of the bounds set and the runtime keeps three
    access shapes: checked, tag-elided, fully elided. Unvisited
    accesses (verdict 0: dead code, or functions reachable only from
    the indirect-call table) stay checked.

    [~spec_safe] intersects the verdicts with a second analysis run
    under the Swivel-style speculation model ({!Absint.analyze}
    [~spec:true]): branch refinement is disabled there, so a proof that
    leaned on a bounds-check-style branch does not survive and the
    corresponding runtime check stays. [~arena] additionally runs
    {!Escape} over the resulting tag plan to lower non-escaping
    [segment.new]/[segment.free] pairs to tag-write-free form. *)

type plan = {
  bitsets : Bytes.t array;  (** per local function, indexed like the module *)
  bbitsets : Bytes.t array;
      (** bounds-elision bits: a superset of [bitsets] per function *)
  arena : Bytes.t array;
      (** arena bits for [segment.new]/[segment.free] ({!Escape}) *)
  proven : int;  (** accesses whose granule check will be skipped *)
  bproven : int;  (** accesses whose span check will be skipped *)
  considered : int;  (** accesses the analysis visited *)
  spec_unsafe : int;
      (** accesses provable architecturally but not under speculation *)
  arena_sites : int;  (** allocation sites lowered to the arena *)
  arena_news : int;  (** [segment.new] instructions losing tag writes *)
  arena_frees : int;  (** [segment.free] instructions losing tag writes *)
}

(* Verdict meet across two runs: unprovable (2) dominates, proven (1)
   survives only if no run refuted it. *)
let meet_rows a b = Array.map2 (fun ra rb -> Array.map2 max ra rb) a b

(* The plan rows marking every proven (verdict 1) access. *)
let bitsets_of_rows rows =
  Array.map
    (fun row -> Wasm.Code.bitset (Array.length row) (fun id -> row.(id) = 1))
    rows

let count p rows =
  Array.fold_left
    (fun n row -> Array.fold_left (fun n v -> if p v then n + 1 else n) n row)
    0 rows

(** The accesses speculation makes unsafe to elide: proven in the
    architectural analysis [a] but not in its meet with the speculative
    analysis [sp], as (local function, instruction id) pairs in function
    then id order. [--no-spec-elide] keeps their checks, and
    [cage_lint --Wspectre] lists them. *)
let spec_unsafe_sites (a : Absint.analysis) (sp : Absint.analysis) =
  let sites = ref [] in
  Array.iteri
    (fun f row ->
      Array.iteri
        (fun id v ->
          if v = 1 && max v sp.Absint.a_verdicts.(f).(id) <> 1 then
            sites := (f, id) :: !sites)
        row)
    a.Absint.a_verdicts;
  List.rev !sites

let of_analysis ?spec_analysis ?(arena = false) (a : Absint.analysis) : plan =
  let tag_rows, bounds_rows, spec_unsafe =
    match spec_analysis with
    | None -> (a.Absint.a_verdicts, a.Absint.a_bverdicts, 0)
    | Some (sp : Absint.analysis) ->
        let tr = meet_rows a.Absint.a_verdicts sp.Absint.a_verdicts in
        let br = meet_rows a.Absint.a_bverdicts sp.Absint.a_bverdicts in
        (tr, br, List.length (spec_unsafe_sites a sp))
  in
  let bitsets = bitsets_of_rows tag_rows in
  let esc = if arena then Escape.compute a ~bitsets else Escape.no_arena in
  {
    bitsets;
    bbitsets = bitsets_of_rows bounds_rows;
    arena = esc.Escape.arena;
    proven = count (fun v -> v = 1) tag_rows;
    bproven = count (fun v -> v = 1) bounds_rows;
    considered = count (fun v -> v > 0) tag_rows;
    spec_unsafe;
    arena_sites = esc.Escape.sites_arena;
    arena_news = esc.Escape.news;
    arena_frees = esc.Escape.frees;
  }

let plan ?(spec_safe = false) ?(arena = false) (m : Wasm.Ast.module_) : plan =
  if spec_safe then
    let a, sp = Absint.analyze_both m in
    of_analysis ~spec_analysis:sp ~arena a
  else of_analysis ~arena (Absint.analyze m)
