(** Whole-module abstract interpretation over Cage wasm.

    The analyzer walks the prepared body (the {!Wasm.Code} form the
    door, {!Wasm.Validate.prepare}, builds and both engines run) of
    every function reachable from the module entry point, tracking for
    each abstract value
    (locals + operand stack, fixpoint joins at control-flow merges):

    - {e segment provenance} — which [segment.new]/[segment.set_tag]
      allocation site a pointer came from, and whether it still carries
      its tag bits;
    - {e offset intervals} — a conservative [lo,hi] range for the
      pointer's byte offset into its segment (and for plain integers,
      their value range);
    - {e segment liveness} — per allocation site, whether the segment
      is definitely live, definitely freed, freed on some path, or
      unknown (havocked by an indirect call or an unanalyzable free).

    Calls are analyzed {e per call string}: each callee is re-run with
    the caller's abstract arguments, so `malloc(64)` inside the analyzed
    libc yields an exact segment size. Recursion, excessive depth and
    [call_indirect] fall back to the callee's {!Summary}. The module is
    read through the door, once per module ({!view}): its
    {!Wasm.Ast.index} and prepared bodies, with the summaries built
    over them, are shared by the architectural and the speculative run
    ({!analyze_both}). An invalid module raises
    {!Wasm.Validate.Invalid} before anything is analyzed.

    Loops run a widening fixpoint with diagnostics deferred; the pass
    that finds the head stable is also the recording pass unless a site
    changed while it ran, in which case one recording pass over the
    stable head follows.

    Two consumers sit on top: {!Lint} (deterministic diagnostics for
    statically-definite UAF, double free, constant OOB, untagged
    accesses and leaked segments) and {!Elide} (per-instruction proofs
    that an access is in-bounds on a definitely-live segment, letting
    the interpreter skip the MTE granule check — see
    {!Wasm.Code.elidable}). *)

module Ast = Wasm.Ast
module Types = Wasm.Types
module Code = Wasm.Code
module Label_stack = Wasm.Label_stack
module IMap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Domain                                                              *)
(* ------------------------------------------------------------------ *)

type site_kind = Heap | Stack

(** An allocation site, keyed by call path + instruction id (heap) or
    call path + frame offset (stack slot). Mutable flags accumulate
    facts across the whole analysis. *)
type site = {
  s_id : int;
  s_key : string;
  s_kind : site_kind;
  s_path : string;  (** call path of the function that allocated it *)
  s_instr : int;  (** allocating instruction id (diagnostics) *)
  s_lidx : int;  (** local function index of the allocating instruction
                     (-1 when unknown); arena lowering is per
                     (function, instruction) *)
  mutable s_size : Interval.t;  (** segment length in bytes *)
  mutable s_multi : bool;
      (** a [segment.new] re-executed while the site was already live
          (loop allocation): several concrete segments share this
          abstract site, so "definite" claims degrade to "possible"
          and elision is off *)
  mutable s_escaped : bool;  (** pointer stored to memory / host call *)
  mutable s_escaped_dead : bool;
      (** only an {e untagged} address escaped, and only while the
          segment was definitely freed (the allocator threading a dead
          chunk onto its free list). After [segment.free] the payload
          granules read as tag zero whether or not the site was
          arena-lowered, so such an escape cannot observe the missing
          tag writes — unless the site is later re-allocated
          ([s_reincarnated]) while the stale address is still abroad *)
  mutable s_reincarnated : bool;
      (** a [segment.new] re-executed after the site was freed: a new
          concrete segment under the same abstract site. Harmless on
          its own, but combined with [s_escaped_dead] a stale dead
          address may alias the new incarnation's live granules *)
  mutable s_leaked_reported : bool;
  mutable s_arena_unsafe : bool;
      (** the segment's tag bits may ride on a value the analysis lost
          track of (joined away, laundered through arithmetic, stored,
          retagged, or handed to a summarized callee that dereferences
          it): a checked access could then consult the tag plane, so
          the site must keep its real tag writes ({!Escape}) *)
  mutable s_accesses : (int * int) list;
      (** (local function, instruction id) of every scalar access made
          through this site's provenance — arena eligibility demands
          each one be elided under the active elision plan *)
  mutable s_unproven_access : bool;
      (** some access through this provenance cannot be elided at
          runtime (a bulk op, or an access in a blacklisted function):
          disqualifies the site from arena lowering *)
}

(** Per-site liveness; a missing map entry is bottom (never allocated
    on this path). *)
type liveness = Live | Freed | MaybeFreed | UnknownLive

let join_liveness a b =
  match (a, b) with
  | UnknownLive, _ | _, UnknownLive -> UnknownLive
  | Live, Live -> Live
  | Freed, Freed -> Freed
  | _ -> MaybeFreed

(** One comparison operand: optional local provenance + value range. *)
type operand = int option * Interval.t

(** Abstract values. *)
type aval =
  | Top
  | Int of Interval.t  (** plain number *)
  | Loc of int * Interval.t
      (** number read from a local (stack-only; branch refinement
          writes the narrowed range back into the local) *)
  | Ptr of { site : site; off : Interval.t; tagged : bool }
  | Sp of int * Interval.t  (** untagged stack pointer: id + offset *)
  | TagVal of site option  (** a value with only tag bits (low 48 zero) *)
  | TaggedSp of int * int64
      (** stack slot address with tag bits or'ed in, awaiting its
          [segment.set_tag] (sp id + singleton frame offset) *)
  | Cmp of cmp  (** boolean result of a comparison, pre-branch *)

and cmp = {
  cw : Ast.width;
  cop : Ast.irelop;
  cneg : bool;  (** an odd number of [eqz] applied on top *)
  clhs : operand;
  crhs : operand;
}

(** The abstract machine state. The evaluator runs each function on
    one state it mutates in place (its {e frame}); a state it keeps —
    a pending branch, a loop head, a join result — is never written
    again and carries an empty stack. A frame and a kept state may
    share [locals]: the frame copies it before its first write unless
    [own] says no kept state holds it. *)
type state = {
  mutable locals : aval array;
  mutable own : bool;
  mutable stack : aval list;
  mutable g0 : aval;  (** the stack-pointer global *)
  mutable live : liveness IMap.t;
}

type severity = Definite | Possible

type diag = {
  d_path : string;  (** call path, e.g. ["main#12>memset"] *)
  d_instr : int;  (** basic-instruction id within the function *)
  d_severity : severity;
  d_msg : string;
}

(* ------------------------------------------------------------------ *)
(* Value lattice                                                       *)
(* ------------------------------------------------------------------ *)

let iv_of = function
  | Int iv | Loc (_, iv) -> Some iv
  | Cmp _ -> Some Interval.bool_
  | _ -> None

let operand_equal (a, x) (b, y) = a = b && Interval.equal x y

let cmp_equal a b =
  a.cw = b.cw && a.cop = b.cop && a.cneg = b.cneg
  && operand_equal a.clhs b.clhs
  && operand_equal a.crhs b.crhs

let aval_equal a b =
  a == b ||
  match (a, b) with
  | Top, Top -> true
  | Int x, Int y -> Interval.equal x y
  | Loc (i, x), Loc (j, y) -> i = j && Interval.equal x y
  | Ptr p, Ptr q ->
      p.site == q.site && Interval.equal p.off q.off && p.tagged = q.tagged
  | Sp (i, x), Sp (j, y) -> i = j && Interval.equal x y
  | TagVal a, TagVal b -> (
      match (a, b) with
      | None, None -> true
      | Some s, Some t -> s == t
      | _ -> false)
  | TaggedSp (i, x), TaggedSp (j, y) -> i = j && Int64.equal x y
  | Cmp a, Cmp b -> cmp_equal a b
  | _ -> false

(* A tagged pointer (or an extracted tag value) merged into a value
   that no longer names its site can still carry the tag bits at
   runtime; a later checked access through such a value consults the
   tag plane, so the site must keep its real tag writes (see
   {!Escape}). *)
let arena_taint_aval = function
  | Ptr { site; tagged = true; _ } -> site.s_arena_unsafe <- true
  | TagVal (Some site) -> site.s_arena_unsafe <- true
  | _ -> ()

let join_aval a b =
  if aval_equal a b then a
  else
    match (a, b) with
    | Int x, Int y -> Int (Interval.join x y)
    | Loc (i, x), Loc (j, y) when i = j -> Loc (i, Interval.join x y)
    | (Int x | Loc (_, x)), (Int y | Loc (_, y)) -> Int (Interval.join x y)
    | Ptr p, Ptr q when p.site == q.site ->
        if p.tagged <> q.tagged then p.site.s_arena_unsafe <- true;
        Ptr
          {
            site = p.site;
            off = Interval.join p.off q.off;
            tagged = p.tagged && q.tagged;
          }
    (* assume-allocation-success: malloc's [return 0] failure arm joins
       into the pointer, not the other way round — the OOM path is dead
       in every workload and keeping provenance is what makes the
       analysis useful. The runtime still traps if it ever happens. *)
    | Ptr p, Int z when Interval.is_const 0L z -> Ptr p
    | Int z, Ptr p when Interval.is_const 0L z -> Ptr p
    | Sp (i, x), Sp (j, y) when i = j -> Sp (i, Interval.join x y)
    | TagVal _, TagVal _ ->
        arena_taint_aval a;
        arena_taint_aval b;
        TagVal None
    | (Cmp _ | Int _ | Loc _), (Cmp _ | Int _ | Loc _) ->
        Int
          (Interval.join
             (match iv_of a with Some v -> v | None -> Interval.top)
             (match iv_of b with Some v -> v | None -> Interval.top))
    | _ ->
        arena_taint_aval a;
        arena_taint_aval b;
        Top

let widen_aval ~prev ~next =
  match (prev, next) with
  | (Int _ | Loc _ | Ptr _ | Sp _), _ when prev == next -> next
  | Int p, Int n -> Int (Interval.widen ~prev:p ~next:n)
  | Loc (i, p), Loc (j, n) when i = j -> Loc (i, Interval.widen ~prev:p ~next:n)
  | Ptr p, Ptr n when p.site == n.site ->
      Ptr { n with off = Interval.widen ~prev:p.off ~next:n.off }
  | Sp (i, p), Sp (j, n) when i = j -> Sp (i, Interval.widen ~prev:p ~next:n)
  | _ ->
      arena_taint_aval prev;
      next

let join_live_map a b =
  if a == b || IMap.equal ( = ) a b then a
  else IMap.union (fun _ x y -> Some (join_liveness x y)) a b

(* Write local [l] of a frame, copying [locals] first if a kept state
   may share it. *)
let write_local st l v =
  if not st.own then begin
    st.locals <- Array.copy st.locals;
    st.own <- true
  end;
  st.locals.(l) <- v

(* A kept copy of frame [st]: it shares [locals] until the frame writes
   one. *)
let save st =
  st.own <- false;
  { st with stack = [] }

(* Frame [st] takes over state [s]. *)
let load st s =
  st.locals <- s.locals;
  st.own <- s.own;
  st.stack <- s.stack;
  st.g0 <- s.g0;
  st.live <- s.live

(* [st] := [st] ⊔ [s] in place. Values [s] shares with [st] are skipped,
   and [locals] is copied only if a value changes. *)
let join_into st s =
  let b = s.locals in
  if st.locals != b then
    for i = 0 to Array.length b - 1 do
      let x = st.locals.(i) in
      if x != b.(i) then begin
        let j = join_aval x b.(i) in
        if j != x then write_local st i j
      end
    done;
  st.g0 <- join_aval st.g0 s.g0;
  st.live <- join_live_map st.live s.live

let join_state a b =
  let r = save a in
  join_into r b;
  r.own <- false;
  r

let widen_state ~prev ~next =
  let r = save next in
  Array.iteri
    (fun i p ->
      let n = r.locals.(i) in
      let w = widen_aval ~prev:p ~next:n in
      if w != n then write_local r i w)
    prev.locals;
  r.g0 <- widen_aval ~prev:prev.g0 ~next:r.g0;
  r.own <- false;
  r

(* Kept states carry no stack. *)
let state_equal a b =
  (a.locals == b.locals
  || Array.length a.locals = Array.length b.locals
     && Array.for_all2 aval_equal a.locals b.locals)
  && aval_equal a.g0 b.g0
  && (a.live == b.live || IMap.equal ( = ) a.live b.live)

(* ------------------------------------------------------------------ *)
(* Local scrubbing and branch refinement                               *)
(* ------------------------------------------------------------------ *)

let negate_op : Ast.irelop -> Ast.irelop = function
  | Eq -> Ne
  | Ne -> Eq
  | LtS -> GeS
  | LtU -> GeU
  | GtS -> LeS
  | GtU -> LeU
  | LeS -> GtS
  | LeU -> GtU
  | GeS -> LtS
  | GeU -> LtU

let swap_op : Ast.irelop -> Ast.irelop = function
  | Eq -> Eq
  | Ne -> Ne
  | LtS -> GtS
  | LtU -> GtU
  | GtS -> LtS
  | GtU -> LtU
  | LeS -> GeS
  | LeU -> GeU
  | GeS -> LeS
  | GeU -> LeU

(* The interval [x] must lie in when [x op r] holds, for r ranging over
   [riv]. Unsigned shapes are only refined where the signed-int64
   representation makes them sound. *)
let constraint_of (op : Ast.irelop) (riv : Interval.t) : Interval.t =
  let open Interval in
  (* saturating: stepping past max_int/min_int must widen to infinity,
     not wrap around into a tiny (unsound) bound *)
  let dec = function Some v -> Interval.pred_sat v | None -> None in
  let inc = function Some v -> Interval.succ_sat v | None -> None in
  match op with
  | Eq -> riv
  | Ne -> top
  | LtS -> of_bounds None (dec riv.hi)
  | LeS -> of_bounds None riv.hi
  | GtS -> of_bounds (inc riv.lo) None
  | GeS -> of_bounds riv.lo None
  | LtU when is_nonneg riv && hi_finite riv -> of_bounds (Some 0L) (dec riv.hi)
  | LeU when is_nonneg riv && hi_finite riv -> of_bounds (Some 0L) riv.hi
  | LtU | LeU | GtU | GeU -> top

(* Meet [c] into whatever numeric value local [i] currently holds;
   [false] = contradiction, the branch is unreachable. *)
let refine_local st i c =
  match st.locals.(i) with
  | Int iv | Loc (_, iv) -> (
      match Interval.meet iv c with
      | None -> false
      | Some iv' ->
          if not (Interval.equal iv iv') then write_local st i (Int iv');
          true)
  | _ -> true

let refine_side st op ((name, iv) : operand) ((_, riv) : operand) =
  let c = constraint_of op riv in
  match Interval.meet iv c with
  | None -> false
  | Some _ -> ( match name with Some i -> refine_local st i c | None -> true)

let refine_cmp st (c : cmp) truth =
  let holds = truth <> c.cneg in
  let op = if holds then c.cop else negate_op c.cop in
  refine_side st op c.clhs c.crhs && refine_side st (swap_op op) c.crhs c.clhs

(** Refine frame [st] in place under the assumption that condition
    value [cond] is true ([truth]) or false; [false] = branch
    unreachable.

    [spec] is the Swivel-style speculation model: inside a
    bounds-check-bypass window a mispredicted branch executes either
    arm regardless of the condition, so refinement performs no
    narrowing and prunes no path — every branch-derived fact the
    architectural analysis relied on evaporates. *)
let refine ?(spec = false) cond truth st =
  spec ||
  match cond with
  | Cmp c -> refine_cmp st c truth
  | Ptr _ | Sp _ | TaggedSp _ -> truth
  | Int iv | Loc (_, iv) -> (
      let upd iv' =
        match cond with Loc (i, _) -> refine_local st i iv' | _ -> true
      in
      if truth then
        if Interval.is_const 0L iv then false
        else if Interval.lo_ge iv 0L then
          upd { iv with lo = Some (Int64.max 1L (Option.value iv.lo ~default:1L)) }
        else true
      else
        match Interval.meet iv (Interval.const 0L) with
        | None -> false
        | Some z -> upd z)
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Global analysis environment                                         *)
(* ------------------------------------------------------------------ *)

(* What every analysis of one module reads and none writes, built once
   per module: the architectural and the speculative run share it. *)
type view = {
  m : Ast.module_;
  ix : Ast.index;  (** every type, function and import lookup *)
  code : Code.func array;
      (** the prepared bodies the engines run: a verdict for
          [Basic (_, id)] here skips that instruction's check there *)
  blacklist : bool array;
      (** local functions the indirect-call table reaches over direct
          calls ({!Callgraph.reachable}): their bodies may run in
          instances we did not analyze from [main], so no elision
          verdicts are recorded for them *)
  summaries : Summary.t array;
      (** interprocedural per-function summaries, consulted where
          call-string inlining gives up (recursion, the depth cap)
          instead of the old blanket havoc *)
  indirect : Summary.t option array;
      (** per type index, the summary a [call_indirect] of that type
          stands in for its callee with ({!Summary.indirect_joins}) *)
}

type genv = {
  v : view;
  verdicts : int array array;  (** 0 unvisited, 1 proven, 2 unproven *)
  bverdicts : int array array;
      (** parallel bounds verdicts: the access interval is proven
          inside linear memory (a strictly weaker claim than the tag
          verdict — a segment lives entirely inside memory at creation
          and memory never shrinks, so tag-proven implies
          bounds-proven) *)
  frees : (int * int, site list ref * bool ref) Hashtbl.t;
      (** per (local function, instruction id) [segment.free] record:
          every site the instruction can free, and a dirty bit set
          when any operand was untracked, possibly-dead or multi —
          {!Escape}'s unit of arena lowering *)
  spec : bool;  (** run under the speculation model (see {!refine}) *)
  sites : (string, site) Hashtbl.t;
  mutable all_sites : site list;
  mutable site_count : int;
  mutable sp_count : int;
  mutable diags : diag list;
  diag_seen : (string * int * string, unit) Hashtbl.t;
  mutable recording : bool;
      (** cleared during loop stabilization passes, which defer their
          recording effects ({!record}) *)
  mutable deferred : (unit -> unit) list;
      (** the current stabilization pass's recording effects, newest
          first *)
  mutable site_changes : int;
      (** bumped when a site is created or its size, multiplicity or
          escape flags change: the site facts a pass reads *)
}

(* A label: its arity, and the join of the kept states that branched
   to it with their carried values. *)
type frame = { f_arity : int; mutable f_pend : (aval list * state) option }

(* What a label stack's vacated cells hold. *)
let no_frame = { f_arity = 0; f_pend = None }

type fenv = {
  g : genv;
  path : string;
  verdict_row : int array;  (** [[||]] when the function is blacklisted *)
  bverdict_row : int array;  (** parallel bounds row, same blacklisting *)
  active : int list;  (** function indices on the analysis call stack *)
  depth : int;
  mutable cmp_locals : int list;
      (** locals this activation has set to a comparison ({!scrub_local}) *)
  mutable saved : aval list list;
      (** the operand stacks the enclosing blocks were entered over,
          innermost first: a local write scrubs them too *)
  frames : frame Label_stack.t;
      (** the enclosing labels, innermost on top; the function's own at
          the bottom *)
}

let n_imports g = Array.length g.v.ix.Ast.ix_imports

(* The function currently being analyzed: [run] seeds [active] with
   the entry and every inlined call pushes its callee, so the head is
   always the enclosing function. *)
let cur_lidx fenv =
  match fenv.active with f :: _ -> f - n_imports fenv.g | [] -> -1

(* ------------------------------------------------------------------ *)
(* Sites, diagnostics, verdicts                                        *)
(* ------------------------------------------------------------------ *)

let site_changed g = g.site_changes <- g.site_changes + 1

let set_multi g site =
  if not site.s_multi then begin
    site.s_multi <- true;
    site_changed g
  end

let find_site g ~key ~kind ~path ~instr ~lidx ~size =
  match Hashtbl.find_opt g.sites key with
  | Some s ->
      let size = Interval.join s.s_size size in
      if not (Interval.equal size s.s_size) then begin
        s.s_size <- size;
        site_changed g
      end;
      s
  | None ->
      let s =
        {
          s_id = g.site_count;
          s_key = key;
          s_kind = kind;
          s_path = path;
          s_instr = instr;
          s_lidx = lidx;
          s_size = size;
          s_multi = false;
          s_escaped = false;
          s_escaped_dead = false;
          s_reincarnated = false;
          s_leaked_reported = false;
          s_arena_unsafe = false;
          s_accesses = [];
          s_unproven_access = false;
        }
      in
      g.site_count <- g.site_count + 1;
      site_changed g;
      Hashtbl.add g.sites key s;
      g.all_sites <- s :: g.all_sites;
      s

(* A recording effect (a diagnostic, an access, free or leak record):
   applied now in a recording pass, kept with the pass otherwise — a
   loop stabilization pass may stand in for the loop's recording pass
   (see [Code.Loop] in {!eval_instr}). *)
let record g f = if g.recording then f () else g.deferred <- f :: g.deferred

let diag fenv ~id ~severity msg =
  let g = fenv.g in
  record g (fun () ->
      let key = (fenv.path, id, msg) in
      if not (Hashtbl.mem g.diag_seen key) then begin
        Hashtbl.add g.diag_seen key ();
        g.diags <-
          { d_path = fenv.path; d_instr = id; d_severity = severity; d_msg = msg }
          :: g.diags
      end)

(* Verdict meet: unvisited takes the new value, and unproven (2)
   dominates proven (1) — an access is elidable only if every analyzed
   context proves it. *)
let mark_row row id proven =
  if id >= 0 && id < Array.length row then begin
    let v = if proven then 1 else 2 in
    row.(id) <- (if row.(id) = 0 then v else max row.(id) v)
  end

let mark_verdict fenv id proven = mark_row fenv.verdict_row id proven
let mark_bverdict fenv id proven = mark_row fenv.bverdict_row id proven

let liveness_of st (site : site) =
  match IMap.find_opt site.s_id st.live with
  | Some l -> l
  | None -> UnknownLive

(* [?live] refines the escape: an untagged address stored while its
   segment is definitely freed (the allocator pushing a dead chunk
   onto the free list) is recorded as a dead escape, which blocks
   arena lowering only if the site is later re-allocated. Call sites
   without liveness at hand (host calls, summarized callees) stay
   maximally conservative. *)
let escape_site g ?live v =
  match v with
  | Ptr { site; tagged; _ } -> (
      match live with
      | Some st
        when (not tagged) && (not site.s_multi)
             && liveness_of st site = Freed ->
          if not site.s_escaped_dead then begin
            site.s_escaped_dead <- true;
            site_changed g
          end
      | _ ->
          if not site.s_escaped then begin
            site.s_escaped <- true;
            site_changed g
          end)
  | _ -> ()

let sev_of site = if site.s_multi then Possible else Definite

(* The access oracle: diagnostics + the elision verdict for one memory
   access of [len] bytes at [addr] (the effective address value, with
   the memarg constant offset already folded into pointer offsets by
   the caller). [elide_ok] is true only for scalar loads/stores. *)
let check_access fenv st ~id ~addr ~(len : Interval.t) ~is_store ~elide_ok =
  let what = if is_store then "store" else "load" in
  let proven = ref false in
  let bproven = ref false in
  (match addr with
  | Ptr { site; off = eff; tagged } -> (
      let live = liveness_of st site in
      let size = site.s_size in
      (* the allocator's own chunk-header accesses sit just below the
         payload, untagged — silent for both bounds and liveness (free
         legitimately touches the header after segment.free) *)
      let header_access =
        (not tagged)
        && (match eff.hi with Some h -> h < 0L | None -> false)
      in
      (* use-after-free *)
      (match live with
      | _ when header_access -> ()
      | Freed ->
          diag fenv ~id ~severity:(sev_of site)
            (Printf.sprintf "%s through freed segment %s" what site.s_key)
      | MaybeFreed ->
          diag fenv ~id ~severity:Possible
            (Printf.sprintf "%s through segment %s freed on some path" what
               site.s_key)
      | Live | UnknownLive -> ());
      (* bounds *)
      let open Interval in
      let len_lo = Option.value len.lo ~default:0L in
      let definite_over =
        match (eff.lo, size.hi) with
        | Some lo, Some sh ->
            len_lo > 0L
            && (match Interval.add_exact lo len_lo with
               | Some e -> e > sh
               | None -> true)
        | _ -> false
      in
      let definite_under =
        tagged && (match eff.hi with Some h -> h < 0L | None -> false)
      in
      let possible_oob =
        (* requires a finite nonnegative range: an unbounded-below
           offset must not masquerade as a near-miss *)
        (not definite_over) && (not definite_under)
        && is_nonneg eff
        && hi_finite eff
        &&
        match (eff.hi, len.hi, size.lo) with
        | Some h, Some lh, Some sl ->
            lh > 0L
            && (match Interval.add_exact h lh with
               | Some e -> e > sl
               | None -> true)
        (* unknown length stays silent: bulk ops with dynamic sizes
           (realloc's copy) would otherwise flag everywhere *)
        | _ -> false
      in
      if definite_over then
        diag fenv ~id ~severity:(sev_of site)
          (Printf.sprintf "%s out of bounds: offset %s past end of %s (%s bytes)"
             what (Interval.to_string eff) site.s_key
             (Interval.to_string size))
      else if definite_under then
        diag fenv ~id ~severity:(sev_of site)
          (Printf.sprintf "%s out of bounds: offset %s before start of %s" what
             (Interval.to_string eff) site.s_key)
      else if possible_oob then
        diag fenv ~id ~severity:Possible
          (Printf.sprintf "%s may run past end of %s: offset %s + %s > %s bytes"
             what site.s_key (Interval.to_string eff) (Interval.to_string len)
             (Interval.to_string size));
      (* untagged pointer into a checked (tagged) segment: silent for
         negative offsets — the allocator's own header accesses sit
         just below the payload by design *)
      (match eff.hi with
      | _ when tagged -> ()
      | Some h when h < 0L -> ()
      | _ ->
          diag fenv ~id ~severity:Possible
            (Printf.sprintf "%s through untagged pointer into tagged segment %s"
               what site.s_key));
      (* bounds elision: the access interval proven inside the segment.
         A segment that was successfully created lies entirely within
         linear memory (segment.new validates and zero-fills it) and
         memory never shrinks, so in-segment implies in-memory — no
         tag, liveness or multiplicity requirement. *)
      bproven :=
        is_nonneg eff && hi_finite eff
        && (match (eff.hi, len.hi, size.lo) with
           | Some h, Some lh, Some sl -> (
               match Interval.add_exact h lh with
               | Some e -> e <= sl
               | None -> false)
           | _ -> false);
      (* tag elision additionally needs: tagged, single concrete
         segment, definitely live. Tag-proven thus implies
         bounds-proven by construction — the runtime needs only three
         access paths (checked / tag-elided / fully-elided). *)
      proven := !bproven && tagged && (not site.s_multi) && live = Live;
      (* arena bookkeeping: every access through this provenance must
         itself be elided for the site's tag writes to be skippable.
         Exception: an untagged access wholly below the payload (the
         allocator reading a chunk header) touches only granules that
         [segment.new] never tags, so it cannot observe — and does not
         constrain — arena lowering. *)
      let arena_neutral =
        header_access
        && (match (eff.hi, len.hi) with
           | Some h, Some lh -> (
               match Interval.add_exact h lh with
               | Some e -> e <= 0L
               | None -> false)
           | _ -> false)
      in
      if not arena_neutral then
        record fenv.g (fun () ->
            if elide_ok && Array.length fenv.verdict_row > 0 then begin
              let f = cur_lidx fenv in
              let seen (f', id') = id' = id && f' = f in
              if not (List.exists seen site.s_accesses) then
                site.s_accesses <- (f, id) :: site.s_accesses
            end
            else site.s_unproven_access <- true))
  | _ -> ());
  if elide_ok then begin
    mark_verdict fenv id !proven;
    mark_bverdict fenv id !bproven
  end

(* ------------------------------------------------------------------ *)
(* Stack / state helpers                                               *)
(* ------------------------------------------------------------------ *)

let push v st = st.stack <- v :: st.stack

let pop st =
  match st.stack with
  | v :: rest ->
      st.stack <- rest;
      v
  | [] -> Top

(* First popped value first in the result (i.e. stack order, top first). *)
let popn st n = List.init n (fun _ -> pop st)

let push_n v n st = st.stack <- List.init n (fun _ -> v) @ st.stack

let take n stack =
  List.init n (fun i -> match List.nth_opt stack i with Some v -> v | None -> Top)

let set_local fenv st l v =
  if l < Array.length st.locals then begin
    (match v with
    | Cmp _ when not (List.mem l fenv.cmp_locals) ->
        fenv.cmp_locals <- l :: fenv.cmp_locals
    | _ -> ());
    write_local st l v
  end

(* Writing local [j] invalidates every stack/local value that named it:
   [Loc] provenance becomes a plain interval, comparisons naming it
   degrade to an unknown boolean. A local never holds a [Loc], and holds
   a [Cmp] only if it is in [cmp_locals] (the locals this activation
   ever set to one), so only those, the stack and the stacks the
   enclosing blocks set aside ([saved]) are scanned. *)
let scrub_local fenv st j =
  let names_j = function Some i, _ -> i = j | None, _ -> false in
  let stale = function
    | Loc (i, _) -> i = j
    | Cmp c -> names_j c.clhs || names_j c.crhs
    | _ -> false
  in
  let fix = function
    | Loc (_, iv) as v when stale v -> Int iv
    | Cmp _ as v when stale v -> Int Interval.bool_
    | v -> v
  in
  let scrub stack =
    if List.exists stale stack then List.map fix stack else stack
  in
  st.stack <- scrub st.stack;
  if List.exists (List.exists stale) fenv.saved then
    fenv.saved <- List.map scrub fenv.saved;
  if stale st.g0 then st.g0 <- fix st.g0;
  List.iter
    (fun k -> if stale st.locals.(k) then write_local st k (fix st.locals.(k)))
    fenv.cmp_locals

let get_local st l = if l < Array.length st.locals then st.locals.(l) else Top

(* Values crossing a statement boundary: local provenance and pending
   comparisons only make sense on the pushing function's stack. *)
let demote = function Loc (_, iv) -> Int iv | v -> v
let demote_cross = function
  | Loc (_, iv) -> Int iv
  | Cmp _ -> Int Interval.bool_
  | v -> v

let havoc_live live =
  IMap.map (function Freed -> Freed | _ -> UnknownLive) live

let coarsen_state st =
  let c = function
    | Int _ | Loc _ | Cmp _ -> Int Interval.top
    | Ptr p -> Ptr { p with off = Interval.top }
    | Sp (i, _) -> Sp (i, Interval.top)
    | v -> v
  in
  {
    locals = Array.map c st.locals;
    own = false;
    stack = [];
    g0 = c st.g0;
    live = havoc_live st.live;
  }

let access_len ty (pack : Ast.pack_size option) =
  match (pack, ty) with
  | Some Ast.Pack8, _ -> 1L
  | Some Ast.Pack16, _ -> 2L
  | Some Ast.Pack32, _ -> 4L
  | None, (Types.I32 | Types.F32) -> 4L
  | None, (Types.I64 | Types.F64) -> 8L

(* Fold a constant byte displacement (the memarg offset) into a value. *)
let addr_plus v (o : int64) =
  if Int64.equal o 0L then v
  else
    let c = Interval.const o in
    match v with
    | Ptr p -> Ptr { p with off = Interval.add p.off c }
    | Sp (i, off) -> Sp (i, Interval.add off c)
    | Int iv -> Int (Interval.add iv c)
    | Loc (_, iv) -> Int (Interval.add iv c)
    | v -> v

let low48_zero c =
  Int64.equal (Int64.logand c 0xFFFF_FFFF_FFFFL) 0L && not (Int64.equal c 0L)

let untag_mask = 0xFFFF_FFFF_FFFFL

let join_exit a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (va, sa), Some (vb, sb) ->
      Some (List.map2 join_aval va vb, join_state sa sb)

(* Kept state [s] branches to label [fr], carrying the top of [stack]. *)
let branch_join fr stack s =
  fr.f_pend <- join_exit fr.f_pend (Some (take fr.f_arity stack, s))

let branch_to fenv (l : Code.label) stack s =
  branch_join (Label_stack.nth fenv.frames l.depth) stack s

(* The values a frame leaves its block with, if it is reachable. *)
let exit_vals arity ok st = if ok then Some (take arity st.stack) else None

(* Frame [st], reachable with exit values [fall] when they are [Some],
   joined in place with [other] (a label's pending branches, or a dead
   sibling frame). The joined exit values, [None] if neither side is
   reachable. *)
let merge st fall other =
  match (fall, other) with
  | _, None -> fall
  | None, Some (vals, s) ->
      load st s;
      Some vals
  | Some va, Some (vb, s) ->
      let vals = List.map2 join_aval va vb in
      join_into st s;
      Some vals

(* A block-shaped construct starts on an empty stack; the stack it was
   entered over waits in [fenv.saved]. *)
let enter fenv st =
  fenv.saved <- st.stack :: fenv.saved;
  st.stack <- []

(* ... and ends: the stack it was entered over, scrubbed of the locals
   written since. *)
let restore fenv =
  match fenv.saved with
  | s :: rest ->
      fenv.saved <- rest;
      s
  | [] -> []

(* A block or [if] ends: [fall] joined with the label's pending branches
   is left in [st], over the stack it was entered with. *)
let leave fenv st fall frame =
  let saved = restore fenv in
  match merge st fall frame.f_pend with
  | None -> false
  | Some vals ->
      st.stack <- vals @ saved;
      true

let stack_key path o = Printf.sprintf "%s@stack%Ld" path o
let heap_key path id = Printf.sprintf "%s@heap#%d" path id

let clamp (w : Ast.width) iv =
  match w with Ast.W32 -> Interval.clamp32 iv | Ast.W64 -> iv

(* [f] over two numbers, wrapped to the operation's width. *)
let num w f a b =
  match (iv_of a, iv_of b) with
  | Some x, Some y -> Int (clamp w (f x y))
  | _ -> Top

(* Tag-taint: if an operand [v] carried live tag bits (a tagged pointer,
   or a tag nibble extracted from one) and the result [r] no longer
   names the site, the tag may survive in a value the analysis can no
   longer see — the site must keep its real tag-plane writes. *)
let taint_lost r v =
  match v with
  | Ptr { site; tagged = true; _ } -> (
      match r with
      | Ptr { site = s; _ } when s == site -> ()
      | TagVal (Some s) when s == site -> ()
      | _ -> site.s_arena_unsafe <- true)
  | TagVal (Some site) -> (
      match r with
      | Ptr { site = s; tagged = true; _ } when s == site -> ()
      | TagVal (Some s) when s == site -> ()
      | _ -> site.s_arena_unsafe <- true)
  | _ -> ()

(* Integer binops: interval arithmetic on numbers, offset arithmetic on
   pointers, and the three codegen idioms that manipulate tag bits
   (add a tag increment, mask the tag nibble out or in). *)
let eval_ibinop st (w : Ast.width) (op : Ast.ibinop) =
  let b = pop st in
  let a = pop st in
  let num f = num w f a b in
  let r =
    match op with
    | Ast.Add -> (
        match (a, b) with
        | Ptr p, (Int iv | Loc (_, iv)) | (Int iv | Loc (_, iv)), Ptr p -> (
            match Interval.singleton iv with
            | Some c when low48_zero c -> Ptr p (* tag-bits arithmetic *)
            | _ -> Ptr { p with off = Interval.add p.off iv })
        | Sp (sid, off), (Int iv | Loc (_, iv))
        | (Int iv | Loc (_, iv)), Sp (sid, off) ->
            Sp (sid, Interval.add off iv)
        | _ -> num Interval.add)
    | Ast.Sub -> (
        match (a, b) with
        | Ptr p, (Int iv | Loc (_, iv)) ->
            Ptr { p with off = Interval.sub p.off iv }
        | Sp (sid, off), (Int iv | Loc (_, iv)) ->
            Sp (sid, Interval.sub off iv)
        | Ptr p, Ptr q when p.site == q.site ->
            Int (clamp w (Interval.sub p.off q.off))
        | Sp (i1, o1), Sp (i2, o2) when i1 = i2 ->
            Int (clamp w (Interval.sub o1 o2))
        | _ -> num Interval.sub)
    | Ast.Mul -> num Interval.mul
    | Ast.DivS | Ast.DivU -> num Interval.div_s
    | Ast.RemS -> num Interval.rem_s
    | Ast.RemU -> num Interval.rem_u
    | Ast.And -> (
        match (a, b) with
        | Ptr p, (Int iv | Loc (_, iv)) | (Int iv | Loc (_, iv)), Ptr p -> (
            match Interval.singleton iv with
            | Some m when Int64.equal m untag_mask ->
                Ptr { p with tagged = false }
            | Some m when low48_zero m -> TagVal (Some p.site)
            | _ -> Top)
        | TaggedSp (sid, o), (Int iv | Loc (_, iv))
        | (Int iv | Loc (_, iv)), TaggedSp (sid, o) -> (
            match Interval.singleton iv with
            | Some m when Int64.equal m untag_mask ->
                Sp (sid, Interval.const o)
            | Some m when low48_zero m -> TagVal None
            | _ -> Top)
        | _ -> num Interval.logand)
    | Ast.Or -> (
        match (a, b) with
        | Sp (sid, off), TagVal _ | TagVal _, Sp (sid, off) -> (
            match Interval.singleton off with
            | Some o -> TaggedSp (sid, o)
            | None -> Top)
        | Ptr p, TagVal _ | TagVal _, Ptr p -> Ptr { p with tagged = true }
        | _ -> num Interval.logor)
    | Ast.Xor -> num Interval.logxor
    | Ast.Shl -> num Interval.shl
    | Ast.ShrS -> num Interval.shr_s
    | Ast.ShrU -> num Interval.shr_u
    | Ast.Rotl | Ast.Rotr -> num (fun _ _ -> Interval.top)
  in
  taint_lost r a;
  taint_lost r b;
  push r st

(* A call that inlining gives up on, to a callee summarized by [s]. Only
   arguments the callee can actually remember escape; liveness survives
   unless the callee (transitively) frees or retags; a pointer the callee
   may dereference loses arena candidacy, because it may access, or
   free, the pointee at instructions no verdict covers, so its tag plane
   stays. *)
let apply_summary g st (s : Summary.t) args nresults =
  List.iteri
    (fun i v ->
      if s.sm_escapes.(i) then escape_site g v;
      if s.sm_used.(i) && (s.sm_touches_mem || s.sm_mutates) then
        arena_taint_aval v)
    args;
  if s.sm_mutates then st.live <- havoc_live st.live;
  push_n Top nresults st

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

(* [eval_seq] runs a prepared sequence on frame [st]; [false] means the
   abstract path is unreachable (trapped, branched away) and [st] holds
   nothing. *)
let rec eval_seq fenv st (body : Code.instr array) =
  let n = Array.length body in
  let rec go i = i >= n || (eval_instr fenv st body.(i) && go (i + 1)) in
  go 0

(* [body] under the new innermost label [frame] *)
and eval_in fenv frame st body =
  Label_stack.push fenv.frames frame;
  let ok = eval_seq fenv st body in
  ignore (Label_stack.pop fenv.frames);
  ok

and eval_instr fenv st (ins : Code.instr) =
  let spec = fenv.g.spec in
  match ins with
  | Code.Basic (i, id) -> eval_basic fenv st i id
  | Code.Block (a, body) ->
      enter fenv st;
      let frame = { f_arity = a; f_pend = None } in
      let ok = eval_in fenv frame st body in
      leave fenv st (exit_vals a ok st) frame
  | Code.If (a, then_, else_) ->
      let cond = pop st in
      enter fenv st;
      let frame = { f_arity = a; f_pend = None } in
      (* the else arm runs on its own frame from the state before the
         then arm's refinement *)
      let els = save st in
      let run s truth body =
        refine ~spec cond truth s && eval_in fenv frame s body
      in
      let rt = run st true then_ in
      let re = run els false else_ in
      let arm =
        merge st (exit_vals a rt st)
          (Option.map (fun v -> (v, els)) (exit_vals a re els))
      in
      leave fenv st arm frame
  | Code.Loop (a, body) ->
      let g = fenv.g in
      enter fenv st;
      let frame = { f_arity = 0; f_pend = None } in
      let was_recording = g.recording and outer = g.deferred in
      g.recording <- false;
      (* phase 1: widening fixpoint over the loop head, recording
         effects deferred (site flags and elision verdicts still
         accumulate, which is sound: verdict marking is a meet). The
         pass that finds the head stable is the recording pass if no
         site fact changed while it ran: a recording pass would start
         from the same head over the same sites, so it would take the
         same path and record the same effects. *)
      let rec stabilize head iter =
        frame.f_pend <- None;
        g.deferred <- [];
        let changes = g.site_changes in
        load st head;
        let ok = eval_in fenv frame st body in
        let last =
          if g.site_changes = changes then Some (ok, g.deferred) else None
        in
        match frame.f_pend with
        | None -> (head, last)
        | Some (_, back) ->
            let j = join_state head back in
            let next =
              if iter >= 3 then widen_state ~prev:head ~next:j else j
            in
            if state_equal next head then (head, last)
            else if iter > 60 then (coarsen_state next, None)
            else stabilize next (iter + 1)
      in
      let stable, last = stabilize (save st) 0 in
      g.recording <- was_recording;
      g.deferred <- outer;
      (* phase 2: one recording pass over the stable head, unless the
         last pass stands in for it; the loop only exits through outer
         branches if the body never falls through *)
      let ok =
        match last with
        | Some (ok, effects) ->
            List.iter (record g) (List.rev effects);
            ok
        | None ->
            frame.f_pend <- None;
            load st stable;
            eval_in fenv frame st body
      in
      let saved = restore fenv in
      if ok then st.stack <- take a st.stack @ saved;
      ok
  | Code.Br l ->
      branch_to fenv l st.stack (save st);
      false
  | Code.BrIf l ->
      let cond = pop st in
      let taken = save st in
      if refine ~spec cond true taken then
        branch_to fenv l st.stack taken;
      refine ~spec cond false st
  | Code.BrTable (ts, d) ->
      ignore (pop st);
      let s = save st in
      branch_to fenv d st.stack s;
      Array.iter (fun l -> branch_to fenv l st.stack s) ts;
      false
  | Code.Return _ ->
      branch_join (Label_stack.bottom fenv.frames) st.stack (save st);
      false

and eval_basic fenv st (i : Ast.instr) (id : int) : bool =
  match i with
  | Ast.Unreachable -> false
  | Ast.Nop -> true
  | Ast.Block _ | Ast.Loop _ | Ast.If _ | Ast.Br _ | Ast.BrIf _
  | Ast.BrTable _ | Ast.Return ->
      true (* control instructions never reach eval_basic *)
  | Ast.Drop ->
      ignore (pop st);
      true
  | Ast.Select ->
      let c = pop st in
      let v2 = pop st in
      let v1 = pop st in
      let chosen =
        match c with
        | Int iv when Interval.is_const 0L iv -> v2
        | Int iv when not (Interval.mem 0L iv) -> v1
        | Ptr _ | Sp _ | TaggedSp _ -> v1
        | _ -> join_aval v1 v2
      in
      push chosen st; true
  | Ast.LocalGet l ->
      let v =
        match get_local st l with Int iv -> Loc (l, iv) | v -> v
      in
      push v st; true
  | Ast.LocalSet l ->
      let v = demote (pop st) in
      scrub_local fenv st l;
      set_local fenv st l v;
      true
  | Ast.LocalTee l ->
      let v = demote (pop st) in
      scrub_local fenv st l;
      set_local fenv st l v;
      push (match v with Int iv -> Loc (l, iv) | v -> v) st;
      true
  | Ast.GlobalGet 0 -> push st.g0 st; true
  | Ast.GlobalGet _ -> push Top st; true
  | Ast.GlobalSet n ->
      let v = pop st in
      if n = 0 then st.g0 <- demote v
      else begin
        (* a pointer parked in an ordinary global can be reloaded —
           and freed — anywhere; for the stack-pointer global the
           demoted value keeps its provenance above *)
        escape_site fenv.g ~live:st v;
        arena_taint_aval v
      end;
      true
  | Ast.I32Const c -> push (Int (Interval.const (Int64.of_int32 c))) st; true
  | Ast.I64Const c -> push (Int (Interval.const c)) st; true
  | Ast.F32Const _ | Ast.F64Const _ -> push Top st; true
  | Ast.IUnop (w, _) ->
      ignore (pop st);
      let bits = match w with Ast.W32 -> 32L | Ast.W64 -> 64L in
      push (Int (Interval.range 0L bits)) st; true
  | Ast.IBinop (w, op) -> eval_ibinop st w op; true
  | Ast.ITestop w ->
      let v = pop st in
      let r =
        match v with
        | Cmp c -> Cmp { c with cneg = not c.cneg }
        | Ptr _ | Sp _ | TaggedSp _ -> Int (Interval.const 0L)
        | Int iv -> Cmp { cw = w; cop = Ast.Eq; cneg = false;
                          clhs = (None, iv); crhs = (None, Interval.const 0L) }
        | Loc (l, iv) -> Cmp { cw = w; cop = Ast.Eq; cneg = false;
                               clhs = (Some l, iv);
                               crhs = (None, Interval.const 0L) }
        | _ -> Int Interval.bool_
      in
      push r st; true
  | Ast.IRelop (w, op) ->
      let b = pop st in
      let a = pop st in
      let opnd = function
        | Int iv -> Some ((None : int option), iv)
        | Loc (l, iv) -> Some (Some l, iv)
        | Cmp _ -> Some (None, Interval.bool_)
        | _ -> None
      in
      let r =
        match (opnd a, opnd b) with
        | Some l, Some r ->
            Cmp { cw = w; cop = op; cneg = false; clhs = l; crhs = r }
        | _ ->
            let is_zero v =
              match iv_of v with
              | Some iv -> Interval.is_const 0L iv
              | None -> false
            in
            let is_ptr = function
              | Ptr _ | Sp _ | TaggedSp _ -> true
              | _ -> false
            in
            (* a freshly tagged pointer is never null: malloc's OOM arm
               is the only source of 0 and the join keeps the pointer *)
            if (is_ptr a && is_zero b) || (is_zero a && is_ptr b) then
              match op with
              | Ast.Eq -> Int (Interval.const 0L)
              | Ast.Ne -> Int (Interval.const 1L)
              | _ -> Int Interval.bool_
            else Int Interval.bool_
      in
      push r st; true
  | Ast.FUnop _ ->
      ignore (pop st);
      push Top st; true
  | Ast.FBinop _ ->
      ignore (pop st);
      ignore (pop st);
      push Top st; true
  | Ast.FRelop _ ->
      ignore (pop st);
      ignore (pop st);
      push (Int Interval.bool_) st; true
  | Ast.Cvtop c -> (
      let v = pop st in
      match c with
      | Ast.I32WrapI64 -> (
          match iv_of v with
          | Some iv
            when Interval.lo_ge iv Interval.i32_min
                 && (match iv.hi with
                    | Some h -> h <= Interval.i32_max
                    | None -> false) ->
              push v st; true
          | _ -> push (Int Interval.i32_full) st; true)
      | Ast.I64ExtendI32S -> push v st; true
      | Ast.I64ExtendI32U -> (
          match iv_of v with
          | Some iv when Interval.is_nonneg iv -> push v st; true
          | Some iv -> push (Int (Interval.extend_u32 iv)) st; true
          | None -> push (Int (Interval.range 0L 0xFFFF_FFFFL)) st; true)
      | _ -> push Top st; true)
  | Ast.Load (ty, pack, ma) ->
      let addr = pop st in
      let len = access_len ty (Option.map fst pack) in
      let eff = addr_plus addr ma.Ast.offset in
      check_access fenv st ~id ~addr:eff ~len:(Interval.const len)
        ~is_store:false ~elide_ok:true;
      let v =
        match (ty, pack) with
        | _, Some (Ast.Pack8, Ast.ZX) -> Int (Interval.range 0L 0xffL)
        | _, Some (Ast.Pack16, Ast.ZX) -> Int (Interval.range 0L 0xffffL)
        | _, Some (Ast.Pack32, Ast.ZX) -> Int (Interval.range 0L 0xffff_ffffL)
        | _, Some (Ast.Pack8, Ast.SX) -> Int (Interval.range (-128L) 127L)
        | _, Some (Ast.Pack16, Ast.SX) -> Int (Interval.range (-32768L) 32767L)
        | _, Some (Ast.Pack32, Ast.SX) -> Int Interval.i32_full
        | Types.I32, None -> Int Interval.i32_full
        | _ -> Top
      in
      push v st; true
  | Ast.Store (ty, pack, ma) ->
      let v = pop st in
      let addr = pop st in
      escape_site fenv.g ~live:st v; (* a pointer written to memory escapes *)
      arena_taint_aval v; (* and its tag bits can come back untracked *)
      let len = access_len ty pack in
      let eff = addr_plus addr ma.Ast.offset in
      check_access fenv st ~id ~addr:eff ~len:(Interval.const len)
        ~is_store:true ~elide_ok:true;
      true
  | Ast.MemorySize -> push (Int Interval.nonneg) st; true
  | Ast.MemoryGrow ->
      ignore (pop st);
      push (Int (Interval.of_bounds (Some (-1L)) None)) st; true
  | Ast.MemoryFill ->
      let lenv = pop st in
      ignore (pop st);
      let dst = pop st in
      let len = Option.value (iv_of lenv) ~default:Interval.top in
      check_access fenv st ~id ~addr:dst ~len ~is_store:true ~elide_ok:false;
      true
  | Ast.MemoryCopy ->
      let lenv = pop st in
      let src = pop st in
      let dst = pop st in
      let len = Option.value (iv_of lenv) ~default:Interval.top in
      check_access fenv st ~id ~addr:src ~len ~is_store:false ~elide_ok:false;
      check_access fenv st ~id ~addr:dst ~len ~is_store:true ~elide_ok:false;
      true
  | Ast.SegmentNew _ ->
      let lenv = pop st in
      let base = pop st in
      let g = fenv.g in
      let size = Option.value (iv_of lenv) ~default:Interval.top in
      let key, kind =
        match base with
        | Sp (_, off) when Interval.singleton off <> None ->
            ( stack_key fenv.path (Option.get (Interval.singleton off)),
              Stack )
        | _ -> (heap_key fenv.path id, Heap)
      in
      let site =
        find_site g ~key ~kind ~path:fenv.path ~instr:id
          ~lidx:(cur_lidx fenv) ~size
      in
      (* a blacklisted function's body may run in contexts this
         analysis never saw, so its allocations keep real tag writes *)
      if Array.length fenv.verdict_row = 0 then site.s_arena_unsafe <- true;
      (match IMap.find_opt site.s_id st.live with
      | Some Live -> set_multi g site (* loop allocation: ≥2 live *)
      | Some (Freed | MaybeFreed) -> site.s_reincarnated <- true
      | _ -> ());
      st.live <- IMap.add site.s_id Live st.live;
      push (Ptr { site; off = Interval.const 0L; tagged = true }) st;
      true
  | Ast.SegmentSetTag _ -> (
      let lenv = pop st in
      let tagged = pop st in
      let _base = pop st in
      let g = fenv.g in
      match tagged with
      | TaggedSp (_, foff) ->
          (* stack-slot tagging: the slot becomes a live stack site and
             every copy of the pending tagged address becomes a pointer *)
          let size = Option.value (iv_of lenv) ~default:Interval.top in
          let site =
            find_site g ~key:(stack_key fenv.path foff) ~kind:Stack
              ~path:fenv.path ~instr:id ~lidx:(cur_lidx fenv) ~size
          in
          (match IMap.find_opt site.s_id st.live with
          | Some Live -> set_multi g site
          | _ -> ());
          let ptr = Ptr { site; off = Interval.const 0L; tagged = true } in
          let sub v = if aval_equal v tagged then ptr else v in
          st.locals <- Array.map sub st.locals;
          st.own <- true;
          st.stack <- List.map sub st.stack;
          st.g0 <- sub st.g0;
          st.live <- IMap.add site.s_id Live st.live;
          true
      | Sp (_, off) -> (
          (* retag back to the stack's own (zero) tag: the epilogue
             freeing a slot *)
          match Interval.singleton off with
          | Some o -> (
              match Hashtbl.find_opt g.sites (stack_key fenv.path o) with
              | Some site ->
                  st.live <- IMap.add site.s_id Freed st.live; true
              | None -> true)
          | None -> true)
      | Ptr { site; _ } ->
          (* an explicit retag writes the tag plane: the site's tag
             writes are real, so it cannot move to the arena *)
          site.s_arena_unsafe <- true;
          st.live <- IMap.add site.s_id Live st.live; true
      | v ->
          arena_taint_aval v;
          st.live <- havoc_live st.live; true)
  | Ast.SegmentFree _ -> (
      ignore (pop st);
      let ptr = pop st in
      let g = fenv.g in
      (* record what this free instruction can free: the arena fixpoint
         in {!Escape} lowers a free only when every site reaching it is
         an arena candidate and nothing about the free is dirty *)
      let fkey = (cur_lidx fenv, id) in
      let sites_r, dirty_r =
        match Hashtbl.find_opt g.frees fkey with
        | Some r -> r
        | None ->
            let r = (ref [], ref false) in
            Hashtbl.add g.frees fkey r;
            r
      in
      if Array.length fenv.verdict_row = 0 then dirty_r := true;
      match ptr with
      | Ptr { site; _ } ->
          let live = IMap.find_opt site.s_id st.live in
          record g (fun () ->
              if not (List.memq site !sites_r) then
                sites_r := site :: !sites_r;
              match live with
              | Some Live -> ()
              | _ ->
                  (* freeing a maybe-freed pointer: the runtime
                     matches-check is load-bearing here *)
                  dirty_r := true);
          (match live with
          | Some Freed ->
              diag fenv ~id ~severity:(sev_of site)
                (Printf.sprintf "double free of segment %s" site.s_key)
          | Some MaybeFreed ->
              diag fenv ~id ~severity:Possible
                (Printf.sprintf "possible double free of segment %s"
                   site.s_key)
          | _ -> ());
          let l = if site.s_multi then MaybeFreed else Freed in
          st.live <- IMap.add site.s_id l st.live; true
      | Sp _ | TaggedSp _ ->
          dirty_r := true;
          true
      | v ->
          dirty_r := true;
          arena_taint_aval v;
          st.live <- havoc_live st.live; true)
  | Ast.PointerSign | Ast.PointerAuth ->
      (* signing scrambles the high bits; conservatively forget the
         value so elision never survives a PAC round-trip. The tag
         survives a sign/auth round-trip inside the now-opaque value,
         so the site's tag plane must stay real. *)
      let v = pop st in
      arena_taint_aval v;
      push Top st; true
  | Ast.Call f -> handle_call fenv st ~id f
  | Ast.CallIndirect ti -> (
      ignore (pop st);
      let g = fenv.g in
      let ft = g.v.ix.Ast.ix_types.(ti) in
      let args_topfirst = popn st (List.length ft.Types.params) in
      let args = List.rev args_topfirst in
      let nresults = List.length ft.Types.results in
      (* the join of the summaries of every type-matching function in
         the table is a sound stand-in for whichever one runs *)
      match g.v.indirect.(ti) with
      | Some s ->
          apply_summary g st s args nresults;
          true
      | None ->
          (* empty table set (a trapping call at runtime): fall back to
             the blanket havoc *)
          List.iter (escape_site g) args;
          List.iter arena_taint_aval args;
          st.live <- havoc_live st.live;
          push_n Top nresults st;
          true)

(* A [strcpy] whose source is a constant address into a data segment
   has a statically known length: scan for the NUL and check the
   destination as a store of that many bytes. *)
and check_strcpy fenv st ~id args =
  match args with
  | [ (Ptr _ as dst); src ] -> (
      let addr =
        match iv_of src with Some iv -> Interval.singleton iv | None -> None
      in
      match addr with
      | None -> ()
      | Some a ->
          List.iter
            (fun (d : Ast.data) ->
              let base = d.d_offset in
              let len = Int64.of_int (String.length d.d_bytes) in
              if a >= base && a < Int64.add base len then
                let start = Int64.to_int (Int64.sub a base) in
                match String.index_from_opt d.d_bytes start '\000' with
                | None -> ()
                | Some nul ->
                    let l = Int64.of_int (nul - start + 1) in
                    check_access fenv st ~id ~addr:dst
                      ~len:(Interval.const l) ~is_store:true ~elide_ok:false)
            fenv.g.v.m.Ast.datas)
  | _ -> ()

and handle_call fenv st ~id fidx =
  let g = fenv.g in
  let ft = Ast.func_type_at g.v.ix fidx in
  let nresults = List.length ft.Types.results in
  let args_topfirst = popn st (List.length ft.Types.params) in
  let args = List.rev args_topfirst in
  let name = Ast.func_name g.v.ix fidx in
  if name = "strcpy" then check_strcpy fenv st ~id args;
  if fidx < n_imports g then begin
    (* host function: pointers escape, but hosts cannot free guest
       segments, so liveness survives the call *)
    List.iter (escape_site g) args;
    push_n Top nresults st;
    true
  end
  else if List.mem fidx fenv.active || fenv.depth >= 12 then begin
    (* recursion (or a pathological call chain): inlining gives up and
       the callee's interprocedural summary takes over *)
    apply_summary g st g.v.summaries.(fidx) args nresults;
    true
  end
  else
    let path = Printf.sprintf "%s#%d>%s" fenv.path id name in
    match
      analyze_func g ~path ~active:(fidx :: fenv.active)
        ~depth:(fenv.depth + 1) ~root:false fidx args st.live st.g0
    with
    | None -> false (* the callee never returns on any path *)
    | Some (rets, live, g0) ->
        st.stack <- List.rev rets @ st.stack;
        st.live <- live;
        st.g0 <- g0;
        true

(* Analyze one function activation under a concrete call string.
   Returns the (joined) return values, liveness map and stack-pointer
   global at exit, or [None] if no path returns. *)
and analyze_func g ~path ~active ~depth ~root fidx args live g0 =
  let lidx = fidx - n_imports g in
  let f = g.v.ix.Ast.ix_funcs.(lidx) in
  let ft = g.v.ix.Ast.ix_types.(f.Ast.ftype) in
  let nparams = List.length ft.Types.params in
  let locals =
    Array.make (nparams + List.length f.Ast.locals) (Int (Interval.const 0L))
  in
  List.iteri (fun i v -> if i < nparams then locals.(i) <- demote_cross v) args;
  let st = { locals; own = true; stack = []; g0; live } in
  let fenv =
    {
      g;
      path;
      verdict_row = (if g.v.blacklist.(lidx) then [||] else g.verdicts.(lidx));
      bverdict_row = (if g.v.blacklist.(lidx) then [||] else g.bverdicts.(lidx));
      active;
      depth;
      cmp_locals = [];
      saved = [];
      frames = Label_stack.create no_frame;
    }
  in
  let arity = List.length ft.Types.results in
  let frame = { f_arity = arity; f_pend = None } in
  let ok = eval_in fenv frame st g.v.code.(lidx).Code.body in
  match merge st (exit_vals arity ok st) frame.f_pend with
  | None -> None
  | Some rets ->
      (* leak check: heap sites this activation allocated and neither
         freed, escaped nor returned. The root activation is exempt —
         allocations held until program exit are reclaimed wholesale. *)
      let live = st.live in
      if not root then
        record g (fun () ->
            let fname = Ast.func_name g.v.ix fidx in
            let returned s =
              List.exists
                (function Ptr { site; _ } -> site == s | _ -> false)
                rets
            in
            List.iter
              (fun s ->
                if
                  s.s_kind = Heap && s.s_path = path && (not s.s_escaped)
                  && (not s.s_escaped_dead)
                  && (not s.s_multi)
                  && (not s.s_leaked_reported)
                  && not (returned s)
                then
                  match IMap.find_opt s.s_id live with
                  | Some Live ->
                      s.s_leaked_reported <- true;
                      diag fenv ~id:s.s_instr ~severity:Definite
                        (Printf.sprintf
                           "segment %s leaked: still live when %s returns"
                           s.s_key fname)
                  | Some MaybeFreed ->
                      s.s_leaked_reported <- true;
                      diag fenv ~id:s.s_instr ~severity:Possible
                        (Printf.sprintf
                           "segment %s possibly leaked on some path through %s"
                           s.s_key fname)
                  | _ -> ())
              g.all_sites);
      Some (List.map demote_cross rets, live, st.g0)

(* ------------------------------------------------------------------ *)
(* Whole-module analysis                                               *)
(* ------------------------------------------------------------------ *)

type analysis = {
  a_diags : diag list;  (** sorted by (path, instruction, message) *)
  a_verdicts : int array array;
      (** per local function, per basic-instruction id:
          0 = never visited, 1 = proven elidable, 2 = not provable *)
  a_bverdicts : int array array;
      (** same shape, for the bounds half of the proof alone: a tag
          verdict of 1 implies a bounds verdict of 1 *)
  a_ix : Ast.index;  (** the index the analysis read the module through *)
  a_nbasic : int array;  (** basic-instruction count per local function *)
  a_entry : int option;  (** the analyzed entry function index, if any *)
  a_sites : site list;  (** every allocation site the analysis tracked *)
  a_frees : ((int * int) * (site list * bool)) list;
      (** per [segment.free] instruction (local function idx, basic id):
          the sites it can free and whether anything made it dirty *)
  a_spec : bool;  (** analyzed under the speculative execution model *)
}

let compare_fst (a, _) (b, _) = compare a b

let compare_diag a b =
  match compare a.d_path b.d_path with
  | 0 -> (
      match compare a.d_instr b.d_instr with
      | 0 -> compare a.d_msg b.d_msg
      | c -> c)
  | c -> c

(* The export the analysis is rooted at: [main] (what elaboration emits
   for the C entry point), falling back to [_start] then the start
   function. *)
let entry_func (m : Ast.module_) =
  let exported name =
    List.find_map
      (fun (e : Ast.export) ->
        match e.ex_desc with
        | Ast.Func_export i when e.ex_name = name -> Some i
        | _ -> None)
      m.exports
  in
  match exported "main" with
  | Some i -> Some i
  | None -> ( match exported "_start" with Some i -> Some i | None -> m.start)

let view (m : Ast.module_) =
  let ix, code = Wasm.Validate.prepare m in
  let cg = Callgraph.build m ix code in
  let summaries = Summary.compute cg in
  {
    m;
    ix;
    code;
    blacklist =
      Array.sub
        (Callgraph.reachable cg cg.Callgraph.table_targets)
        (Array.length ix.ix_imports) (Array.length code);
    summaries;
    indirect = Summary.indirect_joins cg summaries;
  }

let run ~spec v : analysis =
  let m = v.m and ix = v.ix in
  let ni = Array.length ix.ix_imports in
  let rows () = Array.map (fun c -> Array.make c.Code.nbasic 0) v.code in
  let g =
    {
      v;
      verdicts = rows ();
      bverdicts = rows ();
      frees = Hashtbl.create 64;
      spec;
      sites = Hashtbl.create 64;
      all_sites = [];
      site_count = 0;
      sp_count = 0;
      diags = [];
      diag_seen = Hashtbl.create 64;
      recording = true;
      deferred = [];
      site_changes = 0;
    }
  in
  let entry =
    match entry_func m with
    | Some i when i >= ni -> Some i
    | _ -> None
  in
  (match entry with
  | None -> ()
  | Some fidx ->
      let ft = Ast.func_type_at ix fidx in
      let args =
        List.map
          (fun (ty : Types.val_type) ->
            match ty with
            | Types.I32 -> Int Interval.i32_full
            | Types.I64 -> Int Interval.top
            | _ -> Top)
          ft.Types.params
      in
      g.sp_count <- 1;
      let g0 = Sp (0, Interval.const 0L) in
      ignore
        (analyze_func g ~path:(Ast.func_name ix fidx) ~active:[ fidx ] ~depth:0
           ~root:true fidx args IMap.empty g0));
  {
    a_diags = List.sort compare_diag g.diags;
    a_verdicts = g.verdicts;
    a_bverdicts = g.bverdicts;
    a_ix = ix;
    a_nbasic = Array.map (fun c -> c.Code.nbasic) v.code;
    a_entry = entry;
    a_sites = g.all_sites;
    a_frees =
      List.sort compare_fst
        (Hashtbl.fold
           (fun k (sites_r, dirty_r) acc -> (k, (!sites_r, !dirty_r)) :: acc)
           g.frees []);
    a_spec = spec;
  }

(** The analysis of module [m], under the speculation model when
    [spec]. *)
let analyze ?(spec = false) m = run ~spec (view m)

(** The architectural and the speculative analysis of [m] over one view,
    so the module is indexed, prepared and summarized once. *)
let analyze_both m =
  let v = view m in
  (run ~spec:false v, run ~spec:true v)

let severity_string = function Definite -> "definite" | Possible -> "possible"

let pp_diag ppf d =
  Format.fprintf ppf "%s @%d: [%s] %s" d.d_path d.d_instr
    (severity_string d.d_severity) d.d_msg

let diag_to_string d = Format.asprintf "%a" pp_diag d

