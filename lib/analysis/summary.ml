(** Per-function interprocedural summaries.

    A summary is the contract {!Absint} consults where it cannot (or
    must not) inline a callee: recursive cycles, the call-depth cap and
    [call_indirect] sites. Before this module existed those arms
    applied a blanket havoc — every argument escaped and the liveness
    of {e every} tracked segment dropped to [MaybeFreed], killing any
    elision downstream of a recursive call. The summary records what
    the callee (and everything it can transitively reach) can actually
    do, so the common case — a recursive helper that frees nothing —
    keeps the caller's liveness lattice intact.

    Summaries are computed bottom-up over the {!Callgraph} SCCs, whose
    edges include the table members each [call_indirect] can reach. All
    facts are monotone booleans and every member of a component reaches
    every other, so each component takes the union of its members' facts
    and of its callees' final summaries in one step: mutual recursion
    needs no iteration, and the whole computation is linear in the
    graph's size. Imported host functions get the pessimistic-escape
    summary (arguments escape, memory is touched) but are known never
    to free or retag guest segments — the WASI surface has no access to
    [segment.free] — which is exactly the assumption the inline
    analysis already made for direct host calls.

    The per-parameter [escapes] bits are deliberately coarse
    (flow-insensitive: a parameter escapes if it is read at all and the
    function, or anything it calls, has a leak channel). Precision for
    the hot paths still comes from call-string inlining; summaries only
    have to be {e sound} where inlining gives up. *)

module Ast = Wasm.Ast
module Types = Wasm.Types

type t = {
  sm_used : bool array;
      (** parameter is read somewhere in the body ([local.get i]) *)
  sm_escapes : bool array;
      (** parameter's provenance may be remembered beyond the call
          (stored, written to a global, returned, or handed to a
          callee that may do any of those) *)
  sm_mutates : bool;
      (** may run [segment.free] or [segment.set_tag] (transitively):
          the caller's liveness facts must be havocked *)
  sm_touches_mem : bool;
      (** may load/store/fill/copy linear memory (transitively): a
          pointer argument may be dereferenced with a checked access *)
}

(* --------------------------------------------------------------- *)
(* Bottom-up over the SCCs                                          *)
(* --------------------------------------------------------------- *)

let rec any_set bits = function [] -> false | v :: vs -> bits.(v) || any_set bits vs

(* Whether a bit is set on any node of [vs], or on any successor of one. *)
let rec reaches succ bits = function
  | [] -> false
  | v :: vs -> bits.(v) || any_set bits succ.(v) || reaches succ bits vs

(* Every fact is a monotone bit that a node takes from its callees.
   Inside a component every node reaches every other, so the least fixed
   point gives each member the same bit: set when any member has it or
   calls out to a node that has it. In reverse-topological order every
   callee outside the component is already final. *)
let close succ bits scc =
  if reaches succ bits scc then List.iter (fun v -> bits.(v) <- true) scc

let compute (cg : Callgraph.t) : t array =
  let n = cg.Callgraph.n_funcs in
  let ni = Array.length cg.Callgraph.ix.Ast.ix_imports in
  let nodes = Array.length cg.Callgraph.succ in
  (* One bit per node and fact, seeded with what each body does by
     itself (class nodes do nothing). Hosts read memory and let their
     arguments escape, but the WASI surface never frees or retags guest
     segments. Leakiness (does this function, or anything it reaches,
     have a leak channel?) decides [sm_escapes] below. *)
  let mutates = Array.make nodes false and touches = Array.make nodes false in
  let leaky = Array.make nodes false in
  Array.iteri
    (fun f (fa : Callgraph.facts) ->
      mutates.(f) <- fa.free;
      touches.(f) <- f < ni || fa.mem;
      leaky.(f) <-
        f < ni || fa.store || (Ast.func_type_at cg.Callgraph.ix f).Types.results <> [])
    cg.Callgraph.facts;
  let succ = cg.Callgraph.succ in
  List.iter
    (fun scc ->
      close succ mutates scc;
      close succ touches scc;
      close succ leaky scc)
    (Callgraph.sccs cg);
  Array.init n (fun f ->
      let used = cg.Callgraph.facts.(f).Callgraph.used in
      {
        sm_used = used;
        sm_escapes =
          (if leaky.(f) then Array.copy used
           else Array.make (Array.length used) false);
        sm_mutates = mutates.(f);
        sm_touches_mem = touches.(f);
      })

(* The join of the summaries of [targets], or [None] when there are
   none. *)
let join summaries = function
  | [] -> None
  | f0 :: _ as targets ->
      let nparams = Array.length summaries.(f0).sm_used in
      let any p = List.exists (fun f -> p summaries.(f)) targets in
      let any_param field i = any (fun s -> (field s).(i)) in
      Some
        {
          sm_used = Array.init nparams (any_param (fun s -> s.sm_used));
          sm_escapes = Array.init nparams (any_param (fun s -> s.sm_escapes));
          sm_mutates = any (fun s -> s.sm_mutates);
          sm_touches_mem = any (fun s -> s.sm_touches_mem);
        }

(** Per type index, the conservative summary of a [call_indirect] of
    that type: the join of the summaries of every table member whose
    type equals it, computed once per class of equal types. [None] when
    the table holds no such function (the call traps at run time);
    callers then fall back to the blanket havoc. *)
let indirect_joins (cg : Callgraph.t) (summaries : t array) : t option array =
  let tclass = cg.Callgraph.tclass in
  let joins = Array.make (Array.length tclass) None in
  Array.iteri
    (fun ti c ->
      joins.(ti) <-
        (if c = ti then join summaries cg.Callgraph.succ.(cg.Callgraph.n_funcs + c)
         else joins.(c)))
    tclass;
  joins
