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

    Summaries are computed bottom-up over the {!Callgraph} SCCs with a
    fixed point inside each component, so mutual recursion converges:
    all facts are monotone booleans, and each SCC iterates until no
    member changes. Imported host functions get the pessimistic-escape
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
  sm_params : int;
  sm_results : int;
  sm_used : bool array;
      (** parameter is read somewhere in the body ([local.get i]) *)
  sm_escapes : bool array;
      (** parameter's provenance may be remembered beyond the call
          (stored, written to a global, returned, or handed to a
          callee that may do any of those) *)
  sm_mutates : bool;
      (** may run [segment.free] or [segment.set_tag] (transitively):
          the caller's liveness facts must be havocked *)
  sm_allocs : bool;  (** may run [segment.new] (transitively) *)
  sm_touches_mem : bool;
      (** may load/store/fill/copy linear memory (transitively): a
          pointer argument may be dereferenced with a checked access *)
  sm_host : bool;  (** an imported host function *)
}

(* --------------------------------------------------------------- *)
(* Per-function syntactic facts                                     *)
(* --------------------------------------------------------------- *)

type facts = {
  mutable f_used : bool array;
  mutable f_store : bool;  (* store/fill/copy/global.set: a leak channel *)
  mutable f_mem : bool;    (* any linear-memory access *)
  mutable f_free : bool;   (* segment.free or segment.set_tag *)
  mutable f_alloc : bool;  (* segment.new *)
  f_indirect_tys : int list ref;
}

let rec scan_instr nparams (fa : facts) (i : Ast.instr) =
  match i with
  | Ast.LocalGet i | Ast.LocalTee i ->
      if i < nparams then fa.f_used.(i) <- true
  | Ast.Store _ | Ast.GlobalSet _ -> fa.f_store <- true; fa.f_mem <- true
  | Ast.MemoryFill | Ast.MemoryCopy -> fa.f_store <- true; fa.f_mem <- true
  | Ast.Load _ -> fa.f_mem <- true
  | Ast.SegmentFree _ | Ast.SegmentSetTag _ -> fa.f_free <- true
  | Ast.SegmentNew _ -> fa.f_alloc <- true
  | Ast.CallIndirect ty ->
      fa.f_indirect_tys := ty :: !(fa.f_indirect_tys)
  | Ast.Block (_, b) | Ast.Loop (_, b) -> scan_body nparams fa b
  | Ast.If (_, t, e) -> scan_body nparams fa t; scan_body nparams fa e
  | _ -> ()

and scan_body nparams fa body = List.iter (scan_instr nparams fa) body

(* --------------------------------------------------------------- *)
(* Bottom-up SCC fixed point                                        *)
(* --------------------------------------------------------------- *)

let compute (cg : Callgraph.t) : t array =
  let n = cg.Callgraph.n_funcs in
  let ni = cg.Callgraph.n_imports in
  let ty_of f = Ast.type_of_func cg.Callgraph.m f in
  let facts =
    Array.init n (fun f ->
        let nparams = List.length (ty_of f).Types.params in
        let fa =
          {
            f_used = Array.make nparams (f < ni);
            f_store = false;
            f_mem = false;
            f_free = false;
            f_alloc = false;
            f_indirect_tys = ref [];
          }
        in
        if f >= ni then
          scan_body nparams fa (List.nth cg.Callgraph.m.Ast.funcs (f - ni)).Ast.body;
        fa)
  in
  let summaries =
    Array.init n (fun f ->
        let ty = ty_of f in
        let nparams = List.length ty.Types.params in
        let host = f < ni in
        {
          sm_params = nparams;
          sm_results = List.length ty.Types.results;
          sm_used = Array.copy facts.(f).f_used;
          (* hosts: arguments escape and memory is read, but the WASI
             surface never frees or retags guest segments *)
          sm_escapes = Array.make nparams host;
          sm_mutates = false;
          sm_allocs = false;
          sm_touches_mem = host;
          sm_host = host;
        })
  in
  (* Leakiness (does this function, or anything it reaches, have a leak
     channel?) is a per-function monotone bit; escapes.(i) is then
     used.(i) && leaky. *)
  let leaky = Array.init n (fun f -> f < ni || facts.(f).f_store
                                     || List.length (ty_of f).Types.results > 0)
  in
  let callees_of f =
    let direct = cg.Callgraph.callees.(f) in
    let indirect =
      if f < ni then []
      else
        List.concat_map (Callgraph.indirect_targets cg)
          !(facts.(f).f_indirect_tys)
    in
    direct @ indirect
  in
  let step f =
    if f < ni then false
    else begin
      let s = summaries.(f) in
      let fa = facts.(f) in
      let callees = callees_of f in
      let mutates =
        fa.f_free
        || List.exists (fun c -> summaries.(c).sm_mutates) callees
        (* an indirect call can also reach any future table write the
           module itself performs; element segments are the only writer
           here, so the type-filtered target set above is exact *)
      in
      let allocs =
        fa.f_alloc || List.exists (fun c -> summaries.(c).sm_allocs) callees
      in
      let touches =
        fa.f_mem
        || List.exists (fun c -> summaries.(c).sm_touches_mem) callees
      in
      let lk =
        leaky.(f) || List.exists (fun c -> leaky.(c)) callees
      in
      let changed =
        mutates <> s.sm_mutates || allocs <> s.sm_allocs
        || touches <> s.sm_touches_mem || lk <> leaky.(f)
      in
      leaky.(f) <- lk;
      summaries.(f) <-
        { s with sm_mutates = mutates; sm_allocs = allocs;
                 sm_touches_mem = touches };
      changed
    end
  in
  (* Reverse-topological SCC order: callees are final before callers;
     inside a component, iterate to the fixed point (all facts are
     monotone booleans, so this terminates in at most |scc| * 4
     rounds). *)
  List.iter
    (fun scc ->
      let continue_ = ref true in
      while !continue_ do
        continue_ := List.fold_left (fun ch f -> step f || ch) false scc
      done)
    (Callgraph.sccs cg);
  (* Final escape bits from the converged leakiness. *)
  Array.iteri
    (fun f s ->
      if f >= ni then
        Array.iteri
          (fun i used -> s.sm_escapes.(i) <- used && leaky.(f))
          s.sm_used)
    summaries;
  summaries

(** Join of summaries over the possible targets of a [call_indirect]
    of type [tyidx] (the conservative indirect-call summary). [None]
    when the table set is empty or targets disagree on arity — callers
    must then fall back to the blanket havoc. *)
let indirect_join (cg : Callgraph.t) (summaries : t array) tyidx : t option =
  match Callgraph.indirect_targets cg tyidx with
  | [] -> None
  | t0 :: _ as targets ->
      let s0 = summaries.(t0) in
      let nparams = s0.sm_params in
      let acc =
        {
          s0 with
          sm_used = Array.make nparams false;
          sm_escapes = Array.make nparams false;
        }
      in
      let join acc f =
        let s = summaries.(f) in
        for i = 0 to nparams - 1 do
          acc.sm_used.(i) <- acc.sm_used.(i) || s.sm_used.(i);
          acc.sm_escapes.(i) <- acc.sm_escapes.(i) || s.sm_escapes.(i)
        done;
        {
          acc with
          sm_mutates = acc.sm_mutates || s.sm_mutates;
          sm_allocs = acc.sm_allocs || s.sm_allocs;
          sm_touches_mem = acc.sm_touches_mem || s.sm_touches_mem;
          sm_host = acc.sm_host || s.sm_host;
        }
      in
      Some (List.fold_left join acc targets)
