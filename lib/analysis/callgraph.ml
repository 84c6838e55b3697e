(** Call graph and per-function syntactic facts over a validated module,
    the interprocedural substrate for {!Summary}.

    {!build} walks each prepared body (the door's {!Wasm.Code} form,
    which the engines run and {!Absint} evaluates) once. Per function it collects
    the direct-call targets, the type of each [call_indirect], and the
    facts a summary starts from: which parameters the body reads and
    whether it stores, touches memory or frees. Types,
    functions and imports are looked up through the module's
    {!Wasm.Ast.index}.

    Nodes are function indices in the module's index space (imports
    first, then local functions), followed by one node per type index.
    Only the first index of each class of equal types has edges. A
    [call_indirect] is an edge to its type's class node. A class node
    has an edge to every function of that type in the table, that is,
    every function an element segment names. The table is only written
    at instantiation, so that set is exact for the module alone. Each
    call site and each table member adds one edge, so the graph stays
    linear in the module's size however many sites share a type.

    {!sccs} returns Tarjan's strongly connected components in reverse
    topological order (callees before callers, indirect callees
    included), which is the order the summary fixpoint consumes: by the
    time an SCC is processed, every summary it depends on outside the
    component is final. *)

module Ast = Wasm.Ast
module Code = Wasm.Code
module Types = Wasm.Types

(** What a body does by itself, before its calls are followed. *)
type facts = {
  used : bool array;
      (** parameter read somewhere ([local.get]/[local.tee]); all set
          for an import *)
  mutable store : bool;  (** store/fill/copy/[global.set]: a leak channel *)
  mutable mem : bool;  (** any linear-memory access *)
  mutable free : bool;  (** [segment.free] or [segment.set_tag] *)
}

type t = {
  ix : Ast.index;
  n_funcs : int;  (** functions, imports included; class nodes follow *)
  succ : int list array;
      (** per function: its direct-call targets and the class node of
          each [call_indirect] type (imports have none); per class node:
          the table members of that class, ascending *)
  facts : facts array;  (** per function *)
  tclass : int array;
      (** per type index: the first type index with an equal type, so
          node [n_funcs + tclass.(ti)] stands for type [ti] *)
  table_targets : int list;  (** functions in the table, ascending *)
}

let rec walk cg (fa : facts) calls body =
  for k = 0 to Array.length body - 1 do
    match body.(k) with
    | Code.Basic (i, _) -> (
        match i with
        | Ast.LocalGet i | Ast.LocalTee i ->
            if i < Array.length fa.used then fa.used.(i) <- true
        | Ast.Store _ | Ast.GlobalSet _ | Ast.MemoryFill | Ast.MemoryCopy ->
            fa.store <- true;
            fa.mem <- true
        | Ast.Load _ -> fa.mem <- true
        | Ast.SegmentFree _ | Ast.SegmentSetTag _ -> fa.free <- true
        | Ast.Call f -> calls := f :: !calls
        | Ast.CallIndirect ti -> calls := (cg.n_funcs + cg.tclass.(ti)) :: !calls
        | _ -> ())
    | Code.Block (_, b) | Code.Loop (_, b) -> walk cg fa calls b
    | Code.If (_, t, e) -> walk cg fa calls t; walk cg fa calls e
    | Code.Br _ | Code.BrIf _ | Code.BrTable _ | Code.Return _ -> ()
  done

(** The graph of validated module [m], read through its index [ix], over its
    prepared bodies [code]. *)
let build (m : Ast.module_) (ix : Ast.index) (code : Code.func array) : t =
  let ni = Array.length ix.ix_imports in
  let n_funcs = ni + Array.length code in
  let first = Hashtbl.create 16 in
  let tclass =
    Array.mapi
      (fun ti ty ->
        match Hashtbl.find_opt first ty with
        | Some c -> c
        | None -> Hashtbl.add first ty ti; ti)
      ix.ix_types
  in
  let table_targets =
    List.sort_uniq compare (List.concat_map (fun (e : Ast.elem) -> e.e_funcs) m.elems)
  in
  let cg =
    { ix; n_funcs; tclass; table_targets;
      succ = Array.make (n_funcs + Array.length tclass) [];
      facts =
        Array.init n_funcs (fun f ->
            let nparams = List.length (Ast.func_type_at ix f).Types.params in
            { used = Array.make nparams (f < ni); store = false; mem = false;
              free = false }) }
  in
  Array.iteri
    (fun j (c : Code.func) ->
      let calls = ref [] in
      walk cg cg.facts.(ni + j) calls c.body;
      cg.succ.(ni + j) <- List.sort_uniq compare !calls)
    code;
  List.iter
    (fun f ->
      let node = n_funcs + Hashtbl.find first (Ast.func_type_at ix f) in
      cg.succ.(node) <- f :: cg.succ.(node))
    (List.rev table_targets);
  cg

(** Which nodes [roots] reach, roots included, indexed like [succ]. *)
let reachable t roots =
  let seen = Array.make (Array.length t.succ) false in
  let rec visit f =
    if not seen.(f) then begin
      seen.(f) <- true;
      List.iter visit t.succ.(f)
    end
  in
  List.iter visit roots;
  seen

(** Tarjan SCCs in reverse topological order: for every edge u -> v in
    different components, v's component appears before u's. *)
let sccs (t : t) : int list list =
  let n = Array.length t.succ in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  (* [strongconnect] recurses once per node on the current depth-first
     path (a call chain), so its depth is at most the node count. OCaml 5
     grows the stack on demand; CI runs a 60,000-function ring through
     it. [reachable] recurses the same way. *)
  let rec strongconnect v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          if lowlink.(w) < lowlink.(v) then lowlink.(v) <- lowlink.(w)
        end
        else if on_stack.(w) && index.(w) < lowlink.(v) then
          lowlink.(v) <- index.(w))
      t.succ.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* [out] collects components callers-first (a component is emitted
     only after everything it reaches); reversing yields callees
     first. *)
  List.rev !out
