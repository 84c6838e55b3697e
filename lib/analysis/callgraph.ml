(** Call graph over a compiled module, as the interprocedural substrate
    for {!Summary}.

    Nodes are function indices in the module's index space (imports
    first, then local functions). Edges are the direct [call]s that
    appear syntactically in a body; [call_indirect] sites are recorded
    as a per-function flag plus the set of functions that can possibly
    be reached through the table (every function named by an element
    segment — the table is only written at instantiation, so this set
    is exact for the module alone and conservative once a host could
    mutate the table).

    {!sccs} returns Tarjan's strongly connected components in reverse
    topological order (callees before callers), which is the order the
    summary fixpoint consumes: by the time an SCC is processed, every
    summary it depends on outside the component is final, and only the
    cycle inside the component needs iteration. *)

module Ast = Wasm.Ast
module Types = Wasm.Types

type t = {
  m : Ast.module_;
  n_imports : int;
  n_funcs : int;  (** total, imports included *)
  callees : int list array;
      (** direct-call targets per function (imports have none) *)
  indirect : bool array;  (** function contains a [call_indirect] *)
  table_targets : int list;
      (** functions reachable through the table (element segments) *)
}

let rec walk_instr acc (i : Ast.instr) =
  match i with
  | Ast.Call f -> (f :: fst acc, snd acc)
  | Ast.CallIndirect _ -> (fst acc, true)
  | Ast.Block (_, b) | Ast.Loop (_, b) -> walk_body acc b
  | Ast.If (_, t, e) -> walk_body (walk_body acc t) e
  | _ -> acc

and walk_body acc body = List.fold_left walk_instr acc body

let dedup l = List.sort_uniq compare l

let build (m : Ast.module_) : t =
  let n_imports = Ast.num_imports m in
  let n_local = List.length m.funcs in
  let n_funcs = n_imports + n_local in
  let callees = Array.make n_funcs [] in
  let indirect = Array.make n_funcs false in
  List.iteri
    (fun i (f : Ast.func) ->
      let calls, ind = walk_body ([], false) f.body in
      callees.(n_imports + i) <- dedup calls;
      indirect.(n_imports + i) <- ind)
    m.funcs;
  let table_targets =
    dedup (List.concat_map (fun (e : Ast.elem) -> e.e_funcs) m.elems)
  in
  { m; n_imports; n_funcs; callees; indirect; table_targets }

(** Functions a [call_indirect] of type index [tyidx] can reach:
    table-resident functions whose type matches. *)
let indirect_targets t tyidx =
  let ty = Ast.func_type_of t.m tyidx in
  List.filter
    (fun f ->
      f >= 0 && f < t.n_funcs
      && Types.func_type_equal (Ast.type_of_func t.m f) ty)
    t.table_targets

(** Which functions [roots] reach over direct calls, roots included,
    indexed like the module. *)
let reachable t roots =
  let seen = Array.make t.n_funcs false in
  let rec visit f =
    if f >= 0 && f < t.n_funcs && not seen.(f) then begin
      seen.(f) <- true;
      List.iter visit t.callees.(f)
    end
  in
  List.iter visit roots;
  seen

(** Tarjan SCCs in reverse topological order: for every edge u -> v in
    different components, v's component appears before u's. *)
let sccs (t : t) : int list list =
  let n = t.n_funcs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  (* Iterative Tarjan: an explicit work stack of (node, remaining
     callees) frames, so deep recursion chains cannot blow the OCaml
     stack. *)
  let rec strongconnect v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if w >= 0 && w < n then
          if index.(w) < 0 then begin
            strongconnect w;
            if lowlink.(w) < lowlink.(v) then lowlink.(v) <- lowlink.(w)
          end
          else if on_stack.(w) && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w))
      t.callees.(v);
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
