(** Prepared (pre-compiled) function bodies.

    The interpreter used to carry a [int list] of label arities at run
    time and look branch targets up with [List.nth] on every
    [br]/[br_if]/[br_table]/[return] — O(depth) per branch, executed on
    the hottest control-flow path, with a silent [with _ -> 0] fallback
    that let malformed label indices corrupt the operand stack.

    This module resolves all of that once, at instantiation: every
    branch carries its target depth {e and} the label's arity; br_table
    target lists become arrays (O(1) selection). Bodies are validated
    before they are prepared, so every label index names an enclosing
    block. Non-control instructions are embedded unchanged as {!Basic},
    so the numeric/memory dispatch in the interpreter is untouched. *)

type label = { depth : int; arity : int }

type instr =
  | Basic of Ast.instr * int
      (** no intra-function control flow; the [int] is the instruction's
          preorder id within its function (list order, block/loop bodies
          recursed, [if] then-branch before else-branch — the exact
          numbering {!Analysis} replicates over the AST, so a static
          elision proof for id [n] applies to this instruction) *)
  | Block of int * instr array  (** label arity, body *)
  | Loop of instr array  (** loop labels have arity 0 (MVP shorthand) *)
  | If of int * instr array * instr array
  | Br of label
  | BrIf of label
  | BrTable of label array * label
  | Return of int  (** function result arity *)

type func = {
  body : instr array;
  result_arity : int;
  elide : Bytes.t;
      (** bitset over basic-instruction ids (byte [id/8], bit [id mod 8]):
          a set bit means a whole-module analysis proved this load/store
          in-bounds on a definitely-live segment, so the MTE granule
          check may be skipped. [Bytes.empty] = no elision. *)
  belide : Bytes.t;
      (** same shape, for the span (bounds) check: a set bit means the
          access was proven inside a successfully created segment, so
          the linear-memory bounds check may also be skipped. The tag
          set is always a subset of this one. *)
  arena : Bytes.t;
      (** same shape, over [segment.new]/[segment.free] ids: a set bit
          means the segment never escapes and every access through it
          is elided, so the instruction skips its tag-plane writes
          (and, for free, the matches-check) entirely. *)
}

let block_arity : Ast.block_type -> int = function
  | Ast.ValBlock None -> 0
  | Ast.ValBlock (Some _) -> 1

(* [arities] is the static label stack, innermost first; its base entry
   is the function's result arity (the function-body label). *)
let resolve arities n = { depth = n; arity = List.nth arities n }

(* Explicit left-to-right recursion: the id counter in [next] makes the
   traversal order part of the numbering contract. *)
let rec prepare_block next arities (instrs : Ast.instr list) : instr array =
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | i :: rest ->
        let p = prepare_instr next arities i in
        go (p :: acc) rest
  in
  go [] instrs

and prepare_instr next arities : Ast.instr -> instr = function
  | Ast.Block (bt, body) ->
      let a = block_arity bt in
      Block (a, prepare_block next (a :: arities) body)
  | Ast.Loop (_, body) -> Loop (prepare_block next (0 :: arities) body)
  | Ast.If (bt, then_, else_) ->
      let a = block_arity bt in
      let arities = a :: arities in
      let then_ = prepare_block next arities then_ in
      If (a, then_, prepare_block next arities else_)
  | Ast.Br n -> Br (resolve arities n)
  | Ast.BrIf n -> BrIf (resolve arities n)
  | Ast.BrTable (targets, default) ->
      BrTable
        (Array.of_list (List.map (resolve arities) targets),
         resolve arities default)
  | Ast.Return -> Return (List.nth arities (List.length arities - 1))
  | i ->
      let id = !next in
      incr next;
      Basic (i, id)

(** True when basic-instruction id [id] is marked elidable in [elide]. *)
let elidable elide id =
  let byte = id lsr 3 in
  byte < Bytes.length elide
  && Char.code (Bytes.unsafe_get elide byte) land (1 lsl (id land 7)) <> 0

(** Prepare a validated function body whose type has [result_arity]
    results.
    [elide]/[belide]/[arena], when given, are the per-function bitsets
    produced by the static analyzer (see {!elidable}). *)
let prepare ?(elide = Bytes.empty) ?(belide = Bytes.empty)
    ?(arena = Bytes.empty) ~result_arity (body : Ast.instr list) : func =
  let next = ref 0 in
  {
    body = prepare_block next [ result_arity ] body;
    result_arity;
    elide;
    belide;
    arena;
  }
