(** Prepared (pre-compiled) function bodies: the one program form that
    both engines and the static analyzer walk. {!prepare} reads the
    module through the {!Ast.index} its caller built ({!Exec.instantiate},
    {!Compile.module_stats}, [Analysis.Absint.analyze]) and builds none.

    The interpreter used to carry a [int list] of label arities at run
    time and look branch targets up with [List.nth] on every
    [br]/[br_if]/[br_table]/[return] — O(depth) per branch, executed on
    the hottest control-flow path, with a silent [with _ -> 0] fallback
    that let malformed label indices corrupt the operand stack.

    This module resolves all of that once: every branch carries its
    target depth {e and} the label's arity; br_table target lists become
    arrays (O(1) selection). Bodies are validated before they are
    prepared, so every label index names an enclosing block.
    Non-control instructions are embedded unchanged as {!Basic}, so the
    numeric/memory dispatch in the interpreter is untouched.

    {!prepare} is the only place instruction ids are assigned, and this
    module owns the layout of the analyzer's plan rows: {!bitset}
    writes them and {!elidable} reads them, so a static proof for id
    [n] in {!Analysis} skips the check of exactly [Basic (_, n)]. *)

type label = { depth : int; arity : int }

type instr =
  | Basic of Ast.instr * int
      (** no intra-function control flow; the [int] is the instruction's
          preorder id within its function (list order, block/loop bodies
          recursed, [if] then-branch before else-branch) *)
  | Block of int * instr array  (** label arity, body *)
  | Loop of int * instr array
      (** block arity (what falls through), body; a branch to a loop
          label carries nothing (MVP shorthand) *)
  | If of int * instr array * instr array
  | Br of label
  | BrIf of label
  | BrTable of label array * label
  | Return of int  (** function result arity *)

type func = {
  body : instr array;
  result_arity : int;
  nbasic : int;  (** basic instructions, so ids run over [0, nbasic) *)
  elide : Bytes.t;
      (** plan row over basic-instruction ids (see {!bitset}): a set bit
          means a whole-module analysis proved this load/store in-bounds
          on a definitely-live segment, so the MTE granule check may be
          skipped. [Bytes.empty] = no elision. *)
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

(* [arities] is the static label stack ({!Label_stack}), innermost on
   top; its bottom entry is the function's result arity (the
   function-body label). *)
let resolve arities n = { depth = n; arity = Label_stack.nth arities n }

(* What a prepared array starts out holding ({!Ast.array_mapi}); also the
   lowerer's instruction past the end of a body. It is a static
   constant, never young, and no fusion pattern matches [Nop]. *)
let filler = Basic (Ast.Nop, -1)

(* [Ast.array_mapi] stores left to right: the id counter in [next] makes
   the traversal order part of the numbering contract. *)
let rec prepare_block next arities (instrs : Ast.instr list) : instr array =
  Ast.array_mapi filler (fun _ i -> prepare_instr next arities i) instrs

(* [body] under a new innermost label of arity [a] *)
and prepare_in next arities a body =
  Label_stack.push arities a;
  let b = prepare_block next arities body in
  ignore (Label_stack.pop arities);
  b

and prepare_instr next arities : Ast.instr -> instr = function
  | Ast.Block (bt, body) ->
      let a = block_arity bt in
      Block (a, prepare_in next arities a body)
  | Ast.Loop (bt, body) -> Loop (block_arity bt, prepare_in next arities 0 body)
  | Ast.If (bt, then_, else_) ->
      let a = block_arity bt in
      let then_ = prepare_in next arities a then_ in
      If (a, then_, prepare_in next arities a else_)
  | Ast.Br n -> Br (resolve arities n)
  | Ast.BrIf n -> BrIf (resolve arities n)
  | Ast.BrTable (targets, default) ->
      BrTable
        (Ast.array_mapi { depth = 0; arity = 0 } (fun _ n -> resolve arities n) targets,
         resolve arities default)
  | Ast.Return -> Return (Label_stack.bottom arities)
  | i ->
      let id = !next in
      incr next;
      Basic (i, id)

(** True when basic-instruction id [id] is marked in plan row [row]. *)
let elidable row id =
  let byte = id lsr 3 in
  byte < Bytes.length row
  && Char.code (Bytes.unsafe_get row byte) land (1 lsl (id land 7)) <> 0

(** The plan row over [n] basic instructions that marks every id [mark]
    holds for (byte [id/8], bit [id mod 8]); [Bytes.empty] when it
    marks none, so an unplanned function pays nothing. *)
let bitset n mark =
  let row = Bytes.make ((n + 7) / 8) '\000' in
  let any = ref false in
  for id = 0 to n - 1 do
    if mark id then begin
      any := true;
      let byte = id lsr 3 in
      Bytes.set row byte
        (Char.chr (Char.code (Bytes.get row byte) lor (1 lsl (id land 7))))
    end
  done;
  if !any then row else Bytes.empty

(* The function array's filler: made once, at start-up, so old after the
   first minor collection ([Bytes.empty] is not a constant). *)
let unprepared =
  { body = [||]; result_arity = 0; nbasic = 0; elide = Bytes.empty;
    belide = Bytes.empty; arena = Bytes.empty }

(** Prepare every local function of a validated module, in function
    index order (imports excluded), from the index its caller built.
    [elide]/[belide]/[arena], when given, are the static analyzer's plan
    rows, indexed the same way; a function past the end of an array gets
    no row. *)
let prepare ?(elide = [||]) ?(belide = [||]) ?(arena = [||]) (ix : Ast.index) :
    func array =
  let row plan j = if j < Array.length plan then plan.(j) else Bytes.empty in
  let codes = Array.make (Array.length ix.ix_funcs) unprepared in
  let arities = Label_stack.create 0 in
  Array.iteri
    (fun j (f : Ast.func) ->
      let result_arity = List.length ix.ix_types.(f.ftype).Types.results in
      let next = ref 0 in
      let body = prepare_in next arities result_arity f.body in
      codes.(j) <-
        { body; result_arity; nbasic = !next; elide = row elide j;
          belide = row belide j; arena = row arena j })
    ix.ix_funcs;
  codes
