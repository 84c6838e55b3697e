(** Prepared (pre-compiled) function bodies: the one program form that
    both engines and the static analyzer walk. {!Validate.prepare}, the
    door, builds it in the walk that type-checks each body; nothing else
    does.

    The interpreter used to carry a [int list] of label arities at run
    time and look branch targets up with [List.nth] on every
    [br]/[br_if]/[br_table]/[return] — O(depth) per branch, executed on
    the hottest control-flow path, with a silent [with _ -> 0] fallback
    that let malformed label indices corrupt the operand stack.

    This form resolves all of that once: every branch carries its
    target depth {e and} the label's arity; br_table target lists become
    arrays (O(1) selection). A body is prepared only once it has type
    checked, so every label index names an enclosing block.
    Non-control instructions are embedded unchanged as {!Basic}, so the
    numeric/memory dispatch in the interpreter is untouched.

    The door is the only place instruction ids are assigned, and this
    module owns the layout of the analyzer's plan rows: {!bitset}
    writes them, {!with_plan} attaches them and {!elidable} reads them,
    so a static proof for id [n] in {!Analysis} skips the check of
    exactly [Basic (_, n)]. *)

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

(* What a prepared array starts out holding ({!Ast.array_mapi}); also the
   lowerer's instruction past the end of a body. It is a static
   constant, never young, and no fusion pattern matches [Nop]. *)
let filler = Basic (Ast.Nop, -1)

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

(** [codes] with the static analyzer's plan rows attached: [elide],
    [belide] and [arena] are indexed like [codes] (local functions in
    function index order), and a function past the end of an array gets
    no row. With no row given, [codes] itself. *)
let with_plan ?(elide = [||]) ?(belide = [||]) ?(arena = [||]) codes =
  if Array.length elide + Array.length belide + Array.length arena = 0 then codes
  else
    let row plan j = if j < Array.length plan then plan.(j) else Bytes.empty in
    let planned = Array.make (Array.length codes) unprepared in
    Array.iteri
      (fun j c ->
        planned.(j) <-
          { c with elide = row elide j; belide = row belide j; arena = row arena j })
      codes;
    planned
