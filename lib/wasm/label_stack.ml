(** A stack that reads any depth in O(1): the label stacks of
    validation, which prepares as it checks ({!Validate}), lowering
    ({!Compile}) and the analyzer, where a branch names its target by
    its depth below the innermost label. A list would make each such
    lookup O(depth), and a body of D nested blocks whose branches reach
    the outermost one O(D²).

    [fill] is what vacated cells hold; make it a static or long-lived
    value, so that growing past 256 cells forces no minor collection
    (see {!Ast.array_mapi}). *)

type 'a t = { mutable items : 'a array; mutable depth : int; fill : 'a }

let create fill = { items = Array.make 16 fill; depth = 0; fill }

let push s x =
  if s.depth = Array.length s.items then begin
    let a = Array.make (2 * s.depth) s.fill in
    Array.blit s.items 0 a 0 s.depth;
    s.items <- a
  end;
  Array.unsafe_set s.items s.depth x;
  s.depth <- s.depth + 1

(** Drop the innermost label, which must exist, and return the one
    that is innermost now ([fill] when none is left). *)
let pop s =
  s.depth <- s.depth - 1;
  Array.unsafe_set s.items s.depth s.fill;
  if s.depth = 0 then s.fill else Array.unsafe_get s.items (s.depth - 1)

(** The label [n] levels out from the innermost ([nth s 0]), or [fill]
    when there is none that far out. *)
let nth s n = if n < 0 || n >= s.depth then s.fill else Array.unsafe_get s.items (s.depth - 1 - n)

(** The outermost label (a function body's own); the stack must not be
    empty. *)
let bottom s = Array.unsafe_get s.items 0
