(** Escape analysis over the IR — the [escapes(alloc)] predicate of
    paper Algorithm 1.

    A stack slot escapes when its address flows anywhere except directly
    into the addressing expression of a load or store in the same
    function: passed to a call, stored to memory, returned, assigned to
    a variable, or mixed into arbitrary arithmetic that is then used as
    a value. The analysis is syntactic and conservative — exactly the
    cheap verdict an LLVM pass gets from [PointerMayBeCaptured]. *)

open Ir

(* Walk an expression; [in_addr] is true while we are inside the
   addressing operand of a load/store, where slot addresses are safe. *)
let rec walk_exp ~mark ~in_addr (e : exp) =
  match e with
  | SlotAddr id -> if not in_addr then mark id
  | Const _ | Temp _ | GlobalAddr _ | FuncRef _ -> ()
  | Bin (_, _, a, b) ->
      (* address arithmetic below a load/store stays an address *)
      walk_exp ~mark ~in_addr a;
      walk_exp ~mark ~in_addr b
  | Eqz (_, a) | Cvt (_, a) -> walk_exp ~mark ~in_addr:false a
  | Load { addr; _ } -> walk_exp ~mark ~in_addr:true addr

let rec walk_stmt ~mark (s : stmt) =
  match s with
  | Set (_, _, e) -> walk_exp ~mark ~in_addr:false e
  | Store { addr; value; _ } ->
      walk_exp ~mark ~in_addr:true addr;
      walk_exp ~mark ~in_addr:false value
  | If (c, a, b) ->
      walk_exp ~mark ~in_addr:false c;
      List.iter (walk_stmt ~mark) a;
      List.iter (walk_stmt ~mark) b
  | ForLoop { cond; step; body; _ } ->
      Option.iter (walk_exp ~mark ~in_addr:false) cond;
      List.iter (walk_stmt ~mark) step;
      List.iter (walk_stmt ~mark) body
  | Return e -> Option.iter (walk_exp ~mark ~in_addr:false) e
  | Call { callee; args; _ } ->
      (match callee with
      | Direct _ -> ()
      | Indirect { fptr; _ } -> walk_exp ~mark ~in_addr:false fptr);
      List.iter (walk_exp ~mark ~in_addr:false) args
  | SegmentNew { ptr; len; _ } ->
      (* the slot address given to segment.new is not an escape: the
         segment instruction is the protection itself *)
      walk_exp ~mark ~in_addr:true ptr;
      walk_exp ~mark ~in_addr:false len
  | SegmentSetTag { ptr; tagged; len } ->
      walk_exp ~mark ~in_addr:true ptr;
      walk_exp ~mark ~in_addr:false tagged;
      walk_exp ~mark ~in_addr:false len
  | SegmentFree { tagged; len } ->
      walk_exp ~mark ~in_addr:true tagged;
      walk_exp ~mark ~in_addr:false len
  | PointerSign { ptr; _ } | PointerAuth { ptr; _ } ->
      walk_exp ~mark ~in_addr:false ptr
  | MemFill { dst; byte; len } ->
      walk_exp ~mark ~in_addr:true dst;
      walk_exp ~mark ~in_addr:false byte;
      walk_exp ~mark ~in_addr:false len
  | MemCopy { dst; src; len } ->
      walk_exp ~mark ~in_addr:true dst;
      walk_exp ~mark ~in_addr:true src;
      walk_exp ~mark ~in_addr:false len
  | Switch { scrut; cases; default } ->
      walk_exp ~mark ~in_addr:false scrut;
      List.iter (fun (_, b) -> List.iter (walk_stmt ~mark) b) cases;
      List.iter (walk_stmt ~mark) default
  | Break | Continue | Trap | Nop_stmt -> ()

(** The ids of [f]'s slots whose address leaks. *)
let escaping (f : func) : int list =
  let ids = ref [] in
  let mark id = if not (List.mem id !ids) then ids := id :: !ids in
  List.iter (walk_stmt ~mark) f.fn_body;
  !ids
