(** Middle-end optimisations.

    These play the role the LLVM pipeline plays in the paper (§6.1): the
    Cage sanitizers run {e after} them, so an allocation the optimiser
    removes is never instrumented. Implemented: constant folding,
    algebraic simplification, branch folding, dead-temp elimination and
    dead-slot elimination. *)

open Ir

let is_zero = function
  | Const (Wasm.Values.I32 0l) | Const (Wasm.Values.I64 0L) -> true
  | _ -> false

let is_one = function
  | Const (Wasm.Values.I32 1l) | Const (Wasm.Values.I64 1L) -> true
  | _ -> false

let fold_ibin op ty a b =
  let open Wasm.Ast in
  let wrap32 f a b = Wasm.Values.I32 (f (Int64.to_int32 a) (Int64.to_int32 b)) in
  match (ty, op) with
  | _, (DivS | DivU | RemS | RemU) when Int64.equal b 0L -> None
  | I32, Add -> Some (wrap32 Int32.add a b)
  | I32, Sub -> Some (wrap32 Int32.sub a b)
  | I32, Mul -> Some (wrap32 Int32.mul a b)
  | I32, And -> Some (wrap32 Int32.logand a b)
  | I32, Or -> Some (wrap32 Int32.logor a b)
  | I32, Xor -> Some (wrap32 Int32.logxor a b)
  | I32, Shl ->
      Some (Wasm.Values.I32
              (Int32.shift_left (Int64.to_int32 a)
                 (Int64.to_int (Int64.logand b 31L))))
  | I64, Add -> Some (Wasm.Values.I64 (Int64.add a b))
  | I64, Sub -> Some (Wasm.Values.I64 (Int64.sub a b))
  | I64, Mul -> Some (Wasm.Values.I64 (Int64.mul a b))
  | I64, And -> Some (Wasm.Values.I64 (Int64.logand a b))
  | I64, Or -> Some (Wasm.Values.I64 (Int64.logor a b))
  | I64, Xor -> Some (Wasm.Values.I64 (Int64.logxor a b))
  | I64, Shl ->
      Some (Wasm.Values.I64
              (Int64.shift_left a (Int64.to_int (Int64.logand b 63L))))
  | _ -> None

let const_bits = function
  | Const (Wasm.Values.I32 v) -> Some (Int64.of_int32 v)
  | Const (Wasm.Values.I64 v) -> Some v
  | _ -> None

(** Bottom-up constant folding and algebraic simplification. *)
let rec fold_exp (e : exp) : exp =
  match e with
  | Const _ | Temp _ | SlotAddr _ | GlobalAddr _ | FuncRef _ -> e
  | Eqz (ty, a) -> (
      let a = fold_exp a in
      match const_bits a with
      | Some v ->
          Const (Wasm.Values.I32 (if Int64.equal v 0L then 1l else 0l))
      | None -> (
          (* eqz(eqz(relop)) is the relop itself: relops are 0/1 *)
          match a with
          | Eqz (_, (Bin ((Irel _ | Frel _), _, _, _) as inner)) -> inner
          | Eqz (_, (Eqz _ as inner)) -> inner
          | _ -> Eqz (ty, a)))
  | Cvt (op, a) -> (
      let a = fold_exp a in
      match (op, a) with
      | Wasm.Ast.I64ExtendI32S, Const (Wasm.Values.I32 v) ->
          Const (Wasm.Values.I64 (Int64.of_int32 v))
      | Wasm.Ast.I64ExtendI32U, Const (Wasm.Values.I32 v) ->
          Const (Wasm.Values.I64 (Int64.logand (Int64.of_int32 v) 0xffffffffL))
      | Wasm.Ast.I32WrapI64, Const (Wasm.Values.I64 v) ->
          Const (Wasm.Values.I32 (Int64.to_int32 v))
      | Wasm.Ast.F64ConvertI32S, Const (Wasm.Values.I32 v) ->
          Const (Wasm.Values.F64 (Int32.to_float v))
      | Wasm.Ast.F64ConvertI64S, Const (Wasm.Values.I64 v) ->
          Const (Wasm.Values.F64 (Int64.to_float v))
      | _ -> Cvt (op, a))
  | Load { mem; ext; res; addr; off } -> (
      let addr = fold_exp addr in
      (* fold constant address components into the static offset *)
      match addr with
      | Bin (Ibin Wasm.Ast.Add, _, base, Const c) ->
          let v =
            match c with
            | Wasm.Values.I32 v -> Int64.of_int32 v
            | Wasm.Values.I64 v -> v
            | _ -> 0L
          in
          if v >= 0L && v < 0x10000000L then
            Load { mem; ext; res; addr = base; off = Int64.add off v }
          else Load { mem; ext; res; addr; off }
      | _ -> Load { mem; ext; res; addr; off })
  | Bin (op, ty, a, b) -> (
      let a = fold_exp a and b = fold_exp b in
      match (op, const_bits a, const_bits b) with
      | Ibin iop, Some va, Some vb -> (
          match fold_ibin iop ty va vb with
          | Some v -> Const v
          | None -> Bin (op, ty, a, b))
      | Ibin Wasm.Ast.Add, _, _ when is_zero b -> a
      | Ibin Wasm.Ast.Add, _, _ when is_zero a -> b
      | Ibin Wasm.Ast.Sub, _, _ when is_zero b -> a
      | Ibin Wasm.Ast.Mul, _, _ when is_one b -> a
      | Ibin Wasm.Ast.Mul, _, _ when is_one a -> b
      | Ibin Wasm.Ast.Mul, _, _ when is_zero a || is_zero b ->
          Const
            (match ty with
            | I32 -> Wasm.Values.I32 0l
            | _ -> Wasm.Values.I64 0L)
      | Irel rel, Some va, Some vb ->
          let c =
            let open Wasm.Ast in
            match (ty, rel) with
            | I32, _ ->
                let a32 = Int64.to_int32 va and b32 = Int64.to_int32 vb in
                (match rel with
                | Eq -> Int32.equal a32 b32
                | Ne -> not (Int32.equal a32 b32)
                | LtS -> Int32.compare a32 b32 < 0
                | GtS -> Int32.compare a32 b32 > 0
                | LeS -> Int32.compare a32 b32 <= 0
                | GeS -> Int32.compare a32 b32 >= 0
                | LtU -> Int32.unsigned_compare a32 b32 < 0
                | GtU -> Int32.unsigned_compare a32 b32 > 0
                | LeU -> Int32.unsigned_compare a32 b32 <= 0
                | GeU -> Int32.unsigned_compare a32 b32 >= 0)
            | _, _ -> (
                match rel with
                | Eq -> Int64.equal va vb
                | Ne -> not (Int64.equal va vb)
                | LtS -> Int64.compare va vb < 0
                | GtS -> Int64.compare va vb > 0
                | LeS -> Int64.compare va vb <= 0
                | GeS -> Int64.compare va vb >= 0
                | LtU -> Int64.unsigned_compare va vb < 0
                | GtU -> Int64.unsigned_compare va vb > 0
                | LeU -> Int64.unsigned_compare va vb <= 0
                | GeU -> Int64.unsigned_compare va vb >= 0)
          in
          Const (Wasm.Values.I32 (if c then 1l else 0l))
      | _ -> Bin (op, ty, a, b))

(** Fold constants throughout a function, simplifying branches on
    constant conditions. *)
let fold_func (f : func) =
  let rec fold_stmt (s : stmt) : stmt list =
    match s with
    | Set (t, ty, e) -> [ Set (t, ty, fold_exp e) ]
    | Store { mem; addr; off; value } -> (
        let addr = fold_exp addr and value = fold_exp value in
        match addr with
        | Bin (Ibin Wasm.Ast.Add, _, base, Const c) ->
            let v =
              match c with
              | Wasm.Values.I32 v -> Int64.of_int32 v
              | Wasm.Values.I64 v -> v
              | _ -> 0L
            in
            if v >= 0L && v < 0x10000000L then
              [ Store { mem; addr = base; off = Int64.add off v; value } ]
            else [ Store { mem; addr; off; value } ]
        | _ -> [ Store { mem; addr; off; value } ])
    | If (c, a, b) -> (
        let c = fold_exp c in
        let a = List.concat_map fold_stmt a in
        let b = List.concat_map fold_stmt b in
        match const_bits c with
        | Some v -> if Int64.equal v 0L then b else a
        | None -> [ If (c, a, b) ])
    | ForLoop { cond; step; body; post_test } ->
        let cond = Option.map fold_exp cond in
        (match cond with
        | Some c when is_zero c && not post_test -> []
        | _ ->
            [ ForLoop
                { cond;
                  step = List.concat_map fold_stmt step;
                  body = List.concat_map fold_stmt body;
                  post_test } ])
    | Return e -> [ Return (Option.map fold_exp e) ]
    | Call c -> [ Call { c with args = List.map fold_exp c.args } ]
    | SegmentNew s ->
        [ SegmentNew { s with ptr = fold_exp s.ptr; len = fold_exp s.len } ]
    | SegmentSetTag s ->
        [ SegmentSetTag
            { ptr = fold_exp s.ptr; tagged = fold_exp s.tagged;
              len = fold_exp s.len } ]
    | SegmentFree s ->
        [ SegmentFree { tagged = fold_exp s.tagged; len = fold_exp s.len } ]
    | PointerSign s -> [ PointerSign { s with ptr = fold_exp s.ptr } ]
    | PointerAuth s -> [ PointerAuth { s with ptr = fold_exp s.ptr } ]
    | MemFill s ->
        [ MemFill
            { dst = fold_exp s.dst; byte = fold_exp s.byte;
              len = fold_exp s.len } ]
    | MemCopy s ->
        [ MemCopy
            { dst = fold_exp s.dst; src = fold_exp s.src;
              len = fold_exp s.len } ]
    | Switch { scrut; cases; default } -> (
        let scrut = fold_exp scrut in
        let cases =
          List.map (fun (v, b) -> (v, List.concat_map fold_stmt b)) cases
        in
        let default = List.concat_map fold_stmt default in
        match const_bits scrut with
        | Some v -> (
            (* constant scrutinee: keep only the taken branch *)
            match List.assoc_opt v cases with
            | Some body -> body
            | None -> default)
        | None -> [ Switch { scrut; cases; default } ])
    | (Break | Continue | Trap | Nop_stmt) as s -> [ s ]
  in
  f.fn_body <- List.concat_map fold_stmt f.fn_body

(** Remove assignments to temps that are never read. Safe because IR
    expressions are pure. *)
let dead_temp_elim (f : func) =
  let used = Hashtbl.create 64 in
  let note_exp () e =
    match e with Temp (t, _) -> Hashtbl.replace used t () | _ -> ()
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.reset used;
    ignore (fold_exps note_exp () f.fn_body);
    f.fn_body <-
      map_stmts
        (fun s ->
          match s with
          | Set (t, _, _)
            when (not (Hashtbl.mem used t))
                 && not (List.exists (fun (p, _) -> p = t) f.fn_params) ->
              changed := true;
              []
          | s -> [ s ])
        f.fn_body
  done

(* Slot ids appearing anywhere in an expression. *)
let slot_ids_of_exp e =
  Ir.fold_exp
    (fun acc e -> match e with SlotAddr id -> id :: acc | _ -> acc)
    [] e

(** Dead-store elimination for write-only slots: a slot that is never
    loaded from and never escapes is removed along with its stores —
    what LLVM's DSE does to a never-read alloca (and relies on the same
    no-UB assumption for dynamically indexed stores). *)
let dead_store_elim (f : func) =
  (* classify slot uses: any appearance outside a store-address makes
     the slot live *)
  let live = Hashtbl.create 16 in
  let mark_exp e =
    List.iter (fun id -> Hashtbl.replace live id ()) (slot_ids_of_exp e)
  in
  let rec scan (s : stmt) =
    match s with
    | Store { addr; value; _ } ->
        (* the address itself keeps nothing alive; the stored value and
           any index sub-expressions do *)
        mark_exp value;
        (match addr with
        | SlotAddr _ -> ()
        | Bin (_, _, SlotAddr _, idx) | Bin (_, _, idx, SlotAddr _) ->
            mark_exp idx
        | e -> mark_exp e)
    | Set (_, _, e) -> mark_exp e
    | If (c, a, b) ->
        mark_exp c;
        List.iter scan a;
        List.iter scan b
    | ForLoop { cond; step; body; _ } ->
        Option.iter mark_exp cond;
        List.iter scan step;
        List.iter scan body
    | Return e -> Option.iter mark_exp e
    | Call { args; callee; _ } ->
        (match callee with
        | Indirect { fptr; _ } -> mark_exp fptr
        | Direct _ -> ());
        List.iter mark_exp args
    | SegmentNew { ptr; len; _ } -> mark_exp ptr; mark_exp len
    | SegmentSetTag { ptr; tagged; len } ->
        mark_exp ptr; mark_exp tagged; mark_exp len
    | SegmentFree { tagged; len } -> mark_exp tagged; mark_exp len
    | PointerSign { ptr; _ } | PointerAuth { ptr; _ } -> mark_exp ptr
    | MemFill { dst; byte; len } -> mark_exp dst; mark_exp byte; mark_exp len
    | MemCopy { dst; src; len } -> mark_exp dst; mark_exp src; mark_exp len
    | Switch { scrut; cases; default } ->
        mark_exp scrut;
        List.iter (fun (_, b) -> List.iter scan b) cases;
        List.iter scan default
    | Break | Continue | Trap | Nop_stmt -> ()
  in
  List.iter scan f.fn_body;
  let dead id = not (Hashtbl.mem live id) in
  f.fn_body <-
    map_stmts
      (fun s ->
        match s with
        | Store { addr; _ } -> (
            match slot_ids_of_exp addr with
            | [ id ] when dead id -> []
            | _ -> [ s ])
        | s -> [ s ])
      f.fn_body

(** Remove stack slots whose address is never materialised. *)
let dead_slot_elim (f : func) =
  dead_store_elim f;
  let used = Hashtbl.create 16 in
  let note () e =
    match e with SlotAddr id -> Hashtbl.replace used id () | _ -> ()
  in
  ignore (fold_exps note () f.fn_body);
  f.fn_slots <- List.filter (fun s -> Hashtbl.mem used s.slot_id) f.fn_slots

(** The standard pipeline: fold → dead-temp → dead-slot, iterated
    once more for the slots folding exposes. *)
let run_func (f : func) =
  fold_func f;
  dead_temp_elim f;
  dead_slot_elim f;
  fold_func f;
  dead_temp_elim f
