(** MiniC intermediate representation.

    A typed, structured IR sitting between the C syntax tree and wasm:
    expressions are pure trees over virtual registers ({e temps}); calls
    and stores are statements; control flow stays structured (wasm has
    no goto anyway). Stack allocations are explicit {e slots} — the
    analogue of LLVM allocas — which is what the Cage stack sanitizer
    (paper Algorithm 1) reasons about. *)

type ty = I32 | I64 | F32 | F64

let ty_to_wasm : ty -> Wasm.Types.val_type = function
  | I32 -> Wasm.Types.I32
  | I64 -> Wasm.Types.I64
  | F32 -> Wasm.Types.F32
  | F64 -> Wasm.Types.F64

(** Memory access granularity. Sub-word integer accesses carry an
    extension mode on load. *)
type mem_ty = M8 | M16 | M32 | M64 | MF32 | MF64

type temp = int

type op =
  | Ibin of Wasm.Ast.ibinop
  | Irel of Wasm.Ast.irelop
  | Fbin of Wasm.Ast.fbinop
  | Frel of Wasm.Ast.frelop

type exp =
  | Const of Wasm.Values.t
  | Temp of temp * ty
  | Bin of op * ty * exp * exp
      (** [ty] is the {e operand} width; relops produce I32 *)
  | Eqz of ty * exp
  | Cvt of Wasm.Ast.cvtop * exp
  | Load of { mem : mem_ty; ext : Wasm.Ast.extension; res : ty; addr : exp;
              off : int64 }
  | SlotAddr of int  (** pointer to a stack slot (tagged when hardened) *)
  | GlobalAddr of int64  (** absolute address of a global/string *)
  | FuncRef of string
      (** function pointer value: its table index (signing is applied by
          the pointer-auth pass) *)

type callee =
  | Direct of string
  | Indirect of { sig_params : ty list; sig_ret : ty option; fptr : exp }

type stmt =
  | Set of temp * ty * exp
  | Store of { mem : mem_ty; addr : exp; off : int64; value : exp }
  | If of exp * stmt list * stmt list
  | ForLoop of { cond : exp option; step : stmt list; body : stmt list;
                 post_test : bool }
      (** [continue] jumps to [step]; [break] exits. [cond = None] loops
          until break; [post_test] checks the condition after body+step
          (do-while). *)
  | Switch of { scrut : exp; cases : (int64 * stmt list) list;
                default : stmt list }
      (** no fallthrough: each case exits after its body; [Break] inside
          a case also exits the switch (C semantics) *)
  | Break
  | Continue
  | Trap  (** __builtin_trap: wasm unreachable *)
  | Return of exp option
  | Call of { dst : (temp * ty) option; callee : callee; args : exp list }
  | SegmentNew of { dst : temp; ptr : exp; len : exp }
  | SegmentSetTag of { ptr : exp; tagged : exp; len : exp }
  | SegmentFree of { tagged : exp; len : exp }
  | PointerSign of { dst : temp; ptr : exp }
  | PointerAuth of { dst : temp; ptr : exp }
  | MemFill of { dst : exp; byte : exp; len : exp }
  | MemCopy of { dst : exp; src : exp; len : exp }
  | Nop_stmt

(** A stack allocation — LLVM's [alloca]. The sanitizer flags are
    filled in by {!Escape} / {!Stack_sanitizer}. *)
type slot = {
  slot_id : int;
  slot_name : string;
  slot_size : int;  (** unpadded size in bytes *)
  slot_align : int;
  mutable escapes : bool;
      (** address flows out: call argument, stored to memory, returned *)
  mutable unsafe_gep : bool;
      (** indexed with a non-constant or not-statically-in-bounds
          offset *)
  mutable instrument : bool;  (** Algorithm 1 verdict *)
}

type func = {
  fn_name : string;
  fn_params : (temp * ty) list;
  fn_ret : ty option;
  mutable fn_ntemps : int;
  mutable fn_slots : slot list;
  mutable fn_body : stmt list;
  mutable fn_needs_guard : bool;
      (** insert an untagged guard slot at the frame start (Fig. 8b) *)
  fn_export : bool;
}

type global_var = {
  gv_name : string;
  gv_addr : int64;
  gv_size : int;
}

type extern_func = {
  ef_name : string;
  ef_params : ty list;
  ef_ret : ty option;
}

type program = {
  pr_funcs : func list;
  pr_externs : extern_func list;  (** resolved as host imports *)
  pr_globals : global_var list;
  pr_data : (int64 * string) list;  (** initialised data segments *)
  pr_table : string list;
      (** functions whose address is taken; position = table index.
          Index 0 is a reserved null entry. *)
  pr_data_end : int64;  (** first free address after globals/data *)
  pr_ptr64 : bool;
}

let table_index p name =
  let rec go i = function
    | [] -> None
    | n :: _ when String.equal n name -> Some i
    | _ :: tl -> go (i + 1) tl
  in
  go 1 p.pr_table  (* index 0 is the null entry *)

(* ------------------------------------------------------------------ *)
(* Traversal helpers used by the analyses and passes                   *)
(* ------------------------------------------------------------------ *)

(** Fold over every expression in a statement list (pre-order, including
    sub-expressions). *)
let rec fold_exps f acc (stmts : stmt list) =
  List.fold_left (fold_exps_stmt f) acc stmts

and fold_exps_stmt f acc = function
  | Set (_, _, e) -> fold_exp f acc e
  | Store { addr; value; _ } -> fold_exp f (fold_exp f acc addr) value
  | If (c, a, b) -> fold_exps f (fold_exps f (fold_exp f acc c) a) b
  | ForLoop { cond; step; body; _ } ->
      let acc = Option.fold ~none:acc ~some:(fold_exp f acc) cond in
      fold_exps f (fold_exps f acc step) body
  | Switch { scrut; cases; default } ->
      let acc = fold_exp f acc scrut in
      let acc =
        List.fold_left (fun acc (_, body) -> fold_exps f acc body) acc cases
      in
      fold_exps f acc default
  | Break | Continue | Nop_stmt | Trap -> acc
  | Return e -> Option.fold ~none:acc ~some:(fold_exp f acc) e
  | Call { args; callee; _ } ->
      let acc =
        match callee with
        | Direct _ -> acc
        | Indirect { fptr; _ } -> fold_exp f acc fptr
      in
      List.fold_left (fold_exp f) acc args
  | SegmentNew { ptr; len; _ } -> fold_exp f (fold_exp f acc ptr) len
  | SegmentSetTag { ptr; tagged; len } ->
      fold_exp f (fold_exp f (fold_exp f acc ptr) tagged) len
  | SegmentFree { tagged; len } -> fold_exp f (fold_exp f acc tagged) len
  | PointerSign { ptr; _ } | PointerAuth { ptr; _ } -> fold_exp f acc ptr
  | MemFill { dst; byte; len } ->
      fold_exp f (fold_exp f (fold_exp f acc dst) byte) len
  | MemCopy { dst; src; len } ->
      fold_exp f (fold_exp f (fold_exp f acc dst) src) len

and fold_exp f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Temp _ | SlotAddr _ | GlobalAddr _ | FuncRef _ -> acc
  | Bin (_, _, a, b) -> fold_exp f (fold_exp f acc a) b
  | Eqz (_, a) | Cvt (_, a) -> fold_exp f acc a
  | Load { addr; _ } -> fold_exp f acc addr

(** Map statements bottom-up (for rewriting passes). *)
let rec map_stmts f (stmts : stmt list) : stmt list =
  List.concat_map
    (fun s ->
      let s' =
        match s with
        | If (c, a, b) -> If (c, map_stmts f a, map_stmts f b)
        | ForLoop { cond; step; body; post_test } ->
            ForLoop
              { cond; step = map_stmts f step; body = map_stmts f body;
                post_test }
        | Switch { scrut; cases; default } ->
            Switch
              { scrut;
                cases = List.map (fun (v, b) -> (v, map_stmts f b)) cases;
                default = map_stmts f default }
        | s -> s
      in
      f s')
    stmts
