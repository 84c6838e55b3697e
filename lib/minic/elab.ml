(** Elaboration: type checking and lowering of the C syntax tree to the
    typed IR.

    Scalar locals whose address is never taken become virtual registers
    (the effect LLVM's mem2reg has before the Cage sanitizers run,
    §6.1); everything else — arrays, structs, address-taken scalars —
    becomes a stack {e slot}, the unit Algorithm 1 instruments.

    Elaboration is parameterised on the pointer width so the same
    source builds as wasm32 and wasm64 (memory64), mirroring the
    paper's wasi-sdk configurations. *)

exception Type_error of string * int

let err line fmt =
  Format.kasprintf (fun s -> raise (Type_error (s, line))) fmt

(* --------------------------------------------------------------- *)
(* Layout                                                           *)
(* --------------------------------------------------------------- *)

type struct_layout = {
  sl_fields : (string * Cst.ty * int) list;  (** name, type, offset *)
  sl_size : int;
  sl_align : int;
}

(* What a translation unit has declared and laid out so far. A libc
   unit's environment seeds each program's ({!copy}); it holds
   declarations only, nothing per function. *)
type env = {
  ptr64 : bool;
  structs : (string, struct_layout) Hashtbl.t;
  funcs : (string, Cst.ty * Cst.ty list) Hashtbl.t;  (** ret, params *)
  defined : (string, unit) Hashtbl.t;  (** functions with bodies *)
  globals : (string, int64 * Cst.ty) Hashtbl.t;
  mutable data : (int64 * string) list;
  mutable data_end : int64;
  mutable in_strings : bool;
      (** string literals have started after the last global, so
          [data_end] is past their 16-byte boundary *)
  mutable strings : (string * int64) list;  (** interned literals *)
  mutable table : string list;  (** address-taken functions *)
}

let ptr_bytes env = if env.ptr64 then 8 else 4
let ptr_ir env : Ir.ty = if env.ptr64 then Ir.I64 else Ir.I32

(* Type errors name [line], the line of the construct that needs the
   size. *)
let rec sizeof env line (t : Cst.ty) : int =
  match t with
  | TVoid -> err line "sizeof(void)"
  | TChar -> 1
  | TInt | TUInt -> 4
  | TLong | TULong -> 8
  | TFloat -> 4
  | TDouble -> 8
  | TPtr _ -> ptr_bytes env
  | TArray (el, n) -> n * sizeof env line el
  | TStruct s -> (layout_of env s line).sl_size
  | TFunc _ -> err line "sizeof(function)"

and alignof env line (t : Cst.ty) : int =
  match t with
  | TArray (el, _) -> alignof env line el
  | TStruct s -> (layout_of env s line).sl_align
  | TVoid | TFunc _ -> 1
  | t -> sizeof env line t

and layout_of env name line =
  match Hashtbl.find_opt env.structs name with
  | Some l -> l
  | None -> err line "unknown struct %s" name

let align_up n a = (n + a - 1) / a * a

let compute_layout env (sd : Cst.struct_def) : struct_layout =
  let fields, size, align =
    List.fold_left
      (fun (fs, off, al) (ty, name) ->
        let a = alignof env sd.sd_line ty in
        let off = align_up off a in
        ((name, ty, off) :: fs, off + sizeof env sd.sd_line ty, max al a))
      ([], 0, 1) sd.sd_fields
  in
  { sl_fields = List.rev fields; sl_size = align_up size align;
    sl_align = align }

(* --------------------------------------------------------------- *)
(* C-type utilities                                                 *)
(* --------------------------------------------------------------- *)

let ir_of_cty env : Cst.ty -> Ir.ty = function
  | TChar | TInt | TUInt -> Ir.I32
  | TLong | TULong -> Ir.I64
  | TFloat -> Ir.F32
  | TDouble -> Ir.F64
  | TPtr _ | TArray _ -> ptr_ir env
  | TVoid -> Ir.I32 (* void values never materialise *)
  | TStruct _ -> ptr_ir env (* structs are manipulated by address *)
  | TFunc _ -> ptr_ir env

let mem_of_cty env line : Cst.ty -> Ir.mem_ty = function
  | TChar -> Ir.M8
  | TInt | TUInt -> Ir.M32
  | TLong | TULong -> Ir.M64
  | TFloat -> Ir.MF32
  | TDouble -> Ir.MF64
  | TPtr _ | TFunc _ -> if env.ptr64 then Ir.M64 else Ir.M32
  | TArray _ | TStruct _ | TVoid ->
      err line "cannot load/store aggregate directly"

let is_integer = function
  | Cst.TChar | TInt | TUInt | TLong | TULong -> true
  | _ -> false

let is_float = function Cst.TFloat | TDouble -> true | _ -> false
let is_arith t = is_integer t || is_float t
let is_ptr = function Cst.TPtr _ | TArray _ -> true | _ -> false

let is_unsigned = function
  | Cst.TChar | TUInt | TULong -> true
  | Cst.TPtr _ | TArray _ -> true
  | _ -> false

let elem_ty line = function
  | Cst.TPtr t | Cst.TArray (t, _) -> t
  | t -> err line "cannot index non-pointer type %s" (Cst.ty_to_string t)

(* Usual arithmetic conversions: the common type of two operands. *)
let common_ty line a b =
  let rank = function
    | Cst.TDouble -> 6
    | TFloat -> 5
    | TULong -> 4
    | TLong -> 3
    | TUInt -> 2
    | TInt -> 1
    | TChar -> 0
    | t -> err line "non-arithmetic operand %s" (Cst.ty_to_string t)
  in
  let promote = function Cst.TChar -> Cst.TInt | t -> t in
  let a = promote a and b = promote b in
  if rank a >= rank b then a else b

(* --------------------------------------------------------------- *)
(* Conversions                                                      *)
(* --------------------------------------------------------------- *)

(* Convert an IR value of C type [src] to C type [dst]. *)
let convert env line (e : Ir.exp) (src : Cst.ty) (dst : Cst.ty) : Ir.exp =
  let open Ir in
  if src = dst then e
  else
    let s = ir_of_cty env src and d = ir_of_cty env dst in
    match (s, d) with
    | a, b when a = b ->
        (* same machine type: chars narrow on store; mask when narrowing
           to char so the value is canonical *)
        if dst = Cst.TChar && src <> Cst.TChar then
          Bin (Ibin Wasm.Ast.And, I32, e, Const (Wasm.Values.I32 0xffl))
        else e
    | I32, I64 ->
        if is_unsigned src then Cvt (Wasm.Ast.I64ExtendI32U, e)
        else Cvt (Wasm.Ast.I64ExtendI32S, e)
    | I64, I32 ->
        let w = Cvt (Wasm.Ast.I32WrapI64, e) in
        if dst = Cst.TChar then
          Bin (Ibin Wasm.Ast.And, I32, w, Const (Wasm.Values.I32 0xffl))
        else w
    | I32, F32 ->
        Cvt ((if is_unsigned src then Wasm.Ast.F32ConvertI32U
              else Wasm.Ast.F32ConvertI32S), e)
    | I32, F64 ->
        Cvt ((if is_unsigned src then Wasm.Ast.F64ConvertI32U
              else Wasm.Ast.F64ConvertI32S), e)
    | I64, F32 ->
        Cvt ((if is_unsigned src then Wasm.Ast.F32ConvertI64U
              else Wasm.Ast.F32ConvertI64S), e)
    | I64, F64 ->
        Cvt ((if is_unsigned src then Wasm.Ast.F64ConvertI64U
              else Wasm.Ast.F64ConvertI64S), e)
    | F32, I32 ->
        Cvt ((if is_unsigned dst then Wasm.Ast.I32TruncF32U
              else Wasm.Ast.I32TruncF32S), e)
    | F64, I32 ->
        Cvt ((if is_unsigned dst then Wasm.Ast.I32TruncF64U
              else Wasm.Ast.I32TruncF64S), e)
    | F32, I64 ->
        Cvt ((if is_unsigned dst then Wasm.Ast.I64TruncF32U
              else Wasm.Ast.I64TruncF32S), e)
    | F64, I64 ->
        Cvt ((if is_unsigned dst then Wasm.Ast.I64TruncF64U
              else Wasm.Ast.I64TruncF64S), e)
    | F32, F64 -> Cvt (Wasm.Ast.F64PromoteF32, e)
    | F64, F32 -> Cvt (Wasm.Ast.F32DemoteF64, e)
    | _ -> err line "cannot convert %s to %s" (Cst.ty_to_string src)
             (Cst.ty_to_string dst)

(* --------------------------------------------------------------- *)
(* Function contexts                                                *)
(* --------------------------------------------------------------- *)

type location =
  | Loc_temp of Ir.temp
  | Loc_slot of Ir.slot

type fctx = {
  env : env;
  taken : (string, unit) Hashtbl.t;  (** address-taken variable names *)
  ret_ty : Cst.ty;
  mutable scopes : (string, location * Cst.ty) Hashtbl.t list;
  mutable ntemps : int;
  mutable slots : Ir.slot list;
  mutable nslots : int;
}

let fresh_temp fc =
  let t = fc.ntemps in
  fc.ntemps <- fc.ntemps + 1;
  t

let fresh_slot fc name size align =
  let s =
    { Ir.slot_id = fc.nslots; slot_name = name; slot_size = size;
      slot_align = align; escapes = false; unsafe_gep = false;
      instrument = false }
  in
  fc.nslots <- fc.nslots + 1;
  fc.slots <- fc.slots @ [ s ];
  s

let push_scope fc = fc.scopes <- Hashtbl.create 8 :: fc.scopes
let pop_scope fc = fc.scopes <- List.tl fc.scopes

let bind fc name loc ty =
  match fc.scopes with
  | tbl :: _ -> Hashtbl.replace tbl name (loc, ty)
  | [] -> assert false

let lookup_var fc name =
  List.find_map (fun tbl -> Hashtbl.find_opt tbl name) fc.scopes

(* Whether a variable of this C type can live in a register. *)
let registerable = function
  | Cst.TArray _ | Cst.TStruct _ -> false
  | Cst.TVoid -> false
  | _ -> true

(* Pre-scan a function body for address-taken variable names. *)
let addr_taken_names (body : Cst.stmt list) : (string, unit) Hashtbl.t =
  let taken = Hashtbl.create 8 in
  let rec scan_lv (e : Cst.expr) =
    (* the variable at the base of an lvalue path *)
    match e.e with
    | Cst.Var n -> Hashtbl.replace taken n ()
    | Cst.Index (a, i) -> scan_lv a; scan_e i
    | Cst.Member (a, _) -> scan_lv a
    | Cst.Deref a -> scan_e a
    | Cst.Arrow (a, _) -> scan_e a
    | _ -> scan_e e
  and scan_e (e : Cst.expr) =
    match e.e with
    | Cst.AddrOf lv -> scan_lv lv
    | Cst.IntLit _ | FloatLit _ | StrLit _ | Var _ -> ()
    | Cst.Bin (_, a, b) | Cst.Assign (a, b) | Cst.Index (a, b) ->
        scan_e a; scan_e b
    | Cst.Un (_, a) | Cst.Deref a | Cst.Cast (_, a) | Cst.SizeofE a
    | Cst.Member (a, _) | Cst.Arrow (a, _)
    | Cst.PreIncr a | Cst.PreDecr a | Cst.PostIncr a | Cst.PostDecr a ->
        scan_e a
    | Cst.Cond (a, b, c) -> scan_e a; scan_e b; scan_e c
    | Cst.Call (f, args) -> scan_e f; List.iter scan_e args
    | Cst.SizeofT _ -> ()
  and scan_s (s : Cst.stmt) =
    match s.s with
    | Cst.SExpr e -> scan_e e
    | Cst.SDecl (_, _, init) -> Option.iter scan_init init
    | Cst.SIf (c, a, b) -> scan_e c; List.iter scan_s a; List.iter scan_s b
    | Cst.SWhile (c, b) -> scan_e c; List.iter scan_s b
    | Cst.SDoWhile (b, c) -> List.iter scan_s b; scan_e c
    | Cst.SFor (i, c, st, b) ->
        Option.iter scan_s i;
        Option.iter scan_e c;
        Option.iter scan_e st;
        List.iter scan_s b
    | Cst.SSwitch (scrut, cases, default) ->
        scan_e scrut;
        List.iter (fun (_, b) -> List.iter scan_s b) cases;
        List.iter scan_s default
    | Cst.SReturn e -> Option.iter scan_e e
    | Cst.SBreak | SContinue -> ()
    | Cst.SBlock b -> List.iter scan_s b
  and scan_init = function
    | Cst.IExpr e -> scan_e e
    | Cst.IList l -> List.iter (fun (_, i) -> scan_init i) l
  in
  List.iter scan_s body;
  taken

(* --------------------------------------------------------------- *)
(* String interning                                                 *)
(* --------------------------------------------------------------- *)

let align_up_64 n a = Int64.mul (Int64.div (Int64.add n (Int64.sub a 1L)) a) a

(* String literals follow the globals from a 16-byte boundary. *)
let intern_string env s =
  match List.assoc_opt s env.strings with
  | Some addr -> addr
  | None ->
      if not env.in_strings then begin
        env.data_end <- align_up_64 env.data_end 16L;
        env.in_strings <- true
      end;
      let addr = env.data_end in
      let bytes = s ^ "\000" in
      env.data <- (addr, bytes) :: env.data;
      env.data_end <-
        align_up_64 (Int64.add addr (Int64.of_int (String.length bytes))) 8L;
      env.strings <- (s, addr) :: env.strings;
      addr

(* --------------------------------------------------------------- *)
(* Expression elaboration                                           *)
(* --------------------------------------------------------------- *)

(* An elaborated rvalue: prefix statements, a pure expression, its
   C type. Arrays and structs evaluate to their address. *)
type eexp = Ir.stmt list * Ir.exp * Cst.ty

(* An elaborated lvalue. *)
type lv =
  | LV_temp of Ir.temp * Cst.ty
  | LV_mem of Ir.exp * int64 * Cst.ty  (* base, const offset, pointee *)

let const_i fc ty v : Ir.exp =
  ignore fc;
  match ty with
  | Ir.I32 -> Ir.Const (Wasm.Values.I32 (Int64.to_int32 v))
  | Ir.I64 -> Ir.Const (Wasm.Values.I64 v)
  | _ -> assert false

let ptr_const fc v = const_i fc (ptr_ir fc.env) v

(* Fold [base + off] into a single expression when needed. *)
let addr_plus fc base off =
  if Int64.equal off 0L then base
  else Ir.Bin (Ir.Ibin Wasm.Ast.Add, ptr_ir fc.env, base, ptr_const fc off)

(* Root slot of an address expression (for GEP-safety marking). *)
let rec root_slot fc = function
  | Ir.SlotAddr id -> List.find_opt (fun s -> s.Ir.slot_id = id) fc.slots
  | Ir.Bin (_, _, a, b) -> (
      match root_slot fc a with Some s -> Some s | None -> root_slot fc b)
  | _ -> None

let as_const = function
  | Ir.Const (Wasm.Values.I32 v) -> Some (Int64.of_int32 v)
  | Ir.Const (Wasm.Values.I64 v) -> Some v
  | _ -> None

let rec elab_expr fc (e : Cst.expr) : eexp =
  let ln = e.eline in
  match e.e with
  | Cst.IntLit v ->
      if v >= -2147483648L && v <= 2147483647L then
        ([], Ir.Const (Wasm.Values.I32 (Int64.to_int32 v)), Cst.TInt)
      else ([], Ir.Const (Wasm.Values.I64 v), Cst.TLong)
  | Cst.FloatLit v -> ([], Ir.Const (Wasm.Values.F64 v), Cst.TDouble)
  | Cst.StrLit s ->
      let addr = intern_string fc.env s in
      ([], Ir.GlobalAddr addr, Cst.TPtr Cst.TChar)
  | Cst.Var n -> (
      match lookup_var fc n with
      | Some (Loc_temp t, ty) -> ([], Ir.Temp (t, ir_of_cty fc.env ty), ty)
      | Some (Loc_slot s, ty) -> load_place fc ln (Ir.SlotAddr s.Ir.slot_id) 0L ty
      | None -> (
          match Hashtbl.find_opt fc.env.globals n with
          | Some (addr, ty) -> load_place fc ln (Ir.GlobalAddr addr) 0L ty
          | None -> (
              match Hashtbl.find_opt fc.env.funcs n with
              | Some (ret, params) ->
                  fc.env.table <-
                    (if List.mem n fc.env.table then fc.env.table
                     else fc.env.table @ [ n ]);
                  ([], Ir.FuncRef n, Cst.TPtr (Cst.TFunc (ret, params)))
              | None -> err ln "unknown identifier %s" n)))
  | Cst.Bin (op, a, b) -> elab_binop fc ln op a b
  | Cst.Un (op, a) -> (
      let sa, ea, ta = elab_expr fc a in
      match op with
      | Cst.Neg ->
          if is_float ta then
            (sa, Ir.Bin (Ir.Fbin Wasm.Ast.FSub, ir_of_cty fc.env ta,
                         Ir.Const (if ta = Cst.TFloat then Wasm.Values.F32 0.0
                                   else Wasm.Values.F64 0.0), ea), ta)
          else
            let ty = common_ty ln ta Cst.TInt in
            let ea = convert fc.env ln ea ta ty in
            (sa, Ir.Bin (Ir.Ibin Wasm.Ast.Sub, ir_of_cty fc.env ty,
                         const_i fc (ir_of_cty fc.env ty) 0L, ea), ty)
      | Cst.BNot ->
          let ty = common_ty ln ta Cst.TInt in
          let ea = convert fc.env ln ea ta ty in
          (sa, Ir.Bin (Ir.Ibin Wasm.Ast.Xor, ir_of_cty fc.env ty, ea,
                       const_i fc (ir_of_cty fc.env ty) (-1L)), ty)
      | Cst.LNot ->
          let sa, c = elab_cond fc a in
          (sa, Ir.Eqz (Ir.I32, c), Cst.TInt))
  | Cst.Assign (lhs, rhs) ->
      let stmts, value, ty = elab_assign fc ln lhs rhs in
      (stmts, value, ty)
  | Cst.Cond (c, a, b) ->
      let sc, ec = elab_cond fc c in
      let sa, ea, ta = elab_expr fc a in
      let sb, eb, tb = elab_expr fc b in
      let ty =
        if is_arith ta && is_arith tb then common_ty ln ta tb
        else if ta = tb then ta
        else if is_ptr ta && is_ptr tb then ta
        else err ln "incompatible ?: branches"
      in
      let t = fresh_temp fc in
      let irty = ir_of_cty fc.env ty in
      ( sc
        @ [ Ir.If
              ( ec,
                sa @ [ Ir.Set (t, irty, convert fc.env ln ea ta ty) ],
                sb @ [ Ir.Set (t, irty, convert fc.env ln eb tb ty) ] ) ],
        Ir.Temp (t, irty), ty )
  | Cst.Call (f, args) -> elab_call fc ln f args
  | Cst.Index _ | Cst.Member _ | Cst.Arrow _ | Cst.Deref _ ->
      let stmts, lv = elab_lval fc e in
      load_lv fc ln stmts lv
  | Cst.AddrOf inner -> (
      match inner.e with
      | Cst.Var n when lookup_var fc n = None
                       && Hashtbl.find_opt fc.env.globals n = None -> (
          (* address of a function *)
          match Hashtbl.find_opt fc.env.funcs n with
          | Some (ret, params) ->
              fc.env.table <-
                (if List.mem n fc.env.table then fc.env.table
                 else fc.env.table @ [ n ]);
              ([], Ir.FuncRef n, Cst.TPtr (Cst.TFunc (ret, params)))
          | None -> err ln "unknown identifier %s" n)
      | _ -> (
          let stmts, lv = elab_lval fc inner in
          match lv with
          | LV_mem (base, off, ty) ->
              (stmts, addr_plus fc base off, Cst.TPtr ty)
          | LV_temp _ ->
              err ln "cannot take the address of a register variable"))
  | Cst.Cast (ty, a) ->
      let sa, ea, ta = elab_expr fc a in
      let ea = elab_cast fc ln ea ta ty in
      (sa, ea, ty)
  | Cst.SizeofT t ->
      ([], Ir.Const (Wasm.Values.I64 (Int64.of_int (sizeof fc.env ln t))),
       Cst.TLong)
  | Cst.SizeofE a ->
      let ty = type_of_expr fc a in
      ([], Ir.Const (Wasm.Values.I64 (Int64.of_int (sizeof fc.env ln ty))),
       Cst.TLong)
  | Cst.PreIncr a -> elab_incr fc ln a 1L `Pre
  | Cst.PreDecr a -> elab_incr fc ln a (-1L) `Pre
  | Cst.PostIncr a -> elab_incr fc ln a 1L `Post
  | Cst.PostDecr a -> elab_incr fc ln a (-1L) `Post

(* Load (or decay) the value at a place. Arrays and structs decay to
   their address. *)
and load_place fc ln base off (ty : Cst.ty) : eexp =
  match ty with
  | Cst.TArray (el, _) -> ([], addr_plus fc base off, Cst.TPtr el)
  | Cst.TStruct _ -> ([], addr_plus fc base off, Cst.TPtr ty)
  | _ ->
      let mem = mem_of_cty fc.env ln ty in
      let res = ir_of_cty fc.env ty in
      let ext = if is_unsigned ty then Wasm.Ast.ZX else Wasm.Ast.SX in
      ([], Ir.Load { mem; ext; res; addr = base; off }, ty)

and load_lv fc ln stmts = function
  | LV_temp (t, ty) -> (stmts, Ir.Temp (t, ir_of_cty fc.env ty), ty)
  | LV_mem (base, off, ty) ->
      let s2, e, t = load_place fc ln base off ty in
      (stmts @ s2, e, t)

(* Elaborate an expression as an lvalue. *)
and elab_lval fc (e : Cst.expr) : Ir.stmt list * lv =
  let ln = e.eline in
  match e.e with
  | Cst.Var n -> (
      match lookup_var fc n with
      | Some (Loc_temp t, ty) -> ([], LV_temp (t, ty))
      | Some (Loc_slot s, ty) -> ([], LV_mem (Ir.SlotAddr s.Ir.slot_id, 0L, ty))
      | None -> (
          match Hashtbl.find_opt fc.env.globals n with
          | Some (addr, ty) -> ([], LV_mem (Ir.GlobalAddr addr, 0L, ty))
          | None -> err ln "unknown identifier %s" n))
  | Cst.Deref p ->
      let sp, ep, tp = elab_expr fc p in
      (sp, LV_mem (ep, 0L, elem_ty ln tp))
  | Cst.Index (a, i) ->
      let sa, base, off, elty = elab_index fc ln a i in
      (sa, LV_mem (base, off, elty))
  | Cst.Member (a, f) -> (
      let sa, lv = elab_lval fc a in
      match lv with
      | LV_mem (base, off, Cst.TStruct sname) ->
          let l = layout_of fc.env sname ln in
          let fname, fty, foff =
            match
              List.find_opt (fun (n, _, _) -> String.equal n f) l.sl_fields
            with
            | Some x -> x
            | None -> err ln "struct %s has no member %s" sname f
          in
          ignore fname;
          (sa, LV_mem (base, Int64.add off (Int64.of_int foff), fty))
      | _ -> err ln "member access on non-struct lvalue")
  | Cst.Arrow (a, f) -> (
      let sa, ea, ta = elab_expr fc a in
      match ta with
      | Cst.TPtr (Cst.TStruct sname) ->
          let l = layout_of fc.env sname ln in
          let _, fty, foff =
            match
              List.find_opt (fun (n, _, _) -> String.equal n f) l.sl_fields
            with
            | Some x -> x
            | None -> err ln "struct %s has no member %s" sname f
          in
          (sa, LV_mem (ea, Int64.of_int foff, fty))
      | t -> err ln "-> on non-struct-pointer %s" (Cst.ty_to_string t))
  | _ -> err ln "expression is not an lvalue"

(* a[i]: returns (stmts, base, const_off, element type) *)
and elab_index fc ln a i : Ir.stmt list * Ir.exp * int64 * Cst.ty =
  let sa, ea, ta = elab_expr fc a in
  let elty = elem_ty ln ta in
  let elsize = Int64.of_int (sizeof fc.env ln elty) in
  let si, ei, ti = elab_expr fc i in
  if not (is_integer ti) then err ln "array index is not an integer";
  let stmts = sa @ si in
  (* GEP safety (Algorithm 1): a statically verifiable index into a
     stack slot keeps the slot un-instrumented. *)
  let root = root_slot fc ea in
  match as_const ei with
  | Some iv ->
      let off = Int64.mul iv elsize in
      (match root with
      | Some s ->
          let arr_size =
            (* bounds known only for direct slot bases *)
            match ea with
            | Ir.SlotAddr _ -> Some s.Ir.slot_size
            | _ -> None
          in
          let inb =
            match arr_size with
            | Some sz ->
                off >= 0L
                && Int64.add off elsize <= Int64.of_int sz
            | None -> false
          in
          if not inb then s.Ir.unsafe_gep <- true
      | None -> ());
      (stmts, ea, off, elty)
  | None ->
      (match root with Some s -> s.Ir.unsafe_gep <- true | None -> ());
      let ei = convert fc.env ln ei ti (if fc.env.ptr64 then Cst.TLong else Cst.TInt) in
      let scaled =
        if Int64.equal elsize 1L then ei
        else
          Ir.Bin (Ir.Ibin Wasm.Ast.Mul, ptr_ir fc.env, ei,
                  ptr_const fc elsize)
      in
      (stmts, Ir.Bin (Ir.Ibin Wasm.Ast.Add, ptr_ir fc.env, ea, scaled), 0L,
       elty)

(* Condition: non-zero test producing an i32. *)
and elab_cond fc (e : Cst.expr) : Ir.stmt list * Ir.exp =
  let ln = e.eline in
  let s, v, ty = elab_expr fc e in
  if is_float ty then
    let w = ir_of_cty fc.env ty in
    let zero = if ty = Cst.TFloat then Wasm.Values.F32 0.0 else Wasm.Values.F64 0.0 in
    (s, Ir.Bin (Ir.Frel Wasm.Ast.FNe, w, v, Ir.Const zero))
  else
    let w = ir_of_cty fc.env ty in
    ignore ln;
    (s, Ir.Eqz (w, Ir.Eqz (w, v)))

and elab_binop fc ln op a b : eexp =
  match op with
  | Cst.LAnd ->
      let sa, ca = elab_cond fc a in
      let sb, cb = elab_cond fc b in
      let t = fresh_temp fc in
      ( sa
        @ [ Ir.If
              ( ca,
                sb @ [ Ir.Set (t, Ir.I32, cb) ],
                [ Ir.Set (t, Ir.I32, Ir.Const (Wasm.Values.I32 0l)) ] ) ],
        Ir.Temp (t, Ir.I32), Cst.TInt )
  | Cst.LOr ->
      let sa, ca = elab_cond fc a in
      let sb, cb = elab_cond fc b in
      let t = fresh_temp fc in
      ( sa
        @ [ Ir.If
              ( ca,
                [ Ir.Set (t, Ir.I32, Ir.Const (Wasm.Values.I32 1l)) ],
                sb @ [ Ir.Set (t, Ir.I32, cb) ] ) ],
        Ir.Temp (t, Ir.I32), Cst.TInt )
  | _ -> (
      let sa, ea, ta = elab_expr fc a in
      let sb, eb, tb = elab_expr fc b in
      let stmts = sa @ sb in
      match (op, is_ptr ta, is_ptr tb) with
      | Cst.Add, true, false | Cst.Sub, true, false ->
          let elty = elem_ty ln ta in
          let elsize = Int64.of_int (sizeof fc.env ln elty) in
          let eb =
            convert fc.env ln eb tb
              (if fc.env.ptr64 then Cst.TLong else Cst.TInt)
          in
          let scaled =
            if Int64.equal elsize 1L then eb
            else
              Ir.Bin (Ir.Ibin Wasm.Ast.Mul, ptr_ir fc.env, eb,
                      ptr_const fc elsize)
          in
          let wop = if op = Cst.Add then Wasm.Ast.Add else Wasm.Ast.Sub in
          (stmts, Ir.Bin (Ir.Ibin wop, ptr_ir fc.env, ea, scaled),
           (match ta with Cst.TArray (el, _) -> Cst.TPtr el | t -> t))
      | Cst.Add, false, true ->
          let elty = elem_ty ln tb in
          let elsize = Int64.of_int (sizeof fc.env ln elty) in
          let ea =
            convert fc.env ln ea ta
              (if fc.env.ptr64 then Cst.TLong else Cst.TInt)
          in
          let scaled =
            if Int64.equal elsize 1L then ea
            else
              Ir.Bin (Ir.Ibin Wasm.Ast.Mul, ptr_ir fc.env, ea,
                      ptr_const fc elsize)
          in
          (stmts, Ir.Bin (Ir.Ibin Wasm.Ast.Add, ptr_ir fc.env, eb, scaled),
           (match tb with Cst.TArray (el, _) -> Cst.TPtr el | t -> t))
      | Cst.Sub, true, true ->
          let elty = elem_ty ln ta in
          let elsize = Int64.of_int (sizeof fc.env ln elty) in
          let diff = Ir.Bin (Ir.Ibin Wasm.Ast.Sub, ptr_ir fc.env, ea, eb) in
          let v =
            if Int64.equal elsize 1L then diff
            else
              Ir.Bin (Ir.Ibin Wasm.Ast.DivS, ptr_ir fc.env, diff,
                      ptr_const fc elsize)
          in
          let v = if fc.env.ptr64 then v else Cvt (Wasm.Ast.I64ExtendI32S, v) in
          (stmts, v, Cst.TLong)
      | (Cst.Eq | Cst.Ne | Cst.Lt | Cst.Gt | Cst.Le | Cst.Ge), _, _
        when is_ptr ta || is_ptr tb ->
          let w = ptr_ir fc.env in
          let pty = if fc.env.ptr64 then Cst.TLong else Cst.TInt in
          let ea = if is_ptr ta then ea else convert fc.env ln ea ta pty in
          let eb = if is_ptr tb then eb else convert fc.env ln eb tb pty in
          let rel =
            match op with
            | Cst.Eq -> Wasm.Ast.Eq
            | Cst.Ne -> Wasm.Ast.Ne
            | Cst.Lt -> Wasm.Ast.LtU
            | Cst.Gt -> Wasm.Ast.GtU
            | Cst.Le -> Wasm.Ast.LeU
            | Cst.Ge -> Wasm.Ast.GeU
            | _ -> assert false
          in
          (stmts, Ir.Bin (Ir.Irel rel, w, ea, eb), Cst.TInt)
      | (Cst.Shl | Cst.Shr), _, _ ->
          (* C11 6.5.7: shifts promote each operand independently; the
             result type (and the shift's signedness) comes from the
             LEFT operand only *)
          let ty = common_ty ln ta Cst.TInt in
          let w = ir_of_cty fc.env ty in
          let ea = convert fc.env ln ea ta ty in
          let eb = convert fc.env ln eb tb ty in
          let op =
            match op with
            | Cst.Shl -> Wasm.Ast.Shl
            | _ -> if is_unsigned ty then Wasm.Ast.ShrU else Wasm.Ast.ShrS
          in
          (stmts, Ir.Bin (Ir.Ibin op, w, ea, eb), ty)
      | _ ->
          let ty = common_ty ln ta tb in
          let w = ir_of_cty fc.env ty in
          let ea = convert fc.env ln ea ta ty in
          let eb = convert fc.env ln eb tb ty in
          let unsigned = is_unsigned ty in
          if is_float ty then
            let v, rty =
              match op with
              | Cst.Add -> (Ir.Bin (Ir.Fbin Wasm.Ast.FAdd, w, ea, eb), ty)
              | Cst.Sub -> (Ir.Bin (Ir.Fbin Wasm.Ast.FSub, w, ea, eb), ty)
              | Cst.Mul -> (Ir.Bin (Ir.Fbin Wasm.Ast.FMul, w, ea, eb), ty)
              | Cst.Div -> (Ir.Bin (Ir.Fbin Wasm.Ast.FDiv, w, ea, eb), ty)
              | Cst.Lt -> (Ir.Bin (Ir.Frel Wasm.Ast.FLt, w, ea, eb), Cst.TInt)
              | Cst.Gt -> (Ir.Bin (Ir.Frel Wasm.Ast.FGt, w, ea, eb), Cst.TInt)
              | Cst.Le -> (Ir.Bin (Ir.Frel Wasm.Ast.FLe, w, ea, eb), Cst.TInt)
              | Cst.Ge -> (Ir.Bin (Ir.Frel Wasm.Ast.FGe, w, ea, eb), Cst.TInt)
              | Cst.Eq -> (Ir.Bin (Ir.Frel Wasm.Ast.FEq, w, ea, eb), Cst.TInt)
              | Cst.Ne -> (Ir.Bin (Ir.Frel Wasm.Ast.FNe, w, ea, eb), Cst.TInt)
              | _ -> err ln "invalid float operation"
            in
            (stmts, v, rty)
          else
            let ib o = Ir.Bin (Ir.Ibin o, w, ea, eb) in
            let ir o = Ir.Bin (Ir.Irel o, w, ea, eb) in
            let v, rty =
              match op with
              | Cst.Add -> (ib Wasm.Ast.Add, ty)
              | Cst.Sub -> (ib Wasm.Ast.Sub, ty)
              | Cst.Mul -> (ib Wasm.Ast.Mul, ty)
              | Cst.Div ->
                  ((if unsigned then ib Wasm.Ast.DivU else ib Wasm.Ast.DivS), ty)
              | Cst.Mod ->
                  ((if unsigned then ib Wasm.Ast.RemU else ib Wasm.Ast.RemS), ty)
              | Cst.BAnd -> (ib Wasm.Ast.And, ty)
              | Cst.BOr -> (ib Wasm.Ast.Or, ty)
              | Cst.BXor -> (ib Wasm.Ast.Xor, ty)
              | Cst.Shl -> (ib Wasm.Ast.Shl, ty)
              | Cst.Shr ->
                  ((if unsigned then ib Wasm.Ast.ShrU else ib Wasm.Ast.ShrS), ty)
              | Cst.Lt ->
                  ((if unsigned then ir Wasm.Ast.LtU else ir Wasm.Ast.LtS),
                   Cst.TInt)
              | Cst.Gt ->
                  ((if unsigned then ir Wasm.Ast.GtU else ir Wasm.Ast.GtS),
                   Cst.TInt)
              | Cst.Le ->
                  ((if unsigned then ir Wasm.Ast.LeU else ir Wasm.Ast.LeS),
                   Cst.TInt)
              | Cst.Ge ->
                  ((if unsigned then ir Wasm.Ast.GeU else ir Wasm.Ast.GeS),
                   Cst.TInt)
              | Cst.Eq -> (ir Wasm.Ast.Eq, Cst.TInt)
              | Cst.Ne -> (ir Wasm.Ast.Ne, Cst.TInt)
              | Cst.LAnd | Cst.LOr -> assert false
            in
            (stmts, v, rty))

and elab_cast fc ln e src dst : Ir.exp =
  match (src, dst) with
  | src, dst when is_arith src && is_arith dst -> convert fc.env ln e src dst
  | (Cst.TPtr _ | Cst.TArray _), (Cst.TPtr _) -> e
  | (Cst.TPtr _ | Cst.TArray _), t when is_integer t ->
      convert fc.env ln e (if fc.env.ptr64 then Cst.TLong else Cst.TInt) t
  | t, Cst.TPtr _ when is_integer t ->
      convert fc.env ln e t (if fc.env.ptr64 then Cst.TLong else Cst.TInt)
  | _, Cst.TVoid -> e
  | _ ->
      err ln "invalid cast from %s to %s" (Cst.ty_to_string src)
        (Cst.ty_to_string dst)

(* Static type of an expression (for sizeof). *)
and type_of_expr fc (e : Cst.expr) : Cst.ty =
  (* Elaborate into a throwaway context (no side effects on slots). *)
  let snapshot = List.map (fun s -> (s, s.Ir.unsafe_gep, s.Ir.escapes)) fc.slots in
  let _, _, ty = elab_expr fc e in
  List.iter
    (fun (s, g, esc) ->
      s.Ir.unsafe_gep <- g;
      s.Ir.escapes <- esc)
    snapshot;
  ty

and elab_assign fc ln lhs rhs : Ir.stmt list * Ir.exp * Cst.ty =
  let srhs, erhs, trhs = elab_expr fc rhs in
  let slhs, lv = elab_lval fc lhs in
  match lv with
  | LV_temp (t, ty) ->
      let v = convert fc.env ln erhs trhs ty in
      let irty = ir_of_cty fc.env ty in
      let tmp = fresh_temp fc in
      ( srhs @ slhs
        @ [ Ir.Set (tmp, irty, v); Ir.Set (t, irty, Ir.Temp (tmp, irty)) ],
        Ir.Temp (tmp, irty), ty )
  | LV_mem (base, off, ty) ->
      let v = convert fc.env ln erhs trhs ty in
      let irty = ir_of_cty fc.env ty in
      let tmp = fresh_temp fc in
      ( srhs @ slhs
        @ [ Ir.Set (tmp, irty, v);
            Ir.Store
              { mem = mem_of_cty fc.env ln ty; addr = base; off;
                value = Ir.Temp (tmp, irty) } ],
        Ir.Temp (tmp, irty), ty )

and elab_incr fc ln a delta order : eexp =
  let slhs, lv = elab_lval fc a in
  let stmts0, old_v, ty = load_lv fc ln slhs lv in
  let step =
    match ty with
    | Cst.TPtr el -> Int64.mul delta (Int64.of_int (sizeof fc.env ln el))
    | t when is_integer t -> delta
    | t when is_float t -> delta
    | t -> err ln "cannot increment %s" (Cst.ty_to_string t)
  in
  let irty = ir_of_cty fc.env ty in
  let t_old = fresh_temp fc in
  let incremented =
    if is_float ty then
      Ir.Bin (Ir.Fbin Wasm.Ast.FAdd, irty, Ir.Temp (t_old, irty),
              Ir.Const (if ty = Cst.TFloat then
                          Wasm.Values.F32 (Int64.to_float step)
                        else Wasm.Values.F64 (Int64.to_float step)))
    else
      Ir.Bin (Ir.Ibin Wasm.Ast.Add, irty, Ir.Temp (t_old, irty),
              const_i fc irty step)
  in
  let t_new = fresh_temp fc in
  let write =
    match lv with
    | LV_temp (t, _) -> [ Ir.Set (t, irty, Ir.Temp (t_new, irty)) ]
    | LV_mem (base, off, _) ->
        [ Ir.Store
            { mem = mem_of_cty fc.env ln ty; addr = base; off;
              value = Ir.Temp (t_new, irty) } ]
  in
  let stmts =
    stmts0
    @ [ Ir.Set (t_old, irty, old_v); Ir.Set (t_new, irty, incremented) ]
    @ write
  in
  match order with
  | `Pre -> (stmts, Ir.Temp (t_new, irty), ty)
  | `Post -> (stmts, Ir.Temp (t_old, irty), ty)

and elab_call fc ln f args : eexp =
  let elab_args params args =
    List.fold_left2
      (fun (stmts, acc) pty arg ->
        let s, e, t = elab_expr fc arg in
        let t = match t with Cst.TArray (el, _) -> Cst.TPtr el | t -> t in
        let e =
          match (pty, t) with
          | Cst.TPtr _, Cst.TPtr _ -> e
          | Cst.TPtr (Cst.TFunc _), _ -> e
          | _ -> convert fc.env ln e t pty
        in
        (stmts @ s, acc @ [ e ]))
      ([], []) params args
  in
  match f.e with
  | Cst.Var name when lookup_var fc name = None
                      && Hashtbl.mem fc.env.funcs name -> (
      let ret, params = Hashtbl.find fc.env.funcs name in
      if List.length params <> List.length args then
        err ln "%s expects %d arguments, got %d" name (List.length params)
          (List.length args);
      let stmts, eargs = elab_args params args in
      (* builtins *)
      match (name, eargs) with
      | "__builtin_segment_new", [ p; l ] ->
          let t = fresh_temp fc in
          (stmts @ [ Ir.SegmentNew { dst = t; ptr = p; len = l } ],
           Ir.Temp (t, Ir.I64), Cst.TLong)
      | "__builtin_segment_set_tag", [ p; tg; l ] ->
          (stmts @ [ Ir.SegmentSetTag { ptr = p; tagged = tg; len = l } ],
           Ir.Const (Wasm.Values.I32 0l), Cst.TVoid)
      | "__builtin_segment_free", [ tg; l ] ->
          (stmts @ [ Ir.SegmentFree { tagged = tg; len = l } ],
           Ir.Const (Wasm.Values.I32 0l), Cst.TVoid)
      | "__builtin_pointer_sign", [ p ] ->
          let t = fresh_temp fc in
          (stmts @ [ Ir.PointerSign { dst = t; ptr = p } ],
           Ir.Temp (t, Ir.I64), Cst.TLong)
      | "__builtin_pointer_auth", [ p ] ->
          let t = fresh_temp fc in
          (stmts @ [ Ir.PointerAuth { dst = t; ptr = p } ],
           Ir.Temp (t, Ir.I64), Cst.TLong)
      | "__builtin_memset", [ d; v; l ] ->
          (* bulk-memory ops take pointer-width operands *)
          let pty = if fc.env.ptr64 then Cst.TLong else Cst.TInt in
          let d = convert fc.env ln d Cst.TLong pty in
          let l = convert fc.env ln l Cst.TLong pty in
          (stmts @ [ Ir.MemFill { dst = d; byte = v; len = l } ],
           Ir.Const (Wasm.Values.I32 0l), Cst.TVoid)
      | "__builtin_memcpy", [ d; s; l ] ->
          let pty = if fc.env.ptr64 then Cst.TLong else Cst.TInt in
          let d = convert fc.env ln d Cst.TLong pty in
          let s = convert fc.env ln s Cst.TLong pty in
          let l = convert fc.env ln l Cst.TLong pty in
          (stmts @ [ Ir.MemCopy { dst = d; src = s; len = l } ],
           Ir.Const (Wasm.Values.I32 0l), Cst.TVoid)
      | "__builtin_trap", [] ->
          (stmts @ [ Ir.Trap ], Ir.Const (Wasm.Values.I32 0l), Cst.TVoid)
      | _ ->
          let dst =
            if ret = Cst.TVoid then None
            else Some (fresh_temp fc, ir_of_cty fc.env ret)
          in
          let call = Ir.Call { dst; callee = Ir.Direct name; args = eargs } in
          let v =
            match dst with
            | None -> Ir.Const (Wasm.Values.I32 0l)
            | Some (t, ty) -> Ir.Temp (t, ty)
          in
          (stmts @ [ call ], v, ret))
  | _ -> (
      (* call through a function pointer *)
      let sf, ef, tf = elab_expr fc f in
      match tf with
      | Cst.TPtr (Cst.TFunc (ret, params)) | Cst.TFunc (ret, params) ->
          if List.length params <> List.length args then
            err ln "function pointer expects %d arguments, got %d"
              (List.length params) (List.length args);
          let stmts, eargs = elab_args params args in
          let dst =
            if ret = Cst.TVoid then None
            else Some (fresh_temp fc, ir_of_cty fc.env ret)
          in
          let callee =
            Ir.Indirect
              {
                sig_params = List.map (ir_of_cty fc.env) params;
                sig_ret =
                  (if ret = Cst.TVoid then None
                   else Some (ir_of_cty fc.env ret));
                fptr = ef;
              }
          in
          let v =
            match dst with
            | None -> Ir.Const (Wasm.Values.I32 0l)
            | Some (t, ty) -> Ir.Temp (t, ty)
          in
          (sf @ stmts @ [ Ir.Call { dst; callee; args = eargs } ], v, ret)
      | t -> err ln "cannot call value of type %s" (Cst.ty_to_string t))

(* --------------------------------------------------------------- *)
(* Statement elaboration                                            *)
(* --------------------------------------------------------------- *)

let rec elab_stmt fc (st : Cst.stmt) : Ir.stmt list =
  let ln = st.sline in
  match st.s with
  | Cst.SExpr e ->
      let stmts, _, _ = elab_expr fc e in
      stmts
  | Cst.SDecl (ty, name, init) -> elab_decl fc ln ty name init
  | Cst.SIf (c, a, b) ->
      let sc, ec = elab_cond fc c in
      push_scope fc;
      let sa = List.concat_map (elab_stmt fc) a in
      pop_scope fc;
      push_scope fc;
      let sb = List.concat_map (elab_stmt fc) b in
      pop_scope fc;
      sc @ [ Ir.If (ec, sa, sb) ]
  | Cst.SWhile (c, body) ->
      let sc, ec = elab_cond fc c in
      push_scope fc;
      let sbody = List.concat_map (elab_stmt fc) body in
      pop_scope fc;
      (* condition side effects must re-run each iteration *)
      if sc = [] then
        [ Ir.ForLoop { cond = Some ec; step = []; body = sbody;
                       post_test = false } ]
      else
        [ Ir.ForLoop
            { cond = None; step = [];
              body = sc @ [ Ir.If (ec, [], [ Ir.Break ]) ] @ sbody;
              post_test = false } ]
  | Cst.SDoWhile (body, c) ->
      push_scope fc;
      let sbody = List.concat_map (elab_stmt fc) body in
      pop_scope fc;
      let sc, ec = elab_cond fc c in
      [ Ir.ForLoop
          { cond = Some ec; step = sc; body = sbody; post_test = true } ]
  | Cst.SFor (init, cond, step, body) ->
      push_scope fc;
      let sinit = match init with None -> [] | Some s -> elab_stmt fc s in
      let scond, econd =
        match cond with
        | None -> ([], None)
        | Some c ->
            let s, e = elab_cond fc c in
            (s, Some e)
      in
      let sstep =
        match step with
        | None -> []
        | Some e ->
            let s, _, _ = elab_expr fc e in
            s
      in
      push_scope fc;
      let sbody = List.concat_map (elab_stmt fc) body in
      pop_scope fc;
      pop_scope fc;
      if scond = [] then
        sinit
        @ [ Ir.ForLoop { cond = econd; step = sstep; body = sbody;
                         post_test = false } ]
      else
        (* condition with side effects: evaluate inside the loop *)
        let cond_check =
          scond
          @
          match econd with
          | Some e -> [ Ir.If (e, [], [ Ir.Break ]) ]
          | None -> []
        in
        sinit
        @ [ Ir.ForLoop { cond = None; step = sstep;
                         body = cond_check @ sbody; post_test = false } ]
  | Cst.SSwitch (scrut, cases, default) ->
      let ss, es, ts = elab_expr fc scrut in
      if not (is_integer ts) then err ln "switch scrutinee must be integer";
      let es = convert fc.env ln es ts Cst.TLong in
      (* duplicate case values are a bug in the source *)
      let values = List.map fst cases in
      if List.length (List.sort_uniq Int64.compare values)
         <> List.length values
      then err ln "duplicate case value in switch";
      (* materialise the scrutinee once *)
      let t = fresh_temp fc in
      let elab_body b =
        push_scope fc;
        let r = List.concat_map (elab_stmt fc) b in
        pop_scope fc;
        r
      in
      ss
      @ [ Ir.Set (t, Ir.I64, es);
          Ir.Switch
            { scrut = Ir.Temp (t, Ir.I64);
              cases = List.map (fun (v, b) -> (v, elab_body b)) cases;
              default = elab_body default } ]
  | Cst.SReturn None ->
      if fc.ret_ty <> Cst.TVoid then err ln "missing return value";
      [ Ir.Return None ]
  | Cst.SReturn (Some e) ->
      let s, v, t = elab_expr fc e in
      if fc.ret_ty = Cst.TVoid then err ln "returning a value from void";
      s @ [ Ir.Return (Some (convert fc.env ln v t fc.ret_ty)) ]
  | Cst.SBreak -> [ Ir.Break ]
  | Cst.SContinue -> [ Ir.Continue ]
  | Cst.SBlock body ->
      push_scope fc;
      let s = List.concat_map (elab_stmt fc) body in
      pop_scope fc;
      s

and elab_decl fc ln ty name init : Ir.stmt list =
  match ty with
  | Cst.TVoid -> err ln "cannot declare a void variable"
  | _ ->
      if registerable ty && not (Hashtbl.mem fc.taken name) then begin
        let t = fresh_temp fc in
        bind fc name (Loc_temp t) ty;
        match init with
        | None ->
            [ Ir.Set (t, ir_of_cty fc.env ty,
                      Ir.Const (Wasm.Values.default
                                  (Ir.ty_to_wasm (ir_of_cty fc.env ty)))) ]
        | Some (Cst.IExpr e) ->
            let s, v, tv = elab_expr fc e in
            let tv = match tv with Cst.TArray (el, _) -> Cst.TPtr el | x -> x in
            let v =
              match (ty, tv) with
              | Cst.TPtr _, Cst.TPtr _ -> v
              | _ -> convert fc.env ln v tv ty
            in
            s @ [ Ir.Set (t, ir_of_cty fc.env ty, v) ]
        | Some (Cst.IList _) -> err ln "brace initialiser on scalar"
      end
      else begin
        let size = sizeof fc.env ln ty in
        let slot = fresh_slot fc name size (alignof fc.env ln ty) in
        bind fc name (Loc_slot slot) ty;
        let base = Ir.SlotAddr slot.Ir.slot_id in
        match init with
        | None -> []
        | Some (Cst.IExpr e) ->
            let s, v, tv = elab_expr fc e in
            s
            @ [ Ir.Store
                  { mem = mem_of_cty fc.env ln ty; addr = base; off = 0L;
                    value = convert fc.env ln v tv ty } ]
        | Some (Cst.IList items) -> elab_init_list fc ln base 0L ty items
      end

(* Brace initialisers for arrays and structs. *)
and elab_init_list fc ln base off ty items : Ir.stmt list =
  match ty with
  | Cst.TArray (el, n) ->
      let elsize = Int64.of_int (sizeof fc.env ln el) in
      List.concat
        (List.mapi
           (fun i (field, init) ->
             if field <> None then err ln "designator in array initialiser";
             if i >= n then err ln "too many array initialisers";
             let off = Int64.add off (Int64.mul (Int64.of_int i) elsize) in
             match init with
             | Cst.IExpr e ->
                 let s, v, tv = elab_expr fc e in
                 s
                 @ [ Ir.Store
                       { mem = mem_of_cty fc.env ln el; addr = base; off;
                         value = convert fc.env ln v tv el } ]
             | Cst.IList sub -> elab_init_list fc ln base off el sub)
           items)
  | Cst.TStruct sname ->
      let l = layout_of fc.env sname ln in
      List.concat
        (List.mapi
           (fun i (field, init) ->
             let fname, fty, foff =
               match field with
               | Some f -> (
                   match
                     List.find_opt
                       (fun (n, _, _) -> String.equal n f)
                       l.sl_fields
                   with
                   | Some x -> x
                   | None -> err ln "struct %s has no member %s" sname f)
               | None -> (
                   match List.nth_opt l.sl_fields i with
                   | Some x -> x
                   | None -> err ln "too many struct initialisers")
             in
             ignore fname;
             let off = Int64.add off (Int64.of_int foff) in
             match init with
             | Cst.IExpr e ->
                 let s, v, tv = elab_expr fc e in
                 let v =
                   match (fty, tv) with
                   | Cst.TPtr _, (Cst.TPtr _ | Cst.TArray _) -> v
                   | _ -> convert fc.env ln v tv fty
                 in
                 s
                 @ [ Ir.Store
                       { mem = mem_of_cty fc.env ln fty; addr = base; off;
                         value = v } ]
             | Cst.IList sub -> elab_init_list fc ln base off fty sub)
           items)
  | _ -> err ln "brace initialiser on scalar type"

(* --------------------------------------------------------------- *)
(* Functions and programs                                           *)
(* --------------------------------------------------------------- *)

let elab_func env (fd : Cst.func_def) : Ir.func =
  let taken = addr_taken_names fd.fd_body in
  let fc =
    { env; taken; ret_ty = fd.fd_ret; scopes = []; ntemps = 0; slots = [];
      nslots = 0 }
  in
  push_scope fc;
  (* parameters are temps; address-taken parameters are copied into a
     slot at entry *)
  let params =
    List.map
      (fun (p : Cst.param) ->
        let t = fresh_temp fc in
        (t, p.p_name, p.p_ty))
      fd.fd_params
  in
  let param_copies =
    List.concat_map
      (fun (t, name, ty) ->
        if Hashtbl.mem taken name && registerable ty then begin
          (* parameters carry no source line *)
          let slot = fresh_slot fc name (sizeof env 0 ty) (alignof env 0 ty) in
          bind fc name (Loc_slot slot) ty;
          [ Ir.Store
              { mem = mem_of_cty env 0 ty; addr = Ir.SlotAddr slot.Ir.slot_id;
                off = 0L; value = Ir.Temp (t, ir_of_cty env ty) } ]
        end
        else begin
          bind fc name (Loc_temp t) ty;
          []
        end)
      params
  in
  let body = List.concat_map (elab_stmt fc) fd.fd_body in
  pop_scope fc;
  (* implicit return for main-style functions falling off the end *)
  let body =
    let rec ends_in_return = function
      | [] -> false
      | [ Ir.Return _ ] | [ Ir.Trap ] -> true
      | [ _ ] -> false
      | _ :: tl -> ends_in_return tl
    in
    if fd.fd_ret = Cst.TVoid || ends_in_return body then body
    else
      body
      @ [ Ir.Return
            (Some
               (Ir.Const
                  (Wasm.Values.default
                     (Ir.ty_to_wasm (ir_of_cty env fd.fd_ret))))) ]
  in
  {
    Ir.fn_name = fd.fd_name;
    fn_params = List.map (fun (t, _, ty) -> (t, ir_of_cty env ty)) params;
    fn_ret = (if fd.fd_ret = Cst.TVoid then None
              else Some (ir_of_cty env fd.fd_ret));
    fn_ntemps = fc.ntemps;
    fn_slots = fc.slots;
    fn_body = param_copies @ body;
    fn_needs_guard = false;
    fn_export = true;
  }

let builtin_names =
  [ "__builtin_segment_new"; "__builtin_segment_set_tag";
    "__builtin_segment_free"; "__builtin_pointer_sign";
    "__builtin_pointer_auth"; "__builtin_memset"; "__builtin_memcpy";
    "__builtin_trap" ]

let builtin_sigs : (string * (Cst.ty * Cst.ty list)) list =
  [
    ("__builtin_segment_new", (Cst.TLong, [ Cst.TLong; Cst.TLong ]));
    ("__builtin_segment_set_tag",
     (Cst.TVoid, [ Cst.TLong; Cst.TLong; Cst.TLong ]));
    ("__builtin_segment_free", (Cst.TVoid, [ Cst.TLong; Cst.TLong ]));
    ("__builtin_pointer_sign", (Cst.TLong, [ Cst.TLong ]));
    ("__builtin_pointer_auth", (Cst.TLong, [ Cst.TLong ]));
    ("__builtin_memset", (Cst.TVoid, [ Cst.TLong; Cst.TInt; Cst.TLong ]));
    ("__builtin_memcpy", (Cst.TVoid, [ Cst.TLong; Cst.TLong; Cst.TLong ]));
    ("__builtin_trap", (Cst.TVoid, []));
  ]

(* Encode a constant initialiser into little-endian bytes. *)
let rec encode_init env line buf off (ty : Cst.ty) (init : Cst.init) =
  match (ty, init) with
  | _, Cst.IExpr e -> (
      let set_i64 n v =
        for i = 0 to n - 1 do
          Bytes.set buf (off + i)
            (Char.chr
               (Int64.to_int
                  (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
        done
      in
      match (ty, e.e) with
      | t, Cst.IntLit v when is_integer t -> set_i64 (sizeof env line t) v
      | t, Cst.Un (Cst.Neg, { e = Cst.IntLit v; _ }) when is_integer t ->
          set_i64 (sizeof env line t) (Int64.neg v)
      | Cst.TFloat, Cst.FloatLit v ->
          set_i64 4 (Int64.of_int32 (Int32.bits_of_float v))
      | Cst.TFloat, Cst.IntLit v -> 
          set_i64 4 (Int64.of_int32 (Int32.bits_of_float (Int64.to_float v)))
      | Cst.TDouble, Cst.FloatLit v -> set_i64 8 (Int64.bits_of_float v)
      | Cst.TDouble, Cst.IntLit v ->
          set_i64 8 (Int64.bits_of_float (Int64.to_float v))
      | _ -> err line "global initialiser must be a literal")
  | Cst.TArray (el, n), Cst.IList items ->
      if List.length items > n then err line "too many array initialisers";
      List.iteri
        (fun i (field, init) ->
          if field <> None then err line "designator in array initialiser";
          encode_init env line buf (off + (i * sizeof env line el)) el init)
        items
  | _, Cst.IList _ -> err line "unsupported global aggregate initialiser"

(** An environment with nothing declared but the builtins. [ptr64]
    selects wasm64 (memory64). *)
let create ~ptr64 =
  let env =
    {
      ptr64;
      structs = Hashtbl.create 16;
      funcs = Hashtbl.create 32;
      defined = Hashtbl.create 32;
      globals = Hashtbl.create 16;
      data = [];
      data_end = 1024L;
      in_strings = false;
      strings = [];
      table = [];
    }
  in
  List.iter (fun (n, s) -> Hashtbl.replace env.funcs n s) builtin_sigs;
  env

(** A copy of [env] that can be extended without touching [env]. *)
let copy env =
  { env with
    structs = Hashtbl.copy env.structs;
    funcs = Hashtbl.copy env.funcs;
    defined = Hashtbl.copy env.defined;
    globals = Hashtbl.copy env.globals }

(** Pass 1: enter [prog]'s structs, function signatures and globals
    into [env], laying the globals out after the data already there. A
    second definition of a struct, function or global is an error; a
    definition may satisfy an [extern] of the same type. *)
let declare env (prog : Cst.program) =
  let fresh line name =
    if Hashtbl.mem env.defined name || Hashtbl.mem env.globals name then
      err line "redefinition of %s" name
  in
  List.iter
    (fun (d : Cst.decl) ->
      match d with
      | Cst.DStruct sd ->
          if Hashtbl.mem env.structs sd.sd_name then
            err sd.sd_line "redefinition of struct %s" sd.sd_name;
          Hashtbl.replace env.structs sd.sd_name (compute_layout env sd)
      | Cst.DFunc fd ->
          fresh fd.fd_line fd.fd_name;
          let sg =
            (fd.fd_ret, List.map (fun (p : Cst.param) -> p.p_ty) fd.fd_params)
          in
          (match Hashtbl.find_opt env.funcs fd.fd_name with
          | Some sg' when sg' <> sg ->
              err fd.fd_line "conflicting types for %s" fd.fd_name
          | _ -> ());
          Hashtbl.replace env.funcs fd.fd_name sg;
          Hashtbl.replace env.defined fd.fd_name ()
      | Cst.DExtern (ret, name, params) ->
          if not (Hashtbl.mem env.funcs name) then
            Hashtbl.replace env.funcs name (ret, params)
      | Cst.DGlobal gd ->
          fresh gd.gd_line gd.gd_name;
          let size = sizeof env gd.gd_line gd.gd_ty in
          let align = max (alignof env gd.gd_line gd.gd_ty) 8 in
          let addr = align_up_64 env.data_end (Int64.of_int align) in
          Hashtbl.replace env.globals gd.gd_name (addr, gd.gd_ty);
          env.data_end <- Int64.add addr (Int64.of_int size);
          env.in_strings <- false;
          (match gd.gd_init with
          | None -> ()
          | Some init ->
              let buf = Bytes.make size '\000' in
              encode_init env gd.gd_line buf 0 gd.gd_ty init;
              env.data <- (addr, Bytes.to_string buf) :: env.data))
    prog

(** Pass 2: elaborate [prog]'s function bodies against [env] (which
    {!declare} has seen [prog] into), interning their string literals
    and address-taken functions there. *)
let define env (prog : Cst.program) : Ir.func list =
  List.filter_map
    (fun (d : Cst.decl) ->
      match d with Cst.DFunc fd -> Some (elab_func env fd) | _ -> None)
    prog

(** The program made of [funcs] over everything [env] holds: functions
    declared but defined nowhere (builtins aside) become host imports. *)
let link env (funcs : Ir.func list) : Ir.program =
  let externs =
    Hashtbl.fold
      (fun name (ret, params) acc ->
        if Hashtbl.mem env.defined name || List.mem name builtin_names then acc
        else
          {
            Ir.ef_name = name;
            ef_params = List.map (ir_of_cty env) params;
            ef_ret =
              (if ret = Cst.TVoid then None else Some (ir_of_cty env ret));
          }
          :: acc)
      env.funcs []
    |> List.sort (fun a b -> String.compare a.Ir.ef_name b.Ir.ef_name)
  in
  {
    Ir.pr_funcs = funcs;
    pr_externs = externs;
    pr_globals =
      Hashtbl.fold
        (fun name (addr, ty) acc ->
          (* pass 1 sized every global already *)
          { Ir.gv_name = name; gv_addr = addr; gv_size = sizeof env 0 ty }
          :: acc)
        env.globals []
      |> List.sort (fun a b -> Int64.compare a.Ir.gv_addr b.Ir.gv_addr);
    pr_data = List.rev env.data;
    pr_table = env.table;
    pr_data_end =
      (if env.in_strings then env.data_end
       else align_up_64 env.data_end 16L);
    pr_ptr64 = env.ptr64;
  }
