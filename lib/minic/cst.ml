(** MiniC abstract syntax, as produced by the parser.

    Types are resolved later by {!Typecheck}; here struct references are
    by name and array sizes are constant expressions already folded by
    the parser. *)

type ty =
  | TVoid
  | TChar          (** 1 byte, unsigned in MiniC *)
  | TInt           (** 32-bit signed *)
  | TUInt          (** 32-bit unsigned *)
  | TLong          (** 64-bit signed *)
  | TULong         (** 64-bit unsigned *)
  | TFloat
  | TDouble
  | TPtr of ty
  | TArray of ty * int
  | TStruct of string
  | TFunc of ty * ty list  (** function type (for function pointers) *)

let rec ty_to_string = function
  | TVoid -> "void"
  | TChar -> "char"
  | TInt -> "int"
  | TUInt -> "unsigned int"
  | TLong -> "long"
  | TULong -> "unsigned long"
  | TFloat -> "float"
  | TDouble -> "double"
  | TPtr t -> ty_to_string t ^ "*"
  | TArray (t, n) -> Printf.sprintf "%s[%d]" (ty_to_string t) n
  | TStruct s -> "struct " ^ s
  | TFunc (r, args) ->
      Printf.sprintf "%s(*)(%s)" (ty_to_string r)
        (String.concat ", " (List.map ty_to_string args))

type binop =
  | Add | Sub | Mul | Div | Mod
  | BAnd | BOr | BXor | Shl | Shr
  | Lt | Gt | Le | Ge | Eq | Ne
  | LAnd | LOr

type unop = Neg | BNot | LNot

type expr = { e : expr_desc; eline : int }

and expr_desc =
  | IntLit of int64
  | FloatLit of float
  | StrLit of string
  | Var of string
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Assign of expr * expr          (** lvalue = rvalue *)
  | Cond of expr * expr * expr     (** ?: *)
  | Call of expr * expr list       (** callee may be name or fn pointer *)
  | Index of expr * expr           (** a[i] *)
  | Member of expr * string        (** s.f *)
  | Arrow of expr * string         (** p->f *)
  | Deref of expr                  (** *p *)
  | AddrOf of expr                 (** &lv *)
  | Cast of ty * expr
  | SizeofT of ty
  | SizeofE of expr
  | PreIncr of expr | PreDecr of expr
  | PostIncr of expr | PostDecr of expr

type init =
  | IExpr of expr
  | IList of (string option * init) list
      (** brace initialiser; [Some f] for designated [.f = ...] *)

type stmt = { s : stmt_desc; sline : int }

and stmt_desc =
  | SExpr of expr
  | SDecl of ty * string * init option
  | SIf of expr * stmt list * stmt list
  | SWhile of expr * stmt list
  | SDoWhile of stmt list * expr
  | SFor of stmt option * expr option * expr option * stmt list
  | SSwitch of expr * (int64 * stmt list) list * stmt list
      (** scrutinee, cases (constant value, body), default body. MiniC
          switch has implicit break between cases (no fallthrough). *)
  | SReturn of expr option
  | SBreak
  | SContinue
  | SBlock of stmt list

type param = { p_ty : ty; p_name : string }

type func_def = {
  fd_ret : ty;
  fd_name : string;
  fd_params : param list;
  fd_body : stmt list;
  fd_line : int;
}

type struct_def = {
  sd_name : string;
  sd_fields : (ty * string) list;
  sd_line : int;
}

type global_def = {
  gd_ty : ty;
  gd_name : string;
  gd_init : init option;
  gd_line : int;
}

type decl =
  | DFunc of func_def
  | DStruct of struct_def
  | DGlobal of global_def
  | DExtern of ty * string * ty list  (** extern function declaration *)

type program = decl list
