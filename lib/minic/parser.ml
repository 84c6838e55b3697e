(** Recursive-descent parser for MiniC.

    Implements the usual C precedence levels. MiniC has no typedefs, so
    a statement starting with a type keyword (or [struct N] followed by
    an identifier or [*]) is a declaration; anything else is an
    expression statement.

    Tokens come from the lexer through a window of three, the most the
    grammar looks ahead (a cast or [sizeof (struct N ...)], and a
    top-level [struct N {]); no token list or array is built. *)

exception Parse_error of string * int

type t = {
  lx : Lexer.t;
  mutable t0 : Token.t;  (** current token *)
  mutable t1 : Token.t;
  mutable t2 : Token.t;
  mutable l0 : int;  (** line of [t0] *)
  mutable l1 : int;
  mutable l2 : int;
}

let error p fmt =
  Format.kasprintf (fun s -> raise (Parse_error (s, p.l0))) fmt

let peek p = p.t0
let peek2 p = p.t1
let line p = p.l0

(* Past the end the lexer keeps returning [Eof], so the window does
   too. *)
let advance p =
  p.t0 <- p.t1;
  p.l0 <- p.l1;
  p.t1 <- p.t2;
  p.l1 <- p.l2;
  p.t2 <- Lexer.next p.lx;
  p.l2 <- p.lx.tok_line

(* [tok] is a constant constructor, so physical equality decides. *)
let at p tok = p.t0 == tok

let eat p tok =
  if at p tok then advance p
  else error p "expected %s, found %s" (Token.to_string tok)
         (Token.to_string (peek p))

let eat_ident p =
  match peek p with
  | Token.Ident s ->
      advance p;
      s
  | t -> error p "expected identifier, found %s" (Token.to_string t)

(* --------------------------------------------------------------- *)
(* Types                                                            *)
(* --------------------------------------------------------------- *)

(* Whether a type starts at [tok], followed by [next]. *)
let type_starts tok next =
  match tok with
  | Token.KW_int | KW_long | KW_char | KW_float | KW_double | KW_void
  | KW_unsigned | KW_const | KW_static ->
      true
  | KW_struct -> ( match next with Token.Ident _ -> true | _ -> false)
  | _ -> false

let starts_type p = type_starts p.t0 p.t1

(* Base type: [unsigned] (int|long|char) | float | double | void |
   struct N.  Ignores const/static qualifiers. *)
let rec parse_base_ty p : Cst.ty =
  match peek p with
  | Token.KW_const | Token.KW_static ->
      advance p;
      parse_base_ty p
  | Token.KW_unsigned ->
      advance p;
      (match peek p with
      | Token.KW_int -> advance p; Cst.TUInt
      | Token.KW_long -> advance p; Cst.TULong
      | Token.KW_char -> advance p; Cst.TChar
      | _ -> Cst.TUInt)
  | Token.KW_int -> advance p; Cst.TInt
  | Token.KW_long ->
      advance p;
      (* accept "long long" and "long int" *)
      (match peek p with
      | Token.KW_long | Token.KW_int -> advance p
      | _ -> ());
      Cst.TLong
  | Token.KW_char -> advance p; Cst.TChar
  | Token.KW_float -> advance p; Cst.TFloat
  | Token.KW_double -> advance p; Cst.TDouble
  | Token.KW_void -> advance p; Cst.TVoid
  | Token.KW_struct ->
      advance p;
      Cst.TStruct (eat_ident p)
  | t -> error p "expected a type, found %s" (Token.to_string t)

(* Pointer stars after a base type. *)
let parse_ptr_suffix p ty =
  let ty = ref ty in
  while at p Token.Star do
    advance p;
    (* skip const in e.g. `char *const` *)
    (match peek p with Token.KW_const -> advance p | _ -> ());
    ty := Cst.TPtr !ty
  done;
  !ty

(* The parameter types of a prototype or function-pointer type; names
   are skipped. *)
let parse_param_types p =
  if at p Token.RParen then []
  else if at p Token.KW_void && peek2 p == Token.RParen then begin
    advance p;
    []
  end
  else
    let rec go acc =
      let base = parse_base_ty p in
      let ty = parse_ptr_suffix p base in
      (* optional name, ignored *)
      (match peek p with Token.Ident _ -> advance p | _ -> ());
      if at p Token.Comma then begin
        advance p;
        go (ty :: acc)
      end
      else List.rev (ty :: acc)
    in
    go []

(* An abstract declarator after a base type, as used in casts:
   stars, optionally followed by the function-pointer form
   "( star ) ( params )". *)
let parse_abstract_ty p base =
  let ty = parse_ptr_suffix p base in
  if at p Token.LParen && peek2 p == Token.Star then begin
    eat p Token.LParen;
    eat p Token.Star;
    eat p Token.RParen;
    eat p Token.LParen;
    let params = parse_param_types p in
    eat p Token.RParen;
    Cst.TPtr (Cst.TFunc (ty, params))
  end
  else ty

(* --------------------------------------------------------------- *)
(* Expressions (precedence climbing)                                *)
(* --------------------------------------------------------------- *)

let mk e eline : Cst.expr = { e; eline }

(* A binary operator's precedence (higher binds tighter; 0 for a token
   that is not one) and its operator. *)
let binop : Token.t -> int * Cst.binop = function
  | Token.PipePipe -> (1, Cst.LOr)
  | AmpAmp -> (2, LAnd)
  | Pipe -> (3, BOr)
  | Caret -> (4, BXor)
  | Amp -> (5, BAnd)
  | EqEq -> (6, Eq)
  | NotEq -> (6, Ne)
  | Lt -> (7, Lt)
  | Gt -> (7, Gt)
  | Le -> (7, Le)
  | Ge -> (7, Ge)
  | Shl -> (8, Shl)
  | Shr -> (8, Shr)
  | Plus -> (9, Add)
  | Minus -> (9, Sub)
  | Star -> (10, Mul)
  | Slash -> (10, Div)
  | Percent -> (10, Mod)
  | _ -> (0, Add)

let rec parse_expr p = parse_assign p

and parse_assign p : Cst.expr =
  let lhs = parse_cond p in
  let ln = line p in
  match peek p with
  | Token.Assign ->
      advance p;
      let rhs = parse_assign p in
      mk (Cst.Assign (lhs, rhs)) ln
  | Token.PlusEq -> compound p lhs ln Cst.Add
  | Token.MinusEq -> compound p lhs ln Cst.Sub
  | Token.StarEq -> compound p lhs ln Cst.Mul
  | Token.SlashEq -> compound p lhs ln Cst.Div
  | Token.PercentEq -> compound p lhs ln Cst.Mod
  | Token.AmpEq -> compound p lhs ln Cst.BAnd
  | Token.PipeEq -> compound p lhs ln Cst.BOr
  | Token.CaretEq -> compound p lhs ln Cst.BXor
  | Token.ShlEq -> compound p lhs ln Cst.Shl
  | Token.ShrEq -> compound p lhs ln Cst.Shr
  | _ -> lhs

and compound p lhs ln op =
  advance p;
  let rhs = parse_assign p in
  mk (Cst.Assign (lhs, mk (Cst.Bin (op, lhs, rhs)) ln)) ln

and parse_cond p =
  let c = parse_binary p 1 in
  if at p Token.Question then begin
    let ln = line p in
    advance p;
    let t = parse_assign p in
    eat p Token.Colon;
    let f = parse_cond p in
    mk (Cst.Cond (c, t, f)) ln
  end
  else c

(* Binary operators at precedence [min] and above, left-associative. *)
and parse_binary p min = climb p min (parse_unary p)

and climb p min lhs =
  let prec, op = binop (peek p) in
  if prec < min then lhs
  else begin
    let ln = line p in
    advance p;
    let rhs = parse_binary p (prec + 1) in
    climb p min (mk (Cst.Bin (op, lhs, rhs)) ln)
  end

and parse_unary p : Cst.expr =
  let ln = line p in
  match peek p with
  | Token.Minus ->
      advance p;
      mk (Cst.Un (Cst.Neg, parse_unary p)) ln
  | Token.Tilde ->
      advance p;
      mk (Cst.Un (Cst.BNot, parse_unary p)) ln
  | Token.Bang ->
      advance p;
      mk (Cst.Un (Cst.LNot, parse_unary p)) ln
  | Token.Star ->
      advance p;
      mk (Cst.Deref (parse_unary p)) ln
  | Token.Amp ->
      advance p;
      mk (Cst.AddrOf (parse_unary p)) ln
  | Token.PlusPlus ->
      advance p;
      mk (Cst.PreIncr (parse_unary p)) ln
  | Token.MinusMinus ->
      advance p;
      mk (Cst.PreDecr (parse_unary p)) ln
  | Token.KW_sizeof ->
      advance p;
      if at p Token.LParen && type_starts p.t1 p.t2 then begin
        eat p Token.LParen;
        let ty = parse_abstract_ty p (parse_base_ty p) in
        eat p Token.RParen;
        mk (Cst.SizeofT ty) ln
      end
      else mk (Cst.SizeofE (parse_unary p)) ln
  | Token.LParen when type_starts p.t1 p.t2 ->
      (* cast *)
      eat p Token.LParen;
      let ty = parse_abstract_ty p (parse_base_ty p) in
      eat p Token.RParen;
      mk (Cst.Cast (ty, parse_unary p)) ln
  | _ -> parse_postfix p

and parse_postfix p = postfix p (parse_primary p)

and postfix p e =
  let ln = line p in
  match peek p with
  | Token.LParen ->
      advance p;
      let args = parse_args p in
      eat p Token.RParen;
      postfix p (mk (Cst.Call (e, args)) ln)
  | Token.LBracket ->
      advance p;
      let i = parse_expr p in
      eat p Token.RBracket;
      postfix p (mk (Cst.Index (e, i)) ln)
  | Token.Dot ->
      advance p;
      postfix p (mk (Cst.Member (e, eat_ident p)) ln)
  | Token.Arrow ->
      advance p;
      postfix p (mk (Cst.Arrow (e, eat_ident p)) ln)
  | Token.PlusPlus ->
      advance p;
      postfix p (mk (Cst.PostIncr e) ln)
  | Token.MinusMinus ->
      advance p;
      postfix p (mk (Cst.PostDecr e) ln)
  | _ -> e

and parse_args p = if at p Token.RParen then [] else args p []

and args p acc =
  let a = parse_assign p in
  if at p Token.Comma then begin
    advance p;
    args p (a :: acc)
  end
  else List.rev (a :: acc)

and parse_primary p : Cst.expr =
  let ln = line p in
  match peek p with
  | Token.Int_lit v ->
      advance p;
      mk (Cst.IntLit v) ln
  | Token.Float_lit v ->
      advance p;
      mk (Cst.FloatLit v) ln
  | Token.String_lit s ->
      advance p;
      mk (Cst.StrLit s) ln
  | Token.Char_lit c ->
      advance p;
      mk (Cst.IntLit (Int64.of_int (Char.code c))) ln
  | Token.Ident s ->
      advance p;
      mk (Cst.Var s) ln
  | Token.LParen ->
      advance p;
      let e = parse_expr p in
      eat p Token.RParen;
      e
  | t -> error p "unexpected token %s in expression" (Token.to_string t)

(* Constant folding for array sizes and case labels. *)
let rec const_eval (e : Cst.expr) : int64 =
  let fail msg = raise (Parse_error (msg, e.eline)) in
  match e.e with
  | Cst.IntLit v -> v
  | Cst.Bin (op, a, b) -> (
      let a = const_eval a and b = const_eval b in
      match op with
      | Cst.Add -> Int64.add a b
      | Cst.Sub -> Int64.sub a b
      | Cst.Mul -> Int64.mul a b
      | (Cst.Div | Cst.Mod) when b = 0L -> fail "constant division by zero"
      | Cst.Div -> Int64.div a b
      | Cst.Mod -> Int64.rem a b
      | (Cst.Shl | Cst.Shr) when b < 0L || b > 63L ->
          fail "constant shift count outside 0..63"
      | Cst.Shl -> Int64.shift_left a (Int64.to_int b)
      | Cst.Shr -> Int64.shift_right a (Int64.to_int b)
      | _ -> fail "non-constant array size")
  | Cst.Un (Cst.Neg, a) -> Int64.neg (const_eval a)
  | _ -> fail "non-constant array size"

(* --------------------------------------------------------------- *)
(* Declarators                                                      *)
(* --------------------------------------------------------------- *)

(* After the base type, parse one declarator:
   name, star-name, name[N]..., or the function-pointer form
   "( star name ) ( params )". Returns (full type, name). *)
let parse_declarator p base : Cst.ty * string =
  let base = parse_ptr_suffix p base in
  if at p Token.LParen then begin
    (* function pointer: ( * name ) ( params ) *)
    eat p Token.LParen;
    eat p Token.Star;
    let name = eat_ident p in
    eat p Token.RParen;
    eat p Token.LParen;
    let params = parse_param_types p in
    eat p Token.RParen;
    (Cst.TPtr (Cst.TFunc (base, params)), name)
  end
  else begin
    let name = eat_ident p in
    let rec arrays () =
      if at p Token.LBracket then begin
        advance p;
        let n = Int64.to_int (const_eval (parse_cond p)) in
        if n < 1 then error p "array size %d is not positive" n;
        eat p Token.RBracket;
        let inner = arrays () in
        Cst.TArray (inner, n)
      end
      else base
    in
    (arrays (), name)
  end

(* A function parameter: T name, T *name, T name[] (decays), or a
   function pointer. *)
let parse_param p : Cst.param =
  let base = parse_base_ty p in
  let ty, name = parse_declarator p base in
  let ty = match ty with Cst.TArray (t, _) -> Cst.TPtr t | t -> t in
  { Cst.p_ty = ty; p_name = name }

(* --------------------------------------------------------------- *)
(* Initialisers                                                     *)
(* --------------------------------------------------------------- *)

let rec parse_init p : Cst.init =
  if at p Token.LBrace then begin
    advance p;
    let rec go acc =
      if at p Token.RBrace then begin
        advance p;
        List.rev acc
      end
      else begin
        let field =
          if at p Token.Dot then begin
            advance p;
            let f = eat_ident p in
            eat p Token.Assign;
            Some f
          end
          else None
        in
        let init = parse_init p in
        let acc = (field, init) :: acc in
        if at p Token.Comma then begin
          advance p;
          go acc
        end
        else begin
          eat p Token.RBrace;
          List.rev acc
        end
      end
    in
    Cst.IList (go [])
  end
  else Cst.IExpr (parse_assign p)

(* --------------------------------------------------------------- *)
(* Statements                                                       *)
(* --------------------------------------------------------------- *)

let rec parse_stmt p : Cst.stmt =
  let ln = line p in
  let s d : Cst.stmt = { s = d; sline = ln } in
  match peek p with
  | Token.LBrace ->
      advance p;
      let body = parse_stmts p in
      eat p Token.RBrace;
      s (Cst.SBlock body)
  | Token.KW_if ->
      advance p;
      eat p Token.LParen;
      let c = parse_expr p in
      eat p Token.RParen;
      let then_ = block_of (parse_stmt p) in
      let else_ =
        if at p Token.KW_else then begin
          advance p;
          block_of (parse_stmt p)
        end
        else []
      in
      s (Cst.SIf (c, then_, else_))
  | Token.KW_while ->
      advance p;
      eat p Token.LParen;
      let c = parse_expr p in
      eat p Token.RParen;
      s (Cst.SWhile (c, block_of (parse_stmt p)))
  | Token.KW_do ->
      advance p;
      let body = block_of (parse_stmt p) in
      eat p Token.KW_while;
      eat p Token.LParen;
      let c = parse_expr p in
      eat p Token.RParen;
      eat p Token.Semi;
      s (Cst.SDoWhile (body, c))
  | Token.KW_for ->
      advance p;
      eat p Token.LParen;
      let init =
        if at p Token.Semi then begin
          advance p;
          None
        end
        else if starts_type p then begin
          let st = parse_decl_stmt p in
          Some st
        end
        else begin
          let e = parse_expr p in
          eat p Token.Semi;
          Some { Cst.s = Cst.SExpr e; sline = ln }
        end
      in
      let cond =
        if at p Token.Semi then None else Some (parse_expr p)
      in
      eat p Token.Semi;
      let step =
        if at p Token.RParen then None else Some (parse_expr p)
      in
      eat p Token.RParen;
      s (Cst.SFor (init, cond, step, block_of (parse_stmt p)))
  | Token.KW_switch ->
      advance p;
      eat p Token.LParen;
      let scrut = parse_expr p in
      eat p Token.RParen;
      eat p Token.LBrace;
      let cases = ref [] in
      let default = ref [] in
      let rec case_body acc =
        match peek p with
        | Token.KW_case | Token.KW_default | Token.RBrace -> List.rev acc
        | _ -> case_body (parse_stmt p :: acc)
      in
      let rec clauses () =
        match peek p with
        | Token.KW_case ->
            advance p;
            let v = const_eval (parse_cond p) in
            eat p Token.Colon;
            let body = case_body [] in
            (* drop a redundant trailing break: cases break implicitly *)
            let body =
              match List.rev body with
              | { Cst.s = Cst.SBreak; _ } :: rest -> List.rev rest
              | _ -> body
            in
            cases := (v, body) :: !cases;
            clauses ()
        | Token.KW_default ->
            advance p;
            eat p Token.Colon;
            let body = case_body [] in
            let body =
              match List.rev body with
              | { Cst.s = Cst.SBreak; _ } :: rest -> List.rev rest
              | _ -> body
            in
            default := body;
            clauses ()
        | Token.RBrace -> advance p
        | t -> error p "expected case/default/}, found %s" (Token.to_string t)
      in
      clauses ();
      s (Cst.SSwitch (scrut, List.rev !cases, !default))
  | Token.KW_return ->
      advance p;
      if at p Token.Semi then begin
        advance p;
        s (Cst.SReturn None)
      end
      else begin
        let e = parse_expr p in
        eat p Token.Semi;
        s (Cst.SReturn (Some e))
      end
  | Token.KW_break ->
      advance p;
      eat p Token.Semi;
      s Cst.SBreak
  | Token.KW_continue ->
      advance p;
      eat p Token.Semi;
      s Cst.SContinue
  | Token.Semi ->
      advance p;
      s (Cst.SBlock [])
  | _ when starts_type p -> parse_decl_stmt p
  | _ ->
      let e = parse_expr p in
      eat p Token.Semi;
      s (Cst.SExpr e)

and block_of (st : Cst.stmt) =
  match st.s with Cst.SBlock b -> b | _ -> [ st ]

(* One or more comma-separated declarations sharing a base type. *)
and parse_decl_stmt p : Cst.stmt =
  let ln = line p in
  let base = parse_base_ty p in
  let rec go acc =
    let ty, name = parse_declarator p base in
    let init =
      if at p Token.Assign then begin
        advance p;
        Some (parse_init p)
      end
      else None
    in
    let decl : Cst.stmt = { s = Cst.SDecl (ty, name, init); sline = ln } in
    if at p Token.Comma then begin
      advance p;
      go (decl :: acc)
    end
    else begin
      eat p Token.Semi;
      List.rev (decl :: acc)
    end
  in
  match go [] with
  | [ single ] -> single
  | many -> { s = Cst.SBlock many; sline = ln }

and parse_stmts p =
  let rec go acc =
    if at p Token.RBrace || at p Token.Eof then List.rev acc
    else go (parse_stmt p :: acc)
  in
  go []

(* --------------------------------------------------------------- *)
(* Top level                                                        *)
(* --------------------------------------------------------------- *)

let parse_decl p : Cst.decl =
  let ln = line p in
  match peek p with
  | Token.KW_struct
    when (match (p.t1, p.t2) with
          | Token.Ident _, Token.LBrace -> true
          | _ -> false) ->
      advance p;
      let name = eat_ident p in
      eat p Token.LBrace;
      let rec fields acc =
        if at p Token.RBrace then List.rev acc
        else begin
          let base = parse_base_ty p in
          let ty, fname = parse_declarator p base in
          eat p Token.Semi;
          fields ((ty, fname) :: acc)
        end
      in
      let fs = fields [] in
      eat p Token.RBrace;
      eat p Token.Semi;
      Cst.DStruct { sd_name = name; sd_fields = fs; sd_line = ln }
  | Token.KW_extern ->
      advance p;
      let base = parse_base_ty p in
      let ret = parse_ptr_suffix p base in
      let name = eat_ident p in
      eat p Token.LParen;
      let params = parse_param_types p in
      eat p Token.RParen;
      eat p Token.Semi;
      Cst.DExtern (ret, name, params)
  | _ ->
      let base = parse_base_ty p in
      let ty, name = parse_declarator p base in
      if at p Token.LParen then begin
        (* function definition *)
        advance p;
        let params =
          if at p Token.RParen then []
          else if at p Token.KW_void && peek2 p == Token.RParen then begin
            advance p;
            []
          end
          else
            let rec go acc =
              let prm = parse_param p in
              if at p Token.Comma then begin
                advance p;
                go (prm :: acc)
              end
              else List.rev (prm :: acc)
            in
            go []
        in
        eat p Token.RParen;
        if at p Token.Semi then begin
          (* forward declaration *)
          advance p;
          Cst.DExtern (ty, name, List.map (fun pr -> pr.Cst.p_ty) params)
        end
        else begin
          eat p Token.LBrace;
          let body = parse_stmts p in
          eat p Token.RBrace;
          Cst.DFunc { fd_ret = ty; fd_name = name; fd_params = params;
                      fd_body = body; fd_line = ln }
        end
      end
      else begin
        let init =
          if at p Token.Assign then begin
            advance p;
            Some (parse_init p)
          end
          else None
        in
        eat p Token.Semi;
        Cst.DGlobal { gd_ty = ty; gd_name = name; gd_init = init; gd_line = ln }
      end

(** Parse a full translation unit. *)
let parse src : Cst.program =
  let p =
    { lx = Lexer.create src; t0 = Token.Eof; t1 = Token.Eof; t2 = Token.Eof;
      l0 = 1; l1 = 1; l2 = 1 }
  in
  advance p;
  advance p;
  advance p;
  let rec go acc =
    if at p Token.Eof then List.rev acc else go (parse_decl p :: acc)
  in
  go []
