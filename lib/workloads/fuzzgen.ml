(** Random-program generation for differential compiler testing.

    A generator builds a small typed program description, renders it to
    MiniC source, and {e independently} evaluates it with a reference
    interpreter written directly over the description. Any divergence
    between the reference value and what the compiled program computes
    under any Table 3 configuration is a toolchain bug.

    The subset is 64-bit integer arithmetic (two's-complement wrap,
    matching the compiler's semantics; all-constant subtrees are C
    [int] and wrap at 32 bits), fixed-size arrays indexed
    in-bounds via [% N], bounded counted loops, and branches — enough to
    stress expression lowering, register/slot allocation, the optimiser
    and the sanitizers, while staying trivially terminating. *)

let array_size = 16
let max_depth = 4

type expr =
  | Const of int64
  | Var of int           (* scalar variable index *)
  | ArrGet of int * expr (* array index, index expr taken mod N *)
  | Bin of binop * expr * expr

and binop = Add | Sub | Mul | And | Or | Xor | ShrMask | ModSmall

type stmt =
  | Assign of int * expr
  | ArrSet of int * expr * expr  (* arr, index expr, value *)
  | For of int * int * stmt list (* loop var, count, body *)
  | IfPos of expr * stmt list * stmt list
  | SwitchMod of expr * stmt list list
      (* switch on (expr mod ncases): case i runs the i-th body;
         implicit break, no default needed (always in range) *)

type prog = {
  nvars : int;
  narrs : int;
  body : stmt list;
}

(* ---------------------------------------------------------------- *)
(* Generation                                                        *)
(* ---------------------------------------------------------------- *)

type gctx = { rng : Random.State.t; nvars : int; narrs : int }

let rec gen_expr g depth : expr =
  if depth >= max_depth || Random.State.int g.rng 100 < 25 then
    match Random.State.int g.rng 3 with
    | 0 -> Const (Random.State.int64 g.rng 1000L)
    | 1 -> Var (Random.State.int g.rng g.nvars)
    | _ ->
        if g.narrs > 0 then
          ArrGet
            (Random.State.int g.rng g.narrs,
             Const (Int64.of_int (Random.State.int g.rng array_size)))
        else Var (Random.State.int g.rng g.nvars)
  else
    let op =
      match Random.State.int g.rng 8 with
      | 0 -> Add
      | 1 -> Sub
      | 2 -> Mul
      | 3 -> And
      | 4 -> Or
      | 5 -> Xor
      | 6 -> ShrMask
      | _ -> ModSmall
    in
    Bin (op, gen_expr g (depth + 1), gen_expr g (depth + 1))

let rec gen_stmt g depth : stmt =
  match Random.State.int g.rng (if depth >= 2 then 2 else 5) with
  | 0 -> Assign (Random.State.int g.rng g.nvars, gen_expr g 0)
  | 1 when g.narrs > 0 ->
      ArrSet
        (Random.State.int g.rng g.narrs, gen_expr g 1, gen_expr g 0)
  | 1 -> Assign (Random.State.int g.rng g.nvars, gen_expr g 0)
  | 2 ->
      For
        (Random.State.int g.rng g.nvars,
         1 + Random.State.int g.rng 8,
         gen_stmts g (depth + 1) (1 + Random.State.int g.rng 3))
  | 3 ->
      IfPos
        (gen_expr g 1,
         gen_stmts g (depth + 1) (1 + Random.State.int g.rng 2),
         gen_stmts g (depth + 1) (Random.State.int g.rng 2))
  | _ ->
      let ncases = 2 + Random.State.int g.rng 3 in
      SwitchMod
        (gen_expr g 1,
         List.init ncases (fun _ -> gen_stmts g (depth + 1) 1))

and gen_stmts g depth n = List.init n (fun _ -> gen_stmt g depth)

(** Generate a program from a seed. *)
let generate ~seed : prog =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let g =
    { rng; nvars = 2 + Random.State.int rng 4;
      narrs = 1 + Random.State.int rng 2 }
  in
  { nvars = g.nvars; narrs = g.narrs;
    body = gen_stmts g 0 (3 + Random.State.int rng 6) }

(* ---------------------------------------------------------------- *)
(* Rendering to MiniC                                                *)
(* ---------------------------------------------------------------- *)

let rec render_expr = function
  | Const v -> Printf.sprintf "%Ld" v
  | Var i -> Printf.sprintf "v%d" i
  | ArrGet (a, i) ->
      Printf.sprintf "a%d[(int)(((unsigned long)(%s)) %% %d)]" a
        (render_expr i) array_size
  | Bin (op, x, y) -> (
      let xs = render_expr x and ys = render_expr y in
      match op with
      | Add -> Printf.sprintf "(%s + %s)" xs ys
      | Sub -> Printf.sprintf "(%s - %s)" xs ys
      | Mul -> Printf.sprintf "(%s * %s)" xs ys
      | And -> Printf.sprintf "(%s & %s)" xs ys
      | Or -> Printf.sprintf "(%s | %s)" xs ys
      | Xor -> Printf.sprintf "(%s ^ %s)" xs ys
      | ShrMask ->
          (* force a signed lhs: sub-expressions of unsigned type (the
             % results) would otherwise make C shift logically while the
             reference shifts arithmetically *)
          Printf.sprintf "(((long)(%s)) >> ((%s) & 7))" xs ys
      | ModSmall ->
          Printf.sprintf "(((unsigned long)(%s)) %% (((unsigned long)(%s) & 7) + 1))" xs ys)

let rec render_stmt buf indent = function
  | Assign (v, e) ->
      Buffer.add_string buf
        (Printf.sprintf "%sv%d = %s;\n" indent v (render_expr e))
  | ArrSet (a, i, e) ->
      Buffer.add_string buf
        (Printf.sprintf "%sa%d[(int)(((unsigned long)(%s)) %% %d)] = %s;\n"
           indent a (render_expr i) array_size (render_expr e))
  | For (v, n, body) ->
      Buffer.add_string buf
        (Printf.sprintf "%sfor (int it%d = 0; it%d < %d; it%d++) {\n" indent
           v v n v);
      Buffer.add_string buf
        (Printf.sprintf "%s  v%d = v%d + 1;\n" indent v v);
      List.iter (render_stmt buf (indent ^ "  ")) body;
      Buffer.add_string buf (indent ^ "}\n")
  | IfPos (c, t, e) ->
      (* cast to long: an unsigned sub-expression type must not turn the
         signed comparison the reference performs into an unsigned one *)
      Buffer.add_string buf
        (Printf.sprintf "%sif (((long)(%s)) > 0) {\n" indent (render_expr c));
      List.iter (render_stmt buf (indent ^ "  ")) t;
      if e <> [] then begin
        Buffer.add_string buf (indent ^ "} else {\n");
        List.iter (render_stmt buf (indent ^ "  ")) e
      end;
      Buffer.add_string buf (indent ^ "}\n")
  | SwitchMod (e, bodies) ->
      let n = List.length bodies in
      Buffer.add_string buf
        (Printf.sprintf "%sswitch (((unsigned long)(%s)) %% %d) {\n" indent
           (render_expr e) n);
      List.iteri
        (fun i body ->
          Buffer.add_string buf (Printf.sprintf "%s  case %d: {\n" indent i);
          List.iter (render_stmt buf (indent ^ "    ")) body;
          Buffer.add_string buf (indent ^ "  }\n"))
        bodies;
      Buffer.add_string buf (indent ^ "}\n")

(** Render the program as a complete MiniC translation unit whose main
    returns a 16-bit digest of the final state. *)
let render (p : prog) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "int main() {\n";
  for v = 0 to p.nvars - 1 do
    Buffer.add_string buf (Printf.sprintf "  long v%d = %d;\n" v (v + 1))
  done;
  for a = 0 to p.narrs - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  long a%d[%d];\n" a array_size);
    Buffer.add_string buf
      (Printf.sprintf
         "  for (int i = 0; i < %d; i++) { a%d[i] = i * %d; }\n" array_size a
         (a + 3))
  done;
  List.iter (render_stmt buf "  ") p.body;
  Buffer.add_string buf "  long h = 0;\n";
  for v = 0 to p.nvars - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  h = h * 31 + v%d;\n" v)
  done;
  for a = 0 to p.narrs - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "  for (int i = 0; i < %d; i++) { h = h * 31 + a%d[i]; }\n"
         array_size a)
  done;
  Buffer.add_string buf "  return (int)(((unsigned long)h) % 65521);\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Reference evaluation                                              *)
(* ---------------------------------------------------------------- *)

type state = { vars : int64 array; arrs : int64 array array }

let idx_of v = Int64.to_int (Int64.unsigned_rem v (Int64.of_int array_size))

let apply op xv yv =
  match op with
  | Add -> Int64.add xv yv
  | Sub -> Int64.sub xv yv
  | Mul -> Int64.mul xv yv
  | And -> Int64.logand xv yv
  | Or -> Int64.logor xv yv
  | Xor -> Int64.logxor xv yv
  | ShrMask -> Int64.shift_right xv (Int64.to_int (Int64.logand yv 7L))
  | ModSmall -> Int64.unsigned_rem xv (Int64.add (Int64.logand yv 7L) 1L)

(** Every node evaluated as a 64-bit [long], ignoring C's [int] typing
    of constant subtrees; comparing with {!eval_c} shows where such a
    subtree overflows [int]. *)
let rec eval_expr st = function
  | Const v -> v
  | Var i -> st.vars.(i)
  | ArrGet (a, i) -> st.arrs.(a).(idx_of (eval_expr st i))
  | Bin (op, x, y) -> apply op (eval_expr st x) (eval_expr st y)

(* Constants render as C [int] literals, so a subtree of them joined
   only by [+ - * & | ^] has type [int]: it wraps at 32 bits and is
   sign-extended where it meets a [long]. (The shift and modulus
   renderings cast their operands to 64 bits.) *)
let rec int_typed = function
  | Const _ -> true
  | Bin ((Add | Sub | Mul | And | Or | Xor), x, y) -> int_typed x && int_typed y
  | Var _ | ArrGet _ | Bin ((ShrMask | ModSmall), _, _) -> false

(** What the rendered C computes. The low 32 bits of [+ - * & | ^]
    depend only on the operands' low 32 bits, so an int-typed subtree
    is its 64-bit value wrapped once. *)
let rec eval_c st e =
  match e with
  | _ when int_typed e -> Int64.of_int32 (Int64.to_int32 (eval_expr st e))
  | Const v -> v
  | Var i -> st.vars.(i)
  | ArrGet (a, i) -> st.arrs.(a).(idx_of (eval_c st i))
  | Bin (op, x, y) -> apply op (eval_c st x) (eval_c st y)

let rec eval_stmt st = function
  | Assign (v, e) -> st.vars.(v) <- eval_c st e
  | ArrSet (a, i, e) ->
      let idx = idx_of (eval_c st i) in
      st.arrs.(a).(idx) <- eval_c st e
  | For (v, n, body) ->
      for _ = 1 to n do
        st.vars.(v) <- Int64.add st.vars.(v) 1L;
        List.iter (eval_stmt st) body
      done
  | IfPos (c, t, e) ->
      if Int64.compare (eval_c st c) 0L > 0 then List.iter (eval_stmt st) t
      else List.iter (eval_stmt st) e
  | SwitchMod (e, bodies) ->
      let n = Int64.of_int (List.length bodies) in
      let i = Int64.to_int (Int64.unsigned_rem (eval_c st e) n) in
      List.iter (eval_stmt st) (List.nth bodies i)

(** The reference result the compiled program must reproduce. *)
let reference (p : prog) : int32 =
  let st =
    {
      vars = Array.init p.nvars (fun v -> Int64.of_int (v + 1));
      arrs =
        Array.init p.narrs (fun a ->
            Array.init array_size (fun i -> Int64.of_int (i * (a + 3))));
    }
  in
  List.iter (eval_stmt st) p.body;
  let h = ref 0L in
  Array.iter (fun v -> h := Int64.add (Int64.mul !h 31L) v) st.vars;
  Array.iter
    (fun arr -> Array.iter (fun v -> h := Int64.add (Int64.mul !h 31L) v) arr)
    st.arrs;
  Int64.to_int32 (Int64.unsigned_rem !h 65521L)
