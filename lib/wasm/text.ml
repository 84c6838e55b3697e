(** WAT-style text format: printer (this file, top half) and parser
    (bottom half).

    The dialect is the flat (non-folded) instruction syntax, extended
    with the Cage instructions under their paper names ([segment.new],
    ...). The printer's output parses back to an equal module, so
    [.wat] files are a first-class interchange format for the toolchain
    ([cagec --emit-wat], [cage_run file.wat]). The mnemonic of every
    instruction with no immediate but a memarg comes from {!Opcode}. *)

open Format

let val_type ppf t = pp_print_string ppf (Types.string_of_num_type t)

let block_type ppf = function
  | Ast.ValBlock None -> ()
  | Ast.ValBlock (Some t) -> fprintf ppf " (result %a)" val_type t

let memarg ppf (ma : Ast.memarg) =
  if ma.offset <> 0L then fprintf ppf " offset=%Lu" ma.offset;
  if ma.align <> 0 then fprintf ppf " align=%d" (1 lsl ma.align)

let rec instr ~indent ppf (ins : Ast.instr) =
  let pad = String.make indent ' ' in
  let line fmt = fprintf ppf ("%s" ^^ fmt ^^ "@.") pad in
  match ins with
  | Block (bt, body) ->
      fprintf ppf "%sblock%a@." pad block_type bt;
      List.iter (instr ~indent:(indent + 2) ppf) body;
      line "end"
  | Loop (bt, body) ->
      fprintf ppf "%sloop%a@." pad block_type bt;
      List.iter (instr ~indent:(indent + 2) ppf) body;
      line "end"
  | If (bt, then_, else_) ->
      fprintf ppf "%sif%a@." pad block_type bt;
      List.iter (instr ~indent:(indent + 2) ppf) then_;
      if else_ <> [] then begin
        line "else";
        List.iter (instr ~indent:(indent + 2) ppf) else_
      end;
      line "end"
  | Br n -> line "br %d" n
  | BrIf n -> line "br_if %d" n
  | BrTable (ts, d) ->
      line "br_table %s %d"
        (String.concat " " (List.map string_of_int ts))
        d
  | Call i -> line "call %d" i
  | CallIndirect ti -> line "call_indirect (type %d)" ti
  | LocalGet i -> line "local.get %d" i
  | LocalSet i -> line "local.set %d" i
  | LocalTee i -> line "local.tee %d" i
  | GlobalGet i -> line "global.get %d" i
  | GlobalSet i -> line "global.set %d" i
  | I32Const v -> line "i32.const %ld" v
  | I64Const v -> line "i64.const %Ld" v
  | F32Const v -> line "f32.const %h" v
  | F64Const v -> line "f64.const %h" v
  | SegmentNew o -> line "segment.new offset=%Lu" o
  | SegmentSetTag o -> line "segment.set_tag offset=%Lu" o
  | SegmentFree o -> line "segment.free offset=%Lu" o
  | Load (_, _, ma) | Store (_, _, ma) -> line "%s%a" (Opcode.find ins).name memarg ma
  | ins -> line "%s" (Opcode.find ins).name

(** Render a whole module. *)
let module_ ppf (m : Ast.module_) =
  fprintf ppf "(module@.";
  List.iter
    (fun (ft : Types.func_type) ->
      fprintf ppf "  (type (func";
      if ft.params <> [] then begin
        fprintf ppf " (param";
        List.iter (fun t -> fprintf ppf " %a" val_type t) ft.params;
        fprintf ppf ")"
      end;
      if ft.results <> [] then begin
        fprintf ppf " (result";
        List.iter (fun t -> fprintf ppf " %a" val_type t) ft.results;
        fprintf ppf ")"
      end;
      fprintf ppf "))@.")
    m.types;
  List.iter
    (fun (im : Ast.import) ->
      fprintf ppf "  (import \"%s\" \"%s\" (func (type %d)))@." im.im_module
        im.im_name im.im_type)
    m.imports;
  Option.iter
    (fun (mt : Types.mem_type) ->
      fprintf ppf "  (memory %s %Ld%s)@."
        (match mt.mem_idx with Types.Idx64 -> "i64" | Types.Idx32 -> "i32")
        mt.mem_limits.min
        (match mt.mem_limits.max with
        | Some mx -> Printf.sprintf " %Ld" mx
        | None -> ""))
    m.memory;
  Option.iter
    (fun (tt : Types.table_type) ->
      fprintf ppf "  (table %Ld funcref)@." tt.tbl_limits.min)
    m.table;
  List.iter
    (fun (g : Ast.global) ->
      let ty = Types.string_of_num_type g.g_type.Types.g_type in
      let const =
        match g.g_init with
        | Values.I32 v -> Printf.sprintf "i32.const %ld" v
        | Values.I64 v -> Printf.sprintf "i64.const %Ld" v
        | Values.F32 v -> Printf.sprintf "f32.const %h" v
        | Values.F64 v -> Printf.sprintf "f64.const %h" v
      in
      if g.g_type.Types.mut then
        fprintf ppf "  (global (mut %s) (%s))@." ty const
      else fprintf ppf "  (global %s (%s))@." ty const)
    m.globals;
  List.iter
    (fun (f : Ast.func) ->
      fprintf ppf "  (func%s (type %d)"
        (match f.fname with Some n -> " $" ^ n | None -> "")
        f.ftype;
      if f.locals <> [] then begin
        fprintf ppf " (local";
        List.iter (fun t -> fprintf ppf " %a" val_type t) f.locals;
        fprintf ppf ")"
      end;
      fprintf ppf "@.";
      List.iter (instr ~indent:4 ppf) f.body;
      fprintf ppf "  )@.")
    m.funcs;
  List.iter
    (fun (e : Ast.elem) ->
      fprintf ppf "  (elem (offset %Ld) func %s)@." e.e_offset
        (String.concat " " (List.map string_of_int e.e_funcs)))
    m.elems;
  List.iter
    (fun (d : Ast.data) ->
      let escaped = Buffer.create (String.length d.d_bytes * 2) in
      String.iter
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | ' ' | '.' | ',' | '-'
          | '_' | ':' | ';' | '!' | '?' | '+' | '*' | '/' | '=' ->
              Buffer.add_char escaped c
          | c -> Buffer.add_string escaped (Printf.sprintf "\\%02x" (Char.code c)))
        d.d_bytes;
      fprintf ppf "  (data (offset %Ld) \"%s\")@." d.d_offset
        (Buffer.contents escaped))
    m.datas;
  List.iter
    (fun (ex : Ast.export) ->
      match ex.ex_desc with
      | Ast.Func_export i ->
          fprintf ppf "  (export \"%s\" (func %d))@." ex.ex_name i
      | Ast.Mem_export i ->
          fprintf ppf "  (export \"%s\" (memory %d))@." ex.ex_name i)
    m.exports;
  Option.iter (fun i -> fprintf ppf "  (start %d)@." i) m.start;
  fprintf ppf ")@."

let to_string m = Format.asprintf "%a" module_ m

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let perr fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

type tok = LP | RP | Atom of string | Str of string

let tokenize src : tok list =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let is_atom_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '$' | '-' | '+'
    | '=' | '/' | ':' ->
        true
    | _ -> false
  in
  while !i < n do
    (match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | ';' when !i + 1 < n && src.[!i + 1] = ';' ->
        while !i < n && src.[!i] <> '\n' do incr i done
    | '(' ->
        toks := LP :: !toks;
        incr i
    | ')' ->
        toks := RP :: !toks;
        incr i
    | '"' ->
        incr i;
        let buf = Buffer.create 16 in
        let fin = ref false in
        while not !fin do
          if !i >= n then perr "unterminated string";
          (match src.[!i] with
          | '"' ->
              fin := true;
              incr i
          | '\\' ->
              if !i + 2 >= n then perr "bad escape";
              let hex = String.sub src (!i + 1) 2 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some c -> Buffer.add_char buf (Char.chr c)
              | None -> perr "bad escape \\%s" hex);
              i := !i + 3
          | c ->
              Buffer.add_char buf c;
              incr i)
        done;
        toks := Str (Buffer.contents buf) :: !toks
    | c when is_atom_char c ->
        let start = !i in
        while !i < n && is_atom_char src.[!i] do incr i done;
        toks := Atom (String.sub src start (!i - start)) :: !toks
    | c -> perr "unexpected character %C" c)
  done;
  List.rev !toks

type pstate = { toks : tok array; mutable pos : int }

let peek_tok p = if p.pos < Array.length p.toks then Some p.toks.(p.pos) else None
let next_tok p =
  match peek_tok p with
  | Some t ->
      p.pos <- p.pos + 1;
      t
  | None -> perr "unexpected end of input"

let expect_lp p = match next_tok p with LP -> () | _ -> perr "expected ("
let expect_rp p = match next_tok p with RP -> () | _ -> perr "expected )"

let expect_atom p =
  match next_tok p with Atom a -> a | _ -> perr "expected atom"

let expect_kw p kw =
  let a = expect_atom p in
  if a <> kw then perr "expected %s, found %s" kw a

(* every numeric atom is read through these, so a malformed number is a
   Parse_error *)
let number what read a =
  match read a with Some v -> v | None -> perr "expected %s, found %s" what a

let int_of_atom = number "integer" int_of_string_opt
let i64_of_atom = number "integer" Int64.of_string_opt

(* memarg and segment offsets print unsigned ([%Lu]), so a decimal one
   reads back unsigned, up to 2^64 - 1 *)
let u64_of_atom =
  number "integer" (fun a ->
      match Int64.of_string_opt ("0u" ^ a) with
      | Some _ as v -> v
      | None -> Int64.of_string_opt a)

let expect_int p = int_of_atom (expect_atom p)
let expect_i64 p = i64_of_atom (expect_atom p)
let expect_float p = number "number" float_of_string_opt (expect_atom p)

let val_type_of_atom = function
  | "i32" -> Types.I32
  | "i64" -> Types.I64
  | "f32" -> Types.F32
  | "f64" -> Types.F64
  | a -> perr "unknown value type %s" a

(* optional "(result t)" annotation *)
let parse_block_type p : Ast.block_type =
  match (peek_tok p, if p.pos + 1 < Array.length p.toks then Some p.toks.(p.pos + 1) else None) with
  | Some LP, Some (Atom "result") ->
      expect_lp p;
      expect_kw p "result";
      let t = val_type_of_atom (expect_atom p) in
      expect_rp p;
      Ast.ValBlock (Some t)
  | _ -> Ast.ValBlock None

(* the value of a [key=value] atom at the cursor, consumed *)
let keyed p key =
  let k = String.length key in
  match peek_tok p with
  | Some (Atom a) when String.length a > k && String.starts_with ~prefix:key a ->
      ignore (next_tok p);
      Some (String.sub a k (String.length a - k))
  | _ -> None

let rec parse_memarg p (ma : Ast.memarg) =
  match keyed p "offset=" with
  | Some v -> parse_memarg p { ma with offset = u64_of_atom v }
  | None -> (
      match Option.map int_of_atom (keyed p "align=") with
      | None -> ma
      | Some n when n > 0 && n land (n - 1) = 0 ->
          let rec log2 n = if n = 1 then 0 else 1 + log2 (n / 2) in
          parse_memarg p { ma with align = log2 n }
      | Some n -> perr "alignment %d is not a power of two" n)

let parse_seg_offset p = Option.fold ~none:0L ~some:u64_of_atom (keyed p "offset=")

let is_int_atom a =
  a <> "" && (match Int64.of_string_opt a with Some _ -> true | None -> false)

(* Parse instructions until one of [stops]; the stop atom is consumed
   and returned. *)
let rec parse_instrs p ~stops : Ast.instr list * string =
  let rec go acc =
    match peek_tok p with
    | Some (Atom a) when List.mem a stops ->
        ignore (next_tok p);
        (List.rev acc, a)
    | Some RP when List.mem ")" stops -> (List.rev acc, ")")
    | Some _ -> go (parse_instr p :: acc)
    | None -> perr "unexpected end of instruction stream"
  in
  go []

and parse_instr p : Ast.instr =
  let a = expect_atom p in
  match a with
  | "block" ->
      let bt = parse_block_type p in
      let body, _ = parse_instrs p ~stops:[ "end" ] in
      Ast.Block (bt, body)
  | "loop" ->
      let bt = parse_block_type p in
      let body, _ = parse_instrs p ~stops:[ "end" ] in
      Ast.Loop (bt, body)
  | "if" ->
      let bt = parse_block_type p in
      let then_, stop = parse_instrs p ~stops:[ "end"; "else" ] in
      let else_ =
        if stop = "else" then fst (parse_instrs p ~stops:[ "end" ]) else []
      in
      Ast.If (bt, then_, else_)
  | "br" -> Ast.Br (expect_int p)
  | "br_if" -> Ast.BrIf (expect_int p)
  | "br_table" ->
      (* all following integer atoms; the last is the default *)
      let rec nums acc =
        match peek_tok p with
        | Some (Atom a) when is_int_atom a ->
            ignore (next_tok p);
            nums (int_of_atom a :: acc)
        | _ -> List.rev acc
      in
      (match nums [] with
      | [] -> perr "br_table needs at least a default"
      | ns ->
          let rec split = function
            | [ d ] -> ([], d)
            | x :: tl ->
                let ts, d = split tl in
                (x :: ts, d)
            | [] -> assert false
          in
          let ts, d = split ns in
          Ast.BrTable (ts, d))
  | "call" -> Ast.Call (expect_int p)
  | "call_indirect" ->
      expect_lp p;
      expect_kw p "type";
      let ti = expect_int p in
      expect_rp p;
      Ast.CallIndirect ti
  | "local.get" -> Ast.LocalGet (expect_int p)
  | "local.set" -> Ast.LocalSet (expect_int p)
  | "local.tee" -> Ast.LocalTee (expect_int p)
  | "global.get" -> Ast.GlobalGet (expect_int p)
  | "global.set" -> Ast.GlobalSet (expect_int p)
  | "segment.new" -> Ast.SegmentNew (parse_seg_offset p)
  | "segment.set_tag" -> Ast.SegmentSetTag (parse_seg_offset p)
  | "segment.free" -> Ast.SegmentFree (parse_seg_offset p)
  | "i32.const" -> Ast.I32Const (Int64.to_int32 (expect_i64 p))
  | "i64.const" -> Ast.I64Const (expect_i64 p)
  | "f32.const" -> Ast.F32Const (Values.to_f32 (expect_float p))
  | "f64.const" -> Ast.F64Const (expect_float p)
  | a -> (
      match Opcode.of_name a with
      | Some { instr = (Load _ | Store _) as i; _ } ->
          Opcode.with_memarg (parse_memarg p Opcode.no_memarg) i
      | Some e -> e.instr
      | None -> perr "unknown instruction %s" a)

(* (type (func (param ...) (result ...))) — already past "(type" *)
let parse_functype_body p : Types.func_type =
  expect_lp p;
  expect_kw p "func";
  let params = ref [] in
  let results = ref [] in
  let rec clauses () =
    match peek_tok p with
    | Some LP ->
        expect_lp p;
        let kw = expect_atom p in
        let rec tys acc =
          match peek_tok p with
          | Some (Atom a) ->
              ignore (next_tok p);
              tys (val_type_of_atom a :: acc)
          | _ -> List.rev acc
        in
        let ts = tys [] in
        expect_rp p;
        (match kw with
        | "param" -> params := !params @ ts
        | "result" -> results := !results @ ts
        | k -> perr "unexpected %s in functype" k);
        clauses ()
    | _ -> ()
  in
  clauses ();
  expect_rp p;
  { Types.params = !params; results = !results }

(** Parse a module in the dialect {!module_} prints. *)
let parse (src : string) : Ast.module_ =
  let p = { toks = Array.of_list (tokenize src); pos = 0 } in
  expect_lp p;
  expect_kw p "module";
  let m = ref Ast.empty_module in
  (* list fields accumulate last first and are reversed once at the end,
     so parsing is linear in the number of fields *)
  let types = ref [] and imports = ref [] and funcs = ref [] in
  let globals = ref [] and elems = ref [] and datas = ref [] in
  let exports = ref [] in
  let rec fields () =
    match peek_tok p with
    | Some RP ->
        ignore (next_tok p)
    | Some LP ->
        expect_lp p;
        let kw = expect_atom p in
        (match kw with
        | "type" ->
            let ft = parse_functype_body p in
            types := ft :: !types;
            expect_rp p
        | "import" ->
            let im_module =
              match next_tok p with Str s -> s | _ -> perr "import module"
            in
            let im_name =
              match next_tok p with Str s -> s | _ -> perr "import name"
            in
            expect_lp p;
            expect_kw p "func";
            expect_lp p;
            expect_kw p "type";
            let im_type = expect_int p in
            expect_rp p;
            expect_rp p;
            expect_rp p;
            imports := { Ast.im_module; im_name; im_type } :: !imports
        | "memory" ->
            let idx =
              match expect_atom p with
              | "i64" -> Types.Idx64
              | "i32" -> Types.Idx32
              | a -> perr "memory index type %s" a
            in
            let min = expect_i64 p in
            let max =
              match peek_tok p with
              | Some (Atom a) when is_int_atom a ->
                  ignore (next_tok p);
                  Some (i64_of_atom a)
              | _ -> None
            in
            expect_rp p;
            m :=
              { !m with
                Ast.memory =
                  Some { Types.mem_idx = idx;
                         mem_limits = { Types.min; max } } }
        | "table" ->
            let n = expect_i64 p in
            expect_kw p "funcref";
            expect_rp p;
            m :=
              { !m with
                Ast.table =
                  Some { Types.tbl_limits = { Types.min = n; max = Some n } } }
        | "global" ->
            let mut, gty =
              match next_tok p with
              | LP ->
                  expect_kw p "mut";
                  let t = val_type_of_atom (expect_atom p) in
                  expect_rp p;
                  (true, t)
              | Atom a -> (false, val_type_of_atom a)
              | _ -> perr "global type"
            in
            expect_lp p;
            let init =
              match parse_instr p with
              | Ast.I32Const v -> Values.I32 v
              | Ast.I64Const v -> Values.I64 v
              | Ast.F32Const v -> Values.F32 v
              | Ast.F64Const v -> Values.F64 v
              | _ -> perr "global initialiser must be a constant"
            in
            expect_rp p;
            expect_rp p;
            globals :=
              { Ast.g_type = { Types.mut; g_type = gty }; g_init = init }
              :: !globals
        | "func" ->
            let fname =
              match peek_tok p with
              | Some (Atom a) when String.length a > 0 && a.[0] = '$' ->
                  ignore (next_tok p);
                  Some (String.sub a 1 (String.length a - 1))
              | _ -> None
            in
            expect_lp p;
            expect_kw p "type";
            let ftype = expect_int p in
            expect_rp p;
            let locals =
              match (peek_tok p, if p.pos + 1 < Array.length p.toks then Some p.toks.(p.pos + 1) else None) with
              | Some LP, Some (Atom "local") ->
                  expect_lp p;
                  expect_kw p "local";
                  let rec tys acc =
                    match peek_tok p with
                    | Some (Atom a) ->
                        ignore (next_tok p);
                        tys (val_type_of_atom a :: acc)
                    | _ -> List.rev acc
                  in
                  let ts = tys [] in
                  expect_rp p;
                  ts
              | _ -> []
            in
            let body, _ = parse_instrs p ~stops:[ ")" ] in
            expect_rp p;
            funcs := { Ast.ftype; locals; body; fname } :: !funcs
        | "elem" ->
            expect_lp p;
            expect_kw p "offset";
            let off = expect_i64 p in
            expect_rp p;
            expect_kw p "func";
            let rec idxs acc =
              match peek_tok p with
              | Some (Atom a) when is_int_atom a ->
                  ignore (next_tok p);
                  idxs (int_of_atom a :: acc)
              | _ -> List.rev acc
            in
            let fs = idxs [] in
            expect_rp p;
            elems := { Ast.e_offset = off; e_funcs = fs } :: !elems
        | "data" ->
            expect_lp p;
            expect_kw p "offset";
            let off = expect_i64 p in
            expect_rp p;
            let bytes =
              match next_tok p with Str s -> s | _ -> perr "data bytes"
            in
            expect_rp p;
            datas := { Ast.d_offset = off; d_bytes = bytes } :: !datas
        | "export" ->
            let name =
              match next_tok p with Str s -> s | _ -> perr "export name"
            in
            expect_lp p;
            let kind = expect_atom p in
            let idx = expect_int p in
            expect_rp p;
            expect_rp p;
            let desc =
              match kind with
              | "func" -> Ast.Func_export idx
              | "memory" -> Ast.Mem_export idx
              | k -> perr "unsupported export kind %s" k
            in
            exports := { Ast.ex_name = name; ex_desc = desc } :: !exports
        | "start" ->
            let i = expect_int p in
            expect_rp p;
            m := { !m with Ast.start = Some i }
        | k -> perr "unknown module field %s" k);
        fields ()
    | _ -> perr "expected module field or )"
  in
  fields ();
  { !m with
    Ast.types = List.rev !types;
    imports = List.rev !imports;
    funcs = List.rev !funcs;
    globals = List.rev !globals;
    exports = List.rev !exports;
    elems = List.rev !elems;
    datas = List.rev !datas }
