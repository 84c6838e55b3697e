(** WebAssembly binary format: encoder and decoder.

    Follows the wasm core binary format (LEB128 integers, sections in
    index order) plus the memory64 limits flag (bit 2) for 64-bit
    memories and the Cage extension under the reserved [0xfb] prefix
    (sub-opcodes 1-5, listed in binary.mli), mirroring how the
    artifact's wasm-tools fork reserves an unused prefix. The opcode of
    every instruction with no immediate but a memarg comes from
    {!Opcode}. *)

exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Encoder primitives                                                  *)
(* ------------------------------------------------------------------ *)

module E = struct
  let byte b v = Buffer.add_char b (Char.chr (v land 0xff))

  let rec u64 b (v : int64) =
    let low = Int64.to_int (Int64.logand v 0x7fL) in
    let rest = Int64.shift_right_logical v 7 in
    if Int64.equal rest 0L then byte b low
    else begin
      byte b (low lor 0x80);
      u64 b rest
    end

  let u32 b v = u64 b (Int64.logand (Int64.of_int v) 0xffffffffL)

  let rec s64 b (v : int64) =
    let low = Int64.to_int (Int64.logand v 0x7fL) in
    let rest = Int64.shift_right v 7 in
    let done_ =
      (Int64.equal rest 0L && low land 0x40 = 0)
      || (Int64.equal rest (-1L) && low land 0x40 <> 0)
    in
    if done_ then byte b low
    else begin
      byte b (low lor 0x80);
      s64 b rest
    end

  let s32 b (v : int32) = s64 b (Int64.of_int32 v)

  let f32 b v =
    let bits = Int32.bits_of_float v in
    for i = 0 to 3 do
      byte b (Int32.to_int (Int32.shift_right_logical bits (8 * i)) land 0xff)
    done

  let f64 b v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      byte b (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

  let name b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let vec b f xs =
    u32 b (List.length xs);
    List.iter (f b) xs

  (* a section: id byte + size-prefixed payload *)
  let section b id payload =
    if Buffer.length payload > 0 then begin
      byte b id;
      u32 b (Buffer.length payload);
      Buffer.add_buffer b payload
    end
end

let val_type_byte : Types.val_type -> int = function
  | Types.I32 -> 0x7f
  | Types.I64 -> 0x7e
  | Types.F32 -> 0x7d
  | Types.F64 -> 0x7c

let encode_val_type b t = E.byte b (val_type_byte t)

let encode_limits b (l : Types.limits) ~mem64 =
  let flags =
    (match l.max with Some _ -> 1 | None -> 0)
    lor if mem64 then 4 else 0
  in
  E.byte b flags;
  E.u64 b l.min;
  Option.iter (E.u64 b) l.max

let encode_block_type b : Ast.block_type -> unit = function
  | Ast.ValBlock None -> E.byte b 0x40
  | Ast.ValBlock (Some t) -> encode_val_type b t

let encode_memarg b (ma : Ast.memarg) =
  E.u32 b ma.align;
  E.u64 b ma.offset

let rec encode_instr b (ins : Ast.instr) =
  match ins with
  | Block (bt, body) ->
      E.byte b 0x02;
      encode_block_type b bt;
      List.iter (encode_instr b) body;
      E.byte b 0x0b
  | Loop (bt, body) ->
      E.byte b 0x03;
      encode_block_type b bt;
      List.iter (encode_instr b) body;
      E.byte b 0x0b
  | If (bt, then_, else_) ->
      E.byte b 0x04;
      encode_block_type b bt;
      List.iter (encode_instr b) then_;
      if else_ <> [] then begin
        E.byte b 0x05;
        List.iter (encode_instr b) else_
      end;
      E.byte b 0x0b
  | Br n -> E.byte b 0x0c; E.u32 b n
  | BrIf n -> E.byte b 0x0d; E.u32 b n
  | BrTable (targets, default) ->
      E.byte b 0x0e;
      E.vec b (fun b n -> E.u32 b n) targets;
      E.u32 b default
  | Call i -> E.byte b 0x10; E.u32 b i
  | CallIndirect ti ->
      E.byte b 0x11;
      E.u32 b ti;
      E.byte b 0x00
  | LocalGet i -> E.byte b 0x20; E.u32 b i
  | LocalSet i -> E.byte b 0x21; E.u32 b i
  | LocalTee i -> E.byte b 0x22; E.u32 b i
  | GlobalGet i -> E.byte b 0x23; E.u32 b i
  | GlobalSet i -> E.byte b 0x24; E.u32 b i
  | I32Const v -> E.byte b 0x41; E.s32 b v
  | I64Const v -> E.byte b 0x42; E.s64 b v
  | F32Const v -> E.byte b 0x43; E.f32 b v
  | F64Const v -> E.byte b 0x44; E.f64 b v
  (* Cage extension: 0xfb prefix *)
  | SegmentNew o -> E.byte b 0xfb; E.u32 b 0x01; E.u64 b o
  | SegmentSetTag o -> E.byte b 0xfb; E.u32 b 0x02; E.u64 b o
  | SegmentFree o -> E.byte b 0xfb; E.u32 b 0x03; E.u64 b o
  | ins ->
      let { Opcode.prefix; op; zeros } = (Opcode.find ins).code in
      (match prefix with None -> E.byte b op | Some p -> E.byte b p; E.u32 b op);
      for _ = 1 to zeros do E.byte b 0x00 done;
      (match ins with Load (_, _, ma) | Store (_, _, ma) -> encode_memarg b ma | _ -> ())

let encode_func_type b (ft : Types.func_type) =
  E.byte b 0x60;
  E.vec b encode_val_type ft.params;
  E.vec b encode_val_type ft.results

(* group consecutive equal local types into (count, type) runs *)
let local_runs locals =
  List.fold_left
    (fun acc t ->
      match acc with
      | (n, t') :: rest when t' = t -> (n + 1, t') :: rest
      | _ -> (1, t) :: acc)
    [] locals
  |> List.rev

(** Encode a module to wasm binary bytes. *)
let encode (m : Ast.module_) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "\x00asm";
  Buffer.add_string b "\x01\x00\x00\x00";
  let mem64 =
    match m.memory with
    | Some mt -> mt.mem_idx = Types.Idx64
    | None -> false
  in
  (* type section *)
  let tb = Buffer.create 256 in
  E.vec tb encode_func_type m.types;
  E.section b 1 tb;
  (* import section *)
  let ib = Buffer.create 256 in
  if m.imports <> [] then begin
    E.vec ib
      (fun b (im : Ast.import) ->
        E.name b im.im_module;
        E.name b im.im_name;
        E.byte b 0x00;
        E.u32 b im.im_type)
      m.imports;
    E.section b 2 ib
  end;
  (* function section *)
  let fb = Buffer.create 256 in
  if m.funcs <> [] then begin
    E.vec fb (fun b (f : Ast.func) -> E.u32 b f.ftype) m.funcs;
    E.section b 3 fb
  end;
  (* table section *)
  (match m.table with
  | None -> ()
  | Some tt ->
      let tb = Buffer.create 16 in
      E.u32 tb 1;
      E.byte tb 0x70;
      encode_limits tb tt.tbl_limits ~mem64:false;
      E.section b 4 tb);
  (* memory section *)
  (match m.memory with
  | None -> ()
  | Some mt ->
      let mb = Buffer.create 16 in
      E.u32 mb 1;
      encode_limits mb mt.mem_limits ~mem64;
      E.section b 5 mb);
  (* global section *)
  if m.globals <> [] then begin
    let gb = Buffer.create 64 in
    E.vec gb
      (fun b (g : Ast.global) ->
        encode_val_type b g.g_type.Types.g_type;
        E.byte b (if g.g_type.Types.mut then 0x01 else 0x00);
        (match g.g_init with
        | Values.I32 v -> encode_instr b (Ast.I32Const v)
        | Values.I64 v -> encode_instr b (Ast.I64Const v)
        | Values.F32 v -> encode_instr b (Ast.F32Const v)
        | Values.F64 v -> encode_instr b (Ast.F64Const v));
        E.byte b 0x0b)
      m.globals;
    E.section b 6 gb
  end;
  (* export section *)
  if m.exports <> [] then begin
    let eb = Buffer.create 256 in
    E.vec eb
      (fun b (ex : Ast.export) ->
        E.name b ex.ex_name;
        match ex.ex_desc with
        | Ast.Func_export i ->
            E.byte b 0x00;
            E.u32 b i
        | Ast.Mem_export i ->
            E.byte b 0x02;
            E.u32 b i)
      m.exports;
    E.section b 7 eb
  end;
  (* start section *)
  (match m.start with
  | None -> ()
  | Some i ->
      let sb = Buffer.create 8 in
      E.u32 sb i;
      E.section b 8 sb);
  (* element section *)
  if m.elems <> [] then begin
    let eb = Buffer.create 256 in
    E.vec eb
      (fun b (e : Ast.elem) ->
        E.u32 b 0;
        encode_instr b (Ast.I32Const (Int64.to_int32 e.e_offset));
        E.byte b 0x0b;
        E.vec b (fun b i -> E.u32 b i) e.e_funcs)
      m.elems;
    E.section b 9 eb
  end;
  (* code section *)
  if m.funcs <> [] then begin
    let cb = Buffer.create 4096 in
    E.vec cb
      (fun b (f : Ast.func) ->
        let body = Buffer.create 256 in
        E.vec body
          (fun b (n, t) ->
            E.u32 b n;
            encode_val_type b t)
          (local_runs f.locals);
        List.iter (encode_instr body) f.body;
        E.byte body 0x0b;
        E.u32 b (Buffer.length body);
        Buffer.add_buffer b body)
      m.funcs;
    E.section b 10 cb
  end;
  (* data section *)
  if m.datas <> [] then begin
    let db = Buffer.create 4096 in
    E.vec db
      (fun b (d : Ast.data) ->
        E.u32 b 0;
        (if mem64 then encode_instr b (Ast.I64Const d.d_offset)
         else encode_instr b (Ast.I32Const (Int64.to_int32 d.d_offset)));
        E.byte b 0x0b;
        E.u32 b (String.length d.d_bytes);
        Buffer.add_string b d.d_bytes)
      m.datas;
    E.section b 11 db
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

module D = struct
  type t = { src : string; mutable pos : int }

  let make src = { src; pos = 0 }
  let eof d = d.pos >= String.length d.src

  let byte d =
    if eof d then fail "unexpected end of input";
    let c = Char.code d.src.[d.pos] in
    d.pos <- d.pos + 1;
    c

  let peek d =
    if eof d then fail "unexpected end of input";
    Char.code d.src.[d.pos]

  let u64 d =
    let rec go shift acc =
      let b = byte d in
      let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    go 0 0L

  let u32 d =
    let v = u64 d in
    if Int64.unsigned_compare v 0xffff_ffffL > 0 then fail "u32 out of range: %Lu" v;
    Int64.to_int v

  let s64 d =
    let rec go shift acc =
      let b = byte d in
      let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc
      else if shift + 7 < 64 && b land 0x40 <> 0 then
        (* sign-extend *)
        Int64.logor acc (Int64.shift_left (-1L) (shift + 7))
      else acc
    in
    go 0 0L

  let s32 d = Int64.to_int32 (s64 d)

  let f32 d =
    let bits = ref 0l in
    for i = 0 to 3 do
      bits := Int32.logor !bits (Int32.shift_left (Int32.of_int (byte d)) (8 * i))
    done;
    Int32.float_of_bits !bits

  let f64 d =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte d)) (8 * i))
    done;
    Int64.float_of_bits !bits

  (* a size or count read from the input: more than the bytes left is
     malformed, as every entry of a vector takes at least one *)
  let size d what =
    let n = u32 d in
    if n > String.length d.src - d.pos then fail "%s of %d exceeds the input" what n;
    n

  let bytes d n =
    let s = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    s

  let name d = bytes d (size d "name")
  let vec d f = List.init (size d "vector") (fun _ -> f d)
end

(* the most locals a function may declare, as in wasmtime, so that a few
   bytes cannot ask for an unbounded list *)
let max_locals = 50_000

let decode_val_type d : Types.val_type =
  match D.byte d with
  | 0x7f -> Types.I32
  | 0x7e -> Types.I64
  | 0x7d -> Types.F32
  | 0x7c -> Types.F64
  | b -> fail "unknown value type 0x%02x" b

let decode_limits d : Types.limits * bool =
  let flags = D.byte d in
  let mem64 = flags land 4 <> 0 in
  let min = D.u64 d in
  let max = if flags land 1 <> 0 then Some (D.u64 d) else None in
  ({ Types.min; max }, mem64)

let decode_block_type d : Ast.block_type =
  match D.peek d with
  | 0x40 ->
      ignore (D.byte d);
      Ast.ValBlock None
  | _ -> Ast.ValBlock (Some (decode_val_type d))

let decode_memarg d : Ast.memarg =
  let align = D.u32 d in
  let offset = D.u64 d in
  { Ast.align; offset }

(* an instruction with no immediate but a memarg, by its code *)
let table_instr d prefix op =
  match Opcode.of_code prefix op with
  | None -> (
      match prefix with
      | None -> fail "unknown opcode 0x%02x" op
      | Some p -> fail "unknown 0x%02x sub-opcode %d" p op)
  | Some e -> (
      for _ = 1 to e.code.zeros do ignore (D.byte d) done;
      match e.instr with
      | Load _ | Store _ -> Opcode.with_memarg (decode_memarg d) e.instr
      | i -> i)

(* Decode instructions until one of the [stops] bytes; the stop byte is
   consumed and returned. *)
let rec decode_instrs d ~stops =
  let rec go acc =
    let op = D.peek d in
    if List.mem op stops then begin
      ignore (D.byte d);
      (List.rev acc, op)
    end
    else go (decode_instr d :: acc)
  in
  go []

and decode_instr d : Ast.instr =
  let op = D.byte d in
  match op with
  | 0x02 ->
      let bt = decode_block_type d in
      let body, _ = decode_instrs d ~stops:[ 0x0b ] in
      Ast.Block (bt, body)
  | 0x03 ->
      let bt = decode_block_type d in
      let body, _ = decode_instrs d ~stops:[ 0x0b ] in
      Ast.Loop (bt, body)
  | 0x04 ->
      let bt = decode_block_type d in
      let then_, stop = decode_instrs d ~stops:[ 0x0b; 0x05 ] in
      let else_ =
        if stop = 0x05 then fst (decode_instrs d ~stops:[ 0x0b ]) else []
      in
      Ast.If (bt, then_, else_)
  | 0x0c -> Ast.Br (D.u32 d)
  | 0x0d -> Ast.BrIf (D.u32 d)
  | 0x0e ->
      let targets = D.vec d D.u32 in
      let default = D.u32 d in
      Ast.BrTable (targets, default)
  | 0x10 -> Ast.Call (D.u32 d)
  | 0x11 ->
      let ti = D.u32 d in
      let tbl = D.byte d in
      if tbl <> 0 then fail "call_indirect: non-zero table";
      Ast.CallIndirect ti
  | 0x20 -> Ast.LocalGet (D.u32 d)
  | 0x21 -> Ast.LocalSet (D.u32 d)
  | 0x22 -> Ast.LocalTee (D.u32 d)
  | 0x23 -> Ast.GlobalGet (D.u32 d)
  | 0x24 -> Ast.GlobalSet (D.u32 d)
  | 0x41 -> Ast.I32Const (D.s32 d)
  | 0x42 -> Ast.I64Const (D.s64 d)
  | 0x43 -> Ast.F32Const (D.f32 d)
  | 0x44 -> Ast.F64Const (D.f64 d)
  | 0xfb -> (
      (* the Cage extension prefix *)
      match D.u32 d with
      | 0x01 -> Ast.SegmentNew (D.u64 d)
      | 0x02 -> Ast.SegmentSetTag (D.u64 d)
      | 0x03 -> Ast.SegmentFree (D.u64 d)
      | sub -> table_instr d (Some 0xfb) sub)
  | 0xfc -> table_instr d (Some 0xfc) (D.u32 d)
  | op -> table_instr d None op

let decode_func_type d : Types.func_type =
  (match D.byte d with
  | 0x60 -> ()
  | b -> fail "expected functype (0x60), got 0x%02x" b);
  let params = D.vec d decode_val_type in
  let results = D.vec d decode_val_type in
  { Types.params; results }

let decode_const_expr d =
  let instrs, _ = decode_instrs d ~stops:[ 0x0b ] in
  match instrs with
  | [ Ast.I32Const v ] -> Values.I32 v
  | [ Ast.I64Const v ] -> Values.I64 v
  | [ Ast.F32Const v ] -> Values.F32 v
  | [ Ast.F64Const v ] -> Values.F64 v
  | _ -> fail "unsupported constant expression"

(** Decode a wasm binary into a module. *)
let decode (bytes : string) : Ast.module_ =
  let d = D.make bytes in
  if String.length bytes < 8 then fail "input too short";
  if String.sub bytes 0 4 <> "\x00asm" then fail "bad magic";
  if String.sub bytes 4 4 <> "\x01\x00\x00\x00" then fail "bad version";
  d.D.pos <- 8;
  let m = ref Ast.empty_module in
  let func_types = ref [] in
  let bodies = ref [] in
  while not (D.eof d) do
    let id = D.byte d in
    let size = D.size d "section" in
    let section_end = d.D.pos + size in
    (match id with
    | 0 ->
        (* custom section: skip *)
        d.D.pos <- section_end
    | 1 -> m := { !m with types = D.vec d decode_func_type }
    | 2 ->
        m :=
          { !m with
            imports =
              D.vec d (fun d ->
                  let im_module = D.name d in
                  let im_name = D.name d in
                  (match D.byte d with
                  | 0x00 -> ()
                  | k -> fail "unsupported import kind %d" k);
                  { Ast.im_module; im_name; im_type = D.u32 d }) }
    | 3 -> func_types := D.vec d D.u32
    | 4 ->
        let tables =
          D.vec d (fun d ->
              (match D.byte d with
              | 0x70 -> ()
              | b -> fail "expected funcref table, got 0x%02x" b);
              let lim, _ = decode_limits d in
              { Types.tbl_limits = lim })
        in
        m := { !m with table = List.nth_opt tables 0 }
    | 5 ->
        let mems =
          D.vec d (fun d ->
              let lim, mem64 = decode_limits d in
              { Types.mem_idx = (if mem64 then Types.Idx64 else Types.Idx32);
                mem_limits = lim })
        in
        m := { !m with memory = List.nth_opt mems 0 }
    | 6 ->
        m :=
          { !m with
            globals =
              D.vec d (fun d ->
                  let g_type = decode_val_type d in
                  let mut = D.byte d = 0x01 in
                  let g_init = decode_const_expr d in
                  { Ast.g_type = { Types.mut; g_type }; g_init }) }
    | 7 ->
        m :=
          { !m with
            exports =
              D.vec d (fun d ->
                  let ex_name = D.name d in
                  let kind = D.byte d in
                  let idx = D.u32 d in
                  let ex_desc =
                    match kind with
                    | 0x00 -> Ast.Func_export idx
                    | 0x02 -> Ast.Mem_export idx
                    | k -> fail "unsupported export kind %d" k
                  in
                  { Ast.ex_name; ex_desc }) }
    | 8 -> m := { !m with start = Some (D.u32 d) }
    | 9 ->
        m :=
          { !m with
            elems =
              D.vec d (fun d ->
                  (match D.u32 d with
                  | 0 -> ()
                  | f -> fail "unsupported element flags %d" f);
                  let offset =
                    match decode_const_expr d with
                    | Values.I32 v -> Int64.of_int32 v
                    | Values.I64 v -> v
                    | _ -> fail "bad element offset"
                  in
                  { Ast.e_offset = offset; e_funcs = D.vec d D.u32 }) }
    | 10 ->
        bodies :=
          D.vec d (fun d ->
              let size = D.size d "function body" in
              let body_end = d.D.pos + size in
              let runs =
                D.vec d (fun d ->
                    let n = D.u32 d in
                    (n, decode_val_type d))
              in
              if List.fold_left (fun k (n, _) -> k + n) 0 runs > max_locals then
                fail "a function declares more than %d locals" max_locals;
              let locals = List.concat_map (fun (n, t) -> List.init n (fun _ -> t)) runs in
              let body, _ = decode_instrs d ~stops:[ 0x0b ] in
              if d.D.pos <> body_end then
                fail "function body: decoded %d bytes, declared %d"
                  (d.D.pos - (body_end - size)) size;
              (locals, body))
    | 11 ->
        m :=
          { !m with
            datas =
              D.vec d (fun d ->
                  (match D.u32 d with
                  | 0 -> ()
                  | f -> fail "unsupported data flags %d" f);
                  let offset =
                    match decode_const_expr d with
                    | Values.I32 v ->
                        Int64.logand (Int64.of_int32 v) 0xffffffffL
                    | Values.I64 v -> v
                    | _ -> fail "bad data offset"
                  in
                  let s = D.bytes d (D.size d "data segment") in
                  { Ast.d_offset = offset; d_bytes = s }) }
    | id -> fail "unknown section id %d" id);
    if d.D.pos <> section_end then
      fail "section %d: decoded %d bytes, declared %d" id
        (d.D.pos - (section_end - size))
        size
  done;
  if List.compare_lengths !func_types !bodies <> 0 then
    fail "%d function types but %d bodies" (List.length !func_types)
      (List.length !bodies);
  let funcs =
    List.map2
      (fun ftype (locals, body) ->
        { Ast.ftype; locals; body; fname = None })
      !func_types !bodies
  in
  { !m with funcs }

(** Encode then write to a file. *)
let write_file path m =
  let oc = open_out_bin path in
  output_string oc (encode m);
  close_out oc

(** Read and decode a file. *)
let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  decode s
