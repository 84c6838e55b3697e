(** The instruction vocabulary both codecs read: every instruction that
    carries no immediate, or only a memarg, with its text mnemonic and
    its binary code. {!Text} and {!Binary} keep explicit arms only for
    the instructions with other immediates (blocks, branches, calls,
    locals, globals, constants, [segment.*]) and look every other one up
    here, so each mnemonic and opcode is written once. A load or store
    stands here with a zero memarg; the codecs read and write its memarg
    around the entry. *)

(** An optional prefix byte ([0xfc] bulk memory, [0xfb] the Cage
    extension) after which [op] is a u32 sub-opcode, the opcode, and the
    number of reserved zero bytes that trail it (the memory index of
    [memory.size], [memory.grow], [memory.fill] and [memory.copy]). *)
type code = { prefix : int option; op : int; zeros : int }

type entry = { instr : Ast.instr; name : string; code : code }

let no_memarg = { Ast.offset = 0L; align = 0 }

(** [i] carrying memarg [ma] when it is a load or store. *)
let with_memarg ma : Ast.instr -> Ast.instr = function
  | Ast.Load (t, p, _) -> Ast.Load (t, p, ma)
  | Ast.Store (t, p, _) -> Ast.Store (t, p, ma)
  | i -> i

let entry ?prefix ?(zeros = 0) op (instr, name) =
  { instr; name; code = { prefix; op; zeros } }

(* one operator class under consecutive opcodes from [base] *)
let run ?prefix base = List.mapi (fun k -> entry ?prefix (base + k))

let iunops = [ (Ast.Clz, "clz"); (Ctz, "ctz"); (Popcnt, "popcnt") ]

let ibinops =
  [ (Ast.Add, "add"); (Sub, "sub"); (Mul, "mul"); (DivS, "div_s");
    (DivU, "div_u"); (RemS, "rem_s"); (RemU, "rem_u"); (And, "and");
    (Or, "or"); (Xor, "xor"); (Shl, "shl"); (ShrS, "shr_s"); (ShrU, "shr_u");
    (Rotl, "rotl"); (Rotr, "rotr") ]

let irelops =
  [ (Ast.Eq, "eq"); (Ne, "ne"); (LtS, "lt_s"); (LtU, "lt_u"); (GtS, "gt_s");
    (GtU, "gt_u"); (LeS, "le_s"); (LeU, "le_u"); (GeS, "ge_s"); (GeU, "ge_u") ]

let funops =
  [ (Ast.Abs, "abs"); (Neg, "neg"); (Ceil, "ceil"); (Floor, "floor");
    (Trunc, "trunc"); (Nearest, "nearest"); (Sqrt, "sqrt") ]

let fbinops =
  [ (Ast.FAdd, "add"); (FSub, "sub"); (FMul, "mul"); (FDiv, "div");
    (FMin, "min"); (FMax, "max"); (Copysign, "copysign") ]

let frelops =
  [ (Ast.FEq, "eq"); (FNe, "ne"); (FLt, "lt"); (FGt, "gt"); (FLe, "le");
    (FGe, "ge") ]

let cvtops =
  [ (Ast.I32WrapI64, "i32.wrap_i64"); (I32TruncF32S, "i32.trunc_f32_s");
    (I32TruncF32U, "i32.trunc_f32_u"); (I32TruncF64S, "i32.trunc_f64_s");
    (I32TruncF64U, "i32.trunc_f64_u"); (I64ExtendI32S, "i64.extend_i32_s");
    (I64ExtendI32U, "i64.extend_i32_u"); (I64TruncF32S, "i64.trunc_f32_s");
    (I64TruncF32U, "i64.trunc_f32_u"); (I64TruncF64S, "i64.trunc_f64_s");
    (I64TruncF64U, "i64.trunc_f64_u"); (F32ConvertI32S, "f32.convert_i32_s");
    (F32ConvertI32U, "f32.convert_i32_u"); (F32ConvertI64S, "f32.convert_i64_s");
    (F32ConvertI64U, "f32.convert_i64_u"); (F32DemoteF64, "f32.demote_f64");
    (F64ConvertI32S, "f64.convert_i32_s"); (F64ConvertI32U, "f64.convert_i32_u");
    (F64ConvertI64S, "f64.convert_i64_s"); (F64ConvertI64U, "f64.convert_i64_u");
    (F64PromoteF32, "f64.promote_f32"); (I32ReinterpretF32, "i32.reinterpret_f32");
    (I64ReinterpretF64, "i64.reinterpret_f64");
    (F32ReinterpretI32, "f32.reinterpret_i32");
    (F64ReinterpretI64, "f64.reinterpret_i64") ]

let loads =
  Types.
    [ (I32, None, "i32.load"); (I64, None, "i64.load"); (F32, None, "f32.load");
      (F64, None, "f64.load"); (I32, Some (Ast.Pack8, Ast.SX), "i32.load8_s");
      (I32, Some (Pack8, ZX), "i32.load8_u"); (I32, Some (Pack16, SX), "i32.load16_s");
      (I32, Some (Pack16, ZX), "i32.load16_u"); (I64, Some (Pack8, SX), "i64.load8_s");
      (I64, Some (Pack8, ZX), "i64.load8_u"); (I64, Some (Pack16, SX), "i64.load16_s");
      (I64, Some (Pack16, ZX), "i64.load16_u"); (I64, Some (Pack32, SX), "i64.load32_s");
      (I64, Some (Pack32, ZX), "i64.load32_u") ]

let stores =
  Types.
    [ (I32, None, "i32.store"); (I64, None, "i64.store"); (F32, None, "f32.store");
      (F64, None, "f64.store"); (I32, Some Ast.Pack8, "i32.store8");
      (I32, Some Pack16, "i32.store16"); (I64, Some Pack8, "i64.store8");
      (I64, Some Pack16, "i64.store16"); (I64, Some Pack32, "i64.store32") ]

(* one width's numeric operators: [eqz] and the integer comparisons from
   [icmp], the float comparisons from [fcmp], the integer unary and
   binary operators from [iarith] and the float ones from [farith] *)
let numeric w (i, f) (icmp, fcmp, iarith, farith) =
  let cls ty mk = List.map (fun (op, n) -> (mk op, ty ^ "." ^ n)) in
  run icmp ((Ast.ITestop w, i ^ ".eqz") :: cls i (fun o -> Ast.IRelop (w, o)) irelops)
  @ run fcmp (cls f (fun o -> Ast.FRelop (w, o)) frelops)
  @ run iarith
      (cls i (fun o -> Ast.IUnop (w, o)) iunops
      @ cls i (fun o -> Ast.IBinop (w, o)) ibinops)
  @ run farith
      (cls f (fun o -> Ast.FUnop (w, o)) funops
      @ cls f (fun o -> Ast.FBinop (w, o)) fbinops)

(** Every entry, each instruction, mnemonic and code once. *)
let all =
  run 0x00 [ (Ast.Unreachable, "unreachable"); (Nop, "nop") ]
  @ [ entry 0x0f (Ast.Return, "return") ]
  @ run 0x1a [ (Ast.Drop, "drop"); (Select, "select") ]
  @ run 0x28 (List.map (fun (t, p, n) -> (Ast.Load (t, p, no_memarg), n)) loads)
  @ run 0x36 (List.map (fun (t, p, n) -> (Ast.Store (t, p, no_memarg), n)) stores)
  @ [ entry ~zeros:1 0x3f (Ast.MemorySize, "memory.size");
      entry ~zeros:1 0x40 (Ast.MemoryGrow, "memory.grow") ]
  @ numeric Ast.W32 ("i32", "f32") (0x45, 0x5b, 0x67, 0x8b)
  @ numeric Ast.W64 ("i64", "f64") (0x50, 0x61, 0x79, 0x99)
  @ run 0xa7 (List.map (fun (c, n) -> (Ast.Cvtop c, n)) cvtops)
  @ run ~prefix:0xfb 0x04 [ (Ast.PointerSign, "i64.pointer_sign"); (PointerAuth, "i64.pointer_auth") ]
  @ [ entry ~prefix:0xfc ~zeros:2 0x0a (Ast.MemoryCopy, "memory.copy");
      entry ~prefix:0xfc ~zeros:1 0x0b (Ast.MemoryFill, "memory.fill") ]

let by_instr = Hashtbl.create 256
let by_name = Hashtbl.create 256
let by_code = Hashtbl.create 256

let () =
  List.iter
    (fun e ->
      Hashtbl.replace by_instr e.instr e;
      Hashtbl.replace by_name e.name e;
      Hashtbl.replace by_code (e.code.prefix, e.code.op) e)
    all

(** The entry of [i], whatever its memarg.
    @raise Invalid_argument when [i] carries another immediate, or is a
    packed load or store no format encodes ([i32.load32_s], [f32.store8]). *)
let find i =
  match Hashtbl.find_opt by_instr (with_memarg no_memarg i) with
  | Some e -> e
  | None -> invalid_arg "Opcode.find: no mnemonic or code for this instruction"

let of_name = Hashtbl.find_opt by_name
let of_code prefix op = Hashtbl.find_opt by_code (prefix, op)
