(** Numeric operator semantics, shared by the tree-walking interpreter
    ({!Exec}) and the threaded-code engine ({!Compile}).

    Both engines must produce bit-identical results and raise the same
    traps ({!Instance.Trap} with the spec's messages), so the operator
    bodies live here exactly once. *)

let trap fmt = Format.kasprintf (fun s -> raise (Instance.Trap s)) fmt

let eval_iunop32 (op : Ast.iunop) x =
  match op with
  | Clz -> Int32.of_int (Values.clz32 x)
  | Ctz -> Int32.of_int (Values.ctz32 x)
  | Popcnt -> Int32.of_int (Values.popcnt32 x)

let eval_iunop64 (op : Ast.iunop) x =
  match op with
  | Clz -> Int64.of_int (Values.clz64 x)
  | Ctz -> Int64.of_int (Values.ctz64 x)
  | Popcnt -> Int64.of_int (Values.popcnt64 x)

let eval_ibinop32 (op : Ast.ibinop) x y =
  match op with
  | Add -> Int32.add x y
  | Sub -> Int32.sub x y
  | Mul -> Int32.mul x y
  | DivS ->
      if Int32.equal y 0l then trap "integer divide by zero"
      else if Int32.equal x Int32.min_int && Int32.equal y (-1l) then
        trap "integer overflow"
      else Int32.div x y
  | DivU ->
      if Int32.equal y 0l then trap "integer divide by zero"
      else Int32.unsigned_div x y
  | RemS ->
      if Int32.equal y 0l then trap "integer divide by zero"
      else if Int32.equal x Int32.min_int && Int32.equal y (-1l) then 0l
      else Int32.rem x y
  | RemU ->
      if Int32.equal y 0l then trap "integer divide by zero"
      else Int32.unsigned_rem x y
  | And -> Int32.logand x y
  | Or -> Int32.logor x y
  | Xor -> Int32.logxor x y
  | Shl -> Int32.shift_left x (Values.i32_shift_amount y)
  | ShrS -> Int32.shift_right x (Values.i32_shift_amount y)
  | ShrU -> Int32.shift_right_logical x (Values.i32_shift_amount y)
  | Rotl -> Values.rotl32 x y
  | Rotr -> Values.rotr32 x y

let eval_ibinop64 (op : Ast.ibinop) x y =
  match op with
  | Add -> Int64.add x y
  | Sub -> Int64.sub x y
  | Mul -> Int64.mul x y
  | DivS ->
      if Int64.equal y 0L then trap "integer divide by zero"
      else if Int64.equal x Int64.min_int && Int64.equal y (-1L) then
        trap "integer overflow"
      else Int64.div x y
  | DivU ->
      if Int64.equal y 0L then trap "integer divide by zero"
      else Int64.unsigned_div x y
  | RemS ->
      if Int64.equal y 0L then trap "integer divide by zero"
      else if Int64.equal x Int64.min_int && Int64.equal y (-1L) then 0L
      else Int64.rem x y
  | RemU ->
      if Int64.equal y 0L then trap "integer divide by zero"
      else Int64.unsigned_rem x y
  | And -> Int64.logand x y
  | Or -> Int64.logor x y
  | Xor -> Int64.logxor x y
  | Shl -> Int64.shift_left x (Values.i64_shift_amount y)
  | ShrS -> Int64.shift_right x (Values.i64_shift_amount y)
  | ShrU -> Int64.shift_right_logical x (Values.i64_shift_amount y)
  | Rotl -> Values.rotl64 x y
  | Rotr -> Values.rotr64 x y

let eval_irelop32 (op : Ast.irelop) x y =
  match op with
  | Eq -> Int32.equal x y
  | Ne -> not (Int32.equal x y)
  | LtS -> Int32.compare x y < 0
  | LtU -> Values.u32_lt x y
  | GtS -> Int32.compare x y > 0
  | GtU -> Values.u32_gt x y
  | LeS -> Int32.compare x y <= 0
  | LeU -> Values.u32_le x y
  | GeS -> Int32.compare x y >= 0
  | GeU -> Values.u32_ge x y

let eval_irelop64 (op : Ast.irelop) x y =
  match op with
  | Eq -> Int64.equal x y
  | Ne -> not (Int64.equal x y)
  | LtS -> Int64.compare x y < 0
  | LtU -> Values.u64_lt x y
  | GtS -> Int64.compare x y > 0
  | GtU -> Values.u64_gt x y
  | LeS -> Int64.compare x y <= 0
  | LeU -> Values.u64_le x y
  | GeS -> Int64.compare x y >= 0
  | GeU -> Values.u64_ge x y

let eval_funop (op : Ast.funop) x =
  match op with
  | Neg -> -.x
  | Abs -> Float.abs x
  | Ceil -> Float.ceil x
  | Floor -> Float.floor x
  | Trunc -> Float.trunc x
  | Nearest -> Float.round x (* close enough to round-to-even for our use *)
  | Sqrt -> Float.sqrt x

let eval_fbinop (op : Ast.fbinop) x y =
  match op with
  | FAdd -> x +. y
  | FSub -> x -. y
  | FMul -> x *. y
  | FDiv -> x /. y
  | FMin -> if Float.is_nan x || Float.is_nan y then Float.nan else Float.min x y
  | FMax -> if Float.is_nan x || Float.is_nan y then Float.nan else Float.max x y
  | Copysign -> Float.copy_sign x y

let eval_frelop (op : Ast.frelop) x y =
  match op with
  | FEq -> x = y
  | FNe -> x <> y
  | FLt -> x < y
  | FGt -> x > y
  | FLe -> x <= y
  | FGe -> x >= y

let trunc_to_i32 ~signed x =
  if Float.is_nan x then trap "invalid conversion to integer";
  let t = Float.trunc x in
  if signed then
    if t >= 2147483648.0 || t < -2147483648.0 then trap "integer overflow"
    else Int32.of_float t
  else if t >= 4294967296.0 || t <= -1.0 then trap "integer overflow"
  else Int64.to_int32 (Int64.of_float t)

let trunc_to_i64 ~signed x =
  if Float.is_nan x then trap "invalid conversion to integer";
  let t = Float.trunc x in
  if signed then
    if t >= 9.22337203685477581e18 || t < -9.22337203685477581e18 then
      trap "integer overflow"
    else Int64.of_float t
  else if t >= 1.8446744073709552e19 || t <= -1.0 then trap "integer overflow"
  else if t >= 9.22337203685477581e18 then
    (* wrap into the unsigned top half *)
    Int64.add Int64.min_int (Int64.of_float (t -. 9.22337203685477581e18))
  else Int64.of_float t

let u32_to_float x = Int64.to_float (Int64.logand (Int64.of_int32 x) 0xffffffffL)

let u64_to_float x =
  if Int64.compare x 0L >= 0 then Int64.to_float x
  else Int64.to_float (Int64.shift_right_logical x 1) *. 2.0

let eval_cvtop (op : Ast.cvtop) (v : Values.t) : Values.t =
  match (op, v) with
  | I32WrapI64, I64 x -> I32 (Int64.to_int32 x)
  | I64ExtendI32S, I32 x -> I64 (Int64.of_int32 x)
  | I64ExtendI32U, I32 x -> I64 (Int64.logand (Int64.of_int32 x) 0xffffffffL)
  | I32TruncF32S, F32 x | I32TruncF64S, F64 x -> I32 (trunc_to_i32 ~signed:true x)
  | I32TruncF32U, F32 x | I32TruncF64U, F64 x -> I32 (trunc_to_i32 ~signed:false x)
  | I64TruncF32S, F32 x | I64TruncF64S, F64 x -> I64 (trunc_to_i64 ~signed:true x)
  | I64TruncF32U, F32 x | I64TruncF64U, F64 x -> I64 (trunc_to_i64 ~signed:false x)
  | F32ConvertI32S, I32 x -> F32 (Values.to_f32 (Int32.to_float x))
  | F32ConvertI32U, I32 x -> F32 (Values.to_f32 (u32_to_float x))
  | F32ConvertI64S, I64 x -> F32 (Values.to_f32 (Int64.to_float x))
  | F32ConvertI64U, I64 x -> F32 (Values.to_f32 (u64_to_float x))
  | F64ConvertI32S, I32 x -> F64 (Int32.to_float x)
  | F64ConvertI32U, I32 x -> F64 (u32_to_float x)
  | F64ConvertI64S, I64 x -> F64 (Int64.to_float x)
  | F64ConvertI64U, I64 x -> F64 (u64_to_float x)
  | F32DemoteF64, F64 x -> F32 (Values.to_f32 x)
  | F64PromoteF32, F32 x -> F64 x
  | I32ReinterpretF32, F32 x -> I32 (Int32.bits_of_float x)
  | I64ReinterpretF64, F64 x -> I64 (Int64.bits_of_float x)
  | F32ReinterpretI32, I32 x -> F32 (Int32.float_of_bits x)
  | F64ReinterpretI64, I64 x -> F64 (Int64.float_of_bits x)
  | _ -> assert false (* validated: the operand has the source type *)
