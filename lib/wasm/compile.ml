(** The threaded-code compiler: lowers a prepared function body
    ({!Code.func}) into the flat op array of {!Xcode}.

    The contract is {e bit-identical observable behaviour} with the
    tree-walking interpreter ({!Exec}): same results, same trap messages
    (same prefix taxonomy), same meter totals, same obs event streams
    and tick counts, same chaos-engine draw sequence, same deferred
    fault synchronization points. Everything the two engines share
    semantically lives in {!Rt}, {!Checked} and {!Numerics}; this module
    only decides {e when} those are called and bakes every decision that
    the interpreter re-derives per execution — operand slots, branch
    targets, elision bits, numeric specialisations — into closure
    environments at instantiation time. The one exception is the
    operator table, which restates {!Numerics}' bodies on unboxed
    values, because a call across the module boundary boxes its [int64]
    and [float] operands and result (see "The operator table");
    [Numerics] stays the interpreter's, and the engine tests hold the
    two to identical results.

    {2 Lowering is total}

    {!Exec.instantiate} validates every module before it lowers it, so
    the compiler never meets an ill-typed body: operand types, label
    indices and stack heights are guaranteed, and it tracks only the
    static operand-stack {e height}, which fixes every slot index.
    Every function of a [Threaded] instance is compiled; there is no
    per-function interpreter fallback.

    {2 Three shared pieces}

    Every op is a one-argument closure [fun st -> ...; next] whose
    successor index [next] is bound when the op is emitted. Memory
    accesses go through one access path ({!load}/{!store}), and
    arithmetic through one operator table ({!i32_binop_m}, {!f_binop_m},
    ...), shared by singleton and fused ops. Both are closed [@inline]
    functions: without flambda, a flag or operator an op captures is
    tested on every execution, while a literal argument to an inlined
    closed function is folded away. The access path therefore
    takes its address width and check policy as literals, picked by one
    emit-time [match]; operators stay captured and cost one switch.

    {2 Branches are jumps}

    A branch to a block carries the label's values to the block's entry
    height, dropping any operands the body left below them (the spec's
    semantics, which the interpreter implements by restoring its entry
    stack). When nothing lies below the carried values — the shape every
    branch in compiled MiniC has — the branch moves no values and
    compiles to a bare [fun _ -> target]; otherwise it blits the top
    [arity] slots down first. Loop labels carry nothing, and [return] is
    a branch to the function label, whose entry height is the operand
    base. *)

open Xcode

(* ------------------------------------------------------------------ *)
(* Runtime helpers shared by the emitted closures                      *)
(* ------------------------------------------------------------------ *)

let[@inline] gm (inst : Instance.t) =
  match inst.mem with Some m -> m | None -> assert false

(* A slot's raw 64 bits move through a [Bytes.t] view of the slot
   [float array], one inline 8-byte load or store each. OCaml 5.1 has no
   inline float/int64 bit-cast: [Int64.bits_of_float] and
   [Int64.float_of_bits] each call a C stub on the C stack. So every
   integer operand, result and address goes through [get64]/[set64], as
   does every i64, f64 and packed load and store, which copies bits
   between linear memory and the slot. Float arithmetic reads and writes
   the float array itself; only f32 rounding and the conversions keep a
   C cast (see {!Xcode}'s "Value slots").

   The view is sound on two counts. A float array is one flat block of
   unboxed doubles ([Obj.double_array_tag], checked below at
   initialisation, so a compiler without flat float arrays fails loudly
   instead of misreading slots), so byte [8i] of the view is slot [i].
   And ocamlopt drops every available load at each store, so a float
   read after a view write (or a view read after a float write) always
   loads the slot afresh. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get64 (stk : float array) i = get64u (Obj.magic stk : Bytes.t) (i lsl 3)
let[@inline] set64 (stk : float array) i v = set64u (Obj.magic stk : Bytes.t) (i lsl 3) v

let () =
  if Obj.tag (Obj.repr (Array.make 1 0.0)) <> Obj.double_array_tag then
    failwith "Compile: the slot store needs flat float arrays"

(* i32 values travel as sign-extended native ints inside hot ops: the
   slot already holds the sign-extended 64-bit pattern, so decode is a
   truncation and encode a widening — no Int32 boxing on the ALU path. *)
let[@inline] geti stk i = Int64.to_int (get64 stk i)
let[@inline] seti stk i v = set64 stk i (Int64.of_int v)
let[@inline] setb stk i b = seti stk i (Bool.to_int b)

(* Sign-extend from bit 31 on a 63-bit native int. *)
let[@inline] norm32 v = (v lsl 31) asr 31
let mask32 = 0xffffffff

(* Inline guards for the per-op observability tick: the uninstrumented
   hot path pays one load-and-compare; the out-of-line call happens
   only with a sink installed. Identical behaviour — [Rt.obs_tick]
   with no hook is a no-op. *)
let[@inline] tick inst = if !Obs.Hook.hook != None then Rt.obs_tick inst
let[@inline] tick_n inst n = if !Obs.Hook.hook != None then Rt.obs_tick_n inst n

(* [Rt.meter_br] against the baked meter: fuel first, then the branch
   counter, exactly the interpreter's order. *)
let[@inline] meter_br (m : Meter.t) inst =
  Rt.burn_fuel inst;
  m.branch <- m.branch + 1

(* Where an access op finds its operands and leaves its result: an
   operand-stack slot (relative to [opbase]) or a local (relative to
   [base]), decided at compile time and resolved to an absolute slot
   index by an inline match on a closure constant, so the access reads
   and writes the slot itself and no value crosses a closure call. *)
type slotref = Sop of int | Sloc of int

let[@inline] slot (st : Instance.t Xcode.state) (r : slotref) =
  match r with Sop h -> st.opbase + h | Sloc i -> st.base + i

(* ------------------------------------------------------------------ *)
(* The access path                                                     *)
(* ------------------------------------------------------------------ *)

(* Width/type specialisation of scalar accesses, matched inside the op
   on a compile-time constant: branch-predicted and fully unboxed.
   [Lk_pack (n, signed)] loads [n] bytes and extends; a packed i32
   load's slot pattern coincides with the i64 one (both are the
   sign-extended-or-zero-extended value), and (i32, Pack32) reduces to
   the plain i32 load, so no separate 32-bit normalisation arm is
   needed. *)
type lkind = Lk_i32 | Lk_i64 | Lk_f32 | Lk_f64 | Lk_pack of int * bool
type skind = Sk_i32 | Sk_i64 | Sk_f32 | Sk_f64 | Sk_pack of int

(* The raw accesses, on the committed prefix [mem.data]. They use the
   stdlib [Bytes] primitives, which inline here: nothing on the access
   path may pass or return an [int64] or a [float] across a module
   boundary, because under dune's [-opaque] (and without flambda) every
   such call stays out of line and boxes. The primitives keep their own
   range test, raising [Invalid_argument] past the prefix. Each reads
   [mem.data] afresh, since {!reach} may replace it. A load writes slot
   [i] of [stk] and a store reads it, so an i64 or f64 access copies
   its eight bytes without a cast. A store marks the 4 KiB chunk its
   first byte lies in only after its range-checked write, the rule
   every {!Memory} write follows: a store that would leave the buffer
   has raised, so the mark is in range. *)
let[@inline] do_load (k : lkind) (mem : Memory.t) a stk i =
  let b = mem.Memory.data in
  match k with
  | Lk_i32 | Lk_pack (4, true) -> seti stk i (Int32.to_int (Bytes.get_int32_le b a))
  | Lk_i64 | Lk_f64 -> set64 stk i (Bytes.get_int64_le b a)
  | Lk_f32 -> Array.unsafe_set stk i (Int32.float_of_bits (Bytes.get_int32_le b a))
  | Lk_pack (1, true) -> seti stk i ((Bytes.get_uint8 b a lsl 55) asr 55)
  | Lk_pack (1, false) -> seti stk i (Bytes.get_uint8 b a)
  | Lk_pack (2, true) -> seti stk i ((Bytes.get_uint16_le b a lsl 47) asr 47)
  | Lk_pack (2, false) -> seti stk i (Bytes.get_uint16_le b a)
  | Lk_pack (4, false) -> seti stk i (Int32.to_int (Bytes.get_int32_le b a) land mask32)
  | Lk_pack _ -> assert false

let[@inline] do_store (k : skind) (mem : Memory.t) a stk i : unit =
  let b = mem.Memory.data in
  (match k with
  | Sk_i32 | Sk_pack 4 -> Bytes.set_int32_le b a (Int32.of_int (geti stk i))
  | Sk_i64 | Sk_f64 -> Bytes.set_int64_le b a (get64 stk i)
  | Sk_f32 -> Bytes.set_int32_le b a (Int32.bits_of_float (Array.unsafe_get stk i))
  | Sk_pack 1 -> Bytes.set_uint8 b a (geti stk i land 0xff)
  | Sk_pack 2 -> Bytes.set_uint16_le b a (geti stk i land 0xffff)
  | Sk_pack _ -> assert false);
  Bytes.unsafe_set mem.Memory.dirty (a lsr Memory.chunk_bits) '\001'

(* Native-int i64 address resolution, packed as [addr lor (tag lsl 50)]
   in one int so the hot path allocates nothing (a 48-bit address plus
   a compile-time-bounded offset stays below bit 50). [pack64] is
   [Checked.resolve_addr_i64]'s non-canonical trap and address/tag
   split, the tag taken straight from the pointer's bits. *)
let tag_addr_mask = (1 lsl 50) - 1

let[@inline] pack64 (p : int64) (off : int) : int =
  let b = Int64.to_int p in
  if b land 0x00ff_0000_0000_0000 <> 0 then
    Rt.trap "bounds: non-canonical address 0x%Lx" p;
  ((b land 0xffff_ffff_ffff) + off) lor (((b lsr 56) land 0xf) lsl 50)

(* On an armed instance: [Checked.resolve_addr_i64]'s draws and
   corruptions first. It reads its own slot, since an [int64] passed to
   an out-of-line call would be boxed; beyond what a [draw] that rolls
   the lane's PRNG allocates, it allocates only when one fires. *)
let resolve64_chaos ln (st : Instance.t Xcode.state) src (off : int) : int =
  let p = get64 st.stk (slot st src) in
  if Arch.Fault_inject.draw ln Arch.Fault_inject.Ptr_sig then
    pack64 (Checked.corrupt_sig ln p) off
  else if Arch.Fault_inject.draw ln Arch.Fault_inject.Ptr_tag then
    pack64 (Checked.corrupt_tag ln p) off
  else pack64 p off

let[@inline] resolve64p (st : Instance.t Xcode.state) src (off : int) : int =
  match st.inst.chaos with
  | None -> pack64 (get64 st.stk (slot st src)) off
  | Some ln -> resolve64_chaos ln st src off

let oob () = Rt.trap "bounds: out of bounds memory access"

(* The slow path of an access whose span ends past the committed
   prefix: commit through [n], or trap if [n] is past the end. *)
let reach mem n = if not (Memory.reach mem n) then oob ()

let[@inline] note_tag_elided (m : Meter.t) =
  m.elided_checks <- m.elided_checks + 1;
  if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided

let[@inline] note_span_elided (m : Meter.t) =
  m.elided_bounds <- m.elided_bounds + 1;
  if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided

(* Resolve the address operand [src] plus [off] and apply the check
   policy to a [len]-byte access, in [Checked.check]'s event order; the
   result is the native effective address. [w32] selects the wasm32
   address path (zero-extend, tag zero), [te] elides the tag check and
   [be] the span check; all three must be literals at every call site,
   so that inlining folds the policy away. The single native bounds
   check [addr + len <= Bytes.length mem.data], with {!reach} deciding
   spans past the committed prefix, is equivalent to the interpreter's
   ([addr >= 0] holds by construction: a zero-extended i32 or 48-bit
   address field plus a compile-time-bounded offset), and the tag
   check runs under [enforce_tags] only. Nothing here allocates
   unless a check fails or an injection fires. *)
let[@inline] access w32 te be (m : Meter.t) (st : Instance.t Xcode.state)
    (mem : Memory.t) acc len off src =
  let pa =
    if w32 then (geti st.stk (slot st src) land mask32) + off
    else resolve64p st src off
  in
  let addr = if w32 then pa else pa land tag_addr_mask in
  if be then begin
    if te then note_tag_elided m;
    note_span_elided m
  end
  else begin
    if addr + len > Bytes.length mem.Memory.data then reach mem (addr + len);
    if te then note_tag_elided m
    else if !Obs.Hook.hook != None then Obs.Hook.span_check len
  end;
  if te then ()
  else if st.inst.enforce_tags then
    Checked.check_tags_native st.inst acc ~addr ~len
      ~tag:(if w32 then Arch.Tag.zero else Arch.Tag.of_int (pa lsr 50));
  addr

(* One scalar load or store through {!access}, metered after the
   checks. With the span check elided the raw memory primitive is still
   total (it raises past the committed prefix), so the access retries
   once behind {!reach}: an in-bounds first touch commits, and an
   analyzer bug degrades to the interpreter's own bounds trap rather
   than a crash. *)
let[@inline] load w32 te be (m : Meter.t) st len lk off src dst =
  let mem = gm st.inst in
  let addr = access w32 te be m st mem Arch.Mte.Load len off src in
  m.loads <- m.loads + 1;
  m.load_bytes <- m.load_bytes + len;
  let stk = st.stk and i = slot st dst in
  if be then
    try do_load lk mem addr stk i
    with Invalid_argument _ -> (reach mem (addr + len); do_load lk mem addr stk i)
  else do_load lk mem addr stk i

let[@inline] store w32 te be (m : Meter.t) st len sk off src vsrc =
  let mem = gm st.inst in
  let addr = access w32 te be m st mem Arch.Mte.Store len off src in
  m.stores <- m.stores + 1;
  m.store_bytes <- m.store_bytes + len;
  let stk = st.stk and i = slot st vsrc in
  if be then
    try do_store sk mem addr stk i
    with Invalid_argument _ -> (reach mem (addr + len); do_store sk mem addr stk i)
  else do_store sk mem addr stk i

(* Scalar load specialisation: (access width, width/extension kind).
   A packed i32 load's slot pattern coincides with the i64 one for
   sub-32-bit widths, and (i32, Pack32) is exactly the plain i32 load,
   so [lkind] needs no result-type dimension. *)
let load_kind (ty : Types.num_type)
    (pack : (Ast.pack_size * Ast.extension) option) : int * lkind =
  match (ty, pack) with
  | Types.I32, None -> (4, Lk_i32)
  | Types.I64, None -> (8, Lk_i64)
  | Types.F32, None -> (4, Lk_f32)
  | Types.F64, None -> (8, Lk_f64)
  | Types.I32, Some (Ast.Pack32, _) -> (4, Lk_i32)
  | (Types.I32 | Types.I64), Some (p, ext) ->
      let n = match p with Ast.Pack8 -> 1 | Pack16 -> 2 | Pack32 -> 4 in
      (n, Lk_pack (n, ext = Ast.SX))
  | (Types.F32 | Types.F64), Some _ -> assert false (* validated *)

(* Scalar store specialisation. Packed stores write the slot's low
   bytes directly: the slot pattern of an i32 equals [Int64.of_int32]
   of the value, which is exactly what the interpreter hands
   [Memory.store_n]. *)
let store_kind (ty : Types.num_type) (pack : Ast.pack_size option) :
    int * skind =
  match (ty, pack) with
  | Types.I32, None -> (4, Sk_i32)
  | Types.I64, None -> (8, Sk_i64)
  | Types.F32, None -> (4, Sk_f32)
  | Types.F64, None -> (8, Sk_f64)
  | (Types.I32 | Types.I64), Some p ->
      let n = match p with Ast.Pack8 -> 1 | Pack16 -> 2 | Pack32 -> 4 in
      (n, Sk_pack n)
  | (Types.F32 | Types.F64), Some _ -> assert false (* validated *)

(* Static memarg offsets on the native path must keep the effective
   address within the packed 50-bit address field; wasm encodes them
   as u32 (u64 under memory64). Any offset of 2^31 or more puts every
   access out of bounds of the 1 GiB memory cap, so it is clamped to
   2^31: the access traps with the same message, after the same
   metering, as it does at its full offset. *)
let native_off (off : int64) : int = Int64.to_int (Int64.min off 0x8000_0000L)

(* ------------------------------------------------------------------ *)
(* The operator table                                                  *)
(* ------------------------------------------------------------------ *)

(* One match per operator that both bumps the operator's meter counter
   and computes, so an op pays a single switch on its captured
   operator. The [_m] evaluators meter; the rest leave it to the caller
   (every comparison bumps the same counter). *)

let[@inline] ialu (m : Meter.t) = m.ialu <- m.ialu + 1
let[@inline] falu (m : Meter.t) = m.falu <- m.falu + 1

(* [x]'s 32-bit pattern rotated left by [n], [0 <= n < 32]. *)
let[@inline] rotl32 x n =
  let u = x land mask32 in
  norm32 ((u lsl n) lor (u lsr (32 - n)))

let[@inline] i32_binop_m (m : Meter.t) (op : Ast.ibinop) (x : int) (y : int) =
  match op with
  | Add -> ialu m; norm32 (x + y)
  | Sub -> ialu m; norm32 (x - y)
  | Mul -> m.imul <- m.imul + 1; norm32 (x * y)
  | DivS ->
      m.idiv <- m.idiv + 1;
      if y = 0 then Rt.trap "integer divide by zero"
      else if x = -0x80000000 && y = -1 then Rt.trap "integer overflow"
      else x / y
  | DivU ->
      m.idiv <- m.idiv + 1;
      if y = 0 then Rt.trap "integer divide by zero"
      else norm32 ((x land mask32) / (y land mask32))
  | RemS ->
      m.idiv <- m.idiv + 1;
      if y = 0 then Rt.trap "integer divide by zero"
      else if x = -0x80000000 && y = -1 then 0
      else x mod y
  | RemU ->
      m.idiv <- m.idiv + 1;
      if y = 0 then Rt.trap "integer divide by zero"
      else norm32 ((x land mask32) mod (y land mask32))
  | And -> ialu m; x land y
  | Or -> ialu m; x lor y
  | Xor -> ialu m; x lxor y
  | Shl -> ialu m; norm32 (x lsl (y land 31))
  | ShrS -> ialu m; x asr (y land 31)
  | ShrU -> ialu m; norm32 ((x land mask32) lsr (y land 31))
  | Rotl -> ialu m; rotl32 x (y land 31)
  | Rotr -> ialu m; rotl32 x (-y land 31)

(* Whether a fused group may absorb this ibinop (no trapping paths, so
   the group has a single observable failure order). *)
let i32_binop_fusable : Ast.ibinop -> bool = function
  | Add | Sub | Mul | And | Or | Xor | Shl | ShrS | ShrU -> true
  | DivS | DivU | RemS | RemU | Rotl | Rotr -> false

(* The i64 operators restate [Numerics]' bodies (trap texts and order
   included) on [Int64] primitives, which inline unboxed: a call to
   [Numerics] would box both operands and the result across the
   module boundary. Their traps raise in place, as [Rt.trap] would
   with the same text: an arm that ends in a call would keep ocamlopt
   from holding the [int64] result unboxed across the arms. [ult64] is
   the unsigned order (flip the sign bits, compare signed) and [udiv64]
   is [Int64.unsigned_div] for [y <> 0]. *)
let[@inline] ult64 (x : int64) y = Int64.add x Int64.min_int < Int64.add y Int64.min_int

let[@inline] udiv64 x y =
  if y < 0L then if ult64 x y then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical x 1) y) 1 in
    if ult64 (Int64.sub x (Int64.mul q y)) y then q else Int64.add q 1L

(* [x] rotated left by [n], [0 <= n < 64]. *)
let[@inline] rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let[@inline] i64_binop_m (m : Meter.t) (op : Ast.ibinop) (x : int64) (y : int64) =
  match op with
  | Add -> ialu m; Int64.add x y
  | Sub -> ialu m; Int64.sub x y
  | Mul -> m.imul <- m.imul + 1; Int64.mul x y
  | DivS ->
      m.idiv <- m.idiv + 1;
      if y = 0L then raise (Instance.Trap "integer divide by zero")
      else if x = Int64.min_int && y = -1L then raise (Instance.Trap "integer overflow")
      else Int64.div x y
  | DivU ->
      m.idiv <- m.idiv + 1;
      if y = 0L then raise (Instance.Trap "integer divide by zero") else udiv64 x y
  | RemS ->
      m.idiv <- m.idiv + 1;
      if y = 0L then raise (Instance.Trap "integer divide by zero")
      else if x = Int64.min_int && y = -1L then 0L
      else Int64.rem x y
  | RemU ->
      m.idiv <- m.idiv + 1;
      if y = 0L then raise (Instance.Trap "integer divide by zero")
      else Int64.sub x (Int64.mul (udiv64 x y) y)
  | And -> ialu m; Int64.logand x y
  | Or -> ialu m; Int64.logor x y
  | Xor -> ialu m; Int64.logxor x y
  | Shl -> ialu m; Int64.shift_left x (Int64.to_int y land 63)
  | ShrS -> ialu m; Int64.shift_right x (Int64.to_int y land 63)
  | ShrU -> ialu m; Int64.shift_right_logical x (Int64.to_int y land 63)
  | Rotl -> ialu m; rotl64 x (Int64.to_int y land 63)
  | Rotr -> ialu m; rotl64 x (-Int64.to_int y land 63)

let[@inline] i64_relop (op : Ast.irelop) (x : int64) (y : int64) =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | LtS -> x < y
  | LtU -> ult64 x y
  | GtS -> x > y
  | GtU -> ult64 y x
  | LeS -> x <= y
  | LeU -> not (ult64 y x)
  | GeS -> x >= y
  | GeU -> not (ult64 x y)

(* [n] plus the leading zeros, trailing zeros or set bits of a 32-bit
   pattern [v] held in a native int ([0 <= v < 2^32]); an i64 operand
   is counted as its two halves. Loops over native ints allocate
   nothing. *)
let rec clz32 n v = if n = 32 || v land 0x8000_0000 <> 0 then n else clz32 (n + 1) (v lsl 1)
let rec ctz32 n v = if n = 32 || v land 1 <> 0 then n else ctz32 (n + 1) (v lsr 1)
let rec popcnt n v = if v = 0 then n else popcnt (n + 1) (v land (v - 1))

let[@inline] i32_unop (op : Ast.iunop) v =
  match op with Clz -> clz32 0 v | Ctz -> ctz32 0 v | Popcnt -> popcnt 0 v

let[@inline] i64_unop (op : Ast.iunop) (x : int64) =
  let hi = Int64.to_int (Int64.shift_right_logical x 32) and lo = Int64.to_int x land mask32 in
  match op with
  | Clz -> if hi <> 0 then clz32 0 hi else 32 + clz32 0 lo
  | Ctz -> if lo <> 0 then ctz32 0 lo else 32 + ctz32 0 hi
  | Popcnt -> popcnt (popcnt 0 hi) lo

let[@inline] i32_relop (op : Ast.irelop) (x : int) (y : int) =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | LtS -> x < y
  | LtU -> x land mask32 < y land mask32
  | GtS -> x > y
  | GtU -> x land mask32 > y land mask32
  | LeS -> x <= y
  | LeU -> x land mask32 <= y land mask32
  | GeS -> x >= y
  | GeU -> x land mask32 >= y land mask32

(* f64 semantics; an f32 op rounds the result through single precision
   ([to_f32]), exactly as the interpreter stores it. Every arm restates
   [Numerics.eval_fbinop]/[eval_funop] on unboxed floats ([Float.min]
   and [max] inline, the rest are unboxed externals): one arm that
   called [Numerics] would box the result of all of them wherever it is
   let-bound, as [to_f32]'s argument is. For the same reason [min] and
   [max] read [Float.nan] from a float array, [canonical_nan]: the
   module field holds it boxed. A typed float compare never boxes, and
   NaN falls out of the IEEE compare exactly as
   [Numerics.eval_frelop]'s. *)
let canonical_nan = [| Float.nan |]

let[@inline] f_binop_m (m : Meter.t) (op : Ast.fbinop) (x : float) y =
  match op with
  | FAdd -> falu m; x +. y
  | FSub -> falu m; x -. y
  | FMul -> m.fmul <- m.fmul + 1; x *. y
  | FDiv -> m.fdiv <- m.fdiv + 1; x /. y
  | FMin -> falu m; if x <> x || y <> y then Array.unsafe_get canonical_nan 0 else Float.min x y
  | FMax -> falu m; if x <> x || y <> y then Array.unsafe_get canonical_nan 0 else Float.max x y
  | Copysign -> falu m; Float.copy_sign x y

let[@inline] f_unop (op : Ast.funop) (x : float) =
  match op with
  | Neg -> -.x
  | Abs -> Float.abs x
  | Sqrt -> Float.sqrt x
  | Ceil -> Float.ceil x
  | Floor -> Float.floor x
  | Trunc -> Float.trunc x
  | Nearest -> Float.round x

let[@inline] f_relop (op : Ast.frelop) (x : float) (y : float) =
  match op with
  | FEq -> x = y
  | FNe -> x <> y
  | FLt -> x < y
  | FGt -> x > y
  | FLe -> x <= y
  | FGe -> x >= y

(* [Values.to_f32], inline: a float passed to it would be boxed. *)
let[@inline] to_f32 v = Int32.float_of_bits (Int32.bits_of_float v)

(* [Numerics.trunc_to_i32]/[trunc_to_i64] and [u64_to_float], restated
   unboxed as the i64 operators are: same traps, in the same order,
   raised in place. *)
let[@inline] trunc32 signed x =
  if x <> x then raise (Instance.Trap "invalid conversion to integer");
  let t = Float.trunc x in
  if signed then
    if t >= 2147483648.0 || t < -2147483648.0 then raise (Instance.Trap "integer overflow")
    else int_of_float t
  else if t >= 4294967296.0 || t <= -1.0 then raise (Instance.Trap "integer overflow")
  else norm32 (int_of_float t)

let[@inline] trunc64 signed x =
  if x <> x then raise (Instance.Trap "invalid conversion to integer");
  let t = Float.trunc x in
  if signed then
    if t >= 9.22337203685477581e18 || t < -9.22337203685477581e18 then
      raise (Instance.Trap "integer overflow")
    else Int64.of_float t
  else if t >= 1.8446744073709552e19 || t <= -1.0 then raise (Instance.Trap "integer overflow")
  else if t >= 9.22337203685477581e18 then
    Int64.add Int64.min_int (Int64.of_float (t -. 9.22337203685477581e18))
  else Int64.of_float t

let[@inline] u64_to_float x =
  if x >= 0L then Int64.to_float x
  else Int64.to_float (Int64.shift_right_logical x 1) *. 2.0

(* Conversion ops, in place on slot [q]. An i32 slot already holds the
   sign-extended 64-bit pattern, and an f32 slot the rounded double, so
   four conversions move no bits. *)
let[@inline] cvt (op : Ast.cvtop) stk q =
  match op with
  | I64ExtendI32S | F64PromoteF32 | I64ReinterpretF64 | F64ReinterpretI64 -> ()
  | I32WrapI64 -> seti stk q (norm32 (geti stk q))
  | I64ExtendI32U -> seti stk q (geti stk q land mask32)
  | I32TruncF32S | I32TruncF64S -> seti stk q (trunc32 true (Array.unsafe_get stk q))
  | I32TruncF32U | I32TruncF64U -> seti stk q (trunc32 false (Array.unsafe_get stk q))
  | I64TruncF32S | I64TruncF64S -> set64 stk q (trunc64 true (Array.unsafe_get stk q))
  | I64TruncF32U | I64TruncF64U -> set64 stk q (trunc64 false (Array.unsafe_get stk q))
  | F32ConvertI32S -> Array.unsafe_set stk q (to_f32 (float_of_int (geti stk q)))
  | F32ConvertI32U -> Array.unsafe_set stk q (to_f32 (float_of_int (geti stk q land mask32)))
  | F32ConvertI64S -> Array.unsafe_set stk q (to_f32 (Int64.to_float (get64 stk q)))
  | F32ConvertI64U -> Array.unsafe_set stk q (to_f32 (u64_to_float (get64 stk q)))
  | F64ConvertI32S -> Array.unsafe_set stk q (float_of_int (geti stk q))
  | F64ConvertI32U -> Array.unsafe_set stk q (float_of_int (geti stk q land mask32))
  | F64ConvertI64S -> Array.unsafe_set stk q (Int64.to_float (get64 stk q))
  | F64ConvertI64U -> Array.unsafe_set stk q (u64_to_float (get64 stk q))
  | F32DemoteF64 -> Array.unsafe_set stk q (to_f32 (Array.unsafe_get stk q))
  | I32ReinterpretF32 ->
      seti stk q (Int32.to_int (Int32.bits_of_float (Array.unsafe_get stk q)))
  | F32ReinterpretI32 ->
      Array.unsafe_set stk q (Int32.float_of_bits (Int32.of_int (geti stk q)))

(* The address step a fused access begins with, in the memory's index
   width W: [[i64.extend_i32_s]; [iW.const c; iW.mul]; iW.add] of the
   operand pair at [p], [p + 1] into [p], the slot the access reads (a
   lone [iW.add] has [c = 1]). [cvts] and [scales], 0 or 1, bump exactly
   the constituents' meters without a branch. *)
type step = { w32 : bool; c : int64; cvts : int; scales : int }

let[@inline] addr_step (m : Meter.t) s stk p =
  m.cvt <- m.cvt + s.cvts;
  m.const <- m.const + s.scales;
  m.imul <- m.imul + s.scales;
  ialu m;
  if s.w32 then seti stk p (norm32 (geti stk p + (geti stk (p + 1) * Int64.to_int s.c)))
  else set64 stk p (Int64.add (get64 stk p) (Int64.mul (get64 stk (p + 1)) s.c))

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

(* The call protocol. Caller arguments occupy the top of the caller's
   operand area, at absolute slots [argp .. argp + nargs - 1]; the
   callee's frame starts exactly there (arguments become parameters in
   place, zero copies), and on return the results are blitted down to
   [argp], which is where the caller's next op statically expects them.
   The caller's base/opbase/depth live on the OCaml stack across the
   nested dispatch loop. *)
let call_function (st : Instance.t Xcode.state) fi argp
    (param_tys : Types.val_type array) =
  let inst = st.inst in
  match inst.funcs.(fi) with
  | Instance.Wasm_func { xcode = Some xf; _ } ->
      let d = st.depth + 1 in
      if d > Rt.max_call_depth then
        Rt.trap "stack: call stack exhausted (depth %d)" d;
      Rt.burn_fuel inst;
      inst.call_stack <- fi :: inst.call_stack;
      if Obs.Hook.enabled () then begin
        Obs.Hook.set_instance inst.id;
        Obs.Hook.event
          (Obs.Event.Func_enter { idx = fi; name = Instance.func_name inst fi })
      end;
      let save_base = st.base
      and save_opbase = st.opbase
      and save_depth = st.depth in
      Xcode.ensure st (argp + xf.frame_slots);
      if xf.nlocals > 0 then Array.fill st.stk (argp + xf.nparams) xf.nlocals 0.0;
      st.base <- argp;
      st.opbase <- argp + xf.nparams + xf.nlocals;
      st.depth <- d;
      let ops = xf.ops in
      let n = Array.length ops in
      let rec go pc = if pc < n then go ((Array.unsafe_get ops pc) st) in
      go 0;
      (* Function return is a synchronization point (§4.2): deferred
         Async/Asymmetric faults are reported here, before the frame is
         popped — a trap leaves the frozen call stack as the crash
         backtrace, exactly like the interpreter. *)
      Rt.drain_deferred inst;
      if Obs.Hook.enabled () then
        Obs.Hook.event
          (Obs.Event.Func_leave { idx = fi; name = Instance.func_name inst fi });
      (match inst.call_stack with
      | _ :: tl -> inst.call_stack <- tl
      | [] -> ());
      if xf.result_arity > 0 then
        Array.blit st.stk st.opbase st.stk argp xf.result_arity;
      st.base <- save_base;
      st.opbase <- save_opbase;
      st.depth <- save_depth
  | Instance.Wasm_func { xcode = None; _ } ->
      assert false (* every local function of a threaded instance is compiled *)
  | Instance.Host_func { fn; ty; name } ->
      let d = st.depth + 1 in
      if d > Rt.max_call_depth then
        Rt.trap "stack: call stack exhausted (depth %d)" d;
      Rt.burn_fuel inst;
      if Obs.Hook.enabled () then begin
        Obs.Hook.set_instance inst.id;
        Obs.Hook.event (Obs.Event.Host_call { name })
      end;
      (* A host call is a synchronization point: report any deferred
         fault latched before control leaves wasm. *)
      Rt.drain_deferred inst;
      let nargs = Array.length param_tys in
      let args =
        List.init nargs (fun j ->
            Xcode.value_of_slot param_tys.(j) st.stk.(argp + j))
      in
      List.iteri
        (fun j v -> st.stk.(argp + j) <- Xcode.slot_of_value v)
        (Rt.host_call inst ~name ~ty fn args)

(** Run a compiled body from an entry call. The caller —
    [Exec.invoke_idx] — has
    already done the depth check, fuel burn, call-stack push and
    [Func_enter] event, and will drain deferred faults and pop the
    frame afterwards; this only executes the body. [depth] is the
    callee frame's depth. *)
let run_body (inst : Instance.t) ~depth (xf : Instance.t Xcode.func)
    (args : Values.t list) : Values.t list =
  let st =
    {
      inst;
      stk = Array.make (max Xcode.initial_slots xf.frame_slots) 0.0;
      base = 0;
      opbase = xf.nparams + xf.nlocals;
      depth;
    }
  in
  List.iteri (fun j v -> st.stk.(j) <- Xcode.slot_of_value v) args;
  let ops = xf.ops in
  let n = Array.length ops in
  let rec go pc = if pc < n then go ((Array.unsafe_get ops pc) st) in
  go 0;
  List.init xf.result_arity (fun j ->
      Xcode.value_of_slot xf.result_tys.(j) st.stk.(st.opbase + j))

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

(* The fusion window's one accessor: [body.(j)], or the static
   {!Code.filler} past the end, so reading a window allocates nothing. *)
let instr_at (body : Code.instr array) j =
  if j < Array.length body then Array.unsafe_get body j else Code.filler

(* The basic instruction at [body.(j)], or [Nop] past the end or at a
   control instruction. *)
let basic_at body j =
  match instr_at body j with Code.Basic (ins, _) -> ins | _ -> Ast.Nop

(* What an op or branch-action array starts out holding (the array rule
   of {!Ast.array_mapi}): a closed top-level function, so a static
   closure. Every slot is overwritten before the array is used. *)
let unset_op (_ : Instance.t Xcode.state) = -1

type frame = {
  l_target : int ref;  (** op index branches to this label jump to *)
  l_loop : bool;       (** a loop label: branches go back, carrying nothing *)
  l_arity : int;
  l_height : int;      (** static operand height at the label's entry *)
  mutable l_reached : bool;
      (** a branch targets this (non-loop) label, so its end is live
          even when the body's fall-through is not *)
}

(* What the label stack's vacated cells hold: made once, at start-up. *)
let no_frame =
  { l_target = ref (-1); l_loop = false; l_arity = 0; l_height = 0; l_reached = false }

(* [labels] is the caller's label stack, empty on entry and on return. *)
let compile ~labels ~(m : Ast.module_) ~(ix : Ast.index) ~(name : string)
    ~(ty : Types.func_type) ~(func : Ast.func) ~(code : Code.func)
    ~(mtr : Meter.t) : Instance.t Xcode.func * Xcode.stats =
  let nparams = List.length ty.params in
  let nlocals = List.length func.locals in
  let result_arity = code.result_arity in
  (* A validated module without a memory has no memory instructions, so
     the [None] default is never consulted. *)
  let w32 =
    match m.memory with Some mt -> mt.Types.mem_idx = Types.Idx32 | None -> true
  in
  (* Page counts and bulk lengths are unsigned in the memory's index
     type; bulk-op addresses resolve as [Checked.resolve_addr] does. *)
  let idx_at stk i = if w32 then Int64.of_int (geti stk i land mask32) else get64 stk i in
  let set_idx stk i v = if w32 then seti stk i (norm32 (Int64.to_int v)) else set64 stk i v in
  let resolve_bulk inst stk i =
    if w32 then (Checked.resolve_addr_i32 (Int32.of_int (geti stk i)) 0L, Arch.Tag.zero)
    else Checked.resolve_addr_i64 inst (get64 stk i) 0L
  in
  (* --- static state: the operand-stack height --- *)
  let h = ref 0 in
  let max_h = ref 0 in
  (* An op's static stack effect: it peaks [peak] slots above the
     current height and moves the height by [net]. Returns the height
     it started from. *)
  let shape ~peak ~net =
    let h0 = !h in
    if h0 + peak > !max_h then max_h := h0 + peak;
    h := h0 + net;
    h0
  in
  (* A singleton that pops [n] operands, then pushes [k] results: the
     slot of its first operand, which is also its first result's. *)
  let pops n k =
    h := !h - n;
    shape ~peak:k ~net:k
  in
  (* --- op builder: ops are emitted in order, so the op being emitted
     has index [!count] and falls through to [!count + 1] --- *)
  let rev_ops : Instance.t Xcode.op list ref = ref [] in
  let count = ref 0 in
  let put (op : Instance.t Xcode.op) =
    incr count;
    rev_ops := op :: !rev_ops
  in
  (* --- statistics --- *)
  let n_instrs = ref 0 in
  let n_fused = ref 0 in
  let n_acc = ref 0 in
  let n_elided = ref 0 in
  let idioms : (string * int ref) list ref = ref [] in
  let fused idiom k =
    n_instrs := !n_instrs + k;
    n_fused := !n_fused + k;
    (match List.assoc_opt idiom !idioms with
    | Some r -> incr r
    | None -> idioms := (idiom, ref 1) :: !idioms);
    k
  in
  let arena_of id = Code.elidable code.arena id in
  (* ---------------------------------------------------------------- *)
  (* Access emission (shared by singleton and fused forms)             *)
  (* ---------------------------------------------------------------- *)
  (* The analysis verdicts of access [id], counted for the stats. *)
  let policy id =
    let te = Code.elidable code.elide id in
    incr n_acc;
    if te then incr n_elided;
    (w32, te, Code.elidable code.belide id)
  in
  (* Pick the access path's literal flags once, at emit time. *)
  let load_body id lty pack (ma : Ast.memarg) ~src ~dst :
      Instance.t Xcode.state -> unit =
    let len, lk = load_kind lty pack and off = native_off ma.offset in
    let m = mtr in
    match policy id with
    | true, false, false -> fun st -> load true false false m st len lk off src dst
    | true, true, false -> fun st -> load true true false m st len lk off src dst
    | true, false, true -> fun st -> load true false true m st len lk off src dst
    | true, true, true -> fun st -> load true true true m st len lk off src dst
    | false, false, false -> fun st -> load false false false m st len lk off src dst
    | false, true, false -> fun st -> load false true false m st len lk off src dst
    | false, false, true -> fun st -> load false false true m st len lk off src dst
    | false, true, true -> fun st -> load false true true m st len lk off src dst
  in
  let store_body id sty pack (ma : Ast.memarg) ~src ~vsrc :
      Instance.t Xcode.state -> unit =
    let len, sk = store_kind sty pack and off = native_off ma.offset in
    let m = mtr in
    match policy id with
    | true, false, false -> fun st -> store true false false m st len sk off src vsrc
    | true, true, false -> fun st -> store true true false m st len sk off src vsrc
    | true, false, true -> fun st -> store true false true m st len sk off src vsrc
    | true, true, true -> fun st -> store true true true m st len sk off src vsrc
    | false, false, false -> fun st -> store false false false m st len sk off src vsrc
    | false, true, false -> fun st -> store false true false m st len sk off src vsrc
    | false, false, true -> fun st -> store false false true m st len sk off src vsrc
    | false, true, true -> fun st -> store false true true m st len sk off src vsrc
  in
  (* ---------------------------------------------------------------- *)
  (* Branch actions                                                    *)
  (* ---------------------------------------------------------------- *)
  (* The runtime "take the branch" continuation for a branch to label
     [fr] from the current static height. Loop back-edges pay the loop
     label's catch-clause [meter_br] on top of the branch's own (the
     interpreter's [Loop] handler re-meters on every iteration); any
     other label's values are carried down to its entry height. *)
  let branch_to fr : Instance.t Xcode.state -> int =
    let tgt = fr.l_target in
    if fr.l_loop then fun st ->
      meter_br mtr st.inst;
      !tgt
    else begin
      fr.l_reached <- true;
      let arity = fr.l_arity and dst = fr.l_height in
      let k = !h - dst - arity in
      if k = 0 || arity = 0 then fun _ -> !tgt
      else if arity = 1 then fun st ->
        let stk = st.stk in
        Array.unsafe_set stk (st.opbase + dst)
          (Array.unsafe_get stk (st.opbase + dst + k));
        !tgt
      else fun st ->
        Array.blit st.stk (st.opbase + dst + k) st.stk (st.opbase + dst) arity;
        !tgt
    end
  in
  let branch_action ({ depth; _ } : Code.label) = branch_to (Label_stack.nth labels depth) in
  (* ---------------------------------------------------------------- *)
  (* Singleton instruction compilation                                 *)
  (* ---------------------------------------------------------------- *)
  let compile_basic (ins : Ast.instr) (id : int) =
    let open Ast in
    let next = !count + 1 in
    match ins with
    | Block _ | Loop _ | If _ | Br _ | BrIf _ | BrTable _ | Return ->
        assert false (* control flow is resolved by Code.prepare *)
    | Unreachable ->
        put (fun st ->
            tick st.inst;
            Rt.trap "unreachable executed")
    | Nop | Drop ->
        if ins = Drop then decr h;
        put (fun st ->
            tick st.inst;
            next)
    | Select ->
        let p = pops 3 1 in
        put (fun st ->
            tick st.inst;
            mtr.select <- mtr.select + 1;
            let stk = st.stk and q = st.opbase + p in
            if get64 stk (q + 2) = 0L then
              Array.unsafe_set stk q (Array.unsafe_get stk (q + 1));
            next)
    | LocalGet i ->
        let p = pops 0 1 in
        put (fun st ->
            tick st.inst;
            mtr.local_access <- mtr.local_access + 1;
            let stk = st.stk in
            Array.unsafe_set stk (st.opbase + p) (Array.unsafe_get stk (st.base + i));
            next)
    | LocalSet i | LocalTee i ->
        let p = if ins = LocalSet i then pops 1 0 else pops 1 1 in
        put (fun st ->
            tick st.inst;
            mtr.local_access <- mtr.local_access + 1;
            let stk = st.stk in
            Array.unsafe_set stk (st.base + i) (Array.unsafe_get stk (st.opbase + p));
            next)
    | GlobalGet i ->
        let p = pops 0 1 in
        put (fun st ->
            tick st.inst;
            mtr.global_access <- mtr.global_access + 1;
            let stk = st.stk and q = st.opbase + p in
            (match Array.unsafe_get st.inst.globals i with
            | Values.I32 v -> seti stk q (Int32.to_int v)
            | Values.I64 v -> set64 stk q v
            | Values.F32 v | Values.F64 v -> Array.unsafe_set stk q v);
            next)
    | GlobalSet i ->
        let gty = ix.ix_globals.(i).g_type.Types.g_type in
        let p = pops 1 0 in
        put (fun st ->
            tick st.inst;
            mtr.global_access <- mtr.global_access + 1;
            let stk = st.stk and q = st.opbase + p in
            Array.unsafe_set st.inst.globals i
              (match gty with
              | Types.I32 -> Values.I32 (Int32.of_int (geti stk q))
              | Types.I64 -> Values.I64 (get64 stk q)
              | Types.F32 -> Values.F32 (Array.unsafe_get stk q)
              | Types.F64 -> Values.F64 (Array.unsafe_get stk q));
            next)
    | I32Const _ | I64Const _ | F32Const _ | F64Const _ ->
        let sc =
          match ins with
          | I32Const v -> Xcode.slot_of_i32 v
          | I64Const v -> Xcode.slot_of_i64 v
          | F32Const v -> to_f32 v
          | F64Const v -> v
          | _ -> assert false
        in
        let p = pops 0 1 in
        put (fun st ->
            tick st.inst;
            mtr.const <- mtr.const + 1;
            Array.unsafe_set st.stk (st.opbase + p) sc;
            next)
    | IUnop (W32, op) ->
        let p = pops 1 1 in
        put (fun st ->
            tick st.inst;
            ialu mtr;
            let stk = st.stk and q = st.opbase + p in
            seti stk q (i32_unop op (geti stk q land mask32));
            next)
    | IUnop (W64, op) ->
        let p = pops 1 1 in
        put (fun st ->
            tick st.inst;
            ialu mtr;
            let stk = st.stk and q = st.opbase + p in
            seti stk q (i64_unop op (get64 stk q));
            next)
    | IBinop (W32, op) ->
        let p = pops 2 1 in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            seti stk q (i32_binop_m mtr op (geti stk q) (geti stk (q + 1)));
            next)
    | IBinop (W64, op) ->
        let p = pops 2 1 in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            set64 stk q (i64_binop_m mtr op (get64 stk q) (get64 stk (q + 1)));
            next)
    | ITestop _ ->
        let p = pops 1 1 in
        put (fun st ->
            tick st.inst;
            ialu mtr;
            let stk = st.stk and q = st.opbase + p in
            setb stk q (get64 stk q = 0L);
            next)
    | IRelop (W32, op) ->
        let p = pops 2 1 in
        put (fun st ->
            tick st.inst;
            ialu mtr;
            let stk = st.stk and q = st.opbase + p in
            setb stk q (i32_relop op (geti stk q) (geti stk (q + 1)));
            next)
    | IRelop (W64, op) ->
        let p = pops 2 1 in
        put (fun st ->
            tick st.inst;
            ialu mtr;
            let stk = st.stk and q = st.opbase + p in
            setb stk q (i64_relop op (get64 stk q) (get64 stk (q + 1)));
            next)
    | FUnop (W32, op) ->
        let p = pops 1 1 in
        put (fun st ->
            tick st.inst;
            falu mtr;
            let stk = st.stk and q = st.opbase + p in
            Array.unsafe_set stk q (to_f32 (f_unop op (Array.unsafe_get stk q)));
            next)
    | FUnop (W64, op) ->
        let p = pops 1 1 in
        put (fun st ->
            tick st.inst;
            falu mtr;
            let stk = st.stk and q = st.opbase + p in
            Array.unsafe_set stk q (f_unop op (Array.unsafe_get stk q));
            next)
    | FBinop (W32, op) ->
        let p = pops 2 1 in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            Array.unsafe_set stk q
              (to_f32
                 (f_binop_m mtr op (Array.unsafe_get stk q)
                    (Array.unsafe_get stk (q + 1))));
            next)
    | FBinop (W64, op) ->
        let p = pops 2 1 in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            Array.unsafe_set stk q
              (f_binop_m mtr op (Array.unsafe_get stk q)
                 (Array.unsafe_get stk (q + 1)));
            next)
    | FRelop (_, op) ->
        let p = pops 2 1 in
        put (fun st ->
            tick st.inst;
            falu mtr;
            let stk = st.stk and q = st.opbase + p in
            setb stk q (f_relop op (Array.unsafe_get stk q) (Array.unsafe_get stk (q + 1)));
            next)
    | Cvtop op ->
        let p = pops 1 1 in
        put (fun st ->
            tick st.inst;
            mtr.cvt <- mtr.cvt + 1;
            cvt op st.stk (st.opbase + p);
            next)
    | Load (lty, pack, ma) ->
        let p = pops 1 1 in
        let body = load_body id lty pack ma ~src:(Sop p) ~dst:(Sop p) in
        put (fun st ->
            tick st.inst;
            body st;
            next)
    | Store (sty, pack, ma) ->
        let p = pops 2 0 in
        let body = store_body id sty pack ma ~src:(Sop p) ~vsrc:(Sop (p + 1)) in
        put (fun st ->
            tick st.inst;
            body st;
            next)
    | MemorySize ->
        let p = pops 0 1 in
        put (fun st ->
            tick st.inst;
            set_idx st.stk (st.opbase + p) (Memory.size_pages (gm st.inst));
            next)
    | MemoryGrow ->
        let p = pops 1 1 in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            set_idx stk q (Rt.memory_grow st.inst (idx_at stk q));
            next)
    | MemoryFill ->
        let p = pops 3 0 in
        put (fun st ->
            tick st.inst;
            let inst = st.inst and stk = st.stk and q = st.opbase + p in
            let len = idx_at stk (q + 2) in
            let v = geti stk (q + 1) in
            let dst, dtag = resolve_bulk inst stk q in
            mtr.bulk_fill <- mtr.bulk_fill + 1;
            Checked.fill inst (gm inst) ~addr:dst ~tag:dtag ~len v;
            next)
    | MemoryCopy ->
        let p = pops 3 0 in
        put (fun st ->
            tick st.inst;
            let inst = st.inst and stk = st.stk and q = st.opbase + p in
            let len = idx_at stk (q + 2) in
            (* the interpreter resolves source before destination:
               chaos draws must land in that order *)
            let src, stag = resolve_bulk inst stk (q + 1) in
            let dst, dtag = resolve_bulk inst stk q in
            mtr.bulk_copy <- mtr.bulk_copy + 1;
            Checked.copy inst (gm inst) ~dst ~dtag ~src ~stag ~len;
            next)
    | SegmentNew o ->
        let p = pops 2 1 in
        let arena = arena_of id in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            let l = get64 stk (q + 1) and k = get64 stk q in
            set64 stk q (Rt.segment_new ~arena st.inst ~k ~l o);
            next)
    | SegmentSetTag o ->
        let p = pops 3 0 in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            let l = get64 stk (q + 2) and t = get64 stk (q + 1) and k = get64 stk q in
            Rt.segment_set_tag st.inst ~k ~t ~l o;
            next)
    | SegmentFree o ->
        let p = pops 2 0 in
        let arena = arena_of id in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            let l = get64 stk (q + 1) and k = get64 stk q in
            Rt.segment_free ~arena st.inst ~k ~l o;
            next)
    | PointerSign | PointerAuth ->
        let p = pops 1 1 in
        let f = if ins = PointerSign then Rt.pointer_sign else Rt.pointer_auth in
        put (fun st ->
            tick st.inst;
            let stk = st.stk and q = st.opbase + p in
            set64 stk q (f st.inst (get64 stk q));
            next)
    | Call fi ->
        let cty = Ast.func_type_at ix fi in
        let p = pops (List.length cty.params) (List.length cty.results) in
        let param_tys = Array.of_list cty.params in
        put (fun st ->
            tick st.inst;
            mtr.call <- mtr.call + 1;
            call_function st fi (st.opbase + p) param_tys;
            next)
    | CallIndirect ti ->
        let ety = ix.ix_types.(ti) in
        let nargs = List.length ety.params in
        let p = pops (nargs + 1) (List.length ety.results) in
        let param_tys = Array.of_list ety.params in
        put (fun st ->
            tick st.inst;
            let inst = st.inst in
            mtr.call_indirect <- mtr.call_indirect + 1;
            let idx = geti st.stk (st.opbase + p + nargs) in
            if idx < 0 || idx >= Array.length inst.table then
              Rt.trap "undefined element %d in table" idx;
            (match inst.table.(idx) with
            | None -> Rt.trap "uninitialized table element %d" idx
            | Some fi ->
                let actual = Instance.func_type inst.funcs.(fi) in
                if not (Types.func_type_equal ety actual) then
                  Rt.trap "indirect call type mismatch";
                call_function st fi (st.opbase + p) param_tys);
            next)
  in
  (* ---------------------------------------------------------------- *)
  (* Superinstruction fusion                                           *)
  (* ---------------------------------------------------------------- *)
  (* Try to absorb a run of consecutive instructions starting at
     [body.(i)] into one op. Returns the number of source instructions
     consumed (0 = no match). Constituent side effects — ticks, meter
     bumps, elision decisions — are batched but numerically identical
     to the singleton sequence, and each idiom states the static stack
     effect of the run it replaces once, as a [shape]; operand slots are
     named relative to the height the run starts at, which [shape]
     returns. *)
  (* The address step × consumer family, tried first. The step of [ext
     + 1 + 2 × scales] instructions at [body.(i)] ({!addr_step}) is
     MiniC's element address [base + index × size] in the memory's index
     width, and it fuses into the access that consumes it: a load, a
     load whose value an f64 binop folds into the operand below, or a
     store from a local. With no consumer, a step of two or more
     instructions becomes one op that leaves the address on the stack. *)
  let iw = if w32 then Ast.W32 else Ast.W64 in
  let fuse_step (body : Code.instr array) i ext c scales : int =
    let open Ast in
    let next = !count + 1 in
    let s = { w32; c; cvts = ext; scales } and k = ext + 1 + (2 * scales) in
    let name =
      (if w32 then "i32" else "i64") ^ (if ext = 1 then ".ext" else "")
      ^ if scales = 1 then ".scale.add" else ".add"
    in
    (* the step, then [lg] local reads and [body], the access on the
       address the step leaves in slot [p] *)
    let emit consumer n ~net ~lg body =
      let p = shape ~peak:scales ~net - 2 in
      let body = body p in
      put (fun st ->
          tick_n st.inst n;
          addr_step mtr s st.stk (st.opbase + p);
          mtr.local_access <- mtr.local_access + lg;
          body st;
          next);
      fused (name ^ consumer) n
    in
    match (instr_at body (i + k), instr_at body (i + k + 1)) with
    | ( Code.Basic (Load (Types.F64, None, ma), lid),
        Code.Basic (FBinop (W64, ((FAdd | FSub | FMul | FDiv) as op)), _) ) ->
        let p = shape ~peak:scales ~net:(-2) - 3 in
        let body =
          load_body lid Types.F64 None ma ~src:(Sop (p + 1)) ~dst:(Sop (p + 1))
        in
        let n = k + 2 in
        put (fun st ->
            tick_n st.inst n;
            let stk = st.stk and q = st.opbase + p in
            addr_step mtr s stk (q + 1);
            body st;
            Array.unsafe_set stk q
              (f_binop_m mtr op (Array.unsafe_get stk q)
                 (Array.unsafe_get stk (q + 1)));
            next);
        fused (name ^ ".load.f64.op") n
    | Code.Basic (Load (lty, pack, ma), lid), _ ->
        emit ".load" (k + 1) ~net:(-1) ~lg:0 (fun p ->
            load_body lid lty pack ma ~src:(Sop p) ~dst:(Sop p))
    | Code.Basic (LocalGet v, _), Code.Basic (Store (sty, pack, ma), sid) ->
        emit ".lg.store" (k + 2) ~net:(-2) ~lg:1 (fun p ->
            store_body sid sty pack ma ~src:(Sop p) ~vsrc:(Sloc v))
    | _ when k > 1 -> emit "" k ~net:(-1) ~lg:0 (fun _ _ -> ())
    | _ -> 0
  in
  (* Recognize the step; this runs at every position, so it allocates nothing. *)
  let fuse_address (body : Code.instr array) i : int =
    let open Ast in
    let ext = match basic_at body i with Cvtop I64ExtendI32S -> 1 | _ -> 0 in
    let j = i + ext in
    match basic_at body j with
    | IBinop (w, Add) when w = iw -> fuse_step body i ext 1L 0
    | I32Const _ | I64Const _ -> (
        (* the const and the add are as wide as the mul (validation) *)
        match (basic_at body j, basic_at body (j + 1), basic_at body (j + 2)) with
        | I32Const c, IBinop (w, Mul), IBinop (_, Add) when w = iw ->
            fuse_step body i ext (Int64.of_int32 c) 1
        | I64Const c, IBinop (w, Mul), IBinop (_, Add) when w = iw ->
            fuse_step body i ext c 1
        | _ -> 0)
    | _ -> 0
  in
  let try_fuse (body : Code.instr array) i : int =
    let k = fuse_address body i in
    if k > 0 then k else
    let open Ast in
    let next = !count + 1 in
    match
      ( instr_at body i, instr_at body (i + 1), instr_at body (i + 2),
        instr_at body (i + 3), instr_at body (i + 4) )
    with
    (* local.get a; local.get b; i32 relop; i32.eqz; br_if — the
       inverted loop guard every structured while-loop compiles to *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (LocalGet b, _),
        Code.Basic (IRelop (W32, op), _),
        Code.Basic (ITestop W32, _),
        Code.BrIf l ) ->
        ignore (shape ~peak:2 ~net:0);
        let act = branch_action l in
        put (fun st ->
            let inst = st.inst and stk = st.stk in
            tick_n inst 5;
            mtr.local_access <- mtr.local_access + 2;
            mtr.ialu <- mtr.ialu + 2;
            let c = i32_relop op (geti stk (st.base + a)) (geti stk (st.base + b)) in
            meter_br mtr inst;
            if c then next else act st);
        fused "i32.lg.lg.relop.eqz.brif" 5
    (* local.get base; local.get a; local.get b; i32 binop — the head
       of an address chain: the base pointer rides below the combined
       index. *)
    | ( Code.Basic (LocalGet v0, _),
        Code.Basic (LocalGet a, _),
        Code.Basic (LocalGet b, _),
        Code.Basic (IBinop (W32, op), _),
        _ )
      when i32_binop_fusable op ->
        let p = shape ~peak:3 ~net:2 in
        put (fun st ->
            tick_n st.inst 4;
            mtr.local_access <- mtr.local_access + 3;
            let stk = st.stk and bs = st.base and q = st.opbase + p in
            Array.unsafe_set stk q (Array.unsafe_get stk (bs + v0));
            seti stk (q + 1)
              (i32_binop_m mtr op (geti stk (bs + a)) (geti stk (bs + b)));
            next);
        fused "i32.lg.lg.lg.op" 4
    (* local.get a; local.get b; i32 binop *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (LocalGet b, _),
        Code.Basic (IBinop (W32, op), _),
        _,
        _ )
      when i32_binop_fusable op ->
        let p = shape ~peak:2 ~net:1 in
        put (fun st ->
            tick_n st.inst 3;
            mtr.local_access <- mtr.local_access + 2;
            let stk = st.stk and bs = st.base in
            seti stk (st.opbase + p)
              (i32_binop_m mtr op (geti stk (bs + a)) (geti stk (bs + b)));
            next);
        fused "i32.lg.lg.op" 3
    (* local.get a; local.get b; f64 binop *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (LocalGet b, _),
        Code.Basic (FBinop (W64, op), _),
        _,
        _ ) ->
        let p = shape ~peak:2 ~net:1 in
        put (fun st ->
            tick_n st.inst 3;
            mtr.local_access <- mtr.local_access + 2;
            let stk = st.stk and bs = st.base in
            Array.unsafe_set stk (st.opbase + p)
              (f_binop_m mtr op (Array.unsafe_get stk (bs + a))
                 (Array.unsafe_get stk (bs + b)));
            next);
        fused "f64.lg.lg.op" 3
    (* local.get addr; local.get v; store *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (LocalGet b, _),
        Code.Basic (Store (sty, pack, ma), sid),
        _,
        _ ) ->
        ignore (shape ~peak:2 ~net:0);
        let body = store_body sid sty pack ma ~src:(Sloc a) ~vsrc:(Sloc b) in
        put (fun st ->
            tick_n st.inst 3;
            mtr.local_access <- mtr.local_access + 2;
            body st;
            next);
        fused "lg.lg.store" 3
    (* local.get; i32.const; i32 binop; local.set — the loop-counter
       increment quad *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (I32Const c, _),
        Code.Basic (IBinop (W32, op), _),
        Code.Basic (LocalSet d, _),
        _ )
      when i32_binop_fusable op ->
        ignore (shape ~peak:2 ~net:0);
        let y = norm32 (Int32.to_int c) in
        put (fun st ->
            tick_n st.inst 4;
            mtr.local_access <- mtr.local_access + 2;
            mtr.const <- mtr.const + 1;
            let stk = st.stk and bs = st.base in
            seti stk (bs + d) (i32_binop_m mtr op (geti stk (bs + a)) y);
            next);
        fused "i32.lg.const.op.ls" 4
    (* local.get; i32.const; i32 binop *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (I32Const c, _),
        Code.Basic (IBinop (W32, op), _),
        _,
        _ )
      when i32_binop_fusable op ->
        let p = shape ~peak:2 ~net:1 in
        let y = norm32 (Int32.to_int c) in
        put (fun st ->
            tick_n st.inst 3;
            mtr.local_access <- mtr.local_access + 1;
            mtr.const <- mtr.const + 1;
            let stk = st.stk in
            seti stk (st.opbase + p) (i32_binop_m mtr op (geti stk (st.base + a)) y);
            next);
        fused "i32.lg.const.op" 3
    (* local.get addr; load *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (Load (lty, pack, ma), lid),
        _,
        _,
        _ ) ->
        let p = shape ~peak:1 ~net:1 in
        let body = load_body lid lty pack ma ~src:(Sloc a) ~dst:(Sop p) in
        put (fun st ->
            tick_n st.inst 2;
            mtr.local_access <- mtr.local_access + 1;
            body st;
            next);
        fused "lg.load" 2
    (* local.get; local.set — a register-to-register move *)
    | ( Code.Basic (LocalGet a, _),
        Code.Basic (LocalSet d, _),
        _,
        _,
        _ ) ->
        ignore (shape ~peak:1 ~net:0);
        put (fun st ->
            tick_n st.inst 2;
            mtr.local_access <- mtr.local_access + 2;
            let stk = st.stk and bs = st.base in
            Array.unsafe_set stk (bs + d) (Array.unsafe_get stk (bs + a));
            next);
        fused "lg.ls" 2
    (* stack-top ⊕ local.get; i32 binop — index arithmetic ([i * n + j]) *)
    | ( Code.Basic (LocalGet b, _),
        Code.Basic (IBinop (W32, op), _),
        _,
        _,
        _ )
      when i32_binop_fusable op ->
        let p = shape ~peak:1 ~net:0 - 1 in
        put (fun st ->
            tick_n st.inst 2;
            mtr.local_access <- mtr.local_access + 1;
            let stk = st.stk and q = st.opbase + p in
            seti stk q (i32_binop_m mtr op (geti stk q) (geti stk (st.base + b)));
            next);
        fused "i32.lg.op" 2
    (* stack-top ⊕ local.get; f64 binop *)
    | ( Code.Basic (LocalGet b, _),
        Code.Basic (FBinop (W64, op), _),
        _,
        _,
        _ ) ->
        let p = shape ~peak:1 ~net:0 - 1 in
        put (fun st ->
            tick_n st.inst 2;
            mtr.local_access <- mtr.local_access + 1;
            let stk = st.stk and q = st.opbase + p in
            Array.unsafe_set stk q
              (f_binop_m mtr op (Array.unsafe_get stk q)
                 (Array.unsafe_get stk (st.base + b)));
            next);
        fused "f64.lg.op" 2
    (* f64 binop; local.set — compute and park the result in a
       register in one step *)
    | ( Code.Basic (FBinop (W64, op), _),
        Code.Basic (LocalSet v, _),
        _,
        _,
        _ ) ->
        let p = shape ~peak:0 ~net:(-2) - 2 in
        put (fun st ->
            tick_n st.inst 2;
            let stk = st.stk and q = st.opbase + p in
            Array.unsafe_set stk (st.base + v)
              (f_binop_m mtr op (Array.unsafe_get stk q)
                 (Array.unsafe_get stk (q + 1)));
            mtr.local_access <- mtr.local_access + 1;
            next);
        fused "f64.op.ls" 2
    (* local.get value; store — store straight from a register *)
    | ( Code.Basic (LocalGet v, _),
        Code.Basic (Store (sty, pack, ma), sid),
        _,
        _,
        _ ) ->
        let p = shape ~peak:1 ~net:(-1) - 1 in
        let body = store_body sid sty pack ma ~src:(Sop p) ~vsrc:(Sloc v) in
        put (fun st ->
            tick_n st.inst 2;
            mtr.local_access <- mtr.local_access + 1;
            body st;
            next);
        fused "lg.store" 2
    (* load; local.set *)
    | ( Code.Basic (Load (lty, pack, ma), lid),
        Code.Basic (LocalSet j, _),
        _,
        _,
        _ ) ->
        let p = shape ~peak:0 ~net:(-1) - 1 in
        let body = load_body lid lty pack ma ~src:(Sop p) ~dst:(Sloc j) in
        put (fun st ->
            tick_n st.inst 2;
            body st;
            mtr.local_access <- mtr.local_access + 1;
            next);
        fused "load.ls" 2
    (* i32.const; i32 binop — constant-folded RHS on the stack top *)
    | ( Code.Basic (I32Const c, _),
        Code.Basic (IBinop (W32, op), _),
        _,
        _,
        _ )
      when i32_binop_fusable op ->
        let p = shape ~peak:1 ~net:0 - 1 in
        let y = norm32 (Int32.to_int c) in
        put (fun st ->
            tick_n st.inst 2;
            mtr.const <- mtr.const + 1;
            let stk = st.stk and q = st.opbase + p in
            seti stk q (i32_binop_m mtr op (geti stk q) y);
            next);
        fused "i32.const.op" 2
    (* i32.eqz; br_if — branch on zero *)
    | ( Code.Basic (ITestop W32, _),
        Code.BrIf l,
        _,
        _,
        _ ) ->
        let p = shape ~peak:0 ~net:(-1) - 1 in
        let act = branch_action l in
        put (fun st ->
            let inst = st.inst in
            tick_n inst 2;
            ialu mtr;
            let z =
              get64 st.stk (st.opbase + p) = 0L
            in
            meter_br mtr inst;
            if z then act st else next);
        fused "i32.eqz.brif" 2
    | _ -> 0
  in
  (* ---------------------------------------------------------------- *)
  (* Control-flow compilation                                          *)
  (* ---------------------------------------------------------------- *)
  (* The op a structured block or loop node leaves at its entry: the
     interpreter ticks the node once when it is entered. *)
  let enter () =
    let next = !count + 1 in
    put (fun st ->
        tick st.inst;
        next)
  in
  (* [body] under the new innermost label [fr] *)
  let rec compile_in fr (body : Code.instr array) : bool =
    Label_stack.push labels fr;
    let live = compile_seq body in
    ignore (Label_stack.pop labels);
    live
  and compile_seq (body : Code.instr array) : bool =
    let n = Array.length body in
    let live = ref true in
    let i = ref 0 in
    while !i < n do
      if not !live then incr i (* dead code: ids pre-assigned, skip *)
      else begin
        let consumed = try_fuse body !i in
        if consumed > 0 then i := !i + consumed
        else begin
          live := compile_instr body.(!i);
          incr i
        end
      end
    done;
    !live
  (* Compile one instruction; false when control cannot fall through. *)
  and compile_instr (ins : Code.instr) : bool =
    incr n_instrs;
    match ins with
    | Code.Basic (b, id) ->
        compile_basic b id;
        b <> Ast.Unreachable
    | Code.Block (arity, inner) ->
        let fr =
          { l_target = ref (-1); l_loop = false; l_arity = arity;
            l_height = !h; l_reached = false }
        in
        enter ();
        let ft = compile_in fr inner in
        fr.l_target := !count;
        h := fr.l_height + arity;
        ft || fr.l_reached
    | Code.Loop (_, inner) ->
        enter ();
        (* back-edges land after the entry tick: the interpreter ticks a
           Loop node once, not per iteration *)
        let fr =
          { l_target = ref !count; l_loop = true; l_arity = 0;
            l_height = !h; l_reached = false }
        in
        compile_in fr inner
    | Code.If (arity, then_, else_) ->
        decr h;
        let hcond = !h in
        let fr =
          { l_target = ref (-1); l_loop = false; l_arity = arity;
            l_height = hcond; l_reached = false }
        in
        let else_ref = ref (-1) in
        let next = !count + 1 in
        put (fun st ->
            tick st.inst;
            meter_br mtr st.inst;
            if get64 st.stk (st.opbase + hcond) <> 0L
            then next
            else !else_ref);
        let ft_then = compile_in fr then_ in
        (* jump over the else arm (no tick: synthetic control) *)
        if ft_then && Array.length else_ > 0 then put (fun _ -> !(fr.l_target));
        else_ref := !count;
        h := hcond;
        let ft_else = compile_in fr else_ in
        fr.l_target := !count;
        h := hcond + arity;
        ft_then || ft_else || fr.l_reached
    | Code.Br l ->
        let act = branch_action l in
        put (fun st ->
            tick st.inst;
            meter_br mtr st.inst;
            act st);
        false
    | Code.BrIf l ->
        decr h;
        let hcond = !h in
        let act = branch_action l in
        let next = !count + 1 in
        put (fun st ->
            tick st.inst;
            meter_br mtr st.inst;
            if get64 st.stk (st.opbase + hcond) <> 0L
            then act st
            else next);
        true
    | Code.BrTable (targets, default) ->
        decr h;
        let hidx = !h in
        let acts = Array.make (Array.length targets) unset_op in
        Array.iteri (fun j l -> acts.(j) <- branch_action l) targets;
        let default_act = branch_action default in
        let nt = Array.length acts in
        put (fun st ->
            tick st.inst;
            meter_br mtr st.inst;
            let idx = geti st.stk (st.opbase + hidx) in
            let act =
              if idx >= 0 && idx < nt then Array.unsafe_get acts idx else default_act
            in
            act st);
        false
    | Code.Return _ ->
        let act = branch_to (Label_stack.bottom labels) in
        put (fun st ->
            tick st.inst;
            mtr.return_ <- mtr.return_ + 1;
            act st);
        false
  in
  (* ---------------------------------------------------------------- *)
  (* Drive it                                                          *)
  (* ---------------------------------------------------------------- *)
  let exit_ref = ref (-1) in
  let func_frame =
    { l_target = exit_ref; l_loop = false; l_arity = result_arity;
      l_height = 0; l_reached = false }
  in
  (* a validated body that falls through leaves exactly its results *)
  ignore (compile_in func_frame code.body);
  exit_ref := !count;
  let stats =
    {
      st_name = name;
      st_instrs = !n_instrs;
      st_fused = !n_fused;
      st_idioms = List.map (fun (k, r) -> (k, !r)) !idioms;
      st_accesses = !n_acc;
      st_elided = !n_elided;
    }
  in
  (* [rev_ops] holds the ops last first: fill the array from its end *)
  let ops = Array.make !count unset_op in
  List.iteri (fun j op -> ops.(!count - 1 - j) <- op) !rev_ops;
  ( {
      ops;
      nparams;
      nlocals;
      result_arity;
      result_tys = Array.of_list ty.results;
      frame_slots = nparams + nlocals + !max_h;
      stats;
    },
    stats )

(** Compile every local function of an instantiated module, filling the
    [xcode] slots of its [Wasm_func]s in place. Called by
    [Exec.instantiate] once, right after the function table exists and
    before element/data segments and the start function run. *)
let compile_instance ix (inst : Instance.t) =
  (* Bake a meter into every op unconditionally: when the instance has
     none, a private dummy absorbs the counts — an unconditional field
     increment is cheaper than a per-op option match, and the dummy is
     never observable (nothing else holds it). *)
  let mtr = match inst.meter with Some m -> m | None -> Meter.create () in
  let labels = Label_stack.create no_frame in
  Array.iteri
    (fun i fi ->
      match fi with
      | Instance.Host_func _ -> ()
      | Instance.Wasm_func ({ func; ty; code; _ } as w) ->
          let xf, _stats =
            compile ~labels ~m:inst.module_ ~ix
              ~name:(Instance.func_name inst i)
              ~ty ~func ~code ~mtr
          in
          w.xcode <- Some xf)
    inst.funcs

(** Compile all functions of a module without instantiating it — the
    [cagec --Wfusion] entry point. Returns per-function stats in
    function-index order (local functions only). [elide] is the static
    analyzer's bitset array, as passed to instantiation. *)
let module_stats ?elide ?belide ?arena (m : Ast.module_) : Xcode.stats list =
  let ix = Ast.index m in
  let codes = Code.prepare ?elide ?belide ?arena ix in
  let labels = Label_stack.create no_frame in
  List.mapi
    (fun j (f : Ast.func) ->
      let name = Ast.func_name ix (Array.length ix.ix_imports + j) in
      snd
        (compile ~labels ~m ~ix ~name ~ty:ix.ix_types.(f.ftype) ~func:f ~code:codes.(j)
           ~mtr:(Meter.create ())))
    m.funcs
