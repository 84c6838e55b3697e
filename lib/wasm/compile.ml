(** The threaded-code compiler: lowers a prepared function body
    ({!Code.func}) into the flat op array of {!Xcode}.

    The contract is {e bit-identical observable behaviour} with the
    tree-walking interpreter ({!Exec}): same results, same trap messages
    (same prefix taxonomy), same meter totals, same obs event streams
    and tick counts, same chaos-engine draw sequence, same deferred
    fault synchronization points. Everything the two engines share
    semantically lives in {!Rt}, {!Checked} and {!Numerics}; this module
    only decides {e when} those are called and bakes every decision that
    the interpreter re-derives per execution — operand registers, branch
    targets, elision bits, numeric specialisations — into closure
    environments at instantiation time. The one exception is the
    operator table, which restates {!Numerics}' bodies on unboxed
    values, because a call across the module boundary boxes its [int64]
    and [float] operands and result (see "The operator table");
    [Numerics] stays the interpreter's, and the engine tests hold the
    two to identical results.

    {2 Lowering is total}

    The compiler lowers only bodies the door ({!Validate.prepare})
    produced, for {!Exec.instantiate} and {!module_stats} alike, so it
    never meets an ill-typed body: operand types, label indices and
    stack heights are guaranteed, and it tracks only where each operand
    of the static stack lives. Every function of a
    [Threaded] instance is compiled; there is no per-function
    interpreter fallback.

    {2 Register operands}

    A frame is one register file off [st.base]: the locals, the
    function's constants, then its operand slots ({!Xcode.func}).
    [local.get] and a constant emit nothing: they push the register the
    value already lives in. Every op reads its operands where they live
    and writes its result to its operand slot or, when a [local.set] or
    [local.tee] follows, straight into that local. A comparison followed
    by [[i32.eqz;] br_if] or [if] is one compare-and-branch op, and the
    address step [[ext;] [const; mul;] add] folds into the access that
    consumes it, with a row-major [x; y; i32.mul; z; i32.add] in front
    of it. A [br] back to a loop whose first op is a conditional branch
    runs that guard too. A single-use temporary (one [local.set], one
    [local.get]) of a local or a constant is never written: its read
    reads the source, unless a write of the source, a label or a branch
    comes first. A pending read of a local moves into its slot before
    that local is written; so does every pending operand at a label that
    a branch reaches (a block's end, an if's arms, a loop's head) and
    below a branch's target height, and every call argument, since the
    callee's frame begins at the caller's argument slots.

    {2 Pending charges}

    An instruction that emits nothing still ticks and meters. Its tick
    and its meter count wait, and so do the tick and absorbed write of
    every {e pure} op (one that can neither trap nor emit an event), until
    an op that can: it pays them before its own effects. At a label a
    branch reaches, a charge-only op pays what is pending. So every
    event, trap, fuel burn and chaos draw sees the interpreter's tick
    count and meter, and a run ends with the interpreter's totals; only
    where a profiler sample falls within a run of pure ops moves.

    {2 Three shared pieces}

    Every op is a one-argument closure [fun st -> ...; next] whose
    successor index [next] is bound when the op is emitted. Memory
    accesses go through one access path ({!load}/{!store}), and
    arithmetic through one operator table ({!i32_binop_m}, {!f_binop_m},
    ...). Both are closed [@inline] functions: without flambda, a flag
    or operator an op captures is tested on every execution, while a
    literal argument to an inlined closed function is folded away. The
    access path therefore takes its address width and check policy as
    literals, picked by one emit-time [match]; operators stay captured
    and cost one switch.

    {2 Branches are jumps}

    A branch to a block carries the label's values to the block's entry
    height, dropping any operands the body left below them (the spec's
    semantics, which the interpreter implements by restoring its entry
    stack). A carried value moves from the register it lives in to the
    label's slot; when it is there already, the branch compiles to a
    bare [fun _ -> target]. Loop labels carry nothing, and [return] is
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

(* Where an op finds an operand: a register of the frame's register
   file off [st.base] ({!Xcode}'s frame layout), which holds the locals,
   then the function's constants, then its operand slots. An op reads
   each operand from the register it lives in and writes its result to
   a register, so a constant or a local costs no op to bring to it. *)
let[@inline] rd64 (st : Instance.t Xcode.state) r = get64 st.stk (st.base + r)

let[@inline] rdi st r = Int64.to_int (rd64 st r)

let[@inline] rdf (st : Instance.t Xcode.state) r = Array.unsafe_get st.stk (st.base + r)

let[@inline] wr64 (st : Instance.t Xcode.state) d v = set64 st.stk (st.base + d) v
let[@inline] wri st d v = wr64 st d (Int64.of_int v)
let[@inline] wrb st d b = wri st d (Bool.to_int b)
let[@inline] wrf (st : Instance.t Xcode.state) d v = Array.unsafe_set st.stk (st.base + d) v

(* What an op pays for the instructions it stands for. Before its own
   effects: the ticks of its own instructions and of every instruction
   that emitted nothing since the last op (folded operand reads and
   constants, [nop], [drop], a block's entry), and the folded reads'
   and constants' meter counts. After them: [c_post] ticks and [c_set]
   local writes of what it absorbed past its own effect (a [local.set]
   or [local.tee] its result went straight to, an f64 operator folded
   after a load), when that effect may trap or emit an event. *)
type charge = { c_ticks : int; c_locals : int; c_consts : int; c_post : int; c_set : int }

let[@inline] pay (m : Meter.t) inst c =
  tick_n inst c.c_ticks;
  m.local_access <- m.local_access + c.c_locals;
  m.const <- m.const + c.c_consts

let[@inline] settle (m : Meter.t) inst c =
  if c.c_post <> 0 then begin
    tick_n inst c.c_post;
    m.local_access <- m.local_access + c.c_set
  end

(* The charges small enough to share, made once at start-up, so that an
   op captures one of them instead of a fresh record. *)
let shared_charge t l k p s = (((((t * 4) + l) * 3 + k) * 5 + p) * 4) + s

let charges =
  let a = Array.make (shared_charge 8 0 0 0 0) { c_ticks = 0; c_locals = 0; c_consts = 0; c_post = 0; c_set = 0 } in
  for t = 0 to 7 do
    for l = 0 to 3 do
      for k = 0 to 2 do
        for p = 0 to 4 do
          for s = 0 to 3 do
            a.(shared_charge t l k p s) <-
              { c_ticks = t; c_locals = l; c_consts = k; c_post = p; c_set = s }
          done
        done
      done
    done
  done;
  a

let make_charge t l k p s =
  if t < 8 && l < 4 && k < 3 && p < 5 && s < 4 then charges.(shared_charge t l k p s)
  else { c_ticks = t; c_locals = l; c_consts = k; c_post = p; c_set = s }

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

(* On an instance armed on a live lane: [Checked.resolve_addr_i64]'s
   draws and corruptions first. It reads its own operand, since an
   [int64] passed to an out-of-line call would be boxed; beyond what a
   [draw] that rolls the lane's PRNG allocates, it allocates only when
   one fires. A spent lane never draws, so it is tested inline, as an
   unarmed instance is. *)
let resolve64_chaos ln (st : Instance.t Xcode.state) a (off : int) : int =
  let p = rd64 st a in
  if Arch.Fault_inject.draw ln Arch.Fault_inject.Ptr_sig then
    pack64 (Checked.corrupt_sig ln p) off
  else if Arch.Fault_inject.draw ln Arch.Fault_inject.Ptr_tag then
    pack64 (Checked.corrupt_tag ln p) off
  else pack64 p off

let[@inline] resolve64p (st : Instance.t Xcode.state) a (off : int) : int =
  match st.inst.chaos with
  | Some ln when ln.ln_live -> resolve64_chaos ln st a off
  | _ -> pack64 (rd64 st a) off

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

(* Resolve the address operand [a] plus [off] and apply the check
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
    (mem : Memory.t) acc len off a =
  let pa = if w32 then (rdi st a land mask32) + off else resolve64p st a off in
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

(* One scalar load from address operand [a] into register [d], or store
   of operand [v], through {!access}, metered after the checks. With the
   span check elided the raw memory primitive is still total (it raises
   past the committed prefix), so the access retries once behind
   {!reach}: an in-bounds first touch commits, and an analyzer bug
   degrades to the interpreter's own bounds trap rather than a crash. *)
let[@inline] load w32 te be (m : Meter.t) st len lk off a d =
  let mem = gm st.inst in
  let addr = access w32 te be m st mem Arch.Mte.Load len off a in
  m.loads <- m.loads + 1;
  m.load_bytes <- m.load_bytes + len;
  let stk = st.stk and i = st.base + d in
  if be then
    try do_load lk mem addr stk i
    with Invalid_argument _ -> (reach mem (addr + len); do_load lk mem addr stk i)
  else do_load lk mem addr stk i

let[@inline] store w32 te be (m : Meter.t) st len sk off a v =
  let mem = gm st.inst in
  let addr = access w32 te be m st mem Arch.Mte.Store len off a in
  m.stores <- m.stores + 1;
  m.store_bytes <- m.store_bytes + len;
  let stk = st.stk and i = st.base + v in
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

(* Conversion ops, from operand [a] into register [d]. An i32 slot
   already holds the sign-extended 64-bit pattern, and an f32 slot the
   rounded double, so four conversions only move bits. *)
let[@inline] cvt (op : Ast.cvtop) st a d =
  match op with
  | I64ExtendI32S | F64PromoteF32 | I64ReinterpretF64 | F64ReinterpretI64 -> wr64 st d (rd64 st a)
  | I32WrapI64 -> wri st d (norm32 (rdi st a))
  | I64ExtendI32U -> wri st d (rdi st a land mask32)
  | I32TruncF32S | I32TruncF64S -> wri st d (trunc32 true (rdf st a))
  | I32TruncF32U | I32TruncF64U -> wri st d (trunc32 false (rdf st a))
  | I64TruncF32S | I64TruncF64S -> wr64 st d (trunc64 true (rdf st a))
  | I64TruncF32U | I64TruncF64U -> wr64 st d (trunc64 false (rdf st a))
  | F32ConvertI32S -> wrf st d (to_f32 (float_of_int (rdi st a)))
  | F32ConvertI32U -> wrf st d (to_f32 (float_of_int (rdi st a land mask32)))
  | F32ConvertI64S -> wrf st d (to_f32 (Int64.to_float (rd64 st a)))
  | F32ConvertI64U -> wrf st d (to_f32 (u64_to_float (rd64 st a)))
  | F64ConvertI32S -> wrf st d (float_of_int (rdi st a))
  | F64ConvertI32U -> wrf st d (float_of_int (rdi st a land mask32))
  | F64ConvertI64S -> wrf st d (Int64.to_float (rd64 st a))
  | F64ConvertI64U -> wrf st d (u64_to_float (rd64 st a))
  | F32DemoteF64 -> wrf st d (to_f32 (rdf st a))
  | I32ReinterpretF32 -> wri st d (Int32.to_int (Int32.bits_of_float (rdf st a)))
  | F32ReinterpretI32 -> wrf st d (Int32.float_of_bits (Int32.of_int (rdi st a)))

(* Conversions that may trap: their absorbed [local.set] is charged
   after them. *)
let cvt_traps : Ast.cvtop -> bool = function
  | I32TruncF32S | I32TruncF64S | I32TruncF32U | I32TruncF64U | I64TruncF32S | I64TruncF64S
  | I64TruncF32U | I64TruncF64U -> true
  | _ -> false

(* The address step an access begins with, in the memory's index width
   W: [[i64.extend_i32_s]; [iW.const c; iW.mul]; iW.add] of the operands
   [base] and [index] into register [addr], which the access reads
   (a lone [iW.add] has [c = 1]). With [rows = 1] the index is a
   row-major [x; y; i32.mul; z; i32.add] of registers [x], [y] and
   [index] (z), computed in 32 bits. [cvts], [scales] and [rows], 0 or
   1, bump exactly the constituents' meters without a branch. A
   plain index is read whole: an i64 index keeps its top bit. *)
type step = {
  w32 : bool;
  c : int64;
  cvts : int;
  scales : int;
  rows : int;
  x : int;
  y : int;
  base : int;
  index : int;
  addr : int;
}

let[@inline] addr_step (m : Meter.t) s st =
  m.cvt <- m.cvt + s.cvts;
  m.const <- m.const + s.scales;
  m.imul <- m.imul + s.scales + s.rows;
  m.ialu <- m.ialu + 1 + s.rows;
  if s.rows <> 0 then begin
    let i = norm32 (norm32 (rdi st s.x * rdi st s.y) + rdi st s.index) in
    if s.w32 then wri st s.addr (norm32 (rdi st s.base + (i * Int64.to_int s.c)))
    else wr64 st s.addr (Int64.add (rd64 st s.base) (Int64.mul (Int64.of_int i) s.c))
  end
  else if s.w32 then wri st s.addr (norm32 (rdi st s.base + (rdi st s.index * Int64.to_int s.c)))
  else wr64 st s.addr (Int64.add (rd64 st s.base) (Int64.mul (rd64 st s.index) s.c))

(* A load op whole: pay, the address step if any, the access into
   register [d], what was absorbed past it, and for [fop = Some (op, x,
   r)] the f64 operator on operand [x] and the loaded value into
   register [r]. All but the policy flags are closure constants. *)
let[@inline] load_op w32 te be (m : Meter.t) c sp len lk off a d fop (st : Instance.t Xcode.state) =
  pay m st.inst c;
  (match sp with None -> () | Some s -> addr_step m s st);
  load w32 te be m st len lk off a d;
  settle m st.inst c;
  match fop with
  | None -> ()
  | Some (op, x, r) ->
      wrf st r (f_binop_m m op (rdf st x) (Array.unsafe_get st.stk (st.base + d)))

let[@inline] store_op w32 te be (m : Meter.t) c sp len sk off a v (st : Instance.t Xcode.state) =
  pay m st.inst c;
  (match sp with None -> () | Some s -> addr_step m s st);
  store w32 te be m st len sk off a v

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

(* The dispatch loop: run [ops] from op 0 until an op returns the
   array's length, the function's exit. *)
let run_ops (ops : Instance.t Xcode.op array) st =
  let n = Array.length ops in
  let rec go pc = if pc < n then go ((Array.unsafe_get ops pc) st) in
  go 0

(* The call protocol. Caller arguments occupy the top of the caller's
   operand area, at absolute slots [argp .. argp + nargs - 1]; the
   callee's frame starts exactly there (arguments become parameters in
   place, zero copies), and on return the results are blitted down to
   [argp], which is where the caller's next op statically expects them.
   The caller's base and depth live on the OCaml stack across the
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
      let save_base = st.base and save_depth = st.depth in
      Xcode.ensure st (argp + xf.frame_slots);
      Xcode.enter xf st.stk argp;
      st.base <- argp;
      st.depth <- d;
      run_ops xf.ops st;
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
        Array.blit st.stk (argp + Xcode.operands xf) st.stk argp xf.result_arity;
      st.base <- save_base;
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
      depth;
    }
  in
  List.iteri (fun j v -> st.stk.(j) <- Xcode.slot_of_value v) args;
  Xcode.enter xf st.stk 0;
  run_ops xf.ops st;
  List.init xf.result_arity (fun j ->
      Xcode.value_of_slot xf.result_tys.(j) st.stk.(Xcode.operands xf + j))

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

(* The lookahead's one accessor: [body.(j)], or the static
   {!Code.filler} past the end, so reading ahead allocates nothing. *)
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

(* A branch condition: an operand that is nonzero, or a comparison of
   two, which a [relop [; i32.eqz]; br_if] or [if] folds into its
   branch op. *)
type cond =
  | Nz of int
  | Ci32 of Ast.irelop * int * int
  | Ci64 of Ast.irelop * int * int
  | Cf of Ast.frelop * int * int

let[@inline] test (st : Instance.t Xcode.state) c =
  match c with
  | Nz a -> rd64 st a <> 0L
  | Ci32 (op, a, b) -> i32_relop op (rdi st a) (rdi st b)
  | Ci64 (op, a, b) -> i64_relop op (rd64 st a) (rd64 st b)
  | Cf (op, a, b) -> f_relop op (rdf st a) (rdf st b)

(* A conditional branch on [cnd] (negated when [inv]) whole: pay, bump
   [ialu] by [ia] and [falu] by [fa] for the comparison it folded, test,
   meter, and go to [act]'s target or to [next]. *)
let[@inline] brif_op (m : Meter.t) c ia fa cnd inv act next (st : Instance.t Xcode.state) =
  pay m st.inst c;
  m.ialu <- m.ialu + ia;
  m.falu <- m.falu + fa;
  let b = test st cnd <> inv in
  meter_br m st.inst;
  if b then act st else next

(* The conditional branch that is a loop's first op, which a [br] back
   to the loop runs in its own op: {!brif_op}'s arguments. *)
type guard = {
  g_c : charge;
  g_ia : int;
  g_fa : int;
  g_cnd : cond;
  g_inv : bool;
  g_act : Instance.t Xcode.op;
  g_next : int;
}

type frame = {
  l_target : int ref;  (** op index branches to this label jump to *)
  l_loop : bool;       (** a loop label: branches go back, carrying nothing *)
  l_arity : int;
  l_height : int;      (** static operand height at the label's entry *)
  mutable l_reached : bool;
      (** a branch targets this (non-loop) label, so its end is live
          even when the body's fall-through is not *)
  mutable l_guard : guard option;  (** a loop's guard, once emitted *)
}

(* What the label stack's vacated cells hold: made once, at start-up. *)
let no_frame =
  { l_target = ref (-1); l_loop = false; l_arity = 0; l_height = 0; l_reached = false;
    l_guard = None }

(* ------------------------------------------------------------------ *)
(* Idioms                                                              *)
(* ------------------------------------------------------------------ *)

(* An idiom is an op family, the kinds of the operands the op read and
   what it absorbed past its own instruction, keyed by one int. A
   family is numbered when it is made, at start-up, in any order. *)
let family_names = Array.make 64 ""
let n_families = ref 0

let family name =
  let f = !n_families in
  family_names.(f) <- name;
  n_families := f + 1;
  f

let f_set = family "set" and f_tee = family "tee" and f_br = family "br"
let f_br_table = family "br_table" and f_return = family "return" and f_brif = family "brif"
let f_if = family "if" and f_global_get = family "global.get"
let f_global_set = family "global.set" and f_select = family "select"
let f_i32_unop = family "i32.unop" and f_i64_unop = family "i64.unop"
let f_i32_op = family "i32.op" and f_i64_op = family "i64.op"
let f_i32_div = family "i32.div" and f_i64_div = family "i64.div"
let f_i32_eqz = family "i32.eqz" and f_i64_eqz = family "i64.eqz"
let f_i32_relop = family "i32.relop" and f_i64_relop = family "i64.relop"
let f_f32_relop = family "f32.relop" and f_f64_relop = family "f64.relop"
let f_f32_unop = family "f32.unop" and f_f64_unop = family "f64.unop"
let f_f32_op = family "f32.op" and f_f64_op = family "f64.op" and f_cvt = family "cvt"
let f_load = family "load" and f_store = family "store"
let f_memory_size = family "memory.size" and f_memory_grow = family "memory.grow"
let f_memory_fill = family "memory.fill" and f_memory_copy = family "memory.copy"
let f_segment_new = family "segment.new" and f_segment_set_tag = family "segment.set_tag"
let f_segment_free = family "segment.free" and f_pointer_sign = family "pointer.sign"
let f_pointer_auth = family "pointer.auth" and f_call_indirect = family "call_indirect"

(* The address steps, [f_step.(rows).(shape * 2 + scales)]: shape 0 an
   i32 index, 1 an i64 one, 2 an i32 one extended under i64. *)
let f_step =
  Array.map (Array.map family)
    [| [| "i32.add"; "i32.scale.add"; "i64.add"; "i64.scale.add"; "i64.ext.add";
          "i64.ext.scale.add" |];
       [| "i32.row.add"; "i32.row.scale.add"; "i64.row.add"; "i64.row.scale.add";
          "i64.ext.row.add"; "i64.ext.row.scale.add" |] |]

(* What an op absorbed past its own instruction: a consumer, times 4,
   plus where its result went ({!result}: [r_set] a [local.set], [r_tee]
   a [local.tee], [r_via] a single-use temporary's set and get and the
   [local.set] after them). *)
let t_brif = 4 and t_eqz_brif = 8 and t_if = 12 and t_eqz_if = 16
let t_load = 20 and t_load_fop = 24 and t_store = 28 and t_guard = 32
let r_set = 1 and r_tee = 2 and r_via = 3

let tail_names =
  let consumers =
    [| ""; ".brif"; ".eqz.brif"; ".if"; ".eqz.if"; ".load"; ".load.f64.op"; ".store"; ".guard" |]
  and results = [| ""; ".set"; ".tee"; ".set.get.set" |] in
  Array.init (4 * Array.length consumers) (fun t -> consumers.(t / 4) ^ results.(t mod 4))

(* The kinds of up to five operands, as base-3 digits after a leading 1,
   one per operand in stack order: [s] a slot, [g] a local, [k] a
   constant. *)
let n_kinds = 729

let kinds_names =
  Array.init n_kinds (fun c ->
      let rec digits c acc = if c <= 1 then acc else digits (c / 3) ("sgk".[c mod 3] :: acc) in
      match digits c [] with
      | [] -> ""
      | ds -> "." ^ String.of_seq (List.to_seq ds))

let rec slots_only c = c = 1 || (c mod 3 = 0 && slots_only (c / 3))

let idiom_key family kinds tail = (((family * 64) + tail) * n_kinds) + kinds

let idiom_name key =
  let rest = key / n_kinds in
  family_names.(rest / 64) ^ kinds_names.(key mod n_kinds) ^ tail_names.(rest mod 64)

(* A function's idiom counts: an open-addressed table of keys (-1 where
   empty), so that a note is one multiply and a probe. [used] lists the
   slots taken, so that emptying the table costs what filling it did. *)
type tally = {
  mutable keys : int array;
  mutable counts : int array;
  mutable used : int array;
  mutable n : int;
}

let tally () = { keys = Array.make 32 (-1); counts = Array.make 32 0; used = Array.make 16 0; n = 0 }

let rec probe keys key mask i =
  let k = Array.unsafe_get keys i in
  if k = key || k < 0 then i else probe keys key mask ((i + 1) land mask)

let rec tally_add t key n =
  let mask = Array.length t.keys - 1 in
  let i = probe t.keys key mask (((key * 0x9E3779B1) lsr 11) land mask) in
  if t.keys.(i) = key then t.counts.(i) <- t.counts.(i) + n
  else if 2 * (t.n + 1) <= mask then begin
    t.keys.(i) <- key;
    t.counts.(i) <- n;
    t.used.(t.n) <- i;
    t.n <- t.n + 1
  end
  else begin
    let keys = t.keys and counts = t.counts and used = t.used and m = t.n in
    t.keys <- Array.make (2 * (mask + 1)) (-1);
    t.counts <- Array.make (2 * (mask + 1)) 0;
    t.used <- Array.make (mask + 1) 0;
    t.n <- 0;
    for j = 0 to m - 1 do
      tally_add t keys.(used.(j)) counts.(used.(j))
    done;
    tally_add t key n
  end

(* The idioms counted, by name, each name made once into [names]; the
   table is left empty. *)
let tally_take names t =
  let name key =
    match Hashtbl.find names key with
    | s -> s
    | exception Not_found ->
        let s = idiom_name key in
        Hashtbl.add names key s;
        s
  in
  let l = ref [] in
  for j = 0 to t.n - 1 do
    let i = t.used.(j) in
    l := (name t.keys.(i), t.counts.(i)) :: !l;
    t.keys.(i) <- -1;
    t.counts.(i) <- 0
  done;
  t.n <- 0;
  !l

(* What lowering the functions of a module reuses from one function to
   the next: the label stack, empty between functions; the idiom table,
   emptied as each function's statistics are taken, and the idiom names
   made so far; the static operand stack; and three arrays over the
   locals, cleared as a function starts (see {!compile}). *)
type workspace = {
  labels : frame Label_stack.t;
  idioms : tally;
  names : (int, string) Hashtbl.t;
  mutable stack : int array;
  mutable nreads : int array;
  mutable alias : int array;
  mutable nalias : int array;
}

let workspace () =
  { labels = Label_stack.create no_frame;
    idioms = tally ();
    names = Hashtbl.create 64;
    stack = Array.make 16 0; nreads = Array.make 16 0; alias = Array.make 16 (-1);
    nalias = Array.make 16 0 }

(* Count a use of local [r] in [uses] (see {!scan}), [unit] its field's
   lowest bit: each field stops at 2, for more than one. *)
let use uses r unit =
  let v = Char.code (Bytes.unsafe_get uses r) in
  if (v / unit) land 3 < 2 then Bytes.unsafe_set uses r (Char.unsafe_chr (v + unit))

(* [n] plus the constant instructions of a prepared body from [body.(j)]
   on; each local's [local.get]s (bits 0-1), [local.set]s (bits 2-3)
   and [local.tee]s (bits 4-5) go into [uses]. *)
let rec scan uses n (body : Code.instr array) j =
  if j = Array.length body then n
  else
    match Array.unsafe_get body j with
    | Basic ((I32Const _ | I64Const _ | F32Const _ | F64Const _), _) -> scan uses (n + 1) body (j + 1)
    | Basic (LocalGet r, _) -> use uses r 1; scan uses n body (j + 1)
    | Basic (LocalSet r, _) -> use uses r 4; scan uses n body (j + 1)
    | Basic (LocalTee r, _) -> use uses r 16; scan uses n body (j + 1)
    | Basic _ | Br _ | BrIf _ | BrTable _ | Return _ -> scan uses n body (j + 1)
    | Block (_, b) | Loop (_, b) -> scan uses (scan uses n b 0) body (j + 1)
    | If (_, t, e) -> scan uses (scan uses (scan uses n t 0) e 0) body (j + 1)

(* The [uses] entry of a local with one [local.get], one [local.set] and
   no [local.tee]. *)
let once = '\005'

(* [ws] is the caller's {!workspace}, its label stack empty on entry and
   on return. *)
let compile ~ws ~(m : Ast.module_) ~(ix : Ast.index) ~(name : string)
    ~(ty : Types.func_type) ~(func : Ast.func) ~(code : Code.func)
    ~(mtr : Meter.t) : Instance.t Xcode.func * Xcode.stats =
  let nparams = List.length ty.params in
  let nlocals = List.length func.locals in
  let nloc = nparams + nlocals in
  let uses = Bytes.make nloc '\000' in
  (* constant [j] is register [nloc + j], and operand slot [k] register
     [opoff + k]; every constant instruction has a register of its own *)
  let consts = Array.make (scan uses 0 code.body 0) 0.0 in
  let opoff = nloc + Array.length consts in
  let nconst = ref 0 in
  let result_arity = code.result_arity in
  (* A validated module without a memory has no memory instructions, so
     the [None] default is never consulted. *)
  let w32 =
    match m.memory with Some mt -> mt.Types.mem_idx = Types.Idx32 | None -> true
  in
  let iw = if w32 then Ast.W32 else Ast.W64 in
  (* Page counts and bulk lengths are unsigned in the memory's index
     type; bulk-op addresses resolve as [Checked.resolve_addr] does. *)
  let idx_of st a = if w32 then Int64.of_int (rdi st a land mask32) else rd64 st a in
  let set_idx st d v = if w32 then wri st d (norm32 (Int64.to_int v)) else wr64 st d v in
  let resolve_bulk inst st a =
    if w32 then (Checked.resolve_addr_i32 (Int32.of_int (rdi st a)) 0L, Arch.Tag.zero)
    else Checked.resolve_addr_i64 inst (rd64 st a) 0L
  in
  (* ---------------------------------------------------------------- *)
  (* The static operand stack: where each operand lives                *)
  (* ---------------------------------------------------------------- *)
  let h = ref 0 and max_h = ref 0 in
  (* every operand below [low] is in its own slot *)
  let low = ref 0 in
  (* [nreads.(r)]: how many operands on the stack are pending reads of
     local [r]. Single-use temporaries: [alias.(t)] is the register whose
     value temporary [t] stands for, -1 when [t] holds its own, and
     [nalias.(r)] counts the live aliases of local [r]; [live] lists the
     temporaries aliased since the last flush, [n_live] the live ones. *)
  if Array.length ws.nreads < nloc then begin
    let n = max nloc (2 * Array.length ws.nreads) in
    ws.nreads <- Array.make n 0;
    ws.alias <- Array.make n (-1);
    ws.nalias <- Array.make n 0
  end
  else begin
    Array.fill ws.nreads 0 nloc 0;
    Array.fill ws.alias 0 nloc (-1);
    Array.fill ws.nalias 0 nloc 0
  end;
  let labels = ws.labels and nreads = ws.nreads and alias = ws.alias and nalias = ws.nalias in
  let live = ref [] and n_live = ref 0 in
  (* the loop whose head op was the last op emitted, if any *)
  let head = ref no_frame in
  (* --- what the instructions that emitted nothing leave to pay --- *)
  let pt = ref 0 and pl = ref 0 and pk = ref 0 in
  (* --- op builder: ops are emitted in order, so the op being emitted
     has index [!count] and falls through to [!count + 1] --- *)
  let rev_ops : Instance.t Xcode.op list ref = ref [] in
  let count = ref 0 in
  (* an op that an instruction emits as its own, as opposed to a move or
     charge the lowering adds *)
  let n_owned = ref 0 in
  (* --- statistics --- *)
  let n_instrs = ref 0 in
  let n_acc = ref 0 in
  let n_elided = ref 0 in
  (* what [result] leaves besides the register *)
  let res_c = ref (make_charge 0 0 0 0 0) and res_set = ref 0 and res_tail = ref 0 in
  (* ---------------------------------------------------------------- *)
  (* Lowering                                                          *)
  (* ---------------------------------------------------------------- *)
  (* whether control falls through the instruction just compiled *)
  let falls = ref true in
  let single_use t = t >= nparams && Bytes.unsafe_get uses t = once in
  let rec slot k = opoff + k
  and is_own k o = o = opoff + k
  and push o =
    let k = !h in
    if k = Array.length ws.stack then begin
      let b = Array.make (2 * k) 0 in
      Array.blit ws.stack 0 b 0 k;
      ws.stack <- b
    end;
    ws.stack.(k) <- o;
    if o < nloc then nreads.(o) <- nreads.(o) + 1;
    h := k + 1;
    if k + 1 > !max_h then max_h := k + 1;
    if !low = k && is_own k o then low := k + 1
  and pop () =
    decr h;
    let o = ws.stack.(!h) in
    if o < nloc then nreads.(o) <- nreads.(o) - 1;
    if !low > !h then low := !h;
    o
  (* The charge of an op that ticks [own] times and writes [la] locals
     before its effects, [post] times and [set] locals after them, taking
     what is pending. *)
  and take own la post set =
    let c = make_charge (!pt + own) (!pl + la) !pk post set in
    pt := 0;
    pl := 0;
    pk := 0;
    c
  and charge own = take own 0 0 0
  (* A pure op pays nothing itself: it can neither trap nor emit an
     event, so its ticks and absorbed local write join what is pending,
     and the next op that can pays them before its own effects. *)
  and pend own la =
    pt := !pt + own;
    pl := !pl + la
  and put (op : Instance.t Xcode.op) =
    incr count;
    head := no_frame;
    rev_ops := op :: !rev_ops
  and own_op op =
    incr n_owned;
    put op
  and kind r = if r < nloc then 1 else if r < opoff then 2 else 0
  and kinds1 a = 3 + kind a
  and kinds2 a b = 9 + (3 * kind a) + kind b
  and kinds3 a b c = 27 + (9 * kind a) + (3 * kind b) + kind c
  (* An op is an idiom when it folded an operand or absorbed an
     instruction past its own. *)
  and note family kinds tail =
    if tail <> 0 || not (slots_only kinds) then tally_add ws.idioms (idiom_key family kinds tail) 1
  (* ---------------------------------------------------------------- *)
  (* Materialisation                                                   *)
  (* ---------------------------------------------------------------- *)
  (* One (pure) op that moves register [srcs.(j)] to [dsts.(j)], for
     every [j]. *)
  and moves srcs dsts =
    let next = !count + 1 in
    if Array.length srcs = 1 then begin
      let o = srcs.(0) and d = dsts.(0) in
      put (fun st ->
          wrf st d (rdf st o);
          next)
    end
    else
      put (fun st ->
          for j = 0 to Array.length srcs - 1 do
            wrf st (Array.unsafe_get dsts j) (rdf st (Array.unsafe_get srcs j))
          done;
          next)
  (* Move every operand at a height in [lo, hi) that is not in its own
     slot into it. *)
  and materialize_range lo hi =
    let lo = max lo !low in
    let n = ref 0 in
    for k = lo to hi - 1 do
      if not (is_own k ws.stack.(k)) then incr n
    done;
    if !n > 0 then begin
      let srcs = Array.make !n 0 and dsts = Array.make !n 0 in
      let j = ref 0 in
      for k = lo to hi - 1 do
        let o = ws.stack.(k) in
        if not (is_own k o) then begin
          srcs.(!j) <- o;
          dsts.(!j) <- slot k;
          incr j;
          if o < nloc then nreads.(o) <- nreads.(o) - 1;
          ws.stack.(k) <- slot k
        end
      done;
      moves srcs dsts
    end;
    if lo = !low then low := max lo hi
  and materialize () = materialize_range 0 !h
  (* before local [d] is written: its pending reads take their values,
     and so do the temporaries that stand for it *)
  and take_reads d =
    if nreads.(d) > 0 then materialize ();
    if nalias.(d) > 0 then flush ()
  (* ---------------------------------------------------------------- *)
  (* Single-use temporaries                                            *)
  (* ---------------------------------------------------------------- *)
  (* [local.set t] of a local or constant register [a], for a single-use
     temporary [t]: no op, and [t]'s one read reads [a]. *)
  and make_alias t a =
    alias.(t) <- a;
    if a < nloc then nalias.(a) <- nalias.(a) + 1;
    incr n_live;
    live := t :: !live
  and unalias t =
    let a = alias.(t) in
    alias.(t) <- -1;
    if a < nloc then nalias.(a) <- nalias.(a) - 1;
    decr n_live
  (* Before a write of an aliased register, a label or a branch: every
     live alias's value moves into its temporary, in one (pure) op. *)
  and flush () =
    if !n_live > 0 then begin
      let srcs = Array.make !n_live 0 and dsts = Array.make !n_live 0 in
      let j = ref 0 in
      List.iter
        (fun t ->
          if alias.(t) >= 0 then begin
            srcs.(!j) <- alias.(t);
            dsts.(!j) <- t;
            incr j;
            unalias t
          end)
        !live;
      moves srcs dsts
    end;
    live := []
  (* Where control does not fall through, aliases die unread. *)
  and forget () =
    List.iter (fun t -> if alias.(t) >= 0 then unalias t) !live;
    live := []
  (* Before a label: every operand in its own slot, every temporary
     holding its value, and what is pending paid by a charge-only op if
     no move paid it. *)
  and to_label () =
    materialize ();
    flush ();
    if !pt > 0 then begin
      let c = charge 0 and next = !count + 1 in
      put (fun st ->
          pay mtr st.inst c;
          next)
    end
  (* After a label at height [lh] that carries [hh - lh] values: the
     arm's operands gone, the label's values in their slots, and no
     alias live (an arm that fell through flushed them). *)
  and reset_to lh hh =
    forget ();
    while !h > lh do
      ignore (pop ())
    done;
    while !h < hh do
      push (slot !h)
    done
  (* The register the one result of an op goes to, for an op that ticks
     [own] times before its effects: a [local.set] or [local.tee] at
     [body.(j)] is absorbed, its write going straight to the local, and
     [local.set t; local.get t; local.set d] of a single-use temporary
     [t] writes [d]; else the result takes its own slot. A pure op's
     charges join what is pending; an effectful one's go to [res_c], with
     the absorbed writes and the [post] ticks it owes after its effects.
     The instructions absorbed and the idiom tail go to [res_set] and
     [res_tail]. *)
  and result ?(pure = true) ?(post = 0) body j own =
    match instr_at body j with
    | Code.Basic (((Ast.LocalSet t | Ast.LocalTee t) as set), _) ->
        let via =
          match (set, instr_at body (j + 1), instr_at body (j + 2)) with
          | Ast.LocalSet _, Code.Basic (Ast.LocalGet t', _), Code.Basic (Ast.LocalSet d, _)
            when t' = t && single_use t ->
              d
          | _ -> -1
        in
        let d = if via >= 0 then via else t and n = if via >= 0 then 3 else 1 in
        take_reads d;
        if pure then pend (own + n) n else res_c := take own 0 (post + n) n;
        res_set := n;
        (match set with
        | Ast.LocalTee _ ->
            res_tail := r_tee;
            push d
        | _ -> res_tail := if via >= 0 then r_via else r_set);
        d
    | _ ->
        let d = slot !h in
        push d;
        if pure then pend own 0 else res_c := take own 0 post 0;
        res_set := 0;
        res_tail := 0;
        d
  (* ---------------------------------------------------------------- *)
  (* Access emission                                                   *)
  (* ---------------------------------------------------------------- *)
  (* The analysis verdicts of access [id], counted for the stats. *)
  and policy id =
    let te = Code.elidable code.elide id in
    incr n_acc;
    if te then incr n_elided;
    (w32, te, Code.elidable code.belide id)
  (* Pick the access path's literal flags once, at emit time. *)
  and load_body id lty pack (ma : Ast.memarg) c sp a d fop next : Instance.t Xcode.op =
    let len, lk = load_kind lty pack and off = native_off ma.offset and m = mtr in
    match policy id with
    | true, false, false -> fun st -> load_op true false false m c sp len lk off a d fop st; next
    | true, true, false -> fun st -> load_op true true false m c sp len lk off a d fop st; next
    | true, false, true -> fun st -> load_op true false true m c sp len lk off a d fop st; next
    | true, true, true -> fun st -> load_op true true true m c sp len lk off a d fop st; next
    | false, false, false -> fun st -> load_op false false false m c sp len lk off a d fop st; next
    | false, true, false -> fun st -> load_op false true false m c sp len lk off a d fop st; next
    | false, false, true -> fun st -> load_op false false true m c sp len lk off a d fop st; next
    | false, true, true -> fun st -> load_op false true true m c sp len lk off a d fop st; next
  and store_body id sty pack (ma : Ast.memarg) c sp a v next : Instance.t Xcode.op =
    let len, sk = store_kind sty pack and off = native_off ma.offset and m = mtr in
    match policy id with
    | true, false, false -> fun st -> store_op true false false m c sp len sk off a v st; next
    | true, true, false -> fun st -> store_op true true false m c sp len sk off a v st; next
    | true, false, true -> fun st -> store_op true false true m c sp len sk off a v st; next
    | true, true, true -> fun st -> store_op true true true m c sp len sk off a v st; next
    | false, false, false -> fun st -> store_op false false false m c sp len sk off a v st; next
    | false, true, false -> fun st -> store_op false true false m c sp len sk off a v st; next
    | false, false, true -> fun st -> store_op false false true m c sp len sk off a v st; next
    | false, true, true -> fun st -> store_op false true true m c sp len sk off a v st; next
  (* ---------------------------------------------------------------- *)
  (* Branch actions                                                    *)
  (* ---------------------------------------------------------------- *)
  (* The runtime "take the branch" continuation for a branch to label
     [fr] from the current static stack. Loop back-edges pay the loop
     label's catch-clause [meter_br] on top of the branch's own (the
     interpreter's [Loop] handler re-meters on every iteration); any
     other label's values are moved from where they live to its entry
     height (several values must be in their slots already). *)
  and branch_to fr : Instance.t Xcode.state -> int =
    let tgt = fr.l_target in
    if fr.l_loop then fun st ->
      meter_br mtr st.inst;
      !tgt
    else begin
      fr.l_reached <- true;
      let arity = fr.l_arity and dst = slot fr.l_height in
      if arity = 0 then fun _ -> !tgt
      else if arity = 1 then
        let o = ws.stack.(!h - 1) in
        if o = dst then fun _ -> !tgt
        else fun st ->
          wrf st dst (rdf st o);
          !tgt
      else
        let src = slot (!h - arity) in
        if src = dst then fun _ -> !tgt
        else fun st ->
          Array.blit st.stk (st.base + src) st.stk (st.base + dst) arity;
          !tgt
    end
  (* a branch carrying several values reads them from their slots *)
  (* A branch to a label that is not a loop's: what lies below the
     label's height into its slots, as on every path to the label (so
     that the join agrees), and several carried values into theirs. *)
  and carried fr =
    if not fr.l_loop then
      if fr.l_arity > 1 then materialize () else materialize_range 0 fr.l_height
  (* a branch's target may read any temporary: every alias flushed *)
  and branch_action ({ depth; _ } : Code.label) =
    let fr = Label_stack.nth labels depth in
    carried fr;
    flush ();
    branch_to fr
  and top_kinds fr = if fr.l_arity = 1 && not fr.l_loop then kinds1 ws.stack.(!h - 1) else 1
  and compile_in fr (body : Code.instr array) : bool =
    Label_stack.push labels fr;
    let live = compile_seq body in
    ignore (Label_stack.pop labels);
    live
  and compile_seq (body : Code.instr array) : bool =
    let n = Array.length body in
    let i = ref 0 in
    falls := true;
    (* dead code after a branch emits nothing: ids are pre-assigned *)
    while !falls && !i < n do
      let k = compile_at body !i in
      n_instrs := !n_instrs + k;
      i := !i + k
    done;
    !falls
  (* Compile from [body.(i)]; returns the instructions consumed. *)
  and compile_at body i : int =
    match body.(i) with
    | Code.Basic (b, id) ->
        let k = try_step body i in
        if k > 0 then k else compile_basic body i b id
    | Code.Block (arity, inner) ->
        (* the block's entry tick rides on the next op *)
        incr pt;
        let fr =
          { l_target = ref (-1); l_loop = false; l_arity = arity;
            l_height = !h; l_reached = false; l_guard = None }
        in
        let ft = compile_in fr inner in
        (* a label no branch targets joins nothing: the fall-through
           keeps its operands where they are and its charges pending *)
        if fr.l_reached then begin
          if ft then to_label ();
          fr.l_target := !count;
          reset_to fr.l_height (fr.l_height + arity)
        end;
        falls := ft || fr.l_reached;
        1
    | Code.Loop (_, inner) ->
        materialize ();
        flush ();
        (* back-edges land after the entry tick: the interpreter ticks a
           Loop node once, not per iteration *)
        let c = charge 1 and next = !count + 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            next);
        let fr =
          { l_target = ref !count; l_loop = true; l_arity = 0; l_height = !h;
            l_reached = false; l_guard = None }
        in
        head := fr;
        falls := compile_in fr inner;
        1
    | Code.If (arity, then_, else_) ->
        let a = pop () in
        emit_if (Nz a) false 0 0 1 f_if (kinds1 a) 0 arity then_ else_;
        1
    | Code.BrIf l ->
        let a = pop () in
        emit_brif (Nz a) false 0 0 1 f_brif (kinds1 a) 0 l;
        1
    | Code.Br l ->
        let fr = Label_stack.nth labels l.depth in
        let act = branch_action l in
        let c = charge 1 in
        (match fr.l_guard with
        | Some { g_c; g_ia; g_fa; g_cnd; g_inv; g_act; g_next } ->
            (* a back-edge to a guarded loop: the branch, the loop's
               re-entry, then its guard, in one op *)
            note f_br (top_kinds fr) t_guard;
            own_op (fun st ->
                pay mtr st.inst c;
                meter_br mtr st.inst;
                meter_br mtr st.inst;
                brif_op mtr g_c g_ia g_fa g_cnd g_inv g_act g_next st)
        | None ->
            note f_br (top_kinds fr) 0;
            own_op (fun st ->
                pay mtr st.inst c;
                meter_br mtr st.inst;
                act st));
        falls := false;
        1
    | Code.BrTable (targets, default) ->
        let io = pop () in
        note f_br_table (kinds1 io) 0;
        let acts = Array.make (Array.length targets) unset_op in
        Array.iteri (fun j l -> acts.(j) <- branch_action l) targets;
        let default_act = branch_action default in
        let nt = Array.length acts in
        let c = charge 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            meter_br mtr st.inst;
            let idx = rdi st io in
            let act =
              if idx >= 0 && idx < nt then Array.unsafe_get acts idx else default_act
            in
            act st);
        falls := false;
        1
    | Code.Return _ ->
        let fr = Label_stack.bottom labels in
        note f_return (top_kinds fr) 0;
        carried fr;
        let act = branch_to fr in
        let c = charge 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            mtr.return_ <- mtr.return_ + 1;
            act st);
        falls := false;
        1
  (* A conditional branch on [cnd] (negated when [inv]) that bumps
     [ialu] by [ia] and [falu] by [fa] for the comparison it folded and
     ticks [own] times. *)
  and emit_brif cnd inv ia fa own family kinds tail (l : Code.label) =
    note family kinds tail;
    let act = branch_action l in
    let c = charge own and next = !count + 1 in
    (* the first op of a loop is its guard, which back-edges run *)
    let fr = !head in
    if fr != no_frame then
      fr.l_guard <-
        Some { g_c = c; g_ia = ia; g_fa = fa; g_cnd = cnd; g_inv = inv; g_act = act; g_next = next };
    own_op (fun st -> brif_op mtr c ia fa cnd inv act next st)
  and emit_if cnd inv ia fa own family kinds tail arity then_ else_ =
    note family kinds tail;
    materialize ();
    flush ();
    let hcond = !h in
    let fr =
      { l_target = ref (-1); l_loop = false; l_arity = arity; l_height = hcond;
        l_reached = false; l_guard = None }
    in
    let else_ref = ref (-1) in
    let c = charge own and next = !count + 1 in
    own_op (fun st ->
        pay mtr st.inst c;
        mtr.ialu <- mtr.ialu + ia;
        mtr.falu <- mtr.falu + fa;
        let b = test st cnd <> inv in
        meter_br mtr st.inst;
        if b then next else !else_ref);
    let ft_then = compile_in fr then_ in
    if ft_then && Array.length else_ > 0 then begin
      (* jump over the else arm, paying what the then arm left pending
         (no tick of its own: synthetic control) *)
      materialize ();
      flush ();
      let tgt = fr.l_target in
      if !pt > 0 then begin
        let c = charge 0 in
        put (fun st ->
            pay mtr st.inst c;
            !tgt)
      end
      else put (fun _ -> !tgt)
    end
    else if ft_then then to_label ();
    else_ref := !count;
    reset_to hcond hcond;
    let ft_else = compile_in fr else_ in
    if ft_else then to_label ();
    fr.l_target := !count;
    reset_to hcond (hcond + arity);
    falls := ft_then || ft_else || fr.l_reached
  (* The address step [[ext;] [const c; mul;] add] at [body.(i)], on the
     top two operands (base, index), fused into the access that consumes
     it: a load, a load whose value an f64 binop folds into the operand
     below, or a store of a local or a constant. An access's step also
     absorbs a row-major index [x; y; i32.mul; z; i32.add] in front of
     it, [z] a local or a constant. With no consumer, a plain step of two
     or more instructions is one op. Returns the instructions consumed,
     0 when [body.(i)] starts no step. *)
  and try_step body i : int =
    let open Ast in
    let k =
      match (basic_at body i, basic_at body (i + 1), basic_at body (i + 2)) with
      | IBinop (W32, Mul), (LocalGet _ | I32Const _), IBinop (W32, Add) -> step_at body i 1
      | _ -> 0
    in
    if k > 0 then k else step_at body i 0
  (* the step after [rows] (0 or 1) row-major indexes at [body.(i)] *)
  and step_at body i rows : int =
    let open Ast in
    let ext = match basic_at body (i + (3 * rows)) with Cvtop I64ExtendI32S -> 1 | _ -> 0 in
    let j = i + (3 * rows) + ext in
    match basic_at body j with
    | IBinop (w, Add) when w = iw -> step_op body i rows ext 1L 0
    | I32Const _ | I64Const _ -> (
        (* the const and the add are as wide as the mul (validation) *)
        match (basic_at body j, basic_at body (j + 1), basic_at body (j + 2)) with
        | I32Const c, IBinop (w, Mul), IBinop (_, Add) when w = iw ->
            step_op body i rows ext (Int64.of_int32 c) 1
        | I64Const c, IBinop (w, Mul), IBinop (_, Add) when w = iw ->
            step_op body i rows ext c 1
        | _ -> 0)
    | _ -> 0
  and step_op body i rows ext scale scales : int =
    let open Ast in
    let k = (3 * rows) + ext + 1 + (2 * scales) in
    (* the op ticks for the step, but a row's [z], which ticks as it is
       pushed, and for the access *)
    let own = k - rows + 1 in
    let family = f_step.(rows).((2 * if w32 then 0 else 1 + ext) + scales) in
    match (instr_at body (i + k), instr_at body (i + k + 1)) with
    | ( Code.Basic (Load (Types.F64, None, ma), lid),
        Code.Basic (FBinop (W64, ((FAdd | FSub | FMul | FDiv) as op)), _) ) ->
        let s = step_operands body i rows ext scale scales in
        let x = pop () in
        let d = result ~pure:false ~post:1 body (i + k + 2) own in
        let c = !res_c and next = !count + 1 in
        note family (step_kinds (kinds1 x) s) (t_load_fop + !res_tail);
        own_op
          (load_body lid Types.F64 None ma c (Some s) s.addr s.addr (Some (op, x, d)) next);
        k + 2 + !res_set
    | Code.Basic (Load (lty, pack, ma), lid), _ ->
        let s = step_operands body i rows ext scale scales in
        let d = result ~pure:false body (i + k + 1) own in
        let c = !res_c and next = !count + 1 in
        note family (step_kinds 1 s) (t_load + !res_tail);
        own_op (load_body lid lty pack ma c (Some s) s.addr d None next);
        k + 1 + !res_set
    | ( Code.Basic ((LocalGet _ | I32Const _ | I64Const _ | F32Const _ | F64Const _) as vi, _),
        Code.Basic (Store (sty, pack, ma), sid) ) ->
        let s = step_operands body i rows ext scale scales in
        push_value vi;
        let v = pop () in
        let c = charge own and next = !count + 1 in
        note family ((3 * step_kinds 1 s) + kind v) t_store;
        own_op (store_body sid sty pack ma c (Some s) s.addr v next);
        k + 2
    | _ when k > 1 && rows = 0 ->
        let s = step_operands body i rows ext scale scales in
        let d = result body (i + k) k in
        let s = { s with addr = d } in
        let next = !count + 1 in
        note family (step_kinds 1 s) !res_tail;
        own_op (fun st ->
            addr_step mtr s st;
            next);
        k + !res_set
    | _ -> 0
  (* A step's operands, popped: the base and the index, or a row's [x]
     and [y] and its [z], which is pushed here. The address goes to the
     slot the base leaves. *)
  and step_operands body i rows ext scale scales =
    let y = if rows > 0 then pop () else -1 in
    let x = if rows > 0 then pop () else -1 in
    if rows > 0 then push_value (basic_at body (i + 1));
    let index = pop () in
    let base = pop () in
    { w32; c = scale; cvts = ext; scales; rows; x; y; base; index; addr = slot !h }
  (* [pre]'s kinds code followed by a step's operands' kinds *)
  and step_kinds pre s =
    let k = (3 * pre) + kind s.base in
    if s.rows = 0 then (3 * k) + kind s.index
    else (27 * k) + (9 * kind s.x) + (3 * kind s.y) + kind s.index
  (* An instruction that only pushes: a local read or a constant, which
     emits nothing and leaves its charge pending. *)
  and push_value (ins : Ast.instr) =
    incr pt;
    match ins with
    | LocalGet r ->
        incr pl;
        if alias.(r) >= 0 then begin
          let a = alias.(r) in
          unalias r;
          push a
        end
        else push r
    | I32Const v -> push_const (Int64.of_int32 v)
    | I64Const v -> push_const v
    | F32Const v -> push_float (to_f32 v)
    | F64Const v -> push_float v
    | _ -> assert false
  (* a constant's bits go to its register in the frame's constant area *)
  and push_const bits =
    set64 consts !nconst bits;
    next_const ()
  and push_float x =
    consts.(!nconst) <- x;
    next_const ()
  and next_const () =
    incr pk;
    push (nloc + !nconst);
    incr nconst
  (* One basic instruction, with what it absorbs; returns the
     instructions consumed. Pure ops capture no charge. *)
  and compile_basic body i (ins : Ast.instr) (id : int) : int =
    let open Ast in
    match ins with
    | Block _ | Loop _ | If _ | Br _ | BrIf _ | BrTable _ | Return ->
        assert false (* control flow is resolved by the door *)
    | LocalGet _ | I32Const _ | I64Const _ | F32Const _ | F64Const _ ->
        push_value ins;
        1
    | Nop ->
        incr pt;
        1
    | Drop ->
        ignore (pop ());
        incr pt;
        1
    | Unreachable ->
        let c = charge 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            Rt.trap "unreachable executed");
        falls := false;
        1
    | LocalSet d | LocalTee d ->
        let o = pop () in
        take_reads d;
        pend 1 1;
        if o < opoff && o <> d && single_use d then make_alias d o
        else begin
          let tee = (match ins with LocalTee _ -> true | _ -> false) in
          note (if tee then f_tee else f_set) (kinds1 o) 0;
          let next = !count + 1 in
          own_op (fun st ->
              wrf st d (rdf st o);
              next);
          if tee then push d
        end;
        1
    | GlobalGet g ->
        let d = result body (i + 1) 1 in
        let next = !count + 1 in
        note f_global_get 1 !res_tail;
        own_op (fun st ->
            mtr.global_access <- mtr.global_access + 1;
            (match Array.unsafe_get st.inst.globals g with
            | Values.I32 v -> wri st d (Int32.to_int v)
            | Values.I64 v -> wr64 st d v
            | Values.F32 v | Values.F64 v -> wrf st d v);
            next);
        1 + !res_set
    | GlobalSet g ->
        let gty = ix.ix_globals.(g).g_type.Types.g_type in
        let o = pop () in
        note f_global_set (kinds1 o) 0;
        pend 1 0;
        let next = !count + 1 in
        own_op (fun st ->
            mtr.global_access <- mtr.global_access + 1;
            Array.unsafe_set st.inst.globals g
              (match gty with
              | Types.I32 -> Values.I32 (Int32.of_int (rdi st o))
              | Types.I64 -> Values.I64 (rd64 st o)
              | Types.F32 -> Values.F32 (rdf st o)
              | Types.F64 -> Values.F64 (rdf st o));
            next);
        1
    | Select ->
        let cnd = pop () in
        let v2 = pop () in
        let v1 = pop () in
        let d = result body (i + 1) 1 in
        let next = !count + 1 in
        note f_select (kinds3 v1 v2 cnd) !res_tail;
        own_op (fun st ->
            mtr.select <- mtr.select + 1;
            if rd64 st cnd <> 0L then wrf st d (rdf st v1) else wrf st d (rdf st v2);
            next);
        1 + !res_set
    | IUnop (w, op) ->
        let a = pop () in
        let d = result body (i + 1) 1 in
        let next = !count + 1 in
        (match w with
        | W32 ->
            note f_i32_unop (kinds1 a) !res_tail;
            own_op (fun st ->
                ialu mtr;
                wri st d (i32_unop op (rdi st a land mask32));
                next)
        | W64 ->
            note f_i64_unop (kinds1 a) !res_tail;
            own_op (fun st ->
                ialu mtr;
                wri st d (i64_unop op (rd64 st a));
                next));
        1 + !res_set
    | IBinop (w, op) ->
        let b = pop () in
        let a = pop () in
        let pure = match op with DivS | DivU | RemS | RemU -> false | _ -> true in
        let d = result ~pure body (i + 1) 1 in
        let c = !res_c and next = !count + 1 in
        (match (w, pure) with
        | W32, true ->
            note f_i32_op (kinds2 a b) !res_tail;
            own_op (fun st ->
                wri st d (i32_binop_m mtr op (rdi st a) (rdi st b));
                next)
        | W64, true ->
            note f_i64_op (kinds2 a b) !res_tail;
            own_op (fun st ->
                wr64 st d (i64_binop_m mtr op (rd64 st a) (rd64 st b));
                next)
        | W32, false ->
            note f_i32_div (kinds2 a b) !res_tail;
            own_op (fun st ->
                pay mtr st.inst c;
                wri st d (i32_binop_m mtr op (rdi st a) (rdi st b));
                settle mtr st.inst c;
                next)
        | W64, false ->
            note f_i64_div (kinds2 a b) !res_tail;
            own_op (fun st ->
                pay mtr st.inst c;
                wr64 st d (i64_binop_m mtr op (rd64 st a) (rd64 st b));
                settle mtr st.inst c;
                next));
        1 + !res_set
    | ITestop w -> (
        let family = match w with W32 -> f_i32_eqz | W64 -> f_i64_eqz in
        let a = pop () in
        match instr_at body (i + 1) with
        | Code.BrIf l ->
            emit_brif (Nz a) true 1 0 2 family (kinds1 a) t_brif l;
            2
        | Code.If (arity, then_, else_) ->
            emit_if (Nz a) true 1 0 2 family (kinds1 a) t_if arity then_ else_;
            2
        | _ ->
            let d = result body (i + 1) 1 in
            let next = !count + 1 in
            note family (kinds1 a) !res_tail;
            own_op (fun st ->
                ialu mtr;
                wrb st d (rd64 st a = 0L);
                next);
            1 + !res_set)
    | IRelop (w, op) -> (
        let b = pop () in
        let a = pop () in
        match w with
        | W32 -> compare_op body i f_i32_relop (Ci32 (op, a, b)) 1 0 (kinds2 a b)
        | W64 -> compare_op body i f_i64_relop (Ci64 (op, a, b)) 1 0 (kinds2 a b))
    | FRelop (w, op) ->
        let b = pop () in
        let a = pop () in
        let family = match w with W32 -> f_f32_relop | W64 -> f_f64_relop in
        compare_op body i family (Cf (op, a, b)) 0 1 (kinds2 a b)
    | FUnop (w, op) ->
        let a = pop () in
        let d = result body (i + 1) 1 in
        let next = !count + 1 in
        (match w with
        | W32 ->
            note f_f32_unop (kinds1 a) !res_tail;
            own_op (fun st ->
                falu mtr;
                wrf st d (to_f32 (f_unop op (rdf st a)));
                next)
        | W64 ->
            note f_f64_unop (kinds1 a) !res_tail;
            own_op (fun st ->
                falu mtr;
                wrf st d (f_unop op (rdf st a));
                next));
        1 + !res_set
    | FBinop (w, op) ->
        let b = pop () in
        let a = pop () in
        let d = result body (i + 1) 1 in
        let next = !count + 1 in
        (match w with
        | W32 ->
            note f_f32_op (kinds2 a b) !res_tail;
            own_op (fun st ->
                wrf st d (to_f32 (f_binop_m mtr op (rdf st a) (rdf st b)));
                next)
        | W64 ->
            note f_f64_op (kinds2 a b) !res_tail;
            own_op (fun st ->
                wrf st d (f_binop_m mtr op (rdf st a) (rdf st b));
                next));
        1 + !res_set
    | Cvtop op ->
        let a = pop () in
        let pure = not (cvt_traps op) in
        let d = result ~pure body (i + 1) 1 in
        let c = !res_c and next = !count + 1 in
        note f_cvt (kinds1 a) !res_tail;
        if pure then
          own_op (fun st ->
              mtr.cvt <- mtr.cvt + 1;
              cvt op st a d;
              next)
        else
          own_op (fun st ->
              pay mtr st.inst c;
              mtr.cvt <- mtr.cvt + 1;
              cvt op st a d;
              settle mtr st.inst c;
              next);
        1 + !res_set
    | Load (lty, pack, ma) ->
        let a = pop () in
        let d = result ~pure:false body (i + 1) 1 in
        let c = !res_c and next = !count + 1 in
        note f_load (kinds1 a) !res_tail;
        own_op (load_body id lty pack ma c None a d None next);
        1 + !res_set
    | Store (sty, pack, ma) ->
        let v = pop () in
        let a = pop () in
        note f_store (kinds2 a v) 0;
        let c = charge 1 and next = !count + 1 in
        own_op (store_body id sty pack ma c None a v next);
        1
    | MemorySize ->
        let d = result body (i + 1) 1 in
        let next = !count + 1 in
        note f_memory_size 1 !res_tail;
        own_op (fun st ->
            set_idx st d (Memory.size_pages (gm st.inst));
            next);
        1 + !res_set
    | MemoryGrow ->
        let a = pop () in
        let d = result ~pure:false body (i + 1) 1 in
        let c = !res_c and next = !count + 1 in
        note f_memory_grow (kinds1 a) !res_tail;
        own_op (fun st ->
            pay mtr st.inst c;
            set_idx st d (Rt.memory_grow st.inst (idx_of st a));
            settle mtr st.inst c;
            next);
        1 + !res_set
    | MemoryFill ->
        let l = pop () in
        let v = pop () in
        let a = pop () in
        note f_memory_fill (kinds3 a v l) 0;
        let c = charge 1 and next = !count + 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            let inst = st.inst in
            let len = idx_of st l in
            let x = rdi st v in
            let dst, dtag = resolve_bulk inst st a in
            mtr.bulk_fill <- mtr.bulk_fill + 1;
            Checked.fill inst (gm inst) ~addr:dst ~tag:dtag ~len x;
            next);
        1
    | MemoryCopy ->
        let l = pop () in
        let s = pop () in
        let a = pop () in
        note f_memory_copy (kinds3 a s l) 0;
        let c = charge 1 and next = !count + 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            let inst = st.inst in
            let len = idx_of st l in
            (* the interpreter resolves source before destination:
               chaos draws must land in that order *)
            let src, stag = resolve_bulk inst st s in
            let dst, dtag = resolve_bulk inst st a in
            mtr.bulk_copy <- mtr.bulk_copy + 1;
            Checked.copy inst (gm inst) ~dst ~dtag ~src ~stag ~len;
            next);
        1
    | SegmentNew o ->
        let l = pop () in
        let k = pop () in
        let arena = Code.elidable code.arena id in
        let d = result ~pure:false body (i + 1) 1 in
        let c = !res_c and next = !count + 1 in
        note f_segment_new (kinds2 k l) !res_tail;
        own_op (fun st ->
            pay mtr st.inst c;
            wr64 st d (Rt.segment_new ~arena st.inst ~k:(rd64 st k) ~l:(rd64 st l) o);
            settle mtr st.inst c;
            next);
        1 + !res_set
    | SegmentSetTag o ->
        let l = pop () in
        let t = pop () in
        let k = pop () in
        note f_segment_set_tag (kinds3 k t l) 0;
        let c = charge 1 and next = !count + 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            Rt.segment_set_tag st.inst ~k:(rd64 st k) ~t:(rd64 st t) ~l:(rd64 st l) o;
            next);
        1
    | SegmentFree o ->
        let l = pop () in
        let k = pop () in
        let arena = Code.elidable code.arena id in
        note f_segment_free (kinds2 k l) 0;
        let c = charge 1 and next = !count + 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            Rt.segment_free ~arena st.inst ~k:(rd64 st k) ~l:(rd64 st l) o;
            next);
        1
    | PointerSign | PointerAuth ->
        let k = pop () in
        let f = if ins = PointerSign then Rt.pointer_sign else Rt.pointer_auth in
        let d = result ~pure:false body (i + 1) 1 in
        let c = !res_c and next = !count + 1 in
        note (if ins = PointerSign then f_pointer_sign else f_pointer_auth) (kinds1 k) !res_tail;
        own_op (fun st ->
            pay mtr st.inst c;
            wr64 st d (f st.inst (rd64 st k));
            settle mtr st.inst c;
            next);
        1 + !res_set
    | Call fi ->
        let cty = Ast.func_type_at ix fi in
        let p = call_args (List.length cty.params) in
        let param_tys = Array.of_list cty.params in
        let c = charge 1 and next = !count + 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            mtr.call <- mtr.call + 1;
            call_function st fi (st.base + p) param_tys;
            next);
        call_results (List.length cty.results)
    | CallIndirect ti ->
        let ety = ix.ix_types.(ti) in
        let io = pop () in
        note f_call_indirect (kinds1 io) 0;
        let p = call_args (List.length ety.params) in
        let param_tys = Array.of_list ety.params in
        let c = charge 1 and next = !count + 1 in
        own_op (fun st ->
            pay mtr st.inst c;
            let inst = st.inst in
            mtr.call_indirect <- mtr.call_indirect + 1;
            let idx = rdi st io in
            if idx < 0 || idx >= Array.length inst.table then
              Rt.trap "undefined element %d in table" idx;
            (match inst.table.(idx) with
            | None -> Rt.trap "uninitialized table element %d" idx
            | Some fi ->
                let actual = Instance.func_type inst.funcs.(fi) in
                if not (Types.func_type_equal ety actual) then
                  Rt.trap "indirect call type mismatch";
                call_function st fi (st.base + p) param_tys);
            next);
        call_results (List.length ety.results)
  (* A call's arguments go into their slots, where the callee's frame
     begins; returns the first one's register. *)
  and call_args nargs =
    materialize_range (!h - nargs) !h;
    for _ = 1 to nargs do
      ignore (pop ())
    done;
    slot !h
  and call_results nres =
    for _ = 1 to nres do
      push (slot !h)
    done;
    1
  (* A comparison of [cnd] at [body.(i)]: folded with [[i32.eqz;] br_if]
     or [[i32.eqz;] if] into one branch op, else a value. *)
  and compare_op body i family cnd ia fa kinds =
    match (instr_at body (i + 1), instr_at body (i + 2)) with
    | Code.Basic (Ast.ITestop Ast.W32, _), Code.BrIf l ->
        emit_brif cnd true (ia + 1) fa 3 family kinds t_eqz_brif l;
        3
    | Code.Basic (Ast.ITestop Ast.W32, _), Code.If (arity, then_, else_) ->
        emit_if cnd true (ia + 1) fa 3 family kinds t_eqz_if arity then_ else_;
        3
    | Code.BrIf l, _ ->
        emit_brif cnd false ia fa 2 family kinds t_brif l;
        2
    | Code.If (arity, then_, else_), _ ->
        emit_if cnd false ia fa 2 family kinds t_if arity then_ else_;
        2
    | _ ->
        let d = result body (i + 1) 1 in
        let next = !count + 1 in
        note family kinds !res_tail;
        own_op (fun st ->
            mtr.ialu <- mtr.ialu + ia;
            mtr.falu <- mtr.falu + fa;
            wrb st d (test st cnd);
            next);
        1 + !res_set
  in
  (* ---------------------------------------------------------------- *)
  (* Drive it                                                          *)
  (* ---------------------------------------------------------------- *)
  let exit_ref = ref (-1) in
  let func_frame =
    { l_target = exit_ref; l_loop = false; l_arity = result_arity;
      l_height = 0; l_reached = false; l_guard = None }
  in
  (* a validated body that falls through leaves exactly its results;
     its temporaries die with it *)
  if compile_in func_frame code.body then begin
    forget ();
    to_label ()
  end;
  exit_ref := !count;
  let stats =
    {
      st_name = name;
      st_instrs = !n_instrs;
      st_fused = !n_instrs - !n_owned;
      st_ops = !count;
      st_idioms = tally_take ws.names ws.idioms;
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
      consts;
      frame_slots = opoff + !max_h;
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
  let ws = workspace () in
  Array.iteri
    (fun i fi ->
      match fi with
      | Instance.Host_func _ -> ()
      | Instance.Wasm_func ({ func; ty; code; _ } as w) ->
          let xf, _stats =
            compile ~ws ~m:inst.module_ ~ix
              ~name:(Instance.func_name inst i)
              ~ty ~func ~code ~mtr
          in
          w.xcode <- Some xf)
    inst.funcs

(** Compile all functions of a module without instantiating it — the
    [cagec --Wfusion] entry point. The module goes through the door, so
    an invalid one raises {!Validate.Invalid}. Returns per-function
    stats in function-index order (local functions only). [elide] is the
    static analyzer's bitset array, as passed to instantiation. *)
let module_stats ?elide ?belide ?arena (m : Ast.module_) : Xcode.stats list =
  let ix, codes = Validate.prepare m in
  let codes = Code.with_plan ?elide ?belide ?arena codes in
  let ws = workspace () in
  List.mapi
    (fun j (f : Ast.func) ->
      let name = Ast.func_name ix (Array.length ix.ix_imports + j) in
      snd
        (compile ~ws ~m ~ix ~name ~ty:ix.ix_types.(f.ftype) ~func:f ~code:codes.(j)
           ~mtr:(Meter.create ())))
    m.funcs
