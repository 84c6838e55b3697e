(** The threaded-code form: what a validated function body is lowered
    to at instantiation.

    A function becomes a flat array of pre-bound closures ("ops"); each
    op mutates the machine state and returns the index of the next op
    to dispatch, so control flow is a computed continue instead of an
    exception unwind, and every operand/immediate/branch target/elision
    decision is baked into the closure's environment at compile time
    (direct threading). An op index equal to the array length is the
    function's exit.

    The module is parameterised over the instance type ['inst] so that
    {!Instance} can store compiled code inside [Wasm_func] without a
    dependency cycle ({!Compile} instantiates ['inst = Instance.t]).

    {2 Value slots}

    The operand stack and locals live in one shared [float array]; a
    slot holds the raw 64-bit pattern of the value it carries
    (reinterpreted, never converted):

    - [F64] — the float itself;
    - [F32] — the float, already rounded through single precision
      (exactly how the interpreter stores [Values.F32]);
    - [I64] — [Int64.float_of_bits];
    - [I32] — sign-extended to 64 bits, then [Int64.float_of_bits].

    The encoding is lossless (bit moves only — OCaml float arrays do
    not canonicalise NaN payloads), typeless on write, and has the
    property that the all-zeroes slot is the default value of every
    type, so zeroing locals is one [Array.fill]. Unboxed float reads
    and writes keep the hot loop allocation-free.

    The access rule: {!Compile} moves a slot's raw bits with one inline
    8-byte load or store through a [Bytes.t] view of the array
    ([Compile.get64]/[set64], with [geti]/[seti] for i32 values). Every
    integer operand, result and address goes that way, and so does
    every i64, f64 and packed memory access, which copies bits between
    linear memory and the slot. Float arithmetic reads and writes the
    array as floats, and only f32 rounding and the int/float
    conversions still call C. The functions below cast with [Int64.bits_of_float] and
    [float_of_bits], which OCaml 5.1 compiles to a C call on the C
    stack (it has no inline bit-cast), so the engine uses them only at
    its boundary: entry arguments and results, and host calls. With
    every operand cast that way,
    [Compile] held 262 call sites and a PolyBench pass made 0.74 casts
    per metered op; now it holds none (CI counts them in
    [wasm__Compile.o]). The view stays coherent with float accesses
    because ocamlopt drops every available load at each store: a float
    read after a view write reloads the slot, and so does a view read
    after a float write.

    {2 Register operands}

    A frame is one register file: its parameters, its other locals, one
    register per constant instruction of the function, and its operand
    slots ({!func}). An operand is a register, so [local.get] and a
    constant emit no op: the lowerer pushes the register the value lives
    in, and the op that consumes it reads it there. An op writes its
    result to its operand slot, or straight into the local a following
    [local.set] or [local.tee] names. A pending read of a local moves
    into its slot before the local is written, and pending operands move
    into their slots at every label a branch reaches, below every
    branch's target height, and as a call's arguments.

    {2 Pending charges}

    The ticks and meter counts of instructions that emit nothing — a
    folded [local.get] or constant, [nop], [drop], a block's entry —
    and the ticks of pure ops (ops that can neither trap nor emit an
    event) ride on the next op that can: it pays them before its own
    effects, and what it absorbed past its own effect after them. Where
    a reached label intervenes, a charge-only op pays instead. Results,
    meters, tick counts, trap texts, fuel and chaos draws therefore
    match the interpreter's wherever they can be observed. *)

type 'inst state = {
  inst : 'inst;
  mutable stk : float array;  (** every frame's registers, for the whole
                                  call chain; grown on demand *)
  mutable base : int;  (** current frame's first register *)
  mutable depth : int;   (** call depth of the current frame (top = 0) *)
}

(** One threaded op: advances the state, returns the next op index. *)
type 'inst op = 'inst state -> int

(** Per-function lowering and elision statistics, gathered at
    compile time (the [cagec --Wfusion] report). *)
type stats = {
  st_name : string;
  st_instrs : int;      (** source instructions lowered, control included *)
  st_fused : int;
      (** of which emitted no op of their own: folded into another op
          (an operand read, a constant, an absorbed [local.set], a
          comparison folded into its branch, an address step), or riding
          on one ([nop], [drop], a block's entry tick) *)
  st_ops : int;         (** ops emitted: what a run dispatches *)
  st_idioms : (string * int) list;  (** idiom name -> times matched *)
  st_accesses : int;    (** scalar loads/stores compiled *)
  st_elided : int;      (** of which compiled check-free (baked elision) *)
}

(** A frame is one register file off [base]: the parameters, the other
    locals, the function's constants, then its operand slots. A call's
    arguments are the caller's top operand slots, and the callee's frame
    begins there, so the constants sit below every frame a call makes
    and stay put. *)
type 'inst func = {
  ops : 'inst op array;
  nparams : int;
  nlocals : int;       (** extra locals beyond the parameters *)
  result_arity : int;
  result_tys : Types.val_type array;  (** declared result types, for
                                          boxing at the entry boundary *)
  consts : float array;
      (** the slot bits of each constant instruction, which a frame's
          constant registers take at entry *)
  frame_slots : int;   (** registers + max operand height: what a frame
                           needs below [stk]'s end before running *)
  stats : stats;
}

(** The first operand slot's register. *)
let operands f = f.nparams + f.nlocals + Array.length f.consts

(** Set up the frame of [f] at [base] of [stk], whose parameters are in
    place: the other locals zeroed, the constants written. *)
let enter f stk base =
  if f.nlocals > 0 then Array.fill stk (base + f.nparams) f.nlocals 0.0;
  let n = Array.length f.consts in
  if n > 0 then Array.blit f.consts 0 stk (base + f.nparams + f.nlocals) n

(* ------------------------------------------------------------------ *)
(* Slot encoding                                                       *)
(* ------------------------------------------------------------------ *)

let[@inline] slot_of_i64 (v : int64) = Int64.float_of_bits v
let[@inline] slot_of_i32 (v : int32) = Int64.float_of_bits (Int64.of_int32 v)

let slot_of_value : Values.t -> float = function
  | Values.I32 v -> slot_of_i32 v
  | Values.I64 v -> slot_of_i64 v
  | Values.F32 v | Values.F64 v -> v

let value_of_slot (ty : Types.val_type) (s : float) : Values.t =
  match ty with
  | Types.I32 -> Values.I32 (Int64.to_int32 (Int64.bits_of_float s))
  | Types.I64 -> Values.I64 (Int64.bits_of_float s)
  | Types.F32 -> Values.F32 s
  | Types.F64 -> Values.F64 s

(* ------------------------------------------------------------------ *)
(* Stack storage                                                       *)
(* ------------------------------------------------------------------ *)

let initial_slots = 256

(** Make sure [st.stk] has at least [need] slots, preserving contents.
    Called at frame entry only — ops inside a frame stay within the
    frame's [frame_slots] bound established here. *)
let ensure (st : 'inst state) need =
  if need > Array.length st.stk then begin
    let cap = ref (2 * Array.length st.stk) in
    while !cap < need do
      cap := !cap * 2
    done;
    let stk = Array.make !cap 0.0 in
    Array.blit st.stk 0 stk 0 (Array.length st.stk);
    st.stk <- stk
  end

(** The per-function fused/elided summary [cagec --Wfusion] prints. *)
let pp_stats ppf (s : stats) =
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  Format.fprintf ppf
    "@[<v2>%s: %d instrs, %d ops, %d fused (%.1f%%), %d accesses, %d \
     check-free (%.1f%%)"
    s.st_name s.st_instrs s.st_ops s.st_fused
    (pct s.st_fused s.st_instrs)
    s.st_accesses s.st_elided
    (pct s.st_elided s.st_accesses);
  List.iter
    (fun (idiom, n) -> Format.fprintf ppf "@ %-24s %d" idiom n)
    (List.sort compare s.st_idioms);
  Format.fprintf ppf "@]"
