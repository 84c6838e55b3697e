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
    environments at instantiation time.

    {2 Lowering is total}

    {!Exec.instantiate} validates every module before it lowers it, so
    the compiler never meets an ill-typed body: operand types, label
    indices and stack heights are guaranteed, and it tracks only the
    static operand-stack {e height}, which fixes every slot index.
    Every function of a [Threaded] instance is compiled; there is no
    per-function interpreter fallback.

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

(* i32 values travel as sign-extended native ints inside hot ops: the
   slot already holds the sign-extended 64-bit pattern, so decode is a
   truncation and encode a widening — no Int32 boxing on the ALU path. *)
let[@inline] int_of_slot s = Int64.to_int (Int64.bits_of_float s)
let[@inline] slot_of_int v = Int64.float_of_bits (Int64.of_int v)

(* Sign-extend from bit 31 on a 63-bit native int. *)
let[@inline] norm32 v = (v lsl 31) asr 31
let mask32 = 0xffffffff
let slot_true = Int64.float_of_bits 1L
let slot_false = 0.0
let[@inline] slot_of_bool b = if b then slot_true else slot_false

(* Inline guards for the per-op observability tick: the uninstrumented
   hot path pays one load-and-compare; the out-of-line call happens
   only with a sink installed. Identical behaviour — [Rt.obs_tick]
   with no hook is a no-op. *)
let[@inline] tick inst = if !Obs.Hook.hook != None then Rt.obs_tick inst
let[@inline] tick_n inst n = if !Obs.Hook.hook != None then Rt.obs_tick_n inst n

(* Where an access op finds its operands and leaves its result: an
   operand-stack slot (relative to [opbase]) or a local (relative to
   [base]), decided at compile time. Reading through an inline match
   on a closure-constant keeps the slot value unboxed — passing it
   through a closure parameter would box the float at every access. *)
type slotref = Sop of int | Sloc of int

let[@inline] read_slot (st : Instance.t Xcode.state) (r : slotref) =
  match r with
  | Sop h -> Array.unsafe_get st.stk (st.opbase + h)
  | Sloc i -> Array.unsafe_get st.stk (st.base + i)

let[@inline] write_slot (st : Instance.t Xcode.state) (r : slotref) v =
  match r with
  | Sop h -> Array.unsafe_set st.stk (st.opbase + h) v
  | Sloc i -> Array.unsafe_set st.stk (st.base + i) v

(* Width/type specialisation of scalar accesses, matched inside the op
   on a compile-time constant: branch-predicted and fully unboxed.
   [Lk_pack (n, signed)] loads [n] bytes and extends; a packed i32
   load's slot pattern coincides with the i64 one (both are the
   sign-extended-or-zero-extended value), and (i32, Pack32) reduces to
   the plain i32 load, so no separate 32-bit normalisation arm is
   needed. *)
type lkind = Lk_i32 | Lk_i64 | Lk_f32 | Lk_f64 | Lk_pack of int * bool
type skind = Sk_i32 | Sk_i64 | Sk_f32 | Sk_f64 | Sk_pack of int

let[@inline] do_load (k : lkind) mem a : float =
  match k with
  | Lk_i32 -> slot_of_int (Memory.get_32s mem a)
  | Lk_i64 | Lk_f64 -> Int64.float_of_bits (Memory.get_64 mem a)
  | Lk_f32 -> Memory.get_f32' mem a
  | Lk_pack (1, true) -> slot_of_int ((Memory.get_u8 mem a lsl 55) asr 55)
  | Lk_pack (1, false) -> slot_of_int (Memory.get_u8 mem a)
  | Lk_pack (2, true) -> slot_of_int ((Memory.get_u16 mem a lsl 47) asr 47)
  | Lk_pack (2, false) -> slot_of_int (Memory.get_u16 mem a)
  | Lk_pack (4, true) -> slot_of_int (Memory.get_32s mem a)
  | Lk_pack (4, false) -> slot_of_int (Memory.get_32s mem a land mask32)
  | Lk_pack _ -> assert false

let[@inline] do_store (k : skind) mem a (s : float) : unit =
  match k with
  | Sk_i32 -> Memory.set_32 mem a (int_of_slot s)
  | Sk_i64 | Sk_f64 -> Memory.set_64 mem a (Int64.bits_of_float s)
  | Sk_f32 -> Memory.set_f32' mem a s
  | Sk_pack 1 -> Memory.set_u8 mem a (int_of_slot s)
  | Sk_pack 2 -> Memory.set_u16 mem a (int_of_slot s)
  | Sk_pack 4 -> Memory.set_32 mem a (int_of_slot s)
  | Sk_pack _ -> assert false

(* Native-int i64 address resolution, packed as [addr lor (tag lsl 50)]
   in one int so the hot path allocates nothing (a 48-bit address plus
   a compile-time-bounded offset stays below bit 50). Chaos draws, the
   non-canonical trap and the address/tag split replicate
   [Checked.resolve_addr_i64] exactly; with a chaos engine installed
   the boxed arms run instead (identical draw consumption — [draw] is
   effect-free when no engine is installed). *)
let tag_addr_mask = (1 lsl 50) - 1

let resolve64_chaos (s : float) (off : int) : int =
  let p = Int64.bits_of_float s in
  let addr, tag =
    if Arch.Fault_inject.draw Arch.Fault_inject.Ptr_sig then
      Checked.resolve_corrupt_native (Checked.corrupt_sig p) off
    else if Arch.Fault_inject.draw Arch.Fault_inject.Ptr_tag then
      Checked.resolve_corrupt_native (Checked.corrupt_tag p) off
    else begin
      let b = Int64.to_int p in
      if b land 0x00ff_0000_0000_0000 <> 0 then
        Rt.trap "bounds: non-canonical address 0x%Lx" p;
      ((b land 0xffff_ffff_ffff) + off, Arch.Ptr.tag p)
    end
  in
  addr lor (Arch.Tag.to_int tag lsl 50)

let[@inline] resolve64p (s : float) (off : int) : int =
  match Arch.Fault_inject.active () with
  | None ->
      let b = int_of_slot s in
      if b land 0x00ff_0000_0000_0000 <> 0 then
        Rt.trap "bounds: non-canonical address 0x%Lx" (Int64.bits_of_float s);
      ((b land 0xffff_ffff_ffff) + off) lor (((b lsr 56) land 0xf) lsl 50)
  | Some _ -> resolve64_chaos s off

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
      sp = xf.nparams + xf.nlocals;
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
(* Compile-time numeric specialisation                                 *)
(* ------------------------------------------------------------------ *)

let i32_binop_fn (op : Ast.ibinop) : int -> int -> int =
  match op with
  | Add -> fun x y -> norm32 (x + y)
  | Sub -> fun x y -> norm32 (x - y)
  | Mul -> fun x y -> norm32 (x * y)
  | DivS ->
      fun x y ->
        if y = 0 then Rt.trap "integer divide by zero"
        else if x = -0x80000000 && y = -1 then Rt.trap "integer overflow"
        else x / y
  | DivU ->
      fun x y ->
        if y = 0 then Rt.trap "integer divide by zero"
        else norm32 ((x land mask32) / (y land mask32))
  | RemS ->
      fun x y ->
        if y = 0 then Rt.trap "integer divide by zero"
        else if x = -0x80000000 && y = -1 then 0
        else x mod y
  | RemU ->
      fun x y ->
        if y = 0 then Rt.trap "integer divide by zero"
        else norm32 ((x land mask32) mod (y land mask32))
  | And -> fun x y -> x land y
  | Or -> fun x y -> x lor y
  | Xor -> fun x y -> x lxor y
  | Shl -> fun x y -> norm32 (x lsl (y land 31))
  | ShrS -> fun x y -> x asr (y land 31)
  | ShrU -> fun x y -> norm32 ((x land mask32) lsr (y land 31))
  | Rotl ->
      fun x y -> Int32.to_int (Values.rotl32 (Int32.of_int x) (Int32.of_int y))
  | Rotr ->
      fun x y -> Int32.to_int (Values.rotr32 (Int32.of_int x) (Int32.of_int y))

(* Whether a fused group may absorb this ibinop (no trapping paths, so
   the group has a single observable failure order). *)
let i32_binop_fusable : Ast.ibinop -> bool = function
  | Add | Sub | Mul | And | Or | Xor | Shl | ShrS | ShrU -> true
  | DivS | DivU | RemS | RemU | Rotl | Rotr -> false

let i32_relop_fn (op : Ast.irelop) : int -> int -> bool =
  match op with
  | Eq -> fun x y -> x = y
  | Ne -> fun x y -> x <> y
  | LtS -> fun x y -> x < y
  | LtU -> fun x y -> x land mask32 < y land mask32
  | GtS -> fun x y -> x > y
  | GtU -> fun x y -> x land mask32 > y land mask32
  | LeS -> fun x y -> x <= y
  | LeU -> fun x y -> x land mask32 <= y land mask32
  | GeS -> fun x y -> x >= y
  | GeU -> fun x y -> x land mask32 >= y land mask32

let ibinop_bump (op : Ast.ibinop) : Meter.t -> unit =
  match op with
  | Mul -> fun m -> m.imul <- m.imul + 1
  | DivS | DivU | RemS | RemU -> fun m -> m.idiv <- m.idiv + 1
  | _ -> fun m -> m.ialu <- m.ialu + 1

let fbinop_bump (op : Ast.fbinop) : Meter.t -> unit =
  match op with
  | FMul -> fun m -> m.fmul <- m.fmul + 1
  | FDiv -> fun m -> m.fdiv <- m.fdiv + 1
  | _ -> fun m -> m.falu <- m.falu + 1

(* Conversion ops as slot transforms. *)
let cvt_fn (op : Ast.cvtop) : float -> float =
  match op with
  | I32WrapI64 ->
      fun s -> Xcode.slot_of_i32 (Int64.to_int32 (Xcode.i64_of_slot s))
  | I64ExtendI32S ->
      (* an i32 slot already holds the sign-extended 64-bit pattern *)
      fun s -> s
  | I64ExtendI32U ->
      fun s ->
          Xcode.slot_of_i64 (Int64.logand (Int64.bits_of_float s) 0xffffffffL)
  | I32TruncF32S ->
      fun s -> Xcode.slot_of_i32 (Numerics.trunc_to_i32 ~signed:true s)
  | I32TruncF32U ->
      fun s -> Xcode.slot_of_i32 (Numerics.trunc_to_i32 ~signed:false s)
  | I32TruncF64S ->
      fun s -> Xcode.slot_of_i32 (Numerics.trunc_to_i32 ~signed:true s)
  | I32TruncF64U ->
      fun s -> Xcode.slot_of_i32 (Numerics.trunc_to_i32 ~signed:false s)
  | I64TruncF32S ->
      fun s -> Xcode.slot_of_i64 (Numerics.trunc_to_i64 ~signed:true s)
  | I64TruncF32U ->
      fun s -> Xcode.slot_of_i64 (Numerics.trunc_to_i64 ~signed:false s)
  | I64TruncF64S ->
      fun s -> Xcode.slot_of_i64 (Numerics.trunc_to_i64 ~signed:true s)
  | I64TruncF64U ->
      fun s -> Xcode.slot_of_i64 (Numerics.trunc_to_i64 ~signed:false s)
  | F32ConvertI32S ->
      fun s -> Values.to_f32 (float_of_int (int_of_slot s))
  | F32ConvertI32U ->
      fun s -> Values.to_f32 (Numerics.u32_to_float (Xcode.i32_of_slot s))
  | F32ConvertI64S ->
      fun s -> Values.to_f32 (Int64.to_float (Xcode.i64_of_slot s))
  | F32ConvertI64U ->
      fun s -> Values.to_f32 (Numerics.u64_to_float (Xcode.i64_of_slot s))
  | F64ConvertI32S -> fun s -> float_of_int (int_of_slot s)
  | F64ConvertI32U ->
      fun s -> Numerics.u32_to_float (Xcode.i32_of_slot s)
  | F64ConvertI64S -> fun s -> Int64.to_float (Xcode.i64_of_slot s)
  | F64ConvertI64U ->
      fun s -> Numerics.u64_to_float (Xcode.i64_of_slot s)
  | F32DemoteF64 -> Values.to_f32
  | F64PromoteF32 -> fun s -> s
  | I32ReinterpretF32 ->
      fun s -> Xcode.slot_of_i32 (Int32.bits_of_float s)
  | I64ReinterpretF64 -> fun s -> s
  | F32ReinterpretI32 ->
      fun s -> Int32.float_of_bits (Xcode.i32_of_slot s)
  | F64ReinterpretI64 -> fun s -> s

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
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

type frame = {
  l_target : int ref;  (** op index branches to this label jump to *)
  l_loop : bool;       (** a loop label: branches go back, carrying nothing *)
  l_arity : int;
  l_height : int;      (** static operand height at the label's entry *)
  mutable l_reached : bool;
      (** a branch targets this (non-loop) label, so its end is live
          even when the body's fall-through is not *)
}

let compile ~(m : Ast.module_) ~(name : string) ~(ty : Types.func_type)
    ~(func : Ast.func) ~(code : Code.func) ~(mtr : Meter.t) :
    Instance.t Xcode.func * Xcode.stats =
  let nparams = List.length ty.params in
  let nlocals = List.length func.locals in
  let result_arity = code.result_arity in
  let global_tys =
    Array.of_list (List.map (fun (g : Ast.global) -> g.g_type.Types.g_type) m.globals)
  in
  (* A validated module without a memory has no memory instructions, so
     the [None] default is never consulted. *)
  let mem_idx =
    match m.memory with Some mt -> mt.Types.mem_idx | None -> Types.Idx32
  in
  let addr_ty = Types.addr_type mem_idx in
  (* Page counts and bulk lengths are unsigned in the memory's index
     type; bulk-op addresses resolve as [Checked.resolve_addr] does. *)
  let idx_of_slot, slot_of_idx =
    match mem_idx with
    | Types.Idx32 ->
        ( (fun s -> Int64.logand (Int64.of_int32 (Xcode.i32_of_slot s)) 0xffffffffL),
          fun v -> Xcode.slot_of_i32 (Int64.to_int32 v) )
    | Types.Idx64 -> (Xcode.i64_of_slot, Xcode.slot_of_i64)
  in
  let resolve_bulk =
    match mem_idx with
    | Types.Idx32 ->
        fun s -> (Checked.resolve_addr_i32 (Xcode.i32_of_slot s) 0L, Arch.Tag.zero)
    | Types.Idx64 -> fun s -> Checked.resolve_addr_i64 (Xcode.i64_of_slot s) 0L
  in
  (* --- static state: the operand-stack height --- *)
  let h = ref 0 in
  let max_h = ref 0 in
  let push () =
    incr h;
    if !h > !max_h then max_h := !h
  in
  let pop () = decr h in
  let pop_n n = h := !h - n in
  let push_n n = for _ = 1 to n do push () done in
  (* --- op builder --- *)
  let rev_ops : Instance.t Xcode.op list ref = ref [] in
  let count = ref 0 in
  let emit f =
    let idx = !count in
    count := idx + 1;
    rev_ops := f idx :: !rev_ops
  in
  let emit1 mk = emit (fun idx -> mk (idx + 1)) in
  (* --- statistics --- *)
  let n_instrs = ref 0 in
  let n_fused = ref 0 in
  let n_acc = ref 0 in
  let n_elided = ref 0 in
  let idioms : (string * int ref) list ref = ref [] in
  let bump_idiom name =
    match List.assoc_opt name !idioms with
    | Some r -> incr r
    | None -> idioms := (name, ref 1) :: !idioms
  in
  let elide_of id =
    let e = Code.elidable code.elide id in
    incr n_acc;
    if e then incr n_elided;
    e
  in
  let belide_of id = Code.elidable code.belide id in
  let arena_of id = Code.elidable code.arena id in
  (* [Rt.meter_br] against the baked meter: fuel first, then the
     branch counter, exactly the interpreter's order. *)
  let meter_br inst =
    Rt.burn_fuel inst;
    mtr.Meter.branch <- mtr.Meter.branch + 1
  in
  (* ---------------------------------------------------------------- *)
  (* Access emission (shared by singleton and fused forms)             *)
  (* ---------------------------------------------------------------- *)
  (* Emit-time selection of the full access path for a load: native
     address resolution by the operand's static type (which fixes the
     chaos draw sequence), elided vs checked verdict baked from the
     analysis bitset, and the width-specialised memory primitive,
     matched on a closure constant. The single native bounds check
     [addr + len <= length_bytes] is equivalent to the interpreter's
     ([addr >= 0] holds by construction: a zero-extended i32 or 48-bit
     address field plus a compile-time-bounded offset), and the trap
     text is [Checked]'s verbatim. The tag check exists only on the
     checked arms, guarded on [enforce_tags] so untagged configs never
     box the address. *)
  let load_body ~elide ~ebounds ~len ~(lk : lkind)
      ~(off : int) ~(src : slotref) ~(dst : slotref) :
      Instance.t Xcode.state -> unit =
    (* The fully-elided arms drop the span compare too; the raw memory
       primitive is still total (it raises), so an analyzer bug degrades
       to the interpreter's own bounds trap rather than a crash. *)
    match (addr_ty, elide, ebounds) with
    | Types.I32, true, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst
            (try do_load lk mem addr
             with Memory.Out_of_bounds _ | Invalid_argument _ ->
               Rt.trap "bounds: out of bounds memory access")
    | Types.I32, false, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Load ~addr
              ~tag:Arch.Tag.zero ~len;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst
            (try do_load lk mem addr
             with Memory.Out_of_bounds _ | Invalid_argument _ ->
               Rt.trap "bounds: out of bounds memory access")
    | _, true, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = resolve64p (read_slot st src) off land tag_addr_mask in
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst
            (try do_load lk mem addr
             with Memory.Out_of_bounds _ | Invalid_argument _ ->
               Rt.trap "bounds: out of bounds memory access")
    | _, false, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let pa = resolve64p (read_slot st src) off in
          let addr = pa land tag_addr_mask in
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Load ~addr
              ~tag:(Arch.Tag.of_int (pa lsr 50))
              ~len;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst
            (try do_load lk mem addr
             with Memory.Out_of_bounds _ | Invalid_argument _ ->
               Rt.trap "bounds: out of bounds memory access")
    | Types.I32, true, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst (do_load lk mem addr)
    | Types.I32, false, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          if !Obs.Hook.hook != None then Obs.Hook.span_check len;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Load ~addr
              ~tag:Arch.Tag.zero ~len;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst (do_load lk mem addr)
    | _, true, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = resolve64p (read_slot st src) off land tag_addr_mask in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst (do_load lk mem addr)
    | _, false, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let pa = resolve64p (read_slot st src) off in
          let addr = pa land tag_addr_mask in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          if !Obs.Hook.hook != None then Obs.Hook.span_check len;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Load ~addr
              ~tag:(Arch.Tag.of_int (pa lsr 50))
              ~len;
          mtr.Meter.loads <- mtr.Meter.loads + 1;
          mtr.Meter.load_bytes <- mtr.Meter.load_bytes + len;
          write_slot st dst (do_load lk mem addr)
  in
  let store_body ~elide ~ebounds ~len ~(sk : skind)
      ~(off : int) ~(src : slotref) ~(vsrc : slotref) :
      Instance.t Xcode.state -> unit =
    match (addr_ty, elide, ebounds) with
    | Types.I32, true, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          (try do_store sk mem addr (read_slot st vsrc)
           with Memory.Out_of_bounds _ | Invalid_argument _ ->
             Rt.trap "bounds: out of bounds memory access")
    | Types.I32, false, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Store ~addr
              ~tag:Arch.Tag.zero ~len;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          (try do_store sk mem addr (read_slot st vsrc)
           with Memory.Out_of_bounds _ | Invalid_argument _ ->
             Rt.trap "bounds: out of bounds memory access")
    | _, true, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = resolve64p (read_slot st src) off land tag_addr_mask in
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          (try do_store sk mem addr (read_slot st vsrc)
           with Memory.Out_of_bounds _ | Invalid_argument _ ->
             Rt.trap "bounds: out of bounds memory access")
    | _, false, true ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let pa = resolve64p (read_slot st src) off in
          let addr = pa land tag_addr_mask in
          mtr.Meter.elided_bounds <- mtr.Meter.elided_bounds + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Bounds_elided;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Store ~addr
              ~tag:(Arch.Tag.of_int (pa lsr 50))
              ~len;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          (try do_store sk mem addr (read_slot st vsrc)
           with Memory.Out_of_bounds _ | Invalid_argument _ ->
             Rt.trap "bounds: out of bounds memory access")
    | Types.I32, true, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          do_store sk mem addr (read_slot st vsrc)
    | Types.I32, false, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = (int_of_slot (read_slot st src) land mask32) + off in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          if !Obs.Hook.hook != None then Obs.Hook.span_check len;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Store ~addr
              ~tag:Arch.Tag.zero ~len;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          do_store sk mem addr (read_slot st vsrc)
    | _, true, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let addr = resolve64p (read_slot st src) off land tag_addr_mask in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          mtr.Meter.elided_checks <- mtr.Meter.elided_checks + 1;
          if !Obs.Hook.hook != None then Obs.Hook.event Obs.Event.Check_elided;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          do_store sk mem addr (read_slot st vsrc)
    | _, false, false ->
        fun st ->
          let inst = st.inst in
          let mem = gm inst in
          let pa = resolve64p (read_slot st src) off in
          let addr = pa land tag_addr_mask in
          if addr + len > Memory.length_bytes mem then
            Rt.trap "bounds: out of bounds memory access";
          if !Obs.Hook.hook != None then Obs.Hook.span_check len;
          if inst.enforce_tags then
            Checked.check_tags_native inst Arch.Mte.Store ~addr
              ~tag:(Arch.Tag.of_int (pa lsr 50))
              ~len;
          mtr.Meter.stores <- mtr.Meter.stores + 1;
          mtr.Meter.store_bytes <- mtr.Meter.store_bytes + len;
          do_store sk mem addr (read_slot st vsrc)
  in
  (* ---------------------------------------------------------------- *)
  (* Branch actions                                                    *)
  (* ---------------------------------------------------------------- *)
  (* The runtime "take the branch" continuation for a branch to [l]
     from the current static height. Loop back-edges pay the loop
     label's catch-clause [meter_br] on top of the branch's own (the
     interpreter's [Loop] handler re-meters on every iteration); any
     other label's values are carried down to its entry height. *)
  let branch_action labels ({ depth; _ } : Code.label) :
      Instance.t Xcode.state -> int =
    let fr = List.nth labels depth in
    let tgt = fr.l_target in
    if fr.l_loop then fun st ->
      meter_br st.inst;
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
  (* ---------------------------------------------------------------- *)
  (* Singleton instruction compilation                                 *)
  (* ---------------------------------------------------------------- *)
  let compile_basic (ins : Ast.instr) (id : int) : [ `Live | `Dead ] =
    match ins with
    | Ast.Block _ | Ast.Loop _ | Ast.If _ | Ast.Br _ | Ast.BrIf _
    | Ast.BrTable _ | Ast.Return ->
        assert false (* control flow is resolved by Code.prepare *)
    | Ast.Unreachable ->
        emit1 (fun _next st ->
            tick st.inst;
            Rt.trap "unreachable executed");
        `Dead
    | Ast.Nop ->
        emit1 (fun next st ->
            tick st.inst;
            next);
        `Live
    | Ast.Drop ->
        pop ();
        emit1 (fun next st ->
            tick st.inst;
            next);
        `Live
    | Ast.Select ->
        pop_n 3;
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            mtr.select <- mtr.select + 1;
            let stk = st.stk in
            let p = st.opbase + hres in
            if Int64.bits_of_float (Array.unsafe_get stk (p + 2)) = 0L then
              Array.unsafe_set stk p (Array.unsafe_get stk (p + 1));
            next);
        `Live
    | Ast.LocalGet i ->
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            mtr.local_access <- mtr.local_access + 1;
            let stk = st.stk in
            Array.unsafe_set stk (st.opbase + hres)
              (Array.unsafe_get stk (st.base + i));
            next);
        `Live
    | Ast.LocalSet i ->
        pop ();
        let hsrc = !h in
        emit1 (fun next st ->
            tick st.inst;
            mtr.local_access <- mtr.local_access + 1;
            let stk = st.stk in
            Array.unsafe_set stk (st.base + i)
              (Array.unsafe_get stk (st.opbase + hsrc));
            next);
        `Live
    | Ast.LocalTee i ->
        pop ();
        push ();
        let hsrc = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            mtr.local_access <- mtr.local_access + 1;
            let stk = st.stk in
            Array.unsafe_set stk (st.base + i)
              (Array.unsafe_get stk (st.opbase + hsrc));
            next);
        `Live
    | Ast.GlobalGet i ->
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            mtr.global_access <- mtr.global_access + 1;
            Array.unsafe_set st.stk (st.opbase + hres)
              (Xcode.slot_of_value (Array.unsafe_get st.inst.globals i));
            next);
        `Live
    | Ast.GlobalSet i ->
        let gty = global_tys.(i) in
        pop ();
        let hsrc = !h in
        emit1 (fun next st ->
            tick st.inst;
            mtr.global_access <- mtr.global_access + 1;
            Array.unsafe_set st.inst.globals i
              (Xcode.value_of_slot gty
                 (Array.unsafe_get st.stk (st.opbase + hsrc)));
            next);
        `Live
    | Ast.I32Const v ->
        push ();
        let hres = !h - 1 in
        let sc = Xcode.slot_of_i32 v in
        emit1 (fun next st ->
            tick st.inst;
            mtr.const <- mtr.const + 1;
            Array.unsafe_set st.stk (st.opbase + hres) sc;
            next);
        `Live
    | Ast.I64Const v ->
        push ();
        let hres = !h - 1 in
        let sc = Xcode.slot_of_i64 v in
        emit1 (fun next st ->
            tick st.inst;
            mtr.const <- mtr.const + 1;
            Array.unsafe_set st.stk (st.opbase + hres) sc;
            next);
        `Live
    | Ast.F32Const v ->
        push ();
        let hres = !h - 1 in
        let sc = Values.to_f32 v in
        emit1 (fun next st ->
            tick st.inst;
            mtr.const <- mtr.const + 1;
            Array.unsafe_set st.stk (st.opbase + hres) sc;
            next);
        `Live
    | Ast.F64Const v ->
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            mtr.const <- mtr.const + 1;
            Array.unsafe_set st.stk (st.opbase + hres) v;
            next);
        `Live
    | Ast.IUnop (w, op) -> (
        match w with
        | Ast.W32 ->
            pop ();
            push ();
            let hres = !h - 1 in
            emit1 (fun next st ->
                tick st.inst;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (Xcode.slot_of_i32
                     (Numerics.eval_iunop32 op
                        (Xcode.i32_of_slot (Array.unsafe_get stk p))));
                next);
            `Live
        | Ast.W64 ->
            pop ();
            push ();
            let hres = !h - 1 in
            emit1 (fun next st ->
                tick st.inst;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (Xcode.slot_of_i64
                     (Numerics.eval_iunop64 op
                        (Xcode.i64_of_slot (Array.unsafe_get stk p))));
                next);
            `Live)
    | Ast.IBinop (w, op) -> (
        let bump = ibinop_bump op in
        match w with
        | Ast.W32 -> (
            pop ();
            pop ();
            push ();
            let hres = !h - 1 in
            (* the non-trapping operators are written out so the whole
               slot-decode / compute / re-encode chain is one straight
               line of unboxed int ops; the trapping ones keep the
               specialised-closure call *)
            match op with
            | Ast.Add ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
                    next);
                `Live
            | Ast.Sub ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (norm32 (x - y)));
                    next);
                `Live
            | Ast.Mul ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.imul <- mtr.imul + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (norm32 (x * y)));
                    next);
                `Live
            | Ast.And ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (x land y));
                    next);
                `Live
            | Ast.Or ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (x lor y));
                    next);
                `Live
            | Ast.Xor ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (x lxor y));
                    next);
                `Live
            | Ast.Shl ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p
                      (slot_of_int (norm32 (x lsl (y land 31))));
                    next);
                `Live
            | Ast.ShrS ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (x asr (y land 31)));
                    next);
                `Live
            | Ast.ShrU ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p
                      (slot_of_int (norm32 ((x land mask32) lsr (y land 31))));
                    next);
                `Live
            | _ ->
                let fn = i32_binop_fn op in
                emit1 (fun next st ->
                    tick st.inst;
                    bump mtr;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_int (fn x y));
                    next);
                `Live)
        | Ast.W64 -> (
            pop ();
            pop ();
            push ();
            let hres = !h - 1 in
            (* Int64 primitives are unboxed externals, so an in-body
               bits_of_float → op → float_of_bits chain never boxes *)
            match op with
            | Ast.Add ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int64.float_of_bits
                         (Int64.add
                            (Int64.bits_of_float (Array.unsafe_get stk p))
                            (Int64.bits_of_float
                               (Array.unsafe_get stk (p + 1)))));
                    next);
                `Live
            | Ast.Sub ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int64.float_of_bits
                         (Int64.sub
                            (Int64.bits_of_float (Array.unsafe_get stk p))
                            (Int64.bits_of_float
                               (Array.unsafe_get stk (p + 1)))));
                    next);
                `Live
            | Ast.Mul ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.imul <- mtr.imul + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int64.float_of_bits
                         (Int64.mul
                            (Int64.bits_of_float (Array.unsafe_get stk p))
                            (Int64.bits_of_float
                               (Array.unsafe_get stk (p + 1)))));
                    next);
                `Live
            | Ast.And ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int64.float_of_bits
                         (Int64.logand
                            (Int64.bits_of_float (Array.unsafe_get stk p))
                            (Int64.bits_of_float
                               (Array.unsafe_get stk (p + 1)))));
                    next);
                `Live
            | Ast.Or ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int64.float_of_bits
                         (Int64.logor
                            (Int64.bits_of_float (Array.unsafe_get stk p))
                            (Int64.bits_of_float
                               (Array.unsafe_get stk (p + 1)))));
                    next);
                `Live
            | Ast.Xor ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int64.float_of_bits
                         (Int64.logxor
                            (Int64.bits_of_float (Array.unsafe_get stk p))
                            (Int64.bits_of_float
                               (Array.unsafe_get stk (p + 1)))));
                    next);
                `Live
            | _ ->
                emit1 (fun next st ->
                    tick st.inst;
                    bump mtr;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = Xcode.i64_of_slot (Array.unsafe_get stk p) in
                    let y = Xcode.i64_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p
                      (Xcode.slot_of_i64 (Numerics.eval_ibinop64 op x y));
                    next);
                `Live))
    | Ast.ITestop _ ->
        pop ();
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            mtr.ialu <- mtr.ialu + 1;
            let stk = st.stk in
            let p = st.opbase + hres in
            Array.unsafe_set stk p
              (slot_of_bool (Int64.bits_of_float (Array.unsafe_get stk p) = 0L));
            next);
        `Live
    | Ast.IRelop (w, op) -> (
        match w with
        | Ast.W32 -> (
            pop ();
            pop ();
            push ();
            let hres = !h - 1 in
            match op with
            | Ast.Eq ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_bool (x = y));
                    next);
                `Live
            | Ast.Ne ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_bool (x <> y));
                    next);
                `Live
            | Ast.LtS ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_bool (x < y));
                    next);
                `Live
            | Ast.GtS ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_bool (x > y));
                    next);
                `Live
            | Ast.LeS ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_bool (x <= y));
                    next);
                `Live
            | Ast.GeS ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_bool (x >= y));
                    next);
                `Live
            | Ast.LtU | Ast.GtU | Ast.LeU | Ast.GeU ->
                let fn = i32_relop_fn op in
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.ialu <- mtr.ialu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = int_of_slot (Array.unsafe_get stk p) in
                    let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                    Array.unsafe_set stk p (slot_of_bool (fn x y));
                    next);
                `Live)
        | Ast.W64 ->
            pop ();
            pop ();
            push ();
            let hres = !h - 1 in
            emit1 (fun next st ->
                tick st.inst;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                let x = Xcode.i64_of_slot (Array.unsafe_get stk p) in
                let y = Xcode.i64_of_slot (Array.unsafe_get stk (p + 1)) in
                Array.unsafe_set stk p
                  (slot_of_bool (Numerics.eval_irelop64 op x y));
                next);
            `Live)
    | Ast.FUnop (w, op) -> (
        match w with
        | Ast.W32 ->
            pop ();
            push ();
            let hres = !h - 1 in
            emit1 (fun next st ->
                tick st.inst;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (Values.to_f32 (Numerics.eval_funop op (Array.unsafe_get stk p)));
                next);
            `Live
        | Ast.W64 -> (
            pop ();
            push ();
            let hres = !h - 1 in
            match op with
            | Ast.Neg ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p (-.Array.unsafe_get stk p);
                    next);
                `Live
            | Ast.Abs ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p (abs_float (Array.unsafe_get stk p));
                    next);
                `Live
            | Ast.Sqrt ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p (sqrt (Array.unsafe_get stk p));
                    next);
                `Live
            | _ ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Numerics.eval_funop op (Array.unsafe_get stk p));
                    next);
                `Live))
    | Ast.FBinop (w, op) -> (
        (* The four arithmetic operators are written out per-operator so
           the whole read-op-write chain stays unboxed inside one closure
           body; min/max/copysign keep the generic (boxing) call. *)
        match w with
        | Ast.W32 -> (
            pop ();
            pop ();
            push ();
            let hres = !h - 1 in
            match op with
            | Ast.FAdd ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int32.float_of_bits
                         (Int32.bits_of_float
                            (Array.unsafe_get stk p
                            +. Array.unsafe_get stk (p + 1))));
                    next);
                `Live
            | Ast.FSub ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int32.float_of_bits
                         (Int32.bits_of_float
                            (Array.unsafe_get stk p
                            -. Array.unsafe_get stk (p + 1))));
                    next);
                `Live
            | Ast.FMul ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.fmul <- mtr.fmul + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int32.float_of_bits
                         (Int32.bits_of_float
                            (Array.unsafe_get stk p
                            *. Array.unsafe_get stk (p + 1))));
                    next);
                `Live
            | Ast.FDiv ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.fdiv <- mtr.fdiv + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Int32.float_of_bits
                         (Int32.bits_of_float
                            (Array.unsafe_get stk p
                            /. Array.unsafe_get stk (p + 1))));
                    next);
                `Live
            | _ ->
                let bump = fbinop_bump op in
                emit1 (fun next st ->
                    tick st.inst;
                    bump mtr;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = Array.unsafe_get stk p in
                    let y = Array.unsafe_get stk (p + 1) in
                    Array.unsafe_set stk p
                      (Values.to_f32 (Numerics.eval_fbinop op x y));
                    next);
                `Live)
        | Ast.W64 -> (
            pop ();
            pop ();
            push ();
            let hres = !h - 1 in
            match op with
            | Ast.FAdd ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Array.unsafe_get stk p +. Array.unsafe_get stk (p + 1));
                    next);
                `Live
            | Ast.FSub ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.falu <- mtr.falu + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Array.unsafe_get stk p -. Array.unsafe_get stk (p + 1));
                    next);
                `Live
            | Ast.FMul ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.fmul <- mtr.fmul + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Array.unsafe_get stk p *. Array.unsafe_get stk (p + 1));
                    next);
                `Live
            | Ast.FDiv ->
                emit1 (fun next st ->
                    tick st.inst;
                    mtr.fdiv <- mtr.fdiv + 1;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    Array.unsafe_set stk p
                      (Array.unsafe_get stk p /. Array.unsafe_get stk (p + 1));
                    next);
                `Live
            | _ ->
                let bump = fbinop_bump op in
                emit1 (fun next st ->
                    tick st.inst;
                    bump mtr;
                    let stk = st.stk in
                    let p = st.opbase + hres in
                    let x = Array.unsafe_get stk p in
                    let y = Array.unsafe_get stk (p + 1) in
                    Array.unsafe_set stk p (Numerics.eval_fbinop op x y);
                    next);
                `Live))
    | Ast.FRelop (_, op) ->
        pop_n 2;
        push ();
        let hres = !h - 1 in
        (* written out per-operator: a typed float compare never boxes,
           and NaN falls out of the IEEE compare exactly as
           [Numerics.eval_frelop]'s *)
        (match op with
        | Ast.FEq ->
            emit1 (fun next st ->
                tick st.inst;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (slot_of_bool
                     (Array.unsafe_get stk p = Array.unsafe_get stk (p + 1)));
                next)
        | Ast.FNe ->
            emit1 (fun next st ->
                tick st.inst;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (slot_of_bool
                     (Array.unsafe_get stk p <> Array.unsafe_get stk (p + 1)));
                next)
        | Ast.FLt ->
            emit1 (fun next st ->
                tick st.inst;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (slot_of_bool
                     (Array.unsafe_get stk p < Array.unsafe_get stk (p + 1)));
                next)
        | Ast.FGt ->
            emit1 (fun next st ->
                tick st.inst;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (slot_of_bool
                     (Array.unsafe_get stk p > Array.unsafe_get stk (p + 1)));
                next)
        | Ast.FLe ->
            emit1 (fun next st ->
                tick st.inst;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (slot_of_bool
                     (Array.unsafe_get stk p <= Array.unsafe_get stk (p + 1)));
                next)
        | Ast.FGe ->
            emit1 (fun next st ->
                tick st.inst;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (slot_of_bool
                     (Array.unsafe_get stk p >= Array.unsafe_get stk (p + 1)));
                next));
        `Live
    | Ast.Cvtop op ->
        let fn = cvt_fn op in
        pop ();
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            mtr.cvt <- mtr.cvt + 1;
            let stk = st.stk in
            let p = st.opbase + hres in
            Array.unsafe_set stk p (fn (Array.unsafe_get stk p));
            next);
        `Live
    | Ast.Load (lty, pack, ma) ->
        pop ();
        push ();
        let hres = !h - 1 in
        let len, lk = load_kind lty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of id in
        let ebounds = belide_of id in
        let body =
          load_body ~elide ~ebounds ~len ~lk ~off ~src:(Sop hres)
            ~dst:(Sop hres)
        in
        emit1 (fun next st ->
            tick st.inst;
            body st;
            next);
        `Live
    | Ast.Store (sty, pack, ma) ->
        pop ();
        pop ();
        let ha = !h in
        let len, sk = store_kind sty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of id in
        let ebounds = belide_of id in
        let body =
          store_body ~elide ~ebounds ~len ~sk ~off ~src:(Sop ha)
            ~vsrc:(Sop (ha + 1))
        in
        emit1 (fun next st ->
            tick st.inst;
            body st;
            next);
        `Live
    | Ast.MemorySize ->
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            Array.unsafe_set st.stk (st.opbase + hres)
              (slot_of_idx (Memory.size_pages (gm st.inst)));
            next);
        `Live
    | Ast.MemoryGrow ->
        pop ();
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            let stk = st.stk in
            let p = st.opbase + hres in
            let old = Rt.memory_grow st.inst (idx_of_slot (Array.unsafe_get stk p)) in
            Array.unsafe_set stk p (slot_of_idx old);
            next);
        `Live
    | Ast.MemoryFill ->
        pop_n 3;
        let hdst = !h in
        emit1 (fun next st ->
            tick st.inst;
            let inst = st.inst in
            let stk = st.stk in
            let p = st.opbase + hdst in
            let len = idx_of_slot (Array.unsafe_get stk (p + 2)) in
            let v = int_of_slot (Array.unsafe_get stk (p + 1)) in
            let dst, dtag = resolve_bulk (Array.unsafe_get stk p) in
            mtr.bulk_fill <- mtr.bulk_fill + 1;
            Checked.fill inst (gm inst) ~addr:dst ~tag:dtag ~len v;
            next);
        `Live
    | Ast.MemoryCopy ->
        pop_n 3;
        let hdst = !h in
        emit1 (fun next st ->
            tick st.inst;
            let inst = st.inst in
            let stk = st.stk in
            let p = st.opbase + hdst in
            let len = idx_of_slot (Array.unsafe_get stk (p + 2)) in
            (* the interpreter resolves source before destination:
               chaos draws must land in that order *)
            let src, stag = resolve_bulk (Array.unsafe_get stk (p + 1)) in
            let dst, dtag = resolve_bulk (Array.unsafe_get stk p) in
            mtr.bulk_copy <- mtr.bulk_copy + 1;
            Checked.copy inst (gm inst) ~dst ~dtag ~src ~stag ~len;
            next);
        `Live
    | Ast.SegmentNew o ->
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        let arena = arena_of id in
        emit1 (fun next st ->
            tick st.inst;
            let stk = st.stk in
            let p = st.opbase + hres in
            let l = Xcode.i64_of_slot (Array.unsafe_get stk (p + 1)) in
            let k = Xcode.i64_of_slot (Array.unsafe_get stk p) in
            Array.unsafe_set stk p
              (Xcode.slot_of_i64 (Rt.segment_new ~arena st.inst ~k ~l o));
            next);
        `Live
    | Ast.SegmentSetTag o ->
        pop ();
        pop ();
        pop ();
        let hk = !h in
        emit1 (fun next st ->
            tick st.inst;
            let stk = st.stk in
            let p = st.opbase + hk in
            let l = Xcode.i64_of_slot (Array.unsafe_get stk (p + 2)) in
            let t = Xcode.i64_of_slot (Array.unsafe_get stk (p + 1)) in
            let k = Xcode.i64_of_slot (Array.unsafe_get stk p) in
            Rt.segment_set_tag st.inst ~k ~t ~l o;
            next);
        `Live
    | Ast.SegmentFree o ->
        pop ();
        pop ();
        let hk = !h in
        let arena = arena_of id in
        emit1 (fun next st ->
            tick st.inst;
            let stk = st.stk in
            let p = st.opbase + hk in
            let l = Xcode.i64_of_slot (Array.unsafe_get stk (p + 1)) in
            let k = Xcode.i64_of_slot (Array.unsafe_get stk p) in
            Rt.segment_free ~arena st.inst ~k ~l o;
            next);
        `Live
    | Ast.PointerSign ->
        pop ();
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            let stk = st.stk in
            let p = st.opbase + hres in
            Array.unsafe_set stk p
              (Xcode.slot_of_i64
                 (Rt.pointer_sign st.inst
                    (Xcode.i64_of_slot (Array.unsafe_get stk p))));
            next);
        `Live
    | Ast.PointerAuth ->
        pop ();
        push ();
        let hres = !h - 1 in
        emit1 (fun next st ->
            tick st.inst;
            let stk = st.stk in
            let p = st.opbase + hres in
            Array.unsafe_set stk p
              (Xcode.slot_of_i64
                 (Rt.pointer_auth st.inst
                    (Xcode.i64_of_slot (Array.unsafe_get stk p))));
            next);
        `Live
    | Ast.Call fi ->
        let cty = Ast.type_of_func m fi in
        pop_n (List.length cty.params);
        let hbase = !h in
        push_n (List.length cty.results);
        let param_tys = Array.of_list cty.params in
        emit1 (fun next st ->
            tick st.inst;
            mtr.call <- mtr.call + 1;
            call_function st fi (st.opbase + hbase) param_tys;
            next);
        `Live
    | Ast.CallIndirect ti ->
        let ety = List.nth m.types ti in
        pop ();
        pop_n (List.length ety.params);
        let hbase = !h in
        push_n (List.length ety.results);
        let nargs = List.length ety.params in
        let param_tys = Array.of_list ety.params in
        emit1 (fun next st ->
            tick st.inst;
            let inst = st.inst in
            mtr.call_indirect <- mtr.call_indirect + 1;
            let stk = st.stk in
            let idx = int_of_slot (Array.unsafe_get stk (st.opbase + hbase + nargs)) in
            if idx < 0 || idx >= Array.length inst.table then
              Rt.trap "undefined element %d in table" idx;
            (match inst.table.(idx) with
            | None -> Rt.trap "uninitialized table element %d" idx
            | Some fi ->
                let actual = Instance.func_type inst.funcs.(fi) in
                if not (Types.func_type_equal ety actual) then
                  Rt.trap "indirect call type mismatch";
                call_function st fi (st.opbase + hbase) param_tys);
            next);
        `Live
  in
  (* ---------------------------------------------------------------- *)
  (* Superinstruction fusion                                           *)
  (* ---------------------------------------------------------------- *)
  (* Try to absorb a run of consecutive instructions starting at
     [body.(i)] into one op. Returns the number of source instructions
     consumed (0 = no match). Constituent side effects — ticks, meter
     bumps, elision decisions — are batched but numerically identical
     to the singleton sequence; static stack updates reuse the same
     push/pop helpers so frame-height accounting is exactly what the
     singletons would have produced. *)
  let try_fuse labels (body : Code.instr array) i : int =
    let n = Array.length body in
    let at k = if i + k < n then Some body.(i + k) else None in
    match (at 0, at 1, at 2, at 3, at 4) with
    (* local.get a; local.get b; i32 relop; i32.eqz; br_if — the
       inverted loop guard every structured while-loop compiles to *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.IRelop (Ast.W32, op), _)),
        Some (Code.Basic (Ast.ITestop Ast.W32, _)),
        Some (Code.BrIf l) ) ->
        push ();
        push ();
        pop ();
        pop ();
        push ();
        pop ();
        push ();
        pop ();
        let act = branch_action labels l in
        let fn = i32_relop_fn op in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 5;
            mtr.local_access <- mtr.local_access + 2;
            mtr.ialu <- mtr.ialu + 2;
            let stk = st.stk in
            let b = st.base in
            let x = int_of_slot (Array.unsafe_get stk (b + a)) in
            let y = int_of_slot (Array.unsafe_get stk (b + bl)) in
            meter_br inst;
            if not (fn x y) then act st else next);
        n_instrs := !n_instrs + 5;
        n_fused := !n_fused + 5;
        bump_idiom "i32.lg.lg.relop.eqz.brif";
        5
    (* local.get a; local.get b; i32 relop; br_if  — the loop-guard idiom *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.IRelop (Ast.W32, op), _)),
        Some (Code.BrIf l),
        _ ) ->
        push ();
        push ();
        pop ();
        pop ();
        push ();
        pop ();
        let act = branch_action labels l in
        let fn = i32_relop_fn op in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 4;
            mtr.local_access <- mtr.local_access + 2;
                mtr.ialu <- mtr.ialu + 1;
            let stk = st.stk in
            let b = st.base in
            let x = int_of_slot (Array.unsafe_get stk (b + a)) in
            let y = int_of_slot (Array.unsafe_get stk (b + bl)) in
            meter_br inst;
            if fn x y then act st else next);
        n_instrs := !n_instrs + 4;
        n_fused := !n_fused + 4;
        bump_idiom "i32.lg.lg.relop.brif";
        4
    (* local.get base; local.get a; local.get b; i32 binop — the head
       of an address chain: the base pointer rides below the combined
       index. *)
    | ( Some (Code.Basic (Ast.LocalGet v0, _)),
        Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.IBinop (Ast.W32, op), _)),
        _ )
      when i32_binop_fusable op ->
        let h0 = !h in
        push ();
        push ();
        push ();
        pop ();
        pop ();
        push ();
        let fn = i32_binop_fn op in
        let bump = ibinop_bump op in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 4;
            mtr.local_access <- mtr.local_access + 3;
            bump mtr;
            let stk = st.stk in
            let b = st.base in
            let p = st.opbase + h0 in
            Array.unsafe_set stk p (Array.unsafe_get stk (b + v0));
            let x = int_of_slot (Array.unsafe_get stk (b + a)) in
            let y = int_of_slot (Array.unsafe_get stk (b + bl)) in
            Array.unsafe_set stk (p + 1) (slot_of_int (fn x y));
            next);
        n_instrs := !n_instrs + 4;
        n_fused := !n_fused + 4;
        bump_idiom "i32.lg.lg.lg.op";
        4
    (* local.get a; local.get b; i32 binop *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.IBinop (Ast.W32, op), _)),
        _,
        _ )
      when i32_binop_fusable op ->
        push ();
        push ();
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        let fn = i32_binop_fn op in
        let bump = ibinop_bump op in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 3;
            mtr.local_access <- mtr.local_access + 2;
                bump mtr;
            let stk = st.stk in
            let b = st.base in
            let x = int_of_slot (Array.unsafe_get stk (b + a)) in
            let y = int_of_slot (Array.unsafe_get stk (b + bl)) in
            Array.unsafe_set stk (st.opbase + hres) (slot_of_int (fn x y));
            next);
        n_instrs := !n_instrs + 3;
        n_fused := !n_fused + 3;
        bump_idiom "i32.lg.lg.op";
        3
    (* local.get a; local.get b; f64 binop *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.FBinop (Ast.W64, op), _)),
        _,
        _ ) ->
        push ();
        push ();
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        (match op with
        | Ast.FAdd ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.local_access <- mtr.local_access + 2;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let b = st.base in
                Array.unsafe_set stk (st.opbase + hres)
                  (Array.unsafe_get stk (b + a) +. Array.unsafe_get stk (b + bl));
                next)
        | Ast.FSub ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.local_access <- mtr.local_access + 2;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let b = st.base in
                Array.unsafe_set stk (st.opbase + hres)
                  (Array.unsafe_get stk (b + a) -. Array.unsafe_get stk (b + bl));
                next)
        | Ast.FMul ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.local_access <- mtr.local_access + 2;
                mtr.fmul <- mtr.fmul + 1;
                let stk = st.stk in
                let b = st.base in
                Array.unsafe_set stk (st.opbase + hres)
                  (Array.unsafe_get stk (b + a) *. Array.unsafe_get stk (b + bl));
                next)
        | Ast.FDiv ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.local_access <- mtr.local_access + 2;
                mtr.fdiv <- mtr.fdiv + 1;
                let stk = st.stk in
                let b = st.base in
                Array.unsafe_set stk (st.opbase + hres)
                  (Array.unsafe_get stk (b + a) /. Array.unsafe_get stk (b + bl));
                next)
        | _ ->
            let bump = fbinop_bump op in
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.local_access <- mtr.local_access + 2;
                bump mtr;
                let stk = st.stk in
                let b = st.base in
                let x = Array.unsafe_get stk (b + a) in
                let y = Array.unsafe_get stk (b + bl) in
                Array.unsafe_set stk (st.opbase + hres)
                  (Numerics.eval_fbinop op x y);
                next));
        n_instrs := !n_instrs + 3;
        n_fused := !n_fused + 3;
        bump_idiom "f64.lg.lg.op";
        3
    (* local.get addr; local.get v; store *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.Store (sty, pack, ma), sid)),
        _,
        _ ) ->
        push ();
        push ();
        pop ();
        pop ();
        let len, sk = store_kind sty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of sid in
        let ebounds = belide_of sid in
        let body =
          store_body ~elide ~ebounds ~len ~sk ~off ~src:(Sloc a)
            ~vsrc:(Sloc bl)
        in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 3;
            mtr.local_access <- mtr.local_access + 2;
            body st;
            next);
        n_instrs := !n_instrs + 3;
        n_fused := !n_fused + 3;
        bump_idiom "lg.lg.store";
        3
    (* local.get; i32.const; i32 binop; local.set — the loop-counter
       increment quad; the add is written out inline *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.I32Const c, _)),
        Some (Code.Basic (Ast.IBinop (Ast.W32, op), _)),
        Some (Code.Basic (Ast.LocalSet d, _)),
        _ )
      when i32_binop_fusable op ->
        push ();
        push ();
        pop ();
        pop ();
        push ();
        pop ();
        let y = norm32 (Int32.to_int c) in
        (match op with
        | Ast.Add ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 4;
                mtr.local_access <- mtr.local_access + 2;
                mtr.const <- mtr.const + 1;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let b = st.base in
                let x = int_of_slot (Array.unsafe_get stk (b + a)) in
                Array.unsafe_set stk (b + d) (slot_of_int (norm32 (x + y)));
                next)
        | _ ->
            let fn = i32_binop_fn op in
            let bump = ibinop_bump op in
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 4;
                mtr.local_access <- mtr.local_access + 2;
                mtr.const <- mtr.const + 1;
                bump mtr;
                let stk = st.stk in
                let b = st.base in
                let x = int_of_slot (Array.unsafe_get stk (b + a)) in
                Array.unsafe_set stk (b + d) (slot_of_int (fn x y));
                next));
        n_instrs := !n_instrs + 4;
        n_fused := !n_fused + 4;
        bump_idiom "i32.lg.const.op.ls";
        4
    (* local.get; i32.const; i32 binop *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.I32Const c, _)),
        Some (Code.Basic (Ast.IBinop (Ast.W32, op), _)),
        _,
        _ )
      when i32_binop_fusable op ->
        push ();
        push ();
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        let y = norm32 (Int32.to_int c) in
        let fn = i32_binop_fn op in
        let bump = ibinop_bump op in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 3;
            mtr.local_access <- mtr.local_access + 1;
                mtr.const <- mtr.const + 1;
                bump mtr;
            let stk = st.stk in
            let x = int_of_slot (Array.unsafe_get stk (st.base + a)) in
            Array.unsafe_set stk (st.opbase + hres) (slot_of_int (fn x y));
            next);
        n_instrs := !n_instrs + 3;
        n_fused := !n_fused + 3;
        bump_idiom "i32.lg.const.op";
        3
    (* local.get addr; load *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.Load (lty, pack, ma), lid)),
        _,
        _,
        _ ) ->
        push ();
        pop ();
        push ();
        let hres = !h - 1 in
        let len, lk = load_kind lty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of lid in
        let ebounds = belide_of lid in
        let body =
          load_body ~elide ~ebounds ~len ~lk ~off ~src:(Sloc a)
            ~dst:(Sop hres)
        in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 2;
            mtr.local_access <- mtr.local_access + 1;
            body st;
            next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "lg.load";
        2
    (* local.get; local.set — a register-to-register move *)
    | ( Some (Code.Basic (Ast.LocalGet a, _)),
        Some (Code.Basic (Ast.LocalSet d, _)),
        _,
        _,
        _ ) ->
        push ();
        pop ();
        emit1 (fun next st ->
            tick_n st.inst 2;
            mtr.local_access <- mtr.local_access + 2;
            let stk = st.stk in
            let b = st.base in
            Array.unsafe_set stk (b + d) (Array.unsafe_get stk (b + a));
            next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "lg.ls";
        2
    (* stack-top ⊕ local.get; i32 binop — the address-chain step *)
    | ( Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.IBinop (Ast.W32, op), _)),
        _,
        _,
        _ )
      when i32_binop_fusable op ->
        push ();
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        (match op with
        | Ast.Add ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                let x = int_of_slot (Array.unsafe_get stk p) in
                let y = int_of_slot (Array.unsafe_get stk (st.base + bl)) in
                Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
                next)
        | Ast.Mul ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                mtr.imul <- mtr.imul + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                let x = int_of_slot (Array.unsafe_get stk p) in
                let y = int_of_slot (Array.unsafe_get stk (st.base + bl)) in
                Array.unsafe_set stk p (slot_of_int (norm32 (x * y)));
                next)
        | _ ->
            let fn = i32_binop_fn op in
            let bump = ibinop_bump op in
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                bump mtr;
                let stk = st.stk in
                let p = st.opbase + hres in
                let x = int_of_slot (Array.unsafe_get stk p) in
                let y = int_of_slot (Array.unsafe_get stk (st.base + bl)) in
                Array.unsafe_set stk p (slot_of_int (fn x y));
                next));
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "i32.lg.op";
        2
    (* stack-top ⊕ local.get; f64 binop *)
    | ( Some (Code.Basic (Ast.LocalGet bl, _)),
        Some (Code.Basic (Ast.FBinop (Ast.W64, op), _)),
        _,
        _,
        _ ) ->
        push ();
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        (match op with
        | Ast.FAdd ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (Array.unsafe_get stk p
                  +. Array.unsafe_get stk (st.base + bl));
                next)
        | Ast.FSub ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                mtr.falu <- mtr.falu + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (Array.unsafe_get stk p
                  -. Array.unsafe_get stk (st.base + bl));
                next)
        | Ast.FMul ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                mtr.fmul <- mtr.fmul + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (Array.unsafe_get stk p
                  *. Array.unsafe_get stk (st.base + bl));
                next)
        | Ast.FDiv ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                mtr.fdiv <- mtr.fdiv + 1;
                let stk = st.stk in
                let p = st.opbase + hres in
                Array.unsafe_set stk p
                  (Array.unsafe_get stk p
                  /. Array.unsafe_get stk (st.base + bl));
                next)
        | _ ->
            let bump = fbinop_bump op in
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.local_access <- mtr.local_access + 1;
                bump mtr;
                let stk = st.stk in
                let p = st.opbase + hres in
                let x = Array.unsafe_get stk p in
                let y = Array.unsafe_get stk (st.base + bl) in
                Array.unsafe_set stk p (Numerics.eval_fbinop op x y);
                next));
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "f64.lg.op";
        2
    (* f64 binop; local.set — compute and park the result in a
       register in one step *)
    | ( Some (Code.Basic (Ast.FBinop (Ast.W64, fop), _)),
        Some (Code.Basic (Ast.LocalSet v, _)),
        _,
        _,
        _ ) ->
        pop ();
        pop ();
        push ();
        pop ();
        let hx = !h in
        (match fop with
        | Ast.FAdd ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.falu <- mtr.falu + 1;
                mtr.local_access <- mtr.local_access + 1;
                let stk = st.stk in
                let p = st.opbase + hx in
                Array.unsafe_set stk (st.base + v)
                  (Array.unsafe_get stk p +. Array.unsafe_get stk (p + 1));
                next)
        | Ast.FSub ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.falu <- mtr.falu + 1;
                mtr.local_access <- mtr.local_access + 1;
                let stk = st.stk in
                let p = st.opbase + hx in
                Array.unsafe_set stk (st.base + v)
                  (Array.unsafe_get stk p -. Array.unsafe_get stk (p + 1));
                next)
        | Ast.FMul ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.fmul <- mtr.fmul + 1;
                mtr.local_access <- mtr.local_access + 1;
                let stk = st.stk in
                let p = st.opbase + hx in
                Array.unsafe_set stk (st.base + v)
                  (Array.unsafe_get stk p *. Array.unsafe_get stk (p + 1));
                next)
        | Ast.FDiv ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                mtr.fdiv <- mtr.fdiv + 1;
                mtr.local_access <- mtr.local_access + 1;
                let stk = st.stk in
                let p = st.opbase + hx in
                Array.unsafe_set stk (st.base + v)
                  (Array.unsafe_get stk p /. Array.unsafe_get stk (p + 1));
                next)
        | _ ->
            let bump = fbinop_bump fop in
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 2;
                bump mtr;
                mtr.local_access <- mtr.local_access + 1;
                let stk = st.stk in
                let p = st.opbase + hx in
                Array.unsafe_set stk (st.base + v)
                  (Numerics.eval_fbinop fop (Array.unsafe_get stk p)
                     (Array.unsafe_get stk (p + 1)));
                next));
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "f64.op.ls";
        2
    (* local.get value; store — store straight from a register *)
    | ( Some (Code.Basic (Ast.LocalGet v, _)),
        Some (Code.Basic (Ast.Store (sty, pack, ma), sid)),
        _,
        _,
        _ ) ->
        push ();
        pop ();
        pop ();
        let ha = !h in
        let len, sk = store_kind sty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of sid in
        let ebounds = belide_of sid in
        let body =
          store_body ~elide ~ebounds ~len ~sk ~off ~src:(Sop ha)
            ~vsrc:(Sloc v)
        in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 2;
            mtr.local_access <- mtr.local_access + 1;
            body st;
            next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "lg.store";
        2
    (* i32.add; f64.load; f64 binop — finish the address chain, pull
       the element and fold it into the running product/sum. *)
    | ( Some (Code.Basic (Ast.IBinop (Ast.W32, Ast.Add), _)),
        Some (Code.Basic (Ast.Load (Types.F64, None, ma), lid)),
        Some (Code.Basic (Ast.FBinop (Ast.W64, fop), _)),
        _,
        _ )
      when (match fop with
              | Ast.FAdd | Ast.FSub | Ast.FMul | Ast.FDiv -> true
              | _ -> false) ->
        pop ();
        pop ();
        push ();
        pop ();
        push ();
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        let hadd = hres + 1 in
        let off = native_off ma.Ast.offset in
        let elide = elide_of lid in
        let ebounds = belide_of lid in
        let body =
          load_body ~elide ~ebounds ~len:8 ~lk:Lk_f64 ~off
            ~src:(Sop hadd) ~dst:(Sop hadd)
        in
        (match fop with
        | Ast.FAdd ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hadd in
                let x = int_of_slot (Array.unsafe_get stk p) in
                let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
                body st;
                mtr.falu <- mtr.falu + 1;
                let q = st.opbase + hres in
                Array.unsafe_set stk q
                  (Array.unsafe_get stk q +. Array.unsafe_get stk (q + 1));
                next)
        | Ast.FSub ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hadd in
                let x = int_of_slot (Array.unsafe_get stk p) in
                let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
                body st;
                mtr.falu <- mtr.falu + 1;
                let q = st.opbase + hres in
                Array.unsafe_set stk q
                  (Array.unsafe_get stk q -. Array.unsafe_get stk (q + 1));
                next)
        | Ast.FMul ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hadd in
                let x = int_of_slot (Array.unsafe_get stk p) in
                let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
                body st;
                mtr.fmul <- mtr.fmul + 1;
                let q = st.opbase + hres in
                Array.unsafe_set stk q
                  (Array.unsafe_get stk q *. Array.unsafe_get stk (q + 1));
                next)
        | _ ->
            emit1 (fun next st ->
                let inst = st.inst in
                tick_n inst 3;
                mtr.ialu <- mtr.ialu + 1;
                let stk = st.stk in
                let p = st.opbase + hadd in
                let x = int_of_slot (Array.unsafe_get stk p) in
                let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
                Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
                body st;
                mtr.fdiv <- mtr.fdiv + 1;
                let q = st.opbase + hres in
                Array.unsafe_set stk q
                  (Array.unsafe_get stk q /. Array.unsafe_get stk (q + 1));
                next));
        n_instrs := !n_instrs + 3;
        n_fused := !n_fused + 3;
        bump_idiom "i32.add.load.f64.op";
        3
    (* i32.add; local.get v; store — finish the address chain and
       store straight from a register. *)
    | ( Some (Code.Basic (Ast.IBinop (Ast.W32, Ast.Add), _)),
        Some (Code.Basic (Ast.LocalGet v, _)),
        Some (Code.Basic (Ast.Store (sty, pack, ma), sid)),
        _,
        _ ) ->
        pop ();
        pop ();
        push ();
        push ();
        pop ();
        pop ();
        let ha = !h in
        let len, sk = store_kind sty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of sid in
        let ebounds = belide_of sid in
        let body =
          store_body ~elide ~ebounds ~len ~sk ~off ~src:(Sop ha)
            ~vsrc:(Sloc v)
        in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 3;
            mtr.ialu <- mtr.ialu + 1;
            let stk = st.stk in
            let p = st.opbase + ha in
            let x = int_of_slot (Array.unsafe_get stk p) in
            let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
            Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
            mtr.local_access <- mtr.local_access + 1;
            body st;
            next);
        n_instrs := !n_instrs + 3;
        n_fused := !n_fused + 3;
        bump_idiom "i32.add.lg.store";
        3
    (* i32.add; load — fold the last address-chain step into the access *)
    | ( Some (Code.Basic (Ast.IBinop (Ast.W32, Ast.Add), _)),
        Some (Code.Basic (Ast.Load (lty, pack, ma), lid)),
        _,
        _,
        _ ) ->
        pop ();
        pop ();
        push ();
        pop ();
        push ();
        let hres = !h - 1 in
        let len, lk = load_kind lty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of lid in
        let ebounds = belide_of lid in
        let body =
          load_body ~elide ~ebounds ~len ~lk ~off ~src:(Sop hres)
            ~dst:(Sop hres)
        in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 2;
            mtr.ialu <- mtr.ialu + 1;
            let stk = st.stk in
            let p = st.opbase + hres in
            let x = int_of_slot (Array.unsafe_get stk p) in
            let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
            Array.unsafe_set stk p (slot_of_int (norm32 (x + y)));
            body st;
            next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "i32.add.load";
        2
    (* load; local.set *)
    | ( Some (Code.Basic (Ast.Load (lty, pack, ma), lid)),
        Some (Code.Basic (Ast.LocalSet j, _)),
        _,
        _,
        _ ) ->
        pop ();
        push ();
        pop ();
        let ha = !h in
        let len, lk = load_kind lty pack in
        let off = native_off ma.Ast.offset in
        let elide = elide_of lid in
        let ebounds = belide_of lid in
        let body =
          load_body ~elide ~ebounds ~len ~lk ~off ~src:(Sop ha)
            ~dst:(Sloc j)
        in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 2;
            body st;
            mtr.local_access <- mtr.local_access + 1;
            next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "load.ls";
        2
    (* i32.const; i32 binop — constant-folded RHS on the stack top *)
    | ( Some (Code.Basic (Ast.I32Const c, _)),
        Some (Code.Basic (Ast.IBinop (Ast.W32, op), _)),
        _,
        _,
        _ )
      when i32_binop_fusable op ->
        push ();
        pop ();
        pop ();
        push ();
        let hres = !h - 1 in
        let y = norm32 (Int32.to_int c) in
        let fn = i32_binop_fn op in
        let bump = ibinop_bump op in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 2;
            mtr.const <- mtr.const + 1;
                bump mtr;
            let stk = st.stk in
            let p = st.opbase + hres in
            let x = int_of_slot (Array.unsafe_get stk p) in
            Array.unsafe_set stk p (slot_of_int (fn x y));
            next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "i32.const.op";
        2
    (* i32 relop; br_if — the compare-branch idiom *)
    | ( Some (Code.Basic (Ast.IRelop (Ast.W32, op), _)),
        Some (Code.BrIf l),
        _,
        _,
        _ ) ->
        pop ();
        pop ();
        push ();
        pop ();
        let hx = !h in
        let act = branch_action labels l in
        let fn = i32_relop_fn op in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 2;
            mtr.ialu <- mtr.ialu + 1;
            let stk = st.stk in
            let p = st.opbase + hx in
            let x = int_of_slot (Array.unsafe_get stk p) in
            let y = int_of_slot (Array.unsafe_get stk (p + 1)) in
            meter_br inst;
            if fn x y then act st else next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "i32.relop.brif";
        2
    (* i32.eqz; br_if — branch on zero *)
    | ( Some (Code.Basic (Ast.ITestop Ast.W32, _)),
        Some (Code.BrIf l),
        _,
        _,
        _ ) ->
        pop ();
        push ();
        pop ();
        let hx = !h in
        let act = branch_action labels l in
        emit1 (fun next st ->
            let inst = st.inst in
            tick_n inst 2;
            mtr.ialu <- mtr.ialu + 1;
            let stk = st.stk in
            let z =
              Int64.bits_of_float (Array.unsafe_get stk (st.opbase + hx)) = 0L
            in
            meter_br inst;
            if z then act st else next);
        n_instrs := !n_instrs + 2;
        n_fused := !n_fused + 2;
        bump_idiom "i32.eqz.brif";
        2
    | _ -> 0
  in
  (* ---------------------------------------------------------------- *)
  (* Control-flow compilation                                          *)
  (* ---------------------------------------------------------------- *)
  let rec compile_seq labels (body : Code.instr array) : bool =
    let n = Array.length body in
    let live = ref true in
    let i = ref 0 in
    while !i < n do
      if not !live then incr i (* dead code: ids pre-assigned, skip *)
      else begin
        let consumed = try_fuse labels body !i in
        if consumed > 0 then i := !i + consumed
        else begin
          (match compile_instr labels body.(!i) with
          | `Live -> ()
          | `Dead -> live := false);
          incr i
        end
      end
    done;
    !live
  and compile_instr labels (ins : Code.instr) : [ `Live | `Dead ] =
    match ins with
    | Code.Basic (b, id) ->
        incr n_instrs;
        compile_basic b id
    | Code.Block (arity, inner) ->
        incr n_instrs;
        let fr =
          { l_target = ref (-1); l_loop = false; l_arity = arity;
            l_height = !h; l_reached = false }
        in
        (* the Block node itself ticks once when entered *)
        emit1 (fun next st ->
            tick st.inst;
            next);
        let ft = compile_seq (fr :: labels) inner in
        fr.l_target := !count;
        h := fr.l_height + arity;
        if ft || fr.l_reached then `Live else `Dead
    | Code.Loop inner ->
        incr n_instrs;
        emit1 (fun next st ->
            tick st.inst;
            next);
        (* back-edges land after the entry tick: the interpreter ticks a
           Loop node once, not per iteration *)
        let fr =
          { l_target = ref !count; l_loop = true; l_arity = 0;
            l_height = !h; l_reached = false }
        in
        let ft = compile_seq (fr :: labels) inner in
        if ft then `Live else `Dead
    | Code.If (arity, then_, else_) ->
        incr n_instrs;
        pop ();
        let hcond = !h in
        let fr =
          { l_target = ref (-1); l_loop = false; l_arity = arity;
            l_height = hcond; l_reached = false }
        in
        let else_ref = ref (-1) in
        emit1 (fun next st ->
            tick st.inst;
            meter_br st.inst;
            if
              Int64.bits_of_float (Array.unsafe_get st.stk (st.opbase + hcond))
              <> 0L
            then next
            else !else_ref);
        let ft_then = compile_seq (fr :: labels) then_ in
        (* jump over the else arm (no tick: synthetic control) *)
        if ft_then && Array.length else_ > 0 then
          emit1 (fun _next _st -> !(fr.l_target));
        else_ref := !count;
        h := hcond;
        let ft_else = compile_seq (fr :: labels) else_ in
        fr.l_target := !count;
        h := hcond + arity;
        if ft_then || ft_else || fr.l_reached then `Live else `Dead
    | Code.Br l ->
        incr n_instrs;
        let act = branch_action labels l in
        emit1 (fun _next st ->
            tick st.inst;
            meter_br st.inst;
            act st);
        `Dead
    | Code.BrIf l ->
        incr n_instrs;
        pop ();
        let hcond = !h in
        let act = branch_action labels l in
        emit1 (fun next st ->
            tick st.inst;
            meter_br st.inst;
            if
              Int64.bits_of_float (Array.unsafe_get st.stk (st.opbase + hcond))
              <> 0L
            then act st
            else next);
        `Live
    | Code.BrTable (targets, default) ->
        incr n_instrs;
        pop ();
        let hidx = !h in
        let acts = Array.map (branch_action labels) targets in
        let default_act = branch_action labels default in
        let nt = Array.length acts in
        emit1 (fun _next st ->
            tick st.inst;
            meter_br st.inst;
            let idx =
              int_of_slot (Array.unsafe_get st.stk (st.opbase + hidx))
            in
            let act =
              if idx >= 0 && idx < nt then Array.unsafe_get acts idx
              else default_act
            in
            act st);
        `Dead
    | Code.Return arity ->
        incr n_instrs;
        let act =
          branch_action labels { Code.depth = List.length labels - 1; arity }
        in
        emit1 (fun _next st ->
            tick st.inst;
            mtr.return_ <- mtr.return_ + 1;
            act st);
        `Dead
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
  ignore (compile_seq [ func_frame ] code.body);
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
  ( {
      ops = Array.of_list (List.rev !rev_ops);
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
let compile_instance (inst : Instance.t) =
  (* Bake a meter into every op unconditionally: when the instance has
     none, a private dummy absorbs the counts — an unconditional field
     increment is cheaper than a per-op option match, and the dummy is
     never observable (nothing else holds it). *)
  let mtr = match inst.meter with Some m -> m | None -> Meter.create () in
  Array.iteri
    (fun i fi ->
      match fi with
      | Instance.Host_func _ -> ()
      | Instance.Wasm_func ({ func; ty; code; _ } as w) ->
          let xf, _stats =
            compile ~m:inst.module_
              ~name:(Instance.func_name inst i)
              ~ty ~func ~code ~mtr
          in
          w.xcode <- Some xf)
    inst.funcs

(** Compile all functions of a module without instantiating it — the
    [cagec --Wfusion] entry point. Returns per-function stats in
    function-index order (local functions only). [elide] is the static
    analyzer's bitset array, as passed to instantiation. *)
let module_stats ?(elide = [||]) ?(belide = [||]) ?(arena = [||])
    (m : Ast.module_) : Xcode.stats list =
  List.mapi
    (fun j (f : Ast.func) ->
      let ty = List.nth m.types f.ftype in
      let row a = if j < Array.length a then a.(j) else Bytes.empty in
      let code =
        Code.prepare ~elide:(row elide) ~belide:(row belide)
          ~arena:(row arena)
          ~result_arity:(List.length ty.results)
          f.body
      in
      let name =
        match f.fname with
        | Some n -> n
        | None -> Printf.sprintf "f%d" (Ast.num_imports m + j)
      in
      snd (compile ~m ~name ~ty ~func:f ~code ~mtr:(Meter.create ())))
    m.funcs
