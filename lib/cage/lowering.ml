(** Cost-model lowering: what a Cranelift-with-Cage backend emits.

    The interpreter executes a workload once per configuration and
    records semantic events in a {!Wasm.Meter.t}. This module prices
    that event record as native AArch64 work on a given core:

    - every wasm operation expands to a small native instruction mix
      (based on how wasmtime's Cranelift lowers the corresponding op);
    - the sandbox strategy decides whether each memory access pays a
      software bounds check (cmp + branch, whose {e effective} cost is
      the core's calibrated [bounds_check_cost] — tiny when the core
      speculates through it, large in order) or an MTE tag check
      ([mte_check_cost]);
    - the Cage instructions expand to their MTE/PAC sequences: an
      [irg]/[addg] plus one [stg] per 16-byte granule for segment
      operations, [pacda]/[autda] for pointer signing.

    The result is cycles, converted to seconds at the core's clock. The
    same constants reproduce the raw-hardware microbenchmarks (Fig. 4,
    Table 1), so the PolyBench overheads of Fig. 14 are derived, not
    fitted. *)

open Arch

(** Native-instruction expansion of one wasm operation, as (kind,
    instructions-per-event) pairs. *)
let expansion (cfg : Config.t) (m : Wasm.Meter.t) : (Insn.kind * float) list =
  let f = float_of_int in
  let loads = f m.loads and stores = f m.stores in
  let accesses = loads +. stores in
  let base =
    [
      (* Most constants fold into immediates or addressing modes. *)
      (Insn.Alu, 0.4 *. f m.const);
      (* Locals are register-allocated; a fraction spill. *)
      (Insn.Alu, 0.25 *. f m.local_access);
      (Insn.Load, 0.5 *. f m.global_access);
      (Insn.Alu, 0.5 *. f m.global_access);
      (Insn.Alu, f m.ialu);
      (Insn.Mul, f m.imul);
      (Insn.IDiv, f m.idiv);
      (Insn.FAlu, f m.falu);
      (Insn.FMul, f m.fmul);
      (Insn.FDiv, f m.fdiv);
      (* most integer-width conversions fold into addressing modes or
         zero-cost register views on aarch64 *)
      (Insn.Alu, 0.3 *. f m.cvt);
      (Insn.Csel, f m.select);
      (Insn.Cmp, 0.5 *. f m.branch);
      (Insn.Branch, f m.branch);
      (* call: spill/reload + bl + prologue *)
      (Insn.Alu, 4.0 *. f m.call);
      (Insn.Branch, f m.call);
      (* call_indirect: table bounds check, load entry, signature
         compare, blr *)
      (Insn.Load, 2.0 *. f m.call_indirect);
      (Insn.Cmp, 2.0 *. f m.call_indirect);
      (Insn.BranchIndirect, f m.call_indirect);
      (Insn.Branch, f m.return_);
      (* one addressing-mode op per access on average *)
      (Insn.Load, loads);
      (Insn.Store, stores);
      (Insn.Alu, 0.5 *. accesses);
      (* bulk fill/copy setup: pointer resolve, length/bounds compare,
         dispatch into the memset/memmove stub — the streamed traffic
         itself is already metered as 16-byte-chunk loads/stores *)
      (Insn.Alu, 2.0 *. f m.bulk_fill);
      (Insn.Cmp, f m.bulk_fill);
      (Insn.Branch, f m.bulk_fill);
      (Insn.Alu, 3.0 *. f m.bulk_copy);
      (Insn.Cmp, 2.0 *. f m.bulk_copy);
      (Insn.Branch, f m.bulk_copy);
    ]
  in
  (* The sandbox checks themselves (cmp+branch, or the Fig. 13 mask
     folded into the address computation) are priced as per-access
     cycle costs in {!cycles}: out-of-order cores speculate through
     them, so pricing them as issued instructions would badly
     overestimate — the calibrated [bounds_check_cost]/[mte_check_cost]
     capture their effective cost instead. *)
  let sandbox_insns = [] in
  let segment_insns =
    if not cfg.internal_safety then []
    else
      let news = f m.seg_new and frees = f m.seg_free in
      [
        (* segment.new: irg to draw a tag, stg per granule (zeroing
           variants also initialise); address arithmetic *)
        (Insn.Irg, news);
        (Insn.Alu, 2.0 *. news);
        (Insn.Stzg, f m.seg_new_granules);
        (* arena-lowered segment.new still zeroes its payload, but with
           plain stores instead of the stzg tag-write pairs; the
           lowered free's per-granule retag disappears entirely *)
        (Insn.Store, f m.arena_new_granules);
        (* segment.set_tag: addg-style tag transfer + stg per granule *)
        (Insn.Addg, f m.seg_set_tag);
        (Insn.Stg, f m.seg_set_tag_granules);
        (* segment.free: ldg to verify ownership, retag granules *)
        (Insn.Ldg, frees);
        (Insn.Addg, frees);
        (Insn.Stg, f m.seg_free_granules);
      ]
  in
  let pac_insns =
    if not cfg.ptr_auth then []
    else [ (Insn.Pacda, f m.ptr_sign); (Insn.Autda, f m.ptr_auth) ]
  in
  base @ sandbox_insns @ segment_insns @ pac_insns

(** Price a metered run on [cpu] under configuration [cfg], in cycles. *)
let cycles (cpu : Cpu_model.t) (cfg : Config.t) (m : Wasm.Meter.t) : float =
  let mix = expansion cfg m in
  (* Throughput-limited baseline: each instruction kind cannot exceed
     its issue rate; the overall stream cannot exceed the core's
     exploitable ILP (base_cpi). *)
  let issue_cycles =
    List.fold_left
      (fun acc (kind, count) ->
        let tp = (cpu.perf kind).tp in
        acc +. Float.max (count /. tp) (count *. cpu.base_cpi))
      0.0 mix
  in
  (* Long-latency ops whose results are consumed promptly expose part of
     their latency even on out-of-order cores. *)
  let latency_exposure =
    let lat kind = (cpu.perf kind).lat in
    let expose = if cpu.inorder then 0.8 else 0.25 in
    (* pointer authentication's 5-cycle latency hides under the
       indirect-dispatch serialisation it always precedes (the paper's
       "not noticeable" observation), so it is not exposed here *)
    expose
    *. ((float_of_int m.idiv *. lat Insn.IDiv)
       +. (float_of_int m.fdiv *. lat Insn.FDiv))
  in
  let dispatch_cycles =
    float_of_int m.call_indirect *. cpu.indirect_call_cost
  in
  let accesses = float_of_int (Wasm.Meter.mem_accesses m) in
  (* Accesses whose MTE granule check was statically elided pay no tag
     check; the software bounds compare survives unless the span proof
     also held ([elided_bounds] — full-check elision). *)
  let tag_checked =
    Float.max 0.0 (accesses -. float_of_int m.elided_checks)
  in
  let bounds_checked =
    Float.max 0.0 (accesses -. float_of_int m.elided_bounds)
  in
  let check_cycles =
    match cfg.sandbox with
    | Config.Software_bounds -> bounds_checked *. cpu.bounds_check_cost
    | Config.Mte_sandbox -> tag_checked *. cpu.mte_check_cost
    | Config.Guard_pages -> 0.0
  in
  (* Internal safety also tag-checks every access (the hardware does it
     for free in parallel with the cache lookup; the marginal cost is
     the same cache-resident check penalty). *)
  let internal_check_cycles =
    if cfg.internal_safety && cfg.sandbox <> Config.Mte_sandbox then
      tag_checked *. cpu.mte_check_cost
    else 0.0
  in
  issue_cycles +. latency_exposure +. dispatch_cycles +. check_cycles
  +. internal_check_cycles

(** Price in seconds at the core's clock. *)
let seconds cpu cfg m = cycles cpu cfg m /. (cpu.Cpu_model.freq_ghz *. 1e9)

(** Startup cost of instantiating a module with [mem_bytes] of linear
    memory under [cfg] (paper §7.2 "startup overhead"): the runtime's
    fixed instantiation work plus zeroing — or zero-and-tagging, which
    the [stzg] family does in the same pass — of the memory. *)
let startup_seconds (cpu : Cpu_model.t) (cfg : Config.t) ~mem_bytes =
  (* Module setup plus delivering zeroed memory. The kernel must clear
     the pages either way; with MTE it clears-and-tags them in the same
     pass using the stzg family (paper: "the overhead of tagging the
     linear memory is hidden by the runtime's startup overhead"), so
     Cage pays only the extra tag-PA traffic. *)
  let runtime_fixed = 250_000.0 (* cycles *) in
  let zeroing =
    match cfg.sandbox with
    | Config.Mte_sandbox ->
        Timing.stream_seconds cpu ~mode:cfg.mte_mode
          ~unchecked_bytes:mem_bytes
          ~tag_granules:(mem_bytes /. 16.0)
          ~insn_mix:[ (Insn.Stzg, mem_bytes /. 16.0) ]
          ()
    | _ ->
        Timing.stream_seconds cpu ~mode:Arch.Mte.Disabled
          ~unchecked_bytes:mem_bytes
          ~insn_mix:[ (Insn.Store, mem_bytes /. 16.0) ]
          ()
  in
  (runtime_fixed /. (cpu.freq_ghz *. 1e9)) +. zeroing
