(** Cost-model lowering: what a Cranelift-with-Cage backend emits.

    The interpreter executes a workload once per configuration and
    records semantic events in a {!Wasm.Meter.t}; this module prices
    that event record as native AArch64 work on a given core. The same
    per-core constants reproduce the paper's raw-hardware
    microbenchmarks (Table 1, Fig. 4), so the PolyBench overheads of
    Fig. 14 are derived, not fitted — see DESIGN.md "Calibration". *)

val expansion :
  Config.t -> Wasm.Meter.t -> (Arch.Insn.kind * float) list
(** The native instruction mix a backend emits for the metered events
    under the given configuration, as (kind, count) pairs: the base
    expansion of each wasm operation, plus segment tagging sequences
    when internal safety is on and [pacda]/[autda] when pointer
    authentication is on. Sandbox checks are priced separately (see
    {!cycles}) because out-of-order cores speculate through them. *)

val cycles : Arch.Cpu_model.t -> Config.t -> Wasm.Meter.t -> float
(** Price a metered run on [cpu] under [cfg], in cycles:
    throughput-limited issue + exposed divide latency + indirect-call
    dispatch + the per-access sandbox/tag-check costs. *)

val seconds : Arch.Cpu_model.t -> Config.t -> Wasm.Meter.t -> float
(** {!cycles} at the core's clock. *)

val startup_seconds :
  Arch.Cpu_model.t -> Config.t -> mem_bytes:float -> float
(** Instantiation cost for a module with [mem_bytes] of linear memory
    (paper §7.2): fixed runtime work plus delivering zeroed — or, under
    MTE sandboxing, zeroed-and-tagged via the [stzg] family — memory. *)
