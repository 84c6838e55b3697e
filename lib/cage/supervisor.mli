(** Crash containment: run guests so that no failure escapes.

    Every guest invocation runs under a supervisor that converts
    {e all} failures — tag faults, PAC authentication failures, bounds
    traps, watchdog exhaustion, call-stack exhaustion, [unreachable],
    host-function exceptions — into a structured {!outcome}, emits an
    MTE-SIGSEGV-style {!post_mortem}, and quarantines the faulting
    instance while sibling instances in the same {!Process} keep
    running. *)

type fault_class =
  | Tag_fault           (** synchronous MTE mismatch ("tag fault:") *)
  | Deferred_tag_fault  (** TFSR report at a sync point ("deferred:") *)
  | Pac_auth            (** failed [autda] under FEAT_FPAC ("pac auth:") *)
  | Bounds              (** sandbox violation: out-of-bounds span or
                            non-canonical address ("bounds:") *)
  | Fuel                (** watchdog budget exhausted ("fuel:") *)
  | Stack               (** call-stack exhaustion ("stack:") *)
  | Unreachable         (** the guest executed [unreachable] *)
  | Guest_trap          (** any other wasm trap *)
  | Host_error          (** an exception escaped a host function *)
  | Quarantine          (** invocation refused: instance quarantined *)

val fault_class_to_string : fault_class -> string

val classify : string -> fault_class
(** Classify a trap message by its stable prefix taxonomy
    (["tag fault:"], ["pac auth:"], ["bounds:"], ["fuel:"],
    ["stack:"], ["deferred:"]). *)

type post_mortem = {
  pm_class : fault_class;
  pm_message : string;
  pm_instance : int;             (** instance id *)
  pm_mode : Arch.Mte.mode;
  pm_fault : Arch.Mte.fault option;
      (** the synchronous fault, structured: address, pointer tag vs
          memory tag, access kind *)
  pm_pending : Arch.Mte.fault option;
      (** TFSR drained at crash time — a deferred fault latched before
          the trap must not be lost when the trap unwinds *)
  pm_backtrace : string list;    (** wasm frames, innermost first *)
  pm_ops : int;                  (** meter snapshot: total events *)
  pm_mem_accesses : int;
  pm_fuel_left : int;            (** remaining watchdog budget, -1 if off *)
  pm_injections : string list;
      (** chaos injections charged to the crashed instance's lane since
          the invocation began; none for an unarmed instance or a
          quarantine refusal *)
  pm_trace : string list;
      (** black-box flight recording: the last K trace events before the
          crash, oldest first — empty when no tracer was installed *)
}

val pp_post_mortem : Format.formatter -> post_mortem -> unit
(** Linux-MTE-SIGSEGV-style report: cause, faulting address, pointer
    tag vs memory tag, access kind, MTE mode, wasm backtrace, meter
    snapshot. *)

type outcome =
  | Finished of Wasm.Values.t list
  | Crashed of post_mortem

type t

val create :
  ?fuel:int -> ?black_box:int -> ?max_quarantined:int -> Process.t -> t
(** Supervisor over a process. [fuel] is the per-invocation watchdog
    budget in branches+calls (default [-1]: no watchdog). [black_box]
    is how many final trace events a post-mortem embeds when an
    [Obs] tracer is installed (default 8). [max_quarantined] (default
    256) caps the retained post-mortems: beyond it the oldest records
    are evicted (a [cage_quarantine_evicted_total] bump each) so a
    crash storm cannot grow supervisor memory without bound —
    quarantine {e membership} is never dropped, only the record. *)

val process : t -> Process.t

val spawn :
  ?meter:Wasm.Meter.t ->
  ?imports:(string * string * Wasm.Instance.host_func) list ->
  t ->
  Wasm.Ast.module_ ->
  Wasm.Instance.t
(** {!Process.spawn} on the supervised process. *)

val run : t -> Wasm.Instance.t -> string -> Wasm.Values.t list -> outcome
(** Invoke an exported function under the supervisor: every failure
    becomes [Crashed] with a post-mortem — no OCaml exception escapes —
    and a crash quarantines the instance (later invocations are
    refused with a [Quarantine] outcome) while siblings keep running. *)

val run_thunk : t -> Wasm.Instance.t -> (unit -> Wasm.Values.t list) -> outcome
(** Same contract for an arbitrary invocation thunk on the instance
    (drivers that wrap [Exec.invoke] themselves, e.g. the libc shims). *)

val quarantined : t -> (int * post_mortem) list
(** Retained post-mortems (id, crash record) in crash order — at most
    [max_quarantined] of them, newest kept. *)

val is_quarantined : t -> Wasm.Instance.t -> bool

val release : t -> Wasm.Instance.t -> unit
(** Lift an instance out of quarantine — the pool's self-healing path,
    called after the slot was restored from its frozen snapshot.
    Retained post-mortems stay inspectable; only the membership bit
    clears. *)
