(** Multi-instance processes (paper §6.3).

    PAC keys are shared per OS process, so when several WASM instances
    run in one process Cage draws one process key and a random
    {e per-instance modifier}: the modifier enters the signature
    computation, so a function pointer signed in one instance never
    authenticates in another — the WebOS scenario of §3. *)

type t

val create : ?config:Config.t -> ?seed:int -> unit -> t
(** A process with one PAC key. [config] (default {!Config.full})
    applies to every spawned instance. *)

val spawn :
  ?meter:Wasm.Meter.t ->
  ?imports:(string * string * Wasm.Instance.host_func) list ->
  t ->
  Wasm.Ast.module_ ->
  Wasm.Instance.t
(** Instantiate a module inside the process: shared PAC key, fresh
    random modifier.
    @raise Sandbox.Too_many_sandboxes past the configuration's §6.4
    sandbox capacity. *)

val instance_count : t -> int

val instances : t -> Wasm.Instance.t list
(** Live instances in spawn order (supervisors iterate siblings). *)

val poll_deferred_faults : t -> (int * Arch.Mte.fault) list
(** Kernel-style TFSR inspection across the process (paper §4.2): drain
    every instance's sticky deferred tag fault, returning
    (instance id, fault) pairs in spawn order. Empty when no
    Async/Asymmetric mismatch occurred since the last poll. *)
