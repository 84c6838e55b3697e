(** The execution driver: validation-gated instantiation and
    invocation over both engines — the tree-walking interpreter (the
    reference semantics) and the threaded-code engine ({!Compile}),
    selected per instance by {!Instance.config.engine}.

    Loads and stores check allocation tags when the instance was
    instantiated with [enforce_tags] (Eqs. 1-4); the five Cage
    instructions implement Eqs. 5-13 ([segment.new] draws a random
    excluded-set-respecting tag and zeroes the region; [segment.free]
    verifies ownership — catching double-frees — then retags;
    [i64.pointer_auth] traps on a bad signature). Execution events are
    recorded in the instance's {!Wasm.Meter.t} so the Cage lowering
    layer can price runs under different hardware configurations
    without re-executing.

    Traps surface as {!Instance.Trap}. *)

val max_call_depth : int
(** Call-stack limit; exceeding it traps with "call stack exhausted".
    (Alias of {!Rt.max_call_depth}, which both engines enforce.) *)

val instance_counter : int ref
(** The instances made so far in this process. An instance's number
    and its config's seed seed its RNG, so its allocation tags depend
    on how many instances the process made before it. *)

val instantiate :
  ?config:Instance.config ->
  ?imports:(string * string * Instance.host_func) list ->
  Ast.module_ ->
  Instance.t
(** Validate and prepare a module ({!Validate.prepare}), attach the
    config's plan rows ({!Code.with_plan}), then instantiate it: resolve
    imports by (module, name), create the memory and its tag space
    (committing neither), apply data and element segments, and run the
    start function.
    @raise Validate.Invalid when the module is rejected, before any
    instance state exists.
    @raise Instance.Trap on an initial memory above
    {!Memory.implementation_max_pages} or an initial table above
    10,000,000 elements (before any instance state exists, as for an
    invalid module), on unresolved imports, segment range errors, or a
    trapping start function. *)

val invoke : Instance.t -> string -> Values.t list -> Values.t list
(** Call an exported function by name.
    @raise Instance.Trap on traps, a missing export, or arguments that
    do not match the function's parameter types. *)

val invoke_function : Instance.t -> int -> Values.t list -> Values.t list
(** Call a function by index in the instance's function index space;
    arguments are type-checked as in {!invoke}. *)
