(** Module validation.

    The standard WebAssembly validation algorithm (operand-type stack
    with unknowns plus a control-frame stack), extended with the Cage
    typing rules of paper Fig. 10:

    {v
    segment.new o     : [i64 i64] -> [i64]      (requires memory, wasm64)
    segment.set_tag o : [i64 i64 i64] -> []
    segment.free o    : [i64 i64] -> []
    i64.pointer_sign  : [i64] -> [i64]
    i64.pointer_auth  : [i64] -> [i64]
    v}

    Cage instructions are rejected unless the [cage] feature is enabled,
    and additionally require the module's memory to use 64-bit indices
    (the extension builds on memory64, paper §4.2).

    This is the door every consumer of a module goes through: the walk
    that type-checks each body also builds its prepared form, and
    nothing else builds one. *)

exception Invalid of string
(** A module rejected by validation, with the reason. *)

val prepare : ?cage:bool -> Ast.module_ -> Ast.index * Code.func array
(** Validate a module — memory/table limits, global initialisers,
    import/export/element/start indices, and every function body under
    its declared type — and return its {!Ast.index} with one prepared
    body per local function, in function index order (imports
    excluded), carrying no plan rows ({!Code.with_plan} attaches them).
    [cage] (default [true]) enables the extension instructions.
    {!Exec.instantiate}, the analyzer's view and {!Compile.module_stats}
    read a module only through this, so no engine, plan or lowering
    ever sees an unvalidated body.
    @raise Invalid when the module is rejected. *)

val check : ?cage:bool -> Ast.module_ -> unit
(** {!prepare}, for its verdict alone.
    @raise Invalid when the module is rejected. *)

val validate : ?cage:bool -> Ast.module_ -> (unit, string) result
(** {!check} with the rejection as an [Error]. *)
