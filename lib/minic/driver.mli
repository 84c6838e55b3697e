(** The compiler driver — the MiniC analogue of the paper's clang +
    wasi-sdk pipeline (§6.1).

    Pipeline: parse → elaborate (typecheck + mem2reg-style register
    promotion) → optimise → Cage sanitizer passes → link against the
    libc unit → code generation → validate. The sanitizers run {e after} the optimiser, as the paper
    requires, so stack allocations removed by promotion or dead-store
    elimination are never instrumented. *)

type options = {
  ptr64 : bool;          (** memory64 target *)
  memsafety : bool;      (** stack sanitizer + segment emission *)
  pauth : bool;          (** pointer-authentication pass (Fig. 9) *)
  optimize : bool;       (** run the middle-end pipeline *)
  instrument_all : bool; (** ablation: skip Algorithm 1's filtering *)
  mem_pages : int64;     (** linear memory size, 64 KiB pages *)
  stack_bytes : int;     (** shadow-stack reservation *)
}

val default_options : options
(** wasm64, no hardening, optimised — the baseline wasm64 target. *)

val options_of_config : Cage.Config.t -> options
(** Compile options matching a Table 3 runtime configuration. *)

type compiled = {
  co_module : Wasm.Ast.module_;   (** output module *)
  co_ir : Ir.program;             (** post-pass IR (for inspection) *)
  co_sanitizer : Stack_sanitizer.stats;
  co_options : options;
}

exception Compile_error of string
(** Any front-end failure, with a line-located message: [(line N)] is
    the source's own line [N], [(prelude line N)] one of the prelude's. *)

val compile : ?opts:options -> ?prelude:string -> string -> compiled
(** Compile MiniC source text linked against [prelude] (the libc), as
    wasi-sdk links a prebuilt wasi-libc. The result module is not
    validated here: every consumer reads it through the door
    ({!Wasm.Validate.prepare}), which answers a code generation bug
    with {!Wasm.Validate.Invalid}.

    The prelude is compiled once into a {e unit}: the environment after
    its declarations and bodies (structs, signatures, globals, data
    end, table entries) and its functions, optimised and sanitised. The
    unit is memoised by its key — the prelude text and [opts]'
    [ptr64], [optimize], [memsafety] and [instrument_all]; [pauth],
    [mem_pages] and [stack_bytes] act only in code generation — and
    nothing writes to it afterwards, so it is a pure function of its
    key. The memo is not domain-safe. [~prelude:""] is the empty unit.

    Each program is lexed, parsed and elaborated on its own against a
    copy of the unit's environment; the optimiser and the stack
    sanitizer run on its own functions only; code generation and
    validation run once over the unit's functions followed by the
    program's, so call and type indices come out as for one text. Data
    lies in this order: the unit's globals, the unit's string literals,
    the program's globals, then from a 16-byte boundary the program's
    string literals. [co_sanitizer] sums the unit's and the program's
    statistics, and [co_ir] holds both sets of functions; the unit's
    are shared between compiles and must not be written to.

    A prelude is closed: its bodies may name only what it declares
    itself, since it is elaborated before any program is seen. A
    program may define a function the prelude declares [extern], with
    the declared type, but redefines no function, global or struct.
    @raise Compile_error on lex/parse/type/codegen errors, redefinitions,
    malformed or out-of-range literals, array sizes below 1, and
    constant expressions that divide by zero or shift outside 0..63; an
    error in the prelude is raised while its unit is built and names a
    [prelude line]. *)
