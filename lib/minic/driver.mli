(** The compiler driver — the MiniC analogue of the paper's clang +
    wasi-sdk pipeline (§6.1).

    Pipeline: parse → elaborate (typecheck + mem2reg-style register
    promotion) → optimise → Cage sanitizer passes → code generation →
    validate. The sanitizers run {e after} the optimiser, as the paper
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
  co_module : Wasm.Ast.module_;   (** validated output module *)
  co_ir : Ir.program;             (** post-pass IR (for inspection) *)
  co_sanitizer : Stack_sanitizer.stats;
  co_options : options;
}

exception Compile_error of string
(** Any front-end failure, with a line-located message: [(line N)] is
    the source's own line [N], [(prelude line N)] one of the prelude's. *)

val compile : ?opts:options -> ?prelude:string -> string -> compiled
(** Compile MiniC source text; [prelude] (the libc) is prepended.
    The result module has passed {!Wasm.Validate.validate}.
    @raise Compile_error on lex/parse/type/codegen errors, malformed
    or out-of-range literals, array sizes below 1, and constant
    expressions that divide by zero or shift outside 0..63. *)
