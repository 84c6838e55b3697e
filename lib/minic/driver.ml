(** The compiler driver — the MiniC analogue of the paper's clang +
    wasi-sdk pipeline (§6.1).

    Pipeline: parse → elaborate → optimise → Cage sanitizer passes →
    link against the libc unit → code generation. The sanitizers run
    {e after} the optimiser, as the paper requires, so stack allocations
    removed by promotion are never instrumented. *)

type options = {
  ptr64 : bool;          (** memory64 target *)
  memsafety : bool;      (** stack sanitizer + segment emission *)
  pauth : bool;          (** pointer-authentication pass *)
  optimize : bool;       (** run the middle-end pipeline *)
  instrument_all : bool; (** ablation: skip Algorithm 1's filtering *)
  mem_pages : int64;
  stack_bytes : int;
}

let default_options = {
  ptr64 = true;
  memsafety = false;
  pauth = false;
  optimize = true;
  instrument_all = false;
  mem_pages = 80L;
  stack_bytes = 65536;
}

(** Options matching a Cage runtime configuration (Table 3). *)
let options_of_config (cfg : Cage.Config.t) = {
  default_options with
  ptr64 = cfg.ptr64;
  memsafety = cfg.internal_safety;
  pauth = cfg.ptr_auth && cfg.ptr64;
}

type compiled = {
  co_module : Wasm.Ast.module_;
  co_ir : Ir.program;
  co_sanitizer : Stack_sanitizer.stats;
  co_options : options;
}

exception Compile_error of string

(* A prelude (the libc) compiled once: the environment after its
   declarations and bodies, and its functions, optimised and sanitised.
   Nothing writes to it after it is built; each program is elaborated
   against a copy of [u_env]. *)
type prelude_unit = {
  u_env : Elab.env;
  u_funcs : Ir.func list;
  u_stats : Stack_sanitizer.stats;
}

(* Lex, parse and elaborate [text] into [env], then optimise and
   sanitise its own functions. [where] names a diagnostic's line. *)
let front opts ~where env text =
  let fail what line msg =
    raise (Compile_error (Printf.sprintf "%s error (%s): %s" what
                            (where line) msg))
  in
  let cst =
    try Parser.parse text with
    | Lexer.Lex_error (msg, line) -> fail "lex" line msg
    | Parser.Parse_error (msg, line) -> fail "parse" line msg
  in
  let funcs =
    try
      Elab.declare env cst;
      Elab.define env cst
    with Elab.Type_error (msg, line) -> fail "type" line msg
  in
  if opts.optimize then List.iter Opt.run_func funcs;
  let stats =
    if opts.memsafety then
      Stack_sanitizer.run ~instrument_all:opts.instrument_all funcs
    else Stack_sanitizer.empty_stats
  in
  (funcs, stats)

let located kind line =
  if line > 0 then Printf.sprintf "%s %d" kind line else "no line"

(* The units built so far, by everything a unit depends on. A unit is
   a pure function of its key, so a compile's output does not depend
   on what the process compiled before. *)
let units : (string * bool * bool * bool * bool, prelude_unit) Hashtbl.t =
  Hashtbl.create 8

let prelude_unit opts prelude =
  let key =
    (prelude, opts.ptr64, opts.optimize, opts.memsafety, opts.instrument_all)
  in
  match Hashtbl.find_opt units key with
  | Some u -> u
  | None ->
      let env = Elab.create ~ptr64:opts.ptr64 in
      let funcs, stats =
        front opts ~where:(located "prelude line") env prelude
      in
      let u = { u_env = env; u_funcs = funcs; u_stats = stats } in
      Hashtbl.add units key u;
      u

(** Compile MiniC source text against [prelude] (the libc), linked in
    ahead of it. Raises {!Compile_error} with a located message on any
    front-end failure. *)
let compile ?(opts = default_options) ?(prelude = "") source : compiled =
  let u = prelude_unit opts prelude in
  let env = Elab.copy u.u_env in
  let funcs, stats = front opts ~where:(located "line") env source in
  let ir = Elab.link env (u.u_funcs @ funcs) in
  let m =
    try
      Codegen.compile
        ~opts:
          {
            Codegen.memsafety = opts.memsafety;
            pauth = opts.pauth;
            mem_pages = opts.mem_pages;
            stack_bytes = opts.stack_bytes;
          }
        ir
    with Codegen.Codegen_error msg ->
      raise (Compile_error ("codegen: " ^ msg))
  in
  { co_module = m; co_ir = ir;
    co_sanitizer = Stack_sanitizer.add u.u_stats stats; co_options = opts }
