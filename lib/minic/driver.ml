(** The compiler driver — the MiniC analogue of the paper's clang +
    wasi-sdk pipeline (§6.1).

    Pipeline: parse → elaborate → optimise → Cage sanitizer passes →
    code generation. The sanitizers run {e after} the optimiser, as the
    paper requires, so stack allocations removed by promotion are never
    instrumented. *)

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

(** Compile MiniC source text. [prelude] is prepended (the libc).
    Raises {!Compile_error} with a located message on any front-end
    failure. *)
let compile ?(opts = default_options) ?(prelude = "") source : compiled =
  let full = prelude ^ "\n" ^ source in
  let fail what line msg =
    (* [full]'s first [shift] lines are the prelude's, and its line
       [shift + n] is the source's line [n]: a diagnostic names the
       line of the text it is in (0 is no line) *)
    let shift =
      String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 prelude
    in
    let where =
      if line > shift then Printf.sprintf "line %d" (line - shift)
      else if line > 0 then Printf.sprintf "prelude line %d" line
      else "no line"
    in
    raise (Compile_error (Printf.sprintf "%s error (%s): %s" what where msg))
  in
  let cst =
    try Parser.parse full with
    | Lexer.Lex_error (msg, line) -> fail "lex" line msg
    | Parser.Parse_error (msg, line) -> fail "parse" line msg
  in
  let ir =
    try Elab.program ~ptr64:opts.ptr64 cst
    with Elab.Type_error (msg, line) -> fail "type" line msg
  in
  if opts.optimize then Opt.run ir;
  let stats =
    if opts.memsafety then
      Stack_sanitizer.run ~instrument_all:opts.instrument_all ir
    else Stack_sanitizer.empty_stats
  in
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
  (match Wasm.Validate.validate ~cage:true m with
  | Ok () -> ()
  | Error e ->
      raise (Compile_error ("internal error: generated invalid wasm: " ^ e)));
  { co_module = m; co_ir = ir; co_sanitizer = stats; co_options = opts }
