(** One-call compile-and-run: source + Table 3 configuration → result.

    This is the toolchain a user of the artifact drives: pick a
    configuration, hand it C source, get back the exported entry
    point's result and anything the program printed. *)

type result = {
  values : Wasm.Values.t list;  (** entry-point results *)
  output : string;              (** captured console output *)
  instance : Wasm.Instance.t;
  compiled : Minic.Driver.compiled;
  exit_code : int option;       (** set when the guest called proc_exit *)
}

(** Compile [source] for [cfg]: the variant's compile options and
    matching libc prelude, with [mem_pages] and [stack_bytes] overriding
    the defaults. Every harness compiles a variant through here. *)
let compile ?mem_pages ?stack_bytes cfg source =
  let o = Minic.Driver.options_of_config cfg in
  let opts =
    { o with
      Minic.Driver.mem_pages = Option.value mem_pages ~default:o.mem_pages;
      stack_bytes = Option.value stack_bytes ~default:o.stack_bytes }
  in
  Minic.Driver.compile ~opts ~prelude:(Source.prelude_of_config cfg) source

(** Compile [source] under [cfg] and call [entry] on an instance driven
    by [engine]: threaded code unless a parity check asks for the
    reference interpreter. Guest traps propagate as
    [Wasm.Instance.Trap]. *)
let run ?(cfg = Cage.Config.baseline_wasm64)
    ?(engine = Wasm.Instance.default_config.engine) ?meter ?(seed = 0)
    ?(entry = "main") ?(args = []) ?mem_pages source : result =
  let compiled = compile ?mem_pages cfg source in
  let wasi = Wasi.create () in
  let config =
    { (Cage.Config.instance_config ?meter ~seed ~m:compiled.co_module cfg)
      with Wasm.Instance.engine }
  in
  let instance =
    Wasm.Exec.instantiate ~config ~imports:(Wasi.imports wasi)
      compiled.co_module
  in
  let values, exit_code =
    try (Wasm.Exec.invoke instance entry args, None)
    with Wasi.Proc_exit code -> ([], Some code)
  in
  { values; output = Wasi.output wasi; instance; compiled; exit_code }

(** The result's single integer value, for the common [int main()]
    shape. *)
let ret_i32 r =
  match (r.values, r.exit_code) with
  | _, Some code -> Int32.of_int code
  | [ Wasm.Values.I32 v ], None -> v
  | _ -> invalid_arg "Run.ret_i32: entry did not return a single i32"
