(* Quickstart: compile a buggy C program with the Cage toolchain and
   watch MTE-backed segments catch the overflow that plain WebAssembly
   lets through.

     dune exec examples/quickstart.exe *)

let buggy_program = {|
  /* A parser with a classic off-by-one: the buffer holds 16 bytes but
     the loop writes 17. */
  int parse(char *input, int len) {
    char field[16];
    for (int i = 0; i <= len; i++) {   /* <= should be < */
      field[i % 32] = input[i % 8];    /* dynamic index: instrumented */
    }
    return (int)field[0];
  }

  int main() {
    char *input = (char *)malloc(8);
    for (int i = 0; i < 8; i++) { input[i] = (char)(65 + i); }
    return parse(input, 16);
  }
|}

let run_under name cfg =
  Printf.printf "--- %s ---\n" name;
  match Libc.Run.run ~cfg buggy_program with
  | r ->
      Printf.printf "ran to completion, returned %ld\n"
        (Libc.Run.ret_i32 r);
      Printf.printf "(the overflow silently corrupted the stack)\n\n"
  | exception Wasm.Instance.Trap msg ->
      Printf.printf "TRAPPED: %s\n" msg;
      Printf.printf "(the out-of-bounds write never took effect)\n\n"

let () =
  print_endline "Cage quickstart: one buggy program, two runtimes.\n";
  (* 1. Plain 64-bit WebAssembly: sandboxed, but unsafe inside. *)
  run_under "baseline wasm64 (plain WebAssembly)" Cage.Config.baseline_wasm64;
  (* 2. Full Cage: the stack sanitizer wrapped `field` in a memory
        segment, so the 17th write hits a differently-tagged granule. *)
  run_under "CAGE (MTE segments + PAC + MTE sandboxing)" Cage.Config.full;
  (* Show what the compiler actually did. *)
  let compiled = Libc.Run.compile Cage.Config.full buggy_program in
  Format.printf "What the stack sanitizer decided (paper Algorithm 1):@.  %a@."
    Minic.Stack_sanitizer.pp_stats compiled.co_sanitizer;
  print_endline
    "\nTry it yourself:\n\
    \  dune exec bin/cagec.exe -- prog.c --config CAGE -o prog.wasm\n\
    \  dune exec bin/cage_run.exe -- prog.wasm --config CAGE"
