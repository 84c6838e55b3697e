(* Pointer authentication across instances: the WebOS scenario of
   paper §3/§6.3. Several WASM instances share one process (and
   therefore one PAC key); Cage gives each a random modifier, so a
   function pointer leaked from one instance will not authenticate in
   another.

     dune exec examples/multi_instance.exe *)

let plugin_source = {|
  /* a "plugin" that registers a callback and invokes callbacks */
  long handler() { return 7001; }

  long make_callback() {
    long (*f)() = handler;        /* signed on creation (Fig. 9) */
    return (long)f;               /* leaks the signed pointer */
  }

  long invoke_callback(long fp) {
    long (*f)() = (long (*)())fp; /* authenticated at the call */
    return f();
  }

  int main() { return 0; }
|}

let () =
  print_endline
    "One process, two instances of the same plugin, shared PAC key,\n\
     per-instance modifiers.\n";
  (* WebOS-style hosting: MTE sandboxing isolates up to 15 instances
     (§6.4), PAC isolates their function pointers. The combined
     internal+external tag split (Config.full) would leave room for
     only one sandbox, so this deployment keeps internal safety off. *)
  let config =
    { Cage.Config.sandboxing with
      Cage.Config.name = "webos";
      ptr_auth = true }
  in
  let process = Cage.Process.create ~config () in
  let m = (Libc.Run.compile config plugin_source).co_module in
  let wasi = Libc.Wasi.create () in
  let a = Cage.Process.spawn ~imports:(Libc.Wasi.imports wasi) process m in
  let b = Cage.Process.spawn ~imports:(Libc.Wasi.imports wasi) process m in
  Printf.printf "spawned %d instances\n\n" (Cage.Process.instance_count process);

  (* instance A creates (and signs) a callback pointer *)
  let signed =
    match Wasm.Exec.invoke a "make_callback" [] with
    | [ Wasm.Values.I64 p ] -> p
    | _ -> failwith "make_callback returned nothing"
  in
  Format.printf "instance A leaked its signed function pointer: %a@."
    Arch.Ptr.pp signed;
  Printf.printf "  (signature bits live in the pointer's upper bits)\n\n";

  (* A can use its own pointer *)
  (match Wasm.Exec.invoke a "invoke_callback" [ Wasm.Values.I64 signed ] with
  | [ Wasm.Values.I64 v ] ->
      Printf.printf "instance A invokes it:   handler() = %Ld (works)\n" v
  | _ -> print_endline "unexpected result");

  (* B replays the leaked pointer: the modifier differs, auth traps *)
  (match Wasm.Exec.invoke b "invoke_callback" [ Wasm.Values.I64 signed ] with
  | [ Wasm.Values.I64 v ] ->
      Printf.printf "instance B replays it:   handler() = %Ld (NOT STOPPED)\n" v
  | _ -> print_endline "unexpected result"
  | exception Wasm.Instance.Trap msg ->
      Printf.printf "instance B replays it:   TRAPPED - %s\n" msg);

  (* and a forged pointer (guessed table index, no signature) fails too *)
  (match Wasm.Exec.invoke a "invoke_callback" [ Wasm.Values.I64 1L ] with
  | [ Wasm.Values.I64 v ] ->
      Printf.printf "forged raw index 1:      handler() = %Ld (NOT STOPPED)\n" v
  | _ -> print_endline "unexpected result"
  | exception Wasm.Instance.Trap msg ->
      Printf.printf "forged raw index 1:      TRAPPED - %s\n" msg);

  print_newline ();
  print_endline
    "Within an instance, reuse of *other signed pointers of the same\n\
     instance* remains possible (paper: Cage prevents cross-instance\n\
     reuse; same-signature-scheme reuse inside one instance is out of\n\
     scope)."
