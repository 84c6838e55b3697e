(* cage_run: execute a .wasm file (or compile-and-run a .c file) under a
   chosen Cage runtime configuration — the analogue of the paper's
   modified wasmtime.

     cage_run module.wasm                   run exported "main"
     cage_run module.wat                    text-format module
     cage_run program.c --config CAGE       compile + run
     cage_run module.wasm --invoke f 1 2    call f(1, 2) *)

open Cmdliner

let input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODULE"
         ~doc:"A .wasm binary or a MiniC .c source file.")

let entry =
  Arg.(value & opt string "main" & info [ "invoke" ] ~docv:"FUNC"
         ~doc:"Exported function to call.")

let args =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS"
         ~doc:"Integer arguments for the entry point.")

let show_meter =
  Arg.(value & flag & info [ "meter" ]
         ~doc:"Print the execution-event counts after the run.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record an execution trace and write it as Chrome \
               trace_event JSON (open in chrome://tracing or \
               ui.perfetto.dev).")

let show_metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Collect the Cage safety-event metric set and print it in \
               Prometheus text format on stdout after the run.")

let profile_out =
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE"
         ~doc:"Sample the wasm call stack and write folded-stack lines \
               to FILE (flamegraph input); a per-function attribution \
               table goes to stderr.")

let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
         ~doc:"Deterministic seed for allocation-tag draws.")

let run input config plan entry args show_meter trace_out show_metrics
    profile_out seed =
  let config = plan config in
  let meter = Wasm.Meter.create () in
  let wasi = Libc.Wasi.create () in
  (* Observability sink: any of --trace/--metrics/--profile installs
     one; with none of them the interpreter pays a single load-and-
     compare per instruction. *)
  let trace = Option.map (fun _ -> Obs.Trace.create ()) trace_out in
  let metrics = if show_metrics then Some (Obs.Metrics.cage ()) else None in
  let profiler = Option.map (fun _ -> Obs.Profiler.create ()) profile_out in
  if trace <> None || metrics <> None || profiler <> None then
    Obs.Hook.install (Obs.Hook.make ?trace ?metrics ?profiler ());
  let last_inst = ref None in
  let result =
    try
      let values =
        if Filename.check_suffix input ".wasm"
           || Filename.check_suffix input ".wat" then begin
          let m =
            if Filename.check_suffix input ".wat" then
              Wasm.Text.parse
                (In_channel.with_open_text input In_channel.input_all)
            else Wasm.Binary.read_file input
          in
          let iconfig = Cage.Config.instance_config ~meter ~seed ~m config in
          let inst =
            Wasm.Exec.instantiate ~config:iconfig
              ~imports:(Libc.Wasi.imports wasi) m
          in
          last_inst := Some inst;
          let vargs =
            List.map (fun a -> Wasm.Values.I64 (Int64.of_string a)) args
          in
          Wasm.Exec.invoke inst entry vargs
        end
        else begin
          let source = In_channel.with_open_text input In_channel.input_all in
          let r = Libc.Run.run ~cfg:config ~meter ~seed ~entry source in
          last_inst := Some r.Libc.Run.instance;
          r.Libc.Run.values
        end
      in
      Ok values
    with
    | Wasm.Instance.Trap msg -> Error ("trap: " ^ msg)
    | Wasm.Validate.Invalid msg -> Error ("invalid module: " ^ msg)
    | Libc.Wasi.Proc_exit code -> Ok [ Wasm.Values.I32 (Int32.of_int code) ]
    | Minic.Driver.Compile_error msg -> Error msg
    | Wasm.Text.Parse_error msg -> Error ("wat parse error: " ^ msg)
    | Wasm.Binary.Decode_error msg -> Error ("decode error: " ^ msg)
    | Failure msg -> Error msg
  in
  Obs.Hook.uninstall ();
  print_string (Libc.Wasi.output wasi);
  (match result with
  | Ok values ->
      List.iter
        (fun v -> Format.printf "%s() -> %a@." entry Wasm.Values.pp v)
        values
  | Error msg ->
      Format.printf "%s@." msg);
  if show_meter then Format.eprintf "%a@." Wasm.Meter.pp meter;
  (* Dump collected observability output even when the run trapped: a
     crash trace is the most interesting trace there is. *)
  (match (trace_out, trace) with
  | Some file, Some tr ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (Obs.Trace.to_chrome_json tr));
      Format.eprintf "trace: %d events (%d dropped) -> %s@."
        (Obs.Trace.recorded tr) (Obs.Trace.dropped tr) file
  | _ -> ());
  (match metrics with
  | Some m -> print_string (Obs.Metrics.prometheus_string m.Obs.Metrics.registry)
  | None -> ());
  (match (profile_out, profiler) with
  | Some file, Some p ->
      (* Attribute the tail of the run; execution has returned to the
         host, so the tail lands on the "(host)" frame. *)
      Obs.Profiler.flush p ~stack:[] ~total:(Wasm.Meter.total meter);
      let name =
        match !last_inst with
        | Some inst -> Wasm.Instance.func_name inst
        | None -> Printf.sprintf "f%d"
      in
      Out_channel.with_open_text file (fun oc ->
          List.iter
            (fun (stack, w) -> Printf.fprintf oc "%s %d\n" stack w)
            (Obs.Profiler.folded p ~name));
      Format.eprintf "@[<v>profile: %d samples over %d metered events@,"
        (Obs.Profiler.samples p)
        (Obs.Profiler.total_weight p);
      List.iter
        (fun { Obs.Profiler.fn; self; total } ->
          Format.eprintf "  %-24s self %8d  total %8d@," fn self total)
        (Obs.Profiler.attribution p ~name);
      Format.eprintf "@]%!"
  | _ -> ());
  match result with Ok _ -> 0 | Error _ -> 1

let cmd =
  let doc = "run WebAssembly under a Cage runtime configuration" in
  Cmd.v
    (Cmd.info "cage_run" ~doc)
    Term.(const run $ input $ Flags.config Cage.Config.full $ Flags.elision
          $ entry $ args $ show_meter $ trace_out $ show_metrics $ profile_out
          $ seed)

let () = exit (Cmd.eval' cmd)
