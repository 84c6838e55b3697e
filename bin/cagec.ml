(* cagec: the MiniC -> (hardened) wasm compiler CLI — the analogue of
   the paper's wasi-sdk clang driver.

     cagec input.c -o out.wasm                     baseline wasm64
     cagec input.c --config CAGE -o out.wasm       full hardening
     cagec input.c --emit-wat                      print text form
     cagec input.c --no-libc ...                   freestanding *)

open Cmdliner

let input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.c"
         ~doc:"MiniC source file.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ]
         ~docv:"OUT.wasm" ~doc:"Output wasm binary path.")

let emit_wat =
  Arg.(value & flag & info [ "emit-wat" ]
         ~doc:"Print the module in text form instead of writing a binary.")

let no_libc =
  Arg.(value & flag & info [ "no-libc" ]
         ~doc:"Do not link the libc prelude in (freestanding program).")

let instrument_all =
  Arg.(value & flag & info [ "instrument-all" ]
         ~doc:"Ablation: instrument every stack slot, skipping Algorithm 1.")

let stats =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print stack-sanitizer statistics.")

let wstack =
  Arg.(value & flag & info [ "Wstack" ]
         ~doc:"Print per-function stack-sanitizer decisions (Algorithm 1) \
               and the module totals as Cage metrics counters.")

let wfusion =
  Arg.(value & flag & info [ "Wfusion" ]
         ~doc:"Print per-function threaded-code superinstruction decisions \
               and the module totals as Cage metrics counters.")

let run input output config plan emit_wat no_libc instrument_all stats wstack
    wfusion =
  let config = plan config in
  let source = In_channel.with_open_text input In_channel.input_all in
  let opts =
    { (Minic.Driver.options_of_config config) with
      Minic.Driver.instrument_all }
  in
  let prelude =
    if no_libc then "" else Libc.Source.prelude_of_config config
  in
  match Minic.Driver.compile ~opts ~prelude source with
  | exception Minic.Driver.Compile_error msg ->
      Printf.eprintf "cagec: %s\n" msg;
      exit 1
  | compiled ->
      (* cagec writes a module it does not run: the door is the
         compiler's one check of its own output *)
      (match Wasm.Validate.validate ~cage:true compiled.co_module with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "cagec: internal error: generated invalid wasm: %s\n" e;
          exit 1);
      if stats then
        Format.eprintf "sanitizer: %a@." Minic.Stack_sanitizer.pp_stats
          compiled.co_sanitizer;
      if wstack then begin
        (* Algorithm 1's verdicts per function, read without writing
           them (the libc's functions are shared between compiles), to
           attribute the module totals to the functions they came
           from. A compile without [memsafety] never ran the sanitizer,
           so it has no verdicts to attribute and its totals are 0. *)
        if compiled.co_options.Minic.Driver.memsafety then
          List.iter
            (fun (f : Minic.Ir.func) ->
              let s = Minic.Stack_sanitizer.func_stats ~instrument_all f in
              if s.Minic.Stack_sanitizer.total_slots > 0 then
                Format.eprintf "%s: %a@." f.Minic.Ir.fn_name
                  Minic.Stack_sanitizer.pp_stats s)
            compiled.co_ir.Minic.Ir.pr_funcs;
        let t = compiled.co_sanitizer in
        let m = Obs.Metrics.cage () in
        Obs.Metrics.observe_event m
          (Obs.Event.Stack_sanitize
             {
               total = t.Minic.Stack_sanitizer.total_slots;
               instrumented = t.Minic.Stack_sanitizer.instrumented;
               escaping = t.Minic.Stack_sanitizer.escaping;
               unsafe_gep = t.Minic.Stack_sanitizer.unsafe_gep;
               guards = t.Minic.Stack_sanitizer.guards;
             });
        String.split_on_char '\n'
          (Obs.Metrics.prometheus_string m.Obs.Metrics.registry)
        |> List.iter (fun line ->
               if String.length line >= 10
                  && String.sub line 0 10 = "cage_stack"
               then Format.eprintf "%s@." line)
      end;
      (* One plan serves the report and [--Wfusion]'s lowering. *)
      let plan =
        if config.Cage.Config.elide_checks then
          Some
            (Analysis.Elide.plan ~spec_safe:config.spec_safe_only
               ~arena:config.arena compiled.co_module)
        else None
      in
      Option.iter
        (fun (plan : Analysis.Elide.plan) ->
          Format.eprintf
            "elision: %d of %d checked accesses proven safe@."
            plan.Analysis.Elide.proven plan.Analysis.Elide.considered;
          if config.elide_bounds then
            Format.eprintf
              "elision: %d span checks proven redundant; %d allocation sites \
               arena-lowered (%d segment.new, %d segment.free)@."
              plan.Analysis.Elide.bproven plan.Analysis.Elide.arena_sites
              plan.Analysis.Elide.arena_news plan.Analysis.Elide.arena_frees;
          if config.spec_safe_only then
            Format.eprintf
              "elision: %d architecturally-provable elisions withheld \
               (speculation-unsafe)@."
              plan.Analysis.Elide.spec_unsafe)
        plan;
      if wfusion then begin
        (* Lower every function exactly as instantiation would (same
           elision plan when requested) and report what fused. *)
        let c = Cage.Config.instance_config ?plan config in
        let fstats =
          Wasm.Compile.module_stats ~elide:c.Wasm.Instance.elide
            ~belide:c.Wasm.Instance.belide ~arena:c.Wasm.Instance.arena
            compiled.co_module
        in
        List.iter
          (fun (s : Wasm.Xcode.stats) ->
            if s.Wasm.Xcode.st_instrs > 0 then
              Format.eprintf "%a@." Wasm.Xcode.pp_stats s)
          fstats;
        let total f =
          List.fold_left (fun acc s -> acc + f s) 0 fstats
        in
        let m = Obs.Metrics.cage () in
        Obs.Metrics.observe_event m
          (Obs.Event.Code_fuse
             {
               instrs = total (fun s -> s.Wasm.Xcode.st_instrs);
               fused = total (fun s -> s.Wasm.Xcode.st_fused);
               accesses = total (fun s -> s.Wasm.Xcode.st_accesses);
               elided = total (fun s -> s.Wasm.Xcode.st_elided);
             });
        String.split_on_char '
'
          (Obs.Metrics.prometheus_string m.Obs.Metrics.registry)
        |> List.iter (fun line ->
               if String.length line >= 10
                  && String.sub line 0 10 = "cage_fused"
               then Format.eprintf "%s@." line)
      end;
      if emit_wat then
        print_string (Wasm.Text.to_string compiled.co_module)
      else begin
        let out =
          match output with
          | Some o -> o
          | None -> Filename.remove_extension input ^ ".wasm"
        in
        Wasm.Binary.write_file out compiled.co_module;
        Printf.printf "wrote %s (%s)\n" out config.Cage.Config.name
      end

let cmd =
  let doc = "compile MiniC to (Cage-hardened) WebAssembly" in
  Cmd.v
    (Cmd.info "cagec" ~doc)
    Term.(
      const run $ input $ output $ Flags.config Cage.Config.baseline_wasm64
      $ Flags.elision $ emit_wat $ no_libc $ instrument_all $ stats $ wstack
      $ wfusion)

let () = exit (Cmd.eval cmd)
