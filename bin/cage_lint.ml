(* cage_lint: whole-module static tag-safety analyzer.

   Runs the Analysis dataflow over the compiled module and prints every
   deterministic diagnostic — use-after-free, double free, constant
   out-of-bounds (including bulk-memory spans and strcpy from constant
   strings), untagged pointers reaching checked accesses, leaked
   segments — plus the check-elision summary.

     cage_lint input.c                        lint one program
     cage_lint --cve-suite                    lint every Table 2 CVE program
     cage_lint input.c --config CAGE          lint under another variant

   Output is deterministic (sorted, deduplicated) so CI golden-diffs
   it. The exit code is 0 whenever linting ran — diagnostics are the
   output, not a failure — and 1 on compile/usage errors. *)

open Cmdliner

let input =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT.c"
         ~doc:"MiniC source file to lint.")

let cve_suite =
  Arg.(value & flag & info [ "cve-suite" ]
         ~doc:"Lint every Table 2 CVE re-creation instead of a file.")

let polybench =
  Arg.(value & flag & info [ "polybench" ]
         ~doc:"Lint every PolyBench kernel instead of a file.")

let no_libc =
  Arg.(value & flag & info [ "no-libc" ]
         ~doc:"Do not link the libc prelude in (freestanding program).")

let wspectre =
  Arg.(value & flag & info [ "Wspectre" ]
         ~doc:"Classify elidable checks under the Swivel-style speculation \
               model and list the sites whose proof does not survive it.")

let json =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the report as stable JSON (one document per program) \
               instead of text.")

let lint_source ~label ~cfg ~prelude ~wspectre ~json source =
  let opts = Minic.Driver.options_of_config cfg in
  match Minic.Driver.compile ~opts ~prelude source with
  | exception Minic.Driver.Compile_error msg ->
      Printf.eprintf "cage_lint: %s: %s\n" label msg;
      false
  | compiled -> (
      match Analysis.Lint.run ~wspectre compiled.Minic.Driver.co_module with
      | exception Wasm.Validate.Invalid msg ->
          Printf.eprintf "cage_lint: %s: invalid module: %s\n" label msg;
          false
      | t ->
          if json then begin
            Format.printf "{\"program\": \"%s\", \"config\": \"%s\", \"report\": "
              (String.escaped label) cfg.Cage.Config.name;
            Format.printf "%s}@." (String.trim (Analysis.Lint.to_json t))
          end
          else begin
            Format.printf "cage-lint: %s (%s)@." label cfg.Cage.Config.name;
            List.iter
              (fun l -> Format.printf "  %s@." l)
              (Analysis.Lint.to_lines t)
          end;
          true)

let run input config cve_suite polybench no_libc wspectre json =
  let prelude =
    if no_libc then "" else Libc.Source.prelude_of_config config
  in
  let lint_source = lint_source ~cfg:config ~prelude ~wspectre ~json in
  let ok =
    if cve_suite then
      List.fold_left
        (fun ok (e : Workloads.Cve_suite.entry) ->
          lint_source ~label:e.cve e.source && ok)
        true Workloads.Cve_suite.entries
    else if polybench then
      List.fold_left
        (fun ok (k : Workloads.Polybench.kernel) ->
          lint_source ~label:k.k_name k.k_source && ok)
        true Workloads.Polybench.all
    else
      match input with
      | Some file ->
          let source = In_channel.with_open_text file In_channel.input_all in
          lint_source ~label:file source
      | None ->
          Printf.eprintf "cage_lint: pass INPUT.c or --cve-suite\n";
          false
  in
  if ok then 0 else 1

let cmd =
  let doc = "statically analyze a Cage module for tag-safety bugs" in
  Cmd.v
    (Cmd.info "cage_lint" ~doc)
    Term.(
      const run $ input $ Flags.config Cage.Config.mem_safety $ cve_suite
      $ polybench $ no_libc $ wspectre $ json)

let () = exit (Cmd.eval' cmd)
