(* Chaos-engineering driver: render the fault-detection matrix (the
   golden-file CI artifact) or run the chaos fuzzer. Exits nonzero when
   the containment gate fails — an escape under the full Cage
   configuration in Sync mode, a poisoned sibling, or any fuzz
   invariant violation. *)

open Cmdliner

let seed default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N"
         ~doc:"Deterministic seed of the run.")

let count =
  Arg.(value & opt int 200 & info [ "count" ] ~docv:"N"
         ~doc:"Number of seeded programs.")

let switch name doc = Arg.(value & flag & info [ name ] ~doc)

let elide_bounds =
  switch "elide-bounds"
    "Also skip proven span checks and lower non-escaping segments to the \
     arena form."

let matrix seed elide bounds =
  let variant = Flags.plan ~elide ~bounds ~spec_safe:false in
  let results = Harness.Detection_matrix.run ~seed ~variant () in
  Harness.Detection_matrix.render ~seed Format.std_formatter results;
  if Harness.Detection_matrix.violations results <> [] then 1 else 0

let fuzz count seed =
  let stats = Harness.Detection_matrix.chaos_fuzz ~seed ~count () in
  Format.printf "%a@." Harness.Detection_matrix.pp_fuzz_stats stats;
  List.iter print_endline stats.Harness.Detection_matrix.fz_failures;
  if stats.Harness.Detection_matrix.fz_failures <> [] then 1 else 0

(* the detection matrix's serving-path companion: every fault site
   driven through pool + supervisor + retry *)
let served seed bounds =
  let variant = Flags.plan ~elide:false ~bounds ~spec_safe:false in
  let rows = Harness.Serve_bench.served_matrix ~seed ~variant () in
  Harness.Serve_bench.render_served ~seed Format.std_formatter rows;
  if Harness.Serve_bench.served_violations rows <> [] then 1 else 0

let differential sources pairs =
  let reports =
    List.concat_map
      (fun source ->
        List.map
          (fun pair ->
            let r = Harness.Differential.run source pair in
            Format.printf "%a@." Harness.Differential.pp r;
            List.iter print_endline r.Harness.Differential.df_failures;
            r)
          pairs)
      sources
  in
  if List.for_all Harness.Differential.ok reports then 0 else 1

let fuzzgen pairs count seed0 =
  differential [ Harness.Differential.fuzzgen ~count ~seed0 () ] pairs

(* --full arms bounds elision and arena lowering on the elided side, so
   the differential covers the whole analysis pipeline *)
let elidediff full =
  fuzzgen
    [ Harness.Differential.elision_pair
        (Flags.plan ~elide:true ~bounds:full ~spec_safe:false) ]

let cmd =
  let sub name doc term = Cmd.v (Cmd.info name ~doc) term in
  Cmd.group
    (Cmd.info "cage_chaos" ~doc:"chaos injection and containment gates")
    [
      sub "matrix" "Render the fault-class x MTE-mode x config detection matrix."
        Term.(const matrix $ seed 7
              $ switch "elide" "Skip the tag checks the analysis proved redundant."
              $ elide_bounds);
      sub "fuzz" "Run seeded fuzz programs under random injection policies."
        Term.(const fuzz $ count $ seed 0xC405);
      sub "served" "Drive every fault site x MTE mode through the serving path."
        Term.(const served $ seed 7 $ elide_bounds);
      sub "elidediff" "Differential of checked against elided runs."
        Term.(const elidediff
              $ switch "full" "Elide bounds and lower arenas on the elided side."
              $ count $ seed 0);
      sub "enginediff" "Differential of the interpreter against the threaded engine."
        Term.(const (fuzzgen Harness.Differential.engine_pairs) $ count $ seed 0);
      sub "benchdiff"
        "Differential of the interpreter against the threaded engine over the \
         PolyBench kernels and the serving tenants."
        Term.(const (differential Harness.Differential.[ polybench; tenants ])
              $ const Harness.Differential.engine_pairs);
    ]

let () = exit (Cmd.eval' cmd)
