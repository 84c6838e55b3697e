(* Chaos-engineering driver: render the fault-detection matrix (the
   golden-file CI artifact) or run the chaos fuzzer. Exits nonzero when
   the containment gate fails — an escape under the full Cage
   configuration in Sync mode, a poisoned sibling, or any fuzz
   invariant violation. *)

let usage () =
  prerr_endline
    "usage: cage_chaos matrix [--seed N] [--elide] [--elide-bounds]\n\
    \       cage_chaos fuzz [--count N] [--seed N]\n\
    \       cage_chaos elidediff [--count N] [--seed N] [--full]\n\
    \       cage_chaos enginediff [--count N] [--seed N]\n\
    \       cage_chaos served [--seed N] [--elide-bounds]";
  exit 2

let int_flag = Flags.int_flag ~usage

let () =
  match Array.to_list Sys.argv with
  | _ :: "matrix" :: rest ->
      let seed = int_flag rest "--seed" ~default:7 in
      let variant =
        Flags.plan ~elide:(List.mem "--elide" rest)
          ~bounds:(List.mem "--elide-bounds" rest) ~spec_safe:false
      in
      let results = Harness.Detection_matrix.run ~seed ~variant () in
      Harness.Detection_matrix.render ~seed Format.std_formatter results;
      if Harness.Detection_matrix.violations results <> [] then exit 1
  | _ :: "fuzz" :: rest ->
      let seed = int_flag rest "--seed" ~default:0xC405 in
      let count = int_flag rest "--count" ~default:200 in
      let stats = Harness.Detection_matrix.chaos_fuzz ~seed ~count () in
      Format.printf "%a@." Harness.Detection_matrix.pp_fuzz_stats stats;
      List.iter print_endline stats.Harness.Detection_matrix.fz_failures;
      if stats.Harness.Detection_matrix.fz_failures <> [] then exit 1
  | _ :: "served" :: rest ->
      (* the detection matrix's serving-path companion: every fault
         site driven through pool + supervisor + retry *)
      let seed = int_flag rest "--seed" ~default:7 in
      let variant =
        Flags.plan ~elide:false ~bounds:(List.mem "--elide-bounds" rest)
          ~spec_safe:false
      in
      let rows = Harness.Serve_bench.served_matrix ~seed ~variant () in
      Harness.Serve_bench.render_served ~seed Format.std_formatter rows;
      if Harness.Serve_bench.served_violations rows <> [] then exit 1
  | _ :: (("elidediff" | "enginediff") as gate) :: rest ->
      let seed0 = int_flag rest "--seed" ~default:0 in
      let count = int_flag rest "--count" ~default:200 in
      (* --full arms bounds elision and arena lowering on the elided
         side, so the differential covers the whole analysis pipeline *)
      let pairs =
        if gate = "enginediff" then Harness.Differential.engine_pairs
        else
          [ Harness.Differential.elision_pair
              (Flags.plan ~elide:true ~bounds:(List.mem "--full" rest)
                 ~spec_safe:false) ]
      in
      let reports =
        List.map
          (fun pair ->
            let r = Harness.Differential.run ~count ~seed0 pair in
            Format.printf "%a@." Harness.Differential.pp r;
            List.iter print_endline r.Harness.Differential.df_failures;
            r)
          pairs
      in
      if not (List.for_all Harness.Differential.ok reports) then exit 1
  | _ -> usage ()
