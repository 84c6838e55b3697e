(* Multi-tenant serving benchmark: replay a seeded mixed-tenant request
   stream through the snapshot-pool serving runtime twice — chaos off,
   then chaos on with an identical arrival schedule — and report
   throughput, latency percentiles, robustness-policy activity and the
   chaos-on/off goodput ratio per tenant.

   The robustness gate (exit 1 on failure):
   - zero ESCAPED requests under chaos: no corrupted result may ever
     reach a client;
   - every well-behaved tenant keeps >= 80% of its chaos-off goodput
     while the malicious tenant crash-loops next door. *)

let usage () =
  prerr_endline
    "usage: cage_serve [--requests N] [--seed N] [--smoke] [--json FILE] \
     [--engine interp|threaded] [--trace-requests FILE] [--slo-report]";
  exit 2

let int_flag argv name ~default =
  let rec go = function
    | [] -> default
    | flag :: v :: _ when flag = name -> (
        match int_of_string_opt v with Some n -> n | None -> usage ())
    | _ :: rest -> go rest
  in
  go argv

let str_flag argv name ~default =
  let rec go = function
    | [] -> default
    | flag :: v :: _ when flag = name -> v
    | _ :: rest -> go rest
  in
  go argv

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

(* Goodput per million simulated cycles. *)
let throughput (r : Serve.Server.report) =
  if r.Serve.Server.rp_makespan = 0 then 0.0
  else
    1_000_000.0
    *. float_of_int r.Serve.Server.rp_ok
    /. float_of_int r.Serve.Server.rp_makespan

let report_table ppf label (r : Serve.Server.report) =
  Harness.Report.title ppf "Serving replay: %s" label;
  Harness.Report.table ppf
    ~header:
      [ "tenant"; "requests"; "ok"; "failed"; "shed"; "escaped"; "sanitized";
        "crashes"; "retries"; "trips"; "p50"; "p99" ]
    (List.map
       (fun (tr : Serve.Server.tenant_report) ->
         [
           tr.Serve.Server.tr_name;
           string_of_int tr.Serve.Server.tr_requests;
           string_of_int tr.Serve.Server.tr_ok;
           string_of_int tr.Serve.Server.tr_failed;
           string_of_int tr.Serve.Server.tr_shed;
           string_of_int tr.Serve.Server.tr_escaped;
           string_of_int tr.Serve.Server.tr_sanitized;
           string_of_int tr.Serve.Server.tr_crashes;
           string_of_int tr.Serve.Server.tr_retries;
           string_of_int tr.Serve.Server.tr_breaker_trips;
           string_of_int tr.Serve.Server.tr_p50;
           string_of_int tr.Serve.Server.tr_p99;
         ])
       r.Serve.Server.rp_tenants);
  Format.fprintf ppf
    "  ok %d/%d (%.1f%%)  p50 %d  p99 %d  makespan %d cycles  %.2f ok/Mcycle@."
    r.Serve.Server.rp_ok r.Serve.Server.rp_requests
    (pct r.Serve.Server.rp_ok r.Serve.Server.rp_requests)
    r.Serve.Server.rp_p50 r.Serve.Server.rp_p99 r.Serve.Server.rp_makespan
    (throughput r);
  Format.fprintf ppf "  exact percentiles (nearest-rank): p50 %d  p99 %d@."
    r.Serve.Server.rp_p50_exact r.Serve.Server.rp_p99_exact;
  Format.fprintf ppf
    "  restores %d (copied %d of %d image bytes)  heals %d (deferred %d)  \
     injections %d  queue hwm %d@."
    r.Serve.Server.rp_restores r.Serve.Server.rp_restore_copied_bytes
    r.Serve.Server.rp_restore_image_bytes r.Serve.Server.rp_heals
    r.Serve.Server.rp_heals_deferred r.Serve.Server.rp_injections
    r.Serve.Server.rp_max_ready

let tenant_json b (cmp : Harness.Serve_bench.comparison)
    (tr : Serve.Server.tenant_report) =
  let on_ =
    match
      Serve.Server.tenant_of cmp.Harness.Serve_bench.cmp_on
        tr.Serve.Server.tr_name
    with
    | Some t -> t
    | None -> tr
  in
  Buffer.add_string b
    (Printf.sprintf
       "    { \"tenant\": %S, \"goodput_off\": %d, \"goodput_on\": %d,\n\
       \      \"goodput_ratio\": %.4f, \"escaped_on\": %d, \"sanitized_on\": \
        %d,\n\
       \      \"crashes_on\": %d, \"retries_on\": %d, \"shed_on\": %d,\n\
       \      \"breaker_trips_on\": %d, \"p50_on\": %d, \"p99_on\": %d,\n\
       \      \"p50_exact_on\": %d, \"p99_exact_on\": %d }"
       tr.Serve.Server.tr_name tr.Serve.Server.tr_ok on_.Serve.Server.tr_ok
       (Harness.Serve_bench.goodput_ratio cmp tr.Serve.Server.tr_name)
       on_.Serve.Server.tr_escaped on_.Serve.Server.tr_sanitized
       on_.Serve.Server.tr_crashes on_.Serve.Server.tr_retries
       on_.Serve.Server.tr_shed on_.Serve.Server.tr_breaker_trips
       on_.Serve.Server.tr_p50 on_.Serve.Server.tr_p99
       on_.Serve.Server.tr_p50_exact on_.Serve.Server.tr_p99_exact)

let write_json path requests seed (cmp : Harness.Serve_bench.comparison)
    ~gate_pass =
  let off = cmp.Harness.Serve_bench.cmp_off
  and on_ = cmp.Harness.Serve_bench.cmp_on in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"requests\": %d,\n  \"seed\": %d,\n" requests seed);
  let side name (r : Serve.Server.report) wall =
    Buffer.add_string b
      (Printf.sprintf
         "  \"%s\": { \"ok\": %d, \"failed\": %d, \"shed\": %d, \"escaped\": \
          %d,\n\
         \    \"sanitized\": %d, \"crashes\": %d, \"retries\": %d, \
          \"timeouts\": %d,\n\
         \    \"breaker_trips\": %d, \"heals\": %d,\n\
         \    \"restores\": %d, \"restore_copied_bytes\": %d, \
          \"restore_image_bytes\": %d,\n\
         \    \"injections\": %d, \"p50_cycles\": %d, \"p99_cycles\": %d,\n\
         \    \"p50_exact_cycles\": %d, \"p99_exact_cycles\": %d,\n\
         \    \"makespan_cycles\": %d, \"ok_per_mcycle\": %.4f, \
          \"wall_s\": %.3f },\n"
         name r.Serve.Server.rp_ok r.Serve.Server.rp_failed
         r.Serve.Server.rp_shed r.Serve.Server.rp_escaped
         r.Serve.Server.rp_sanitized r.Serve.Server.rp_crashes
         r.Serve.Server.rp_retries r.Serve.Server.rp_timeouts
         r.Serve.Server.rp_breaker_trips r.Serve.Server.rp_heals
         r.Serve.Server.rp_restores r.Serve.Server.rp_restore_copied_bytes
         r.Serve.Server.rp_restore_image_bytes r.Serve.Server.rp_injections
         r.Serve.Server.rp_p50 r.Serve.Server.rp_p99
         r.Serve.Server.rp_p50_exact r.Serve.Server.rp_p99_exact
         r.Serve.Server.rp_makespan (throughput r) wall)
  in
  side "chaos_off" off cmp.Harness.Serve_bench.cmp_off_wall_s;
  side "chaos_on" on_ cmp.Harness.Serve_bench.cmp_on_wall_s;
  Buffer.add_string b "  \"tenants\": [\n";
  List.iteri
    (fun i tr ->
      if i > 0 then Buffer.add_string b ",\n";
      tenant_json b cmp tr)
    off.Serve.Server.rp_tenants;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"gate\": \"%s\"\n}\n"
       (if gate_pass then "PASS" else "FAIL"));
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" argv in
  let requests = int_flag argv "--requests" ~default:(if smoke then 4_000 else 100_000) in
  let seed = int_flag argv "--seed" ~default:42 in
  let json = str_flag argv "--json" ~default:(if smoke then "" else "BENCH_serve.json") in
  let engine =
    match str_flag argv "--engine" ~default:"threaded" with
    | "interp" -> Wasm.Instance.Interp
    | "threaded" -> Wasm.Instance.Threaded
    | _ -> usage ()
  in
  let trace_path = str_flag argv "--trace-requests" ~default:"" in
  let slo_report = List.mem "--slo-report" argv in
  let recorder =
    if trace_path <> "" then Some (Obs.Span.create ()) else None
  in
  let collect =
    if slo_report then Some (Serve.Slo.collector ()) else None
  in
  let cmp =
    Harness.Serve_bench.compare ~requests ~seed ~engine ?recorder ?collect ()
  in
  let ppf = Format.std_formatter in
  report_table ppf "chaos off" cmp.Harness.Serve_bench.cmp_off;
  report_table ppf "chaos on" cmp.Harness.Serve_bench.cmp_on;
  let escapes, bad = Harness.Serve_bench.gate cmp in
  Harness.Report.title ppf "Robustness gate";
  Format.fprintf ppf "  escaped under chaos : %d (must be 0)@." escapes;
  List.iter
    (fun (tr : Serve.Server.tenant_report) ->
      Format.fprintf ppf "  goodput ratio %-9s: %.3f@."
        tr.Serve.Server.tr_name
        (Harness.Serve_bench.goodput_ratio cmp tr.Serve.Server.tr_name))
    cmp.Harness.Serve_bench.cmp_off.Serve.Server.rp_tenants;
  let gate_pass = escapes = 0 && bad = [] in
  Format.fprintf ppf "  gate: %s@."
    (if gate_pass then "PASS (zero escapes, all tenants >= 80% goodput)"
     else "FAIL");
  List.iter
    (fun (name, r) ->
      Format.fprintf ppf "    tenant %s degraded to %.3f of chaos-off goodput@."
        name r)
    bad;
  (match recorder with
  | None -> ()
  | Some r ->
      let oc = open_out trace_path in
      output_string oc (Obs.Span.to_chrome_json r);
      close_out oc;
      Format.fprintf ppf
        "  wrote %s (%d span records, %d dropped) — open in \
         chrome://tracing or ui.perfetto.dev@."
        trace_path (Obs.Span.size r) (Obs.Span.dropped r));
  (match collect with
  | None -> ()
  | Some co ->
      let on_ = cmp.Harness.Serve_bench.cmp_on in
      let makespan = on_.Serve.Server.rp_makespan in
      (* burn rates at three granularities: a short window that catches
         bursts, a medium one, and the whole run *)
      let windows =
        [
          ("1%", max 1 (makespan / 100));
          ("10%", max 1 (makespan / 10));
          ("all", makespan);
        ]
      in
      Harness.Report.title ppf "Per-tenant SLO monitors (chaos on)";
      Serve.Slo.render_slo ppf co ~now:makespan ~windows;
      Harness.Report.title ppf "Tail-latency attribution (chaos on)";
      Serve.Slo.render_tail ppf co ~pct:99.0;
      Harness.Report.title ppf "Fault -> request correlation (chaos on)";
      Serve.Slo.render_hits ppf co;
      (* accounting cross-check: every metered guest cycle the pool
         served must reappear in exactly one attribution bucket *)
      let attributed = Serve.Slo.exec_cycles co in
      let served = on_.Serve.Server.rp_served_cycles in
      Format.fprintf ppf
        "  exec reconciliation: attributed %d cycles, pool served %d — %s@."
        attributed served
        (if attributed = served then "exact" else "MISMATCH"));
  if json <> "" then begin
    write_json json requests seed cmp ~gate_pass;
    Format.fprintf ppf "  wrote %s (wall %.2fs chaos off, %.2fs chaos on)@."
      json cmp.Harness.Serve_bench.cmp_off_wall_s
      cmp.Harness.Serve_bench.cmp_on_wall_s
  end;
  if not gate_pass then exit 1
