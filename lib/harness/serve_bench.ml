(** Tenants and scenarios for the serving runtime.

    {!Serve} itself is workload-agnostic (tenants are just modules +
    entry points); this module supplies the concrete mixed-tenant cast
    the benchmark and the CI smoke run use:

    - [compute]: a small PolyBench-flavoured matmul kernel — the
      well-behaved tenant whose goodput the chaos gate protects;
    - [fuzz]: a Fuzzgen-generated program checked against the Fuzzgen
      reference interpreter — a second well-behaved tenant with
      different memory behaviour;
    - [malicious]: a CVE-suite-style heap overflow that faults on
      {e every} request — the noisy neighbour that must never take the
      others down.

    All tenants run the full Cage configuration: the malicious tenant
    is stopped by MTE, not by being special-cased. *)

(* Small on purpose: each serving request really executes the kernel,
   so per-request op counts set the wall-clock cost of a 100k-request
   replay. A few hundred multiplies still exercises heap pointers,
   loops and function calls. *)
let compute_source =
  {|
int main() {
  long *a = (long *)malloc(8 * 8 * 8);
  long *b = (long *)malloc(8 * 8 * 8);
  long *c = (long *)malloc(8 * 8 * 8);
  for (int i = 0; i < 64; i++) { a[i] = (long)i; b[i] = (long)(63 - i); c[i] = 0; }
  for (int i = 0; i < 8; i++)
    for (int k = 0; k < 8; k++)
      for (int j = 0; j < 8; j++)
        c[i * 8 + j] = c[i * 8 + j] + a[i * 8 + k] * b[k * 8 + j];
  long acc = 0;
  for (int i = 0; i < 64; i++) { acc = acc * 31 + c[i]; }
  free(a); free(b); free(c);
  return (int)(((unsigned long)acc) % 1000003);
}
|}

(* A guest-triggered heap overflow in the style of the CVE suite
   (CVE-2023-4863's shape): an attacker-length loop writes past its
   buffer on every request. Under MTE this traps at the first
   out-of-granule store — deterministically, every time. *)
let malicious_source =
  {|
int main() {
  char *table = (char *)malloc(32);
  char *secret = (char *)malloc(16);
  secret[0] = 42;
  int attacker_len = 64;
  for (int i = 0; i < attacker_len; i++) { table[i] = 7; }
  return secret[0];
}
|}

let fuzz_seed = 0xF5EED

(* Serving tenants run tiny memories: the snapshot payload is restored
   per request, so image size is the dominant per-request cost. *)
let serve_mem_pages = 4L
let serve_stack_bytes = 16384

let compile cfg source =
  (Libc.Run.compile ~mem_pages:serve_mem_pages ~stack_bytes:serve_stack_bytes cfg source)
    .Minic.Driver.co_module

let wasi_imports () =
  let w = Libc.Wasi.create () in
  ( Libc.Wasi.imports w,
    fun () ->
      Libc.Wasi.clear w;
      w.Libc.Wasi.clock <- 0L;
      w.Libc.Wasi.rand_state <- 0x9e3779b9L )

(* Chaos-free reference result for [m]'s main under [cfg]. *)
let reference (cfg : Cage.Config.t) ~seed m =
  let proc = Cage.Process.create ~config:cfg ~seed () in
  let sup = Cage.Supervisor.create ~fuel:2_000_000 proc in
  let imports, _ = wasi_imports () in
  let inst = Cage.Supervisor.spawn ~imports sup m in
  match Cage.Supervisor.run sup inst "main" [] with
  | Cage.Supervisor.Finished vs -> vs
  | Cage.Supervisor.Crashed pm ->
      failwith
        ("serve_bench: chaos-free reference crashed: "
        ^ pm.Cage.Supervisor.pm_message)

let tenant_of_source (cfg : Cage.Config.t) ~name ~weight ~seed ?(expect = true)
    source =
  let m = compile cfg source in
  let expected = if expect then Some (reference cfg ~seed m) else None in
  {
    Serve.Pool.tn_name = name;
    tn_module = m;
    tn_config = cfg;
    tn_entry = "main";
    tn_args = [];
    tn_expected = expected;
    tn_init = None;
    tn_imports = wasi_imports;
    tn_weight = weight;
  }

(** The benchmark cast under [cfg] (default: full Cage). *)
let tenants ?(cfg = Cage.Config.full) ~seed () =
  let fuzz_prog = Workloads.Fuzzgen.generate ~seed:fuzz_seed in
  let fuzz_src = Workloads.Fuzzgen.render fuzz_prog in
  [
    tenant_of_source cfg ~name:"compute" ~weight:6 ~seed compute_source;
    tenant_of_source cfg ~name:"fuzz" ~weight:3 ~seed:(seed + 1) fuzz_src;
    (* faults every request: no reference, never counted as goodput *)
    tenant_of_source cfg ~name:"malicious" ~weight:1 ~seed:(seed + 2)
      ~expect:false malicious_source;
  ]

(** The benchmark chaos policy: every site armed, low per-draw
    probability, a small per-lane budget — continuous background chaos
    rather than one catastrophic burst. *)
let chaos_policy ~seed =
  Arch.Fault_inject.policy ~seed ~probability:0.004 ~max_injections:8
    Arch.Fault_inject.all_sites

type comparison = {
  cmp_off : Serve.Server.report;
  cmp_on : Serve.Server.report;
  cmp_off_wall_s : float;  (** host wall time of each side (monotonic) *)
  cmp_on_wall_s : float;
}

(** Per-tenant goodput ratio chaos-on / chaos-off (1.0 when the tenant
    had no chaos-off goodput to protect, e.g. the malicious tenant). *)
let goodput_ratio cmp name =
  let ok r =
    match Serve.Server.tenant_of r name with
    | Some tr -> tr.Serve.Server.tr_ok
    | None -> 0
  in
  let off = ok cmp.cmp_off and on_ = ok cmp.cmp_on in
  if off = 0 then 1.0 else float_of_int on_ /. float_of_int off

(** The headline robustness gate: no corrupted result ever reached a
    client under chaos, and every well-behaved tenant kept at least
    [floor] (default 0.8) of its chaos-off goodput. *)
let gate ?(floor = 0.8) cmp =
  let escapes = cmp.cmp_on.Serve.Server.rp_escaped in
  let bad_ratio =
    List.filter_map
      (fun (tr : Serve.Server.tenant_report) ->
        let r = goodput_ratio cmp tr.Serve.Server.tr_name in
        if r < floor then Some (tr.Serve.Server.tr_name, r) else None)
      cmp.cmp_off.Serve.Server.rp_tenants
  in
  (escapes, bad_ratio)

(** Run the mixed-tenant scenario twice — identical arrival schedule,
    chaos off then on — and return both reports. [recorder] installs a
    request-span recorder around the {e chaos-on} run (the interesting
    side: retries, breaker trips and injections all live there);
    [collect] feeds the chaos-on run's per-request stream into an SLO
    collector. Neither perturbs the simulation — reports are identical
    with or without them. *)
let compare ?(requests = 100_000) ?(seed = 42) ?recorder ?collect () =
  let config =
    { Serve.Server.default_config with Serve.Server.requests; seed }
  in
  let mk () = tenants ~seed () in
  (* each side's clock covers building its tenants and the replay *)
  let timed f =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)
  in
  let cmp_off, cmp_off_wall_s =
    timed (fun () -> Serve.Server.run config (mk ()))
  in
  let run_on () =
    Serve.Server.run ~chaos:(chaos_policy ~seed) ?collect config (mk ())
  in
  let cmp_on, cmp_on_wall_s =
    timed (fun () ->
        match recorder with
        | Some r -> Obs.Span.with_recorder r run_on
        | None -> run_on ())
  in
  { cmp_off; cmp_on; cmp_off_wall_s; cmp_on_wall_s }

(* ------------------------------------------------------------------ *)
(* The detection matrix's "served" column                               *)
(* ------------------------------------------------------------------ *)

(** How a fault site behaves when it fires through the {e whole}
    serving stack — pool, supervisor, retry — instead of a single bare
    invocation:

    - ["-"]: the site never fired (that defense layer is idle under
      the mode);
    - ["recovered"]: every request still succeeded — crashes were
      contained and retries on pristine snapshots absorbed them;
    - ["degraded"]: nothing escaped, but some requests were lost
      (shed, retry-exhausted) — graceful degradation;
    - ["ESCAPED"]: a corrupted result reached a client.

    [variant] is applied to the full configuration, e.g. to serve with
    the whole elision plan armed; the classifications must not move. *)
let served_cell ?(variant = Fun.id) ~seed ~index site mode =
  let cfg = variant { Cage.Config.full with Cage.Config.mte_mode = mode } in
  let tenant =
    tenant_of_source cfg ~name:"victim" ~weight:1 ~seed:(seed + index)
      Detection_matrix.victim_source
  in
  let requests = 24 in
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.requests;
      slots = 2;
      cores = 2;
      seed = seed + index;
    }
  in
  let pol = Detection_matrix.policy_for site ~seed:(seed + (31 * index)) in
  let report = Serve.Server.run ~chaos:pol config [ tenant ] in
  if report.Serve.Server.rp_injections = 0 then "-"
  else if report.Serve.Server.rp_escaped > 0 then "ESCAPED"
  else if report.Serve.Server.rp_ok = requests then "recovered"
  else "degraded"

(** One row per fault site, one column per MTE mode, full Cage config
    throughout. Deterministic in [seed] — golden-gated by CI. *)
let served_matrix ?(seed = Detection_matrix.default_seed) ?variant () =
  let index = ref 0 in
  List.map
    (fun site ->
      ( site,
        List.map
          (fun mode ->
            incr index;
            (mode, served_cell ?variant ~seed ~index:!index site mode))
          Detection_matrix.modes ))
    Arch.Fault_inject.all_sites

(** The served-column gate, mirroring the matrix gate: under the full
    configuration in Sync mode a fault site that fires must come out
    [recovered] — contained {e and} absorbed — and no site may escape
    in any detecting mode. *)
let served_violations rows =
  List.concat_map
    (fun (site, cells) ->
      List.filter_map
        (fun (mode, cell) ->
          let where =
            Printf.sprintf "%s x full-cage x %s (served)"
              (Arch.Fault_inject.site_to_string site)
              (Arch.Mte.mode_to_string mode)
          in
          if cell = "ESCAPED" && mode <> Arch.Mte.Disabled then
            Some ("serving escape: " ^ where)
          else if mode = Arch.Mte.Sync && cell <> "recovered" && cell <> "-"
          then Some ("serving did not recover: " ^ where)
          else None)
        cells)
    rows

let render_served ?(seed = Detection_matrix.default_seed) ppf rows =
  Report.title ppf "Serving-path detection matrix (seed %d)" seed;
  Report.table ppf
    ~header:("fault" :: List.map Arch.Mte.mode_to_string Detection_matrix.modes)
    (List.map
       (fun (site, cells) ->
         Arch.Fault_inject.site_to_string site
         :: List.map (fun (_, c) -> c) cells)
       rows);
  let v = served_violations rows in
  Format.fprintf ppf "  gate: %s@."
    (if v = [] then
       "PASS (all fired sites recovered under sync, no serving escapes)"
     else "FAIL");
  List.iter (fun msg -> Format.fprintf ppf "    %s@." msg) v
