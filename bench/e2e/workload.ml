(* The four workloads. Each prepares its inputs from a seed (the timed
   set-up), then runs passes over them; every pass checks every output.
   A traced run wraps each call into a layer's public function in a
   {!Layers} span; layers are never instrumented from the inside. *)

type obs = Off | Sink | Spans

(* One pass (or, merged, one timed rep). *)
type rep = {
  items : int;             (* kernel invocations, programs or requests *)
  ok : int;                (* items that completed with a correct result *)
  wrong : int;             (* items whose output check failed *)
  p50 : float;             (* modeled cycles per ok item *)
  p99 : float;
  cycles : float list;     (* batch only: modeled CAGE cycles, item order *)
  digest : string;         (* everything deterministic the pass produced *)
  history : string;
      (* outputs known to follow what the process ran before: compared
         and reported, not gated (see [report_digest]) *)
  errors : string list;
  report : Serve.Server.report option;
}

type prepared = {
  stage : sub:int -> tr:Layers.t option -> obs:obs -> rep;
      (* [stage ~sub] builds sub-seed [sub]'s inputs untimed; the
         returned function runs the timed pass *)
  model : rep -> (float * float) list;
      (* (CAGE, baseline wasm64) modeled cycles of each program,
         given the rep that ran the seed's own inputs *)
  probe : Layers.t -> string list * string list;
      (* traced runs only: layer measurements taken by separate calls,
         off the pass; returns (report lines, output-check errors) *)
  attributed : rep -> pass:Layers.t -> probe:Layers.t -> float;
      (* host seconds of the traced pass accounted to timed calls *)
  setup_errors : string list;
}

type t = {
  name : string;
  passes_per_rep : int;
  rep_s : float;  (* nominal seconds of one rep, on a 2-core x86-64 host *)
  subseeded : bool;  (* timed reps draw fresh inputs from sub-seeds *)
  prepare : scale:float -> seed:int -> tr:Layers.t option -> prepared;
}

(* Path of the committed serving baseline that serve-mixed at seed 42
   must reproduce; the command line may point elsewhere. *)
let serve_baseline = ref "bench/baselines/BENCH_serve_smoke.json"

let core = Arch.Cpu_model.cortex_x3
let elided_cage = Cage.Config.with_arena (Cage.Config.with_bounds_elision Cage.Config.full)
let base64 = Cage.Config.baseline_wasm64
let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* Sub-seed 0 is the run seed itself; the others are drawn from it. *)
let subseed ~seed sub =
  if sub = 0 then seed else Random.State.bits (Random.State.make [| seed; sub; 0x5ead |])

(* ------------------------------------------------------------------ *)
(* Calls into the toolchain and the engine                             *)
(* ------------------------------------------------------------------ *)

let compile ?tr ?stack_bytes ~pages (cfg : Cage.Config.t) src =
  let o = Minic.Driver.options_of_config cfg in
  let opts =
    { o with
      Minic.Driver.mem_pages = pages;
      stack_bytes = Option.value stack_bytes ~default:o.Minic.Driver.stack_bytes }
  in
  let prelude = Libc.Source.prelude_of_config cfg in
  (Layers.timed tr "minic.compile" (fun () -> Minic.Driver.compile ~opts ~prelude src))
    .Minic.Driver.co_module

let plan ?tr (cfg : Cage.Config.t) m =
  let p =
    Layers.timed tr "analysis.plan" (fun () ->
        Analysis.Elide.plan ~spec_safe:cfg.Cage.Config.spec_safe_only
          ~arena:cfg.Cage.Config.arena m)
  in
  Layers.add tr "analysis.proven" (float_of_int p.Analysis.Elide.proven);
  Layers.add tr "analysis.bproven" (float_of_int p.Analysis.Elide.bproven);
  Layers.add tr "analysis.considered" (float_of_int p.Analysis.Elide.considered);
  Layers.add tr "analysis.arena_sites" (float_of_int p.Analysis.Elide.arena_sites);
  p

(* The instance configuration [Libc.Run] builds for a plan. *)
let instance_config ?meter ~seed (cfg : Cage.Config.t) plan =
  let c = Cage.Config.instance_config ?meter ~seed cfg in
  match plan with
  | Some (p : Analysis.Elide.plan) when cfg.Cage.Config.elide_checks ->
      {
        c with
        Wasm.Instance.elide = p.Analysis.Elide.bitsets;
        belide = (if cfg.Cage.Config.elide_bounds then p.Analysis.Elide.bbitsets else [||]);
        arena = p.Analysis.Elide.arena;
      }
  | _ -> c

(* Validation runs inside [Minic.Driver.compile] and lowering inside
   [Wasm.Exec.instantiate]; each is measured by a separate call on the
   same module, so neither enters a pass's reconciliation. *)
let nested_probe tr (c : Wasm.Instance.config) m =
  ignore
    (Layers.timed (Some tr) "validate.validate" (fun () ->
         Wasm.Validate.validate ~cage:true m));
  let stats =
    Layers.timed (Some tr) "lower.lower" (fun () ->
        Wasm.Compile.module_stats ~elide:c.Wasm.Instance.elide
          ~belide:c.Wasm.Instance.belide ~arena:c.Wasm.Instance.arena m)
  in
  List.iter
    (fun (s : Wasm.Xcode.stats) ->
      Layers.add (Some tr) "lower.instrs" (float_of_int s.Wasm.Xcode.st_instrs);
      Layers.add (Some tr) "lower.fused" (float_of_int s.Wasm.Xcode.st_fused))
    stats

let exec_names =
  [| "exec.ops"; "exec.mem_accesses"; "exec.elided_checks"; "exec.tag_granules";
     "exec.arena_granules" |]

let exec_counts (m : Wasm.Meter.t) =
  Wasm.Meter.
    [|
      float_of_int (total m);
      float_of_int (mem_accesses m);
      float_of_int m.elided_checks;
      float_of_int (m.seg_new_granules + m.seg_set_tag_granules + m.seg_free_granules);
      float_of_int (m.arena_new_granules + m.arena_free_granules);
    |]

let add_exec tr counts =
  Layers.add tr "exec.invocations" 1.0;
  Array.iteri (fun i name -> Layers.add tr name counts.(i)) exec_names

type outcome = Value of int32 | Failed of string

let outcome_to_string = function
  | Value v -> Int32.to_string v
  | Failed m -> m

let invoke_main inst =
  try Wasm.Exec.invoke inst "main" []
  with Libc.Wasi.Proc_exit c -> [ Wasm.Values.I32 (Int32.of_int c) ]

let run_item ?tr config m =
  let wasi = Libc.Wasi.create () in
  match
    let inst =
      Layers.timed tr "exec.instantiate" (fun () ->
          Wasm.Exec.instantiate ~config ~imports:(Libc.Wasi.imports wasi) m)
    in
    Layers.timed tr "exec.invoke" (fun () -> invoke_main inst)
  with
  | [ Wasm.Values.I32 v ] -> Value v
  | _ -> Failed "main did not return one i32"
  | exception Wasm.Instance.Trap msg -> Failed ("trap: " ^ msg)

(* What the paper prices: one invocation's meter as Cortex-X3 cycles. *)
let cycles cfg meter = Cage.Lowering.cycles core cfg meter

(* ------------------------------------------------------------------ *)
(* Batch workloads: a pass runs every program once                     *)
(* ------------------------------------------------------------------ *)

type item = {
  it_name : string;
  it_expected : int32;
  it_build : Layers.t option -> Wasm.Ast.module_ * Analysis.Elide.plan;
      (* compile + plan, or the set-up's result *)
}

let batch_pass ?tr ~seed items =
  let cyc = ref [] and errors = ref [] and wrong = ref 0 in
  let dig = Buffer.create 4096 in
  List.iter
    (fun it ->
      let m, p = it.it_build tr in
      let meter = Wasm.Meter.create () in
      let out = run_item ?tr (instance_config ~meter ~seed elided_cage (Some p)) m in
      (match out with
      | Value v when Int32.equal v it.it_expected -> ()
      | o ->
          incr wrong;
          errors :=
            Printf.sprintf "%s: got %s, expected %ld" it.it_name (outcome_to_string o)
              it.it_expected
            :: !errors);
      add_exec tr (exec_counts meter);
      cyc := cycles elided_cage meter :: !cyc;
      Buffer.add_string dig
        (Format.asprintf "%s=%s %a;" it.it_name (outcome_to_string out) Wasm.Meter.pp meter))
    items;
  let n = List.length items in
  let cycles = List.rev !cyc in
  {
    items = n;
    ok = n - !wrong;
    wrong = !wrong;
    p50 = Stats.percentile cycles 50.0;
    p99 = Stats.percentile cycles 99.0;
    cycles;
    digest = Digest.to_hex (Digest.string (Buffer.contents dig));
    history = "";
    errors = List.rev !errors;
    report = None;
  }

(* Off the pass: the nested toolchain calls, and what a per-request
   restore would cost for this workload's images (freeze each program's
   fresh instance, run it, restore it). *)
let batch_probe tr ~seed items =
  List.iter
    (fun it ->
      let m, p = it.it_build None in
      let config = instance_config ~seed elided_cage (Some p) in
      nested_probe tr config m;
      let inst = Wasm.Exec.instantiate ~config ~imports:(Libc.Wasi.imports (Libc.Wasi.create ())) m in
      let snap = Serve.Snapshot.capture inst in
      ignore (invoke_main inst);
      Layers.timed (Some tr) "snapshot.restore" (fun () -> Serve.Snapshot.restore snap inst);
      Layers.add (Some tr) "snapshot.bytes" (float_of_int (Serve.Snapshot.bytes snap));
      Layers.add (Some tr) "snapshot.restore_cycles"
        (float_of_int (Serve.Snapshot.restore_cycles snap)))
    items

(* Reference results and baseline wasm64 costs: [Libc.Run] under the
   paper's baseline configuration, a different compile from the one
   under test. *)
let baseline_run ~seed ~pages src =
  let meter = Wasm.Meter.create () in
  let r = Libc.Run.run ~cfg:base64 ~meter ~seed ~mem_pages:pages src in
  (Libc.Run.ret_i32 r, cycles base64 meter)

let batch_prepared ~seed ~setup_errors ~base ~items_of_sub =
  {
    stage =
      (fun ~sub ->
        let items = items_of_sub sub in
        fun ~tr ~obs:_ -> batch_pass ?tr ~seed items);
    model = (fun rep -> List.combine rep.cycles base);
    probe = (fun tr -> batch_probe tr ~seed (items_of_sub 0); ([], []));
    attributed = (fun _ ~pass ~probe:_ -> Layers.total pass);
    setup_errors;
  }

let polybench_expected () =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ name; v ] when name.[0] <> '#' -> Some (name, Int32.of_string v)
      | _ -> None)
    (String.split_on_char '\n' Embedded.polybench_expected)

(* polybench-run: the paper's Fig. 14 set under CAGE with the whole
   elision pipeline. Execution and instantiation dominate, so this is
   where elision, arena lowering and the threaded engine show. *)
let polybench =
  let prepare ~scale:_ ~seed ~tr =
    let expected = polybench_expected () in
    let errors = ref [] in
    let built =
      List.map
        (fun (k : Workloads.Polybench.kernel) ->
          let m = compile ?tr ~pages:80L elided_cage k.Workloads.Polybench.k_source in
          let p = plan ?tr elided_cage m in
          let v, base = baseline_run ~seed ~pages:80L k.Workloads.Polybench.k_source in
          (match List.assoc_opt k.Workloads.Polybench.k_name expected with
          | Some e when Int32.equal e v -> ()
          | e ->
              errors :=
                Printf.sprintf "%s: baseline wasm64 checksum %ld, polybench.expected %s"
                  k.Workloads.Polybench.k_name v
                  (match e with Some e -> Int32.to_string e | None -> "missing")
                :: !errors);
          ( { it_name = k.Workloads.Polybench.k_name; it_expected = v;
              it_build = (fun _ -> (m, p)) },
            base ))
        Workloads.Polybench.all
    in
    let items, base = List.split built in
    batch_prepared ~seed ~setup_errors:(List.rev !errors) ~base
      ~items_of_sub:(fun _ -> items)
  in
  { name = "polybench-run"; passes_per_rep = 10; rep_s = 1.1; subseeded = false; prepare }

(* compile-corpus: seeded Fuzzgen programs through the whole toolchain,
   checked against Fuzzgen's own reference evaluator. Straight-line,
   switch-heavy code with almost no execution: MiniC and the analysis
   dominate. *)
let corpus_size = 200

(* Fuzzgen renders constants as C [int] literals, so a subexpression
   made only of constants and + - * & | ^ is computed in 32 bits by the
   compiled program but in 64 bits by [Fuzzgen.reference]. Where such a
   value leaves the int32 range the two disagree for every engine and
   configuration (seed 554766110 is one); the corpus skips those
   programs rather than report the oracle's defect as the system's. *)
let oracle_agrees (p : Workloads.Fuzzgen.prog) =
  let open Workloads.Fuzzgen in
  let none = { vars = [||]; arrs = [||] } in
  let rec c_int = function
    | Const _ -> true
    | Var _ | ArrGet _ | Bin ((ShrMask | ModSmall), _, _) -> false
    | Bin (_, x, y) -> c_int x && c_int y
  in
  let rec ok e =
    match e with
    | Const _ | Var _ -> true
    | ArrGet (_, i) -> ok i
    | Bin (_, x, y) ->
        ok x && ok y
        && ((not (c_int e))
           || Int64.equal (eval_expr none e) (Int64.of_int32 (Int64.to_int32 (eval_expr none e))))
  in
  let rec stmt = function
    | Assign (_, e) -> ok e
    | ArrSet (_, i, e) -> ok i && ok e
    | For (_, _, body) -> List.for_all stmt body
    | IfPos (c, t, e) -> ok c && List.for_all stmt t && List.for_all stmt e
    | SwitchMod (e, bodies) -> ok e && List.for_all (List.for_all stmt) bodies
  in
  List.for_all stmt p.body

let corpus =
  let prepare ~scale ~seed ~tr:_ =
    let n = scaled scale corpus_size in
    let programs sub =
      let rng = Random.State.make [| seed; sub; 0xc0de |] in
      let rec draw () =
        let s = Random.State.bits rng in
        let p = Workloads.Fuzzgen.generate ~seed:s in
        if oracle_agrees p then
          (Printf.sprintf "fuzz%d" s, Workloads.Fuzzgen.render p, Workloads.Fuzzgen.reference p)
        else draw ()
      in
      List.init n (fun _ -> draw ())
    in
    let items_of progs =
      List.map
        (fun (name, src, expected) ->
          {
            it_name = name;
            it_expected = expected;
            it_build =
              (fun tr ->
                let m = compile ?tr ~pages:4L elided_cage src in
                (m, plan ?tr elided_cage m));
          })
        progs
    in
    let own = programs 0 in
    let errors = ref [] in
    let base =
      List.map
        (fun (name, src, expected) ->
          let v, c = baseline_run ~seed ~pages:4L src in
          if not (Int32.equal v expected) then
            errors :=
              Printf.sprintf "%s: baseline wasm64 returned %ld, reference %ld" name v expected
              :: !errors;
          c)
        own
    in
    let own_items = items_of own in
    batch_prepared ~seed ~setup_errors:(List.rev !errors) ~base
      ~items_of_sub:(fun sub -> if sub = 0 then own_items else items_of (programs sub))
  in
  { name = "compile-corpus"; passes_per_rep = 1; rep_s = 0.55; subseeded = true; prepare }

(* ------------------------------------------------------------------ *)
(* Serving workloads: a pass is one [Serve.Server.run]                  *)
(* ------------------------------------------------------------------ *)

type spec = {
  sp_name : string;
  sp_weight : int;
  sp_source : string;
  sp_init : string option;
  sp_expect : bool;  (* false: the tenant has no stable answer *)
}

type serving = {
  specs : spec list;
  pages : int64;
  chaos : bool;
  requests : int;
  arrival_gap : int;
  ladder : int list;  (* arrival gaps for the capacity report *)
  p99_limit : int;
}

(* Invoke [main] once in a fresh supervised instance, after [init]. *)
let reference ?meter ~seed ?init (cfg : Cage.Config.t) m =
  let sup = Cage.Supervisor.create ~fuel:2_000_000 (Cage.Process.create ~config:cfg ~seed ()) in
  let imports, _ = Harness.Serve_bench.wasi_imports () in
  let inst = Cage.Supervisor.spawn ?meter ~imports sup m in
  let run entry =
    match Cage.Supervisor.run sup inst entry [] with
    | Cage.Supervisor.Finished vs -> vs
    | Cage.Supervisor.Crashed pm ->
        failwith (Printf.sprintf "reference %s crashed: %s" entry pm.Cage.Supervisor.pm_message)
  in
  Option.iter (fun e -> ignore (run e)) init;
  Option.iter Wasm.Meter.reset meter;
  run "main"

let server_config sv ~tenants ~requests ~seed =
  (* Every slot gets its own simulated core: [Serve.Server.run] does not
     re-dispatch a core freed by a finishing request, so with fewer
     cores than slots a ready job can wait for the next arrival, and a
     job left ready after the last arrival never runs (the run never
     returns). *)
  let slots = Serve.Server.default_config.Serve.Server.slots in
  {
    Serve.Server.default_config with
    Serve.Server.requests;
    seed;
    cores = slots * List.length tenants;
    arrival_gap = sv.arrival_gap;
  }

let run_server sv ?collect config tenants =
  let chaos =
    if sv.chaos then Some (Harness.Serve_bench.chaos_policy ~seed:config.Serve.Server.seed)
    else None
  in
  Serve.Server.run ?chaos ?collect config tenants

(* Served requests per tenant: attempts minus those that never reached
   a slot (shed at the door, or expired while queued). *)
let served (tr : Serve.Server.tenant_report) =
  tr.Serve.Server.tr_requests + tr.Serve.Server.tr_retries - tr.Serve.Server.tr_shed
  - tr.Serve.Server.tr_timeouts

(* Every report field except [rp_served_cycles]: a guest's allocation
   tags are drawn from a PRNG seeded with the process-wide instance
   ordinal, so where the malicious tenant's overflow traps, and with it
   the metered demand of its requests, follows how many instances the
   process created before. That dependence is reported, not gated. *)
let report_digest (r : Serve.Server.report) =
  let b = Buffer.create 512 in
  let add = List.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ' ') in
  Serve.Server.(
    add
      [ r.rp_requests; r.rp_ok; r.rp_sanitized; r.rp_escaped; r.rp_failed; r.rp_shed;
        r.rp_crashes; r.rp_retries; r.rp_timeouts; r.rp_breaker_trips; r.rp_restores;
        r.rp_heals; r.rp_heals_deferred; r.rp_injections; r.rp_makespan; r.rp_p50_exact;
        r.rp_p99_exact; r.rp_max_ready ];
    List.iter
      (fun t ->
        Buffer.add_string b t.tr_name;
        add
          [ t.tr_requests; t.tr_ok; t.tr_failed; t.tr_shed; t.tr_crashes; t.tr_retries;
            t.tr_p50_exact; t.tr_p99_exact ])
      r.rp_tenants);
  Digest.to_hex (Digest.string (Buffer.contents b))

let serve_rep ~requests (r : Serve.Server.report) =
  let errors = ref [] in
  if r.Serve.Server.rp_escaped > 0 then
    errors := Printf.sprintf "%d requests escaped" r.Serve.Server.rp_escaped :: !errors;
  if r.Serve.Server.rp_requests <> requests then
    errors :=
      Printf.sprintf "%d of %d requests arrived" r.Serve.Server.rp_requests requests :: !errors;
  List.iter
    (fun (t : Serve.Server.tenant_report) ->
      Serve.Server.(
        if t.tr_ok + t.tr_failed + t.tr_shed <> t.tr_requests then
          errors :=
            Printf.sprintf "tenant %s: ok %d + failed %d + shed %d <> requests %d" t.tr_name
              t.tr_ok t.tr_failed t.tr_shed t.tr_requests
            :: !errors))
    r.Serve.Server.rp_tenants;
  {
    items = requests;
    ok = r.Serve.Server.rp_ok;
    wrong = r.Serve.Server.rp_escaped;
    p50 = float_of_int r.Serve.Server.rp_p50_exact;
    p99 = float_of_int r.Serve.Server.rp_p99_exact;
    cycles = [];
    digest = report_digest r;
    history = Printf.sprintf "served cycles %d" r.Serve.Server.rp_served_cycles;
    errors = List.rev !errors;
    report = Some r;
  }

let us s = s *. 1e6

(* Closed-loop probe of one tenant's pool, [calls] requests through
   acquire (the restore) / serve / settle / heal. *)
let pool_probe tr config ~lane_base ~seed ~calls (tn : Serve.Pool.tenant) =
  let name = tn.Serve.Pool.tn_name in
  let pool =
    Layers.timed (Some tr) "pool.create" (fun () ->
        Serve.Pool.create ~fuel:config.Serve.Server.pool_fuel ~lane_base
          ~size:config.Serve.Server.slots ~seed ~policy:config.Serve.Server.policy tn)
  in
  let restored before =
    Serve.Pool.restores pool + Serve.Pool.heals pool > before
  in
  let restore_sample before dt slot =
    if restored before then begin
      Layers.record tr "snapshot.restore" dt;
      Layers.record tr ("pool.restore." ^ name) dt;
      let snap = slot.Serve.Pool.sl_snapshot in
      Layers.add (Some tr) "snapshot.bytes" (float_of_int (Serve.Snapshot.bytes snap));
      Layers.add (Some tr) "snapshot.restore_cycles"
        (float_of_int (Serve.Snapshot.restore_cycles snap))
    end
  in
  for call = 1 to calls do
    let before = Serve.Pool.restores pool + Serve.Pool.heals pool in
    match Layers.time (fun () -> Serve.Pool.acquire pool) with
    | None, _ -> failwith ("pool probe: no idle slot for " ^ name)
    | Some slot, dt ->
        restore_sample before dt slot;
        let m0 = exec_counts slot.Serve.Pool.sl_meter in
        let (outcome, _), dt = Layers.time (fun () -> Serve.Pool.serve pool slot) in
        Layers.record tr "exec.invoke" dt;
        Layers.record tr ("pool.serve." ^ name) dt;
        add_exec (Some tr) (Array.map2 ( -. ) (exec_counts slot.Serve.Pool.sl_meter) m0);
        (match outcome with
        | Cage.Supervisor.Finished _ -> Serve.Pool.settle_ok slot
        | Cage.Supervisor.Crashed _ ->
            Serve.Pool.settle_crashed slot;
            (* one heal token refills per [heal_refill] cycles: space
               the probe's simulated clock so every heal is granted *)
            let now = call * config.Serve.Server.policy.Serve.Policy.heal_refill in
            let before = Serve.Pool.restores pool + Serve.Pool.heals pool in
            let healed, dt = Layers.time (fun () -> Serve.Pool.heal pool ~now) in
            if healed = 0 then failwith ("pool probe: heal refused for " ^ name);
            restore_sample before dt slot)
  done

let percentile_us tr name p = us (Stats.percentile (Layers.span tr name).Layers.samples p)

let serving ~name ~rep_s sv =
  let prepare ~scale ~seed ~tr =
    let cfg = Cage.Config.full in
    let requests = scaled scale sv.requests in
    let compile_for ?tr c src = compile ?tr ~stack_bytes:16384 ~pages:sv.pages c src in
    let built =
      List.map
        (fun sp ->
          let m = compile_for ?tr cfg sp.sp_source in
          let model, expected =
            if sp.sp_expect then begin
              let mc = Wasm.Meter.create () and mb = Wasm.Meter.create () in
              let v = reference ~meter:mc ~seed ?init:sp.sp_init cfg m in
              let vb =
                reference ~meter:mb ~seed ?init:sp.sp_init base64 (compile_for base64 sp.sp_source)
              in
              if vb <> v then failwith (sp.sp_name ^ ": baseline wasm64 and CAGE results differ");
              (Some (cycles cfg mc, cycles base64 mb), Some v)
            end
            else (None, None)
          in
          ( {
              Serve.Pool.tn_name = sp.sp_name;
              tn_module = m;
              tn_config = cfg;
              tn_entry = "main";
              tn_args = [];
              tn_expected = expected;
              tn_init = sp.sp_init;
              tn_imports = Harness.Serve_bench.wasi_imports;
              tn_weight = sp.sp_weight;
            },
            model ))
        sv.specs
    in
    let tenants = List.map fst built in
    let model = List.filter_map snd built in
    let config_for ~requests seed = server_config sv ~tenants ~requests ~seed in
    (* the pools a run starts from, as [Serve.Server.run] builds them *)
    let config = config_for ~requests seed in
    List.iteri
      (fun i tn ->
        ignore
          (Layers.timed tr "pool.create" (fun () ->
               Serve.Pool.create ~fuel:config.Serve.Server.pool_fuel ~lane_base:(1000 * (i + 1))
                 ~size:config.Serve.Server.slots ~seed:((seed * 31) + i)
                 ~policy:config.Serve.Server.policy tn)))
      tenants;
    let probe tr =
      let errors = ref [] and lines = ref [] in
      let line fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
      List.iter
        (fun (tn : Serve.Pool.tenant) ->
          let m = tn.Serve.Pool.tn_module in
          (* serving runs without elision: this is what the analysis
             would make of the tenant, off the serving path *)
          ignore (plan ~tr elided_cage m);
          nested_probe tr (instance_config ~seed cfg None) m;
          for _ = 1 to config.Serve.Server.slots do
            let imports, _ = tn.Serve.Pool.tn_imports () in
            ignore
              (Layers.timed (Some tr) "exec.instantiate" (fun () ->
                   Wasm.Exec.instantiate ~config:(instance_config ~seed cfg None) ~imports m))
          done)
        tenants;
      let calls = scaled scale 1000 in
      List.iteri
        (fun i tn ->
          pool_probe tr config ~lane_base:(1000 * (i + 1)) ~seed:((seed * 31) + i) ~calls tn)
        tenants;
      line "pool probe, %d closed-loop calls per tenant (host us):" calls;
      List.iter
        (fun (tn : Serve.Pool.tenant) ->
          let n = tn.Serve.Pool.tn_name in
          line "  %-10s acquire+restore p50 %8.1f p99 %8.1f (%d restores)   serve p50 %8.1f p99 %8.1f"
            n (percentile_us tr ("pool.restore." ^ n) 50.0)
            (percentile_us tr ("pool.restore." ^ n) 99.0)
            (Layers.calls tr ("pool.restore." ^ n))
            (percentile_us tr ("pool.serve." ^ n) 50.0)
            (percentile_us tr ("pool.serve." ^ n) 99.0))
        tenants;
      line "pool.create: %.3f ms per pool of %d slots" (1e3 *. Layers.mean tr "pool.create")
        config.Serve.Server.slots;
      (* Latency at a few fixed rates, and the highest that keeps p99
         of ok requests within the limit. Printed, not gated: one run's
         answer moves a whole rung between seeds. *)
      let ladder_requests = scaled scale (sv.requests / 2) in
      line "capacity ladder (%d requests per rate, p99 limit %d cycles):" ladder_requests
        sv.p99_limit;
      let best = ref None in
      List.iter
        (fun gap ->
          let r =
            run_server sv (server_config { sv with arrival_gap = gap } ~tenants
                             ~requests:ladder_requests ~seed) tenants
          in
          let rate = 1e6 /. float_of_int gap in
          let meets = r.Serve.Server.rp_p99_exact <= sv.p99_limit in
          if meets then best := Some rate;
          line "  gap %6d  %6.1f req/Mcycle  p50 %7d  p99 %7d  ok %5.1f%%  %s" gap rate
            r.Serve.Server.rp_p50_exact r.Serve.Server.rp_p99_exact
            (100.0 *. float_of_int r.Serve.Server.rp_ok /. float_of_int r.Serve.Server.rp_requests)
            (if meets then "meets" else "misses"))
        sv.ladder;
      line "  capacity: %s"
        (match !best with
        | Some r -> Printf.sprintf "%.1f req/Mcycle" r
        | None -> "no rate meets the limit");
      if sv.chaos then begin
        (* the committed chaos-on smoke baseline: default configuration,
           seed 42, 4000 requests, the stock tenant cast *)
        match Json.member "chaos_on" (Json.parse (Json.read_file !serve_baseline)) with
        | exception (Sys_error _ | Json.Error _) ->
            errors := Printf.sprintf "cannot read %s" !serve_baseline :: !errors
        | b ->
            let r =
              Serve.Server.run
                ~chaos:(Harness.Serve_bench.chaos_policy ~seed:42)
                { Serve.Server.default_config with Serve.Server.requests = 4000; seed = 42 }
                (Harness.Serve_bench.tenants ~seed:42 ())
            in
            let want k = Json.to_int (Json.member k b) in
            let got =
              [ ("ok", r.Serve.Server.rp_ok); ("p50_exact_cycles", r.Serve.Server.rp_p50_exact);
                ("p99_exact_cycles", r.Serve.Server.rp_p99_exact) ]
            in
            List.iter
              (fun (k, v) ->
                if v <> want k then
                  errors :=
                    Printf.sprintf "seed-42 smoke baseline: %s %d, %s has %d" k v
                      !serve_baseline (want k)
                    :: !errors)
              got;
            line "seed-42 smoke baseline: ok %d p50 %d p99 %d (%s)" r.Serve.Server.rp_ok
              r.Serve.Server.rp_p50_exact r.Serve.Server.rp_p99_exact
              (if !errors = [] then "reproduced" else "MISMATCH")
      end;
      (List.rev !lines, List.rev !errors)
    in
    {
      stage =
        (fun ~sub ->
          let config = config_for ~requests (subseed ~seed sub) in
          fun ~tr:_ ~obs ->
            let collect = if obs = Spans then Some (Serve.Slo.collector ()) else None in
            serve_rep ~requests (run_server sv ?collect config tenants));
      model = (fun _ -> model);
      probe;
      attributed =
        (fun rep ~pass:_ ~probe ->
          (* counts from the traced run times per-call means from the
             probe: an estimate, so the remainder is labelled derived *)
          match rep.report with
          | None -> 0.0
          | Some r ->
              (Layers.mean probe "pool.create" *. float_of_int (List.length tenants))
              +. List.fold_left
                   (fun acc (t : Serve.Server.tenant_report) ->
                     let n = t.Serve.Server.tr_name in
                     acc
                     +. float_of_int (served t)
                        *. (Layers.mean probe ("pool.restore." ^ n)
                           +. Layers.mean probe ("pool.serve." ^ n)))
                   0.0 r.Serve.Server.rp_tenants);
      setup_errors = [];
    }
  in
  { name; passes_per_rep = 1; rep_s; subseeded = true; prepare }

(* serve-mixed: the stock chaos-on tenant cast (compute, fuzz, and a
   malicious tenant that faults on every request). Execution dominates
   host time; crash, retry and heal all run. *)
let serve_mixed =
  let fuzz_src =
    Workloads.Fuzzgen.render (Workloads.Fuzzgen.generate ~seed:Harness.Serve_bench.fuzz_seed)
  in
  serving ~name:"serve-mixed" ~rep_s:0.95
    {
      specs =
        [
          { sp_name = "compute"; sp_weight = 6; sp_source = Harness.Serve_bench.compute_source;
            sp_init = None; sp_expect = true };
          { sp_name = "fuzz"; sp_weight = 3; sp_source = fuzz_src; sp_init = None;
            sp_expect = true };
          { sp_name = "malicious"; sp_weight = 1;
            sp_source = Harness.Serve_bench.malicious_source; sp_init = None; sp_expect = false };
        ];
      pages = Harness.Serve_bench.serve_mem_pages;
      chaos = true;
      requests = 4000;
      arrival_gap = 16_000;
      ladder = [ 32_000; 24_000; 19_000; 16_000; 13_000; 10_000 ];
      p99_limit = 100_000;
    }

(* serve-bigimage: 64-page images, chaos off. Restore dominates; a
   sparse writer (kv) beside a dense one (fill). *)
let serve_bigimage =
  serving ~name:"serve-bigimage" ~rep_s:1.0
    {
      specs =
        [
          { sp_name = "kv"; sp_weight = 3; sp_source = Embedded.kv_source; sp_init = Some "init";
            sp_expect = true };
          { sp_name = "fill"; sp_weight = 1; sp_source = Embedded.fill_source; sp_init = None;
            sp_expect = true };
        ];
      pages = 64L;
      chaos = false;
      requests = 2000;
      arrival_gap = 40_000;
      ladder = [ 40_000; 32_000; 26_000; 21_000; 17_000; 14_000 ];
      p99_limit = 250_000;
    }

let all = [ polybench; corpus; serve_mixed; serve_bigimage ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
