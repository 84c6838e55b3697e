(** The chaos detection matrix: every fault class the chaos engine can
    inject, crossed with every MTE reporting mode and a spread of
    runtime configurations, each cell classified by what the Cage
    defenses did about the corruption.

    One cell = one victim instance running a fixed MiniC workload (heap
    traffic through malloc/free, loads and stores through tagged
    pointers, indirect calls through signed function pointers) with a
    single-site chaos policy armed, supervised by {!Cage.Supervisor},
    plus a sibling instance that must stay intact.

    Cell taxonomy:
    - [Not_triggered]: the armed site was never visited (the defense
      layer that would host the fault is not part of the config) — the
      injection budget is unspent.
    - [Detected_before]: the corrupting access itself trapped — tag
      fault, PAC authentication failure or MMU canonicality/bounds
      check — before any damaged state was consumed.
    - [Detected_after]: the fault was reported after damage landed — a
      deferred (TFSR) report at a sync point, or a trap on the first
      use of corrupted allocator metadata.
    - [Contained]: the guest crashed for a reason that is not a report
      of the injected corruption (fuel, stack, plain guest trap) — the
      supervisor still contained it.
    - [Escaped]: the injection fired and the program ran to completion
      with no report at all. Silent corruption — whether or not the
      final checksum happens to match — is exactly the failure mode the
      hardware checks exist to prevent, so a completed run with a spent
      injection budget is an escape even when the result is right
      (e.g. a dropped TFSR latch loses the only record of a real
      mismatch).

    Everything is seeded: the same seed reproduces the same matrix
    bit-for-bit, which is what lets CI diff the rendering against a
    golden file. *)

(* ------------------------------------------------------------------ *)
(* The victim workload                                                  *)
(* ------------------------------------------------------------------ *)

(* Touches every defense layer: malloc/free cycles of *different* sizes
   (a corrupted free-list link is followed, not just popped), loads and
   stores through tagged heap pointers, and indirect calls through a
   reassigned signed function pointer. Deterministic: no clock, no
   rand, no prints. *)
let victim_source =
  {|
long mix(long x) { return x * 3 + 1; }
long twist(long x) { return (x ^ 21) + 5; }
int main() {
  long acc = 7;
  long (*op)(long) = mix;
  long *buf = (long *)malloc(16 * 8);
  for (int i = 0; i < 16; i++) { buf[i] = op((long)i); }
  op = twist;
  for (int r = 0; r < 4; r++) {
    long n = 8 + (long)r * 4;
    long *tmp = (long *)malloc((unsigned long)(n * 8));
    for (int i = 0; i < 8; i++) { tmp[i] = op(buf[i + r] + (long)r); }
    for (int i = 0; i < 8; i++) { acc = acc * 31 + tmp[i]; }
    free(tmp);
  }
  for (int i = 0; i < 16; i++) { acc = acc + buf[i]; }
  free(buf);
  return (int)(((unsigned long)acc) % 1000003);
}
|}

(* ------------------------------------------------------------------ *)
(* Axes                                                                 *)
(* ------------------------------------------------------------------ *)

let sites = Arch.Fault_inject.all_sites

let configs =
  [ Cage.Config.full; Cage.Config.sandboxing; Cage.Config.baseline_wasm64 ]

let modes = Arch.Mte.[ Disabled; Sync; Async; Asymmetric ]

(* The per-row chaos policy. Single-shot for every site except
   [Tfsr_drop], which needs a corruption source — exactly ONE tag flip
   (so the flipped granule is allocator metadata the segment-free check
   never re-validates, not a whole segment that [free] would catch
   synchronously) — and then an effectively unlimited budget so
   *every* latch attempt is dropped: the lost-interrupt scenario is
   only interesting if no later retry sneaks through. *)
let policy_for site ~seed =
  match site with
  | Arch.Fault_inject.Tfsr_drop ->
      Arch.Fault_inject.policy ~seed ~max_injections:1_000_000
        ~site_max:[ (Arch.Fault_inject.Tag_flip, 1) ]
        [ Arch.Fault_inject.Tag_flip; Arch.Fault_inject.Tfsr_drop ]
  | s -> Arch.Fault_inject.policy ~seed [ s ]

(* ------------------------------------------------------------------ *)
(* Cells                                                                *)
(* ------------------------------------------------------------------ *)

type cell =
  | Not_triggered
  | Detected_before
  | Detected_after
  | Contained
  | Escaped

let cell_to_string = function
  | Not_triggered -> "-"
  | Detected_before -> "before"
  | Detected_after -> "after"
  | Contained -> "contained"
  | Escaped -> "ESCAPED"

type result = {
  r_site : Arch.Fault_inject.site;
  r_config : Cage.Config.t;
  r_mode : Arch.Mte.mode;
  r_cell : cell;
  r_class : Cage.Supervisor.fault_class option;  (** [None] = finished *)
  r_injections : int;
  r_sibling_ok : bool;
}

let classify ~site ~injections (outcome : Cage.Supervisor.outcome) =
  if injections = 0 then Not_triggered
  else
    match outcome with
    | Cage.Supervisor.Finished _ -> Escaped
    | Cage.Supervisor.Crashed pm -> (
        match pm.Cage.Supervisor.pm_class with
        | Cage.Supervisor.Tag_fault | Cage.Supervisor.Pac_auth ->
            Detected_before
        | Cage.Supervisor.Bounds ->
            (* A scribbled free-list link is caught on *use*, after the
               metadata was already destroyed; every other bounds trap
               fires on the corrupted access itself. *)
            if site = Arch.Fault_inject.Heap_scribble then Detected_after
            else Detected_before
        | Cage.Supervisor.Deferred_tag_fault -> Detected_after
        | _ -> Contained)

(* ------------------------------------------------------------------ *)
(* Running                                                              *)
(* ------------------------------------------------------------------ *)

(* Enough for thousands of victim iterations, small enough that a
   corruption-induced runaway is cut off quickly and deterministically. *)
let watchdog_fuel = 2_000_000

let spawn_guest sup m =
  Cage.Supervisor.spawn ~imports:(Libc.Wasi.imports (Libc.Wasi.create ())) sup m

(* The sibling shares the victim's process whenever the configuration's
   §6.4 sandbox capacity allows a second instance; combined mode
   isolates exactly one instance per process, so there the sibling gets
   its own process (trivially isolated, still supervised). *)
let spawn_sibling sup (cfg : Cage.Config.t) ~seed m =
  try spawn_guest sup m
  with Cage.Sandbox.Too_many_sandboxes ->
    let proc = Cage.Process.create ~config:cfg ~seed () in
    Cage.Process.spawn
      ~imports:(Libc.Wasi.imports (Libc.Wasi.create ()))
      proc m

let run_main sup inst = Cage.Supervisor.run sup inst "main" []

let i32_of = function
  | Cage.Supervisor.Finished [ Wasm.Values.I32 v ] -> Some v
  | _ -> None

(* Chaos-free checksum of [m]'s main under [cfg]. *)
let reference (cfg : Cage.Config.t) ~seed m =
  let proc = Cage.Process.create ~config:cfg ~seed () in
  let sup = Cage.Supervisor.create ~fuel:watchdog_fuel proc in
  match i32_of (run_main sup (spawn_guest sup m)) with
  | Some v -> v
  | None -> failwith "detection matrix: chaos-free reference run crashed"

let run_cell ~seed ~index ~m ~reference site (cfg : Cage.Config.t) mode =
  let cfg_m = { cfg with Cage.Config.mte_mode = mode } in
  let proc = Cage.Process.create ~config:cfg_m ~seed:(seed + index) () in
  let sup = Cage.Supervisor.create ~fuel:watchdog_fuel proc in
  let victim = spawn_guest sup m in
  let sibling = spawn_sibling sup cfg_m ~seed:(seed + index + 5000) m in
  let engine =
    Arch.Fault_inject.create (policy_for site ~seed:(seed + (31 * index)))
  in
  Wasm.Instance.arm victim (Arch.Fault_inject.lane engine 0);
  let outcome = run_main sup victim in
  let injections = Arch.Fault_inject.count engine in
  (* The sibling is unarmed and runs chaos-free: a quarantined victim
     must not have poisoned it. *)
  let sibling_ok =
    (match i32_of (run_main sup sibling) with
    | Some v -> Int32.equal v reference
    | None -> false)
    && not (Cage.Supervisor.is_quarantined sup sibling)
  in
  {
    r_site = site;
    r_config = cfg;
    r_mode = mode;
    r_cell = classify ~site ~injections outcome;
    r_class =
      (match outcome with
      | Cage.Supervisor.Finished _ -> None
      | Cage.Supervisor.Crashed pm -> Some pm.Cage.Supervisor.pm_class);
    r_injections = injections;
    r_sibling_ok = sibling_ok;
  }

let default_seed = 7

(** Run the whole matrix. Deterministic in [seed]. [variant] is applied
    to every configuration first; with an elision plan switched on the
    classifications (and therefore the golden rendering) must come out
    identical, because elision only ever skips checks on accesses the
    analyzer proved cannot fault. *)
let run ?(seed = default_seed) ?(variant = Fun.id) () =
  (* One compile and one chaos-free reference per configuration (the
     compile does not depend on the MTE mode), forced at the
     configuration's first cell so instances are created in the same
     order on every run. *)
  let prepared =
    List.map
      (fun cfg ->
        let m = lazy (Libc.Run.compile cfg victim_source).Minic.Driver.co_module in
        (cfg, m, lazy (reference cfg ~seed:(seed + 7919) (Lazy.force m))))
      (List.map variant configs)
  in
  let index = ref 0 in
  List.concat_map
    (fun site ->
      List.concat_map
        (fun (cfg, m, reference) ->
          List.map
            (fun mode ->
              incr index;
              let reference = Lazy.force reference in
              run_cell ~seed ~index:!index ~m:(Lazy.force m) ~reference site
                cfg mode)
            modes)
        prepared)
    sites

(* ------------------------------------------------------------------ *)
(* Gate + rendering                                                     *)
(* ------------------------------------------------------------------ *)

(** Hard-constraint violations: an [Escaped] cell under the full Cage
    configuration in Sync mode, or any poisoned sibling anywhere. *)
let violations results =
  List.filter_map
    (fun r ->
      let where =
        Printf.sprintf "%s x %s x %s"
          (Arch.Fault_inject.site_to_string r.r_site)
          r.r_config.Cage.Config.name
          (Arch.Mte.mode_to_string r.r_mode)
      in
      if
        r.r_cell = Escaped
        && r.r_config.Cage.Config.name = Cage.Config.full.Cage.Config.name
        && r.r_mode = Arch.Mte.Sync
      then Some (Printf.sprintf "escape under full cage in sync mode: %s" where)
      else if not r.r_sibling_ok then
        Some (Printf.sprintf "sibling poisoned: %s" where)
      else None)
    results

let count_cells results cell =
  List.length (List.filter (fun r -> r.r_cell = cell) results)

(** Render the matrix as a table: one row per (site, config), one
    column per MTE mode. Contains nothing run-dependent beyond the
    classifications, so a fixed seed gives byte-identical output (the
    golden-file CI check relies on this). *)
let render ?(seed = default_seed) ppf results =
  Report.title ppf "Chaos detection matrix (seed %d)" seed;
  let cell_text r =
    cell_to_string r.r_cell ^ if r.r_sibling_ok then "" else "(sib!)"
  in
  let rows =
    List.concat_map
      (fun site ->
        List.map
          (fun (cfg : Cage.Config.t) ->
            Arch.Fault_inject.site_to_string site
            :: cfg.Cage.Config.name
            :: List.map
                 (fun mode ->
                   match
                     List.find_opt
                       (fun r ->
                         r.r_site = site && r.r_mode = mode
                         && r.r_config.Cage.Config.name = cfg.Cage.Config.name)
                       results
                   with
                   | Some r -> cell_text r
                   | None -> "?")
                 modes)
          configs)
      sites
  in
  Report.table ppf
    ~header:
      ("fault" :: "config" :: List.map Arch.Mte.mode_to_string modes)
    rows;
  Format.fprintf ppf "  cells: %d  triggered: %d@." (List.length results)
    (List.length (List.filter (fun r -> r.r_injections > 0) results));
  Format.fprintf ppf
    "  before: %d  after: %d  contained: %d  escaped: %d  not-triggered: %d@."
    (count_cells results Detected_before)
    (count_cells results Detected_after)
    (count_cells results Contained)
    (count_cells results Escaped)
    (count_cells results Not_triggered);
  let v = violations results in
  Format.fprintf ppf "  gate: %s@."
    (if v = [] then "PASS (no full+sync escapes, no poisoned siblings)"
     else "FAIL");
  List.iter (fun msg -> Format.fprintf ppf "    %s@." msg) v

(* ------------------------------------------------------------------ *)
(* Chaos fuzzing                                                        *)
(* ------------------------------------------------------------------ *)

type fuzz_stats = {
  fz_runs : int;
  fz_finished : int;
  fz_crashed : int;
  fz_injected : int;       (** runs where at least one fault fired *)
  fz_failures : string list;
      (** supervisor-invariant violations; empty = pass *)
}

(* The supervisor invariant the fuzzer asserts, per seeded program:
   - the victim run returns an outcome — no OCaml exception escapes
     [Supervisor.run], ever;
   - with zero injections the victim's result equals the Fuzzgen
     reference value (differential check);
   - the sibling instance finishes with the reference value afterwards
     — a quarantined victim never poisons its sibling.
   Victim *correctness* under injection is deliberately not asserted:
   e.g. a heap scribble that lands in a recycled stack slot is silent
   data corruption by design, and containment — not correctness — is
   the supervisor's contract. *)
let chaos_fuzz ?(seed = 0xC405) ~count () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let finished = ref 0 and crashed = ref 0 and injected = ref 0 in
  for i = 0 to count - 1 do
    let pseed = seed + i in
    match
      let prog = Workloads.Fuzzgen.generate ~seed:pseed in
      let source = Workloads.Fuzzgen.render prog in
      let expected = Workloads.Fuzzgen.reference prog in
      let mode = List.nth modes (i mod List.length modes) in
      let cfg = { Cage.Config.full with Cage.Config.mte_mode = mode } in
      let m = (Libc.Run.compile cfg source).Minic.Driver.co_module in
      let proc = Cage.Process.create ~config:cfg ~seed:pseed () in
      let sup = Cage.Supervisor.create ~fuel:watchdog_fuel proc in
      let victim = spawn_guest sup m in
      let sibling = spawn_sibling sup cfg ~seed:(pseed + 5000) m in
      (* Every fifth seed runs with a zero budget: those runs exercise
         the chaos-free differential check against the Fuzzgen
         reference interpreter. *)
      let engine =
        Arch.Fault_inject.create
          (Arch.Fault_inject.policy ~seed:pseed ~probability:0.01
             ~max_injections:(if i mod 5 = 0 then 0 else 4)
             Arch.Fault_inject.all_sites)
      in
      Wasm.Instance.arm victim (Arch.Fault_inject.lane engine 0);
      (match run_main sup victim with
      | Cage.Supervisor.Finished _ as o ->
          incr finished;
          if Arch.Fault_inject.count engine = 0 then (
            match i32_of o with
            | Some v when Int32.equal v expected -> ()
            | _ -> fail "seed %d: chaos-free run diverged from reference" pseed)
      | Cage.Supervisor.Crashed _ -> incr crashed
      | exception e ->
          fail "seed %d: OCaml exception escaped the supervisor: %s" pseed
            (Printexc.to_string e));
      if Arch.Fault_inject.count engine > 0 then incr injected;
      match run_main sup sibling with
      | o -> (
          match i32_of o with
          | Some v when Int32.equal v expected -> ()
          | Some _ -> fail "seed %d: sibling result poisoned" pseed
          | None -> fail "seed %d: sibling crashed after victim chaos" pseed)
      | exception e ->
          fail "seed %d: OCaml exception escaped the sibling run: %s" pseed
            (Printexc.to_string e)
    with
    | () -> ()
    | exception e ->
        fail "seed %d: harness exception: %s" pseed (Printexc.to_string e)
  done;
  {
    fz_runs = count;
    fz_finished = !finished;
    fz_crashed = !crashed;
    fz_injected = !injected;
    fz_failures = List.rev !failures;
  }

let pp_fuzz_stats ppf s =
  Format.fprintf ppf
    "chaos fuzz: %d runs, %d finished, %d crashed-and-contained, %d with \
     injections, %d invariant failures"
    s.fz_runs s.fz_finished s.fz_crashed s.fz_injected
    (List.length s.fz_failures)
