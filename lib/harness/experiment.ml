(** Experiment runners — one per table/figure of the paper.

    Each runner executes the real workloads through the toolchain
    (compile under the Table 3 configuration, interpret, meter) and
    prices the metered runs on the three Tensor G3 core models. Paper
    values are carried alongside so every report prints
    paper-vs-measured. *)

open Workloads

let cores = Arch.Cpu_model.tensor_g3

(* ------------------------------------------------------------------ *)
(* Fig. 14: PolyBench runtime overheads                                *)
(* ------------------------------------------------------------------ *)

type poly_run = {
  pr_kernel : string;
  pr_config : Cage.Config.t;
  pr_meter : Wasm.Meter.t;
}

(** Execute every kernel under every Table 3 configuration, collecting
    the metered event counts. Checksums are compared across
    configurations as a built-in differential test. *)
let run_polybench ?(kernels = Polybench.all) () : poly_run list =
  List.concat_map
    (fun (kernel : Polybench.kernel) ->
      let runs =
        List.map
          (fun cfg ->
            let meter = Wasm.Meter.create () in
            let r = Libc.Run.run ~cfg ~meter kernel.k_source in
            (cfg, meter, Libc.Run.ret_i32 r))
          Cage.Config.table3
      in
      (match runs with
      | (_, _, first) :: rest ->
          List.iter
            (fun (cfg, _, v) ->
              if v <> first then
                failwith
                  (Printf.sprintf "%s: %s disagrees with baseline (%ld vs %ld)"
                     kernel.k_name cfg.Cage.Config.name v first))
            rest
      | [] -> ());
      List.map
        (fun (cfg, meter, _) ->
          { pr_kernel = kernel.k_name; pr_config = cfg; pr_meter = meter })
        runs)
    kernels

type fig14_cell = {
  fc_config : string;
  fc_core : string;
  fc_mean : float;  (** mean overhead vs wasm64, percent *)
  fc_std : float;
  fc_paper : float option;  (** the paper's reported mean, percent *)
}

(* §7.2's headline numbers, per core in tensor_g3 order. *)
let paper_fig14 = function
  | "Cage-mem-safety" -> Some [ 3.6; 5.6; 1.5 ]
  | "Cage-sandboxing" -> Some [ -3.7; -5.1; -33.9 ]
  | "CAGE" -> Some [ -2.1; -4.5; -29.2 ]
  | "baseline wasm32" -> Some [ -7.0; -7.0; -34.0 ]
      (* §3: wasm64 costs 6-8 % (OoO) / 52 % (in-order) over wasm32,
         i.e. wasm32 ≈ -7 % / -34 % normalised to wasm64 *)
  | _ -> None

(** The Fig. 14 matrix: per configuration and core, mean ± std runtime
    overhead of the PolyBench suite normalised to baseline wasm64. *)
let fig14 ?kernels () : fig14_cell list * (string * string * string * float) list =
  let runs = run_polybench ?kernels () in
  let kernels_names =
    List.sort_uniq String.compare (List.map (fun r -> r.pr_kernel) runs)
  in
  (* per-kernel per-core per-config seconds *)
  let time kernel cfg core =
    let r =
      List.find
        (fun r ->
          String.equal r.pr_kernel kernel
          && String.equal r.pr_config.Cage.Config.name cfg)
        runs
    in
    Cage.Lowering.seconds core r.pr_config r.pr_meter
  in
  let detail = ref [] in
  let cells =
    List.concat_map
      (fun (cfg : Cage.Config.t) ->
        if String.equal cfg.name "baseline wasm64" then []
        else
          List.mapi
            (fun core_i core ->
              let overheads =
                List.map
                  (fun kernel ->
                    let base = time kernel "baseline wasm64" core in
                    let t = time kernel cfg.name core in
                    let ov = 100.0 *. ((t /. base) -. 1.0) in
                    detail :=
                      (kernel, cfg.name, core.Arch.Cpu_model.name, ov)
                      :: !detail;
                    ov)
                  kernels_names
              in
              let mean, std = Report.mean_std overheads in
              {
                fc_config = cfg.name;
                fc_core = core.Arch.Cpu_model.name;
                fc_mean = mean;
                fc_std = std;
                fc_paper =
                  Option.map
                    (fun l -> List.nth l core_i)
                    (paper_fig14 cfg.name);
              })
            cores)
      Cage.Config.table3
  in
  (cells, List.rev !detail)

(* ------------------------------------------------------------------ *)
(* §7.3 memory overhead                                                *)
(* ------------------------------------------------------------------ *)

type mem_row = {
  mr_kernel : string;
  mr_rss32 : int64;   (** bytes: data + stack + heap actually used *)
  mr_rss64 : int64;
  mr_cage : int64;    (** wasm64 rss + 1/32 tag storage *)
}

(* Read the allocator's break pointer out of the instance to get the
   heap bytes actually used (the rss analogue). *)
let measure_rss cfg (kernel : Polybench.kernel) =
  let r = Libc.Run.run ~cfg kernel.k_source in
  let ir = r.Libc.Run.compiled.co_ir in
  let brk_addr =
    match
      List.find_opt
        (fun g -> String.equal g.Minic.Ir.gv_name "__brk")
        ir.Minic.Ir.pr_globals
    with
    | Some g -> g.Minic.Ir.gv_addr
    | None -> failwith "no __brk global"
  in
  let mem = Wasm.Instance.memory r.Libc.Run.instance in
  let brk = Wasm.Memory.load_i64 mem brk_addr in
  let heap_base =
    let g =
      List.find
        (fun g -> String.equal g.Minic.Ir.gv_name "__heap_base")
        ir.Minic.Ir.pr_globals
    in
    Wasm.Memory.load_i64 mem g.Minic.Ir.gv_addr
  in
  let heap_used = if brk = 0L then 0L else Int64.sub brk heap_base in
  (* static data + shadow stack + live heap *)
  Int64.add ir.Minic.Ir.pr_data_end (Int64.add 65536L heap_used)

(* A pointer-dense workload: PolyBench kernels store no pointers in
   memory, so their footprint is width-independent; real programs (and
   the paper's 0.6 % mean) grow a little when pointers double. *)
let ptr_tree_workload : Polybench.kernel =
  {
    Polybench.k_name = "ptr-tree";
    k_flops = "pointer-chasing";
    k_source =
      {|
        struct Node {
          struct Node *left;
          struct Node *right;
          struct Node *parent;
          int depth;
        };
        struct Node *build(struct Node *parent, int depth) {
          struct Node *nd = (struct Node *)malloc(sizeof(struct Node));
          nd->parent = parent;
          nd->depth = depth;
          if (depth > 0) {
            nd->left = build(nd, depth - 1);
            nd->right = build(nd, depth - 1);
          } else {
            nd->left = (struct Node *)0;
            nd->right = (struct Node *)0;
          }
          return nd;
        }
        int count(struct Node *nd) {
          if (nd == (struct Node *)0) { return 0; }
          return 1 + count(nd->left) + count(nd->right);
        }
        int main() {
          struct Node *root = build((struct Node *)0, 9);
          return count(root);
        }
      |};
  }

let memory_overhead ?(kernels = Polybench.all) () : mem_row list =
  List.map
    (fun (kernel : Polybench.kernel) ->
      let rss32 = measure_rss Cage.Config.baseline_wasm32 kernel in
      let rss64 = measure_rss Cage.Config.baseline_wasm64 kernel in
      let cage = Int64.add rss64 (Int64.div rss64 32L) in
      { mr_kernel = kernel.k_name; mr_rss32 = rss32; mr_rss64 = rss64;
        mr_cage = cage })
    (kernels @ [ ptr_tree_workload ])

(* ------------------------------------------------------------------ *)
(* §7.4 tag-collision probability                                      *)
(* ------------------------------------------------------------------ *)

type collision_row = {
  cr_label : string;
  cr_theory : float;
  cr_measured : float;
}

(** Monte-Carlo estimate of the probability that two independently
    tagged allocations draw the same tag, under the standalone (15-tag)
    and sandbox-combined (7-tag) exclusion sets. *)
let tag_collisions ?(trials = 200_000) () : collision_row list =
  let rng = Random.State.make [| 2025 |] in
  let estimate exclude =
    let hits = ref 0 in
    for _ = 1 to trials do
      let a = Arch.Tag.irg exclude ~rng:(fun n -> Random.State.int rng n) in
      let b = Arch.Tag.irg exclude ~rng:(fun n -> Random.State.int rng n) in
      if Arch.Tag.equal a b then incr hits
    done;
    float_of_int !hits /. float_of_int trials
  in
  [
    {
      cr_label = "internal only (15 tags)";
      cr_theory = 1.0 /. 15.0;
      cr_measured = estimate (Cage.Config.exclusion Cage.Config.mem_safety);
    };
    {
      cr_label = "internal + sandboxing (7 tags)";
      cr_theory = 1.0 /. 7.0;
      cr_measured = estimate (Cage.Config.exclusion Cage.Config.full);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §4)                                            *)
(* ------------------------------------------------------------------ *)

type sanitizer_ablation = {
  sa_kernel : string;
  sa_selective : int;   (** slots instrumented by Algorithm 1 *)
  sa_all : int;         (** slots instrumented without the filter *)
  sa_unoptimised : int; (** slots instrumented when the sanitizer runs
                            before the optimiser (§6.1 ordering) *)
  sa_runtime_cost : float;
      (** X3 runtime of instrument-all relative to Algorithm 1 (1.0 =
          same; the price of skipping the analysis) *)
}

let sanitizer_ablation ?(programs = Stackbench.programs) () =
  List.map
    (fun (p : Stackbench.program) ->
      let opts = Minic.Driver.options_of_config Cage.Config.mem_safety in
      let prelude = Libc.Source.prelude_of_config Cage.Config.mem_safety in
      let stats o =
        (Minic.Driver.compile ~opts:o ~prelude p.s_source).co_sanitizer
          .Minic.Stack_sanitizer.instrumented
      in
      let runtime instrument_all =
        let meter = Wasm.Meter.create () in
        let opts = { opts with Minic.Driver.instrument_all } in
        let compiled = Minic.Driver.compile ~opts ~prelude p.s_source in
        let wasi = Libc.Wasi.create () in
        let config =
          Cage.Config.instance_config ~meter Cage.Config.mem_safety
        in
        let inst =
          Wasm.Exec.instantiate ~config ~imports:(Libc.Wasi.imports wasi)
            compiled.co_module
        in
        ignore (Wasm.Exec.invoke inst "main" []);
        Cage.Lowering.seconds Arch.Cpu_model.cortex_x3 Cage.Config.mem_safety
          meter
      in
      {
        sa_kernel = p.s_name;
        sa_selective = stats opts;
        sa_all = stats { opts with Minic.Driver.instrument_all = true };
        sa_unoptimised = stats { opts with Minic.Driver.optimize = false };
        sa_runtime_cost = runtime true /. runtime false;
      })
    programs

(** Guard-slot ablation: adjacent stack frames with and without the
    untagged guard slot (Fig. 8b). Returns (with_guard_catches,
    without_guard_catch_rate over seeds). *)
let guard_slot_ablation ?(seeds = 64) () =
  (* a frame whose first slot is instrumented, called twice so frames
     n and n+1 are adjacent; the callee overflows backwards into the
     caller's last slot *)
  let source = {|
      long poke(long *out, int idx) {
        long buf[2];
        buf[0] = 7; buf[1] = 8;
        out[0] = buf[idx];   /* idx = -1 underflows into the
                                preceding frame region */
        return buf[0];
      }
      int main() {
        long spill[2];
        spill[0] = 0; spill[1] = 0;
        poke(spill, -1);
        return (int)spill[0];
      }
    |}
  in
  let caught = ref 0 in
  for seed = 0 to seeds - 1 do
    match Libc.Run.run ~cfg:Cage.Config.mem_safety ~seed source with
    | (_ : Libc.Run.result) -> ()
    | exception Wasm.Instance.Trap _ -> incr caught
  done;
  float_of_int !caught /. float_of_int seeds

(* ------------------------------------------------------------------ *)
(* Sandbox capacity & escape experiments                               *)
(* ------------------------------------------------------------------ *)

type escape_result = {
  er_strategy : string;
  er_escaped : bool;
  er_outcome : string;
}

(** CVE-2023-26489 style: the compiler "forgot" the bounds check; an
    OOB index targets a neighbour instance's secret. *)
let sandbox_escape () : escape_result list =
  List.map
    (fun (cfg, label) ->
      let host = Cage.Sandbox.create ~config:cfg ~size:(1 lsl 20) () in
      let victim = Cage.Sandbox.add_instance host ~size:65536 in
      let attacker = Cage.Sandbox.add_instance host ~size:65536 in
      Cage.Sandbox.poke host victim ~index:128L 0xdeadbeefL;
      (* attacker reads index (victim.base - attacker.base) + 128 *)
      let index =
        Int64.add
          (Int64.sub victim.Cage.Sandbox.base attacker.Cage.Sandbox.base)
          128L
      in
      let outcome =
        Cage.Sandbox.guest_load ~buggy_lowering:true host attacker ~index
      in
      let escaped =
        match outcome with
        | Cage.Sandbox.Value v -> Int64.equal v 0xdeadbeefL
        | _ -> false
      in
      {
        er_strategy = label;
        er_escaped = escaped;
        er_outcome =
          (match outcome with
          | Cage.Sandbox.Value v -> Printf.sprintf "read 0x%Lx" v
          | Cage.Sandbox.Bounds_trap -> "bounds check trapped"
          | Cage.Sandbox.Segfault -> "guard page fault"
          | Cage.Sandbox.Tag_fault _ -> "MTE tag fault");
      })
    [
      (Cage.Config.baseline_wasm64, "software bounds (buggy lowering)");
      (Cage.Config.sandboxing, "MTE sandboxing (same buggy lowering)");
    ]

(* ------------------------------------------------------------------ *)
(* MTE mode ablation (§2.3 / Fig. 2 / DESIGN ablation 4)               *)
(* ------------------------------------------------------------------ *)

type mode_row = {
  md_mode : Arch.Mte.mode;
  md_outcome : string;
  md_detected : bool;        (** violation detected at all *)
  md_before_damage : bool;   (** detected before the bad write landed *)
  md_polybench_cost : float; (** gemm overhead vs Sync on the X3, percent *)
}

(** Run a heap overflow under each MTE checking mode. Synchronous mode
    traps before the write; asynchronous mode lets the write land and
    reports at the next context switch (the TFSR poll); asymmetric
    checks writes synchronously. The cost column re-prices a PolyBench
    kernel under each mode. *)
let mte_modes () : mode_row list =
  let source = {|
      int main() {
        char *buf = (char *)malloc(16);
        buf[17] = 65;            /* out-of-bounds write */
        return (int)buf[2];      /* victim continues running */
      }
    |}
  in
  let gemm =
    match Polybench.find "gemm" with Some k -> k | None -> assert false
  in
  let price mode =
    let meter = Wasm.Meter.create () in
    let cfg = { Cage.Config.mem_safety with Cage.Config.mte_mode = mode } in
    ignore (Libc.Run.run ~cfg ~meter gemm.k_source);
    (* async tag fetches stay off the critical path: approximate by the
       Fig. 4 penalty ratio applied to the tag-check component *)
    let cpu = Arch.Cpu_model.cortex_x3 in
    let base = Cage.Lowering.seconds cpu Cage.Config.mem_safety meter in
    match mode with
    | Arch.Mte.Sync | Arch.Mte.Asymmetric -> base
    | Arch.Mte.Async ->
        let accesses = float_of_int (Wasm.Meter.mem_accesses meter) in
        let saved =
          accesses
          *. cpu.Arch.Cpu_model.mte_check_cost
          *. (1.0
             -. (cpu.Arch.Cpu_model.mte_async_store_penalty
                /. cpu.Arch.Cpu_model.mte_sync_store_penalty))
        in
        base -. (saved /. (cpu.Arch.Cpu_model.freq_ghz *. 1e9))
    | Arch.Mte.Disabled -> base
  in
  let sync_cost = price Arch.Mte.Sync in
  List.map
    (fun mode ->
      let cfg = { Cage.Config.mem_safety with Cage.Config.mte_mode = mode } in
      let outcome, detected, before =
        match Libc.Run.run ~cfg source with
        | r -> (
            (* the run completed: poll the TFSR at "context switch" *)
            let mte = Wasm.Instance.mte r.Libc.Run.instance in
            match Arch.Mte.context_switch mte with
            | Some f ->
                (Format.asprintf "completed; TFSR set (%a)" Arch.Mte.pp_fault f,
                 true, false)
            | None -> ("completed; violation unnoticed", false, false))
        | exception Wasm.Instance.Trap msg ->
            (* The interpreter drains the sticky TFSR at synchronization
               points (function returns / host calls) and reports deferred
               Async/Asymmetric faults as traps prefixed "deferred": those
               are detections *after* the damaging access took effect. *)
            if String.starts_with ~prefix:"deferred" msg then
              ("deferred trap at sync point: " ^ msg, true, false)
            else ("trapped immediately: " ^ msg, true, true)
      in
      {
        md_mode = mode;
        md_outcome = outcome;
        md_detected = detected;
        md_before_damage = before;
        md_polybench_cost = 100.0 *. ((price mode /. sync_cost) -. 1.0);
      })
    [ Arch.Mte.Sync; Arch.Mte.Asymmetric; Arch.Mte.Async; Arch.Mte.Disabled ]

(** §6.4: at most 15 sandboxes per process under MTE. *)
let sandbox_capacity () =
  let host = Cage.Sandbox.create ~config:Cage.Config.sandboxing
      ~size:(1 lsl 21) () in
  let rec spawn n =
    match Cage.Sandbox.add_instance host ~size:4096 with
    | (_ : Cage.Sandbox.instance_region) -> spawn (n + 1)
    | exception Cage.Sandbox.Too_many_sandboxes -> n
  in
  spawn 0
