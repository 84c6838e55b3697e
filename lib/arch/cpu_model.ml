(** Core models for the Tensor G3 (Google Pixel 8), the paper's
    evaluation platform: one Cortex-X3, four Cortex-A715 and four
    Cortex-A510.

    The MTE/PAC per-instruction throughput and latency figures are the
    microarchitectural ground truth measured by the paper itself
    (Table 1); generic-instruction figures come from public Arm
    optimisation guides. The memory-system constants (stream bandwidth,
    MTE check penalties) are calibrated so the raw-hardware experiments
    (paper Fig. 4) reproduce, and are then {e reused unchanged} by every
    higher-level experiment. *)

type perf = {
  tp : float;   (** sustained throughput, instructions/cycle *)
  lat : float;  (** result latency, cycles *)
}

type t = {
  name : string;
  freq_ghz : float;
  inorder : bool;
  issue_width : float;   (** max instructions issued per cycle *)
  perf : Insn.kind -> perf;
  stream_bw : float;
      (** sustained streaming-store bandwidth, bytes/cycle (DRAM-bound,
          cold cache) *)
  mte_sync_store_penalty : float;
      (** fractional slowdown of checked stores under synchronous MTE
          (tag fetch serialised with the access) *)
  mte_async_store_penalty : float;
      (** fractional slowdown under asynchronous MTE (tag fetch
          off the critical path, bandwidth cost only) *)
  bounds_check_cost : float;
      (** average extra cycles per memory access for a software bounds
          check (cmp+branch); near-free on out-of-order cores that
          speculate through it, expensive in order *)
  mte_check_cost : float;
      (** average extra cycles per access for an MTE tag check on
          cache-resident data (Fig. 14 workloads), far below the
          bandwidth-bound penalty of Fig. 4 *)
  base_cpi : float;
      (** average cycles per native instruction on compiled wasm code,
          capturing the core's exploitable ILP *)
  indirect_call_cost : float;
      (** extra cycles per indirect call beyond the issued instructions:
          dispatch serialisation through the loaded, signature-checked
          target (Fig. 15's 15-22 % dynamic-dispatch cost) *)
}

let p tp lat = { tp; lat }

(* Table 1, Cortex-X3 column. *)
let x3_perf : Insn.kind -> perf = function
  | Irg -> p 1.34 1.99
  | Addg -> p 2.01 1.99
  | Subg -> p 2.01 1.99
  | Subp -> p 3.49 0.99
  | Subps -> p 2.88 0.99
  | Stg -> p 1.00 1.0
  | St2g -> p 1.00 1.0
  | Stzg -> p 1.00 1.0
  | St2zg -> p 0.34 1.0
  | Stgp -> p 1.00 1.0
  | Ldg -> p 2.92 4.0
  | Pacdza -> p 1.01 4.97
  | Pacda -> p 1.01 4.97
  | Autdza -> p 1.01 4.97
  | Autda -> p 1.01 4.97
  | Xpacd -> p 1.01 1.99
  | Alu -> p 6.0 1.0
  | Mul -> p 2.0 3.0
  | IDiv -> p 0.25 9.0
  | FAlu -> p 4.0 2.0
  | FMul -> p 4.0 4.0
  | FDiv -> p 0.25 10.0
  | Load -> p 3.0 4.0
  | Store -> p 2.0 1.0
  | Branch -> p 2.0 1.0
  | BranchIndirect -> p 1.0 2.0
  | Cmp -> p 6.0 1.0
  | Csel -> p 4.0 1.0
  | Nop -> p 8.0 0.1

(* Table 1, Cortex-A715 column. *)
let a715_perf : Insn.kind -> perf = function
  | Irg -> p 1.00 2.00
  | Addg -> p 3.81 1.00
  | Subg -> p 3.81 1.00
  | Subp -> p 3.81 1.00
  | Subps -> p 3.80 1.00
  | Stg -> p 1.81 1.0
  | St2g -> p 1.84 1.0
  | Stzg -> p 1.84 1.0
  | St2zg -> p 1.79 1.0
  | Stgp -> p 1.69 1.0
  | Ldg -> p 1.91 4.0
  | Pacdza -> p 1.51 5.00
  | Pacda -> p 1.42 5.00
  | Autdza -> p 1.51 5.00
  | Autda -> p 1.43 5.00
  | Xpacd -> p 1.56 2.00
  | Alu -> p 4.0 1.0
  | Mul -> p 2.0 3.0
  | IDiv -> p 0.2 10.0
  | FAlu -> p 2.0 2.0
  | FMul -> p 2.0 4.0
  | FDiv -> p 0.2 12.0
  | Load -> p 2.0 4.0
  | Store -> p 1.0 1.0
  | Branch -> p 1.0 1.0
  | BranchIndirect -> p 1.0 2.0
  | Cmp -> p 4.0 1.0
  | Csel -> p 2.0 1.0
  | Nop -> p 5.0 0.1

(* Table 1, Cortex-A510 column. *)
let a510_perf : Insn.kind -> perf = function
  | Irg -> p 0.50 3.00
  | Addg -> p 2.22 2.00
  | Subg -> p 2.22 2.00
  | Subp -> p 2.50 2.00
  | Subps -> p 2.50 2.00
  | Stg -> p 1.00 1.0
  | St2g -> p 0.46 1.0
  | Stzg -> p 0.98 1.0
  | St2zg -> p 0.45 1.0
  | Stgp -> p 0.98 1.0
  | Ldg -> p 0.93 4.0
  | Pacdza -> p 0.20 4.99
  | Pacda -> p 0.20 5.00
  | Autdza -> p 0.20 7.99
  | Autda -> p 0.20 7.99
  | Xpacd -> p 0.20 4.99
  | Alu -> p 2.0 1.0
  | Mul -> p 1.0 3.0
  | IDiv -> p 0.1 12.0
  | FAlu -> p 1.0 3.0
  | FMul -> p 1.0 4.0
  | FDiv -> p 0.1 14.0
  | Load -> p 1.0 3.0
  | Store -> p 1.0 1.0
  | Branch -> p 1.0 1.0
  | BranchIndirect -> p 0.5 3.0
  | Cmp -> p 2.0 1.0
  | Csel -> p 1.0 1.0
  | Nop -> p 3.0 0.1

let cortex_x3 = {
  name = "Cortex-X3";
  freq_ghz = 2.91;
  inorder = false;
  issue_width = 8.0;
  perf = x3_perf;
  stream_bw = 12.0;
  (* Fig. 4: sync memset 19.1 % slower, async 2.6 % slower. *)
  mte_sync_store_penalty = 0.191;
  mte_async_store_penalty = 0.026;
  (* §3: 6-8 % wasm64 overhead on out-of-order cores: the cmp+branch
     speculates away to a fraction of a cycle per checked access. *)
  bounds_check_cost = 0.33;
  mte_check_cost = 0.13;
  base_cpi = 0.36;
  indirect_call_cost = 2.4;
}

let cortex_a715 = {
  name = "Cortex-A715";
  freq_ghz = 2.37;
  inorder = false;
  issue_width = 5.0;
  perf = a715_perf;
  stream_bw = 10.0;
  (* Fig. 4: sync 14.4 %, async 3.3 %. *)
  mte_sync_store_penalty = 0.144;
  mte_async_store_penalty = 0.033;
  bounds_check_cost = 0.50;
  mte_check_cost = 0.13;
  base_cpi = 0.48;
  indirect_call_cost = 4.7;
}

let cortex_a510 = {
  name = "Cortex-A510";
  freq_ghz = 1.70;
  inorder = true;
  (* nominally 2-wide, but tag ops dual-issue with their address ALU
     halves, sustaining up to ~2.5/cycle (Table 1) *)
  issue_width = 2.6;
  perf = a510_perf;
  stream_bw = 8.0;
  (* Fig. 4: sync 29.9 %, async 11.3 %. *)
  mte_sync_store_penalty = 0.299;
  mte_async_store_penalty = 0.113;
  (* §3: 52 % wasm64 overhead on the in-order core — the cmp+branch
     serialises with every access. *)
  bounds_check_cost = 6.23;
  mte_check_cost = 0.22;
  base_cpi = 0.95;
  indirect_call_cost = 13.3;
}

(** The Tensor G3's three core types, in the paper's reporting order. *)
let tensor_g3 = [ cortex_x3; cortex_a715; cortex_a510 ]
