(** The native-instruction vocabulary used for cost accounting.

    The Cage lowering layer ({!Cage.Lowering} in the paper's wasmtime
    backend) turns wasm operations into AArch64 instruction mixes; the
    timing model ({!Timing}) prices those mixes using the per-core
    throughput/latency parameters in {!Cpu_model}. Only the instruction
    {e kinds} matter for pricing, plus register dependencies for
    latency-bound streams. *)

(** Instruction kinds. The MTE and PAC kinds correspond one-to-one to the
    rows of the paper's Table 1. *)
type kind =
  (* MTE *)
  | Irg      (** insert random tag *)
  | Addg     (** add to address and tag *)
  | Subg     (** subtract from address and tag *)
  | Subp     (** subtract pointers *)
  | Subps    (** subtract pointers, setting flags *)
  | Stg      (** store allocation tag (16-byte granule) *)
  | St2g     (** store allocation tag, two granules *)
  | Stzg     (** store tag and zero data *)
  | St2zg    (** store tag and zero data, two granules *)
  | Stgp     (** store tag and pair of registers *)
  | Ldg      (** load allocation tag *)
  (* PAC *)
  | Pacdza   (** sign data pointer, zero modifier *)
  | Pacda    (** sign data pointer, register modifier *)
  | Autdza   (** authenticate data pointer, zero modifier *)
  | Autda    (** authenticate data pointer, register modifier *)
  | Xpacd    (** strip signature *)
  (* Generic AArch64 *)
  | Alu      (** simple integer op: add/sub/logical/mov *)
  | Mul      (** integer multiply *)
  | IDiv     (** integer divide *)
  | FAlu     (** FP add/sub *)
  | FMul     (** FP multiply / fused multiply-add *)
  | FDiv     (** FP divide *)
  | Load     (** load from memory *)
  | Store    (** store to memory *)
  | Branch   (** conditional/unconditional branch *)
  | BranchIndirect (** indirect branch (blr) *)
  | Cmp      (** compare *)
  | Csel     (** conditional select *)
  | Nop

let kind_to_string = function
  | Irg -> "irg" | Addg -> "addg" | Subg -> "subg" | Subp -> "subp"
  | Subps -> "subps" | Stg -> "stg" | St2g -> "st2g" | Stzg -> "stzg"
  | St2zg -> "st2zg" | Stgp -> "stgp" | Ldg -> "ldg"
  | Pacdza -> "pacdza" | Pacda -> "pacda" | Autdza -> "autdza"
  | Autda -> "autda" | Xpacd -> "xpacd"
  | Alu -> "alu" | Mul -> "mul" | IDiv -> "idiv" | FAlu -> "falu"
  | FMul -> "fmul"
  | FDiv -> "fdiv" | Load -> "load" | Store -> "store"
  | Branch -> "branch" | BranchIndirect -> "br-ind" | Cmp -> "cmp"
  | Csel -> "csel" | Nop -> "nop"

(** All Table 1 instruction kinds, in the paper's row order. *)
let table1_kinds =
  [ Irg; Addg; Subg; Subp; Subps; Stg; St2g; Stzg; St2zg; Stgp; Ldg;
    Pacdza; Pacda; Autdza; Autda; Xpacd ]

(** Whether the kind has a measurable result latency in Table 1 (tag
    stores are throughput-only in the paper). *)
let has_latency = function
  | Stg | St2g | Stzg | St2zg | Stgp | Ldg | Store -> false
  | _ -> true

(** An instruction for the timing simulator: a kind plus register
    dependencies. Registers are small integers; [dst = None] for
    instructions producing no register result. *)
type t = { kind : kind; dst : int option; srcs : int list }

let make ?dst ?(srcs = []) kind = { kind; dst; srcs }

(** [independent kind n] is a stream of [n] instructions with no
    data dependencies — the paper's throughput microbenchmark. *)
let independent kind n =
  List.init n (fun i -> { kind; dst = Some (i mod 24); srcs = [] })

(** [dependent kind n] chains each instruction's source to the previous
    destination — the paper's latency microbenchmark. *)
let dependent kind n =
  List.init n (fun i ->
      { kind; dst = Some ((i + 1) mod 2); srcs = [ i mod 2 ] })

(** Bytes of data written to memory by one instruction of this kind
    (for bandwidth modelling); tag-only stores write to the tag PA
    space instead, see {!tag_bytes_written}. *)
let data_bytes_written = function
  | Store -> 16 (* modelled as a 128-bit stp, as memset loops use *)
  | Stzg -> 16
  | St2zg -> 32
  | Stgp -> 16
  | _ -> 0

