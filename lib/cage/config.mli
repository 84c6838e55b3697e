(** Runtime configurations — the benchmark variants of paper Table 3.

    A configuration fixes the pointer width, how the sandbox (external
    memory safety) is enforced, whether the internal memory-safety
    extension is active, whether function pointers are signed, and how
    the 4 MTE tag bits are split between the two uses (paper Fig. 13). *)

(** How the runtime keeps a guest inside its linear memory. *)
type sandbox =
  | Guard_pages
      (** virtual-memory trick; only sound for 32-bit pointers *)
  | Software_bounds  (** explicit cmp+branch before every access *)
  | Mte_sandbox      (** paper §6.4: per-instance tag on the heap base *)

val sandbox_to_string : sandbox -> string

type t = {
  name : string;
  ptr64 : bool;              (** memory64? *)
  sandbox : sandbox;
  internal_safety : bool;    (** segments + tag checks (Eqs. 1-10) *)
  ptr_auth : bool;           (** sign/authenticate function pointers *)
  mte_mode : Arch.Mte.mode;  (** how violations surface *)
  elide_checks : bool;
      (** skip MTE granule checks the static analyzer proved redundant;
          off in every Table 3 variant (see {!with_elision}) *)
  elide_bounds : bool;
      (** full-check elision: also skip the sandbox span check where the
          span is proven inside a created segment (see
          {!with_bounds_elision}) *)
  arena : bool;
      (** escape-driven tag-traffic elision: lower non-escaping
          [segment.new]/[segment.free] to tag-write-free arena form (see
          {!with_arena}) *)
  spec_safe_only : bool;
      (** keep checks provable architecturally but not under the
          Swivel-style speculation model (see {!with_spec_safe_only}) *)
}

(** {1 The Table 3 rows} *)

(** 32-bit, guard pages, no protection. *)
val baseline_wasm32 : t

(** 64-bit, software bounds checks. *)
val baseline_wasm64 : t

(** Baseline wasm64 plus internal memory safety (segments). *)
val mem_safety : t

(** Baseline wasm64 plus pointer authentication only. *)
val ptr_auth : t

(** MTE sandboxing replaces the software bounds checks. *)
val sandboxing : t

(** Everything combined: the CAGE row. *)
val full : t

val with_elision : t -> t
(** The same variant with static check elision switched on. The name is
    kept so reports keyed by configuration stay comparable. *)

val with_bounds_elision : t -> t
(** Tag elision plus full-check elision: accesses whose span is proven
    inside a created segment lose the bounds compare too. *)

val with_arena : t -> t
(** Tag elision plus escape-driven tag-traffic elision: non-escaping
    segments allocate through the tag-write-free arena form. *)

val with_spec_safe_only : t -> t
(** Keep every check whose proof does not survive the speculation
    model — the [--no-spec-elide] deployment mode. *)

val table3 : t list
(** All six variants, in the paper's order. *)

(** {1 Derived properties} *)

val combined : t -> bool
(** Internal safety and MTE sandboxing share the tag bits (Fig. 13b). *)

val usable_tags : t -> int
(** Distinct allocation tags the guest allocator draws from: 15
    standalone, 7 when combined with sandboxing (§7.4's collision
    probabilities 1/15 and 1/7). *)

val exclusion : t -> Arch.Tag.Exclude.t
(** The tag-exclusion set the runtime installs via prctl (§6.4): tag 0
    always (guard slots, untagged segments, runtime memory); in combined
    mode also every tag with bit 56 clear plus the guest's own untagged
    pattern. *)

val index_mask : t -> (Arch.Ptr.t -> Arch.Ptr.t) option
(** Pointer-index mask applied before effective-address computation
    (Fig. 13): full tag field when sandbox-only, bit 56 when combined,
    [None] when MTE sandboxing is off. *)

val max_sandboxes : t -> int
(** Concurrently isolated instances per process: 15 under MTE
    sandboxing, 1 in combined mode, unbounded otherwise (§6.4). *)

val instance_config :
  ?meter:Wasm.Meter.t -> ?seed:int -> ?m:Wasm.Ast.module_ ->
  ?plan:Analysis.Elide.plan -> t -> Wasm.Instance.config
(** Instance configuration implementing this variant. Given the module
    [m] to instantiate, an eliding variant also carries [m]'s whole
    elision plan (tag checks; span checks under [elide_bounds]; arena
    sites under [arena]; speculation-safe proofs only under
    [spec_safe_only]) — the one place a plan becomes instance bits.
    Planning reads [m] through the door, so for an eliding variant an
    invalid [m] raises {!Wasm.Validate.Invalid}, as instantiation
    would. A caller that already holds the plan passes it as [plan]
    (made with [~spec_safe:spec_safe_only ~arena]), and [m] is not
    planned again. *)
