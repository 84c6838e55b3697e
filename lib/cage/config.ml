(** Runtime configurations — the benchmark variants of paper Table 3.

    A configuration fixes the pointer width, how the sandbox (external
    memory safety) is enforced, whether the internal memory-safety
    extension is active, whether function pointers are signed, and how
    the 4 MTE tag bits are split between the two uses (paper Fig. 13):

    - internal only: all 4 bits for allocation tags, tag 0 reserved for
      guard slots/untagged segments → 15 usable tags, collision
      probability 1/15;
    - internal + MTE sandboxing: bit 56 distinguishes runtime (0) from
      guest (1) memory, bits 57-59 carry allocation tags → 7 usable
      guest tags (the all-zero internal pattern is the guest's
      "untagged"), collision probability 1/7. *)

type sandbox =
  | Guard_pages
      (** virtual-memory trick; only sound for 32-bit pointers *)
  | Software_bounds  (** explicit cmp+branch before every access *)
  | Mte_sandbox      (** paper §6.4: per-instance tag on the heap base *)

let sandbox_to_string = function
  | Guard_pages -> "guard-pages"
  | Software_bounds -> "software-bounds"
  | Mte_sandbox -> "mte"

type t = {
  name : string;
  ptr64 : bool;              (** memory64? *)
  sandbox : sandbox;
  internal_safety : bool;    (** segments + tag checks (Eqs. 1-10) *)
  ptr_auth : bool;           (** sign/authenticate function pointers *)
  mte_mode : Arch.Mte.mode;  (** how violations surface *)
  elide_checks : bool;
      (** skip MTE granule checks the static analyzer proved redundant
          (accesses in-bounds on definitely-live segments); off by
          default in every Table 3 variant *)
  elide_bounds : bool;
      (** full-check elision: also skip the sandbox span check where the
          analyzer proved the access inside a created segment (which
          itself lies inside linear memory); requires [elide_checks] *)
  arena : bool;
      (** escape-driven tag-traffic elision: lower non-escaping
          [segment.new]/[segment.free] pairs to tag-write-free arena
          form; requires [elide_checks] *)
  spec_safe_only : bool;
      (** keep every check that is provable architecturally but not
          under the Swivel-style speculation model ([--no-spec-elide]) *)
}

(* One Table 3 row: the fields that tell the rows apart, with every
   elision flag off. *)
let row name ~ptr64 ~sandbox ~internal_safety ~ptr_auth ~mte_mode =
  { name; ptr64; sandbox; internal_safety; ptr_auth; mte_mode;
    elide_checks = false; elide_bounds = false; arena = false;
    spec_safe_only = false }

(** The six Table 3 variants, in the paper's order. *)

let baseline_wasm32 =
  row "baseline wasm32" ~ptr64:false ~sandbox:Guard_pages
    ~internal_safety:false ~ptr_auth:false ~mte_mode:Arch.Mte.Disabled

let baseline_wasm64 =
  row "baseline wasm64" ~ptr64:true ~sandbox:Software_bounds
    ~internal_safety:false ~ptr_auth:false ~mte_mode:Arch.Mte.Disabled

let mem_safety =
  row "Cage-mem-safety" ~ptr64:true ~sandbox:Software_bounds
    ~internal_safety:true ~ptr_auth:false ~mte_mode:Arch.Mte.Sync

let ptr_auth =
  row "Cage-ptr-auth" ~ptr64:true ~sandbox:Software_bounds
    ~internal_safety:false ~ptr_auth:true ~mte_mode:Arch.Mte.Disabled

let sandboxing =
  row "Cage-sandboxing" ~ptr64:true ~sandbox:Mte_sandbox
    ~internal_safety:false ~ptr_auth:false ~mte_mode:Arch.Mte.Sync

let full =
  row "CAGE" ~ptr64:true ~sandbox:Mte_sandbox ~internal_safety:true
    ~ptr_auth:true ~mte_mode:Arch.Mte.Sync

(** A variant with static check elision switched on (the name is left
    unchanged so reports and golden files keyed by configuration name
    stay comparable with and without elision). *)
let with_elision t = { t with elide_checks = true }

(** Full-check elision on top of tag elision: accesses whose span is
    also proven lose the sandbox bounds compare too. *)
let with_bounds_elision t = { t with elide_checks = true; elide_bounds = true }

(** Escape-driven tag-traffic elision: non-escaping segments allocate
    through the tag-write-free arena form. *)
let with_arena t = { t with elide_checks = true; arena = true }

(** Keep checks that only an architectural (non-speculative) proof
    would elide — the [--no-spec-elide] deployment mode. *)
let with_spec_safe_only t = { t with spec_safe_only = true }

(** All Table 3 rows, in order. *)
let table3 =
  [ baseline_wasm32; baseline_wasm64; mem_safety; ptr_auth; sandboxing; full ]

(** Whether internal safety and MTE sandboxing share the tag bits
    (Fig. 13b). *)
let combined t = t.internal_safety && t.sandbox = Mte_sandbox

(** Number of distinct allocation tags the guest allocator can draw
    from: 15 standalone, 7 when combined with sandboxing (§7.4). *)
let usable_tags t = if combined t then 7 else 15

(** The tag-exclusion set the runtime installs via prctl (§6.4): tag 0
    is always reserved (guard slots, untagged segments, runtime memory);
    in combined mode every tag with bit 56 clear is reserved too, plus
    the guest's own "untagged" pattern 0b0001. *)
let exclusion t =
  if combined t then
    Arch.Tag.Exclude.of_list
      (List.filter
         (fun tag ->
           let v = Arch.Tag.to_int tag in
           v land 1 = 0 (* runtime half: bit 56 clear *) || v = 1)
         Arch.Tag.all)
  else Arch.Tag.Exclude.of_list [ Arch.Tag.zero ]

(** Pointer-index mask applied before effective-address computation
    (Fig. 13): full tag field when sandbox-only, bit 56 when combined.
    [None] when MTE sandboxing is off (no mask needed). *)
let index_mask t =
  match t.sandbox with
  | Mte_sandbox ->
      Some (if combined t then Arch.Ptr.mask_combined
            else Arch.Ptr.mask_external_only)
  | _ -> None

(** Maximum number of concurrently isolated instances per process under
    MTE sandboxing: 15 guest tags (tag 0 is the runtime's); a single
    guest bit in combined mode isolates one instance (§6.4). *)
let max_sandboxes t =
  match t.sandbox with
  | Mte_sandbox -> if combined t then 1 else 15
  | _ -> max_int

(** Instance configuration implementing this variant. Given the module
    [m] to instantiate, or its [plan] already made, an eliding variant
    also carries the elision plan: tag-check bitsets, span-check bitsets
    under [elide_bounds], arena sites under [arena], all restricted to
    speculation-safe proofs under [spec_safe_only]. *)
let instance_config ?meter ?(seed = 0) ?m ?plan t =
  let c =
    {
      Wasm.Instance.default_config with
      enforce_tags = t.internal_safety;
      mte_mode = t.mte_mode;
      exclude = exclusion t;
      seed;
      meter;
    }
  in
  let plan =
    match (plan, m) with
    | None, Some m when t.elide_checks ->
        Some (Analysis.Elide.plan ~spec_safe:t.spec_safe_only ~arena:t.arena m)
    | _ -> plan
  in
  match plan with
  | Some p when t.elide_checks ->
      { c with
        elide = p.Analysis.Elide.bitsets;
        belide = (if t.elide_bounds then p.Analysis.Elide.bbitsets else [||]);
        arena = p.Analysis.Elide.arena }
  | _ -> c
