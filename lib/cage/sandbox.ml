(** External memory safety: the sandboxing model of paper §6.4.

    Several WASM instances live inside one host process; each instance's
    linear memory is a region of the host address space. The runtime
    must ensure a guest index can never reach outside its own region.
    Three enforcement strategies are modelled:

    - {e software bounds checks}: a cmp+branch the compiler emits before
      each access. A lowering bug (CVE-2023-26489 dropped the check for
      certain constant offsets) lets a hostile index escape;
    - {e guard pages}: sound only for 32-bit indices (§2.1);
    - {e MTE sandboxing} (Fig. 12b): each instance gets a distinct
      allocation tag, stored in its heap base pointer; runtime memory is
      tagged 0. Every access is tag-checked by hardware, so even an
      access the compiler forgot to bounds-check faults. Guest indices
      are masked (Fig. 13) before address computation so tag bits cannot
      be forged.

    This module is deliberately a {e separate} miniature runtime rather
    than a change to the interpreter: it executes raw accesses the way
    compiled code would, including buggy lowerings, which the
    interpreter (being the semantic ground truth) must never produce. *)

open Arch

type strategy = Config.sandbox

type outcome =
  | Value of int64               (** access performed, data returned *)
  | Bounds_trap                  (** software check caught it *)
  | Segfault                     (** guard page caught it *)
  | Tag_fault of Mte.fault       (** MTE caught it *)

type instance_region = {
  tag : Tag.t;          (** instance tag, stored in the heap base *)
  base : int64;         (** offset of the region in host memory *)
  size : int64;         (** linear memory size *)
}

type t = {
  host : Bytes.t;
  tags : Tag_memory.t;
  mte : Mte.t;
  config : Config.t;
  mutable regions : instance_region list;
  mutable next_tag : int;
  tag_reuse_reach : int64 option;
      (** §6.4 future work: when [Some reach], a tag may be reused for a
          region provably unreachable by another instance's pointers
          (i.e. farther than [reach] bytes — 4 GiB for real 32-bit
          indices — with guard pages covering the gap). Lifts the
          15-sandbox limit. *)
}

(** A host with [size] bytes of memory; runtime memory is tagged 0.
    [tag_reuse_reach] enables the §6.4 extension: tags are recycled for
    regions more than [reach] bytes apart. *)
let create ?(config = Config.sandboxing) ?tag_reuse_reach ~size () =
  let tags = Tag_memory.create ~size_bytes:size in
  {
    host = Bytes.make size '\000';
    tags;
    mte = Mte.create ~mode:config.mte_mode tags;
    config;
    regions = [];
    next_tag = 1;
    tag_reuse_reach;
  }

exception Too_many_sandboxes

(* Pick a tag for a new region at [base]: either the next fresh tag (at
   most 15), or — with tag reuse — the smallest non-zero tag not held by
   any region within reach. *)
let pick_tag t ~base ~size =
  match t.tag_reuse_reach with
  | None ->
      if t.next_tag > 15 then raise Too_many_sandboxes;
      let tag = Tag.of_int_exn t.next_tag in
      t.next_tag <- t.next_tag + 1;
      tag
  | Some reach ->
      let lo = Int64.sub base reach in
      let hi = Int64.add (Int64.add base (Int64.of_int size)) reach in
      let in_reach (r : instance_region) =
        (* region [r] overlaps the window [lo, hi) *)
        r.base < hi && Int64.add r.base r.size > lo
      in
      let used =
        List.filter_map
          (fun r -> if in_reach r then Some (Tag.to_int r.tag) else None)
          t.regions
      in
      let rec first_free c =
        if c > 15 then raise Too_many_sandboxes
        else if List.mem c used then first_free (c + 1)
        else Tag.of_int_exn c
      in
      first_free 1

(** Register a new instance region of [size] bytes at the next free host
    offset. Under MTE sandboxing at most 15 instances fit concurrently
    within pointer reach (tag 0 belongs to the runtime); beyond that
    {!Too_many_sandboxes} is raised — the §6.4 limitation — unless tag
    reuse is enabled. *)
let add_instance t ~size =
  let base =
    List.fold_left
      (fun acc r -> Int64.max acc (Int64.add r.base r.size))
      0L t.regions
  in
  if Int64.add base (Int64.of_int size) > Int64.of_int (Bytes.length t.host)
  then invalid_arg "Sandbox.add_instance: host memory exhausted";
  let tag =
    match t.config.sandbox with
    | Config.Mte_sandbox ->
        let tag = pick_tag t ~base ~size in
        (match
           Tag_memory.set_region t.tags ~addr:base ~len:(Int64.of_int size) tag
         with
        | Ok () -> ()
        | Error e -> invalid_arg e);
        tag
    | _ -> Tag.zero
  in
  let region = { tag; base; size = Int64.of_int size } in
  t.regions <- t.regions @ [ region ];
  region

(** The tagged heap base pointer the runtime hands to compiled code
    (Fig. 12b): region base with the instance tag in bits 56-59. *)
let heap_base (r : instance_region) = Ptr.with_tag r.base r.tag

(** Perform a guest load of 8 bytes at [index] within instance [r],
    using the host's enforcement strategy.

    [buggy_lowering] simulates CVE-2023-26489: the compiler emitted code
    without the bounds check (software strategy) for this access. Under
    MTE sandboxing the same miscompilation is harmless: the hardware tag
    check still fires. *)
let guest_load ?(buggy_lowering = false) t (r : instance_region) ~index =
  match t.config.sandbox with
  | Config.Software_bounds ->
      if (not buggy_lowering) && Int64.unsigned_compare index r.size >= 0 then
        Bounds_trap
      else
        let addr = Int64.add r.base index in
        if addr < 0L || Int64.add addr 8L > Int64.of_int (Bytes.length t.host)
        then Segfault
        else Value (Bytes.get_int64_le t.host (Int64.to_int addr))
  | Config.Guard_pages ->
      (* 32-bit index, 4 GiB + guard region mapped: any 32-bit index
         either hits the memory or a guard page. We model host memory
         beyond the region as guarded. *)
      let index = Int64.logand index 0xffffffffL in
      if Int64.unsigned_compare index r.size >= 0 then Segfault
      else Value (Bytes.get_int64_le t.host (Int64.to_int (Int64.add r.base index)))
  | Config.Mte_sandbox -> (
      (* Fig. 13: mask the untrusted index, then add to the tagged
         base. The pointer inherits the base's tag. *)
      let mask =
        match Config.index_mask t.config with
        | Some m -> m
        | None -> Fun.id
      in
      let index = mask index in
      let ptr = Ptr.with_tag (Int64.add r.base (Ptr.address index)) r.tag in
      match Mte.check t.mte Mte.Load ~ptr ~len:8L with
      | Mte.Allowed | Mte.Deferred _ ->
          let addr = Ptr.address ptr in
          if Int64.add addr 8L > Int64.of_int (Bytes.length t.host) then
            Segfault
          else Value (Bytes.get_int64_le t.host (Int64.to_int addr))
      | Mte.Faulted f -> Tag_fault f)

(** Store [v] into an instance's own region directly (setup helper). *)
let poke t (r : instance_region) ~index v =
  if Int64.unsigned_compare index r.size >= 0 then
    invalid_arg "Sandbox.poke: out of region";
  Bytes.set_int64_le t.host (Int64.to_int (Int64.add r.base index)) v
