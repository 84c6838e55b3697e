(** The tag physical-address space.

    MTE stores one 4-bit allocation tag per 16-byte granule of physical
    memory, in a dedicated address space invisible to the OS (and hence
    excluded from rss accounting — see paper §7.3). This module models
    that space for a contiguous region of simulated memory. *)

type t

val granule_bytes : int
(** 16: the MTE tagging granularity. *)

val create : size_bytes:int -> t
(** A tag space covering [size_bytes] of memory (rounded up to a whole
    number of granules), with every granule initially tagged
    {!Tag.zero}. *)

val size_bytes : t -> int
(** The covered memory size in bytes. *)

val tag_storage_bytes : t -> int
(** Bytes of tag storage backing this space: 4 bits per 16 bytes, i.e.
    [size_bytes / 32] — the 3.125 % overhead of §7.3. *)

val is_aligned : int64 -> bool
(** Whether an address is 16-byte aligned, as required of all segment
    operations (paper §5.2). *)

val in_bounds : t -> addr:int64 -> len:int64 -> bool
(** Whether [\[addr, addr+len)] lies inside the covered region. *)

val get : t -> int64 -> Tag.t
(** Tag of the granule containing the given address.
    @raise Invalid_argument if out of bounds. *)

val region_tag : t -> addr:int64 -> len:int64 -> Tag.t option
(** [region_tag t ~addr ~len] is [Some tag] if every byte of the region
    has allocation tag [tag] (the paper's [s_tag(i, addr, len)] partial
    function), [None] if tags differ. [len = 0] checks the granule at
    [addr]. @raise Invalid_argument if out of bounds. *)

val validate_region : t -> addr:int64 -> len:int64 -> (unit, string) result
(** The validity conditions of {!set_region} without the write — same
    error strings. The arena-lowered [segment.new] uses this to keep
    trap behaviour identical while skipping the tag-plane traffic. *)

val set_region : t -> addr:int64 -> len:int64 -> Tag.t -> (unit, string) result
(** Retag the region ([s with tag(i, addr, len) = t]). Fails if [addr]
    is not 16-byte aligned, [len] is negative or not a multiple of 16,
    or the region is out of bounds. *)

val matches : t -> addr:int64 -> len:int64 -> Tag.t -> bool
(** Whether every granule overlapping [\[addr, addr+len)] carries the
    given tag — the access-check predicate. Out-of-bounds regions never
    match. [len <= 0] is treated as a 1-byte access. *)

val first_mismatch : t -> addr:int64 -> len:int64 -> Tag.t -> int64 option
(** Byte address (granule start) of the first granule overlapping
    [\[addr, addr+len)] whose tag differs from [tag]; [None] when every
    granule matches, [len <= 0], or the span leaves the covered region.
    This is how a faulting bulk transfer learns where its stp/ldp
    stream stopped. *)

val grow : t -> new_size_bytes:int -> t
(** Enlarge the tag space in place, preserving existing tags and
    zero-tagging the fresh granules (used on [memory.grow]); returns the
    same [t] for convenience. A grow that does not add granules reuses
    the existing tag storage untouched. *)

val iteri : t -> f:(int -> Tag.t -> unit) -> unit
(** Iterate over granules in address order; the [int] is the granule
    index. *)

(** {1 Snapshots}

    A frozen copy of the whole tag space, for instance pools that
    freeze tags alongside linear memory and restore per request.

    {!set_region} marks the 256-granule chunks it retags in a dirty
    map, after its validity checks pass; a {!grow} that adds granules
    marks every chunk. The map is relative to the last image taken or
    restored, identified physically. *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the tags and size; the image becomes the dirty map's base
    and the map is cleared. *)

val restore : t -> snapshot -> int
(** Restore in place: the [t] bound into an MTE checker keeps its
    identity, so the checker's binding never goes stale. Restoring the
    map's base at an unchanged granule count copies back only the dirty
    chunks; any other image is one full copy and becomes the base. The
    map ends clear. Returns the tag storage copied, in the units of
    {!snapshot_bytes} (4 bits per granule), so a full copy returns
    exactly [snapshot_bytes]. *)

val snapshot_bytes : snapshot -> int
(** Modeled tag-storage payload of the image (4 bits per granule). *)

val snapshot_to_string : snapshot -> string
(** One byte per granule (low nibble is the tag) — fidelity tests. *)

val to_string : t -> string
(** The live tag bytes (fidelity tests compare against a snapshot). *)
