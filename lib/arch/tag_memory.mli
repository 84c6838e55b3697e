(** The tag physical-address space.

    MTE stores one 4-bit allocation tag per 16-byte granule of physical
    memory, in a dedicated address space invisible to the OS (and hence
    excluded from rss accounting — see paper §7.3). This module models
    that space for a contiguous region of simulated memory.

    Like [Wasm.Memory], the space is committed on first touch: only a
    prefix of its granules is backed, and every granule past the prefix
    holds tag 0. {!set_region}, the one writer, is the one commit
    entry: a retag that reaches past the prefix extends it first (to
    the largest of the span's end, twice the prefix and 4,096
    granules, in whole 256-granule dirty chunks, capped at the whole
    granules inside the size). Reads never commit. Every count this
    module reports is logical — what the whole space would hold or
    copy, however much of it is committed. *)

type t

val granule_bytes : int
(** 16: the MTE tagging granularity. *)

val create : size_bytes:int -> t
(** A tag space covering [size_bytes] of memory (rounded up to a whole
    number of granules), with every granule tagged {!Tag.zero}.
    Commits nothing. *)

val size_bytes : t -> int
(** The covered memory size in bytes. *)

val committed_granules : t -> int
(** The granules the committed prefix backs: at most the whole
    granules inside {!size_bytes}. *)

val tag_storage_bytes : t -> int
(** Bytes of tag storage the whole space models: 4 bits per 16 bytes,
    i.e. [size_bytes / 32] — the 3.125 % overhead of §7.3. *)

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
    or the region is out of bounds. A nonempty region that reaches past
    the committed prefix commits it first; nothing else commits. *)

val matches : t -> addr:int64 -> len:int64 -> Tag.t -> bool
(** Whether every granule overlapping [\[addr, addr+len)] carries the
    given tag — the access-check predicate. Out-of-bounds regions never
    match. [len <= 0] is treated as a 1-byte access. A span within one
    committed granule is one compare; a longer one, like
    {!first_mismatch} and {!region_tag}, is scanned 64 granules per
    step ({!Dirty.scan}). A span that reaches past the committed prefix
    takes a slow path, where the tail matches only tag 0. *)

val matches_native : t -> addr:int -> len:int -> Tag.t -> bool
(** {!matches} on native ints, which it delegates to after its own
    range check: the threaded engine's tag check, with no [int64] to
    box. A negative address, or a length that reaches past the covered
    region however large, never matches. Its range test reads one
    cached field, the bytes the committed prefix covers. *)

val first_mismatch : t -> addr:int64 -> len:int64 -> Tag.t -> int64 option
(** Byte address (granule start) of the first granule overlapping
    [\[addr, addr+len)] whose tag differs from [tag]; [None] when every
    granule matches, [len <= 0], or the span leaves the covered region.
    This is how a faulting bulk transfer learns where its stp/ldp
    stream stopped. *)

val grow : t -> new_size_bytes:int -> t
(** Enlarge the tag space in place (used on [memory.grow]): the fresh
    granules join the tag-0 tail, so nothing is allocated. Returns the
    same [t] for convenience. *)

(** {1 Snapshots}

    A frozen copy of the whole tag space, for instance pools that
    freeze tags alongside linear memory and restore per request. It
    stores the committed prefix and stands for that prefix plus a tag-0
    tail.

    {!set_region} marks the 256-granule chunks it retags in a dirty
    map, after its validity checks pass. The map covers the committed
    prefix, and is relative to the last image taken or restored,
    identified physically. *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the tags and size; the image becomes the dirty map's base
    and the map is cleared. Copies the committed prefix only. *)

val restore : t -> snapshot -> int
(** Restore in place: the [t] bound into an MTE checker keeps its
    identity, so the checker's binding never goes stale. Restoring the
    map's base at an unchanged granule count rewrites only the dirty
    chunks, from the image where it has granules and with tag 0 past
    its end; each run counts its granules up to the image's size. Any
    other image is one full copy, counts the whole image, and becomes
    the base. The map ends clear. Returns the tag storage copied, in
    the units of {!snapshot_bytes} (4 bits per granule), so a full copy
    returns exactly [snapshot_bytes]. *)

val snapshot_bytes : snapshot -> int
(** Modeled tag-storage payload of the whole image, tail included
    (4 bits per granule). *)

val snapshot_to_string : snapshot -> string
(** One byte per granule (low nibble is the tag), tail included —
    fidelity tests. *)

val to_string : t -> string
(** The live tag bytes of the whole space, tail included (fidelity
    tests compare against a snapshot). *)
