(** Linear memory instances.

    A flat byte array addressed by 32- or 64-bit indices, growable in
    64 KiB pages. Every access is bounds-checked here — this is the
    semantic ground truth; {e how} a production runtime enforces bounds
    (software checks, guard pages, MTE sandboxing) is a cost-model
    concern handled by [Cage.Lowering]. *)

type t

exception Out_of_bounds of int64 * int
(** Raised by accessors on an out-of-range access: (address, length). *)

val page_size : int64
(** 64 KiB. *)

val implementation_max_pages : int64
(** Hard cap (1 GiB) so tests cannot accidentally allocate huge
    buffers. *)

val create : Types.mem_type -> t
(** Fresh zeroed memory at the type's minimum size.
    @raise Invalid_argument if the initial size exceeds the
    implementation cap. *)

val idx_type : t -> Types.idx_type
val size_pages : t -> int64
val size_bytes : t -> int64

val in_bounds : t -> addr:int64 -> len:int -> bool
(** Whether [\[addr, addr+len)] lies within the current memory size
    (overflow-safe). *)

val in_bounds64 : t -> addr:int64 -> len:int64 -> bool
(** {!in_bounds} for bulk operations whose length operand is a raw
    64-bit value (negative or huge lengths are simply out of bounds). *)

val grow : t -> int64 -> int64
(** [grow t delta] adds [delta] pages; returns the previous size in
    pages, or [-1] if the grow would exceed the declared maximum or the
    implementation cap (the spec's failure value). *)

(** {1 Sized accessors}

    All little-endian; all raise {!Out_of_bounds} when out of range. *)

val load_byte : t -> int64 -> int
val store_byte : t -> int64 -> int -> unit

val load_n : t -> int64 -> int -> int64
(** [load_n t addr n] reads [n] bytes ([1..8]) as an unsigned
    little-endian value. *)

val store_n : t -> int64 -> int -> int64 -> unit
(** [store_n t addr n v] writes the low [n] bytes of [v]. *)

val load_i32 : t -> int64 -> int32
val store_i32 : t -> int64 -> int32 -> unit
val load_i64 : t -> int64 -> int64
val store_i64 : t -> int64 -> int64 -> unit
val load_f32 : t -> int64 -> float
val store_f32 : t -> int64 -> float -> unit
val load_f64 : t -> int64 -> float
val store_f64 : t -> int64 -> float -> unit

(** {1 Native-int accessors}

    The threaded engine's fast path: every valid effective address fits
    OCaml's native int (the 1 GiB cap), so bounds checks against
    {!length_bytes} and the accesses themselves run entirely unboxed.
    The caller must have established [0 <= addr] and
    [addr + width <= length_bytes]; the underlying [Bytes] primitives
    keep their own never-firing range test as a backstop. *)

val length_bytes : t -> int
(** Current memory size in bytes, as a native int. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit

val get_32s : t -> int -> int
(** 32-bit read, sign-extended into a native int. *)

val set_32 : t -> int -> int -> unit
(** 32-bit write of a native int's low 32 bits. *)

val get_64 : t -> int -> int64
val set_64 : t -> int -> int64 -> unit
val get_f32' : t -> int -> float
val set_f32' : t -> int -> float -> unit
val get_f64' : t -> int -> float
val set_f64' : t -> int -> float -> unit

val fill : t -> addr:int64 -> len:int64 -> int -> unit
(** [memory.fill]: set [len] bytes to the given byte value. *)

val copy : t -> dst:int64 -> src:int64 -> len:int64 -> unit
(** [memory.copy]: overlapping-safe. *)

(** {1 Snapshots}

    A frozen copy of the whole memory state, for instance pools that
    instantiate once and restore per request.

    Every write entry point above marks the 4 KiB chunk it wrote in a
    dirty map, after its range check succeeds; {!grow} marks every
    chunk. The map is relative to one image — the last one taken or
    restored — identified physically. *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the current contents and size; the image becomes the dirty
    map's base and the map is cleared. *)

val restore : t -> snapshot -> int
(** Restore contents and size from a frozen image; returns the bytes
    copied. Restoring the map's base at an unchanged size copies back
    only the dirty chunks (plus the at most 7 bytes a scalar store can
    spill past a chunk's end) — in place, no allocation. Any other image
    (taken from a different memory, or of a different size, e.g. after
    {!grow}) is one full copy, replacing the backing store when the size
    differs, and becomes the base. Either way the map ends clear. *)

val snapshot_bytes : snapshot -> int
(** Payload size in bytes (restore-cost accounting). *)

val snapshot_to_string : snapshot -> string
(** The frozen contents (fidelity tests). *)

val to_string : t -> string
(** The live contents (fidelity tests compare against a snapshot). *)

val read_string : t -> addr:int64 -> len:int -> string
(** Raw bytes (for WASI-style host functions). *)

val write_string : t -> addr:int64 -> string -> unit
(** Raw bytes (data segments, host functions). *)
