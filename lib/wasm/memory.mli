(** Linear memory instances.

    A flat byte array addressed by 32- or 64-bit indices, growable in
    64 KiB pages. Every access is bounds-checked here — this is the
    semantic ground truth; {e how} a production runtime enforces bounds
    (software checks, guard pages, MTE sandboxing) is a cost-model
    concern handled by [Cage.Lowering].

    Memory is committed on first touch: only a prefix of it is backed,
    and every byte past the prefix is zero. An in-bounds access, bulk
    operation or host transfer that reaches past the prefix extends it
    first (doubling, with a 64 KiB floor, in whole 4 KiB chunks, capped
    at the memory's size), so a fresh instance pays for the pages its
    guest touches, not for its declared size. An empty span commits
    through its address. The prefix is the [data] field, which a raw
    access past its end must first extend with {!reach}. *)

type t = private {
  mutable data : Bytes.t;
      (** The committed prefix; every byte past it, up to {!size_bytes},
          is zero. {!reach} and {!restore} may replace it. *)
  mutable pages : int64;
  max_pages : int64 option;
  idx : Types.idx_type;
  mutable dirty : Bytes.t;
      (** One byte per [2^chunk_bits]-byte chunk of [data]; nonzero
          means written since [data] last equalled [base]. *)
  mutable base : Bytes.t option;
      (** The snapshot image [dirty] is relative to, by identity. *)
}
(** The record is readable so that the threaded engine can access the
    committed prefix without a call; only this module assigns its
    fields. *)

exception Out_of_bounds of int64 * int
(** Raised by accessors on an out-of-range access: (address, length). *)

val page_size : int64
(** 64 KiB. *)

val implementation_max_pages : int64
(** Hard cap (1 GiB) so tests cannot accidentally allocate huge
    buffers. *)

val create : Types.mem_type -> t
(** Fresh zeroed memory at the type's minimum size, with nothing
    committed.
    @raise Invalid_argument if the initial size exceeds the
    implementation cap. *)

val idx_type : t -> Types.idx_type
val size_pages : t -> int64

val size_bytes : t -> int64
(** The memory's size: what bounds checks are against. *)

val in_bounds : t -> addr:int64 -> len:int -> bool
(** Whether [\[addr, addr+len)] lies within the current memory size
    (overflow-safe). *)

val in_bounds64 : t -> addr:int64 -> len:int64 -> bool
(** {!in_bounds} for bulk operations whose length operand is a raw
    64-bit value (negative or huge lengths are simply out of bounds). *)

val grow : t -> int64 -> int64
(** [grow t delta] adds [delta] pages; returns the previous size in
    pages, or [-1] if the grow would exceed the declared maximum or the
    implementation cap (the spec's failure value). [delta] is read as
    unsigned: a negative one fails. Commits nothing. *)

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

(** {1 The committed prefix}

    The threaded engine's raw accesses read and write [data] with the
    stdlib [Bytes] primitives, on native-int addresses: every valid
    effective address fits OCaml's native int (the 1 GiB cap). Nothing
    on that path may pass or return an [int64] or a [float] across a
    module boundary: dune compiles every module with [-opaque] and there
    is no flambda, so such a call stays out of line and boxes its
    argument or result. The engine establishes [0 <= addr] and
    [addr + width <= Bytes.length data] (past the prefix, by calling
    {!reach}, and reading [data] again after it); the [Bytes] primitives
    keep their own range test as a backstop, raising [Invalid_argument].
    A raw write marks its chunk in [dirty] after the range-checked
    write, as every write entry point of this module does; a zero
    {!fill} relies on it to skip clean chunks. *)

val chunk_bits : int
(** [dirty] tracks chunks of [2^chunk_bits] bytes (4 KiB). *)

val length_bytes : t -> int
(** The committed prefix's length in bytes, as a native int: at most
    {!size_bytes}. *)

val reach : t -> int -> bool
(** [reach t n] commits the memory through byte [n] (exclusive), so
    that [n <= length_bytes t]; [false], committing nothing, if [n]
    exceeds {!size_bytes}. The slow path of a raw access whose span
    ends past the prefix, and the commit step of every other entry
    point. *)

val fill : t -> addr:int64 -> len:int64 -> int -> unit
(** [memory.fill]: set [len] bytes to the given byte value. A zero fill
    writes only what the dirty map does not prove zero already: it
    skips each clean chunk past the base image's end, except the at
    most 7 bytes a straddling store can spill into one from a dirty
    predecessor. Either way every chunk of the span is marked. *)

val copy : t -> dst:int64 -> src:int64 -> len:int64 -> unit
(** [memory.copy]: overlapping-safe. *)

(** {1 Snapshots}

    A frozen copy of the whole memory state, for instance pools that
    instantiate once and restore per request. It stores the committed
    prefix and stands for that prefix plus a zero tail.

    Every write entry point above, and every raw write of the threaded
    engine, marks the 4 KiB chunk it wrote in a dirty map, after its
    range check succeeds. The map covers the committed prefix, and is
    relative to one image — the last one taken or restored —
    identified physically. *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the current contents and size; the image becomes the dirty
    map's base and the map is cleared. Copies the committed prefix
    only. *)

val restore : t -> snapshot -> int
(** Restore contents and size from a frozen image; returns the bytes
    restored. Restoring the map's base at an unchanged size rewrites
    only the dirty chunks (plus the at most 7 bytes a scalar store can
    spill past a chunk's end) — in place, no allocation — from the
    image where it has bytes and with zeros past its end; each run
    counts its bytes up to the memory's size. Any other image (taken
    from a different memory, or of a different size, e.g. after
    {!grow}) replaces the backing store with a copy, returns
    {!snapshot_bytes}, and becomes the base. Either way the map ends
    clear. *)

val snapshot_bytes : snapshot -> int
(** The image's size in bytes, zero tail included (restore-cost
    accounting). *)

val snapshot_to_string : snapshot -> string
(** The frozen contents, zero tail included (fidelity tests). *)

val to_string : t -> string
(** The live contents at full size (fidelity tests compare against a
    snapshot). *)

val read_string : t -> addr:int64 -> len:int -> string
(** Raw bytes (for WASI-style host functions). *)

val write_string : t -> addr:int64 -> string -> unit
(** Raw bytes (data segments, host functions). *)
