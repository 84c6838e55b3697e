(** Linear memory instances.

    A flat byte array addressed by 32- or 64-bit indices, growable in
    64 KiB pages. Every access is bounds-checked here — this is the
    semantic ground truth; {e how} a runtime enforces it (software
    checks, guard pages, MTE sandboxing) is a cost-model concern handled
    by [Cage.Lowering]. *)

type t = {
  mutable data : Bytes.t;
  mutable pages : int64;
  max_pages : int64 option;
  idx : Types.idx_type;
  mutable dirty : Bytes.t;
      (* one byte per 4 KiB chunk of [data]; nonzero = written since
         [data] last equalled [base] *)
  mutable base : Bytes.t option;
      (* the snapshot image [dirty] is relative to, by identity *)
}

exception Out_of_bounds of int64 * int

let page_size = Types.page_size

(* Hard cap so tests cannot accidentally allocate huge buffers: 1 GiB. *)
let implementation_max_pages = 16384L

(* Dirty tracking ([Arch.Dirty]): every write marks the 4 KiB chunk
   its first byte lies in, {e after} the range-checked write — a store
   that would leave the buffer has already raised, so the index is in
   range and the mark is one unchecked byte store. A scalar store (at
   most 8 bytes) can spill at most 7 bytes into the next chunk;
   [restore] copies that tail along with every dirty run. Bulk writes
   mark every chunk they cover. *)
let chunk_bits = 12
let spill = 7

let[@inline] mark t a = Bytes.unsafe_set t.dirty (a lsr chunk_bits) '\001'
let mark_range t a len = Arch.Dirty.mark_range t.dirty ~bits:chunk_bits a len

let create (mt : Types.mem_type) =
  let pages = mt.mem_limits.min in
  if pages < 0L || pages > implementation_max_pages then
    invalid_arg "Memory.create: unsupported initial size";
  let len = Int64.to_int (Int64.mul pages page_size) in
  {
    data = Bytes.make len '\000';
    pages;
    max_pages = mt.mem_limits.max;
    idx = mt.mem_idx;
    dirty = Arch.Dirty.create ~bits:chunk_bits ~dirty:false len;
    base = None;
  }

let idx_type t = t.idx
let size_pages t = t.pages
let size_bytes t = Int64.mul t.pages page_size

let in_bounds t ~addr ~len =
  addr >= 0L && len >= 0
  && Int64.add addr (Int64.of_int len) <= size_bytes t
  && Int64.add addr (Int64.of_int len) >= addr

(** [in_bounds] for bulk operations whose length does not fit an int. *)
let in_bounds64 t ~addr ~len =
  addr >= 0L && len >= 0L
  && Int64.add addr len >= addr
  && Int64.add addr len <= size_bytes t

let check t ~addr ~len =
  if not (in_bounds t ~addr ~len) then raise (Out_of_bounds (addr, len))

(** Grow by [delta] pages; returns the previous size in pages, or [-1]
    (as the spec requires) if the grow fails. [memory.grow 0] is the
    portable "query the size" idiom, so it must not reallocate. *)
let grow t delta =
  let new_pages = Int64.add t.pages delta in
  let fits =
    delta >= 0L
    && new_pages <= implementation_max_pages
    && match t.max_pages with None -> true | Some m -> new_pages <= m
  in
  if not fits then -1L
  else if delta = 0L then t.pages
  else begin
    let old = t.pages in
    let ndata = Bytes.make (Int64.to_int (Int64.mul new_pages page_size)) '\000' in
    Bytes.blit t.data 0 ndata 0 (Bytes.length t.data);
    t.data <- ndata;
    t.dirty <- Arch.Dirty.create ~bits:chunk_bits ~dirty:true (Bytes.length ndata);
    t.pages <- new_pages;
    old
  end

let load_byte t addr =
  check t ~addr ~len:1;
  Char.code (Bytes.unsafe_get t.data (Int64.to_int addr))

let store_byte t addr v =
  check t ~addr ~len:1;
  let a = Int64.to_int addr in
  Bytes.unsafe_set t.data a (Char.unsafe_chr (v land 0xff));
  mark t a

(* Little-endian multi-byte accessors. Each width maps to a single
   [Bytes] primitive (one machine load/store plus a byte-swap on
   big-endian hosts) rather than a per-byte loop — this is the
   interpreter's hottest path. [check] has already established bounds,
   so the stdlib's own range test never fires. *)

let load_n t addr n =
  check t ~addr ~len:n;
  let base = Int64.to_int addr in
  match n with
  | 1 -> Int64.of_int (Bytes.get_uint8 t.data base)
  | 2 -> Int64.of_int (Bytes.get_uint16_le t.data base)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data base)) 0xffffffffL
  | 8 -> Bytes.get_int64_le t.data base
  | _ -> invalid_arg "Memory.load_n: width must be 1, 2, 4 or 8"

let store_n t addr n v =
  check t ~addr ~len:n;
  let base = Int64.to_int addr in
  (match n with
  | 1 -> Bytes.set_uint8 t.data base (Int64.to_int (Int64.logand v 0xffL))
  | 2 -> Bytes.set_uint16_le t.data base (Int64.to_int (Int64.logand v 0xffffL))
  | 4 -> Bytes.set_int32_le t.data base (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le t.data base v
  | _ -> invalid_arg "Memory.store_n: width must be 1, 2, 4 or 8");
  mark t base

let load_i32 t addr =
  check t ~addr ~len:4;
  Bytes.get_int32_le t.data (Int64.to_int addr)

let store_i32 t addr v =
  check t ~addr ~len:4;
  let a = Int64.to_int addr in
  Bytes.set_int32_le t.data a v;
  mark t a

let load_i64 t addr =
  check t ~addr ~len:8;
  Bytes.get_int64_le t.data (Int64.to_int addr)

let store_i64 t addr v =
  check t ~addr ~len:8;
  let a = Int64.to_int addr in
  Bytes.set_int64_le t.data a v;
  mark t a

let load_f32 t addr = Int32.float_of_bits (load_i32 t addr)
let store_f32 t addr v = store_i32 t addr (Int32.bits_of_float v)
let load_f64 t addr = Int64.float_of_bits (load_i64 t addr)
let store_f64 t addr v = store_i64 t addr (Int64.bits_of_float v)

(* ------------------------------------------------------------------ *)
(* Native-int accessors (the threaded engine's fast path)              *)
(* ------------------------------------------------------------------ *)

(* Every valid effective address fits OCaml's native int — the 1 GiB
   implementation cap bounds memory well below 2^62 — so the threaded
   engine resolves addresses, checks bounds against [length_bytes] and
   reads/writes through these without ever boxing an [int64]. The
   caller has already established [0 <= addr] and [addr + len <=
   length_bytes]; the [Bytes] primitives keep their own (never-firing)
   range test, so even a broken caller cannot escape the buffer — nor
   reach the dirty mark that follows each write. *)

let[@inline] length_bytes t = Bytes.length t.data
let[@inline] get_u8 t a = Bytes.get_uint8 t.data a
let[@inline] set_u8 t a v = Bytes.set_uint8 t.data a (v land 0xff); mark t a
let[@inline] get_u16 t a = Bytes.get_uint16_le t.data a
let[@inline] set_u16 t a v =
  Bytes.set_uint16_le t.data a (v land 0xffff); mark t a

let[@inline] get_32s t a = Int32.to_int (Bytes.get_int32_le t.data a)
(** 32-bit read, sign-extended into a native int. *)

let[@inline] set_32 t a v = Bytes.set_int32_le t.data a (Int32.of_int v); mark t a
(** 32-bit write of a native int's low 32 bits. *)

let[@inline] get_64 t a = Bytes.get_int64_le t.data a
let[@inline] set_64 t a v = Bytes.set_int64_le t.data a v; mark t a
let[@inline] get_f32' t a = Int32.float_of_bits (Bytes.get_int32_le t.data a)
let[@inline] set_f32' t a v =
  Bytes.set_int32_le t.data a (Int32.bits_of_float v); mark t a
let[@inline] get_f64' t a = Int64.float_of_bits (Bytes.get_int64_le t.data a)
let[@inline] set_f64' t a v =
  Bytes.set_int64_le t.data a (Int64.bits_of_float v); mark t a

let fill t ~addr ~len v =
  if not (in_bounds64 t ~addr ~len) then raise (Out_of_bounds (addr, 0));
  Bytes.fill t.data (Int64.to_int addr) (Int64.to_int len)
    (Char.chr (v land 0xff));
  mark_range t (Int64.to_int addr) (Int64.to_int len)

let copy t ~dst ~src ~len =
  if not (in_bounds64 t ~addr:dst ~len && in_bounds64 t ~addr:src ~len) then
    raise (Out_of_bounds (dst, 0));
  Bytes.blit t.data (Int64.to_int src) t.data (Int64.to_int dst)
    (Int64.to_int len);
  mark_range t (Int64.to_int dst) (Int64.to_int len)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* A frozen copy of the full memory state. Taking or restoring one
   makes it the dirty map's base. Restoring the base at the same size
   (the overwhelmingly common case for a serving pool: request handlers
   rarely grow memory) copies back only the dirty runs; any other image
   is one full copy. Either way the map ends clear. *)

type snapshot = { snap_data : Bytes.t; snap_pages : int64 }

let snapshot t =
  let s = { snap_data = Bytes.copy t.data; snap_pages = t.pages } in
  t.dirty <- Arch.Dirty.clear t.dirty ~bits:chunk_bits (Bytes.length t.data);
  t.base <- Some s.snap_data;
  s

let restore t s =
  let img = s.snap_data in
  let len = Bytes.length img in
  t.pages <- s.snap_pages;
  match t.base with
  | Some b when b == img && Bytes.length t.data = len ->
      (* runs are at least one clean chunk apart, so a run's spill tail
         never overlaps the next run *)
      Arch.Dirty.drain t.dirty ~bits:chunk_bits ~f:(fun lo hi ->
          let hi = min len (hi + spill) in
          Bytes.blit img lo t.data lo (hi - lo);
          hi - lo)
  | _ ->
      if Bytes.length t.data = len then Bytes.blit img 0 t.data 0 len
      else t.data <- Bytes.copy img;
      t.dirty <- Arch.Dirty.clear t.dirty ~bits:chunk_bits len;
      t.base <- Some img;
      len

let snapshot_bytes s = Bytes.length s.snap_data
let snapshot_to_string s = Bytes.to_string s.snap_data

(** The current contents as a string (tests compare restored state
    against a frozen image byte for byte). *)
let to_string t = Bytes.to_string t.data

(** Read [len] raw bytes (for WASI-style host functions). *)
let read_string t ~addr ~len =
  check t ~addr ~len;
  Bytes.sub_string t.data (Int64.to_int addr) len

(** Write raw bytes (for data segments and host functions). *)
let write_string t ~addr s =
  check t ~addr ~len:(String.length s);
  Bytes.blit_string s 0 t.data (Int64.to_int addr) (String.length s);
  mark_range t (Int64.to_int addr) (String.length s)
