(** Linear memory instances.

    A flat byte array addressed by 32- or 64-bit indices, growable in
    64 KiB pages. Every access is bounds-checked here — this is the
    semantic ground truth; {e how} a runtime enforces it (software
    checks, guard pages, MTE sandboxing) is a cost-model concern handled
    by [Cage.Lowering]. *)

type t = {
  mutable data : Bytes.t;
      (* the committed prefix of the memory; every byte past it, up to
         [size_bytes], is zero *)
  mutable pages : int64;
  max_pages : int64 option;
  idx : Types.idx_type;
  mutable dirty : Bytes.t;
      (* one byte per 4 KiB chunk of [data]; nonzero = written since
         [data] last equalled [base] *)
  mutable base : Bytes.t option;
      (* the snapshot image [dirty] is relative to, by identity; never
         longer than [data], and zero past its own end *)
}

exception Out_of_bounds of int64 * int

let page_size = Types.page_size

(* Hard cap so tests cannot accidentally allocate huge buffers: 1 GiB. *)
let implementation_max_pages = 16384L

(* Dirty tracking ([Arch.Dirty]): every write marks the 4 KiB chunk
   its first byte lies in, {e after} the range-checked write — a store
   that would leave the buffer has already raised, so the index is in
   range and the mark is one unchecked byte store. The threaded
   engine's raw stores ([Compile.do_store]) follow the same rule on
   [data] and [dirty] directly. A scalar store (at most 8 bytes) can
   spill at most 7 bytes into the next chunk; [restore] copies that
   tail along with every dirty run, and a zero [fill] rewrites it. Bulk
   writes mark every chunk they cover. *)
let chunk_bits = 12
let spill = 7

let[@inline] mark t a = Bytes.unsafe_set t.dirty (a lsr chunk_bits) '\001'
let mark_range t a len = Arch.Dirty.mark_range t.dirty ~bits:chunk_bits a len

let create (mt : Types.mem_type) =
  let pages = mt.mem_limits.min in
  if pages < 0L || pages > implementation_max_pages then
    invalid_arg "Memory.create: unsupported initial size";
  {
    data = Bytes.empty;
    pages;
    max_pages = mt.mem_limits.max;
    idx = mt.mem_idx;
    dirty = Bytes.empty;
    base = None;
  }

let idx_type t = t.idx
let size_pages t = t.pages
let size_bytes t = Int64.mul t.pages page_size

(* Commit on first touch. Only a prefix of the memory is backed by
   [data]; an access, bulk op or host transfer that reaches past it
   first extends the prefix to cover its last byte, doubling it, with a
   64 KiB floor, rounded up to whole chunks and capped at the memory's
   size. Committed bytes are zero, which is what the tail held, and
   their chunks are clean: the base image is never longer than the old
   prefix, so it reads zero there too. *)
let commit_floor = 65536

let commit t need =
  let chunk = 1 lsl chunk_bits in
  let n = max need (max commit_floor (2 * Bytes.length t.data)) in
  let n = min (Int64.to_int (size_bytes t)) ((n + chunk - 1) land -chunk) in
  t.data <- Arch.Dirty.zero_extend t.data n;
  t.dirty <- Arch.Dirty.zero_extend t.dirty (n lsr chunk_bits)

(* The one commit rule: make the prefix cover every byte below [n], or
   fail if [n] is past the memory's size. An in-bounds span ending at
   [n] always succeeds, empty spans included, so the [Bytes] primitive
   that follows never sees an offset past the prefix. *)
let[@inline] reach t n =
  n <= Bytes.length t.data
  || (n <= Int64.to_int (size_bytes t) && (commit t n; true))

let length_bytes t = Bytes.length t.data

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
  if not (in_bounds t ~addr ~len) then raise (Out_of_bounds (addr, len));
  ignore (reach t (Int64.to_int addr + len))

(** Grow by [delta] pages; returns the previous size in pages, or [-1]
    (as the spec requires) if the grow fails. The new pages join the
    zero tail, so nothing is allocated. [delta] is checked against the
    room left before it is added: a wasm64 delta near [2^63] would
    otherwise overflow into a small page count. *)
let grow t delta =
  let cap =
    match t.max_pages with
    | None -> implementation_max_pages
    | Some m -> Int64.min m implementation_max_pages
  in
  if delta < 0L || delta > Int64.sub cap t.pages then -1L
  else begin
    let old = t.pages in
    t.pages <- Int64.add old delta;
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

(* A zero fill of [\[a, stop)] that skips what is zero already. Past
   the base image's end (0 with no base; images copy the committed
   prefix, so it is chunk-aligned) a clean chunk holds only zeros:
   commits append clean zero chunks, and a restore zeroes every dirty
   run there with its spill tail. The one write that reaches a clean
   chunk is a scalar store straddling in from a dirty one, at most
   [spill] bytes. So the span is written below the image's end, over
   every dirty chunk, and over the first [spill] bytes of each clean
   chunk whose predecessor is dirty; the map is read before the fill
   marks it. The walk starts a chunk before the cut, since a dirty run
   that ends there spills past it. *)
let zero t a stop =
  let img = match t.base with Some b -> Bytes.length b | None -> 0 in
  let cut = min stop (max a img) in
  Bytes.fill t.data a (cut - a) '\000';
  let write lo hi =
    let lo = max lo cut and hi = min hi stop in
    if hi > lo then Bytes.fill t.data lo (hi - lo) '\000'
  in
  if cut < stop then begin
    let last = (stop - 1) lsr chunk_bits in
    let c = ref (max 0 ((cut lsr chunk_bits) - 1)) in
    while !c <= last do
      let d = Arch.Dirty.scan t.dirty ~first:!c ~last 0 in
      let e = ref d in
      while !e <= last && Bytes.unsafe_get t.dirty !e <> '\000' do incr e done;
      write (d lsl chunk_bits) ((!e lsl chunk_bits) + spill);
      c := !e + 1
    done
  end

let fill t ~addr ~len v =
  if not (in_bounds64 t ~addr ~len) then raise (Out_of_bounds (addr, 0));
  let a = Int64.to_int addr and n = Int64.to_int len in
  ignore (reach t (a + n));
  if v land 0xff = 0 then zero t a (a + n)
  else Bytes.fill t.data a n (Char.chr (v land 0xff));
  mark_range t a n

let copy t ~dst ~src ~len =
  if not (in_bounds64 t ~addr:dst ~len && in_bounds64 t ~addr:src ~len) then
    raise (Out_of_bounds (dst, 0));
  let d = Int64.to_int dst and s = Int64.to_int src and n = Int64.to_int len in
  ignore (reach t (max d s + n));
  Bytes.blit t.data s t.data d n;
  mark_range t d n

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* A frozen copy of the memory state: the committed prefix, standing
   for that prefix plus a zero tail up to [snap_pages]. Taking or
   restoring one makes it the dirty map's base. Restoring the base at
   the same size (the overwhelmingly common case for a serving pool:
   request handlers rarely grow memory) copies back only the dirty
   runs; any other image is one full copy. Either way the map ends
   clear. Byte counts are logical — what copying the whole memory
   would have moved — however much of it is committed. *)

type snapshot = { snap_data : Bytes.t; snap_pages : int64 }

let snapshot_bytes s = Int64.to_int (Int64.mul s.snap_pages page_size)

(* [b] followed by zeros up to [len] bytes. *)
let logical_string b len = Bytes.unsafe_to_string (Arch.Dirty.zero_extend b len)

let snapshot t =
  let s = { snap_data = Bytes.copy t.data; snap_pages = t.pages } in
  t.dirty <- Arch.Dirty.clear t.dirty ~bits:chunk_bits (Bytes.length t.data);
  t.base <- Some s.snap_data;
  s

let restore t s =
  let img = s.snap_data and len = snapshot_bytes s in
  let same_size = t.pages = s.snap_pages in
  t.pages <- s.snap_pages;
  match t.base with
  | Some b when b == img && same_size ->
      (* runs are at least one clean chunk apart, so a run's spill tail
         never overlaps the next run; a run counts its logical bytes,
         read from the image below its end and zero past it *)
      let committed = Bytes.length t.data in
      Arch.Dirty.drain t.dirty ~bits:chunk_bits ~f:(fun lo hi ->
          let hi = min len (hi + spill) in
          Arch.Dirty.rewrite ~img t.data lo (min hi committed);
          hi - lo)
  | _ ->
      t.data <- Bytes.copy img;
      t.dirty <- Arch.Dirty.clear t.dirty ~bits:chunk_bits (Bytes.length img);
      t.base <- Some img;
      len

let snapshot_to_string s = logical_string s.snap_data (snapshot_bytes s)

(** The current contents as a string (tests compare restored state
    against a frozen image byte for byte). *)
let to_string t = logical_string t.data (Int64.to_int (size_bytes t))

(** Read [len] raw bytes (for WASI-style host functions). *)
let read_string t ~addr ~len =
  check t ~addr ~len;
  Bytes.sub_string t.data (Int64.to_int addr) len

(** Write raw bytes (for data segments and host functions). *)
let write_string t ~addr s =
  check t ~addr ~len:(String.length s);
  Bytes.blit_string s 0 t.data (Int64.to_int addr) (String.length s);
  mark_range t (Int64.to_int addr) (String.length s)
