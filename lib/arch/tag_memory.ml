let granule_bytes = 16

type t = {
  mutable tags : Bytes.t;
      (* the committed prefix, one byte per granule (the low nibble is
         the tag); every granule past it, up to [size], holds tag 0 *)
  mutable covered : int;
      (* [granule_bytes * Bytes.length tags]: the bytes of memory the
         prefix covers, the one field a check's range test reads *)
  mutable size : int;
  mutable dirty : Bytes.t;
      (* one byte per 256 granules of [tags]; nonzero = retagged since
         [tags] last equalled [base] *)
  mutable base : Bytes.t option;
      (* the snapshot image [dirty] is relative to, by identity; never
         longer than [tags], and tag 0 past its own end *)
}

let granules_for size = (size + granule_bytes - 1) / granule_bytes

(* Dirty chunks ([Dirty]) of 256 granules: the tags of one 4 KiB chunk
   of linear memory. *)
let chunk_bits = 8

let create ~size_bytes =
  if size_bytes < 0 then invalid_arg "Tag_memory.create: negative size";
  { tags = Bytes.empty; covered = 0; size = size_bytes; dirty = Bytes.empty;
    base = None }

let size_bytes t = t.size
let committed_granules t = Bytes.length t.tags
let tag_storage_bytes t = (granules_for t.size + 1) / 2
let is_aligned addr = Int64.rem addr 16L = 0L

let in_bounds t ~addr ~len =
  addr >= 0L && len >= 0L
  && Int64.add addr len >= addr (* no overflow *)
  && Int64.add addr len <= Int64.of_int t.size

let granule_of_addr addr = Int64.to_int (Int64.div addr 16L)

(* The one place [tags] is replaced, so [covered] never goes stale. *)
let set_tags t tags =
  t.tags <- tags;
  t.covered <- granule_bytes * Bytes.length tags

(* Commit on first retag, by [Wasm.Memory]'s rule counted in granules:
   a retag that reaches past the prefix extends it to the largest of
   the span's end, twice the prefix and 4,096 granules (the tags of
   Memory's 64 KiB floor), rounded up to a dirty chunk and capped at
   the whole granules inside the size. A retag never reaches a partial
   last granule, so that one stays in the tag-0 tail. The committed
   granules hold tag 0, as the tail did, and their chunks are clean:
   the base image is never longer than the old prefix, so it reads
   tag 0 there too. *)
let commit_floor = 4096

let commit t need =
  let chunk = 1 lsl chunk_bits in
  let n = max need (max commit_floor (2 * Bytes.length t.tags)) in
  let n = min (t.size / granule_bytes) ((n + chunk - 1) land -chunk) in
  set_tags t (Dirty.zero_extend t.tags n);
  t.dirty <- Dirty.zero_extend t.dirty (Dirty.chunks ~bits:chunk_bits n)

(* Reads never commit: a granule past the prefix reads tag 0. *)
let granule_tag t g =
  if g < Bytes.length t.tags then Char.code (Bytes.get t.tags g) else 0

(* {!Dirty.scan} over the logical plane: the first granule in
   [\[first, last\]] whose tag is not [want], or [last + 1]. The prefix
   is scanned 64 granules per step; the tail matches only tag 0. *)
let scan t ~first ~last want =
  let n = Bytes.length t.tags in
  if last < n then Dirty.scan t.tags ~first ~last want
  else
    let g =
      if first < n then Dirty.scan t.tags ~first ~last:(n - 1) want else first
    in
    if g < n || want <> 0 then g else last + 1

let get t addr =
  if not (in_bounds t ~addr ~len:1L) then
    invalid_arg "Tag_memory.get: address out of bounds";
  Tag.of_int (granule_tag t (granule_of_addr addr))

let granule_range ~addr ~len =
  (* Granules overlapping [addr, addr+len), with len=0 meaning the single
     granule at addr. *)
  let first = granule_of_addr addr in
  let last =
    if len <= 0L then first
    else granule_of_addr (Int64.sub (Int64.add addr len) 1L)
  in
  (first, last)

let region_tag t ~addr ~len =
  if not (in_bounds t ~addr ~len:(Int64.max len 1L)) then
    invalid_arg "Tag_memory.region_tag: region out of bounds";
  let first, last = granule_range ~addr ~len in
  let tag0 = granule_tag t first in
  if scan t ~first:(first + 1) ~last tag0 > last then Some (Tag.of_int tag0)
  else None

(* The validity conditions of [set_region], without the write — the
   arena-lowered [segment.new] keeps the exact trap behaviour while
   skipping the tag-plane traffic, so the two must never drift. *)
let validate_region t ~addr ~len =
  if not (is_aligned addr) then Error "segment address not 16-byte aligned"
  else if len < 0L then Error "negative segment length"
  else if Int64.rem len 16L <> 0L then
    Error "segment length not a multiple of 16"
  else if not (in_bounds t ~addr ~len) then
    Error "segment out of linear memory bounds"
  else Ok ()

(* The plane's one writer and its one commit entry. *)
let set_region t ~addr ~len tag =
  match validate_region t ~addr ~len with
  | Error _ as e -> e
  | Ok () ->
      let first = granule_of_addr addr in
      let count = Int64.to_int (Int64.div len 16L) in
      if count > 0 then begin
        if first + count > Bytes.length t.tags then commit t (first + count);
        Bytes.fill t.tags first count (Char.chr (Tag.to_int tag));
        (* marked after the checked fill: a bad region never reaches here *)
        Dirty.mark_range t.dirty ~bits:chunk_bits first count
      end;
      Ok ()

(* A span at a negative address or one that ends past the prefix: it
   matches if it lies in the plane and every granule of it holds
   [want], the tail's included. *)
let matches_past t ~addr ~len want =
  if addr < 0 || len > t.size - addr then false
  else
    let last = (addr + len - 1) lsr 4 in
    scan t ~first:(addr lsr 4) ~last want > last

(* The access-check predicate, on native ints. [len <= t.covered - addr]
   cannot overflow, so a length too large for the prefix takes the slow
   path rather than wrapping into a small span. A span of more than one
   granule goes to the scan kernel ([Dirty.scan]), 64 granules per
   step. *)
let matches_native t ~addr ~len (tag : Tag.t) =
  let len = if len < 1 then 1 else len in
  if addr < 0 || len > t.covered - addr then
    matches_past t ~addr ~len (tag :> int)
  else begin
    let first = addr lsr 4 and last = (addr + len - 1) lsr 4 in
    let want = (tag :> int) in
    (* Fast path: a scalar access (<= 16 bytes, the overwhelmingly
       common case) touches one granule — one byte compare, no loop.
       The range test above keeps both granule indices inside [tags],
       so unsafe_get cannot read out of range. *)
    if first = last then Char.code (Bytes.unsafe_get t.tags first) = want
    else Dirty.scan t.tags ~first ~last want > last
  end

let matches t ~addr ~len tag =
  let len = Int64.max len 1L in
  in_bounds t ~addr ~len
  && matches_native t ~addr:(Int64.to_int addr) ~len:(Int64.to_int len) tag

let first_mismatch t ~addr ~len tag =
  if len <= 0L || not (in_bounds t ~addr ~len) then None
  else
    let first, last = granule_range ~addr ~len in
    let g = scan t ~first ~last (Tag.to_int tag) in
    if g > last then None else Some (Int64.mul (Int64.of_int g) 16L)

(** Extend the tag PA space in place: the new granules join the tag-0
    tail, so nothing is allocated. *)
let grow t ~new_size_bytes =
  if new_size_bytes < t.size then
    invalid_arg "Tag_memory.grow: cannot shrink";
  t.size <- new_size_bytes;
  t

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Same discipline as [Wasm.Memory]: an image is the committed prefix,
   standing for that prefix plus a tag-0 tail up to [snap_size].
   Taking or restoring an image makes it the base; restoring the base
   at the same granule count copies back only the dirty chunks
   ([set_region] marks exactly the granules it wrote, so there is no
   spill), from the image below its end and tag 0 past it; anything
   else is one full copy, and the map ends clear. Counts are logical:
   4 bits per granule of the whole plane, however much of it is
   committed, as the eager plane counted them. *)

type snapshot = { snap_tags : Bytes.t; snap_size : int }

let storage_bytes granules = (granules + 1) / 2

let snapshot t =
  let s = { snap_tags = Bytes.copy t.tags; snap_size = t.size } in
  t.dirty <- Dirty.clear t.dirty ~bits:chunk_bits (Bytes.length t.tags);
  t.base <- Some s.snap_tags;
  s

(* Restore in place — the [t] bound into an [Mte.t] keeps its identity
   (growth also mutates in place, so the binding never goes stale). *)
let restore t s =
  let img = s.snap_tags and len = granules_for s.snap_size in
  let same_size = granules_for t.size = len in
  t.size <- s.snap_size;
  match t.base with
  | Some b when b == img && same_size ->
      let committed = Bytes.length t.tags in
      Dirty.drain t.dirty ~bits:chunk_bits ~f:(fun lo hi ->
          let hi = min len hi in
          Dirty.rewrite ~img t.tags lo (min hi committed);
          storage_bytes (hi - lo))
  | _ ->
      set_tags t (Bytes.copy img);
      t.dirty <- Dirty.clear t.dirty ~bits:chunk_bits (Bytes.length img);
      t.base <- Some img;
      storage_bytes len

let snapshot_bytes s = storage_bytes (granules_for s.snap_size)

let snapshot_to_string s =
  Bytes.unsafe_to_string (Dirty.zero_extend s.snap_tags (granules_for s.snap_size))

let to_string t =
  Bytes.unsafe_to_string (Dirty.zero_extend t.tags (granules_for t.size))
