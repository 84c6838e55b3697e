let granule_bytes = 16

type t = {
  mutable tags : Bytes.t;  (* one byte per granule; low nibble is the tag *)
  mutable size : int;
  mutable dirty : Bytes.t;
      (* one byte per 256 granules of [tags]; nonzero = retagged since
         [tags] last equalled [base] *)
  mutable base : Bytes.t option;
      (* the snapshot image [dirty] is relative to, by identity *)
}

let granules_for size = (size + granule_bytes - 1) / granule_bytes

(* Dirty chunks ([Dirty]) of 256 granules: the tags of one 4 KiB chunk
   of linear memory. *)
let chunk_bits = 8

let create ~size_bytes =
  if size_bytes < 0 then invalid_arg "Tag_memory.create: negative size";
  let granules = granules_for size_bytes in
  {
    tags = Bytes.make granules '\000';
    size = size_bytes;
    dirty = Dirty.create ~bits:chunk_bits ~dirty:false granules;
    base = None;
  }

let size_bytes t = t.size
let tag_storage_bytes t = (granules_for t.size + 1) / 2
let is_aligned addr = Int64.rem addr 16L = 0L

let in_bounds t ~addr ~len =
  addr >= 0L && len >= 0L
  && Int64.add addr len >= addr (* no overflow *)
  && Int64.add addr len <= Int64.of_int t.size

let granule_of_addr addr = Int64.to_int (Int64.div addr 16L)

let get t addr =
  if not (in_bounds t ~addr ~len:1L) then
    invalid_arg "Tag_memory.get: address out of bounds";
  Tag.of_int (Char.code (Bytes.get t.tags (granule_of_addr addr)))

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
  let tag0 = Char.code (Bytes.get t.tags first) in
  if Dirty.scan t.tags ~first:(first + 1) ~last tag0 > last then
    Some (Tag.of_int tag0)
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

let set_region t ~addr ~len tag =
  match validate_region t ~addr ~len with
  | Error _ as e -> e
  | Ok () ->
      let first = granule_of_addr addr in
      let count = Int64.to_int (Int64.div len 16L) in
      Bytes.fill t.tags first count (Char.chr (Tag.to_int tag));
      (* marked after the checked fill: a bad region never reaches here *)
      Dirty.mark_range t.dirty ~bits:chunk_bits first count;
      Ok ()

(* The access-check predicate, on native ints. [len <= t.size - addr]
   cannot overflow, so a length too large for the plane is a mismatch
   rather than a wrapped small span. A span of more than one granule
   goes to the scan kernel ([Dirty.scan]), eight granules per load. *)
let matches_native t ~addr ~len (tag : Tag.t) =
  let len = if len < 1 then 1 else len in
  if addr < 0 || len > t.size - addr then false
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
    let g = Dirty.scan t.tags ~first ~last (Tag.to_int tag) in
    if g > last then None else Some (Int64.mul (Int64.of_int g) 16L)

(** Extend the tag PA space in place. When the granule count is
    unchanged (e.g. [memory.grow 0], or a sub-granule size bump) the
    existing buffer is reused — no allocation, no copy. *)
let grow t ~new_size_bytes =
  if new_size_bytes < t.size then
    invalid_arg "Tag_memory.grow: cannot shrink";
  let old_granules = Bytes.length t.tags in
  let new_granules = granules_for new_size_bytes in
  if new_granules > old_granules then begin
    let tags = Bytes.make new_granules '\000' in
    Bytes.blit t.tags 0 tags 0 old_granules;
    t.tags <- tags;
    t.dirty <- Dirty.create ~bits:chunk_bits ~dirty:true new_granules
  end;
  t.size <- new_size_bytes;
  t

let iteri t ~f =
  Bytes.iteri (fun i c -> f i (Tag.of_int (Char.code c))) t.tags

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Same dirty-map discipline as [Wasm.Memory]: taking or restoring an
   image makes it the base; restoring the base at the same granule count
   copies back only the dirty chunks ([set_region] marks exactly the
   granules it wrote, so there is no spill), anything else is one full
   copy, and the map ends clear. *)

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
  let img = s.snap_tags in
  let len = Bytes.length img in
  t.size <- s.snap_size;
  match t.base with
  | Some b when b == img && Bytes.length t.tags = len ->
      Dirty.drain t.dirty ~bits:chunk_bits ~f:(fun lo hi ->
          let hi = min len hi in
          Bytes.blit img lo t.tags lo (hi - lo);
          storage_bytes (hi - lo))
  | _ ->
      if Bytes.length t.tags = len then Bytes.blit img 0 t.tags 0 len
      else t.tags <- Bytes.copy img;
      t.dirty <- Dirty.clear t.dirty ~bits:chunk_bits len;
      t.base <- Some img;
      storage_bytes len

let snapshot_bytes s = storage_bytes (Bytes.length s.snap_tags)
let snapshot_to_string s = Bytes.to_string s.snap_tags

let to_string t = Bytes.to_string t.tags
