(** Dirty-chunk maps for in-place snapshot restore.

    One byte per [2^bits] units of some buffer (bytes of linear memory,
    granules of a tag plane); nonzero means the chunk may differ from
    the image the owner was last snapshotted from or restored to. The
    owner marks a chunk {e after} its range-checked write, so the index
    is always in range, and {!drain} hands back each maximal dirty run
    for copying. *)

let chunks ~bits len = (len + (1 lsl bits) - 1) lsr bits

(** A map for a [len]-unit buffer with every chunk [dirty] or clean. *)
let create ~bits ~dirty len =
  Bytes.make (chunks ~bits len) (if dirty then '\001' else '\000')

(** Mark the chunks covering units [\[first, first + len)]. *)
let mark_range map ~bits first len =
  if len > 0 then
    Bytes.fill map (first lsr bits)
      (((first + len - 1) lsr bits) - (first lsr bits) + 1)
      '\001'

(** A clean map for a [len]-unit buffer: [map] cleared in place when its
    size still fits, a fresh one otherwise. *)
let clear map ~bits len =
  let n = chunks ~bits len in
  if Bytes.length map = n then begin
    Bytes.fill map 0 n '\000';
    map
  end
  else Bytes.make n '\000'

(** Clear every maximal run of dirty chunks, calling [f lo hi] with its
    unit range [\[lo, hi)] ([hi] is not clamped to the buffer); returns
    the sum of [f]'s results. *)
let drain map ~bits ~f =
  let n = Bytes.length map in
  let total = ref 0 and c = ref 0 in
  while !c < n do
    if Bytes.unsafe_get map !c = '\000' then incr c
    else begin
      let first = !c in
      while !c < n && Bytes.unsafe_get map !c <> '\000' do incr c done;
      Bytes.fill map first (!c - first) '\000';
      total := !total + f (first lsl bits) (!c lsl bits)
    end
  done;
  !total
