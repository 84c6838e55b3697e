(** Byte maps: dirty-chunk maps for in-place snapshot restore, the
    scan kernel they share with the tag plane ({!Tag_memory}), and the
    committed-prefix helpers of the two planes that back only a prefix
    of their units ([Wasm.Memory] and {!Tag_memory}).

    A dirty map has one byte per [2^bits] units of some buffer (bytes of
    linear memory, granules of a tag plane); nonzero means the chunk may
    differ from the image the owner was last snapshotted from or
    restored to. The owner marks a chunk {e after} its range-checked
    write, so the index is always in range, and {!drain} hands back each
    maximal dirty run for copying. *)

(* The bits in which the word at [j] differs from [pat]. Top-level and
   inlined: a local closure would box [pat] and allocate per call. *)
let[@inline] diff map j pat = Int64.logxor (Bytes.get_int64_ne map j) pat

(** The first index in [\[first, last\]] whose byte is not [want] (a
    byte value), or [last + 1]; [first <= last + 1]. Bounds-checked
    64-bit loads against [want] copied into every byte: each step ORs
    the XORs of eight consecutive words and tests the result once, then
    a word at a time finds the word that differs, then the tail goes a
    byte at a time. Each loaded word is combined where it is read and
    never leaves this function, so the scan allocates nothing. *)
let scan map ~first ~last want =
  let pat = Int64.mul (Int64.of_int want) 0x0101_0101_0101_0101L in
  let i = ref first in
  while
    !i + 63 <= last
    && Int64.logor
         (Int64.logor
            (Int64.logor (diff map !i pat) (diff map (!i + 8) pat))
            (Int64.logor (diff map (!i + 16) pat) (diff map (!i + 24) pat)))
         (Int64.logor
            (Int64.logor (diff map (!i + 32) pat) (diff map (!i + 40) pat))
            (Int64.logor (diff map (!i + 48) pat) (diff map (!i + 56) pat)))
       = 0L
  do
    i := !i + 64
  done;
  while !i + 7 <= last && Bytes.get_int64_ne map !i = pat do
    i := !i + 8
  done;
  while !i <= last && Char.code (Bytes.get map !i) = want do
    incr i
  done;
  !i

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
    the sum of [f]'s results. Clean chunks are skipped by {!scan}, 64
    to a step. *)
let drain map ~bits ~f =
  let n = Bytes.length map in
  let total = ref 0 and c = ref (scan map ~first:0 ~last:(n - 1) 0) in
  while !c < n do
    let first = !c in
    while !c < n && Bytes.unsafe_get map !c <> '\000' do incr c done;
    Bytes.fill map first (!c - first) '\000';
    total := !total + f (first lsl bits) (!c lsl bits);
    c := scan map ~first:!c ~last:(n - 1) 0
  done;
  !total

(* A plane backs a prefix of its units, and every unit past the prefix
   is zero; a snapshot image stands for its bytes plus such a tail. *)

(** A fresh copy of [b] followed by zeros up to [n] units
    ([n >= Bytes.length b]): a committed prefix extended, or a prefix
    written out at its logical length. *)
let zero_extend b n =
  let old = Bytes.length b in
  let b = Bytes.extend b 0 (n - old) in
  Bytes.fill b old (n - old) '\000';
  b

(** Rewrite units [\[lo, stop)] of a committed prefix [dst] from the
    image [img], with zeros past the image's end: one dirty run's
    restore. [lo <= stop <= Bytes.length dst]. *)
let rewrite ~img dst lo stop =
  let cut = max lo (min (Bytes.length img) stop) in
  if cut > lo then Bytes.blit img lo dst lo (cut - lo);
  Bytes.fill dst cut (stop - cut) '\000'
