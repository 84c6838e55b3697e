type t = int64

let addr_mask = 0xffff_ffff_ffffL
let tag_shift = 56
let tag_mask = Int64.shift_left 0xfL tag_shift

let address p = Int64.logand p addr_mask

let offset p n =
  let addr = Int64.logand (Int64.add (address p) n) addr_mask in
  Int64.logor addr (Int64.logand p (Int64.lognot addr_mask))

let tag p =
  Tag.of_int (Int64.to_int (Int64.logand (Int64.shift_right_logical p tag_shift) 0xfL))

let with_tag p t =
  Int64.logor
    (Int64.logand p (Int64.lognot tag_mask))
    (Int64.shift_left (Int64.of_int (Tag.to_int t)) tag_shift)

type pac_layout = { mte_enabled : bool }

(* Signature bit positions, low to high. Bits 49-54 are always part of the
   signature; the top field is 60-63 with MTE and 56-63 without. *)
let pac_positions layout =
  let low = [ 49; 50; 51; 52; 53; 54 ] in
  let high =
    if layout.mte_enabled then [ 60; 61; 62; 63 ]
    else [ 56; 57; 58; 59; 60; 61; 62; 63 ]
  in
  low @ high

let pac_bits layout = List.length (pac_positions layout)

let pac_field layout p =
  List.fold_left
    (fun (acc, i) pos ->
      let bit = Int64.to_int (Int64.logand (Int64.shift_right_logical p pos) 1L) in
      (acc lor (bit lsl i), i + 1))
    (0, 0) (pac_positions layout)
  |> fst

let with_pac_field layout p v =
  List.fold_left
    (fun (p, i) pos ->
      let bit = (v lsr i) land 1 in
      let cleared = Int64.logand p (Int64.lognot (Int64.shift_left 1L pos)) in
      (Int64.logor cleared (Int64.shift_left (Int64.of_int bit) pos), i + 1))
    (p, 0) (pac_positions layout)
  |> fst

let clear_pac_field layout p = with_pac_field layout p 0

let mask_external_only p = Int64.logand p (Int64.lognot tag_mask)

let mask_combined p =
  Int64.logand p (Int64.lognot (Int64.shift_left 1L tag_shift))

let pp ppf p =
  Format.fprintf ppf "0x%012Lx[%a]" (address p) Tag.pp (tag p)
