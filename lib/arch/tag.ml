type t = int

let zero = 0
let of_int n = n land 0xf

let of_int_exn n =
  if n < 0 || n > 15 then invalid_arg "Tag.of_int_exn: tag out of range"
  else n

let to_int t = t
let equal = Int.equal
let is_zero t = t = 0
let add t n = (t + n) land 0xf
let all = List.init 16 Fun.id
let pp ppf t = Format.fprintf ppf "#%d" t

module Exclude = struct
  type t = int

  let none = 0
  let all = 0xffff
  let of_mask m = m land 0xffff
  let to_mask t = t
  let of_list tags = List.fold_left (fun m tag -> m lor (1 lsl tag)) 0 tags
  let add t tag = t lor (1 lsl tag)
  let mem t tag = t land (1 lsl tag) <> 0

  let allowed t =
    List.filter (fun tag -> not (mem t tag)) (List.init 16 Fun.id)

  let count_allowed t = List.length (allowed t)

  let pp ppf t =
    Format.fprintf ppf "{excluded:%a}"
      Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ",")
                pp_print_int)
      (List.filter (fun tag -> mem t tag) (List.init 16 Fun.id))
end

let next_allowed ex t =
  let rec go i =
    if i > 16 then zero
    else
      let candidate = add t i in
      if Exclude.mem ex candidate then go (i + 1) else candidate
  in
  go 1

let irg ex ~rng =
  match Exclude.allowed ex with
  | [] -> zero
  | allowed -> List.nth allowed (rng (List.length allowed))
