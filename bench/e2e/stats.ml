(* Order statistics over float samples. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  match Array.length a with
  | 0 -> nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   computes them (the default "exclusive" method), so the spreads this
   benchmark reports are the ones an outside check recomputes. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread l =
  let q1, q2, q3 = quartiles l in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* Nearest-rank percentile: the smallest sample with at least [p]
   percent of the sample at or below it (as [Serve.Slo.percentile_exact]). *)
let percentile l p =
  let a = sorted l in
  match Array.length a with
  | 0 -> nan
  | n ->
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun s x -> s +. log x) 0.0 l /. float_of_int (List.length l))

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
