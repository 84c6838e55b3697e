(* Tests for the AArch64 MTE/PAC substrate. *)

open Arch

let tag = Alcotest.testable Tag.pp Tag.equal

(* ------------------------------------------------------------------ *)
(* Tag                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tag_of_int_wraps () =
  Alcotest.(check tag) "16 wraps to 0" Tag.zero (Tag.of_int 16);
  Alcotest.(check tag) "17 wraps to 1" (Tag.of_int_exn 1) (Tag.of_int 17);
  Alcotest.(check tag) "-1 masks to 15" (Tag.of_int_exn 15) (Tag.of_int (-1))

let test_tag_of_int_exn_rejects () =
  Alcotest.check_raises "16 rejected"
    (Invalid_argument "Tag.of_int_exn: tag out of range") (fun () ->
      ignore (Tag.of_int_exn 16));
  Alcotest.check_raises "-1 rejected"
    (Invalid_argument "Tag.of_int_exn: tag out of range") (fun () ->
      ignore (Tag.of_int_exn (-1)))

let test_tag_add_wraps () =
  Alcotest.(check tag) "15+1 = 0" Tag.zero (Tag.add (Tag.of_int 15) 1);
  Alcotest.(check tag) "7+8 = 15" (Tag.of_int 15) (Tag.add (Tag.of_int 7) 8)

let test_exclude_basics () =
  let ex = Tag.Exclude.of_list [ Tag.zero; Tag.of_int 5 ] in
  Alcotest.(check bool) "0 excluded" true (Tag.Exclude.mem ex Tag.zero);
  Alcotest.(check bool) "5 excluded" true (Tag.Exclude.mem ex (Tag.of_int 5));
  Alcotest.(check bool) "1 allowed" false (Tag.Exclude.mem ex (Tag.of_int 1));
  Alcotest.(check int) "14 allowed" 14 (Tag.Exclude.count_allowed ex)

let test_exclude_mask_roundtrip () =
  let mask = 0b1010_0000_0000_0001 in
  Alcotest.(check int) "mask roundtrip" mask
    Tag.Exclude.(to_mask (of_mask mask))

let test_next_allowed_skips_excluded () =
  let ex = Tag.Exclude.of_list [ Tag.zero; Tag.of_int 2 ] in
  Alcotest.(check tag) "1 -> 3 skipping 2" (Tag.of_int 3)
    (Tag.next_allowed ex (Tag.of_int 1));
  Alcotest.(check tag) "15 -> 1 skipping 0" (Tag.of_int 1)
    (Tag.next_allowed ex (Tag.of_int 15))

let test_next_allowed_all_excluded () =
  Alcotest.(check tag) "all excluded yields zero" Tag.zero
    (Tag.next_allowed Tag.Exclude.all (Tag.of_int 3))

let test_irg_respects_exclusion () =
  let ex = Tag.Exclude.of_list [ Tag.zero ] in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let t = Tag.irg ex ~rng:(fun n -> Random.State.int rng n) in
    Alcotest.(check bool) "irg never zero when excluded" false (Tag.is_zero t)
  done

let test_irg_all_excluded_is_zero () =
  Alcotest.(check tag) "irg under full exclusion" Tag.zero
    (Tag.irg Tag.Exclude.all ~rng:(fun _ -> 0))

let prop_irg_uniform_over_allowed =
  QCheck.Test.make ~name:"irg only generates allowed tags" ~count:500
    QCheck.(pair (int_bound 0xfffe) small_int)
    (fun (mask, seed) ->
      let ex = Tag.Exclude.of_mask mask in
      let rng = Random.State.make [| seed |] in
      let t = Tag.irg ex ~rng:(fun n -> Random.State.int rng n) in
      (not (Tag.Exclude.mem ex t)) || Tag.is_zero t)

let prop_next_allowed_never_excluded =
  QCheck.Test.make ~name:"next_allowed avoids exclusion set" ~count:500
    QCheck.(pair (int_bound 0x7fff) (int_bound 15))
    (fun (mask, t0) ->
      (* mask < 0x8000 leaves tag 15 allowed, so some tag is allowed *)
      let ex = Tag.Exclude.of_mask mask in
      not (Tag.Exclude.mem ex (Tag.next_allowed ex (Tag.of_int t0))))

(* ------------------------------------------------------------------ *)
(* Ptr                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ptr_tag_roundtrip () =
  let p = 0x0000_7fff_dead_bee0L in
  let tagged = Ptr.with_tag p (Tag.of_int 9) in
  Alcotest.(check tag) "tag read back" (Tag.of_int 9) (Ptr.tag tagged);
  Alcotest.(check int64) "address preserved" p (Ptr.address tagged)

let test_ptr_offset_preserves_tag () =
  let p = Ptr.with_tag 0x1000L (Tag.of_int 5) in
  let q = Ptr.offset p 0x230L in
  Alcotest.(check tag) "tag preserved" (Tag.of_int 5) (Ptr.tag q);
  Alcotest.(check int64) "address moved" 0x1230L (Ptr.address q)

let test_ptr_offset_wraps_48_bits () =
  let p = 0xffff_ffff_ffffL in
  Alcotest.(check int64) "wraps in 48-bit space" 0L
    (Ptr.address (Ptr.offset p 1L))

let test_ptr_mask_external () =
  let p = Ptr.with_tag 0x4000L (Tag.of_int 0xf) in
  Alcotest.(check tag) "all tag bits cleared" Tag.zero
    (Ptr.tag (Ptr.mask_external_only p))

let test_ptr_mask_combined () =
  (* bit 56 cleared, bits 57-59 preserved: tag 0b1111 -> 0b1110 *)
  let p = Ptr.with_tag 0x4000L (Tag.of_int 0xf) in
  Alcotest.(check tag) "only bit 56 cleared" (Tag.of_int 0b1110)
    (Ptr.tag (Ptr.mask_combined p));
  let q = Ptr.with_tag 0x4000L (Tag.of_int 0b0110) in
  Alcotest.(check tag) "already-clear bit unchanged" (Tag.of_int 0b0110)
    (Ptr.tag (Ptr.mask_combined q))

let test_pac_field_widths () =
  Alcotest.(check int) "10 bits with MTE" 10
    (Ptr.pac_bits { Ptr.mte_enabled = true });
  Alcotest.(check int) "14 bits without MTE" 14
    (Ptr.pac_bits { Ptr.mte_enabled = false })

let test_pac_field_mte_keeps_tag () =
  let layout = { Ptr.mte_enabled = true } in
  let p = Ptr.with_tag 0x1234L (Tag.of_int 7) in
  let signed = Ptr.with_pac_field layout p 0x3ff in
  Alcotest.(check tag) "MTE tag untouched by PAC field" (Tag.of_int 7)
    (Ptr.tag signed);
  Alcotest.(check int) "field read back" 0x3ff (Ptr.pac_field layout signed);
  Alcotest.(check int64) "address untouched" 0x1234L (Ptr.address signed)

let prop_pac_field_roundtrip =
  QCheck.Test.make ~name:"pac field pack/unpack roundtrip" ~count:1000
    QCheck.(triple int64 (int_bound 0x3fff) bool)
    (fun (p, v, mte) ->
      let layout = { Ptr.mte_enabled = mte } in
      let v = v land ((1 lsl Ptr.pac_bits layout) - 1) in
      Ptr.pac_field layout (Ptr.with_pac_field layout p v) = v)

let prop_ptr_tag_roundtrip =
  QCheck.Test.make ~name:"ptr tag pack/unpack roundtrip" ~count:1000
    QCheck.(pair int64 (int_bound 15))
    (fun (p, t) ->
      Tag.equal (Ptr.tag (Ptr.with_tag p (Tag.of_int t))) (Tag.of_int t))

(* ------------------------------------------------------------------ *)
(* Tag_memory                                                          *)
(* ------------------------------------------------------------------ *)

let test_tagmem_fresh_is_zero () =
  let tm = Tag_memory.create ~size_bytes:256 in
  Alcotest.(check (option tag)) "fresh memory zero-tagged" (Some Tag.zero)
    (Tag_memory.region_tag tm ~addr:0L ~len:256L)

let test_tagmem_set_get () =
  let tm = Tag_memory.create ~size_bytes:256 in
  (match Tag_memory.set_region tm ~addr:32L ~len:64L (Tag.of_int 3) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check tag) "inside region" (Tag.of_int 3) (Tag_memory.get tm 64L);
  Alcotest.(check tag) "before region" Tag.zero (Tag_memory.get tm 16L);
  Alcotest.(check tag) "after region" Tag.zero (Tag_memory.get tm 96L)

let test_tagmem_region_tag_mixed () =
  let tm = Tag_memory.create ~size_bytes:256 in
  ignore (Tag_memory.set_region tm ~addr:0L ~len:16L (Tag.of_int 1));
  Alcotest.(check (option tag)) "mixed region has no single tag" None
    (Tag_memory.region_tag tm ~addr:0L ~len:32L)

let test_tagmem_rejects_unaligned () =
  let tm = Tag_memory.create ~size_bytes:256 in
  (match Tag_memory.set_region tm ~addr:8L ~len:16L (Tag.of_int 1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unaligned set_region accepted");
  match Tag_memory.set_region tm ~addr:16L ~len:8L (Tag.of_int 1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-multiple length accepted"

let test_tagmem_rejects_oob () =
  let tm = Tag_memory.create ~size_bytes:64 in
  match Tag_memory.set_region tm ~addr:48L ~len:32L (Tag.of_int 1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-bounds set_region accepted"

let test_tagmem_matches () =
  let tm = Tag_memory.create ~size_bytes:256 in
  ignore (Tag_memory.set_region tm ~addr:16L ~len:32L (Tag.of_int 5));
  Alcotest.(check bool) "match inside" true
    (Tag_memory.matches tm ~addr:20L ~len:8L (Tag.of_int 5));
  Alcotest.(check bool) "mismatch straddling boundary" false
    (Tag_memory.matches tm ~addr:40L ~len:16L (Tag.of_int 5));
  Alcotest.(check bool) "oob never matches" false
    (Tag_memory.matches tm ~addr:250L ~len:16L Tag.zero)

let test_tagmem_zero_len_checks_granule () =
  let tm = Tag_memory.create ~size_bytes:64 in
  ignore (Tag_memory.set_region tm ~addr:16L ~len:16L (Tag.of_int 2));
  Alcotest.(check bool) "len=0 checks containing granule" true
    (Tag_memory.matches tm ~addr:24L ~len:0L (Tag.of_int 2))

let test_tagmem_grow_preserves () =
  let tm = Tag_memory.create ~size_bytes:64 in
  ignore (Tag_memory.set_region tm ~addr:16L ~len:16L (Tag.of_int 7));
  let tm' = Tag_memory.grow tm ~new_size_bytes:128 in
  Alcotest.(check tag) "old tag preserved" (Tag.of_int 7)
    (Tag_memory.get tm' 16L);
  Alcotest.(check tag) "new space zero" Tag.zero (Tag_memory.get tm' 100L)

let test_tagmem_storage_overhead () =
  (* 4 bits per 16 bytes = 1/32 of memory: the 3.125 % of §7.3 *)
  let tm = Tag_memory.create ~size_bytes:(128 * 1024 * 1024) in
  Alcotest.(check int) "tag storage is 1/32 of memory"
    (128 * 1024 * 1024 / 32)
    (Tag_memory.tag_storage_bytes tm)

let prop_tagmem_set_then_matches =
  QCheck.Test.make ~name:"set_region then matches over same range" ~count:300
    QCheck.(triple (int_bound 15) (int_bound 15) (int_bound 15))
    (fun (g0, glen, t) ->
      let tm = Tag_memory.create ~size_bytes:512 in
      let addr = Int64.of_int (g0 * 16) in
      let len = Int64.of_int ((glen + 1) * 16) in
      if Int64.add addr len > 512L then QCheck.assume_fail ()
      else
        match Tag_memory.set_region tm ~addr ~len (Tag.of_int t) with
        | Ok () -> Tag_memory.matches tm ~addr ~len (Tag.of_int t)
        | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* The scan kernel against byte-at-a-time references                   *)
(* ------------------------------------------------------------------ *)

(* The span checks and [Dirty.drain] scan eight 8-byte words per step,
   then a word, then a byte at a time. Each is compared here with a
   byte-at-a-time reference over the test's own copy of the plane or
   map: spans at every start granule mod 8, of 0-40 granules, of 41-200
   granules (one to three steps and their tails) with a mismatch at
   every granule, and of 1 MiB, spans that end on the plane's last
   granule, and spans that start below or reach past the plane. *)

(* The first granule in [first, last] whose tag is not [want], or
   [last + 1], one granule at a time. *)
let ref_scan copy first last want =
  let g = ref first in
  while !g <= last && copy.(!g) = want do incr g done;
  !g

let ref_in_bounds size ~addr ~len =
  addr >= 0L && len >= 0L && len <= Int64.sub (Int64.of_int size) addr

(* Every granule of the in-bounds span [addr, addr + len) tagged [want]. *)
let ref_all copy ~addr ~len want =
  let last = (addr + len - 1) / 16 in
  ref_scan copy (addr / 16) last want > last

let ref_matches copy size ~addr ~len want =
  let len = Int64.max len 1L in
  ref_in_bounds size ~addr ~len
  && ref_all copy ~addr:(Int64.to_int addr) ~len:(Int64.to_int len) want

let ref_matches_native copy size ~addr ~len want =
  let len = max len 1 in
  addr >= 0 && len <= size - addr && ref_all copy ~addr ~len want

let ref_first_mismatch copy size ~addr ~len want =
  if len <= 0L || not (ref_in_bounds size ~addr ~len) then None
  else
    let addr = Int64.to_int addr and len = Int64.to_int len in
    let last = (addr + len - 1) / 16 in
    let g = ref_scan copy (addr / 16) last want in
    if g > last then None else Some (Int64.of_int (g * 16))

let ref_region_tag copy size ~addr ~len =
  if not (ref_in_bounds size ~addr ~len:(Int64.max len 1L)) then Error ()
  else
    let addr = Int64.to_int addr and len = Int64.to_int len in
    let first = addr / 16 in
    let last = if len <= 0 then first else (addr + len - 1) / 16 in
    let t0 = copy.(first) in
    Ok (if ref_scan copy first last t0 > last then Some t0 else None)

(* A plane of [runs] (granules, tag) that ends [short] bytes before its
   last granule does, and the test's copy of its tags. [set_region]
   cannot reach a partial last granule, so that one keeps tag 0. *)
let plane_of_runs runs short =
  let n = List.fold_left (fun n (len, _) -> n + len) 0 runs in
  let size = (n * 16) - short in
  let whole = size / 16 in
  let tm = Tag_memory.create ~size_bytes:size and copy = Array.make n 0 in
  ignore
    (List.fold_left
       (fun g (len, t) ->
         let len = min len (whole - g) in
         if len > 0 then begin
           (match
              Tag_memory.set_region tm ~addr:(Int64.of_int (g * 16))
                ~len:(Int64.of_int (len * 16)) (Tag.of_int t)
            with
           | Ok () -> ()
           | Error e -> failwith e);
           Array.fill copy g len t
         end;
         g + len)
       0 runs);
  (tm, copy, size)

let run_gen =
  QCheck.Gen.(
    pair
      (frequency [ (3, int_range 1 12); (1, int_range 13 40) ])
      (int_bound 3))

let long_run = 65536 + 9

(* Mostly short planes; one in eight holds a run of more than 1 MiB. *)
let plane_gen =
  QCheck.Gen.(
    let around = list_size (int_bound 2) run_gen in
    pair
      (frequency
         [
           (7, list_size (int_range 1 8) run_gen);
           ( 1,
             map3
               (fun a t b -> a @ [ (long_run, t) ] @ b)
               around (int_bound 3) around );
         ])
      (int_bound 15))

let print_plane (runs, short) =
  Printf.sprintf "runs [%s], %d bytes short"
    (String.concat "; "
       (List.map (fun (n, t) -> Printf.sprintf "%dx%d" n t) runs))
    short

let prop_span_checks_equal_granule_loop =
  QCheck.Test.make ~name:"span checks equal the granule loop" ~count:150
    (QCheck.make ~print:print_plane plane_gen)
    (fun (runs, short) ->
      let tm, copy, size = plane_of_runs runs short in
      let n = Array.length copy in
      let check64 addr len want =
        let tag = Tag.of_int want in
        let fail what =
          QCheck.Test.fail_reportf "%s: addr %Ld, len %Ld, tag %d" what addr len
            want
        in
        if Tag_memory.matches tm ~addr ~len tag
           <> ref_matches copy size ~addr ~len want
        then fail "matches";
        if Tag_memory.first_mismatch tm ~addr ~len tag
           <> ref_first_mismatch copy size ~addr ~len want
        then fail "first_mismatch";
        let got =
          match Tag_memory.region_tag tm ~addr ~len with
          | r -> Ok (Option.map Tag.to_int r)
          | exception Invalid_argument _ -> Error ()
        in
        if got <> ref_region_tag copy size ~addr ~len then fail "region_tag"
      in
      let check addr len want =
        if Tag_memory.matches_native tm ~addr ~len (Tag.of_int want)
           <> ref_matches_native copy size ~addr ~len want
        then
          QCheck.Test.fail_reportf "matches_native: addr %d, len %d, tag %d"
            addr len want;
        check64 (Int64.of_int addr) (Int64.of_int len) want
      in
      (* the start granule's own tag and another *)
      let wants g = [ copy.(g); (copy.(g) + 1) land 15 ] in
      (* every start mod 8 at both ends of the plane: spans of 0-40
         granules, entered and left inside a granule, and the span to
         the plane's last byte *)
      List.iter
        (fun g ->
          for k = 0 to 40 do
            List.iter
              (fun (o, d) ->
                List.iter (check ((g * 16) + o) ((k * 16) - d)) (wants g))
              [ (0, 0); (0, 5); (9, 0); (9, 9) ]
          done;
          List.iter (check (g * 16) (size - (g * 16))) (wants g))
        (List.sort_uniq compare
           (List.init (min n 16) (fun i -> i)
           @ List.init (min n 16) (fun i -> n - 1 - i)));
      (* 1 MiB spans at every start mod 8 inside the long run, and
         spans that end on its last granule or leave it by 1-7 *)
      let rec long_start g = function
        | (len, _) :: _ when len = long_run -> Some g
        | (len, _) :: rest -> long_start (g + len) rest
        | [] -> None
      in
      Option.iter
        (fun g0 ->
          for r = 0 to 7 do
            List.iter
              (fun g -> List.iter (check (g * 16) (65536 * 16)) (wants g))
              [ g0 + r; g0 + 9 + r ]
          done)
        (long_start 0 runs);
      (* spans below, across and past the plane's ends *)
      let edges =
        [ min_int; -16; -1; 0; 1; size - 1; size; size + 16; max_int ]
      in
      List.iter
        (fun a -> List.iter (fun l -> List.iter (check a l) [ 0; 1 ]) edges)
        edges;
      let edges64 =
        [ Int64.min_int; -16L; 0L; Int64.of_int size; Int64.max_int ]
      in
      List.iter
        (fun a -> List.iter (fun l -> List.iter (check64 a l) [ 0; 1 ]) edges64)
        edges64;
      true)

(* Spans of 41-200 granules at every start mod 8 over a plane of one
   tag with at most one odd granule, placed in turn at every granule
   the spans reach: inside each word of a step, in the word loop and
   in the byte tail, and just past the span. *)
let test_span_checks_across_steps () =
  let n = 256 and t = 5 in
  let size = n * 16 in
  let tm = Tag_memory.create ~size_bytes:size and copy = Array.make n t in
  let retag g tag =
    (match
       Tag_memory.set_region tm ~addr:(Int64.of_int (g * 16)) ~len:16L
         (Tag.of_int tag)
     with
    | Ok () -> ()
    | Error e -> failwith e);
    copy.(g) <- tag
  in
  for g = 0 to n - 1 do retag g t done;
  for odd = -1 to 215 do
    if odd >= 0 then retag odd (t + 1);
    for g = 0 to 7 do
      for k = 41 to 200 do
        let addr = g * 16 and len = k * 16 in
        let a64 = Int64.of_int addr and l64 = Int64.of_int len in
        List.iter
          (fun want ->
            let tag = Tag.of_int want in
            let fail what =
              Alcotest.failf "%s: granules [%d, %d), odd granule %d, tag %d"
                what g (g + k) odd want
            in
            if Tag_memory.matches_native tm ~addr ~len tag
               <> ref_matches_native copy size ~addr ~len want
            then fail "matches_native";
            if Tag_memory.matches tm ~addr:a64 ~len:l64 tag
               <> ref_matches copy size ~addr:a64 ~len:l64 want
            then fail "matches";
            if Tag_memory.first_mismatch tm ~addr:a64 ~len:l64 tag
               <> ref_first_mismatch copy size ~addr:a64 ~len:l64 want
            then fail "first_mismatch")
          [ t; t + 1 ];
        if Option.map Tag.to_int (Tag_memory.region_tag tm ~addr:a64 ~len:l64)
           <> Result.get_ok (ref_region_tag copy size ~addr:a64 ~len:l64)
        then
          Alcotest.failf "region_tag: granules [%d, %d), odd granule %d" g
            (g + k) odd
      done
    done;
    if odd >= 0 then retag odd t
  done

(* The byte-at-a-time drain: every maximal nonzero run, in order. *)
let ref_drain map ~bits ~f =
  let n = Bytes.length map in
  let total = ref 0 and c = ref 0 in
  while !c < n do
    if Bytes.get map !c = '\000' then incr c
    else begin
      let first = !c in
      while !c < n && Bytes.get map !c <> '\000' do incr c done;
      Bytes.fill map first (!c - first) '\000';
      total := !total + f (first lsl bits) (!c lsl bits)
    end
  done;
  !total

(* [map] drained by [drain]: the runs it reported, the sum of [f]'s
   results, and the map it left. *)
let drained ~bits map drain =
  let calls = ref [] in
  let total =
    drain map ~bits ~f:(fun lo hi ->
        calls := (lo, hi) :: !calls;
        ((hi - lo) * 3) + (lo mod 5))
  in
  (List.rev !calls, total, Bytes.to_string map)

(* Maps of clean and dirty runs (dirty bytes 1, or any nonzero byte),
   up to a few thousand chunks and never a multiple of 8 long. *)
let map_gen =
  QCheck.Gen.(
    let run =
      pair
        (frequency [ (3, int_range 1 12); (1, int_range 13 300) ])
        (frequency [ (4, return 0); (3, return 1); (1, int_range 1 255) ])
    in
    triple (list_size (int_range 1 12) run) (int_range 1 7)
      (oneofl [ 0; 8; 12 ]))

let prop_drain_equals_byte_loop =
  QCheck.Test.make ~name:"Dirty.drain equals the byte loop" ~count:300
    (QCheck.make
       ~print:(fun (runs, pad, bits) ->
         Printf.sprintf "runs [%s], pad %d, bits %d"
           (String.concat "; "
              (List.map (fun (n, v) -> Printf.sprintf "%dx%d" n v) runs))
           pad bits)
       map_gen)
    (fun (runs, pad, bits) ->
      let body =
        String.concat ""
          (List.map (fun (n, v) -> String.make n (Char.chr v)) runs)
      in
      (* pad to [pad] past a multiple of 8 *)
      let body =
        body
        ^ String.make ((pad - (String.length body mod 8) + 8) mod 8)
            (Char.chr (pad land 1))
      in
      drained ~bits (Bytes.of_string body) Dirty.drain
      = drained ~bits (Bytes.of_string body) ref_drain)

(* Clean maps of 1-200 bytes with one dirty byte at every position, and
   200-byte maps with two, so that dirty bytes sit inside each word of
   a step, in the word loop and in the byte tail. *)
let test_drain_inside_steps () =
  let check dirty n =
    let map () =
      let m = Bytes.make n '\000' in
      List.iter (fun (p, v) -> Bytes.set m p (Char.chr v)) dirty;
      m
    in
    if drained ~bits:12 (map ()) Dirty.drain <> drained ~bits:12 (map ()) ref_drain
    then
      Alcotest.failf "drain of %d bytes dirty at [%s]" n
        (String.concat "; " (List.map (fun (p, _) -> string_of_int p) dirty))
  in
  for n = 1 to 200 do
    for p = 0 to n - 1 do check [ (p, if p land 1 = 0 then 1 else 255) ] n done
  done;
  for p = 0 to 199 do
    for q = p + 1 to 199 do check [ (p, 1); (q, 1) ] 200 done
  done

(* ------------------------------------------------------------------ *)
(* The lazy tag plane against the eager one                            *)
(* ------------------------------------------------------------------ *)

(* The plane as it was before commit on first retag, one granule at a
   time: every granule backed from creation, a grow that adds granules
   marks every chunk dirty, and a restore of the base at the same
   granule count copies back each maximal run of dirty 256-granule
   chunks. [Tag_memory] must be indistinguishable from it. *)
module Eager = struct
  type t = {
    mutable tags : Bytes.t;
    mutable size : int;
    mutable dirty : bool array;
    mutable base : int;
  }

  type snap = { id : int; stags : Bytes.t; ssize : int }

  let granules size = (size + 15) / 16
  let chunks g = (g + 255) / 256

  let create size =
    let g = granules size in
    { tags = Bytes.make g '\000'; size; dirty = Array.make (chunks g) false;
      base = -1 }

  let set_region t ~addr ~len tag =
    let ok =
      Int64.rem addr 16L = 0L && Int64.rem len 16L = 0L
      && ref_in_bounds t.size ~addr ~len
    in
    if ok then
      for g = Int64.to_int addr / 16 to (Int64.to_int (Int64.add addr len) / 16) - 1
      do
        Bytes.set t.tags g (Char.chr tag);
        t.dirty.(g / 256) <- true
      done;
    ok

  let grow t size =
    let g = granules size and n = Bytes.length t.tags in
    if g > n then begin
      t.tags <- Bytes.cat t.tags (Bytes.make (g - n) '\000');
      t.dirty <- Array.make (chunks g) true
    end;
    t.size <- size

  let snapshot t id =
    t.dirty <- Array.make (chunks (Bytes.length t.tags)) false;
    t.base <- id;
    { id; stags = Bytes.copy t.tags; ssize = t.size }

  (* the tag storage copied, at 4 bits per granule *)
  let restore t s =
    let len = Bytes.length s.stags in
    let same = Bytes.length t.tags = len in
    t.size <- s.ssize;
    if t.base = s.id && same then begin
      let copied = ref 0 and c = ref 0 and n = Array.length t.dirty in
      while !c < n do
        if not t.dirty.(!c) then incr c
        else begin
          let lo = !c * 256 in
          while !c < n && t.dirty.(!c) do
            t.dirty.(!c) <- false;
            incr c
          done;
          let hi = min len (!c * 256) in
          Bytes.blit s.stags lo t.tags lo (hi - lo);
          copied := !copied + ((hi - lo + 1) / 2)
        end
      done;
      !copied
    end
    else begin
      t.tags <- Bytes.copy s.stags;
      t.dirty <- Array.make (chunks len) false;
      t.base <- s.id;
      (len + 1) / 2
    end
end

(* A step of the property. A retag is placed relative to an anchor (the
   plane's start, the committed prefix's end, or the size's end), so it
   can straddle the prefix wherever it has reached; one in eight is
   misaligned. A restore picks one of the images taken so far. *)
type pstep =
  | Retag of int * int * int * int  (* anchor, granule delta, granules, tag *)
  | Grow of int                     (* bytes added *)
  | Snap
  | Restore of int

let show_pstep = function
  | Retag (a, d, n, t) -> Printf.sprintf "retag @%d%+d %dg tag %d" a d n t
  | Grow b -> Printf.sprintf "grow +%d" b
  | Snap -> "snap"
  | Restore i -> Printf.sprintf "restore %d" i

let lazy_plane_gen =
  QCheck.Gen.(
    let size =
      frequency
        [ (1, map2 (fun g s -> (g * 16) - s) (1 -- 300) (oneofl [ 0; 5 ]));
          (3, map2 (fun g s -> (g * 16) - s) (4097 -- 6200) (oneofl [ 0; 0; 9 ]))
        ]
    in
    let step =
      frequency
        [ ( 6,
            map3
              (fun (a, d) n t -> Retag (a, d, n, t))
              (pair (0 -- 2) (-300 -- 300))
              (frequency [ (5, 0 -- 600); (1, 2000 -- 6000) ])
              (0 -- 15) );
          (1, map (fun b -> Grow b) (frequency [ (3, 0 -- 40); (1, 1 -- 20_000) ]));
          (2, return Snap);
          (2, map (fun i -> Restore i) (0 -- 5)) ]
    in
    pair size (list_size (1 -- 12) step))

let prop_lazy_plane_equals_eager =
  QCheck.Test.make ~name:"lazy tag plane equals the eager plane" ~count:120
    (QCheck.make
       ~print:(fun (size, steps) ->
         Printf.sprintf "size %d: %s" size
           (String.concat "; " (List.map show_pstep steps)))
       lazy_plane_gen)
    (fun (size, steps) ->
      let tm = Tag_memory.create ~size_bytes:size and e = Eager.create size in
      let snaps = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let compare_plane step =
        let copy =
          Array.init (Bytes.length e.tags) (fun g -> Char.code (Bytes.get e.tags g))
        in
        let size = e.size and p = 16 * Tag_memory.committed_granules tm in
        if p > size then fail "%s: prefix %d past size %d" step p size;
        if Tag_memory.to_string tm <> Bytes.to_string e.tags then
          fail "%s: to_string" step;
        List.iter
          (fun (s, es) ->
            let img = es.Eager.stags in
            if Tag_memory.snapshot_to_string s <> Bytes.to_string img
               || Tag_memory.snapshot_bytes s <> (Bytes.length img + 1) / 2
            then fail "%s: image %d" step es.Eager.id)
          !snaps;
        let check64 addr len want =
          let tag = Tag.of_int want in
          let what f = fail "%s: %s addr %Ld len %Ld tag %d" step f addr len want in
          if Tag_memory.matches tm ~addr ~len tag
             <> ref_matches copy size ~addr ~len want
          then what "matches";
          if Tag_memory.first_mismatch tm ~addr ~len tag
             <> ref_first_mismatch copy size ~addr ~len want
          then what "first_mismatch";
          let got =
            match Tag_memory.region_tag tm ~addr ~len with
            | r -> Ok (Option.map Tag.to_int r)
            | exception Invalid_argument _ -> Error ()
          in
          if got <> ref_region_tag copy size ~addr ~len then what "region_tag";
          let got =
            match Tag_memory.get tm addr with
            | t -> Some (Tag.to_int t)
            | exception Invalid_argument _ -> None
          in
          let want_get =
            if ref_in_bounds size ~addr ~len:1L then
              Some copy.(Int64.to_int addr / 16)
            else None
          in
          if got <> want_get then what "get"
        in
        let check addr len =
          let wants =
            if addr >= 0 && addr < size then
              [ 0; copy.(addr / 16); (copy.(addr / 16) + 1) land 15 ]
            else [ 0; 5 ]
          in
          List.iter
            (fun want ->
              if Tag_memory.matches_native tm ~addr ~len (Tag.of_int want)
                 <> ref_matches_native copy size ~addr ~len want
              then
                fail "%s: matches_native addr %d len %d tag %d" step addr len
                  want;
              check64 (Int64.of_int addr) (Int64.of_int len) want)
            wants
        in
        (* short spans at the plane's ends and around the prefix's end,
           saturated lengths and negative addresses *)
        let addrs =
          [ min_int; -16; -1; 0; 1; 16; p - 17; p - 16; p - 1; p; p + 1; p + 16;
            size - 17; size - 16; size - 1; size; size + 16; max_int ]
        in
        List.iter
          (fun a ->
            List.iter (check a) [ min_int; -1; 0; 1; 8; 16; 17; 32; max_int ])
          addrs;
        (* long spans: to and across the prefix's end, to the size *)
        List.iter
          (fun (a, l) -> check a l)
          [ (0, p); (0, p + 16); (0, size); (16, size - 16); (p - 4096, 8192);
            (p - 16, size - p + 16); (p, size - p); (size - 4111, 4111) ];
        List.iter
          (fun a ->
            List.iter (fun l -> check64 a l 0) [ Int64.min_int; 0L; Int64.max_int ])
          [ Int64.min_int; -16L; 0L; Int64.of_int p; Int64.max_int ]
      in
      compare_plane "create";
      List.iteri
        (fun i step ->
          let name = Printf.sprintf "step %d (%s)" i (show_pstep step) in
          (match step with
          | Retag (anchor, d, n, t) ->
              let g =
                d + match anchor with
                  | 0 -> 0
                  | 1 -> Tag_memory.committed_granules tm
                  | _ -> e.size / 16
              in
              let addr = Int64.of_int ((g * 16) + if n mod 8 = 7 then 8 else 0) in
              let len = Int64.of_int (16 * n) in
              let ok = Tag_memory.set_region tm ~addr ~len (Tag.of_int t) = Ok () in
              if ok <> Eager.set_region e ~addr ~len t then fail "%s: verdict" name
          | Grow b ->
              ignore (Tag_memory.grow tm ~new_size_bytes:(e.size + b));
              Eager.grow e (e.size + b)
          | Snap -> snaps := (Tag_memory.snapshot tm, Eager.snapshot e i) :: !snaps
          | Restore k -> (
              match List.nth_opt !snaps (k mod max 1 (List.length !snaps)) with
              | None -> ()
              | Some (s, es) ->
                  let got = Tag_memory.restore tm s and want = Eager.restore e es in
                  if got <> want then
                    fail "%s: restore copied %d, eager %d" name got want));
          compare_plane name)
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Mte                                                                 *)
(* ------------------------------------------------------------------ *)

let setup_mte ?(mode = Mte.Sync) () =
  let tm = Tag_memory.create ~size_bytes:256 in
  ignore (Tag_memory.set_region tm ~addr:64L ~len:32L (Tag.of_int 4));
  (tm, Mte.create ~mode tm)

let test_mte_allows_matching () =
  let _, mte = setup_mte () in
  let p = Ptr.with_tag 64L (Tag.of_int 4) in
  match Mte.check mte Load ~ptr:p ~len:8L with
  | Allowed -> ()
  | _ -> Alcotest.fail "matching access faulted"

let test_mte_sync_faults_mismatch () =
  let _, mte = setup_mte () in
  let p = Ptr.with_tag 64L (Tag.of_int 5) in
  match Mte.check mte Store ~ptr:p ~len:8L with
  | Faulted f ->
      Alcotest.(check tag) "pointer tag recorded" (Tag.of_int 5) f.ptr_tag;
      Alcotest.(check (option tag)) "memory tag recorded" (Some (Tag.of_int 4))
        f.mem_tag
  | _ -> Alcotest.fail "sync mismatch did not fault"

let test_mte_disabled_allows_everything () =
  let _, mte = setup_mte ~mode:Mte.Disabled () in
  let p = Ptr.with_tag 64L (Tag.of_int 9) in
  match Mte.check mte Store ~ptr:p ~len:8L with
  | Allowed -> ()
  | _ -> Alcotest.fail "disabled MTE checked tags"

let test_mte_async_defers () =
  let _, mte = setup_mte ~mode:Mte.Async () in
  let p = Ptr.with_tag 64L (Tag.of_int 9) in
  (match Mte.check mte Store ~ptr:p ~len:8L with
  | Deferred _ -> ()
  | _ -> Alcotest.fail "async mismatch not deferred");
  Alcotest.(check bool) "TFSR set" true (Mte.pending_fault mte <> None);
  (match Mte.context_switch mte with
  | Some _ -> ()
  | None -> Alcotest.fail "context switch lost the fault");
  Alcotest.(check bool) "TFSR cleared" true (Mte.pending_fault mte = None)

let test_mte_asymmetric () =
  let _, mte = setup_mte ~mode:Mte.Asymmetric () in
  let p = Ptr.with_tag 64L (Tag.of_int 9) in
  (match Mte.check mte Load ~ptr:p ~len:8L with
  | Deferred _ -> ()
  | _ -> Alcotest.fail "asymmetric load should be async");
  match Mte.check mte Store ~ptr:p ~len:8L with
  | Faulted _ -> ()
  | _ -> Alcotest.fail "asymmetric store should be sync"

let test_mte_async_keeps_first_fault () =
  let _, mte = setup_mte ~mode:Mte.Async () in
  let p1 = Ptr.with_tag 64L (Tag.of_int 9) in
  let p2 = Ptr.with_tag 80L (Tag.of_int 10) in
  ignore (Mte.check mte Store ~ptr:p1 ~len:8L);
  ignore (Mte.check mte Store ~ptr:p2 ~len:8L);
  match Mte.pending_fault mte with
  | Some f -> Alcotest.(check int64) "first fault kept" 64L f.fault_addr
  | None -> Alcotest.fail "no pending fault"

let test_mte_take_pending_drains () =
  let _, mte = setup_mte ~mode:Mte.Async () in
  let p = Ptr.with_tag 64L (Tag.of_int 9) in
  ignore (Mte.check mte Store ~ptr:p ~len:8L);
  (match Mte.take_pending mte with
  | Some f -> Alcotest.(check int64) "fault returned" 64L f.fault_addr
  | None -> Alcotest.fail "take_pending lost the fault");
  Alcotest.(check bool) "second drain is empty" true
    (Mte.take_pending mte = None)

let test_tag_memory_grow_preserves_and_reuses () =
  let tm = Tag_memory.create ~size_bytes:128 in
  ignore (Tag_memory.set_region tm ~addr:32L ~len:16L (Tag.of_int 7));
  (* same granule count: nothing to do, tags untouched *)
  let tm = Tag_memory.grow tm ~new_size_bytes:128 in
  Alcotest.(check tag) "tag kept after no-op grow" (Tag.of_int 7)
    (Tag_memory.get tm 32L);
  (* real grow: old tags preserved, new granules zero-tagged *)
  let tm = Tag_memory.grow tm ~new_size_bytes:256 in
  Alcotest.(check int) "size grown" 256 (Tag_memory.size_bytes tm);
  Alcotest.(check tag) "tag kept after grow" (Tag.of_int 7)
    (Tag_memory.get tm 32L);
  Alcotest.(check tag) "fresh granules zero-tagged" Tag.zero
    (Tag_memory.get tm 200L)

let test_mte_oob_is_mismatch () =
  let _, mte = setup_mte () in
  let p = Ptr.with_tag 1024L Tag.zero in
  match Mte.check mte Load ~ptr:p ~len:8L with
  | Faulted f -> Alcotest.(check (option tag)) "no memory tag" None f.mem_tag
  | _ -> Alcotest.fail "out-of-range access allowed"

(* One check, two entries: [Mte.check] through a pointer and
   [Mte.check_native] on the pointer's address field and tag must agree
   on the verdict, the check count, the TFSR latch and the Tag_fault
   event, for both accesses in every mode. A length past the native
   range reaches the native entry as the largest native length, and
   must stay a mismatch rather than wrap into a small span ([2^62]
   wraps to [min_int], which a plain conversion would check as one
   byte). *)
let test_mte_two_entries () =
  let t4 = Tag.of_int 4 and t5 = Tag.of_int 5 in
  let run mode f =
    let _, mte = setup_mte ~mode () in
    let tr = Obs.Trace.create () in
    let verdict =
      Obs.Hook.with_sink (Obs.Hook.make ~trace:tr ()) (fun () -> f mte)
    in
    let events =
      List.map (fun (r : Obs.Trace.record) -> r.payload) (Obs.Trace.recent tr 8)
    in
    (verdict, Mte.checks_performed mte, Mte.pending_fault mte, events)
  in
  let inputs =
    [ ("len 0", Ptr.with_tag 64L t4, 0L);
      ("len 0, other tag", Ptr.with_tag 64L t5, 0L);
      ("across a granule", Ptr.with_tag 72L t4, 16L);
      ("across a tag boundary", Ptr.with_tag 88L t4, 16L);
      ("past the tag plane", Ptr.with_tag 248L Tag.zero, 16L);
      ("negative pointer", Ptr.with_tag (-16L) Tag.zero, 8L);
      ("2^62 bytes", Ptr.with_tag 64L t4, Int64.shift_left 1L 62);
      ("max_int64 bytes", Ptr.with_tag 64L t4, Int64.max_int) ]
  and must_fault = [ "across a tag boundary"; "past the tag plane";
                     "negative pointer"; "2^62 bytes"; "max_int64 bytes" ] in
  List.iter
    (fun mode ->
      List.iter
        (fun access ->
          List.iter
            (fun (name, ptr, len) ->
              let label =
                Printf.sprintf "%s, %s %s" name (Mte.mode_to_string mode)
                  (match access with Mte.Load -> "load" | Mte.Store -> "store")
              in
              let ((verdict, _, _, _) as wide) =
                run mode (fun mte -> Mte.check mte access ~ptr ~len)
              in
              let native =
                run mode (fun mte ->
                    Mte.check_native mte access
                      ~addr:(Int64.to_int (Ptr.address ptr))
                      ~tag:(Ptr.tag ptr)
                      ~len:
                        (if len > Int64.of_int max_int then max_int
                         else Int64.to_int len))
              in
              Alcotest.(check bool) (label ^ ": entries agree") true (wide = native);
              if mode <> Mte.Disabled && List.mem name must_fault then
                Alcotest.(check bool) (label ^ ": a mismatch") true
                  (verdict <> Mte.Allowed))
            inputs)
        [ Mte.Load; Mte.Store ];
      (* an address no pointer's field can hold: never in the plane *)
      if mode <> Mte.Disabled then
        match run mode (fun mte -> Mte.check_native mte Mte.Store ~addr:(-16) ~tag:Tag.zero ~len:8) with
        | Mte.Allowed, _, _, _ -> Alcotest.fail "a negative native address matched"
        | (Mte.Faulted f | Mte.Deferred f), _, _, _ ->
            Alcotest.(check int64) "negative address recorded" (-16L) f.fault_addr)
    [ Mte.Disabled; Mte.Sync; Mte.Async; Mte.Asymmetric ]

(* ------------------------------------------------------------------ *)
(* Fault_inject                                                        *)
(* ------------------------------------------------------------------ *)

(* A lane's live bit clears with its budget. With probability 1 and a
   budget of k, the lane is live through its k-th firing and dead
   after it; a spent lane never fires again and never rolls its PRNG.
   An instance armed on a spent lane behaves as an unarmed one, on both
   engines: the same outcome (a load's value, and a deterministic tag
   fault through a tag-3 pointer to untagged memory), meter and MTE
   check count, and an empty [injections ~since] slice. A fresh lane of
   the same policy does fire on that module, so the comparison bites. *)
let test_spent_lane_is_unarmed () =
  let sure = Fault_inject.policy ~seed:5 ~max_injections:3 Fault_inject.all_sites in
  let ln = Fault_inject.lane (Fault_inject.create sure) 0 in
  for i = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "live before firing %d" i) true ln.ln_live;
    Alcotest.(check bool) (Printf.sprintf "firing %d" i) true
      (Fault_inject.draw ln Fault_inject.Ptr_tag)
  done;
  Alcotest.(check bool) "dead after the 3rd firing" false ln.ln_live;
  let coin =
    Fault_inject.lane
      (Fault_inject.create
         (Fault_inject.policy ~seed:5 ~probability:0.5 Fault_inject.all_sites))
      0
  in
  while not (Fault_inject.draw coin Fault_inject.Tag_flip) do () done;
  let next () = Random.State.bits (Random.State.copy coin.ln_rng) in
  let before = next () in
  for _ = 1 to 50 do
    if Fault_inject.draw coin Fault_inject.Tag_flip then
      Alcotest.fail "a spent lane fired"
  done;
  Alcotest.(check bool) "a spent lane keeps its PRNG" true (before = next ());
  let open Wasm in
  let ma = { Ast.offset = 0L; align = 3 } in
  let i64 = Types.I64 in
  let m =
    { Ast.empty_module with
      types = [ { Types.params = []; results = [ i64 ] } ];
      funcs =
        List.map
          (fun body -> { Ast.ftype = 0; locals = []; body; fname = None })
          [ [ Ast.I64Const 64L; Ast.I64Const 7L; Ast.Store (i64, None, ma);
              Ast.I64Const 64L; Ast.Load (i64, None, ma) ];
            [ Ast.I64Const 0x0300_0000_0000_0040L; Ast.Load (i64, None, ma) ] ];
      memory =
        Some { Types.mem_idx = Types.Idx64;
               mem_limits = { Types.min = 1L; max = Some 1L } };
      exports =
        [ { Ast.ex_name = "f0"; ex_desc = Ast.Func_export 0 };
          { Ast.ex_name = "f1"; ex_desc = Ast.Func_export 1 } ] }
  in
  let run engine lane =
    let meter = Meter.create () in
    let inst =
      Exec.instantiate
        ~config:{ Instance.default_config with engine; meter = Some meter } m
    in
    Option.iter (Instance.arm inst) lane;
    let since = Option.map Fault_inject.lane_count lane in
    let outcomes =
      List.map
        (fun f ->
          match Exec.invoke inst f [] with
          | vs -> Ok vs
          | exception Instance.Trap msg -> Error msg)
        [ "f0"; "f1" ]
    in
    let injected =
      match (lane, since) with
      | Some ln, Some since -> Fault_inject.injections ~since ln
      | _ -> []
    in
    (outcomes, meter, Mte.checks_performed (Instance.mte inst), injected)
  in
  List.iter
    (fun (label, engine) ->
      let ((outcomes, _, _, _) as unarmed) = run engine None in
      (match outcomes with
      | [ Ok [ Values.I64 7L ]; Error msg ]
        when Astring.String.is_infix ~affix:"tag fault" msg -> ()
      | _ -> Alcotest.failf "%s: unexpected unarmed outcomes" label);
      Alcotest.(check bool) (label ^ ": spent lane = unarmed") true
        (run engine (Some ln) = unarmed);
      let fresh = Fault_inject.lane (Fault_inject.create sure) 0 in
      let _, _, _, injected = run engine (Some fresh) in
      Alcotest.(check bool) (label ^ ": a live lane injects") true (injected <> []))
    [ ("interp", Instance.Interp); ("threaded", Instance.Threaded) ]

(* ------------------------------------------------------------------ *)
(* Pac                                                                 *)
(* ------------------------------------------------------------------ *)

let key_a = Pac.key_of_int64s 0x0123456789abcdefL 0xfedcba9876543210L
let key_b = Pac.key_of_int64s 0x1111111111111111L 0x2222222222222222L

let test_pac_sign_auth_roundtrip () =
  let cfg = Pac.default_config in
  let p = 0x0000_0000_1234_5678L in
  let signed = Pac.sign cfg key_a ~modifier:0L p in
  match Pac.auth cfg key_a ~modifier:0L signed with
  | Valid p' -> Alcotest.(check int64) "roundtrip" p p'
  | _ -> Alcotest.fail "valid signature rejected"

let test_pac_wrong_key_traps () =
  let cfg = Pac.default_config in
  let signed = Pac.sign cfg key_a ~modifier:0L 0x1234L in
  match Pac.auth cfg key_b ~modifier:0L signed with
  | Invalid_trap -> ()
  | Valid _ -> Alcotest.fail "wrong key accepted"
  | Invalid_poisoned _ -> Alcotest.fail "FPAC config should trap"

let test_pac_wrong_modifier_traps () =
  let cfg = Pac.default_config in
  let signed = Pac.sign cfg key_a ~modifier:7L 0x1234L in
  match Pac.auth cfg key_a ~modifier:8L signed with
  | Invalid_trap -> ()
  | _ -> Alcotest.fail "wrong modifier accepted"

let test_pac_no_fpac_poisons () =
  let cfg = { Pac.default_config with fpac = false } in
  let signed = Pac.sign cfg key_a ~modifier:0L 0x1234L in
  match Pac.auth cfg key_b ~modifier:0L signed with
  | Invalid_poisoned p ->
      Alcotest.(check bool) "poison marker set" true (Pac.is_poisoned cfg p);
      Alcotest.(check int64) "address survives" 0x1234L (Ptr.address p)
  | Invalid_trap -> Alcotest.fail "non-FPAC config trapped"
  | Valid _ -> Alcotest.fail "wrong key accepted"

let test_pac_strip () =
  let cfg = Pac.default_config in
  let signed = Pac.sign cfg key_a ~modifier:0L 0x1234L in
  Alcotest.(check int64) "xpacd strips without auth" 0x1234L
    (Pac.strip cfg signed)

let test_pac_tampered_address_traps () =
  let cfg = Pac.default_config in
  let signed = Pac.sign cfg key_a ~modifier:0L 0x1234L in
  let tampered = Ptr.offset signed 16L in
  match Pac.auth cfg key_a ~modifier:0L tampered with
  | Invalid_trap -> ()
  | _ -> Alcotest.fail "tampered pointer accepted"

let test_pac_preserves_mte_tag () =
  let cfg = Pac.default_config in
  let p = Ptr.with_tag 0x1234L (Tag.of_int 6) in
  let signed = Pac.sign cfg key_a ~modifier:0L p in
  Alcotest.(check tag) "tag outside PAC field" (Tag.of_int 6) (Ptr.tag signed);
  match Pac.auth cfg key_a ~modifier:0L signed with
  | Valid p' -> Alcotest.(check tag) "tag after auth" (Tag.of_int 6) (Ptr.tag p')
  | _ -> Alcotest.fail "valid signature rejected"

let prop_pac_roundtrip =
  QCheck.Test.make ~name:"pac sign/auth roundtrip for any pointer" ~count:500
    QCheck.(pair int64 int64)
    (fun (p0, modifier) ->
      let cfg = Pac.default_config in
      (* canonical userspace pointer: metadata cleared *)
      let p = Ptr.address p0 in
      match Pac.auth cfg key_a ~modifier (Pac.sign cfg key_a ~modifier p) with
      | Valid p' -> Int64.equal p p'
      | _ -> false)

let prop_pac_cross_key_rejected =
  QCheck.Test.make ~name:"cross-key auth almost surely rejected" ~count:300
    QCheck.int64
    (fun p0 ->
      let cfg = Pac.default_config in
      let p = Ptr.address p0 in
      let signed = Pac.sign cfg key_a ~modifier:0L p in
      (* 10-bit signature: chance collision 1/1024; accept deterministic
         collisions, reject only wrong behaviour *)
      match Pac.auth cfg key_b ~modifier:0L signed with
      | Invalid_trap -> true
      | Valid _ -> (
          match Pac.auth cfg key_b ~modifier:0L signed with
          | Valid _ -> true
          | _ -> false)
      | Invalid_poisoned _ -> false)

let test_pac_mac_avalanche () =
  (* flipping one input bit flips many output bits on average *)
  let total = ref 0 in
  let n = 256 in
  for i = 0 to n - 1 do
    let v = Int64.of_int (i * 977) in
    let h0 = Pac.mac key_a ~modifier:0L v in
    let h1 = Pac.mac key_a ~modifier:0L (Int64.logxor v 1L) in
    let diff = Int64.logxor h0 h1 in
    let rec popcount x acc =
      if Int64.equal x 0L then acc
      else
        popcount
          (Int64.shift_right_logical x 1)
          (acc + Int64.to_int (Int64.logand x 1L))
    in
    total := !total + popcount diff 0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "avalanche mean %.1f in [24, 40]" mean)
    true
    (mean > 24.0 && mean < 40.0)

(* ------------------------------------------------------------------ *)
(* Timing: Table 1 recovery                                            *)
(* ------------------------------------------------------------------ *)

let close ~tol a b = Float.abs (a -. b) /. Float.max a b < tol

let test_timing_recovers_table1_throughput () =
  List.iter
    (fun cpu ->
      List.iter
        (fun kind ->
          let expect = (cpu.Cpu_model.perf kind).tp in
          let expect = Float.min expect cpu.issue_width in
          let got = Timing.measured_throughput cpu kind in
          if not (close ~tol:0.05 expect got) then
            Alcotest.failf "%s %s: throughput %.2f, expected %.2f"
              cpu.Cpu_model.name (Insn.kind_to_string kind) got expect)
        Insn.table1_kinds)
    Cpu_model.tensor_g3

let test_timing_recovers_table1_latency () =
  List.iter
    (fun cpu ->
      List.iter
        (fun kind ->
          if Insn.has_latency kind then begin
            let expect = (cpu.Cpu_model.perf kind).lat in
            let got = Timing.measured_latency cpu kind in
            if not (close ~tol:0.05 expect got) then
              Alcotest.failf "%s %s: latency %.2f, expected %.2f"
                cpu.Cpu_model.name (Insn.kind_to_string kind) got expect
          end)
        Insn.table1_kinds)
    Cpu_model.tensor_g3

let test_timing_inorder_serialises () =
  (* On the in-order core a long-latency op blocks younger independent
     work; on the out-of-order cores it does not. *)
  let stream =
    [ Insn.make ~dst:0 Insn.Irg; Insn.make ~dst:1 ~srcs:[ 0 ] Insn.Autda ]
    @ Insn.independent Insn.Alu 64
  in
  let ooo = (Timing.run Cpu_model.cortex_x3 stream).cycles in
  let ino = (Timing.run Cpu_model.cortex_a510 stream).cycles in
  Alcotest.(check bool) "in-order slower than out-of-order" true (ino > ooo)

let test_timing_mte_sync_memset_overhead () =
  (* Fig. 4 shape: sync costs more than async costs more than disabled. *)
  List.iter
    (fun cpu ->
      let t mode =
        Timing.memset_seconds cpu ~mode ~bytes:(128.0 *. 1024.0 *. 1024.0)
      in
      let off = t Mte.Disabled and sync = t Mte.Sync and async = t Mte.Async in
      Alcotest.(check bool)
        (cpu.Cpu_model.name ^ ": sync > async")
        true (sync > async);
      Alcotest.(check bool)
        (cpu.Cpu_model.name ^ ": async > disabled")
        true (async > off);
      let sync_ovh = (sync -. off) /. off in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sync overhead %.1f%% within Fig.4 range"
           cpu.Cpu_model.name (100.0 *. sync_ovh))
        true
        (sync_ovh > 0.10 && sync_ovh < 0.35))
    Cpu_model.tensor_g3

let test_timing_memset_faster_on_faster_core () =
  let bytes = 128.0 *. 1024.0 *. 1024.0 in
  let x3 = Timing.memset_seconds Cpu_model.cortex_x3 ~mode:Mte.Disabled ~bytes in
  let a510 =
    Timing.memset_seconds Cpu_model.cortex_a510 ~mode:Mte.Disabled ~bytes
  in
  Alcotest.(check bool) "X3 beats A510" true (x3 < a510)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_irg_uniform_over_allowed; prop_next_allowed_never_excluded;
      prop_pac_field_roundtrip; prop_ptr_tag_roundtrip;
      prop_tagmem_set_then_matches; prop_span_checks_equal_granule_loop;
      prop_drain_equals_byte_loop; prop_lazy_plane_equals_eager;
      prop_pac_roundtrip;
      prop_pac_cross_key_rejected;
    ]

let () =
  Alcotest.run "arch"
    [
      ( "tag",
        [
          Alcotest.test_case "of_int wraps" `Quick test_tag_of_int_wraps;
          Alcotest.test_case "of_int_exn rejects" `Quick
            test_tag_of_int_exn_rejects;
          Alcotest.test_case "add wraps" `Quick test_tag_add_wraps;
          Alcotest.test_case "exclude basics" `Quick test_exclude_basics;
          Alcotest.test_case "exclude mask roundtrip" `Quick
            test_exclude_mask_roundtrip;
          Alcotest.test_case "next_allowed skips" `Quick
            test_next_allowed_skips_excluded;
          Alcotest.test_case "next_allowed all excluded" `Quick
            test_next_allowed_all_excluded;
          Alcotest.test_case "irg respects exclusion" `Quick
            test_irg_respects_exclusion;
          Alcotest.test_case "irg all excluded" `Quick
            test_irg_all_excluded_is_zero;
        ] );
      ( "ptr",
        [
          Alcotest.test_case "tag roundtrip" `Quick test_ptr_tag_roundtrip;
          Alcotest.test_case "offset preserves tag" `Quick
            test_ptr_offset_preserves_tag;
          Alcotest.test_case "offset wraps 48 bits" `Quick
            test_ptr_offset_wraps_48_bits;
          Alcotest.test_case "mask external" `Quick test_ptr_mask_external;
          Alcotest.test_case "mask combined" `Quick test_ptr_mask_combined;
          Alcotest.test_case "pac field widths" `Quick test_pac_field_widths;
          Alcotest.test_case "pac field keeps tag" `Quick
            test_pac_field_mte_keeps_tag;
        ] );
      ( "tag_memory",
        [
          Alcotest.test_case "fresh is zero" `Quick test_tagmem_fresh_is_zero;
          Alcotest.test_case "set/get" `Quick test_tagmem_set_get;
          Alcotest.test_case "mixed region" `Quick test_tagmem_region_tag_mixed;
          Alcotest.test_case "rejects unaligned" `Quick
            test_tagmem_rejects_unaligned;
          Alcotest.test_case "rejects oob" `Quick test_tagmem_rejects_oob;
          Alcotest.test_case "matches" `Quick test_tagmem_matches;
          Alcotest.test_case "zero-len granule" `Quick
            test_tagmem_zero_len_checks_granule;
          Alcotest.test_case "grow preserves" `Quick test_tagmem_grow_preserves;
          Alcotest.test_case "storage overhead 1/32" `Quick
            test_tagmem_storage_overhead;
          Alcotest.test_case "span checks across steps" `Quick
            test_span_checks_across_steps;
          Alcotest.test_case "drain inside steps" `Quick test_drain_inside_steps;
        ] );
      ( "mte",
        [
          Alcotest.test_case "allows matching" `Quick test_mte_allows_matching;
          Alcotest.test_case "sync faults" `Quick test_mte_sync_faults_mismatch;
          Alcotest.test_case "disabled allows" `Quick
            test_mte_disabled_allows_everything;
          Alcotest.test_case "async defers" `Quick test_mte_async_defers;
          Alcotest.test_case "asymmetric" `Quick test_mte_asymmetric;
          Alcotest.test_case "async keeps first" `Quick
            test_mte_async_keeps_first_fault;
          Alcotest.test_case "oob is mismatch" `Quick test_mte_oob_is_mismatch;
          Alcotest.test_case "one check, two entries" `Quick
            test_mte_two_entries;
          Alcotest.test_case "take_pending drains sticky TFSR" `Quick
            test_mte_take_pending_drains;
          Alcotest.test_case "tag grow preserves and reuses" `Quick
            test_tag_memory_grow_preserves_and_reuses;
        ] );
      ( "fault-inject",
        [
          Alcotest.test_case "a spent lane is unarmed" `Quick
            test_spent_lane_is_unarmed;
        ] );
      ( "pac",
        [
          Alcotest.test_case "sign/auth roundtrip" `Quick
            test_pac_sign_auth_roundtrip;
          Alcotest.test_case "wrong key traps" `Quick test_pac_wrong_key_traps;
          Alcotest.test_case "wrong modifier traps" `Quick
            test_pac_wrong_modifier_traps;
          Alcotest.test_case "no-FPAC poisons" `Quick test_pac_no_fpac_poisons;
          Alcotest.test_case "strip" `Quick test_pac_strip;
          Alcotest.test_case "tampered address traps" `Quick
            test_pac_tampered_address_traps;
          Alcotest.test_case "preserves MTE tag" `Quick
            test_pac_preserves_mte_tag;
          Alcotest.test_case "mac avalanche" `Quick test_pac_mac_avalanche;
        ] );
      ( "timing",
        [
          Alcotest.test_case "recovers Table 1 throughput" `Quick
            test_timing_recovers_table1_throughput;
          Alcotest.test_case "recovers Table 1 latency" `Quick
            test_timing_recovers_table1_latency;
          Alcotest.test_case "in-order serialises" `Quick
            test_timing_inorder_serialises;
          Alcotest.test_case "Fig.4 memset overheads" `Quick
            test_timing_mte_sync_memset_overhead;
          Alcotest.test_case "memset core ordering" `Quick
            test_timing_memset_faster_on_faster_core;
        ] );
      ("arch-properties", qtests);
    ]
