(** Segment escape/lifetime analysis: which [segment.new]/[segment.free]
    pairs can drop their tag-plane traffic entirely (arena lowering).

    Tag writes are the dominant residual cost of segment allocation —
    [segment.new] tags every 16-byte granule and [segment.free] retags
    them back — yet for a segment that never escapes the analyzed call
    tree and whose every access is elided anyway, nobody ever {e reads}
    those tags. Such a segment can live in an "arena": allocation keeps
    its validation, zero-fill and random-tag draw (so pointer bit
    patterns, and therefore memory digests, are unchanged) but skips
    the tag-plane writes; free skips the matches-check and the retag.

    Soundness is a closure argument over {!Absint}'s per-site facts. A
    site is an {e arena candidate} when
    - it is a heap site with a known allocating instruction,
    - it is a singleton ([s_multi] false): loop allocations where
      several concrete segments share the abstract site are out,
    - it never escapes ([s_escaped] false) and its tag bits never ride
      on a value the analysis lost track of ([s_arena_unsafe] false) —
      so no {e checked} access can ever consult its (absent) tags,
    - every recorded access through it is elided under the active
      elision plan and none was unprovable ([s_unproven_access]),
    - every [segment.free] that can free it is itself lowered.

    The last point is mutual: a free instruction is lowered only when
    every site reaching it is a candidate and nothing made it dirty
    (a maybe-freed operand, an untracked operand, a blacklisted
    context). Candidacy therefore shrinks to a fixed point: a rejected
    site un-lowers its frees, which may reject further sites sharing
    those frees. A [segment.new] is lowered when all sites born at that
    instruction are final candidates — lowering is per instruction,
    so every call-string context must agree. *)

type t = {
  arena : Bytes.t array;
      (** per local function, the plan row ({!Wasm.Code.bitset}) of the
          [segment.new]/[segment.free] instructions lowered to arena
          (tag-write-free) form *)
  sites_arena : int;  (** heap allocation sites proven arena-eligible *)
  news : int;  (** [segment.new] instructions lowered *)
  frees : int;  (** [segment.free] instructions lowered *)
}

let no_arena =
  { arena = [||]; sites_arena = 0; news = 0; frees = 0 }

let compute (a : Absint.analysis) ~(bitsets : Bytes.t array) : t =
  let sites =
    List.filter (fun s -> s.Absint.s_kind = Absint.Heap) a.Absint.a_sites
  in
  (* initial candidacy from the per-site facts alone *)
  let cand = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ok =
        s.Absint.s_lidx >= 0
        && (not s.Absint.s_multi)
        && (not s.Absint.s_escaped)
        && (not (s.Absint.s_escaped_dead && s.Absint.s_reincarnated))
        && (not s.Absint.s_arena_unsafe)
        && (not s.Absint.s_unproven_access)
        && List.for_all
             (fun (lidx, id) ->
               lidx >= 0
               && lidx < Array.length bitsets
               && Wasm.Code.elidable bitsets.(lidx) id)
             s.Absint.s_accesses
      in
      Hashtbl.replace cand s.Absint.s_id ok)
    sites;
  let is_cand s =
    match Hashtbl.find_opt cand s.Absint.s_id with
    | Some b -> b
    | None -> false
  in
  (* a free is lowered when clean and all its sites are candidates; a
     candidate needs all frees that can reach it lowered — iterate the
     (monotonically shrinking) candidacy to a fixed point *)
  let free_lowered (_, (fsites, dirty)) =
    (not dirty) && fsites <> [] && List.for_all is_cand fsites
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        if is_cand s then begin
          let still =
            List.for_all
              (fun ((_, (fsites, _)) as fr) ->
                if List.memq s fsites then free_lowered fr else true)
              a.Absint.a_frees
          in
          if not still then begin
            Hashtbl.replace cand s.Absint.s_id false;
            changed := true
          end
        end)
      sites
  done;
  let sites_arena = List.length (List.filter is_cand sites) in
  if sites_arena = 0 then no_arena
  else begin
    let nfuncs = Array.length a.Absint.a_nbasic in
    let lowered = Array.map (fun n -> Array.make n false) a.Absint.a_nbasic in
    (* segment.new: all sites born at the instruction must agree *)
    let by_new = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let key = (s.Absint.s_lidx, s.Absint.s_instr) in
        let prev =
          match Hashtbl.find_opt by_new key with Some b -> b | None -> true
        in
        if s.Absint.s_lidx >= 0 then
          Hashtbl.replace by_new key (prev && is_cand s))
      sites;
    let news = ref 0 and frees = ref 0 in
    Hashtbl.iter
      (fun (lidx, id) ok ->
        if ok && lidx < nfuncs then begin
          lowered.(lidx).(id) <- true;
          incr news
        end)
      by_new;
    List.iter
      (fun (((lidx, id), _) as fr) ->
        if free_lowered fr && lidx >= 0 && lidx < nfuncs then begin
          lowered.(lidx).(id) <- true;
          incr frees
        end)
      a.Absint.a_frees;
    let arena =
      Array.map (fun row -> Wasm.Code.bitset (Array.length row) (Array.get row))
        lowered
    in
    { arena; sites_arena; news = !news; frees = !frees }
  end
