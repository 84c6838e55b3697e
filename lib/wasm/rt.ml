(** Shared runtime services for the two execution engines.

    Everything here used to live inside {!Exec}; it is the part of the
    interpreter's behaviour that is {e not} about walking an AST —
    observability ticks, the fuel watchdog, deferred-fault draining, and
    the Cage segment/PAC instruction bodies on raw operands. The
    tree-walking interpreter and the threaded-code engine ({!Compile})
    both call these, which is what keeps meter totals, obs event
    streams, fault-injection draw sequences and trap messages
    bit-identical between them. *)

open Instance

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt
let max_call_depth = 2000

(* The observability tick: one simulated cycle on the tracer's clock
   and one event on the profiler's sampling countdown per interpreted
   instruction. With no sink installed this is a single load-and-
   compare — the same fast-path contract as an unarmed chaos lane. The
   meter total is computed only at sampling points, so snapshot weights
   partition the meter exactly (see [Obs.Profiler]). *)
let obs_tick (inst : Instance.t) =
  match !Obs.Hook.hook with
  | None -> ()
  | Some s ->
      (match s.Obs.Hook.trace with
      | Some tr -> Obs.Trace.advance tr 1
      | None -> ());
      (match s.Obs.Hook.profiler with
      | Some p ->
          if Obs.Profiler.due p then
            let total =
              match inst.meter with
              | Some m -> Meter.total m
              | None -> Obs.Profiler.ticks p
            in
            Obs.Profiler.sample p ~stack:inst.call_stack ~total
      | None -> ())

(** [n] ticks at once — what a superinstruction that fused [n] source
    instructions reports, so trace clocks and profiler sampling
    countdowns advance exactly as if the instructions had been
    dispatched one by one. *)
let obs_tick_n (inst : Instance.t) n =
  if !Obs.Hook.hook != None then
    for _ = 1 to n do
      obs_tick inst
    done

(* The fuel watchdog: every branch and call burns one unit, so a
   runaway guest (infinite loop or unbounded recursion) terminates with
   a classifiable "fuel:" trap instead of hanging its supervisor. The
   [-1] sentinel keeps the unmetered path to one compare. *)
let[@inline] burn_fuel (inst : Instance.t) =
  if inst.fuel >= 0 then begin
    if inst.fuel = 0 then trap "fuel: execution budget exhausted";
    inst.fuel <- inst.fuel - 1
  end

let meter_br (inst : Instance.t) =
  burn_fuel inst;
  match inst.meter with Some m -> m.branch <- m.branch + 1 | None -> ()

(* A Heap_scribble injection recorded at segment-free time is applied
   here, at the next synchronization point: by then the allocator has
   published the chunk's free-list link, and the junk write lands on
   live metadata. It models an asynchronous corruptor (racing thread,
   errant DMA), which is also why it writes through [Memory] directly,
   bypassing tag checks. Its detail goes to the injection that drew
   it, not to whatever fired since. *)
let apply_pending_scribble ln (inst : Instance.t) =
  match (Arch.Fault_inject.take_scribble ln, inst.mem) with
  | Some (addr, inj), Some mem -> (
      let junk = Arch.Fault_inject.junk64 ln in
      inj.Arch.Fault_inject.inj_detail <-
        Printf.sprintf "free-list link at 0x%Lx overwritten with 0x%Lx" addr
          junk;
      try Memory.store_i64 mem addr junk with Memory.Out_of_bounds _ -> ())
  | _ -> ()

(* A deferred (Async/Asymmetric) fault is latched in the MTE engine's
   sticky TFSR when the faulting access executes; it is *reported* here,
   at synchronization points — function returns and host-call
   boundaries — as the paper's §4.2 fault model requires. The
   "deferred:" prefix lets callers distinguish late reports from
   synchronous traps. *)
let drain_deferred (inst : Instance.t) =
  (match inst.chaos with
  | None -> ()
  | Some ln -> apply_pending_scribble ln inst);
  match inst.mte with
  | None -> ()
  | Some mte -> (
      match Arch.Mte.take_pending mte with
      | None -> ()
      | Some f ->
          inst.last_fault <- Some f;
          trap "deferred: %a" Arch.Mte.pp_fault f)

(* ------------------------------------------------------------------ *)
(* The embedder boundary                                               *)
(* ------------------------------------------------------------------ *)

(** Check values arriving from the embedder against the types the
    module declares. Instantiation validates every body, so entry-call
    arguments and host-function results are the only operands whose
    types nothing has vouched for; neither engine types values at run
    time. *)
let check_boundary kind name (tys : Types.val_type list) vs =
  let got = List.map Values.type_of vs in
  if got <> tys then
    let pp = Format.(pp_print_list ~pp_sep:pp_print_space Types.pp_val_type) in
    trap "%s %s: expected [%a], got [%a]" kind name pp tys pp got

(** Call host function [name]: a host-side [Invalid_argument] becomes a
    trap, and ill-typed results are rejected before either engine
    consumes them. *)
let host_call (inst : Instance.t) ~name ~(ty : Types.func_type) fn args =
  let results =
    try fn inst args with Invalid_argument msg -> trap "host %s: %s" name msg
  in
  check_boundary "host" name ty.results results;
  results

(* ------------------------------------------------------------------ *)
(* Cage segment instructions (Eqs. 5-13) on raw operands               *)
(* ------------------------------------------------------------------ *)

let seg_granules len = Int64.to_int (Int64.div len 16L)

let rng_int (inst : Instance.t) n = Random.State.int inst.rng n

(** [segment.new o]: operands [k] (base pointer) and [l] (length);
    returns the freshly tagged pointer. [~arena:true] (escape-analysis
    lowering) keeps the validation, the zero-fill and the random tag
    draw — so pointer bit patterns, trap messages and the PRNG stream
    are identical to the checked form — but skips the tag-plane writes:
    the analysis proved no checked access or real free will ever read
    them. *)
let segment_new ?(arena = false) (inst : Instance.t) ~k ~l o =
  let mte = mte inst in
  let tm = Arch.Mte.tag_memory mte in
  let addr = Int64.add (Arch.Ptr.address k) o in
  let tag = Arch.Tag.irg inst.exclude ~rng:(rng_int inst) in
  (match
     if arena then Arch.Tag_memory.validate_region tm ~addr ~len:l
     else Arch.Tag_memory.set_region tm ~addr ~len:l tag
   with
  | Ok () -> ()
  | Error e -> trap "bounds: segment.new: %s" e);
  (* Eq. 5: the new segment is zeroed. *)
  (try Memory.fill (memory inst) ~addr ~len:l 0
   with Memory.Out_of_bounds _ -> trap "bounds: segment.new: out of bounds");
  (match inst.meter with
  | Some m ->
      m.seg_new <- m.seg_new + 1;
      if arena then
        m.arena_new_granules <- m.arena_new_granules + seg_granules l
      else m.seg_new_granules <- m.seg_new_granules + seg_granules l
  | None -> ());
  if Obs.Hook.enabled () then
    Obs.Hook.event
      (if arena then
         Obs.Event.Tag_writes_elided { granules = seg_granules l }
       else
         Obs.Event.Seg_new
           { addr; len = l; granules = seg_granules l;
             tag = Arch.Tag.to_int tag });
  Arch.Ptr.with_tag (Int64.add k o) tag

(** [segment.set_tag o]: operands [k] (base), [t] (tag donor), [l]. *)
let segment_set_tag (inst : Instance.t) ~k ~t ~l o =
  let mte = mte inst in
  let tm = Arch.Mte.tag_memory mte in
  let addr = Int64.add (Arch.Ptr.address k) o in
  (match Arch.Tag_memory.set_region tm ~addr ~len:l (Arch.Ptr.tag t) with
  | Ok () -> ()
  | Error e -> trap "bounds: segment.set_tag: %s" e);
  if Obs.Hook.enabled () then
    Obs.Hook.event
      (Obs.Event.Seg_set_tag
         { addr; len = l; granules = seg_granules l;
           tag = Arch.Tag.to_int (Arch.Ptr.tag t) });
  match inst.meter with
  | Some m ->
      m.seg_set_tag <- m.seg_set_tag + 1;
      m.seg_set_tag_granules <- m.seg_set_tag_granules + seg_granules l
  | None -> ()

(** [segment.free o]: operands [k] (tagged pointer), [l].
    [~arena:true]: the matching [segment.new] never wrote its tags, so
    the ownership matches-check (which would spuriously fault against
    the untouched tag plane) and the retag are both skipped — the
    analysis proved every free of this segment is exactly-once on a
    live pointer. The chaos scribble draw stays, so fault-injection
    sequences are unchanged. *)
let segment_free ?(arena = false) (inst : Instance.t) ~k ~l o =
  let mte = mte inst in
  let tm = Arch.Mte.tag_memory mte in
  let addr = Int64.add (Arch.Ptr.address k) o in
  let ptag = Arch.Ptr.tag k in
  (* Eq. 9/10: the pointer must still own the whole segment — this is
     what catches double-frees and frees through corrupted pointers. *)
  let free_tag = Arch.Tag.next_allowed inst.exclude ptag in
  (if arena then begin
     (* keep the malformed-operand traps bit-identical to the checked
        form: an out-of-bounds span fails the matches-check there, and
        a misaligned/ragged one fails its retag validation *)
     if not (Arch.Tag_memory.in_bounds tm ~addr ~len:(Int64.max l 1L)) then
       trap
         "tag fault: segment.free: tag mismatch (double free or invalid free)";
     match Arch.Tag_memory.validate_region tm ~addr ~len:l with
     | Ok () -> ()
     | Error e -> trap "bounds: segment.free: %s" e
   end
   else begin
     if not (Arch.Tag_memory.matches tm ~addr ~len:(Int64.max l 1L) ptag) then
       trap
         "tag fault: segment.free: tag mismatch (double free or invalid free)";
     match Arch.Tag_memory.set_region tm ~addr ~len:l free_tag with
     | Ok () -> ()
     | Error e -> trap "bounds: segment.free: %s" e
   end);
  (* Chaos hook: schedule a scribble of this chunk's free-list link
     (payload-relative slot [-8], see Libc.Source); the junk write is
     applied at the next synchronization point, once the allocator has
     published the link. *)
  (match inst.chaos with
  | Some ln when Arch.Fault_inject.draw ln Arch.Fault_inject.Heap_scribble ->
      Arch.Fault_inject.set_scribble ln (Int64.sub addr 8L)
  | _ -> ());
  if Obs.Hook.enabled () then
    Obs.Hook.event
      (if arena then
         Obs.Event.Tag_writes_elided { granules = seg_granules l }
       else
         Obs.Event.Seg_free
           { addr; len = l; granules = seg_granules l;
             tag = Arch.Tag.to_int free_tag });
  match inst.meter with
  | Some m ->
      m.seg_free <- m.seg_free + 1;
      if arena then
        m.arena_free_granules <- m.arena_free_granules + seg_granules l
      else m.seg_free_granules <- m.seg_free_granules + seg_granules l
  | None -> ()

let pointer_sign (inst : Instance.t) k =
  (match inst.meter with
  | Some m -> m.ptr_sign <- m.ptr_sign + 1
  | None -> ());
  Arch.Pac.sign inst.pac_config inst.pac_key ~modifier:inst.pac_modifier k

let pointer_auth (inst : Instance.t) k =
  (match inst.meter with
  | Some m -> m.ptr_auth <- m.ptr_auth + 1
  | None -> ());
  match
    Arch.Pac.auth ?chaos:inst.chaos inst.pac_config inst.pac_key
      ~modifier:inst.pac_modifier k
  with
  | Arch.Pac.Valid k' -> k'
  | Arch.Pac.Invalid_trap | Arch.Pac.Invalid_poisoned _ ->
      (* Eq. 13: the extension semantics trap on failed authentication. *)
      trap "pac auth: invalid signature (i64.pointer_auth)"

(** [memory.grow] on a raw page delta; returns the previous size in
    pages ([-1] on failure), having grown the tag plane alongside. *)
let memory_grow (inst : Instance.t) delta =
  (match inst.meter with
  | Some m -> m.mem_grow <- m.mem_grow + 1
  | None -> ());
  let mem = memory inst in
  let old = Memory.grow mem delta in
  if old >= 0L && delta > 0L then
    Option.iter
      (fun mte ->
        ignore
          (Arch.Tag_memory.grow (Arch.Mte.tag_memory mte)
             ~new_size_bytes:(Int64.to_int (Memory.size_bytes mem))))
      inst.mte;
  if old >= 0L && Obs.Hook.enabled () then
    Obs.Hook.event
      (Obs.Event.Mem_grow
         { delta_pages = delta; new_pages = Memory.size_pages mem });
  old
