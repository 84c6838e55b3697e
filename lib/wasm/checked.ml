(** The unified checked memory-access layer.

    Every memory access the interpreter performs — scalar loads and
    stores (Eqs. 1-4 of the paper) {e and} the bulk-memory operations
    [memory.fill]/[memory.copy] — funnels through this module: one
    place that does the bounds check, the MTE allocation-tag check, and
    the event metering, in that order.

    Trap messages carry a stable, parseable prefix taxonomy so
    supervisors classify failures by structure instead of substring
    fishing:

    - ["bounds:"]    sandbox violations — out-of-bounds spans and
                     non-canonical addresses (the MMU check)
    - ["tag fault:"] synchronous MTE mismatches (from
                     {!Arch.Mte.pp_fault})
    - ["deferred:"]  asynchronous MTE mismatches reported at a
                     synchronization point (raised in [Exec])

    Bulk operations have partial-write semantics pinned down per MTE
    mode: the engine checks the source span then the destination span
    (within each 16-byte beat of the ldp/stp stream the load precedes
    the store); a {e synchronous} fault stops the transfer at the
    earliest mismatching granule, so exactly the bytes before it land;
    a {e deferred} fault latches in the sticky TFSR and every byte
    lands. *)

open Instance

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

(* Bits 48-55 of a 64-bit address are checked by the MMU even with TBI
   enabled (the tag lives in 56-59, ignored bits are 56-63); a pointer
   carrying PAC-signature bits there is non-canonical and faults. This
   is what makes "signed pointers cannot access memory" true. *)
let noncanonical_mask = 0x00ff_0000_0000_0000L

(** Resolve a 32-bit address operand: zero-extend and add the static
    offset. i32 indices are untagged sandbox-relative offsets, so the
    logical tag is always {!Arch.Tag.zero}. *)
let resolve_addr_i32 (i : int32) (offset : int64) =
  Int64.add (Int64.logand (Int64.of_int32 i) 0xffffffffL) offset

(* The chaos corruptions, split per draw so the threaded engine's
   native-int path can make the draws itself and only call these
   (boxed) arms on a hit. [corrupt_sig] runs after a [Ptr_sig] hit — it
   still owes the [Ptr_tag] draw; [corrupt_tag] after a [Ptr_sig] miss
   and [Ptr_tag] hit. *)
let rec corrupt_sig ln (p : int64) =
  let bit = 49 + Arch.Fault_inject.rand_int ln 6 in
  Arch.Fault_inject.note ln "pointer 0x%Lx: stray signature bit %d" p bit;
  let p = Int64.logor p (Int64.shift_left 1L bit) in
  if Arch.Fault_inject.draw ln Arch.Fault_inject.Ptr_tag then corrupt_tag ln p
  else p

and corrupt_tag ln (p : int64) =
  let t = Arch.Tag.to_int (Arch.Ptr.tag p) in
  let bad = (t + 1 + Arch.Fault_inject.rand_int ln 15) mod 16 in
  Arch.Fault_inject.note ln "pointer 0x%Lx: tag %d -> %d" p t bad;
  Arch.Ptr.with_tag p (Arch.Tag.of_int bad)

(** Resolve a 64-bit (tagged-pointer) address operand of [inst] to
    (effective address, logical tag). The tag is NOT stripped: it is
    what the access is checked with. This is also where the instance's
    chaos lane corrupts live pointers — a flipped tag nibble
    ([Ptr_tag]) or stray signature bits ([Ptr_sig]) land here, between
    the producer of the pointer and the access. *)
let resolve_addr_i64 (inst : Instance.t) (p : int64) (offset : int64) =
  let p =
    match inst.chaos with
    | Some ln when ln.ln_live ->
        if Arch.Fault_inject.draw ln Arch.Fault_inject.Ptr_sig then
          corrupt_sig ln p
        else if Arch.Fault_inject.draw ln Arch.Fault_inject.Ptr_tag then
          corrupt_tag ln p
        else p
    | _ -> p
  in
  if Int64.logand p noncanonical_mask <> 0L then
    trap "bounds: non-canonical address 0x%Lx" p;
  (Int64.add (Arch.Ptr.address p) offset, Arch.Ptr.tag p)

(** Resolve a boxed address operand (the interpreter's entry point;
    the threaded engine calls the statically-typed variants above). *)
let resolve_addr inst (idx : Values.t) (offset : int64) =
  match idx with
  | Values.I32 i -> (resolve_addr_i32 i offset, Arch.Tag.zero)
  | Values.I64 p -> resolve_addr_i64 inst p offset
  | Values.F32 _ | Values.F64 _ -> assert false (* validated: integer *)

(* The tag-check verdict for one span. [Deferred] faults are latched in
   the engine's sticky TFSR by [Mte.check]; the interpreter drains them
   at synchronization points (see [Exec]). *)
let tag_verdict (inst : Instance.t) access ~addr ~tag ~len =
  if not inst.enforce_tags then Arch.Mte.Allowed
  else
    match inst.mte with
    | None -> Arch.Mte.Allowed
    | Some mte ->
        Arch.Mte.check mte access ~ptr:(Arch.Ptr.with_tag addr tag) ~len

(* Raise a synchronous tag fault, keeping the structured record on the
   instance so a supervisor's post-mortem reports address/tags/access
   without re-parsing the message. *)
let raise_tag_fault (inst : Instance.t) f =
  inst.last_fault <- Some f;
  trap "%a" Arch.Mte.pp_fault f

(* The single tag-check entry point for scalar accesses. *)
let check_tags (inst : Instance.t) access ~addr ~tag ~len =
  match tag_verdict inst access ~addr ~tag ~len with
  | Arch.Mte.Allowed | Arch.Mte.Deferred _ -> ()
  | Arch.Mte.Faulted f -> raise_tag_fault inst f

(* [check_tags] with a native-int address and length, for the threaded
   engine, which guards on [inst.enforce_tags] itself. It checks the
   pointer's 48-bit address field, as [check_tags] does: an effective
   address past it, which only a bounds-elided access can bring here,
   wraps on both engines. [Arch.Mte.check_native] allocates only on a
   mismatch, so a passing check allocates nothing. *)
let check_tags_native (inst : Instance.t) access ~(addr : int) ~tag ~(len : int)
    =
  match inst.mte with
  | None -> ()
  | Some mte -> (
      match
        Arch.Mte.check_native mte access ~addr:(addr land 0xffff_ffff_ffff) ~tag
          ~len
      with
      | Arch.Mte.Allowed | Arch.Mte.Deferred _ -> ()
      | Arch.Mte.Faulted f -> raise_tag_fault inst f)

(* A tag-elided access: the static analyzer proved the span in-bounds
   on a definitely-live segment, so the MTE granule check (and its
   span-check observability event) is skipped. *)
let note_elided (inst : Instance.t) =
  (match inst.meter with
  | Some m -> m.Meter.elided_checks <- m.Meter.elided_checks + 1
  | None -> ());
  if Obs.Hook.enabled () then Obs.Hook.event Obs.Event.Check_elided

(* A span-elided access: the analyzer proved the span inside a
   successfully created segment, and a created segment lies inside
   linear memory, so the sandbox span check is also redundant. *)
let note_ebounds (inst : Instance.t) =
  (match inst.meter with
  | Some m -> m.Meter.elided_bounds <- m.Meter.elided_bounds + 1
  | None -> ());
  if Obs.Hook.enabled () then Obs.Hook.event Obs.Event.Bounds_elided

(** The scalar check policy for a [len]-byte access, the interpreter's
    one copy of {!Compile.access}'s: the span check unless [ebounds],
    then the granule check unless [elide]. Events come in this order:
    with the span elided, [Check_elided] (if [elide]) then
    [Bounds_elided]; otherwise the bounds trap, then [Check_elided] or
    the span-check event. The granule check comes last, and with the
    span elided its tag-plane read is safe precisely because the span
    is proven in-memory. *)
let check ~elide ~ebounds (inst : Instance.t) mem access ~addr ~tag ~len =
  if ebounds then begin
    if elide then note_elided inst;
    note_ebounds inst
  end
  else begin
    if not (Memory.in_bounds mem ~addr ~len) then
      trap "bounds: out of bounds memory access";
    if elide then note_elided inst else Obs.Hook.span_check len
  end;
  if not elide then check_tags inst access ~addr ~tag ~len:(Int64.of_int len)

let meter_load (inst : Instance.t) ~len =
  match inst.meter with
  | Some m ->
      m.Meter.loads <- m.Meter.loads + 1;
      m.Meter.load_bytes <- m.Meter.load_bytes + len
  | None -> ()

let meter_store (inst : Instance.t) ~len =
  match inst.meter with
  | Some m ->
      m.Meter.stores <- m.Meter.stores + 1;
      m.Meter.store_bytes <- m.Meter.store_bytes + len
  | None -> ()

(** Checks + metering for a scalar load of [len] bytes; [elide] skips
    the tag check and [ebounds] the span check (see {!check}). *)
let load ~elide ~ebounds inst mem ~addr ~tag ~len =
  check ~elide ~ebounds inst mem Arch.Mte.Load ~addr ~tag ~len;
  meter_load inst ~len

let store ~elide ~ebounds inst mem ~addr ~tag ~len =
  check ~elide ~ebounds inst mem Arch.Mte.Store ~addr ~tag ~len;
  meter_store inst ~len

(* ------------------------------------------------------------------ *)
(* Bulk operations                                                     *)
(* ------------------------------------------------------------------ *)

(* A bulk transfer is priced as 16-byte-chunk traffic (the stp/ldp
   stream a memmove compiles to); a zero-length op still costs its
   setup, hence [max 1]. Metering happens for the bytes that actually
   transferred — a synchronous mid-span fault prices only the prefix. *)
let bulk_chunks len = max 1 (Int64.to_int (Int64.div len 16L))

let meter_bulk_load (inst : Instance.t) ~len =
  match inst.meter with
  | Some m ->
      m.Meter.loads <- m.Meter.loads + bulk_chunks len;
      m.Meter.load_bytes <- m.Meter.load_bytes + Int64.to_int len
  | None -> ()

let meter_bulk_store (inst : Instance.t) ~len =
  match inst.meter with
  | Some m ->
      m.Meter.stores <- m.Meter.stores + bulk_chunks len;
      m.Meter.store_bytes <- m.Meter.store_bytes + Int64.to_int len
  | None -> ()

(* Offset (relative to [addr]) at which a synchronously-faulting bulk
   span stops transferring: the start of the first mismatching granule,
   clamped to the span. *)
let mismatch_offset (inst : Instance.t) ~addr ~tag ~len =
  match inst.mte with
  | None -> len
  | Some mte -> (
      match
        Arch.Tag_memory.first_mismatch (Arch.Mte.tag_memory mte) ~addr ~len
          tag
      with
      | Some gaddr -> Int64.max 0L (Int64.sub gaddr addr)
      | None -> len)

(** [memory.fill]: bounds, tag check over the destination span as a
    Store, then the write. A zero-length fill touches no memory — only
    the address itself must be in bounds. Partial-write semantics on a
    synchronous fault: the bytes before the faulting granule land. *)
let fill (inst : Instance.t) mem ~addr ~tag ~len v =
  if not (Memory.in_bounds64 mem ~addr ~len) then
    trap "bounds: out of bounds memory fill";
  if len = 0L then meter_bulk_store inst ~len
  else begin
    Obs.Hook.span_check (Int64.to_int len);
    match tag_verdict inst Arch.Mte.Store ~addr ~tag ~len with
    | Arch.Mte.Allowed | Arch.Mte.Deferred _ ->
        (* Async/Asymmetric-deferred: every byte lands; the latched
           fault is reported at the next synchronization point. *)
        meter_bulk_store inst ~len;
        Memory.fill mem ~addr ~len v
    | Arch.Mte.Faulted f ->
        let prefix = mismatch_offset inst ~addr ~tag ~len in
        if prefix > 0L then Memory.fill mem ~addr ~len:prefix v;
        meter_bulk_store inst ~len:prefix;
        raise_tag_fault inst f
  end

(** [memory.copy]: bounds on both spans, then tag checks — source as a
    Load first, destination as a Store (within each 16-byte beat of the
    ldp/stp stream the load precedes the store, so deferred faults
    latch in that order and a tie between two synchronous faults
    reports the load). A synchronous fault on either side stops the
    transfer at the earliest mismatching granule offset; deferred
    faults latch and every byte lands. *)
let copy (inst : Instance.t) mem ~dst ~dtag ~src ~stag ~len =
  if not (Memory.in_bounds64 mem ~addr:dst ~len) then
    trap "bounds: out of bounds memory copy";
  if not (Memory.in_bounds64 mem ~addr:src ~len) then
    trap "bounds: out of bounds memory copy";
  if len = 0L then begin
    meter_bulk_load inst ~len;
    meter_bulk_store inst ~len
  end
  else begin
    Obs.Hook.span_check (Int64.to_int len);
    Obs.Hook.span_check (Int64.to_int len);
    let sv = tag_verdict inst Arch.Mte.Load ~addr:src ~tag:stag ~len in
    let dv = tag_verdict inst Arch.Mte.Store ~addr:dst ~tag:dtag ~len in
    let stop addr tag = function
      | Arch.Mte.Faulted _ -> mismatch_offset inst ~addr ~tag ~len
      | Arch.Mte.Allowed | Arch.Mte.Deferred _ -> len
    in
    let soff = stop src stag sv in
    let doff = stop dst dtag dv in
    let prefix = Int64.min soff doff in
    if prefix > 0L then Memory.copy mem ~dst ~src ~len:prefix;
    meter_bulk_load inst ~len:prefix;
    meter_bulk_store inst ~len:prefix;
    if prefix < len then
      match (if soff <= doff then sv else dv) with
      | Arch.Mte.Faulted f -> raise_tag_fault inst f
      | _ -> assert false
  end
