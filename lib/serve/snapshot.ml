(** Whole-instance freeze/restore.

    A serving pool instantiates a tenant module once, runs its
    [_start]-style initialisation, and freezes the result: linear
    memory, the MTE tag map, globals, the indirect-call table, and the
    instance's tag-draw PRNG. Every request then begins from this
    image — restore copies back the chunks of each plane the request
    wrote (dirty maps kept by [Wasm.Memory] and [Arch.Tag_memory]), so
    a crashed or merely-dirty instance is returned to a known-good state
    without re-running instantiation or the guest's init code.

    Restoring the PRNG matters for determinism: a restored instance
    must draw the same [irg] tag sequence the frozen one would have,
    so request N's behaviour does not depend on how many requests ran
    before it on the same slot. *)

type t = {
  sn_instance : int;                       (** id frozen from *)
  sn_mem : Wasm.Memory.snapshot option;
  sn_tags : Arch.Tag_memory.snapshot option;
  sn_globals : Wasm.Values.t array;
  sn_table : int option array;
  sn_rng : Random.State.t;
  sn_bytes : int;                          (** payload size: restore cost *)
}

let capture (inst : Wasm.Instance.t) =
  let sn_mem = Option.map Wasm.Memory.snapshot inst.Wasm.Instance.mem in
  let sn_tags =
    Option.map
      (fun m -> Arch.Tag_memory.snapshot (Arch.Mte.tag_memory m))
      inst.Wasm.Instance.mte
  in
  let bytes =
    (match sn_mem with Some s -> Wasm.Memory.snapshot_bytes s | None -> 0)
    + (match sn_tags with
      | Some s -> Arch.Tag_memory.snapshot_bytes s
      | None -> 0)
    + (Array.length inst.Wasm.Instance.globals * 8)
    + (Array.length inst.Wasm.Instance.table * 8)
  in
  {
    sn_instance = inst.Wasm.Instance.id;
    sn_mem;
    sn_tags;
    sn_globals = Array.copy inst.Wasm.Instance.globals;
    sn_table = Array.copy inst.Wasm.Instance.table;
    sn_rng = Random.State.copy inst.Wasm.Instance.rng;
    sn_bytes = bytes;
  }

let bytes t = t.sn_bytes

(** Modeled price, in simulated cycles, of a restore that copied
    [copied] image bytes: streamed back at 64 B/cycle behind a fixed
    setup cost. The server charges an attempt this price for the restore
    its acquisition performed, and the [Snapshot_restore] event carries
    it, so scheduler demand and trace timelines agree. *)
let copy_cycles copied = 50 + (copied / 64)

(** The price of copying the whole image back. *)
let restore_cycles t = copy_cycles t.sn_bytes

(** Rewind [inst] to the frozen image and return the image bytes
    actually copied (in {!bytes}' units: a restore that has to copy
    every plane in full returns exactly [bytes t]). Also clears the
    transient crash state a previous request may have left behind
    (latched fault, call stack, pending TFSR report), so a restored slot
    is indistinguishable from a freshly initialised one. *)
let restore_copied t (inst : Wasm.Instance.t) =
  let mem =
    match (inst.Wasm.Instance.mem, t.sn_mem) with
    | Some m, Some s -> Wasm.Memory.restore m s
    | _ -> 0
  in
  let tags =
    match (inst.Wasm.Instance.mte, t.sn_tags) with
    | Some m, Some s ->
        let n = Arch.Tag_memory.restore (Arch.Mte.tag_memory m) s in
        ignore (Arch.Mte.take_pending m);
        n
    | _ -> 0
  in
  let globals =
    min (Array.length t.sn_globals) (Array.length inst.Wasm.Instance.globals)
  in
  Array.blit t.sn_globals 0 inst.Wasm.Instance.globals 0 globals;
  let table =
    min (Array.length t.sn_table) (Array.length inst.Wasm.Instance.table)
  in
  Array.blit t.sn_table 0 inst.Wasm.Instance.table 0 table;
  let copied = mem + tags + (8 * (globals + table)) in
  inst.Wasm.Instance.rng <- Random.State.copy t.sn_rng;
  inst.Wasm.Instance.last_fault <- None;
  inst.Wasm.Instance.call_stack <- [];
  inst.Wasm.Instance.fuel <- -1;
  if Obs.Hook.enabled () then
    Obs.Hook.event
      (Obs.Event.Snapshot_restore
         { instance = inst.Wasm.Instance.id; bytes = t.sn_bytes;
           cycles = copy_cycles copied });
  if Obs.Span.enabled () then
    Obs.Span.instant ~tid:Obs.Span.runtime_tid
      ~args:
        [ ("instance", Obs.Span.I inst.Wasm.Instance.id);
          ("bytes", Obs.Span.I t.sn_bytes);
          ("copied", Obs.Span.I copied) ]
      "snapshot.restore";
  copied

(** {!restore_copied} without the count. *)
let restore t inst = ignore (restore_copied t inst)

(** Does the live instance state match the frozen image byte-for-byte?
    (Fidelity tests; not used on the serving fast path.) *)
let matches t (inst : Wasm.Instance.t) =
  let mem_ok =
    match (inst.Wasm.Instance.mem, t.sn_mem) with
    | Some m, Some s ->
        String.equal (Wasm.Memory.to_string m) (Wasm.Memory.snapshot_to_string s)
    | None, None -> true
    | _ -> false
  in
  let tags_ok =
    match (inst.Wasm.Instance.mte, t.sn_tags) with
    | Some m, Some s ->
        String.equal
          (Arch.Tag_memory.to_string (Arch.Mte.tag_memory m))
          (Arch.Tag_memory.snapshot_to_string s)
    | None, None -> true
    | _ -> false
  in
  let globals_ok =
    Array.length t.sn_globals = Array.length inst.Wasm.Instance.globals
    && Array.for_all2 Wasm.Values.equal t.sn_globals
         inst.Wasm.Instance.globals
  in
  let table_ok = t.sn_table = inst.Wasm.Instance.table in
  mem_ok && tags_ok && globals_ok && table_ok
