type mode = Disabled | Sync | Async | Asymmetric

let mode_to_string = function
  | Disabled -> "disabled"
  | Sync -> "sync"
  | Async -> "async"
  | Asymmetric -> "asymm"

let pp_mode ppf m = Format.pp_print_string ppf (mode_to_string m)

type access = Load | Store

type fault = {
  fault_addr : int64;
  fault_len : int64;
  ptr_tag : Tag.t;
  mem_tag : Tag.t option;
  fault_access : access;
}

let pp_fault ppf f =
  Format.fprintf ppf "tag fault: %s of %Ld byte(s) at 0x%Lx with %a, memory %a"
    (match f.fault_access with Load -> "load" | Store -> "store")
    f.fault_len f.fault_addr Tag.pp f.ptr_tag
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "<mixed/unmapped>")
       Tag.pp)
    f.mem_tag

type t = {
  mode : mode;
  tags : Tag_memory.t;
  mutable pending : fault option;
  mutable checks : int;
  mutable chaos : Fault_inject.lane option;
}

let create ?(mode = Sync) tags =
  { mode; tags; pending = None; checks = 0; chaos = None }

let arm t lane = t.chaos <- Some lane
let mode t = t.mode
let tag_memory t = t.tags

type verdict = Allowed | Faulted of fault | Deferred of fault

(* Chaos hook: flip the allocation tag of the first granule under an
   access to a guaranteed-different value, modelling tag-storage
   corruption. Runs before the match so the very access that visited
   the granule observes the flip. *)
let chaos_tag_flip t ln (addr : int) =
  if Fault_inject.draw ln Fault_inject.Tag_flip then begin
    let gaddr = Int64.of_int (addr / 16 * 16) in
    if Tag_memory.in_bounds t.tags ~addr:gaddr ~len:16L then begin
      let cur = Tag.to_int (Tag_memory.get t.tags gaddr) in
      let bad = Tag.of_int ((cur + 1 + Fault_inject.rand_int ln 15) mod 16) in
      (match Tag_memory.set_region t.tags ~addr:gaddr ~len:16L bad with
      | Ok () ->
          Fault_inject.note ln "granule 0x%Lx tag %d -> %d" gaddr cur
            (Tag.to_int bad)
      | Error _ -> ())
    end
  end

(* Observability: an allowed access whose span ends within one granule
   of a differently-tagged granule is a near-miss — the overflow that
   *would* have faulted one iteration later. Only computed with a sink
   installed; the disabled path pays nothing. *)
let note_near_miss t ~addr ~len ptag =
  let last = addr + max len 1 - 1 in
  let next = Int64.of_int ((last / 16 + 1) * 16) in
  if Tag_memory.in_bounds t.tags ~addr:next ~len:1L then begin
    let nt = Tag_memory.get t.tags next in
    if Tag.to_int nt <> Tag.to_int ptag then
      Obs.Hook.event
        (Obs.Event.Tag_near_miss
           { addr = Int64.of_int addr; len = Int64.of_int len;
             tag = Tag.to_int ptag; neighbour_tag = Tag.to_int nt })
  end

(* The one fault builder: a mismatch's record, its [Tag_fault] event,
   and either a synchronous fault or a deferred one latched in the
   TFSR, by mode and access. *)
let mismatch t access ~addr ~len ptag =
  let mem_tag =
    let len = Int64.max len 1L in
    if Tag_memory.in_bounds t.tags ~addr ~len then
      Tag_memory.region_tag t.tags ~addr ~len
    else None
  in
  let fault =
    { fault_addr = addr; fault_len = len; ptr_tag = ptag; mem_tag;
      fault_access = access }
  in
  let synchronous =
    match (t.mode, access) with
    | Sync, _ -> true
    | Asymmetric, Store -> true
    | Asymmetric, Load -> false
    | Async, _ -> false
    | Disabled, _ -> assert false
  in
  if Obs.Hook.enabled () then
    Obs.Hook.event
      (Obs.Event.Tag_fault
         { addr; len; ptr_tag = Tag.to_int ptag;
           mem_tag = Option.map Tag.to_int mem_tag;
           access =
             (match access with
             | Load -> Obs.Event.Load
             | Store -> Obs.Event.Store);
           deferred = not synchronous });
  if synchronous then Faulted fault
  else begin
    (* TFSR is sticky: keep the first fault. The chaos engine can drop
       the latch here — the lost-interrupt model, where the
       asynchronous report never reaches the kernel. *)
    if t.pending = None then begin
      match t.chaos with
      | Some ln when Fault_inject.draw ln Fault_inject.Tfsr_drop ->
          Fault_inject.note ln "TFSR latch for 0x%Lx dropped" addr
      | _ -> t.pending <- Some fault
    end;
    Deferred fault
  end

(* The one check. Everything before the verdict is native-int, so a
   passing check allocates nothing; the fault record, event and latch
   are built only on a mismatch. Unarmed or on a spent lane, and
   unobserved, a passing check tests the lane and the sink inline and
   calls out only to the tag plane. *)
let check_native t access ~addr ~tag ~len =
  match t.mode with
  | Disabled -> Allowed
  | Sync | Async | Asymmetric ->
      t.checks <- t.checks + 1;
      (match t.chaos with Some ln when ln.ln_live -> chaos_tag_flip t ln addr | _ -> ());
      if Tag_memory.matches_native t.tags ~addr ~len tag then begin
        if !Obs.Hook.hook != None then note_near_miss t ~addr ~len tag;
        Allowed
      end
      else mismatch t access ~addr:(Int64.of_int addr) ~len:(Int64.of_int len) tag

(* A length beyond the native range saturates: past every tag plane,
   it stays a mismatch instead of wrapping into a small span. *)
let native_len len =
  if len > Int64.of_int max_int then max_int
  else if len < Int64.of_int min_int then min_int
  else Int64.to_int len

let check t access ~ptr ~len =
  check_native t access
    ~addr:(Int64.to_int (Ptr.address ptr))
    ~tag:(Ptr.tag ptr) ~len:(native_len len)

let pending_fault t = t.pending

(** Drain the sticky TFSR: return the first deferred fault (if any) and
    clear it. Runtimes call this at synchronization points — function
    returns, host-call boundaries, context switches — which is where
    Async/Asymmetric deferred faults are architecturally reported. *)
let take_pending t =
  let f = t.pending in
  t.pending <- None;
  (match f with
  | Some f when Obs.Hook.enabled () ->
      Obs.Hook.event (Obs.Event.Tfsr_drain { addr = f.fault_addr })
  | _ -> ());
  f

let context_switch = take_pending

let checks_performed t = t.checks
