(** Per-tenant instance pools with snapshot/restore.

    Each tenant gets a fixed number of {e slots}. A slot is a full
    containment stack of its own — [Cage.Process] (own PAC key and
    modifier), [Cage.Supervisor] (crash → post-mortem + quarantine),
    one instance — because the combined Cage configuration caps MTE
    sandboxes at one per process (§6.4), and because blast-radius
    isolation is the point: a slot crashing must not even share a
    process with its siblings.

    A slot is instantiated and initialised {e once}, then frozen
    ({!Snapshot.capture}). Serving a request dirties the slot; the next
    acquisition restores the frozen image first, so every request
    observes identical initial state — including whatever damage a
    chaos injection left in memory on the previous request. A crashed
    slot goes [Quarantined] and is only brought back by {!heal}, which
    spends restart-storm tokens ({!Policy.bucket}) so a crash-looping
    tenant degrades to fewer live slots instead of thrashing.

    Slots carry explicit globally-unique chaos lane numbers
    ([lane_base + i]), which {!arm} arms them on: per-slot fault streams
    are split off the engine seed by lane, so a run replays identically
    however the scheduler interleaves slots. *)

type tenant = {
  tn_name : string;
  tn_module : Wasm.Ast.module_;
  tn_config : Cage.Config.t;
  tn_entry : string;                  (** export invoked per request *)
  tn_args : Wasm.Values.t list;
  tn_expected : Wasm.Values.t list option;
      (** chaos-free reference result; [None] when the tenant has no
          stable answer (e.g. deliberately-crashing attack tenants) *)
  tn_init : string option;            (** export run once before freeze *)
  tn_imports :
    unit ->
    (string * string * Wasm.Instance.host_func) list * (unit -> unit);
      (** per-slot host imports plus a reset thunk clearing any host
          state between requests (output buffers, host clocks, ...) *)
  tn_weight : int;                    (** share of arrival traffic *)
}

(** A tenant with no imports and no init step. *)
let tenant ?(weight = 1) ?expected ?init ~config ~entry ~args name m =
  {
    tn_name = name;
    tn_module = m;
    tn_config = config;
    tn_entry = entry;
    tn_args = args;
    tn_expected = expected;
    tn_init = init;
    tn_imports = (fun () -> ([], fun () -> ()));
    tn_weight = weight;
  }

type slot_state = Idle | Busy | Quarantined

type slot = {
  sl_index : int;
  sl_lane : int;
  sl_sup : Cage.Supervisor.t;
  sl_inst : Wasm.Instance.t;
  sl_meter : Wasm.Meter.t;
  sl_snapshot : Snapshot.t;
  sl_reset : unit -> unit;
  mutable sl_state : slot_state;
  mutable sl_dirty : bool;   (* a request ran since the last restore *)
  mutable sl_restored : int;
      (* modeled cycles of the restore the latest [acquire] performed:
         0 when the slot was already clean *)
  mutable sl_crashes : int;
}

type t = {
  pl_tenant : tenant;
  pl_slots : slot array;
  pl_heal : Policy.bucket;
  mutable pl_restores : int;
  mutable pl_restore_copied : int;  (* image bytes the restores copied *)
  mutable pl_restore_image : int;   (* ... and what full copies would have *)
  mutable pl_heals : int;
  mutable pl_heals_deferred : int;
      (* heal attempts the token bucket refused (restart-storm guard) *)
  mutable pl_served_cycles : int;
      (* sum of metered guest demand over every [serve] call — the
         ground truth the tail-attribution exec phase must add up to *)
}

(** Build a pool of [size] unarmed slots: slot initialisation and the
    frozen image are fault-free, otherwise every restore would replay
    the damage. *)
let create ?(fuel = 2_000_000) ~lane_base ~size ~seed
    ~(policy : Policy.t) tenant =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let slot i =
    let process =
      Cage.Process.create ~config:tenant.tn_config ~seed:(seed + i) ()
    in
    let sup = Cage.Supervisor.create ~fuel process in
    let meter = Wasm.Meter.create () in
    let imports, reset = tenant.tn_imports () in
    let inst =
      Cage.Supervisor.spawn ~meter ~imports sup tenant.tn_module
    in
    (match tenant.tn_init with
    | Some entry -> (
        match Cage.Supervisor.run sup inst entry [] with
        | Cage.Supervisor.Finished _ -> ()
        | Cage.Supervisor.Crashed pm ->
            invalid_arg
              (Printf.sprintf "Pool.create: tenant %s init crashed: %s"
                 tenant.tn_name pm.Cage.Supervisor.pm_message))
    | None -> ());
    reset ();
    {
      sl_index = i;
      sl_lane = lane_base + i;
      sl_sup = sup;
      sl_inst = inst;
      sl_meter = meter;
      sl_snapshot = Snapshot.capture inst;
      sl_reset = reset;
      sl_state = Idle;
      sl_dirty = false;
      sl_restored = 0;
      sl_crashes = 0;
    }
  in
  {
    pl_tenant = tenant;
    pl_slots = Array.init size slot;
    pl_heal =
      Policy.bucket_create ~capacity:policy.Policy.heal_capacity
        ~refill_every:policy.Policy.heal_refill;
    pl_restores = 0;
    pl_restore_copied = 0;
    pl_restore_image = 0;
    pl_heals = 0;
    pl_heals_deferred = 0;
    pl_served_cycles = 0;
  }

(** Arm every slot on its lane of [engine]; call it once the images
    are frozen. *)
let arm t engine =
  Array.iter
    (fun s ->
      Wasm.Instance.arm s.sl_inst (Arch.Fault_inject.lane engine s.sl_lane))
    t.pl_slots

let size t = Array.length t.pl_slots
let restores t = t.pl_restores
let restore_copied_bytes t = t.pl_restore_copied
let restore_image_bytes t = t.pl_restore_image
let heals t = t.pl_heals
let heals_deferred t = t.pl_heals_deferred

(** Total metered guest cycles across every request served so far. *)
let served_cycles t = t.pl_served_cycles

(* Restore [s]'s image and return the modeled price of the copy. *)
let restore_slot t s =
  let copied = Snapshot.restore_copied s.sl_snapshot s.sl_inst in
  s.sl_reset ();
  s.sl_dirty <- false;
  t.pl_restores <- t.pl_restores + 1;
  t.pl_restore_copied <- t.pl_restore_copied + copied;
  t.pl_restore_image <- t.pl_restore_image + Snapshot.bytes s.sl_snapshot;
  Snapshot.copy_cycles copied

(** Take an idle slot for a request, restoring the frozen image first
    if a previous request dirtied it. *)
let acquire t =
  let rec find i =
    if i >= Array.length t.pl_slots then None
    else if t.pl_slots.(i).sl_state = Idle then Some t.pl_slots.(i)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some s ->
      s.sl_restored <- (if s.sl_dirty then restore_slot t s else 0);
      s.sl_state <- Busy;
      if Obs.Span.enabled () then
        Obs.Span.instant ~tid:Obs.Span.runtime_tid
          ~args:
            [ ("tenant", Obs.Span.S t.pl_tenant.tn_name);
              ("slot", Obs.Span.I s.sl_index);
              ("lane", Obs.Span.I s.sl_lane) ]
          "pool.acquire";
      Some s

(** Return an acquired slot unused (the request expired while queued
    and never ran): straight back to idle, cleanliness unchanged. *)
let cancel s = s.sl_state <- Idle

(** The request finished (well or badly contained, either way the slot
    survives): back to idle, dirty until the next restore. *)
let settle_ok s =
  s.sl_dirty <- true;
  s.sl_state <- Idle;
  if Obs.Span.enabled () then
    Obs.Span.instant ~tid:Obs.Span.runtime_tid
      ~args:[ ("slot", Obs.Span.I s.sl_index) ]
      "pool.settle"

(** The request crashed the slot: quarantine it until {!heal}. *)
let settle_crashed s =
  s.sl_dirty <- true;
  s.sl_crashes <- s.sl_crashes + 1;
  s.sl_state <- Quarantined;
  if Obs.Span.enabled () then
    Obs.Span.instant ~tid:Obs.Span.runtime_tid
      ~args:
        [ ("slot", Obs.Span.I s.sl_index); ("lane", Obs.Span.I s.sl_lane) ]
      "pool.quarantine"

(** Self-healing sweep: restore quarantined slots back to idle, one
    restart-storm token each. Returns how many slots came back. *)
let heal t ~now =
  let healed = ref 0 in
  Array.iter
    (fun s ->
      if s.sl_state = Quarantined then
        if Policy.bucket_take t.pl_heal ~now then begin
          ignore (restore_slot t s);
          Cage.Supervisor.release s.sl_sup s.sl_inst;
          s.sl_state <- Idle;
          t.pl_heals <- t.pl_heals + 1;
          incr healed;
          if Obs.Span.enabled () then
            Obs.Span.instant ~tid:Obs.Span.runtime_tid
              ~args:
                [ ("tenant", Obs.Span.S t.pl_tenant.tn_name);
                  ("slot", Obs.Span.I s.sl_index) ]
              "pool.heal"
        end
        else t.pl_heals_deferred <- t.pl_heals_deferred + 1)
    t.pl_slots;
  !healed

(** Run one request on an acquired slot. Returns the supervisor
    outcome plus the metered guest demand in simulated cycles (the
    acquisition's restore is priced separately, in [sl_restored]). *)
let serve t (s : slot) =
  let before = Wasm.Meter.total s.sl_meter in
  let outcome =
    Cage.Supervisor.run s.sl_sup s.sl_inst t.pl_tenant.tn_entry
      t.pl_tenant.tn_args
  in
  let demand = Wasm.Meter.total s.sl_meter - before in
  t.pl_served_cycles <- t.pl_served_cycles + demand;
  (outcome, demand)
