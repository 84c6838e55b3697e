(** Crash containment: run guests so that no failure escapes.

    Linux's real MTE deployment is defined by its SIGSEGV report format
    and per-process TFSR handling; this module is our analogue. Every
    guest invocation runs under a supervisor that converts {e all}
    failures — tag faults, PAC authentication failures, bounds traps,
    watchdog exhaustion, call-stack exhaustion, [unreachable], host
    function exceptions — into a structured {!outcome}, emits an
    MTE-SIGSEGV-style {!post_mortem}, and quarantines the faulting
    instance while sibling instances in the same {!Process} keep
    running (the §6.3 modifier-isolation story made observable). *)

type fault_class =
  | Tag_fault           (** synchronous MTE mismatch ("tag fault:") *)
  | Deferred_tag_fault  (** TFSR report at a sync point ("deferred:") *)
  | Pac_auth            (** failed [autda] under FEAT_FPAC ("pac auth:") *)
  | Bounds              (** sandbox violation: out-of-bounds span or
                            non-canonical address ("bounds:") *)
  | Fuel                (** watchdog budget exhausted ("fuel:") *)
  | Stack               (** call-stack exhaustion ("stack:") *)
  | Unreachable         (** the guest executed [unreachable] *)
  | Guest_trap          (** any other wasm trap (div by zero, bad
                            indirect call, ...) *)
  | Host_error          (** an exception escaped a host function *)
  | Quarantine          (** invocation refused: instance quarantined *)

let fault_class_to_string = function
  | Tag_fault -> "tag fault"
  | Deferred_tag_fault -> "deferred tag fault"
  | Pac_auth -> "pac auth failure"
  | Bounds -> "bounds violation"
  | Fuel -> "out of fuel"
  | Stack -> "call stack exhausted"
  | Unreachable -> "unreachable"
  | Guest_trap -> "guest trap"
  | Host_error -> "host error"
  | Quarantine -> "quarantined"

(** Classify a trap message by its stable prefix (the taxonomy
    [Wasm.Checked]/[Wasm.Exec] emit) — structure, not substring
    fishing. *)
let classify msg =
  let has p = String.length msg >= String.length p && String.sub msg 0 (String.length p) = p in
  if has "deferred:" then Deferred_tag_fault
  else if has "tag fault:" then Tag_fault
  else if has "pac auth:" then Pac_auth
  else if has "bounds:" then Bounds
  else if has "fuel:" then Fuel
  else if has "stack:" then Stack
  else if has "unreachable" then Unreachable
  else Guest_trap

type post_mortem = {
  pm_class : fault_class;
  pm_message : string;
  pm_instance : int;             (** instance id *)
  pm_mode : Arch.Mte.mode;
  pm_fault : Arch.Mte.fault option;
      (** the synchronous fault, structured: address, pointer tag vs
          memory tag, access kind *)
  pm_pending : Arch.Mte.fault option;
      (** TFSR drained at crash time — a deferred fault latched before
          the trap must not be lost when the trap unwinds *)
  pm_backtrace : string list;    (** wasm frames, innermost first *)
  pm_ops : int;                  (** meter snapshot: total events *)
  pm_mem_accesses : int;
  pm_fuel_left : int;            (** remaining watchdog budget, -1 if off *)
  pm_injections : string list;
      (** chaos injections charged to the crashed instance's lane since
          the invocation began *)
  pm_trace : string list;
      (** black-box flight recording: the last K trace events before the
          crash, oldest first — empty when no tracer was installed *)
}

let pp_post_mortem ppf pm =
  let open Format in
  fprintf ppf "@[<v>== post-mortem: instance %d (mte %a) ==@," pm.pm_instance
    Arch.Mte.pp_mode pm.pm_mode;
  fprintf ppf "cause     : %s@," (fault_class_to_string pm.pm_class);
  fprintf ppf "message   : %s@," pm.pm_message;
  (match pm.pm_fault with
  | Some f ->
      fprintf ppf "fault addr: 0x%016Lx@," f.Arch.Mte.fault_addr;
      fprintf ppf "ptr tag   : %a, memory %a, %s of %Ld byte(s)@,"
        Arch.Tag.pp f.Arch.Mte.ptr_tag
        (pp_print_option
           ~none:(fun ppf () -> pp_print_string ppf "<mixed/unmapped>")
           Arch.Tag.pp)
        f.Arch.Mte.mem_tag
        (match f.Arch.Mte.fault_access with
        | Arch.Mte.Load -> "load"
        | Arch.Mte.Store -> "store")
        f.Arch.Mte.fault_len
  | None -> ());
  (match pm.pm_pending with
  | Some f ->
      fprintf ppf "pending   : TFSR held %s at 0x%Lx (drained at crash)@,"
        (match f.Arch.Mte.fault_access with
        | Arch.Mte.Load -> "load fault"
        | Arch.Mte.Store -> "store fault")
        f.Arch.Mte.fault_addr
  | None -> ());
  (match pm.pm_backtrace with
  | [] -> ()
  | bt ->
      fprintf ppf "backtrace :";
      List.iteri (fun i f -> fprintf ppf " #%d %s" i f) bt;
      fprintf ppf "@,");
  fprintf ppf "meter     : %d ops, %d memory accesses@," pm.pm_ops
    pm.pm_mem_accesses;
  if pm.pm_fuel_left >= 0 then fprintf ppf "fuel left : %d@," pm.pm_fuel_left;
  (match pm.pm_injections with
  | [] -> ()
  | inj ->
      fprintf ppf "injected  : %s@," (String.concat "; " inj));
  (match pm.pm_trace with
  | [] -> ()
  | tr ->
      fprintf ppf "flight rec: last %d events@," (List.length tr);
      List.iter (fun l -> fprintf ppf "  %s@," l) tr);
  fprintf ppf "@]"

type outcome =
  | Finished of Wasm.Values.t list
  | Crashed of post_mortem

type t = {
  process : Process.t;
  fuel_budget : int;  (** per-invocation watchdog budget; -1 = off *)
  black_box : int;    (** trace events embedded in a post-mortem *)
  max_quarantined : int;
      (** retained post-mortems cap: a crash storm keeps only the
          newest this-many records (membership is never dropped) *)
  mutable quarantined : (int * post_mortem) list;  (* newest first *)
  mutable quarantine_ids : int list;
      (* membership, separate from the capped post-mortem store: an
         evicted record must not silently un-quarantine its instance *)
}

let create ?(fuel = -1) ?(black_box = 8) ?(max_quarantined = 256) process =
  if max_quarantined < 1 then
    invalid_arg "Supervisor.create: max_quarantined must be >= 1";
  { process; fuel_budget = fuel; black_box; max_quarantined;
    quarantined = []; quarantine_ids = [] }

let process t = t.process

let spawn ?meter ?imports t m = Process.spawn ?meter ?imports t.process m

let quarantined t = List.rev t.quarantined

let is_quarantined t (inst : Wasm.Instance.t) =
  List.mem inst.Wasm.Instance.id t.quarantine_ids

(** Lift an instance out of quarantine — the pool's self-healing path,
    called after the slot has been restored from its frozen snapshot.
    Retained post-mortems are kept (the crash history stays
    inspectable); only the membership bit clears. *)
let release t (inst : Wasm.Instance.t) =
  t.quarantine_ids <-
    List.filter (fun id -> id <> inst.Wasm.Instance.id) t.quarantine_ids

(* Retain a fresh post-mortem under the cap: oldest-first eviction so a
   crash storm cannot grow supervisor memory without bound. *)
let retain t id pm =
  if not (List.mem id t.quarantine_ids) then
    t.quarantine_ids <- id :: t.quarantine_ids;
  let q = (id, pm) :: t.quarantined in
  if List.length q > t.max_quarantined then begin
    let keep = List.filteri (fun i _ -> i < t.max_quarantined) q in
    let evicted = List.filteri (fun i _ -> i >= t.max_quarantined) q in
    List.iter
      (fun (eid, _) ->
        if Obs.Hook.enabled () then
          Obs.Hook.event (Obs.Event.Quarantine_evicted { instance = eid }))
      evicted;
    t.quarantined <- keep
  end
  else t.quarantined <- q

let snapshot ~black_box ~injections (inst : Wasm.Instance.t) cls msg =
  let mode =
    match inst.Wasm.Instance.mte with
    | Some m -> Arch.Mte.mode m
    | None -> Arch.Mte.Disabled
  in
  (* Drain the sticky TFSR: a deferred fault latched before a
     synchronous trap unwound the interpreter must surface here, in the
     post-mortem, not silently survive into the next invocation. *)
  let pending =
    match inst.Wasm.Instance.mte with
    | Some m -> Arch.Mte.take_pending m
    | None -> None
  in
  let ops, mem_accesses =
    match inst.Wasm.Instance.meter with
    | Some m -> (Wasm.Meter.total m, Wasm.Meter.mem_accesses m)
    | None -> (0, 0)
  in
  {
    pm_class = cls;
    pm_message = msg;
    pm_instance = inst.Wasm.Instance.id;
    pm_mode = mode;
    pm_fault = inst.Wasm.Instance.last_fault;
    pm_pending = pending;
    pm_backtrace =
      List.map (Wasm.Instance.func_name inst) inst.Wasm.Instance.call_stack;
    pm_ops = ops;
    pm_mem_accesses = mem_accesses;
    pm_fuel_left = inst.Wasm.Instance.fuel;
    pm_injections = injections;
    pm_trace = Obs.Hook.recent_events black_box;
  }

(** Run [f] — an invocation on [inst] — under the supervisor. Every
    failure becomes a [Crashed] outcome with a post-mortem; no OCaml
    exception escapes. A crash quarantines the instance: further
    invocations are refused with a [Quarantine] outcome while siblings
    in the same process keep running. *)
let run_thunk t (inst : Wasm.Instance.t) f =
  if is_quarantined t inst then
    Crashed
      (snapshot ~black_box:t.black_box ~injections:[] inst Quarantine
         (Printf.sprintf "instance %d is quarantined" inst.Wasm.Instance.id))
  else begin
    (* A crash reports what this invocation injected: the armed
       instance's own lane, from the count seen here. *)
    let chaos = inst.Wasm.Instance.chaos in
    let since = Option.fold ~none:0 ~some:Arch.Fault_inject.lane_count chaos in
    if Obs.Hook.enabled () then Obs.Hook.set_instance inst.Wasm.Instance.id;
    inst.Wasm.Instance.fuel <- t.fuel_budget;
    inst.Wasm.Instance.last_fault <- None;
    inst.Wasm.Instance.call_stack <- [];
    (* Fuel consumed by this invocation (the fuel-per-call histogram);
       only meaningful when the watchdog is on. *)
    let note_fuel () =
      if t.fuel_budget >= 0 && Obs.Hook.enabled () then
        Obs.Hook.fuel_used (t.fuel_budget - max 0 inst.Wasm.Instance.fuel)
    in
    let crash cls msg =
      note_fuel ();
      (* The crash record is the black box's final line: the flight
         recording embedded below ends with the impact itself. *)
      if Obs.Hook.enabled () then
        Obs.Hook.event
          (Obs.Event.Crash { cls = fault_class_to_string cls; msg });
      let injections =
        match chaos with
        | None -> []
        | Some ln ->
            List.map
              (Format.asprintf "%a" Arch.Fault_inject.pp_injection)
              (Arch.Fault_inject.injections ~since ln)
      in
      let pm = snapshot ~black_box:t.black_box ~injections inst cls msg in
      (* A scribble still pending targets this instance's heap, which
         the pool restores before reuse: it dies with the invocation
         rather than land at the instance's next sync point. *)
      Option.iter (fun ln -> ignore (Arch.Fault_inject.take_scribble ln)) chaos;
      inst.Wasm.Instance.fuel <- -1;
      inst.Wasm.Instance.call_stack <- [];
      retain t inst.Wasm.Instance.id pm;
      Crashed pm
    in
    match f () with
    | vs ->
        note_fuel ();
        inst.Wasm.Instance.fuel <- -1;
        Finished vs
    | exception Wasm.Instance.Trap msg -> crash (classify msg) msg
    | exception e -> crash Host_error ("host: " ^ Printexc.to_string e)
  end

(** Invoke exported [name] on [inst] under the supervisor. *)
let run t inst name args =
  run_thunk t inst (fun () -> Wasm.Exec.invoke inst name args)
