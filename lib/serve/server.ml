(** The multi-tenant serving runtime.

    Wires the pieces together: per-tenant {!Pool}s (snapshot-restored
    containment slots), the fuel-sliced {!Scheduler} (quantum
    round-robin over simulated cores), and the {!Policy} layer
    (admission control, bounded retry with backoff, circuit breaker,
    rate-limited self-healing) — all driven by one deterministic
    discrete-event loop on the simulated cycle clock.

    {b Execution model.} The interpreter is run-to-completion, so a
    request's guest code actually executes at dispatch time; the
    measured demand (executed ops + modeled restore cost + a flat
    dispatch overhead) is then replayed through the scheduler as
    quantum slices, which is where queueing delay, multiplexing and
    completion times come from. Per-slot chaos lanes make the fault
    streams independent of this ordering, so chaos-on runs replay
    identically however requests interleave.

    {b Escape semantics.} A request that [Finished] with a result
    different from the tenant's chaos-free reference is an ESCAPE —
    corrupted bytes reached the client — terminal, never retried. A
    request whose accepted attempt finished {e correctly} although
    injections hit it is counted [sanitized]: whatever latent damage the
    injection left
    dies with the per-request restore and never crosses a request
    boundary. Crashes are contained by the supervisor and eligible for
    retry only when the fault class is a contained/transient one
    ({!Policy.retryable}); definite guest bugs fail fast.

    {b Accounting invariant.} Every logical request has one record
    ({!Slo.req_rec}) from its first arrival to its termination, and
    terminates exactly once, when its record is counted into its
    tenant's report: [ok + failed + shed = requests], per tenant and in
    total. [escaped] is a subset of [failed]; [sanitized] a subset of
    [ok]; retries/timeouts/crashes count each request's events, not
    requests.

    {b Observability.} Purely additive measurement on the same event
    loop: with an {!Obs.Span} recorder installed, every request is
    emitted as a stitched causal chain (admission instant, queue wait,
    restore, execution slices on core tracks, retries linked by flow
    arrows); with a {!Slo.collector} passed in, every terminated
    request's record is kept, with its exact phase decomposition
    ([queue + restore + exec + retry + drain = latency], exec phases
    reconciling against the pool meters) and the injections it
    absorbed; SLO monitors, tail rows and fault hits are views over
    those records. Neither adds modeled cycles, consumes randomness, or
    perturbs event order: reports are bit-identical with or without
    them. *)

type config = {
  cores : int;          (** simulated cores multiplexing requests *)
  quantum : int;        (** fuel slice per dispatch, cycles *)
  requests : int;       (** logical requests across all tenants *)
  slots : int;          (** pool slots per tenant *)
  pool_fuel : int;      (** per-invocation watchdog budget *)
  arrival_gap : int;    (** mean inter-arrival gap, cycles *)
  seed : int;
  policy : Policy.t;
}

let default_config =
  {
    cores = 4;
    quantum = 20_000;
    requests = 10_000;
    slots = 4;
    pool_fuel = 2_000_000;
    arrival_gap = 8_000;
    seed = 42;
    policy = Policy.default;
  }

(* Flat per-dispatch overhead: context switch + scheduling, cycles. *)
let dispatch_overhead = 200

type tenant_report = {
  tr_name : string;
  tr_requests : int;
  tr_ok : int;
  tr_sanitized : int;
  tr_escaped : int;
  tr_failed : int;
  tr_shed : int;
  tr_crashes : int;
  tr_retries : int;
  tr_timeouts : int;
  tr_breaker_trips : int;
  tr_p50_exact : int;   (** nearest-rank on the full latency sample *)
  tr_p99_exact : int;
}

type report = {
  rp_requests : int;
  rp_ok : int;
  rp_sanitized : int;
  rp_escaped : int;
  rp_failed : int;
  rp_shed : int;
  rp_crashes : int;
  rp_retries : int;
  rp_timeouts : int;
  rp_breaker_trips : int;
  rp_restores : int;
  rp_restore_copied_bytes : int;  (** image bytes the restores copied *)
  rp_restore_image_bytes : int;   (** bytes full-image copies would move *)
  rp_heals : int;
  rp_heals_deferred : int;
  rp_injections : int;           (** the run's chaos engine count *)
  rp_makespan : int;             (** simulated cycles start→last event *)
  rp_p50_exact : int;            (** nearest-rank, all tenants *)
  rp_p99_exact : int;
  rp_max_ready : int;            (** run-queue high-water mark *)
  rp_served_cycles : int;        (** metered guest cycles, all pools *)
  rp_tenants : tenant_report list;
}

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

type tstate = {
  tid : int;                         (* the tenant's span track *)
  pool : Pool.t;
  waiting : Slo.req_rec Queue.t;
  breaker : Policy.breaker;
  mutable tally : tenant_report;     (* its terminated requests, counted *)
  mutable latencies : int list;      (* end-to-end, ok requests only *)
}

type running = {
  rn_req : Slo.req_rec;
  rn_st : tstate;
  rn_slot : Pool.slot;
  rn_outcome : Cage.Supervisor.outcome;
  rn_injected : bool;    (* chaos injections landed in this attempt *)
  rn_start : int;        (* service start (dispatch) time *)
  rn_demand : int;       (* metered guest demand of this attempt *)
  rn_restore : int;      (* modeled restore cycles of this attempt *)
}

type ev =
  | Arrival of tstate * Slo.req_rec
  | Slice of running Scheduler.slice
  | Heal

(* Count one terminated request into its tenant's report: the one place
   a request's outcome is tallied. Retries, crashes and timeouts are
   the request's own events; percentiles and breaker trips are filled
   in when the run ends. *)
let count st (r : Slo.req_rec) =
  let n b = if b then 1 else 0 and tr = st.tally in
  st.tally <-
    {
      tr with
      tr_requests = tr.tr_requests + 1;
      tr_ok = tr.tr_ok + n (Slo.ok r);
      tr_sanitized = tr.tr_sanitized + n r.rr_sanitized;
      tr_escaped = tr.tr_escaped + n (r.rr_end = Slo.Escaped);
      tr_failed =
        tr.tr_failed + n (r.rr_end = Slo.Failed || r.rr_end = Slo.Escaped);
      tr_shed = tr.tr_shed + n (r.rr_end = Slo.Shed);
      tr_crashes = tr.tr_crashes + r.rr_crashes;
      tr_retries = tr.tr_retries + r.rr_attempts - 1;
      tr_timeouts = tr.tr_timeouts + r.rr_timeouts;
    };
  if Slo.ok r then st.latencies <- Slo.latency r :: st.latencies

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let tenant_report st =
  let lat = sorted st.latencies in
  {
    st.tally with
    tr_breaker_trips = Policy.breaker_trips st.breaker;
    tr_p50_exact = Slo.percentile_exact lat 50.0;
    tr_p99_exact = Slo.percentile_exact lat 99.0;
  }

let values_equal a b =
  List.length a = List.length b && List.for_all2 Wasm.Values.equal a b

(** Serve [config.requests] simulated requests across [tenants],
    optionally under a chaos engine drawn from [chaos] and optionally
    keeping every terminated request's record in an SLO [collect]or.
    Pools are built — and their pristine images frozen — {e before}
    their slots are armed, so restores always return to fault-free
    state. The arrival schedule depends only on [config.seed], never
    on the chaos policy: chaos-off and chaos-on runs see identical
    offered load. The run starts from a collected heap, so a process
    that serves one run after another holds one run's pools at a
    time. *)
let run ?chaos ?collect config tenants =
  if tenants = [] then invalid_arg "Server.run: no tenants";
  (* A run's pools hold every slot's memory, tag plane and frozen
     images, and all of it is unreachable once the run returns (about
     16 MiB on 64-page tenants). Left to the major GC, the previous
     run's pools are freed before or after this run builds its own,
     depending on where the current cycle stands, so the process's
     peak would hold one run's pools or two. Collecting first makes it
     one; it costs 1-5 ms against a run of hundreds. *)
  Gc.full_major ();
  let policy = config.policy in
  let ts =
    Array.of_list tenants
    |> Array.mapi (fun i tn ->
           {
             tid = Obs.Span.tenant_tid i;
             (* lanes [1000*(i+1), 1000*(i+1)+slots): globally unique
                per slot *)
             pool =
               Pool.create ~fuel:config.pool_fuel
                 ~lane_base:(1000 * (i + 1))
                 ~size:config.slots
                 ~seed:((config.seed * 31) + i)
                 ~policy tn;
             waiting = Queue.create ();
             breaker =
               Policy.breaker_create ~label:tn.Pool.tn_name
                 policy.Policy.breaker;
             tally =
               { tr_name = tn.Pool.tn_name; tr_requests = 0; tr_ok = 0;
                 tr_sanitized = 0; tr_escaped = 0; tr_failed = 0; tr_shed = 0;
                 tr_crashes = 0; tr_retries = 0; tr_timeouts = 0;
                 tr_breaker_trips = 0; tr_p50_exact = 0; tr_p99_exact = 0 };
             latencies = [];
           })
  in
  let name st = st.tally.tr_name in
  (* Name the span tracks up front so core and tenant lanes render
     labelled even if the run records nothing else. *)
  if Obs.Span.enabled () then begin
    Obs.Span.set_track ~tid:Obs.Span.runtime_tid "runtime";
    for c = 0 to config.cores - 1 do
      Obs.Span.set_track ~tid:(Scheduler.core_tid c)
        (Printf.sprintf "core %d" c)
    done;
    Array.iter
      (fun st ->
        Obs.Span.set_track ~tid:st.tid (Printf.sprintf "tenant %s" (name st)))
      ts
  end;
  let engine = Option.map Arch.Fault_inject.create chaos in
  Option.iter (fun e -> Array.iter (fun st -> Pool.arm st.pool e) ts) engine;
  let events = Scheduler.Heap.create () in
  let cpu = Scheduler.create ~cores:config.cores ~quantum:config.quantum in
  (* Arrival and retry randomness ride dedicated streams: neither can
     perturb (or be perturbed by) the chaos engine's per-lane draws. *)
  let arrival_rng = Random.State.make [| config.seed; 17 |] in
  let retry_rng = Random.State.make [| config.seed; 23 |] in
  let total_weight =
    Array.fold_left (fun n st -> n + st.pool.Pool.pl_tenant.Pool.tn_weight) 0 ts
  in
  let pick_tenant () =
    let r = ref (Random.State.int arrival_rng total_weight) in
    let j = ref 0 in
    while !r >= ts.(!j).pool.Pool.pl_tenant.Pool.tn_weight do
      r := !r - ts.(!j).pool.Pool.pl_tenant.Pool.tn_weight;
      incr j
    done;
    !j
  in
  (* First arrivals are drawn one at a time, when the loop reaches the
     previous one, so a request's record lives from its first arrival
     to its termination. *)
  let arrived = ref 0 and next_time = ref 0 and next_tenant = ref 0 in
  let draw_arrival () =
    next_time :=
      !next_time + 1 + Random.State.int arrival_rng (2 * config.arrival_gap);
    next_tenant := pick_tenant ()
  in
  if config.requests > 0 then draw_arrival ();
  Scheduler.Heap.push events ~time:policy.Policy.heal_interval Heal;
  let pending = ref config.requests in
  let makespan = ref 0 in
  (* Continue (or open) a request's flow chain at the slice that starts
     at [ts] on [tid] — the stitching across queue waits, cores and
     retries. *)
  let flow_touch (r : Slo.req_rec) ~tid ~ts name =
    if Obs.Span.enabled () then begin
      if r.rr_flow then Obs.Span.flow_step ~id:r.rr_id ~tid ~ts name
      else begin
        r.rr_flow <- true;
        Obs.Span.flow_start ~id:r.rr_id ~tid ~ts name
      end
    end
  in
  (* End a request: close its span envelope (terminal instant, flow
     end, async end — it disappears from its tenant track here), count
     it into its tenant's report, and keep it if a collector is
     watching. *)
  let terminate st (r : Slo.req_rec) ~now ending name =
    r.rr_end <- ending;
    r.rr_ended <- now;
    if Obs.Span.enabled () then begin
      Obs.Span.instant ~tid:st.tid ~ts:now
        ~args:[ ("req", Obs.Span.I r.rr_id) ]
        name;
      if r.rr_flow then Obs.Span.flow_end ~id:r.rr_id ~tid:st.tid ~ts:now name;
      Obs.Span.async_end ~id:r.rr_id ~tid:st.tid ~ts:now "request"
    end;
    count st r;
    Option.iter (fun co -> Slo.record co r) collect;
    decr pending
  in
  let retry_or_fail st (r : Slo.req_rec) ~retryable ~now =
    if retryable && r.rr_attempts < policy.Policy.retry.Policy.max_attempts
    then begin
      let attempt = r.rr_attempts in
      r.rr_attempts <- r.rr_attempts + 1;
      if Obs.Hook.enabled () then
        Obs.Hook.event
          (Obs.Event.Request_retry
             { tenant = name st; attempt = r.rr_attempts });
      let delay = Policy.backoff policy.Policy.retry retry_rng ~attempt in
      (* The backoff wait is retry-phase latency by definition. *)
      r.rr_retry <- r.rr_retry + delay;
      if Obs.Span.enabled () then begin
        Obs.Span.instant ~tid:st.tid ~ts:now
          ~args:
            [ ("req", Obs.Span.I r.rr_id);
              ("attempt", Obs.Span.I r.rr_attempts) ]
          "retry";
        Obs.Span.complete
          ~args:[ ("req", Obs.Span.I r.rr_id) ]
          ~tid:st.tid ~start:now ~stop:(now + delay) "backoff"
      end;
      Scheduler.Heap.push events ~time:(now + delay) (Arrival (st, r))
    end
    else terminate st r ~now Slo.Failed "fail"
  in
  let shed st r ~now reason =
    if Obs.Hook.enabled () then
      Obs.Hook.event (Obs.Event.Request_shed { tenant = name st; reason });
    terminate st r ~now Slo.Shed ("shed-" ^ reason)
  in
  let dispatch_all now =
    let continue = ref true in
    while !continue do
      match Scheduler.dispatch cpu ~now with
      | Some s -> Scheduler.Heap.push events ~time:s.Scheduler.s_end (Slice s)
      | None -> continue := false
    done
  in
  (* Pull waiting requests onto idle slots. The guest executes here
     (run-to-completion); the measured demand is replayed as slices. *)
  let rec try_start st ~now =
    if not (Queue.is_empty st.waiting) then
      match Pool.acquire st.pool with
      | None -> ()
      | Some slot ->
          let r = Queue.pop st.waiting in
          (* The slot wait is queue-phase latency whether the request
             goes on to run or dies of old age right here. *)
          let waited = now - r.rr_attempt_arrival in
          r.rr_queue <- r.rr_queue + waited;
          if Obs.Span.enabled () then begin
            Obs.Span.complete
              ~args:
                [ ("req", Obs.Span.I r.rr_id);
                  ("attempt", Obs.Span.I r.rr_attempts) ]
              ~tid:st.tid ~start:r.rr_attempt_arrival ~stop:now "queue";
            flow_touch r ~tid:st.tid ~ts:r.rr_attempt_arrival "queue"
          end;
          if waited > policy.Policy.deadline then begin
            (* expired while queued: the slot goes back untouched *)
            Pool.cancel slot;
            r.rr_timeouts <- r.rr_timeouts + 1;
            if Obs.Span.enabled () then
              Obs.Span.instant ~tid:st.tid ~ts:now
                ~args:[ ("req", Obs.Span.I r.rr_id) ]
                "timeout-queued";
            retry_or_fail st r ~retryable:true ~now;
            try_start st ~now
          end
          else begin
            (* The attempt's injections are the slot lane's newest,
               the same slice a post-mortem reads. *)
            let chaos = slot.Pool.sl_inst.Wasm.Instance.chaos in
            let since =
              Option.fold ~none:0 ~some:Arch.Fault_inject.lane_count chaos
            in
            let outcome, exec_demand = Pool.serve st.pool slot in
            let injections =
              Option.fold ~none:[]
                ~some:(Arch.Fault_inject.injections ~since)
                chaos
            in
            r.rr_injections <- r.rr_injections @ injections;
            let restore = slot.Pool.sl_restored in
            let demand = exec_demand + restore + dispatch_overhead in
            let span =
              if Obs.Span.enabled () then begin
                Obs.Span.complete
                  ~args:[ ("req", Obs.Span.I r.rr_id) ]
                  ~tid:st.tid ~start:now ~stop:(now + restore) "restore";
                Some (name st, r.rr_id)
              end
              else None
            in
            Scheduler.submit ?span cpu
              {
                rn_req = r;
                rn_st = st;
                rn_slot = slot;
                rn_outcome = outcome;
                rn_injected = injections <> [];
                rn_start = now;
                rn_demand = exec_demand;
                rn_restore = restore;
              }
              ~demand;
            try_start st ~now
          end
  in
  let complete (rn : running) ~now =
    let st = rn.rn_st and r = rn.rn_req in
    let residence = now - rn.rn_start in
    (* An attempt whose result is discarded (late, wrong, crashed)
       charges its whole residence to the retry phase and its metered
       demand to waste; only the accepted attempt splits residence
       into restore + exec + drain. *)
    let discard_attempt () =
      r.rr_retry <- r.rr_retry + residence;
      r.rr_exec_waste <- r.rr_exec_waste + rn.rn_demand
    in
    (match rn.rn_outcome with
    | Cage.Supervisor.Finished vs ->
        Pool.settle_ok rn.rn_slot;
        if now - r.rr_attempt_arrival > policy.Policy.deadline then begin
          r.rr_timeouts <- r.rr_timeouts + 1;
          discard_attempt ();
          if Obs.Span.enabled () then
            Obs.Span.instant ~tid:st.tid ~ts:now
              ~args:[ ("req", Obs.Span.I r.rr_id) ]
              "timeout";
          retry_or_fail st r ~retryable:true ~now
        end
        else if
          match st.pool.Pool.pl_tenant.Pool.tn_expected with
          | Some e -> values_equal vs e
          | None -> true
        then begin
          r.rr_sanitized <- rn.rn_injected;
          r.rr_restore <- rn.rn_restore;
          r.rr_exec <- rn.rn_demand;
          r.rr_drain <- residence - rn.rn_demand - rn.rn_restore;
          Policy.breaker_success st.breaker;
          terminate st r ~now Slo.Done "done"
        end
        else begin
          (* corrupted result reached the client: the one outcome
             the whole stack exists to prevent — terminal, never
             retried, gated to zero by CI *)
          discard_attempt ();
          terminate st r ~now Slo.Escaped "fail"
        end
    | Cage.Supervisor.Crashed pm ->
        Pool.settle_crashed rn.rn_slot;
        r.rr_crashes <- r.rr_crashes + 1;
        discard_attempt ();
        if Obs.Span.enabled () then
          Obs.Span.instant ~tid:st.tid ~ts:now
            ~args:
              [ ("req", Obs.Span.I r.rr_id);
                ("class",
                 Obs.Span.S
                   (Cage.Supervisor.fault_class_to_string
                      pm.Cage.Supervisor.pm_class)) ]
            "crash";
        if Policy.breaker_crash st.breaker ~now && Obs.Hook.enabled () then
          Obs.Hook.event (Obs.Event.Breaker_trip { tenant = name st });
        retry_or_fail st r
          ~retryable:(Policy.retryable pm.Cage.Supervisor.pm_class)
          ~now);
    try_start st ~now
  in
  let continue = ref true in
  while !continue do
    (* A first arrival goes before any queued event at its time, the
       order it would have if every first arrival were queued up
       front. *)
    let next =
      if !arrived < config.requests
         && !next_time <= Scheduler.Heap.min_time events
      then begin
        let now = !next_time and st = ts.(!next_tenant) in
        let r = Slo.request ~id:!arrived ~tenant:(name st) ~now in
        incr arrived;
        if !arrived < config.requests then draw_arrival ();
        Some (now, Arrival (st, r))
      end
      else Scheduler.Heap.pop events
    in
    match next with
    | None -> continue := false
    | Some (now, ev) ->
        makespan := max !makespan now;
        Obs.Span.set_now now;
        (match ev with
        | Arrival (st, r) ->
            if r.rr_attempts = 1 && Obs.Span.enabled () then begin
              Obs.Span.async_begin ~id:r.rr_id ~tid:st.tid ~ts:now
                ~args:[ ("tenant", Obs.Span.S (name st)) ]
                "request";
              Obs.Span.instant ~tid:st.tid ~ts:now
                ~args:[ ("req", Obs.Span.I r.rr_id) ]
                "admit"
            end;
            r.rr_attempt_arrival <- now;
            if not (Policy.breaker_admits st.breaker ~now) then
              shed st r ~now "breaker"
            else if Queue.length st.waiting >= policy.Policy.queue_bound
            then shed st r ~now "queue"
            else begin
              Queue.push r st.waiting;
              if Obs.Hook.enabled () then
                Obs.Hook.queue_depth (Queue.length st.waiting);
              try_start st ~now
            end
        | Slice s -> (
            match Scheduler.slice_done cpu s with
            | Some rn -> complete rn ~now
            | None -> ())
        | Heal ->
            if !pending > 0 then begin
              Array.iter
                (fun st ->
                  if Pool.heal st.pool ~now > 0 then try_start st ~now)
                ts;
              Scheduler.Heap.push events
                ~time:(now + policy.Policy.heal_interval)
                Heal
            end);
        (* work conservation: whatever the event freed or submitted,
           no core stays idle while a job is ready *)
        dispatch_all now
  done;
  let reports = Array.to_list (Array.map tenant_report ts) in
  let sum f = List.fold_left (fun n tr -> n + f tr) 0 reports in
  let all_lat =
    sorted (Array.fold_left (fun acc st -> st.latencies @ acc) [] ts)
  in
  let pools f = Array.fold_left (fun n st -> n + f st.pool) 0 ts in
  {
    rp_requests = sum (fun tr -> tr.tr_requests);
    rp_ok = sum (fun tr -> tr.tr_ok);
    rp_sanitized = sum (fun tr -> tr.tr_sanitized);
    rp_escaped = sum (fun tr -> tr.tr_escaped);
    rp_failed = sum (fun tr -> tr.tr_failed);
    rp_shed = sum (fun tr -> tr.tr_shed);
    rp_crashes = sum (fun tr -> tr.tr_crashes);
    rp_retries = sum (fun tr -> tr.tr_retries);
    rp_timeouts = sum (fun tr -> tr.tr_timeouts);
    rp_breaker_trips = sum (fun tr -> tr.tr_breaker_trips);
    rp_restores = pools Pool.restores;
    rp_restore_copied_bytes = pools Pool.restore_copied_bytes;
    rp_restore_image_bytes = pools Pool.restore_image_bytes;
    rp_heals = pools Pool.heals;
    rp_heals_deferred = pools Pool.heals_deferred;
    rp_injections = Option.fold ~none:0 ~some:Arch.Fault_inject.count engine;
    rp_makespan = !makespan;
    rp_p50_exact = Slo.percentile_exact all_lat 50.0;
    rp_p99_exact = Slo.percentile_exact all_lat 99.0;
    rp_max_ready = Scheduler.max_ready cpu;
    rp_served_cycles = pools Pool.served_cycles;
    rp_tenants = reports;
  }

(** Find a tenant's report by name. *)
let tenant_of report name =
  List.find_opt (fun tr -> String.equal tr.tr_name name) report.rp_tenants
