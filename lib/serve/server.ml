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
    request that finished {e correctly} while injections hit its lane
    is counted [sanitized]: whatever latent damage the injection left
    dies with the per-request restore and never crosses a request
    boundary. Crashes are contained by the supervisor and eligible for
    retry only when the fault class is a contained/transient one
    ({!Policy.retryable}); definite guest bugs fail fast.

    {b Accounting invariant.} Every logical request terminates exactly
    once: [ok + failed + shed = requests], per tenant and in total.
    [escaped] is a subset of [failed]; [sanitized] a subset of [ok];
    retries/timeouts/crashes count events, not requests.

    {b Observability.} Purely additive measurement on the same event
    loop: with an {!Obs.Span} recorder installed, every request is
    emitted as a stitched causal chain (admission instant, queue wait,
    restore, execution slices on core tracks, retries linked by flow
    arrows); with a {!Slo.collector} passed in, every terminated
    request feeds per-tenant SLO monitors and carries an exact phase
    decomposition of its latency ([queue + restore + exec + retry +
    drain = latency], with exec phases reconciling against the pool
    meters). Neither adds modeled cycles, consumes randomness, or
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

type tenant_stats = {
  ts_name : string;
  mutable ts_requests : int;      (* logical arrivals *)
  mutable ts_ok : int;
  mutable ts_sanitized : int;     (* ok despite injections on the lane *)
  mutable ts_escaped : int;       (* finished wrong: subset of failed *)
  mutable ts_failed : int;
  mutable ts_shed_queue : int;
  mutable ts_shed_breaker : int;
  mutable ts_crashes : int;       (* crash events (attempts) *)
  mutable ts_retries : int;
  mutable ts_timeouts : int;      (* deadline-miss events *)
  mutable ts_breaker_trips : int;
  mutable ts_latencies : int list;  (* end-to-end, successful only *)
}

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
  tr_p50 : int;
  tr_p99 : int;
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
  rp_injections : int;
  rp_makespan : int;             (** simulated cycles start→last event *)
  rp_p50 : int;
  rp_p99 : int;
  rp_p50_exact : int;
  rp_p99_exact : int;
  rp_max_ready : int;            (** run-queue high-water mark *)
  rp_served_cycles : int;        (** metered guest cycles, all pools *)
  rp_tenants : tenant_report list;
}

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0
  | n ->
      let i = min (n - 1) (p * n / 100) in
      sorted.(i)

let tenant_report (s : tenant_stats) =
  let lat = Array.of_list s.ts_latencies in
  Array.sort compare lat;
  {
    tr_name = s.ts_name;
    tr_requests = s.ts_requests;
    tr_ok = s.ts_ok;
    tr_sanitized = s.ts_sanitized;
    tr_escaped = s.ts_escaped;
    tr_failed = s.ts_failed;
    tr_shed = s.ts_shed_queue + s.ts_shed_breaker;
    tr_crashes = s.ts_crashes;
    tr_retries = s.ts_retries;
    tr_timeouts = s.ts_timeouts;
    tr_breaker_trips = s.ts_breaker_trips;
    tr_p50 = percentile lat 50;
    tr_p99 = percentile lat 99;
    tr_p50_exact = Slo.percentile_exact lat 50.0;
    tr_p99_exact = Slo.percentile_exact lat 99.0;
  }

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

type req = {
  rq_id : int;                       (* arrival ordinal, stable across retries *)
  rq_tenant : int;
  rq_first_arrival : int;
  mutable rq_attempt : int;          (* 1-based *)
  mutable rq_attempt_arrival : int;
  (* Phase accounting on the DES clock. For an ok request,
     queue + restore + exec + retry + drain = end-to-end latency
     exactly: every cycle between first arrival and termination lands
     in one phase. *)
  mutable rq_queue : int;        (* slot waits, all attempts *)
  mutable rq_restore : int;      (* modeled restore, accepted attempt *)
  mutable rq_exec : int;         (* metered demand, accepted attempt *)
  mutable rq_exec_waste : int;   (* metered demand, discarded attempts *)
  mutable rq_retry : int;        (* backoff waits + discarded residence *)
  mutable rq_drain : int;        (* dispatch overhead + preemption gaps *)
  mutable rq_injections : int;   (* chaos injections across attempts *)
  mutable rq_flow : bool;        (* span flow chain opened *)
}

type running = {
  rn_req : req;
  rn_tenant : int;
  rn_slot : Pool.slot;
  rn_outcome : Cage.Supervisor.outcome;
  rn_injections : int;   (* chaos injections on the slot's lane *)
  rn_start : int;        (* service start (dispatch) time *)
  rn_demand : int;       (* metered guest demand of this attempt *)
  rn_restore : int;      (* modeled restore cycles of this attempt *)
}

type ev =
  | Arrival of req
  | Slice of running Scheduler.slice
  | Heal

type tstate = {
  pool : Pool.t;
  waiting : req Queue.t;
  breaker : Policy.breaker;
  stats : tenant_stats;
}

let values_equal a b =
  List.length a = List.length b && List.for_all2 Wasm.Values.equal a b

(** Serve [config.requests] simulated requests across [tenants],
    optionally under a live chaos engine ([chaos]) and optionally
    feeding per-request records into an SLO [collect]or. Pools are
    built — and their pristine images frozen — {e before} the engine
    installs, so restores always return to fault-free state. The
    arrival schedule depends only on [config.seed], never on the chaos
    policy: chaos-off and chaos-on runs see identical offered load. *)
let run ?chaos ?collect config tenants =
  if tenants = [] then invalid_arg "Server.run: no tenants";
  let policy = config.policy in
  let ts =
    Array.of_list tenants
    |> Array.mapi (fun i tn ->
           {
             (* lanes [1000*(i+1), 1000*(i+1)+slots): globally unique
                per slot, disjoint from lane 0 defaults *)
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
             stats =
               {
                 ts_name = tn.Pool.tn_name;
                 ts_requests = 0;
                 ts_ok = 0;
                 ts_sanitized = 0;
                 ts_escaped = 0;
                 ts_failed = 0;
                 ts_shed_queue = 0;
                 ts_shed_breaker = 0;
                 ts_crashes = 0;
                 ts_retries = 0;
                 ts_timeouts = 0;
                 ts_breaker_trips = 0;
                 ts_latencies = [];
               };
           })
  in
  (* Name the span tracks up front so core and tenant lanes render
     labelled even if the run records nothing else. *)
  if Obs.Span.enabled () then begin
    Obs.Span.set_track ~tid:Obs.Span.runtime_tid "runtime";
    for c = 0 to config.cores - 1 do
      Obs.Span.set_track ~tid:(Scheduler.core_tid c)
        (Printf.sprintf "core %d" c)
    done;
    Array.iteri
      (fun j st ->
        Obs.Span.set_track ~tid:(Obs.Span.tenant_tid j)
          (Printf.sprintf "tenant %s" st.stats.ts_name))
      ts
  end;
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
  let t = ref 0 in
  for i = 1 to config.requests do
    t := !t + 1 + Random.State.int arrival_rng (2 * config.arrival_gap);
    let j = pick_tenant () in
    Scheduler.Heap.push events ~time:!t
      (Arrival
         {
           rq_id = i - 1;
           rq_tenant = j;
           rq_first_arrival = !t;
           rq_attempt = 1;
           rq_attempt_arrival = !t;
           rq_queue = 0;
           rq_restore = 0;
           rq_exec = 0;
           rq_exec_waste = 0;
           rq_retry = 0;
           rq_drain = 0;
           rq_injections = 0;
           rq_flow = false;
         })
  done;
  Scheduler.Heap.push events ~time:policy.Policy.heal_interval Heal;
  let pending = ref config.requests in
  let makespan = ref 0 in
  let total_injections = ref 0 in
  let lane_injections lane =
    match Arch.Fault_inject.active () with
    | Some e -> Arch.Fault_inject.lane_count e lane
    | None -> 0
  in
  let tenant_tid j = Obs.Span.tenant_tid j in
  (* Continue (or open) a request's flow chain at the slice that starts
     at [ts] on [tid] — the stitching across queue waits, cores and
     retries. *)
  let flow_touch r ~tid ~ts name =
    if Obs.Span.enabled () then begin
      if r.rq_flow then Obs.Span.flow_step ~id:r.rq_id ~tid ~ts name
      else begin
        r.rq_flow <- true;
        Obs.Span.flow_start ~id:r.rq_id ~tid ~ts name
      end
    end
  in
  (* Feed one terminated request into the collector: SLO sample, phase
     record, and — when chaos hit it — the fault→request correlation
     entry. *)
  let observe (st : tstate) r ~now ~ok ~latency =
    match collect with
    | None -> ()
    | Some co ->
        Slo.sample co ~tenant:st.stats.ts_name ~now ~ok ~latency;
        Slo.record co
          {
            Slo.rr_id = r.rq_id;
            rr_tenant = st.stats.ts_name;
            rr_ok = ok;
            rr_latency = latency;
            rr_attempts = r.rq_attempt;
            rr_injections = r.rq_injections;
            rr_queue = r.rq_queue;
            rr_restore = r.rq_restore;
            rr_exec = r.rq_exec;
            rr_exec_waste = r.rq_exec_waste;
            rr_retry = r.rq_retry;
            rr_drain = r.rq_drain;
          };
        if r.rq_injections > 0 then
          match Arch.Fault_inject.active () with
          | None -> ()
          | Some e ->
              let injs = Arch.Fault_inject.request_injections e r.rq_id in
              let lane =
                match injs with
                | i :: _ -> i.Arch.Fault_inject.inj_lane
                | [] -> -1
              in
              Slo.hit co
                {
                  Slo.ht_request = r.rq_id;
                  ht_tenant = st.stats.ts_name;
                  ht_lane = lane;
                  ht_sites =
                    List.map
                      (fun i ->
                        Arch.Fault_inject.site_to_string
                          i.Arch.Fault_inject.inj_site)
                      injs;
                  ht_attempts = r.rq_attempt;
                  ht_contained = ok;
                  ht_cost = r.rq_retry;
                }
  in
  (* Close a request's span envelope: terminal instant, flow end, async
     end — the request disappears from its tenant track here. *)
  let span_terminal r ~now name =
    if Obs.Span.enabled () then begin
      let tid = tenant_tid r.rq_tenant in
      Obs.Span.instant ~tid ~ts:now
        ~args:[ ("req", Obs.Span.I r.rq_id) ]
        name;
      if r.rq_flow then Obs.Span.flow_end ~id:r.rq_id ~tid ~ts:now name;
      Obs.Span.async_end ~id:r.rq_id ~tid ~ts:now "request"
    end
  in
  let terminal () = decr pending in
  let finish_fail (st : tstate) r ~now =
    st.stats.ts_failed <- st.stats.ts_failed + 1;
    span_terminal r ~now "fail";
    observe st r ~now ~ok:false ~latency:(-1);
    terminal ()
  in
  let retry_or_fail (st : tstate) r ~retryable ~now =
    if retryable && r.rq_attempt < policy.Policy.retry.Policy.max_attempts
    then begin
      let attempt = r.rq_attempt in
      r.rq_attempt <- r.rq_attempt + 1;
      st.stats.ts_retries <- st.stats.ts_retries + 1;
      if Obs.Hook.enabled () then
        Obs.Hook.event
          (Obs.Event.Request_retry
             { tenant = st.stats.ts_name; attempt = r.rq_attempt });
      let delay = Policy.backoff policy.Policy.retry retry_rng ~attempt in
      (* The backoff wait is retry-phase latency by definition. *)
      r.rq_retry <- r.rq_retry + delay;
      if Obs.Span.enabled () then begin
        let tid = tenant_tid r.rq_tenant in
        Obs.Span.instant ~tid ~ts:now
          ~args:
            [ ("req", Obs.Span.I r.rq_id);
              ("attempt", Obs.Span.I r.rq_attempt) ]
          "retry";
        Obs.Span.complete
          ~args:[ ("req", Obs.Span.I r.rq_id) ]
          ~tid ~start:now ~stop:(now + delay) "backoff"
      end;
      Scheduler.Heap.push events ~time:(now + delay) (Arrival r)
    end
    else finish_fail st r ~now
  in
  let shed (st : tstate) r ~now reason =
    (match reason with
    | `Queue -> st.stats.ts_shed_queue <- st.stats.ts_shed_queue + 1
    | `Breaker -> st.stats.ts_shed_breaker <- st.stats.ts_shed_breaker + 1);
    if Obs.Hook.enabled () then
      Obs.Hook.event
        (Obs.Event.Request_shed
           {
             tenant = st.stats.ts_name;
             reason = (match reason with `Queue -> "queue" | `Breaker -> "breaker");
           });
    span_terminal r ~now
      (match reason with `Queue -> "shed-queue" | `Breaker -> "shed-breaker");
    observe st r ~now ~ok:false ~latency:(-1);
    terminal ()
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
  let rec try_start j ~now =
    let st = ts.(j) in
    if not (Queue.is_empty st.waiting) then
      match Pool.acquire st.pool with
      | None -> ()
      | Some slot ->
          let r = Queue.pop st.waiting in
          (* The slot wait is queue-phase latency whether the request
             goes on to run or dies of old age right here. *)
          let waited = now - r.rq_attempt_arrival in
          r.rq_queue <- r.rq_queue + waited;
          if Obs.Span.enabled () then begin
            let tid = tenant_tid j in
            Obs.Span.complete
              ~args:
                [ ("req", Obs.Span.I r.rq_id);
                  ("attempt", Obs.Span.I r.rq_attempt) ]
              ~tid ~start:r.rq_attempt_arrival ~stop:now "queue";
            flow_touch r ~tid ~ts:r.rq_attempt_arrival "queue"
          end;
          if waited > policy.Policy.deadline then begin
            (* expired while queued: the slot goes back untouched *)
            Pool.cancel slot;
            st.stats.ts_timeouts <- st.stats.ts_timeouts + 1;
            if Obs.Span.enabled () then
              Obs.Span.instant ~tid:(tenant_tid j) ~ts:now
                ~args:[ ("req", Obs.Span.I r.rq_id) ]
                "timeout-queued";
            retry_or_fail st r ~retryable:true ~now;
            try_start j ~now
          end
          else begin
            let before = lane_injections slot.Pool.sl_lane in
            Arch.Fault_inject.set_request r.rq_id;
            let outcome, exec_demand = Pool.serve st.pool slot in
            Arch.Fault_inject.set_request (-1);
            let inj = lane_injections slot.Pool.sl_lane - before in
            total_injections := !total_injections + inj;
            r.rq_injections <- r.rq_injections + inj;
            let restore = Snapshot.restore_cycles slot.Pool.sl_snapshot in
            let demand = exec_demand + restore + dispatch_overhead in
            let span =
              if Obs.Span.enabled () then begin
                let tid = tenant_tid j in
                Obs.Span.complete
                  ~args:[ ("req", Obs.Span.I r.rq_id) ]
                  ~tid ~start:now ~stop:(now + restore) "restore";
                Some (st.stats.ts_name, r.rq_id)
              end
              else None
            in
            Scheduler.submit ?span cpu
              {
                rn_req = r;
                rn_tenant = j;
                rn_slot = slot;
                rn_outcome = outcome;
                rn_injections = inj;
                rn_start = now;
                rn_demand = exec_demand;
                rn_restore = restore;
              }
              ~demand;
            dispatch_all now;
            try_start j ~now
          end
  in
  let complete (rn : running) ~now =
    let st = ts.(rn.rn_tenant) in
    let r = rn.rn_req in
    let residence = now - rn.rn_start in
    (* An attempt whose result is discarded (late, wrong, crashed)
       charges its whole residence to the retry phase and its metered
       demand to waste; only the accepted attempt splits residence
       into restore + exec + drain. *)
    let discard_attempt () =
      r.rq_retry <- r.rq_retry + residence;
      r.rq_exec_waste <- r.rq_exec_waste + rn.rn_demand
    in
    (match rn.rn_outcome with
    | Cage.Supervisor.Finished vs ->
        Pool.settle_ok rn.rn_slot;
        if now - r.rq_attempt_arrival > policy.Policy.deadline then begin
          st.stats.ts_timeouts <- st.stats.ts_timeouts + 1;
          discard_attempt ();
          if Obs.Span.enabled () then
            Obs.Span.instant ~tid:(tenant_tid rn.rn_tenant) ~ts:now
              ~args:[ ("req", Obs.Span.I r.rq_id) ]
              "timeout";
          retry_or_fail st r ~retryable:true ~now
        end
        else begin
          let correct =
            match st.pool.Pool.pl_tenant.Pool.tn_expected with
            | Some e -> values_equal vs e
            | None -> true
          in
          if correct then begin
            if rn.rn_injections > 0 then
              st.stats.ts_sanitized <- st.stats.ts_sanitized + 1;
            st.stats.ts_ok <- st.stats.ts_ok + 1;
            let latency = now - r.rq_first_arrival in
            st.stats.ts_latencies <- latency :: st.stats.ts_latencies;
            r.rq_restore <- rn.rn_restore;
            r.rq_exec <- rn.rn_demand;
            r.rq_drain <- residence - rn.rn_demand - rn.rn_restore;
            Policy.breaker_success st.breaker;
            span_terminal r ~now "done";
            observe st r ~now ~ok:true ~latency;
            terminal ()
          end
          else begin
            (* corrupted result reached the client: the one outcome
               the whole stack exists to prevent — terminal, never
               retried, gated to zero by CI *)
            st.stats.ts_escaped <- st.stats.ts_escaped + 1;
            discard_attempt ();
            finish_fail st r ~now
          end
        end
    | Cage.Supervisor.Crashed pm ->
        Pool.settle_crashed rn.rn_slot;
        st.stats.ts_crashes <- st.stats.ts_crashes + 1;
        discard_attempt ();
        if Obs.Span.enabled () then
          Obs.Span.instant ~tid:(tenant_tid rn.rn_tenant) ~ts:now
            ~args:
              [ ("req", Obs.Span.I r.rq_id);
                ("class",
                 Obs.Span.S
                   (Cage.Supervisor.fault_class_to_string
                      pm.Cage.Supervisor.pm_class)) ]
            "crash";
        if Policy.breaker_crash st.breaker ~now then begin
          st.stats.ts_breaker_trips <- st.stats.ts_breaker_trips + 1;
          if Obs.Hook.enabled () then
            Obs.Hook.event
              (Obs.Event.Breaker_trip { tenant = st.stats.ts_name })
        end;
        retry_or_fail st r
          ~retryable:(Policy.retryable pm.Cage.Supervisor.pm_class)
          ~now);
    try_start rn.rn_tenant ~now
  in
  let loop () =
    let continue = ref true in
    while !continue do
      match Scheduler.Heap.pop events with
      | None -> continue := false
      | Some (now, ev) -> (
          makespan := max !makespan now;
          Obs.Span.set_now now;
          match ev with
          | Arrival r ->
              let st = ts.(r.rq_tenant) in
              if r.rq_attempt = 1 then begin
                st.stats.ts_requests <- st.stats.ts_requests + 1;
                if Obs.Span.enabled () then begin
                  let tid = tenant_tid r.rq_tenant in
                  Obs.Span.async_begin ~id:r.rq_id ~tid ~ts:now
                    ~args:[ ("tenant", Obs.Span.S st.stats.ts_name) ]
                    "request";
                  Obs.Span.instant ~tid ~ts:now
                    ~args:[ ("req", Obs.Span.I r.rq_id) ]
                    "admit"
                end
              end;
              r.rq_attempt_arrival <- now;
              if not (Policy.breaker_admits st.breaker ~now) then
                shed st r ~now `Breaker
              else if Queue.length st.waiting >= policy.Policy.queue_bound
              then shed st r ~now `Queue
              else begin
                Queue.push r st.waiting;
                if Obs.Hook.enabled () then
                  Obs.Hook.queue_depth (Queue.length st.waiting);
                try_start r.rq_tenant ~now
              end
          | Slice s -> (
              match Scheduler.slice_done cpu s with
              | Some rn -> complete rn ~now
              | None -> dispatch_all now)
          | Heal ->
              if !pending > 0 then begin
                Array.iteri
                  (fun j st ->
                    if Pool.heal st.pool ~now > 0 then try_start j ~now)
                  ts;
                Scheduler.Heap.push events
                  ~time:(now + policy.Policy.heal_interval)
                  Heal
              end)
    done
  in
  (match chaos with
  | Some pol -> Arch.Fault_inject.with_engine (Arch.Fault_inject.create pol) loop
  | None -> loop ());
  let reports = Array.to_list (Array.map (fun st -> tenant_report st.stats) ts) in
  let sum f = List.fold_left (fun n tr -> n + f tr) 0 reports in
  let all_lat =
    Array.of_list
      (Array.fold_left (fun acc st -> st.stats.ts_latencies @ acc) [] ts)
  in
  Array.sort compare all_lat;
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
    rp_restores = Array.fold_left (fun n st -> n + Pool.restores st.pool) 0 ts;
    rp_restore_copied_bytes =
      Array.fold_left (fun n st -> n + Pool.restore_copied_bytes st.pool) 0 ts;
    rp_restore_image_bytes =
      Array.fold_left (fun n st -> n + Pool.restore_image_bytes st.pool) 0 ts;
    rp_heals = Array.fold_left (fun n st -> n + Pool.heals st.pool) 0 ts;
    rp_heals_deferred =
      Array.fold_left (fun n st -> n + Pool.heals_deferred st.pool) 0 ts;
    rp_injections = !total_injections;
    rp_makespan = !makespan;
    rp_p50 = percentile all_lat 50;
    rp_p99 = percentile all_lat 99;
    rp_p50_exact = Slo.percentile_exact all_lat 50.0;
    rp_p99_exact = Slo.percentile_exact all_lat 99.0;
    rp_max_ready = Scheduler.max_ready cpu;
    rp_served_cycles =
      Array.fold_left (fun n st -> n + Pool.served_cycles st.pool) 0 ts;
    rp_tenants = reports;
  }

(** Find a tenant's report by name. *)
let tenant_of report name =
  List.find_opt (fun tr -> String.equal tr.tr_name name) report.rp_tenants
