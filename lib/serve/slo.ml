(** The request record, and the SLO and fault views over it.

    {!Server.run} keeps one {!req_rec} per logical request, from its
    first arrival to its termination: its phase decomposition, how and
    when it ended, and the chaos injections it absorbed. The record is
    counted once into its tenant's report when it terminates; with a
    collector passed in it is also kept, and everything below is a view
    over the kept records:

    - {e SLO monitors}: each tenant's records, scored against an
      availability objective (fraction of requests that terminate ok)
      and a latency objective (fraction of ok requests under a
      threshold), with {e multi-window burn rates} — how fast each
      window is spending its error budget, where burn 1.0 means
      "exactly on target" and anything sustained above it means the
      objective is lost before the window closes;
    - {e tail attribution}: every terminated request carries an exact
      per-phase decomposition of its latency
      (queue / restore / exec / retry / drain, see {!req_rec}) — the
      slowest-percentile slice of those records, summed per phase,
      says {e where} the tail went, not just how long it was. The
      exec phases are metered guest cycles, so their sum reconciles
      exactly against {!Pool.served_cycles};
    - {e fault→request correlation}: an attempt's injections are what
      its slot's lane recorded during the attempt
      ({!Arch.Fault_inject.injections}), so a chaos run ends with
      "injection at site X hit request R of tenant T, contained after
      1 retry, cost 12k cycles" instead of an aggregate counter.

    Everything here is measurement on the simulated clock; nothing
    feeds back into scheduling. *)

(* ------------------------------------------------------------------ *)
(* Exact percentiles                                                   *)
(* ------------------------------------------------------------------ *)

(** Nearest-rank percentile on a sorted (ascending) sample: the
    smallest value such that at least [p] percent of the sample is at
    or below it. Exact by construction — no histogram buckets — which
    is what pins it in tests against known distributions. *)
let percentile_exact sorted p =
  match Array.length sorted with
  | 0 -> 0
  | n ->
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* The request record                                                  *)
(* ------------------------------------------------------------------ *)

type ending =
  | Pending   (** still in the system *)
  | Done      (** a correct result within the deadline *)
  | Escaped   (** a wrong result reached the client: counted as failed *)
  | Failed    (** attempts exhausted, or a definite guest bug *)
  | Shed      (** refused at the door: queue bound or open breaker *)

(** One logical request. For an ok request the identity
    [latency = rr_queue + rr_restore + rr_exec + rr_retry + rr_drain]
    holds exactly: every cycle between first arrival and termination is
    attributed to exactly one phase. [rr_exec] and [rr_exec_waste] are
    {e metered} guest cycles — the accepted attempt's demand and the
    demand of attempts whose result was discarded — so summed over all
    records they equal {!Pool.served_cycles}. *)
type req_rec = {
  rr_id : int;                 (** arrival ordinal, stable across retries *)
  rr_tenant : string;
  rr_arrival : int;            (** first arrival, DES cycles *)
  mutable rr_end : ending;
  mutable rr_ended : int;      (** termination time *)
  mutable rr_attempts : int;   (** 1-based; retries = attempts - 1 *)
  mutable rr_attempt_arrival : int;
  mutable rr_crashes : int;    (** attempts that crashed *)
  mutable rr_timeouts : int;   (** deadline misses, queued or late *)
  mutable rr_queue : int;      (** waiting for a slot, all attempts *)
  mutable rr_restore : int;    (** snapshot restore, accepted attempt *)
  mutable rr_exec : int;       (** metered guest demand, accepted attempt *)
  mutable rr_exec_waste : int; (** metered demand of discarded attempts *)
  mutable rr_retry : int;
      (** backoff waits + discarded attempts' residence *)
  mutable rr_drain : int;
      (** dispatch overhead + preemption gaps, accepted attempt *)
  mutable rr_sanitized : bool; (** the accepted attempt absorbed injections *)
  mutable rr_injections : Arch.Fault_inject.injection list;
      (** every attempt's, chronological *)
  mutable rr_flow : bool;      (** span flow chain opened *)
}

(** A request's record at its first arrival. *)
let request ~id ~tenant ~now =
  { rr_id = id; rr_tenant = tenant; rr_arrival = now; rr_end = Pending;
    rr_ended = 0; rr_attempts = 1; rr_attempt_arrival = now; rr_crashes = 0;
    rr_timeouts = 0; rr_queue = 0; rr_restore = 0; rr_exec = 0;
    rr_exec_waste = 0; rr_retry = 0; rr_drain = 0; rr_sanitized = false;
    rr_injections = []; rr_flow = false }

let ok r = r.rr_end = Done

(** End-to-end latency of an ok request; [-1] for any other. *)
let latency r = if ok r then r.rr_ended - r.rr_arrival else -1

type collector = { mutable co_recs : req_rec list (* newest first *) }

let collector () = { co_recs = [] }

(** Keep one terminated record. *)
let record co r = co.co_recs <- r :: co.co_recs

let records co = List.rev co.co_recs

(** Total metered guest cycles the records attribute, accepted +
    discarded — must equal the pools' {!Pool.served_cycles} sum. *)
let exec_cycles co =
  List.fold_left (fun n r -> n + r.rr_exec + r.rr_exec_waste) 0 co.co_recs

(* ------------------------------------------------------------------ *)
(* Objectives and monitors                                             *)
(* ------------------------------------------------------------------ *)

type objective = {
  ob_availability : float;
      (** target fraction of requests terminating ok (shed counts
          against it: refusing a request is not serving it) *)
  ob_latency : int;           (** latency threshold, simulated cycles *)
  ob_latency_quantile : float;
      (** target fraction of ok requests under the threshold *)
}

let default_objective =
  { ob_availability = 0.99; ob_latency = 250_000; ob_latency_quantile = 0.95 }

(** One tenant's terminated records, newest first. *)
type monitor = { mn_tenant : string; mn_recs : req_rec list }

let monitor co tenant =
  { mn_tenant = tenant;
    mn_recs =
      List.filter (fun r -> String.equal r.rr_tenant tenant) co.co_recs }

(** One monitor per tenant, in the order their first requests ended. *)
let monitors co =
  List.fold_left
    (fun ts r -> if List.mem r.rr_tenant ts then ts else ts @ [ r.rr_tenant ])
    [] (records co)
  |> List.map (monitor co)

(** Records inside the window [(now - window, now]]:
    [(total, ok, fast)] where [fast] counts ok records at or under the
    latency threshold. *)
let window_stats m ~now ~window ~threshold =
  List.fold_left
    (fun (total, n_ok, fast) r ->
      if r.rr_ended <= now - window then (total, n_ok, fast)
      else
        let good = ok r in
        ( total + 1,
          (n_ok + if good then 1 else 0),
          fast + if good && latency r <= threshold then 1 else 0 ))
    (0, 0, 0) m.mn_recs

(** Burn rates over one window: [(availability_burn, latency_burn)].
    Burn = observed error rate / error budget; 1.0 is "spending the
    budget exactly as fast as the objective allows". Windows with no
    samples burn 0. *)
let burn_rates m obj ~now ~window =
  let total, ok, fast =
    window_stats m ~now ~window ~threshold:obj.ob_latency
  in
  let avail_burn =
    if total = 0 then 0.0
    else
      let err = 1.0 -. (float_of_int ok /. float_of_int total) in
      let budget = 1.0 -. obj.ob_availability in
      if budget <= 0.0 then (if err > 0.0 then infinity else 0.0)
      else err /. budget
  in
  let lat_burn =
    if ok = 0 then 0.0
    else
      let slow = 1.0 -. (float_of_int fast /. float_of_int ok) in
      let budget = 1.0 -. obj.ob_latency_quantile in
      if budget <= 0.0 then (if slow > 0.0 then infinity else 0.0)
      else slow /. budget
  in
  (avail_burn, lat_burn)

(* ------------------------------------------------------------------ *)
(* Tail attribution                                                    *)
(* ------------------------------------------------------------------ *)

type tail_row = {
  tl_tenant : string;      (** tenant, or ["(all)"] for the total row *)
  tl_count : int;
  tl_queue : int;
  tl_restore : int;
  tl_exec : int;
  tl_retry : int;
  tl_drain : int;
  tl_total : int;
}

type tail = {
  tt_pct : float;
  tt_threshold : int;      (** exact latency percentile cut, cycles *)
  tt_rows : tail_row list; (** per-tenant rows then the [(all)] total *)
}

let tail_row tenant rs =
  let sum f = List.fold_left (fun n r -> n + f r) 0 rs in
  {
    tl_tenant = tenant;
    tl_count = List.length rs;
    tl_queue = sum (fun r -> r.rr_queue);
    tl_restore = sum (fun r -> r.rr_restore);
    tl_exec = sum (fun r -> r.rr_exec);
    tl_retry = sum (fun r -> r.rr_retry);
    tl_drain = sum (fun r -> r.rr_drain);
    tl_total = sum latency;
  }

(** Decompose the slowest [(100 - pct)]% of ok requests: which phases
    their cycles sit in, per tenant and overall. *)
let tail co ~pct =
  let oks = List.filter ok (records co) in
  let lat = Array.of_list (List.map latency oks) in
  Array.sort compare lat;
  let threshold = percentile_exact lat pct in
  let slow = List.filter (fun r -> latency r >= threshold) oks in
  let tenants =
    List.filter_map
      (fun { mn_tenant = t; _ } ->
        match List.filter (fun r -> String.equal r.rr_tenant t) slow with
        | [] -> None
        | rs -> Some (tail_row t rs))
      (monitors co)
  in
  { tt_pct = pct; tt_threshold = threshold;
    tt_rows = tenants @ [ tail_row "(all)" slow ] }

(* ------------------------------------------------------------------ *)
(* Fault -> request correlation                                        *)
(* ------------------------------------------------------------------ *)

(** One injected request's consequence. *)
type hit = {
  ht_request : int;
  ht_tenant : string;
  ht_lane : int;            (** lane of its first injection *)
  ht_sites : string list;   (** injection sites, chronological *)
  ht_attempts : int;        (** attempts the request used in total *)
  ht_contained : bool;      (** the request still terminated ok *)
  ht_cost : int;            (** retry-phase cycles the faults induced *)
}

(** The records that absorbed injections, in termination order. *)
let hits co =
  List.filter_map
    (fun r ->
      match r.rr_injections with
      | [] -> None
      | first :: _ ->
          Some
            {
              ht_request = r.rr_id;
              ht_tenant = r.rr_tenant;
              ht_lane = first.Arch.Fault_inject.inj_lane;
              ht_sites =
                List.map
                  (fun (i : Arch.Fault_inject.injection) ->
                    Arch.Fault_inject.site_to_string i.inj_site)
                  r.rr_injections;
              ht_attempts = r.rr_attempts;
              ht_contained = ok r;
              ht_cost = r.rr_retry;
            })
    (records co)

(* ------------------------------------------------------------------ *)
(* Rendering (the cage_top-style end-of-run report)                    *)
(* ------------------------------------------------------------------ *)

let pct x = 100.0 *. x

(** Per-tenant burn rates over each window: the SLO report body. *)
let render_slo ppf co ~now ~windows =
  let obj = default_objective in
  Format.fprintf ppf
    "SLO: availability >= %.2f%%, p%.0f latency <= %d cycles@."
    (pct obj.ob_availability)
    (pct obj.ob_latency_quantile)
    obj.ob_latency;
  List.iter
    (fun m ->
      let total = List.length m.mn_recs in
      let n_ok = List.length (List.filter ok m.mn_recs) in
      Format.fprintf ppf "  %-10s %7d served  availability %6.2f%%@."
        m.mn_tenant total
        (pct (float_of_int n_ok /. float_of_int total));
      List.iter
        (fun (label, w) ->
          let ab, lb = burn_rates m obj ~now ~window:w in
          Format.fprintf ppf
            "    window %-6s (%9d cy)  avail burn %6.2fx  latency burn %6.2fx@."
            label w ab lb)
        windows)
    (monitors co)

let render_tail ppf co ~pct:p =
  let t = tail co ~pct:p in
  Format.fprintf ppf
    "tail attribution: ok requests at/above p%.0f (>= %d cycles)@." p
    t.tt_threshold;
  Format.fprintf ppf "  %-10s %6s %10s %10s %10s %10s %10s %12s@." "tenant"
    "n" "queue" "restore" "exec" "retry" "drain" "total";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-10s %6d %10d %10d %10d %10d %10d %12d@."
        r.tl_tenant r.tl_count r.tl_queue r.tl_restore r.tl_exec r.tl_retry
        r.tl_drain r.tl_total)
    t.tt_rows

let render_hits ppf co =
  match hits co with
  | [] -> Format.fprintf ppf "fault correlation: no injections hit a request@."
  | hs ->
      Format.fprintf ppf "fault correlation: %d injected request%s@."
        (List.length hs)
        (if List.length hs = 1 then "" else "s");
      List.iter
        (fun h ->
          Format.fprintf ppf
            "  injection at %s hit request %d of tenant %s (lane %d): %s, \
             cost %d cycles@."
            (String.concat "+" h.ht_sites)
            h.ht_request h.ht_tenant h.ht_lane
            (if h.ht_contained then
               Printf.sprintf "contained after %d %s" (h.ht_attempts - 1)
                 (if h.ht_attempts = 2 then "retry" else "retries")
             else Printf.sprintf "failed after %d attempts" h.ht_attempts)
            h.ht_cost)
        hs
