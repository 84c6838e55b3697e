(** The metrics registry: counters and log-scale histograms,
    rendered in Prometheus text exposition format and as JSON.

    Registration hands back a direct handle; the hot path then bumps a
    mutable field — no name lookup, no allocation. Rendering iterates
    metrics in registration order, so output is deterministic and can
    be golden-diffed in CI. *)

type counter = { c_name : string; c_help : string; mutable c_value : int }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (** inclusive upper bounds, ascending *)
  h_counts : int array;    (** per-bucket, plus one overflow slot *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = Counter of counter | Histogram of histogram

type t = { mutable metrics : metric list (* reverse registration order *) }

let create () = { metrics = [] }
let metrics t = List.rev t.metrics

let counter t ?(help = "") name =
  let c = { c_name = name; c_help = help; c_value = 0 } in
  t.metrics <- Counter c :: t.metrics;
  c

(** Power-of-two bucket bounds from [lo] to [hi] inclusive — the
    log-scale shape that keeps segment sizes and span lengths readable
    across six orders of magnitude. *)
let log2_bounds ?(lo = 1.0) ?(hi = 1048576.0) () =
  let rec go acc b = if b > hi then List.rev acc else go (b :: acc) (b *. 2.0) in
  Array.of_list (go [] lo)

let histogram t ?(help = "") ?bounds name =
  let h_bounds = match bounds with Some b -> b | None -> log2_bounds () in
  let h =
    { h_name = name; h_help = help; h_bounds;
      h_counts = Array.make (Array.length h_bounds + 1) 0; h_sum = 0.0;
      h_count = 0 }
  in
  t.metrics <- Histogram h :: t.metrics;
  h

let inc ?(by = 1) c = c.c_value <- c.c_value + by

let observe h v =
  let n = Array.length h.h_bounds in
  let rec slot i = if i >= n || v <= h.h_bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Prometheus numbers: integral values print as integers so golden
   files stay stable; anything else gets %g. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render_prometheus ppf t =
  List.iter
    (fun m ->
      match m with
      | Counter c ->
          if c.c_help <> "" then
            Format.fprintf ppf "# HELP %s %s@." c.c_name c.c_help;
          Format.fprintf ppf "# TYPE %s counter@." c.c_name;
          Format.fprintf ppf "%s %d@." c.c_name c.c_value
      | Histogram h ->
          if h.h_help <> "" then
            Format.fprintf ppf "# HELP %s %s@." h.h_name h.h_help;
          Format.fprintf ppf "# TYPE %s histogram@." h.h_name;
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + h.h_counts.(i);
              Format.fprintf ppf "%s_bucket{le=\"%s\"} %d@." h.h_name
                (num bound) !cum)
            h.h_bounds;
          Format.fprintf ppf "%s_bucket{le=\"+Inf\"} %d@." h.h_name h.h_count;
          Format.fprintf ppf "%s_sum %s@." h.h_name (num h.h_sum);
          Format.fprintf ppf "%s_count %d@." h.h_name h.h_count)
    (metrics t)

let prometheus_string t = Format.asprintf "%a" render_prometheus t

(* ------------------------------------------------------------------ *)
(* The standard Cage metric set                                        *)
(* ------------------------------------------------------------------ *)

(** Pre-registered handles for everything the runtime's event stream
    reports, so the sink dispatch is field bumps only. *)
type cage = {
  registry : t;
  tag_faults : counter;
  tag_faults_deferred : counter;
  near_misses : counter;
  tfsr_drains : counter;
  pac_sign : counter;
  pac_auth_ok : counter;
  pac_auth_fail : counter;
  seg_new : counter;
  seg_set_tag : counter;
  seg_free : counter;
  granules_tagged : counter;
  mem_grow : counter;
  host_calls : counter;
  func_calls : counter;
  crashes : counter;
  spawns : counter;
  seg_size : histogram;
  span_len : histogram;
  fuel_per_call : histogram;
  checks_elided : counter;
  stack_slots : counter;
  stack_instrumented : counter;
  stack_escaping : counter;
  stack_unsafe_gep : counter;
  stack_guards : counter;
  fused_instrs : counter;
  fused_superinstr : counter;
  fused_accesses : counter;
  fused_elided : counter;
  pool_restores : counter;
  quarantine_evicted : counter;
  requests_retried : counter;
  requests_shed : counter;
  breaker_trips : counter;
  queue_depth : histogram;
  trace_dropped : counter;
  bounds_elided : counter;
  tag_writes_elided : counter;
  spec_unsafe_elisions : counter;
}

(* Sequential [let]s, not record-field expressions: OCaml evaluates
   record fields in unspecified order, and rendering follows
   registration order — which the golden file pins. *)
let cage () =
  let r = create () in
  let tag_faults =
    counter r ~help:"Synchronous MTE tag-check faults"
      "cage_tag_check_faults_total"
  in
  let tag_faults_deferred =
    counter r ~help:"Deferred (TFSR-latched) MTE tag-check faults"
      "cage_tag_check_faults_deferred_total"
  in
  let near_misses =
    counter r
      ~help:"Allowed accesses ending within one granule of a different tag"
      "cage_tag_check_near_misses_total"
  in
  let tfsr_drains =
    counter r ~help:"Sticky TFSR drains at synchronization points"
      "cage_tfsr_drains_total"
  in
  let pac_sign =
    counter r ~help:"Pointer signings (pacda)" "cage_pac_sign_total"
  in
  let pac_auth_ok =
    counter r ~help:"Successful pointer authentications (autda)"
      "cage_pac_auth_ok_total"
  in
  let pac_auth_fail =
    counter r ~help:"Failed pointer authentications" "cage_pac_auth_fail_total"
  in
  let seg_new =
    counter r ~help:"segment.new executions" "cage_segment_new_total"
  in
  let seg_set_tag =
    counter r ~help:"segment.set_tag executions" "cage_segment_set_tag_total"
  in
  let seg_free =
    counter r ~help:"segment.free executions" "cage_segment_free_total"
  in
  let granules_tagged =
    counter r ~help:"16-byte granules (re)tagged by segment instructions"
      "cage_granules_tagged_total"
  in
  let mem_grow =
    counter r ~help:"memory.grow executions" "cage_memory_grow_total"
  in
  let host_calls = counter r ~help:"Host (WASI) calls" "cage_host_calls_total" in
  let func_calls =
    counter r ~help:"Wasm function invocations" "cage_func_calls_total"
  in
  let crashes =
    counter r ~help:"Guest crashes contained by the supervisor"
      "cage_crashes_total"
  in
  let spawns =
    counter r ~help:"Instances spawned into supervised processes"
      "cage_instance_spawns_total"
  in
  let seg_size =
    histogram r ~help:"Segment sizes at segment.new (bytes, log2 buckets)"
      "cage_segment_size_bytes"
  in
  let span_len =
    histogram r
      ~help:"Tag-checked span lengths per access (bytes, log2 buckets)"
      "cage_tag_check_span_bytes"
  in
  let fuel_per_call =
    histogram r
      ~help:"Watchdog fuel consumed per supervised invocation (log2 buckets)"
      "cage_fuel_per_call"
  in
  let checks_elided =
    counter r ~help:"MTE granule checks skipped (statically proven safe)"
      "cage_checks_elided_total"
  in
  let stack_slots =
    counter r ~help:"Stack slots seen by the sanitizer"
      "cage_stack_slots_total"
  in
  let stack_instrumented =
    counter r ~help:"Stack slots instrumented with tagged segments"
      "cage_stack_slots_instrumented_total"
  in
  let stack_escaping =
    counter r ~help:"Stack slots whose address escapes"
      "cage_stack_slots_escaping_total"
  in
  let stack_unsafe_gep =
    counter r ~help:"Stack slots accessed through unsafe GEPs"
      "cage_stack_slots_unsafe_gep_total"
  in
  let stack_guards =
    counter r ~help:"Guard slots inserted between stack frames"
      "cage_stack_guard_slots_total"
  in
  let fused_instrs =
    counter r ~help:"Instructions lowered to threaded code"
      "cage_fused_instrs_total"
  in
  let fused_superinstr =
    counter r ~help:"Instructions absorbed into fused superinstructions"
      "cage_fused_superinstr_total"
  in
  let fused_accesses =
    counter r ~help:"Memory accesses lowered to threaded code"
      "cage_fused_accesses_total"
  in
  let fused_elided =
    counter r
      ~help:"Lowered accesses whose granule check was elided at compile time"
      "cage_fused_elided_total"
  in
  let pool_restores =
    counter r ~help:"Pool slots restored from their frozen snapshot"
      "cage_pool_restores_total"
  in
  let quarantine_evicted =
    counter r ~help:"Post-mortems evicted by the supervisor quarantine cap"
      "cage_quarantine_evicted_total"
  in
  let requests_retried =
    counter r ~help:"Requests re-admitted after a contained fault"
      "cage_requests_retried_total"
  in
  let requests_shed =
    counter r ~help:"Arrivals refused by admission control"
      "cage_requests_shed_total"
  in
  let breaker_trips =
    counter r ~help:"Per-tenant circuit-breaker trips"
      "cage_breaker_trips_total"
  in
  let queue_depth =
    histogram r
      ~help:"Per-tenant queue depth sampled at each arrival (log2 buckets)"
      ~bounds:(log2_bounds ~lo:1.0 ~hi:1024.0 ())
      "cage_serve_queue_depth"
  in
  let trace_dropped =
    counter r ~help:"Trace-ring records overwritten before export"
      "cage_trace_dropped_total"
  in
  let bounds_elided =
    counter r
      ~help:"Sandbox span checks skipped (full-check elision, statically proven)"
      "cage_bounds_elided_total"
  in
  let tag_writes_elided =
    counter r
      ~help:"Tag-plane granule writes skipped by arena-lowered segments"
      "cage_tag_writes_elided_total"
  in
  let spec_unsafe_elisions =
    counter r
      ~help:"Elisions architecturally sound but unsafe under speculation"
      "cage_spec_unsafe_elisions_total"
  in
  {
    registry = r;
    tag_faults;
    tag_faults_deferred;
    near_misses;
    tfsr_drains;
    pac_sign;
    pac_auth_ok;
    pac_auth_fail;
    seg_new;
    seg_set_tag;
    seg_free;
    granules_tagged;
    mem_grow;
    host_calls;
    func_calls;
    crashes;
    spawns;
    seg_size;
    span_len;
    fuel_per_call;
    checks_elided;
    stack_slots;
    stack_instrumented;
    stack_escaping;
    stack_unsafe_gep;
    stack_guards;
    fused_instrs;
    fused_superinstr;
    fused_accesses;
    fused_elided;
    pool_restores;
    quarantine_evicted;
    requests_retried;
    requests_shed;
    breaker_trips;
    queue_depth;
    trace_dropped;
    bounds_elided;
    tag_writes_elided;
    spec_unsafe_elisions;
  }

let observe_event m (ev : Event.t) =
  match ev with
  | Seg_new { len; granules; _ } ->
      inc m.seg_new;
      inc ~by:granules m.granules_tagged;
      observe m.seg_size (Int64.to_float len)
  | Seg_set_tag { granules; _ } ->
      inc m.seg_set_tag;
      inc ~by:granules m.granules_tagged
  | Seg_free { granules; _ } ->
      inc m.seg_free;
      inc ~by:granules m.granules_tagged
  | Tag_fault { deferred = false; _ } -> inc m.tag_faults
  | Tag_fault { deferred = true; _ } -> inc m.tag_faults_deferred
  | Tag_near_miss _ -> inc m.near_misses
  | Tfsr_drain _ -> inc m.tfsr_drains
  | Pac_sign _ -> inc m.pac_sign
  | Pac_auth { ok = true; _ } -> inc m.pac_auth_ok
  | Pac_auth { ok = false; _ } -> inc m.pac_auth_fail
  | Mem_grow _ -> inc m.mem_grow
  | Host_call _ -> inc m.host_calls
  | Func_enter _ -> inc m.func_calls
  | Func_leave _ -> ()
  | Crash _ -> inc m.crashes
  | Spawn _ -> inc m.spawns
  | Snapshot_restore _ -> inc m.pool_restores
  | Quarantine_evicted _ -> inc m.quarantine_evicted
  | Request_retry _ -> inc m.requests_retried
  | Request_shed _ -> inc m.requests_shed
  | Breaker_trip _ -> inc m.breaker_trips
  | Check_elided -> inc m.checks_elided
  | Bounds_elided -> inc m.bounds_elided
  | Tag_writes_elided { granules } -> inc ~by:granules m.tag_writes_elided
  | Spec_unsafe_elision -> inc m.spec_unsafe_elisions
  | Stack_sanitize { total; instrumented; escaping; unsafe_gep; guards } ->
      inc ~by:total m.stack_slots;
      inc ~by:instrumented m.stack_instrumented;
      inc ~by:escaping m.stack_escaping;
      inc ~by:unsafe_gep m.stack_unsafe_gep;
      inc ~by:guards m.stack_guards
  | Code_fuse { instrs; fused; accesses; elided } ->
      inc ~by:instrs m.fused_instrs;
      inc ~by:fused m.fused_superinstr;
      inc ~by:accesses m.fused_accesses;
      inc ~by:elided m.fused_elided
