(** The global observability sink — the one place every layer reports
    to, and the one load-and-compare the uninstrumented hot path pays
    (the same [None]-fast-path pattern as an unarmed chaos lane).

    Call sites guard with {!enabled} before constructing an event, so
    with no sink installed nothing allocates:

    {[ if Obs.Hook.enabled () then
         Obs.Hook.event (Obs.Event.Seg_new { ... }) ]}

    A sink bundles up to three consumers — tracer, metrics, profiler —
    any subset of which may be active. The [tid] context names the
    instance currently executing (set at invocation boundaries), so
    trace records land on the right Chrome thread lane. An installed
    sink switches on the engines' per-op tick ([Wasm.Rt.obs_tick]);
    request tracing has its own, cheaper install point ({!Span}). *)

type t = {
  trace : Trace.t option;
  metrics : Metrics.cage option;
  profiler : Profiler.t option;
  mutable tid : int;
}

let make ?trace ?metrics ?profiler () = { trace; metrics; profiler; tid = 0 }

(* Exposed ref so hot paths can pattern-match it directly. *)
let hook : t option ref = ref None

let install s = hook := Some s
let uninstall () = hook := None
let enabled () = !hook != None

let with_sink s f =
  install s;
  Fun.protect ~finally:uninstall f

let set_instance id =
  match !hook with None -> () | Some s -> s.tid <- id

(** Report one event: recorded by the tracer, counted by the metrics
    set. Guard call sites with {!enabled} — this allocates the event. *)
let event ev =
  match !hook with
  | None -> ()
  | Some s ->
      (match s.trace with
      | Some tr -> (
          Trace.record tr ~tid:s.tid ev;
          (* Keep the drop counter in lock-step with the ring so a
             wrapped trace is visible in metrics, not just in the
             export's otherData. *)
          match s.metrics with
          | Some m ->
              let d = Trace.dropped tr in
              if d > m.Metrics.trace_dropped.Metrics.c_value then
                m.Metrics.trace_dropped.Metrics.c_value <- d
          | None -> ())
      | None -> ());
      (match s.metrics with
      | Some m -> Metrics.observe_event m ev
      | None -> ())

(** Observe one tag-checked span of [len] bytes (the span-length
    histogram). Takes an [int] so the disabled path allocates nothing. *)
let span_check len =
  match !hook with
  | Some { metrics = Some m; _ } ->
      Metrics.observe m.Metrics.span_len (float_of_int len)
  | _ -> ()

(** Observe one tenant queue depth sample (taken at each arrival). *)
let queue_depth n =
  match !hook with
  | Some { metrics = Some m; _ } ->
      Metrics.observe m.Metrics.queue_depth (float_of_int n)
  | _ -> ()

(** Observe the fuel one supervised invocation consumed. *)
let fuel_used n =
  match !hook with
  | Some { metrics = Some m; _ } ->
      Metrics.observe m.Metrics.fuel_per_call (float_of_int n)
  | _ -> ()

(** The newest [k] trace records, rendered one per line (the
    supervisor's black-box flight recording). Empty without a tracer. *)
let recent_events k =
  match !hook with
  | Some { trace = Some tr; _ } ->
      List.map
        (fun (r : Trace.record) ->
          Printf.sprintf "[cycle %d] %s" r.ts
            (match r.payload with
            | Trace.Event ev -> Event.to_string ev
            | Trace.Named (name, _) -> name))
        (Trace.recent tr k)
  | _ -> []
