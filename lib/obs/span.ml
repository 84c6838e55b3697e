(** Request-scoped span emission for the serving runtime.

    An instance trace answers "what did this {e instance} do, cycle by
    cycle"; the spans emitted here answer "where did this {e request}'s
    latency go". Every serving layer — admission, the tenant queue,
    snapshot restore, scheduler quanta on simulated cores, retries —
    emits into one {!Trace} recorder, stamped on the discrete-event
    simulation clock latencies are reported on. The driver publishes
    "now" once per event ({!set_now}), so leaf layers (pool, snapshot,
    breaker) emit instants without threading time through every call.
    Flow arrows carry each request id across queue waits, cores and
    retries, so a retried request reads as one causal chain.

    This install point is separate from {!Hook} because it is a cheaper
    cost tier: it is checked once per serving event and never switches
    on the engines' per-op instrumentation. With no recorder installed
    every emission point is one load-and-compare and allocates nothing;
    call sites guard with {!enabled} before building names or args. *)

type arg = Trace.arg = S of string | I of int

(** Conventional track ids shared by the serving layers: simulated
    cores occupy [1..cores] ([Scheduler.core_tid]), tenants sit at
    [100 + index] ({!tenant_tid}), and pool / snapshot / breaker
    machinery shares one runtime track ({!runtime_tid}). Tid 0 is
    reserved for process-scoped instants. *)
let runtime_tid = 90

let tenant_tid j = 100 + j

(** A request recorder: {!Trace.create}, under the name the serving
    benchmark calls it by. *)
let create = Trace.create

(* The installed recorder — one load-and-compare on the disabled path. *)
let recorder : Trace.t option ref = ref None

let uninstall () = recorder := None
let enabled () = !recorder != None

let with_recorder t f =
  recorder := Some t;
  Fun.protect ~finally:uninstall f

let set_now ts = match !recorder with None -> () | Some t -> Trace.set_now t ts

let set_track ~tid name =
  match !recorder with None -> () | Some t -> Trace.set_track t ~tid name

let emit ?args ?ts ~tid ph name =
  match !recorder with
  | None -> ()
  | Some t -> Trace.emit t ?args ?ts ~tid ph name

(** A completed slice [start, stop) on track [tid]. *)
let complete ?args ~tid ~start ~stop name =
  emit ?args ~ts:start ~tid (Trace.Complete (max 0 (stop - start))) name

(** A thread-scoped instant, stamped with the published DES time unless
    [ts] is given. *)
let instant ?args ?ts ~tid name = emit ?args ?ts ~tid Trace.Instant name

let async_begin ?args ~id ~tid ~ts name =
  emit ?args ~ts ~tid (Trace.Async_begin id) name

let async_end ?args ~id ~tid ~ts name =
  emit ?args ~ts ~tid (Trace.Async_end id) name

(** Flow arrows: [flow_start] opens a causal chain at the slice
    enclosing (tid, ts); each [flow_step] routes it through another
    slice; [flow_end] terminates it. One chain per request id. *)
let flow_start ~id ~tid ~ts name = emit ~ts ~tid (Trace.Flow_start id) name
let flow_step ~id ~tid ~ts name = emit ~ts ~tid (Trace.Flow_step id) name
let flow_end ~id ~tid ~ts name = emit ~ts ~tid (Trace.Flow_end id) name
