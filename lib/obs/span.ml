(** Request-scoped span recording for the serving runtime.

    {!Trace} answers "what did this {e instance} do, cycle by cycle";
    this module answers "where did this {e request}'s latency go". A
    request's life crosses every serving layer — admission, the tenant
    queue, snapshot restore, scheduler quanta interleaved over
    simulated cores, retries after contained faults — and each layer
    contributes spans to one shared recorder. Timestamps are supplied
    by the driver on the {e discrete-event simulation clock} (the same
    clock latencies are reported on), not the tracer's per-op cycle
    clock: the driver publishes "now" once per event-loop step
    ({!set_now}) so leaf layers (pool, snapshot, breaker) can emit
    instants without threading time through every call.

    The export is Chrome [trace_event] JSON with one track (thread
    lane) per simulated core and one per tenant, plus {e flow arrows}
    — Chrome's [s]/[t]/[f] phases — carrying each request id through
    queue wait, restore, every execution slice on whatever cores it
    landed on, and across retry boundaries, so a retried request reads
    as a single stitched causal chain.

    Same global-sink discipline as {!Hook} and [Arch.Fault_inject]:
    with no recorder installed every emission point is one
    load-and-compare and allocates nothing ([None] fast path); call
    sites guard with {!enabled} before building names or args. *)

type arg = S of string | I of int

(** Conventional track ids shared by the serving layers: simulated
    cores occupy [1..cores] ([Scheduler.core_tid]), tenants sit at
    [100 + index] ({!tenant_tid}), and pool / snapshot / breaker
    machinery shares one runtime track ({!runtime_tid}). Tid 0 is
    reserved for process-scoped instants. *)
let runtime_tid = 90

let tenant_tid j = 100 + j

type kind =
  | Complete of int    (** Chrome ["X"]: a slice with a duration *)
  | Instant            (** Chrome ["i"], thread-scoped *)
  | Async_begin of int (** Chrome ["b"]: request envelope opens, id *)
  | Async_end of int   (** Chrome ["e"]: request envelope closes, id *)
  | Flow_start of int  (** Chrome ["s"]: causal chain head, id *)
  | Flow_step of int   (** Chrome ["t"]: chain passes through here, id *)
  | Flow_end of int    (** Chrome ["f"]: chain terminates here, id *)

type record = {
  r_name : string;
  r_tid : int;      (** track: core / tenant / pool lane *)
  r_ts : int;       (** DES cycles *)
  r_kind : kind;
  r_args : (string * arg) list;
}

type t = {
  capacity : int;
  mutable recs : record list;   (* newest first *)
  mutable size : int;
  mutable dropped : int;        (* emissions refused once full *)
  mutable tracks : (int * string) list;  (* tid -> display name *)
  mutable now : int;            (* driver-published DES time *)
  mutable next_id : int;        (* request/flow id allocator *)
}

let create ?(capacity = 262_144) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  { capacity; recs = []; size = 0; dropped = 0; tracks = []; now = 0;
    next_id = 0 }

let size t = t.size
let dropped t = t.dropped

(* The global recorder — one load-and-compare on the disabled path. *)
let recorder : t option ref = ref None

let install t = recorder := Some t
let uninstall () = recorder := None
let active () = !recorder
let enabled () = !recorder != None

let with_recorder t f =
  install t;
  Fun.protect ~finally:uninstall f

(** Publish the DES clock. The event-loop driver calls this once per
    popped event; leaf emitters default their timestamps to it. *)
let set_now ts = match !recorder with None -> () | Some t -> t.now <- ts

(** The last published DES time (0 with no recorder). *)
let now () = match !recorder with None -> 0 | Some t -> t.now

(** A fresh request/flow id, unique within the recorder's lifetime. *)
let fresh_id () =
  match !recorder with
  | None -> 0
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id

(** Name a track: emitted as Chrome [thread_name] metadata so core and
    tenant lanes render with human labels. Idempotent per [tid]. *)
let set_track ~tid name =
  match !recorder with
  | None -> ()
  | Some t ->
      if not (List.mem_assoc tid t.tracks) then
        t.tracks <- (tid, name) :: t.tracks

let emit_record t r =
  (* Drop-newest when full: the head of a trace (arrivals, first
     retries) is what a capacity overrun should preserve — the
     opposite choice from the flight-recorder ring in {!Trace}. *)
  if t.size >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    t.recs <- r :: t.recs;
    t.size <- t.size + 1
  end

let emit ?(args = []) ~tid ~ts name kind =
  match !recorder with
  | None -> ()
  | Some t ->
      emit_record t { r_name = name; r_tid = tid; r_ts = ts; r_kind = kind;
                      r_args = args }

(** A completed slice [start, stop) on track [tid]. *)
let complete ?args ~tid ~start ~stop name =
  emit ?args ~tid ~ts:start name (Complete (max 0 (stop - start)))

(** A thread-scoped instant, defaulting to the published DES time. *)
let instant ?args ?ts ~tid name =
  match !recorder with
  | None -> ()
  | Some t ->
      let ts = match ts with Some ts -> ts | None -> t.now in
      emit_record t { r_name = name; r_tid = tid; r_ts = ts; r_kind = Instant;
                      r_args = (match args with Some a -> a | None -> []) }

let async_begin ?args ~id ~tid ~ts name = emit ?args ~tid ~ts name (Async_begin id)
let async_end ?args ~id ~tid ~ts name = emit ?args ~tid ~ts name (Async_end id)

(** Flow arrows: [flow_start] opens a causal chain at the slice
    enclosing (tid, ts); each [flow_step] routes it through another
    slice; [flow_end] terminates it. One chain per request id. *)
let flow_start ~id ~tid ~ts name = emit ~tid ~ts name (Flow_start id)
let flow_step ~id ~tid ~ts name = emit ~tid ~ts name (Flow_step id)
let flow_end ~id ~tid ~ts name = emit ~tid ~ts name (Flow_end id)

(** Recorded spans, oldest first. *)
let records t = List.rev t.recs

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

let args_json b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Trace.json_escape b k;
      Buffer.add_string b "\":";
      match v with
      | I n -> Buffer.add_string b (string_of_int n)
      | S s ->
          Buffer.add_char b '"';
          Trace.json_escape b s;
          Buffer.add_char b '"')
    args;
  Buffer.add_char b '}'

let record_json b r =
  let ph, extra =
    match r.r_kind with
    | Complete d -> ("X", Printf.sprintf ",\"dur\":%d" d)
    | Instant -> ("i", ",\"s\":\"t\"")
    | Async_begin id -> ("b", Printf.sprintf ",\"id\":%d" id)
    | Async_end id -> ("e", Printf.sprintf ",\"id\":%d" id)
    | Flow_start id -> ("s", Printf.sprintf ",\"id\":%d" id)
    | Flow_step id -> ("t", Printf.sprintf ",\"id\":%d" id)
    | Flow_end id ->
        (* bp=e binds the arrow to the enclosing slice's end *)
        ("f", Printf.sprintf ",\"bp\":\"e\",\"id\":%d" id)
  in
  Buffer.add_string b "{\"name\":\"";
  Trace.json_escape b r.r_name;
  Buffer.add_string b
    (Printf.sprintf
       "\",\"cat\":\"serve\",\"ph\":\"%s\",\"ts\":%d,\"pid\":1,\"tid\":%d%s"
       ph r.r_ts r.r_tid extra);
  if r.r_args <> [] then begin
    Buffer.add_string b ",\"args\":";
    args_json b r.r_args
  end;
  Buffer.add_char b '}'

(** Render as Chrome [trace_event] JSON (open in [chrome://tracing] or
    [ui.perfetto.dev]). Timestamps are DES cycles in the microsecond
    field; tracks are named via [thread_name] metadata. *)
let to_chrome_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"cage-serve\"}}";
  List.iter
    (fun (tid, name) ->
      Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\""
           tid);
      Trace.json_escape b name;
      Buffer.add_string b "\"}}";
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
           tid tid))
    (List.sort compare (List.rev t.tracks));
  List.iter
    (fun r ->
      Buffer.add_string b ",\n";
      record_json b r)
    (records t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\",";
  Buffer.add_string b
    (Printf.sprintf
       "\"otherData\":{\"clock\":\"des-cycles\",\"recorded\":%d,\"dropped\":%d}}\n"
       t.size t.dropped);
  Buffer.contents b
