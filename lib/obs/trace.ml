(** The trace recorder: a fixed-capacity ring of Chrome [trace_event]
    records, and the one exporter that renders it.

    Recording is O(1) and never grows: when the ring is full the oldest
    record is overwritten, so what survives is always the {e newest}
    window — the flight-recorder property the supervisor's black box
    relies on ({!recent}). Overwrites are counted, and the export
    announces them.

    One trace runs on one clock:
    - an {e instance} trace (installed through {!Hook}) advances it one
      cycle per executed wasm operation ({!advance}), and each typed
      event adds its own {!Event.cost} on top;
    - a {e request} trace (installed through {!Span}) is stamped on the
      serving driver's discrete-event simulation clock, which the
      driver publishes once per event ({!set_now}).

    Both clocks are monotone, which is what keeps the export
    well-formed. The export names the clock it saw: ["des-cycles"] once
    time was published, ["simulated-cycles"] otherwise. *)

type arg = S of string | I of int

(** The record's Chrome phase. *)
type phase =
  | Instant               (** ["i"], thread-scoped *)
  | Begin                 (** ["B"]: a function slice opens *)
  | End                   (** ["E"]: a function slice closes *)
  | Complete of int       (** ["X"]: a slice with its duration *)
  | Async_begin of int    (** ["b"]: a request envelope opens, id *)
  | Async_end of int      (** ["e"]: a request envelope closes, id *)
  | Flow_start of int     (** ["s"]: a causal chain starts, id *)
  | Flow_step of int      (** ["t"]: the chain passes through, id *)
  | Flow_end of int       (** ["f"]: the chain ends, id *)

type payload =
  | Event of Event.t                       (** a typed runtime event *)
  | Named of string * (string * arg) list  (** a serving span: name, args *)

type record = {
  ts : int;   (** timestamp on the trace's clock *)
  tid : int;  (** track: instance id, simulated core, tenant, ... *)
  ph : phase;
  payload : payload;
}

type t = {
  capacity : int;
  buf : record array;
  mutable size : int;     (* live records, <= capacity *)
  mutable next : int;     (* ring index of the next write *)
  mutable seq : int;      (* total records ever written *)
  mutable clock : int;
  mutable des : bool;     (* the clock is published DES time *)
  mutable tracks : (int * string) list;  (* tid -> display name *)
}

let create ?(capacity = 262_144) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let blank = { ts = 0; tid = 0; ph = Instant; payload = Named ("", []) } in
  { capacity; buf = Array.make capacity blank; size = 0; next = 0; seq = 0;
    clock = 0; des = false; tracks = [] }

let clock t = t.clock
let recorded t = t.seq
let dropped t = t.seq - t.size

(** Advance the cycle clock (the engines' one-cycle-per-op tick). *)
let advance t n = t.clock <- t.clock + n

(** Publish the DES clock: the serving driver calls this once per
    popped event, and spans emitted without a stamp take it. *)
let set_now t ts =
  t.clock <- ts;
  t.des <- true

(** Name a track: exported as Chrome [thread_name] metadata so core and
    tenant lanes render with labels. Idempotent per [tid]. *)
let set_track t ~tid name =
  if not (List.mem_assoc tid t.tracks) then t.tracks <- (tid, name) :: t.tracks

let push t r =
  t.buf.(t.next) <- r;
  t.seq <- t.seq + 1;
  t.next <- (t.next + 1) mod t.capacity;
  if t.size < t.capacity then t.size <- t.size + 1

(** Record a typed event at the current clock plus its cost. Function
    enter/leave open and close a slice; everything else is an instant.
    An enter with no matching leave (a trap unwound the stack) renders
    as an unfinished slice — exactly right for a crash trace. *)
let record t ~tid (ev : Event.t) =
  t.clock <- t.clock + Event.cost ev;
  let ph =
    match ev with Func_enter _ -> Begin | Func_leave _ -> End | _ -> Instant
  in
  push t { ts = t.clock; tid; ph; payload = Event ev }

(** Record a named span, stamped [ts] (default: the current clock). *)
let emit t ?(args = []) ?(ts = t.clock) ~tid ph name =
  push t { ts; tid; ph; payload = Named (name, args) }

(** The newest [k] (or fewer) records, oldest first. *)
let recent t k =
  let n = min k t.size in
  let start = (t.next - n + t.capacity) mod t.capacity in
  List.init n (fun i -> t.buf.((start + i) mod t.capacity))

(** Surviving records, oldest first. *)
let records t = recent t t.size

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

(** Append [s] to [b] as the body of a JSON string literal — the one
    escaper every JSON exporter in the tree uses. *)
let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let str s =
  let b = Buffer.create (String.length s) in
  json_escape b s;
  "\"" ^ Buffer.contents b ^ "\""

let hex a = str (Printf.sprintf "0x%Lx" a)
let int = string_of_int

(* Everything a typed event knows, as keys with rendered JSON values. *)
let event_args (ev : Event.t) =
  match ev with
  | Seg_new { addr; len; granules; tag }
  | Seg_set_tag { addr; len; granules; tag }
  | Seg_free { addr; len; granules; tag } ->
      [ ("addr", hex addr); ("len", Int64.to_string len);
        ("granules", int granules); ("tag", int tag) ]
  | Tag_fault { addr; len; ptr_tag; mem_tag; access; deferred } ->
      [ ("addr", hex addr); ("len", Int64.to_string len);
        ("ptr_tag", int ptr_tag);
        ("mem_tag", match mem_tag with Some t -> int t | None -> "null");
        ("access", str (Event.access_to_string access));
        ("deferred", string_of_bool deferred) ]
  | Tag_near_miss { addr; len; tag; neighbour_tag } ->
      [ ("addr", hex addr); ("len", Int64.to_string len); ("tag", int tag);
        ("neighbour_tag", int neighbour_tag) ]
  | Tfsr_drain { addr } -> [ ("addr", hex addr) ]
  | Pac_sign { ptr } -> [ ("ptr", hex ptr) ]
  | Pac_auth { ptr; ok } -> [ ("ptr", hex ptr); ("ok", string_of_bool ok) ]
  | Mem_grow { delta_pages; new_pages } ->
      [ ("delta_pages", Int64.to_string delta_pages);
        ("new_pages", Int64.to_string new_pages) ]
  | Host_call { name } -> [ ("name", str name) ]
  | Func_enter { idx; name } | Func_leave { idx; name } ->
      [ ("idx", int idx); ("name", str name) ]
  | Crash { cls; msg } -> [ ("class", str cls); ("message", str msg) ]
  | Spawn { instance } | Quarantine_evicted { instance } ->
      [ ("instance", int instance) ]
  | Snapshot_restore { instance; bytes; _ } ->
      [ ("instance", int instance); ("bytes", int bytes) ]
  | Request_retry { tenant; attempt } ->
      [ ("tenant", str tenant); ("attempt", int attempt) ]
  | Request_shed { tenant; reason } ->
      [ ("tenant", str tenant); ("reason", str reason) ]
  | Breaker_trip { tenant } -> [ ("tenant", str tenant) ]
  | Check_elided | Bounds_elided | Spec_unsafe_elision -> []
  | Tag_writes_elided { granules } -> [ ("granules", int granules) ]
  | Stack_sanitize { total; instrumented; escaping; unsafe_gep; guards } ->
      [ ("total", int total); ("instrumented", int instrumented);
        ("escaping", int escaping); ("unsafe_gep", int unsafe_gep);
        ("guards", int guards) ]
  | Code_fuse { instrs; fused; accesses; elided } ->
      [ ("instrs", int instrs); ("fused", int fused);
        ("accesses", int accesses); ("elided", int elided) ]

(* The one args writer: keys with rendered JSON values. *)
let args_json b kvs =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      json_escape b k;
      Printf.bprintf b "\":%s" v)
    kvs;
  Buffer.add_char b '}'

let record_json b r =
  let name, cat, args =
    match r.payload with
    | Event (Func_leave { name; _ }) -> (name, "cage", None)
    | Event (Func_enter { name; _ } as ev) ->
        (name, "cage", Some (event_args ev))
    | Event ev -> (Event.name ev, "cage", Some (event_args ev))
    | Named (name, []) -> (name, "serve", None)
    | Named (name, a) ->
        let value = function I n -> int n | S s -> str s in
        (name, "serve", Some (List.map (fun (k, v) -> (k, value v)) a))
  in
  let ph, extra =
    match r.ph with
    | Instant -> ("i", ",\"s\":\"t\"")
    | Begin -> ("B", "")
    | End -> ("E", "")
    | Complete d -> ("X", Printf.sprintf ",\"dur\":%d" d)
    | Async_begin id -> ("b", Printf.sprintf ",\"id\":%d" id)
    | Async_end id -> ("e", Printf.sprintf ",\"id\":%d" id)
    | Flow_start id -> ("s", Printf.sprintf ",\"id\":%d" id)
    | Flow_step id -> ("t", Printf.sprintf ",\"id\":%d" id)
    | Flow_end id ->
        (* bp=e binds the arrow to the enclosing slice's end *)
        ("f", Printf.sprintf ",\"bp\":\"e\",\"id\":%d" id)
  in
  Buffer.add_string b "{\"name\":\"";
  json_escape b name;
  Printf.bprintf b
    "\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":1,\"tid\":%d%s" cat ph
    r.ts r.tid extra;
  Option.iter
    (fun a ->
      Buffer.add_string b ",\"args\":";
      args_json b a)
    args;
  Buffer.add_char b '}'

(** Render the surviving window as Chrome [trace_event] JSON (open in
    [chrome://tracing] or [ui.perfetto.dev]). Timestamps are the
    trace's cycles in the microsecond field. *)
let to_chrome_json t =
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
     \"args\":{\"name\":\"%s\"}}"
    (if t.des then "cage-serve" else "cage");
  List.iter
    (fun (tid, name) ->
      Printf.bprintf b
        ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
         \"args\":{\"name\":%s}},\n{\"name\":\"thread_sort_index\",\
         \"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
        tid (str name) tid tid)
    (List.sort compare t.tracks);
  let records = records t in
  (* A full ring overwrites oldest-first; surface that loss as a single
     process-global warning instant at the earliest surviving
     timestamp, so a truncated trace announces its own truncation. *)
  if dropped t > 0 then
    Printf.bprintf b
      ",\n{\"name\":\"trace-dropped\",\"cat\":\"cage\",\"ph\":\"i\",\"ts\":%d,\
       \"pid\":1,\"tid\":0,\"s\":\"p\",\"args\":{\"dropped\":%d}}"
      (match records with r :: _ -> r.ts | [] -> t.clock)
      (dropped t);
  List.iter
    (fun r ->
      Buffer.add_string b ",\n";
      record_json b r)
    records;
  Printf.bprintf b
    "\n],\"displayTimeUnit\":\"ns\",\
     \"otherData\":{\"clock\":\"%s\",\"recorded\":%d,\"dropped\":%d}}\n"
    (if t.des then "des-cycles" else "simulated-cycles")
    (recorded t) (dropped t);
  Buffer.contents b
