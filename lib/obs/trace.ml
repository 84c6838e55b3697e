(** Fixed-capacity ring-buffer event tracer.

    Recording is O(1) and never grows: when the ring is full the oldest
    record is overwritten, so what survives is always the {e newest}
    window — the flight-recorder property the supervisor's black box
    relies on.

    Every record carries a timestamp on a {e simulated cycle clock}:
    the interpreter advances the clock one cycle per executed wasm
    operation ({!advance}) and each recorded event adds its own cost on
    top (per-event-kind, {!Event.cost} by default — callers keying the
    clock to a different machine model pass [~cost]). The clock is
    monotone by construction, which is what makes the Chrome
    [trace_event] export well-formed. *)

type record = {
  seq : int;     (** global record index, 0-based, never wraps *)
  cycle : int;   (** simulated cycle timestamp *)
  tid : int;     (** owning instance id (Chrome thread id) *)
  ev : Event.t;
}

type t = {
  capacity : int;
  buf : record array;
  cost : Event.t -> int;
  mutable size : int;     (* live records, <= capacity *)
  mutable next : int;     (* ring index of the next write *)
  mutable seq : int;      (* total records ever written *)
  mutable clock : int;    (* simulated cycles *)
}

let dummy = { seq = -1; cycle = 0; tid = 0; ev = Event.Spawn { instance = -1 } }

let create ?(capacity = 65536) ?(cost = Event.cost) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; buf = Array.make capacity dummy; cost; size = 0; next = 0;
    seq = 0; clock = 0 }

let clock t = t.clock
let recorded t = t.seq
let dropped t = t.seq - t.size

(** Advance the cycle clock (the interpreter's one-cycle-per-op tick). *)
let advance t n = t.clock <- t.clock + n

let record t ~tid ev =
  t.clock <- t.clock + t.cost ev;
  t.buf.(t.next) <- { seq = t.seq; cycle = t.clock; tid; ev };
  t.seq <- t.seq + 1;
  t.next <- (t.next + 1) mod t.capacity;
  if t.size < t.capacity then t.size <- t.size + 1

(** Surviving records, oldest first. *)
let records t =
  let start = (t.next - t.size + t.capacity) mod t.capacity in
  List.init t.size (fun i -> t.buf.((start + i) mod t.capacity))

(** The newest [k] (or fewer) records, oldest first. *)
let recent t k =
  let n = min k t.size in
  let start = (t.next - n + t.capacity) mod t.capacity in
  List.init n (fun i -> t.buf.((start + i) mod t.capacity))

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

(* The per-event args object: everything the typed payload knows. *)
let args_json b (ev : Event.t) =
  let field first k v =
    if not first then Buffer.add_char b ',';
    Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v)
  in
  let str s =
    let sb = Buffer.create (String.length s + 2) in
    Buffer.add_char sb '"';
    json_escape sb s;
    Buffer.add_char sb '"';
    Buffer.contents sb
  in
  Buffer.add_char b '{';
  (match ev with
  | Seg_new { addr; len; granules; tag }
  | Seg_set_tag { addr; len; granules; tag }
  | Seg_free { addr; len; granules; tag } ->
      field true "addr" (str (Printf.sprintf "0x%Lx" addr));
      field false "len" (Int64.to_string len);
      field false "granules" (string_of_int granules);
      field false "tag" (string_of_int tag)
  | Tag_fault { addr; len; ptr_tag; mem_tag; access; deferred } ->
      field true "addr" (str (Printf.sprintf "0x%Lx" addr));
      field false "len" (Int64.to_string len);
      field false "ptr_tag" (string_of_int ptr_tag);
      field false "mem_tag"
        (match mem_tag with Some t -> string_of_int t | None -> "null");
      field false "access" (str (Event.access_to_string access));
      field false "deferred" (if deferred then "true" else "false")
  | Tag_near_miss { addr; len; tag; neighbour_tag } ->
      field true "addr" (str (Printf.sprintf "0x%Lx" addr));
      field false "len" (Int64.to_string len);
      field false "tag" (string_of_int tag);
      field false "neighbour_tag" (string_of_int neighbour_tag)
  | Tfsr_drain { addr } ->
      field true "addr" (str (Printf.sprintf "0x%Lx" addr))
  | Pac_sign { ptr } -> field true "ptr" (str (Printf.sprintf "0x%Lx" ptr))
  | Pac_auth { ptr; ok } ->
      field true "ptr" (str (Printf.sprintf "0x%Lx" ptr));
      field false "ok" (if ok then "true" else "false")
  | Mem_grow { delta_pages; new_pages } ->
      field true "delta_pages" (Int64.to_string delta_pages);
      field false "new_pages" (Int64.to_string new_pages)
  | Host_call { name } -> field true "name" (str name)
  | Func_enter { idx; name } | Func_leave { idx; name } ->
      field true "idx" (string_of_int idx);
      field false "name" (str name)
  | Crash { cls; msg } ->
      field true "class" (str cls);
      field false "message" (str msg)
  | Spawn { instance } -> field true "instance" (string_of_int instance)
  | Snapshot_restore { instance; bytes } ->
      field true "instance" (string_of_int instance);
      field false "bytes" (string_of_int bytes)
  | Quarantine_evicted { instance } ->
      field true "instance" (string_of_int instance)
  | Request_retry { tenant; attempt } ->
      field true "tenant" (str tenant);
      field false "attempt" (string_of_int attempt)
  | Request_shed { tenant; reason } ->
      field true "tenant" (str tenant);
      field false "reason" (str reason)
  | Breaker_trip { tenant } -> field true "tenant" (str tenant)
  | Check_elided | Bounds_elided | Spec_unsafe_elision -> ()
  | Tag_writes_elided { granules } ->
      field true "granules" (string_of_int granules)
  | Stack_sanitize { total; instrumented; escaping; unsafe_gep; guards } ->
      field true "total" (string_of_int total);
      field false "instrumented" (string_of_int instrumented);
      field false "escaping" (string_of_int escaping);
      field false "unsafe_gep" (string_of_int unsafe_gep);
      field false "guards" (string_of_int guards)
  | Code_fuse { instrs; fused; accesses; elided } ->
      field true "instrs" (string_of_int instrs);
      field false "fused" (string_of_int fused);
      field false "accesses" (string_of_int accesses);
      field false "elided" (string_of_int elided));
  Buffer.add_char b '}'

(* Function enter/leave become duration-begin/end phases so Chrome draws
   call flames; everything else is an instant. An enter with no
   matching leave (a trap unwound the stack) renders as an unfinished
   slice — exactly right for a crash trace. *)
let event_json b r =
  let name =
    match r.ev with
    | Event.Func_enter { name; _ } | Event.Func_leave { name; _ } -> name
    | ev -> Event.name ev
  in
  let ph =
    match r.ev with
    | Event.Func_enter _ -> "B"
    | Event.Func_leave _ -> "E"
    | _ -> "i"
  in
  Buffer.add_string b "{\"name\":\"";
  json_escape b name;
  Buffer.add_string b
    (Printf.sprintf
       "\",\"cat\":\"cage\",\"ph\":\"%s\",\"ts\":%d,\"pid\":1,\"tid\":%d" ph
       r.cycle r.tid);
  (match r.ev with
  | Event.Func_leave _ -> ()
  | _ ->
      if ph = "i" then Buffer.add_string b ",\"s\":\"t\"";
      Buffer.add_string b ",\"args\":";
      args_json b r.ev);
  Buffer.add_char b '}'

(** Render the surviving window as Chrome [trace_event] JSON (open in
    [chrome://tracing] or [ui.perfetto.dev]). Timestamps are simulated
    cycles reported in the microsecond field. *)
let to_chrome_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"cage\"}}";
  (* The ring drops oldest-first when it wraps; surface that loss as a
     single process-global warning instant at the earliest surviving
     timestamp, so a truncated trace announces its own truncation. *)
  (if dropped t > 0 then
     let first_cycle =
       match records t with r :: _ -> r.cycle | [] -> t.clock
     in
     Buffer.add_string b
       (Printf.sprintf
          ",\n{\"name\":\"trace-dropped\",\"cat\":\"cage\",\"ph\":\"i\",\"ts\":%d,\
           \"pid\":1,\"tid\":0,\"s\":\"p\",\"args\":{\"dropped\":%d}}"
          first_cycle (dropped t)));
  List.iter
    (fun r ->
      Buffer.add_string b ",\n";
      event_json b r)
    (records t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\",";
  Buffer.add_string b
    (Printf.sprintf
       "\"otherData\":{\"clock\":\"simulated-cycles\",\"recorded\":%d,\"dropped\":%d}}\n"
       (recorded t) (dropped t));
  Buffer.contents b
