(** Discrete-event, fuel-sliced cooperative scheduling.

    The interpreter is run-to-completion, so the server measures each
    request's true service demand (executed ops + restore cost) at
    dispatch and then {e replays} that demand here as quantum-sized
    fuel slices multiplexed round-robin over a fixed number of
    simulated cores. Queueing delay, slice interleaving and completion
    times all fall out of the discrete-event simulation, deterministic
    by construction: the event heap breaks time ties by insertion
    sequence, never by anything scheduling-dependent.

    Two pieces: {!Heap}, a plain binary min-heap of timestamped
    events, and the core multiplexer below it. *)

module Heap = struct
  type 'a t = {
    mutable arr : (int * int * 'a) option array;  (* time, seq, payload *)
    mutable size : int;
    mutable seq : int;
  }

  let create () = { arr = Array.make 1024 None; size = 0; seq = 0 }
  let size t = t.size
  let is_empty t = t.size = 0

  let get t i =
    match t.arr.(i) with Some e -> e | None -> assert false

  (* (time, seq) lexicographic: ties in time resolve by insertion
     order, which is what makes the whole simulation replayable. *)
  let before (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

  let push t ~time v =
    if t.size = Array.length t.arr then begin
      let bigger = Array.make (2 * t.size) None in
      Array.blit t.arr 0 bigger 0 t.size;
      t.arr <- bigger
    end;
    let e = (time, t.seq, v) in
    t.seq <- t.seq + 1;
    let i = ref t.size in
    t.size <- t.size + 1;
    t.arr.(!i) <- Some e;
    (* sift up *)
    while !i > 0 && before e (get t ((!i - 1) / 2)) do
      let p = (!i - 1) / 2 in
      t.arr.(!i) <- t.arr.(p);
      t.arr.(p) <- Some e;
      i := p
    done

  (** Time of the earliest entry; [max_int] when empty. *)
  let min_time t =
    if t.size = 0 then max_int else let time, _, _ = get t 0 in time

  let pop t =
    if t.size = 0 then None
    else begin
      let (time, _, v) = get t 0 in
      t.size <- t.size - 1;
      let last = get t t.size in
      t.arr.(t.size) <- None;
      if t.size > 0 then begin
        t.arr.(0) <- Some last;
        (* sift down *)
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.size && before (get t l) (get t !smallest) then
            smallest := l;
          if r < t.size && before (get t r) (get t !smallest) then
            smallest := r;
          if !smallest <> !i then begin
            let tmp = t.arr.(!i) in
            t.arr.(!i) <- t.arr.(!smallest);
            t.arr.(!smallest) <- tmp;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some (time, v)
    end
end

(* ------------------------------------------------------------------ *)
(* Fuel-sliced core multiplexer                                        *)
(* ------------------------------------------------------------------ *)

type 'a job = {
  jb_payload : 'a;
  jb_demand : int;             (** total service demand, cycles *)
  jb_span : (string * int) option;
      (** request-span context: label + flow id — each finished slice
          is emitted on its core's track and threaded onto the
          request's flow chain (see {!Obs.Span}) *)
  mutable jb_remaining : int;  (** demand not yet executed *)
  mutable jb_slices : int;     (** slices taken so far *)
}

type 'a slice = {
  s_job : 'a job;
  s_core : int;   (** simulated core the slice ran on *)
  s_start : int;  (** simulated start time of this slice *)
  s_end : int;    (** simulated completion time of this slice *)
}

type 'a t = {
  cores : int;
  quantum : int;               (** max cycles per slice *)
  ready : 'a job Queue.t;      (** round-robin run queue *)
  core_busy : bool array;      (** per-core mid-slice flags *)
  mutable busy : int;          (** cores currently mid-slice *)
  mutable max_ready : int;     (** high-water mark, for stats *)
}

(* Chrome track id for a simulated core (tid 0 is reserved for
   process-scoped instants). *)
let core_tid c = c + 1

let create ~cores ~quantum =
  if cores < 1 then invalid_arg "Scheduler.create: cores must be >= 1";
  if quantum < 1 then invalid_arg "Scheduler.create: quantum must be >= 1";
  { cores; quantum; ready = Queue.create ();
    core_busy = Array.make cores false; busy = 0; max_ready = 0 }

let max_ready t = t.max_ready

(** Enqueue a request whose measured demand is [demand] cycles.
    [span] carries the request's trace context, if any. *)
let submit ?span t payload ~demand =
  Queue.push
    { jb_payload = payload; jb_demand = max 1 demand; jb_span = span;
      jb_remaining = max 1 demand; jb_slices = 0 }
    t.ready;
  let d = Queue.length t.ready in
  if d > t.max_ready then t.max_ready <- d

(** If a core is idle and a job is ready, start the next slice: the
    job runs for [min quantum remaining] cycles on the lowest-numbered
    free core (deterministic core assignment). Callers schedule the
    returned slice's [s_end] on the event heap and call {!slice_done}
    when it fires. [None] when every core is busy or nothing is
    ready. *)
let dispatch t ~now =
  if t.busy >= t.cores || Queue.is_empty t.ready then None
  else begin
    let core = ref 0 in
    while t.core_busy.(!core) do incr core done;
    let job = Queue.pop t.ready in
    let run = min t.quantum job.jb_remaining in
    job.jb_remaining <- job.jb_remaining - run;
    job.jb_slices <- job.jb_slices + 1;
    t.core_busy.(!core) <- true;
    t.busy <- t.busy + 1;
    Some { s_job = job; s_core = !core; s_start = now; s_end = now + run }
  end

(** A slice's end event fired: the core frees up; a finished job's
    payload is returned, an unfinished job goes to the back of the
    round-robin queue. With a span recorder installed, the slice is
    emitted as a Complete span on its core's track and stitched onto
    the owning request's flow chain — this is what reassembles one
    request's quanta, scattered over cores, into a single causal
    trace. *)
let slice_done t s =
  t.core_busy.(s.s_core) <- false;
  t.busy <- t.busy - 1;
  (match s.s_job.jb_span with
  | Some (label, id) when Obs.Span.enabled () ->
      let tid = core_tid s.s_core in
      Obs.Span.complete
        ~args:[ ("req", Obs.Span.I id); ("slice", Obs.Span.I s.s_job.jb_slices) ]
        ~tid ~start:s.s_start ~stop:s.s_end label;
      Obs.Span.flow_step ~id ~tid ~ts:s.s_start label
  | _ -> ());
  if s.s_job.jb_remaining = 0 then Some s.s_job.jb_payload
  else begin
    Queue.push s.s_job t.ready;
    None
  end
