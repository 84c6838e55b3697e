(* Host-time spans around calls into the system's public functions, and
   the counts recorded at the same boundaries. Spans are kept in memory
   and reduced when the traced run ends. The clock is CLOCK_MONOTONIC. *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

type span = { mutable secs : float; mutable calls : int; mutable samples : float list }

type t = {
  spans : (string, span) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create () = { spans = Hashtbl.create 16; counts = Hashtbl.create 16 }

let span t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
      let s = { secs = 0.0; calls = 0; samples = [] } in
      Hashtbl.replace t.spans name s;
      s

let record t name dt =
  let s = span t name in
  s.secs <- s.secs +. dt;
  s.calls <- s.calls + 1;
  s.samples <- dt :: s.samples

(* Time [f] as a call into layer [name] when tracing, or just run it. *)
let timed tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let t0 = now () in
      let r = f () in
      record t name (since t0);
      r

let add tr name v =
  match tr with
  | None -> ()
  | Some t ->
      Hashtbl.replace t.counts name
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let count t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)
let secs t name = (span t name).secs
let calls t name = (span t name).calls

let mean t name =
  let s = span t name in
  if s.calls = 0 then 0.0 else s.secs /. float_of_int s.calls

let total t = Hashtbl.fold (fun _ s acc -> acc +. s.secs) t.spans 0.0

(* Merge [src] into [dst]: one view over setup, pass and probe spans. *)
let merge ~into:dst src =
  Hashtbl.iter
    (fun name s ->
      let d = span dst name in
      d.secs <- d.secs +. s.secs;
      d.calls <- d.calls + s.calls;
      d.samples <- s.samples @ d.samples)
    src.spans;
  Hashtbl.iter (fun name v -> add (Some dst) name v) src.counts
