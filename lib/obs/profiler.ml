(** Wasm-level sampling profiler.

    The interpreter ticks the profiler once per metered event; every
    [interval] ticks the profiler snapshots the live call stack (the
    instance's [call_stack] — an immutable int list, so the snapshot is
    a pointer copy) and attributes to it {e every metered event since
    the previous snapshot}, taken as the meter-total delta. Weights
    therefore sum exactly to the final meter total once {!flush} runs —
    the folded-stack output is a complete, loss-free partition of the
    run, not an approximate sample count. *)

type t = {
  interval : int;
  mutable countdown : int;
  mutable ticks : int;          (* total ticks seen *)
  mutable samples : int;        (* snapshots taken *)
  mutable last_total : int;     (* meter total at the last snapshot *)
  tbl : (int list, int ref) Hashtbl.t;  (* stack (innermost first) -> weight *)
}

let create ?(interval = 101) () =
  if interval <= 0 then invalid_arg "Profiler.create: interval must be positive";
  { interval; countdown = 0; ticks = 0; samples = 0; last_total = 0;
    tbl = Hashtbl.create 64 }

let ticks t = t.ticks
let samples t = t.samples

(** One tick of the event clock; [true] when a snapshot is due. The
    caller then gathers the stack and meter total and calls {!sample} —
    split so the (hot) non-sampling path touches nothing else. *)
let due t =
  t.ticks <- t.ticks + 1;
  if t.countdown = 0 then begin
    t.countdown <- t.interval - 1;
    true
  end
  else begin
    t.countdown <- t.countdown - 1;
    false
  end

let add t stack w =
  if w > 0 then
    match Hashtbl.find_opt t.tbl stack with
    | Some r -> r := !r + w
    | None -> Hashtbl.add t.tbl stack (ref w)

(** Record a snapshot: attribute the events since the last snapshot to
    [stack] (function indices, innermost first). *)
let sample t ~stack ~total =
  t.samples <- t.samples + 1;
  add t stack (total - t.last_total);
  t.last_total <- max t.last_total total

(** Attribute the tail of the run (events after the last periodic
    snapshot). Call once, when the run ends; [stack] is usually [[]]
    (execution has returned to the host). *)
let flush t ~stack ~total = sample t ~stack ~total

let total_weight t = Hashtbl.fold (fun _ w acc -> acc + !w) t.tbl 0

let stack_name name = function
  | [] -> "(host)"
  | stack -> String.concat ";" (List.rev_map name stack)

(** Folded-stack lines [("root;...;leaf", weight)], sorted by stack
    name — feed to any flamegraph tool. *)
let folded t ~name =
  Hashtbl.fold (fun stack w acc -> (stack_name name stack, !w) :: acc) t.tbl []
  |> List.sort compare

(** Per-function attribution [(name, self, total)], heaviest self
    first. [self] counts weight sampled with the function on top;
    [total] counts weight with it anywhere on the stack. Both columns
    each sum to {!total_weight} only for [self] — [total] overlaps by
    construction. *)
type attribution = { fn : string; self : int; total : int }

let attribution t ~name =
  let self = Hashtbl.create 16 and tot = Hashtbl.create 16 in
  let bump tbl k w =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + w
    | None -> Hashtbl.add tbl k (ref w)
  in
  Hashtbl.iter
    (fun stack w ->
      let label = match stack with [] -> "(host)" | i :: _ -> name i in
      bump self label !w;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun i ->
          let n = name i in
          if not (Hashtbl.mem seen n) then begin
            Hashtbl.add seen n ();
            bump tot n !w
          end)
        (match stack with [] -> [] | s -> s);
      if stack = [] then bump tot "(host)" !w)
    t.tbl;
  let rows =
    Hashtbl.fold
      (fun fn s acc ->
        let total =
          match Hashtbl.find_opt tot fn with Some r -> !r | None -> !s
        in
        { fn; self = !s; total } :: acc)
      self []
  in
  (* functions that only ever appear as callers still deserve a row *)
  let rows =
    Hashtbl.fold
      (fun fn r acc ->
        if List.exists (fun row -> row.fn = fn) acc then acc
        else { fn; self = 0; total = !r } :: acc)
      tot rows
  in
  List.sort
    (fun a b ->
      match compare b.self a.self with 0 -> compare a.fn b.fn | c -> c)
    rows
