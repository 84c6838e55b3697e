(** The Cage stack sanitizer — paper Algorithm 1.

    Decides, per function, which stack slots must be protected with
    memory segments: those that escape the function plus those indexed
    with a non-statically-verifiable offset. Everything else keeps
    plain, untagged frame storage — the optimisation that keeps the
    paper's stack-safety overhead low.

    Also decides whether the frame needs a leading untagged {e guard
    slot} (paper Fig. 8b): if the slot adjacent to the previous frame is
    itself tagged, two adjacent frames could otherwise draw colliding
    tags, hiding an inter-frame overflow.

    The actual tagging code (a [segment.new] for the first instrumented
    slot, tag-increment + [segment.set_tag] for the rest, and the
    untagging epilogue) is emitted by {!Codegen} for slots this pass
    marked. Running this pass {e after} the optimiser mirrors §6.1: a
    slot deleted by mem2reg-style promotion is never instrumented. *)

open Ir

type stats = {
  total_slots : int;
  instrumented : int;
  escaping : int;
  unsafe_gep : int;
  guards : int;
}

let empty_stats =
  { total_slots = 0; instrumented = 0; escaping = 0; unsafe_gep = 0;
    guards = 0 }

let add a b =
  {
    total_slots = a.total_slots + b.total_slots;
    instrumented = a.instrumented + b.instrumented;
    escaping = a.escaping + b.escaping;
    unsafe_gep = a.unsafe_gep + b.unsafe_gep;
    guards = a.guards + b.guards;
  }

(* Algorithm 1's verdicts on [f], read-only: each slot with whether it
   escapes and whether it is instrumented, and whether the frame needs
   a guard (Fig. 8b: its first slot is tagged; an untagged first slot
   already separates this frame from the previous one).
   [instrument_all] is the ablation knob: instrument every slot
   regardless of the analysis (what a sanitizer without the escape/GEP
   filter would do). *)
let decide ~instrument_all (f : func) =
  let esc = Escape.escaping f in
  let slots =
    List.map
      (fun s ->
        let escapes = List.mem s.slot_id esc in
        (s, escapes, instrument_all || escapes || s.unsafe_gep))
      f.fn_slots
  in
  (slots, match slots with (_, _, first) :: _ -> first | [] -> false)

let stats_of (slots, guard) =
  let count p = List.length (List.filter p slots) in
  {
    total_slots = List.length slots;
    instrumented = count (fun (_, _, i) -> i);
    escaping = count (fun (_, e, _) -> e);
    unsafe_gep = count (fun ((s : slot), _, _) -> s.unsafe_gep);
    guards = (if guard then 1 else 0);
  }

(** What {!run_func} decides for [f], without recording it: the
    statistics of a function already compiled. *)
let func_stats ?(instrument_all = false) f =
  stats_of (decide ~instrument_all f)

(** Algorithm 1 on one function: record the verdicts in [f]'s slots
    and guard flag. *)
let run_func ?(instrument_all = false) (f : func) : stats =
  let ((slots, guard) as d) = decide ~instrument_all f in
  List.iter
    (fun (s, escapes, instrument) ->
      s.escapes <- escapes;
      s.instrument <- instrument)
    slots;
  f.fn_needs_guard <- guard;
  stats_of d

(** Run over some functions, returning aggregate statistics. *)
let run ?instrument_all (funcs : func list) : stats =
  List.fold_left
    (fun acc f -> add acc (run_func ?instrument_all f))
    empty_stats funcs

let pp_stats ppf s =
  Format.fprintf ppf
    "slots: %d, instrumented: %d (escaping %d, unsafe-GEP %d), guards: %d"
    s.total_slots s.instrumented s.escaping s.unsafe_gep s.guards
