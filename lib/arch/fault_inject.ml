(** Seeded, deterministic fault injection (chaos engine).

    Cage's value proposition is what happens when memory is corrupted;
    this module is the corruptor. A policy names the fault {e sites} to
    arm, a per-site probability, and a budget of injections; an engine
    drawn from the policy is installed globally and the hardware models
    ([Mte.check], [Pac.auth], the checked-access layer, the segment
    instructions) consult it at the exact points where a real bit-flip,
    glitch or lost interrupt would land.

    Randomness is split into per-{e lane} streams: a lane is one
    victim instance's stable identity (its spawn ordinal — the
    supervisor sets the lane at every invocation boundary), and each
    lane's PRNG is derived from (engine seed, lane). Injection budgets
    and per-site caps are accounted per lane too. The consequence is
    the property pool-concurrent serving depends on: instance [i]'s
    fault sequence is a function of the policy and [i] alone, so any
    interleaving of draws across instances replays the identical
    per-instance fault sequences. The engine carries no caller context
    beyond the current lane: what one invocation absorbed is its lane's
    slice of the log ({!lane_injections}).

    When no engine is installed every hook is a single load-and-compare
    on the [None] fast path: the uninstrumented hot path is untouched. *)

type site =
  | Tag_flip        (** flip the allocation tag of an accessed granule *)
  | Ptr_tag         (** corrupt the logical tag of a live pointer *)
  | Ptr_sig         (** set stray signature bits on a live pointer *)
  | Pac_forge       (** flip a signature bit just before [autda] *)
  | Pac_strip       (** strip the signature ([xpacd]) before [autda] *)
  | Tfsr_drop       (** drop a pending TFSR latch (lost interrupt) *)
  | Heap_scribble   (** scribble free-list metadata in the libc heap *)

let all_sites =
  [ Tag_flip; Ptr_tag; Ptr_sig; Pac_forge; Pac_strip; Tfsr_drop;
    Heap_scribble ]

let site_to_string = function
  | Tag_flip -> "tag-flip"
  | Ptr_tag -> "ptr-tag"
  | Ptr_sig -> "ptr-sig"
  | Pac_forge -> "pac-forge"
  | Pac_strip -> "pac-strip"
  | Tfsr_drop -> "tfsr-drop"
  | Heap_scribble -> "heap-scribble"

type policy = {
  seed : int;
  probability : float;        (** default chance a visited site fires *)
  site_probability : (site * float) list;  (** per-site overrides *)
  sites : site list;          (** sites armed at all *)
  max_injections : int;       (** per-lane injection budget *)
  site_max : (site * int) list;
      (** per-site caps within the per-lane budget — e.g. one tag flip
          but unlimited dropped TFSR latches for the lost-interrupt
          model *)
}

let policy ?(probability = 1.0) ?(site_probability = [])
    ?(max_injections = 1) ?(site_max = []) ~seed sites =
  { seed; probability; site_probability; sites; max_injections; site_max }

type injection = {
  inj_site : site;
  inj_index : int;               (** 0-based order of injection *)
  inj_lane : int;                (** lane (instance) the fault landed in *)
  mutable inj_detail : string;   (** filled in by the injecting hook *)
}

(* One lane = one victim identity. The PRNG is derived from
   (policy seed, lane), and budgets are tracked here, so a lane's
   behaviour is independent of every other lane's draw history. *)
type lane_state = {
  ln_lane : int;
  ln_rng : Random.State.t;
  mutable ln_count : int;
  mutable ln_site_counts : (site * int) list;
}

type t = {
  pol : policy;
  mutable lanes : lane_state list;     (* keyed by ln_lane *)
  mutable cur : lane_state;            (* the lane draws land in *)
  mutable injected : injection list;   (* newest first, all lanes *)
  mutable scribble_at : int64 option;
      (* a Heap_scribble records the doomed address here; the runtime
         applies the write at the next synchronization point, once the
         allocator has finished publishing the free-list link, and the
         supervisor drops it if the drawing invocation crashes first *)
}

let lane_state pol lane =
  {
    ln_lane = lane;
    ln_rng = Random.State.make [| pol.seed; lane |];
    ln_count = 0;
    ln_site_counts = [];
  }

let create pol =
  let l0 = lane_state pol 0 in
  { pol; lanes = [ l0 ]; cur = l0; injected = []; scribble_at = None }

(* [inj_index] numbers the log, so its newest entry gives the count. *)
let count t = match t.injected with [] -> 0 | i :: _ -> i.inj_index + 1

(* The log is newest first: walking it down to [since] conses the
   lane's recent entries back into chronological order. *)
let lane_injections t ~since lane =
  let rec go acc = function
    | i :: rest when i.inj_index >= since ->
        go (if i.inj_lane = lane then i :: acc else acc) rest
    | _ -> acc
  in
  go [] t.injected

let lane_count t lane =
  match List.find_opt (fun l -> l.ln_lane = lane) t.lanes with
  | Some l -> l.ln_count
  | None -> 0

let pp_injection ppf i =
  Format.fprintf ppf "%s%s" (site_to_string i.inj_site)
    (if i.inj_detail = "" then "" else " (" ^ i.inj_detail ^ ")")

(* ------------------------------------------------------------------ *)
(* The global hook — the [None] fast path is what the hot paths see.   *)
(* ------------------------------------------------------------------ *)

let hook : t option ref = ref None

let install t = hook := Some t
let uninstall () = hook := None
let active () = !hook

let with_engine t f =
  install t;
  Fun.protect ~finally:uninstall f

(** Switch the engine onto a lane: all subsequent draws are charged to
    (and randomized by) that lane's stream. The supervisor calls this
    at every invocation boundary with the instance's stable spawn
    ordinal; no-op when no engine is installed. *)
let set_lane lane =
  match !hook with
  | None -> ()
  | Some t -> (
      match List.find_opt (fun l -> l.ln_lane = lane) t.lanes with
      | Some l -> t.cur <- l
      | None ->
          let l = lane_state t.pol lane in
          t.lanes <- l :: t.lanes;
          t.cur <- l)

let site_probability t site =
  match List.assq_opt site t.pol.site_probability with
  | Some p -> p
  | None -> t.pol.probability

(** Roll the dice at a fault site. [true] means the caller must inject
    the fault now (the injection is already recorded; use {!note} to
    attach a human-readable detail). Always [false] with no engine
    installed, a filtered site, or an exhausted (per-lane) budget. *)
let draw site =
  match !hook with
  | None -> false
  | Some t ->
      let ln = t.cur in
      (* both refusals are pure, so their order leaves the draw
         sequence alone: the one-compare budget test runs first, and a
         spent lane never scans the armed-site list *)
      if ln.ln_count >= t.pol.max_injections then false
      else if not (List.memq site t.pol.sites) then false
      else if
        match List.assq_opt site t.pol.site_max with
        | None -> false
        | Some cap -> (
            match List.assq_opt site ln.ln_site_counts with
            | Some n -> n >= cap
            | None -> false)
      then false
      else
        let p = site_probability t site in
        let fire = p >= 1.0 || Random.State.float ln.ln_rng 1.0 < p in
        if fire then begin
          ln.ln_count <- ln.ln_count + 1;
          ln.ln_site_counts <-
            (site,
             1
             + (match List.assq_opt site ln.ln_site_counts with
               | Some n -> n
               | None -> 0))
            :: List.remove_assq site ln.ln_site_counts;
          t.injected <-
            { inj_site = site; inj_index = count t; inj_lane = ln.ln_lane;
              inj_detail = "" }
            :: t.injected
        end;
        fire

(** Attach a detail string to the most recent injection. *)
let note fmt =
  Format.kasprintf
    (fun s ->
      match !hook with
      | Some { injected = i :: _; _ } -> i.inj_detail <- s
      | _ -> ())
    fmt

(** Deterministic corruption parameter from the current lane's PRNG
    (0 when no engine is installed — only meaningful after a successful
    {!draw}). *)
let rand_int n =
  match !hook with None -> 0 | Some t -> Random.State.int t.cur.ln_rng n

(* ------------------------------------------------------------------ *)
(* Heap-scribble plumbing                                              *)
(* ------------------------------------------------------------------ *)

let set_scribble addr =
  match !hook with None -> () | Some t -> t.scribble_at <- Some addr

let take_scribble () =
  match !hook with
  | None -> None
  | Some t ->
      let a = t.scribble_at in
      if a <> None then t.scribble_at <- None;
      a

(** The junk written over scribbled metadata: a non-canonical pointer
    pattern (bits 48-55 set), so a later dereference of the corrupted
    free-list link is caught by the MMU canonicality check rather than
    wandering silently. *)
let junk64 () =
  Int64.logor 0x00de_0000_0000_0000L (Int64.of_int (rand_int 0xffff))
