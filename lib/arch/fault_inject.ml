(** Seeded, deterministic fault injection (chaos engine).

    Cage's value proposition is what happens when memory is corrupted;
    this module is the corruptor. A policy names the fault {e sites} to
    arm, a per-site probability, and a budget of injections. An engine
    is a plain value with no install point: arming an instance gives it
    one lane of the engine, and the hardware models ([Mte.check],
    [Pac.auth], the checked-access layer, the segment instructions)
    draw on the lane of the instance or MTE unit they hold, at the
    exact points where a real bit-flip, glitch or lost interrupt would
    land.

    A lane holds all of one instance's chaos state: its PRNG, derived
    from (engine seed, lane number), its budget and per-site counts,
    its injections and its pending heap scribble. The consequence is
    the property pool-concurrent serving depends on: instance [i]'s
    fault sequence is a function of the policy and its lane number
    alone, so any interleaving of draws across instances replays the
    identical per-instance fault sequences. An unarmed instance's hooks
    are one load-and-compare on [None]: the uninstrumented hot path
    never reaches this module. *)

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
  inj_lane : int;                (** lane (instance) the fault landed in *)
  mutable inj_detail : string;   (** filled in by the injecting hook *)
}

let pp_injection ppf i =
  Format.fprintf ppf "%s%s" (site_to_string i.inj_site)
    (if i.inj_detail = "" then "" else " (" ^ i.inj_detail ^ ")")

(* One lane = one victim identity. The PRNG is derived from
   (policy seed, lane), and budgets are tracked here, so a lane's
   behaviour is independent of every other lane's draw history.
   [ln_live] holds [ln_count < max_injections]: once it is clear no
   draw can fire or roll the PRNG, so the hot paths test it inline
   and skip the call. *)
type lane = {
  mutable ln_live : bool;
  ln_pol : policy;
  ln_lane : int;
  ln_rng : Random.State.t;
  mutable ln_count : int;
  mutable ln_site_counts : (site * int) list;
  mutable ln_injected : injection list;  (* newest first *)
  mutable ln_scribble : (int64 * injection) option;
      (* a Heap_scribble records the doomed address here, with the
         injection that drew it; the runtime applies the write at the
         next synchronization point, once the allocator has finished
         publishing the free-list link, and the supervisor drops it if
         the drawing invocation crashes first *)
}

type t = { pol : policy; mutable lanes : lane list }

let create pol = { pol; lanes = [] }

let lane t n =
  match List.find_opt (fun l -> l.ln_lane = n) t.lanes with
  | Some l -> l
  | None ->
      let l =
        {
          ln_live = t.pol.max_injections > 0;
          ln_pol = t.pol;
          ln_lane = n;
          ln_rng = Random.State.make [| t.pol.seed; n |];
          ln_count = 0;
          ln_site_counts = [];
          ln_injected = [];
          ln_scribble = None;
        }
      in
      t.lanes <- l :: t.lanes;
      l

let lane_number l = l.ln_lane
let count t = List.fold_left (fun n l -> n + l.ln_count) 0 t.lanes
let lane_count l = l.ln_count

(* The log is newest first: taking its [count - since] newest entries
   conses them back into chronological order. *)
let injections ?(since = 0) l =
  let rec go acc k = function
    | i :: rest when k > 0 -> go (i :: acc) (k - 1) rest
    | _ -> acc
  in
  go [] (l.ln_count - since) l.ln_injected

let site_probability pol site =
  match List.assq_opt site pol.site_probability with
  | Some p -> p
  | None -> pol.probability

(** Roll the dice at a fault site. [true] means the caller must inject
    the fault now (the injection is already recorded; use {!note} to
    attach a human-readable detail). Always [false] for a filtered
    site or an exhausted (per-lane) budget. *)
let draw ln site =
  let pol = ln.ln_pol in
  (* both refusals are pure, so their order leaves the draw sequence
     alone: the one-compare budget test runs first, and a spent lane
     never scans the armed-site list *)
  if not ln.ln_live then false
  else if not (List.memq site pol.sites) then false
  else if
    match List.assq_opt site pol.site_max with
    | None -> false
    | Some cap -> (
        match List.assq_opt site ln.ln_site_counts with
        | Some n -> n >= cap
        | None -> false)
  then false
  else
    let p = site_probability pol site in
    let fire = p >= 1.0 || Random.State.float ln.ln_rng 1.0 < p in
    if fire then begin
      ln.ln_count <- ln.ln_count + 1;
      ln.ln_live <- ln.ln_count < pol.max_injections;
      ln.ln_site_counts <-
        (site,
         1
         + (match List.assq_opt site ln.ln_site_counts with
           | Some n -> n
           | None -> 0))
        :: List.remove_assq site ln.ln_site_counts;
      ln.ln_injected <-
        { inj_site = site; inj_lane = ln.ln_lane; inj_detail = "" }
        :: ln.ln_injected
    end;
    fire

(** Attach a detail string to the lane's most recent injection. *)
let note ln fmt =
  Format.kasprintf
    (fun s ->
      match ln.ln_injected with i :: _ -> i.inj_detail <- s | [] -> ())
    fmt

(** Deterministic corruption parameter from the lane's PRNG (only
    meaningful after a successful {!draw}). *)
let rand_int ln n = Random.State.int ln.ln_rng n

(* ------------------------------------------------------------------ *)
(* Heap-scribble plumbing                                              *)
(* ------------------------------------------------------------------ *)

let set_scribble ln addr = ln.ln_scribble <- Some (addr, List.hd ln.ln_injected)

let take_scribble ln =
  let s = ln.ln_scribble in
  ln.ln_scribble <- None;
  s

(** The junk written over scribbled metadata: a non-canonical pointer
    pattern (bits 48-55 set), so a later dereference of the corrupted
    free-list link is caught by the MMU canonicality check rather than
    wandering silently. *)
let junk64 ln =
  Int64.logor 0x00de_0000_0000_0000L (Int64.of_int (rand_int ln 0xffff))
