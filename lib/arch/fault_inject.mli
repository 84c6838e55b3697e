(** Seeded, deterministic fault injection (chaos engine).

    A policy names the fault sites to arm, per-site probabilities and an
    injection budget. An engine is a plain value with no install point:
    arming an instance gives it one {e lane} of the engine ({!lane}),
    the record that holds all of that instance's chaos state — its PRNG,
    budget and per-site counts, its injections and its pending heap
    scribble — and the hardware models draw on the lane of the instance
    or MTE unit they already hold, at the exact points where a real
    bit-flip, glitch or lost interrupt would land. An unarmed instance
    never reaches this module: its hooks are one load-and-compare on
    [None].

    A lane is numbered, and lane [n]'s PRNG is derived from (engine
    seed, [n]), so an instance's fault sequence is a function of the
    policy and its lane number alone: any interleaving of invocations
    across instances — any pool scheduling order — replays the identical
    per-instance fault sequences. What one invocation absorbed is its
    lane's injections from the {!lane_count} seen before it
    ({!injections}); the supervisor's post-mortem and the serving
    runtime's per-attempt attribution both read that slice. *)

type site =
  | Tag_flip        (** flip the allocation tag of an accessed granule
                        ({!Mte.check}) *)
  | Ptr_tag         (** corrupt the logical tag of a live pointer
                        (checked-access address resolution) *)
  | Ptr_sig         (** set stray signature bits on a live pointer,
                        making it non-canonical *)
  | Pac_forge       (** flip a signature bit just before [autda]
                        ({!Pac.auth}) *)
  | Pac_strip       (** strip the signature ([xpacd]) before [autda] *)
  | Tfsr_drop       (** drop a pending TFSR latch — the lost-interrupt
                        model of asynchronous MTE reporting *)
  | Heap_scribble   (** scribble the free-list link of a freed chunk in
                        the hardened libc heap *)

val all_sites : site list
val site_to_string : site -> string

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

val policy :
  ?probability:float ->
  ?site_probability:(site * float) list ->
  ?max_injections:int ->
  ?site_max:(site * int) list ->
  seed:int ->
  site list ->
  policy
(** [probability] defaults to 1.0 (fire on first visit),
    [max_injections] to 1 per lane, [site_max] to no per-site cap. *)

type injection = {
  inj_site : site;
  inj_lane : int;                (** lane (instance) the fault landed in *)
  mutable inj_detail : string;   (** filled in by the injecting hook *)
}

val pp_injection : Format.formatter -> injection -> unit

type t
(** An engine: a policy and the lanes armed from it. *)

type lane = private {
  mutable ln_live : bool;
      (** the lane's budget is not spent: while it is clear, {!draw}
          can never fire and never rolls the PRNG, so a hot path reads
          this field inline and skips the call (an accessor would stay
          an out-of-line call across modules) *)
  ln_pol : policy;
  ln_lane : int;
  ln_rng : Random.State.t;
  mutable ln_count : int;
  mutable ln_site_counts : (site * int) list;
  mutable ln_injected : injection list;
  mutable ln_scribble : (int64 * injection) option;
}
(** One armed instance's chaos state, readable but not writable from
    outside this module. *)

val create : policy -> t

val lane : t -> int -> lane
(** The engine's lane [n], made on first use: instances armed on one
    number share its stream, budget and injections. *)

val lane_number : lane -> int
(** The number the lane was made with. *)

val count : t -> int
(** Total injections performed so far, across all lanes. *)

val lane_count : lane -> int
(** Injections charged to the lane. *)

val injections : ?since:int -> lane -> injection list
(** The lane's injections in chronological order, from its [since]-th
    (default 0) on: pass the {!lane_count} seen before an invocation to
    get what that invocation absorbed. *)

(** {1 Hook API — called from the hardware models} *)

val draw : lane -> site -> bool
(** Roll the dice at a fault site. [true] means the caller must inject
    the fault now (the injection is already recorded; use {!note} to
    attach detail). Always [false] for a filtered site or an exhausted
    budget. *)

val note : lane -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Attach a detail string to the lane's most recent injection. *)

val rand_int : lane -> int -> int
(** Deterministic corruption parameter from the lane's PRNG. *)

(** {1 Heap-scribble plumbing}

    A [Heap_scribble] draw at segment-free time records the address of
    the chunk's free-list link; the runtime applies the corrupting
    write at the next synchronization point, after the allocator has
    published the link. This models an asynchronous corruptor (racing
    thread, errant DMA) — which is also why the write bypasses tag
    checks. The pending scribble keeps the injection that drew it, so
    its detail lands on that record whatever fired in between. A
    scribble still pending when its invocation crashes dies with it:
    the supervisor's crash path takes it unapplied. *)

val set_scribble : lane -> int64 -> unit
(** Schedule the scribble the lane's last draw fired. *)

val take_scribble : lane -> (int64 * injection) option

val junk64 : lane -> int64
(** Non-canonical junk (bits 48-55 set): a later dereference of the
    corrupted link faults at the MMU canonicality check. *)
