(** Seeded, deterministic fault injection (chaos engine).

    A policy names the fault sites to arm, per-site probabilities and an
    injection budget; an installed engine is consulted by the hardware
    models at the exact points where a real bit-flip, glitch or lost
    interrupt would land.

    Randomness is split into per-{e lane} streams: a lane is one victim
    instance's stable identity (its spawn ordinal within its process —
    the supervisor switches lanes at every invocation boundary with
    {!set_lane}). Each lane's PRNG is derived from (engine seed, lane)
    and budgets are accounted per lane, so instance [i]'s fault
    sequence is a function of the policy and [i] alone: any
    interleaving of draws across instances — any pool scheduling order
    — replays the identical per-instance fault sequences.

    The engine carries no caller context beyond the current lane. A
    caller that wants what one invocation absorbed reads its lane's
    slice of the log from the position it saw before the invocation
    ({!lane_injections}); the supervisor's post-mortem and the serving
    runtime's per-attempt attribution both do.

    With no engine installed every hook reduces to a single
    load-and-compare ([None] fast path): the uninstrumented hot path is
    untouched. *)

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
  inj_index : int;               (** 0-based order of injection *)
  inj_lane : int;                (** lane (instance) the fault landed in *)
  mutable inj_detail : string;   (** filled in by the injecting hook *)
}

type t
(** A live engine: policy + per-lane PRNGs + injection log. *)

val create : policy -> t
val count : t -> int
(** Total injections performed so far, across all lanes. *)

val lane_count : t -> int -> int
(** Injections charged to one lane. *)

val lane_injections : t -> since:int -> int -> injection list
(** One lane's injections from log position [since] on ({!count} when
    the caller started watching; 0 for all), in chronological order. *)

val pp_injection : Format.formatter -> injection -> unit

(** {1 Installation} *)

val install : t -> unit
val uninstall : unit -> unit
val active : unit -> t option
val with_engine : t -> (unit -> 'a) -> 'a
(** Install around [f], uninstalling even on exception. *)

val set_lane : int -> unit
(** Switch the engine onto a lane: subsequent draws are charged to (and
    randomized by) that lane's stream. Called by the supervisor at
    invocation boundaries with the instance's stable spawn ordinal;
    no-op when no engine is installed. Lane 0 is the ambient default. *)

(** {1 Hook API — called from the hardware models} *)

val draw : site -> bool
(** Roll the dice at a fault site. [true] means the caller must inject
    the fault now (the injection is already recorded; use {!note} to
    attach detail). Always [false] with no engine installed, a filtered
    site, or an exhausted per-lane budget. *)

val note : ('a, Format.formatter, unit, unit) format4 -> 'a
(** Attach a detail string to the most recent injection. *)

val rand_int : int -> int
(** Deterministic corruption parameter from the current lane's PRNG
    (0 when no engine is installed). *)

(** {1 Heap-scribble plumbing}

    A [Heap_scribble] draw at segment-free time records the address of
    the chunk's free-list link; the runtime applies the corrupting
    write at the next synchronization point, after the allocator has
    published the link. This models an asynchronous corruptor (racing
    thread, errant DMA) — which is also why the write bypasses tag
    checks. A scribble still pending when its invocation crashes dies
    with it: the supervisor's crash path takes it unapplied. *)

val set_scribble : int64 -> unit
val take_scribble : unit -> int64 option
val junk64 : unit -> int64
(** Non-canonical junk (bits 48-55 set): a later dereference of the
    corrupted link faults at the MMU canonicality check. *)
