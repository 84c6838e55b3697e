(** MTE allocation tags.

    Arm's Memory Tagging Extension associates a 4-bit {e allocation tag}
    with every 16-byte granule of memory, and a {e logical tag} with every
    pointer (stored in address bits 56-59). A memory access is permitted
    only when the two match. This module implements the tag domain: the 16
    tag values, tag arithmetic as performed by the [addg]/[subg]
    instructions, and the tag-exclusion mechanism ([GCR_EL1.Exclude],
    surfaced to userspace via [prctl(PR_SET_TAGGED_ADDR_CTRL)]) that
    restricts which tags [irg] may generate. *)

type t = private int
(** A 4-bit tag in the range [0, 15]. *)

val zero : t
(** The zero tag: memory tagged [zero] matches untagged pointers. Cage
    reserves it for the runtime, guard slots and untagged segments. *)

val of_int : int -> t
(** [of_int n] is the tag with value [n land 0xf]. *)

val of_int_exn : int -> t
(** [of_int_exn n] is the tag [n]. @raise Invalid_argument unless
    [0 <= n <= 15]. *)

val to_int : t -> int

val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> int -> t
(** [add t n] is the [addg]-style tag increment: [(t + n) mod 16],
    ignoring any exclusion mask (matching the hardware, which excludes
    tags only in [irg]). *)

val all : t list
(** All sixteen tags, in increasing order. *)

val pp : Format.formatter -> t -> unit

(** {1 Exclusion masks}

    An exclusion mask is a 16-bit set of tags that [irg] must not
    generate. Excluding all 16 tags makes [irg] return {!zero}
    (architected behaviour). *)

module Exclude : sig
  type tag := t

  type t
  (** A set of excluded tags. *)

  val none : t
  (** Nothing excluded: [irg] may generate any of the 16 tags. *)

  val all : t
  (** Everything excluded: [irg] generates only {!zero}. *)

  val of_mask : int -> t
  (** [of_mask m] excludes tag [i] iff bit [i] of [m] is set. Only the low
      16 bits are considered. *)

  val to_mask : t -> int

  val of_list : tag list -> t
  val add : t -> tag -> t
  val mem : t -> tag -> bool

  val allowed : t -> tag list
  (** Tags not excluded, in increasing order. *)

  val count_allowed : t -> int
  val pp : Format.formatter -> t -> unit
end

val next_allowed : Exclude.t -> t -> t
(** [next_allowed ex t] is the smallest increment of [t] (mod 16) that is
    not excluded by [ex]; [t] itself is a candidate only after wrapping
    all the way around. Used by Cage's stack tagging, where successive
    stack slots get successive tags. If every tag is excluded the result
    is {!zero}. *)

val irg : Exclude.t -> rng:(int -> int) -> t
(** [irg ex ~rng] models the [irg] instruction: a uniformly random tag
    drawn from the allowed set of [ex] using [rng] ([rng n] must return a
    uniform value in [\[0, n)]). Returns {!zero} when all tags are
    excluded. *)
