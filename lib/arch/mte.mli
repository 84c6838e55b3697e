(** The MTE checking engine.

    Models the architected tag-check behaviour of loads and stores under
    the four MTE modes (paper §2.3): disabled, synchronous, asynchronous
    and asymmetric. Synchronous checks fault before the access takes
    effect; asynchronous checks merely accumulate into a TFSR-like fault
    flag that the kernel inspects at the next context switch, so the
    faulting access {e does} take effect. *)

type mode =
  | Disabled      (** No tag checks. *)
  | Sync          (** Both reads and writes trap immediately. *)
  | Async         (** Mismatches set a cumulative flag, access proceeds. *)
  | Asymmetric    (** Reads async, writes sync. *)

val mode_to_string : mode -> string
val pp_mode : Format.formatter -> mode -> unit

type access = Load | Store

type fault = {
  fault_addr : int64;      (** Faulting (untagged) address. *)
  fault_len : int64;
  ptr_tag : Tag.t;         (** Logical tag carried by the pointer. *)
  mem_tag : Tag.t option;  (** Allocation tag found (None if region spans
                               differing tags or is out of range). *)
  fault_access : access;
}

val pp_fault : Format.formatter -> fault -> unit

type t
(** An MTE checker bound to one tag space, holding the mode and the
    pending-asynchronous-fault state. *)

val create : ?mode:mode -> Tag_memory.t -> t
(** Checker over the given tag space; [mode] defaults to [Sync]. *)

val arm : t -> Fault_inject.lane -> unit
(** Arm the unit on a chaos lane: its checks draw tag flips and its
    latch drops TFSR reports on that lane ({!Fault_inject}). An unarmed
    unit never calls into the chaos engine. *)

val mode : t -> mode
val tag_memory : t -> Tag_memory.t

type verdict =
  | Allowed                  (** Access proceeds; no fault recorded. *)
  | Faulted of fault         (** Synchronous fault: access suppressed. *)
  | Deferred of fault        (** Asynchronous fault recorded: access
                                 proceeds, flag set. *)

val check : t -> access -> ptr:Ptr.t -> len:int64 -> verdict
(** Check one access made through [ptr] (whose bits 56-59 carry the
    logical tag) covering [len] bytes at [Ptr.address ptr]. Out-of-range
    accesses are mismatches (the granule has no matching tag). [len <= 0]
    checks one byte. A length outside the native int range keeps its
    verdict (past every tag plane, a mismatch) and is recorded saturated
    to that range. *)

val check_native : t -> access -> addr:int -> tag:Tag.t -> len:int -> verdict
(** {!check} of an access with logical tag [tag] covering [len] bytes
    at the untagged address [addr], on native ints: {!check} delegates
    to it. A passing check allocates nothing, so the threaded engine's
    tag check rides along with the access; the fault record, the
    [Tag_fault] event and the TFSR latch are built only on a mismatch.
    A negative address is a mismatch. *)

val pending_fault : t -> fault option
(** The recorded asynchronous fault, if any (TFSR set). *)

val take_pending : t -> fault option
(** Drain the sticky TFSR: return the first deferred fault (if any) and
    clear it. Runtimes call this at synchronization points — function
    returns, host-call boundaries, context switches — which is where
    Async/Asymmetric deferred faults are architecturally reported. *)

val context_switch : t -> fault option
(** What the kernel does on context switch: returns and clears the
    pending asynchronous fault (alias of {!take_pending}). *)

val checks_performed : t -> int
(** Number of tag checks performed so far (for cost accounting). *)
