(** Pointer Authentication (PAC).

    Models Arm PAC (paper §2.3): a keyed MAC over a pointer and a
    64-bit modifier is truncated into the pointer's unused upper bits
    ({!Ptr.pac_field}). Authentication recomputes the MAC; on success the
    signature is stripped, on failure the behaviour depends on
    [FEAT_FPAC]: trap immediately, or produce a poisoned pointer that
    faults on dereference.

    The real hardware uses QARMA; any preimage-resistant keyed function
    with the same truncation preserves every property the paper relies
    on (unforgeability up to the signature width, per-key isolation), so
    we use a SipHash-style ARX construction. *)

type key
(** A 128-bit signing key (e.g. APDAKey). Inaccessible to guest code. *)

val key_of_int64s : int64 -> int64 -> key
val random_key : rng:(unit -> int64) -> key
val key_equal : key -> key -> bool

val mac : key -> modifier:int64 -> int64 -> int64
(** The full 64-bit MAC of a value under [key] and [modifier]; exposed
    for testing and for the signature-collision analysis. *)

type config = {
  layout : Ptr.pac_layout;
  fpac : bool;  (** [FEAT_FPAC]: trap at [aut*] on failure (true on the
                    Tensor G3 used in the paper). *)
}

val default_config : config
(** MTE enabled (10 signature bits) and [FEAT_FPAC] on — the paper's
    evaluation platform. *)

val sign : config -> key -> modifier:int64 -> Ptr.t -> Ptr.t
(** [pacda]-style signing: compute the truncated MAC of the pointer's
    canonical bits under [key]/[modifier] and install it in the PAC
    field. Signing an already-signed (non-canonical) pointer signs its
    stripped value, as the hardware effectively does for userspace
    pointers. *)

type auth_result =
  | Valid of Ptr.t          (** Signature correct; PAC field stripped. *)
  | Invalid_trap            (** FEAT_FPAC: immediate fault. *)
  | Invalid_poisoned of Ptr.t
      (** No FEAT_FPAC: canonical-breaking bit flipped so any
          dereference faults. *)

val auth :
  ?chaos:Fault_inject.lane -> config -> key -> modifier:int64 -> Ptr.t ->
  auth_result
(** [autda]-style authentication. With [chaos], the lane of the
    authenticating instance may forge or strip the signature first. *)

val strip : config -> Ptr.t -> Ptr.t
(** [xpacd]: remove the signature without authenticating. *)

val is_poisoned : config -> Ptr.t -> bool
(** Whether a pointer carries the poison marker produced by a failed
    non-FPAC authentication. *)
