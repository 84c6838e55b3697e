(** AArch64 pointer layout (paper Fig. 3).

    On aarch64 Linux only bits 0-47 of a pointer address memory; bit 55
    selects the kernel/user half, and the remaining upper bits are free
    for metadata:

    - with MTE enabled, bits 56-59 carry the MTE logical tag;
    - with PAC enabled, the signature occupies bits 63-60 and 54-49 when
      MTE is on, or bits 63-56 and 54-49 when it is off.

    This module packs and unpacks those fields and implements the
    pointer-masking used by Cage's sandboxing (paper Fig. 13) to stop a
    guest from forging tag bits before effective-address computation. *)

type t = int64
(** A raw 64-bit pointer value. *)

val address : t -> int64
(** [address p] is [p] with all metadata bits (48-63) cleared. *)

val offset : t -> int64 -> t
(** [offset p n] adds [n] to the address bits, preserving metadata.
    Wraps within the 48-bit address space, as [addg]-style arithmetic
    does. *)

val tag : t -> Tag.t
(** The MTE logical tag held in bits 56-59. *)

val with_tag : t -> Tag.t -> t
(** [with_tag p t] replaces bits 56-59 of [p] with [t]. *)

(** {1 PAC signature fields} *)

type pac_layout = {
  mte_enabled : bool;  (** MTE reserves bits 56-59 when enabled. *)
}

val pac_bits : pac_layout -> int
(** Width of the signature field: 10 bits with MTE, 14 without
    (bits 63-60/63-56 plus 54-49). *)

val pac_field : pac_layout -> t -> int
(** Extract the PAC signature bits as an integer. *)

val with_pac_field : pac_layout -> t -> int -> t
(** Insert a signature value into the PAC bits; extra high bits of the
    value are discarded. *)

val clear_pac_field : pac_layout -> t -> t
(** Zero the PAC bits, i.e. the effect of a successful [aut*] or of
    [xpacd]. *)

(** {1 Sandbox masking (paper Fig. 13)} *)

val mask_external_only : t -> t
(** Clear bits 56-59 of an untrusted WASM index: used when only
    MTE-based sandboxing is active, so the guest cannot smuggle any tag
    bits into the effective address (Fig. 13a). *)

val mask_combined : t -> t
(** Clear bit 56 only: used when internal memory safety (bits 57-59) and
    sandboxing (bit 56) are combined, leaving the guest its three
    internal-safety tag bits (Fig. 13b). *)

val pp : Format.formatter -> t -> unit
(** Hex rendering with the tag field highlighted. *)
