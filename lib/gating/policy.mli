(** Operand-gating policies (paper §4).

    A policy decides, per dynamic value, how many of the 8 data-path bytes
    are active; the energy model charges gated-off bytes only a small
    residual.  The software policy gates from the instruction's encoded
    width; the hardware policies gate from the dynamic value (at the price
    of per-word tag bits); the cooperative policies combine both. *)

open Ogc_isa

type t =
  | No_gating
  | Software  (** opcode-width gating after VRP/VRS re-encoding *)
  | Hw_significance  (** per-byte significance compression, 7 tag bits *)
  | Hw_size  (** {1,2,5,8}-byte size compression, 2 tag bits *)
  | Sw_plus_significance
  | Sw_plus_size

val all : t list
val name : t -> string

(** [active_bytes policy ~width ~value] is the number of data-path bytes
    that must stay powered for a value [value] flowing through an
    instruction encoded at [width]. *)
val active_bytes : t -> width:Width.t -> value:int64 -> int

(** [active_bytes_of_significance policy ~width ~significant] is
    {!active_bytes} for any value with [significant] significant bytes
    (see {!Sigbytes.significant_bytes}).  Every policy sees a value only
    through that count, and the result never decreases as it grows: so
    the widest of several operands prices a multi-operand access, and
    activity recorded as (width, significant bytes) counts is enough to
    price a run under any policy. *)
val active_bytes_of_significance : t -> width:Width.t -> significant:int -> int

(** Tag storage overhead in bits per 64-bit word carried through the
    pipeline ([0] for ungated and software-only policies — the opcode
    carries the width). *)
val tag_bits : t -> int

(** Tag storage overhead per value {e in the caches} (paper §2.4: the
    software scheme stores two size bits with each memory value so narrow
    values stay narrow in the cache; the hardware schemes store their own
    tags). *)
val memory_tag_bits : t -> int

(** Does the policy use the software (opcode) widths?  Determines which
    binary version an experiment must run. *)
val uses_software_widths : t -> bool
