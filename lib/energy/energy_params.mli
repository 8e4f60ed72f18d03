(** Per-structure energy parameters (the Wattch substitute).

    The model assigns each microarchitectural structure a per-access base
    energy and a {e width fraction}: the share of that energy spent in the
    data path proper, which scales with the number of active bytes when
    operand gating is in effect.  Gated-off bytes still cost a small
    residual (conditional-clocking overhead), as in Wattch's aggressive
    conditional-clocking style.

    Values are in nanojoules per access, loosely calibrated against
    Wattch's 0.35µm tables for the Table 2 machine.  Absolute magnitudes
    are not meant to match the paper's testbed; the per-structure
    proportions (and hence the savings {e shapes}) are what matter.  The
    width fractions encode the paper's observation set: data-intensive
    structures (functional units, register file, instruction queue
    payload, rename buffers, result buses) gate most of their energy,
    while address-dominated structures (LSQ, D-cache) gate little. *)

type structure =
  | Rename
  | Bpred
  | Iq  (** instruction queue / issue window *)
  | Rob
  | Rename_buffers  (** in-flight result value storage *)
  | Lsq
  | Regfile
  | Icache
  | Dcache1
  | Dcache2
  | Alu
  | Muldiv
  | Resultbus
  | Clock  (** global clock + unaccounted fixed overhead, per cycle *)

val all_structures : structure list
val structure_name : structure -> string

val index : structure -> int
(** Position of a structure in {!all_structures}: [0 .. count - 1]. *)

val count : int
(** Number of structures. *)

type t = {
  base : structure -> float;  (** nJ per access (per cycle for [Clock]) *)
  width_fraction : structure -> float;
      (** fraction of [base] that scales with active bytes *)
  residual : float;  (** energy fraction retained by a gated-off byte *)
  tag_bit_nj : float;  (** nJ per tag bit carried with a value access *)
}

val default : t

(** [with_residual t r] varies the conditional-clocking aggressiveness:
    the energy fraction a gated-off byte still burns.  Wattch's clock
    gating styles map to [0.0] (ideal gating), [0.10] (the default,
    Wattch's aggressive style with overhead) and [0.25] (conservative
    gating).  Raises [Invalid_argument] outside [0, 1]. *)
val with_residual : t -> float -> t

val ideal_gating : t
val conservative_gating : t

(** [access_energy params s ~active_bytes ~tag_bits] is the energy of one
    access to structure [s] moving a value with [active_bytes] of 8 bytes
    powered and [tag_bits] of tag overhead. *)
val access_energy : t -> structure -> active_bytes:int -> tag_bits:int -> float

(** [alu_energy params ~width_bytes] — full-width ALU operation energy at a
    given gated width; used to derive the paper's Table 1 savings matrix. *)
val alu_energy : t -> width_bytes:int -> float
