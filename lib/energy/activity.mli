(** Policy-free activity counts of one simulated run, and their pricing.

    The cycle simulator does not decide energy.  It counts events per
    structure, and {!price} turns the counts into an {!Account.t} under
    any gating policy, memory mode and set of energy parameters
    (Wattch's split: activity from the simulator, per-access energies
    from the power model).

    A width-scaled access is recorded as one count in the cell for its
    instruction's encoded width and the significant bytes of its widest
    value operand.  That is exact for every policy: each policy sees a
    value only through its significant bytes and never charges fewer
    bytes for more of them (see
    {!Ogc_gating.Policy.active_bytes_of_significance}), so the widest
    operand decides a multi-operand access.  Memory accesses (LSQ and
    L1 D-cache) additionally record the register allocator's spill-slot
    cap on the bytes moved. *)

open Ogc_isa

(** How narrow values are kept in the data cache (paper §2.4): with two
    size-tag bits per value (the paper's choice, more energy benefit), or
    sign-extended to full width at the cache boundary (no cache-side
    gating, no tag overhead). *)
type memory_mode = Tagged | Sign_extend

type t

val create : unit -> t

val cell : Width.t -> int -> int
(** [cell width significant] is the index recording a value of
    [significant] (1..8) significant bytes flowing through an
    instruction encoded at [width]. *)

val access : t -> Energy_params.structure -> int -> unit
(** [access t s c] records one width-scaled access to [s] in cell [c].
    The instruction queue, register file and rename buffers carry the
    policy's tag bits with the value; the functional units and the
    result bus carry none. *)

val access_n : t -> Energy_params.structure -> int -> int -> unit
(** [access_n t s c n] records [n] such accesses. *)

val memory : t -> int -> cap:int -> unit
(** [memory t c ~cap] records one load or store: an LSQ and an L1
    D-cache access moving the value of cell [c], at most [cap] bytes
    (8 for an ordinary access, the slot width for a spill). *)

val fixed : t -> Energy_params.structure -> int -> unit
(** [fixed t s n] records [n] full-width, untagged accesses (per cycle
    for {!Energy_params.Clock}). *)

val spill : t -> int -> unit
(** [spill t bytes] records the bytes moved by one register-allocator
    spill load or store (see {!Account.spill_traffic}). *)

val price :
  ?params:Energy_params.t ->
  ?memory_mode:memory_mode ->
  policy:Ogc_gating.Policy.t ->
  t ->
  Account.t
(** The run's energy under [policy]: per structure, the sum over cells
    of count × per-access energy.  [params] defaults to
    {!Energy_params.default} and [memory_mode] to [Tagged].  Pure: the
    activity record is not changed, so one run prices under any number
    of policies.  Recorded as a ["price"] span carrying the policy. *)
