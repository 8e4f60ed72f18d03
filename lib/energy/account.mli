(** Energy accounting: per-structure totals of one priced run, and
    derived metrics.  Built by {!Activity.price} (or rebuilt from
    serialized results by {!of_values}); immutable. *)

type t

val params : t -> Energy_params.t

val spill_traffic : t -> float
(** Total bytes moved by register-allocator spill loads/stores (a
    traffic counter, not an energy term: the accesses themselves are
    priced into the memory structures like any other).  See
    {!Activity.spill}. *)

val of_values :
  ?params:Energy_params.t ->
  ?spill:float ->
  (Energy_params.structure * float) list ->
  t
(** An account holding the given per-structure totals (structures not
    listed hold 0).  {!Activity.price} builds every account this way, and
    serialized results are rebuilt with it; [params] defaults to
    {!Energy_params.default} and [spill] (bytes, see {!spill_traffic})
    to 0. *)

val energy_of : t -> Energy_params.structure -> float
(** Accumulated nJ in one structure. *)

val total : t -> float

val by_structure : t -> (Energy_params.structure * float) list
(** In {!Energy_params.all_structures} order. *)

(** {1 Metrics} *)

(** [ed2 ~energy ~cycles] is the energy-delay² product. *)
val ed2 : energy:float -> cycles:int -> float

(** [savings ~baseline ~improved] is the fractional reduction
    [(baseline - improved) / baseline]; 0 when the baseline is 0. *)
val savings : baseline:float -> improved:float -> float
