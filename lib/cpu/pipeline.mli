(** Trace-driven out-of-order timing and energy model.

    The reference interpreter supplies the committed dynamic instruction
    stream; the pipeline model replays it against the Table 2 machine:
    4-wide in-order fetch through a real I-cache and combined branch
    predictor (mispredictions stall the front end until the branch
    resolves), in-order dispatch limited by the 64-entry window, dataflow
    issue limited by issue width and functional units, D-cache/L2/memory
    latencies for loads, and 4-wide in-order commit.

    Known approximations (documented in DESIGN.md): wrong-path fetch
    energy is not modelled (the trace holds committed instructions only);
    loads do not stall on unresolved store addresses (no memory
    disambiguation conflicts); returns are predicted perfectly (RAS).

    The model is split in two layers.  {!run} replays the program once
    and counts, besides the timing outcome, the activity of every energy
    structure ({!Ogc_energy.Activity}); it knows nothing of gating.
    {!price} turns that activity into per-structure energy under one
    {!Ogc_gating.Policy} (opcode widths for software gating, per-value
    significance for the hardware schemes), a memory mode and a set of
    energy parameters.  One run prices under any number of policies;
    {!simulate} is the two in sequence. *)

open Ogc_isa
open Ogc_ir

(** How narrow values are kept in the data cache (paper §2.4); see
    {!Ogc_energy.Activity.memory_mode}. *)
type memory_mode = Ogc_energy.Activity.memory_mode = Tagged | Sign_extend

type stats = {
  cycles : int;
  instructions : int;  (** committed, terminators included *)
  branches : int;
  mispredictions : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  l2_misses : int;
  energy : Ogc_energy.Account.t;
  class_width : (Instr.iclass * Width.t, int) Hashtbl.t;
      (** committed instructions per class and encoded width *)
  opcode_counts : (int, int) Hashtbl.t;
      (** committed instructions per numeric opcode
          (see {!Ogc_isa.Encoding}); used by the §4.3 opcode-extension
          accounting *)
  sigbyte_histogram : int array;
      (** index 0..7 = result values needing 1..8 significant bytes *)
  checksum : int64;  (** from the functional run, for cross-checking *)
}

type run
(** One simulated run: the timing outcome and the activity counts, not
    yet priced. *)

val run :
  ?machine:Machine_config.t ->
  ?interp_config:Interp.config ->
  ?spill_bytes_of:(int -> int option) ->
  Prog.t ->
  run
(** Simulate the program once.  Recorded as a ["simulate"] span.

    [spill_bytes_of iid] identifies register-allocator spill
    loads/stores by instruction id and returns their slot width in
    bytes.  A spill access moves at most that many bytes under every
    policy (the allocator proved the value fits), and its bytes are
    additionally recorded in the account's
    {!Ogc_energy.Account.spill_traffic} counter.  Defaults to
    [fun _ -> None] (no instruction is a spill). *)

val instructions : run -> int
val checksum : run -> int64

val price :
  ?params:Ogc_energy.Energy_params.t ->
  ?memory_mode:memory_mode ->
  policy:Ogc_gating.Policy.t ->
  run ->
  stats
(** The run's stats with its energy priced under [policy] (see
    {!Ogc_energy.Activity.price}; [memory_mode] defaults to [Tagged]).
    Every other field is the run's own, whatever the policy. *)

val simulate :
  ?machine:Machine_config.t ->
  ?params:Ogc_energy.Energy_params.t ->
  ?interp_config:Interp.config ->
  ?memory_mode:memory_mode ->
  ?spill_bytes_of:(int -> int option) ->
  policy:Ogc_gating.Policy.t ->
  Prog.t ->
  stats
(** [price ~policy (run p)], passing each option to the layer it
    belongs to.  To price one program under several policies, call
    {!run} once and {!price} per policy. *)

(** [ipc stats] = instructions / cycles. *)
val ipc : stats -> float
