(** End-to-end experiment data collection.

    For every workload, build and evaluate all the binary versions and
    gating policies the paper's evaluation needs:

    - the {b baseline} binary under no gating and under the two hardware
      schemes (significance and size compression);
    - the {b VRP} binary (useful-range propagation) under software gating
      and the two cooperative software+hardware policies;
    - the {b conventional-VRP} binary (Figure 2's comparison point);
    - the {b VRS} binaries for the five specialization-cost
      configurations (the paper's VRS 110/90/70/50/30 sweep; profiling
      always runs on the train input, evaluation on ref);
    - an execution profile of the VRS-50 binary for the run-time
      specialized-instruction accounting of Figure 6.

    The grid is embarrassingly parallel, and {!collect} shards it over an
    {!Ogc_exec.Pool} of domains: each workload is compiled once and the
    pristine program shared read-only; every binary-version task
    transforms its own {!Ogc_ir.Prog.copy}.  Results are reassembled in
    workload order, so the output is identical whatever the parallelism
    degree.

    Each binary version is expressed as an {!Ogc_pass.Pass} chain run
    against a per-workload artifact store.  A dedicated analyses phase
    warms the store with the guard-cost-independent front of the VRS
    pipeline (cleanup, VRP, width encoding, the training basic-block
    profile and the TNV value profiles) on the train input, so the
    five-cost sweep computes the VRP fixpoint once and runs the two
    training interpreter passes once per workload instead of once per
    cost point.  Store hits restore byte-identical program snapshots, so
    collections are identical with or without a warm store.

    Semantic equality (output checksums) across every version and policy
    is asserted during collection — an optimized binary that changes the
    program's output is a hard error. *)

open Ogc_isa
module Pipeline = Ogc_cpu.Pipeline

(** The paper's VRS cost labels (nJ), most expensive first. *)
val vrs_costs : int list

(** [test_cost_of_label l] maps a label (e.g. 50) to the model's
    per-guard-instruction energy parameter. *)
val test_cost_of_label : int -> float

(** What Figures 4 and 5 need from a {!Ogc_core.Vrs.report}, in a form
    that serializes: profiled-point outcome counts and the static clone
    accounting. *)
type vrs_summary = {
  points_specialized : int;
  points_dependent : int;
  points_no_benefit : int;
  static_cloned : int;
  static_eliminated : int;
}

val summarize_report : Ogc_core.Vrs.report -> vrs_summary

type wres = {
  wname : string;
  static_instructions : int;
  spill_slots_bytes : int;
      (** width-aware spill-slot bytes the allocator laid out across the
          program; 0 when nothing spilled *)
  spill_slots_naive_bytes : int;
      (** what the same slots would occupy at a uniform 8 bytes each;
          the dynamic counterpart is
          [Ogc_energy.Account.spill_traffic base_none.energy] *)
  base_none : Pipeline.stats;
  base_hwsig : Pipeline.stats;
  base_hwsize : Pipeline.stats;
  vrp_sw : Pipeline.stats;
  vrpconv_sw : Pipeline.stats;
  vrp_sig : Pipeline.stats;
  vrp_size : Pipeline.stats;
  vrs : (int * Pipeline.stats) list;  (** by cost label, software gating *)
  vrs50_sig : Pipeline.stats;
  vrs50_size : Pipeline.stats;
  vrs_reports : (int * vrs_summary) list;
  vrs50_spec_frac : float;  (** run-time fraction executed inside clones *)
  vrs50_guard_frac : float;  (** run-time fraction of guard comparisons *)
}

(** One workload's analyze-throughput microbench (sequential, train
    input, after cleanup): dense {!Ogc_core.Vrp.analyze} wall seconds
    (best of 5), the retained naive reference engine's seconds (one
    repetition), and the dense engine's deterministic effort counters. *)
type analyze_bench = {
  ab_seconds : float;
  ab_naive_seconds : float;
  ab_visits : int;
  ab_rounds : int;
  ab_defs : int;
}

(** One serve-fleet loadgen run (router in front of sharded [ogc serve]
    instances, one shard killed mid-run): completion counts and the
    client-observed latency percentiles from the loadgen histogram.
    [fb_failed] is the number of submissions that exhausted their retry
    budget — the fleet-smoke criterion is that it stays zero even
    through the shard kill. *)
type fleet_bench = {
  fb_shards : int;
  fb_requests : int;
  fb_failed : int;
  fb_hedged : int;  (** requests that got a hedged second copy *)
  fb_p50_ms : float;
  fb_p95_ms : float;
  fb_p99_ms : float;
}

type t = {
  workloads : wres list;
  analyze : (string * analyze_bench) list;  (** by workload name *)
  fleet : fleet_bench option;  (** populated by the bench driver *)
  quick : bool;
  simulations : int;
      (** {!Pipeline.run} calls the collection made: one per program
          version, priced under every policy reported for it (0 when
          read from a file that predates the counter) *)
  sim_instructions : int;  (** dynamic instructions over those runs *)
}

val collect :
  ?quick:bool ->
  ?only:string list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  unit ->
  t
(** [quick] evaluates on the train input and keeps only the VRS-50
    configuration (duplicated across labels), for fast test runs; [only]
    restricts collection to the named workloads.  [jobs] is the domain
    count ([Some 0] and [None] mean auto: [OGC_JOBS] or the machine's
    recommended domain count; see {!Ogc_exec.Pool.resolve_jobs}).
    [progress] may be invoked from worker domains, one call at a time. *)

val collect_timed :
  ?quick:bool ->
  ?only:string list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  unit ->
  t * (string * float) list
(** {!collect} plus per-phase wall seconds, in phase order (currently
    ["baselines"] — compile + reference run + hardware-gated baselines —
    then ["analyses"] — per-workload warm-up of the shared VRS analysis
    front in the pass-artifact store — then ["versions"] — the
    (workload × binary version) grid of pass chains — then
    ["analyze-bench"] — the sequential analyze-throughput microbench).
    The phases also appear as {!Ogc_obs.Span} spans when tracing is
    on. *)

(** {1 Serialization}

    A hand-rolled JSON form of a whole collection, stable enough to be
    diffed across commits: object members are emitted in a fixed order,
    numeric tables are sorted, and floats round-trip exactly.
    [of_json (to_json t)] reconstructs [t] up to the energy-parameter
    closures (rebuilt as {!Ogc_energy.Energy_params.default}), which the
    renderers never consult. *)

val to_json : t -> Ogc_json.Json.t
val of_json : Ogc_json.Json.t -> t
(** Raises [Ogc_json.Json.Parse_error] on a malformed or wrong-format
    tree. *)

(** {1 Regression comparison}

    CI calls this with the checked-in baseline JSON to guard the perf
    trajectory: modelled energy must not grow and modelled IPC must not
    drop by more than a threshold on any (workload, binary version)
    cell. *)

type regression = {
  r_workload : string;
  r_config : string;  (** e.g. "vrp_sw", "vrs50", "spill" *)
  r_metric : string;
      (** "energy_nj", "ipc", or a spill metric ("spill_slots_bytes",
          "spill_traffic", "spill_width_win") *)
  r_baseline : float;
  r_current : float;
  r_delta_frac : float;  (** fractional worsening, always >= 0 *)
}

val compare_to_baseline :
  time_tolerance:float ->
  baseline:t -> current:t -> threshold:float -> regression list
(** Cells worse than [baseline] by more than [threshold] (a fraction,
    e.g. [0.05]): higher total energy or lower IPC.  Only workloads and
    VRS labels present in both collections are compared; a [quick] /
    full mode mismatch compares nothing and reports a single pseudo
    regression on the ["mode"] cell so CI fails loudly instead of
    vacuously passing.  The analyze-throughput series is also gated:
    the fixpoint's visit and round counts (deterministic) exactly — any
    change in either direction regresses — and analyze wall seconds
    (noisy) against [time_tolerance] ([0.5] means 50% slower than
    baseline fails).  The spill series gates growth of
    static width-aware slot bytes and of baseline spill traffic per
    workload against [threshold] (spilling appearing where the baseline
    had none is flagged outright), and additionally regresses when a
    workload whose baseline slots were strictly narrower than naive
    8-byte slots loses that property.  The fleet series, when both
    collections carry comparable runs (same shard and request counts),
    gates failed submissions exactly — any increase regresses — and the
    p50/p95 latencies against [time_tolerance].  The work counters
    [simulations] and [sim_instructions] are gated exactly (any change
    regresses) when the baseline recorded them and both collections
    cover the same workloads. *)

val render_regressions : regression list -> string

(** {1 Aggregation helpers} *)

(** Distribution of committed width-bearing instructions (the ten Table 3
    ALU classes plus immediate moves) over the four widths; fractions sum
    to 1. *)
val width_distribution : Pipeline.stats -> (Width.t * float) list

(** Average of distributions across workloads. *)
val average_distribution :
  t -> (wres -> Pipeline.stats) -> (Width.t * float) list

(** Table 3 rows: class, share of committed instructions, and width
    percentages within the class, averaged over workloads and ordered by
    share. *)
val class_table : t -> (wres -> Pipeline.stats) ->
  (Instr.iclass * float * (Width.t * float) list) list

(** Mean over workloads of a per-workload fraction. *)
val mean : t -> (wres -> float) -> float

(** [energy_saving w ~improved] — fraction of baseline (ungated) energy
    saved by [improved]. *)
val energy_saving : wres -> improved:Pipeline.stats -> float

val time_saving : wres -> improved:Pipeline.stats -> float
val ed2_saving : wres -> improved:Pipeline.stats -> float

(** Per-structure energy saving of [improved] vs the ungated baseline. *)
val structure_saving :
  wres -> improved:Pipeline.stats -> Ogc_energy.Energy_params.structure -> float

(** Total energy (nJ) of a run. *)
val total_energy : Pipeline.stats -> float
