(** Memoized ungated-baseline runs.

    Every analysis compares its result against the untransformed
    program run without gating.  That run depends only on the program
    and the evaluation input, so all option variants of one program (the
    VRS cost sweep, policy flips, pass choices) share it.  The server
    keeps one {!Ogc_cpu.Pipeline.run} per (program, input), bounded
    with FIFO eviction, and prices it per request. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) bounds the number of runs kept. *)

val find_or_run : t -> string -> (unit -> Ogc_cpu.Pipeline.run) -> Ogc_cpu.Pipeline.run
(** [find_or_run t key run] is the run stored under [key], or [run ()]
    stored under it.  Safe to call from several domains; two concurrent
    misses on one key both run, and the first stored is kept. *)

val stats : t -> int * int * int
(** (entries, hits, misses). *)
