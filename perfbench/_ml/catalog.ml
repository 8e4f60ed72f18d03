(* Every metric the benchmark reports, with its unit.  BENCHMARK.json at
   the repository root lists the same names; the self-test checks that
   the two agree. *)

let workloads = [ "grid"; "serve-cold"; "fleet-hot" ]

(* Untraced runs: what a user of the batch harness or the service sees. *)
let end_to_end =
  [ ("wall_s", "s");
    ("p50_ms", "ms");
    ("p80_ms", "ms");
    ("p99_ms", "ms");
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB") ]

(* Printed with the end-to-end metrics but not part of the JSON result:
   it is 0 on a healthy run, and the result's [failed]/[attempted]
   members already carry it. *)
let failed_frac = ("failed_frac", "ratio")

(* Traced runs: one series per layer boundary the benchmark calls. *)
let per_layer =
  [ ("harness.baselines_s", "s");
    ("harness.analyses_s", "s");
    ("harness.versions_s", "s");
    ("minic.parse_s", "s");
    ("minic.lower_s", "s");
    ("minic.static_insns", "count");
    ("regalloc.alloc_s", "s");
    ("regalloc.spill_slot_bytes", "bytes");
    ("ir.interp_s", "s");
    ("ir.interp_steps", "count");
    ("ir.interp_ns_per_step", "ns/step");
    ("cpu.simulate_s", "s");
    ("cpu.simulate_calls", "count");
    ("cpu.sim_insns", "count");
    ("cpu.sim_cycles", "count");
    ("cpu.sim_ns_per_insn", "ns/insn");
    ("cpu.minor_words_per_insn", "words/insn");
    ("cpu.model_ns_per_insn", "ns/insn");
    ("cpu.sim_useful_ratio", "ratio");
    ("energy.model_nj", "nJ");
    ("core.vrp_s", "s");
    ("core.vrp_visits", "count");
    ("core.vrs_analyze_s", "s");
    ("core.vrs_specialize_s", "s");
    ("core.vrs_points", "count");
    ("pass.chain_s", "s");
    ("pass.store_hits", "count");
    ("pass.store_misses", "count");
    ("pass.store_hit_ratio", "ratio");
    ("server.decode_s", "s");
    ("server.key_s", "s");
    ("server.analyze_s", "s");
    ("server.encode_s", "s");
    ("server.handle_ms", "ms");
    ("server.wire_wait_ms", "ms");
    ("server.cache_hit_ratio", "ratio");
    ("server.rejected", "count");
    ("server.stale_served", "count");
    ("server.respecializations", "count");
    ("server.profile_pushes", "count");
    ("fleet.route_ms", "ms");
    ("fleet.ring_lookup_ns", "ns");
    ("fleet.hedged", "count");
    ("fleet.failovers", "count");
    ("fleet.promotions", "count");
    ("fleet.replica_hits", "count");
    ("fleet.replica_puts", "count");
    ("json.decode_ns_per_byte", "ns/B");
    ("json.encode_ns_per_byte", "ns/B");
    ("json.response_bytes", "bytes");
    ("obs.trace_overhead_frac", "ratio");
    ("obs.unattributed_frac", "ratio") ]

(* Counters that must repeat exactly between two traced runs of the same
   inputs. *)
let deterministic =
  [ "cpu.simulate_calls"; "cpu.sim_insns"; "cpu.sim_cycles";
    "energy.model_nj"; "ir.interp_steps"; "core.vrp_visits";
    "pass.store_hits"; "pass.store_misses"; "minic.static_insns" ]

let valid_name n =
  n <> ""
  && String.length n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

let valid_unit u =
  u <> ""
  && String.length u <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
           true
         | _ -> false)
       u
