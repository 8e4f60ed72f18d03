(* Energy explorer: run one benchmark under every operand-gating policy
   and print the per-structure energy breakdown — the hardware/software
   trade-off of the paper's §4.7, on one workload.

   Run with: dune exec examples/energy_explorer.exe [-- <workload>] *)

module Workload = Ogc_workloads.Workload
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Account = Ogc_energy.Account
module Ep = Ogc_energy.Energy_params
module Vrp = Ogc_core.Vrp
module Render = Ogc_harness.Render

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "m88ksim" in
  let w =
    try Workload.find name
    with Not_found ->
      Format.eprintf "unknown workload %s; try one of: %s@." name
        (String.concat ", "
           (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all));
      exit 1
  in
  Format.printf "workload: %s — %s (train input)@.@." w.Workload.name
    w.Workload.description;
  (* Two binaries: the baseline and the VRP-re-encoded one. *)
  let base = Workload.compile w Workload.Train in
  let opt = Workload.compile w Workload.Train in
  ignore (Vrp.run opt);
  (* Each binary is simulated once; every policy only prices its run. *)
  let base = Pipeline.run base and opt = Pipeline.run opt in
  let runs =
    [ ("none", Policy.No_gating, base);
      ("sw (VRP widths)", Policy.Software, opt);
      ("hw significance", Policy.Hw_significance, base);
      ("hw size", Policy.Hw_size, base);
      ("sw + significance", Policy.Sw_plus_significance, opt);
      ("sw + size", Policy.Sw_plus_size, opt) ]
  in
  let stats =
    List.map (fun (n, policy, r) -> (n, Pipeline.price ~policy r)) runs
  in
  let baseline = List.assoc "none" stats in
  let e s = Account.total s.Pipeline.energy in
  Format.printf "%s"
    (Render.table
       ~header:[ "Policy"; "Energy (nJ)"; "Cycles"; "Saving"; "ED^2 saving" ]
       (List.map
          (fun (n, s) ->
            [ n;
              Printf.sprintf "%.0f" (e s);
              string_of_int s.Pipeline.cycles;
              Render.pct (Account.savings ~baseline:(e baseline) ~improved:(e s));
              Render.pct
                (Account.savings
                   ~baseline:
                     (Account.ed2 ~energy:(e baseline)
                        ~cycles:baseline.Pipeline.cycles)
                   ~improved:(Account.ed2 ~energy:(e s) ~cycles:s.Pipeline.cycles))
            ])
          stats));
  (* Per-structure breakdown for the most interesting pair. *)
  let sw = List.assoc "sw (VRP widths)" stats in
  let hw = List.assoc "hw significance" stats in
  Format.printf "@.Per-structure savings vs the ungated baseline:@.%s"
    (Render.table
       ~header:[ "Structure"; "software (VRP)"; "hw significance" ]
       (List.map
          (fun st ->
            let sv s =
              Account.savings
                ~baseline:(Account.energy_of baseline.Pipeline.energy st)
                ~improved:(Account.energy_of s.Pipeline.energy st)
            in
            [ Ep.structure_name st; Render.pct (sv sw); Render.pct (sv hw) ])
          [ Ep.Iq; Ep.Rename_buffers; Ep.Lsq; Ep.Regfile; Ep.Dcache1; Ep.Alu;
            Ep.Resultbus ]));
  Format.printf "@.IPC %.2f, %d branches (%.1f%% mispredicted), %d L1D misses@."
    (Pipeline.ipc baseline) baseline.Pipeline.branches
    (100.0
    *. float_of_int baseline.Pipeline.mispredictions
    /. float_of_int (max 1 baseline.Pipeline.branches))
    baseline.Pipeline.dcache_misses
