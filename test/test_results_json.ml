(* Machine-readable results: JSON printer/parser, collection round-trip,
   parallel-vs-sequential byte identity, and the CI regression diff. *)

module Results = Ogc_harness.Results
module Experiments = Ogc_harness.Experiments
module Json = Ogc_json.Json
module Account = Ogc_energy.Account
module Pipeline = Ogc_cpu.Pipeline

(* --- the Json module itself ------------------------------------------------ *)

let test_json_basics () =
  let v =
    Json.Obj
      [
        ("a", Json.Int (-3));
        ("b", Json.Float 0.1);
        ("c", Json.Str "a \"quoted\"\nline\t\\");
        ("d", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty_arr", Json.Arr []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("x", Json.Arr [ Json.Int 1; Json.Float 2.5 ]) ]);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "pretty round-trip" true (Json.of_string s = v);
  let s2 = Json.to_string ~indent:false v in
  Alcotest.(check bool) "compact round-trip" true (Json.of_string s2 = v);
  (* Printing is a fixed point: parse-then-print returns the same bytes. *)
  Alcotest.(check string) "stable bytes" s
    (Json.to_string (Json.of_string s));
  (* Doubles survive exactly, including ugly ones. *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Json.Float f' -> Alcotest.(check (float 0.0)) "exact float" f f'
      | Json.Int i -> Alcotest.(check (float 0.0)) "as int" f (float_of_int i)
      | _ -> Alcotest.fail "not a number")
    [ 0.1; 1.0 /. 3.0; 1e-300; 6.02e23; -0.0; 12345.0 ]

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "\"unterminated";
  bad "1 2";
  Alcotest.check_raises "shape error names the member"
    (Json.Parse_error "member \"n\": expected an integer")
    (fun () -> ignore (Json.get_int "n" (Json.Obj [ ("n", Json.Str "x") ])))

(* --- collection round-trip -------------------------------------------------- *)

(* One small workload, collected once and shared by the tests below. *)
let collected = lazy (Results.collect ~quick:true ~only:[ "compress" ] ~jobs:2 ())

let test_roundtrip () =
  let r = Lazy.force collected in
  let j = Results.to_json r in
  let s = Json.to_string j in
  let r' = Results.of_json (Json.of_string s) in
  Alcotest.(check string) "to_json is a fixed point under of_json" s
    (Json.to_string (Results.to_json r'));
  (* The reconstruction renders every table and figure identically. *)
  Alcotest.(check string) "all renderers agree" (Experiments.render_all r)
    (Experiments.render_all r');
  Alcotest.(check string) "headline agrees"
    (Experiments.render_headline (Experiments.headline r))
    (Experiments.render_headline (Experiments.headline r'))

let test_parallel_collection_identical () =
  (* The acceptance bar: the collection grid sharded over domains gives
     byte-identical reports to the sequential run.  Analyze wall times
     are clock noise, not results — scrub them before comparing; the
     deterministic visit/round/def counters stay under the check. *)
  let scrub (r : Results.t) =
    { r with
      Results.analyze =
        List.map
          (fun (n, ab) ->
            (n, { ab with Results.ab_seconds = 0.0; ab_naive_seconds = 0.0 }))
          r.Results.analyze }
  in
  let r1 = scrub (Results.collect ~quick:true ~only:[ "compress" ] ~jobs:1 ()) in
  let r2 = scrub (Lazy.force collected) in
  Alcotest.(check string) "render_all identical" (Experiments.render_all r1)
    (Experiments.render_all r2);
  Alcotest.(check string) "json identical"
    (Json.to_string (Results.to_json r1))
    (Json.to_string (Results.to_json r2))

(* --- regression diff --------------------------------------------------------- *)

let scale_energy factor (s : Pipeline.stats) =
  { s with
    Pipeline.energy =
      Account.of_values
        (List.map (fun (st, e) -> (st, e *. factor))
           (Account.by_structure s.Pipeline.energy)) }

let scale_cycles factor (s : Pipeline.stats) =
  { s with Pipeline.cycles = int_of_float (float_of_int s.Pipeline.cycles *. factor) }

let test_regression_diff () =
  let r = Lazy.force collected in
  Alcotest.(check int) "self-diff is clean" 0
    (List.length
       (Results.compare_to_baseline ~time_tolerance:0.5 ~baseline:r ~current:r ~threshold:0.05));
  (* A baseline whose vrp_sw burned half the energy: the current run now
     regresses on exactly that cell's energy metric. *)
  let better =
    { r with
      Results.workloads =
        List.map
          (fun w -> { w with Results.vrp_sw = scale_energy 0.5 w.Results.vrp_sw })
          r.Results.workloads }
  in
  let regs =
    Results.compare_to_baseline ~time_tolerance:0.5 ~baseline:better ~current:r ~threshold:0.05
  in
  Alcotest.(check int) "one energy regression" 1 (List.length regs);
  let reg = List.hd regs in
  Alcotest.(check string) "config" "vrp_sw" reg.Results.r_config;
  Alcotest.(check string) "metric" "energy_nj" reg.Results.r_metric;
  Alcotest.(check bool) "~100% worse" true
    (reg.Results.r_delta_frac > 0.9 && reg.Results.r_delta_frac < 1.1);
  Alcotest.(check bool) "report renders" true
    (String.length (Results.render_regressions regs) > 40);
  (* A faster baseline trips the IPC metric. *)
  let faster =
    { r with
      Results.workloads =
        List.map
          (fun w ->
            { w with Results.base_none = scale_cycles 0.5 w.Results.base_none })
          r.Results.workloads }
  in
  let regs =
    Results.compare_to_baseline ~time_tolerance:0.5 ~baseline:faster ~current:r ~threshold:0.05
  in
  Alcotest.(check int) "one ipc regression" 1 (List.length regs);
  Alcotest.(check string) "ipc metric" "ipc" (List.hd regs).Results.r_metric;
  (* Within tolerance: a 3% energy bump under a 5% threshold is clean. *)
  let slightly =
    { r with
      Results.workloads =
        List.map
          (fun w -> { w with Results.vrp_sw = scale_energy 0.97 w.Results.vrp_sw })
          r.Results.workloads }
  in
  Alcotest.(check int) "3% < 5% tolerance" 0
    (List.length
       (Results.compare_to_baseline ~time_tolerance:0.5 ~baseline:slightly ~current:r
          ~threshold:0.05));
  (* Mode mismatch fails loudly rather than comparing nothing. *)
  let full = { r with Results.quick = false } in
  let regs =
    Results.compare_to_baseline ~time_tolerance:0.5 ~baseline:full ~current:r ~threshold:0.05
  in
  Alcotest.(check int) "mode mismatch is one pseudo-regression" 1
    (List.length regs);
  Alcotest.(check string) "mode cell" "mode" (List.hd regs).Results.r_config

let test_work_counters () =
  let r = Lazy.force collected in
  (* Four program versions (baseline, VRP, conventional VRP, VRS-50),
     each simulated once however many policies price it. *)
  Alcotest.(check int) "one simulation per version" 4 r.Results.simulations;
  Alcotest.(check bool) "instructions counted" true
    (r.Results.sim_instructions > 0);
  let regs baseline =
    Results.compare_to_baseline ~time_tolerance:0.5 ~baseline ~current:r
      ~threshold:0.05
  in
  (* Exact in both directions: one run more or fewer regresses. *)
  List.iter
    (fun d ->
      match regs { r with Results.simulations = r.Results.simulations + d } with
      | [ reg ] ->
        Alcotest.(check string) "work cell" "work" reg.Results.r_config;
        Alcotest.(check string) "metric" "simulations" reg.Results.r_metric
      | regs -> Alcotest.failf "expected one regression, got %d" (List.length regs))
    [ 1; -1 ];
  Alcotest.(check int) "one instruction off regresses" 1
    (List.length
       (regs { r with Results.sim_instructions = r.Results.sim_instructions - 1 }));
  (* A baseline written before the counters (0: not recorded) gates
     nothing. *)
  let old =
    match Results.to_json r with
    | Json.Obj kvs ->
      Json.Obj
        (List.filter
           (fun (k, _) -> k <> "simulations" && k <> "sim_instructions")
           kvs)
    | j -> j
  in
  let old = Results.of_json (Json.of_string (Json.to_string old)) in
  Alcotest.(check int) "absent counters read as 0" 0 old.Results.simulations;
  Alcotest.(check int) "absent counters are not gated" 0 (List.length (regs old))

let test_vrp_effort_counters () =
  let r = Lazy.force collected in
  Alcotest.(check bool) "analyze series collected" true (r.Results.analyze <> []);
  let drift f =
    { r with
      Results.analyze = List.map (fun (n, ab) -> (n, f ab)) r.Results.analyze }
  in
  (* One visit or one round off, either way, on every analyzed workload:
     each is flagged on its own cell however small the drift. *)
  List.iter
    (fun (metric, f) ->
      let regs =
        Results.compare_to_baseline ~time_tolerance:0.5 ~baseline:(drift f)
          ~current:r ~threshold:0.05
      in
      Alcotest.(check int)
        (metric ^ " drift flagged per workload")
        (List.length r.Results.analyze) (List.length regs);
      List.iter
        (fun reg ->
          Alcotest.(check string) "analyze cell" "analyze" reg.Results.r_config;
          Alcotest.(check string) "metric" metric reg.Results.r_metric)
        regs)
    [ ("analyze_visits", fun ab -> { ab with Results.ab_visits = ab.Results.ab_visits + 1 });
      ("analyze_visits", fun ab -> { ab with Results.ab_visits = ab.Results.ab_visits - 1 });
      ("analyze_rounds", fun ab -> { ab with Results.ab_rounds = ab.Results.ab_rounds + 1 });
      ("analyze_rounds", fun ab -> { ab with Results.ab_rounds = ab.Results.ab_rounds - 1 }) ]

let test_perturbed_json_baseline () =
  (* End-to-end through the serialized form, as CI uses it: write the
     baseline, reload it, perturb the current run, expect a hit. *)
  let r = Lazy.force collected in
  let baseline = Results.of_json (Json.of_string (Json.to_string (Results.to_json r))) in
  let current =
    { r with
      Results.workloads =
        List.map
          (fun w ->
            { w with Results.vrs50_sig = scale_energy 1.2 w.Results.vrs50_sig })
          r.Results.workloads }
  in
  let regs =
    Results.compare_to_baseline ~time_tolerance:0.5 ~baseline ~current ~threshold:0.05
  in
  Alcotest.(check int) "20% bump caught through JSON" 1 (List.length regs);
  Alcotest.(check string) "right cell" "vrs50_sig"
    (List.hd regs).Results.r_config

let () =
  Alcotest.run "results-json"
    [
      ( "json",
        [
          Alcotest.test_case "print/parse basics" `Quick test_json_basics;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "results",
        [
          Alcotest.test_case "of_json . to_json round-trip" `Slow test_roundtrip;
          Alcotest.test_case "parallel = sequential" `Slow
            test_parallel_collection_identical;
          Alcotest.test_case "regression diff" `Slow test_regression_diff;
          Alcotest.test_case "work counters gated exactly" `Slow
            test_work_counters;
          Alcotest.test_case "VRP effort counters gated exactly" `Slow
            test_vrp_effort_counters;
          Alcotest.test_case "diff through serialized baseline" `Slow
            test_perturbed_json_baseline;
        ] );
    ]
