(* Equivalence of the two-layer energy model with the per-policy
   simulator it replaced.

   The simulator used to run once per gating policy, charging each
   access's energy as it went.  Now one policy-free run counts activity
   and pricing turns the counts into energy.  [pricing_golden.json]
   holds what the per-policy simulator produced on the train input for
   every workload, both its cleanup baseline and its VRP-encoded binary
   (with the register allocator's spill slots), under all six policies
   and both memory modes.  One run per binary, priced twelve ways, must
   reproduce it: every integer field exactly, and per-structure and
   total energy to 1e-9 relative (counting then multiplying re-associates
   the floating-point sums, so bit equality is not expected). *)

open Ogc_isa
module Json = Ogc_json.Json
module Workload = Ogc_workloads.Workload
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Account = Ogc_energy.Account
module Ep = Ogc_energy.Energy_params
module Pass = Ogc_pass.Pass
module Regalloc = Ogc_regalloc.Regalloc

let golden_file = "pricing_golden.json"
let rel_tol = 1e-9

let binaries =
  [ ("baseline", "cleanup"); ("vrp", "cleanup,vrp,encode-widths,cleanup") ]

let modes = [ ("tagged", Pipeline.Tagged); ("sign-extend", Pipeline.Sign_extend) ]

(* (workload, binary, program, spill slot widths) *)
let programs =
  lazy
    (List.concat_map
       (fun (w : Workload.t) ->
         let pristine, alloc = Workload.compile_with_alloc w Workload.Train in
         let spill iid = Hashtbl.find_opt alloc.Regalloc.spill_ops iid in
         List.map
           (fun (bname, chain) ->
             let st, _ = Pass.run chain (Ogc_ir.Prog.copy pristine) in
             (w.Workload.name, bname, st.Pass.prog, spill))
           binaries)
       Workload.all)

let ints_to_json (s : Pipeline.stats) =
  let class_width =
    Hashtbl.fold
      (fun (ic, w) n acc -> (Instr.iclass_name ic, Width.bits w, n) :: acc)
      s.Pipeline.class_width []
    |> List.sort compare
    |> List.map (fun (c, b, n) -> Json.Arr [ Json.Str c; Json.Int b; Json.Int n ])
  in
  let opcodes =
    Hashtbl.fold (fun op n acc -> (op, n) :: acc) s.Pipeline.opcode_counts []
    |> List.sort compare
    |> List.map (fun (op, n) -> Json.Arr [ Json.Int op; Json.Int n ])
  in
  Json.Obj
    [
      ("cycles", Json.Int s.Pipeline.cycles);
      ("instructions", Json.Int s.Pipeline.instructions);
      ("branches", Json.Int s.Pipeline.branches);
      ("mispredictions", Json.Int s.Pipeline.mispredictions);
      ("icache_misses", Json.Int s.Pipeline.icache_misses);
      ("dcache_accesses", Json.Int s.Pipeline.dcache_accesses);
      ("dcache_misses", Json.Int s.Pipeline.dcache_misses);
      ("l2_misses", Json.Int s.Pipeline.l2_misses);
      ("class_width", Json.Arr class_width);
      ("opcode_counts", Json.Arr opcodes);
      ( "sigbyte_histogram",
        Json.Arr
          (Array.to_list
             (Array.map (fun n -> Json.Int n) s.Pipeline.sigbyte_histogram)) );
      ("checksum", Json.Str (Int64.to_string s.Pipeline.checksum));
      ( "spill_traffic",
        Json.Int (int_of_float (Account.spill_traffic s.Pipeline.energy)) );
    ]

let energy_to_json (s : Pipeline.stats) =
  Json.Obj
    (("total", Json.Float (Account.total s.Pipeline.energy))
    :: List.map
         (fun (st, e) -> (Ep.structure_name st, Json.Float e))
         (Account.by_structure s.Pipeline.energy))

let combos =
  List.concat_map
    (fun p -> List.map (fun (mname, m) -> (p, mname, m)) modes)
    Policy.all

let combo_key p mname = Policy.name p ^ "/" ^ mname

let golden =
  lazy
    (let ic = open_in_bin golden_file in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Json.of_string s)

let golden_entry wname bname =
  match
    List.find_opt
      (fun e ->
        String.equal (Json.get_string "workload" e) wname
        && String.equal (Json.get_string "binary" e) bname)
      (Json.get_list "programs" (Lazy.force golden))
  with
  | Some e -> e
  | None -> Alcotest.failf "%s/%s: missing from %s" wname bname golden_file

let max_drift = ref 0.0

let check_energy what expected actual =
  let drift =
    if Float.equal expected actual then 0.0
    else Float.abs (expected -. actual) /. Float.max (Float.abs expected) (Float.abs actual)
  in
  if drift > !max_drift then max_drift := drift;
  if drift > rel_tol then
    Alcotest.failf "%s: %.17g vs %.17g (relative drift %.3g > %g)" what expected
      actual drift rel_tol

let check_against what (expected : Json.t) (s : Pipeline.stats) =
  Alcotest.(check string)
    (what ^ ": integer fields")
    (Json.to_string ~indent:false (Json.member "ints" expected))
    (Json.to_string ~indent:false (ints_to_json s));
  match (Json.member "energy" expected, energy_to_json s) with
  | Json.Obj want, Json.Obj got ->
    List.iter2
      (fun (k, w) (k', g) ->
        Alcotest.(check string) (what ^ ": structure order") k k';
        (* A float printed without a fraction re-parses as an Int. *)
        match (w, g) with
        | Json.Float w, Json.Float g -> check_energy (what ^ ": " ^ k) w g
        | Json.Int w, Json.Float g ->
          check_energy (what ^ ": " ^ k) (float_of_int w) g
        | _ -> Alcotest.failf "%s: %s is not a number" what k)
      want got
  | _ -> Alcotest.failf "%s: malformed energy" what

(* One run per binary, priced under every policy and memory mode,
   against the frozen per-policy outputs. *)
let test_matches_golden () =
  List.iter
    (fun (wname, bname, prog, spill) ->
      let g = golden_entry wname bname in
      let r = Pipeline.run ~spill_bytes_of:spill prog in
      List.iter
        (fun (policy, mname, memory_mode) ->
          let what = Printf.sprintf "%s/%s/%s" wname bname (combo_key policy mname) in
          let expected =
            Json.Obj
              [ ("ints", Json.member "ints" g);
                ("energy", Json.member (combo_key policy mname) (Json.member "energy" g)) ]
          in
          check_against what expected (Pipeline.price ~memory_mode ~policy r))
        combos)
    (Lazy.force programs);
  Printf.printf "max relative energy drift vs the per-policy simulator: %.3g\n"
    !max_drift

let () =
  Alcotest.run "pricing"
    [
      ( "equivalence",
        [ Alcotest.test_case "run once, price 12 ways = per-policy golden"
            `Quick test_matches_golden ] );
    ]
