(* Tests for the energy model: parameter sanity, accounting arithmetic,
   and the derived Table 1 savings matrix. *)

module Ep = Ogc_energy.Energy_params
module Account = Ogc_energy.Account
module Savings = Ogc_core.Savings_table
open Ogc_isa

let test_access_energy_monotone () =
  List.iter
    (fun s ->
      let e k = Ep.access_energy Ep.default s ~active_bytes:k ~tag_bits:0 in
      for k = 1 to 7 do
        Alcotest.(check bool) "monotone in bytes" true (e k <= e (k + 1) +. 1e-12)
      done;
      Alcotest.(check bool) "positive" true (e 1 > 0.0))
    Ep.all_structures

let test_width_fraction_shape () =
  (* The paper's observation: FU/regfile/result bus gate a lot, LSQ and
     caches little, front end not at all. *)
  let wf s = Ep.default.Ep.width_fraction s in
  Alcotest.(check bool) "fu gates most" true (wf Ep.Alu > 0.7);
  Alcotest.(check bool) "regfile gates" true (wf Ep.Regfile > 0.6);
  Alcotest.(check bool) "lsq gates little" true (wf Ep.Lsq < 0.3);
  Alcotest.(check bool) "icache gates nothing" true (wf Ep.Icache = 0.0);
  Alcotest.(check bool) "bpred gates nothing" true (wf Ep.Bpred = 0.0)

let test_tag_overhead () =
  let e0 = Ep.access_energy Ep.default Ep.Regfile ~active_bytes:4 ~tag_bits:0 in
  let e7 = Ep.access_energy Ep.default Ep.Regfile ~active_bytes:4 ~tag_bits:7 in
  Alcotest.(check bool) "tags cost energy" true (e7 > e0);
  Alcotest.(check bool) "7 tag bits cost 7x one bit" true
    (abs_float (e7 -. e0 -. (7.0 *. Ep.default.Ep.tag_bit_nj)) < 1e-9)

let test_account () =
  let module Activity = Ogc_energy.Activity in
  let price a = Activity.price ~policy:Ogc_gating.Policy.Hw_significance a in
  let a = Activity.create () in
  Alcotest.(check (float 1e-9)) "starts at zero" 0.0 (Account.total (price a));
  Activity.access a Ep.Alu (Activity.cell Width.W64 8);
  let full = Account.energy_of (price a) Ep.Alu in
  Activity.access a Ep.Alu (Activity.cell Width.W64 1);
  let delta = Account.energy_of (price a) Ep.Alu -. full in
  Alcotest.(check bool) "narrow access cheaper" true (delta < full);
  Activity.fixed a Ep.Clock 10;
  Alcotest.(check bool) "clock accounted" true
    (Account.energy_of (price a) Ep.Clock > 0.0);
  Alcotest.(check int) "by_structure covers all" 14
    (List.length (Account.by_structure (price a)));
  (* One priced access is one access_energy, tags included (7 bits of
     significance compression in the register file). *)
  let b = Activity.create () in
  Activity.access b Ep.Regfile (Activity.cell Width.W64 3);
  Alcotest.(check (float 1e-9)) "price = access_energy"
    (Ep.access_energy Ep.default Ep.Regfile ~active_bytes:3 ~tag_bits:7)
    (Account.energy_of (price b) Ep.Regfile)

let test_metrics () =
  Alcotest.(check (float 1e-9)) "ed2" 400.0 (Account.ed2 ~energy:4.0 ~cycles:10);
  Alcotest.(check (float 1e-9)) "savings" 0.25
    (Account.savings ~baseline:4.0 ~improved:3.0);
  Alcotest.(check (float 1e-9)) "zero baseline" 0.0
    (Account.savings ~baseline:0.0 ~improved:3.0)

let test_table1_shape () =
  (* Savings grow with the width gap, and the matrix is antisymmetric. *)
  let t = Savings.default in
  let s f to_ = Savings.saving t ~from_:f ~to_ in
  Alcotest.(check bool) "64->8 biggest" true
    (s Width.W64 Width.W8 > s Width.W64 Width.W16
    && s Width.W64 Width.W16 > s Width.W64 Width.W32
    && s Width.W64 Width.W32 > 0.0);
  Alcotest.(check (float 1e-9)) "identity" 0.0 (s Width.W8 Width.W8);
  Alcotest.(check (float 1e-9)) "antisymmetric"
    (s Width.W64 Width.W8) (-.s Width.W8 Width.W64);
  Alcotest.(check int) "matrix is 4x4" 4 (List.length (Savings.matrix t));
  Alcotest.(check bool) "guard costs positive" true
    (Savings.cost_branch t > 0.0 && Savings.cost_comparison t > 0.0
    && Savings.cost_and t > 0.0)

let test_clock_gating_styles () =
  (* More aggressive gating -> cheaper narrow accesses, identical full
     ones. *)
  let e params k =
    Ep.access_energy params Ep.Alu ~active_bytes:k ~tag_bits:0
  in
  Alcotest.(check bool) "ideal < default < conservative at 1 byte" true
    (e Ep.ideal_gating 1 < e Ep.default 1
    && e Ep.default 1 < e Ep.conservative_gating 1);
  Alcotest.(check (float 1e-9)) "full width unaffected" (e Ep.default 8)
    (e Ep.ideal_gating 8);
  Alcotest.check_raises "range check" (Invalid_argument "with_residual -1")
    (fun () -> ignore (Ep.with_residual Ep.default (-1.0)))

let prop_access_bounded =
  QCheck.Test.make ~name:"access energy bounded by base + tags" ~count:1000
    QCheck.(pair (int_range 1 8) (int_range 0 7))
    (fun (bytes, tags) ->
      List.for_all
        (fun s ->
          let e = Ep.access_energy Ep.default s ~active_bytes:bytes ~tag_bits:tags in
          let base = Ep.default.Ep.base s in
          e <= base +. (float_of_int tags *. Ep.default.Ep.tag_bit_nj) +. 1e-9
          && e >= base *. (1.0 -. Ep.default.Ep.width_fraction s) -. 1e-9)
        Ep.all_structures)

let () =
  Alcotest.run "energy"
    [
      ( "unit",
        [
          Alcotest.test_case "monotone access" `Quick test_access_energy_monotone;
          Alcotest.test_case "width fractions" `Quick test_width_fraction_shape;
          Alcotest.test_case "tag overhead" `Quick test_tag_overhead;
          Alcotest.test_case "accounting" `Quick test_account;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "table 1 shape" `Quick test_table1_shape;
          Alcotest.test_case "clock gating styles" `Quick
            test_clock_gating_styles;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_access_bounded ]);
    ]
