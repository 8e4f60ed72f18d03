(* Tests for the hardware operand-gating support: significant-byte math
   and gating policies. *)

module Sigbytes = Ogc_gating.Sigbytes
module Policy = Ogc_gating.Policy
open Ogc_isa

let test_sigbytes () =
  Alcotest.(check int) "0" 1 (Sigbytes.significant_bytes 0L);
  Alcotest.(check int) "1" 1 (Sigbytes.significant_bytes 1L);
  Alcotest.(check int) "-1" 1 (Sigbytes.significant_bytes (-1L));
  Alcotest.(check int) "127" 1 (Sigbytes.significant_bytes 127L);
  Alcotest.(check int) "255 (zext)" 1 (Sigbytes.significant_bytes 255L);
  Alcotest.(check int) "256" 2 (Sigbytes.significant_bytes 256L);
  Alcotest.(check int) "-129" 2 (Sigbytes.significant_bytes (-129L));
  Alcotest.(check int) "65535" 2 (Sigbytes.significant_bytes 65535L);
  Alcotest.(check int) "2^32-1" 4 (Sigbytes.significant_bytes 0xFFFF_FFFFL);
  Alcotest.(check int) "2^33" 5 (Sigbytes.significant_bytes 0x2_0000_0000L);
  Alcotest.(check int) "min_int" 8 (Sigbytes.significant_bytes Int64.min_int)

let test_size_class () =
  Alcotest.(check int) "1" 1 (Sigbytes.size_class 1);
  Alcotest.(check int) "2" 2 (Sigbytes.size_class 2);
  Alcotest.(check int) "3" 5 (Sigbytes.size_class 3);
  Alcotest.(check int) "5" 5 (Sigbytes.size_class 5);
  Alcotest.(check int) "6" 8 (Sigbytes.size_class 6);
  Alcotest.(check int) "8" 8 (Sigbytes.size_class 8)

let test_policies () =
  let v = 300L in
  (* 2 significant bytes *)
  Alcotest.(check int) "none" 8
    (Policy.active_bytes Policy.No_gating ~width:Width.W8 ~value:v);
  Alcotest.(check int) "software uses opcode width" 4
    (Policy.active_bytes Policy.Software ~width:Width.W32 ~value:v);
  Alcotest.(check int) "significance uses the value" 2
    (Policy.active_bytes Policy.Hw_significance ~width:Width.W64 ~value:v);
  Alcotest.(check int) "size rounds to {1,2,5,8}" 2
    (Policy.active_bytes Policy.Hw_size ~width:Width.W64 ~value:v);
  Alcotest.(check int) "size rounds 3 -> 5" 5
    (Policy.active_bytes Policy.Hw_size ~width:Width.W64 ~value:0x10_0000L);
  Alcotest.(check int) "cooperative takes the min" 2
    (Policy.active_bytes Policy.Sw_plus_significance ~width:Width.W32 ~value:v);
  Alcotest.(check int) "cooperative capped by opcode" 1
    (Policy.active_bytes Policy.Sw_plus_size ~width:Width.W8 ~value:v)

let test_tags () =
  Alcotest.(check int) "none" 0 (Policy.tag_bits Policy.No_gating);
  Alcotest.(check int) "software" 0 (Policy.tag_bits Policy.Software);
  Alcotest.(check int) "significance" 7 (Policy.tag_bits Policy.Hw_significance);
  Alcotest.(check int) "size" 2 (Policy.tag_bits Policy.Hw_size);
  Alcotest.(check int) "cooperative" 2 (Policy.tag_bits Policy.Sw_plus_size);
  Alcotest.(check bool) "sw binary needed" true
    (Policy.uses_software_widths Policy.Sw_plus_size);
  Alcotest.(check bool) "hw-only runs the baseline" false
    (Policy.uses_software_widths Policy.Hw_size)

let prop_sigbytes_roundtrip =
  QCheck.Test.make ~name:"significant bytes reconstruct the value" ~count:5000
    QCheck.int64 (fun v ->
      let k = Sigbytes.significant_bytes v in
      let shift = 64 - (8 * k) in
      if k = 8 then true
      else
        let sext = Int64.shift_right (Int64.shift_left v shift) shift in
        let zext = Int64.shift_right_logical (Int64.shift_left v shift) shift in
        Int64.equal sext v || Int64.equal zext v)

let prop_sigbytes_minimal =
  QCheck.Test.make ~name:"significant bytes are minimal" ~count:5000
    QCheck.int64 (fun v ->
      let k = Sigbytes.significant_bytes v in
      k = 1
      ||
      let k' = k - 1 in
      let shift = 64 - (8 * k') in
      let sext = Int64.shift_right (Int64.shift_left v shift) shift in
      let zext = Int64.shift_right_logical (Int64.shift_left v shift) shift in
      (not (Int64.equal sext v)) && not (Int64.equal zext v))

(* The software policy's byte-width tags must agree with the energy
   accounting in Savings_table: re-encoding to a width with fewer active
   bytes never costs energy, the table is antisymmetric with a zero
   diagonal, and the paper's Table 1 layout exposes exactly the same
   numbers. *)
module Savings_table = Ogc_core.Savings_table

let width_pair = QCheck.(pair (oneofl Width.all) (oneofl Width.all))

let prop_savings_diag_and_antisym =
  QCheck.Test.make
    ~name:"savings: zero diagonal, widen = -narrow" ~count:100 width_pair
    (fun (a, b) ->
      let t = Savings_table.default in
      let s_ab = Savings_table.saving t ~from_:a ~to_:b in
      let s_ba = Savings_table.saving t ~from_:b ~to_:a in
      if Width.equal a b then Float.equal s_ab 0.0
      else Float.equal s_ab (-.s_ba))

let prop_savings_match_tags =
  QCheck.Test.make
    ~name:"fewer software-tagged bytes never costs energy" ~count:100
    QCheck.(pair width_pair int64)
    (fun ((from_, to_), v) ->
      let t = Savings_table.default in
      let active w = Policy.active_bytes Policy.Software ~width:w ~value:v in
      let s = Savings_table.saving t ~from_ ~to_ in
      if active to_ < active from_ then s >= 0.0
      else if active to_ > active from_ then s <= 0.0
      else Float.equal s 0.0)

let prop_matrix_is_saving =
  QCheck.Test.make ~name:"Table 1 matrix equals saving" ~count:20
    QCheck.unit (fun () ->
      let t = Savings_table.default in
      List.for_all
        (fun (to_, row) ->
          List.for_all
            (fun (from_, cell) ->
              Float.equal cell (Savings_table.saving t ~from_ ~to_))
            row)
        (Savings_table.matrix t))

let prop_software_tags_cover_value =
  QCheck.Test.make
    ~name:"software width tags cover the significant bytes" ~count:2000
    QCheck.(pair int64 (oneofl Width.all))
    (fun (v, w) ->
      (* When the value is recoverable from width [w] (the invariant VRP
         maintains for every software width tag), gating to the tag must
         keep every significant byte active. *)
      QCheck.assume (Int64.equal (Width.truncate v w) v);
      Sigbytes.significant_bytes v
      <= Policy.active_bytes Policy.Software ~width:w ~value:v)

let prop_policy_bounds =
  QCheck.Test.make ~name:"active bytes in [1,8] and monotone vs none"
    ~count:2000
    QCheck.(pair int64 (oneofl Width.all))
    (fun (v, w) ->
      List.for_all
        (fun p ->
          let b = Policy.active_bytes p ~width:w ~value:v in
          b >= 1 && b <= 8)
        Policy.all)

(* Values spread over every significant-byte count: random bits
   sign- or zero-extended from a random number of low bytes. *)
let spread_int64 =
  let gen =
    QCheck.Gen.(
      map3
        (fun k bits zero ->
          if k = 8 then bits
          else
            let shift = 64 - (8 * k) in
            let high = Int64.shift_left bits shift in
            if zero then Int64.shift_right_logical high shift
            else Int64.shift_right high shift)
        (int_range 1 8) ui64 bool)
  in
  QCheck.make ~print:Int64.to_string gen

(* What lets one simulated run price every policy: a policy sees a
   value only through its significant bytes, and never charges fewer
   bytes for more of them, so the widest operand prices an access. *)
let prop_active_bytes_through_significance =
  QCheck.Test.make
    ~name:"active bytes depend on the value only via its significance"
    ~count:3000
    QCheck.(pair spread_int64 (oneofl Width.all))
    (fun (v, width) ->
      let significant = Sigbytes.significant_bytes v in
      List.for_all
        (fun p ->
          Policy.active_bytes p ~width ~value:v
          = Policy.active_bytes_of_significance p ~width ~significant)
        Policy.all)

let prop_active_bytes_monotone =
  QCheck.Test.make ~name:"active bytes never drop as significance grows"
    ~count:3000
    QCheck.(triple spread_int64 spread_int64 (oneofl Width.all))
    (fun (u, v, width) ->
      let u, v =
        if Sigbytes.significant_bytes u <= Sigbytes.significant_bytes v then
          (u, v)
        else (v, u)
      in
      List.for_all
        (fun p ->
          Policy.active_bytes p ~width ~value:u
          <= Policy.active_bytes p ~width ~value:v)
        Policy.all)

let test_monotone_exhaustive () =
  List.iter
    (fun p ->
      List.iter
        (fun width ->
          for k = 1 to 7 do
            let at k = Policy.active_bytes_of_significance p ~width ~significant:k in
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: %d -> %d bytes" (Policy.name p)
                 (Width.to_string width) k (k + 1))
              true
              (at k <= at (k + 1))
          done)
        Width.all)
    Policy.all

let test_size_class_pinned () =
  Alcotest.(check (list int))
    "size_class 1..8" [ 1; 2; 5; 5; 5; 8; 8; 8 ]
    (List.init 8 (fun i -> Sigbytes.size_class (i + 1)))

let () =
  Alcotest.run "gating"
    [
      ( "unit",
        [
          Alcotest.test_case "significant bytes" `Quick test_sigbytes;
          Alcotest.test_case "size classes" `Quick test_size_class;
          Alcotest.test_case "policies" `Quick test_policies;
          Alcotest.test_case "tags" `Quick test_tags;
          Alcotest.test_case "size classes on 1..8" `Quick test_size_class_pinned;
          Alcotest.test_case "active bytes monotone in significance" `Quick
            test_monotone_exhaustive;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sigbytes_roundtrip; prop_sigbytes_minimal; prop_policy_bounds;
            prop_active_bytes_through_significance; prop_active_bytes_monotone ]
      );
      ( "savings",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_savings_diag_and_antisym;
            prop_savings_match_tags;
            prop_matrix_is_saving;
            prop_software_tags_cover_value;
          ] );
    ]
