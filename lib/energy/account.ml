type t = {
  p : Energy_params.t;
  acc : float array;  (* nJ per structure, by [Energy_params.index] *)
  spill : float;
      (* Bytes moved by register-allocator spill loads/stores; a traffic
         counter, not an energy term — the accesses themselves are
         priced into Lsq/Dcache1 like any other memory op. *)
}

let of_values ?(params = Energy_params.default) ?(spill = 0.0) values =
  let acc = Array.make Energy_params.count 0.0 in
  List.iter (fun (s, e) -> acc.(Energy_params.index s) <- e) values;
  { p = params; acc; spill }

let params t = t.p
let spill_traffic t = t.spill
let energy_of t s = t.acc.(Energy_params.index s)

let total t = Array.fold_left ( +. ) 0.0 t.acc

let by_structure t =
  List.map (fun s -> (s, energy_of t s)) Energy_params.all_structures

let ed2 ~energy ~cycles =
  let d = float_of_int cycles in
  energy *. d *. d

let savings ~baseline ~improved =
  if baseline = 0.0 then 0.0 else (baseline -. improved) /. baseline
