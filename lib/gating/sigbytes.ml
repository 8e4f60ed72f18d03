(* A plain loop rather than a local recursive function: this runs three
   times per simulated instruction, and the closure would allocate. *)
let significant_bytes v =
  let k = ref 1 in
  let found = ref false in
  while (not !found) && !k < 8 do
    let shift = 64 - (!k * 8) in
    let high = Int64.shift_left v shift in
    if Int64.equal (Int64.shift_right high shift) v
       || Int64.equal (Int64.shift_right_logical high shift) v
    then found := true
    else incr k
  done;
  !k

let size_class k =
  if k <= 1 then 1
  else if k <= 2 then 2
  else if k <= 5 then 5
  else 8

let significance_tag_bits = 7
let size_tag_bits = 2
