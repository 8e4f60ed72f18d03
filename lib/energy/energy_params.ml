type structure =
  | Rename
  | Bpred
  | Iq
  | Rob
  | Rename_buffers
  | Lsq
  | Regfile
  | Icache
  | Dcache1
  | Dcache2
  | Alu
  | Muldiv
  | Resultbus
  | Clock

let all_structures =
  [ Rename; Bpred; Iq; Rob; Rename_buffers; Lsq; Regfile; Icache; Dcache1;
    Dcache2; Alu; Muldiv; Resultbus; Clock ]

let index = function
  | Rename -> 0
  | Bpred -> 1
  | Iq -> 2
  | Rob -> 3
  | Rename_buffers -> 4
  | Lsq -> 5
  | Regfile -> 6
  | Icache -> 7
  | Dcache1 -> 8
  | Dcache2 -> 9
  | Alu -> 10
  | Muldiv -> 11
  | Resultbus -> 12
  | Clock -> 13

let count = List.length all_structures

let structure_name = function
  | Rename -> "Rename"
  | Bpred -> "Branch Predictor"
  | Iq -> "Instruction Queue"
  | Rob -> "ROB"
  | Rename_buffers -> "Rename Buffers"
  | Lsq -> "LSQ"
  | Regfile -> "Register File"
  | Icache -> "I-cache"
  | Dcache1 -> "D-cache (L1)"
  | Dcache2 -> "D-cache (L2)"
  | Alu -> "FU"
  | Muldiv -> "Mul/Div"
  | Resultbus -> "Result bus"
  | Clock -> "Clock"

type t = {
  base : structure -> float;
  width_fraction : structure -> float;
  residual : float;
  tag_bit_nj : float;
}

(* Per-access base energies (nJ), Wattch-flavoured proportions for the
   4-wide Table 2 machine. *)
let default_base = function
  | Rename -> 0.22
  | Bpred -> 0.30
  | Iq -> 0.40
  | Rob -> 0.30
  | Rename_buffers -> 0.28
  | Lsq -> 0.30
  | Regfile -> 0.22
  | Icache -> 1.40
  | Dcache1 -> 0.90
  | Dcache2 -> 2.40
  | Alu -> 0.48
  | Muldiv -> 1.60
  | Resultbus -> 0.30
  | Clock -> 2.80

(* How much of each structure's access energy lives in the 64-bit data
   path.  Matches the paper's Figure 3/9/14 ordering: FU and the
   value-carrying structures gate the most; LSQ and D-cache handle
   addresses and whole lines, so they gate little; front-end structures
   gate nothing. *)
let default_width_fraction = function
  | Rename -> 0.0
  | Bpred -> 0.0
  | Iq -> 0.62
  | Rob -> 0.25
  | Rename_buffers -> 0.80
  | Lsq -> 0.22
  | Regfile -> 0.78
  | Icache -> 0.0
  | Dcache1 -> 0.30
  | Dcache2 -> 0.08
  | Alu -> 0.85
  | Muldiv -> 0.85
  | Resultbus -> 0.82
  | Clock -> 0.0

let default =
  {
    base = default_base;
    width_fraction = default_width_fraction;
    residual = 0.10;
    tag_bit_nj = 0.004;
  }

let with_residual t r =
  if r < 0.0 || r > 1.0 then Fmt.invalid_arg "with_residual %g" r
  else { t with residual = r }

let ideal_gating = with_residual default 0.0
let conservative_gating = with_residual default 0.25

let access_energy t s ~active_bytes ~tag_bits =
  let base = t.base s in
  let wf = t.width_fraction s in
  let k = float_of_int (max 1 (min 8 active_bytes)) /. 8.0 in
  let scaled = base *. wf *. (t.residual +. ((1.0 -. t.residual) *. k)) in
  let fixed = base *. (1.0 -. wf) in
  fixed +. scaled +. (float_of_int tag_bits *. t.tag_bit_nj)

let alu_energy t ~width_bytes =
  access_energy t Alu ~active_bytes:width_bytes ~tag_bits:0
