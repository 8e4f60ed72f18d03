open Ogc_isa

type t =
  | No_gating
  | Software
  | Hw_significance
  | Hw_size
  | Sw_plus_significance
  | Sw_plus_size

let all =
  [ No_gating; Software; Hw_significance; Hw_size; Sw_plus_significance;
    Sw_plus_size ]

let name = function
  | No_gating -> "none"
  | Software -> "sw"
  | Hw_significance -> "hw-significance"
  | Hw_size -> "hw-size"
  | Sw_plus_significance -> "sw+significance"
  | Sw_plus_size -> "sw+size"

let active_bytes policy ~width ~value =
  match policy with
  | No_gating -> 8
  | Software -> Width.bytes width
  | Hw_significance -> Sigbytes.significant_bytes value
  | Hw_size -> Sigbytes.size_class (Sigbytes.significant_bytes value)
  | Sw_plus_significance ->
    min (Width.bytes width) (Sigbytes.significant_bytes value)
  | Sw_plus_size ->
    min (Width.bytes width)
      (Sigbytes.size_class (Sigbytes.significant_bytes value))

let active_bytes_of_significance policy ~width ~significant =
  match policy with
  | No_gating -> 8
  | Software -> Width.bytes width
  | Hw_significance -> significant
  | Hw_size -> Sigbytes.size_class significant
  | Sw_plus_significance -> min (Width.bytes width) significant
  | Sw_plus_size -> min (Width.bytes width) (Sigbytes.size_class significant)

let tag_bits = function
  | No_gating | Software -> 0
  | Hw_significance -> Sigbytes.significance_tag_bits
  | Hw_size -> Sigbytes.size_tag_bits
  | Sw_plus_significance | Sw_plus_size -> Sigbytes.size_tag_bits

let memory_tag_bits = function
  | No_gating -> 0
  | Software -> 2 (* §2.4 approach (1): two size bits per cached value *)
  | Hw_significance -> Sigbytes.significance_tag_bits
  | Hw_size -> Sigbytes.size_tag_bits
  | Sw_plus_significance | Sw_plus_size -> Sigbytes.size_tag_bits

let uses_software_widths = function
  | Software | Sw_plus_significance | Sw_plus_size -> true
  | No_gating | Hw_significance | Hw_size -> false
