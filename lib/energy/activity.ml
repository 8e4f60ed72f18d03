open Ogc_isa
module Ep = Energy_params
module Policy = Ogc_gating.Policy

type memory_mode = Tagged | Sign_extend

(* 4 encoded widths x 8 significant-byte counts. *)
let ncells = 32

type t = {
  value : int array;  (* Ep.index s * ncells + cell *)
  mem : int array;  (* cell * 8 + cap - 1 *)
  fixed : int array;  (* Ep.index s *)
  mutable spill_bytes : int;
}

let create () =
  {
    value = Array.make (Ep.count * ncells) 0;
    mem = Array.make (ncells * 8) 0;
    fixed = Array.make Ep.count 0;
    spill_bytes = 0;
  }

let width_index = function
  | Width.W8 -> 0
  | Width.W16 -> 1
  | Width.W32 -> 2
  | Width.W64 -> 3

let widths = [| Width.W8; Width.W16; Width.W32; Width.W64 |]
let cell w significant = (width_index w * 8) + significant - 1

let access_n t s c n =
  let i = (Ep.index s * ncells) + c in
  t.value.(i) <- t.value.(i) + n

let access t s c = access_n t s c 1

let memory t c ~cap =
  let cap = if cap < 1 then 1 else if cap > 8 then 8 else cap in
  let i = (c * 8) + cap - 1 in
  t.mem.(i) <- t.mem.(i) + 1

let fixed t s n =
  let i = Ep.index s in
  t.fixed.(i) <- t.fixed.(i) + n

let spill t bytes = t.spill_bytes <- t.spill_bytes + bytes

let price ?(params = Ep.default) ?(memory_mode = Tagged) ~policy t =
  Ogc_obs.Span.with_ ~name:"price"
    ~args:[ ("policy", Ogc_json.Json.Str (Policy.name policy)) ]
  @@ fun () ->
  let per_access s ~bytes ~tags =
    let bytes = if bytes < 1 then 1 else if bytes > 8 then 8 else bytes in
    Ep.access_energy params s ~active_bytes:bytes ~tag_bits:0
    +. (float_of_int tags *. params.Ep.tag_bit_nj)
  in
  let active c =
    Policy.active_bytes_of_significance policy ~width:widths.(c / 8)
      ~significant:((c mod 8) + 1)
  in
  let value_tags = function
    | Ep.Iq | Ep.Regfile | Ep.Rename_buffers -> Policy.tag_bits policy
    | _ -> 0
  in
  let mem_tags =
    match memory_mode with
    | Tagged -> Policy.memory_tag_bits policy
    | Sign_extend -> 0
  in
  let energy s =
    let i = Ep.index s in
    let e = ref (float_of_int t.fixed.(i) *. per_access s ~bytes:8 ~tags:0) in
    let tags = value_tags s in
    for c = 0 to ncells - 1 do
      let n = t.value.((i * ncells) + c) in
      if n > 0 then
        e := !e +. (float_of_int n *. per_access s ~bytes:(active c) ~tags)
    done;
    (match s with
    | Ep.Lsq | Ep.Dcache1 ->
      for c = 0 to ncells - 1 do
        for cap = 1 to 8 do
          let n = t.mem.((c * 8) + cap - 1) in
          if n > 0 then begin
            (* Sign-extended values widen to 8 bytes at the cache
               boundary; a spill still moves only its slot. *)
            let bytes =
              match memory_mode with
              | Tagged -> min (active c) cap
              | Sign_extend -> cap
            in
            e := !e +. (float_of_int n *. per_access s ~bytes ~tags:mem_tags)
          end
        done
      done
    | _ -> ());
    (s, !e)
  in
  Account.of_values ~params ~spill:(float_of_int t.spill_bytes)
    (List.map energy Ep.all_structures)
