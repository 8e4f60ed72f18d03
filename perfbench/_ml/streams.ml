(* Seeded request streams, the independent reference outputs they are
   checked against, and the response check itself. *)

module J = Ogc_json.Json
module Workload = Ogc_workloads.Workload
module Interp = Ogc_ir.Interp
module Prog = Ogc_ir.Prog
module Loadgen = Ogc_fleet.Loadgen
module Profile = Ogc_pass.Profile
module Vrs = Ogc_core.Vrs

let proto = Ogc_server.Protocol.proto_version

(* --- references -------------------------------------------------------- *)

let set_scale_if p =
  if Prog.find_global p "input_scale" <> None then
    Workload.set_scale p Workload.Train

(* Output checksum of the untransformed program on the train input, from
   the reference interpreter: what every version of it must reproduce. *)
let reference_of_workload (w : Workload.t) =
  Int64.to_string (Interp.run (Workload.compile w Workload.Train)).Interp.checksum

let reference_of_source src =
  let p = Ogc_minic.Minic.compile src in
  set_scale_if p;
  Int64.to_string (Interp.run p).Interp.checksum

(* --- what a response must look like --------------------------------------- *)

type expect =
  | Checksum of string  (** an analysis whose result carries this checksum *)
  | Epoch  (** a profile push acknowledged with a positive epoch *)

let check expect line =
  match J.of_string line with
  | exception _ -> false
  | j -> (
    match (J.member "status" j, expect) with
    | J.Str "ok", Checksum c -> (
      match J.member "checksum" (J.member "result" j) with
      | J.Str got -> String.equal got c
      | _ -> false
      | exception _ -> false)
    | J.Str "ok", Epoch -> (
      match J.member "epoch" j with J.Int e -> e > 0 | _ -> false)
    | _ -> false)

(* --- serve-cold ------------------------------------------------------------ *)

(* Three of the eight surrogates, all seven variants each: 21 cold
   requests, about 15 s on two connections, which keeps the whole
   benchmark inside its time budget.  With three programs of different
   cost the per-request latencies form three clusters, one per program, and
   p50 and p80 fall inside a cluster rather than on the gap between
   two, where a small shift would move them by the whole gap.  Each
   connection owns whole programs, so the variants of one program never
   run concurrently — otherwise how much of the shared pass-store front
   gets recomputed would depend on the seed's order.  The split balances
   the measured sequential cost of a cold request: vortex alone against
   gcc and compress, about 2.4 s per variant round on each side. *)
let cold_partition = [| [ "vortex" ]; [ "gcc"; "compress" ] |]

let cold_surrogates = List.concat (Array.to_list cold_partition)

let cold_lane ~lanes w =
  if List.mem w cold_partition.(0) then 0 else 1 mod lanes

type variant = V_none | V_vrp | V_vrs of int

let cold_variants =
  [ V_none; V_vrp; V_vrs 30; V_vrs 50; V_vrs 70; V_vrs 90; V_vrs 110 ]

let variant_members = function
  | V_none -> []
  | V_vrp -> [ ("pass", J.Str "vrp") ]
  | V_vrs c -> [ ("pass", J.Str "vrs"); ("cost", J.Int c) ]

let shuffle seed tag a =
  let rs = Random.State.make [| seed; tag |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

type cold_req = { c_workload : string; c_variant : variant; c_line : string }

let cold_stream ~seed =
  let cells =
    List.concat_map
      (fun w -> List.map (fun v -> (w, v)) cold_variants)
      cold_surrogates
  in
  shuffle seed 0x5e7e (Array.of_list cells)
  |> Array.mapi (fun i (w, v) ->
         let line =
           J.to_string ~indent:false
             (J.Obj
                ([ ("proto", J.Int proto);
                   ("id", J.Str (Printf.sprintf "c%d" i));
                   ("workload", J.Str w);
                   ("input", J.Str "train") ]
                @ variant_members v))
         in
         { c_workload = w; c_variant = v; c_line = line })

(* --- fleet-hot --------------------------------------------------------------- *)

(* Loadgen's own defaults (warm ratio 0.5, six programs, VRS cost
   sweep), which the CI fleet smoke also runs with.  The set-up warm-up
   answers every distinct key once, so the warm ratio here shapes only
   how often each key recurs, not whether a request hits. *)
let fleet_config ~seed =
  { (Loadgen.default_config ~addr:(Ogc_server.Server.Unix_sock "")) with
    Loadgen.seed }

(* One push in [push_every] requests replaces the analysis at that
   index.  Nothing in the repository gives a push rate for a served
   program, so this is a choice; perfbench/README.md shows how the
   figures move with it. *)
let push_every = 1000

(* Build a profile delta the way [ogc submit --push-profile auto] does:
   compile, screen the candidate points, run the interpreter with block
   counting and value hooks on them, fold the observations. *)
let profile_delta src =
  let p = Ogc_minic.Minic.compile src in
  set_scale_if p;
  let a = Vrs.analyze p in
  let hooks : (int, int64 -> unit) Hashtbl.t = Hashtbl.create 16 in
  let obs = Hashtbl.create 16 in
  List.iter
    (fun iid ->
      let tbl : (int64, int ref) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.replace obs iid tbl;
      Hashtbl.replace hooks iid (fun v ->
          match Hashtbl.find_opt tbl v with
          | Some r -> incr r
          | None -> Hashtbl.replace tbl v (ref 1)))
    (Vrs.candidate_iids a);
  let counts : Interp.bb_counts = Hashtbl.create 64 in
  let out = Interp.run ~bb_counts:counts ~profile:hooks p in
  let prof = Profile.create () in
  Hashtbl.iter (fun fn arr -> Hashtbl.replace prof.Profile.p_bb fn arr) counts;
  prof.Profile.p_total <- out.Interp.steps;
  Hashtbl.iter
    (fun iid tbl ->
      match
        List.sort compare (Hashtbl.fold (fun v r acc -> (v, !r) :: acc) tbl [])
      with
      | [] -> ()
      | [ (0L, n) ] -> Hashtbl.replace prof.Profile.p_zeros iid n
      | entries -> Hashtbl.replace prof.Profile.p_values iid entries)
    obs;
  Profile.to_json prof

let source_of_line line =
  match J.member "source" (J.of_string line) with J.Str s -> Some s | _ -> None

type hot = {
  lines : string array;
  expects : expect array;
  distinct : string list;  (** one line per distinct analysis key *)
}

(* A loadgen stream replays earlier requests preferentially (a warm
   request copies a uniformly drawn earlier index), so a single stream's
   key popularity depends heavily on its seed.  Interleaving many
   sub-streams, each seeded from [seed], keeps the mix of programs and
   passes nearly the same for every seed while the order still changes. *)
let substreams = 64

(* [n] requests interleaved from the loadgen sub-streams for [seed], every [push_every]th
   replaced by a profile push for one of the stream's programs, plus the
   reference checksum each answer must carry. *)
let hot_stream ~seed n =
  let cfgs =
    Array.init substreams (fun k -> fleet_config ~seed:((seed * substreams) + k))
  in
  let base =
    Array.init n (fun i ->
        Loadgen.request_line cfgs.(i mod substreams) (i / substreams))
  in
  let sources =
    Array.to_list base |> List.filter_map source_of_line
    |> List.sort_uniq compare |> Array.of_list
  in
  let refs = Hashtbl.create 8 in
  Array.iter (fun s -> Hashtbl.replace refs s (reference_of_source s)) sources;
  let deltas = Array.map profile_delta sources in
  let lines = Array.copy base in
  let expects = Array.make n Epoch in
  Array.iteri
    (fun i line ->
      if i mod push_every = push_every - 1 then begin
        let k = i / push_every mod Array.length sources in
        lines.(i) <-
          J.to_string ~indent:false
            (J.Obj
               [ ("proto", J.Int proto);
                 ("op", J.Str "profile");
                 ("id", J.Str (Printf.sprintf "p%d" i));
                 ("source", J.Str sources.(k));
                 ("profile", deltas.(k)) ])
      end
      else
        match source_of_line line with
        | Some s -> expects.(i) <- Checksum (Hashtbl.find refs s)
        | None -> invalid_arg "fleet stream: request without a source")
    base;
  let seen = Hashtbl.create 64 in
  let distinct =
    Array.to_list base
    |> List.filter (fun line ->
           match Ogc_server.Protocol.op_of_json (J.of_string line) with
           | Ogc_server.Protocol.Analyze req ->
             let k = Ogc_server.Protocol.cache_key req in
             if Hashtbl.mem seen k then false
             else (
               Hashtbl.replace seen k ();
               true)
           | _ -> false)
  in
  { lines; expects; distinct }
