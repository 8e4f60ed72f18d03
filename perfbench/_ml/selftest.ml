(* Self-tests of the benchmark itself: metric catalogue, output checks,
   stream determinism and the exact repeatability of the traced run's
   work counters.  Run with [python3 perfbench/run.py --selftest] from
   the repository root; exits non-zero on the first failure. *)

module J = Ogc_json.Json
module Protocol = Ogc_server.Protocol

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let catalogue () =
  let all = Catalog.end_to_end @ Catalog.per_layer in
  check "every metric name matches [A-Za-z0-9_.-]+"
    (List.for_all (fun (n, _) -> Catalog.valid_name n) all);
  check "every metric has a valid unit"
    (List.for_all (fun (_, u) -> Catalog.valid_unit u) all);
  check "metric names are unique"
    (List.length (List.sort_uniq compare (List.map fst all)) = List.length all);
  check "deterministic counters are per-layer metrics"
    (List.for_all (fun n -> List.mem_assoc n Catalog.per_layer) Catalog.deterministic);
  if Sys.file_exists "BENCHMARK.json" then begin
    let ic = open_in_bin "BENCHMARK.json" in
    let j = J.of_string (really_input_string ic (in_channel_length ic)) in
    close_in ic;
    let listed key =
      List.map
        (fun m -> (J.get_string "name" m, J.get_string "unit" m))
        (J.get_list key j)
    in
    check "BENCHMARK.json end_to_end = catalogue" (listed "end_to_end" = Catalog.end_to_end);
    check "BENCHMARK.json per_layer = catalogue" (listed "per_layer" = Catalog.per_layer);
    check "BENCHMARK.json workloads = catalogue"
      (List.map (J.get_string "name") (J.get_list "workloads" j) = Catalog.workloads)
  end

let small_source =
  {|int main() { int acc = 0; for (int i = 0; i < 50; i++) { acc = acc + (i & 7); } emit(acc); return 0; }|}

let flipped_checksum () =
  let line =
    Printf.sprintf {|{"proto":%d,"source":%s,"pass":"vrp"}|} Protocol.proto_version
      (J.to_string (J.Str small_source))
  in
  let req =
    match Protocol.op_of_json (J.of_string line) with
    | Protocol.Analyze r -> r
    | _ -> assert false
  in
  let payload = Protocol.analyze req in
  let reference = Streams.reference_of_source small_source in
  let response result =
    J.to_string ~indent:false
      (J.Obj [ ("status", J.Str "ok"); ("cache", J.Str "miss"); ("result", result) ])
  in
  let flip = function
    | J.Obj ms ->
      J.Obj
        (List.map
           (function
             | "checksum", J.Str c ->
               let d = c.[String.length c - 1] in
               let d' = if d = '9' then '0' else Char.chr (Char.code d + 1) in
               ("checksum", J.Str (String.sub c 0 (String.length c - 1) ^ String.make 1 d'))
             | m -> m)
           ms)
    | j -> j
  in
  let expect = Streams.Checksum reference in
  check "a real response passes the check" (Streams.check expect (response payload));
  check "a flipped checksum fails the check"
    (not (Streams.check expect (response (flip payload))));
  check "an error response fails the check"
    (not (Streams.check expect {|{"status":"error","error":"x"}|}));
  let lay = Layers.create None in
  ignore (Layers.verdict lay (Streams.check expect (response payload)));
  ignore (Layers.verdict lay (Streams.check expect (response (flip payload))));
  check "a flipped checksum is counted as failed"
    (lay.Layers.checked = 2 && lay.Layers.mismatches = 1)

let streams () =
  let cold s = Array.map (fun r -> r.Streams.c_line) (Streams.cold_stream ~seed:s) in
  let hot s = (Streams.hot_stream ~seed:s 3000).Streams.lines in
  check "serve-cold: equal seeds give byte-identical streams" (cold 7 = cold 7);
  check "serve-cold: different seeds give different streams" (cold 7 <> cold 8);
  let without_id l =
    match J.of_string l with
    | J.Obj ms -> J.to_string ~indent:false (J.Obj (List.remove_assoc "id" ms))
    | j -> J.to_string ~indent:false j
  in
  let requests s = List.sort compare (List.map without_id (Array.to_list (cold s))) in
  check "serve-cold: every seed sends the same requests" (requests 7 = requests 8);
  check "fleet-hot: equal seeds give byte-identical streams" (hot 7 = hot 7);
  check "fleet-hot: different seeds give different streams" (hot 7 <> hot 8)

(* A small traced replay over the fleet-hot program family: every
   distinct analysis of the stream, call by call, each after a reference
   run of its program as the grid replay makes. *)
let traced_counters () =
  let st = Streams.hot_stream ~seed:3 2000 in
  let rc = Spans.create () in
  let lay = Layers.create (Some rc) in
  let store = Ogc_pass.Pass.Store.create () in
  List.iter
    (fun line ->
      match Protocol.op_of_json (J.of_string line) with
      | Protocol.Analyze r -> (
        match r.Protocol.payload with
        | Protocol.Source src ->
          let p, _ = Layers.compile lay src in
          Streams.set_scale_if p;
          ignore (Layers.interp lay p);
          Bench.replay_analysis lay ~store
            ~expect:(Streams.reference_of_source src) r src
        | _ -> ())
      | _ -> ())
    st.Streams.distinct;
  let h, m = Layers.store_counts store in
  Layers.add lay "pass.store_hits" (float_of_int h);
  Layers.add lay "pass.store_misses" (float_of_int m);
  let ms = Layers.metrics lay ~extra:[] in
  (List.map (fun n -> (n, List.assoc n ms)) Catalog.deterministic, lay)

let determinism () =
  let a, lay = traced_counters () in
  let b, _ = traced_counters () in
  List.iter2
    (fun (n, x) (_, y) ->
      check (Printf.sprintf "%s repeats exactly (%.17g)" n x) (x = y && x > 0.0))
    a b;
  check "the traced replay's outputs all match the reference"
    (lay.Layers.checked > 0 && lay.Layers.mismatches = 0)

let percentiles () =
  let xs = [ 4.0; 1.0; 3.0; 2.0; 5.0 ] in
  check "percentile interpolates between ranks"
    (Bench.percentile xs 0.5 = 3.0
    && Bench.percentile xs 0.0 = 1.0
    && Bench.percentile xs 1.0 = 5.0
    && Bench.percentile xs 0.25 = 2.0
    && Bench.percentile [ 1.0; 2.0 ] 0.5 = 1.5)

(* fleet-hot's blocks, with 8 requests per block: stream index [i]
   completes at (i + 2) / 8 s, block [b] spans [b + 1, b + 2) s, and
   [lat b] is the latency of every request of block [b].  [steal_rate b]
   is the host steal per second during block [b]; [extra] more requests
   follow the last full block. *)
let blocks ~n ~lat ~steal_rate ~extra =
  let every = 8 in
  let samples =
    List.init ((every * (n + 1)) - 1 + extra) (fun i ->
        let done_at = float_of_int (i + 2) /. 8.0 in
        let b = (i + 1 - every) / every in
        (i, (if i < every - 1 then 0.125 else lat b), done_at, ""))
  in
  let steal_at t =
    let acc = ref 0.0 in
    for b = 0 to n do
      let lo = float_of_int (b + 1) in
      acc := !acc +. (steal_rate b *. Float.max 0.0 (Float.min 1.0 (t -. lo)))
    done;
    !acc
  in
  let ms = Bench.block_metrics ~every ~steal_at samples in
  fun name -> List.find_map (fun (k, v, c) -> if k = name then Some (v, c) else None) ms

(* Four blocks; the host stole time in blocks 1 and 3, whose requests
   were slow, and a fifth block is cut short.  The figures come from
   blocks 0 and 2. *)
let quiet_blocks () =
  let get =
    blocks ~n:4
      ~lat:(fun b -> if b mod 2 = 1 then 0.5 else 0.125)
      ~steal_rate:(fun b -> if b mod 2 = 1 then 0.5 else 0.0)
      ~extra:3
  in
  check "blocks with host steal are left out"
    (get "p99_ms" = Some (125.0, 16)
    && get "ops_per_s" = Some (8.0, 2)
    && get "wall_s" = Some (1.0, 2))

(* Six blocks without any steal; the last three are slower.  Every
   block ties at no steal, so the figures cover the whole run. *)
let steal_free_blocks () =
  let get =
    blocks ~n:6
      ~lat:(fun b -> if b < 3 then 0.125 else 0.25)
      ~steal_rate:(fun _ -> 0.0)
      ~extra:0
  in
  check "without host steal every block counts" (get "p50_ms" = Some (187.5, 48))

(* Units made while the host steals CPU time: [steals] is the share
   stolen during each successive unit. *)
let guarded steals =
  let left = ref (List.mapi (fun i st -> (i, st)) steals) in
  let unit () =
    match !left with
    | u :: rest -> left := rest; u
    | [] -> invalid_arg "guarded: too many units"
  in
  Bench.steal_guarded ~name:"selftest" ~need:2 ~cap:4 ~min_s:0.0 unit

let steal_guard () =
  check "compute-bound units: a quiet host makes only the units needed"
    (guarded [ 0.0; 0.001 ] = ([ 0; 1 ], [ 0; 1 ]));
  check "compute-bound units: stolen units are replaced by quiet ones"
    (guarded [ 0.05; 0.0; 0.03; 0.01 ] = ([ 1; 3 ], [ 0; 1; 2; 3 ]));
  check "compute-bound units: under steal throughout, the least stolen count"
    (guarded [ 0.1; 0.2; 0.05; 0.3 ] = ([ 2; 0 ], [ 0; 1; 2; 3 ]))

let () =
  catalogue ();
  steal_guard ();
  percentiles ();
  quiet_blocks ();
  steal_free_blocks ();
  flipped_checksum ();
  streams ();
  determinism ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all self-tests passed"
