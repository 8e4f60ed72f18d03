(* Benchmark entry point: one workload untraced, printing the end-to-end
   metrics, or traced, printing the per-layer metrics.  The last line of
   standard output is the JSON result.  run.py runs all three in turn.

   perfbench.exe --workload grid|serve-cold|fleet-hot --seed N
                 --seconds S --trace 0|1 --ogc PATH [--dir DIR] *)

let usage () =
  prerr_endline
    "usage: perfbench --workload grid|serve-cold|fleet-hot --seed N \
     --seconds S --trace 0|1 --ogc PATH [--dir DIR]";
  exit 2

(* A run must end within this bound whatever happens to the processes
   under test. *)
let watchdog_s = 170.0

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0
  and trace = ref 0 and ogc = ref "" and dir = ref ".bench_build/run" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; parse r
    | "--seconds" :: v :: r ->
      (match float_of_string_opt v with Some s -> seconds := s | None -> usage ());
      parse r
    | "--trace" :: v :: r ->
      (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      parse r
    | "--ogc" :: v :: r -> ogc := v; parse r
    | "--dir" :: v :: r -> dir := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let name =
    if List.mem !workload Catalog.workloads then !workload else usage ()
  in
  if not (Sys.file_exists !ogc) then begin
    prerr_endline ("perfbench: no ogc executable at " ^ !ogc);
    exit 2
  end;
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  Ogc_server.Server.ignore_sigpipe ();
  ignore
    (Thread.create
       (fun () ->
         Thread.delay watchdog_s;
         prerr_endline "perfbench: watchdog expired, stopping";
         Proc.kill_all ();
         Unix._exit 3)
       ());
  let cpus = Domain.recommended_domain_count () in
  let env =
    { Bench.ogc = !ogc; dir = !dir; seed; seconds = !seconds;
      lanes = max 1 (min 2 cpus) }
  in
  let units = if !trace = 0 then Catalog.end_to_end else Catalog.per_layer in
  let f =
    match (name, !trace) with
    | "grid", 0 -> Bench.grid
    | "serve-cold", 0 -> Bench.serve_cold
    | "fleet-hot", 0 -> Bench.fleet_hot
    | "grid", _ -> Bench.grid_traced
    | "serve-cold", _ -> Bench.serve_cold_traced
    | _ -> Bench.fleet_hot_traced
  in
  let steal0 = Proc.steal_s () and t0 = Unix.gettimeofday () in
  let o = Fun.protect ~finally:Proc.kill_all (fun () -> f env) in
  let steal = Proc.steal_s () -. steal0 and dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%s: host steal %.2f s over %.1f s (%.1f%% of %d CPUs)\n" name steal dt
    (100.0 *. steal /. (dt *. float_of_int cpus))
    cpus;
  let frac = float_of_int o.Bench.failed /. float_of_int (max 1 o.Bench.attempted) in
  List.iter
    (fun (k, v, n) ->
      Printf.printf "%s %s = %s %s (samples %d)\n" name k (json_num v)
        (List.assoc k units) n)
    o.Bench.metrics;
  Printf.printf "%s %s = %s %s (samples %d)\n" name (fst Catalog.failed_frac)
    (json_num frac) (snd Catalog.failed_frac) o.Bench.attempted;
  let metrics =
    List.map
      (fun (k, v, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_num v)
          (List.assoc k units))
      o.Bench.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.Bench.failed = 0 && o.Bench.attempted > 0) o.Bench.attempted o.Bench.failed
    (String.concat ", " metrics);
  (* Worker domains of in-process servers never return; leave without
     waiting for them. *)
  exit 0
