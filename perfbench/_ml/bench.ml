(* The three workloads, untraced (end-to-end metrics) and traced
   (per-layer metrics). *)

module J = Ogc_json.Json
module Workload = Ogc_workloads.Workload
module Results = Ogc_harness.Results
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Prog = Ogc_ir.Prog
module Pass = Ogc_pass.Pass
module Protocol = Ogc_server.Protocol
module Server = Ogc_server.Server
module Router = Ogc_fleet.Router
module Ring = Ogc_fleet.Ring

type env = {
  ogc : string;  (** the [ogc] executable under test *)
  dir : string;  (** scratch directory for sockets, logs and traces *)
  seed : int;
  seconds : float;
  lanes : int;  (** worker threads / connections / jobs: nproc, at most 2 *)
}

type outcome = {
  metrics : (string * float * int) list;  (** name, value, samples *)
  attempted : int;
  failed : int;
}

(* --- statistics ----------------------------------------------------------- *)

(* Linear interpolation between closest ranks over the raw samples. *)
let percentile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Set-ups per run; [setup_s] is their median.  The first set-up of a
   process is often the slowest (heap growth, cold page cache), so the
   median needs more than three. *)
let setup_reps = 5

(* Run [setup] [setup_reps] times; all but the last result are torn down. *)
let repeated_setup ~setup ~teardown =
  let rec go i acc =
    let x, dt = timed setup in
    if i + 1 < setup_reps then begin
      teardown x;
      go (i + 1) (dt :: acc)
    end
    else (x, dt :: acc)
  in
  go 0 []

(* Share of the machine's CPU time the host stole while [f] ran. *)
let with_steal f =
  let s0 = Proc.steal_s () in
  let x, dt = timed f in
  let cpus = float_of_int (Domain.recommended_domain_count ()) in
  (x, (Proc.steal_s () -. s0) /. Float.max 1e-9 (dt *. cpus))

(* serve-cold is compute-bound, and time the host steals lengthens it
   one for one.  It measures in units (passes over the stream), each
   made by [unit ()], which returns the unit's result and the share of
   CPU time stolen while it ran.  Units are made until [need] of them
   ran with less than [quiet_steal] stolen and [min_s] seconds have
   passed, or [cap] units have run.  The units reported are those under
   [quiet_steal], or, if fewer than [need], the [need] with the least
   steal: which units count depends on measured steal only, never on
   their times.  Returns the reported units and every unit made, in
   order.  grid has no such guard: its unit, one collection, takes
   25-40 s, and a second one does not fit the benchmark's time budget. *)
let quiet_steal = 0.02

let steal_guarded ~name ~need ~cap ~min_s unit =
  let t_start = now () in
  let quiet = List.filter (fun (_, st) -> st < quiet_steal) in
  let rec go acc =
    let acc = acc @ [ unit () ] in
    let n = List.length acc in
    if n >= cap || (List.length (quiet acc) >= need && now () -. t_start >= min_s)
    then acc
    else go acc
  in
  let all = go [] in
  let used =
    if List.length (quiet all) >= need then quiet all
    else
      List.stable_sort (fun (_, a) (_, b) -> compare a b) all
      |> List.filteri (fun i _ -> i < need)
  in
  Printf.printf "%s: %d unit(s), host steal %s; %d used\n" name (List.length all)
    (String.concat " "
       (List.map (fun (_, st) -> Printf.sprintf "%.1f%%" (100.0 *. st)) all))
    (List.length used);
  (List.map fst used, List.map fst all)

(* Closed loop: [lanes] threads, one connection each; thread [k] sends
   the requests [next k] hands it until that returns [None].  Returns
   per-request (index, latency s, completion time, response); a request
   whose connection broke gets an empty response, which fails its check.
   A lane that cannot connect at all fails the run. *)
let closed_loop ~lanes ~sock ~next =
  let results = Array.make lanes (Ok []) in
  let worker k =
    results.(k) <-
      (match Proc.connect sock with
      | exception e -> Error e
      | c ->
        Fun.protect ~finally:(fun () -> Proc.close c) @@ fun () ->
        let rec go acc =
          match next k with
          | None -> Ok acc
          | Some (i, line) ->
            let t0 = now () in
            let resp =
              try Proc.rpc c line with
              | End_of_file | Sys_error _ | Unix.Unix_error _ -> ""
            in
            let t1 = now () in
            go ((i, t1 -. t0, t1, resp) :: acc)
        in
        go [])
  in
  let ts = List.init lanes (fun k -> Thread.create worker k) in
  List.iter Thread.join ts;
  Array.to_list results
  |> List.concat_map (function Ok s -> s | Error e -> raise e)

let lat_metrics ~wall ~lats ~count =
  let ms = List.map (fun s -> s *. 1000.0) lats in
  let n = List.length ms in
  [ ("p50_ms", percentile ms 0.50, n);
    ("p80_ms", percentile ms 0.80, n);
    ("p99_ms", percentile ms 0.99, n);
    ("ops_per_s", float_of_int count /. wall, n) ]

(* fleet-hot's timed phase is cut into blocks of [every] consecutive
   stream requests, block [b] starting with the profile push at stream
   index [every * (b + 1) - 1], so that every block holds one push and
   the stale answers and background respecialization that follow it.
   (Cut by time instead, a window holds one push or two, and its tail
   latency jumps with that count.)  Requests before the first push, and
   a block the phase ended inside, do not count.  [steal_at t] is the
   host steal accumulated up to time [t].  Returns, per block in stream
   order, its latencies, its duration and the host steal per second
   during it. *)
let blocks ~every ~steal_at samples =
  let by = Hashtbl.create 64 in
  List.iter
    (fun ((i, _, _, _) as s) ->
      if i >= every - 1 then
        let b = (i + 1 - every) / every in
        Hashtbl.replace by b (s :: Option.value ~default:[] (Hashtbl.find_opt by b)))
    samples;
  Hashtbl.fold (fun b ss acc -> if List.length ss = every then (b, ss) :: acc else acc) by []
  |> List.sort compare
  |> List.map (fun (_, ss) ->
         let t0 = List.fold_left (fun a (_, lat, d, _) -> Float.min a (d -. lat)) infinity ss in
         let t1 = List.fold_left (fun a (_, _, d, _) -> Float.max a d) neg_infinity ss in
         let dt = Float.max 1e-9 (t1 -. t0) in
         (List.map (fun (_, lat, _, _) -> lat) ss, dt, (steal_at t1 -. steal_at t0) /. dt))

(* Each figure is the median, over the quiet blocks, of that block's
   figure; [wall_s] is a block's duration.  The quiet blocks are those
   in which the host stole no more CPU time per second than in the
   block ranked at one third by steal: a neighbour's burst of load slows
   every process here at once, and ranking blocks by measured steal
   keeps such a burst out of the result without looking at the
   latencies themselves.  Blocks that tie with that cut all count, so
   when the host steals nothing the figures cover the whole phase. *)
let block_metrics ~every ~steal_at samples =
  let all = blocks ~every ~steal_at samples in
  let rates = Array.of_list (List.sort compare (List.map (fun (_, _, r) -> r) all)) in
  let quiet =
    if rates = [||] then []
    else
      let cut = rates.(max 1 (Array.length rates / 3) - 1) in
      List.filter (fun (_, _, r) -> r <= cut) all
  in
  let per f = median (List.map f quiet) in
  let pct q = per (fun (lats, _, _) -> 1000.0 *. percentile lats q) in
  let n = every * List.length quiet in
  [ ("wall_s", per (fun (_, dt, _) -> dt), List.length quiet);
    ("p50_ms", pct 0.50, n);
    ("p80_ms", pct 0.80, n);
    ("p99_ms", pct 0.99, n);
    ("ops_per_s", per (fun (_, dt, _) -> float_of_int every /. dt), List.length quiet) ]

(* Host steal sampled by a thread every [steal_tick] seconds.  Returns
   [snapshot], which gives the accumulated steal as a function of time
   (interpolated between samples, up to the moment of the call), and
   [stop]. *)
let steal_tick = 0.1

let steal_sampler () =
  let mu = Mutex.create () in
  let marks = ref [ (now (), Proc.steal_s ()) ] in
  let mark () =
    let m = (now (), Proc.steal_s ()) in
    Mutex.protect mu (fun () -> marks := m :: !marks)
  in
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay steal_tick;
          mark ()
        done)
      ()
  in
  let snapshot () =
    mark ();
    let a = Array.of_list (List.sort compare (Mutex.protect mu (fun () -> !marks))) in
    let last = Array.length a - 1 in
    fun t ->
      if t <= fst a.(0) then snd a.(0)
      else if t >= fst a.(last) then snd a.(last)
      else
        let rec find k = if fst a.(k + 1) >= t then k else find (k + 1) in
        let k = find 0 in
        let (ta, sa), (tb, sb) = (a.(k), a.(k + 1)) in
        sa +. ((sb -. sa) *. (t -. ta) /. Float.max 1e-9 (tb -. ta))
  in
  (snapshot, fun () -> Atomic.set stop true; Thread.join th)

let ogc_serve env ~label ~sock extra =
  Proc.spawn ~ogc:env.ogc ~log:(Filename.concat env.dir "servers.log") ~label
    ~sock
    ([ "serve"; "--socket"; sock; "--quiet" ] @ extra)

let sock env name = Filename.concat env.dir (Printf.sprintf "%d-%s.sock" (Unix.getpid ()) name)

(* === grid ===================================================================== *)

let grid_references () =
  List.map
    (fun (w : Workload.t) -> (w.name, Streams.reference_of_workload w))
    Workload.all

(* The simulation results of every program version of one workload. *)
let versions (w : Results.wres) =
  [ w.base_none; w.base_hwsig; w.base_hwsize; w.vrp_sw; w.vrpconv_sw;
    w.vrp_sig; w.vrp_size; w.vrs50_sig; w.vrs50_size ]
  @ List.map snd w.vrs

(* Every program version of every workload, with its output checksum. *)
let grid_versions (r : Results.t) =
  List.concat_map
    (fun (w : Results.wres) ->
      List.map (fun (s : Pipeline.stats) -> (w.wname, s.Pipeline.checksum)) (versions w))
    r.Results.workloads

let check_grid refs r =
  let vs = grid_versions r in
  let bad =
    List.filter (fun (w, c) -> Int64.to_string c <> List.assoc w refs) vs
  in
  (List.length vs, List.length bad)

let grid env =
  let refs, setups =
    repeated_setup ~setup:grid_references ~teardown:ignore
  in
  let t_start = now () in
  let rec go acc =
    let r, dt = timed (fun () -> Results.collect ~quick:true ~jobs:env.lanes ()) in
    let acc = (r, dt) :: acc in
    if now () -. t_start < env.seconds then go acc else acc
  in
  let runs = go [] in
  let walls = List.map snd runs in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (r, _) ->
        let a', f' = check_grid refs r in
        (a + a', f + f'))
      (0, 0) runs
  in
  let n = List.length walls in
  { metrics =
      [ ("wall_s", median walls, n) ]
      @ lat_metrics ~wall:(List.fold_left ( +. ) 0.0 walls) ~lats:walls ~count:n
      @ [ ("setup_s", median setups, List.length setups);
          ("peak_rss_mb", Proc.self_peak_rss_mb (), 1) ];
    attempted;
    failed }

(* === serve-cold ================================================================ *)

let cold_references () =
  List.map
    (fun w -> (w, Streams.reference_of_workload (Workload.find w)))
    Streams.cold_surrogates

let start_cold_server env ~name =
  let s = sock env name in
  let p = ogc_serve env ~label:name ~sock:s [ "--jobs"; string_of_int env.lanes ] in
  Proc.wait_ready p;
  p

(* Lane [k] sends, in stream order, the requests for the surrogates it
   owns. *)
let cold_next ~lanes stream =
  let queues =
    Array.init lanes (fun k ->
        ref
          (List.filter
             (fun (_, (r : Streams.cold_req)) ->
               Streams.cold_lane ~lanes r.c_workload = k)
             (List.mapi (fun i r -> (i, r)) (Array.to_list stream))))
  in
  fun k ->
    match !(queues.(k)) with
    | [] -> None
    | (i, r) :: rest ->
      queues.(k) := rest;
      Some (i, r.Streams.c_line)

(* Passes over the stream per run.  One pass is only 21 requests; the
   percentiles are taken over the requests of the passes used (42
   samples from two), which in trials spread less between runs than one
   pass, or than each request's fastest pass, did.  Up to
   [cold_max_passes] are made while the host steals CPU time. *)
let cold_passes = 2
let cold_max_passes = 3

let serve_cold env =
  let stream = Streams.cold_stream ~seed:env.seed in
  let (refs, first), setups =
    repeated_setup
      ~setup:(fun () ->
        let refs = cold_references () in
        (refs, start_cold_server env ~name:"cold"))
      ~teardown:(fun (_, p) -> Proc.stop p)
  in
  (* Each pass over the stream needs caches that start empty, so every
     pass gets a fresh server; only the first start counts as set-up. *)
  let k = ref 0 in
  let pass () =
    let server =
      if !k = 0 then first
      else start_cold_server env ~name:(Printf.sprintf "cold%d" !k)
    in
    incr k;
    let (samples, wall), st =
      with_steal (fun () ->
          timed (fun () ->
              closed_loop ~lanes:env.lanes ~sock:server.Proc.sock
                ~next:(cold_next ~lanes:env.lanes stream)))
    in
    let rss = Proc.peak_rss_mb server in
    Proc.stop server;
    ((samples, wall, rss), st)
  in
  let used, passes =
    steal_guarded ~name:"serve-cold" ~need:cold_passes ~cap:cold_max_passes
      ~min_s:env.seconds pass
  in
  let samples_of ps = List.concat_map (fun (s, _, _) -> s) ps in
  let samples = samples_of used in
  let walls = List.map (fun (_, w, _) -> w) used in
  let all = samples_of passes in
  let failed =
    List.length
      (List.filter
         (fun (i, _, _, resp) ->
           let w = stream.(i).Streams.c_workload in
           not (Streams.check (Streams.Checksum (List.assoc w refs)) resp))
         all)
  in
  { metrics =
      [ ("wall_s", median walls, List.length walls) ]
      @ lat_metrics
          ~wall:(List.fold_left ( +. ) 0.0 walls)
          ~lats:(List.map (fun (_, l, _, _) -> l) samples)
          ~count:(List.length samples)
      @ [ ("setup_s", median setups, List.length setups);
          ("peak_rss_mb",
           List.fold_left (fun m (_, _, r) -> Float.max m r) 0.0 passes, List.length passes) ];
    attempted = List.length all;
    failed }

(* === fleet-hot ================================================================= *)

(* Stream length of the timed phase (it wraps around if a run outlasts
   it) and of the traced run. *)
let hot_requests = 50_000
let hot_traced_requests = 3_000

(* fleet-hot's client connections.  run.py confines fleet-hot (this
   process, the router and the shards) to one CPU.  A request passes
   client, router, shard and router again, and the router waits for a
   shard's answer by polling every 0.5 ms ([Router.forward]).  Spread
   over two vCPUs, each hop wakes a process on the other vCPU, and when
   the host steals CPU time that wake-up waits for the host: a request
   then misses the router's poll, and p80_ms and p99_ms rose by a poll
   interval or more in runs with 10-20% steal.  On one CPU the hops are
   plain context switches.  One connection keeps one request in flight,
   so the only other work on that CPU is a shard's background
   respecialization after a push, which p99_ms is there to show. *)
let hot_lanes = 1

(* A fleet-hot run measures for [--seconds].  If by then fewer than
   [hot_quiet_blocks] blocks ran with at most [hot_quiet_steal] of the
   CPU stolen, it goes on in steps of [hot_extend_s], to at most
   [hot_max_factor] times [--seconds]: host steal often comes in bursts
   of a few seconds, and a longer phase holds more quiet blocks for the
   block rule to choose from. *)
let hot_quiet_steal = 0.03
let hot_quiet_blocks = 5
let hot_extend_s = 5.0
let hot_max_factor = 2.0

type fleet = { router : Proc.t; shards : Proc.t list }

let start_fleet env =
  let shards =
    List.init 2 (fun k ->
        let name = Printf.sprintf "s%d" k in
        ogc_serve env ~label:name ~sock:(sock env name)
          [ "--jobs"; "1"; "--shard-id"; name ])
  in
  List.iter Proc.wait_ready shards;
  let rs = sock env "router" in
  let router =
    Proc.spawn ~ogc:env.ogc ~log:(Filename.concat env.dir "servers.log")
      ~label:"router" ~sock:rs
      ([ "router"; "--socket"; rs; "--quiet" ]
      @ List.concat_map
          (fun (p : Proc.t) -> [ "--shard"; p.label ^ "=" ^ p.sock ])
          shards)
  in
  Proc.wait_ready router;
  { router; shards }

let stop_fleet f =
  Proc.stop f.router;
  List.iter Proc.stop f.shards

(* Touch every distinct analysis key once, through the router. *)
let warm_up f (st : Streams.hot) =
  let c = Proc.connect f.router.Proc.sock in
  Fun.protect ~finally:(fun () -> Proc.close c) @@ fun () ->
  List.iter (fun l -> ignore (Proc.rpc c l)) st.Streams.distinct

let fleet_setup env n () =
  let st = Streams.hot_stream ~seed:env.seed n in
  let f = start_fleet env in
  warm_up f st;
  (st, f)

let fleet_hot env =
  let (st, f), setups =
    repeated_setup ~setup:(fleet_setup env hot_requests)
      ~teardown:(fun (_, f) -> stop_fleet f)
  in
  let n = Array.length st.Streams.lines in
  let k = Atomic.make 0 in
  let snapshot, stop_sampler = steal_sampler () in
  let t0 = now () in
  let rec measure acc ~until =
    let next _ =
      if now () >= until then None
      else
        let i = Atomic.fetch_and_add k 1 in
        Some (i, st.Streams.lines.(i mod n))
    in
    let acc = closed_loop ~lanes:hot_lanes ~sock:f.router.Proc.sock ~next @ acc in
    let quiet =
      List.length
        (List.filter
           (fun (_, _, r) -> r <= hot_quiet_steal)
           (blocks ~every:Streams.push_every ~steal_at:(snapshot ()) acc))
    in
    let cap = t0 +. (hot_max_factor *. env.seconds) in
    if quiet >= hot_quiet_blocks || now () >= cap then acc
    else measure acc ~until:(Float.min cap (now () +. hot_extend_s))
  in
  let samples = measure [] ~until:(t0 +. env.seconds) in
  let timed_s = now () -. t0 in
  let steal_at = snapshot () in
  stop_sampler ();
  Printf.printf "fleet-hot: timed phase %.1f s\n" timed_s;
  let rss =
    List.fold_left (fun a p -> a +. Proc.peak_rss_mb p) 0.0 (f.router :: f.shards)
  in
  stop_fleet f;
  let failed =
    List.length
      (List.filter
         (fun (i, _, _, resp) -> not (Streams.check st.Streams.expects.(i mod n) resp))
         samples)
  in
  let count = List.length samples in
  { metrics =
      block_metrics ~every:Streams.push_every ~steal_at samples
      @ [ ("setup_s", median setups, List.length setups);
          ("peak_rss_mb", rss, 3) ];
    attempted = count;
    failed }

(* === traced runs ================================================================= *)

let profile_chain = "cleanup,vrp,encode-widths,bb-profile,value-profile"

(* The grid's work for one surrogate, call by call, as
   [Results.collect ~quick:true] does it. *)
let grid_replay lay (w : Workload.t) expect =
  let pristine, info = Layers.compile lay w.source in
  Workload.set_scale pristine Workload.Train;
  let spill_bytes_of iid =
    Hashtbl.find_opt info.Ogc_regalloc.Regalloc.spill_ops iid
  in
  let store = Pass.Store.create () in
  let scaled () =
    let p = Prog.copy pristine in
    Workload.set_scale p Workload.Train;
    p
  in
  let sims p policies =
    List.iter
      (fun policy ->
        ignore (Layers.simulate lay ~spill_bytes_of ~expect ~policy p))
      policies
  in
  let chain spec = (Layers.chain lay ~store spec (scaled ())).Pass.prog in
  let base = chain "cleanup" in
  ignore (Layers.interp lay base);
  sims base [ Policy.No_gating; Policy.Hw_significance; Policy.Hw_size ];
  ignore (chain profile_chain);
  Layers.vrp lay (Prog.copy base);
  Layers.vrs lay ~cost:50 (Prog.copy base);
  let with_sw = [ Policy.Software; Policy.Sw_plus_significance; Policy.Sw_plus_size ] in
  sims (chain "cleanup,vrp,encode-widths,cleanup") with_sw;
  sims (chain "cleanup,vrp:variant=conventional,encode-widths,cleanup") [ Policy.Software ];
  let vrs = chain (profile_chain ^ ",vrs:cost=50,cleanup") in
  Workload.set_scale vrs Workload.Train;
  sims vrs with_sw;
  (* the run-time specialization accounting run *)
  ignore (Layers.interp lay vrs);
  let h, m = Layers.store_counts store in
  Layers.add lay "pass.store_hits" (float_of_int h);
  Layers.add lay "pass.store_misses" (float_of_int m)

(* What the server does for one analysis, call by call: compile, the
   pass chain, the two simulations, then [Protocol.analyze] itself
   against the same store (so its chain hits) and the payload encoding. *)
let replay_analysis lay ~store ~expect (r : Protocol.request) src =
  let p, _ = Layers.compile lay src in
  Streams.set_scale_if p;
  let opt =
    match r.Protocol.pass with
    | Protocol.P_none -> Prog.copy p
    | Protocol.P_vrp ->
      Layers.vrp lay (Prog.copy p);
      (Layers.chain lay ~store "vrp,encode-widths" (Prog.copy p)).Pass.prog
    | Protocol.P_vrs ->
      Layers.vrs lay ~cost:r.Protocol.cost (Prog.copy p);
      let q =
        (Layers.chain lay ~store
           (Printf.sprintf "vrp,encode-widths,bb-profile,value-profile,vrs:cost=%d"
              r.Protocol.cost)
           (Prog.copy p)).Pass.prog
      in
      Streams.set_scale_if q;
      q
  in
  ignore (Layers.simulate lay ~expect ~policy:r.Protocol.policy opt);
  ignore (Layers.simulate lay ~expect ~policy:Policy.No_gating p);
  let payload =
    Layers.span lay "server.analyze" (fun () -> Protocol.analyze ~store r)
  in
  let s =
    Layers.span lay "server.encode" (fun () -> J.to_string ~indent:false payload)
  in
  Layers.add lay "json.encode_bytes" (float_of_int (String.length s))

let decode lay line =
  Layers.add lay "json.decode_bytes" (float_of_int (String.length line));
  Layers.span lay "json.decode" (fun () -> J.of_string line)

let decode_request lay line =
  let j = decode lay line in
  Layers.span lay "server.decode" (fun () -> Protocol.op_of_json j)

let checked lay expect resp =
  ignore (decode lay resp);
  ignore (Layers.verdict lay (Streams.check expect resp))

(* [obs.trace_overhead_frac]: the replay's time with the recorder on
   ([traced]: spans, counters, the program digests and the calibration
   runs of [Layers.simulate]) and off ([untraced]), as
   (traced - untraced) / untraced. *)
let overhead ~traced ~untraced = (traced -. untraced) /. Float.max 1e-9 untraced

(* For calls of a few microseconds, timing each call would mostly
   measure the clock: the overhead comes from a batch of the replay
   alone, run five times with a scratch recorder and five times
   untraced, alternating which goes first; medians. *)
let replay_overhead replay =
  let t = ref [] and u = ref [] in
  let pass rc acc = acc := snd (timed (fun () -> replay (Layers.create rc))) :: !acc in
  for r = 1 to 5 do
    let traced () = pass (Some (Spans.create ())) t and untraced () = pass None u in
    if r mod 2 = 1 then (traced (); untraced ()) else (untraced (); traced ())
  done;
  overhead ~traced:(median !t) ~untraced:(median !u)

(* Times one item's replay traced and untraced back to back on lane
   [k], alternating which goes first with the item's index [i], so that
   a slow stretch of the host weighs on both sides alike; the times add
   up in [t.(k)] and [u.(k)]. *)
let paired ~t ~u k i traced untraced =
  let run acc f = acc.(k) <- acc.(k) +. snd (timed f) in
  if i mod 2 = 0 then (run t traced; run u untraced)
  else (run u untraced; run t traced)

let sum = Array.fold_left ( +. ) 0.0

(* Shared tail of the traced runs: the share of the traced lane time
   ([busy], lane-seconds) no layer span covers, the Chrome trace and the
   table. *)
let finish_traced env ~name ~lay ~rc ~busy ~overhead ~extra =
  let spans = Spans.spans rc in
  let top =
    List.fold_left
      (fun a (s : Spans.span) -> if s.parent < 0 then a +. (s.t1 -. s.t0) else a)
      0.0 spans
  in
  let unattributed = Float.max 0.0 (1.0 -. (top /. busy)) in
  let path =
    Filename.concat env.dir (Printf.sprintf "trace-%s-seed%d.json" name env.seed)
  in
  Spans.write_chrome rc path;
  let metrics =
    Layers.metrics lay
      ~extra:
        (extra
        @ [ ("obs.trace_overhead_frac", overhead);
            ("obs.unattributed_frac", unattributed) ])
  in
  let by = Spans.by_name rc in
  let rows = Hashtbl.fold (fun k (s, c) acc -> (k, s, c) :: acc) by [] in
  let rows = List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows in
  let get k = Option.value ~default:0.0 (List.assoc_opt k metrics) in
  let per_unit = function
    | "ir.interp" -> Some ("ns/step", get "ir.interp_steps")
    | "cpu.simulate" -> Some ("ns/insn", get "cpu.sim_insns")
    | "json.decode" -> Some ("ns/B", Layers.get lay "json.decode_bytes")
    | "server.encode" -> Some ("ns/B", Layers.get lay "json.encode_bytes")
    | _ -> None
  in
  Printf.printf "layer table (%s, seed %d): %d spans over %.3f traced lane-seconds\n"
    name env.seed (List.length spans) busy;
  Printf.printf "  %-22s %12s %8s %14s\n" "span" "self_s" "count" "per unit";
  List.iter
    (fun (k, s, c) ->
      let unit_col =
        match per_unit k with
        | Some (u, d) when d > 0.0 -> Printf.sprintf "%.2f %s" (s *. 1e9 /. d) u
        | _ -> Printf.sprintf "%.4f ms/call" (s *. 1000.0 /. float_of_int c)
      in
      Printf.printf "  %-22s %12.6f %8d %14s\n" k s c unit_col)
    rows;
  Printf.printf "  unattributed %.2f%% of lane time; tracing overhead %.3f%%\n"
    (100.0 *. unattributed) (100.0 *. overhead);
  Printf.printf "  chrome trace: %s\n" path;
  metrics

let num j path =
  let rec go j = function
    | [] -> (match j with J.Int n -> float_of_int n | J.Float f -> f | _ -> 0.0)
    | k :: rest -> go (J.member k j) rest
  in
  try go j path with _ -> 0.0

let remote_stats (p : Proc.t) =
  J.member "result" (J.of_string (Proc.rpc_once p.Proc.sock (Proc.op_line "stats")))

(* Server-side counters from the [stats] op of every shard, summed. *)
let server_counters stats =
  let sum path = List.fold_left (fun a j -> a +. num j path) 0.0 stats in
  let hits = sum [ "cache"; "hits" ] and misses = sum [ "cache"; "misses" ] in
  [ ("server.cache_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("server.rejected", sum [ "rejected" ]);
    ("server.stale_served", sum [ "profile"; "stale_served" ]);
    ("server.respecializations", sum [ "profile"; "respecializations" ]);
    ("server.profile_pushes", sum [ "profile"; "pushes" ]);
    ("fleet.replica_hits", sum [ "replication"; "fetch_hits" ]);
    ("fleet.replica_puts", sum [ "replication"; "puts" ]) ]

let ms_median xs = median (List.map (fun s -> s *. 1000.0) xs)

(* [lanes] domains; lane [k] processes [work k]. *)
let run_lanes lanes work =
  let run k () =
    Spans.set_lane k;
    work k
  in
  let ds = List.init (lanes - 1) (fun k -> Domain.spawn (run (k + 1))) in
  run 0 ();
  List.iter Domain.join ds

(* The replay runs on the same number of lanes as the collection.  Each
   surrogate goes to a lane ahead of time, longest first onto the least
   loaded lane, weighing a surrogate by the instructions its versions
   simulated in the collection just made — so the split, and with it
   every counter, is the same on every run. *)
let grid_lanes ~lanes (r : Results.t) =
  let cost name =
    match List.find_opt (fun (w : Results.wres) -> w.wname = name) r.Results.workloads with
    | Some w ->
      List.fold_left (fun a (s : Pipeline.stats) -> a + s.Pipeline.instructions) 0 (versions w)
    | None -> 0
  in
  let costs = List.mapi (fun i (w : Workload.t) -> (i, cost w.name)) Workload.all in
  let load = Array.make lanes 0 and lane = Array.make (List.length costs) 0 in
  List.iter
    (fun (i, c) ->
      let k = ref 0 in
      Array.iteri (fun j l -> if l < load.(!k) then k := j) load;
      lane.(i) <- !k;
      load.(!k) <- load.(!k) + c)
    (List.stable_sort (fun (_, a) (_, b) -> compare b a) costs);
  lane

let grid_traced env =
  let rc = Spans.create () in
  let lay = Layers.create (Some rc) in
  let refs = grid_references () in
  let r, phases = Results.collect_timed ~quick:true ~jobs:env.lanes () in
  let a, f = check_grid refs r in
  let lanes = grid_lanes ~lanes:env.lanes r in
  (* Each surrogate's replay runs traced and untraced, paired. *)
  let plain = Layers.create None in
  let t = Array.make env.lanes 0.0 and u = Array.make env.lanes 0.0 in
  run_lanes env.lanes (fun k ->
      List.iteri
        (fun i (w : Workload.t) ->
          if lanes.(i) = k then
            let expect = List.assoc w.name refs in
            paired ~t ~u k i
              (fun () -> Spans.with_req i (fun () -> grid_replay lay w expect))
              (fun () -> grid_replay plain w expect))
        Workload.all);
  let phase k = Option.value ~default:0.0 (List.assoc_opt k phases) in
  let metrics =
    finish_traced env ~name:"grid" ~lay ~rc ~busy:(sum t)
      ~overhead:(overhead ~traced:(sum t) ~untraced:(sum u))
      ~extra:
        [ ("harness.baselines_s", phase "baselines");
          ("harness.analyses_s", phase "analyses");
          ("harness.versions_s", phase "versions") ]
  in
  { metrics = List.map (fun (k, v) -> (k, v, 1)) metrics;
    attempted = a + lay.Layers.checked + plain.Layers.checked;
    failed = f + lay.Layers.mismatches + plain.Layers.mismatches }

let inproc_server env name =
  Server.create
    { (Server.default_config (Server.Unix_sock (sock env name))) with
      Server.jobs = Some 1 }

let serve_cold_traced env =
  let stream = Streams.cold_stream ~seed:env.seed in
  let refs = cold_references () in
  let server = start_cold_server env ~name:"cold" in
  let inproc = inproc_server env "inproc" in
  let rc = Spans.create () in
  let lay = Layers.create (Some rc) in
  let mu = Mutex.create () in
  let handle = ref [] and wait = ref [] in
  let lane_of = Streams.cold_lane ~lanes:env.lanes in
  (* The library calls the server makes for one request. *)
  let replay lay ~store (q : Streams.cold_req) =
    let expect = List.assoc q.c_workload refs in
    let r =
      match decode_request lay q.c_line with
      | Protocol.Analyze r -> r
      | _ -> invalid_arg "serve-cold: not an analysis"
    in
    ignore
      (Layers.span lay "server.key" (fun () ->
           (Protocol.cache_key r, Protocol.route_key r)));
    replay_analysis lay ~store ~expect r (Workload.find q.c_workload).source
  in
  let each_request k f =
    Array.iteri
      (fun i (q : Streams.cold_req) ->
        if lane_of q.c_workload = k then Spans.with_req i (fun () -> f i q))
      stream
  in
  let store = Pass.Store.create () in
  let work k =
    let c = Proc.connect server.Proc.sock in
    Fun.protect ~finally:(fun () -> Proc.close c) @@ fun () ->
    each_request k @@ fun _ q ->
    let expect = List.assoc q.c_workload refs in
    replay lay ~store q;
    let local, dt_h =
      timed (fun () ->
          Layers.span lay "server.handle" (fun () -> Server.handle_line inproc q.c_line))
    in
    let resp, dt_w =
      timed (fun () -> Layers.span lay "server.wire" (fun () -> Proc.rpc c q.c_line))
    in
    Layers.add lay "json.response_bytes" (float_of_int (String.length resp));
    checked lay (Streams.Checksum expect) local;
    checked lay (Streams.Checksum expect) resp;
    Mutex.lock mu;
    handle := dt_h :: !handle;
    wait := (dt_w -. dt_h) :: !wait;
    Mutex.unlock mu
  in
  let (), wall = timed (fun () -> run_lanes env.lanes work) in
  let counters = server_counters [ remote_stats server ] in
  Proc.stop server;
  let h, m = Layers.store_counts store in
  Layers.add lay "pass.store_hits" (float_of_int h);
  Layers.add lay "pass.store_misses" (float_of_int m);
  (* For the overhead, the first third of the stream is replayed again,
     each request traced (on a scratch recorder) and untraced, paired,
     each side with its own store.  Every request before a sampled one
     is sampled too, so both sides see the same store contents.  A third
     keeps the run inside its time limit. *)
  let sampled i = i < Array.length stream / 3 in
  let scratch = Layers.create (Some (Spans.create ())) and plain = Layers.create None in
  let store_t = Pass.Store.create () and store_u = Pass.Store.create () in
  let t = Array.make env.lanes 0.0 and u = Array.make env.lanes 0.0 in
  run_lanes env.lanes (fun k ->
      each_request k (fun i q ->
          if sampled i then
            paired ~t ~u k i
              (fun () -> replay scratch ~store:store_t q)
              (fun () -> replay plain ~store:store_u q)));
  let ov = overhead ~traced:(sum t) ~untraced:(sum u) in
  let metrics =
    finish_traced env ~name:"serve-cold" ~lay ~rc
      ~busy:(float_of_int env.lanes *. wall) ~overhead:ov
      ~extra:
        ([ ("server.handle_ms", ms_median !handle);
           ("server.wire_wait_ms", ms_median !wait) ]
        @ counters)
  in
  { metrics = List.map (fun (k, v) -> (k, v, 1)) metrics;
    attempted = lay.Layers.checked + scratch.Layers.checked + plain.Layers.checked;
    failed = lay.Layers.mismatches + scratch.Layers.mismatches + plain.Layers.mismatches }

let fleet_hot_traced env =
  let st, f = fleet_setup env hot_traced_requests () in
  let inproc = inproc_server env "inproc" in
  List.iter (fun l -> ignore (Server.handle_line inproc l)) st.Streams.distinct;
  let rt =
    Router.create
      (Router.default_config
         ~addr:(Server.Unix_sock (sock env "inrouter"))
         ~shards:
           (List.map
              (fun (p : Proc.t) ->
                { Router.t_name = p.label; t_addr = Server.Unix_sock p.sock })
              f.shards))
  in
  let ring = Ring.create (List.map (fun (p : Proc.t) -> p.label) f.shards) in
  let conns = List.map (fun (p : Proc.t) -> (p.label, Proc.connect p.sock)) f.shards in
  let rc = Spans.create () in
  let lay = Layers.create (Some rc) in
  let store = Pass.Store.create () in
  let handle = ref [] and wait = ref [] and route = ref [] in
  let lookups = 64 in
  (* The library calls the router and the server make before a request
     reaches a cache: decode, keys, placement. *)
  let replay lay line =
    let op = decode_request lay line in
    let rkey =
      Layers.span lay "server.key" (fun () ->
          match op with
          | Protocol.Analyze r ->
            ignore (Protocol.cache_key r);
            Protocol.route_key r
          | Protocol.Profile (r, _) -> Protocol.route_key r
          | _ -> "")
    in
    let owner =
      Layers.span lay "fleet.ring_lookup" (fun () ->
          let o = ref "" in
          for _ = 1 to lookups do
            o := Ring.lookup ring rkey
          done;
          !o)
    in
    (op, owner)
  in
  let one line expect =
    let op, owner = replay lay line in
    let local, dt_h =
      timed (fun () ->
          Layers.span lay "server.handle" (fun () -> Server.handle_line inproc line))
    in
    let lj = decode lay local in
    (match (op, J.member "cache" lj, expect) with
    | Protocol.Analyze r, J.Str "miss", Streams.Checksum c -> (
      match J.member "source" (J.of_string line) with
      | J.Str src -> replay_analysis lay ~store ~expect:c r src
      | _ -> ())
    | Protocol.Analyze _, _, _ ->
      let s =
        Layers.span lay "server.encode" (fun () ->
            J.to_string ~indent:false (J.member "result" lj))
      in
      Layers.add lay "json.encode_bytes" (float_of_int (String.length s))
    | _ -> ());
    let direct, dt_w =
      timed (fun () ->
          Layers.span lay "server.wire" (fun () -> Proc.rpc (List.assoc owner conns) line))
    in
    let routed, dt_r =
      timed (fun () -> Layers.span lay "fleet.route" (fun () -> Router.handle_line rt line))
    in
    Layers.add lay "json.response_bytes" (float_of_int (String.length routed));
    ignore (Layers.verdict lay (Streams.check expect local));
    checked lay expect direct;
    checked lay expect routed;
    handle := dt_h :: !handle;
    wait := (dt_w -. dt_h) :: !wait;
    route := (dt_r -. dt_w) :: !route
  in
  let (), wall =
    timed (fun () ->
        Array.iteri
          (fun i line -> Spans.with_req i (fun () -> one line st.Streams.expects.(i)))
          st.Streams.lines)
  in
  List.iter (fun (_, c) -> Proc.close c) conns;
  let rstats = Router.stats_json rt in
  let counters = server_counters (List.map remote_stats f.shards) in
  stop_fleet f;
  let h, m = Layers.store_counts store in
  Layers.add lay "pass.store_hits" (float_of_int h);
  Layers.add lay "pass.store_misses" (float_of_int m);
  let ov =
    replay_overhead (fun lay ->
        Array.iter (fun line -> ignore (replay lay line)) st.Streams.lines)
  in
  let by = Spans.by_name rc in
  let ring_s = fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt by "fleet.ring_lookup")) in
  let metrics =
    finish_traced env ~name:"fleet-hot" ~lay ~rc ~busy:wall ~overhead:ov
      ~extra:
        ([ ("server.handle_ms", ms_median !handle);
           ("server.wire_wait_ms", ms_median !wait);
           ("fleet.route_ms", ms_median !route);
           ("fleet.ring_lookup_ns",
            ring_s *. 1e9 /. float_of_int (lookups * Array.length st.Streams.lines));
           ("fleet.hedged", num rstats [ "hedged" ]);
           ("fleet.failovers", num rstats [ "failovers" ]);
           ("fleet.promotions", num rstats [ "promotions" ]) ]
        @ counters)
  in
  { metrics = List.map (fun (k, v) -> (k, v, 1)) metrics;
    attempted = lay.Layers.checked;
    failed = lay.Layers.mismatches }
