(* Timed calls into each layer's public entry points, for the traced run.
   Every call records one span and bumps the layer's work counters, so a
   per-layer figure is a self time over a count taken at the same
   boundary.  Untraced ([rc = None]) the wrappers only forward, apart
   from counting output checks; the difference between the two is
   [obs.trace_overhead_frac]. *)

module Prog = Ogc_ir.Prog
module Interp = Ogc_ir.Interp
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Pass = Ogc_pass.Pass
module Vrp = Ogc_core.Vrp
module Vrs = Ogc_core.Vrs
module Regalloc = Ogc_regalloc.Regalloc
module Minic = Ogc_minic.Minic
module Codegen = Ogc_minic.Codegen
module Account = Ogc_energy.Account

type t = {
  rc : Spans.t option;
  mu : Mutex.t;
  counters : (string, float) Hashtbl.t;
  sim_keys : (string, unit) Hashtbl.t;  (** distinct simulations seen *)
  interp_s : (string, float) Hashtbl.t;  (** program digest -> Interp.run s *)
  mutable energy : float list;
      (** modelled nJ of every simulation, summed in sorted order so the
          total is the same float whatever order the calls came in *)
  mutable model_s : float;  (** simulate time net of functional execution *)
  mutable checked : int;
  mutable mismatches : int;
}

let create rc =
  { rc; mu = Mutex.create (); counters = Hashtbl.create 64;
    sim_keys = Hashtbl.create 64; interp_s = Hashtbl.create 64;
    energy = [];
    model_s = 0.0; checked = 0; mismatches = 0 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let traced t = t.rc <> None

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let add t name v =
  if traced t then
    locked t (fun () ->
        Hashtbl.replace t.counters name
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)))

let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)
let span t name f = Spans.with_ t.rc name f

(* Count one output check; a mismatch is a failed operation. *)
let verdict t ok =
  locked t (fun () ->
      t.checked <- t.checked + 1;
      if not ok then t.mismatches <- t.mismatches + 1);
  ok

(* --- minic + regalloc ----------------------------------------------------- *)

(* [Minic.compile_with_info], one stage per span.  [Minic.lower] parses
   again, so the lowering span calls the code generator on the parsed
   program itself and validates its output the way [Minic.lower] does. *)
let compile t src =
  let ast = span t "minic.parse" (fun () -> Minic.parse src) in
  let p =
    span t "minic.lower" (fun () ->
        let p = Codegen.gen_program ast in
        Ogc_ir.Validate.program ~allow_virtual:true p;
        p)
  in
  let info =
    span t "regalloc.alloc" (fun () ->
        let vrp = lazy (Vrp.analyze ~jobs:1 p) in
        let width_of iid =
          match Vrp.range_of (Lazy.force vrp) iid with
          | Some r -> Ogc_core.Interval.width r
          | None -> Ogc_isa.Width.W64
        in
        let info = Regalloc.program ~width_of p in
        Ogc_ir.Validate.program p;
        info)
  in
  add t "minic.static_insns" (float_of_int (Prog.num_static_ins p));
  add t "regalloc.spill_slot_bytes"
    (float_of_int (Regalloc.spill_slots_bytes info));
  (p, info)

(* --- ir ------------------------------------------------------------------- *)

let digest t p = span t "obs.sim_key" (fun () -> Pass.digest_prog p)

let record_interp t key dt = locked t (fun () -> Hashtbl.replace t.interp_s key dt)

(* An [Interp.run] the program under test makes too. *)
let interp t p =
  if not (traced t) then Interp.run p
  else begin
    let key = digest t p in
    let out, dt = timed (fun () -> span t "ir.interp" (fun () -> Interp.run p)) in
    add t "ir.interp_steps" (float_of_int out.Interp.steps);
    record_interp t key dt;
    out
  end

(* --- cpu + energy ----------------------------------------------------------- *)

(* One [Pipeline.simulate] call.  The functional part of its time is the
   [Interp.run] time of the same program.  Where the replay has not run
   that program through the interpreter itself, the benchmark runs it
   once to price it: that run is benchmark-only work, so it is recorded
   as [obs.model_calib] and adds nothing to the [ir] figures.  The rest
   of the simulate time is the timing and energy model. *)
let simulate t ?spill_bytes_of ~expect ~policy p =
  let sim () = Pipeline.simulate ?spill_bytes_of ~policy p in
  let s =
    if not (traced t) then sim ()
    else begin
      let key = digest t p in
      let interp_dt =
        match locked t (fun () -> Hashtbl.find_opt t.interp_s key) with
        | Some dt -> dt
        | None ->
          let _, dt =
            timed (fun () -> span t "obs.model_calib" (fun () -> Interp.run p))
          in
          record_interp t key dt;
          dt
      in
      let w0 = Gc.minor_words () in
      let s, dt = timed (fun () -> span t "cpu.simulate" sim) in
      let words = Gc.minor_words () -. w0 in
      add t "cpu.simulate_calls" 1.0;
      add t "cpu.sim_insns" (float_of_int s.Pipeline.instructions);
      add t "cpu.sim_cycles" (float_of_int s.Pipeline.cycles);
      add t "cpu.minor_words" words;
      locked t (fun () ->
          t.energy <- Account.total s.Pipeline.energy :: t.energy;
          Hashtbl.replace t.sim_keys key ();
          t.model_s <- t.model_s +. (dt -. interp_dt));
      s
    end
  in
  ignore (verdict t (Int64.to_string s.Pipeline.checksum = expect));
  s

(* --- core --------------------------------------------------------------- *)

let vrp t p =
  let r = span t "core.vrp" (fun () -> Vrp.run p) in
  add t "core.vrp_visits" (float_of_int (Vrp.fixpoint_stats r).Vrp.visits)

let vrs t ~cost p =
  let a = span t "core.vrs_analyze" (fun () -> Vrs.analyze p) in
  add t "core.vrs_points" (float_of_int (Vrs.profiled_points a));
  let config = { Vrs.default_config with test_cost_nj = Vrs.cost_of_label cost } in
  ignore (span t "core.vrs_specialize" (fun () -> Vrs.specialize ~config a p))

(* --- pass ---------------------------------------------------------------- *)

let chain t ?store spec p =
  fst (span t "pass.chain" (fun () -> Pass.run ?store spec p))

let store_counts store =
  List.fold_left
    (fun (h, m) (_, h', m') -> (h + h', m + m'))
    (0, 0)
    (Pass.Store.pass_stats store)

(* --- derived series ------------------------------------------------------- *)

(* Per-layer metrics from the spans and counters.  [extra] supplies the
   ones measured outside these wrappers (harness phases, server and
   fleet counters, wire and route times). *)
let metrics t ~extra =
  let rc = match t.rc with Some r -> r | None -> invalid_arg "untraced" in
  let by = Spans.by_name rc in
  let self n = fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt by n)) in
  let ratio a b = if b <= 0.0 then 0.0 else a /. b in
  let calls = get t "cpu.simulate_calls" and insns = get t "cpu.sim_insns" in
  let steps = get t "ir.interp_steps" in
  let base =
    [ ("minic.parse_s", self "minic.parse");
      ("minic.lower_s", self "minic.lower");
      ("minic.static_insns", get t "minic.static_insns");
      ("regalloc.alloc_s", self "regalloc.alloc");
      ("regalloc.spill_slot_bytes", get t "regalloc.spill_slot_bytes");
      ("ir.interp_s", self "ir.interp");
      ("ir.interp_steps", steps);
      ("ir.interp_ns_per_step", ratio (self "ir.interp" *. 1e9) steps);
      ("cpu.simulate_s", self "cpu.simulate");
      ("cpu.simulate_calls", calls);
      ("cpu.sim_insns", insns);
      ("cpu.sim_cycles", get t "cpu.sim_cycles");
      ("cpu.sim_ns_per_insn", ratio (self "cpu.simulate" *. 1e9) insns);
      ("cpu.minor_words_per_insn", ratio (get t "cpu.minor_words") insns);
      ("cpu.model_ns_per_insn", ratio (t.model_s *. 1e9) insns);
      ("cpu.sim_useful_ratio",
       ratio (float_of_int (Hashtbl.length t.sim_keys)) calls);
      ("energy.model_nj", List.fold_left ( +. ) 0.0 (List.sort compare t.energy));
      ("core.vrp_s", self "core.vrp");
      ("core.vrp_visits", get t "core.vrp_visits");
      ("core.vrs_analyze_s", self "core.vrs_analyze");
      ("core.vrs_specialize_s", self "core.vrs_specialize");
      ("core.vrs_points", get t "core.vrs_points");
      ("pass.chain_s", self "pass.chain");
      ("pass.store_hits", get t "pass.store_hits");
      ("pass.store_misses", get t "pass.store_misses");
      ("pass.store_hit_ratio",
       ratio (get t "pass.store_hits")
         (get t "pass.store_hits" +. get t "pass.store_misses"));
      ("server.decode_s", self "server.decode");
      ("server.key_s", self "server.key");
      ("server.analyze_s", self "server.analyze");
      ("server.encode_s", self "server.encode");
      ("json.decode_ns_per_byte",
       ratio (self "json.decode" *. 1e9) (get t "json.decode_bytes"));
      ("json.encode_ns_per_byte",
       ratio (self "server.encode" *. 1e9) (get t "json.encode_bytes"));
      ("json.response_bytes", get t "json.response_bytes") ]
  in
  let all = base @ extra in
  List.map
    (fun (name, _) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name all)))
    Catalog.per_layer
