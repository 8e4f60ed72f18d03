(* The benchmark's own span recorder.  The traced run wraps every call it
   makes into a layer's public API in [with_]; the program under test is
   never instrumented.  Spans live in memory until [write_chrome] dumps
   them as a Chrome trace_event document Perfetto loads. *)

type span = {
  id : int;
  name : string;
  lane : int;  (** 0-based worker lane (a domain) that made the call *)
  req : int;  (** request id within the workload, -1 outside requests *)
  parent : int;  (** enclosing span id on the same lane, -1 at top level *)
  t0 : float;
  t1 : float;
}

type t = {
  mu : Mutex.t;
  mutable spans : span list;
  next : int Atomic.t;
  origin : float;
}

let create () =
  { mu = Mutex.create (); spans = []; next = Atomic.make 0;
    origin = Unix.gettimeofday () }

(* Per-domain call stack, current lane and request id. *)
let stack : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let lane_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let req_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))

let set_lane l = Domain.DLS.get lane_key := l
let with_req r f =
  let cell = Domain.DLS.get req_key in
  let saved = !cell in
  cell := r;
  Fun.protect ~finally:(fun () -> cell := saved) f

let with_ (r : t option) name f =
  match r with
  | None -> f ()
  | Some r ->
    let id = Atomic.fetch_and_add r.next 1 in
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> -1 in
    st := id :: !st;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        st := List.tl !st;
        let s =
          { id; name; lane = !(Domain.DLS.get lane_key);
            req = !(Domain.DLS.get req_key); parent; t0; t1 }
        in
        Mutex.lock r.mu;
        r.spans <- s :: r.spans;
        Mutex.unlock r.mu)

let spans r = List.rev r.spans

(* Self time of every span: its duration minus its direct children's. *)
let self_times r =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    r.spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. c))
    (spans r)

(* Per span name: total self seconds and number of spans. *)
let by_name r =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt h s.name) in
      Hashtbl.replace h s.name (t +. self, n + 1))
    (self_times r);
  h

let write_chrome r path =
  let us t = Printf.sprintf "%.3f" ((t -. r.origin) *. 1e6) in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\
         \"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d,\"req\":%d}}"
        s.name
        (match String.index_opt s.name '.' with
        | Some k -> String.sub s.name 0 k
        | None -> s.name)
        (us s.t0)
        (Printf.sprintf "%.3f" ((s.t1 -. s.t0) *. 1e6))
        s.lane s.id s.parent s.req)
    (spans r);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
