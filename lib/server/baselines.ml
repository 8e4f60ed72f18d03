module Pipeline = Ogc_cpu.Pipeline

type t = {
  m : Mutex.t;
  capacity : int;
  runs : (string, Pipeline.run) Hashtbl.t;
  order : string Queue.t;  (* insertion order: FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 256) () =
  {
    m = Mutex.create ();
    capacity = max capacity 1;
    runs = Hashtbl.create 16;
    order = Queue.create ();
    hits = 0;
    misses = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let find_or_run t key run =
  let found =
    locked t (fun () ->
        let r = Hashtbl.find_opt t.runs key in
        (match r with
        | Some _ -> t.hits <- t.hits + 1
        | None -> t.misses <- t.misses + 1);
        r)
  in
  match found with
  | Some r -> r
  | None ->
    (* Simulate outside the lock: other keys stay servable meanwhile. *)
    let r = run () in
    locked t (fun () ->
        match Hashtbl.find_opt t.runs key with
        | Some first -> first
        | None ->
          while Hashtbl.length t.runs >= t.capacity do
            match Queue.take_opt t.order with
            | Some old -> Hashtbl.remove t.runs old
            | None -> Hashtbl.reset t.runs
          done;
          Hashtbl.replace t.runs key r;
          Queue.add key t.order;
          r)

let stats t = locked t (fun () -> (Hashtbl.length t.runs, t.hits, t.misses))
