(* Processes under test and the sockets that reach them. *)

type t = { pid : int; label : string; sock : string }

let children : t list ref = ref []
let children_mu = Mutex.create ()

let spawn ~ogc ~log ~label ~sock args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err)
      (fun () -> Unix.create_process ogc (Array.of_list (ogc :: args)) null null err)
  in
  let p = { pid; label; sock } in
  Mutex.lock children_mu;
  children := p :: !children;
  Mutex.unlock children_mu;
  p

(* --- NDJSON client --------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(timeout_s = 60.0) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX path);
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request line out, one response line back. *)
let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let rpc_once ?timeout_s path line =
  let c = connect ?timeout_s path in
  Fun.protect ~finally:(fun () -> close c) (fun () -> rpc c line)

let op_line op =
  Printf.sprintf {|{"proto":%d,"op":"%s"}|} Ogc_server.Protocol.proto_version op

let status_ok line =
  match Ogc_json.Json.(get_string "status" (of_string line)) with
  | "ok" -> true
  | _ -> false
  | exception _ -> false

(* Poll until the process answers [ping]; fails if it exits first or
   stays silent for [timeout_s]. *)
let wait_ready ?(timeout_s = 20.0) p =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> ()
    | _ -> failwith (p.label ^ " exited during start-up"));
    match rpc_once ~timeout_s:5.0 p.sock (op_line "ping") with
    | l when status_ok l -> ()
    | _ | (exception (Unix.Unix_error _ | Sys_error _ | End_of_file)) ->
      if Unix.gettimeofday () > deadline then
        failwith (p.label ^ " did not become ready")
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

(* Peak resident set (VmHWM) in MB, of a child or of this process. *)
let peak_rss_mb_of path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  go ()

let peak_rss_mb p = peak_rss_mb_of (Printf.sprintf "/proc/%d/status" p.pid)
let self_peak_rss_mb () = peak_rss_mb_of "/proc/self/status"

(* The one CPU this process may run on, if its affinity allows only one
   (run.py pins fleet-hot so): its row of /proc/stat is the one whose
   steal matters. *)
let pinned_cpu =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | l -> (
        match String.split_on_char ':' l with
        | [ "Cpus_allowed_list"; v ] -> int_of_string_opt (String.trim v)
        | _ -> go ())
    in
    go ()

(* Host CPU time stolen from the virtual machine so far, in seconds (the steal
   column of /proc/stat, of the pinned CPU if there is one, else of all
   CPUs): a neighbour's load the benchmark cannot control, printed next
   to the figures it disturbs. *)
let steal_s () =
  let row =
    match pinned_cpu with Some c -> Printf.sprintf "cpu%d" c | None -> "cpu"
  in
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
      | r :: fields when r = row && List.length fields >= 8 ->
        float_of_string (List.nth fields 7) /. 100.0
      | _ -> go ()
      | exception _ -> 0.0
    in
    go ()

(* SIGINT drains gracefully; a process that has not exited after five
   seconds is killed.  Either way it is reaped before this returns. *)
let stop p =
  Mutex.lock children_mu;
  children := List.filter (fun q -> q.pid <> p.pid) !children;
  Mutex.unlock children_mu;
  (try Unix.kill p.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] p.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let kill_all () =
  List.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
    !children;
  children := []
