(* The serving processes: `galatex serve` / `galatex route` launched as
   children of the benchmark, probed for health, killed and reaped.
   Every child is registered so [stop_all] (run at exit, also on error)
   leaves nothing behind. *)

module Cli = Galatex_server.Client

type t = {
  pid : int;
  sock : string;
  args : string list;
  log : string;
  router : bool;  (** routers spawn a thread per shard per query *)
}

let live : t list ref = ref []

let spawn ~exe ~log args =
  let argv = Array.of_list (exe :: args) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe argv devnull fd fd in
  Unix.close fd;
  Unix.close devnull;
  pid

let start ?(router = false) ~exe ~log ~sock args =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let p = { pid = spawn ~exe ~log args; sock; args; log; router } in
  live := p :: !live;
  p

let serve ~exe ~log ~dir ~sock =
  start ~exe ~log ~sock [ "serve"; "--index"; dir; "--socket"; sock; "--quiet" ]

let route ~exe ~log ~shards ~sock =
  start ~router:true ~exe ~log ~sock
    ("route" :: List.concat_map (fun s -> [ "--shard"; s ]) shards
    @ [ "--socket"; sock; "--quiet" ])

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let forget p = live := List.filter (fun q -> q.pid <> p.pid) !live

(* kill -9 and reap. *)
let kill9 p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
  forget p

(* SIGTERM (graceful drain), SIGKILL after [grace] seconds. *)
let stop ?(grace = 5.0) p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  while (not (reaped p.pid)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (reaped p.pid) then kill9 p else forget p

let stop_all () = List.iter (fun p -> stop p) !live

(* Relaunch a killed process with its original arguments. *)
let restart ~exe p = start ~router:p.router ~exe ~log:p.log ~sock:p.sock p.args

exception Unhealthy of string

(* Poll [Health] until the process answers; fail after [timeout] s or
   when the process died. *)
let wait_healthy ?(timeout = 60.0) p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Cli.health ~recv_timeout:2.0 ~socket_path:p.sock () with
    | Ok _ -> ()
    | Error reason ->
        if reaped p.pid then (
          forget p;
          raise (Unhealthy (Printf.sprintf "%s exited (see %s)" p.sock p.log)))
        else if Unix.gettimeofday () > deadline then
          raise (Unhealthy (Printf.sprintf "%s: %s" p.sock reason))
        else (
          Thread.delay 0.002;
          go ())
  in
  go ()

(* Peak resident set (VmHWM) in bytes. *)
let peak_rss p =
  let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb *. 1024.0)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

(* CPU seconds (user + system) the process has used, excluding time the
   hypervisor stole.  A daemon keeps a fixed set of threads, so the sum
   of its live threads' scheduler run times is exact to the nanosecond;
   a router spawns short-lived scatter threads, so it is read from
   /proc/<pid>/stat, which counts exited threads too, in 10 ms ticks. *)
let cpu_seconds p =
  if p.router then
    let line = read_file (Printf.sprintf "/proc/%d/stat" p.pid) in
    let close = String.rindex line ')' in
    let fields = String.split_on_char ' ' (String.sub line (close + 2) (String.length line - close - 2)) in
    (* utime and stime are fields 14 and 15; [fields] starts at field 3 *)
    (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12)) /. 100.0
  else
    let dir = Printf.sprintf "/proc/%d/task" p.pid in
    Array.fold_left
      (fun acc tid ->
        match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
        | line -> acc +. (float_of_string (List.hd (String.split_on_char ' ' line)) /. 1e9)
        | exception Sys_error _ -> acc)
      0.0 (Sys.readdir dir)
