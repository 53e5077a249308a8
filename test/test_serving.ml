(* The serving core contract, driven directly with a stub handler, plus
   the two roles built on it:

   1. admission control: with every worker busy and the queue full, a new
      connection is shed at once with GTLX0009 carrying the queue depth and
      the retry-after hint;
   2. the drain: queued stragglers are answered with GTLX0009 "shutting
      down", in-flight requests finish, the socket file is removed;
   3. framing: a raising handler is answered with the structured error it
      wraps to, a malformed frame with err:XPST0003, and the ticker runs
      the caller's tick;
   4. the safe bind: a path that is not a socket and a socket a live
      listener answers are refused with FODC0002 and left alone; a stale
      socket (its listener died without removing it) is replaced;
   5. the router's admission shed and drain run through the same core,
      and its [served] counts only queries answered with a value. *)

open Galatex_server
module Router = Galatex_cluster.Router

let counter = ref 0

let fresh_name prefix =
  incr counter;
  Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter

let rec poll ?(tries = 250) msg f =
  if f () then ()
  else if tries = 0 then Alcotest.failf "timeout waiting for %s" msg
  else begin
    Thread.delay 0.02;
    poll ~tries:(tries - 1) msg f
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* one daemon over a one-book snapshot; [sock] is where it listens *)
let with_index f =
  let dir = fresh_name "srv-scratch" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ftindex.Store.save ~dir
        (Ftindex.Indexer.index_strings
           [ ("a.xml", "<book><title>Usability testing</title></book>") ]);
      f dir)

let with_daemon f =
  with_index (fun dir ->
      let sock = fresh_name "ssh" ^ ".sock" in
      let daemon =
        Server.start (Server.default_config ~index_dir:dir ~socket_path:sock)
      in
      Fun.protect ~finally:(fun () -> Server.stop daemon) (fun () -> f sock))

(* --- a gate for parking workers deterministically --- *)

type gate = {
  m : Mutex.t;
  c : Condition.t;
  mutable opened : bool;
  picked : int Atomic.t;
}

let gate () =
  { m = Mutex.create (); c = Condition.create (); opened = false;
    picked = Atomic.make 0 }

let gate_hook g () =
  Atomic.incr g.picked;
  Mutex.lock g.m;
  while not g.opened do
    Condition.wait g.c g.m
  done;
  Mutex.unlock g.m

let open_gate g =
  Mutex.lock g.m;
  g.opened <- true;
  Condition.broadcast g.c;
  Mutex.unlock g.m

(* --- the stub role --- *)

let stub_stats = { Protocol.counters = [ ("stub", 1) ]; breakers = [] }

let stub_handle = function
  | Protocol.Stats -> Protocol.Stats_reply stub_stats
  | _ -> failwith "stub handler raised"

let core_config sock =
  {
    Serving.socket_path = sock;
    workers = 2;
    queue_limit = 8;
    retry_after_ms = 25;
    recv_timeout = 5.0;
    idle_timeout = 2.0;
    tick_interval = 0.01;
    on_request = ignore;
  }

let with_core ?(tweak = Fun.id) ?(tick = ignore) f =
  let sock = fresh_name "core" ^ ".sock" in
  let core = Serving.create ~role:"stub" (tweak (core_config sock)) in
  Serving.start core ~handle:stub_handle ~tick;
  Fun.protect ~finally:(fun () -> Serving.stop core) (fun () -> f sock core)

let no_breakers = Breaker.create ~threshold:1 ~cooldown:1

let row core key =
  match List.assoc_opt key (Serving.stats core [] no_breakers).Protocol.counters with
  | Some v -> v
  | None -> Alcotest.failf "stats row %s missing" key

let ok_failure what = function
  | Ok (Protocol.Failure e) -> e
  | Ok _ -> Alcotest.failf "%s: unexpected success reply" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let ok_stats what = function
  | Ok (Protocol.Stats_reply s) -> s
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "%s: unexpected failure %s: %s" what e.Protocol.code
        e.Protocol.message
  | Ok _ -> Alcotest.failf "%s: unexpected reply kind" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_shutting_down what e =
  Alcotest.(check string) (what ^ ": code") "gtlx:GTLX0009" e.Protocol.code;
  Alcotest.(check bool) (what ^ ": says shutting down") true
    (contains "shutting down" e.Protocol.message)

let stats_async sock =
  let r = ref (Error "pending") in
  let th =
    Thread.create (fun () -> r := Client.request ~socket_path:sock Protocol.Stats) ()
  in
  (r, th)

(* ------------------------------------------------------------------ *)
(* The core with a stub handler.                                       *)

let test_core_sheds_when_full () =
  let g = gate () in
  with_core
    ~tweak:(fun c -> { c with workers = 1; queue_limit = 1; on_request = gate_hook g })
    (fun sock core ->
      let r1, t1 = stats_async sock in
      poll "worker parked" (fun () -> Atomic.get g.picked = 1);
      let r2, t2 = stats_async sock in
      poll "queue filled" (fun () -> row core "queue_depth" = 1);
      let e = ok_failure "shed" (Client.request ~socket_path:sock Protocol.Stats) in
      Alcotest.(check string) "shed code" "gtlx:GTLX0009" e.Protocol.code;
      Alcotest.(check (option int)) "queue depth carried" (Some 1)
        e.Protocol.queue_depth;
      Alcotest.(check (option int)) "retry hint carried" (Some 25)
        e.Protocol.retry_after_ms;
      Alcotest.(check bool) "role named" true
        (contains "stub overloaded (queue full)" e.Protocol.message);
      Alcotest.(check int) "shed counted" 1 (row core "shed");
      Alcotest.(check int) "all three accepted" 3 (row core "accepted");
      open_gate g;
      Thread.join t1;
      Thread.join t2;
      ignore (ok_stats "request 1 served" !r1);
      ignore (ok_stats "request 2 served" !r2))

let test_core_drain () =
  let g = gate () in
  let sock = fresh_name "core" ^ ".sock" in
  let core =
    Serving.create ~role:"stub"
      { (core_config sock) with workers = 1; queue_limit = 4; on_request = gate_hook g }
  in
  Serving.start core ~handle:stub_handle ~tick:ignore;
  let r1, t1 = stats_async sock in
  poll "worker parked" (fun () -> Atomic.get g.picked = 1);
  let r2, t2 = stats_async sock in
  let r3, t3 = stats_async sock in
  poll "two queued" (fun () -> row core "queue_depth" = 2);
  Serving.request_shutdown core;
  (* the stragglers are answered while the in-flight request still runs *)
  Thread.join t2;
  Thread.join t3;
  check_shutting_down "straggler 2" (ok_failure "straggler 2" !r2);
  check_shutting_down "straggler 3" (ok_failure "straggler 3" !r3);
  Alcotest.(check bool) "draining" true (Serving.draining core);
  check_shutting_down "handler-side refusal"
    (ok_failure "refusal"
       (Ok (Serving.unless_draining core (fun () -> Protocol.Stats_reply stub_stats))));
  Alcotest.(check int) "shed_shutdown counted" 3 (row core "shed_shutdown");
  open_gate g;
  Serving.wait core;
  Thread.join t1;
  ignore (ok_stats "in-flight request finished" !r1);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists sock)

let test_core_framing_and_tick () =
  let ticks = Atomic.make 0 in
  with_core ~tick:(fun () -> Atomic.incr ticks) (fun sock core ->
      let e =
        ok_failure "raising handler"
          (Client.request ~socket_path:sock Protocol.Health)
      in
      Alcotest.(check string) "wrapped as internal" "gtlx:GTLX0005" e.Protocol.code;
      Alcotest.(check bool) "carries the exception" true
        (contains "stub handler raised" e.Protocol.message);
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          Netio.write_frame fd "ZZZZ-not-a-request";
          match Result.map Protocol.decode_response (Netio.read_frame fd) with
          | Ok (Ok (Protocol.Failure e)) ->
              Alcotest.(check string) "malformed code" "err:XPST0003"
                e.Protocol.code
          | _ -> Alcotest.fail "expected a structured failure");
      Alcotest.(check int) "malformed counted" 1 (row core "client_errors");
      poll "ticker ran" (fun () -> Atomic.get ticks > 0))

(* ------------------------------------------------------------------ *)
(* The safe bind.                                                      *)

let check_refused what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected FODC0002" what
  | exception Xquery.Errors.Error e ->
      Alcotest.(check string) (what ^ ": code") "err:FODC0002"
        (Xquery.Errors.code_string e.Xquery.Errors.code)

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* [galatex serve --socket victim.txt] used to delete the file *)
let test_bind_refuses_regular_file () =
  let victim = fresh_name "victim" ^ ".txt" in
  Out_channel.with_open_bin victim (fun oc -> output_string oc "precious");
  Fun.protect
    ~finally:(fun () -> Sys.remove victim)
    (fun () ->
      with_index (fun dir ->
          check_refused "daemon" (fun () ->
              Server.start
                (Server.default_config ~index_dir:dir ~socket_path:victim)));
      check_refused "faultnet proxy" (fun () ->
          Faultnet.start ~listen:victim ~target:"nowhere.sock"
            ~plan_for:(fun _ -> (Faultnet.clean, Faultnet.clean)));
      Alcotest.(check string) "file untouched" "precious" (read_all victim))

let connects sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* [galatex route --socket S] beside a live [serve] on S used to unlink
   the daemon's socket, leaving it running but unreachable *)
let test_bind_refuses_live_listener () =
  with_daemon (fun sock ->
      check_refused "router" (fun () ->
          Router.start
            (Router.default_config
               ~shards:[ { Router.primary = sock; replicas = [] } ]
               ~socket_path:sock));
      check_refused "serving core" (fun () -> Serving.listen sock);
      match Client.health ~socket_path:sock () with
      | Ok _ -> ()
      | Error reason -> Alcotest.failf "daemon unreachable: %s" reason)

let test_bind_replaces_stale_socket () =
  let sock = fresh_name "stale" ^ ".sock" in
  (* listeners that died without unlinking, as after kill -9: one at the
     path, one at the temporary name it binds first *)
  List.iter
    (fun path ->
      let dead = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_UNIX path);
      Unix.listen dead 1;
      Unix.close dead)
    [ sock; sock ^ ".tmp" ];
  Alcotest.(check bool) "stale socket file left behind" true (Sys.file_exists sock);
  Alcotest.(check bool) "nobody answers it" false (connects sock);
  let fd = Serving.listen sock in
  Alcotest.(check bool) "temporary name cleared" false (Sys.file_exists (sock ^ ".tmp"));
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove sock)
    (fun () -> Alcotest.(check bool) "replaced and live" true (connects sock))

(* A client that waits for the socket file to appear (the CLI smoke, a
   follower's bootstrap) must find it listening: the file may only show
   up once connections are accepted.  A poller connects in a tight loop
   while the path is bound; before the file exists it sees ENOENT, and
   after that it must never see ECONNREFUSED. *)
let test_bind_listens_before_path_appears () =
  let refused = ref 0 in
  for _ = 1 to 100 do
    let sock = fresh_name "race" ^ ".sock" in
    let give_up = Unix.gettimeofday () +. 5.0 in
    let polling = Atomic.make false in
    let poller =
      Thread.create
        (fun () ->
          let rec attempt () =
            Atomic.set polling true;
            let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            let outcome =
              match Unix.connect fd (Unix.ADDR_UNIX sock) with
              | () -> `Connected
              | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Absent
              | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Refused
            in
            Unix.close fd;
            match outcome with
            | `Connected -> ()
            | `Refused -> incr refused
            | `Absent -> if Unix.gettimeofday () < give_up then attempt ()
          in
          attempt ())
        ()
    in
    while not (Atomic.get polling) do
      Thread.yield ()
    done;
    let fd = Serving.listen sock in
    Thread.join poller;
    Unix.close fd;
    Sys.remove sock
  done;
  Alcotest.(check int) "connects refused after the path appeared" 0 !refused

(* ------------------------------------------------------------------ *)
(* The router on the core.                                             *)

let with_router ?(tweak = Fun.id) ~shards f =
  let sock = fresh_name "srt" ^ ".sock" in
  let cfg =
    tweak
      {
        (Router.default_config
           ~shards:(List.map (fun p -> { Router.primary = p; replicas = [] }) shards)
           ~socket_path:sock)
        with
        Router.retries = 0;
        default_deadline = 2.0;
        tick_interval = 0.02;
      }
  in
  let r = Router.start cfg in
  Fun.protect ~finally:(fun () -> Router.stop r) (fun () -> f sock r)

let router_stat r key =
  match List.assoc_opt key (Router.stats r).Protocol.counters with
  | Some v -> v
  | None -> Alcotest.failf "router counter %s missing" key

let test_router_shed_and_drain () =
  let g = gate () in
  (* Stats requests never reach a shard, so no shard needs to be up *)
  with_router ~shards:[ fresh_name "absent" ^ ".sock" ]
    ~tweak:(fun c ->
      { c with Router.workers = 1; queue_limit = 1; on_request = gate_hook g })
    (fun sock r ->
      let r1, t1 = stats_async sock in
      poll "worker parked" (fun () -> Atomic.get g.picked = 1);
      let r2, t2 = stats_async sock in
      poll "queue filled" (fun () -> router_stat r "queue_depth" = 1);
      let e = ok_failure "shed" (Client.request ~socket_path:sock Protocol.Stats) in
      Alcotest.(check string) "shed code" "gtlx:GTLX0009" e.Protocol.code;
      Alcotest.(check bool) "router named" true
        (contains "router overloaded (queue full)" e.Protocol.message);
      Alcotest.(check int) "shed counted" 1 (router_stat r "shed");
      Router.request_shutdown r;
      Thread.join t2;
      check_shutting_down "router straggler" (ok_failure "straggler" !r2);
      open_gate g;
      Router.wait r;
      Thread.join t1;
      ignore (ok_stats "in-flight request finished" !r1);
      Alcotest.(check int) "shed_shutdown counted" 1
        (router_stat r "shed_shutdown");
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock))

let test_router_served_means_values () =
  with_daemon (fun shard ->
      with_router ~shards:[ shard ] (fun sock r ->
          let query text =
            Client.request ~socket_path:sock
              (Protocol.Query (Protocol.query_request text))
          in
          (match query "count(//title)" with
          | Ok (Protocol.Value _) -> ()
          | _ -> Alcotest.fail "expected a value");
          Alcotest.(check int) "a value counts" 1 (router_stat r "served");
          ignore (ok_stats "stats" (Client.request ~socket_path:sock Protocol.Stats));
          Alcotest.(check int) "a stats request does not" 1
            (router_stat r "served");
          ignore (ok_failure "bad query" (query "for $x in"));
          Alcotest.(check int) "a failed query does not" 1
            (router_stat r "served");
          Alcotest.(check int) "both queries routed" 2
            (router_stat r "route_queries")))

let tests =
  [
    Alcotest.test_case "core sheds with GTLX0009 when the queue is full" `Quick
      test_core_sheds_when_full;
    Alcotest.test_case "core drain answers stragglers and removes the socket"
      `Quick test_core_drain;
    Alcotest.test_case "core framing errors and ticker" `Quick
      test_core_framing_and_tick;
    Alcotest.test_case "bind refuses a regular file" `Quick
      test_bind_refuses_regular_file;
    Alcotest.test_case "bind refuses a live listener" `Quick
      test_bind_refuses_live_listener;
    Alcotest.test_case "bind replaces a stale socket" `Quick
      test_bind_replaces_stale_socket;
    Alcotest.test_case "bind listens before the path appears" `Quick
      test_bind_listens_before_path_appears;
    Alcotest.test_case "router shed and drain through the core" `Quick
      test_router_shed_and_drain;
    Alcotest.test_case "router served counts only values" `Quick
      test_router_served_means_values;
  ]
