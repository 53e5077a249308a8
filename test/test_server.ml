(* The serving robustness contract:

   1. a request is answered with exactly one framed response — a value or
      a structured error — whatever happens inside evaluation (chaos sweep:
      injected eval faults, torn clients, malformed frames);
   2. admission control sheds excess load with GTLX0009 (queue depth +
      retry-after hint) instead of queueing unboundedly, and the client's
      jittered backoff turns a shed into a served retry;
   3. a systematically-failing translated strategy trips its circuit
      breaker: requests bypass to the reference path, a half-open probe
      re-tests it after a request-counted cooldown;
   4. SIGHUP-style reload swaps snapshots atomically off the request path,
      and a corrupt new snapshot leaves the old engine serving;
   5. shutdown drains: in-flight requests finish, queued stragglers are
      answered with GTLX0009, the socket file is removed;
   6. live updates are single-writer, WAL-first and exact: concurrent
      Update batches serialize, every acknowledged record survives a
      restart (idempotent replay), compaction folds the log into a fresh
      generation on request or past the size threshold — and the
      maintenance ticker does reloads/compactions with zero in-flight
      requests and every worker parked;
   7. the client's retry loop survives a daemon restart (connection
      refused / missing socket retry the same backoff as a shed), with
      the backoff bound pure and property-tested.

   Everything is driven in-process (Server.start + Client) with the
   deterministic injectors from PR 1 (eval faults) and PR 2 (store I/O
   faults); no timing assumption beyond bounded polling of counters. *)

open Galatex_server

(* --- scratch dirs and sockets (inside the dune sandbox cwd; socket
   paths must stay short of the 108-byte sun_path limit, so they are
   relative) --- *)

let counter = ref 0

let fresh_name prefix =
  incr counter;
  Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = fresh_name "srv-scratch" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- fixtures --- *)

let corpus_v1 =
  [
    ( "a.xml",
      "<book><title>Usability testing</title><p>Software usability and \
       testing of web site design.</p></book>" );
  ]

let corpus_v2 =
  [ ("a.xml", "<book><title>Zebra quokka</title><p>entirely new data</p></book>") ]

let save_corpus ~dir sources =
  Ftindex.Store.save ~dir (Ftindex.Indexer.index_strings sources)

let with_server ?(tweak = fun c -> c) ?(sources = corpus_v1) () f =
  with_dir (fun dir ->
      save_corpus ~dir sources;
      let sock = fresh_name "gtx" ^ ".sock" in
      let cfg = tweak (Server.default_config ~index_dir:dir ~socket_path:sock) in
      let t = Server.start cfg in
      Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f dir sock t))

let stat t key =
  match List.assoc_opt key (Server.stats t).Protocol.counters with
  | Some v -> v
  | None -> Alcotest.failf "stats counter %s missing" key

let rec poll ?(tries = 250) msg f =
  if f () then ()
  else if tries = 0 then Alcotest.failf "timeout waiting for %s" msg
  else begin
    Thread.delay 0.02;
    poll ~tries:(tries - 1) msg f
  end

let ok_value what = function
  | Ok (Protocol.Value v) -> v
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "%s: unexpected failure %s: %s" what e.Protocol.code
        e.Protocol.message
  | Ok _ -> Alcotest.failf "%s: unexpected reply kind" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let ok_failure what = function
  | Ok (Protocol.Failure e) -> e
  | Ok _ -> Alcotest.failf "%s: unexpected success reply" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let ok_update what = function
  | Ok (Protocol.Update_reply r) -> r
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "%s: unexpected failure %s: %s" what e.Protocol.code
        e.Protocol.message
  | Ok _ -> Alcotest.failf "%s: unexpected reply kind" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let ok_compact what = function
  | Ok (Protocol.Compact_reply r) -> r
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "%s: unexpected failure %s: %s" what e.Protocol.code
        e.Protocol.message
  | Ok _ -> Alcotest.failf "%s: unexpected reply kind" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let title_query = {|//title[. ftcontains "usability"]|}

(* --- a gate for parking workers deterministically --- *)

type gate = {
  m : Mutex.t;
  c : Condition.t;
  mutable opened : bool;
  picked : int Atomic.t;  (* workers that reached the gate *)
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

(* ------------------------------------------------------------------ *)
(* Protocol round trips (pure codec, no server).                       *)

let test_protocol_roundtrip () =
  let q =
    Protocol.query_request ~strategy:Galatex.Engine.Translated
      ~fallback:false ~context:"a.xml"
      ~limits:
        { Xquery.Limits.max_steps = Some 100; max_depth = None;
          max_matches = Some 7; timeout = Some 1.5 }
      ~fault_at:3 "//p"
  in
  (match Protocol.decode_request (Protocol.encode_request (Protocol.Query q)) with
  | Ok (Protocol.Query q') ->
      Alcotest.(check bool) "query round trip" true (q = q')
  | Ok _ -> Alcotest.fail "decoded as another request"
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (match Protocol.decode_request (Protocol.encode_request Protocol.Stats) with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats round trip");
  let ops =
    [
      Ftindex.Wal.Add_doc { uri = "b.xml"; source = "<doc>new text</doc>" };
      Ftindex.Wal.Remove_doc "a.xml";
    ]
  in
  (match
     Protocol.decode_request
       (Protocol.encode_request (Protocol.Update { ops; epoch = 7 }))
   with
  | Ok (Protocol.Update { ops = ops'; epoch }) ->
      Alcotest.(check bool) "update round trip" true (ops = ops');
      Alcotest.(check int) "update epoch round trip" 7 epoch
  | _ -> Alcotest.fail "update round trip");
  (match
     Protocol.decode_request
       (Protocol.encode_request (Protocol.Compact { epoch = 9 }))
   with
  | Ok (Protocol.Compact { epoch = 9 }) -> ()
  | _ -> Alcotest.fail "compact round trip");
  (match
     Protocol.decode_request
       (Protocol.encode_request (Protocol.Promote { p_epoch = 4 }))
   with
  | Ok (Protocol.Promote { p_epoch = 4 }) -> ()
  | _ -> Alcotest.fail "promote round trip");
  (match
     Protocol.decode_request
       (Protocol.encode_request
          (Protocol.Demote { d_epoch = 6; d_primary = "pri.sock" }))
   with
  | Ok (Protocol.Demote { d_epoch = 6; d_primary = "pri.sock" }) -> ()
  | _ -> Alcotest.fail "demote round trip");
  let update_resp =
    Protocol.Update_reply
      { Protocol.u_generation = 3; u_last_seq = 17; u_records = 5;
        u_bytes = 512; u_epoch = 2 }
  in
  (match Protocol.decode_response (Protocol.encode_response update_resp) with
  | Ok r -> Alcotest.(check bool) "update reply round trip" true (r = update_resp)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  let compact_resp =
    Protocol.Compact_reply { Protocol.c_generation = 4; c_folded = 5 }
  in
  (match Protocol.decode_response (Protocol.encode_response compact_resp) with
  | Ok r ->
      Alcotest.(check bool) "compact reply round trip" true (r = compact_resp)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  let resp =
    Protocol.Failure
      { Protocol.code = "gtlx:GTLX0009"; error_class = "resource";
        message = "shed"; retry_after_ms = Some 25; queue_depth = Some 3 }
  in
  (match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok r -> Alcotest.(check bool) "response round trip" true (r = resp)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* cluster-era fields: deadline propagation, merge policy, health /
     reload requests, partial-result framing *)
  let qc =
    Protocol.query_request ~deadline_left:0.75 ~merge:(Protocol.Merge_topk 10)
      "//p"
  in
  (match
     Protocol.decode_request (Protocol.encode_request (Protocol.Query qc))
   with
  | Ok (Protocol.Query q') ->
      Alcotest.(check bool) "deadline+merge round trip" true (qc = q')
  | _ -> Alcotest.fail "deadline+merge round trip");
  (match Protocol.decode_request (Protocol.encode_request Protocol.Health) with
  | Ok Protocol.Health -> ()
  | _ -> Alcotest.fail "health round trip");
  (match Protocol.decode_request (Protocol.encode_request Protocol.Reload) with
  | Ok Protocol.Reload -> ()
  | _ -> Alcotest.fail "reload round trip");
  let partial_resp =
    Protocol.Value
      {
        Protocol.items = [ "<title>t</title>" ];
        strategy_used = "materialized";
        fell_back = false;
        steps = 12;
        generation = 2;
        seq = 5;
        partial =
          Some { Protocol.missing = [ 1; 3 ]; detail = "partition 1: down" };
      }
  in
  (match Protocol.decode_response (Protocol.encode_response partial_resp) with
  | Ok r ->
      Alcotest.(check bool) "partial reply round trip" true (r = partial_resp)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  let health_resp =
    Protocol.Health_reply
      {
        Protocol.h_generation = 7;
        h_wal_records = 3;
        h_draining = true;
        h_seq = 3;
        h_manifest_crc = 0xdeadbeef;
        h_epoch = 5;
        h_role = "primary";
        h_endpoints =
          [
            {
              Protocol.e_path = "/tmp/s0.sock";
              e_shard = 0;
              e_role = "replica";
              e_state = "half-open";
              e_up = true;
              e_generation = 7;
              e_seq = 1;
              e_epoch = 3;
              e_lag = Some 2;
            };
            {
              Protocol.e_path = "/tmp/s1.sock";
              e_shard = 1;
              e_role = "primary";
              e_state = "closed";
              e_up = false;
              e_generation = 0;
              e_seq = 0;
              e_epoch = 0;
              e_lag = None;
            };
          ];
      }
  in
  (match Protocol.decode_response (Protocol.encode_response health_resp) with
  | Ok r ->
      Alcotest.(check bool) "health reply round trip" true (r = health_resp)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* replication round trips: catch-up pull and snapshot transfer *)
  (match
     Protocol.decode_request
       (Protocol.encode_request (Protocol.Fetch_wal { from_seq = 42; epoch = 3 }))
   with
  | Ok (Protocol.Fetch_wal { from_seq = 42; epoch = 3 }) -> ()
  | _ -> Alcotest.fail "fetch-wal round trip");
  List.iter
    (fun file ->
      match
        Protocol.decode_request
          (Protocol.encode_request (Protocol.Fetch_snapshot { file }))
      with
      | Ok (Protocol.Fetch_snapshot { file = f }) when f = file -> ()
      | _ -> Alcotest.fail "fetch-snapshot round trip")
    [ None; Some "MANIFEST" ];
  let wal_resp =
    Protocol.Wal_reply
      {
        Protocol.w_generation = 3;
        w_last_seq = 99;
        w_epoch = 4;
        w_frames = "\x01binary\x00";
      }
  in
  (match Protocol.decode_response (Protocol.encode_response wal_resp) with
  | Ok r -> Alcotest.(check bool) "wal reply round trip" true (r = wal_resp)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  let snap_resp =
    Protocol.Snapshot_reply
      {
        Protocol.sn_generation = 5;
        sn_manifest_crc = 123456789;
        sn_files = [ "MANIFEST"; "docs.0000000005.seg" ];
        sn_data = Some "\x00raw\xffbytes";
      }
  in
  (match Protocol.decode_response (Protocol.encode_response snap_resp) with
  | Ok r ->
      Alcotest.(check bool) "snapshot reply round trip" true (r = snap_resp)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* a total decoder: garbage comes back as Error, never an exception *)
  List.iter
    (fun garbage ->
      match Protocol.decode_request garbage with
      | Ok _ | Error _ -> ())
    [ ""; "Z"; "Q"; "Qxx"; "H"; "Hx"; "Rx"; String.make 64 '\xff' ]

let test_breaker_state_machine () =
  let b = Breaker.create ~threshold:3 ~cooldown:2 in
  let key = "translated" in
  for _ = 1 to 2 do
    Alcotest.(check bool) "closed runs" true (Breaker.route b key = Breaker.Run);
    Breaker.record b key ~ok:false
  done;
  (* an intervening success resets the consecutive count *)
  Alcotest.(check bool) "still closed" true (Breaker.route b key = Breaker.Run);
  Breaker.record b key ~ok:true;
  for _ = 1 to 3 do
    ignore (Breaker.route b key);
    Breaker.record b key ~ok:false
  done;
  Alcotest.(check int) "tripped once" 1 (Breaker.trips_total b);
  Alcotest.(check bool) "open bypasses" true (Breaker.route b key = Breaker.Bypass);
  Alcotest.(check bool) "open bypasses again" true
    (Breaker.route b key = Breaker.Bypass);
  Alcotest.(check bool) "half-open probes" true
    (Breaker.route b key = Breaker.Probe);
  Alcotest.(check bool) "only one probe" true
    (Breaker.route b key = Breaker.Bypass);
  Breaker.record b key ~ok:false;
  Alcotest.(check int) "probe failure re-trips" 2 (Breaker.trips_total b);
  ignore (Breaker.route b key);
  ignore (Breaker.route b key);
  Alcotest.(check bool) "probes again" true (Breaker.route b key = Breaker.Probe);
  Breaker.record b key ~ok:true;
  Alcotest.(check bool) "closed after good probe" true
    (Breaker.route b key = Breaker.Run)

(* The half-open window under contention: when the cooldown expires, many
   workers may route the same strategy in the same instant — exactly one
   of them must be admitted as the probe, every other one must bypass,
   or a still-broken strategy gets hammered by a thundering herd of
   "probes".  Raced with a barrier so all threads hit route together. *)
let test_breaker_half_open_single_probe () =
  let threads = 8 in
  for round = 1 to 20 do
    let b = Breaker.create ~threshold:1 ~cooldown:1 in
    let key = "translated" in
    ignore (Breaker.route b key);
    Breaker.record b key ~ok:false;
    (* Open 1: one bypassed request brings it to half-open *)
    Alcotest.(check bool) "cooldown bypass" true
      (Breaker.route b key = Breaker.Bypass);
    let barrier = Mutex.create () and turnstile = Condition.create () in
    let released = ref false and arrived = ref 0 in
    let probes = Atomic.make 0 and bypasses = Atomic.make 0 in
    let racer () =
      Mutex.lock barrier;
      incr arrived;
      if !arrived = threads then begin
        released := true;
        Condition.broadcast turnstile
      end
      else
        while not !released do
          Condition.wait turnstile barrier
        done;
      Mutex.unlock barrier;
      match Breaker.route b key with
      | Breaker.Probe -> Atomic.incr probes
      | Breaker.Bypass -> Atomic.incr bypasses
      | Breaker.Run -> ()
    in
    let ts = List.init threads (fun _ -> Thread.create racer ()) in
    List.iter Thread.join ts;
    if Atomic.get probes <> 1 then
      Alcotest.failf "round %d: %d probes admitted (want exactly 1)" round
        (Atomic.get probes);
    Alcotest.(check int)
      (Printf.sprintf "round %d: the rest bypass" round)
      (threads - 1) (Atomic.get bypasses);
    (* the probe's outcome still drives the machine: a success closes it *)
    Breaker.record b key ~ok:true;
    Alcotest.(check bool) "closed after raced probe" true
      (Breaker.route b key = Breaker.Run)
  done

(* ------------------------------------------------------------------ *)
(* Basic serving.                                                      *)

let test_basic_round_trip () =
  with_server () (fun _dir sock t ->
      let v =
        ok_value "query"
          (Client.request ~socket_path:sock
             (Protocol.Query (Protocol.query_request title_query)))
      in
      Alcotest.(check (list string))
        "items" [ "<title>Usability testing</title>" ] v.Protocol.items;
      Alcotest.(check int) "generation" 1 v.Protocol.generation;
      Alcotest.(check bool) "no fallback" false v.Protocol.fell_back;
      (* structured evaluation error over the wire, daemon stays up *)
      let e =
        ok_failure "bad query"
          (Client.request ~socket_path:sock
             (Protocol.Query (Protocol.query_request "//p[")))
      in
      Alcotest.(check string) "syntax code" "err:XPST0003" e.Protocol.code;
      Alcotest.(check string) "static class" "static" e.Protocol.error_class;
      Alcotest.(check int) "exit code" 1
        (Protocol.exit_code_of_class e.Protocol.error_class);
      Alcotest.(check int) "served" 1 (stat t "served");
      Alcotest.(check int) "errors" 1 (stat t "errors"))

let test_stats_over_wire () =
  with_server () (fun _dir sock _t ->
      ignore
        (ok_value "query"
           (Client.request ~socket_path:sock
              (Protocol.Query (Protocol.query_request title_query))));
      match Client.stats ~socket_path:sock () with
      | Error e -> Alcotest.failf "stats transport: %s" e
      | Ok s ->
          Alcotest.(check int)
            "served over wire" 1
            (Option.value (List.assoc_opt "served" s.Protocol.counters) ~default:(-1));
          Alcotest.(check bool)
            "generation present" true
            (List.mem_assoc "generation" s.Protocol.counters))

let test_malformed_and_torn_clients () =
  with_server () (fun _dir sock t ->
      (* a well-framed but meaningless payload: structured static error *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Netio.write_frame fd "ZZZZ-not-a-request";
      (match Netio.read_frame fd with
      | Ok data -> (
          match Protocol.decode_response data with
          | Ok (Protocol.Failure e) ->
              Alcotest.(check string) "malformed code" "err:XPST0003"
                e.Protocol.code
          | _ -> Alcotest.fail "expected a structured failure")
      | Error e -> Alcotest.failf "no response to malformed request: %s" e);
      Unix.close fd;
      (* a torn client: frame header promises 100 bytes, sends 10, dies *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let b = Buffer.create 14 in
      Buffer.add_string b "\x64\x00\x00\x00";
      Buffer.add_string b "ten bytes!";
      ignore (Unix.write_substring fd (Buffer.contents b) 0 14);
      Unix.close fd;
      poll "torn client counted" (fun () -> stat t "client_errors" >= 2);
      (* an instantly-vanishing client *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Unix.close fd;
      poll "eof client counted" (fun () -> stat t "client_errors" >= 3);
      (* the daemon shrugged it all off *)
      ignore
        (ok_value "control query"
           (Client.request ~socket_path:sock
              (Protocol.Query (Protocol.query_request title_query)))))

(* ------------------------------------------------------------------ *)
(* Admission control + client backoff.                                 *)

let test_admission_control () =
  let g = gate () in
  with_server
    ~tweak:(fun c ->
      { c with workers = 1; queue_limit = 1; on_request = gate_hook g })
    ()
    (fun _dir sock t ->
      let req () =
        Client.request ~socket_path:sock
          (Protocol.Query (Protocol.query_request title_query))
      in
      let r1 = ref (Error "pending") and r2 = ref (Error "pending") in
      let t1 = Thread.create (fun () -> r1 := req ()) () in
      (* the lone worker parks on request 1 *)
      poll "worker parked" (fun () -> Atomic.get g.picked = 1);
      let t2 = Thread.create (fun () -> r2 := req ()) () in
      poll "queue filled" (fun () -> stat t "queue_depth" = 1);
      (* queue full: request 3 is shed synchronously, without queueing *)
      let e = ok_failure "shed" (req ()) in
      Alcotest.(check string) "shed code" "gtlx:GTLX0009" e.Protocol.code;
      Alcotest.(check string) "resource class" "resource" e.Protocol.error_class;
      Alcotest.(check (option int)) "queue depth carried" (Some 1)
        e.Protocol.queue_depth;
      Alcotest.(check bool) "retry hint carried" true
        (e.Protocol.retry_after_ms <> None);
      Alcotest.(check int) "shed counted" 1 (stat t "shed");
      open_gate g;
      Thread.join t1;
      Thread.join t2;
      ignore (ok_value "request 1 served" !r1);
      ignore (ok_value "request 2 served" !r2);
      Alcotest.(check int) "served" 2 (stat t "served"))

let test_client_backoff_retries () =
  let g = gate () in
  with_server
    ~tweak:(fun c ->
      { c with workers = 1; queue_limit = 1; retry_after_ms = 40;
        on_request = gate_hook g })
    ()
    (fun _dir sock t ->
      let q = Protocol.query_request title_query in
      let park = Thread.create (fun () ->
          ignore (Client.request ~socket_path:sock (Protocol.Query q))) ()
      in
      poll "worker parked" (fun () -> Atomic.get g.picked = 1);
      let fill = Thread.create (fun () ->
          ignore (Client.request ~socket_path:sock (Protocol.Query q))) ()
      in
      poll "queue filled" (fun () -> stat t "queue_depth" = 1);
      (* without retries the overload is the answer *)
      let e = ok_failure "shed" (Client.query ~socket_path:sock q) in
      Alcotest.(check string) "shed code" "gtlx:GTLX0009" e.Protocol.code;
      (* with retries: the first backoff sleep releases the jam and waits
         until the worker has drained the queue, so the retry is served.
         jitter is pinned to the deterministic upper bound, so the
         recorded delays are exactly base * 2^(k-1), base = the server's
         own retry-after hint (40ms) *)
      let slept = ref [] in
      let sleep d =
        slept := d :: !slept;
        open_gate g;
        poll "queue drained" (fun () -> stat t "queue_depth" = 0)
      in
      let v =
        ok_value "served after retry"
          (Client.query ~socket_path:sock ~retries:3 ~jitter:Fun.id ~sleep q)
      in
      Alcotest.(check (list string))
        "retried answer" [ "<title>Usability testing</title>" ] v.Protocol.items;
      (match List.rev !slept with
      | first :: _ ->
          Alcotest.(check (float 1e-9)) "hint-seeded backoff" 0.040 first
      | [] -> Alcotest.fail "no backoff sleep recorded");
      Thread.join park;
      Thread.join fill;
      Alcotest.(check bool) "shed counted" true (stat t "shed" >= 1))

(* ------------------------------------------------------------------ *)
(* Circuit breaker over the wire.                                      *)

let test_breaker_lifecycle () =
  with_server
    ~tweak:(fun c -> { c with breaker_threshold = 3; breaker_cooldown = 2 })
    ()
    (fun _dir sock t ->
      let send ?fault_at () =
        ok_value "translated request"
          (Client.request ~socket_path:sock
             (Protocol.Query
                (Protocol.query_request
                   ~strategy:Galatex.Engine.Translated ?fault_at
                   title_query)))
      in
      let state () =
        match
          List.find_opt
            (fun b -> b.Protocol.b_strategy = "translated")
            (Server.stats t).Protocol.breakers
        with
        | Some b -> b.Protocol.b_state
        | None -> "absent"
      in
      (* three consecutive internal-error fallbacks trip the breaker *)
      for i = 1 to 3 do
        let v = send ~fault_at:1 () in
        Alcotest.(check bool)
          (Printf.sprintf "request %d fell back" i)
          true v.Protocol.fell_back
      done;
      Alcotest.(check string) "tripped" "open" (state ());
      Alcotest.(check int) "one trip" 1 (stat t "breaker_trips");
      (* while open, requests bypass to the reference path — the injected
         fault never runs, so the answer is clean *)
      for i = 1 to 2 do
        let v = send ~fault_at:1 () in
        Alcotest.(check bool)
          (Printf.sprintf "bypass %d is clean" i)
          false v.Protocol.fell_back;
        Alcotest.(check string)
          (Printf.sprintf "bypass %d on reference path" i)
          "materialized" v.Protocol.strategy_used
      done;
      Alcotest.(check int) "bypasses counted" 2 (stat t "breaker_bypassed");
      Alcotest.(check string) "cooldown elapsed" "half-open" (state ());
      (* the half-open probe runs the real strategy; it still faults *)
      let v = send ~fault_at:1 () in
      Alcotest.(check bool) "probe fell back" true v.Protocol.fell_back;
      Alcotest.(check string) "probe failure re-opens" "open" (state ());
      Alcotest.(check int) "second trip" 2 (stat t "breaker_trips");
      (* cooldown again, then a healthy probe closes it *)
      ignore (send ~fault_at:1 ());
      ignore (send ~fault_at:1 ());
      let v = send () in
      Alcotest.(check bool) "good probe" false v.Protocol.fell_back;
      Alcotest.(check string) "probe ran the strategy" "translated"
        v.Protocol.strategy_used;
      Alcotest.(check string) "closed again" "closed" (state ());
      let v = send () in
      Alcotest.(check string) "serving on translated again" "translated"
        v.Protocol.strategy_used)

(* ------------------------------------------------------------------ *)
(* Hot snapshot reload.                                                *)

let test_hot_reload () =
  with_server () (fun dir sock t ->
      let ask query =
        Client.request ~socket_path:sock
          (Protocol.Query (Protocol.query_request query))
      in
      let v = ok_value "gen 1 query" (ask title_query) in
      Alcotest.(check int) "serving gen 1" 1 v.Protocol.generation;
      (* a new snapshot generation lands in the directory *)
      save_corpus ~dir corpus_v2;
      Alcotest.(check (option int))
        "directory moved on" (Some 2)
        (Ftindex.Store.current_generation ~dir);
      Alcotest.(check int) "still serving gen 1" 1 (Server.generation t);
      Server.request_reload t;
      poll "reload applied" (fun () -> Server.generation t = 2);
      let v = ok_value "gen 2 query" (ask {|//title[. ftcontains "zebra"]|}) in
      Alcotest.(check (list string))
        "new data served" [ "<title>Zebra quokka</title>" ] v.Protocol.items;
      Alcotest.(check int) "reply stamped gen 2" 2 v.Protocol.generation;
      Alcotest.(check int) "one reload" 1 (stat t "reloads"))

let test_reload_watcher () =
  with_server ~tweak:(fun c -> { c with watch_generation = true }) ()
    (fun dir _sock t ->
      save_corpus ~dir corpus_v2;
      (* no explicit request: the watcher notices the generation change *)
      poll "watcher reloaded" (fun () -> Server.generation t = 2))

let test_reload_failure_keeps_old_engine () =
  with_server () (fun dir _sock t ->
      save_corpus ~dir corpus_v2;
      (* every reload attempt dies on an injected I/O fault: the old
         engine must keep serving *)
      Server.set_reload_io t (fun () ->
          Ftindex.Store.Io.with_fault ~at:1 Ftindex.Store.Io.Io_error);
      Server.request_reload t;
      poll "reload failure counted" (fun () -> stat t "reload_failures" = 1);
      Alcotest.(check int) "old engine retained" 1 (Server.generation t);
      (* injected crash faults are absorbed the same way *)
      Server.set_reload_io t (fun () ->
          Ftindex.Store.Io.with_fault ~at:2 Ftindex.Store.Io.Crash);
      Server.request_reload t;
      poll "crash fault counted" (fun () -> stat t "reload_failures" = 2);
      Alcotest.(check int) "old engine still retained" 1 (Server.generation t);
      (* heal the I/O layer: the next reload succeeds *)
      Server.set_reload_io t (fun () -> Ftindex.Store.Io.real ());
      Server.request_reload t;
      poll "healed reload applied" (fun () -> Server.generation t = 2))

(* ------------------------------------------------------------------ *)
(* Observability: counters across reloads, metrics, slow-query log.    *)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* The regression this PR fixes: the atomic engine swap on reload used
   to replace the engine-lifetime counter cells, silently zeroing
   [queries]/[fallbacks_total] and the latency histograms. *)
let test_counters_survive_reload () =
  with_server () (fun dir sock t ->
      let ask ?fault_at () =
        Client.request ~socket_path:sock
          (Protocol.Query
             (Protocol.query_request ~strategy:Galatex.Engine.Translated
                ?fault_at title_query))
      in
      ignore (ok_value "plain query" (ask ()));
      ignore (ok_value "fallback query" (ask ~fault_at:1 ()));
      Alcotest.(check int) "queries before reload" 2 (stat t "queries");
      Alcotest.(check int) "fallbacks before reload" 1 (stat t "fallbacks_total");
      let histogram_count () =
        match Client.metrics ~socket_path:sock () with
        | Ok text -> text
        | Error reason -> Alcotest.failf "metrics: %s" reason
      in
      Alcotest.(check bool) "histogram populated before reload" true
        (contains
           {|galatex_query_duration_seconds_count{strategy="translated"} 2|}
           (histogram_count ()));
      save_corpus ~dir corpus_v2;
      Server.request_reload t;
      poll "reload applied" (fun () -> Server.generation t = 2);
      Alcotest.(check int) "queries carried across the swap" 2 (stat t "queries");
      Alcotest.(check int) "fallbacks carried across the swap" 1
        (stat t "fallbacks_total");
      Alcotest.(check bool) "histogram carried across the swap" true
        (contains
           {|galatex_query_duration_seconds_count{strategy="translated"} 2|}
           (histogram_count ()));
      (* and the carried cells keep counting, they are not frozen copies *)
      ignore (ok_value "fallback after reload" (ask ~fault_at:1 ()));
      Alcotest.(check int) "queries keep counting" 3 (stat t "queries");
      Alcotest.(check int) "fallbacks keep counting" 2 (stat t "fallbacks_total");
      Alcotest.(check bool) "histogram keeps counting" true
        (contains
           {|galatex_query_duration_seconds_count{strategy="translated"} 3|}
           (histogram_count ())))

(* Metrics exposition and the slow-query log, under the injected manual
   clock: each query reads the clock three times (start, end, log stamp),
   so with step 1 every query lasts exactly one tick = 1000 ms. *)
let test_metrics_and_slowlog () =
  with_server
    ~tweak:(fun c ->
      {
        c with
        clock = Obs.Clock.manual ();
        slowlog_threshold = 0.0;
        slowlog_capacity = 4;
      })
    ()
    (fun _dir sock _t ->
      ignore
        (ok_value "one query"
           (Client.request ~socket_path:sock
              (Protocol.Query (Protocol.query_request title_query))));
      let text =
        match Client.metrics ~socket_path:sock () with
        | Ok text -> text
        | Error reason -> Alcotest.failf "metrics: %s" reason
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("exposition has " ^ needle) true
            (contains needle text))
        [
          "galatex_queries_total 1";
          "# TYPE galatex_queries_total counter";
          "galatex_engine_allmatches_materialized_total";
          "galatex_engine_postings_read_total";
          {|galatex_query_duration_seconds_count{strategy="materialized"} 1|};
          {|galatex_query_duration_seconds_bucket{strategy="materialized",le="+Inf"} 1|};
          {|galatex_query_duration_seconds_count{strategy="translated"} 0|};
        ];
      match Client.slowlog ~socket_path:sock () with
      | Error reason -> Alcotest.failf "slowlog: %s" reason
      | Ok entries -> (
          match entries with
          | [ e ] ->
              Alcotest.(check string) "slow entry query" title_query
                e.Protocol.s_query;
              Alcotest.(check string) "slow entry strategy" "materialized"
                e.Protocol.s_strategy;
              Alcotest.(check (float 0.)) "deterministic duration" 1000.0
                e.Protocol.s_duration_ms;
              Alcotest.(check bool) "steps recorded" true (e.Protocol.s_steps > 0)
          | entries ->
              Alcotest.failf "expected one slow entry, got %d"
                (List.length entries)))

(* ------------------------------------------------------------------ *)
(* Graceful shutdown.                                                  *)

let test_graceful_shutdown () =
  let g = gate () in
  with_server
    ~tweak:(fun c ->
      { c with workers = 2; queue_limit = 8; on_request = gate_hook g })
    ()
    (fun _dir sock t ->
      let results = Array.make 5 (Error "pending") in
      let spawn i =
        Thread.create
          (fun () ->
            results.(i) <-
              Client.request ~socket_path:sock
                (Protocol.Query (Protocol.query_request title_query)))
          ()
      in
      let t0 = spawn 0 and t1 = spawn 1 in
      poll "both workers parked" (fun () -> Atomic.get g.picked = 2);
      let rest = List.map spawn [ 2; 3; 4 ] in
      poll "three queued" (fun () -> stat t "queue_depth" = 3);
      Server.request_shutdown t;
      (* the drain answers queued stragglers without needing the (still
         parked) workers *)
      poll "stragglers answered" (fun () -> stat t "shed_shutdown" = 3);
      open_gate g;
      Server.wait t;
      List.iter Thread.join (t0 :: t1 :: rest);
      ignore (ok_value "in-flight 0 finished" results.(0));
      ignore (ok_value "in-flight 1 finished" results.(1));
      List.iter
        (fun i ->
          let e = ok_failure (Printf.sprintf "straggler %d" i) results.(i) in
          Alcotest.(check string)
            (Printf.sprintf "straggler %d shed" i)
            "gtlx:GTLX0009" e.Protocol.code)
        [ 2; 3; 4 ];
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock);
      (match
         Client.request ~socket_path:sock
           (Protocol.Query (Protocol.query_request title_query))
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "socket still answering after shutdown"))

(* ------------------------------------------------------------------ *)
(* Chaos: everything at once, and the invariant is simply that every
   well-formed request gets one structured response and the daemon
   survives.                                                           *)

let test_chaos () =
  with_server ~tweak:(fun c -> { c with workers = 4; queue_limit = 16 }) ()
    (fun _dir sock t ->
      let strategies =
        [
          Galatex.Engine.Translated;
          Galatex.Engine.Native_materialized;
        ]
      in
      let structured = Atomic.make 0 in
      let failures = ref [] in
      let failures_lock = Mutex.create () in
      let fail_with msg =
        Mutex.lock failures_lock;
        failures := msg :: !failures;
        Mutex.unlock failures_lock
      in
      (* a storm of clients: injected eval faults at assorted steps across
         every strategy/fallback combination, interleaved
         with torn connections and malformed frames *)
      let well_formed =
        List.concat_map
          (fun strategy ->
            List.concat_map
              (fun fallback ->
                List.map
                  (fun fault_at -> (strategy, fallback, fault_at))
                  [ None; Some 1; Some 5; Some 50 ])
              [ true; false ])
          strategies
      in
      let client (strategy, fallback, fault_at) =
        let q =
          Protocol.query_request ~strategy ~fallback ?fault_at title_query
        in
        match Client.request ~socket_path:sock (Protocol.Query q) with
        | Ok (Protocol.Value _) | Ok (Protocol.Failure _) ->
            Atomic.incr structured
        | Ok _ -> fail_with "non-query reply to a query"
        | Error reason -> fail_with ("transport error: " ^ reason)
      in
      let torn_client () =
        match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | exception Unix.Unix_error _ -> ()
        | fd ->
            (try
               Unix.connect fd (Unix.ADDR_UNIX sock);
               ignore (Unix.write_substring fd "\x40\x00\x00\x00abc" 0 7)
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
      in
      let malformed_client () =
        match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | exception Unix.Unix_error _ -> ()
        | fd ->
            (try
               Unix.connect fd (Unix.ADDR_UNIX sock);
               Netio.write_frame fd (String.make 32 '\xfe');
               ignore (Netio.read_frame fd)
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
      in
      let threads =
        List.mapi
          (fun i spec ->
            Thread.create
              (fun () ->
                client spec;
                if i mod 3 = 0 then torn_client ();
                if i mod 5 = 0 then malformed_client ())
              ())
          well_formed
      in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | msgs ->
          Alcotest.failf "%d chaos clients broke the contract, e.g. %s"
            (List.length msgs) (List.hd msgs));
      Alcotest.(check int)
        "every well-formed request answered structurally"
        (List.length well_formed) (Atomic.get structured);
      (* the accept loop and every worker survived the storm *)
      ignore
        (ok_value "post-chaos control query"
           (Client.request ~socket_path:sock
              (Protocol.Query (Protocol.query_request title_query))));
      Alcotest.(check bool)
        "torn clients were counted, not fatal" true
        (stat t "client_errors" > 0))

(* ------------------------------------------------------------------ *)
(* Satellite (a): engine-level mutable state under concurrency.  One
   engine, many threads forcing the fallback path — the atomic counter
   must come out exact (a plain int loses increments).                 *)

let test_engine_fallback_counter_threadsafe () =
  let engine = Galatex.Engine.of_strings corpus_v1 in
  let threads_n = 8 and per_thread = 25 in
  let errors = Atomic.make 0 in
  let threads =
    List.init threads_n (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to per_thread do
              match
                Galatex.Engine.run_report engine
                  ~strategy:Galatex.Engine.Translated ~fault_at:1
                  title_query
              with
              | r -> if not r.Galatex.Engine.fell_back then Atomic.incr errors
              | exception _ -> Atomic.incr errors
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "every run fell back" 0 (Atomic.get errors);
  Alcotest.(check int)
    "no lost increments" (threads_n * per_thread)
    (Galatex.Engine.fallback_count engine)

(* ------------------------------------------------------------------ *)
(* Live updates over the wire (the tentpole, served).                   *)

let zebra_doc =
  "<book><title>Zebra quokka</title><p>entirely new data about zebra \
   usability</p></book>"

let ask sock query =
  Client.request ~socket_path:sock (Protocol.Query (Protocol.query_request query))

let send_update sock ops =
  Client.request ~socket_path:sock (Protocol.Update { ops; epoch = 0 })

let test_update_over_wire () =
  with_server () (fun _dir sock t ->
      let r =
        ok_update "add b.xml"
          (send_update sock
             [ Ftindex.Wal.Add_doc { uri = "b.xml"; source = zebra_doc } ])
      in
      Alcotest.(check int) "base generation" 1 r.Protocol.u_generation;
      Alcotest.(check int) "one record" 1 r.Protocol.u_records;
      Alcotest.(check int) "first seq" 1 r.Protocol.u_last_seq;
      (* the update is visible to the very next query *)
      let v = ok_value "zebra" (ask sock {|collection()//title[. ftcontains "zebra"]|}) in
      Alcotest.(check (list string))
        "added document served" [ "<title>Zebra quokka</title>" ]
        v.Protocol.items;
      (* removal, same path *)
      let r =
        ok_update "remove a.xml" (send_update sock [ Ftindex.Wal.Remove_doc "a.xml" ])
      in
      Alcotest.(check int) "second seq" 2 r.Protocol.u_last_seq;
      let v = ok_value "usability gone" (ask sock title_query) in
      Alcotest.(check (list string)) "removed document gone" [] v.Protocol.items;
      Alcotest.(check int) "updates counted" 2 (stat t "updates");
      Alcotest.(check int) "wal records mirrored" 2 (stat t "wal_records");
      (* a malformed add is rejected before anything reaches the log *)
      let e =
        ok_failure "malformed add"
          (send_update sock
             [ Ftindex.Wal.Add_doc { uri = "bad.xml"; source = "<broken" } ])
      in
      Alcotest.(check string) "syntax code" "err:XPST0003" e.Protocol.code;
      Alcotest.(check int) "log untouched" 2 (stat t "wal_records");
      (* a batch is all or nothing: the valid add ahead of a malformed one
         reaches neither the log nor the served index *)
      let zebra_titles () =
        (ok_value "zebra" (ask sock {|collection()//title[. ftcontains "zebra"]|}))
          .Protocol.items
      in
      let before = zebra_titles () in
      let e =
        ok_failure "batch with a malformed add"
          (send_update sock
             [
               Ftindex.Wal.Add_doc { uri = "c.xml"; source = zebra_doc };
               Ftindex.Wal.Add_doc { uri = "bad.xml"; source = "<broken" };
             ])
      in
      Alcotest.(check string) "batch syntax code" "err:XPST0003" e.Protocol.code;
      Alcotest.(check int) "log untouched by the batch" 2 (stat t "wal_records");
      Alcotest.(check (list string)) "batch not served" before (zebra_titles ()))

let test_update_survives_restart () =
  with_dir (fun dir ->
      save_corpus ~dir corpus_v1;
      let sock = fresh_name "gtx" ^ ".sock" in
      let cfg = Server.default_config ~index_dir:dir ~socket_path:sock in
      let t = Server.start cfg in
      ignore
        (ok_update "add"
           (send_update sock
              [ Ftindex.Wal.Add_doc { uri = "b.xml"; source = zebra_doc } ]));
      let before =
        (ok_value "before restart" (ask sock {|collection()//title[. ftcontains "zebra"]|}))
          .Protocol.items
      in
      Alcotest.(check (list string))
        "update served before restart" [ "<title>Zebra quokka</title>" ] before;
      Server.stop t;
      (* cold start: the snapshot is still generation 1; the acknowledged
         update must come back from the write-ahead log *)
      let t = Server.start cfg in
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          let after =
            (ok_value "after restart" (ask sock {|collection()//title[. ftcontains "zebra"]|}))
              .Protocol.items
          in
          Alcotest.(check (list string)) "identical answers" before after;
          Alcotest.(check int) "log recovered" 1 (stat t "wal_records")))

let test_concurrent_updates_single_writer () =
  with_server () (fun _dir sock t ->
      let n = 8 in
      let failures = Atomic.make 0 in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                let doc =
                  Printf.sprintf
                    "<book><title>Quokka %d</title><p>quokka facts</p></book>" i
                in
                let uri = Printf.sprintf "d%d.xml" i in
                match
                  send_update sock [ Ftindex.Wal.Add_doc { uri; source = doc } ]
                with
                | Ok (Protocol.Update_reply _) -> ()
                | _ -> Atomic.incr failures)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "every batch acknowledged" 0 (Atomic.get failures);
      Alcotest.(check int) "all updates applied" n (stat t "updates");
      Alcotest.(check int) "all records logged" n (stat t "wal_records");
      (* exactness after the race: every one of the n documents answers *)
      let v = ok_value "quokka" (ask sock {|collection()//title[. ftcontains "quokka"]|}) in
      Alcotest.(check int) "all documents served" n (List.length v.Protocol.items);
      (* explicit compaction folds them into generation 2 *)
      let c =
        ok_compact "compact" (Client.request ~socket_path:sock (Protocol.Compact { epoch = 0 }))
      in
      Alcotest.(check int) "records folded" n c.Protocol.c_folded;
      Alcotest.(check int) "fresh generation" 2 c.Protocol.c_generation;
      Alcotest.(check int) "log reset" 0 (stat t "wal_records");
      let v = ok_value "post-compact" (ask sock {|collection()//title[. ftcontains "quokka"]|}) in
      Alcotest.(check int) "still all served" n (List.length v.Protocol.items);
      Alcotest.(check int) "reply stamped gen 2" 2 v.Protocol.generation)

let test_threshold_background_compaction () =
  with_server ~tweak:(fun c -> { c with wal_compact_bytes = Some 1 }) ()
    (fun _dir sock t ->
      ignore
        (ok_update "add"
           (send_update sock
              [ Ftindex.Wal.Add_doc { uri = "b.xml"; source = zebra_doc } ]));
      (* the ticker notices the over-threshold log off the request path *)
      poll "background compaction ran" (fun () -> stat t "compactions" >= 1);
      poll "log reset" (fun () -> stat t "wal_records" = 0);
      poll "generation moved" (fun () -> Server.generation t = 2);
      let v = ok_value "post-compact" (ask sock {|collection()//title[. ftcontains "zebra"]|}) in
      Alcotest.(check (list string))
        "update survived compaction" [ "<title>Zebra quokka</title>" ]
        v.Protocol.items)

let test_update_fault_is_structured () =
  with_server () (fun _dir sock t ->
      (* every append dies on an injected I/O fault: the update must come
         back as a structured storage error, the daemon keeps serving *)
      Server.set_update_io t (fun () ->
          Ftindex.Store.Io.with_fault ~at:1 Ftindex.Store.Io.Io_error);
      let e =
        ok_failure "faulted update"
          (send_update sock
             [ Ftindex.Wal.Add_doc { uri = "b.xml"; source = zebra_doc } ])
      in
      Alcotest.(check bool)
        (Printf.sprintf "structured storage code (got %s)" e.Protocol.code)
        true
        (List.mem e.Protocol.code
           [ "gtlx:GTLX0006"; "gtlx:GTLX0007"; "gtlx:GTLX0008"; "err:FODC0002" ]);
      Alcotest.(check bool) "error counted" true (stat t "update_errors" >= 1);
      (* heal the I/O layer: the daemon recovers without a restart *)
      Server.set_update_io t (fun () -> Ftindex.Store.Io.real ());
      poll "engine re-synced" (fun () ->
          match
            send_update sock
              [ Ftindex.Wal.Add_doc { uri = "b.xml"; source = zebra_doc } ]
          with
          | Ok (Protocol.Update_reply _) -> true
          | _ -> false);
      let v = ok_value "healed" (ask sock {|collection()//title[. ftcontains "zebra"]|}) in
      Alcotest.(check (list string))
        "update served after healing" [ "<title>Zebra quokka</title>" ]
        v.Protocol.items)

(* Satellite: the maintenance ticker reloads with zero in-flight requests
   and every worker parked — maintenance is on neither the accept nor the
   request path. *)
let test_ticker_reloads_while_workers_parked () =
  let g = gate () in
  with_server
    ~tweak:(fun c -> { c with workers = 2; on_request = gate_hook g })
    ()
    (fun dir sock t ->
      let spawn () =
        Thread.create (fun () -> ignore (ask sock title_query)) ()
      in
      let t1 = spawn () and t2 = spawn () in
      poll "every worker parked" (fun () -> Atomic.get g.picked = 2);
      save_corpus ~dir corpus_v2;
      Server.request_reload t;
      poll "reloaded with all workers parked" (fun () -> Server.generation t = 2);
      open_gate g;
      Thread.join t1;
      Thread.join t2)

(* Satellite: an idle daemon's watcher notices a new generation with no
   request traffic at all. *)
let test_idle_watcher_reloads () =
  with_server ~tweak:(fun c -> { c with watch_generation = true }) ()
    (fun dir _sock t ->
      Alcotest.(check int) "no requests in flight" 0 (stat t "accepted");
      save_corpus ~dir corpus_v2;
      poll "idle daemon reloaded" (fun () -> Server.generation t = 2);
      Alcotest.(check int) "still zero requests" 0 (stat t "accepted"))

(* Satellite: the client's retry loop rides out a daemon restart — the
   socket is gone entirely between stop and start, so every interim
   attempt fails at connect, not with a shed. *)
let test_client_survives_daemon_restart () =
  with_dir (fun dir ->
      save_corpus ~dir corpus_v1;
      let sock = fresh_name "gtx" ^ ".sock" in
      let cfg = Server.default_config ~index_dir:dir ~socket_path:sock in
      let t = Server.start cfg in
      ignore (ok_value "before restart" (ask sock title_query));
      Server.stop t;
      Alcotest.(check bool) "socket gone" false (Sys.file_exists sock);
      let result = ref (Error "pending") in
      let attempts = Atomic.make 0 in
      let client =
        Thread.create
          (fun () ->
            result :=
              Client.query ~socket_path:sock ~retries:500
                ~sleep:(fun _ ->
                  Atomic.incr attempts;
                  Thread.delay 0.01)
                (Protocol.query_request title_query))
          ()
      in
      (* let the client bang on the missing socket a few times first *)
      poll "client retrying against dead socket" (fun () ->
          Atomic.get attempts >= 3);
      let t = Server.start cfg in
      Thread.join client;
      let v = ok_value "served after restart" !result in
      Alcotest.(check (list string))
        "same answer as before" [ "<title>Usability testing</title>" ]
        v.Protocol.items;
      Server.stop t)

(* Satellite: the pure backoff bound — within [base, cap], monotonically
   non-decreasing, deterministic.  Runs under qcheck's seed control, so a
   failure reproduces from the printed seed. *)
let prop_backoff_bounds =
  QCheck2.Test.make ~name:"client backoff bounds" ~count:300
    QCheck2.Gen.(
      triple (int_range 1 5000) (int_range 1 60_000) (int_range 1 50))
    (fun (base_ms, cap_ms, attempts) ->
      let lo = float_of_int base_ms /. 1000. in
      let hi = float_of_int (max base_ms cap_ms) /. 1000. in
      let rec check k prev =
        if k > attempts then true
        else
          let b = Client.backoff_bound ~base_ms ~cap_ms ~attempt:k in
          let again = Client.backoff_bound ~base_ms ~cap_ms ~attempt:k in
          b = again (* deterministic *)
          && b >= lo -. 1e-9
          && b <= hi +. 1e-9
          && b >= prev -. 1e-9 (* never shrinks as attempts grow *)
          && check (k + 1) b
      in
      check 1 0.0)

(* A client that requests a reply far bigger than the kernel socket
   buffers and then never reads: the daemon's reply write must expire
   against the per-connection deadline, drop the connection, and count
   it — not wedge a worker forever. *)
let test_slow_client_reply_disconnect () =
  with_server
    ~tweak:(fun c ->
      { c with Server.recv_timeout = 0.5; Server.idle_timeout = 0.3 })
    ()
    (fun _dir sock t ->
      let limits = Netio.within 3.0 in
      let fd = Netio.connect ~limits sock in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* ~1.4 MB of reply, well past any socket buffer *)
          let big =
            "string-join(for $i in 1 to 80000 return \
             \"0123456789abcdef\", \" \")"
          in
          Netio.write_frame ~limits fd
            (Protocol.encode_request
               (Protocol.Query (Protocol.query_request big)));
          let rec wait tries =
            if stat t "slow_client_disconnects" = 1 then ()
            else if tries = 0 then
              Alcotest.fail "timeout waiting for slow_client_disconnects"
            else begin
              Thread.delay 0.02;
              wait (tries - 1)
            end
          in
          wait 250;
          (* the worker came back: a well-behaved request still answers *)
          match
            Client.request ~recv_timeout:5.0 ~socket_path:sock
              (Protocol.Query (Protocol.query_request "1 + 1"))
          with
          | Ok (Protocol.Value v) ->
              Alcotest.(check (list string)) "served after the slow client"
                [ "2" ] v.Protocol.items
          | _ -> Alcotest.fail "daemon wedged after a slow client"))

let tests =
  [
    Alcotest.test_case "protocol round trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "breaker state machine" `Quick test_breaker_state_machine;
    Alcotest.test_case "breaker half-open single probe" `Quick
      test_breaker_half_open_single_probe;
    Alcotest.test_case "basic round trip" `Quick test_basic_round_trip;
    Alcotest.test_case "stats over wire" `Quick test_stats_over_wire;
    Alcotest.test_case "malformed and torn clients" `Quick
      test_malformed_and_torn_clients;
    Alcotest.test_case "admission control" `Quick test_admission_control;
    Alcotest.test_case "client backoff retries" `Quick
      test_client_backoff_retries;
    Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
    Alcotest.test_case "hot reload" `Quick test_hot_reload;
    Alcotest.test_case "reload watcher" `Quick test_reload_watcher;
    Alcotest.test_case "reload failure keeps old engine" `Quick
      test_reload_failure_keeps_old_engine;
    Alcotest.test_case "counters survive hot reload" `Quick
      test_counters_survive_reload;
    Alcotest.test_case "metrics exposition and slowlog" `Quick
      test_metrics_and_slowlog;
    Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
    Alcotest.test_case "chaos" `Quick test_chaos;
    Alcotest.test_case "concurrent fallback counter" `Quick
      test_engine_fallback_counter_threadsafe;
    Alcotest.test_case "update over wire" `Quick test_update_over_wire;
    Alcotest.test_case "update survives restart" `Quick
      test_update_survives_restart;
    Alcotest.test_case "concurrent updates single-writer" `Quick
      test_concurrent_updates_single_writer;
    Alcotest.test_case "threshold background compaction" `Quick
      test_threshold_background_compaction;
    Alcotest.test_case "update fault is structured" `Quick
      test_update_fault_is_structured;
    Alcotest.test_case "ticker reloads with workers parked" `Quick
      test_ticker_reloads_while_workers_parked;
    Alcotest.test_case "idle watcher reloads" `Quick test_idle_watcher_reloads;
    Alcotest.test_case "client survives daemon restart" `Quick
      test_client_survives_daemon_restart;
    Alcotest.test_case "slow client reply write disconnects" `Quick
      test_slow_client_reply_disconnect;
    QCheck_alcotest.to_alcotest prop_backoff_bounds;
  ]
