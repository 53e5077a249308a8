(* The named workload scenarios: corpus + topology + trace spec, brought
   up in-process (daemons, routers and fault proxies are libraries here),
   replayed, and torn down.  The fault drills add timed events — closures
   over the topology's handles that {!Replay.run} fires on the trace's
   clock — so one replayer measures steady state and failure alike.

   Every number downstream of [settings.seed] is deterministic; [scale]
   shrinks request counts (never below a floor that keeps percentiles
   meaningful) so CI can run the same scenarios in seconds. *)

module Srv = Galatex_server.Server
module Cli = Galatex_server.Client
module Router = Galatex_cluster.Router
module Faultnet = Galatex_server.Faultnet

type settings = {
  scale : float;
  seed : int;
  max_lag : int option;
  only : string list;
}

let default_settings = { scale = 1.0; seed = 42; max_lag = Some 64; only = [] }

let names =
  [
    "zipf-read-only";
    "phrase-heavy";
    "boolean-heavy";
    "topk-heavy";
    "mixed-read-write";
    "multi-tenant-small-indexes";
    "shard-loss";
    "replica-failover";
    "net-faults";
  ]

(* ----------------------------------------------------------- plumbing *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> rm_rf (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scaled scale n =
  max 10 (int_of_float (Float.round (float_of_int n *. scale)))

let corpus_sources ~seed ~doc_count =
  let docs =
    Corpus.Generator.books
      {
        Corpus.Generator.default_profile with
        Corpus.Generator.seed;
        doc_count;
        sections_per_doc = 2;
        paras_per_section = 3;
        words_per_para = 30;
        vocab_size = 150;
      }
  in
  List.map (fun (uri, d) -> (uri, Xmlkit.Printer.to_string d)) docs

let daemon_config ~index_dir ~socket_path =
  {
    (Srv.default_config ~index_dir ~socket_path) with
    Srv.workers = 4;
    queue_limit = 64;
    tick_interval = 0.02;
    recv_timeout = 5.0;
    idle_timeout = 5.0;
  }

(* The counter subset worth re-reading next to latency numbers; the
   full stats dump is available live via [galatex stats].  A scenario
   reads one process's counters, a daemon's or a router's, so both
   roles' names are listed. *)
let reported_counters =
  [
    "queries"; "route_queries"; "accepted"; "served"; "shed"; "errors";
    "route_partial"; "route_failed"; "updates"; "update_errors";
    "wal_records"; "breaker_trips"; "stale_served"; "follow_lag";
    "failovers"; "fenced_writes";
  ]

let counters_of sock =
  match Cli.stats ~socket_path:sock () with
  | Ok r ->
      List.filter
        (fun (k, _) -> List.mem k reported_counters)
        r.Galatex_server.Protocol.counters
  | Error _ -> []

(* One daemon over one freshly-saved snapshot. *)
let with_daemon ~root ~tag ~sources f =
  let dir = Filename.concat root tag in
  Ftindex.Store.save ~dir (Ftindex.Indexer.index_strings sources);
  let socket_path = Printf.sprintf "wl-%d-%s.sock" (Unix.getpid ()) tag in
  let t = Srv.start (daemon_config ~index_dir:dir ~socket_path) in
  Fun.protect ~finally:(fun () -> Srv.stop t) (fun () -> f socket_path)

let sock_name name part =
  Printf.sprintf "wl-%d-%s-%s.sock" (Unix.getpid ()) name part

(* One daemon per hash partition of [sources], each over its own freshly
   saved snapshot; [(socket, daemon)] in partition order. *)
let start_shards ~root ~name ?(config = Fun.id) ~shards sources =
  Array.mapi
    (fun i part ->
      let dir = Filename.concat root (Printf.sprintf "%s-s%d" name i) in
      let socket_path = sock_name name (Printf.sprintf "s%d" i) in
      Ftindex.Store.save ~dir (Ftindex.Indexer.index_strings part);
      let cfg = config (daemon_config ~index_dir:dir ~socket_path) in
      (socket_path, Srv.start cfg))
    (Corpus.Partition.split ~shards sources)

let stop_all shards = Array.iter (fun (_, d) -> Srv.stop d) shards

(* The due time of the event [frac] of the way into [trace]: where a
   scenario's timed events are pinned. *)
let due_at trace frac =
  let n = Array.length trace in
  trace.(min (n - 1) (int_of_float (frac *. float_of_int n))).Trace.due_ms

let replica_lag ~primary ~replica =
  let seq sock =
    Result.map
      (fun h -> h.Galatex_server.Protocol.h_seq)
      (Cli.health ~socket_path:sock ())
  in
  match (seq primary, seq replica) with
  | Ok p, Ok r -> Some (max 0 (p - r))
  | _ -> None

(* ----------------------------------------------------------- scenarios *)

let base_spec settings =
  {
    Trace.default_spec with
    Trace.seed = settings.seed;
    vocab_size = 150;
    vocab_skew = 1.0;
  }

let single_daemon_scenario settings ~root ~name ~seed_offset ~mix ~requests
    ~rate ~concurrency ?update_every ?(update_batch = 3) () =
  let spec =
    {
      (base_spec settings) with
      Trace.seed = settings.seed + seed_offset;
      requests = scaled settings.scale requests;
      rate;
      mix;
      update_every;
      update_batch;
    }
  in
  let sources =
    corpus_sources ~seed:(settings.seed + (100 * seed_offset)) ~doc_count:24
  in
  with_daemon ~root ~tag:name ~sources (fun sock ->
      let r = Replay.run ~socket_path:sock ~concurrency (Trace.generate spec) in
      Report.of_replay ~name ~rate ~concurrency ~counters:(counters_of sock) r)

(* topk-heavy runs against a 2-shard router (top-k is a merge policy, so
   it needs a scatter to merge); shard 0 carries a WAL-shipping replica
   so the scenario also reports replication lag under a write stream. *)
let topk_scenario settings ~root ~name ~requests ~rate ~concurrency =
  let spec =
    {
      (base_spec settings) with
      Trace.seed = settings.seed + 4;
      requests = scaled settings.scale requests;
      rate;
      mix = { Trace.phrase = 0.1; boolean = 0.1; topk = 0.8 };
      update_every = Some 10;
      update_batch = 2;
    }
  in
  let sources = corpus_sources ~seed:(settings.seed + 400) ~doc_count:24 in
  let shards = start_shards ~root ~name ~shards:2 sources in
  let pri_sock = fst shards.(0) in
  let rep_sock = sock_name name "rep" in
  let replica =
    Srv.start
      {
        (daemon_config
           ~index_dir:(Filename.concat root (name ^ "-rep"))
           ~socket_path:rep_sock)
        with
        Srv.follow = Some pri_sock;
      }
  in
  let rt_sock = sock_name name "rt" in
  let router =
    Router.start
      {
        (Router.default_config
           ~shards:
             [
               { Router.primary = pri_sock; replicas = [ rep_sock ] };
               { Router.primary = fst shards.(1); replicas = [] };
             ]
           ~socket_path:rt_sock)
        with
        Router.workers = 8;
        max_lag = settings.max_lag;
        tick_interval = 0.02;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Srv.stop replica;
      stop_all shards)
    (fun () ->
      let r = Replay.run ~socket_path:rt_sock ~concurrency (Trace.generate spec) in
      Report.of_replay ~name ~rate ~concurrency ~counters:(counters_of rt_sock)
        ?replica_lag:(replica_lag ~primary:pri_sock ~replica:rep_sock)
        r)

(* Three tenants with independent small indexes, replayed concurrently:
   the aggregate report pools latencies and sums outcome counts. *)
let multi_tenant_scenario settings ~root ~name ~requests_each ~rate_each
    ~concurrency_each =
  let tenants = 3 in
  let specs =
    List.init tenants (fun i ->
        {
          (base_spec settings) with
          Trace.seed = settings.seed + 50 + i;
          requests = scaled settings.scale requests_each;
          rate = rate_each;
          mix = { Trace.phrase = 0.4; boolean = 0.4; topk = 0.2 };
        })
  in
  let rec with_tenants i socks f =
    if i = tenants then f (List.rev socks)
    else
      let sources =
        corpus_sources ~seed:(settings.seed + 500 + i) ~doc_count:8
      in
      with_daemon ~root ~tag:(Printf.sprintf "%s-t%d" name i) ~sources
        (fun sock -> with_tenants (i + 1) (sock :: socks) f)
  in
  with_tenants 0 [] (fun socks ->
      let results = Array.make tenants None in
      let threads =
        List.mapi
          (fun i (sock, spec) ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Some
                    (Replay.run ~socket_path:sock ~concurrency:concurrency_each
                       (Trace.generate spec)))
              ())
          (List.combine socks specs)
      in
      List.iter Thread.join threads;
      let rs = Array.to_list results |> List.filter_map Fun.id in
      let lats =
        Array.concat (List.map (fun r -> r.Replay.latencies_sorted_ms) rs)
      in
      Array.sort compare lats;
      let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
      let merged =
        {
          Replay.issued = sum (fun r -> r.Replay.issued);
          counts =
            {
              Replay.full = sum (fun r -> r.Replay.counts.Replay.full);
              partial = sum (fun r -> r.Replay.counts.Replay.partial);
              shed = sum (fun r -> r.Replay.counts.Replay.shed);
              error = sum (fun r -> r.Replay.counts.Replay.error);
            };
          latencies_sorted_ms = lats;
          wall_s = List.fold_left (fun a r -> Float.max a r.Replay.wall_s) 0. rs;
        }
      in
      Report.of_replay ~name
        ~rate:(rate_each *. float_of_int tenants)
        ~concurrency:(concurrency_each * tenants)
        merged)

(* The fault drills share one query mix over a 24-document corpus;
   [seed_offset] keys trace and corpus as in [single_daemon_scenario]. *)
let drill_inputs settings ~seed_offset ~requests ~rate ?update_every () =
  let trace =
    Trace.generate
      {
        (base_spec settings) with
        Trace.seed = settings.seed + seed_offset;
        requests = scaled settings.scale requests;
        rate;
        mix = { Trace.phrase = 0.4; boolean = 0.4; topk = 0.2 };
        update_every;
        update_batch = 1;
      }
  in
  ( trace,
    corpus_sources ~seed:(settings.seed + (100 * seed_offset)) ~doc_count:24 )

(* shard-loss: a 2-shard router with no replica.  A rolling reload
   races the stream at 30% of the trace (N-1 shards always serve, so it
   must cost nothing), then shard 1 is stopped at 60%: from there every
   query degrades to a GTLX0011-tagged partial — partials, never errors. *)
let shard_loss_scenario settings ~root ~name ~requests ~rate ~concurrency =
  let trace, sources =
    drill_inputs settings ~seed_offset:6 ~requests ~rate ()
  in
  let shards = start_shards ~root ~name ~shards:2 sources in
  let rt_sock = sock_name name "rt" in
  let router =
    Router.start
      {
        (Router.default_config
           ~shards:
             (Array.to_list
                (Array.map
                   (fun (sock, _) -> { Router.primary = sock; replicas = [] })
                   shards))
           ~socket_path:rt_sock)
        with
        Router.workers = 8;
        tick_interval = 0.02;
        (* retry backoff waits its full bound, not a random share: by
           the retry the lost shard's breaker has tripped, so a query
           caught by the stop pays one backoff (~25 ms).  A random early
           retry can miss the trip and pay two (~65 ms), making p99
           bimodal. *)
        jitter = Fun.id;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_all shards)
    (fun () ->
      let events =
        [
          ( due_at trace 0.3,
            fun () -> ignore (Cli.reload ~socket_path:rt_sock ()) );
          (due_at trace 0.6, fun () -> Srv.stop (snd shards.(1)));
        ]
      in
      let r = Replay.run ~socket_path:rt_sock ~concurrency ~events trace in
      Report.of_replay ~name ~rate ~concurrency ~counters:(counters_of rt_sock)
        r)

(* replica-failover: a primary and one WAL-shipping follower behind a
   [primary_failover] router, under a write stream.  The primary is
   stopped mid-trace; the router promotes the follower and writes
   resume on the new epoch.  Writes inside the unavailability window are
   the errors this scenario measures; [replica_lag] is the follower's
   distance behind the primary at the instant it died. *)
let replica_failover_scenario settings ~root ~name ~requests ~rate
    ~concurrency =
  let trace, sources =
    drill_inputs settings ~seed_offset:7 ~requests ~rate ~update_every:4 ()
  in
  let shards = start_shards ~root ~name ~shards:1 sources in
  let pri_sock, primary = shards.(0) in
  let fol_sock = sock_name name "fol" in
  (* [Srv.start] bootstraps the follower synchronously, so it is
     promotable from the first event on *)
  let follower =
    Srv.start
      {
        (daemon_config
           ~index_dir:(Filename.concat root (name ^ "-fol"))
           ~socket_path:fol_sock)
        with
        Srv.follow = Some pri_sock;
      }
  in
  let rt_sock = sock_name name "rt" in
  let router =
    Router.start
      {
        (Router.default_config
           ~shards:[ { Router.primary = pri_sock; replicas = [ fol_sock ] } ]
           ~socket_path:rt_sock)
        with
        Router.workers = 8;
        retries = 1;
        default_deadline = 3.0;
        tick_interval = 0.01;
        probe_timeout = 0.1;
        primary_failover = true;
        failover_ticks = 2;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Srv.stop follower;
      Srv.stop primary)
    (fun () ->
      let lag_at_loss = ref None in
      let events =
        [
          ( due_at trace 0.5,
            fun () ->
              lag_at_loss := replica_lag ~primary:pri_sock ~replica:fol_sock;
              Srv.stop primary );
        ]
      in
      let r = Replay.run ~socket_path:rt_sock ~concurrency ~events trace in
      Report.of_replay ~name ~rate ~concurrency ~counters:(counters_of rt_sock)
        ?replica_lag:!lag_at_loss r)

(* net-faults: a 2-shard router whose shard-0 link and client link run
   through seeded fault proxies stalling 5% of connections, with 0.5 s
   deadlines everywhere — a stalled peer costs at most its deadline, so
   p99 stays near 500 ms instead of hanging. *)
let net_faults_scenario settings ~root ~name ~requests ~rate ~concurrency =
  let deadline = 0.5 in
  let trace, sources =
    drill_inputs settings ~seed_offset:8 ~requests ~rate ()
  in
  let shards =
    start_shards ~root ~name ~shards:2 sources ~config:(fun c ->
        { c with Srv.recv_timeout = 2.0; idle_timeout = 1.0 })
  in
  let weather offset =
    Faultnet.seeded_plans ~seed:(settings.seed + offset) ~p_stall:0.05
      ~latency:0.001 ~jitter:0.002 ()
  in
  let sp_sock = sock_name name "sp" in
  let shard_proxy =
    Faultnet.start ~listen:sp_sock ~target:(fst shards.(0))
      ~plan_for:(weather 81)
  in
  let rt_sock = sock_name name "rt" in
  let router =
    Router.start
      {
        (Router.default_config
           ~shards:
             [
               { Router.primary = sp_sock; replicas = [] };
               { Router.primary = fst shards.(1); replicas = [] };
             ]
           ~socket_path:rt_sock)
        with
        Router.workers = 8;
        retries = 0;
        default_deadline = deadline;
        recv_timeout = deadline;
        idle_timeout = deadline;
        tick_interval = 0.02;
        probe_timeout = deadline;
      }
  in
  let cp_sock = sock_name name "cp" in
  let client_proxy =
    Faultnet.start ~listen:cp_sock ~target:rt_sock ~plan_for:(weather 82)
  in
  Fun.protect
    ~finally:(fun () ->
      Faultnet.stop client_proxy;
      Router.stop router;
      Faultnet.stop shard_proxy;
      stop_all shards)
    (fun () ->
      let r =
        Replay.run ~socket_path:cp_sock ~concurrency ~client_timeout:deadline
          trace
      in
      Report.of_replay ~name ~rate ~concurrency ~counters:(counters_of rt_sock)
        r)

(* ----------------------------------------------------------- the list *)

let run ?(progress = fun _ -> ()) settings =
  if settings.scale <= 0.0 then invalid_arg "Scenario.run: scale <= 0";
  List.iter
    (fun n ->
      if not (List.mem n names) then
        invalid_arg (Printf.sprintf "Scenario.run: unknown scenario %S" n))
    settings.only;
  let wanted name = settings.only = [] || List.mem name settings.only in
  let root = Printf.sprintf "wl-scratch-%d" (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      Unix.mkdir root 0o755;
      let table =
        [
          ( "zipf-read-only",
            fun name ->
              single_daemon_scenario settings ~root ~name ~seed_offset:1
                ~mix:{ Trace.phrase = 0.4; boolean = 0.4; topk = 0.2 }
                ~requests:160 ~rate:120.0 ~concurrency:8 () );
          ( "phrase-heavy",
            fun name ->
              single_daemon_scenario settings ~root ~name ~seed_offset:2
                ~mix:{ Trace.phrase = 0.85; boolean = 0.1; topk = 0.05 }
                ~requests:140 ~rate:100.0 ~concurrency:8 () );
          ( "boolean-heavy",
            fun name ->
              single_daemon_scenario settings ~root ~name ~seed_offset:3
                ~mix:{ Trace.phrase = 0.1; boolean = 0.85; topk = 0.05 }
                ~requests:140 ~rate:100.0 ~concurrency:8 () );
          ( "topk-heavy",
            fun name ->
              topk_scenario settings ~root ~name ~requests:140 ~rate:100.0
                ~concurrency:8 );
          ( "mixed-read-write",
            fun name ->
              single_daemon_scenario settings ~root ~name ~seed_offset:5
                ~mix:{ Trace.phrase = 0.35; boolean = 0.35; topk = 0.3 }
                ~requests:160 ~rate:100.0 ~concurrency:8 ~update_every:6
                ~update_batch:3 () );
          ( "multi-tenant-small-indexes",
            fun name ->
              multi_tenant_scenario settings ~root ~name ~requests_each:60
                ~rate_each:60.0 ~concurrency_each:4 );
          ( "shard-loss",
            fun name ->
              shard_loss_scenario settings ~root ~name ~requests:160
                ~rate:100.0 ~concurrency:8 );
          ( "replica-failover",
            fun name ->
              replica_failover_scenario settings ~root ~name ~requests:160
                ~rate:100.0 ~concurrency:8 );
          ( "net-faults",
            fun name ->
              net_faults_scenario settings ~root ~name ~requests:150 ~rate:50.0
                ~concurrency:16 );
        ]
      in
      (* run strictly in [names] order; a List.concat of immediate
         applications would evaluate right-to-left *)
      List.rev
        (List.fold_left
           (fun acc (name, f) ->
             if wanted name then (
               progress name;
               f name :: acc)
             else acc)
           [] table))
