(* The named workload scenarios: corpus + topology + trace spec, brought
   up in-process (daemons and routers are libraries here, exactly as the
   R-series benches do it), replayed, and torn down.

   Every number downstream of [settings.seed] is deterministic; [scale]
   shrinks request counts (never below a floor that keeps percentiles
   meaningful) so CI can run the same scenarios in seconds. *)

module Srv = Galatex_server.Server
module Cli = Galatex_server.Client
module Router = Galatex_cluster.Router

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
  let pid = Unix.getpid () in
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
  let parts = Corpus.Partition.split ~shards:2 sources in
  let shard_socks =
    Array.init 2 (fun i -> Printf.sprintf "wl-%d-%s-s%d.sock" pid name i)
  in
  let servers =
    Array.mapi
      (fun i part ->
        let dir = Filename.concat root (Printf.sprintf "%s-s%d" name i) in
        Ftindex.Store.save ~dir (Ftindex.Indexer.index_strings part);
        Srv.start (daemon_config ~index_dir:dir ~socket_path:shard_socks.(i)))
      parts
  in
  let rep_sock = Printf.sprintf "wl-%d-%s-rep.sock" pid name in
  let replica =
    Srv.start
      {
        (daemon_config
           ~index_dir:(Filename.concat root (name ^ "-rep"))
           ~socket_path:rep_sock)
        with
        Srv.follow = Some shard_socks.(0);
      }
  in
  let rt_sock = Printf.sprintf "wl-%d-%s-rt.sock" pid name in
  let router =
    Router.start
      {
        (Router.default_config
           ~shards:
             [
               { Router.primary = shard_socks.(0); replicas = [ rep_sock ] };
               { Router.primary = shard_socks.(1); replicas = [] };
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
      Array.iter Srv.stop servers)
    (fun () ->
      let r = Replay.run ~socket_path:rt_sock ~concurrency (Trace.generate spec) in
      let replica_lag =
        match
          ( Cli.health ~socket_path:shard_socks.(0) (),
            Cli.health ~socket_path:rep_sock () )
        with
        | Ok pri, Ok rep ->
            Some
              (max 0
                 (pri.Galatex_server.Protocol.h_seq
                 - rep.Galatex_server.Protocol.h_seq))
        | _ -> None
      in
      Report.of_replay ~name ~rate ~concurrency ~counters:(counters_of rt_sock)
        ?replica_lag r)

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
