(* The cluster serving contract:

   1. merging is exact: concat preserves cluster document order (shard
      index major, in-shard order minor), counts sum, top-k merges by
      score upper bound — pre-sorting any shard list that arrives out of
      order, breaking ties in shard order;
   2. a shard that is down past retries costs its partition, not the
      query: the merged answer carries partial framing (GTLX0011) naming
      the missing partitions; with every partition down the query fails
      with GTLX0011; a static/dynamic/type error from a healthy shard is
      the query's own failure and propagates as-is;
   3. replica failover: a shard with a live replica keeps answering in
      full when its primary dies;
   4. updates route by document hash to the owning shard's primary only
      (single-writer per partition);
   5. rolling reload over the wire reloads every shard and reports the
      merged health;
   6. chaos: under random shard kills/restarts, torn client frames and a
      concurrent query+update stream, every client gets a full answer, a
      GTLX0011-tagged partial naming the missing partitions, or a
      structured shed — never a hang, a protocol desync, or a transport
      error from the router itself.

   Everything runs in-process: Server.start per shard, Router.start for
   the router, Server.stop/start as the kill/restart hammer. *)

open Galatex_server
module Router = Galatex_cluster.Router
module Merge = Galatex_cluster.Merge

(* --- scratch dirs / sockets (same conventions as test_server.ml) --- *)

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
  let dir = fresh_name "clu-scratch" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let rec poll ?(tries = 250) msg f =
  if f () then ()
  else if tries = 0 then Alcotest.failf "timeout waiting for %s" msg
  else begin
    Thread.delay 0.02;
    poll ~tries:(tries - 1) msg f
  end

(* --- fixtures: 8 books cut into 2 partitions by uri hash --- *)

let sources =
  List.init 8 (fun i ->
      ( Printf.sprintf "doc%d.xml" i,
        Printf.sprintf
          "<book><title>Book %d</title><p>the usability of web site number \
           %d</p></book>"
          i i ))

let n_docs = List.length sources
let shard_count = 2
let parts = Corpus.Partition.split ~shards:shard_count sources

(* titles in cluster document order: shard 0's documents in order, then
   shard 1's — the ground truth for the concat tests *)
let expected_titles =
  List.concat_map
    (fun part ->
      List.map
        (fun (uri, _) ->
          Scanf.sscanf uri "doc%d.xml" (fun i ->
              Printf.sprintf "<title>Book %d</title>" i))
        part)
    (Array.to_list parts)

let count_query = "count(collection()//book)"
let titles_query = "collection()//book/title"

let short_limits : Xquery.Limits.t =
  { Xquery.Limits.defaults with Xquery.Limits.timeout = Some 3.0 }

(* --- an in-process cluster: one Server.t per shard + the router --- *)

type cluster = {
  router_sock : string;
  shard_socks : string array;
  shard_dirs : string array;
  servers : Server.t option ref array;  (** [None] while killed *)
  router : Router.t;
}

let shard_config ~dir ~sock =
  {
    (Server.default_config ~index_dir:dir ~socket_path:sock) with
    Server.workers = 2;
    tick_interval = 0.02;
  }

let start_shard c i =
  c.servers.(i) :=
    Some (Server.start (shard_config ~dir:c.shard_dirs.(i) ~sock:c.shard_socks.(i)))

let kill_shard c i =
  match !(c.servers.(i)) with
  | Some t ->
      c.servers.(i) := None;
      Server.stop t
  | None -> ()

let with_cluster ?(replicas = false) ?(tweak = fun (c : Router.config) -> c) ()
    f =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let shard_dirs =
        Array.mapi
          (fun i part ->
            let sdir = Filename.concat dir (Printf.sprintf "shard-%d" i) in
            Ftindex.Store.save ~dir:sdir (Ftindex.Indexer.index_strings part);
            sdir)
          parts
      in
      let shard_socks =
        Array.init shard_count (fun i ->
            fresh_name (Printf.sprintf "cs%d" i) ^ ".sock")
      in
      let servers =
        Array.init shard_count (fun i ->
            ref
              (Some
                 (Server.start
                    (shard_config ~dir:shard_dirs.(i) ~sock:shard_socks.(i)))))
      in
      (* a replica is a second read-only daemon over the same snapshot
         directory; the router only ever writes to primaries *)
      let replica_servers = ref [] in
      let replica_socks =
        if not replicas then Array.make shard_count None
        else
          Array.init shard_count (fun i ->
              let sock = fresh_name (Printf.sprintf "cr%d" i) ^ ".sock" in
              replica_servers :=
                Server.start (shard_config ~dir:shard_dirs.(i) ~sock)
                :: !replica_servers;
              Some sock)
      in
      let endpoints =
        Array.to_list
          (Array.mapi
             (fun i sock ->
               {
                 Router.primary = sock;
                 replicas = Option.to_list replica_socks.(i);
               })
             shard_socks)
      in
      let router_sock = fresh_name "crt" ^ ".sock" in
      let cfg =
        tweak
          {
            (Router.default_config ~shards:endpoints ~socket_path:router_sock) with
            Router.workers = 4;
            retries = 1;
            default_deadline = 3.0;
            tick_interval = 0.02;
            probe_timeout = 1.0;
            reload_timeout = 10.0;
          }
      in
      let router = Router.start cfg in
      let c = { router_sock; shard_socks; shard_dirs; servers; router } in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          Array.iteri (fun i _ -> kill_shard c i) c.servers;
          List.iter Server.stop !replica_servers)
        (fun () -> f c))

let ok_value what = function
  | Ok (Protocol.Value v) -> v
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "%s: unexpected failure %s: %s" what e.Protocol.code
        e.Protocol.message
  | Ok _ -> Alcotest.failf "%s: unexpected reply kind" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let query ?merge c text =
  Client.request ~socket_path:c.router_sock
    (Protocol.Query (Protocol.query_request ~limits:short_limits ?merge text))

(* ------------------------------------------------------------------ *)
(* Merge unit tests (no daemons).                                      *)

let test_merge_classify () =
  let is_sum q = Merge.classify q = Protocol.Merge_sum in
  Alcotest.(check bool) "count sums" true (is_sum "count(collection()//book)");
  Alcotest.(check bool) "sum sums" true (is_sum "sum(//price)");
  Alcotest.(check bool) "path concats" false (is_sum "//book/title");
  Alcotest.(check bool) "garbage concats" false (is_sum "((@!")

let test_merge_scores () =
  Alcotest.(check (option (float 1e-9)))
    "attribute" (Some 0.5)
    (Merge.score_of_item {|<result score="0.5"><p>x</p></result>|});
  Alcotest.(check (option (float 1e-9)))
    "leading float" (Some 0.25)
    (Merge.score_of_item "0.25 some text");
  Alcotest.(check (option (float 1e-9)))
    "no score" None
    (Merge.score_of_item "<title>plain</title>")

let test_merge_topk () =
  let s0 = (0, [ "0.9 a"; "0.5 b"; "0.1 c" ]) in
  let s1 = (1, [ "0.8 d"; "0.7 e" ]) in
  Alcotest.(check (list string))
    "k-way order"
    [ "0.9 a"; "0.8 d"; "0.7 e"; "0.5 b" ]
    (Merge.top_k ~k:4 [ s0; s1 ]);
  Alcotest.(check (list string))
    "k bounds" [ "0.9 a"; "0.8 d" ]
    (Merge.top_k ~k:2 [ s1; s0 ]);
  (* an out-of-order shard list is pre-sorted before the merge *)
  Alcotest.(check (list string))
    "pre-sorts" [ "0.9 y"; "0.8 d"; "0.7 e"; "0.2 x" ]
    (Merge.top_k ~k:4 [ (0, [ "0.2 x"; "0.9 y" ]); s1 ]);
  (* ties resolve in shard order; unscored items rank below scored ones *)
  Alcotest.(check (list string))
    "ties and unscored"
    [ "0.5 first"; "0.5 second"; "<plain/>" ]
    (Merge.top_k ~k:3
       [ (1, [ "0.5 second" ]); (0, [ "0.5 first"; "<plain/>" ]) ])

let test_merge_sum () =
  Alcotest.(check (list string))
    "sums" [ "5" ]
    (Merge.items Protocol.Merge_sum [ (1, [ "3" ]); (0, [ "2" ]) ]);
  Alcotest.(check (list string))
    "fractional" [ "2.5" ]
    (Merge.items Protocol.Merge_sum [ (0, [ "1.25" ]); (1, [ "1.25" ]) ]);
  (* a non-numeric answer means the classification was wrong: degrade to
     concatenation instead of inventing numbers *)
  Alcotest.(check (list string))
    "degrades to concat" [ "<a/>"; "3" ]
    (Merge.items Protocol.Merge_sum [ (0, [ "<a/>" ]); (1, [ "3" ]) ])

(* ------------------------------------------------------------------ *)
(* Scatter-gather basics.                                              *)

let test_concat_document_order () =
  with_cluster () (fun c ->
      let v = ok_value "titles" (query c titles_query) in
      Alcotest.(check (list string)) "cluster document order" expected_titles
        v.Protocol.items;
      Alcotest.(check bool) "complete" true (v.Protocol.partial = None))

let test_count_sums_across_shards () =
  with_cluster () (fun c ->
      let v = ok_value "count" (query c count_query) in
      Alcotest.(check (list string))
        "summed" [ string_of_int n_docs ] v.Protocol.items)

let test_topk_over_wire () =
  with_cluster () (fun c ->
      (* each shard answers its own document count — a single numeric item,
         which the top-k merge scores as a leading float *)
      let sizes =
        List.sort (fun a b -> compare b a)
          (List.map List.length (Array.to_list parts))
      in
      let v =
        ok_value "topk"
          (query ~merge:(Protocol.Merge_topk 2) c count_query)
      in
      Alcotest.(check (list string))
        "descending shard counts"
        (List.map string_of_int sizes)
        v.Protocol.items)

let test_authoritative_error_propagates () =
  with_cluster () (fun c ->
      match query c "((@!" with
      | Ok (Protocol.Failure e) ->
          Alcotest.(check string) "syntax error" "err:XPST0003" e.Protocol.code
      | Ok _ -> Alcotest.fail "expected the shards' syntax error"
      | Error reason -> Alcotest.failf "transport error %s" reason)

(* ------------------------------------------------------------------ *)
(* Degradation: shard down -> partial; all down -> GTLX0011.           *)

let test_partial_when_shard_down () =
  with_cluster () (fun c ->
      kill_shard c 1;
      let v = ok_value "degraded" (query c titles_query) in
      (match v.Protocol.partial with
      | Some p ->
          Alcotest.(check (list int)) "names the partition" [ 1 ]
            p.Protocol.missing;
          Alcotest.(check bool) "carries a reason" true
            (String.length p.Protocol.detail > 0)
      | None -> Alcotest.fail "expected a partial result");
      (* only partition 0's documents answered, still in order *)
      let expected_part0 =
        List.filteri (fun i _ -> i < List.length parts.(0)) expected_titles
      in
      Alcotest.(check (list string))
        "surviving partition in order" expected_part0 v.Protocol.items;
      (* restart: full answers return *)
      start_shard c 1;
      poll "full answers after restart" (fun () ->
          match query c titles_query with
          | Ok (Protocol.Value v) -> v.Protocol.partial = None
          | _ -> false))

let test_all_down_fails_gtlx0011 () =
  with_cluster () (fun c ->
      kill_shard c 0;
      kill_shard c 1;
      match query c count_query with
      | Ok (Protocol.Failure e) ->
          Alcotest.(check string) "GTLX0011" "gtlx:GTLX0011" e.Protocol.code;
          Alcotest.(check string) "resource class" "resource"
            e.Protocol.error_class
      | Ok _ -> Alcotest.fail "expected a structured failure"
      | Error reason -> Alcotest.failf "transport error %s" reason)

let test_replica_failover () =
  with_cluster ~replicas:true () (fun c ->
      kill_shard c 0;
      (* the replica keeps partition 0 answering: no partial framing *)
      let v = ok_value "failover" (query c count_query) in
      Alcotest.(check bool) "complete" true (v.Protocol.partial = None);
      Alcotest.(check (list string))
        "full count" [ string_of_int n_docs ] v.Protocol.items)

(* ------------------------------------------------------------------ *)
(* The scatter is concurrent: every shard's request is in flight at
   once, so a query costs its slowest shard, not the sum of them.        *)

let reply_delay = 0.2

(* [with_cluster], with the primaries of the shards in [slow] behind
   proxies that hold each reply chunk for [reply_delay] seconds *)
let with_slow_shards ?replicas ~slow f =
  let proxies = ref [] in
  let tweak (cfg : Router.config) =
    {
      cfg with
      Router.shards =
        List.mapi
          (fun i (ep : Router.endpoint) ->
            if not (List.mem i slow) then ep
            else begin
              let listen = fresh_name (Printf.sprintf "cd%d" i) ^ ".sock" in
              proxies :=
                Faultnet.start ~listen ~target:ep.Router.primary
                  ~plan_for:(fun _ ->
                    (Faultnet.clean, Faultnet.delayed reply_delay))
                :: !proxies;
              { ep with Router.primary = listen }
            end)
          cfg.Router.shards;
    }
  in
  Fun.protect
    ~finally:(fun () -> List.iter Faultnet.stop !proxies)
    (fun () -> with_cluster ?replicas ~tweak () f)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let test_scatter_is_concurrent () =
  with_slow_shards ~slow:[ 0; 1 ] (fun c ->
      let v, dt =
        timed (fun () -> ok_value "slow shards" (query c count_query))
      in
      Alcotest.(check bool) "complete" true (v.Protocol.partial = None);
      Alcotest.(check (list string))
        "full count" [ string_of_int n_docs ] v.Protocol.items;
      (* asked one after the other, two 0.2 s shards take 0.4 s *)
      if dt >= 1.5 *. reply_delay then
        Alcotest.failf "two %.1f s shards answered in %.3f s: not concurrent"
          reply_delay dt)

let test_failover_beside_slow_shard () =
  with_slow_shards ~replicas:true ~slow:[ 1 ] (fun c ->
      kill_shard c 0;
      let v, dt = timed (fun () -> ok_value "failover" (query c count_query)) in
      Alcotest.(check bool) "complete: partition 0 from its replica" true
        (v.Protocol.partial = None);
      Alcotest.(check (list string))
        "full count" [ string_of_int n_docs ] v.Protocol.items;
      let deadline = Option.get short_limits.Xquery.Limits.timeout in
      if dt >= deadline then
        Alcotest.failf "answered in %.3f s, past the %.1f s deadline" dt
          deadline)

(* ------------------------------------------------------------------ *)
(* Bounded-staleness failover: the router tracks each shard's freshest
   known (generation, seq) from update acks, query replies and probes;
   --max-lag gates how far behind a failover replica may serve from.    *)

(* an uri owned by the given partition, for steering updates *)
let uri_owned_by shard =
  let rec go i =
    let uri = Printf.sprintf "steer%d.xml" i in
    if Corpus.Partition.shard_of_uri ~shards:shard_count uri = shard then uri
    else go (i + 1)
  in
  go 0

let steer_op shard =
  Ftindex.Wal.Add_doc
    {
      uri = uri_owned_by shard;
      source = "<book><title>Steered</title><p>usability steering</p></book>";
    }

let send_update c ops =
  match Client.request ~socket_path:c.router_sock
      (Protocol.Update { ops; epoch = 0 })
  with
  | Ok (Protocol.Update_reply _) -> ()
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "update failed: %s: %s" e.Protocol.code e.Protocol.message
  | Ok _ -> Alcotest.fail "unexpected reply to update"
  | Error reason -> Alcotest.failf "update transport error %s" reason

let router_stat c key =
  match List.assoc_opt key (Router.stats c.router).Protocol.counters with
  | Some v -> v
  | None -> Alcotest.failf "router counter %s missing" key

let test_stale_replicas_fail_gtlx0012 () =
  with_cluster ~replicas:true
    ~tweak:(fun cfg -> { cfg with Router.max_lag = Some 0 })
    ()
    (fun c ->
      (* advance both primaries past their replicas (the replicas are
         separate daemons over the same snapshot and never see the WAL
         append); the update acks teach the router the fresh positions *)
      send_update c [ steer_op 0; steer_op 1 ];
      (* primaries are at the latest position: queries still flow *)
      ignore (ok_value "fresh" (query c count_query));
      kill_shard c 0;
      kill_shard c 1;
      (* only stale replicas remain: the freshness bound fails the query
         with the dedicated code, not the outage code *)
      (match query c count_query with
      | Ok (Protocol.Failure e) ->
          Alcotest.(check string) "stale code" "gtlx:GTLX0012" e.Protocol.code;
          Alcotest.(check string)
            "resource class" "resource" e.Protocol.error_class
      | Ok _ -> Alcotest.fail "query served beyond --max-lag"
      | Error reason -> Alcotest.failf "transport error %s" reason);
      Alcotest.(check bool) "stale skips counted" true
        (router_stat c "stale_skips" > 0))

let test_stale_replica_served_when_unbounded () =
  with_cluster ~replicas:true () (fun c ->
      send_update c [ steer_op 0 ];
      kill_shard c 0;
      (* no bound set: the lagging replica serves — complete answer,
         logged and counted rather than refused *)
      let v = ok_value "unbounded failover" (query c count_query) in
      Alcotest.(check bool) "complete" true (v.Protocol.partial = None);
      Alcotest.(check (list string))
        "replica's pre-update count"
        [ string_of_int n_docs ]
        v.Protocol.items;
      Alcotest.(check bool) "stale serves counted" true
        (router_stat c "stale_served" > 0))

let test_replica_within_bound_serves () =
  with_cluster ~replicas:true
    ~tweak:(fun cfg -> { cfg with Router.max_lag = Some 5 })
    ()
    (fun c ->
      send_update c [ steer_op 0 ];
      kill_shard c 0;
      (* one record behind, bound is five: the replica is fresh enough *)
      let v = ok_value "within bound" (query c count_query) in
      Alcotest.(check bool) "complete" true (v.Protocol.partial = None);
      Alcotest.(check int) "no stale skips" 0 (router_stat c "stale_skips"))

let test_health_reports_endpoints () =
  with_cluster ~replicas:true () (fun c ->
      kill_shard c 1;
      match Client.health ~socket_path:c.router_sock () with
      | Error reason -> Alcotest.failf "health: %s" reason
      | Ok h ->
          Alcotest.(check string) "router role" "router" h.Protocol.h_role;
          Alcotest.(check int)
            "one row per endpoint" (2 * shard_count)
            (List.length h.Protocol.h_endpoints);
          let find path =
            List.find
              (fun e -> e.Protocol.e_path = path)
              h.Protocol.h_endpoints
          in
          Array.iteri
            (fun i sock ->
              let e = find sock in
              Alcotest.(check string) "primary role" "primary"
                e.Protocol.e_role;
              Alcotest.(check int) "shard index" i e.Protocol.e_shard)
            c.shard_socks;
          Alcotest.(check bool) "killed primary reported down" false
            (find c.shard_socks.(1)).Protocol.e_up;
          let replicas =
            List.filter
              (fun e -> e.Protocol.e_role = "replica")
              h.Protocol.h_endpoints
          in
          Alcotest.(check int) "both replicas probed" 2 (List.length replicas);
          List.iter
            (fun e ->
              Alcotest.(check bool) "replica up" true e.Protocol.e_up;
              Alcotest.(check bool) "breaker state reported" true
                (List.mem e.Protocol.e_state [ "closed"; "open"; "half-open" ]);
              Alcotest.(check (option int)) "lag well-defined" (Some 0)
                e.Protocol.e_lag)
            replicas)

(* ------------------------------------------------------------------ *)
(* Update routing: by document hash, to the owning primary only.       *)

let test_update_routes_by_hash () =
  with_cluster () (fun c ->
      let uri = "fresh-doc.xml" in
      let owner = Corpus.Partition.shard_of_uri ~shards:shard_count uri in
      let other = 1 - owner in
      let op =
        Ftindex.Wal.Add_doc
          { uri; source = "<book><title>Fresh</title><p>usability</p></book>" }
      in
      (match
         Client.request ~socket_path:c.router_sock
           (Protocol.Update { ops = [ op ]; epoch = 0 })
       with
      | Ok (Protocol.Update_reply u) ->
          Alcotest.(check int) "one record" 1 u.Protocol.u_records
      | Ok (Protocol.Failure e) ->
          Alcotest.failf "update failed: %s: %s" e.Protocol.code
            e.Protocol.message
      | Ok _ -> Alcotest.fail "unexpected reply to update"
      | Error reason -> Alcotest.failf "transport error %s" reason);
      (* the owning shard's log took the record; the other's stayed empty *)
      let wal i =
        match Client.health ~socket_path:c.shard_socks.(i) () with
        | Ok h -> h.Protocol.h_wal_records
        | Error reason -> Alcotest.failf "health %d: %s" i reason
      in
      Alcotest.(check int) "owner appended" 1 (wal owner);
      Alcotest.(check int) "other untouched" 0 (wal other);
      let v = ok_value "count after add" (query c count_query) in
      Alcotest.(check (list string))
        "document visible" [ string_of_int (n_docs + 1) ] v.Protocol.items)

(* ------------------------------------------------------------------ *)
(* Rolling reload over the wire.                                       *)

let test_rolling_reload_over_wire () =
  with_cluster () (fun c ->
      match Client.reload ~socket_path:c.router_sock () with
      | Ok h ->
          Alcotest.(check bool) "serving floor" true (h.Protocol.h_generation >= 1);
          (* every shard performed exactly one reload, and kept serving *)
          Array.iter
            (fun sock ->
              match Client.stats ~socket_path:sock () with
              | Ok s ->
                  Alcotest.(check (option int))
                    "shard reloaded" (Some 1)
                    (List.assoc_opt "reloads" s.Protocol.counters)
              | Error reason -> Alcotest.failf "stats: %s" reason)
            c.shard_socks;
          let v = ok_value "after reload" (query c count_query) in
          Alcotest.(check (list string))
            "still serving" [ string_of_int n_docs ] v.Protocol.items
      | Error reason -> Alcotest.failf "reload failed: %s" reason)

(* ------------------------------------------------------------------ *)
(* Chaos: kills, restarts, torn frames, concurrent queries + updates.  *)

let test_chaos () =
  with_cluster () (fun c ->
      let deadline = Unix.gettimeofday () +. 3.0 in
      let violations = ref [] and vlock = Mutex.create () in
      let violation fmt =
        Printf.ksprintf
          (fun msg ->
            Mutex.lock vlock;
            violations := msg :: !violations;
            Mutex.unlock vlock)
          fmt
      in
      let full = Atomic.make 0
      and partial = Atomic.make 0
      and shed = Atomic.make 0 in
      let client_loop () =
        while Unix.gettimeofday () < deadline do
          let q =
            Protocol.query_request
              ~limits:
                {
                  Xquery.Limits.defaults with
                  Xquery.Limits.timeout = Some 1.5;
                }
              count_query
          in
          (match
             Client.query ~socket_path:c.router_sock ~retries:2
               ~deadline:(Unix.gettimeofday () +. 1.5)
               q
           with
          | Ok (Protocol.Value v) -> (
              match v.Protocol.partial with
              | None ->
                  Atomic.incr full;
                  (* updates only ever add documents *)
                  let bad_count =
                    match v.Protocol.items with
                    | [ n ] -> (
                        match int_of_string_opt n with
                        | Some k -> k < n_docs
                        | None -> true)
                    | _ -> true
                  in
                  if bad_count then
                    violation "full answer with bad count: [%s]"
                      (String.concat "; " v.Protocol.items)
              | Some p ->
                  Atomic.incr partial;
                  if
                    p.Protocol.missing = []
                    || List.exists
                         (fun i -> i < 0 || i >= shard_count)
                         p.Protocol.missing
                  then
                    violation "partial naming bogus partitions [%s]"
                      (String.concat ", "
                         (List.map string_of_int p.Protocol.missing)))
          | Ok (Protocol.Failure e) ->
              if e.Protocol.code = "gtlx:GTLX0009"
                 || e.Protocol.code = "gtlx:GTLX0011"
              then Atomic.incr shed
              else violation "unexpected failure %s: %s" e.Protocol.code
                     e.Protocol.message
          | Ok _ -> violation "non-query reply to a query"
          | Error reason ->
              (* the router itself must never be unreachable *)
              violation "transport error from the router: %s" reason);
          Thread.delay 0.01
        done
      in
      let update_loop () =
        let i = ref 0 in
        while Unix.gettimeofday () < deadline do
          incr i;
          let uri = Printf.sprintf "chaos-%d.xml" !i in
          let op =
            Ftindex.Wal.Add_doc
              {
                uri;
                source =
                  Printf.sprintf "<book><title>Chaos %d</title></book>" !i;
              }
          in
          (match
             Client.request ~socket_path:c.router_sock
               (Protocol.Update { ops = [ op ]; epoch = 0 })
           with
          | Ok (Protocol.Update_reply _) | Ok (Protocol.Failure _) -> ()
          | Ok _ -> violation "non-update reply to an update"
          | Error reason ->
              violation "transport error on update: %s" reason);
          Thread.delay 0.05
        done
      in
      let tear_loop () =
        (* torn and oversized frames straight at the router: it must shrug
           (client_errors), never desync or die *)
        while Unix.gettimeofday () < deadline do
          (try
             let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             Fun.protect
               ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
               (fun () ->
                 Unix.connect fd (Unix.ADDR_UNIX c.router_sock);
                 ignore (Unix.write_substring fd "\xff\xff" 0 2))
           with Unix.Unix_error _ -> ());
          Thread.delay 0.05
        done
      in
      let chaos_loop () =
        let which = ref 0 in
        while Unix.gettimeofday () < deadline -. 0.8 do
          let i = !which land 1 in
          incr which;
          kill_shard c i;
          Thread.delay 0.25;
          start_shard c i;
          (* a rolling reload mid-churn must answer (possibly GTLX0011),
             never hang *)
          (match Client.reload ~recv_timeout:5.0 ~socket_path:c.router_sock () with
          | Ok _ | Error _ -> ());
          Thread.delay 0.2
        done
      in
      let threads =
        List.map
          (fun f -> Thread.create f ())
          [ client_loop; client_loop; update_loop; tear_loop; chaos_loop ]
      in
      List.iter Thread.join threads;
      (* quiesce: both shards up -> full answers must return *)
      Array.iteri (fun i r -> if !r = None then start_shard c i) c.servers;
      poll "full answers after the storm" (fun () ->
          match query c count_query with
          | Ok (Protocol.Value v) -> v.Protocol.partial = None
          | _ -> false);
      (match !violations with
      | [] -> ()
      | vs ->
          Alcotest.failf "%d invariant violation(s):\n%s" (List.length vs)
            (String.concat "\n" vs));
      if Atomic.get full = 0 then
        Alcotest.failf "no fully-answered query in the whole sweep (%d partial, %d shed)"
          (Atomic.get partial) (Atomic.get shed))

(* ------------------------------------------------------------------ *)
(* Automatic primary failover: the router detects the dead primary,
   promotes the caught-up follower onto a new epoch, redirects writes,
   and fences the restarted old primary off its stale timeline.        *)

let test_primary_failover () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let pdir = Filename.concat dir "pri" in
      let fdir = Filename.concat dir "fol" in
      Ftindex.Store.save ~dir:pdir (Ftindex.Indexer.index_strings sources);
      let psock = fresh_name "fop" ^ ".sock" in
      let fsock = fresh_name "fof" ^ ".sock" in
      let pcfg = shard_config ~dir:pdir ~sock:psock in
      let primary = ref (Some (Server.start pcfg)) in
      let follower =
        Server.start
          { (shard_config ~dir:fdir ~sock:fsock) with Server.follow = Some psock }
      in
      let router_sock = fresh_name "fort" ^ ".sock" in
      let cfg =
        {
          (Router.default_config
             ~shards:[ { Router.primary = psock; replicas = [ fsock ] } ]
             ~socket_path:router_sock)
          with
          Router.workers = 2;
          retries = 1;
          default_deadline = 3.0;
          tick_interval = 0.02;
          probe_timeout = 0.2;
          reload_timeout = 10.0;
          primary_failover = true;
          failover_ticks = 2;
        }
      in
      let router = Router.start cfg in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          Server.stop follower;
          match !primary with Some t -> Server.stop t | None -> ())
        (fun () ->
          let health sock =
            match Client.health ~socket_path:sock () with
            | Ok h -> h
            | Error reason -> Alcotest.failf "health %s: %s" sock reason
          in
          let converged () =
            match
              (Client.health ~socket_path:psock (), Client.health ~socket_path:fsock ())
            with
            | Ok p, Ok f ->
                p.Protocol.h_generation = f.Protocol.h_generation
                && p.Protocol.h_seq = f.Protocol.h_seq
                && p.Protocol.h_manifest_crc = f.Protocol.h_manifest_crc
            | _ -> false
          in
          let rstat key =
            match Client.stats ~socket_path:router_sock () with
            | Ok s ->
                Option.value ~default:0
                  (List.assoc_opt key s.Protocol.counters)
            | Error _ -> 0
          in
          let send_update i =
            let op =
              Ftindex.Wal.Add_doc
                {
                  uri = Printf.sprintf "failover-%d.xml" i;
                  source =
                    Printf.sprintf "<book><title>Failover %d</title></book>" i;
                }
            in
            Client.request ~socket_path:router_sock
              (Protocol.Update { ops = [ op ]; epoch = 0 })
          in
          poll "follower bootstraps" converged;
          (* writes flow through the router onto the original timeline *)
          (match send_update 0 with
          | Ok (Protocol.Update_reply u) ->
              Alcotest.(check int) "epoch-1 write" 1 u.Protocol.u_epoch
          | _ -> Alcotest.fail "routed update failed");
          poll "follower catches up" converged;
          (* kill -9 the primary: the router's health sweep notices and
             promotes the caught-up follower onto epoch 2 *)
          (match !primary with
          | Some t ->
              primary := None;
              Server.stop t
          | None -> ());
          poll ~tries:500 "router fails over" (fun () -> rstat "failovers" >= 1);
          let h = health fsock in
          Alcotest.(check string) "follower promoted" "primary"
            h.Protocol.h_role;
          Alcotest.(check int) "new timeline" 2 h.Protocol.h_epoch;
          (* hash-routed writes resume, stamped with the new epoch *)
          poll ~tries:500 "writes resume on the new primary" (fun () ->
              match send_update 1 with
              | Ok (Protocol.Update_reply u) -> u.Protocol.u_epoch = 2
              | _ -> false);
          (* the restarted old primary claims the stale timeline: the
             router demotes it and it re-syncs onto the new one *)
          primary := Some (Server.start pcfg);
          poll ~tries:500 "old primary demoted" (fun () ->
              match Client.health ~socket_path:psock () with
              | Ok h -> h.Protocol.h_role = "replica"
              | Error _ -> false);
          Alcotest.(check bool) "demotes counted" true (rstat "demotes_sent" >= 1);
          poll ~tries:500 "old primary converges onto the new timeline"
            (fun () -> converged () && (health psock).Protocol.h_epoch = 2);
          (* the cluster still answers in full through the router *)
          match
            Client.request ~socket_path:router_sock
              (Protocol.Query
                 (Protocol.query_request ~limits:short_limits count_query))
          with
          | Ok (Protocol.Value v) ->
              Alcotest.(check (list string))
                "full answer after failover"
                [ string_of_int (n_docs + 2) ]
                v.Protocol.items;
              Alcotest.(check bool) "not partial" true (v.Protocol.partial = None)
          | _ -> Alcotest.fail "query through the router failed"))

(* --- exported metrics --- *)

(* (name, kind) of every "# TYPE" line of a Prometheus exposition *)
let metric_families text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; name; kind ] -> Some (name, kind)
      | _ -> None)
    (String.split_on_char '\n' text)

(* unlabelled samples: metric name -> value *)
let metric_samples text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when line.[0] <> '#' && not (String.contains name '{') ->
          Some (name, int_of_string v)
      | _ -> None)
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))

(* Every metric family each daemon exports.  CI, the smoke test and
   scrapers read these names: dropping or renaming one is a breaking
   change, so the list is pinned here. *)
let server_families =
  [ ("galatex_queries_total", "counter"); ("galatex_accepted_total", "counter");
    ("galatex_shed_total", "counter"); ("galatex_shed_shutdown_total", "counter");
    ("galatex_client_errors_total", "counter");
    ("galatex_slow_client_disconnects_total", "counter");
    ("galatex_queue_depth", "gauge"); ("galatex_served_total", "counter");
    ("galatex_errors_total", "counter");
    ("galatex_breaker_bypassed_total", "counter");
    ("galatex_breaker_trips_total", "counter");
    ("galatex_fallbacks_total", "counter"); ("galatex_reloads_total", "counter");
    ("galatex_reload_failures_total", "counter");
    ("galatex_salvage_events_total", "counter");
    ("galatex_updates_total", "counter"); ("galatex_update_errors_total", "counter");
    ("galatex_compactions_total", "counter");
    ("galatex_compaction_failures_total", "counter");
    ("galatex_generation", "gauge"); ("galatex_wal_records", "gauge");
    ("galatex_wal_bytes", "gauge"); ("galatex_wal_syncs_total", "counter");
    ("galatex_wal_sync_records_total", "counter");
    ("galatex_snapshot_resyncs_total", "counter");
    ("galatex_sync_failures_total", "counter"); ("galatex_follow_lag", "gauge");
    ("galatex_follow_generation_behind", "gauge"); ("galatex_epoch", "gauge");
    ("galatex_promotions_total", "counter"); ("galatex_demotions_total", "counter");
    ("galatex_stale_epoch_rejections_total", "counter");
    ("galatex_primary_unreachable_ticks_total", "counter");
    ("galatex_follow_primary_up", "gauge");
    ("galatex_engine_allmatches_materialized_total", "counter");
    ("galatex_engine_postings_read_total", "counter");
    ("galatex_engine_pushdown_fired_total", "counter");
    ("galatex_engine_or_short_circuit_fired_total", "counter");
    ("galatex_engine_ft_dispatches_total", "counter");
    ("galatex_query_duration_seconds", "histogram") ]

let router_families =
  [ ("galatex_route_queries_total", "counter");
    ("galatex_route_partial_total", "counter");
    ("galatex_route_failed_total", "counter"); ("galatex_served_total", "counter");
    ("galatex_shard_attempts_total", "counter");
    ("galatex_shard_errors_total", "counter");
    ("galatex_shard_bypassed_total", "counter");
    ("galatex_stale_skips_total", "counter");
    ("galatex_stale_served_total", "counter");
    ("galatex_breaker_trips_total", "counter"); ("galatex_updates_total", "counter");
    ("galatex_update_errors_total", "counter");
    ("galatex_compactions_total", "counter"); ("galatex_reloads_total", "counter");
    ("galatex_reload_failures_total", "counter");
    ("galatex_failovers_total", "counter");
    ("galatex_failover_failures_total", "counter");
    ("galatex_demotes_sent_total", "counter");
    ("galatex_fenced_writes_total", "counter");
    ("galatex_primary_failover", "gauge"); ("galatex_workers", "gauge");
    ("galatex_shards", "gauge"); ("galatex_accepted_total", "counter");
    ("galatex_shed_total", "counter"); ("galatex_shed_shutdown_total", "counter");
    ("galatex_client_errors_total", "counter");
    ("galatex_slow_client_disconnects_total", "counter");
    ("galatex_queue_depth", "gauge"); ("galatex_route_shard_epoch", "gauge");
    ("galatex_route_shard_up", "gauge"); ("galatex_route_replica_lag", "gauge") ]

(* Every stats key, in order: perfbench and the workload reports read
   them by name. *)
let core_keys =
  [ "accepted"; "shed"; "shed_shutdown"; "client_errors";
    "slow_client_disconnects"; "queue_depth" ]

let server_keys =
  [ "queries"; "served"; "errors"; "breaker_bypassed"; "breaker_trips";
    "fallbacks_total"; "reloads"; "reload_failures"; "salvage_events";
    "generation"; "workers"; "updates"; "update_errors"; "compactions";
    "compaction_failures"; "wal_records"; "wal_bytes"; "wal_syncs";
    "wal_sync_records"; "snapshot_resyncs"; "sync_failures"; "follow_lag";
    "follow_gen_behind"; "epoch"; "promotions"; "demotions";
    "stale_epoch_rejections"; "primary_unreachable_ticks";
    "primary_down_streak"; "follow_primary_up"; "follow_timeout_ms" ]
  @ core_keys

let router_keys =
  [ "route_queries"; "route_partial"; "route_failed"; "served";
    "shard_attempts"; "shard_errors"; "shard_bypassed"; "stale_skips";
    "stale_served"; "breaker_trips"; "updates"; "update_errors";
    "compactions"; "reloads"; "reload_failures"; "failovers";
    "failover_failures"; "demotes_sent"; "fenced_writes"; "primary_failover";
    "workers"; "shards" ]
  @ core_keys

(* The stats key an unlabelled sample mirrors: galatex_<key>[_total]. *)
let stat_of_sample counters name =
  let base = String.sub name 8 (String.length name - 8) in
  let base = if base = "follow_generation_behind" then "follow_gen_behind" else base in
  List.find_opt
    (fun k -> List.mem_assoc k counters)
    [ base; (try Filename.chop_suffix base "_total" with Invalid_argument _ -> base) ]

(* [keys] and [families] exactly, and every unlabelled sample (engine counters
   aside) equal to its stats row, on a quiet snapshot: stats read the
   same before and after the exposition. *)
let check_exposition who ~keys ~families stats text =
  let rec quiet tries =
    let before = stats () in
    let t = text () in
    if before = stats () || tries = 0 then (before, t) else quiet (tries - 1)
  in
  let counters, t = quiet 50 in
  Alcotest.(check (list string)) (who ^ " stats keys") keys (List.map fst counters);
  let sorted = List.sort compare in
  Alcotest.(check (list (pair string string)))
    (who ^ " metric families") (sorted families) (sorted (metric_families t));
  let mirrored =
    List.filter
      (fun (name, _) -> not (String.starts_with ~prefix:"galatex_engine_" name))
      (metric_samples t)
  in
  List.iter
    (fun (name, v) ->
      match stat_of_sample counters name with
      | Some k -> Alcotest.(check int) (who ^ " " ^ name) (List.assoc k counters) v
      | None -> Alcotest.failf "%s: %s mirrors no stats row" who name)
    mirrored

let test_exported_metrics () =
  with_cluster () (fun c ->
      ignore (query c count_query);
      check_exposition "router" ~keys:router_keys ~families:router_families
        (fun () -> (Router.stats c.router).Protocol.counters)
        (fun () -> Router.metrics_text c.router));
  Test_server.with_server () (fun _ sock t ->
      ignore
        (Client.request ~socket_path:sock
           (Protocol.Query (Protocol.query_request "count(//p)")));
      check_exposition "server" ~keys:server_keys ~families:server_families
        (fun () -> (Server.stats t).Protocol.counters)
        (fun () -> Server.metrics_text t))

let tests =
  [
    Alcotest.test_case "merge classify" `Quick test_merge_classify;
    Alcotest.test_case "merge score extraction" `Quick test_merge_scores;
    Alcotest.test_case "merge top-k" `Quick test_merge_topk;
    Alcotest.test_case "merge sum" `Quick test_merge_sum;
    Alcotest.test_case "concat document order" `Quick test_concat_document_order;
    Alcotest.test_case "count sums across shards" `Quick
      test_count_sums_across_shards;
    Alcotest.test_case "top-k over the wire" `Quick test_topk_over_wire;
    Alcotest.test_case "authoritative error propagates" `Quick
      test_authoritative_error_propagates;
    Alcotest.test_case "partial when shard down" `Quick
      test_partial_when_shard_down;
    Alcotest.test_case "all partitions down" `Quick test_all_down_fails_gtlx0011;
    Alcotest.test_case "replica failover" `Quick test_replica_failover;
    Alcotest.test_case "scatter is concurrent" `Quick test_scatter_is_concurrent;
    Alcotest.test_case "failover beside a slow shard" `Quick
      test_failover_beside_slow_shard;
    Alcotest.test_case "stale replicas fail (GTLX0012)" `Quick
      test_stale_replicas_fail_gtlx0012;
    Alcotest.test_case "stale replica served when unbounded" `Quick
      test_stale_replica_served_when_unbounded;
    Alcotest.test_case "replica within bound serves" `Quick
      test_replica_within_bound_serves;
    Alcotest.test_case "health reports endpoints" `Quick
      test_health_reports_endpoints;
    Alcotest.test_case "update routes by hash" `Quick test_update_routes_by_hash;
    Alcotest.test_case "rolling reload over wire" `Quick
      test_rolling_reload_over_wire;
    Alcotest.test_case "chaos" `Quick test_chaos;
    Alcotest.test_case "primary failover" `Quick test_primary_failover;
    Alcotest.test_case "exported metrics are stable" `Quick
      test_exported_metrics;
  ]

