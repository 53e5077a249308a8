(* The WAL-shipping replication contract:

   1. wire pulls are exact: [Fetch_wal] ships acknowledged records past
      the requested position framed exactly as on disk, [Fetch_snapshot]
      transfers the base snapshot byte-for-byte (CRC-checked listing,
      per-file transfers, traversal-proof names);
   2. a follower bootstraps an empty directory from its primary, tails
      the primary's log every tick and applies it durable-first: after
      quiescence its (generation, seq, manifest CRC) triple equals the
      primary's and it answers queries identically;
   3. a follower is read-only: updates and compactions are rejected with
      a structured error, never applied;
   4. a primary compaction moves the base generation; the follower
      detects the mismatch and re-syncs the full snapshot;
   5. anti-entropy: a follower whose snapshot diverges from its
      primary's at the same generation (seeded from a different corpus)
      detects the manifest-CRC mismatch and repairs itself;
   6. convergence chaos: primary + two followers under a concurrent
      update stream, with the primary killed and restarted mid-stream
      and a compaction thrown in — both followers converge to the
      primary's exact (generation, seq, manifest CRC) and answer
      queries identically.

   Everything runs in-process: Server.start per daemon, Server.stop /
   Server.start as the kill/restart hammer. *)

open Galatex_server

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
  let dir = fresh_name "rep-scratch" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let rec poll ?(tries = 250) msg f =
  if f () then ()
  else if tries = 0 then Alcotest.failf "timeout waiting for %s" msg
  else begin
    Thread.delay 0.02;
    poll ~tries:(tries - 1) msg f
  end

(* --- fixtures --- *)

let corpus =
  List.init 4 (fun i ->
      ( Printf.sprintf "doc%d.xml" i,
        Printf.sprintf
          "<book><title>Book %d</title><p>the usability of web site number \
           %d</p></book>"
          i i ))

let other_corpus =
  [ ("doc0.xml", "<book><title>Diverged</title><p>zebra quokka</p></book>") ]

let save_corpus ~dir sources =
  Ftindex.Store.save ~dir (Ftindex.Indexer.index_strings sources)

let add_doc i =
  Ftindex.Wal.Add_doc
    {
      uri = Printf.sprintf "new%d.xml" i;
      source =
        Printf.sprintf
          "<book><title>Update %d</title><p>usability update number %d</p></book>"
          i i;
    }

let count_query = "count(collection()//book)"
let titles_query = "collection()//book/title"

let daemon_config ?follow ~dir ~sock () =
  {
    (Server.default_config ~index_dir:dir ~socket_path:sock) with
    Server.workers = 2;
    tick_interval = 0.02;
    follow;
  }

(* primary + one follower, the follower's directory prepared by [seed] *)
let with_pair ?(seed = fun _fdir -> ()) () f =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let pdir = Filename.concat dir "primary" in
      let fdir = Filename.concat dir "follower" in
      save_corpus ~dir:pdir corpus;
      seed fdir;
      let psock = fresh_name "rp" ^ ".sock" in
      let fsock = fresh_name "rf" ^ ".sock" in
      let primary = Server.start (daemon_config ~dir:pdir ~sock:psock ()) in
      Fun.protect
        ~finally:(fun () -> Server.stop primary)
        (fun () ->
          let follower =
            Server.start
              (daemon_config ~follow:psock ~dir:fdir ~sock:fsock ())
          in
          Fun.protect
            ~finally:(fun () -> Server.stop follower)
            (fun () -> f ~pdir ~fdir ~psock ~fsock)))

let ok what = function
  | Ok v -> v
  | Error reason -> Alcotest.failf "%s: %s" what reason

let value_of what = function
  | Ok (Protocol.Value v) -> v
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "%s: unexpected failure %s: %s" what e.Protocol.code
        e.Protocol.message
  | Ok _ -> Alcotest.failf "%s: unexpected reply kind" what
  | Error reason -> Alcotest.failf "%s: transport error %s" what reason

let query sock text =
  value_of text
    (Client.request ~socket_path:sock
       (Protocol.Query (Protocol.query_request text)))

let update sock ops =
  match Client.request ~socket_path:sock (Protocol.Update { ops; epoch = 0 }) with
  | Ok (Protocol.Update_reply u) -> u
  | Ok (Protocol.Failure e) ->
      Alcotest.failf "update: unexpected failure %s: %s" e.Protocol.code
        e.Protocol.message
  | Ok _ -> Alcotest.fail "update: unexpected reply kind"
  | Error reason -> Alcotest.failf "update: transport error %s" reason

let health sock = ok "health" (Client.health ~socket_path:sock ())

let stat sock key =
  match
    List.assoc_opt key (ok "stats" (Client.stats ~socket_path:sock ())).Protocol.counters
  with
  | Some v -> v
  | None -> Alcotest.failf "stats counter %s missing" key

(* the convergence criterion everywhere below: same base generation,
   same applied sequence, same snapshot bytes (manifest CRC) *)
let converged psock fsock =
  let p = health psock and f = health fsock in
  p.Protocol.h_generation = f.Protocol.h_generation
  && p.Protocol.h_seq = f.Protocol.h_seq
  && p.Protocol.h_manifest_crc = f.Protocol.h_manifest_crc

let check_same_answers ~what psock fsock =
  List.iter
    (fun q ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s answers identically" what q)
        (query psock q).Protocol.items (query fsock q).Protocol.items)
    [ count_query; titles_query ]

(* ------------------------------------------------------------------ *)
(* 1. wire pulls                                                       *)

let test_fetch_wal_over_wire () =
  with_dir (fun dir ->
      save_corpus ~dir corpus;
      let sock = fresh_name "rw" ^ ".sock" in
      let t = Server.start (daemon_config ~dir ~sock ()) in
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          let ops = List.init 5 add_doc in
          ignore (update sock ops);
          let w = ok "fetch_wal" (Client.fetch_wal ~socket_path:sock ~from_seq:0 ()) in
          Alcotest.(check int) "base generation" 1 w.Protocol.w_generation;
          Alcotest.(check int) "last seq" 5 w.Protocol.w_last_seq;
          let records = Ftindex.Wal.decode_records w.Protocol.w_frames in
          Alcotest.(check (list int))
            "dense sequence" [ 1; 2; 3; 4; 5 ]
            (List.map (fun r -> r.Ftindex.Wal.seq) records);
          Alcotest.(check bool)
            "ops survive the wire" true
            (List.map (fun r -> r.Ftindex.Wal.op) records = ops);
          (* a follower that already applied 3 pulls only the tail *)
          let tail = ok "tail" (Client.fetch_wal ~socket_path:sock ~from_seq:3 ()) in
          Alcotest.(check (list int))
            "tail only" [ 4; 5 ]
            (List.map
               (fun r -> r.Ftindex.Wal.seq)
               (Ftindex.Wal.decode_records tail.Protocol.w_frames));
          let none = ok "none" (Client.fetch_wal ~socket_path:sock ~from_seq:5 ()) in
          Alcotest.(check string) "caught up: empty" "" none.Protocol.w_frames))

let test_fetch_snapshot_over_wire () =
  with_dir (fun dir ->
      save_corpus ~dir corpus;
      let sock = fresh_name "rs" ^ ".sock" in
      let t = Server.start (daemon_config ~dir ~sock ()) in
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          let listing =
            ok "listing" (Client.fetch_snapshot ~socket_path:sock ())
          in
          Alcotest.(check int) "generation" 1 listing.Protocol.sn_generation;
          Alcotest.(check (option int))
            "advertised CRC is the on-disk manifest CRC"
            (Ftindex.Store.manifest_crc ~dir)
            (Some listing.Protocol.sn_manifest_crc);
          Alcotest.(check bool) "listing reply has no data" true
            (listing.Protocol.sn_data = None);
          (match listing.Protocol.sn_files with
          | m :: _ -> Alcotest.(check string) "manifest first" "MANIFEST" m
          | [] -> Alcotest.fail "empty listing");
          (* every listed file transfers byte-for-byte *)
          List.iter
            (fun name ->
              let r =
                ok name (Client.fetch_snapshot ~socket_path:sock ~file:name ())
              in
              let on_disk =
                let ic = open_in_bin (Filename.concat dir name) in
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s transfers byte-for-byte" name)
                true
                (r.Protocol.sn_data = Some on_disk))
            listing.Protocol.sn_files;
          (* unknown and traversal-shaped names are rejected, not read *)
          List.iter
            (fun bad ->
              match Client.fetch_snapshot ~socket_path:sock ~file:bad () with
              | Ok _ -> Alcotest.failf "served %s" bad
              | Error _ -> ())
            [ "nope.seg"; "../MANIFEST"; "/etc/passwd" ]))

(* ------------------------------------------------------------------ *)
(* 2-4. follower lifecycle                                             *)

let test_follower_bootstrap_and_catch_up () =
  with_pair () (fun ~pdir:_ ~fdir:_ ~psock ~fsock ->
      (* bootstrap: the follower pulled the primary's snapshot at start *)
      poll "bootstrap convergence" (fun () -> converged psock fsock);
      let h = health fsock in
      Alcotest.(check string) "role" "replica" h.Protocol.h_role;
      Alcotest.(check string) "primary role" "primary"
        (health psock).Protocol.h_role;
      check_same_answers ~what:"bootstrap" psock fsock;
      (* live catch-up: updates to the primary reach the follower *)
      let u = update psock (List.init 3 add_doc) in
      Alcotest.(check int) "primary acked" 3 u.Protocol.u_last_seq;
      poll "wal catch-up" (fun () -> converged psock fsock);
      check_same_answers ~what:"catch-up" psock fsock;
      Alcotest.(check bool) "wal_syncs counted" true (stat fsock "wal_syncs" >= 1);
      Alcotest.(check int) "3 records shipped" 3 (stat fsock "wal_sync_records");
      Alcotest.(check int) "no sync failures" 0 (stat fsock "sync_failures");
      (* the query reply advertises the exact position that answered *)
      let v = query fsock count_query in
      Alcotest.(check int) "reply seq" 3 v.Protocol.seq)

let test_follower_rejects_writes () =
  with_pair () (fun ~pdir:_ ~fdir:_ ~psock ~fsock ->
      poll "bootstrap" (fun () -> converged psock fsock);
      (match
         Client.request ~socket_path:fsock
           (Protocol.Update { ops = [ add_doc 0 ]; epoch = 0 })
       with
      | Ok (Protocol.Failure e) ->
          Alcotest.(check string) "update rejected" "err:FODC0002" e.Protocol.code
      | _ -> Alcotest.fail "follower accepted an update");
      match
        Client.request ~socket_path:fsock (Protocol.Compact { epoch = 0 })
      with
      | Ok (Protocol.Failure e) ->
          Alcotest.(check string) "compact rejected" "err:FODC0002" e.Protocol.code
      | _ -> Alcotest.fail "follower accepted a compaction")

let test_compaction_triggers_resync () =
  with_pair () (fun ~pdir:_ ~fdir:_ ~psock ~fsock ->
      poll "bootstrap" (fun () -> converged psock fsock);
      ignore (update psock (List.init 4 add_doc));
      poll "catch-up" (fun () -> converged psock fsock);
      (* fold the log: the base generation moves under the follower *)
      (match
         Client.request ~socket_path:psock (Protocol.Compact { epoch = 0 })
       with
      | Ok (Protocol.Compact_reply c) ->
          Alcotest.(check int) "generation moved" 2 c.Protocol.c_generation
      | _ -> Alcotest.fail "compact failed");
      poll "re-sync after compaction" (fun () -> converged psock fsock);
      Alcotest.(check int) "new base generation" 2
        (health fsock).Protocol.h_generation;
      Alcotest.(check bool) "snapshot re-sync counted" true
        (stat fsock "snapshot_resyncs" >= 1);
      check_same_answers ~what:"post-compaction" psock fsock)

let test_anti_entropy_repairs_divergence () =
  (* the follower starts over a snapshot saved from a different corpus at
     the same generation: only the manifest CRC betrays the divergence *)
  with_pair
    ~seed:(fun fdir -> save_corpus ~dir:fdir other_corpus)
    ()
    (fun ~pdir ~fdir ~psock ~fsock ->
      poll "anti-entropy repair" (fun () -> converged psock fsock);
      Alcotest.(check bool) "repair was a snapshot re-sync" true
        (stat fsock "snapshot_resyncs" >= 1);
      check_same_answers ~what:"repaired" psock fsock;
      (* bit-identical on disk, not just same answers *)
      Alcotest.(check (option int))
        "manifest CRCs equal on disk"
        (Ftindex.Store.manifest_crc ~dir:pdir)
        (Ftindex.Store.manifest_crc ~dir:fdir))

(* ------------------------------------------------------------------ *)
(* 6. convergence chaos                                                *)

let test_convergence_chaos () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let pdir = Filename.concat dir "primary" in
      save_corpus ~dir:pdir corpus;
      let psock = fresh_name "rcp" ^ ".sock" in
      let pcfg = daemon_config ~dir:pdir ~sock:psock () in
      let primary = ref (Server.start pcfg) in
      let followers =
        List.init 2 (fun i ->
            let fdir = Filename.concat dir (Printf.sprintf "follower%d" i) in
            let fsock = fresh_name (Printf.sprintf "rcf%d" i) ^ ".sock" in
            (fsock, Server.start (daemon_config ~follow:psock ~dir:fdir ~sock:fsock ())))
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun (_, t) -> Server.stop t) followers;
          Server.stop !primary)
        (fun () ->
          (* stream updates; transport errors while the primary is down
             are expected — only acknowledged batches count *)
          let acked = Atomic.make 0 in
          let updater =
            Thread.create
              (fun () ->
                for i = 0 to 19 do
                  (match
                     Client.request ~recv_timeout:2.0 ~socket_path:psock
                       (Protocol.Update { ops = [ add_doc i ]; epoch = 0 })
                   with
                  | Ok (Protocol.Update_reply _) -> Atomic.incr acked
                  | Ok _ | Error _ -> ());
                  Thread.delay 0.01
                done)
              ()
          in
          (* kill -9 equivalent mid-stream: drop the daemon, restart it
             over the same directory — recovery replays the log *)
          Thread.delay 0.08;
          Server.stop !primary;
          Thread.delay 0.05;
          primary := Server.start pcfg;
          Thread.join updater;
          Alcotest.(check bool) "some updates were acknowledged" true
            (Atomic.get acked > 0);
          (* a compaction mid-life forces the snapshot re-sync path too *)
          (match Client.request ~socket_path:psock (Protocol.Compact { epoch = 0 }) with
          | Ok (Protocol.Compact_reply _) -> ()
          | _ -> Alcotest.fail "compact failed");
          List.iter
            (fun (fsock, _) ->
              poll ~tries:500 "chaos convergence" (fun () ->
                  converged psock fsock);
              check_same_answers ~what:"chaos" psock fsock)
            followers;
          (* both followers landed on the same bits *)
          match followers with
          | [ (f0, _); (f1, _) ] ->
              Alcotest.(check bool) "followers bit-identical" true
                (converged f0 f1)
          | _ -> assert false))

(* ------------------------------------------------------------------ *)
(* 7. failover: promotion, fencing, demotion                           *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_promote_over_wire () =
  with_pair () (fun ~pdir:_ ~fdir:_ ~psock ~fsock ->
      poll "bootstrap" (fun () -> converged psock fsock);
      (* the follower becomes primary on a strictly newer timeline *)
      let h = ok "promote" (Client.promote ~socket_path:fsock ~epoch:0 ()) in
      Alcotest.(check string) "flipped to primary" "primary" h.Protocol.h_role;
      Alcotest.(check int) "epoch advanced" 2 h.Protocol.h_epoch;
      (* writes stamped with the new epoch land on the new primary *)
      (match
         Client.request ~socket_path:fsock
           (Protocol.Update { ops = [ add_doc 0 ]; epoch = h.Protocol.h_epoch })
       with
      | Ok (Protocol.Update_reply u) ->
          Alcotest.(check int) "write carries new epoch" 2 u.Protocol.u_epoch
      | _ -> Alcotest.fail "new primary refused a fenced write");
      (* a writer still living on the old timeline is fenced off *)
      (match
         Client.request ~socket_path:fsock
           (Protocol.Update { ops = [ add_doc 1 ]; epoch = 1 })
       with
      | Ok (Protocol.Failure e) ->
          Alcotest.(check string) "stale write fenced" "gtlx:GTLX0013"
            e.Protocol.code
      | _ -> Alcotest.fail "stale-epoch write was not fenced");
      (* demotion must flow from a strictly newer timeline: the old
         primary shrugs off a demotion at its own epoch ... *)
      (match Client.demote ~socket_path:psock ~epoch:1 ~primary:fsock () with
      | Error reason ->
          Alcotest.(check bool) "stale demotion refused with GTLX0013" true
            (contains reason "GTLX0013")
      | Ok _ -> Alcotest.fail "accepted a demotion at its own epoch");
      (* ... and steps down for the epoch-2 one, re-syncing from it *)
      let d =
        ok "demote" (Client.demote ~socket_path:psock ~epoch:2 ~primary:fsock ())
      in
      Alcotest.(check string) "old primary now replica" "replica"
        d.Protocol.h_role;
      poll "old primary catches up on the new timeline" (fun () ->
          converged fsock psock);
      poll "old primary adopts the new epoch" (fun () ->
          (health psock).Protocol.h_epoch = 2);
      check_same_answers ~what:"after failover" fsock psock;
      Alcotest.(check bool) "promotion counted" true
        (stat fsock "promotions" >= 1);
      Alcotest.(check bool) "demotion counted" true (stat psock "demotions" >= 1))

(* A sync step the follower's ticker chose before a promotion, run after
   it: the re-sync and the catch-up must leave the promoted node alone —
   still primary, still at epoch 2, keeping the write it took on the new
   timeline — instead of installing the old primary's state (the step
   used to reset the epoch to 1 on a node reporting itself primary). *)
let test_sync_step_after_promote () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let pdir = Filename.concat dir "primary" in
      let fdir = Filename.concat dir "follower" in
      save_corpus ~dir:pdir corpus;
      let psock = fresh_name "rp" ^ ".sock" in
      let fsock = fresh_name "rf" ^ ".sock" in
      let primary = Server.start (daemon_config ~dir:pdir ~sock:psock ()) in
      Fun.protect
        ~finally:(fun () -> Server.stop primary)
        (fun () ->
          let follower =
            Server.start (daemon_config ~follow:psock ~dir:fdir ~sock:fsock ())
          in
          Fun.protect
            ~finally:(fun () -> Server.stop follower)
            (fun () ->
              ignore (update psock [ add_doc 0 ]);
              poll "follower caught up" (fun () -> converged psock fsock);
              let h =
                ok "promote" (Client.promote ~socket_path:fsock ~epoch:0 ())
              in
              Alcotest.(check int) "promoted to epoch 2" 2 h.Protocol.h_epoch;
              (match
                 Client.request ~socket_path:fsock
                   (Protocol.Update { ops = [ add_doc 1 ]; epoch = 2 })
               with
              | Ok (Protocol.Update_reply _) -> ()
              | _ -> Alcotest.fail "promoted node refused a write");
              (* the old primary moves on too, so a catch-up has records *)
              ignore (update psock [ add_doc 2 ]);
              Server.snapshot_resync follower ~primary:psock
                ~reason:"decided before the promotion";
              Server.catch_up_wal follower ~primary:psock;
              let h = health fsock in
              Alcotest.(check string)
                "still primary" "primary" h.Protocol.h_role;
              Alcotest.(check int) "still epoch 2" 2 h.Protocol.h_epoch;
              Alcotest.(check (list string))
                "the new timeline's write is kept"
                [ string_of_int (List.length corpus + 2) ]
                (query fsock count_query).Protocol.items)))

(* The tentpole interleaving: primary + two followers under a fenced
   concurrent writer (stamps every update with the highest epoch it has
   observed, exactly like the router).  Kill the primary, promote the
   caught-up follower, restart the old primary on its stale timeline,
   fence it, demote it.  Acceptance: writes were acknowledged on both
   timelines but the timelines never diverged — every acknowledged write
   is present, bit-identically, on all three nodes at the end. *)
let test_failover_fencing_chaos () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let pdir = Filename.concat dir "primary" in
      save_corpus ~dir:pdir corpus;
      let psock = fresh_name "fcp" ^ ".sock" in
      let pcfg = daemon_config ~dir:pdir ~sock:psock () in
      let primary = ref (Server.start pcfg) in
      let mk_follower i =
        let fdir = Filename.concat dir (Printf.sprintf "follower%d" i) in
        let fsock = fresh_name (Printf.sprintf "fcf%d" i) ^ ".sock" in
        (fsock, Server.start (daemon_config ~follow:psock ~dir:fdir ~sock:fsock ()))
      in
      let f1sock, f1 = mk_follower 1 in
      let f2sock, f2 = mk_follower 2 in
      Fun.protect
        ~finally:(fun () ->
          Server.stop f1;
          Server.stop f2;
          Server.stop !primary)
        (fun () ->
          poll "bootstrap" (fun () ->
              converged psock f1sock && converged psock f2sock);
          let target = Atomic.make psock in
          let epoch_seen = Atomic.make 1 in
          let acked = Atomic.make [] in
          let paused = Atomic.make false in
          let stop = Atomic.make false in
          let updater =
            Thread.create
              (fun () ->
                let i = ref 0 in
                while not (Atomic.get stop) do
                  if Atomic.get paused then Thread.delay 0.01
                  else begin
                    (match
                       Client.request ~recv_timeout:5.0
                         ~socket_path:(Atomic.get target)
                         (Protocol.Update
                            {
                              ops = [ add_doc !i ];
                              epoch = Atomic.get epoch_seen;
                            })
                     with
                    | Ok (Protocol.Update_reply u) ->
                        Atomic.set acked
                          ((!i, u.Protocol.u_epoch) :: Atomic.get acked)
                    | Ok (Protocol.Failure e)
                      when e.Protocol.code = "gtlx:GTLX0013" ->
                        (* fenced: re-learn the epoch before retrying *)
                        (match
                           Client.health ~recv_timeout:5.0
                             ~socket_path:(Atomic.get target) ()
                         with
                        | Ok h ->
                            Atomic.set epoch_seen
                              (max (Atomic.get epoch_seen) h.Protocol.h_epoch)
                        | Error _ -> ())
                    | Ok _ | Error _ -> ());
                    incr i;
                    Thread.delay 0.005
                  end
                done)
              ()
          in
          let acked_at e =
            List.length (List.filter (fun (_, e') -> e' = e) (Atomic.get acked))
          in
          (* phase 1: writes flow on the original timeline *)
          poll "epoch-1 writes acknowledged" (fun () -> acked_at 1 >= 3);
          (* quiesce, let the failover candidate catch up fully, then
             kill -9 the primary: no in-flight write at the kill *)
          Atomic.set paused true;
          Thread.delay 0.05;
          poll "candidate caught up" (fun () -> converged psock f1sock);
          Server.stop !primary;
          (* promote past everything the writer has observed *)
          let h =
            ok "promote"
              (Client.promote ~socket_path:f1sock
                 ~epoch:(Atomic.get epoch_seen) ())
          in
          Alcotest.(check string) "new primary" "primary" h.Protocol.h_role;
          Alcotest.(check int) "new timeline" 2 h.Protocol.h_epoch;
          Atomic.set epoch_seen h.Protocol.h_epoch;
          Atomic.set target f1sock;
          Atomic.set paused false;
          (* phase 2: writes flow on the new timeline *)
          poll "epoch-2 writes acknowledged" (fun () -> acked_at 2 >= 3);
          (* the old primary comes back on its stale timeline *)
          primary := Server.start pcfg;
          (* a router-stamped (epoch-2) write against it is fenced, never
             acknowledged: no write lands on two divergent timelines *)
          (match
             Client.request ~socket_path:psock
               (Protocol.Update { ops = [ add_doc 999_999 ]; epoch = 2 })
           with
          | Ok (Protocol.Failure e) ->
              Alcotest.(check string) "restarted old primary is fenced"
                "gtlx:GTLX0013" e.Protocol.code
          | _ -> Alcotest.fail "stale restarted primary accepted a write");
          (* demote the straggler and re-point the second follower *)
          ignore
            (ok "demote old primary"
               (Client.demote ~socket_path:psock ~epoch:2 ~primary:f1sock ()));
          ignore
            (ok "re-point follower2"
               (Client.demote ~socket_path:f2sock ~epoch:2 ~primary:f1sock ()));
          Atomic.set stop true;
          Thread.join updater;
          (* convergence: all three nodes land on the new primary's bits *)
          poll ~tries:500 "old primary converges" (fun () ->
              converged f1sock psock);
          poll ~tries:500 "follower2 converges" (fun () ->
              converged f1sock f2sock);
          check_same_answers ~what:"failover chaos (old primary)" f1sock psock;
          check_same_answers ~what:"failover chaos (follower2)" f1sock f2sock;
          (* both timelines acknowledged writes, and none was lost: the
             final corpus is exactly the seed plus every acknowledged
             update — the fenced write left no trace *)
          let acked = Atomic.get acked in
          let epochs = List.sort_uniq compare (List.map snd acked) in
          Alcotest.(check (list int))
            "writes acknowledged on both timelines, never a third" [ 1; 2 ]
            epochs;
          let distinct = List.sort_uniq compare (List.map fst acked) in
          Alcotest.(check (list string))
            "every acknowledged write survived the failover"
            [ string_of_int (List.length corpus + List.length distinct) ]
            (query f1sock count_query).Protocol.items;
          Alcotest.(check bool) "old primary adopted the new epoch" true
            ((health psock).Protocol.h_epoch = 2)))

let tests =
  [
    Alcotest.test_case "fetch wal over the wire" `Quick test_fetch_wal_over_wire;
    Alcotest.test_case "fetch snapshot over the wire" `Quick
      test_fetch_snapshot_over_wire;
    Alcotest.test_case "follower bootstrap and catch-up" `Quick
      test_follower_bootstrap_and_catch_up;
    Alcotest.test_case "follower rejects writes" `Quick
      test_follower_rejects_writes;
    Alcotest.test_case "compaction triggers re-sync" `Quick
      test_compaction_triggers_resync;
    Alcotest.test_case "anti-entropy repairs divergence" `Quick
      test_anti_entropy_repairs_divergence;
    Alcotest.test_case "convergence chaos" `Quick test_convergence_chaos;
    Alcotest.test_case "promote over the wire" `Quick test_promote_over_wire;
    Alcotest.test_case "sync step after promote" `Quick
      test_sync_step_after_promote;
    Alcotest.test_case "failover and fencing chaos" `Quick
      test_failover_fencing_chaos;
  ]
