(* Golden bytes: the on-disk and on-wire formats, pinned.

   Round-trip tests cannot see a format change that both sides make
   together: an encoder and decoder that drift in step still agree with
   each other, yet no longer read a snapshot, a WAL or a frame written by
   an older build.  These tests pin the MD5 of five encodings of fixed
   inputs instead:

   - one request of every variant ({!Protocol.encode_request});
   - one response of every variant ({!Protocol.encode_response});
   - three shipped WAL records ({!Wal.encode_records});
   - the WAL file after opening a writer and appending twice;
   - every file {!Store.save} writes for the Figure 1 document.

   A digest that changes means existing files or peers no longer
   interoperate: bump the format version instead of the digest.  The
   Figure 1 snapshots of format versions 1 and 2 are committed under
   [fixtures/fig1-v1] and [fixtures/fig1-v2] and must still load, and the
   first request as older builds encoded it, with the retired optimize
   flag set, must still decode and be served. *)

open Ftindex
module P = Galatex_server.Protocol

(* length-prefix each part, so moving a byte across a boundary shows *)
let digest parts =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun s -> Printf.sprintf "%d:%s" (String.length s) s) parts)))

let limits =
  { Xquery.Limits.max_steps = Some 1000; max_depth = Some 64;
    max_matches = Some 5000; timeout = Some 2.5 }

let first_query = "for $b in //book[. ftcontains \"usability\"] return $b"

let requests =
  [
    P.Query
      (P.query_request ~strategy:Galatex.Engine.Native_pipelined
         ~fallback:false ~context:"fig1.xml" ~limits ~fault_at:17
         ~deadline_left:0.75 ~merge:(P.Merge_topk 10) first_query);
    P.Query (P.query_request "count(//p)");
    P.Stats;
    P.Update
      {
        ops =
          [ Wal.Add_doc { uri = "a.xml"; source = "<a>x y</a>" };
            Wal.Remove_doc "b.xml" ];
        epoch = 3;
      };
    P.Compact { epoch = 2 };
    P.Metrics;
    P.Slowlog;
    P.Health;
    P.Reload;
    P.Fetch_wal { from_seq = 41; epoch = 5 };
    P.Fetch_snapshot { file = None };
    P.Fetch_snapshot { file = Some "post-2-0000.seg" };
    P.Promote { p_epoch = 7 };
    P.Demote { d_epoch = 8; d_primary = "pri.sock" };
  ]

let responses =
  [
    P.Value
      {
        items = [ "<b>1</b>"; "0.3125" ];
        strategy_used = "pipelined+O";
        fell_back = true;
        steps = 1234;
        generation = 2;
        seq = 9;
        partial = Some { missing = [ 1; 3 ]; detail = "shard 1: down; shard 3: down" };
      };
    P.Failure
      {
        code = "gtlx:GTLX0009";
        error_class = "resource";
        message = "server overloaded";
        retry_after_ms = Some 50;
        queue_depth = Some 4;
      };
    P.Stats_reply
      {
        counters = [ ("queries", 12); ("served", 11) ];
        breakers =
          [ { b_strategy = "pipelined"; b_state = "half-open";
              b_consecutive = 2; b_cooldown = 3; b_trips = 1 } ];
      };
    P.Update_reply
      { u_generation = 2; u_last_seq = 5; u_records = 5; u_bytes = 4096;
        u_epoch = 3 };
    P.Compact_reply { c_generation = 3; c_folded = 5 };
    P.Metrics_reply "# TYPE galatex_queries_total counter\ngalatex_queries_total 12\n";
    P.Slowlog_reply
      [ { s_query = "count(//p)"; s_strategy = "materialized";
          s_duration_ms = 12.5; s_unix_time = 1700000000.25; s_steps = 77 } ];
    P.Health_reply
      {
        h_generation = 4;
        h_wal_records = 6;
        h_draining = false;
        h_seq = 6;
        h_manifest_crc = 0xDEADBEEF;
        h_epoch = 2;
        h_role = "router";
        h_endpoints =
          [ { e_path = "s0.sock"; e_shard = 0; e_role = "primary";
              e_state = "closed"; e_up = true; e_generation = 4; e_seq = 6;
              e_epoch = 2; e_lag = Some 0 };
            { e_path = "s1.sock"; e_shard = 1; e_role = "replica";
              e_state = "open"; e_up = false; e_generation = 0; e_seq = 0;
              e_epoch = 0; e_lag = None } ];
      };
    P.Wal_reply
      { w_generation = 4; w_last_seq = 6; w_epoch = 2; w_frames = "\x00\x01frames" };
    P.Snapshot_reply
      { sn_generation = 4; sn_manifest_crc = 0x12345678;
        sn_files = [ "MANIFEST"; "doc-4-0000.seg" ]; sn_data = Some "bytes" };
    P.Snapshot_reply
      { sn_generation = 4; sn_manifest_crc = 1; sn_files = []; sn_data = None };
  ]

(* The first request as builds with the optimize flag encoded it: the
   byte after the strategy tag (02, pipelined) is that flag, set to 01. *)
let optimize_frame =
  "5134000000666f7220246220696e202f2f626f6f6b5b2e206674636f6e7461696e73\
   202275736162696c697479225d2072657475726e2024620201000108000000666967\
   312e786d6c01e803000001400000000188130000010000000000000440011100000001\
   000000000000e83f01020a000000"

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_optimize_frame_decodes () =
  let old = of_hex optimize_frame in
  let current = P.encode_request (List.hd requests) in
  (match P.decode_request old with
  | Ok req ->
      Alcotest.(check bool) "decodes to the first request" true
        (req = List.hd requests)
  | Error reason -> Alcotest.failf "old frame refused: %s" reason);
  (* this build writes the flag as 0 and changes no other byte; the flag
     follows the tag, the query (u32 length, bytes) and the strategy *)
  let flag = 1 + 4 + String.length first_query + 1 in
  Alcotest.(check int) "same length" (String.length old) (String.length current);
  Alcotest.(check (list (pair int (pair char char))))
    "only the flag differs"
    [ (flag, ('\001', '\000')) ]
    (List.filter_map
       (fun i ->
         if old.[i] <> current.[i] then Some (i, (old.[i], current.[i]))
         else None)
       (List.init (String.length old) Fun.id))

(* A daemon answers the old frame exactly as it answers the same request
   without the flag. *)
let test_optimize_frame_served () =
  Test_store.with_dir (fun dir ->
      Store.save ~dir (Corpus.Fig1.index ());
      let socket_path = dir ^ ".sock" in
      let server =
        Galatex_server.Server.start
          (Galatex_server.Server.default_config ~index_dir:dir ~socket_path)
      in
      Fun.protect
        ~finally:(fun () -> Galatex_server.Server.stop server)
        (fun () ->
          let ask payload =
            let fd = Galatex_server.Netio.connect socket_path in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Galatex_server.Netio.write_frame fd payload;
                match Galatex_server.Netio.read_frame fd with
                | Ok reply -> P.decode_response reply
                | Error reason -> Alcotest.failf "no reply: %s" reason)
          in
          let old = ask (of_hex optimize_frame) in
          let plain = ask (P.encode_request (List.hd requests)) in
          (match old with
          | Ok (P.Value { items = [ _ ]; _ }) -> ()
          | _ -> Alcotest.fail "the old frame is not answered with one book");
          Alcotest.(check bool) "the plain answer" true (old = plain)))

let wal_ops =
  [
    Wal.Add_doc { uri = "c.xml"; source = "<book><p>zebra usability</p></book>" };
    Wal.Remove_doc "b.xml";
    Wal.Add_doc { uri = "a.xml"; source = "" };
  ]

let records = List.mapi (fun i op -> { Wal.seq = i + 1; op }) wal_ops

let dir_files dir =
  let names = List.sort compare (Array.to_list (Sys.readdir dir)) in
  List.concat_map
    (fun name ->
      [ name; In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all ])
    names

let pinned name expected encode =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) (name ^ " bytes unchanged") expected
        (digest (encode ())))

let wal_file () =
  Test_store.with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let w = Wal.open_writer ~dir ~generation:1 ~epoch:1 () in
      ignore (Wal.append w (List.nth wal_ops 0));
      ignore (Wal.append w (List.nth wal_ops 1));
      dir_files dir)

let snapshot_files () =
  Test_store.with_dir (fun dir ->
      Store.save ~dir (Corpus.Fig1.index ());
      dir_files dir)

(* Snapshots older builds wrote for the Figure 1 document, one directory
   per format version.  Version 1 has a posting segment beside the
   document segment; version 2 stores the document's token stream in its
   segment.  Each fixture still hashes to the digest it was pinned at,
   loads clean into the index a fresh build gives, and lists every file
   for a replica to copy, version 1's unread posting segment included. *)
type fixture = { version : int; fixture_digest : string; files : string list }

let fixtures =
  [
    { version = 1; fixture_digest = "b62c0a236adf046a2b01ea21a197bf91";
      files = [ "MANIFEST"; "doc-1-0000.seg"; "post-1-0000.seg" ] };
    { version = 2; fixture_digest = "6c1459a3ad85433c8bf234400123ccfd";
      files = [ "MANIFEST"; "doc-1-0000.seg" ] };
  ]

let fixture_dir f = Printf.sprintf "fixtures/fig1-v%d" f.version

let test_fixture f () =
  let dir = fixture_dir f in
  Alcotest.(check string) "fixture bytes" f.fixture_digest (digest (dir_files dir));
  let l = Store.load ~dir () in
  Alcotest.(check bool) "loads clean" true (Store.clean l.Store.report);
  Test_store.check_same "same index as a fresh build" (Corpus.Fig1.index ())
    l.Store.index;
  Alcotest.(check (option (pair int (list string))))
    "snapshot files" (Some (1, f.files)) (Store.snapshot_files ~dir)

(* An old directory keeps working under this build's writes: an epoch
   bump rewrites its manifest in the current version over the old
   document segment, and the next save leaves only current files. *)
let test_directory_rewritten f () =
  Test_store.with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let rec copy = function
        | name :: data :: rest ->
            Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
                Out_channel.output_string oc data);
            copy rest
        | _ -> ()
      in
      copy (dir_files (fixture_dir f));
      let fresh = Corpus.Fig1.index () in
      Store.bump_epoch ~dir ~epoch:2 ();
      let l = Store.load ~dir () in
      Alcotest.(check bool) "restamped loads clean" true (Store.clean l.Store.report);
      Alcotest.(check int) "epoch" 2 l.Store.epoch;
      Test_store.check_same "restamped index" fresh l.Store.index;
      Store.save ~dir l.Store.index;
      Alcotest.(check (list string))
        "resaved directory" [ "MANIFEST"; "doc-2-0000.seg" ]
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      Test_store.check_same "resaved index" fresh (Store.load ~dir ()).Store.index)

let tests =
  [
    pinned "protocol requests" "2cb09b887a67732362b9305c6c0be267" (fun () ->
        List.map P.encode_request requests);
    Alcotest.test_case "optimize-flag request decodes" `Quick
      test_optimize_frame_decodes;
    Alcotest.test_case "optimize-flag request served plain" `Quick
      test_optimize_frame_served;
    pinned "protocol responses" "b1bcecaa7265adf0100d9ea3168ce76b" (fun () ->
        List.map P.encode_response responses);
    pinned "shipped WAL records" "92fc8f86b27450f9d2bcee61abe9541f" (fun () ->
        [ Wal.encode_records records ]);
    pinned "WAL file" "df5b9f433fd190710ee84fcb584b004e" wal_file;
    pinned "snapshot files" "9564eafa1d10eb8bed934566eb8cc321" snapshot_files;
  ]
  @ List.concat_map
      (fun f ->
        [
          Alcotest.test_case
            (Printf.sprintf "version-%d snapshot fixture" f.version)
            `Quick (test_fixture f);
          Alcotest.test_case
            (Printf.sprintf "version-%d directory rewritten" f.version)
            `Quick (test_directory_rewritten f);
        ])
      fixtures
