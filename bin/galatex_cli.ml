(* The GalaTex command-line interface (the paper ships a command-line
   interface next to the browser demo):

     galatex query   -d a.xml -d b.xml 'QUERY'   run an XQuery Full-Text query
     galatex translate 'QUERY'                   show the translated XQuery
     galatex index   -d a.xml ...                dump inverted-list documents
     galatex tokens  -d a.xml                    show TokenInfo values
     galatex serve   --index DIR --socket PATH   run the query daemon
     galatex route   --shard SOCK --socket PATH  run the cluster router
     galatex query   --server PATH 'QUERY'       query a running daemon
     galatex stats   --server PATH               daemon counters / breakers
     galatex stats   --server PATH --health      liveness / generation probe
     galatex promote SOCKET                      fail over: make a follower primary
     galatex update  --server PATH --add FILE    live index updates (WAL)
     galatex update  --index DIR --compact       offline updates / compaction
     galatex demo                                run the use-case catalogue *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_documents paths =
  List.map
    (fun path ->
      let uri = Filename.basename path in
      (uri, Xmlkit.Parser.parse_document ~uri (read_file path)))
    paths

(* deliberately [string], not [Arg.file]: a missing file must reach the
   structured error handler (err:FODC0002, exit 2), not cmdliner's own
   usage error *)
let docs_arg =
  Arg.(
    value & opt_all string []
    & info [ "d"; "document" ] ~docv:"FILE" ~doc:"XML document to index (repeatable).")

let strategy_arg =
  let strategies =
    [
      ("translated", Galatex.Engine.Translated);
      ("materialized", Galatex.Engine.Native_materialized);
      ("pipelined", Galatex.Engine.Native_pipelined);
    ]
  in
  Arg.(
    value
    & opt (enum strategies) Galatex.Engine.Native_materialized
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Evaluation strategy: $(b,translated) (the paper's all-XQuery path),
           $(b,materialized) or $(b,pipelined).")

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"The query text.")

let context_arg =
  Arg.(
    value & opt (some string) None
    & info [ "c"; "context" ] ~docv:"URI"
        ~doc:"Document supplying the initial context node (default: first).")

let pretty_arg =
  Arg.(value & flag & info [ "p"; "pretty" ] ~doc:"Pretty-print XML results.")

(* --- resource-limit flags (the governor, Limits.t) --- *)

let max_steps_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Abort with a resource error after $(docv) evaluation steps.")

let max_depth_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-depth" ] ~docv:"N"
        ~doc:"Maximum user-function recursion depth (default 10000).")

let max_matches_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-matches" ] ~docv:"N"
        ~doc:
          "Maximum materialized AllMatches / FLWOR tuple / sequence size
           before a resource error.")

let timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget for the whole evaluation.")

let no_fallback_arg =
  Arg.(
    value & flag
    & info [ "no-fallback" ]
        ~doc:
          "Disable graceful degradation: surface internal errors of
           optimized strategies instead of retrying on the reference
           materialized path.")

let limits_of ~max_steps ~max_depth ~max_matches ~timeout : Xquery.Limits.t =
  {
    Xquery.Limits.max_steps;
    max_depth =
      (match max_depth with
      | Some _ -> max_depth
      | None -> Xquery.Limits.defaults.Xquery.Limits.max_depth);
    max_matches;
    timeout;
  }

(* Engine construction runs *inside* handle_errors: a missing --document
   file (Sys_error -> err:FODC0002, dynamic, exit 2) or malformed XML
   (err:XPST0003, static, exit 1) surfaces as a structured error, never a
   raw exception. *)
let engine_of docs = Galatex.Engine.create (load_documents docs)

(* One structured handler for every error class, with a distinct exit code
   per class:

     1  static (parse / lex: err:XPST codes)
     2  dynamic (err:XPDY, err:FO.., err:FT.. codes)
     3  type (err:XPTY, err:FOTY codes)
     4  resource limit (gtlx:GTLX0001..GTLX0004)
     5  internal (gtlx:GTLX0005)

   cmdliner keeps 123..125 for its own purposes, so these never clash. *)
let exit_code_of_class = function
  | Xquery.Errors.Static -> 1
  | Xquery.Errors.Dynamic -> 2
  | Xquery.Errors.Type_error -> 3
  | Xquery.Errors.Resource -> 4
  | Xquery.Errors.Internal -> 5

let handle_errors f =
  try f () with
  | Xquery.Errors.Error e ->
      let cls = Xquery.Errors.class_of e.Xquery.Errors.code in
      Printf.eprintf "%s error %s\n"
        (Xquery.Errors.class_string cls)
        (Xquery.Errors.to_string e);
      exit (exit_code_of_class cls)
  | exn -> (
      (* anything raised outside the engine boundary (document loading,
         printing): classify it the same way rather than crash *)
      let e = Xquery.Errors.wrap_exn exn in
      let cls = Xquery.Errors.class_of e.Xquery.Errors.code in
      match cls with
      | Xquery.Errors.Internal -> raise exn (* genuine bug: keep backtrace *)
      | _ ->
          Printf.eprintf "%s error %s\n"
            (Xquery.Errors.class_string cls)
            (Xquery.Errors.to_string e);
          exit (exit_code_of_class cls))

(* --- query --- *)

let index_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "index" ] ~docv:"DIR"
        ~doc:
          "Load the index from a snapshot directory written by $(b,galatex
           index --output) instead of indexing $(b,--document) files.  Any
           $(b,--document) files given alongside serve as salvage sources
           (keyed by basename) for damaged document segments.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print an evaluation report (strategy used, steps, materialization
           peak, engine degradation counter, snapshot salvage) to stderr.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:"Suppress the one-line snapshot-salvage warning on stderr.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the evaluation's span tree (parse, translate, eval,
           per-ftcontains dispatch) to stderr.  Local evaluation only.")

let trace_json_arg =
  Arg.(
    value & flag
    & info [ "trace-json" ]
        ~doc:
          "Print the span tree and the run's engine counters as one JSON
           object on stdout $(i,instead of) the result items.  Local
           evaluation only.")

(* the machine-readable twin of --trace: one JSON object carrying the span
   tree plus the run's counters, for scripts and the CI smoke *)
let report_json (report : Galatex.Engine.report) =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"strategy\":\"";
  Buffer.add_string b
    (Galatex.Engine.strategy_name report.Galatex.Engine.strategy_used);
  Printf.bprintf b "\",\"fell_back\":%b,\"steps\":%d,\"counters\":{"
    report.Galatex.Engine.fell_back report.Galatex.Engine.steps;
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":%d" k v)
    (Xquery.Limits.counters_to_list report.Galatex.Engine.counters);
  Buffer.add_string b "},\"trace\":";
  Buffer.add_string b (Obs.Trace.to_json report.Galatex.Engine.trace);
  Buffer.add_char b '}';
  Buffer.contents b

(* One greppable line for operators watching stderr; the full report stays
   available under --report.  --quiet silences it. *)
let print_salvage_report ~quiet engine =
  match Galatex.Engine.salvage_report engine with
  | Some r when (not (Ftindex.Store.clean r)) && not quiet ->
      let s = Ftindex.Store.report_to_string r in
      let line =
        match String.index_opt s '\n' with
        | Some i -> String.sub s 0 i
        | None -> s
      in
      Printf.eprintf "warning: %s\n" line
  | _ -> ()

let server_arg =
  Arg.(
    value & opt (some string) None
    & info [ "server" ] ~docv:"SOCKET"
        ~doc:
          "Send the query to a running $(b,galatex serve) daemon over its
           Unix-domain socket instead of evaluating locally.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "With $(b,--server): retry up to $(docv) times with jittered
           exponential backoff when the daemon sheds the request
           (gtlx:GTLX0009) or the connection fails.")

(* merge policy as a converter so "topk:10" parses at the flag layer *)
let merge_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "auto" -> Ok None
    | "concat" -> Ok (Some Galatex_server.Protocol.Merge_concat)
    | "sum" -> Ok (Some Galatex_server.Protocol.Merge_sum)
    | s when String.length s > 5 && String.sub s 0 5 = "topk:" -> (
        match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
        | Some k when k > 0 -> Ok (Some (Galatex_server.Protocol.Merge_topk k))
        | Some _ | None -> Error (`Msg "topk wants a positive count, e.g. topk:10"))
    | _ -> Error (`Msg "expected auto, concat, sum or topk:K")
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "auto"
    | Some Galatex_server.Protocol.Merge_concat -> Format.pp_print_string ppf "concat"
    | Some Galatex_server.Protocol.Merge_sum -> Format.pp_print_string ppf "sum"
    | Some (Galatex_server.Protocol.Merge_topk k) -> Format.fprintf ppf "topk:%d" k
  in
  Arg.conv (parse, print)

let merge_arg =
  Arg.(
    value & opt merge_conv None
    & info [ "merge" ] ~docv:"POLICY"
        ~doc:
          "With $(b,--server) pointing at a $(b,galatex route) router: how
           per-shard answers merge — $(b,auto) (counts/sums are summed,
           everything else concatenates in partition order), $(b,concat),
           $(b,sum), or $(b,topk:K) (k-way merge of score-tagged items by
           descending score).  A single daemon ignores it.")

(* A transport-level failure to reach (or finish an exchange with) the
   daemon.  A blown I/O deadline keeps its structured resource identity —
   gtlx:GTLX0014, the resource exit code — so scripts can tell "the peer
   is slow or stalled" from "the peer is gone" (FODC0002, exit 2). *)
let transport_error server reason =
  if String.starts_with ~prefix:"gtlx:GTLX0014" reason then begin
    Printf.eprintf "resource error %s (server %s)\n" reason server;
    exit
      (Galatex_server.Protocol.exit_code_of_class
         (Xquery.Errors.class_string Xquery.Errors.Resource))
  end
  else begin
    Printf.eprintf "dynamic error err:FODC0002 cannot reach server at %s: %s\n"
      server reason;
    exit 2
  end

(* The daemon's answer carries the error class as a string; map it to the
   same exit codes the local path uses (static 1 .. internal 5). *)
let run_remote_query ~server ~retries ~strategy ~context ~limits ~no_fallback
    ~show_report ~merge query =
  let q =
    Galatex_server.Protocol.query_request ~strategy ~fallback:(not no_fallback)
      ?context ~limits ?merge query
  in
  (* a --timeout budget bounds the whole retry loop, and each attempt
     advertises what is left of it over the wire *)
  let deadline =
    Option.map
      (fun tmo -> Unix.gettimeofday () +. tmo)
      limits.Xquery.Limits.timeout
  in
  match Galatex_server.Client.query ~socket_path:server ~retries ?deadline q with
  | Ok (Galatex_server.Protocol.Value v) ->
      (match v.Galatex_server.Protocol.partial with
      | Some p ->
          Printf.eprintf
            "warning: partial result (gtlx:GTLX0011): missing partition(s) %s \
             — %s\n"
            (String.concat ", "
               (List.map string_of_int p.Galatex_server.Protocol.missing))
            p.Galatex_server.Protocol.detail
      | None -> ());
      if v.Galatex_server.Protocol.fell_back then
        Printf.eprintf
          "note: %s strategy failed internally on the server; %s\n"
          (Galatex.Engine.strategy_name strategy)
          "answered by the materialized fallback";
      if show_report then
        Printf.eprintf "report: strategy=%s steps=%d generation=%d\n"
          v.Galatex_server.Protocol.strategy_used
          v.Galatex_server.Protocol.steps
          v.Galatex_server.Protocol.generation;
      List.iter print_endline v.Galatex_server.Protocol.items;
      `Ok ()
  | Ok (Galatex_server.Protocol.Failure e) ->
      Printf.eprintf "%s error %s: %s\n" e.Galatex_server.Protocol.error_class
        e.Galatex_server.Protocol.code e.Galatex_server.Protocol.message;
      exit
        (Galatex_server.Protocol.exit_code_of_class
           e.Galatex_server.Protocol.error_class)
  | Ok _ ->
      Printf.eprintf "internal error: unexpected response to query\n";
      exit 5
  | Error reason -> transport_error server reason

let run_query docs index_dir server retries merge strategy context pretty
    max_steps max_depth max_matches timeout no_fallback show_report quiet
    trace trace_json query =
  let limits = limits_of ~max_steps ~max_depth ~max_matches ~timeout in
  match server with
  | Some _ when trace || trace_json ->
      `Error
        (false, "--trace/--trace-json require local evaluation, not --server")
  | Some server ->
      run_remote_query ~server ~retries ~strategy ~context ~limits ~no_fallback
        ~show_report ~merge query
  | None ->
  if docs = [] && index_dir = None then
    `Error
      (false, "at least one --document (or --index DIR, or --server) is required")
  else
    handle_errors (fun () ->
        let engine =
          match index_dir with
          | Some dir ->
              let sources =
                List.map (fun p -> (Filename.basename p, read_file p)) docs
              in
              Galatex.Engine.of_store ~limits ~sources ~dir ()
          | None -> engine_of docs
        in
        print_salvage_report ~quiet engine;
        let report =
          Galatex.Engine.run_report engine ~strategy ~limits
            ~fallback:(not no_fallback) ?context query
        in
        if report.Galatex.Engine.fell_back then
          Printf.eprintf "note: %s strategy failed internally (%s); %s\n"
            (Galatex.Engine.strategy_name strategy)
            (match report.Galatex.Engine.fallback_error with
            | Some e -> Xquery.Errors.to_string e
            | None -> "unknown error")
            "answered by the materialized fallback";
        if show_report then begin
          Printf.eprintf
            "report: strategy=%s steps=%d peak-matches=%d fallbacks-total=%d\n"
            (Galatex.Engine.strategy_name report.Galatex.Engine.strategy_used)
            report.Galatex.Engine.steps report.Galatex.Engine.peak_matches
            report.Galatex.Engine.fallbacks_total;
          match Galatex.Engine.salvage_report engine with
          | Some r ->
              Printf.eprintf "storage: %s\n" (Ftindex.Store.report_to_string r)
          | None -> Printf.eprintf "storage: indexed in memory (no snapshot)\n"
        end;
        if trace then
          Printf.eprintf "%s" (Obs.Trace.render report.Galatex.Engine.trace);
        if trace_json then print_endline (report_json report)
        else
          List.iter
            (fun item ->
              match item with
              | Xquery.Value.Node n when pretty ->
                  print_endline (Xmlkit.Printer.pretty n)
              | item -> print_endline (Fmt.str "%a" Xquery.Value.pp_item item))
            report.Galatex.Engine.value;
        `Ok ())

let query_cmd =
  let doc = "Run an XQuery Full-Text query over the indexed documents." in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      ret
        (const run_query $ docs_arg $ index_dir_arg $ server_arg
       $ retries_arg $ merge_arg $ strategy_arg $ context_arg
       $ pretty_arg $ max_steps_arg $ max_depth_arg $ max_matches_arg
       $ timeout_arg $ no_fallback_arg $ report_arg $ quiet_arg
       $ trace_arg $ trace_json_arg $ query_arg))

(* --- translate --- *)

let run_translate query =
  handle_errors (fun () ->
      print_endline (Galatex.Engine.translate_to_text query);
      `Ok ())

let translate_cmd =
  let doc =
    "Show the plain XQuery that the GalaTex translation produces (paper
     Section 3.2.2)."
  in
  Cmd.v (Cmd.info "translate" ~doc) Term.(ret (const run_translate $ query_arg))

(* --- index --- *)

let run_index docs word output shards =
  if docs = [] then `Error (false, "at least one --document is required")
  else if shards < 1 then `Error (false, "--shards wants a positive count")
  else if shards > 1 && output = None then
    `Error (false, "--shards requires --output DIR")
  else
    handle_errors (fun () ->
        (match (output, shards) with
        | Some dir, shards when shards > 1 ->
            (* cut the corpus with the same hash the router uses to route
               updates (Corpus.Partition) — the partitioner IS the layout *)
            let parts = Corpus.Partition.split ~shards (load_documents docs) in
            (* the store creates each shard-i leaf but not the parent *)
            (try Unix.mkdir dir 0o755
             with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
            Array.iteri
              (fun i part ->
                let sdir = Filename.concat dir (Printf.sprintf "shard-%d" i) in
                let engine = Galatex.Engine.create part in
                Galatex.Engine.save engine ~dir:sdir;
                Printf.printf "shard %d: %d document(s) -> %s\n" i
                  (List.length part) sdir)
              parts
        | _ ->
        let engine = engine_of docs in
        let index = Galatex.Engine.index engine in
        (match output with
        | Some dir ->
            Galatex.Engine.save engine ~dir;
            Printf.printf "snapshot written to %s: %d documents, %d distinct words, %d postings\n"
              dir
              (List.length (Ftindex.Inverted.documents index))
              (Ftindex.Inverted.distinct_word_count index)
              (Ftindex.Inverted.total_postings index)
        | None -> (
            match word with
            | Some w ->
                print_endline
                  (Xmlkit.Printer.pretty (Ftindex.Index_xml.inverted_list_document index w))
            | None ->
                print_endline
                  (Xmlkit.Printer.pretty (Ftindex.Index_xml.distinct_words_document index));
                Printf.printf "\n%d distinct words, %d postings, %d documents\n"
                  (Ftindex.Inverted.distinct_word_count index)
                  (Ftindex.Inverted.total_postings index)
                  (List.length (Ftindex.Inverted.documents index)))));
        `Ok ())

let word_arg =
  Arg.(
    value & opt (some string) None
    & info [ "w"; "word" ] ~docv:"WORD"
        ~doc:"Print the inverted-list document of one word.")

let output_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"DIR"
        ~doc:
          "Persist the index as a crash-safe snapshot directory (manifest +
           CRC-checksummed segments) loadable with $(b,galatex query --index
           DIR).")

let shards_count_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "With $(b,--output DIR): partition the documents by uri hash
           ($(b,Corpus.Partition), the same hash $(b,galatex route) uses to
           route updates) and write one snapshot per partition to
           $(i,DIR)/shard-0 .. $(i,DIR)/shard-N-1, ready for N $(b,galatex
           serve) daemons behind a router.")

let index_cmd =
  let doc =
    "Preprocess documents and print index artifacts (Figure 5(b) inverted
     lists / distinct-word list), or persist them with $(b,--output) —
     optionally cut into per-shard snapshots with $(b,--shards)."
  in
  Cmd.v (Cmd.info "index" ~doc)
    Term.(
      ret (const run_index $ docs_arg $ word_arg $ output_arg
         $ shards_count_arg))

(* --- tokens --- *)

let run_tokens docs =
  if docs = [] then `Error (false, "at least one --document is required")
  else
    handle_errors (fun () ->
        List.iter
          (fun (uri, doc) ->
            Printf.printf "-- %s\n" uri;
            List.iter
              (fun tok -> print_endline (Fmt.str "%a" Tokenize.Token.pp tok))
              (Tokenize.Segmenter.tokenize_document doc))
          (load_documents docs);
        `Ok ())

let tokens_cmd =
  let doc = "Tokenize documents and print TokenInfo values (Figure 1)." in
  Cmd.v (Cmd.info "tokens" ~doc) Term.(ret (const run_tokens $ docs_arg))

(* --- explain --- *)

let run_explain query =
  handle_errors (fun () ->
      let q = Galatex.Engine.parse query in
      print_endline "-- parsed --";
      print_endline (Xquery.Printer.query_to_string q);
      print_endline "\n-- translated (Section 3.2.2) --";
      print_endline (Galatex.Engine.translate_to_text query);
      `Ok ())

let explain_cmd =
  let doc =
    "Show the parsed plan and the translated XQuery for a query."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(ret (const run_explain $ query_arg))

(* --- module --- *)

let run_module () =
  print_endline Galatex.Fts_module.library_source;
  `Ok ()

let module_cmd =
  let doc =
    "Print the GalaTex fts library module — the XQuery implementation of
     every FTSelection primitive (paper Section 3.2.3)."
  in
  Cmd.v (Cmd.info "module" ~doc) Term.(ret (const run_module $ const ()))

(* --- serve / stats --- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to serve on.")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N" ~doc:"Worker threads (default 4).")

let queue_limit_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "Accepted connections queued before admission control sheds new
           requests with gtlx:GTLX0009 (default 64).")

let watch_arg =
  Arg.(
    value & flag
    & info [ "watch" ]
        ~doc:
          "Poll the snapshot directory and hot-reload automatically when its
           generation changes (SIGHUP always triggers a reload).")

let breaker_threshold_arg =
  Arg.(
    value & opt int 5
    & info [ "breaker-threshold" ] ~docv:"N"
        ~doc:
          "Consecutive internal-error fallbacks that trip an optimized
           strategy's circuit breaker (default 5).")

let breaker_cooldown_arg =
  Arg.(
    value & opt int 8
    & info [ "breaker-cooldown" ] ~docv:"N"
        ~doc:
          "Bypassed requests before a tripped breaker lets a probe through
           (default 8).")

let slow_threshold_arg =
  Arg.(
    value & opt float 250.0
    & info [ "slow-threshold" ] ~docv:"MS"
        ~doc:
          "Queries slower than this many milliseconds enter the slow-query
           log (default 250).")

let slowlog_capacity_arg =
  Arg.(
    value & opt int 32
    & info [ "slowlog-capacity" ] ~docv:"N"
        ~doc:"Slow-query log ring-buffer capacity (default 32).")

let follow_arg =
  Arg.(
    value & opt (some string) None
    & info [ "follow" ] ~docv:"PRIMARY_SOCK"
        ~doc:
          "Replica mode: follow the primary daemon at this socket.  The
           daemon becomes read-only (updates and compactions are
           rejected), bootstraps an empty index directory by pulling the
           primary's snapshot, tails the primary's write-ahead log every
           maintenance tick, and re-syncs the full snapshot when the
           primary compacts or the anti-entropy manifest check
           mismatches.")

let follow_timeout_arg =
  Arg.(
    value & opt float 2.0
    & info [ "follow-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Base replication timeout: how long a follower waits on its
           primary before calling a sync step failed.  Health probes wait
           this long, write-ahead-log catch-up 5x, snapshot listings 15x
           and per-file transfers 30x (default 2).  Enforced end-to-end
           (connect, transfer, reply) even mid-stream: a primary that
           stalls halfway through a snapshot file fails the sync step
           with gtlx:GTLX0014 instead of hanging the follower.")

let serve_io_timeout_arg =
  Arg.(
    value & opt float 10.0
    & info [ "io-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-connection I/O deadline: one framed request read — and,
           separately, one reply write — must finish within $(docv)
           seconds or the connection is dropped with gtlx:GTLX0014
           semantics; a reply abandoned on a client that stopped reading
           counts $(b,slow_client_disconnects) (default 10).")

let serve_idle_timeout_arg =
  Arg.(
    value & opt float 2.0
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-connection progress bound: drop the connection when no
           byte moves for $(docv) seconds — the handshake timeout and the
           byte-rate floor that defeats slow-loris clients long before
           $(b,--io-timeout) (default 2).")

let client_io_timeout_arg default =
  Arg.(
    value & opt float default
    & info [ "io-timeout" ] ~docv:"SECONDS"
        ~doc:
          (Printf.sprintf
             "Client-side deadline for the whole exchange — connect,
              request write, reply read.  A stalled or slow-loris
              endpoint fails with gtlx:GTLX0014 (resource exit code)
              instead of hanging (default %g)."
             default))

(* The shared body of [serve] and [route]: log to stderr, [start] the
   process, map SIGHUP to [reload] and SIGTERM / SIGINT to [shutdown],
   then block in [wait].  The handlers only flip atomics
   (async-signal-safe); the serving loops notice within one tick. *)
let serve_until_signalled ~quiet ~start ~reload ~shutdown ~wait =
  handle_errors (fun () ->
      Logs.set_reporter
        (Logs_threaded.enable ();
         Logs_fmt.reporter ~dst:Format.err_formatter ());
      Logs.set_level (Some (if quiet then Logs.Warning else Logs.Info));
      let t = start () in
      Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> reload t));
      let stop _ = shutdown t in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      wait t;
      `Ok ())

let run_serve docs index_dir socket workers queue_limit watch follow
    follow_timeout io_timeout idle_timeout breaker_threshold breaker_cooldown
    slow_threshold slowlog_capacity quiet =
  match index_dir with
  | None -> `Error (false, "--index DIR is required")
  | Some index_dir ->
      serve_until_signalled ~quiet
        ~reload:Galatex_server.Server.request_reload
        ~shutdown:Galatex_server.Server.request_shutdown
        ~wait:Galatex_server.Server.wait
        ~start:(fun () ->
          let sources =
            List.map (fun p -> (Filename.basename p, read_file p)) docs
          in
          let cfg =
            {
              (Galatex_server.Server.default_config ~index_dir
                 ~socket_path:socket)
              with
              sources;
              workers;
              queue_limit;
              watch_generation = watch;
              follow;
              follow_timeout;
              recv_timeout = io_timeout;
              idle_timeout;
              breaker_threshold;
              breaker_cooldown;
              slowlog_threshold = slow_threshold /. 1000.;
              slowlog_capacity;
            }
          in
          Galatex_server.Server.start cfg)

let serve_cmd =
  let doc =
    "Serve queries concurrently over a Unix-domain socket: admission
     control under load, per-strategy circuit breakers, hot snapshot
     reload on SIGHUP, graceful drain on SIGTERM, and replica mode
     ($(b,--follow)) tailing a primary's write-ahead log."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run_serve $ docs_arg $ index_dir_arg $ socket_arg
       $ workers_arg $ queue_limit_arg $ watch_arg $ follow_arg
       $ follow_timeout_arg $ serve_io_timeout_arg $ serve_idle_timeout_arg
       $ breaker_threshold_arg $ breaker_cooldown_arg
       $ slow_threshold_arg $ slowlog_capacity_arg $ quiet_arg))

(* --- route --- *)

let shard_arg =
  Arg.(
    non_empty & opt_all string []
    & info [ "shard" ] ~docv:"SOCK[,REPLICA,...]"
        ~doc:
          "A shard's endpoints, primary socket first, optional replica
           sockets comma-separated after it (repeatable; the $(i,i)-th
           $(b,--shard) serves partition $(i,i) as cut by $(b,galatex index
           --shards)).")

let route_retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra endpoint sweeps per shard per query after the first; each
           sweep tries the primary then the replicas (default 2).")

let route_deadline_arg =
  Arg.(
    value & opt float 5.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-query budget when the client sent neither a deadline nor a
           timeout limit (default 5).")

let max_lag_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-lag" ] ~docv:"N"
        ~doc:
          "Failover freshness bound: skip a replica more than $(docv)
           write-ahead-log records behind the shard's freshest known
           position (or on an older base generation) as if it were down;
           when a partition's only live endpoints are too stale the query
           fails with gtlx:GTLX0012.  Default: unbounded — any replica is
           served, with a warning and a $(b,stale_served) count.
           With $(b,--primary-failover) it also gates which followers are
           eligible for promotion.")

let primary_failover_arg =
  Arg.(
    value & flag
    & info [ "primary-failover" ]
        ~doc:
          "Fail writes over automatically: when a shard's primary stops
           answering health probes, promote the freshest eligible follower
           (not draining, within $(b,--max-lag); freshest by epoch,
           generation, seq), fence the old primary off with the bumped
           epoch so it demotes and re-syncs when it reappears, and adopt
           primaries promoted by hand ($(b,galatex promote)).")

let failover_ticks_arg =
  Arg.(
    value & opt int 3
    & info [ "failover-ticks" ] ~docv:"N"
        ~doc:
          "Consecutive failed probe sweeps of a shard's current primary
           before a promotion is attempted (default 3).")

let run_route shards socket workers queue_limit retries max_lag
    primary_failover failover_ticks deadline io_timeout idle_timeout
    breaker_threshold breaker_cooldown quiet =
  (* SIGHUP becomes a rolling reload across the shards, one at a time *)
  serve_until_signalled ~quiet
    ~reload:Galatex_cluster.Router.request_reload
    ~shutdown:Galatex_cluster.Router.request_shutdown
    ~wait:Galatex_cluster.Router.wait
    ~start:(fun () ->
      let endpoints =
        List.map
          (fun spec ->
            match String.split_on_char ',' spec with
            | primary :: replicas when primary <> "" ->
                { Galatex_cluster.Router.primary; replicas }
            | _ ->
                Xquery.Errors.raise_error Xquery.Errors.FODC0002
                  "malformed --shard %S: want SOCK[,REPLICA,...]" spec)
          shards
      in
      let cfg =
        {
          (Galatex_cluster.Router.default_config ~shards:endpoints
             ~socket_path:socket)
          with
          workers;
          queue_limit;
          retries;
          max_lag;
          primary_failover;
          failover_ticks;
          default_deadline = deadline;
          recv_timeout = io_timeout;
          idle_timeout;
          breaker_threshold;
          breaker_cooldown;
        }
      in
      Galatex_cluster.Router.start cfg)

let route_cmd =
  let doc =
    "Route queries across document-sharded $(b,galatex serve) daemons:
     scatter-gather with per-shard deadline budgets, replica failover
     behind per-endpoint circuit breakers, partial results
     (gtlx:GTLX0011) when partitions stay down, bounded-staleness
     failover ($(b,--max-lag), gtlx:GTLX0012), document-hash update
     routing with epoch fencing, automatic primary failover
     ($(b,--primary-failover), gtlx:GTLX0013), and rolling reload on
     SIGHUP."
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      ret
        (const run_route $ shard_arg $ socket_arg $ workers_arg
       $ queue_limit_arg $ route_retries_arg $ max_lag_arg
       $ primary_failover_arg $ failover_ticks_arg $ route_deadline_arg
       $ serve_io_timeout_arg $ serve_idle_timeout_arg
       $ breaker_threshold_arg $ breaker_cooldown_arg $ quiet_arg))

let server_unreachable server reason = transport_error server reason

let run_stats server io_timeout metrics slowlog health =
  let recv_timeout = io_timeout in
  if health then
    match Galatex_server.Client.health ~recv_timeout ~socket_path:server () with
    | Ok h ->
        Printf.printf
          "generation %d\nwal_records %d\ndraining %b\nseq %d\nrole \
           %s\nmanifest_crc %d\nepoch %d\n"
          h.Galatex_server.Protocol.h_generation
          h.Galatex_server.Protocol.h_wal_records
          h.Galatex_server.Protocol.h_draining
          h.Galatex_server.Protocol.h_seq h.Galatex_server.Protocol.h_role
          h.Galatex_server.Protocol.h_manifest_crc
          h.Galatex_server.Protocol.h_epoch;
        (* a follower's link to its primary: one extra stats fetch, so the
           probe stays a single cheap request for everything else *)
        (if h.Galatex_server.Protocol.h_role = "replica" then
           match Galatex_server.Client.stats ~recv_timeout ~socket_path:server () with
           | Error _ -> ()
           | Ok s ->
               let find k =
                 List.assoc_opt k s.Galatex_server.Protocol.counters
               in
               let streak =
                 Option.value (find "primary_down_streak") ~default:0
               in
               let total =
                 Option.value (find "primary_unreachable_ticks") ~default:0
               in
               let tmo =
                 Option.value (find "follow_timeout_ms") ~default:0
               in
               if streak > 0 then
                 Printf.printf
                   "primary unreachable for %d ticks (%d lifetime; follow \
                    timeout %d ms)\n"
                   streak total tmo
               else
                 Printf.printf
                   "primary up (%d unreachable ticks lifetime; follow \
                    timeout %d ms)\n"
                   total tmo);
        List.iter
          (fun (e : Galatex_server.Protocol.endpoint_health) ->
            Printf.printf
              "endpoint shard=%d role=%s state=%s up=%b generation=%d \
               seq=%d epoch=%d lag=%s %s\n"
              e.Galatex_server.Protocol.e_shard e.e_role e.e_state e.e_up
              e.e_generation e.e_seq e.e_epoch
              (match e.e_lag with
              | Some l -> string_of_int l
              | None -> if e.e_up then "gen-behind" else "unknown")
              e.e_path)
          h.Galatex_server.Protocol.h_endpoints;
        `Ok ()
    | Error reason -> server_unreachable server reason
  else
  if metrics then
    match Galatex_server.Client.metrics ~recv_timeout ~socket_path:server () with
    | Ok text ->
        print_string text;
        `Ok ()
    | Error reason -> server_unreachable server reason
  else if slowlog then
    match Galatex_server.Client.slowlog ~recv_timeout ~socket_path:server () with
    | Ok entries ->
        List.iter
          (fun (e : Galatex_server.Protocol.slow_entry) ->
            Printf.printf "slow t=%.3f strategy=%s duration_ms=%.3f steps=%d %s\n"
              e.Galatex_server.Protocol.s_unix_time e.s_strategy e.s_duration_ms
              e.s_steps e.s_query)
          entries;
        `Ok ()
    | Error reason -> server_unreachable server reason
  else
    match Galatex_server.Client.stats ~recv_timeout ~socket_path:server () with
    | Ok s ->
        List.iter
          (fun (k, v) -> Printf.printf "%s %d\n" k v)
          s.Galatex_server.Protocol.counters;
        List.iter
          (fun (b : Galatex_server.Protocol.breaker_reply) ->
            Printf.printf "breaker %s %s consecutive=%d cooldown=%d trips=%d\n"
              b.Galatex_server.Protocol.b_strategy b.b_state b.b_consecutive
              b.b_cooldown b.b_trips)
          s.Galatex_server.Protocol.breakers;
        `Ok ()
    | Error reason -> server_unreachable server reason

(* --- update --- *)

let add_arg =
  Arg.(
    value & opt_all string []
    & info [ "a"; "add" ] ~docv:"FILE"
        ~doc:
          "XML document to add or replace, keyed by basename (repeatable).
           Validated before anything reaches the write-ahead log.")

let remove_doc_arg =
  Arg.(
    value & opt_all string []
    & info [ "r"; "remove" ] ~docv:"URI"
        ~doc:"Document uri to remove from the index (repeatable).")

let compact_flag_arg =
  Arg.(
    value & flag
    & info [ "compact" ]
        ~doc:
          "After applying the operations, fold the write-ahead log into a
           fresh snapshot generation and reset it.")

let update_index_arg =
  Arg.(
    value & opt (some string) None
    & info [ "index" ] ~docv:"DIR"
        ~doc:
          "Apply the updates offline, directly to the snapshot directory's
           write-ahead log.  Do not combine with a running daemon on the
           same directory — the log is single-writer; use $(b,--server)
           instead.")

(* adds first, then removes; both validated (XML parsed, file read) before
   any record is appended, so the log stays replayable by construction *)
let ops_of ~adds ~removes =
  List.map
    (fun path ->
      let uri = Filename.basename path in
      let source = read_file path in
      ignore (Xmlkit.Parser.parse_document ~uri source);
      Ftindex.Wal.Add_doc { uri; source })
    adds
  @ List.map (fun uri -> Ftindex.Wal.Remove_doc uri) removes

let remote_error (e : Galatex_server.Protocol.error_reply) =
  Printf.eprintf "%s error %s: %s\n" e.Galatex_server.Protocol.error_class
    e.Galatex_server.Protocol.code e.Galatex_server.Protocol.message;
  exit
    (Galatex_server.Protocol.exit_code_of_class
       e.Galatex_server.Protocol.error_class)

let run_remote_update ~server ~io_timeout ops ~do_compact =
  let send req =
    match
      Galatex_server.Client.request ~recv_timeout:io_timeout ~socket_path:server
        req
    with
    | Ok resp -> resp
    | Error reason -> transport_error server reason
  in
  if ops <> [] then begin
    match send (Galatex_server.Protocol.Update { ops; epoch = 0 }) with
    | Galatex_server.Protocol.Update_reply r ->
        Printf.printf
          "acknowledged %d operation(s): generation %d, last seq %d, log %d record(s) / %d bytes\n"
          (List.length ops) r.Galatex_server.Protocol.u_generation
          r.Galatex_server.Protocol.u_last_seq
          r.Galatex_server.Protocol.u_records
          r.Galatex_server.Protocol.u_bytes
    | Galatex_server.Protocol.Failure e -> remote_error e
    | _ ->
        Printf.eprintf "internal error: unexpected response to update\n";
        exit 5
  end;
  if do_compact then begin
    match send (Galatex_server.Protocol.Compact { epoch = 0 }) with
    | Galatex_server.Protocol.Compact_reply r ->
        Printf.printf "compacted: %d record(s) folded into generation %d\n"
          r.Galatex_server.Protocol.c_folded
          r.Galatex_server.Protocol.c_generation
    | Galatex_server.Protocol.Failure e -> remote_error e
    | _ ->
        Printf.eprintf "internal error: unexpected response to compact\n";
        exit 5
  end;
  `Ok ()

let run_offline_update ~dir ops ~do_compact =
  let engine = Galatex.Engine.of_store ~dir () in
  let gen = Option.value (Galatex.Engine.generation engine) ~default:0 in
  let w = Ftindex.Wal.open_writer ~dir ~generation:gen () in
  let engine =
    List.fold_left
      (fun eng op ->
        ignore (Ftindex.Wal.append w op);
        Galatex.Engine.apply_update eng op)
      engine ops
  in
  if ops <> [] then
    Printf.printf
      "appended %d operation(s): generation %d, log %d record(s) / %d bytes\n"
      (List.length ops)
      (Ftindex.Wal.writer_generation w)
      (Ftindex.Wal.wal_records w) (Ftindex.Wal.wal_bytes w);
  if do_compact then begin
    let folded = Ftindex.Wal.wal_records w in
    let engine = Galatex.Engine.compact engine ~dir in
    Printf.printf "compacted: %d record(s) folded into generation %d\n" folded
      (Option.value (Galatex.Engine.generation engine) ~default:0)
  end;
  `Ok ()

let run_update adds removes server index_dir do_compact io_timeout =
  if adds = [] && removes = [] && not do_compact then
    `Error (false, "nothing to do: give --add, --remove and/or --compact")
  else
    match (server, index_dir) with
    | None, None ->
        `Error (false, "either --server SOCKET or --index DIR is required")
    | Some _, Some _ ->
        `Error (false, "--server and --index are mutually exclusive")
    | Some server, None ->
        handle_errors (fun () ->
            run_remote_update ~server ~io_timeout (ops_of ~adds ~removes)
              ~do_compact)
    | None, Some dir ->
        handle_errors (fun () ->
            run_offline_update ~dir (ops_of ~adds ~removes) ~do_compact)

let update_cmd =
  let doc =
    "Apply live index updates (add/replace/remove documents) through the
     crash-safe write-ahead log — against a running daemon with
     $(b,--server), or offline against a snapshot directory with
     $(b,--index) — and optionally fold the log into a fresh snapshot
     generation with $(b,--compact)."
  in
  Cmd.v (Cmd.info "update" ~doc)
    Term.(
      ret
        (const run_update $ add_arg $ remove_doc_arg $ server_arg
       $ update_index_arg $ compact_flag_arg
       $ client_io_timeout_arg 60.0))

let stats_server_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "server" ] ~docv:"SOCKET" ~doc:"The daemon's socket path.")

let stats_metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the Prometheus-style text exposition (counters, engine
           counters, per-strategy latency histograms) instead of the plain
           counter list.")

let stats_slowlog_arg =
  Arg.(
    value & flag
    & info [ "slowlog" ]
        ~doc:"Print the slow-query log (newest first) instead of counters.")

let stats_health_arg =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Probe liveness instead: print the serving snapshot generation,
           write-ahead-log depth and drain state.  Against a router, the
           merged view — minimum generation and summed log depth across
           reachable shards.")

let stats_cmd =
  let doc =
    "Print a running daemon's counters and breaker states; with
     $(b,--metrics) the Prometheus-style exposition, with $(b,--slowlog)
     the slow-query log, with $(b,--health) a liveness / generation probe."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      ret
        (const run_stats $ stats_server_arg
       $ client_io_timeout_arg Galatex_server.Client.default_io_timeout
       $ stats_metrics_arg $ stats_slowlog_arg $ stats_health_arg))

(* --- promote --- *)

let promote_sock_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOCKET"
        ~doc:"Socket path of the daemon to promote (usually a follower).")

let promote_epoch_arg =
  Arg.(
    value & opt int 0
    & info [ "min-epoch" ] ~docv:"EPOCH"
        ~doc:
          "The highest fencing epoch observed anywhere in the replica set
           (default 0 = unknown).  The daemon promotes onto an epoch
           strictly greater than both this and its own, so the new
           timeline supersedes every old one.")

let run_promote sock min_epoch io_timeout =
  handle_errors (fun () ->
      match
        Galatex_server.Client.promote ~recv_timeout:io_timeout
          ~socket_path:sock ~epoch:min_epoch ()
      with
      | Ok h ->
          Printf.printf
            "promoted %s: role %s, epoch %d, generation %d, seq %d\n" sock
            h.Galatex_server.Protocol.h_role
            h.Galatex_server.Protocol.h_epoch
            h.Galatex_server.Protocol.h_generation
            h.Galatex_server.Protocol.h_seq;
          `Ok ()
      | Error reason ->
          Printf.eprintf "promote %s failed: %s\n" sock reason;
          exit
            (if String.starts_with ~prefix:"gtlx:GTLX0014" reason then
               Galatex_server.Protocol.exit_code_of_class
                 (Xquery.Errors.class_string Xquery.Errors.Resource)
             else 2))

let promote_cmd =
  let doc =
    "Promote a running daemon to read-write primary: it seals its
     write-ahead log, durably bumps its fencing epoch, and starts
     accepting updates.  Writes stamped with an older epoch — a
     superseded primary's, or a router that has not re-discovered yet —
     are rejected with gtlx:GTLX0013, so two timelines can never both
     acknowledge.  Point the old primary's followers at the new one, or
     let $(b,galatex route --primary-failover) drive the whole drill."
  in
  Cmd.v (Cmd.info "promote" ~doc)
    Term.(
      ret
        (const run_promote $ promote_sock_arg $ promote_epoch_arg
       $ client_io_timeout_arg 60.0))

(* --- faultnet --- *)

let faultnet_listen_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"LISTEN"
        ~doc:"Unix socket path the proxy listens on (clients dial this).")

let faultnet_target_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"TARGET"
        ~doc:"Unix socket path of the real daemon to forward to.")

let faultnet_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the fault schedule: connection $(i,i)'s fate is a pure
           function of (seed, i), so the same seed replays the same
           faults.")

let faultnet_p_stall_arg =
  Arg.(
    value & opt float 0.0
    & info [ "p-stall" ] ~docv:"P"
        ~doc:
          "Probability a connection stalls silently after a random prefix
           of bytes — the gray failure deadlines exist for.")

let faultnet_p_drop_arg =
  Arg.(
    value & opt float 0.0
    & info [ "p-drop" ] ~docv:"P"
        ~doc:"Probability a connection is severed after a random prefix.")

let faultnet_p_throttle_arg =
  Arg.(
    value & opt float 0.0
    & info [ "p-throttle" ] ~docv:"P"
        ~doc:"Probability a connection is throttled to $(b,--rate) bytes/s.")

let faultnet_latency_arg =
  Arg.(
    value & opt float 0.0
    & info [ "latency" ] ~docv:"SECONDS"
        ~doc:"Base latency added to every forwarded chunk.")

let faultnet_jitter_arg =
  Arg.(
    value & opt float 0.0
    & info [ "jitter" ] ~docv:"SECONDS"
        ~doc:"Extra per-connection latency, uniform in [0, JITTER).")

let faultnet_rate_arg =
  Arg.(
    value & opt int 4096
    & info [ "rate" ] ~docv:"BYTES_PER_SEC"
        ~doc:"Byte rate for throttled connections (default 4096).")

let faultnet_blackhole_arg =
  Arg.(
    value & flag
    & info [ "blackhole" ]
        ~doc:
          "Accept every connection and never forward a byte either way
           (overrides the seeded schedule) — the deterministic
           accept-then-hang endpoint the smoke tests point one-shots at.")

let run_faultnet listen target seed p_stall p_drop p_throttle latency jitter
    rate blackhole =
  handle_errors (fun () ->
      let plan_for =
        if blackhole then fun _ ->
          let hole =
            {
              Galatex_server.Faultnet.clean with
              Galatex_server.Faultnet.blackhole = true;
            }
          in
          (hole, hole)
        else
          Galatex_server.Faultnet.seeded_plans ~seed ~p_stall ~p_drop
            ~p_throttle ~latency ~jitter ~rate ()
      in
      let t = Galatex_server.Faultnet.start ~listen ~target ~plan_for in
      Printf.printf "faultnet: %s -> %s (seed %d)\n%!" listen target seed;
      let stopping = Atomic.make false in
      let stop _ = Atomic.set stopping true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      while not (Atomic.get stopping) do
        Unix.sleepf 0.05
      done;
      Galatex_server.Faultnet.stop t;
      `Ok ())

let faultnet_cmd =
  let doc =
    "Run a deterministic network fault injector between a client and a
     daemon socket: a userspace proxy that stalls, drops, throttles or
     delays connections on a seeded schedule.  The CI network-chaos
     drill routes every link of a replica topology through one of these
     and asserts nothing hangs past its deadline."
  in
  Cmd.v (Cmd.info "faultnet" ~doc)
    Term.(
      ret
        (const run_faultnet $ faultnet_listen_arg $ faultnet_target_arg
       $ faultnet_seed_arg $ faultnet_p_stall_arg $ faultnet_p_drop_arg
       $ faultnet_p_throttle_arg $ faultnet_latency_arg $ faultnet_jitter_arg
       $ faultnet_rate_arg $ faultnet_blackhole_arg))

(* --- workload --- *)

let workload_out_arg =
  Arg.(
    value
    & opt string "BENCH_R9.json"
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Where to write the run's results JSON (default BENCH_R9.json).")

let workload_gate_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "gate" ] ~docv:"BASELINE"
        ~doc:
          "Compare the run against this committed baseline JSON and exit
           non-zero naming every violated SLO (p99/p95 over the
           ratio-plus-slack limit, shed or error rate above
           baseline + 2 pt, scenario missing).")

let workload_against_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "against" ] ~docv:"RESULTS"
        ~doc:
          "With $(b,--gate): check this existing results file instead of
           running fresh scenarios — the gate logic alone, no daemons.")

let workload_scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"X"
        ~doc:
          "Request-count multiplier, e.g. 0.25 for the scaled-down CI
           gate (floors keep every scenario at $(b,>= 10) requests).")

let workload_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Trace and corpus seed; same seed = byte-identical traces.")

let workload_scenario_arg =
  Arg.(
    value & opt_all string []
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Run only this scenario (repeatable): %s.  Default: all."
             (String.concat ", " Workload.Scenario.names)))

let run_workload out gate against scale seed scenarios max_lag =
  handle_errors (fun () ->
      let read_file path =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let gate_against ~baseline ~fresh =
        match Workload.Gate.check ~baseline ~fresh () with
        | Error reason ->
            Printf.eprintf "workload gate: %s\n" reason;
            exit 2
        | Ok [] ->
            Printf.printf "workload gate: PASS\n";
            `Ok ()
        | Ok violations ->
            List.iter
              (fun v ->
                Printf.eprintf "workload gate: %s\n"
                  (Workload.Gate.describe v))
              violations;
            exit 1
      in
      match (against, gate) with
      | Some _, None ->
          `Error (true, "--against only makes sense with --gate")
      | Some results, Some baseline ->
          gate_against ~baseline:(read_file baseline)
            ~fresh:(read_file results)
      | None, _ ->
          let settings =
            {
              Workload.Scenario.scale;
              seed;
              max_lag = (match max_lag with None -> Some 64 | some -> some);
              only = scenarios;
            }
          in
          let reports =
            Workload.Scenario.run
              ~progress:(fun name ->
                Printf.printf "running %s...\n%!" name)
              settings
          in
          List.iter
            (fun (s : Workload.Report.scenario) ->
              Printf.printf
                "  %-28s p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  full %4d  \
                 partial %3d  shed %3d  error %3d\n"
                s.Workload.Report.name s.p50_ms s.p95_ms s.p99_ms s.full
                s.partial s.shed s.error)
            reports;
          let fresh =
            Workload.Report.to_json
              ~meta:
                [
                  ("experiment", "R9");
                  ("seed", string_of_int seed);
                  ("scale", Printf.sprintf "%g" scale);
                ]
              reports
          in
          let oc = open_out out in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc fresh);
          Printf.printf "wrote %s\n" out;
          (match gate with
          | None -> `Ok ()
          | Some baseline ->
              gate_against ~baseline:(read_file baseline) ~fresh))

let workload_cmd =
  let doc =
    "Replay a deterministic, seeded mixed workload — Zipf-popular
     phrase / boolean / top-k query families interleaved with live
     update batches — open-loop against in-process daemons, sharded
     routers, a failover pair and multi-tenant small indexes, with fault
     drills that stop a shard or the primary, or stall links, mid-trace;
     recording per-scenario
     p50/p95/p99 latency and full/partial/shed/error counts.  With
     $(b,--gate) the run (or, with $(b,--against), an existing results
     file) is checked against a committed SLO baseline and the command
     exits non-zero naming every violated SLO — the CI regression gate."
  in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      ret
        (const run_workload $ workload_out_arg $ workload_gate_arg
       $ workload_against_arg $ workload_scale_arg $ workload_seed_arg
       $ workload_scenario_arg $ max_lag_arg))

(* --- demo --- *)

let run_demo strategy =
  handle_errors (fun () ->
      let engine = Corpus.Usecases.engine () in
      let failures = ref 0 in
      List.iter
        (fun (uc : Corpus.Usecases.usecase) ->
          match Corpus.Usecases.check_case engine ~strategy uc with
          | Ok () -> Printf.printf "ok   %-22s %s\n" uc.id uc.feature
          | Error (got, want) ->
              incr failures;
              Printf.printf "FAIL %-22s got [%s] want [%s]\n" uc.id
                (String.concat "; " got) (String.concat "; " want))
        Corpus.Usecases.all_cases;
      Printf.printf "\n%d use cases, %d failures\n"
        (List.length Corpus.Usecases.all_cases)
        !failures;
      if !failures = 0 then `Ok () else `Error (false, "use-case failures"))

let demo_cmd =
  let doc = "Run the XQuery Full-Text use-case catalogue (the paper's demo)." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(ret (const run_demo $ strategy_arg))

let main =
  let doc = "GalaTex: a conformant implementation of XQuery Full-Text" in
  Cmd.group
    (Cmd.info "galatex" ~version:"1.0.0" ~doc)
    [
      query_cmd; translate_cmd; explain_cmd; index_cmd; tokens_cmd;
      module_cmd; serve_cmd; route_cmd; stats_cmd; promote_cmd; update_cmd;
      faultnet_cmd; workload_cmd; demo_cmd;
    ]

let () = exit (Cmd.eval main)
