(* Workload layer: Zipf vocabulary properties, trace determinism, replay
   bookkeeping against a live in-process daemon, and the SLO gate (which
   must itself be tested, or the gate rots silently). *)

module Vocab = Corpus.Vocab
module Splitmix = Corpus.Splitmix
module Trace = Workload.Trace
module Replay = Workload.Replay
module Report = Workload.Report
module Gate = Workload.Gate

(* --- plumbing (the test_server idiom) --- *)

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

let sources =
  [
    ( "a.xml",
      "<book number=\"1\"><section><title>ra sa</title><p>ba ca da ra sa \
       ta</p></section></book>" );
    ( "b.xml",
      "<book number=\"2\"><section><title>ba ta</title><p>ra ba sa ca ta \
       da</p></section></book>" );
  ]

let with_daemon f =
  let dir = fresh_name "wl-scratch" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ftindex.Store.save ~dir (Ftindex.Indexer.index_strings sources);
      let sock = fresh_name "wl" ^ ".sock" in
      let cfg =
        Galatex_server.Server.default_config ~index_dir:dir ~socket_path:sock
      in
      let t = Galatex_server.Server.start cfg in
      Fun.protect
        ~finally:(fun () -> Galatex_server.Server.stop t)
        (fun () -> f t sock))

let with_server f = with_daemon (fun _ sock -> f sock)

(* --- Vocab: cumulative Zipf array shape (satellite property 1) --- *)

let prop_cumulative_monotone =
  let gen = QCheck2.Gen.(pair (1 -- 120) (float_bound_inclusive 2.5)) in
  QCheck2.Test.make ~count:50 ~name:"Vocab cumulative monotone, ends at 1.0"
    gen (fun (size, skew) ->
      let v = Vocab.create ~skew size in
      let c = Vocab.cumulative v in
      Array.length c = size
      && c.(0) > 0.0
      && Array.for_all (fun x -> x >= 0.0) c
      && (let ok = ref true in
          for i = 1 to size - 1 do
            if c.(i) < c.(i - 1) then ok := false
          done;
          !ok)
      && Float.abs (c.(size - 1) -. 1.0) < 1e-9)

(* --- Vocab: draw is in-vocabulary with its stated mass --- *)

let prop_draw_mass =
  let gen = QCheck2.Gen.(pair (0 -- 100_000) (2 -- 50)) in
  QCheck2.Test.make ~count:25
    ~name:"Vocab draw: in-vocabulary, rank-0 empirical mass matches" gen
    (fun (seed, size) ->
      let v = Vocab.create ~skew:1.0 size in
      let rng = Splitmix.create seed in
      let draws = 2000 in
      let rank0 = ref 0 and in_vocab = ref true in
      for _ = 1 to draws do
        let rank, word = Vocab.draw v rng in
        if rank < 0 || rank >= size || word <> Vocab.word v rank then
          in_vocab := false;
        if rank = 0 then incr rank0
      done;
      let empirical = float_of_int !rank0 /. float_of_int draws in
      !in_vocab && Float.abs (empirical -. Vocab.mass v 0) < 0.06)

(* --- Trace: deterministic per seed, distinct across seeds --- *)

let trace_spec seed =
  {
    Trace.default_spec with
    Trace.seed;
    requests = 30;
    rate = 500.0;
    update_every = Some 5;
    update_batch = 2;
  }

let prop_trace_determinism =
  let gen = QCheck2.Gen.(0 -- 100_000) in
  QCheck2.Test.make ~count:25
    ~name:"Trace: same seed byte-identical, different seed differs" gen
    (fun seed ->
      let a = Trace.to_string (Trace.generate (trace_spec seed)) in
      let b = Trace.to_string (Trace.generate (trace_spec seed)) in
      let c = Trace.to_string (Trace.generate (trace_spec (seed + 1))) in
      a = b && a <> c)

(* --- percentile vs an independent reference (satellite 3) --- *)

(* nearest-rank from first principles: the smallest sample with at least
   p percent of the samples at or below it (p = 0 degenerates to the
   min) *)
let reference_percentile values p =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let at_or_below x = List.length (List.filter (fun y -> y <= x) sorted) in
  match
    List.find_opt
      (fun x -> float_of_int (100 * at_or_below x) >= p *. float_of_int n)
      sorted
  with
  | Some x -> x
  | None -> List.nth sorted (n - 1)

let test_percentile_reference () =
  let vector = [ 12.0; 3.0; 47.0; 8.0; 30.0; 1.0; 19.0; 5.0; 24.0; 16.0 ] in
  let sorted = Array.of_list (List.sort compare vector) in
  List.iter
    (fun p ->
      let got = Obs.Histogram.nearest_rank sorted p in
      let want = reference_percentile vector p in
      if got <> want then
        Alcotest.failf "p%g: got %.1f, reference %.1f" p got want)
    [ 0.0; 10.0; 50.0; 90.0; 95.0; 99.0; 100.0 ];
  (* exact spot checks for the shipped estimator *)
  Alcotest.(check (float 0.0)) "p50 of 10 is the 5th sample" 12.0
    (Obs.Histogram.nearest_rank sorted 50.0);
  Alcotest.(check (float 0.0)) "p99 of 10" 47.0
    (Obs.Histogram.nearest_rank sorted 99.0);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Obs.Histogram.nearest_rank [||] 50.0))

(* --- replay bookkeeping against a live daemon --- *)

let test_replay_bookkeeping () =
  with_server (fun sock ->
      let trace = Trace.generate (trace_spec 7) in
      let r = Replay.run ~socket_path:sock ~concurrency:4 trace in
      let { Replay.full; partial; shed; error } = r.Replay.counts in
      Alcotest.(check int) "issued = trace length" (Array.length trace)
        r.Replay.issued;
      Alcotest.(check int) "full+partial+shed+error = issued"
        r.Replay.issued
        (full + partial + shed + error);
      Alcotest.(check int) "one latency sample per event" r.Replay.issued
        (Array.length r.Replay.latencies_sorted_ms);
      let sorted = Array.copy r.Replay.latencies_sorted_ms in
      Array.sort compare sorted;
      Alcotest.(check bool) "latencies sorted" true
        (sorted = r.Replay.latencies_sorted_ms);
      Alcotest.(check bool) "queries answered against a healthy daemon" true
        (full > 0 && error = 0))

(* against a dead socket every event still gets classified: error *)
let test_replay_all_errors () =
  let trace = Trace.generate { (trace_spec 9) with Trace.update_every = None } in
  let r =
    Replay.run
      ~socket_path:(fresh_name "wl-nosuch" ^ ".sock")
      ~concurrency:4 ~client_timeout:0.5 trace
  in
  Alcotest.(check int) "all classified as errors" r.Replay.issued
    r.Replay.counts.Replay.error

(* a timed event stops the daemon mid-trace: answers before it are
   full, events after it fail fast, and the replay still returns *)
let test_replay_timed_stop () =
  with_daemon (fun t sock ->
      let trace =
        Trace.generate
          {
            (trace_spec 11) with
            Trace.requests = 20;
            rate = 25.0;
            update_every = None;
          }
      in
      let stop_at = trace.(9).Trace.due_ms in
      let r =
        Replay.run ~socket_path:sock ~concurrency:4 ~client_timeout:2.0
          ~events:[ (stop_at, fun () -> Galatex_server.Server.stop t) ]
          trace
      in
      let { Replay.full; partial; shed; error } = r.Replay.counts in
      Alcotest.(check int) "issued = trace length" 20 r.Replay.issued;
      Alcotest.(check int) "full+partial+shed+error = issued" r.Replay.issued
        (full + partial + shed + error);
      Alcotest.(check bool) "answers before the stop are full" true (full >= 1);
      Alcotest.(check bool) "events after the stop are errors" true
        (error >= 1))

(* --- the gate (satellite 4) --- *)

let scenario name =
  {
    Report.name;
    requests = 100;
    rate = 100.0;
    concurrency = 8;
    p50_ms = 20.0;
    p95_ms = 60.0;
    p99_ms = 100.0;
    full = 96;
    partial = 2;
    shed = 1;
    error = 1;
    counters = [ ("queries", 100) ];
    replica_lag = Some 0;
    gate = [];
  }

let baseline_json =
  Report.to_json ~meta:[ ("experiment", "R9") ]
    [ scenario "zipf-read-only"; scenario "mixed-read-write" ]

let test_gate_identical_passes () =
  match Gate.check ~baseline:baseline_json ~fresh:baseline_json () with
  | Ok [] -> ()
  | Ok vs ->
      Alcotest.failf "identical run flagged: %s"
        (String.concat "; " (List.map Gate.describe vs))
  | Error e -> Alcotest.failf "gate parse error: %s" e

let test_gate_regression_names_slo () =
  (* p99 doubled and shed-rate up 10 points on one scenario *)
  let regressed =
    Report.to_json
      [
        scenario "zipf-read-only";
        { (scenario "mixed-read-write") with
          Report.p99_ms = 200.0;
          shed = 11;
          full = 86;
        };
      ]
  in
  match Gate.check ~baseline:baseline_json ~fresh:regressed () with
  | Ok violations ->
      let names = List.map (fun v -> (v.Gate.scenario, v.Gate.metric)) violations in
      Alcotest.(check bool) "names the p99 SLO" true
        (List.mem ("mixed-read-write", "p99_ms") names);
      Alcotest.(check bool) "names the shed-rate SLO" true
        (List.mem ("mixed-read-write", "shed_rate") names);
      Alcotest.(check bool) "healthy scenario unflagged" true
        (List.for_all (fun (s, _) -> s <> "zipf-read-only") names);
      List.iter
        (fun v ->
          let d = Gate.describe v in
          Alcotest.(check bool) "description carries the scenario" true
            (String.length d > 0))
        violations
  | Error e -> Alcotest.failf "gate parse error: %s" e

let test_gate_missing_scenario () =
  let fresh = Report.to_json [ scenario "zipf-read-only" ] in
  match Gate.check ~baseline:baseline_json ~fresh () with
  | Ok violations ->
      Alcotest.(check bool) "missing scenario flagged" true
        (List.exists
           (fun v ->
             v.Gate.scenario = "mixed-read-write"
             && v.Gate.metric = "missing_scenario")
           violations)
  | Error e -> Alcotest.failf "gate parse error: %s" e

let test_gate_per_scenario_override () =
  (* a baseline override grants one scenario the headroom the defaults
     would refuse *)
  let forgiving =
    Report.to_json
      [
        scenario "zipf-read-only";
        { (scenario "mixed-read-write") with
          Report.gate = [ ("p99_ratio", 10.0) ];
        };
      ]
  in
  let regressed =
    Report.to_json
      [
        scenario "zipf-read-only";
        { (scenario "mixed-read-write") with Report.p99_ms = 400.0 };
      ]
  in
  (match Gate.check ~baseline:forgiving ~fresh:regressed () with
  | Ok [] -> ()
  | Ok vs ->
      Alcotest.failf "override ignored: %s"
        (String.concat "; " (List.map Gate.describe vs))
  | Error e -> Alcotest.failf "gate parse error: %s" e);
  match Gate.check ~baseline:baseline_json ~fresh:regressed () with
  | Ok vs ->
      Alcotest.(check bool) "defaults still catch it" true
        (List.exists (fun v -> v.Gate.metric = "p99_ms") vs)
  | Error e -> Alcotest.failf "gate parse error: %s" e

let test_gate_malformed_is_error () =
  match Gate.check ~baseline:"{ not json" ~fresh:baseline_json () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed baseline accepted"

(* --- report JSON round-trip through the hand-rolled parser --- *)

let test_report_roundtrip () =
  let original =
    [ scenario "zipf-read-only"; { (scenario "topk-heavy") with
        Report.replica_lag = None; gate = [ ("shed_pts", 5.0) ] } ]
  in
  match Report.of_json (Report.to_json ~meta:[ ("seed", "42") ] original) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok parsed ->
      Alcotest.(check int) "scenario count" (List.length original)
        (List.length parsed);
      List.iter2
        (fun (a : Report.scenario) (b : Report.scenario) ->
          Alcotest.(check string) "name" a.Report.name b.Report.name;
          Alcotest.(check (float 1e-9)) "p99" a.p99_ms b.p99_ms;
          Alcotest.(check (float 1e-9)) "p95" a.p95_ms b.p95_ms;
          Alcotest.(check int) "shed" a.shed b.shed;
          Alcotest.(check bool) "lag" true (a.replica_lag = b.replica_lag);
          Alcotest.(check bool) "gate overrides" true (a.gate = b.gate))
        original parsed

(* every counter a scenario report carries must be exported by the role
   it is read from — a name nobody exports drops out of the report
   silently *)
let test_reported_counters_exported () =
  with_server (fun sock ->
      let router_sock = fresh_name "wl-rt" ^ ".sock" in
      let router =
        Galatex_cluster.Router.start
          (Galatex_cluster.Router.default_config
             ~shards:[ { Galatex_cluster.Router.primary = sock; replicas = [] } ]
             ~socket_path:router_sock)
      in
      Fun.protect
        ~finally:(fun () -> Galatex_cluster.Router.stop router)
        (fun () ->
          let names stats = List.map fst stats.Galatex_server.Protocol.counters in
          let exported =
            names (Galatex_cluster.Router.stats router)
            @
            match Galatex_server.Client.stats ~socket_path:sock () with
            | Ok r -> names r
            | Error reason -> Alcotest.failf "daemon stats: %s" reason
          in
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (Printf.sprintf "%S is exported" name)
                true (List.mem name exported))
            Workload.Scenario.reported_counters))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_cumulative_monotone;
    QCheck_alcotest.to_alcotest prop_draw_mass;
    QCheck_alcotest.to_alcotest prop_trace_determinism;
    Alcotest.test_case "percentile matches reference on fixed vector" `Quick
      test_percentile_reference;
    Alcotest.test_case "replay bookkeeping: counts sum to issued" `Quick
      test_replay_bookkeeping;
    Alcotest.test_case "replay against dead socket: all errors" `Quick
      test_replay_all_errors;
    Alcotest.test_case "replay timed event stops the daemon mid-trace" `Quick
      test_replay_timed_stop;
    Alcotest.test_case "gate: identical run passes" `Quick
      test_gate_identical_passes;
    Alcotest.test_case "gate: regression names scenario and metric" `Quick
      test_gate_regression_names_slo;
    Alcotest.test_case "gate: missing scenario is a violation" `Quick
      test_gate_missing_scenario;
    Alcotest.test_case "gate: per-scenario baseline override" `Quick
      test_gate_per_scenario_override;
    Alcotest.test_case "gate: malformed JSON is an error" `Quick
      test_gate_malformed_is_error;
    Alcotest.test_case "reported counters are exported by a daemon or router"
      `Quick test_reported_counters_exported;
    Alcotest.test_case "report JSON round-trips" `Quick test_report_roundtrip;
  ]
