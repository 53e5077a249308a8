(* Tests of the benchmark's own machinery: the percentile estimator, the
   open loop's due-time charging, the Prometheus delta parser and the
   determinism of the generated workloads. *)

open Perfbench_core

(* ---------------------------------------------------------- Stats *)

(* The definition itself: the smallest sample with at least p% of the
   samples at or below it, found by counting. *)
let reference_nearest_rank xs p =
  let n = Array.length xs in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let at_or_below v = Array.fold_left (fun c x -> if x <= v then c + 1 else c) 0 xs in
  let ok v = 100 * at_or_below v >= int_of_float p * n in
  match List.find_opt ok (Array.to_list sorted) with
  | Some v -> v
  | None -> sorted.(n - 1)

let test_percentile () =
  let rng = Random.State.make [| 7 |] in
  for trial = 1 to 300 do
    let n = 1 + Random.State.int rng (if trial < 100 then 20 else 500) in
    (* few distinct values, so ties are exercised too *)
    let xs = Array.init n (fun _ -> float_of_int (Random.State.int rng 40)) in
    List.iter
      (fun p ->
        let got = Stats.percentile xs p and want = reference_nearest_rank xs p in
        if got <> want then
          Alcotest.failf "n=%d p=%g: got %g, nearest rank is %g" n p got want)
      [ 1.0; 5.0; 25.0; 50.0; 90.0; 95.0; 99.0; 100.0 ]
  done

let test_percentile_exact_ranks () =
  let xs = Array.init 20 (fun i -> float_of_int (i + 1)) in
  (* 95% of 20 is exactly the 19th sample: the estimator must not round
     0.95 *. 20. up to 20 *)
  Alcotest.(check (float 0.0)) "p95 of 1..20" 19.0 (Stats.percentile xs 95.0);
  Alcotest.(check (float 0.0)) "p50 of 1..20" 10.0 (Stats.percentile xs 50.0);
  Alcotest.(check int) "beyond p95 of 200" 10 (Stats.beyond 200 95.0);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 50.0))

(* ------------------------------------------------------- Openloop *)

let fake_clock () =
  let t = ref 0.0 in
  ( t,
    {
      Openloop.now = (fun () -> !t);
      sleep_until = (fun u -> if u > !t then t := u);
    } )

let test_due_time_charging () =
  let t, clock = fake_clock () in
  (* due every 10 ms; every request costs 5 ms except #1, which stalls 50 *)
  let cost = [| 0.005; 0.050; 0.005; 0.005; 0.005; 0.005 |] in
  let out =
    Openloop.run ~clock ~workers:1 ~n:(Array.length cost)
      ~due:(fun i -> 0.010 *. float_of_int i)
      ~exec:(fun i -> t := !t +. cost.(i))
  in
  let lat = Array.map (fun o -> Float.round (1e6 *. Openloop.latency o) /. 1e3) out in
  (* #2 is due at 20 but launches at 60 when #1 returns: charged 45 ms;
     #3 due at 30 launches at 65: 40 ms; the backlog drains by #5 *)
  Alcotest.(check (array (float 1e-9))) "latency from due" [| 5.; 50.; 45.; 40.; 35.; 30. |] lat;
  Alcotest.(check (float 1e-9)) "#2 launched late" 0.040 (Openloop.lag out.(2));
  Alcotest.(check (float 1e-9)) "#2 service time" 0.005 (Openloop.service out.(2))

let test_no_stall_no_lag () =
  let t, clock = fake_clock () in
  let out =
    Openloop.run ~clock ~workers:1 ~n:5
      ~due:(fun i -> 0.010 *. float_of_int i)
      ~exec:(fun _ -> t := !t +. 0.002)
  in
  Array.iter (fun o -> Alcotest.(check (float 1e-12)) "no lag" 0.0 (Openloop.lag o)) out

(* ----------------------------------------------------------- Prom *)

let scrape_before =
  {|# HELP galatex_queries_total Query requests evaluated.
# TYPE galatex_queries_total counter
galatex_queries_total 10
galatex_query_duration_seconds_bucket{strategy="materialized",le="0.0001"} 2
galatex_query_duration_seconds_sum{strategy="materialized"} 0.5
galatex_query_duration_seconds_count{strategy="materialized"} 10
galatex_query_duration_seconds_sum{strategy="pipelined"} 0
|}

let scrape_after =
  {|# TYPE galatex_queries_total counter
galatex_queries_total 30
galatex_query_duration_seconds_sum{strategy="materialized"} 1.25
galatex_query_duration_seconds_count{strategy="materialized"} 25
galatex_query_duration_seconds_sum{strategy="pipelined"} 0.25
galatex_query_duration_seconds_count{strategy="pipelined"} 5
malformed line without a value x
|}

let test_prom_delta () =
  let before = Prom.parse scrape_before and after = Prom.parse scrape_after in
  Alcotest.(check int) "comments skipped, malformed dropped" 5 (List.length before);
  let d = Prom.delta ~before ~after in
  let total = Prom.total d in
  Alcotest.(check (float 1e-12)) "counter delta" 20.0 (total "galatex_queries_total");
  Alcotest.(check (float 1e-12)) "sum over label sets" 1.0
    (total "galatex_query_duration_seconds_sum");
  (* a series first seen in the second scrape counts from zero *)
  Alcotest.(check (float 1e-12)) "new series" 20.0
    (total "galatex_query_duration_seconds_count");
  Alcotest.(check (float 1e-12)) "absent metric" 0.0 (total "galatex_nothing");
  Alcotest.(check string) "metric name strips labels" "a_sum" (Prom.metric_name {|a_sum{x="1 2"}|})

(* ------------------------------------------------------------ Gen *)

let test_same_seed_same_trace () =
  List.iter
    (fun w ->
      let trace seed =
        let events, probe = Gen.inputs w ~seed ~seconds:2.0 in
        Gen.to_string events
        ^ String.concat "\n" (List.map (fun (u, s) -> u ^ " " ^ s) (Gen.corpus w ~seed))
        ^ Gen.to_string
            (Array.of_list (List.map (fun ops -> { Gen.due_ms = 0.0; op = Gen.Update ops }) probe))
      in
      let a = trace 11 and b = trace 11 in
      Alcotest.(check bool) (w.Gen.name ^ ": byte-identical") true (String.equal a b);
      Alcotest.(check bool) (w.Gen.name ^ ": seed matters") false (String.equal a (trace 12)))
    Gen.workloads

let test_schedule_shape () =
  List.iter
    (fun w ->
      let ev, _ = Gen.inputs w ~seed:3 ~seconds:1.0 in
      let queries =
        Array.fold_left (fun n e -> match e.Gen.op with Gen.Query _ -> n + 1 | _ -> n) 0 ev
      in
      Alcotest.(check int) (w.Gen.name ^ ": rate x seconds") (Gen.requests_for w ~seconds:1.0)
        queries;
      let fams =
        List.sort_uniq compare
          (Array.to_list ev
          |> List.filter_map (fun e ->
                 match e.Gen.op with Gen.Query q -> Some q.Gen.family | _ -> None))
      in
      Alcotest.(check int) (w.Gen.name ^ ": every family present") 3 (List.length fams))
    Gen.workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile vs nearest-rank reference" `Quick test_percentile;
          Alcotest.test_case "exact whole-percent ranks" `Quick test_percentile_exact_ranks;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "stall delays the requests behind it" `Quick test_due_time_charging;
          Alcotest.test_case "on-time requests have no lag" `Quick test_no_stall_no_lag;
        ] );
      ("prom", [ Alcotest.test_case "delta of two scrapes" `Quick test_prom_delta ]);
      ( "gen",
        [
          Alcotest.test_case "same seed, byte-identical trace" `Quick test_same_seed_same_trace;
          Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
        ] );
    ]
