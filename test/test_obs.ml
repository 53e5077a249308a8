(* Observability: the span recorder, the engine's counter semantics, and
   the Section 4 pipelined <= materialized property.  Every timing
   assertion runs under an injected Obs.Clock.manual — no wall-clock
   sleeps, no tolerance windows. *)

open Galatex

let engine = lazy (Corpus.Usecases.engine ())

let counters_of ?clock ?strategy src =
  let report = Engine.run_report (Lazy.force engine) ?clock ?strategy src in
  report.Engine.counters

(* --- manual clock ------------------------------------------------- *)

let test_manual_clock () =
  let c = Obs.Clock.manual ~start:10. ~step:2. () in
  List.iter
    (fun want -> Alcotest.(check (float 0.)) "tick" want (c ()))
    [ 10.; 12.; 14.; 16. ]

(* --- span trees ---------------------------------------------------- *)

(* A span tree is well-nested when every child's interval lies inside its
   parent's and closed children never outlast the parent. *)
let rec well_nested (s : Obs.Trace.span) =
  Obs.Trace.duration s >= 0.
  && List.for_all
       (fun (c : Obs.Trace.span) ->
         c.Obs.Trace.start >= s.Obs.Trace.start
         && c.Obs.Trace.finish <= s.Obs.Trace.finish
         && Obs.Trace.duration c <= Obs.Trace.duration s
         && well_nested c)
       s.Obs.Trace.children

let rec span_count (s : Obs.Trace.span) =
  1 + List.fold_left (fun acc c -> acc + span_count c) 0 s.Obs.Trace.children

(* random nesting scripts for the recorder *)
type shape = Shape of shape list

let rec shape_size (Shape children) =
  1 + List.fold_left (fun acc c -> acc + shape_size c) 0 children

let gen_shape =
  let open QCheck2.Gen in
  sized
    (fix (fun self n ->
         if n = 0 then pure (Shape [])
         else
           map
             (fun l -> Shape l)
             (list_size (int_range 0 3) (self (n / 2)))))

let rec record tr depth (Shape children) =
  Obs.Trace.with_span tr (Printf.sprintf "s%d" depth) (fun () ->
      List.iter (fun c -> record tr (depth + 1) c) children)

let prop_spans_well_nested =
  QCheck2.Test.make ~name:"recorded span trees are well-nested" ~count:100
    gen_shape (fun shape ->
      let tr = Obs.Trace.make ~clock:(Obs.Clock.manual ()) () in
      record tr 0 shape;
      match Obs.Trace.root tr with
      | None -> false
      | Some root ->
          (* with a step-1 manual clock each span consumes exactly two
             ticks, so a subtree of [k] spans spans [2k - 1] ticks *)
          let rec exact (s : Obs.Trace.span) =
            Obs.Trace.duration s = float_of_int ((2 * span_count s) - 1)
            && List.for_all exact s.Obs.Trace.children
          in
          well_nested root && span_count root = shape_size shape && exact root)

let test_span_exceptions () =
  let tr = Obs.Trace.make ~clock:(Obs.Clock.manual ()) () in
  (try
     Obs.Trace.with_span tr "outer" (fun () ->
         Obs.Trace.with_span tr "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  match Obs.Trace.root tr with
  | None -> Alcotest.fail "no root after exception"
  | Some root ->
      Alcotest.(check string) "root name" "outer" root.Obs.Trace.name;
      Alcotest.(check bool) "still well-nested" true (well_nested root);
      Alcotest.(check int) "both spans closed" 2 (span_count root)

(* --- engine trace shape -------------------------------------------- *)

let rec find_span name (s : Obs.Trace.span) =
  if s.Obs.Trace.name = name then Some s
  else List.find_map (find_span name) s.Obs.Trace.children

let test_engine_trace_shape () =
  let clock = Obs.Clock.manual () in
  let report =
    Engine.run_report (Lazy.force engine) ~clock
      {|count(collection()//book[. ftcontains "usability"])|}
  in
  let root = report.Engine.trace in
  Alcotest.(check string) "root is the query span" "query" root.Obs.Trace.name;
  Alcotest.(check bool) "well-nested" true (well_nested root);
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (phase ^ " span present") true
        (find_span phase root <> None))
    [ "parse"; "eval"; "ft_eval" ];
  let json = Obs.Trace.to_json root in
  let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true (contains needle json))
    [ {|"name":"query"|}; {|"children":[|}; {|"duration":|} ]

let test_trace_uses_injected_clock () =
  let clock = Obs.Clock.manual ~start:100. ~step:1. () in
  let report =
    Engine.run_report (Lazy.force engine) ~clock
      {|count(collection()//book[. ftcontains "usability"])|}
  in
  let root = report.Engine.trace in
  Alcotest.(check (float 0.)) "root starts at the injected origin" 100.
    root.Obs.Trace.start;
  (* durations are whole tick counts under the step-1 manual clock *)
  Alcotest.(check bool) "integral duration" true
    (Float.is_integer (Obs.Trace.duration root) && Obs.Trace.duration root > 0.)

(* --- counters ------------------------------------------------------ *)

let all_non_negative c =
  List.for_all (fun (_, v) -> v >= 0) (Xquery.Limits.counters_to_list c)

let queries =
  [
    {|count(collection()//book[. ftcontains "usability" && "testing"])|};
    {|count(collection()//p[. ftcontains "usability" || "databases"])|};
    {|count(collection()//p[. ftcontains "usability" && "product" window 13 words])|};
    {|count(collection()//chapter[./title ftcontains "usability" && "assessment" ordered])|};
  ]

let test_counters_non_negative () =
  List.iter
    (fun src ->
      List.iter
        (fun strategy ->
          Alcotest.(check bool)
            (Printf.sprintf "non-negative counters: %s" src)
            true
            (all_non_negative (counters_of ~strategy src)))
        [ Engine.Native_materialized; Engine.Native_pipelined; Engine.Translated ])
    queries

(* A counter snapshot is per-run; the serving layer's aggregation across
   requests is plain addition into a Metrics registry.  Two identical
   requests must therefore read as exactly twice one request. *)
let test_counters_additive () =
  let m = Obs.Metrics.create () in
  let src = List.hd queries in
  let once = counters_of src in
  let accumulate c =
    List.iter (fun (k, v) -> Obs.Metrics.add m k v) (Xquery.Limits.counters_to_list c)
  in
  accumulate (counters_of src);
  accumulate (counters_of src);
  List.iter
    (fun (k, v) ->
      Alcotest.(check int) (k ^ " additive across requests") (2 * v)
        (Obs.Metrics.get m k))
    (Xquery.Limits.counters_to_list once)

let prop_metrics_additive =
  QCheck2.Test.make ~name:"metrics registry sums adds per name" ~count:100
    QCheck2.Gen.(
      small_list (pair (oneofl [ "a"; "b"; "c" ]) (int_range 0 1000)))
    (fun adds ->
      let m = Obs.Metrics.create () in
      List.iter (fun (k, v) -> Obs.Metrics.add m k v) adds;
      List.for_all
        (fun name ->
          Obs.Metrics.get m name
          = List.fold_left
              (fun acc (k, v) -> if k = name then acc + v else acc)
              0 adds)
        [ "a"; "b"; "c" ])

(* --- Section 4: pipelined <= materialized -------------------------- *)

let vocab =
  [ "usability"; "testing"; "software"; "databases"; "quality"; "product";
    "experts"; "users"; "relational"; "nosuchword" ]

let gen_selection =
  Ft_gen.(
    selection ~words:vocab ~options:[ "" ] ~leaf_weight:3
      [ (2, And); (2, Or); (1, Window (2, 20)); (1, Distance (1, 15)); (1, Ordered) ])

let gen_context = QCheck2.Gen.oneofl [ "//book"; "//p"; "//chapter"; "//title" ]

let prop_pipelined_materializes_no_more =
  QCheck2.Test.make
    ~name:"pipelined materializes no more than materialized (Section 4)"
    ~count:40
    QCheck2.Gen.(pair gen_context gen_selection)
    (fun (ctx, sel) ->
      let src = Printf.sprintf "count(collection()%s[. ftcontains %s])" ctx sel in
      let mat = counters_of ~strategy:Engine.Native_materialized src in
      let pipe = counters_of ~strategy:Engine.Native_pipelined src in
      pipe.Xquery.Limits.allmatches_materialized
      <= mat.Xquery.Limits.allmatches_materialized)

(* --- histograms and the ring --------------------------------------- *)

let prop_histogram_cumulative =
  QCheck2.Test.make ~name:"histogram cumulative buckets are monotone"
    ~count:100
    QCheck2.Gen.(small_list (float_bound_inclusive 20.))
    (fun values ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) values;
      let cum = Obs.Histogram.cumulative h in
      let counts = List.map snd cum in
      Obs.Histogram.count h = List.length values
      && List.for_all2 ( <= ) counts (List.tl counts @ [ max_int ])
      && (match List.rev cum with
         | (le, total) :: _ -> le = infinity && total = List.length values
         | [] -> false))

let prop_ring_newest_first =
  QCheck2.Test.make ~name:"ring keeps the newest [capacity] entries"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 8) (small_list int))
    (fun (capacity, xs) ->
      let r = Obs.Ring.create ~capacity in
      List.iter (Obs.Ring.add r) xs;
      let want =
        let rec take n = function
          | x :: tl when n > 0 -> x :: take (n - 1) tl
          | _ -> []
        in
        take capacity (List.rev xs)
      in
      Obs.Ring.entries r = want)

let tests =
  [
    Alcotest.test_case "manual clock is deterministic" `Quick test_manual_clock;
    QCheck_alcotest.to_alcotest prop_spans_well_nested;
    Alcotest.test_case "spans close on exceptions" `Quick test_span_exceptions;
    Alcotest.test_case "engine trace has the documented shape" `Quick
      test_engine_trace_shape;
    Alcotest.test_case "trace honours the injected clock" `Quick
      test_trace_uses_injected_clock;
    Alcotest.test_case "run counters are non-negative" `Quick
      test_counters_non_negative;
    Alcotest.test_case "counters are additive across requests" `Quick
      test_counters_additive;
    QCheck_alcotest.to_alcotest prop_metrics_additive;
    QCheck_alcotest.to_alcotest prop_pipelined_materializes_no_more;
    QCheck_alcotest.to_alcotest prop_histogram_cumulative;
    QCheck_alcotest.to_alcotest prop_ring_newest_first;
  ]
