(* Fault-injection sweep (the robustness contract of the engine boundary):
   arm a deterministic "fail at eval step N" injector for every reachable
   step index and assert that Engine.run_report either

     - answers correctly after falling back to the reference materialized
       strategy (fallback enabled, translated strategy), or
     - raises a structured Errors.Error with an Internal-class code
       (fallback disabled),

   and NEVER lets a raw Failure / Stack_overflow / arbitrary OCaml
   exception escape. *)

open Galatex

let engine = lazy (Corpus.Usecases.engine ())

(* A query that exercises parsing, FLWOR, paths, a batched predicate (whose
   top-level FTOr stops at the first satisfying disjunct) and a per-node
   ftcontains, so injection points cover every evaluation layer. *)
let query =
  {|for $b in collection()//book[. ftcontains "software" || "usability"]
    where $b ftcontains "usability" || "software"
    return string($b/@number)|}

let baseline strategy =
  let r = Engine.run_report (Lazy.force engine) ~strategy query in
  Alcotest.(check bool) "baseline does not fall back" false r.Engine.fell_back;
  r

(* Sweep at most ~150 injection points so the quadratic cost stays cheap;
   always include the first and last steps. *)
let sweep_points total =
  let stride = max 1 (total / 150) in
  let rec go n acc = if n > total then acc else go (n + stride) (n :: acc) in
  List.sort_uniq compare (1 :: total :: go 1 [])

let test_sweep_fallback () =
  let base = baseline Engine.Translated in
  let expected = Xquery.Value.to_display_string base.Engine.value in
  List.iter
    (fun n ->
      match
        Engine.run_report (Lazy.force engine) ~strategy:Engine.Translated
          ~fault_at:n ~fallback:true query
      with
      | r ->
          Alcotest.(check bool)
            (Printf.sprintf "fault@%d degraded gracefully" n)
            true r.Engine.fell_back;
          Alcotest.(check string)
            (Printf.sprintf "fault@%d same answer" n)
            expected
            (Xquery.Value.to_display_string r.Engine.value);
          (match r.Engine.fallback_error with
          | Some e ->
              Alcotest.(check string)
                (Printf.sprintf "fault@%d recorded as internal" n)
                "internal"
                (Xquery.Errors.class_string
                   (Xquery.Errors.class_of e.Xquery.Errors.code))
          | None -> Alcotest.failf "fault@%d: fallback_error not recorded" n)
      | exception Xquery.Errors.Error _ ->
          (* acceptable only if the fallback path itself was faulted;
             with a single-shot injector this cannot happen *)
          Alcotest.failf "fault@%d: fallback should have absorbed the fault" n
      | exception e ->
          Alcotest.failf "fault@%d: raw exception escaped: %s" n
            (Printexc.to_string e))
    (sweep_points base.Engine.steps)

let test_sweep_no_fallback () =
  (* without fallback every injected fault must surface as a structured
     internal error — never a raw exception *)
  let base = baseline Engine.Translated in
  List.iter
    (fun n ->
      match
        Engine.run_report (Lazy.force engine) ~strategy:Engine.Translated
          ~fault_at:n ~fallback:false query
      with
      | _ -> Alcotest.failf "fault@%d: expected an error" n
      | exception Xquery.Errors.Error e ->
          Alcotest.(check string)
            (Printf.sprintf "fault@%d structured internal" n)
            "internal"
            (Xquery.Errors.class_string
               (Xquery.Errors.class_of e.Xquery.Errors.code))
      | exception e ->
          Alcotest.failf "fault@%d: raw exception escaped: %s" n
            (Printexc.to_string e))
    (sweep_points base.Engine.steps)

let test_reference_strategy_never_falls_back () =
  (* the reference path has nothing to fall back to: injected faults
     surface as structured GTLX0005 even with fallback enabled *)
  let base =
    Engine.run_report (Lazy.force engine) ~strategy:Engine.Native_materialized
      query
  in
  List.iter
    (fun n ->
      match
        Engine.run_report (Lazy.force engine)
          ~strategy:Engine.Native_materialized ~fault_at:n ~fallback:true query
      with
      | _ -> Alcotest.failf "fault@%d: expected an error" n
      | exception
          Xquery.Errors.Error { code = Xquery.Errors.GTLX0005; _ } ->
          ()
      | exception e ->
          Alcotest.failf "fault@%d: expected GTLX0005, got %s" n
            (Printexc.to_string e))
    (sweep_points base.Engine.steps)

let test_fallback_counter () =
  let eng = Corpus.Usecases.engine () in
  Alcotest.(check int) "fresh engine" 0 (Engine.fallback_count eng);
  ignore
    (Engine.run_report eng ~strategy:Engine.Translated ~fault_at:5
       ~fallback:true query);
  Alcotest.(check int) "one degradation" 1 (Engine.fallback_count eng)

let test_translated_strategy_faults () =
  (* the translated (all-XQuery) strategy runs through the same governed
     eval loop, so injection works there too *)
  match
    Engine.run_report (Lazy.force engine) ~strategy:Engine.Translated
      ~fault_at:50 ~fallback:true query
  with
  | r -> Alcotest.(check bool) "fell back" true r.Engine.fell_back
  | exception Xquery.Errors.Error _ -> ()
  | exception e ->
      Alcotest.failf "raw exception escaped: %s" (Printexc.to_string e)

let tests =
  [
    Alcotest.test_case "sweep: fallback absorbs faults" `Quick
      test_sweep_fallback;
    Alcotest.test_case "sweep: structured errors without fallback" `Quick
      test_sweep_no_fallback;
    Alcotest.test_case "sweep: reference strategy surfaces GTLX0005" `Quick
      test_reference_strategy_never_falls_back;
    Alcotest.test_case "fallback counter" `Quick test_fallback_counter;
    Alcotest.test_case "translated strategy" `Quick
      test_translated_strategy_faults;
  ]
