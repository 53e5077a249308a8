(* Error paths as API: every failure mode surfaces a structured
   Xquery.Errors.Error whose *code* (never the message) is the contract.
   One table drives malformed queries, undefined names, type mismatches,
   full-text errors and resource-limit violations through Engine.run. *)

open Galatex

let engine = lazy (Corpus.Usecases.engine ())

let code = Alcotest.testable (Fmt.of_to_string Xquery.Errors.code_string) ( = )

let run ?limits src = Engine.run (Lazy.force engine) ?limits src

let expect_code ?limits name expected src =
  match run ?limits src with
  | exception Xquery.Errors.Error e ->
      Alcotest.check code name expected e.Xquery.Errors.code
  | v ->
      Alcotest.failf "%s: expected %s, got value [%s]" name
        (Xquery.Errors.code_string expected)
        (Xquery.Value.to_display_string v)

(* --- the static / dynamic / type / full-text error table --- *)

let error_table =
  [
    (* static *)
    ("unclosed predicate", "//book[", Xquery.Errors.XPST0003);
    ("dangling for", "for $x in", Xquery.Errors.XPST0003);
    ("bad operator", "1 +", Xquery.Errors.XPST0003);
    ("undefined variable", "$no_such_variable", Xquery.Errors.XPST0008);
    ("unknown function", "no:such-function(1)", Xquery.Errors.XPST0017);
    ("wrong arity", "count()", Xquery.Errors.XPST0017);
    (* dynamic *)
    ("missing document", {|doc("missing.xml")|}, Xquery.Errors.FODC0002);
    ("zero-or-one violation", "zero-or-one((1, 2))", Xquery.Errors.FORG0003);
    ("one-or-more violation", "one-or-more(())", Xquery.Errors.FORG0004);
    ("exactly-one violation", "exactly-one((1, 2))", Xquery.Errors.FORG0005);
    ("invalid regex", {|matches("a", "(unclosed")|}, Xquery.Errors.FORX0002);
    (* type *)
    ("arith on sequence", "1 + (1, 2)", Xquery.Errors.XPTY0004);
    ("ebv of atomics", "if ((1, 2)) then 1 else 2", Xquery.Errors.XPTY0004);
    ("division by zero", "1 idiv 0", Xquery.Errors.FOAR0001);
    (* full text *)
    ( "weight above one",
      {|ft:score(//book, "usability" weight 3.0)|},
      Xquery.Errors.FTDY0016 );
    ( "negative weight",
      {|//book[. ftcontains "usability" weight -0.5]|},
      Xquery.Errors.FTDY0016 );
  ]

let test_error_table () =
  List.iter (fun (name, src, expected) -> expect_code name expected src) error_table

(* A weight outside [0,1] is FTDY0016 under every strategy, wherever the
   weighted leaf sits: alone, behind a disjunct that already satisfies
   every node, or behind a conjunct that no node satisfies. *)
let test_weight_every_strategy () =
  let eng =
    Engine.of_strings
      [ ("w.xml", "<doc><p>alpha beta</p><p>alpha gamma</p></doc>") ]
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun sel ->
          let src = Printf.sprintf "count(//p[. ftcontains %s])" sel in
          let name = Engine.strategy_name strategy ^ ": " ^ src in
          match Engine.run eng ~strategy src with
          | exception Xquery.Errors.Error e ->
              Alcotest.check code name Xquery.Errors.FTDY0016 e.Xquery.Errors.code
          | v ->
              Alcotest.failf "%s: expected FTDY0016, got [%s]" name
                (Xquery.Value.to_display_string v))
        [
          {|"alpha" weight 2.0|};
          {|"alpha" || ("beta" weight 2.0)|};
          {|"qqq" && ("beta" weight 2.0)|};
        ])
    [ Engine.Native_materialized; Engine.Translated ]

(* --- resource limits: each limit has its own code and terminates the
   query promptly instead of hanging / OOMing --- *)

let test_step_budget () =
  let limits = { Xquery.Limits.defaults with Xquery.Limits.max_steps = Some 100 } in
  expect_code ~limits "step budget" Xquery.Errors.GTLX0001
    "sum(for $i in 1 to 1000 return $i)";
  (* small queries stay under the same budget *)
  Alcotest.(check string)
    "under budget" "3"
    (Xquery.Value.to_display_string (run ~limits "1 + 2"))

let test_recursion_depth () =
  (* infinite recursion terminates with GTLX0002 under the *default*
     limits — no Stack_overflow, no hang *)
  expect_code "runaway recursion" Xquery.Errors.GTLX0002
    "declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)";
  let limits = { Xquery.Limits.defaults with Xquery.Limits.max_depth = Some 10 } in
  expect_code ~limits "depth limit" Xquery.Errors.GTLX0002
    "declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) }; local:f(50)";
  Alcotest.(check string)
    "shallow recursion ok" "0"
    (Xquery.Value.to_display_string
       (run ~limits
          "declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) }; local:f(5)"))

let test_materialization_limit () =
  let limits =
    { Xquery.Limits.defaults with Xquery.Limits.max_matches = Some 1000 }
  in
  expect_code ~limits "huge range" Xquery.Errors.GTLX0003 "1 to 100000000";
  expect_code ~limits "flwor cross product" Xquery.Errors.GTLX0003
    "for $a in 1 to 100 for $b in 1 to 100 return $a";
  (* the FTAnd cross-product bomb from the paper's Section 4 analysis *)
  expect_code
    ~limits:{ Xquery.Limits.defaults with Xquery.Limits.max_matches = Some 5 }
    "ftand materialization" Xquery.Errors.GTLX0003
    {|//book[. ftcontains "usability" && "software"]|};
  Alcotest.(check string)
    "small query under cap" "10"
    (Xquery.Value.to_display_string (run ~limits "count(1 to 10)"))

(* One paragraph holding [n] occurrences of each of [words], interleaved. *)
let repeated_words n words =
  let tokens = List.concat (List.init n (fun _ -> words)) in
  Engine.of_strings
    [ ("r.xml", "<doc><p>" ^ String.concat " " tokens ^ "</p></doc>") ]

let expect_code_in eng ?limits name expected src =
  match Engine.run eng ?limits src with
  | exception Xquery.Errors.Error e ->
      Alcotest.check code name expected e.Xquery.Errors.code
  | v ->
      Alcotest.failf "%s: expected %s, got value [%s]" name
        (Xquery.Errors.code_string expected)
        (Xquery.Value.to_display_string v)

(* A node's verdict pairs FTAnd matches one at a time and stops at the
   first pair that satisfies it; a filter that rejects every pair still
   builds as many pairs as the cross product holds, and meets the cap. *)
let test_enumerated_pairs_capped () =
  let eng = repeated_words 4 [ "alpha"; "beta" ] in
  let limits =
    { Xquery.Limits.defaults with Xquery.Limits.max_matches = Some 10 }
  in
  expect_code_in eng ~limits "every pair rejected" Xquery.Errors.GTLX0003
    {|count(//p[. ftcontains ("alpha" && "beta") distance exactly 100 words])|};
  Alcotest.(check string)
    "first pair satisfies" "1"
    (Xquery.Value.to_display_string
       (Engine.run eng ~limits
          {|count(//p[. ftcontains ("alpha" && "beta") distance at most 1 words])|}))

let test_timeout () =
  let limits = { Xquery.Limits.defaults with Xquery.Limits.timeout = Some 0.0 } in
  expect_code ~limits "expired deadline" Xquery.Errors.GTLX0004
    "sum(for $i in 1 to 100000 return $i)";
  (* 300^3 pairs, none kept, and no step between them: the deadline is
     met inside one node's verdict *)
  expect_code_in (repeated_words 300 [ "alpha"; "beta"; "gamma" ])
    ~limits:{ Xquery.Limits.defaults with Xquery.Limits.timeout = Some 0.2 }
    "deadline inside a verdict" Xquery.Errors.GTLX0004
    {|count(//p[. ftcontains ("alpha" && "beta" && "gamma") distance exactly 100000 words])|}

let test_limits_do_not_leak_between_runs () =
  (* each run gets a fresh governor: spending the budget once must not
     poison the next run *)
  let limits = { Xquery.Limits.defaults with Xquery.Limits.max_steps = Some 200 } in
  (match run ~limits "sum(for $i in 1 to 1000 return $i)" with
  | exception Xquery.Errors.Error _ -> ()
  | _ -> Alcotest.fail "budget should be exceeded");
  Alcotest.(check string)
    "fresh budget" "6"
    (Xquery.Value.to_display_string (run ~limits "1 + 2 + 3"))

let test_error_classes () =
  let open Xquery.Errors in
  Alcotest.(check string) "static" "static" (class_string (class_of XPST0003));
  Alcotest.(check string) "type" "type" (class_string (class_of XPTY0004));
  Alcotest.(check string) "dynamic" "dynamic" (class_string (class_of FODC0002));
  List.iter
    (fun c ->
      Alcotest.(check string) "resource" "resource" (class_string (class_of c)))
    [ GTLX0001; GTLX0002; GTLX0003; GTLX0004 ];
  Alcotest.(check string) "internal" "internal" (class_string (class_of GTLX0005));
  (* storage errors are environmental, like FODC0002: dynamic class *)
  List.iter
    (fun c ->
      Alcotest.(check string) "storage is dynamic" "dynamic"
        (class_string (class_of c)))
    [ GTLX0006; GTLX0007; GTLX0008 ];
  (* overload shedding terminates a request like a resource limit would *)
  Alcotest.(check string) "overload is resource" "resource"
    (class_string (class_of GTLX0009));
  (* an unreplayable update log is environmental damage, like a corrupt
     snapshot: dynamic class *)
  Alcotest.(check string) "unreplayable log is dynamic" "dynamic"
    (class_string (class_of GTLX0010));
  (* a freshness-bound failure terminates the request like overload
     shedding: the caller chose the bound — resource class *)
  Alcotest.(check string) "stale failover is resource" "resource"
    (class_string (class_of GTLX0012));
  Alcotest.(check string) "storage code string" "gtlx:GTLX0006"
    (code_string GTLX0006);
  Alcotest.(check string) "update-log code string" "gtlx:GTLX0010"
    (code_string GTLX0010);
  Alcotest.(check string) "stale-failover code string" "gtlx:GTLX0012"
    (code_string GTLX0012);
  (* an epoch-fenced write is environmental (the cluster moved on, the
     caller's view is stale), like a storage error: dynamic class *)
  Alcotest.(check string) "epoch fencing is dynamic" "dynamic"
    (class_string (class_of GTLX0013));
  Alcotest.(check string) "epoch-fencing code string" "gtlx:GTLX0013"
    (code_string GTLX0013);
  (* a network I/O deadline expiry terminates the request like any other
     exhausted budget: resource class, retryable *)
  Alcotest.(check string) "io deadline is resource" "resource"
    (class_string (class_of GTLX0014));
  Alcotest.(check string) "io-deadline code string" "gtlx:GTLX0014"
    (code_string GTLX0014)

let tests =
  [
    Alcotest.test_case "error-code table" `Quick test_error_table;
    Alcotest.test_case "weight outside [0,1] under every strategy" `Quick
      test_weight_every_strategy;
    Alcotest.test_case "step budget (GTLX0001)" `Quick test_step_budget;
    Alcotest.test_case "recursion depth (GTLX0002)" `Quick test_recursion_depth;
    Alcotest.test_case "materialization (GTLX0003)" `Quick
      test_materialization_limit;
    Alcotest.test_case "enumerated FTAnd pairs capped (GTLX0003)" `Quick
      test_enumerated_pairs_capped;
    Alcotest.test_case "timeout (GTLX0004)" `Quick test_timeout;
    Alcotest.test_case "fresh governor per run" `Quick
      test_limits_do_not_leak_between_runs;
    Alcotest.test_case "error classes" `Quick test_error_classes;
  ]
