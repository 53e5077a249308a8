(* Extensions the paper calls for explicitly: stop-word-aware word counting
   in FTDistance / FTWindow (Section 3.2.3.2: these primitives "skip stop
   words when specified") and approximate matching (Section 3.3: failing
   matches "might be returned with a lower score"). *)

open Galatex

(* "alpha the of beta" — with stop words {the, of} active, alpha..beta are
   adjacent in counted words *)
let engine =
  lazy
    (Engine.of_strings
       [
         ( "d.xml",
           "<doc><p>alpha the of beta gamma. delta one two three four five epsilon.</p></doc>"
         );
       ])

let selection ?approximate src =
  Engine.selection_all_matches ?approximate (Lazy.force engine) src

let size = All_matches.size
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let test_distance_skips_stop_words () =
  (* raw distance alpha(1)..beta(4) is 2 words between; with the stop list
     active, the two intervening stop words do not count *)
  check_int "raw distance fails at most 0" 0
    (size (selection {|"alpha" && "beta" distance at most 0 words|}));
  check_int "stop-aware distance succeeds" 1
    (size
       (selection
          {|"alpha" && "beta" distance at most 0 words with stop words ("the", "of")|}));
  check_int "unrelated stop list does not help" 0
    (size
       (selection
          {|"alpha" && "beta" distance at most 0 words with stop words ("zzz")|}))

let test_window_skips_stop_words () =
  (* window alpha..beta spans 4 raw positions but only 2 counted words *)
  check_int "raw window 2 fails" 0
    (size (selection {|"alpha" && "beta" window 2 words|}));
  check_int "stop-aware window 2 succeeds" 1
    (size
       (selection
          {|"alpha" && "beta" window 2 words with stop words ("the", "of")|}))

let test_cross_strategy_stop_distance () =
  (* the translated path uses the fts:wordDistance primitive; both
     strategies must agree *)
  let queries =
    [
      {|count(//p[. ftcontains "alpha" && "beta" distance at most 0 words with stop words ("the", "of")])|};
      {|count(//p[. ftcontains "alpha" && "beta" window 2 words with stop words ("the", "of")])|};
      {|count(//p[. ftcontains "delta" && "epsilon" distance at most 2 words with default stop words])|};
    ]
  in
  List.iter
    (fun q ->
      let run s =
        Xquery.Value.to_display_string
          (Engine.run (Lazy.force engine) ~strategy:s q)
      in
      let reference = run Engine.Native_materialized in
      Alcotest.check Alcotest.string ("translated: " ^ q) reference
        (run Engine.Translated))
    queries

let test_default_stop_words_counting () =
  (* "delta one two three four five epsilon": the numbers are not stop
     words, but with the default English list, none of them are dropped —
     whereas "the"/"of" would be *)
  check_int "numbers still count" 0
    (size
       (selection
          {|"delta" && "epsilon" distance at most 2 words with default stop words|}))

(* --- approximate matching --- *)

let test_approximate_keeps_near_misses () =
  let strict = selection {|"alpha" && "gamma" distance at most 1 words|} in
  let approx =
    selection ~approximate:true {|"alpha" && "gamma" distance at most 1 words|}
  in
  check_int "strict drops the miss" 0 (size strict);
  check_int "approximate keeps it" 1 (size approx);
  let m = List.hd approx.All_matches.matches in
  check_bool "penalized score in (0,1)" true
    (m.All_matches.score > 0.0 && m.All_matches.score < 1.0)

let test_approximate_scores_rank_by_closeness () =
  (* beta is closer to alpha than epsilon is to delta — under the same
     failing bound, the closer pair keeps the higher score *)
  let score src =
    match (selection ~approximate:true src).All_matches.matches with
    | [ m ] -> m.All_matches.score
    | ms -> Alcotest.failf "expected one match, got %d" (List.length ms)
  in
  let near = score {|"alpha" && "beta" distance at most 0 words|} in
  let far = score {|"delta" && "epsilon" distance at most 0 words|} in
  check_bool "closer miss scores higher" true (near > far)

let test_approximate_satisfying_matches_unchanged () =
  (* matches that satisfy the constraint get the identical (damped) score *)
  let strict = selection {|"alpha" && "beta" distance at most 5 words|} in
  let approx =
    selection ~approximate:true {|"alpha" && "beta" distance at most 5 words|}
  in
  check_int "same match count" (size strict) (size approx);
  List.iter2
    (fun (a : All_matches.match_) (b : All_matches.match_) ->
      Alcotest.check (Alcotest.float 1e-12) "same score" a.All_matches.score
        b.All_matches.score)
    strict.All_matches.matches approx.All_matches.matches

let test_approximate_window () =
  let strict = selection {|"alpha" && "gamma" window 2 words|} in
  let approx = selection ~approximate:true {|"alpha" && "gamma" window 2 words|} in
  check_int "strict drops" 0 (size strict);
  check_int "approx keeps" 1 (size approx)

let tests =
  [
    Alcotest.test_case "distance skips stop words" `Quick
      test_distance_skips_stop_words;
    Alcotest.test_case "window skips stop words" `Quick
      test_window_skips_stop_words;
    Alcotest.test_case "cross-strategy stop-aware counting" `Quick
      test_cross_strategy_stop_distance;
    Alcotest.test_case "default stop list counting" `Quick
      test_default_stop_words_counting;
    Alcotest.test_case "approximate keeps near misses" `Quick
      test_approximate_keeps_near_misses;
    Alcotest.test_case "approximate ranks by closeness" `Quick
      test_approximate_scores_rank_by_closeness;
    Alcotest.test_case "approximate preserves satisfying scores" `Quick
      test_approximate_satisfying_matches_unchanged;
    Alcotest.test_case "approximate window" `Quick test_approximate_window;
  ]
