(* Scoring (paper Section 3.3): the probabilistic-relational-algebra
   formulas and the two W3C scoring requirements of Section 2.2. *)

open Galatex

let engine = lazy (Corpus.Usecases.engine ())
let env () = Engine.env (Lazy.force engine)

let books () =
  List.map snd (Ftindex.Inverted.documents (Engine.index (Lazy.force engine)))

let selection src =
  Engine.selection_all_matches (Lazy.force engine) src

let score_of node src = Score.node_score (env ()) node (selection src)

let check_bool = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_requirement_zero_iff_no_match () =
  List.iter
    (fun doc ->
      List.iter
        (fun src ->
          check_bool
            (Printf.sprintf "req (i) for %s" src)
            true
            (Score.requirement_zero_iff_no_match (env ()) doc (selection src)))
        [
          {|"usability"|};
          {|"usability" && "databases"|};
          {|"usability" || "relational"|};
          {|"usability" && "testing" window 8 words|};
          {|"nosuchword"|};
          {|! "usability"|};
        ])
    (books ())

let test_scores_bounded () =
  List.iter
    (fun doc ->
      let s = score_of doc {|"usability" && "testing"|} in
      check_bool "in [0,1]" true (Score.requirement_in_unit_interval s))
    (books ())

let test_ftand_product_formula () =
  (* a single-occurrence conjunction's match score is the product of the
     entry scores *)
  let am_u = selection {|"heuristic"|} in
  let am_d = selection {|"declarative"|} in
  let am_and = selection {|"heuristic" && "declarative"|} in
  match
    (am_u.All_matches.matches, am_d.All_matches.matches, am_and.All_matches.matches)
  with
  | [ mu ], [ md ], [ mand ] ->
      checkf "s3 = s1 * s2"
        (mu.All_matches.score *. md.All_matches.score)
        mand.All_matches.score
  | _ -> Alcotest.fail "expected single occurrences"

let test_ftor_keeps_scores () =
  let am_u = selection {|"heuristic"|} in
  let am_or = selection {|"heuristic" || "nosuchword"|} in
  match (am_u.All_matches.matches, am_or.All_matches.matches) with
  | [ mu ], [ mor ] -> checkf "score kept" mu.All_matches.score mor.All_matches.score
  | _ -> Alcotest.fail "expected single matches"

let test_noisy_or_composition () =
  checkf "noisy or" 0.75 (Score.compose_noisy_or [ 0.5; 0.5 ]);
  checkf "empty" 0.0 (Score.compose_noisy_or []);
  (* monotonicity: more matches, higher score *)
  check_bool "monotone" true
    (Score.compose_noisy_or [ 0.3; 0.3 ] > Score.compose_noisy_or [ 0.3 ])

let test_weights_scale () =
  let b1 =
    List.find
      (fun d ->
        match Ftindex.Inverted.doc_of_node (Engine.index (Lazy.force engine)) d with
        | Some "book1.xml" -> true
        | _ -> false)
      (books ())
  in
  let high = score_of b1 {|"usability" weight 0.9|} in
  let low = score_of b1 {|"usability" weight 0.1|} in
  check_bool "higher weight, higher score" true (high > low);
  check_bool "both positive" true (low > 0.0)

let test_distance_damping () =
  (* tighter matches score at least as high under the damping formula *)
  let wide = selection {|"usability" && "testing" distance at most 50 words|} in
  let result_scores am =
    List.map (fun (m : All_matches.match_) -> m.All_matches.score) am.All_matches.matches
  in
  List.iter
    (fun s -> check_bool "damped score in (0,1]" true (s > 0.0 && s <= 1.0))
    (result_scores wide)

let test_score_ranking_via_query () =
  (* the paper's top-k pattern returns books ranked by relevance *)
  let v =
    Engine.run (Lazy.force engine)
      {|let $ranked := for $b in collection()//book
                      let $s := ft:score($b, "usability" && "testing")
                      where $s > 0
                      order by $s descending
                      return string($b/@number)
        return $ranked[1]|}
  in
  Alcotest.check Alcotest.string "book 1 wins" "1"
    (Xquery.Value.to_display_string v)

let prop_score_requirements =
  QCheck2.Test.make ~name:"scoring requirements on random selections" ~count:50
    (QCheck2.Gen.oneofl
       [
         {|"usability"|}; {|"software" && "testing"|};
         {|"usability" || "quality"|}; {|"usability" && ! "databases"|};
         {|"software" occurs at least 2 times|};
         {|"usability" && "testing" same sentence|};
       ])
    (fun src ->
      let am = selection src in
      List.for_all
        (fun doc -> Score.requirement_zero_iff_no_match (env ()) doc am)
        (books ()))

let tests =
  [
    Alcotest.test_case "requirement (i): zero iff no match" `Quick
      test_requirement_zero_iff_no_match;
    Alcotest.test_case "scores bounded" `Quick test_scores_bounded;
    Alcotest.test_case "FTAnd product formula" `Quick test_ftand_product_formula;
    Alcotest.test_case "FTOr keeps scores" `Quick test_ftor_keeps_scores;
    Alcotest.test_case "noisy-or composition" `Quick test_noisy_or_composition;
    Alcotest.test_case "weights scale scores" `Quick test_weights_scale;
    Alcotest.test_case "distance damping bounded" `Quick test_distance_damping;
    Alcotest.test_case "ranking query" `Quick test_score_ranking_via_query;
    QCheck_alcotest.to_alcotest prop_score_requirements;
  ]
