(* Cross-strategy equivalence: the paper-faithful all-XQuery translated
   path and the native materialized operators must agree on every query —
   this is the repository's central conformance property.  The laws in
   test_laws check each strategy against the semantics itself. *)

open Galatex

let engine = lazy (Corpus.Usecases.engine ())

let strategies =
  [
    ("materialized", Engine.Native_materialized);
    ("translated", Engine.Translated);
  ]

let results ?(engine = Lazy.force engine) src strategy =
  Xquery.Value.to_display_string (Engine.run engine ~strategy src)

let check_agree src =
  let reference = results src Engine.Native_materialized in
  List.iter
    (fun (name, strategy) ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "%s on %s" name src)
        reference (results src strategy))
    strategies

let fixed_queries =
  [
    {|for $b in collection()//book[. ftcontains "usability" && "testing"] return string($b/@number)|};
    {|count(collection()//p[. ftcontains "usability" || "databases"])|};
    {|for $b in collection()//book[. ftcontains "software" occurs at least 2 times] return string($b/@number)|};
    {|count(collection()//p[. ftcontains "usability" && "software" distance at most 5 words])|};
    {|count(collection()//p[. ftcontains "usability" && "product" window 13 words])|};
    {|for $b in collection()//book[. ftcontains ! "usability"] return string($b/@number)|};
    {|for $b in collection()//book[. ftcontains "tests" with stemming] return string($b/@number)|};
    {|for $b in collection()//book[./metadata ftcontains "mitp" case sensitive] return string($b/@number)|};
    {|count(collection()//chapter[./title ftcontains "usability" && "assessment" ordered])|};
    (* scores are compared with a tolerance in prop_scores_agree: the
       translated path's floats differ in the last ulps (different
       multiplication grouping inside the XQuery interpreter) *)
    {|count(for $s in collection()//book
            let $score := ft:score($s, "usability" weight 0.5 && "testing" weight 0.5)
            where $score > 0 return $s)|};
    {|count(collection()//p[. ftcontains "usability" && "experts" same sentence])|};
    {|for $b in collection()//book[./content ftcontains "relational" without content ./content//title]
      return string($b/@number)|};
    {|for $b in collection()//book[. ftcontains "usability testing" not in "of usability testing"]
      return string($b/@number)|};
  ]

let test_fixed_queries () = List.iter check_agree fixed_queries

(* --- the FTOr short-circuit keeps IO accounting honest --- *)

(* Result-identical runs must read the same postings.  A predicate's
   top-level FTOr stops at the first disjunct that satisfies the node, so
   the batched predicate may read fewer postings than the same selection
   asked of each node alone in a where clause, which evaluates the whole
   union — never more. *)
let postings_read src =
  let report =
    Engine.run_report (Lazy.force engine) ~strategy:Engine.Native_materialized
      src
  in
  report.Engine.counters.Xquery.Limits.postings_read

let test_postings_read_stable () =
  List.iter
    (fun src ->
      Alcotest.(check int)
        (Printf.sprintf "repeated runs read identical postings: %s" src)
        (postings_read src) (postings_read src))
    fixed_queries;
  List.iter
    (fun (ctx, sel) ->
      let lazy_or =
        postings_read
          (Printf.sprintf "count(collection()%s[. ftcontains %s])" ctx sel)
      in
      let whole =
        postings_read
          (Printf.sprintf
             "count(for $n in collection()%s where $n ftcontains %s return $n)"
             ctx sel)
      in
      if not (lazy_or <= whole) then
        Alcotest.failf "the short-circuit read more postings (%d > %d) on %s"
          lazy_or whole sel)
    [
      ("//p", {|"usability" || "databases"|});
      ("//book", {|"software" || ("usability" && "testing" window 5 words)|});
      ("//chapter", {|("nosuchword" || "users" || "quality") with stemming|});
    ]

(* A context node reads only its own document's postings, so scanning
   every book of a corpus reads postings in proportion to the corpus, not
   to its square (one whole-corpus list per book).  4x the documents may
   read at most 5x the postings. *)
let test_postings_read_scales () =
  let word = Corpus.Vocab.word_for_rank 0 in
  let read doc_count =
    let eng =
      Engine.create
        (Corpus.Generator.books
           { Corpus.Generator.default_profile with Corpus.Generator.doc_count })
    in
    let report =
      Engine.run_report eng ~strategy:Engine.Native_materialized
        (Printf.sprintf {|count(collection()//book[. ftcontains "%s"])|} word)
    in
    report.Engine.counters.Xquery.Limits.postings_read
  in
  let small = read 50 and large = read 200 in
  if small <= 0 then Alcotest.failf "no postings read at 50 documents";
  if large > 5 * small then
    Alcotest.failf "postings_read grew %d -> %d (%.1fx) from 50 to 200 documents"
      small large
      (float_of_int large /. float_of_int small)

(* --- randomized cross-strategy agreement --- *)

let vocab =
  [ "usability"; "testing"; "software"; "databases"; "quality"; "product";
    "experts"; "users"; "relational"; "nosuchword" ]

let gen_selection =
  Ft_gen.(
    selection ~words:vocab ~options:[ ""; " with stemming"; " case sensitive" ]
      ~leaf_weight:4
      [
        (2, And); (2, Or); (1, Not); (1, Ordered); (1, Window (2, 20));
        (1, Distance (1, 15)); (1, Occurs (1, 3)); (1, Same_sentence);
      ])

let gen_context = QCheck2.Gen.oneofl [ "//book"; "//p"; "//chapter"; "//title" ]

let prop_strategies_agree =
  QCheck2.Test.make ~name:"two strategies agree on random queries" ~count:40
    QCheck2.Gen.(pair gen_context gen_selection)
    (fun (ctx, sel) ->
      let query =
        Printf.sprintf "count(collection()%s[. ftcontains %s])" ctx sel
      in
      let reference = results query Engine.Native_materialized in
      List.for_all
        (fun (_, strategy) -> results query strategy = reference)
        strategies)

(* ft:score yields xs:double under every strategy: any other item (an
   xs:integer 0 for a node with no match, say) reads as NaN and fails. *)
let scores ~engine query strategy =
  List.map
    (function Xquery.Value.Double d -> d | _ -> nan)
    (Engine.run engine ~strategy query)

(* The same scores, in order.  Summation order differs across
   strategies, so comparison needs a relative component on top of the
   absolute floor. *)
let same_scores got reference =
  let close a b =
    Float.abs (a -. b)
    <= 1e-9 +. (1e-6 *. Float.max (Float.abs a) (Float.abs b))
  in
  List.length got = List.length reference && List.for_all2 close got reference

let scores_agree ?(engine = Lazy.force engine) query =
  let reference = scores ~engine query Engine.Native_materialized in
  List.for_all
    (fun (_, strategy) -> same_scores (scores ~engine query strategy) reference)
    strategies

let prop_scores_agree =
  QCheck2.Test.make ~name:"scores agree across strategies" ~count:25
    gen_selection (fun sel ->
      scores_agree
        (Printf.sprintf "for $b in collection()//book return ft:score($b, %s)" sel))

(* One evaluation context over the nodes of every document, each node
   evaluated alone under every strategy.  Three one-book documents hold
   the words at different counts, small enough that the translated path
   answers hundreds of queries in well under a second. *)
let spread =
  lazy
    (Engine.of_strings
       [
         ( "a.xml",
           "<book><p>usability testing of usability</p><p>software testing</p></book>" );
         ("b.xml", "<book><p>software usability</p></book>");
         ("c.xml", "<book><p>usability testing</p></book>");
       ])

let gen_spread_selection =
  let sel depth =
    Ft_gen.(
      selection ~depth ~words:[ "usability"; "testing"; "software"; "nosuchword" ]
        ~options:[ ""; " with stemming" ] ~leaf_weight:1
        [
          (3, And); (1, Or); (1, Not); (1, Not_in); (1, Occurs (1, 2));
          (2, Occurs_exactly (0, 2)); (2, Occurs_at_most (0, 2));
        ])
  in
  (* half the cases count a conjunction of two words *)
  let counted_pair =
    QCheck2.Gen.(
      map3
        (fun (a, b) kind n ->
          Printf.sprintf "((%s && %s) occurs %s %d times)" a b kind n)
        (pair (sel 0) (sel 0))
        (oneofl [ "exactly"; "at most" ])
        (int_range 0 2))
  in
  QCheck2.Gen.frequency [ (1, sel 2); (1, counted_pair) ]

let prop_collection_contexts_agree =
  QCheck2.Test.make ~name:"strategies agree on collection-wide contexts" ~count:300
    ~print:QCheck2.Print.(pair string string)
    QCheck2.Gen.(pair (oneofl [ "//book"; "//p" ]) gen_spread_selection)
    (fun (ctx, sel) ->
      let engine = Lazy.force spread in
      let contains = Printf.sprintf "(collection()%s) ftcontains %s" ctx sel in
      let reference = results ~engine contains Engine.Native_materialized in
      List.for_all
        (fun (_, strategy) -> results ~engine contains strategy = reference)
        strategies
      && scores_agree ~engine (Printf.sprintf "ft:score(collection()%s, %s)" ctx sel))

let tests =
  [
    Alcotest.test_case "fixed query battery" `Slow test_fixed_queries;
    Alcotest.test_case "optimizations keep postings_read honest" `Slow
      test_postings_read_stable;
    Alcotest.test_case "postings_read grows linearly with the corpus" `Quick
      test_postings_read_scales;
    QCheck_alcotest.to_alcotest prop_strategies_agree;
    QCheck_alcotest.to_alcotest prop_scores_agree;
    QCheck_alcotest.to_alcotest prop_collection_contexts_agree;
  ]
