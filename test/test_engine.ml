(* The engine façade: document resolution, collection(), context selection,
   the evaluator's FTOr short-circuit, highlighting through queries, error
   propagation. *)

open Galatex

let engine = lazy (Corpus.Usecases.engine ())

let run ?strategy ?context src =
  Xquery.Value.to_display_string
    (Engine.run (Lazy.force engine) ?strategy ?context src)

let check_string = Alcotest.check Alcotest.string
let check_bool = Alcotest.check Alcotest.bool

let test_default_context_is_first_doc () =
  (* //book with no explicit context resolves against book1.xml *)
  check_string "default" "1" (run {|string(//book/@number)|});
  check_string "explicit context" "3"
    (run ~context:"book3.xml" {|string(//book/@number)|})

let test_collection () =
  check_string "all docs" "3" (run {|count(collection()//book)|});
  check_string "collection independent of context" "3"
    (run ~context:"book2.xml" {|count(collection()//book)|})

let test_doc_function () =
  check_string "fn:doc by uri" "2" (run {|string(doc("book2.xml")//book/@number)|});
  match Engine.run (Lazy.force engine) {|doc("missing.xml")|} with
  | exception Xquery.Errors.Error { code = Xquery.Errors.FODC0002; _ } -> ()
  | _ -> Alcotest.fail "missing document must raise FODC0002"

(* A predicate's top-level FTOr stops at the first disjunct that satisfies
   the node; the answer is that of the whole union, and of Figure 6(b)'s
   plan written by hand. *)
let test_optimization_flags_preserve () =
  let q = {|count(collection()//book[. ftcontains "usability" || "databases"])|} in
  let plain = run q in
  check_string "one ftcontains per node" plain
    (run
       {|count(for $b in collection()//book where $b ftcontains "usability" || "databases" return $b)|});
  check_string "XQuery or" plain
    (run
       {|count(collection()//book[. ftcontains "usability" or . ftcontains "databases"])|})

let test_translate_to_text_round_trip () =
  let src = {|//book[. ftcontains "x" && "y" window 3 words]/title|} in
  let text = Engine.translate_to_text src in
  check_bool "mentions FTWindow" true
    (let rec has i =
       i + 12 <= String.length text
       && (String.sub text i 12 = "fts:FTWindow" || has (i + 1))
     in
     has 0);
  (* the translated text is valid XQuery *)
  ignore (Xquery.Parser.parse_query text)

let test_parse_error_propagates () =
  match Engine.run (Lazy.force engine) "//book[" with
  | exception Xquery.Errors.Error { code = Xquery.Errors.XPST0003; _ } -> ()
  | _ -> Alcotest.fail "parse error must surface as XPST0003"

let test_ft_error_on_bad_weight () =
  match
    Engine.run (Lazy.force engine) {|ft:score(//book, "x" weight 3.0)|}
  with
  | exception Xquery.Errors.Error { code = Xquery.Errors.FTDY0016; _ } -> ()
  | _ -> Alcotest.fail "weight outside [0,1] must raise FTDY0016"

let test_empty_corpus () =
  let empty = Engine.of_strings [] in
  check_string "collection empty" "0"
    (Xquery.Value.to_display_string (Engine.run empty {|count(collection())|}))

let test_selection_all_matches_guard () =
  match
    Engine.selection_all_matches (Lazy.force engine) {|"a" madeupsyntax|}
  with
  | exception (Xquery.Parser.Error _ | Invalid_argument _) -> ()
  | _ -> Alcotest.fail "garbage selection must raise"

(* An anchor holds against a search context, and the whole corpus is
   none. *)
let test_selection_all_matches_anchor () =
  match
    Engine.selection_all_matches (Lazy.force engine) {|"usability" at start|}
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an anchored selection over the corpus must raise"

let test_strategies_share_resolver () =
  (* the translated path can read the corpus AND the generated documents *)
  check_string "fn:doc in translated strategy" "3"
    (run ~strategy:Engine.Translated {|count(collection()//book)|});
  check_string "invlist doc visible" "true"
    (run ~strategy:Engine.Translated
       {|exists(fn:doc("list_distinct_words.xml")/ListDistinctWords)|})

(* Prolog variables are initialized after collection() and the context
   item are installed, under every strategy. *)
let test_prolog_sees_documents () =
  List.iter
    (fun strategy ->
      let name = Engine.strategy_name strategy in
      check_string (name ^ ": collection() in a prolog variable") "1"
        (run ~strategy
           {|declare variable $v := collection()//book[. ftcontains "databases"]; count($v)|});
      check_string (name ^ ": context item in a prolog variable") "1"
        (run ~strategy
           {|declare variable $v := //book[. ftcontains "usability"]; count($v)|}))
    [ Engine.Translated; Engine.Native_materialized ]

let test_segmenter_config_respected () =
  (* index with titles ignored: words in titles are unsearchable *)
  let eng =
    Engine.of_strings
      ~config:
        {
          Tokenize.Segmenter.default_config with
          Tokenize.Segmenter.ignore_elements = [ "title" ];
        }
      [ ("d.xml", "<doc><title>secret</title><p>visible words</p></doc>") ]
  in
  check_string "title word invisible" "false"
    (Xquery.Value.to_display_string
       (Engine.run eng {|//doc ftcontains "secret"|}));
  check_string "body word visible" "true"
    (Xquery.Value.to_display_string
       (Engine.run eng {|//doc ftcontains "visible"|}))

let tests =
  [
    Alcotest.test_case "default context" `Quick test_default_context_is_first_doc;
    Alcotest.test_case "collection()" `Quick test_collection;
    Alcotest.test_case "fn:doc resolution" `Quick test_doc_function;
    Alcotest.test_case "optimization flags preserve results" `Quick
      test_optimization_flags_preserve;
    Alcotest.test_case "translate_to_text" `Quick test_translate_to_text_round_trip;
    Alcotest.test_case "parse errors propagate" `Quick test_parse_error_propagates;
    Alcotest.test_case "invalid weight" `Quick test_ft_error_on_bad_weight;
    Alcotest.test_case "empty corpus" `Quick test_empty_corpus;
    Alcotest.test_case "selection parse guard" `Quick test_selection_all_matches_guard;
    Alcotest.test_case "anchored selection needs a context" `Quick
      test_selection_all_matches_anchor;
    Alcotest.test_case "resolver in translated strategy" `Quick
      test_strategies_share_resolver;
    Alcotest.test_case "prolog variables see the documents" `Quick
      test_prolog_sees_documents;
    Alcotest.test_case "segmenter config respected" `Quick
      test_segmenter_config_respected;
  ]
