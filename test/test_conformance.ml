(* Deep cross-implementation conformance:

   1. The XQuery fts module and the native operators produce
      solution-identical *AllMatches values* (not just equal query results)
      for randomized selections — the translated plan's fts:FTContains
      argument is evaluated through the XQuery engine, parsed back from XML,
      and compared with the native evaluation of the same selection.

   2. Printing a parsed selection and reparsing it preserves semantics
      (evaluated AllMatches solutions are identical). *)

open Galatex
open Xquery.Ast

let engine = lazy (Corpus.Fig1.engine ())
let env () = Engine.env (Lazy.force engine)

(* The book's words run from filler1 to filler40, so an anchor keeps
   some matches at the book node and drops others. *)
let gen_selection_src =
  Ft_gen.(
    selection
      ~words:
        [ "usability"; "software"; "users"; "filler7"; "nosuchword";
          "filler1"; "filler40" ]
      ~options:[ ""; " with stemming"; " case sensitive"; " with wildcards" ]
      ~leaf_weight:4
      [
        (2, And); (2, Or); (1, Not); (1, Ordered); (1, Distance (1, 30));
        (1, Window (2, 40)); (1, Occurs (1, 2)); (1, Same_sentence);
        (1, Same_paragraph); (1, Anchor);
      ])

let book_node () =
  Option.get
    (Ftindex.Inverted.document_root (Engine.index (Lazy.force engine))
       Corpus.Fig1.uri)

(* native evaluation of an ftcontains query's selection within the book
   node alone, like the translated plan's $evalCtx *)
let node_all_matches q =
  match q.body with
  | Ft_contains { selection; _ } ->
      let resolve_doc = Fts_module.make_resolver (env ()) in
      let ctx = Xquery.Eval.setup_context ~resolve_doc q in
      let site = Option.get (Ft_ops.locate (env ()) (book_node ())) in
      Ft_eval.all_matches ~scope:(Ft_ops.Node site) (env ())
        ~eval:Xquery.Eval.eval ctx selection
  | _ -> Alcotest.fail "not an ftcontains query"

let native_all_matches sel_src =
  node_all_matches (Xquery.Parser.parse_query (". ftcontains " ^ sel_src))

(* the same selection through the XQuery fts module: translate, pull out the
   fts:FTContains argument, evaluate it, parse the XML AllMatches back *)
let xquery_all_matches sel_src =
  let q =
    Xquery.Parser.parse_query
      ("(fn:doc(\"" ^ Corpus.Fig1.uri ^ "\")/book) ftcontains " ^ sel_src)
  in
  let tq = Translate.translate_query q in
  match tq.body with
  | Quantified
      (Some_q, [ (var, value) ], Call ("fts:FTContains", [ Var _; am_expr ]))
    ->
      let ctx = Fts_module.setup_context (env ()) tq in
      let ctx_value = Xquery.Eval.eval ctx value in
      let ctx = Xquery.Context.bind_var ctx var ctx_value in
      (match Xquery.Eval.eval ctx am_expr with
      | [ Xquery.Value.Node n ] -> All_matches.of_xml n
      | _ -> Alcotest.fail "fts module did not return one AllMatches element")
  | _ -> Alcotest.fail "unexpected translated shape"

let prop_allmatches_equal =
  QCheck2.Test.make
    ~name:"XQuery fts module and native operators build identical AllMatches"
    ~count:60 ~print:(fun s -> s) gen_selection_src (fun sel_src ->
      let native = native_all_matches sel_src in
      let via_xquery = xquery_all_matches sel_src in
      All_matches.equal_solutions native via_xquery)

let prop_print_parse_semantics =
  QCheck2.Test.make
    ~name:"printing and reparsing a selection preserves its AllMatches"
    ~count:60 gen_selection_src (fun sel_src ->
      let q = Xquery.Parser.parse_query (". ftcontains " ^ sel_src) in
      let printed = Xquery.Printer.query_to_string q in
      All_matches.equal_solutions (node_all_matches q)
        (node_all_matches (Xquery.Parser.parse_query printed)))

(* spot checks that the two implementations agree on the exact Figure 3
   values, not just abstractly *)
let test_fig3_through_both () =
  let sel = {|"usability" && "software" distance at most 10 words|} in
  let native = native_all_matches sel in
  let via_xquery = xquery_all_matches sel in
  Alcotest.check Alcotest.int "native count" 3 (All_matches.size native);
  Alcotest.check Alcotest.int "xquery count" 3 (All_matches.size via_xquery);
  Alcotest.check Alcotest.bool "same solutions" true
    (All_matches.equal_solutions native via_xquery);
  (* scores too, modulo float noise *)
  let scores am =
    List.sort compare
      (List.map (fun (m : All_matches.match_) -> m.All_matches.score) am)
  in
  List.iter2
    (fun a b ->
      Alcotest.check (Alcotest.float 1e-9) "same score" a b)
    (scores native) (scores via_xquery)

(* Regression: FTTimes over an FTAnd that duplicates a word produces
   occurrence-matches tied on their first position; both implementations
   must break the tie identically (stable sort over input order) or they
   enumerate different — satisfaction-equivalent but not solution-identical
   — window sets. *)
let test_times_over_duplicated_and () =
  List.iter
    (fun sel ->
      let native = native_all_matches sel in
      let via_xquery = xquery_all_matches sel in
      Alcotest.check Alcotest.bool (sel ^ ": same solutions") true
        (All_matches.equal_solutions native via_xquery))
    [
      {|(("usability" && "usability") occurs at least 2 times)|};
      {|(("usability" && "usability") occurs at most 2 times)|};
      {|(("software" && "software" && "software") occurs exactly 2 times)|};
      {|(("usability" || "usability") occurs at least 1 times)|};
      {|(("usability" && "usability") distance at most 1 words)|};
      {|(("usability" && "usability") distance at least 1 words)|};
      {|(("software" && "software") window 2 words)|};
      {|(("usability" && "usability") ordered)|};
      {|(("usability" && "usability") same sentence)|};
    ]

let tests =
  [
    Alcotest.test_case "Figure 3 through both implementations" `Quick
      test_fig3_through_both;
    Alcotest.test_case "FTTimes tie-breaking over duplicated words" `Quick
      test_times_over_duplicated_and;
    QCheck_alcotest.to_alcotest prop_allmatches_equal;
    QCheck_alcotest.to_alcotest prop_print_parse_semantics;
  ]
