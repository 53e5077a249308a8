(* The experiment harness: one section per paper artifact (Figures 1-6,
   Table 1) plus the Section 3.3/4.x claims (S1, S4), per the experiment
   index in DESIGN.md.  Each section regenerates the paper's artifact or
   measures its performance claim and prints the series; a Bechamel
   micro-benchmark accompanies the timed experiments.

   Usage: dune exec bench/main.exe [-- F1 F3 S4 ...]  (default: all) *)

open Bechamel

let fig1_engine = lazy (Corpus.Fig1.engine ())

(* ---------------------------------------------------------------- F1 *)

let fig1 () =
  Harness.section
    "F1 (Figure 1): tokenized document — every word gets a TokenInfo";
  let doc = Corpus.Fig1.document () in
  let tokens = Tokenize.Segmenter.tokenize_document doc in
  Harness.row "  %-12s %-10s %-10s %-9s %-9s\n" "word" "node" "absPos" "sentence"
    "para";
  List.iter
    (fun (t : Tokenize.Token.t) ->
      if
        List.mem t.Tokenize.Token.norm [ "usability"; "software"; "users" ]
        || t.Tokenize.Token.abs_pos <= 3
      then
        Harness.row "  %-12s %-10s %-10d %-9d %-9d\n" t.Tokenize.Token.word
          (Xmlkit.Dewey.to_string t.Tokenize.Token.node)
          t.Tokenize.Token.abs_pos t.Tokenize.Token.sentence
          t.Tokenize.Token.para)
    tokens;
  Harness.row "  (%d tokens total; planted: usability@%s software@%s users@%s)\n"
    (List.length tokens)
    (String.concat "," (List.map string_of_int Corpus.Fig1.usability_positions))
    (String.concat "," (List.map string_of_int Corpus.Fig1.software_positions))
    (String.concat "," (List.map string_of_int Corpus.Fig1.users_positions));
  let identifier =
    Tokenize.Token.identifier
      (List.find
         (fun (t : Tokenize.Token.t) -> t.Tokenize.Token.norm = "usability")
         tokens)
  in
  Harness.row
    "  first 'usability' TokenInfo identifier: %s (node Dewey + absolute position,\n\
    \  the Figure 5(a) convention)\n"
    identifier

(* ---------------------------------------------------------------- F2 *)

let running_query =
  {|//book[.//p ftcontains ("usability" with stemming) && ("software" case sensitive) distance at most 10 words ordered]/title|}

let fig2 () =
  Harness.section "F2 (Figure 2): the FTSelection evaluation plan";
  let q = Xquery.Parser.parse_query running_query in
  let rec plan indent sel =
    let pad = String.make indent ' ' in
    match sel with
    | Xquery.Ast.Ft_words { source = Xquery.Ast.Ft_literal w; options; _ } ->
        Harness.row "%sFTWordsSelection(\"%s\"%s)\n" pad w
          (String.concat "" (List.map Xquery.Printer.option_to_string options))
    | Xquery.Ast.Ft_words _ -> Harness.row "%sFTWordsSelection(<expr>)\n" pad
    | Xquery.Ast.Ft_and (a, b) ->
        Harness.row "%sFTAnd\n" pad;
        plan (indent + 2) a;
        plan (indent + 2) b
    | Xquery.Ast.Ft_or (a, b) ->
        Harness.row "%sFTOr\n" pad;
        plan (indent + 2) a;
        plan (indent + 2) b
    | Xquery.Ast.Ft_mild_not (a, b) ->
        Harness.row "%sFTMildNot\n" pad;
        plan (indent + 2) a;
        plan (indent + 2) b
    | Xquery.Ast.Ft_unary_not a ->
        Harness.row "%sFTUnaryNot\n" pad;
        plan (indent + 2) a
    | Xquery.Ast.Ft_ordered a ->
        Harness.row "%sFTOrdered\n" pad;
        plan (indent + 2) a
    | Xquery.Ast.Ft_distance (a, _, _) ->
        Harness.row "%sFTDistance(at most 10 words)\n" pad;
        plan (indent + 2) a
    | Xquery.Ast.Ft_window (a, _, _) ->
        Harness.row "%sFTWindow\n" pad;
        plan (indent + 2) a
    | Xquery.Ast.Ft_scope (a, _) ->
        Harness.row "%sFTScope\n" pad;
        plan (indent + 2) a
    | Xquery.Ast.Ft_times (a, _) ->
        Harness.row "%sFTTimes\n" pad;
        plan (indent + 2) a
    | Xquery.Ast.Ft_content (a, _) ->
        Harness.row "%sFTContent\n" pad;
        plan (indent + 2) a
    | Xquery.Ast.Ft_with_options (a, opts) ->
        Harness.row "%sFTMatchOptions(%s )\n" pad
          (String.concat "" (List.map Xquery.Printer.option_to_string opts));
        plan (indent + 2) a
  in
  Harness.row "query: %s\n\nplan (FTContains at the root, as in Figure 2):\n\n"
    running_query;
  (match q.Xquery.Ast.body with
  | Xquery.Ast.Path (_, steps) ->
      List.iter
        (fun (s : Xquery.Ast.step) ->
          List.iter
            (fun p ->
              match p with
              | Xquery.Ast.Ft_contains { selection; _ } ->
                  Harness.row "FTContains(//book//p)\n";
                  plan 2 selection
              | _ -> ())
            s.Xquery.Ast.predicates)
        steps
  | _ -> ());
  Harness.row "\ntranslated XQuery (Section 3.2.2):\n%s\n"
    (Galatex.Engine.translate_to_text running_query)

(* ---------------------------------------------------------------- F3 *)

let fig3 () =
  Harness.section
    "F3 (Figure 3): AllMatches — FTAnd makes 6 matches, FTDistance keeps 3";
  let eng = Lazy.force fig1_engine in
  let am_and =
    Galatex.Engine.selection_all_matches eng {|"usability" && "software"|}
  in
  let am_dist =
    Galatex.Engine.selection_all_matches eng
      {|"usability" && "software" distance at most 10 words|}
  in
  Harness.row "  after FTAnd:      %d matches (paper: 6)\n"
    (Galatex.All_matches.size am_and);
  Harness.row "  after FTDistance: %d matches (paper: 3 — the 1st, 4th, 6th)\n"
    (Galatex.All_matches.size am_dist);
  Harness.row "\nfinal AllMatches (XML form, Section 3.1.2 DTD):\n%s\n"
    (Xmlkit.Printer.pretty (Galatex.All_matches.to_xml am_dist));
  Harness.run_bechamel
    (Test.make_grouped ~name:"F3" ~fmt:"%s %s"
       [
         Test.make ~name:"FTAnd"
           (Harness.staged (fun () ->
                Galatex.Engine.selection_all_matches eng
                  {|"usability" && "software"|}));
         Test.make ~name:"FTAnd+FTDistance"
           (Harness.staged (fun () ->
                Galatex.Engine.selection_all_matches eng
                  {|"usability" && "software" distance at most 10 words|}));
       ])

(* ---------------------------------------------------------------- F4 *)

let fig4 () =
  Harness.section
    "F4 (Figure 4): architecture pipeline — preprocess, translate, evaluate";
  let docs = Corpus.Usecases.documents in
  let t_index = Harness.time_ms (fun () -> Ftindex.Indexer.index_strings docs) in
  let engine = Corpus.Usecases.engine () in
  let index = Galatex.Engine.index engine in
  let t_export = Harness.time_ms (fun () -> Ftindex.Index_xml.export_all index) in
  let query =
    {|for $b in collection()//book[.//p ftcontains "usability" && "testing"] return string($b/@number)|}
  in
  let t_translate =
    Harness.time_ms (fun () -> Galatex.Engine.translate_to_text query)
  in
  let t_eval_translated =
    Harness.time_ms (fun () ->
        Galatex.Engine.run engine ~strategy:Galatex.Engine.Translated query)
  in
  let t_eval_native =
    Harness.time_ms (fun () -> Galatex.Engine.run engine query)
  in
  Harness.row "  stage                                   median wall time\n";
  Harness.row "  document preprocessing (tokenize+index)     %8.2f ms\n" t_index;
  Harness.row "  inverted lists -> XML documents             %8.2f ms\n" t_export;
  Harness.row "  query parsing + translation                 %8.2f ms\n" t_translate;
  Harness.row "  evaluation, translated (all-XQuery) path    %8.2f ms\n"
    t_eval_translated;
  Harness.row "  evaluation, native operators                %8.2f ms\n"
    t_eval_native;
  Harness.row "  => interpretation overhead of the paper's strategy: %.0fx\n"
    (t_eval_translated /. Float.max 0.0001 t_eval_native);
  let env = Galatex.Engine.env engine in
  let am =
    Galatex.Engine.selection_all_matches engine {|"usability" && "testing"|}
  in
  let ps =
    List.concat_map
      (fun (_, d) ->
        List.filter
          (fun n -> Xmlkit.Node.name n = Some "p")
          (Xmlkit.Node.descendants d))
      (Ftindex.Inverted.documents index)
  in
  match Galatex.Highlight.highlight_matches env ps am with
  | frag :: _ ->
      Harness.row "\n  highlighted fragment (output stage):\n  %s\n"
        (Xmlkit.Printer.to_string frag)
  | [] -> ()

(* ---------------------------------------------------------------- F5 *)

let fig5 () =
  Harness.section
    "F5 (Figure 5): Dewey identifiers, XML inverted lists, AllMatches";
  let eng = Lazy.force fig1_engine in
  let index = Galatex.Engine.index eng in
  let doc = Option.get (Ftindex.Inverted.document_root index Corpus.Fig1.uri) in
  Harness.subsection "(a) Dewey labels of the document's elements";
  List.iter
    (fun n ->
      if Xmlkit.Node.is_element n then
        Harness.row "  %-10s %s\n"
          (Option.value ~default:"?" (Xmlkit.Node.name n))
          (Xmlkit.Dewey.to_string (Xmlkit.Node.dewey n)))
    (Xmlkit.Node.descendants_or_self doc);
  Harness.subsection "(b) inverted-list documents (one per distinct word)";
  List.iter
    (fun w ->
      Harness.row "%s\n"
        (Xmlkit.Printer.pretty (Ftindex.Index_xml.inverted_list_document index w)))
    [ "software"; "usability"; "users" ];
  Harness.subsection "(c) AllMatches for \"usability\" with stemming";
  let am =
    Galatex.Engine.selection_all_matches eng {|"usability" with stemming|}
  in
  Harness.row "%s\n" (Xmlkit.Printer.pretty (Galatex.All_matches.to_xml am))

(* ---------------------------------------------------------------- F6a *)

(* Corpus where the planted phrase appears mostly in reverse order:
   FTOrdered is selective, so running it before FTDistance (the Figure 6(a)
   pushdown) shrinks what the distance filter must process. *)
let pushdown_corpus ~in_order_fraction ~seed =
  let n = 24 in
  let in_order_docs = int_of_float (in_order_fraction *. float_of_int n) in
  let docs =
    List.concat
      (List.init n (fun i ->
           let profile =
             {
               Corpus.Generator.default_profile with
               Corpus.Generator.seed = seed + i;
               doc_count = 1;
               sections_per_doc = 2;
               paras_per_section = 3;
               words_per_para = 40;
               vocab_size = 120;
               plant =
                 Some
                   {
                     Corpus.Generator.phrase = [ "alphaterm"; "betaterm" ];
                     doc_selectivity = 1.0;
                     para_selectivity = 0.6;
                     max_gap = 4;
                     in_order = i < in_order_docs;
                   };
             }
           in
           List.map
             (fun (uri, d) -> (Printf.sprintf "d%d-%s" i uri, d))
             (Corpus.Generator.books profile)))
  in
  Galatex.Engine.create docs

let fig6a () =
  Harness.section
    "F6a (Figure 6a): pushing the selective FTOrdered below FTDistance";
  (* the two plan shapes, evaluated over the whole corpus so the
     intermediate AllMatches sizes matter (inside a per-node predicate the
     context filter already shrinks them) *)
  let sel_no_push = {|"alphaterm" && "betaterm" distance at most 12 words ordered|} in
  let sel_pushed = {|"alphaterm" && "betaterm" ordered distance at most 12 words|} in
  Harness.row
    "  in-order   matches into   matches into      eval        eval      speedup\n";
  Harness.row
    "  fraction   FTDistance     FTOrdered(push)   no-push     push\n";
  List.iter
    (fun frac ->
      let eng = pushdown_corpus ~in_order_fraction:frac ~seed:100 in
      let eval src =
        Galatex.Engine.selection_all_matches eng src
      in
      let into_distance = Galatex.All_matches.size (eval {|"alphaterm" && "betaterm"|}) in
      let into_distance_pushed =
        Galatex.All_matches.size (eval {|"alphaterm" && "betaterm" ordered|})
      in
      let t_plain = Harness.time_ms (fun () -> eval sel_no_push) in
      let t_push = Harness.time_ms (fun () -> eval sel_pushed) in
      (* the two plans, written by hand, give the same answers *)
      assert (
        Galatex.All_matches.size (eval sel_no_push)
        = Galatex.All_matches.size (eval sel_pushed));
      Harness.row "  %8.2f   %12d   %15d   %7.2fms   %7.2fms   %5.2fx\n" frac
        into_distance into_distance_pushed t_plain t_push
        (t_plain /. Float.max 0.001 t_push))
    [ 0.1; 0.3; 0.5; 0.9 ];
  Harness.row
    "  (shape: pushing FTOrdered first shrinks what FTDistance must process\n\
    \   by 35-50x; wall time is dominated by building the FTAnd product that\n\
    \   both plans share, so the size reduction -- the Section 4\n\
    \   materialization metric -- is the primary win, and it feeds the\n\
    \   per-node early exit, where the filters run one match at a time)\n"

(* ---------------------------------------------------------------- F6b *)

(* Figure 6(b)'s plan, written by hand as XQuery's lazy [or] of two
   ftcontains, against the served FTOr predicate, which stops at the first
   disjunct that satisfies the node (the per-node kernel's early exit).  The
   two forms alternate, [rounds] of [runs] each, so drift on a shared
   machine lands on both. *)
let fig6b () =
  Harness.section "F6b (Figure 6b): FTOr short-circuiting";
  let right = {|("ra" && "sa" window 20 words)|} in
  let forms =
    [
      ( "FTOr predicate",
        Printf.sprintf
          {|count(collection()//book[. ftcontains "leftterm" || %s])|} right );
      ( "XQuery or",
        Printf.sprintf
          {|count(collection()//book[. ftcontains "leftterm" or . ftcontains %s])|}
          right );
    ]
  in
  let rounds = 5 and runs = 20 in
  Harness.row
    "  median of %d alternating rounds of %d runs; kw = thousands of \
     minor-heap words\n\
    \  per query, mat = allmatches_materialized\n\n"
    rounds runs;
  Harness.row "  left-hit  %-16s %8s %8s %8s  answer\n" "form" "ms" "kw" "mat";
  List.iter
    (fun frac ->
      let eng =
        Galatex.Engine.of_index
          (Corpus.Generator.index_books
             {
               Corpus.Generator.default_profile with
               Corpus.Generator.seed = 300 + int_of_float (frac *. 100.0);
               doc_count = 25;
               words_per_para = 40;
               vocab_size = 150;
               plant =
                 Some
                   {
                     Corpus.Generator.phrase = [ "leftterm" ];
                     doc_selectivity = frac;
                     para_selectivity = 0.5;
                     max_gap = 0;
                     in_order = true;
                   };
             })
      in
      let samples = List.map (fun _ -> ref []) forms in
      for _ = 1 to rounds do
        List.iter2
          (fun (_, q) acc ->
            Gc.compact ();
            let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
            for _ = 1 to runs do
              ignore (Sys.opaque_identity (Galatex.Engine.run eng q))
            done;
            let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
            acc :=
              ( (t1 -. t0) *. 1000.0 /. float_of_int runs,
                (w1 -. w0) /. 1000.0 /. float_of_int runs )
              :: !acc)
          forms samples
      done;
      List.iter2
        (fun (label, q) acc ->
          let median f =
            List.nth (List.sort compare (List.map f !acc)) (rounds / 2)
          in
          let report = Galatex.Engine.run_report eng q in
          Harness.row "  %8.2f  %-16s %8.3f %8.1f %8d  %s\n" frac label
            (median fst) (median snd)
            report.Galatex.Engine.counters.Xquery.Limits.allmatches_materialized
            (Xquery.Value.to_display_string report.Galatex.Engine.value))
        forms samples)
    [ 0.0; 0.25; 0.5; 1.0 ];
  Harness.row
    "  (the predicate evaluates the right disjunct only for a book the left\n\
    \   one misses, and keeps one handler call per step; the hand-written\n\
    \   or pays two calls per book)\n"

(* ---------------------------------------------------------------- T1 *)

let table1 () =
  Harness.section "T1 (Table 1): classification of XML full-text engines";
  let engine = Corpus.Usecases.engine () in
  let feature_ok feature =
    List.for_all
      (fun (uc : Corpus.Usecases.usecase) ->
        uc.Corpus.Usecases.feature <> feature
        || Corpus.Usecases.check_case engine uc = Ok ())
      Corpus.Usecases.cases
  in
  let galatex_features =
    [
      "phrase matching"; "Boolean connectives"; "order specificity";
      "proximity distance"; "no. occurrences"; "stemming";
      "regular expressions"; "stop words"; "case sensitive";
    ]
  in
  let checked = List.map (fun f -> (f, feature_ok f)) galatex_features in
  Harness.row "  %-28s %-10s %-55s %-8s %-14s\n" "engine" "XML lang"
    "search primitives" "weights" "scoring";
  let verified =
    String.concat ", "
      (List.filter_map (fun (f, ok) -> if ok then Some f else None) checked)
  in
  Harness.row "  %-28s %-10s %-55s %-8s %-14s\n" "XQuery Full-Text (GalaTex)"
    "XQuery" verified "yes" "probabilistic";
  List.iter
    (fun (name, lang, prims, weights, scoring) ->
      Harness.row "  %-28s %-10s %-55s %-8s %-14s\n" name lang prims weights
        scoring)
    [
      ( "XIRQL (HyREX)", "XQL", "phrase matching, Boolean connectives, sounds_like",
        "yes", "probabilistic" );
      ( "Flexible XML Search (XXL)", "XML-QL",
        "phrase matching, limited Boolean, LIKE", "no", "probabilistic" );
      ( "ELIXIR", "XML-QL", "phrase matching, limited Boolean (negation)", "no",
        "vector space" );
      ("JuruXML", "Juru", "phrase matching, limited Boolean", "no", "vector space");
    ];
  let failures = List.filter (fun (_, ok) -> not ok) checked in
  if failures = [] then
    Harness.row "\n  all %d GalaTex feature cells verified by passing use cases\n"
      (List.length checked)
  else List.iter (fun (f, _) -> Harness.row "  UNVERIFIED: %s\n" f) failures

(* ---------------------------------------------------------------- S1 *)

let s1_scoring () =
  Harness.section
    "S1 (Section 3.3): scoring — probabilistic formulas and W3C requirements";
  let eng = Corpus.Usecases.engine () in
  let env = Galatex.Engine.env eng in
  let docs = List.map snd (Ftindex.Inverted.documents (Galatex.Engine.index eng)) in
  let selections =
    [
      {|"usability"|}; {|"usability" && "testing"|};
      {|"usability" || "relational"|}; {|! "usability"|};
      {|"usability" weight 0.8 && "testing" weight 0.2|};
      {|"software" occurs at least 2 times|};
      {|"usability" && "testing" window 10 words|};
    ]
  in
  let checks = ref 0 and failures = ref 0 in
  List.iter
    (fun src ->
      let am = Galatex.Engine.selection_all_matches eng src in
      List.iter
        (fun d ->
          incr checks;
          if not (Galatex.Score.requirement_zero_iff_no_match env d am) then begin
            incr failures;
            Harness.row "  FAIL %s\n" src
          end)
        docs)
    selections;
  Harness.row
    "  requirement (i)  score = 0 iff no match, else in (0,1]: %d checks, %d failures\n"
    !checks !failures;
  let b1 = List.hd docs in
  let s_low =
    Galatex.Score.node_score env b1
      (Galatex.Engine.selection_all_matches eng {|"usability" weight 0.1|})
  in
  let s_high =
    Galatex.Score.node_score env b1
      (Galatex.Engine.selection_all_matches eng {|"usability" weight 0.9|})
  in
  Harness.row
    "  requirement (ii) monotone in relevance: weight 0.9 scores %.4f > weight 0.1 scores %.4f: %b\n"
    s_high s_low (s_high > s_low);
  Harness.row
    "  formulas: FTAnd s1*s2, FTOr 1-(1-s1)(1-s2), node noisy-or composition\n"

(* ---------------------------------------------------------------- S4 *)

let s4_strategies () =
  Harness.section
    "S4 (Section 3/4): the two evaluation strategies — equivalence and cost";
  let engine = Corpus.Usecases.engine () in
  let queries =
    List.map
      (fun (uc : Corpus.Usecases.usecase) -> uc.Corpus.Usecases.query)
      Corpus.Usecases.all_cases
  in
  let strategies =
    [
      ("translated (paper)", Galatex.Engine.Translated);
      ("native materialized", Galatex.Engine.Native_materialized);
    ]
  in
  List.iter
    (fun (name, strategy) ->
      let t =
        Harness.time_ms ~runs:3 (fun () ->
            List.iter
              (fun q -> ignore (Galatex.Engine.run engine ~strategy q))
              queries)
      in
      Harness.row "  %-22s %8.1f ms for the %d-query use-case battery\n" name t
        (List.length queries))
    strategies;
  let agree =
    List.for_all
      (fun (uc : Corpus.Usecases.usecase) ->
        List.for_all
          (fun (_, s) ->
            Corpus.Usecases.check_case engine ~strategy:s uc = Ok ())
          strategies)
      Corpus.Usecases.all_cases
  in
  Harness.row "  all strategies produce the expected answers: %b\n" agree;
  Harness.run_bechamel ~quota:0.3
    (Test.make_grouped ~name:"S4" ~fmt:"%s %s"
       (List.map
          (fun (name, strategy) ->
            Test.make ~name
              (Harness.staged (fun () ->
                   Galatex.Engine.run engine ~strategy
                     {|count(collection()//book[. ftcontains "usability" && "testing"])|})))
          strategies))

(* ---------------------------------------------------------------- A1 *)

let a1_expansion_cache () =
  Harness.section
    "A1 (ablation): match-option expansion cache (DESIGN.md design choice)";
  (* stemming expansion scans the distinct-word list (the paper's own
     technique); the cache memoizes it per (token, options) *)
  let index =
    Corpus.Generator.index_books
      {
        Corpus.Generator.default_profile with
        Corpus.Generator.seed = 900;
        doc_count = 20;
        vocab_size = 2000;
        zipf_skew = 0.6 (* flatter: more distinct words survive *);
      }
  in
  let eng = Galatex.Engine.of_index index in
  let env = Galatex.Engine.env eng in
  Harness.row "  distinct words: %d
"
    (Ftindex.Inverted.distinct_word_count index);
  let query =
    {|count(collection()//p[. ftcontains "testing" with stemming && "ba" with stemming])|}
  in
  let cold =
    Harness.time_ms ~runs:5 (fun () ->
        Galatex.Env.clear_cache env;
        Galatex.Engine.run eng query)
  in
  let _warmup = Galatex.Engine.run eng query in
  let warm = Harness.time_ms ~runs:5 (fun () -> Galatex.Engine.run eng query) in
  Harness.row "  cold (cache cleared each run): %8.2f ms
" cold;
  Harness.row "  warm (memoized expansions):    %8.2f ms
" warm;
  Harness.row "  => the vocabulary scan the cache removes: %.1fx
"
    (cold /. Float.max 0.001 warm)

(* ---------------------------------------------------------------- A2 *)

let a2_translated_decomposition () =
  Harness.section
    "A2 (ablation): where the translated strategy's overhead goes";
  let eng = Corpus.Usecases.engine () in
  let env = Galatex.Engine.env eng in
  let query =
    {|count(collection()//book[.//p ftcontains "usability" && "testing"])|}
  in
  (* cost of generating the XML index documents the translated path reads *)
  let t_generate =
    Harness.time_ms ~runs:5 (fun () ->
        (* a fresh resolver regenerates invlists and the distinct-word doc *)
        let resolve = Galatex.Fts_module.make_resolver env in
        ignore (resolve "list_distinct_words.xml");
        List.iter
          (fun w -> ignore (resolve ("invlist_" ^ w ^ ".xml")))
          [ "usability"; "testing" ])
  in
  let t_translated =
    Harness.time_ms ~runs:5 (fun () ->
        Galatex.Engine.run eng ~strategy:Galatex.Engine.Translated query)
  in
  let t_native =
    Harness.time_ms ~runs:5 (fun () -> Galatex.Engine.run eng query)
  in
  Harness.row "  XML index document generation:   %8.2f ms
" t_generate;
  Harness.row "  full translated evaluation:      %8.2f ms
" t_translated;
  Harness.row "  native evaluation (same query):  %8.2f ms
" t_native;
  Harness.row
    "  => XML materialization accounts for ~%.0f%% of the overhead; the rest
    \     is XQuery interpretation of the fts module (per-node re-evaluation
    \     of the whole plan, vocabulary scans in XQuery, AllMatches as XML)
"
    (100.0 *. t_generate /. Float.max 0.001 (t_translated -. t_native))

(* ---------------------------------------------------------------- R1 *)

let r1_governance () =
  Harness.section
    "R1 (robustness): resource-governed evaluation and strategy fallback";
  let engine = Corpus.Usecases.engine () in
  let queries =
    List.map
      (fun (uc : Corpus.Usecases.usecase) -> uc.Corpus.Usecases.query)
      Corpus.Usecases.all_cases
  in
  (* governance bookkeeping for a representative query *)
  let report =
    Galatex.Engine.run_report engine
      {|count(collection()//book[. ftcontains "usability" && "testing"])|}
  in
  Harness.row "  representative query: %d eval steps, peak materialization %d\n"
    report.Galatex.Engine.steps report.Galatex.Engine.peak_matches;
  (* a resource bomb terminates promptly with a structured error *)
  let limits =
    { Xquery.Limits.defaults with Xquery.Limits.max_matches = Some 10_000 }
  in
  let t_bomb =
    Harness.time_ms ~runs:3 (fun () ->
        match
          Galatex.Engine.run engine ~limits
            "count(for $a in 1 to 10000 for $b in 1 to 10000 return 1)"
        with
        | _ -> failwith "bomb should have been stopped"
        | exception Xquery.Errors.Error { code = Xquery.Errors.GTLX0003; _ } ->
            ())
  in
  Harness.row "  10^8-tuple FLWOR bomb stopped by GTLX0003 in: %8.2f ms\n" t_bomb;
  (* fault-injection battery: every translated run degrades gracefully *)
  let before = Galatex.Engine.fallback_count engine in
  let absorbed = ref 0 and structured = ref 0 in
  List.iter
    (fun q ->
      match
        Galatex.Engine.run_report engine
          ~strategy:Galatex.Engine.Translated ~fault_at:25 ~fallback:true
          q
      with
      | r -> if r.Galatex.Engine.fell_back then incr absorbed
      | exception Xquery.Errors.Error _ -> incr structured)
    queries;
  Harness.row
    "  injected faults over the %d-query battery: %d absorbed by fallback,
    \   %d surfaced structured, %d raw exceptions\n"
    (List.length queries) !absorbed !structured 0;
  Harness.row "  engine fallback count: %d (was %d before the battery)\n"
    (Galatex.Engine.fallback_count engine)
    before

(* ---------------------------------------------------------------- R2 *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir_size dir =
  Array.fold_left
    (fun acc f ->
      acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let r2_cold_start () =
  Harness.section
    "R2 (robustness): cold start from a persisted snapshot vs re-indexing";
  let profile =
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.doc_count = 40;
      sections_per_doc = 4;
      paras_per_section = 5;
      words_per_para = 40;
      vocab_size = 2_000;
    }
  in
  let docs = Corpus.Generator.books profile in
  let index = Ftindex.Indexer.index_documents docs in
  Harness.row "  corpus: %d documents, %d distinct words, %d postings\n"
    (List.length docs)
    (Ftindex.Inverted.distinct_word_count index)
    (Ftindex.Inverted.total_postings index);
  let sources =
    List.map (fun (uri, root) -> (uri, Xmlkit.Printer.to_string root)) docs
  in
  let t_index =
    Harness.time_ms ~runs:5 (fun () -> Ftindex.Indexer.index_documents docs)
  in
  (* what a load does besides reading files: parse the stored sources,
     tokenize and build *)
  let t_parse_index =
    Harness.time_ms ~runs:5 (fun () -> Ftindex.Indexer.index_strings sources)
  in
  let dir = Printf.sprintf "r2-snapshot-%d" (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let t_save =
        Harness.time_ms ~runs:5 (fun () -> Ftindex.Store.save ~dir index)
      in
      let t_load =
        Harness.time_ms ~runs:5 (fun () -> Ftindex.Store.load ~dir ())
      in
      Harness.row "  index parsed documents:              %8.2f ms\n" t_index;
      Harness.row "  parse + index from the same sources: %8.2f ms\n"
        t_parse_index;
      Harness.row "  save snapshot:                       %8.2f ms  (%d files, %d KiB)\n"
        t_save
        (Array.length (Sys.readdir dir))
        (dir_size dir / 1024);
      Harness.row
        "  load snapshot (cold):                %8.2f ms  (%.2fx parse + index)\n"
        t_load
        (t_load /. Float.max 0.001 t_parse_index);
      (* salvage cost: damage one document segment, load must re-index
         that document from its source *)
      let doc_seg =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.find (fun f -> String.length f > 4 && String.sub f 0 4 = "doc-")
      in
      let damage () =
        let path = Filename.concat dir doc_seg in
        let ic = open_in_bin path in
        let data =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let b = Bytes.of_string data in
        Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 1));
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_bytes oc b)
      in
      damage ();
      let loaded = ref None in
      let t_salvage =
        Harness.time_ms ~runs:5 (fun () ->
            loaded := Some (Ftindex.Store.load ~sources ~dir ()))
      in
      match !loaded with
      | Some l ->
          Harness.row
            "  load, 1 damaged document segment:    %8.2f ms  (%d document(s) re-indexed)\n"
            t_salvage
            (List.length l.Ftindex.Store.report.Ftindex.Store.reindexed)
      | None -> ())

(* ---------------------------------------------------------------- N1 *)

(* perfbench's corpus profile: 2 sections x 3 paragraphs x 30 words over a
   150-word vocabulary *)
let navigation_corpus doc_count =
  Corpus.Generator.books
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.seed = 7919;
      doc_count;
      sections_per_doc = 2;
      paras_per_section = 3;
      words_per_para = 30;
      vocab_size = 150;
    }

(* scan-large sends one query every 16.7 ms (60/s) *)
let cold_gap_s = 1.0 /. 60.0

(* The median process CPU of [runs] calls of [f], each after a
   [cold_gap_s] sleep: what one query costs when the caches have gone
   cold between arrivals, as they do in a paced daemon. *)
let cold_cpu_ms ~runs f =
  let samples =
    Array.init runs (fun _ ->
        Unix.sleepf cold_gap_s;
        let c0 = Sys.time () in
        ignore (Sys.opaque_identity (f ()));
        (Sys.time () -. c0) *. 1000.0)
  in
  Array.sort Float.compare samples;
  samples.(runs / 2)

let n1_navigation () =
  Harness.section
    "N1: navigation cost — a path step against the nodes it selects";
  let be = Corpus.Vocab.word_for_rank 12 and pe = Corpus.Vocab.word_for_rank 20 in
  let sel = Printf.sprintf {|"%s %s"|} be pe in
  let queries =
    [
      ("/book", "count(collection()/book)");
      ("//book", "count(collection()//book)");
      ("/book//p", "count(collection()/book//p)");
      ( "//book[ftcontains]",
        Printf.sprintf "count(collection()//book[. ftcontains %s])" sel );
      ( "//p[ftcontains]",
        Printf.sprintf "count(collection()//p[. ftcontains %s])" sel );
      ( "//book[absent]",
        {|count(collection()//book[. ftcontains "qqqzzz"])|} );
      ("//p[absent]", {|count(collection()//p[. ftcontains "qqqzzz"])|});
      ( "//book[window]",
        Printf.sprintf
          {|count(collection()//book[. ftcontains "%s" && "%s" window 14 words])|}
          be pe );
      ( "//book[distance]",
        Printf.sprintf
          {|count(collection()//book[. ftcontains "%s" && "%s" distance at most 8 words])|}
          be pe );
      (* a word ANDed with itself, as scan-large's window template draws
         it when its two words coincide: every occurrence pairs with
         every other *)
      ( "//book[self-AND]",
        {|count(collection()//book[. ftcontains "sa" && "sa" window 14 words])|}
      );
      ( "//book[FTOr]",
        Printf.sprintf
          {|count(collection()//book[. ftcontains "%s" || ("%s" && "%s" window 5 words)])|}
          be be pe );
      ( "//book[FTOr absent]",
        Printf.sprintf
          {|count(collection()//book[. ftcontains "qqqzzz" || ("%s" && "%s" window 5 words)])|}
          be pe );
      ( "ranked top-10",
        Printf.sprintf
          {|subsequence(for $b in collection()//book let $s := ft:score($b, %s) where $s > 0 order by $s descending return concat(string($s), " ", string($b/@id)), 1, 10)|}
          sel );
    ]
  in
  let runs = 30 and cold_runs = 15 and cold_docs = 200 in
  Harness.row
    "  Native_materialized (the served path); mean of %d runs\n"
    runs;
  Harness.row
    "  after one warm-up and a Gc.compact; kw = thousands of minor-heap words \
     per query;\n\
    \  cold = median process CPU (Sys.time) of %d runs %.1f ms apart, \
     scan-large's\n\
    \  arrival spacing, so each run starts on cold caches (at %d books only);\n\
    \  disp = full-text handler calls, read = postings_read, mat =\n\
    \  allmatches_materialized, steps = governor steps: one query's exact \
     counters\n\n"
    cold_runs (cold_gap_s *. 1000.0) cold_docs;
  Harness.row "  %5s  %-20s %10s %10s %8s %6s %8s %8s %8s\n" "docs" "query" "ms"
    "kw" "cold ms" "disp" "read" "mat" "steps";
  List.iter
    (fun doc_count ->
      let eng = Galatex.Engine.create (navigation_corpus doc_count) in
      List.iter
        (fun (label, q) ->
          let run () =
            Galatex.Engine.run eng
              ~strategy:Galatex.Engine.Native_materialized q
          in
          (* the warm-up run, which also reads the counters *)
          let report =
            Galatex.Engine.run_report eng
              ~strategy:Galatex.Engine.Native_materialized q
          in
          let c = report.Galatex.Engine.counters in
          Gc.compact ();
          let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
          for _ = 1 to runs do
            ignore (Sys.opaque_identity (run ()))
          done;
          let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
          let per_run x = x /. float_of_int runs in
          let cold =
            if doc_count <> cold_docs then "-"
            else Printf.sprintf "%.3f" (cold_cpu_ms ~runs:cold_runs run)
          in
          Harness.row "  %5d  %-20s %10.3f %10.1f %8s %6d %8d %8d %8d\n"
            doc_count label
            (per_run ((t1 -. t0) *. 1000.0))
            (per_run ((w1 -. w0) /. 1000.0))
            cold c.Xquery.Limits.ft_dispatches c.Xquery.Limits.postings_read
            c.Xquery.Limits.allmatches_materialized report.Galatex.Engine.steps)
        queries)
    [ 50; 200; 400 ]

(* ---------------------------------------------------------------- U1 *)

(* A live update's own cost, and what it costs the queries after it.  The
   index tables are persistent maps, so adding or removing one book should
   allocate about the same at 50 books as at 3,200; the expansion cache
   outlives updates, so a query after an update batch should allocate
   about what it does with no updates at all. *)
let update_book rng vocab n =
  let para () =
    String.concat " " (List.init 30 (fun _ -> Corpus.Vocab.sample vocab rng))
  in
  let section k =
    Printf.sprintf "<section><title>Section %d</title>%s</section>" k
      (String.concat "" (List.init 3 (fun _ -> "<p>" ^ para () ^ ".</p>")))
  in
  Printf.sprintf "<book id=\"u%d\"><title>Update %d</title>%s%s</book>" n n
    (section 1) (section 2)

let u1_updates () =
  Harness.section
    "U1: live updates — one book's cost by corpus size, and the queries after \
     update batches";
  let runs = 50 in
  let measure f =
    Gc.compact ();
    let t0 = Unix.gettimeofday ()
    and m0 = Gc.minor_words ()
    and b0 = Gc.allocated_bytes () in
    for _ = 1 to runs do
      ignore (Sys.opaque_identity (f ()))
    done;
    let per x = x /. float_of_int runs in
    ( per ((Unix.gettimeofday () -. t0) *. 1000.0),
      per ((Gc.minor_words () -. m0) /. 1000.0),
      per ((Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) /. 1000.0) )
  in
  let source =
    update_book (Corpus.Splitmix.create 1) (Corpus.Vocab.create 2_000) 1
  in
  Harness.row
    "  one 180-word book added (Wal.apply: parse, tokenize, index), then \
     removed;\n\
    \  mean of %d; kw = thousands of minor-heap words, all kw = both heaps\n\n"
    runs;
  Harness.row "  %5s %6s  %8s %8s %8s   %8s %8s %8s\n" "books" "words"
    "add ms" "kw" "all kw" "rm ms" "kw" "all kw";
  List.iter
    (fun doc_count ->
      let base =
        Corpus.Generator.index_books
          {
            Corpus.Generator.default_profile with
            Corpus.Generator.seed = 4242;
            doc_count;
            sections_per_doc = 2;
            paras_per_section = 3;
            words_per_para = 30;
            vocab_size = 2_000;
          }
      in
      let add = Ftindex.Wal.Add_doc { uri = "u1-new.xml"; source } in
      let added = Ftindex.Wal.apply base add in
      let a_ms, a_kw, a_all = measure (fun () -> Ftindex.Wal.apply base add) in
      let r_ms, r_kw, r_all =
        measure (fun () -> Ftindex.Wal.apply added (Ftindex.Wal.Remove_doc "u1-new.xml"))
      in
      Harness.row "  %5d %6d  %8.3f %8.1f %8.1f   %8.3f %8.1f %8.1f\n" doc_count
        (Ftindex.Inverted.distinct_word_count base)
        a_ms a_kw a_all r_ms r_kw r_all)
    [ 50; 200; 800; 3_200 ];
  (* perfbench read-write's shape: 48 books, two-word templates from the
     rank band 5-40, an add/replace/remove batch after every 10th query *)
  let queries =
    let rng = Corpus.Splitmix.create 17 in
    let popularity = Corpus.Vocab.create 60 in
    let templates =
      Array.init 60 (fun slot ->
          let w () = Corpus.Vocab.word_for_rank (5 + Corpus.Splitmix.int rng 35) in
          let a = w () and b = w () in
          match slot mod 3 with
          | 0 -> Printf.sprintf {|count(collection()//book[. ftcontains "%s %s"])|} a b
          | 1 ->
              Printf.sprintf
                {|count(collection()//book[. ftcontains "%s" && "%s" window 14 words])|}
                a b
          | _ ->
              Printf.sprintf
                {|subsequence(for $b in collection()//book let $s := ft:score($b, "%s %s") where $s > 0 order by $s descending return string($b/@id), 1, 5)|}
                a b)
    in
    List.init 1_000 (fun _ ->
        templates.(fst (Corpus.Vocab.draw popularity rng)))
  in
  let replay ~updates =
    let rng = Corpus.Splitmix.create 31 and vocab = Corpus.Vocab.create 150 in
    let eng = ref (Galatex.Engine.create (navigation_corpus 48)) in
    let live = ref (List.init 48 (Printf.sprintf "book%d.xml")) and n = ref 0 in
    let add uri =
      incr n;
      Ftindex.Wal.Add_doc { uri; source = update_book rng vocab !n }
    in
    let batch () =
      let any () = Corpus.Splitmix.pick rng (Array.of_list !live) in
      let fresh = Printf.sprintf "upd-%d.xml" (!n + 1) in
      live := fresh :: !live;
      let replaced = add (any ()) in
      let gone = any () in
      live := List.filter (( <> ) gone) !live;
      [ add fresh; replaced; Ftindex.Wal.Remove_doc gone ]
    in
    Gc.compact ();
    let time = ref 0.0 and words = ref 0.0 in
    List.iteri
      (fun i q ->
        let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Galatex.Engine.run !eng q));
        time := !time +. (Unix.gettimeofday () -. t0);
        words := !words +. (Gc.minor_words () -. w0);
        if updates && i mod 10 = 9 then
          eng := List.fold_left Galatex.Engine.apply_update !eng (batch ()))
      queries;
    let per x = x /. float_of_int (List.length queries) in
    ( per (!time *. 1000.0),
      per (!words /. 1000.0),
      Galatex.Env.misses (Galatex.Engine.env !eng) )
  in
  Harness.row
    "\n  queries after updates: the same %d queries on 48 books from a cold\n\
    \  cache; kw = thousands of minor-heap words per query (queries only)\n\n"
    (List.length queries);
  Harness.row "  %-34s %8s %8s %8s\n" "" "ms" "kw" "misses";
  List.iter
    (fun (label, updates) ->
      let ms, kw, misses = replay ~updates in
      Harness.row "  %-34s %8.3f %8.1f %8d\n" label ms kw misses)
    [ ("no updates", false); ("update batch after every 10th", true) ]

(* ---------------------------------------------------------------- C1 *)

(* What the cluster router costs.  perfbench sharded-ranked's corpus (48
   books, seed 7919) is split over two shard daemons behind a router, all
   in this process, as lib/workload's scenarios start them.  The same
   paced phrase and ranked queries go once through the router and once
   straight to both shards; the process's CPU per query differs by what
   the router spends on a query, less one client exchange. *)
let c1_router_cost () =
  Harness.section
    "C1: router CPU per query — through the router vs straight to the shards";
  let module Srv = Galatex_server.Server in
  let module Client = Galatex_server.Client in
  let module Protocol = Galatex_server.Protocol in
  let module Router = Galatex_cluster.Router in
  let root = Printf.sprintf "c1-scratch-%d" (Unix.getpid ()) in
  let sock part = Printf.sprintf "c1-%d-%s.sock" (Unix.getpid ()) part in
  Unix.mkdir root 0o755;
  let sources =
    List.map
      (fun (uri, d) -> (uri, Xmlkit.Printer.to_string d))
      (navigation_corpus 48)
  in
  let shards =
    Array.mapi
      (fun i part ->
        let index_dir = Filename.concat root (Printf.sprintf "s%d" i) in
        let socket_path = sock (Printf.sprintf "s%d" i) in
        Ftindex.Store.save ~dir:index_dir (Ftindex.Indexer.index_strings part);
        (socket_path, Srv.start (Srv.default_config ~index_dir ~socket_path)))
      (Corpus.Partition.split ~shards:2 sources)
  in
  let router_sock = sock "rt" in
  let router =
    Router.start
      (Router.default_config
         ~shards:
           (Array.to_list
              (Array.map
                 (fun (primary, _) -> { Router.primary; replicas = [] })
                 shards))
         ~socket_path:router_sock)
  in
  (* perfbench's two-word templates from the rank band 5-40: phrase counts
     and scored top-5, alternating *)
  let queries =
    let rng = Corpus.Splitmix.create 7919 in
    Array.init 40 (fun slot ->
        let w () = Corpus.Vocab.word_for_rank (5 + Corpus.Splitmix.int rng 35) in
        let a = w () and b = w () in
        if slot mod 2 = 0 then
          Protocol.query_request
            (Printf.sprintf
               {|count(collection()//book[. ftcontains "%s %s"])|} a b)
        else
          Protocol.query_request ~merge:(Protocol.Merge_topk 5)
            (Printf.sprintf
               {|subsequence(for $b in collection()//book let $s := ft:score($b, "%s %s") where $s > 0 order by $s descending return concat(string($s), " ", string($b/@id)), 1, 5)|}
               a b))
  in
  let count = 500 and rate = 500.0 and rounds = 5 in
  let failures = ref 0 in
  let ask socket_path q =
    match Client.request ~recv_timeout:5.0 ~socket_path (Protocol.Query q) with
    | Ok (Protocol.Value { Protocol.partial = None; _ }) -> ()
    | Ok _ | Error _ -> incr failures
  in
  (* process CPU (every thread: client, router, shards) per query, in ms *)
  let paced send =
    let cpu () =
      let t = Unix.times () in
      t.Unix.tms_utime +. t.Unix.tms_stime
    in
    let c0 = cpu () and t0 = Unix.gettimeofday () in
    for i = 0 to count - 1 do
      let wait = t0 +. (float_of_int i /. rate) -. Unix.gettimeofday () in
      if wait > 0. then Unix.sleepf wait;
      send queries.(i mod Array.length queries)
    done;
    (cpu () -. c0) *. 1000.0 /. float_of_int count
  in
  let through q = ask router_sock q in
  let direct q = Array.iter (fun (s, _) -> ask s q) shards in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Array.iter (fun (_, d) -> Srv.stop d) shards;
      rm_rf root)
    (fun () ->
      ignore (paced through);
      Harness.row
        "  %d queries at %.0f/s per row (half phrase counts, half scored top-5);\n\
        \  process CPU ms per query; the router's share = through - direct\n\n"
        count rate;
      Harness.row "  %5s %10s %10s %10s\n" "round" "through" "direct" "router";
      let rows =
        List.init rounds (fun round ->
            let r = paced through in
            let d = paced direct in
            Harness.row "  %5d %10.3f %10.3f %10.3f\n" (round + 1) r d (r -. d);
            r -. d)
      in
      Harness.row "  median router share %.3f ms per query; %d failed requests\n"
        (List.nth (List.sort compare rows) (rounds / 2))
        !failures)

(* ---------------------------------------------------------------- W1 *)

(* A perfbench workload's schedule replayed in process: its corpus, its
   queries and update batches, each event at its due time, so each query
   meets the caches a paced daemon's evaluation meets.  Per query family,
   the process CPU (Sys.time) and minor-heap words of the evaluation alone:
   no protocol, no queueing, one engine however many shards the workload
   has.  Quieter than daemon pairs for sizing an evaluation change. *)
let w1_replay params =
  let workload, seed, seconds =
    match params with
    | [] -> ("scan-large", 1, 8.0)
    | [ w ] -> (w, 1, 8.0)
    | [ w; s ] -> (w, int_of_string s, 8.0)
    | w :: s :: secs :: _ -> (w, int_of_string s, float_of_string secs)
  in
  match Perfbench_core.Gen.find workload with
  | None -> Printf.eprintf "W1: unknown workload %s\n" workload
  | Some w ->
      Harness.section
        (Printf.sprintf
           "W1: perfbench %s, seed %d, %.0f s of its schedule replayed in \
            process"
           workload seed seconds);
      let eng =
        ref (Galatex.Engine.of_strings (Perfbench_core.Gen.corpus w ~seed))
      in
      let events, _ = Perfbench_core.Gen.inputs w ~seed ~seconds in
      let families = Perfbench_core.Gen.families in
      let cpu = Hashtbl.create 3 and words = Hashtbl.create 3 in
      let record family ms kw =
        Hashtbl.replace cpu family
          (ms :: Option.value ~default:[] (Hashtbl.find_opt cpu family));
        Hashtbl.replace words family
          (kw +. Option.value ~default:0.0 (Hashtbl.find_opt words family))
      in
      let start = Unix.gettimeofday () in
      Array.iter
        (fun { Perfbench_core.Gen.due_ms; op } ->
          let wait = start +. (due_ms /. 1000.0) -. Unix.gettimeofday () in
          if wait > 0.0 then Unix.sleepf wait;
          match op with
          | Perfbench_core.Gen.Query q ->
              let c0 = Sys.time () and w0 = Gc.minor_words () in
              ignore
                (Sys.opaque_identity
                   (Galatex.Engine.run !eng
                      ~strategy:Galatex.Engine.Native_materialized
                      q.Perfbench_core.Gen.text));
              let w1 = Gc.minor_words () and c1 = Sys.time () in
              record q.Perfbench_core.Gen.family
                ((c1 -. c0) *. 1000.0)
                ((w1 -. w0) /. 1000.0)
          | Perfbench_core.Gen.Update ops ->
              eng := List.fold_left Galatex.Engine.apply_update !eng ops)
        events;
      Harness.row "  %-8s %8s %12s %12s %10s\n" "family" "queries"
        "cpu ms/q" "median ms" "kw/q";
      let row label samples kw =
        let n = List.length samples in
        if n > 0 then begin
          let sorted = Array.of_list samples in
          Array.sort Float.compare sorted;
          Harness.row "  %-8s %8d %12.3f %12.3f %10.1f\n" label n
            (List.fold_left ( +. ) 0.0 samples /. float_of_int n)
            sorted.(n / 2)
            (kw /. float_of_int n)
        end
      in
      List.iter
        (fun f ->
          row
            (Perfbench_core.Gen.family_name f)
            (Option.value ~default:[] (Hashtbl.find_opt cpu f))
            (Option.value ~default:0.0 (Hashtbl.find_opt words f)))
        families;
      row "all"
        (List.concat_map
           (fun f -> Option.value ~default:[] (Hashtbl.find_opt cpu f))
           families)
        (List.fold_left
           (fun acc f ->
             acc +. Option.value ~default:0.0 (Hashtbl.find_opt words f))
           0.0 families)

(* ---------------------------------------------------------------- main *)

let experiments =
  [
    ("F1", fig1); ("F2", fig2); ("F3", fig3); ("F4", fig4); ("F5", fig5);
    ("F6a", fig6a); ("F6b", fig6b); ("T1", table1);
    ("S1", s1_scoring); ("S4", s4_strategies);
    ("A1", a1_expansion_cache); ("A2", a2_translated_decomposition);
    ("R1", r1_governance); ("R2", r2_cold_start); ("N1", n1_navigation);
    ("U1", u1_updates); ("C1", c1_router_cost);
    ("W1", fun () -> w1_replay []);
  ]

(* "W1 [WORKLOAD [SEED [SECONDS]]]" takes the rest of the command line *)
let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: "W1" :: params ->
        w1_replay params;
        []
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst experiments
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None -> Printf.eprintf "unknown experiment %s\n" id)
    requested;
  Printf.printf "\nAll experiments done.\n"
