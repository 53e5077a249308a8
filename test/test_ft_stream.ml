(* The pipelined strategy's defining behaviours: laziness (the early-exit
   FTContains pulls a prefix of the match space), blocking operators, and
   agreement with the materialized reference. *)

open Galatex

let engine =
  lazy
    (Engine.of_index
       (Corpus.Generator.index_books
          {
            Corpus.Generator.default_profile with
            Corpus.Generator.seed = 99;
            doc_count = 10;
            vocab_size = 50;
            words_per_para = 30;
          }))

let parsed_selection src =
  match (Xquery.Parser.parse_query (". ftcontains " ^ src)).Xquery.Ast.body with
  | Xquery.Ast.Ft_contains { selection; _ } -> selection
  | _ -> assert false

let make_stream src =
  let env = Engine.env (Lazy.force engine) in
  let resolve_doc = Fts_module.make_resolver env in
  let ctx =
    Xquery.Eval.setup_context ~resolve_doc (Xquery.Ast.query (Xquery.Ast.Sequence []))
  in
  Ft_stream.stream env ~eval:Xquery.Eval.eval ctx (parsed_selection src)

let make_am src =
  Engine.selection_all_matches (Lazy.force engine) src ~context_nodes:()

let books () =
  List.filter_map
    (fun (_, d) ->
      List.find_opt
        (fun n -> Xmlkit.Node.name n = Some "book")
        (Xmlkit.Node.children d))
    (Ftindex.Inverted.documents (Engine.index (Lazy.force engine)))

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* "ba" is the most frequent generated word: its conjunction with itself
   has a quadratic match space *)
let big_selection = {|"ba" && "ca"|}

let test_early_exit_pulls_prefix () =
  let env = Engine.env (Lazy.force engine) in
  let s = make_stream big_selection in
  let result = Ft_stream.contains env (books ()) s in
  check_bool "satisfied" true result;
  let materialized = All_matches.size (make_am big_selection) in
  check_bool
    (Printf.sprintf "pulled %d << materialized %d" s.Ft_stream.pulled materialized)
    true
    (s.Ft_stream.pulled < materialized / 10)

let test_unsatisfied_consumes_all () =
  let env = Engine.env (Lazy.force engine) in
  let src = {|"nosuchword" && "ba"|} in
  let s = make_stream src in
  check_bool "not satisfied" false (Ft_stream.contains env (books ()) s);
  check_int "nothing to pull" 0 s.Ft_stream.pulled

let test_stream_agrees_with_materialized () =
  List.iter
    (fun src ->
      let am = make_am src in
      let s = make_stream src in
      let collected = Ft_stream.to_all_matches s in
      check_bool ("same solutions: " ^ src) true
        (All_matches.equal_solutions am collected))
    [
      {|"ba" || "ca"|};
      {|"ba" && "ca" window 10 words|};
      {|"ba" && "ca" distance at most 4 words|};
      {|"ba" occurs at least 2 times|};
      {|! "nosuchword"|};
      {|"ba" not in "ba ca"|};
      {|"ba" && "ca" ordered same sentence|};
    ]

let test_blocking_ops_still_lazy_outside () =
  (* FTTimes blocks, but the enclosing FTAnd stream stays lazy *)
  let env = Engine.env (Lazy.force engine) in
  let s = make_stream {|("ba" occurs at least 1 times) && "ca"|} in
  ignore (Ft_stream.contains env (books ()) s);
  let materialized =
    All_matches.size (make_am {|("ba" occurs at least 1 times) && "ca"|})
  in
  check_bool "prefix only" true (s.Ft_stream.pulled <= materialized)

let tests =
  [
    Alcotest.test_case "early exit pulls a prefix" `Quick test_early_exit_pulls_prefix;
    Alcotest.test_case "unsatisfied pulls nothing extra" `Quick
      test_unsatisfied_consumes_all;
    Alcotest.test_case "stream = materialized solutions" `Quick
      test_stream_agrees_with_materialized;
    Alcotest.test_case "blocking ops inside lazy pipeline" `Quick
      test_blocking_ops_still_lazy_outside;
  ]
