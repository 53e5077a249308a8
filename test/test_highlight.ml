(* Result highlighting (Figure 4: matched words are highlighted in the
   returned fragment). *)

open Galatex

let engine = lazy (Corpus.Fig1.engine ())

let doc () =
  Option.get
    (Ftindex.Inverted.document_root (Engine.index (Lazy.force engine))
       Corpus.Fig1.uri)

let am src =
  Engine.selection_all_matches (Lazy.force engine) src

let count_hl tag node =
  List.length
    (List.filter
       (fun n -> Xmlkit.Node.name n = Some tag)
       (Xmlkit.Node.descendants node))

let hl_words node =
  List.filter_map
    (fun n ->
      if Xmlkit.Node.name n = Some "fts:hl" then
        Some (Xmlkit.Node.string_value n)
      else None)
    (Xmlkit.Node.descendants node)

let test_highlight_counts () =
  let env = Engine.env (Lazy.force engine) in
  let highlighted = Highlight.highlight env (doc ()) (am {|"usability"|}) in
  Alcotest.check Alcotest.int "two hits wrapped" 2 (count_hl "fts:hl" highlighted);
  Alcotest.check (Alcotest.list Alcotest.string) "the right words"
    [ "usability"; "usability" ]
    (hl_words highlighted)

let test_highlight_preserves_text () =
  let env = Engine.env (Lazy.force engine) in
  let original = doc () in
  let highlighted = Highlight.highlight env original (am {|"software"|}) in
  Alcotest.check Alcotest.string "string value unchanged"
    (Xmlkit.Node.string_value original)
    (Xmlkit.Node.string_value highlighted);
  Alcotest.check Alcotest.int "three hits" 3 (count_hl "fts:hl" highlighted)

let test_only_satisfying_positions () =
  (* distance filter keeps 3 matches over positions {5,10}, {25,30}, {30,35}:
     all five distinct positions participate *)
  let env = Engine.env (Lazy.force engine) in
  let highlighted =
    Highlight.highlight env (doc ())
      (am {|"usability" && "software" distance at most 10 words|})
  in
  Alcotest.check Alcotest.int "five positions" 5 (count_hl "fts:hl" highlighted)

let test_subtree_highlight () =
  (* highlighting a nested node uses its own extent *)
  let env = Engine.env (Lazy.force engine) in
  let content =
    List.find
      (fun n -> Xmlkit.Node.name n = Some "content")
      (Xmlkit.Node.descendants (doc ()))
  in
  let p2 = List.nth (Xmlkit.Node.children content) 1 in
  let highlighted = Highlight.highlight env p2 (am {|"usability"|}) in
  Alcotest.check Alcotest.int "only the in-node occurrence" 1
    (count_hl "fts:hl" highlighted)

let test_highlight_matches_filter () =
  let env = Engine.env (Lazy.force engine) in
  let ps =
    List.filter
      (fun n -> Xmlkit.Node.name n = Some "p")
      (Xmlkit.Node.descendants (doc ()))
  in
  let results = Highlight.highlight_matches env ps (am {|"users"|}) in
  Alcotest.check Alcotest.int "one satisfying paragraph" 1 (List.length results);
  Alcotest.check Alcotest.int "one highlight" 1
    (count_hl "fts:hl" (List.hd results))

let test_custom_tag () =
  let env = Engine.env (Lazy.force engine) in
  let highlighted = Highlight.highlight ~tag:"em" env (doc ()) (am {|"users"|}) in
  Alcotest.check Alcotest.int "custom tag" 1 (count_hl "em" highlighted)

let tests =
  [
    Alcotest.test_case "highlight counts" `Quick test_highlight_counts;
    Alcotest.test_case "text preserved" `Quick test_highlight_preserves_text;
    Alcotest.test_case "satisfying positions only" `Quick
      test_only_satisfying_positions;
    Alcotest.test_case "subtree extents" `Quick test_subtree_highlight;
    Alcotest.test_case "highlight_matches filter" `Quick test_highlight_matches_filter;
    Alcotest.test_case "custom tag" `Quick test_custom_tag;
  ]
