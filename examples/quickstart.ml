(* Quickstart: index two documents, run full-text queries, inspect the
   translation and the AllMatches — `dune exec examples/quickstart.exe`. *)

let doc1 =
  {|<book>
  <title>Improving Usability</title>
  <content>
    <p>Usability testing is important. Software usability depends on careful testing.</p>
    <p>We discuss the usability of software interfaces.</p>
  </content>
</book>|}

let doc2 =
  {|<book>
  <title>Databases</title>
  <content>
    <p>Relational databases store tuples. Query processing uses indexes.</p>
  </content>
</book>|}

let () =
  (* 1. index a corpus (the off-line preprocessing of Figure 4) *)
  let engine =
    Galatex.Engine.of_strings [ ("doc1.xml", doc1); ("doc2.xml", doc2) ]
  in

  (* 2. run an XQuery Full-Text query *)
  let query =
    {|//book[.//p ftcontains "usability" && "testing" window 8 words]/title|}
  in
  Printf.printf "Query:\n  %s\n\nResult:\n" query;
  List.iter
    (fun item -> Printf.printf "  %s\n" (Fmt.str "%a" Xquery.Value.pp_item item))
    (Galatex.Engine.run engine query);

  (* 3. the same query under the paper's all-XQuery translated strategy *)
  let translated_result =
    Galatex.Engine.run engine ~strategy:Galatex.Engine.Translated query
  in
  Printf.printf "\nTranslated strategy agrees: %b\n"
    (Xquery.Value.to_display_string translated_result
    = Xquery.Value.to_display_string (Galatex.Engine.run engine query));

  (* 4. see what the translation produces (Section 3.2.2) *)
  Printf.printf "\nTranslated XQuery:\n  %s\n"
    (Galatex.Engine.translate_to_text query);

  (* 5. scores (Section 2.2): one float per context node *)
  let scores =
    Galatex.Engine.run engine
      {|for $b in //book return ft:score($b, "usability" weight 0.8 && "testing" weight 0.2)|}
  in
  Printf.printf "\nScores: %s\n" (Xquery.Value.to_display_string scores);

  (* 6. the AllMatches value behind a selection (Figure 3) *)
  let am =
    Galatex.Engine.selection_all_matches engine
      {|"usability" && "testing"|}
  in
  Printf.printf "\nAllMatches for \"usability\" && \"testing\": %d matches\n"
    (Galatex.All_matches.size am);
  print_endline (Xmlkit.Printer.pretty (Galatex.All_matches.to_xml am))
