(* Scoring and top-k ranking (paper Sections 2.2, 3.3): weighted ft:score
   and the paper's own top-10 FLWOR pattern. *)

let () =
  let engine =
    Galatex.Engine.of_index
      (Corpus.Generator.index_books
         {
           Corpus.Generator.default_profile with
           Corpus.Generator.seed = 11;
           doc_count = 30;
           vocab_size = 300;
           plant =
             Some
               {
                 Corpus.Generator.phrase = [ "usability"; "testing" ];
                 doc_selectivity = 0.4;
                 para_selectivity = 0.35;
                 max_gap = 3;
                 in_order = true;
               };
         })
  in

  (* the paper's Section 2.2 top-10 query, verbatim pattern *)
  let top10 =
    {|for $result at $rank in
        (for $node in collection()//book
         let $score := ft:score($node, "usability" weight 0.8 && "testing" weight 0.2)
         where $score > 0
         order by $score descending
         return <result score="{$score}" id="{string($node/@id)}"/>)
      where $rank <= 10
      return $result|}
  in
  print_endline "Top-10 by ft:score (the paper's FLWOR pattern):";
  List.iter
    (fun item -> Printf.printf "  %s\n" (Fmt.str "%a" Xquery.Value.pp_item item))
    (Galatex.Engine.run engine top10);

  (* search on one condition, score on another (the paper's last Section 2
     example) *)
  let mixed =
    {|for $book in collection()//book[. ftcontains "usability" && "testing"]
      let $score := ft:score($book, "usability" weight 0.9)
      order by $score descending
      return concat(string($book/@id), ": ", string($score))|}
  in
  print_endline "\nSelect on one condition, score on another:";
  List.iter
    (fun item -> Printf.printf "  %s\n" (Xquery.Value.item_to_string item))
    (Galatex.Engine.run engine mixed)
