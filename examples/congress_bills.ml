(* The paper's Section 1 motivating scenario: searching US congressional
   bills for actions about "non-immigrant status".  The corpus is synthetic
   (the substitution documented in DESIGN.md) but exercises exactly the
   contrast the paper draws: fn:contains substring search vs composable
   full-text primitives. *)

let () =
  let bills =
    Corpus.Generator.bills ~seed:2005 ~count:40 ~target_fraction:0.2
      ~phrase:"non-immigrant status"
  in
  let engine = Galatex.Engine.create bills in

  (* the paper's opening query, with fn:contains *)
  let substring_query =
    {|for $b in collection()//bill
      where fn:contains(string($b//actions), "non-immigrant status")
      return string($b/@id)|}
  in
  let with_contains = Galatex.Engine.run engine substring_query in
  Printf.printf "fn:contains finds %d bills\n" (List.length with_contains);

  (* the full-text phrasing: a phrase with the special-characters option so
     "non-immigrant" matches its tokenized form *)
  let ft_query =
    {|for $b in collection()//bill[.//action ftcontains "non immigrant status"]
      order by string($b/@id) return string($b/@id)|}
  in
  let with_ft = Galatex.Engine.run engine ft_query in
  Printf.printf "ftcontains (phrase) finds %d bills:\n" (List.length with_ft);
  List.iter
    (fun item -> Printf.printf "  %s\n" (Xquery.Value.item_to_string item))
    with_ft;

  (* what fn:contains cannot express (Section 1): order and distance *)
  let distance_query =
    {|for $b in collection()//bill[.//action ftcontains "immigrant" && "status" distance at most 2 words ordered]
      order by string($b/@id) return string($b/@id)|}
  in
  Printf.printf "\nwith distance & order constraints: %d bills\n"
    (List.length (Galatex.Engine.run engine distance_query));

  (* recent bills only, mixing structure and text *)
  let recent =
    {|for $b in collection()//bill[@year >= 2002 and .//action ftcontains "immigrant"]
      order by string($b/@id) return concat(string($b/@id), " (", string($b/@year), ")")|}
  in
  Printf.printf "\nintroduced since 2002 and about immigrants:\n";
  List.iter
    (fun item -> Printf.printf "  %s\n" (Xquery.Value.item_to_string item))
    (Galatex.Engine.run engine recent);

  (* highlighted fragments (the last stage of Figure 4) *)
  let env = Galatex.Engine.env engine in
  let am =
    Galatex.Engine.selection_all_matches engine {|"immigrant status"|}
  in
  let actions =
    List.concat_map
      (fun (_, doc) ->
        List.filter
          (fun n -> Xmlkit.Node.name n = Some "action")
          (Xmlkit.Node.descendants doc))
      (Ftindex.Inverted.documents (Galatex.Engine.index engine))
  in
  match Galatex.Highlight.highlight_matches env actions am with
  | [] -> print_endline "\n(no highlighted fragments)"
  | frag :: _ ->
      Printf.printf "\nfirst highlighted action:\n%s\n"
        (Xmlkit.Printer.to_string frag)
