(* The AllMatches data model and the FTSelection operators (paper Sections
   3.1.2 and 3.2.3.1), including the Figure 3 reconstruction: FTAnd yields
   the 2x3 Cartesian product, FTDistance keeps exactly 3 matches. *)

open Galatex

let engine = lazy (Corpus.Fig1.engine ())
let env () = Engine.env (Lazy.force engine)

let selection src =
  Engine.selection_all_matches (Lazy.force engine) src

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let includes_positions (m : All_matches.match_) =
  List.map
    (fun (e : All_matches.entry) -> Ftindex.Posting.abs_pos e.All_matches.posting)
    m.All_matches.includes

let all_position_sets am =
  List.map includes_positions am.All_matches.matches |> List.sort compare

let test_ftword_positions () =
  let am = selection {|"usability"|} in
  check_int "two occurrences" 2 (All_matches.size am);
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "positions"
    [ [ 5 ]; [ 30 ] ]
    (all_position_sets am)

let test_fig3_ftand_cartesian () =
  let am = selection {|"usability" && "software"|} in
  (* Figure 3: six possible Matches *)
  check_int "6 matches (2 x 3)" 6 (All_matches.size am);
  List.iter
    (fun (m : All_matches.match_) ->
      check_int "each match has 2 includes" 2 (List.length m.All_matches.includes))
    am.All_matches.matches

let test_fig3_distance_filter () =
  let am = selection {|"usability" && "software" distance at most 10 words|} in
  (* Figure 3: only three matches survive *)
  check_int "3 matches survive" 3 (All_matches.size am);
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "the surviving pairs"
    [ [ 5; 10 ]; [ 25; 30 ]; [ 30; 35 ] ]
    (all_position_sets am)

let test_ftor_union () =
  let am = selection {|"usability" || "software"|} in
  check_int "union" 5 (All_matches.size am)

let test_unary_not () =
  let am = selection {|! "usability"|} in
  (* negation of 2 single-include matches: 1 match with 2 excludes *)
  check_int "one conjunction" 1 (All_matches.size am);
  let m = List.hd am.All_matches.matches in
  check_int "no includes" 0 (List.length m.All_matches.includes);
  check_int "two excludes" 2 (List.length m.All_matches.excludes);
  (* double negation restores satisfaction behaviour *)
  let eng = Lazy.force engine in
  let doc = Option.get (Ftindex.Inverted.document_root (Engine.index eng) Corpus.Fig1.uri) in
  let am2 = selection {|! ! "usability"|} in
  check_bool "double negation satisfied where original is" true
    (Ft_ops.node_satisfies (env ()) doc am2
    = Ft_ops.node_satisfies (env ()) doc (selection {|"usability"|}))

let test_not_of_empty_is_true () =
  let am = selection {|! "wordthatdoesnotappear"|} in
  check_int "negation of false is one empty match" 1 (All_matches.size am);
  let m = List.hd am.All_matches.matches in
  check_bool "empty match" true
    (m.All_matches.includes = [] && m.All_matches.excludes = [])

let test_mild_not () =
  (* "software not in usability software-phrase"? use simple case: positions
     of software that are not part of matches of "filler24 software" (the
     phrase at 25 has filler24 before it) *)
  let am = selection {|"software" not in "filler24 software"|} in
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "position 25 removed"
    [ [ 10 ]; [ 35 ] ]
    (all_position_sets am)

let test_ordered () =
  let am = selection {|"usability" && "software" ordered|} in
  (* usability(qpos 1) must precede software(qpos 2): pairs (5,10), (5,25),
     (5,35), (30,35) *)
  check_int "ordered pairs" 4 (All_matches.size am);
  let am_rev = selection {|"software" && "usability" ordered|} in
  (* software first: (10,30), (25,30) *)
  check_int "reversed" 2 (All_matches.size am_rev)

let test_window () =
  let am = selection {|"usability" && "software" window 6 words|} in
  (* spans: (5,10)=6 ok, (25,30)=6 ok, (30,35)=6 ok, others 20+ *)
  check_int "window 6" 3 (All_matches.size am);
  let am5 = selection {|"usability" && "software" window 5 words|} in
  check_int "window 5" 0 (All_matches.size am5)

let test_distance_ranges () =
  check_int "at least 15" 3
    (All_matches.size (selection {|"usability" && "software" distance at least 15 words|}));
  check_int "exactly 4" 3
    (All_matches.size (selection {|"usability" && "software" distance exactly 4 words|}));
  check_int "from 3 to 5" 3
    (All_matches.size (selection {|"usability" && "software" distance from 3 to 5 words|}));
  check_int "from 5 to 18" 0
    (All_matches.size (selection {|"usability" && "software" distance from 5 to 18 words|}))

let test_scope () =
  (* words 1-10 are sentence 1+2 (break after 10) — in fig1, sentence breaks
     fall after every 10th word; 5 and 10 share sentence 1; 25 and 30 are in
     sentences 3 and 3? positions 21..30 = sentence 3 *)
  let same = selection {|"usability" && "software" same sentence|} in
  check_int "same sentence pairs" 2 (All_matches.size same);
  let diff = selection {|"usability" && "software" different sentence|} in
  check_int "different sentence pairs" 4 (All_matches.size diff)

let test_scope_paragraph () =
  (* paragraphs: p1=3..20, p2=21..32, p3=33..40; title=1..2 *)
  let same = selection {|"usability" && "software" same paragraph|} in
  (* (5,10) both p1; (30,25) both p2 *)
  check_int "same paragraph" 2 (All_matches.size same)

let test_times () =
  let eng = Lazy.force engine in
  let doc = Option.get (Ftindex.Inverted.document_root (Engine.index eng) Corpus.Fig1.uri) in
  let sat src = Ft_ops.node_satisfies (env ()) doc (selection src) in
  check_bool "at least 3 software" true (sat {|"software" occurs at least 3 times|});
  check_bool "at least 4 software" false (sat {|"software" occurs at least 4 times|});
  check_bool "exactly 2 usability" true (sat {|"usability" occurs exactly 2 times|});
  check_bool "exactly 1 usability" false (sat {|"usability" occurs exactly 1 times|});
  check_bool "at most 3" true (sat {|"software" occurs at most 3 times|});
  check_bool "at most 2" false (sat {|"software" occurs at most 2 times|});
  check_bool "from 2 to 5" true (sat {|"software" occurs from 2 to 5 times|});
  check_bool "zero occurrences of missing word" true
    (sat {|"nonexistentword" occurs exactly 0 times|});
  check_bool "at least 0 is trivially true" true
    (sat {|"nonexistentword" occurs at least 0 times|})

let test_phrase () =
  (* "filler9 software" is a phrase at positions 9-10 *)
  let am = selection {|"filler9 software"|} in
  check_int "phrase occurrence" 1 (All_matches.size am);
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "phrase positions"
    [ [ 9; 10 ] ]
    (all_position_sets am);
  check_int "non-adjacent phrase" 0
    (All_matches.size (selection {|"usability software"|}))

let test_xml_round_trip () =
  let am = selection {|"usability" && "software" distance at most 10 words|} in
  let xml = All_matches.to_xml am in
  let am2 = All_matches.of_xml xml in
  check_bool "solutions preserved" true (All_matches.equal_solutions am am2);
  (* anchors too *)
  let am3 = selection {|"usability" at start|} in
  let am4 = All_matches.of_xml (All_matches.to_xml am3) in
  check_bool "anchors preserved" true (All_matches.equal_solutions am3 am4)

let test_fig5_artifacts () =
  (* Figure 5(c): AllMatches for "usability" with stemming has two matches *)
  let am = selection {|"usability" with stemming|} in
  check_bool "stemming adds matches" true (All_matches.size am >= 2)

(* --- properties --- *)

let words = [ "usability"; "software"; "users"; "filler7"; "filler23" ]

let gen_word = QCheck2.Gen.oneofl words

let gen_selection_src =
  Ft_gen.(
    selection ~words ~options:[ "" ] ~leaf_weight:3
      [
        (2, And); (2, Or); (1, Ordered); (1, Window (3, 30));
        (1, Distance (1, 25));
      ])

let prop_and_commutes_for_satisfaction =
  QCheck2.Test.make ~name:"FTAnd commutes up to node satisfaction" ~count:60
    QCheck2.Gen.(pair gen_word gen_word)
    (fun (w1, w2) ->
      let eng = Lazy.force engine in
      let doc =
        Option.get (Ftindex.Inverted.document_root (Engine.index eng) Corpus.Fig1.uri)
      in
      let nodes = Xmlkit.Node.descendants_or_self doc in
      let a = selection (Printf.sprintf "\"%s\" && \"%s\"" w1 w2) in
      let b = selection (Printf.sprintf "\"%s\" && \"%s\"" w2 w1) in
      List.for_all
        (fun n ->
          (not (Xmlkit.Node.is_element n))
          || Ft_ops.node_satisfies (env ()) n a = Ft_ops.node_satisfies (env ()) n b)
        nodes)

let prop_filters_shrink =
  QCheck2.Test.make ~name:"position filters never add matches" ~count:60
    QCheck2.Gen.(pair gen_selection_src (int_range 1 20))
    (fun (src, n) ->
      let base = selection src in
      let filtered =
        selection (Printf.sprintf "(%s distance at most %d words)" src n)
      in
      All_matches.size filtered <= All_matches.size base
      &&
      let windowed = selection (Printf.sprintf "(%s window %d words)" src n) in
      All_matches.size windowed <= All_matches.size base
      &&
      let ordered = selection (Printf.sprintf "(%s ordered)" src) in
      All_matches.size ordered <= All_matches.size base)

let prop_scores_in_unit_interval =
  QCheck2.Test.make ~name:"all match scores stay in (0,1]" ~count:60
    gen_selection_src (fun src ->
      let am = selection src in
      List.for_all
        (fun (m : All_matches.match_) ->
          m.All_matches.score > 0.0 && m.All_matches.score <= 1.0)
        am.All_matches.matches)

let prop_xml_round_trip =
  QCheck2.Test.make ~name:"AllMatches XML round trip" ~count:60 gen_selection_src
    (fun src ->
      let am = selection src in
      All_matches.equal_solutions am (All_matches.of_xml (All_matches.to_xml am)))

(* --- the two joins of the per-node kernel against their references --- *)

let posting ~doc pos =
  Ftindex.Posting.make ~doc (Tokenize.Token.make ~abs_pos:pos "w")

(* entries over two documents and a few positions, so equal (document,
   position) pairs occur; the query position tells tied entries apart *)
let gen_sorted_entries =
  QCheck2.Gen.(
    map All_matches.sort_entries
      (list_size (int_range 0 6)
         (map3
            (fun doc pos query_pos ->
              All_matches.entry ~query_pos (posting ~doc pos))
            (oneofl [ "a.xml"; "b.xml" ])
            (int_range 1 6) (int_range 1 9))))

let prop_merge_is_sort_of_append =
  QCheck2.Test.make ~name:"include merge equals sorting the appended lists"
    ~count:500
    QCheck2.Gen.(pair gen_sorted_entries gen_sorted_entries)
    (fun (a, b) ->
      List.equal ( == ) (All_matches.merge_entries a b)
        (All_matches.sort_entries (a @ b)))

(* The hash join the binary-search join replaced: each follower indexed by
   (document, position), the nearest of the allowed distances wins. *)
let hash_join first followers =
  let tables =
    List.map
      (fun (gap, entries) ->
        let tbl = Hashtbl.create 64 in
        Array.iter
          (fun ((p, _) as e) ->
            Hashtbl.replace tbl
              (p.Ftindex.Posting.doc, Ftindex.Posting.abs_pos p)
              e)
          entries;
        (gap, tbl))
      followers
  in
  List.filter_map
    (fun ((p0, _) as e0) ->
      let rec extend acc prev = function
        | [] -> Some (List.rev acc)
        | (gap, tbl) :: more ->
            let rec try_delta d =
              if d > gap + 1 then None
              else
                match Hashtbl.find_opt tbl (p0.Ftindex.Posting.doc, prev + d) with
                | Some e -> Some e
                | None -> try_delta (d + 1)
            in
            (match try_delta 1 with
            | Some ((p, _) as e) ->
                extend (e :: acc) (Ftindex.Posting.abs_pos p) more
            | None -> None)
      in
      extend [ e0 ] (Ftindex.Posting.abs_pos p0) tables)
    first

(* one token's entries: ascending positions in each of two documents,
   each a step of 1 to 3 after the last, so adjacent and gap-skipping
   extensions both occur *)
let gen_run =
  let doc_positions =
    QCheck2.Gen.(
      map
        (fun steps ->
          List.rev
            (snd
               (List.fold_left
                  (fun (pos, acc) step -> (pos + step, (pos + step) :: acc))
                  (0, []) steps)))
        (list_size (int_range 0 8) (int_range 1 3)))
  in
  QCheck2.Gen.(
    map2
      (fun a b ->
        Array.of_list
          (List.map (fun pos -> (posting ~doc:"a.xml" pos, 0.5)) a
          @ List.map (fun pos -> (posting ~doc:"b.xml" pos, 0.25)) b))
      doc_positions doc_positions)

let prop_phrase_join_is_hash_join =
  QCheck2.Test.make ~name:"binary-search phrase join equals a hash join"
    ~count:500
    QCheck2.Gen.(pair gen_run (list_size (int_range 1 3) (pair (int_range 0 2) gen_run)))
    (fun (first, followers) ->
      let first = Array.to_list first in
      List.equal (List.equal ( == ))
        (Ft_ops.join_phrase first followers)
        (hash_join first followers))

let tests =
  [
    Alcotest.test_case "FTWord positions" `Quick test_ftword_positions;
    Alcotest.test_case "Figure 3: FTAnd Cartesian product" `Quick
      test_fig3_ftand_cartesian;
    Alcotest.test_case "Figure 3: FTDistance keeps 3 of 6" `Quick
      test_fig3_distance_filter;
    Alcotest.test_case "FTOr union" `Quick test_ftor_union;
    Alcotest.test_case "FTUnaryNot (DNF negation)" `Quick test_unary_not;
    Alcotest.test_case "negation of empty" `Quick test_not_of_empty_is_true;
    Alcotest.test_case "FTMildNot" `Quick test_mild_not;
    Alcotest.test_case "FTOrdered" `Quick test_ordered;
    Alcotest.test_case "FTWindow" `Quick test_window;
    Alcotest.test_case "FTDistance ranges" `Quick test_distance_ranges;
    Alcotest.test_case "FTScope sentences" `Quick test_scope;
    Alcotest.test_case "FTScope paragraphs" `Quick test_scope_paragraph;
    Alcotest.test_case "FTTimes" `Quick test_times;
    Alcotest.test_case "phrase matching" `Quick test_phrase;
    Alcotest.test_case "XML round trip" `Quick test_xml_round_trip;
    Alcotest.test_case "Figure 5 artifacts" `Quick test_fig5_artifacts;
    QCheck_alcotest.to_alcotest prop_and_commutes_for_satisfaction;
    QCheck_alcotest.to_alcotest prop_filters_shrink;
    QCheck_alcotest.to_alcotest prop_scores_in_unit_interval;
    QCheck_alcotest.to_alcotest prop_xml_round_trip;
    QCheck_alcotest.to_alcotest prop_merge_is_sort_of_append;
    QCheck_alcotest.to_alcotest prop_phrase_join_is_hash_join;
  ]
