open Ftindex

let check = Alcotest.check

let small_corpus () =
  Indexer.index_strings
    [
      ("d1.xml", "<doc><p>alpha beta gamma. alpha delta.</p></doc>");
      ("d2.xml", "<doc><p>beta beta epsilon</p><p>alpha</p></doc>");
    ]

let test_postings () =
  let idx = small_corpus () in
  let alpha = Inverted.postings idx "alpha" in
  check Alcotest.int "alpha occurrences" 3 (List.length alpha);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "alpha (doc, pos) sorted"
    [ ("d1.xml", 1); ("d1.xml", 4); ("d2.xml", 4) ]
    (List.map (fun p -> (p.Posting.doc, Posting.abs_pos p)) alpha);
  check Alcotest.int "missing word" 0 (List.length (Inverted.postings idx "zeta"));
  check Alcotest.int "case folded lookup" 3
    (List.length (Inverted.postings idx "ALPHA"))

let test_distinct_words () =
  let idx = small_corpus () in
  check (Alcotest.list Alcotest.string) "distinct words"
    [ "alpha"; "beta"; "delta"; "epsilon"; "gamma" ]
    (Inverted.distinct_words idx);
  check Alcotest.int "count" 5 (Inverted.distinct_word_count idx);
  check Alcotest.int "total postings" 9 (Inverted.total_postings idx)

let test_duplicate_uri_rejected () =
  let idx = small_corpus () in
  let doc = Xmlkit.Parser.parse_document "<a>x</a>" in
  match Indexer.add_document idx ~uri:"d1.xml" doc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate uri rejection"

let test_position_in_node () =
  let idx = small_corpus () in
  let d2 = Option.get (Inverted.document_root idx "d2.xml") in
  let second_p =
    List.nth (Xmlkit.Node.children (List.hd (Xmlkit.Node.children d2))) 1
  in
  let alpha_in_p2 =
    Inverted.postings_in idx ~doc:"d2.xml"
      ~node_dewey:(Xmlkit.Node.dewey second_p) "alpha"
  in
  check Alcotest.int "alpha in second p" 1 (List.length alpha_in_p2);
  let beta_in_p2 =
    Inverted.postings_in idx ~doc:"d2.xml"
      ~node_dewey:(Xmlkit.Node.dewey second_p) "beta"
  in
  check Alcotest.int "beta not in second p" 0 (List.length beta_in_p2)

let test_doc_of_node () =
  let idx = small_corpus () in
  let d1 = Option.get (Inverted.document_root idx "d1.xml") in
  let p = List.hd (Xmlkit.Node.children (List.hd (Xmlkit.Node.children d1))) in
  check (Alcotest.option Alcotest.string) "doc recovered" (Some "d1.xml")
    (Inverted.doc_of_node idx p);
  let foreign = Xmlkit.Parser.parse_document "<x/>" in
  check (Alcotest.option Alcotest.string) "foreign node" None
    (Inverted.doc_of_node idx foreign)

let test_node_extent () =
  let idx = small_corpus () in
  let d2 = Option.get (Inverted.document_root idx "d2.xml") in
  let doc_elem = List.hd (Xmlkit.Node.children d2) in
  let p1 = List.nth (Xmlkit.Node.children doc_elem) 0 in
  let p2 = List.nth (Xmlkit.Node.children doc_elem) 1 in
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "p1 extent" (Some (1, 3))
    (Inverted.node_extent idx ~doc:"d2.xml" ~node_dewey:(Xmlkit.Node.dewey p1));
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "p2 extent" (Some (4, 4))
    (Inverted.node_extent idx ~doc:"d2.xml" ~node_dewey:(Xmlkit.Node.dewey p2));
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "whole doc" (Some (1, 4))
    (Inverted.node_extent idx ~doc:"d2.xml" ~node_dewey:(Xmlkit.Node.dewey doc_elem))

(* --- stats / scores --- *)

let test_stats () =
  let idx = small_corpus () in
  let stats = Inverted.stats idx in
  check Alcotest.int "doc count" 2 (Stats.doc_count stats);
  check Alcotest.int "df alpha" 2 (Stats.document_frequency stats "alpha");
  check Alcotest.int "df gamma" 1 (Stats.document_frequency stats "gamma");
  (* tf is the length of the document's run of the word *)
  check Alcotest.int "tf beta in d2" 2
    (Array.length (Inverted.postings_of_doc idx ~doc:"d2.xml" "beta"));
  check Alcotest.int "d1 token count" 5
    (Array.length (Inverted.tokens_of_doc idx ~doc:"d1.xml"))

let test_scores_in_unit_interval () =
  let idx = small_corpus () in
  List.iter
    (fun w ->
      Inverted.Doc_map.iter
        (fun doc run ->
          let s = Inverted.score idx ~doc run in
          if not (s > 0.0 && s <= 1.0) then
            Alcotest.failf "score of %s in %s out of (0,1]: %f" w doc s)
        (Inverted.runs idx w))
    (Inverted.distinct_words idx)

let test_rarer_scores_higher () =
  let idx = small_corpus () in
  let stats = Inverted.stats idx in
  (* gamma (df 1) must outscore alpha (df 2) within d1 where both occur
     once... alpha occurs twice in d1, so compare idf directly *)
  check Alcotest.bool "idf monotone in rarity" true
    (Stats.idf_norm stats "gamma" > Stats.idf_norm stats "alpha")

(* --- XML externalization (Figure 5(b)) --- *)

let test_inverted_list_round_trip () =
  let idx = small_corpus () in
  let doc = Index_xml.inverted_list_document idx "beta" in
  let word, postings = Index_xml.postings_of_inverted_list doc in
  check Alcotest.string "word" "beta" word;
  let original = Inverted.postings idx "beta" in
  check Alcotest.int "entries" (List.length original) (List.length postings);
  List.iter2
    (fun a b ->
      check Alcotest.string "doc" a.Posting.doc b.Posting.doc;
      check Alcotest.int "pos" (Posting.abs_pos a) (Posting.abs_pos b);
      check Alcotest.int "sentence" (Posting.sentence a) (Posting.sentence b);
      check Alcotest.int "para" (Posting.para a) (Posting.para b);
      check Alcotest.string "dewey"
        (Xmlkit.Dewey.to_string (Posting.node a))
        (Xmlkit.Dewey.to_string (Posting.node b)))
    original postings;
  (* each entry's score attribute is the query-time score of its run *)
  List.iter
    (fun ti ->
      let p = Index_xml.posting_of_token_info ti in
      let want =
        Inverted.score idx ~doc:p.Posting.doc
          (Inverted.postings_of_doc idx ~doc:p.Posting.doc "beta")
      in
      match Xmlkit.Node.attribute_value ti "score" with
      | Some s -> check (Alcotest.float 0.0) "score" want (float_of_string s)
      | None -> Alcotest.fail "TokenInfo without a score attribute")
    (List.filter
       (fun n -> Xmlkit.Node.name n = Some "fts:TokenInfo")
       (Xmlkit.Node.descendants_or_self doc))

let test_distinct_words_document () =
  let idx = small_corpus () in
  let doc = Index_xml.distinct_words_document idx in
  check (Alcotest.list Alcotest.string) "distinct list round trip"
    (Inverted.distinct_words idx)
    (Index_xml.words_of_distinct_list doc)

(* property: every posting's position is within its own node's extent, and
   containment via postings_in is consistent with node_extent *)
let prop_extent_consistent =
  QCheck2.Test.make ~name:"postings fall inside their node extents" ~count:50
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let profile =
        {
          Corpus.Generator.default_profile with
          Corpus.Generator.seed;
          doc_count = 2;
          sections_per_doc = 2;
          paras_per_section = 2;
          words_per_para = 12;
          vocab_size = 30;
        }
      in
      let idx = Corpus.Generator.index_books profile in
      List.for_all
        (fun w ->
          List.for_all
            (fun p ->
              match
                Inverted.node_extent idx ~doc:p.Posting.doc
                  ~node_dewey:(Posting.node p)
              with
              | Some (lo, hi) -> Posting.abs_pos p >= lo && Posting.abs_pos p <= hi
              | None -> false)
            (Inverted.postings idx w))
        (Inverted.distinct_words idx))

(* --- per-document layout --- *)

let sorted_by_pos ps = List.sort Posting.compare_pos ps = ps

(* Postings are ordered by (document uri, position), not by indexing order:
   d10.xml sorts between d1.xml and d2.xml, and a document added later
   through the log under a smaller uri comes first. *)
let test_postings_order () =
  let idx =
    Indexer.index_strings
      (List.init 12 (fun i ->
           ( Printf.sprintf "d%d.xml" (i + 1),
             Printf.sprintf "<doc><p>alpha %s beta</p><p>alpha</p></doc>"
               (String.concat " " (List.init (i mod 3) (fun _ -> "gamma"))) )))
  in
  let idx =
    Wal.apply idx
      (Wal.Add_doc { uri = "a0.xml"; source = "<doc><p>beta alpha</p></doc>" })
  in
  List.iter
    (fun w ->
      check Alcotest.bool
        (w ^ " sorted by (document, position)")
        true
        (sorted_by_pos (Inverted.postings idx w)))
    (Inverted.distinct_words idx);
  let by_uri =
    List.sort compare (List.init 12 (fun i -> Printf.sprintf "d%d.xml" (i + 1)))
  in
  check (Alcotest.list Alcotest.string) "alpha in document uri order"
    ("a0.xml" :: List.concat_map (fun d -> [ d; d ]) by_uri)
    (List.map (fun p -> p.Posting.doc) (Inverted.postings idx "alpha"))

(* the definition [doc_of_node] had before the root table: a scan of the
   document list by root identity *)
let linear_doc_of_node idx node =
  let root = Xmlkit.Node.root node in
  List.find_map
    (fun (uri, r) -> if Xmlkit.Node.equal r root then Some uri else None)
    (Inverted.documents idx)

let gen_doc_source =
  let open QCheck2.Gen in
  let text =
    list_size (int_range 1 4) (oneofl [ "alpha"; "beta"; "Gamma"; "delta"; "the" ])
    >|= String.concat " "
  in
  (* mixed content: text and elements interleave at every level *)
  let rec element depth =
    let* name = oneofl [ "a"; "b"; "c" ] in
    let* kids =
      if depth = 0 then map (fun t -> [ t ]) text
      else
        list_size (int_range 1 3)
          (frequency [ (2, text); (1, element (depth - 1)) ])
    in
    return (Printf.sprintf "<%s>%s</%s>" name (String.concat " " kids) name)
  in
  int_range 0 3 >>= element

let gen_layout_case =
  let open QCheck2.Gen in
  let uri = oneofl [ "a.xml"; "b.xml"; "d10.xml"; "d9.xml" ] in
  let op =
    let* uri = uri in
    frequency
      [
        (3, map (fun source -> Wal.Add_doc { uri; source }) gen_doc_source);
        (1, return (Wal.Remove_doc uri));
      ]
  in
  pair
    (list_size (int_range 1 4) (pair uri gen_doc_source))
    (list_size (int_range 0 8) op)

let print_layout_case (docs, ops) =
  String.concat "\n"
    (List.map (fun (u, s) -> u ^ ": " ^ s) docs
    @ List.map
        (function
          | Wal.Add_doc { uri; source } -> "add " ^ uri ^ ": " ^ source
          | Wal.Remove_doc uri -> "remove " ^ uri)
        ops)

(* Per-document access agrees with filtering the whole list through
   containsPos for every (document, node, word), and the root table agrees
   with the linear scan, across random corpora and random log updates. *)
let prop_per_document_access =
  QCheck2.Test.make ~name:"per-document runs and doc_of_node match their definitions"
    ~count:60 ~print:print_layout_case gen_layout_case (fun (docs, ops) ->
      let docs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) docs in
      let idx = Indexer.index_strings docs in
      (* roots that leave the index through a replace or a remove *)
      let retired = ref [] in
      let idx =
        List.fold_left
          (fun idx op ->
            let uri =
              match op with Wal.Add_doc { uri; _ } | Wal.Remove_doc uri -> uri
            in
            Option.iter
              (fun r -> retired := r :: !retired)
              (Inverted.document_root idx uri);
            Wal.apply idx op)
          idx ops
      in
      let words = "nosuchword" :: Inverted.distinct_words idx in
      let constructed = Xmlkit.Parser.parse_document "<a>alpha</a>" in
      List.for_all
        (fun w ->
          let all = Inverted.postings idx w in
          (* snapshots may list a word's postings in another order (older
             ones in indexing order): any order regroups into the same runs *)
          let shuffled =
            List.stable_sort
              (fun a b -> compare (Posting.abs_pos b) (Posting.abs_pos a))
              all
          in
          sorted_by_pos all
          && List.concat_map
               (fun (_, run) -> Array.to_list run)
               (Inverted.Doc_map.bindings (Inverted.runs_of_postings shuffled))
             = all)
        words
      && List.for_all
           (fun (doc, root) ->
             let nodes = Xmlkit.Node.descendants_or_self root in
             List.for_all
               (fun node ->
                 let node_dewey = Xmlkit.Node.dewey node in
                 linear_doc_of_node idx node = Inverted.doc_of_node idx node
                 && List.for_all
                      (fun w ->
                        let all = Inverted.postings idx w in
                        Inverted.postings_in idx ~doc ~node_dewey w
                        = List.filter
                            (fun p -> Inverted.position_in_node idx p ~doc ~node_dewey)
                            all
                        && Array.to_list (Inverted.postings_of_doc idx ~doc w)
                           = List.filter (fun p -> p.Posting.doc = doc) all)
                      words)
               nodes
             (* several context nodes at once: nested, repeated (the
                document node and its element share a label) and adjacent
                (sibling texts) *)
             && List.for_all
                  (fun group ->
                    let deweys = List.map Xmlkit.Node.dewey group in
                    List.for_all
                      (fun w ->
                        let run = Inverted.postings_of_doc idx ~doc w in
                        Inverted.run_within run deweys
                        = List.filter
                            (fun p ->
                              List.exists
                                (fun d -> Xmlkit.Dewey.contains d (Posting.node p))
                                deweys)
                            (Array.to_list run))
                      words)
                  [ nodes; List.filter Xmlkit.Node.is_text nodes ])
           (Inverted.documents idx)
      && List.for_all
           (fun n -> Inverted.doc_of_node idx n = None)
           (Xmlkit.Node.descendants_or_self constructed)
      && List.for_all
           (fun r ->
             List.for_all
               (fun n -> Inverted.doc_of_node idx n = None)
               (Xmlkit.Node.descendants_or_self r))
           !retired)

let tests =
  [
    Alcotest.test_case "postings" `Quick test_postings;
    Alcotest.test_case "distinct words" `Quick test_distinct_words;
    Alcotest.test_case "duplicate uri rejected" `Quick test_duplicate_uri_rejected;
    Alcotest.test_case "position in node (containsPos)" `Quick test_position_in_node;
    Alcotest.test_case "doc of node" `Quick test_doc_of_node;
    Alcotest.test_case "node extent" `Quick test_node_extent;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "scores in (0,1]" `Quick test_scores_in_unit_interval;
    Alcotest.test_case "idf monotone" `Quick test_rarer_scores_higher;
    Alcotest.test_case "inverted list XML round trip" `Quick
      test_inverted_list_round_trip;
    Alcotest.test_case "distinct words document" `Quick test_distinct_words_document;
    QCheck_alcotest.to_alcotest prop_extent_consistent;
    Alcotest.test_case "postings ordered by (document, position)" `Quick
      test_postings_order;
    QCheck_alcotest.to_alcotest prop_per_document_access;
  ]
