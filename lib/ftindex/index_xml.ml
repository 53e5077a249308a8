open Xmlkit

(* XML externalization of the index, exactly the representation the paper
   chooses (Section 3.2.1, Figure 5(b)): one inverted-list document per
   distinct word, each position a TokenInfo element with the word, the
   containing node's Dewey label (prefixPos) and the absolute position
   (absPos); plus the distinct-word list document that match-option
   expansion iterates over (Section 3.2.3.2). *)

let token_info p extra =
  Node.element "fts:TokenInfo"
    ~attributes:
      ([
         (* the surface form: case-sensitive match options compare against it *)
         Node.attribute "word" p.Posting.token.Tokenize.Token.word;
         Node.attribute "doc" p.Posting.doc;
         Node.attribute "prefixPos" (Dewey.to_string (Posting.node p));
         Node.attribute "absPos" (string_of_int (Posting.abs_pos p));
         Node.attribute "sentence" (string_of_int (Posting.sentence p));
         Node.attribute "para" (string_of_int (Posting.para p));
       ]
      @ extra)
    []

let token_info_element p = token_info p []

(* the translated strategy multiplies [$pos/@score]: one score per run *)
let inverted_list_document index word =
  let word = Tokenize.Normalize.casefold word in
  let score_of = Inverted.scorer index word in
  let entries =
    Inverted.Doc_map.fold
      (fun doc run acc ->
        let score = Printf.sprintf "%.17g" (score_of ~doc run) in
        let score = Node.attribute "score" score in
        Array.fold_left (fun acc p -> token_info p [ score ] :: acc) acc run)
      (Inverted.runs index word) []
  in
  Node.seal
    (Node.document
       ~uri:("invlist_" ^ word ^ ".xml")
       [
         Node.element "fts:InvertedList"
           ~attributes:[ Node.attribute "word" word ]
           (List.rev entries);
       ])

let distinct_words_document index =
  Node.seal
    (Node.document ~uri:"list_distinct_words.xml"
       [
         Node.element "ListDistinctWords"
           (List.map
              (fun w ->
                Node.element "invlist"
                  ~attributes:[ Node.attribute "word" w ]
                  [])
              (Inverted.distinct_words index));
       ])

let export_all index =
  distinct_words_document index
  :: List.map (inverted_list_document index) (Inverted.distinct_words index)

(* --- import --- *)

let attr_exn node name =
  match Node.attribute_value node name with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Index_xml: missing attribute %s on %s" name
           (Option.value ~default:"?" (Node.name node)))

let posting_of_token_info node =
  let word = attr_exn node "word" in
  let doc = attr_exn node "doc" in
  let dewey = Dewey.of_string (attr_exn node "prefixPos") in
  let abs_pos = int_of_string (attr_exn node "absPos") in
  let sentence = int_of_string (attr_exn node "sentence") in
  let para = int_of_string (attr_exn node "para") in
  Posting.make ~doc
    (Tokenize.Token.make ~node:dewey ~sentence ~para ~abs_pos word)

let postings_of_inverted_list doc_node =
  let list_elem =
    match
      List.find_opt
        (fun c -> Node.name c = Some "fts:InvertedList")
        (Node.descendants_or_self doc_node)
    with
    | Some e -> e
    | None -> invalid_arg "Index_xml: no fts:InvertedList element"
  in
  let word = attr_exn list_elem "word" in
  let entries =
    List.filter_map
      (fun c ->
        if Node.name c = Some "fts:TokenInfo" then
          Some (posting_of_token_info c)
        else None)
      (Node.children list_elem)
  in
  (word, entries)

let words_of_distinct_list doc_node =
  List.filter_map
    (fun n ->
      if Node.name n = Some "invlist" then Node.attribute_value n "word"
      else None)
    (Node.descendants_or_self doc_node)
