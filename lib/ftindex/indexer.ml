(* Off-line document preprocessing (Figure 4, upper left): tokenize each
   input document, update the corpus statistics, and build the in-memory
   inverted index. *)

let add_document ?config (index : Inverted.t) ~uri root =
  if List.mem_assoc uri index.Inverted.documents then
    invalid_arg ("Indexer.add_document: duplicate document uri " ^ uri);
  let tokens = Tokenize.Segmenter.tokenize_document ?config root in
  let stats = Stats.add_document index.Inverted.stats ~doc:uri tokens in
  (* Group tokens by normalized word, preserving position order. *)
  let by_word = Hashtbl.create 256 in
  List.iter
    (fun (tok : Tokenize.Token.t) ->
      let w = tok.Tokenize.Token.norm in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_word w) in
      Hashtbl.replace by_word w (tok :: prev))
    tokens;
  let postings = Hashtbl.copy index.Inverted.postings in
  Hashtbl.iter
    (fun w toks ->
      (* tokens arrive in ascending position: the run is already sorted *)
      let run = Array.of_list (List.rev_map (Posting.make ~doc:uri) toks) in
      let runs =
        Option.value ~default:Inverted.Doc_map.empty (Hashtbl.find_opt postings w)
      in
      Hashtbl.replace postings w (Inverted.Doc_map.add uri run runs))
    by_word;
  let doc_tokens = Hashtbl.copy index.Inverted.doc_tokens in
  Hashtbl.replace doc_tokens uri (Array.of_list tokens);
  Inverted.make
    ~documents:(index.Inverted.documents @ [ (uri, root) ])
    ~postings ~doc_tokens ~stats
    ~total_postings:(index.Inverted.total_postings + List.length tokens)

let index_documents ?config docs =
  List.fold_left
    (fun idx (uri, root) -> add_document ?config idx ~uri root)
    (Inverted.empty ()) docs

let index_strings ?config docs =
  index_documents ?config
    (List.map (fun (uri, src) -> (uri, Xmlkit.Parser.parse_document ~uri src)) docs)
