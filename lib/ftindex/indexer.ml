(* Off-line document preprocessing (Figure 4, upper left): tokenize each
   input document, update the corpus statistics, and build the in-memory
   inverted index. *)

(* Group one document's token stream by normalized word into [postings]:
   tokens arrive in ascending position, so every run is already sorted. *)
let add_runs postings ~uri tokens =
  let by_word = Hashtbl.create 256 in
  Array.iter
    (fun (tok : Tokenize.Token.t) ->
      let w = tok.Tokenize.Token.norm in
      Hashtbl.replace by_word w
        (tok :: Option.value ~default:[] (Hashtbl.find_opt by_word w)))
    tokens;
  Hashtbl.iter
    (fun w toks ->
      let run = Array.of_list (List.rev_map (Posting.make ~doc:uri) toks) in
      let runs =
        Option.value ~default:Inverted.Doc_map.empty (Hashtbl.find_opt postings w)
      in
      Hashtbl.replace postings w (Inverted.Doc_map.add uri run runs))
    by_word

let duplicate uri = invalid_arg ("Indexer: duplicate document uri " ^ uri)

let index_tokenized docs =
  (* Every live update copies both tables, and a bucket array above 256
     words is allocated in the major heap: start no larger than that. *)
  let postings = Hashtbl.create 256 and doc_tokens = Hashtbl.create 16 in
  List.iter
    (fun (uri, _, tokens) ->
      if Hashtbl.mem doc_tokens uri then duplicate uri;
      Hashtbl.replace doc_tokens uri tokens;
      add_runs postings ~uri tokens)
    docs;
  Inverted.make
    ~documents:(List.map (fun (uri, root, _) -> (uri, root)) docs)
    ~postings ~doc_tokens
    ~stats:(Stats.of_documents (List.map (fun (uri, _, tokens) -> (uri, tokens)) docs))
    ~total_postings:
      (List.fold_left (fun n (_, _, tokens) -> n + Array.length tokens) 0 docs)

let tokenize ?config root =
  Array.of_list (Tokenize.Segmenter.tokenize_document ?config root)

(* The incremental path (live updates): copy the two tables, add one
   document.  Runs are shared with the previous index version. *)
let add_document ?config (index : Inverted.t) ~uri root =
  if List.mem_assoc uri index.Inverted.documents then duplicate uri;
  let tokens = tokenize ?config root in
  let postings = Hashtbl.copy index.Inverted.postings in
  add_runs postings ~uri tokens;
  let doc_tokens = Hashtbl.copy index.Inverted.doc_tokens in
  Hashtbl.replace doc_tokens uri tokens;
  Inverted.make
    ~documents:(index.Inverted.documents @ [ (uri, root) ])
    ~postings ~doc_tokens
    ~stats:(Stats.add_document index.Inverted.stats ~doc:uri tokens)
    ~total_postings:(index.Inverted.total_postings + Array.length tokens)

let index_documents ?config docs =
  index_tokenized
    (List.map (fun (uri, root) -> (uri, root, tokenize ?config root)) docs)

let index_strings ?config docs =
  index_documents ?config
    (List.map (fun (uri, src) -> (uri, Xmlkit.Parser.parse_document ~uri src)) docs)
