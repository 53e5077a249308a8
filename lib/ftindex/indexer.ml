(* Off-line document preprocessing (Figure 4, upper left): tokenize each
   input document, update the corpus statistics, and build the in-memory
   inverted index. *)

let index_tokenized docs =
  List.fold_left
    (fun index (uri, root, tokens) ->
      fst (Inverted.add_document index ~uri root tokens))
    (Inverted.empty ()) docs

let tokenize ?config root =
  Array.of_list (Tokenize.Segmenter.tokenize_document ?config root)

(* The incremental path (live updates): the new version shares every run
   and table entry the document does not touch with the previous one. *)
let add_document ?config index ~uri root =
  Inverted.add_document index ~uri root (tokenize ?config root)

let index_documents ?config docs =
  index_tokenized
    (List.map (fun (uri, root) -> (uri, root, tokenize ?config root)) docs)

let index_strings ?config docs =
  index_documents ?config
    (List.map (fun (uri, src) -> (uri, Xmlkit.Parser.parse_document ~uri src)) docs)
