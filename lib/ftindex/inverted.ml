open Xmlkit

(* The corpus-level inverted index (Figure 4, upper left): for every distinct
   word, all of its positions across the indexed documents, plus the distinct
   word list that drives match-option expansion (Section 3.2.3.2).

   Layout: word -> document -> run, where a run is one document's positions
   of the word in ascending absolute position.  This is the only copy of the
   postings.
   - The paper's getPositions(doc, node, word) reads one document's run and
     binary-searches the node's slice: a run ascends in position, hence in
     Dewey (document) order, so the entries a node contains are contiguous.
     No other document is touched.
   - Documents iterate in uri order, so [postings] returns the whole list
     sorted by (document, absolute position), whatever the indexing
     order.
   - Runs are never mutated after they are built, and every table is a
     persistent map, so adding or removing a document allocates O(words in
     the document x log V) and successive index versions (live updates)
     share everything else. *)

module Doc_map = Map.Make (String)
module Word_map = Map.Make (String)
module Int_map = Map.Make (Int)

(* Document order is insertion order.  Sequence numbers key the order map
   in descending order, so a fold that conses lists the first document
   first. *)
module Order = Map.Make (struct
  type t = int

  let compare a b = Int.compare b a
end)

type run = Posting.t array

type doc = {
  seq : int;  (** insertion sequence number *)
  entry : string * Node.t;  (** (uri, sealed root), shared with [order] *)
  tokens : Tokenize.Token.t array;
      (** the full token stream, in position order; used for node
          word-extents, window/anchor checks and highlighting *)
}

type t = {
  docs : doc Doc_map.t;
  order : (string * Node.t) Order.t;  (** seq -> (uri, root) *)
  next_seq : int;
  roots : (string * Node.t) list Int_map.t;
      (** root tree id -> documents with that root, first document first *)
  postings : run Doc_map.t Word_map.t;
  stats : Stats.t;
  total_postings : int;
}

let empty () =
  {
    docs = Doc_map.empty;
    order = Order.empty;
    next_seq = 0;
    roots = Int_map.empty;
    postings = Word_map.empty;
    stats = Stats.empty;
    total_postings = 0;
  }

let documents t = Order.fold (fun _ entry acc -> entry :: acc) t.order []
let document_roots t = Order.fold (fun _ (_, root) acc -> root :: acc) t.order []

let first_document t =
  (* the largest key under the descending order: the smallest seq *)
  Option.map snd (Order.max_binding_opt t.order)

let stats t = t.stats
let total_postings t = t.total_postings

(* Group one document's token stream by normalized word: tokens arrive in
   ascending position, so every run is already sorted. *)
let runs_by_word ~uri tokens =
  let by_word = Hashtbl.create 256 in
  Array.iter
    (fun (tok : Tokenize.Token.t) ->
      let w = tok.Tokenize.Token.norm in
      Hashtbl.replace by_word w
        (tok :: Option.value ~default:[] (Hashtbl.find_opt by_word w)))
    tokens;
  Hashtbl.fold
    (fun w toks acc ->
      (w, Array.of_list (List.rev_map (Posting.make ~doc:uri) toks)) :: acc)
    by_word []

(* The update primitives return, beside the new index, the words that
   entered the word map (an add) or left it (a remove): each is seen
   exactly where its run table is created or emptied. *)
let add_document t ~uri root tokens =
  if Doc_map.mem uri t.docs then
    invalid_arg ("Inverted.add_document: duplicate document uri " ^ uri);
  let runs = runs_by_word ~uri tokens in
  let entry = (uri, root) in
  let entered = ref [] in
  let t =
    {
      docs = Doc_map.add uri { seq = t.next_seq; entry; tokens } t.docs;
      order = Order.add t.next_seq entry t.order;
      next_seq = t.next_seq + 1;
      roots =
        Int_map.update (Node.tree_id root)
          (fun docs -> Some (Option.value ~default:[] docs @ [ entry ]))
          t.roots;
      postings =
        List.fold_left
          (fun postings (w, run) ->
            Word_map.update w
              (function
                | Some runs -> Some (Doc_map.add uri run runs)
                | None ->
                    entered := w :: !entered;
                    Some (Doc_map.singleton uri run))
              postings)
          t.postings runs;
      stats =
        Stats.add_document t.stats ~doc:uri
          ~max_tf:
            (List.fold_left (fun m (_, run) -> max m (Array.length run)) 1 runs)
          (List.map fst runs);
      total_postings = t.total_postings + Array.length tokens;
    }
  in
  (t, !entered)

(* Exact postings reclamation: the document's run leaves each of its own
   words (found through its token stream, so no other word is visited),
   words with no remaining run leave the distinct-word list, and corpus
   statistics forget the document — so the result matches an index that
   never contained it. *)
let remove_document t ~uri =
  match Doc_map.find_opt uri t.docs with
  | None -> (t, [])
  | Some d ->
      let words = ref [] and left = ref [] in
      let postings =
        Array.fold_left
          (fun postings (tok : Tokenize.Token.t) ->
            let w = tok.Tokenize.Token.norm in
            match Word_map.find w postings with
            | runs when Doc_map.mem uri runs ->
                words := w :: !words;
                let runs = Doc_map.remove uri runs in
                if Doc_map.is_empty runs then begin
                  left := w :: !left;
                  Word_map.remove w postings
                end
                else Word_map.add w runs postings
            | _ | (exception Not_found) -> postings)
          t.postings d.tokens
      in
      let tree_id = Node.tree_id (snd d.entry) in
      ( {
          t with
          docs = Doc_map.remove uri t.docs;
          order = Order.remove d.seq t.order;
          roots =
            Int_map.update tree_id
              (function
                | Some docs -> (
                    match List.filter (fun e -> e != d.entry) docs with
                    | [] -> None
                    | docs -> Some docs)
                | None -> None)
              t.roots;
          postings;
          stats = Stats.remove_document t.stats ~doc:uri !words;
          total_postings = t.total_postings - Array.length d.tokens;
        },
        !left )

(* The net change over a remove followed by an add of the same document
   (a replace): a word that left and came back did neither. *)
let word_delta ~left ~entered =
  let left = List.sort String.compare left
  and entered = List.sort String.compare entered in
  (* [a] minus [b], both sorted *)
  let rec minus a b =
    match (a, b) with
    | [], _ -> []
    | a, [] -> a
    | x :: a', y :: b' ->
        let c = String.compare x y in
        if c < 0 then x :: minus a' b
        else if c > 0 then minus a b'
        else minus a' b'
  in
  (minus entered left, minus left entered)

let document_root t uri =
  match Doc_map.find uri t.docs with
  | d -> Some (snd d.entry)
  | exception Not_found -> None

let runs t word =
  match Word_map.find (Tokenize.Normalize.casefold word) t.postings with
  | runs -> runs
  | exception Not_found -> Doc_map.empty

let list_of_runs runs =
  Doc_map.fold (fun _ run acc -> List.rev_append (Array.to_list run) acc) runs []
  |> List.rev

let postings t word = list_of_runs (runs t word)

let postings_of_doc t ~doc word =
  Option.value ~default:[||] (Doc_map.find_opt doc (runs t word))

let idf t word = Stats.idf_norm t.stats (Tokenize.Normalize.casefold word)

(* tf is the run's length *)
let scorer t word =
  let idf = idf t word in
  fun ~doc run ->
    if Array.length run = 0 then 1.0
    else Stats.score t.stats ~doc ~tf:(Array.length run) ~idf

let score t ~doc run =
  if Array.length run = 0 then 1.0 else scorer t (Posting.word run.(0)) ~doc run

let filter_words t keep =
  List.rev
    (Word_map.fold
       (fun w _ acc -> if keep w then w :: acc else acc)
       t.postings [])

let distinct_words t = filter_words t (fun _ -> true)
let distinct_word_count t = Word_map.cardinal t.postings

(* containsPos (Section 3.2.1): a position is inside a context node when the
   position's Dewey label is contained in the node's and they belong to the
   same document. *)
let position_in_node t posting ~doc ~node_dewey =
  ignore t;
  String.equal posting.Posting.doc doc
  && Dewey.contains node_dewey (Posting.node posting)

(* The half-open slice [lo, hi) of a position-ordered array (a run, or a
   document's token stream) inside a node: along it, labels before the
   node come first, then the labels it contains, then the rest.  Two
   binary searches, each for the first element of [lo, hi) past its
   part; [label] reads an element's Dewey label. *)
let rec past_before label a node_dewey lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Dewey.compare (label a.(mid)) node_dewey < 0 then
      past_before label a node_dewey (mid + 1) hi
    else past_before label a node_dewey lo mid

let rec past_inside label a node_dewey lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Dewey.contains node_dewey (label a.(mid)) then
      past_inside label a node_dewey (mid + 1) hi
    else past_inside label a node_dewey lo mid

(* The bounds of a node's slice.  Every label of a document lies inside
   the root label, which the document node and its root element carry:
   their slice is the whole array, found with no search. *)
let slice_start label a node_dewey =
  if Dewey.is_root node_dewey then 0
  else past_before label a node_dewey 0 (Array.length a)

let slice_stop label a node_dewey lo =
  if Dewey.is_root node_dewey then Array.length a
  else past_inside label a node_dewey lo (Array.length a)

let slice_by label a node_dewey =
  let lo = slice_start label a node_dewey in
  (lo, slice_stop label a node_dewey lo)

let map_node ~read run node_dewey f tail =
  let lo = slice_start Posting.node run node_dewey in
  let hi = slice_stop Posting.node run node_dewey lo in
  read := !read + (hi - lo);
  let acc = ref tail in
  for i = hi - 1 downto lo do
    acc := f run.(i) :: !acc
  done;
  !acc

let postings_in t ~doc ~node_dewey word =
  map_node ~read:(ref 0) (postings_of_doc t ~doc word) node_dewey Fun.id []

(* The document a (sealed) node belongs to: its root's tree id finds the
   candidates, physical identity decides (a constructed tree, or the old
   root of a replaced document, is no indexed document). *)
let rec doc_with_root root = function
  | [] -> None
  | (uri, droot) :: rest ->
      if Node.equal droot root then Some uri else doc_with_root root rest

let doc_of_node t node =
  let root = Node.root node in
  match Int_map.find (Node.tree_id root) t.roots with
  | docs -> doc_with_root root docs
  | exception Not_found -> None

let tokens_of_doc t ~doc =
  match Doc_map.find doc t.docs with
  | d -> d.tokens
  | exception Not_found -> [||]

(* The word-position extent of a node: positions of a node's tokens are
   contiguous (pre-order Dewey containment), so the extent is the (first,
   last) absolute position of the token slice the node contains.  None
   when the node contains no tokens. *)
let token_node (tok : Tokenize.Token.t) = tok.Tokenize.Token.node

let node_extent t ~doc ~node_dewey =
  let tokens = tokens_of_doc t ~doc in
  match slice_by token_node tokens node_dewey with
  | lo, hi when lo < hi ->
      Some
        ( tokens.(lo).Tokenize.Token.abs_pos,
          tokens.(hi - 1).Tokenize.Token.abs_pos )
  | _ -> None
