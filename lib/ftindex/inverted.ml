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
     sorted by (document, absolute position) — the order the pipelined
     operators of Section 4.1 sort-merge on — whatever the indexing order.
   - Runs are never mutated after they are built, so successive index
     versions (live updates) share them; the word table itself is copied on
     write. *)

module Doc_map = Map.Make (String)

type run = Posting.t array

type t = {
  documents : (string * Node.t) list;  (** uri -> sealed document root *)
  roots : (int, string * Node.t) Hashtbl.t;
      (** root tree id -> (uri, root), first document first under
          [Hashtbl.find_all] *)
  postings : (string, run Doc_map.t) Hashtbl.t;
  doc_tokens : (string, Tokenize.Token.t array) Hashtbl.t;
      (** the full token stream of each document, in position order; used for
          node word-extents, window/anchor checks and highlighting *)
  stats : Stats.t;
  total_postings : int;
}

let make ~documents ~postings ~doc_tokens ~stats ~total_postings =
  let roots = Hashtbl.create (max 16 (List.length documents)) in
  (* added last-to-first so that [find_all] lists documents in order *)
  List.iter
    (fun ((_, root) as doc) -> Hashtbl.add roots (Node.tree_id root) doc)
    (List.rev documents);
  { documents; roots; postings; doc_tokens; stats; total_postings }

let empty () =
  make ~documents:[] ~postings:(Hashtbl.create 16)
    ~doc_tokens:(Hashtbl.create 16) ~stats:(Stats.create ()) ~total_postings:0

let documents t = t.documents
let stats t = t.stats
let total_postings t = t.total_postings

(* One pass over the list: a document's entries normally arrive together
   and ascending (every snapshot lists them so), and an entry of a document
   already seen extends its run. *)
let runs_of_postings postings =
  let add runs doc rev =
    let run = Array.of_list (List.rev rev) in
    let run =
      match Doc_map.find_opt doc runs with
      | None -> run
      | Some prev -> Array.append prev run
    in
    Array.stable_sort (fun a b -> compare (Posting.abs_pos a) (Posting.abs_pos b)) run;
    Doc_map.add doc run runs
  in
  let rec group runs doc rev = function
    | [] -> if rev = [] then runs else add runs doc rev
    | (p : Posting.t) :: rest when rev <> [] && p.Posting.doc = doc ->
        group runs doc (p :: rev) rest
    | p :: rest ->
        group (if rev = [] then runs else add runs doc rev) p.Posting.doc [ p ] rest
  in
  group Doc_map.empty "" [] postings

(* Exact postings reclamation: the document's run leaves each of its own
   words (found through its token stream, so no other word is visited),
   words with no remaining run leave the distinct-word list, and corpus
   statistics forget the document — so the result matches an index that
   never contained it. *)
let remove_document t ~uri =
  match Hashtbl.find_opt t.doc_tokens uri with
  | None -> t
  | Some tokens ->
      let postings = Hashtbl.copy t.postings in
      let words = ref [] in
      Array.iter
        (fun (tok : Tokenize.Token.t) ->
          let w = tok.Tokenize.Token.norm in
          match Hashtbl.find_opt postings w with
          | Some runs when Doc_map.mem uri runs ->
              words := w :: !words;
              let runs = Doc_map.remove uri runs in
              if Doc_map.is_empty runs then Hashtbl.remove postings w
              else Hashtbl.replace postings w runs
          | Some _ | None -> ())
        tokens;
      let doc_tokens = Hashtbl.copy t.doc_tokens in
      Hashtbl.remove doc_tokens uri;
      make
        ~documents:(List.filter (fun (u, _) -> u <> uri) t.documents)
        ~postings ~doc_tokens
        ~stats:(Stats.remove_document t.stats ~doc:uri !words)
        ~total_postings:(t.total_postings - Array.length tokens)

let document_root t uri = List.assoc_opt uri t.documents

let runs t word =
  Option.value ~default:Doc_map.empty
    (Hashtbl.find_opt t.postings (Tokenize.Normalize.casefold word))

let list_of_runs runs =
  Doc_map.fold (fun _ run acc -> List.rev_append (Array.to_list run) acc) runs []
  |> List.rev

let postings t word = list_of_runs (runs t word)

let postings_of_doc t ~doc word =
  Option.value ~default:[||] (Doc_map.find_opt doc (runs t word))

(* tf is the run's length *)
let score t ~doc run =
  if Array.length run = 0 then 1.0
  else Stats.score t.stats ~doc ~tf:(Array.length run) (Posting.word run.(0))

let distinct_words t =
  Hashtbl.fold (fun w _ acc -> w :: acc) t.postings [] |> List.sort compare

let distinct_word_count t = Hashtbl.length t.postings

(* containsPos (Section 3.2.1): a position is inside a context node when the
   position's Dewey label is contained in the node's and they belong to the
   same document. *)
let position_in_node t posting ~doc ~node_dewey =
  ignore t;
  posting.Posting.doc = doc && Dewey.contains node_dewey (Posting.node posting)

(* The half-open slice [lo, hi) of a run inside a node: along a run, labels
   before the node come first, then the labels it contains, then the rest. *)
let slice run node_dewey =
  let first_not pred =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if pred run.(mid) then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length run)
  in
  let before p = Dewey.compare (Posting.node p) node_dewey < 0 in
  ( first_not before,
    first_not (fun p -> before p || Dewey.contains node_dewey (Posting.node p)) )

let prepend_slice run (lo, hi) acc =
  let acc = ref acc in
  for i = hi - 1 downto lo do
    acc := run.(i) :: !acc
  done;
  !acc

let run_within run node_deweys =
  match node_deweys with
  | [ d ] -> prepend_slice run (slice run d) []
  | _ ->
      (* nested or repeated context nodes give overlapping slices: merge
         them so every entry is read once, in position order *)
      let merged =
        List.fold_left
          (fun acc (lo, hi) ->
            match acc with
            | (l, h) :: rest when lo <= h -> (l, max h hi) :: rest
            | _ -> (lo, hi) :: acc)
          []
          (List.sort compare (List.map (slice run) node_deweys))
      in
      List.fold_left (fun acc s -> prepend_slice run s acc) [] merged

let postings_in t ~doc ~node_dewey word =
  run_within (postings_of_doc t ~doc word) [ node_dewey ]

(* The document a (sealed) node belongs to: its root's tree id finds the
   candidates, physical identity decides (a constructed tree, or the old
   root of a replaced document, is no indexed document). *)
let doc_of_node t node =
  let root = Node.root node in
  List.find_map
    (fun (uri, droot) -> if Node.equal droot root then Some uri else None)
    (Hashtbl.find_all t.roots (Node.tree_id root))

let tokens_of_doc t ~doc =
  Option.value ~default:[||] (Hashtbl.find_opt t.doc_tokens doc)

(* The word-position extent of a node: positions of a node's tokens are
   contiguous (pre-order Dewey containment), so the extent is the (first,
   last) absolute position of tokens whose Dewey label the node contains.
   None when the node contains no tokens. *)
let node_extent t ~doc ~node_dewey =
  let tokens = tokens_of_doc t ~doc in
  let n = Array.length tokens in
  let contained i =
    Dewey.contains node_dewey tokens.(i).Tokenize.Token.node
  in
  (* binary search for the first contained token: containment over a
     pre-order position array is a contiguous run, and tokens before the run
     have Dewey labels ordered before the node *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Dewey.compare tokens.(mid).Tokenize.Token.node node_dewey < 0 then
        first (mid + 1) hi
      else first lo mid
  in
  let start = first 0 n in
  if start >= n || not (contained start) then None
  else begin
    let stop = ref start in
    while !stop + 1 < n && contained (!stop + 1) do
      incr stop
    done;
    Some
      ( tokens.(start).Tokenize.Token.abs_pos,
        tokens.(!stop).Tokenize.Token.abs_pos )
  end
