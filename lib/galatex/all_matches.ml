open Xmlkit

(* The AllMatches data model (paper Section 3.1.2): the set of all position
   solutions of a full-text selection, viewed as a DNF formula.  Each Match
   is a disjunct; each StringInclude is the proposition "the context node
   contains this position", each StringExclude the proposition "it does
   not".  Matches additionally carry the probabilistic score of Section
   3.3. *)

type entry = {
  query_pos : int;
      (** relative position of the originating search word in the query
          (the paper threads this through FTWordsSelection for FTOrdered) *)
  posting : Ftindex.Posting.t;
}

type match_ = {
  includes : entry list;  (** sorted by (doc, absolute position) *)
  excludes : entry list;
  score : float;  (** in (0,1] *)
}

type t = match_ list

let entry ?(query_pos = 1) posting = { query_pos; posting }

let sort_entries entries =
  List.sort (fun a b -> Ftindex.Posting.compare_pos a.posting b.posting) entries

(* A stable merge: on equal positions [a]'s entry comes first, as in
   [sort_entries (a @ b)]. *)
let rec merge_entries a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if Ftindex.Posting.compare_pos y.posting x.posting < 0 then
        y :: merge_entries a b'
      else x :: merge_entries a' b

let make_match ?(excludes = []) ?(score = 1.0) includes =
  { includes = sort_entries includes; excludes; score }

let size = List.length

(* Two matches are solution-equivalent when they assert the same include and
   exclude positions (ignoring scores and query positions). *)
let entry_key e =
  ( e.posting.Ftindex.Posting.doc,
    Ftindex.Posting.abs_pos e.posting,
    Ftindex.Posting.word e.posting )

let match_key m =
  ( List.map entry_key m.includes,
    List.sort compare (List.map entry_key m.excludes) )

let equal_solutions a b =
  let keys t = List.sort compare (List.map match_key t) in
  keys a = keys b

(* --- XML externalization (the DTD of Section 3.1.2 / Figure 5(c)) --- *)

let entry_element tag e =
  Node.element tag
    ~attributes:[ Node.attribute "queryPos" (string_of_int e.query_pos) ]
    [ Ftindex.Index_xml.token_info_element e.posting ]

let match_element m =
  Node.element "fts:Match"
    ~attributes:[ Node.attribute "score" (Printf.sprintf "%.17g" m.score) ]
    (List.map (entry_element "fts:StringInclude") m.includes
    @ List.map (entry_element "fts:StringExclude") m.excludes)

let to_xml t =
  Node.seal (Node.element "fts:AllMatches" (List.map match_element t))

let entry_of_element node =
  let query_pos =
    match Node.attribute_value node "queryPos" with
    | Some s -> int_of_string s
    | None -> 1
  in
  let token_info =
    match
      List.find_opt (fun c -> Node.name c = Some "fts:TokenInfo") (Node.children node)
    with
    | Some ti -> ti
    | None -> invalid_arg "AllMatches.of_xml: entry without fts:TokenInfo"
  in
  (* reuse the inverted-list TokenInfo reader *)
  let posting = Ftindex.Index_xml.posting_of_token_info token_info in
  { query_pos; posting }

let match_of_element node =
  let score =
    match Node.attribute_value node "score" with
    | Some s -> float_of_string s
    | None -> 1.0
  in
  let includes, excludes =
    List.fold_left
      (fun (inc, exc) c ->
        match Node.name c with
        | Some "fts:StringInclude" -> (entry_of_element c :: inc, exc)
        | Some "fts:StringExclude" -> (inc, entry_of_element c :: exc)
        | _ -> (inc, exc))
      ([], []) (Node.children node)
  in
  { includes = sort_entries (List.rev includes); excludes = List.rev excludes; score }

let of_xml node =
  let root =
    match
      List.find_opt
        (fun c -> Node.name c = Some "fts:AllMatches")
        (Node.descendants_or_self node)
    with
    | Some e -> e
    | None -> invalid_arg "AllMatches.of_xml: no fts:AllMatches element"
  in
  List.filter_map
    (fun c ->
      if Node.name c = Some "fts:Match" then Some (match_of_element c) else None)
    (Node.children root)
