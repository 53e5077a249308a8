open Xmlkit

(* The AllMatches data model (paper Section 3.1.2): the set of all position
   solutions of a full-text selection, viewed as a DNF formula.  Each Match
   is a disjunct; each StringInclude is the proposition "the context node
   contains this position", each StringExclude the proposition "it does
   not".  Matches additionally carry the probabilistic score of Section 3.3
   and any pending content anchors (at start / at end / entire content),
   which can only be checked against a concrete context node at FTContains
   time. *)

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

type t = { matches : match_ list; anchors : Xquery.Ast.ft_anchor list }

let empty = { matches = []; anchors = [] }

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

let of_matches matches = { matches; anchors = [] }

let size t = List.length t.matches

let total_entries t =
  List.fold_left
    (fun acc m -> acc + List.length m.includes + List.length m.excludes)
    0 t.matches

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
  let keys t = List.sort compare (List.map match_key t.matches) in
  keys a = keys b && a.anchors = b.anchors

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

let anchor_string = function
  | Xquery.Ast.At_start -> "at-start"
  | Xquery.Ast.At_end -> "at-end"
  | Xquery.Ast.Entire_content -> "entire-content"

let anchor_of_string = function
  | "at-start" -> Some Xquery.Ast.At_start
  | "at-end" -> Some Xquery.Ast.At_end
  | "entire-content" -> Some Xquery.Ast.Entire_content
  | _ -> None

let to_xml t =
  let attributes =
    match t.anchors with
    | [] -> []
    | anchors ->
        [
          Node.attribute "anchors"
            (String.concat " " (List.map anchor_string anchors));
        ]
  in
  Node.seal
    (Node.element ~attributes "fts:AllMatches" (List.map match_element t.matches))

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
  let matches =
    List.filter_map
      (fun c ->
        if Node.name c = Some "fts:Match" then Some (match_of_element c)
        else None)
      (Node.children root)
  in
  let anchors =
    match Node.attribute_value root "anchors" with
    | None -> []
    | Some s ->
        List.filter_map anchor_of_string
          (String.split_on_char ' ' s |> List.filter (( <> ) ""))
  in
  { matches; anchors }

let pp_entry ppf e =
  Fmt.pf ppf "%s@%d" (Ftindex.Posting.word e.posting)
    (Ftindex.Posting.abs_pos e.posting)

let pp_match ppf m =
  Fmt.pf ppf "{inc=[%a] exc=[%a] s=%.3f}"
    Fmt.(list ~sep:(any ",") pp_entry)
    m.includes
    Fmt.(list ~sep:(any ",") pp_entry)
    m.excludes m.score

let pp ppf t = Fmt.pf ppf "AllMatches[%a]" Fmt.(list ~sep:(any "; ") pp_match) t.matches
