open Xmlkit

(* XPath axes over the xmlkit node tree.  Each axis returns nodes in the
   order the XPath data model specifies (forward axes in document order,
   reverse axes in reverse document order); the path evaluator re-sorts and
   deduplicates the union of step results anyway. *)

let child n = Node.children n
let descendant n = Node.descendants n
let descendant_or_self n = Node.descendants_or_self n
let self n = [ n ]
let attribute n = Node.attributes n
let parent n = match Node.parent n with Some p -> [ p ] | None -> []

let rec ancestor n =
  match Node.parent n with Some p -> p :: ancestor p | None -> []

let ancestor_or_self n = n :: ancestor n

let siblings_of n =
  match Node.parent n with Some p -> Node.children p | None -> []

let following_sibling n =
  let rec after = function
    | [] -> []
    | x :: rest -> if Node.equal x n then rest else after rest
  in
  after (siblings_of n)

let preceding_sibling n =
  let rec before acc = function
    | [] -> []
    | x :: rest -> if Node.equal x n then acc else before (x :: acc) rest
  in
  before [] (siblings_of n)

(* following: the nodes after n, descendants excluded, in document order
   (an inner ancestor's following siblings come before an outer one's).
   An attribute precedes its element's descendants, so they follow it. *)
let following n =
  let after =
    List.concat_map Node.descendants_or_self
      (List.concat_map following_sibling (ancestor_or_self n))
  in
  match Node.parent n with
  | Some e when Node.is_attribute n -> Node.descendants e @ after
  | _ -> after

(* preceding: the nodes before n, ancestors excluded, nearest first.  The
   subtrees of preceding siblings never hold an ancestor; an attribute has
   no siblings, so its nodes are its element's. *)
let preceding n =
  List.concat_map
    (fun s -> List.rev (Node.descendants_or_self s))
    (List.concat_map preceding_sibling (ancestor_or_self n))

let apply (axis : Ast.axis) n =
  match axis with
  | Ast.Child -> child n
  | Ast.Descendant -> descendant n
  | Ast.Descendant_or_self -> descendant_or_self n
  | Ast.Self -> self n
  | Ast.Attribute -> attribute n
  | Ast.Parent -> parent n
  | Ast.Ancestor -> ancestor n
  | Ast.Ancestor_or_self -> ancestor_or_self n
  | Ast.Following_sibling -> following_sibling n
  | Ast.Preceding_sibling -> preceding_sibling n
  | Ast.Following -> following n
  | Ast.Preceding -> preceding n

(* Matches on the node's kind: no option is built and names compare as
   strings.  A name test also matches a processing instruction by its
   target. *)
let node_test (test : Ast.node_test) n =
  match (test, Node.kind n) with
  | Ast.Kind_node, _ -> true
  | Ast.Name_test "*", (Node.Element _ | Node.Attribute _) -> true
  | Ast.Name_test "*", _ -> false
  | (Ast.Name_test name | Ast.Kind_element (Some name)), Node.Element e ->
      String.equal e.name name
  | Ast.Name_test name, Node.Attribute a -> String.equal a.aname name
  | Ast.Name_test name, Node.Pi p -> String.equal p.target name
  | Ast.Kind_element None, Node.Element _
  | Ast.Kind_text, Node.Text _
  | Ast.Kind_comment, Node.Comment _
  | Ast.Kind_document, Node.Document _ ->
      true
  | ( ( Ast.Name_test _ | Ast.Kind_element _ | Ast.Kind_text | Ast.Kind_comment
      | Ast.Kind_document ),
      _ ) ->
      false

let step_nodes axis test n =
  match axis with
  | Ast.Descendant -> Node.filter_descendants (node_test test) n
  | _ -> List.filter (node_test test) (apply axis n)
