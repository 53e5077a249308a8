(* In-memory XML tree.  Trees are built bottom-up (children before parents)
   and then [seal]ed, which sets parent links and assigns, in one pre-order
   pass: a tree identifier, pre-order positions (document order), and Dewey
   labels.  XQuery element constructors build fresh trees, so every node
   belongs to exactly one sealed tree and node comparison is (tree, order).
   Sealing a document also builds its name index: the descendant elements
   by name and processing instructions by target, each group in document
   order, stored on the document node so it lives and dies with the tree. *)

type t = {
  mutable parent : t option;
  mutable tree_id : int;
  mutable order : int;
  mutable dewey : Dewey.t;
  kind : kind;
}

and kind =
  | Document of {
      uri : string option;
      mutable dchildren : t list;
      mutable names : names;
    }
  | Element of {
      name : string;
      mutable attributes : t list;
      mutable children : t list;
    }
  | Attribute of { aname : string; avalue : string }
  | Text of { mutable content : string }
  | Comment of string
  | Pi of { target : string; pcontent : string }

(* [lists.(i)] and [arrays.(i)] hold the nodes named [keys.(i)] in
   document order, the list to hand out whole, the array to slice; [keys]
   is sorted *)
and names = { keys : string array; lists : t list array; arrays : t array array }

let no_names = { keys = [||]; lists = [||]; arrays = [||] }
let next_tree_id = ref 0

let unsealed kind =
  { parent = None; tree_id = -1; order = -1; dewey = Dewey.root; kind }

let document ?uri children =
  unsealed (Document { uri; dchildren = children; names = no_names })

let element ?(attributes = []) name children =
  unsealed (Element { name; attributes; children })

let attribute aname avalue = unsealed (Attribute { aname; avalue })
let text content = unsealed (Text { content })
let comment c = unsealed (Comment c)
let pi target pcontent = unsealed (Pi { target; pcontent })

let kind n = n.kind

let children n =
  match n.kind with
  | Document d -> d.dchildren
  | Element e -> e.children
  | Attribute _ | Text _ | Comment _ | Pi _ -> []

let attributes n = match n.kind with Element e -> e.attributes | _ -> []
let parent n = n.parent

let name n =
  match n.kind with
  | Element e -> Some e.name
  | Attribute a -> Some a.aname
  | Pi p -> Some p.target
  | Document _ | Text _ | Comment _ -> None

(* The groups of a name table, each reversed into document order, sorted
   by name. *)
let names_of table =
  let groups =
    Hashtbl.fold (fun name rev acc -> (name, rev) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let lists = List.map (fun (_, rev) -> List.rev rev) groups in
  {
    keys = Array.of_list (List.map fst groups);
    lists = Array.of_list lists;
    arrays = Array.of_list (List.map Array.of_list lists);
  }

let seal root =
  incr next_tree_id;
  let tree_id = !next_tree_id in
  let counter = ref 0 in
  (* a document's name table, filled in pre-order, newest first *)
  let table =
    match root.kind with Document _ -> Some (Hashtbl.create 16) | _ -> None
  in
  let stamp node parent dewey =
    node.parent <- parent;
    node.tree_id <- tree_id;
    node.order <- !counter;
    incr counter;
    node.dewey <- dewey
  in
  let record node =
    match (table, node.kind) with
    | Some table, (Element { name; _ } | Pi { target = name; _ }) ->
        let rev = Option.value (Hashtbl.find_opt table name) ~default:[] in
        Hashtbl.replace table name (node :: rev)
    | _ -> ()
  in
  let rec walk node parent dewey =
    stamp node parent dewey;
    record node;
    (* Attributes share their element's Dewey label: the paper's TokenInfo
       identifiers only label tree nodes, and attribute text is not indexed. *)
    List.iter (fun attr -> stamp attr (Some node) dewey) (attributes node);
    List.iteri
      (fun i child -> walk child (Some node) (Dewey.child dewey (i + 1)))
      (children node)
  in
  (match (root.kind, table) with
  | Document d, Some table ->
      (* The document node and its root element both carry label "1", as in
         the paper's Figure 5(a) where the outermost element is "1". *)
      stamp root None Dewey.root;
      List.iter (fun c -> walk c (Some root) Dewey.root) d.dchildren;
      d.names <- names_of table
  | _ -> walk root None Dewey.root);
  root

let is_sealed n = n.tree_id >= 0

let compare_order a b =
  if a.tree_id <> b.tree_id then compare a.tree_id b.tree_id
  else compare a.order b.order

let equal a b = a == b
let tree_id n = n.tree_id
let dewey n = n.dewey

let rec string_value n =
  match n.kind with
  | Text t -> t.content
  | Attribute a -> a.avalue
  | Comment c -> c
  | Pi p -> p.pcontent
  | Document _ | Element _ ->
      (* XDM: the string value of an element is the concatenation of its
         descendant *text* nodes; comments and PIs do not contribute *)
      String.concat ""
        (List.filter_map
           (fun c ->
             match c.kind with
             | Text _ | Element _ | Document _ -> Some (string_value c)
             | Attribute _ | Comment _ | Pi _ -> None)
           (children n))

let rec root n = match n.parent with None -> n | Some p -> root p

(* One walk, right to left, consing each kept node onto the front of what
   follows it: the result comes out in document order, and nothing but the
   kept nodes is allocated. *)
let filter_descendants keep n =
  let rec siblings acc = function
    | [] -> acc
    | c :: rest ->
        let acc = siblings (siblings acc rest) (children c) in
        if keep c then c :: acc else acc
  in
  siblings [] (children n)

(* The pre-order position of the last node of [n]'s subtree, attributes
   aside (they come before the children). *)
let rec last_order n =
  match children n with [] -> n.order | kids -> last_order (last_child kids)

and last_child = function
  | [ c ] -> c
  | _ :: rest -> last_child rest
  | [] -> assert false

(* The first index of [a.(lo) .. a.(hi - 1)], sorted by pre-order
   position, whose node comes after position [o]. *)
let rec first_after_in a o lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid).order <= o then first_after_in a o (mid + 1) hi
    else first_after_in a o lo mid

let first_after a o = first_after_in a o 0 (Array.length a)

let rec find_key keys name lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let c = String.compare keys.(mid) name in
    if c = 0 then mid
    else if c < 0 then find_key keys name (mid + 1) hi
    else find_key keys name lo mid

(* [f] folded from the right over the kept nodes of [a.(lo) .. a.(i)]. *)
let rec fold_kept keep f a lo i acc =
  if i < lo then acc
  else fold_kept keep f a lo (i - 1) (if keep a.(i) then f a.(i) acc else acc)

let fold_named_descendants keep name f n init =
  match root n with
  | { kind = Document { names; _ }; _ } as doc when names != no_names -> (
      match find_key names.keys name 0 (Array.length names.keys) with
      | -1 -> init
      | k ->
          let a = names.arrays.(k) in
          if doc == n then fold_kept keep f a 0 (Array.length a - 1) init
          else
            fold_kept keep f a (first_after a n.order)
              (first_after a (last_order n) - 1)
              init)
  | _ -> List.fold_right f (filter_descendants keep n) init

let filter_named_descendants keep name n =
  match n with
  | { kind = Document { names; _ }; _ } when names != no_names -> (
      (* the document's whole group, handed out as stored *)
      match find_key names.keys name 0 (Array.length names.keys) with
      | -1 -> []
      | k ->
          let all = names.lists.(k) in
          if List.for_all keep all then all else List.filter keep all)
  | _ -> fold_named_descendants keep name List.cons n []

let descendants n = filter_descendants (fun _ -> true) n
let descendants_or_self n = n :: descendants n

let rec find_by_dewey n d =
  if Dewey.equal (dewey n) d && not (is_attribute n) then
    match n.kind with
    | Document _ ->
        (* prefer the element sharing label "1" over the document node *)
        let among_children =
          List.find_opt (fun c -> Dewey.equal (dewey c) d) (children n)
        in
        (match among_children with Some c -> Some c | None -> Some n)
    | _ -> Some n
  else
    List.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None -> if Dewey.contains (dewey c) d then find_by_dewey c d else None)
      None (children n)

and is_attribute n = match n.kind with Attribute _ -> true | _ -> false

let is_element n = match n.kind with Element _ -> true | _ -> false
let is_text n = match n.kind with Text _ -> true | _ -> false
let is_document n = match n.kind with Document _ -> true | _ -> false

let attribute_value n aname =
  List.fold_left
    (fun acc a ->
      match (acc, a.kind) with
      | Some _, _ -> acc
      | None, Attribute at when at.aname = aname -> Some at.avalue
      | None, _ -> None)
    None (attributes n)

let kind_name n =
  match n.kind with
  | Document _ -> "document"
  | Element _ -> "element"
  | Attribute _ -> "attribute"
  | Text _ -> "text"
  | Comment _ -> "comment"
  | Pi _ -> "processing-instruction"
