(* Path evaluation against a reference.  The reference below evaluates a
   path the plain way, one step at a time: the axis, then the node test,
   then the predicates over each context node's selection, then a sort
   into document order with duplicates removed.  Its axes are written out
   here, apart from [Xquery.Axes].  The evaluator evaluates "//T[p]" as one
   descendant step when no p is positional, walks descendants without
   copying, reads a descendant step by name from the document's name
   index, and skips the sort on results already in order; random paths
   over random trees, from the document or from one of its elements, must
   give the same nodes in the same order.  Also here: the allocation
   guard for "//" over a 200-book collection, and a replaced document's
   index. *)

open Xmlkit
open Xquery.Ast

(* ------------------------------------------------------------ trees *)

type tree =
  | Elem of string * string list * tree list
  | Text of string
  | Pi of string
  | Comment

let rec build = function
  | Elem (name, attrs, kids) ->
      Node.element name
        ~attributes:(List.map (fun a -> Node.attribute a "v") attrs)
        (List.map build kids)
  | Text s -> Node.text s
  | Pi target -> Node.pi target "p"
  | Comment -> Node.comment "c"

(* The root element between the document's other top-level nodes. *)
let document (before, t, after) =
  Node.seal (Node.document (List.map build before @ [ build t ] @ List.map build after))

(* Three element names, two attribute names (one shared with an element),
   text, processing instructions whose targets are element names, comments,
   nesting up to depth 5; a processing instruction or comment may stand
   before or after the root element. *)
let gen_tree =
  let open QCheck2.Gen in
  let pi = map (fun t -> Pi t) (oneofl [ "a"; "b"; "c" ]) in
  let rec elem depth =
    let* name = oneofl [ "a"; "b"; "c" ]
    and* attrs = oneofl [ []; [ "x" ]; [ "a" ]; [ "x"; "a" ] ]
    and* width = int_bound (if depth >= 5 then 0 else 3) in
    let+ kids =
      list_repeat width
        (frequency
           [
             (6, elem (depth + 1));
             (2, map (fun s -> Text s) (oneofl [ "t"; "u" ]));
             (2, pi);
             (1, return Comment);
           ])
    in
    Elem (name, attrs, kids)
  in
  let outside = list_size (int_bound 1) (frequency [ (2, pi); (1, return Comment) ]) in
  triple outside (elem 1) outside

(* ------------------------------------------------------------ paths *)

type pred = Nth of int | Last | After_first | Has_attr of string | Has_child of string

type path_step = {
  slashes : [ `One | `Two ];  (** "/" or "//" before the step *)
  axis : axis;
  test : node_test;
  preds : pred list;
}

let axes =
  [
    (Child, "child"); (Descendant, "descendant");
    (Descendant_or_self, "descendant-or-self"); (Self, "self");
    (Attribute, "attribute"); (Parent, "parent"); (Ancestor, "ancestor");
    (Ancestor_or_self, "ancestor-or-self");
    (Following_sibling, "following-sibling");
    (Preceding_sibling, "preceding-sibling"); (Following, "following");
    (Preceding, "preceding");
  ]

let gen_path =
  let open QCheck2.Gen in
  let pred =
    frequency
      [
        (2, return (Nth 1)); (1, return (Nth 2)); (2, return Last);
        (2, return After_first);
        (2, map (fun a -> Has_attr a) (oneofl [ "x"; "a" ]));
        (2, map (fun a -> Has_child a) (oneofl [ "a"; "b" ]));
      ]
  in
  let test =
    frequency
      [
        (6, map (fun n -> Name_test n) (oneofl [ "a"; "b"; "c"; "x" ]));
        (2, return (Name_test "*")); (2, return Kind_node);
        (1, return Kind_text); (1, return (Kind_element None));
        (3, map (fun n -> Kind_element (Some n)) (oneofl [ "a"; "b" ]));
        (1, return Kind_comment);
      ]
  in
  let step =
    let* slashes = frequency [ (2, return `One); (1, return `Two) ]
    and* axis =
      frequency
        [
          (6, return Child);
          (6, map fst (oneofl axes));
        ]
    and* test = test
    and* n = frequency [ (2, return 0); (2, return 1); (1, return 2) ] in
    let+ preds = list_repeat n pred in
    { slashes; axis; test; preds }
  in
  list_size (int_range 1 4) step

let render_step s =
  let test =
    match s.test with
    | Name_test n -> n
    | Kind_node -> "node()"
    | Kind_text -> "text()"
    | Kind_element None -> "element()"
    | Kind_element (Some n) -> Printf.sprintf "element(%s)" n
    | Kind_comment -> "comment()"
    | _ -> assert false
  in
  let pred = function
    | Nth k -> Printf.sprintf "[%d]" k
    | Last -> "[last()]"
    | After_first -> "[position() > 1]"
    | Has_attr a -> Printf.sprintf "[@%s]" a
    | Has_child a -> Printf.sprintf "[child::%s]" a
  in
  Printf.sprintf "%s%s::%s%s"
    (match s.slashes with `One -> "/" | `Two -> "//")
    (List.assoc s.axis axes) test
    (String.concat "" (List.map pred s.preds))

(* The first step is relative to the context node: "//" becomes ".//". *)
let render path =
  let s = String.concat "" (List.map render_step path) in
  match path with
  | { slashes = `One; _ } :: _ -> String.sub s 1 (String.length s - 1)
  | _ -> "." ^ s

(* -------------------------------------------------------- reference *)

module Reference = struct
  let rec descendants_or_self n =
    n :: List.concat_map descendants_or_self (Node.children n)

  let rec ancestor n =
    match Node.parent n with Some p -> p :: ancestor p | None -> []

  let siblings n =
    match Node.parent n with Some p -> Node.children p | None -> []

  let following_sibling n =
    let rec after = function
      | [] -> []
      | x :: rest -> if x == n then rest else after rest
    in
    after (siblings n)

  let preceding_sibling n =
    let rec before acc = function
      | [] -> []
      | x :: rest -> if x == n then acc else before (x :: acc) rest
    in
    before [] (siblings n)

  let axis a n =
    match a with
    | Child -> Node.children n
    | Descendant -> List.concat_map descendants_or_self (Node.children n)
    | Descendant_or_self -> descendants_or_self n
    | Self -> [ n ]
    | Attribute -> Node.attributes n
    | Parent -> Option.to_list (Node.parent n)
    | Ancestor -> ancestor n
    | Ancestor_or_self -> n :: ancestor n
    | Following_sibling -> following_sibling n
    | Preceding_sibling -> preceding_sibling n
    (* every node after n that is not its descendant; an attribute's
       element's descendants come after the attribute *)
    | Following ->
        let after =
          List.concat_map descendants_or_self
            (List.concat_map following_sibling (n :: ancestor n))
        in
        let own =
          match Node.parent n with
          | Some e when Node.is_attribute n ->
              List.concat_map descendants_or_self (Node.children e)
          | _ -> []
        in
        List.sort Node.compare_order (own @ after)
    (* a reverse axis: every node before n that is not its ancestor,
       nearest first *)
    | Preceding ->
        let ancestors = ancestor n in
        List.concat_map descendants_or_self
          (List.concat_map preceding_sibling (n :: ancestor n))
        |> List.filter (fun m -> not (List.memq m ancestors))
        |> List.sort (fun a b -> Node.compare_order b a)

  let node_test test n =
    match test with
    | Name_test "*" -> Node.is_element n || Node.is_attribute n
    | Name_test name -> Node.name n = Some name && not (Node.is_document n)
    | Kind_text -> Node.is_text n
    | Kind_node -> true
    | Kind_element None -> Node.is_element n
    | Kind_element (Some name) -> Node.is_element n && Node.name n = Some name
    | Kind_comment -> (
        match Node.kind n with Node.Comment _ -> true | _ -> false)
    | _ -> assert false

  let holds pred n ~position ~size =
    match pred with
    | Nth k -> position = k
    | Last -> position = size
    | After_first -> position > 1
    | Has_attr a -> List.exists (fun m -> Node.name m = Some a) (Node.attributes n)
    | Has_child a -> List.exists (fun m -> Node.name m = Some a) (Node.children n)

  let filter nodes pred =
    let size = List.length nodes in
    List.filteri (fun i n -> holds pred n ~position:(i + 1) ~size) nodes

  let apply_step input (axis_, test, preds) =
    List.concat_map
      (fun n ->
        List.fold_left filter (List.filter (node_test test) (axis axis_ n)) preds)
      input
    |> List.sort_uniq Node.compare_order

  let eval context path =
    List.fold_left apply_step [ context ]
      (List.concat_map
         (fun s ->
           let step = (s.axis, s.test, s.preds) in
           match s.slashes with
           | `One -> [ step ]
           | `Two -> [ (Descendant_or_self, Kind_node, []); step ])
         path)
end

let evaluated context path =
  Xquery.Value.nodes_of "test"
    (Xquery.Eval.run_string ~context_node:context (render path))

(* The context: the document (0), or its k-th element in document order,
   counted cyclically. *)
let context_node doc k =
  if k = 0 then doc
  else
    let elements = List.filter Node.is_element (Node.descendants doc) in
    List.nth elements ((k - 1) mod List.length elements)

let prop_paths_match_reference =
  QCheck2.Test.make ~name:"paths select what the step-by-step reference does"
    ~count:600
    ~print:(fun (t, k, path) ->
      Printf.sprintf "%s from context %d over %s" (render path) k
        (Printer.to_string (document t)))
    QCheck2.Gen.(triple gen_tree (int_bound 6) gen_path)
    (fun (t, k, path) ->
      let context = context_node (document t) k in
      List.equal ( == ) (Reference.eval context path) (evaluated context path))

(* Every name step on the descendant axis, from every node of the tree
   (the document, elements, attributes, text, processing instructions,
   comments), reads the name index: it must select what the reference
   axis and node test do. *)
let prop_indexed_steps_match_reference =
  QCheck2.Test.make
    ~name:"descendant name steps from every node select what the reference does"
    ~count:300
    ~print:(fun t -> Printer.to_string (document t))
    gen_tree
    (fun t ->
      let doc = document t in
      let nodes =
        List.concat_map
          (fun n -> n :: Node.attributes n)
          (Node.descendants_or_self doc)
      in
      List.for_all
        (fun n ->
          List.for_all
            (fun test ->
              List.equal ( == )
                (List.filter (Reference.node_test test)
                   (Reference.axis Descendant n))
                (Xquery.Axes.step_nodes Descendant test n))
            [
              Name_test "a"; Name_test "b"; Name_test "c"; Name_test "x";
              Kind_element (Some "a"); Kind_element (Some "b");
            ])
        nodes)

(* ------------------------------------------------- allocation guard *)

(* perfbench's corpus profile at scan-large's 200 documents: "//book"
   selects the same 200 roots as "/book" and, read from each document's
   name index, may allocate no more than "/book" does. *)
let allocation_books =
  lazy
    (Corpus.Generator.books
       {
         Corpus.Generator.default_profile with
         Corpus.Generator.seed = 7919;
         doc_count = 200;
         sections_per_doc = 2;
         paras_per_section = 3;
         words_per_para = 30;
         vocab_size = 150;
       })

(* minor words of one run after a warm-up, and the answer *)
let measure eng q =
  let run () =
    Galatex.Engine.run eng ~strategy:Galatex.Engine.Native_materialized q
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let v = run () in
  (Gc.minor_words () -. before, Xquery.Value.to_display_string v)

let test_descendant_allocation () =
  let eng = Galatex.Engine.create (Lazy.force allocation_books) in
  let child_words, child = measure eng "count(collection()/book)" in
  let desc_words, desc = measure eng "count(collection()//book)" in
  Alcotest.(check string) "/book count" "200" child;
  Alcotest.(check string) "//book count" "200" desc;
  if desc_words > child_words then
    Alcotest.failf "//book allocated %.0f minor words, /book %.0f"
      desc_words child_words

(* Calls of the boolean builtins are non-positional predicates, so
   "//book[not(@id)]" also runs as one descendant step: it may allocate at
   most 3x what "/book[not(@id)]" does. *)
let test_boolean_call_predicates () =
  let eng = Galatex.Engine.create (Lazy.force allocation_books) in
  List.iter
    (fun pred ->
      let child_words, child = measure eng ("count(collection()/book[" ^ pred ^ "])")
      and desc_words, desc = measure eng ("count(collection()//book[" ^ pred ^ "])") in
      Alcotest.(check string) (pred ^ ": same count") child desc;
      if desc_words > 3.0 *. child_words then
        Alcotest.failf "//book[%s] allocated %.0f minor words, /book[%s] %.0f (limit 3x)"
          pred desc_words pred child_words)
    [ "true()"; "not(@id)"; "fn:exists(@id)"; "boolean(title)"; "contains(@id, '1')" ]

(* The name index lives on the document node: a live update that replaces
   a document seals a new tree with its own index, and "//" steps answer
   from it, while the engine from before the update still answers from
   the old tree. *)
let test_replaced_document_index () =
  let before =
    Galatex.Engine.of_strings
      [ ("a.xml", "<r><p>old</p><s><p>older</p></s></r>"); ("b.xml", "<r><p>b</p></r>") ]
  in
  let after =
    Galatex.Engine.apply_update before
      (Ftindex.Wal.Add_doc
         { uri = "a.xml"; source = "<r><s><p>new</p><q/></s><p>newer</p><q/></r>" })
  in
  let ask eng q = Xquery.Value.to_display_string (Galatex.Engine.run eng q) in
  let q = "string-join(doc('a.xml')//p, ' ')" in
  Alcotest.(check string) "before: //p" "old older" (ask before q);
  Alcotest.(check string) "after: //p" "new newer" (ask after q);
  Alcotest.(check string) "after: //q" "2" (ask after "count(doc('a.xml')//q)");
  Alcotest.(check string) "after: from an element" "new"
    (ask after "string-join(doc('a.xml')/r/s//p, ' ')");
  Alcotest.(check string) "before: //q" "0" (ask before "count(collection()//q)")

(* A prolog function may take a builtin's name: its call is then whatever
   the function returns, here the number 2, and "//p[true()]" selects each
   parent's second p. *)
let test_shadowed_builtin_stays_positional () =
  let count xml =
    Xquery.Value.to_display_string
      (Galatex.Engine.run
         (Galatex.Engine.of_strings [ ("shelf.xml", xml) ])
         "declare function true() { 2 }; count(//p[true()])")
  in
  Alcotest.(check string) "one parent" "1"
    (count "<shelf><p>a</p><p>b</p><p>c</p></shelf>");
  Alcotest.(check string) "two parents" "2"
    (count "<shelf><box><p>a</p><p>b</p></box><box><p>c</p><p>d</p></box></shelf>")

let tests =
  [
    QCheck_alcotest.to_alcotest prop_paths_match_reference;
    QCheck_alcotest.to_alcotest prop_indexed_steps_match_reference;
    Alcotest.test_case "boolean builtin predicates take one step" `Quick
      test_boolean_call_predicates;
    Alcotest.test_case "a prolog function shadowing a builtin stays positional"
      `Quick test_shadowed_builtin_stays_positional;
    Alcotest.test_case "//book allocates at most /book" `Quick
      test_descendant_allocation;
    Alcotest.test_case "a replaced document answers // from its new tree"
      `Quick test_replaced_document_index;
  ]
