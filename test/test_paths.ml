(* Path evaluation against a reference.  The reference below evaluates a
   path the plain way, one step at a time: the axis, then the node test,
   then the predicates over each context node's selection, then a sort
   into document order with duplicates removed.  Its axes are written out
   here, apart from [Xquery.Axes].  The evaluator evaluates "//T[p]" as one
   descendant step when no p is positional, walks descendants without
   copying, and skips the sort on results already in order; random paths
   over random trees must give the same nodes in the same order.  Also
   here: the allocation guard for "//" over a 200-book collection. *)

open Xmlkit
open Xquery.Ast

(* ------------------------------------------------------------ trees *)

type tree = Elem of string * string list * tree list | Text of string

let rec build = function
  | Elem (name, attrs, kids) ->
      Node.element name
        ~attributes:(List.map (fun a -> Node.attribute a "v") attrs)
        (List.map build kids)
  | Text s -> Node.text s

let document t = Node.seal (Node.document [ build t ])

(* Three element names, two attribute names (one shared with an element),
   text, nesting up to depth 5. *)
let gen_tree =
  let open QCheck2.Gen in
  let rec elem depth =
    let* name = oneofl [ "a"; "b"; "c" ]
    and* attrs = oneofl [ []; [ "x" ]; [ "a" ]; [ "x"; "a" ] ]
    and* width = int_bound (if depth >= 5 then 0 else 3) in
    let+ kids =
      list_repeat width
        (frequency
           [
             (3, elem (depth + 1));
             (1, map (fun s -> Text s) (oneofl [ "t"; "u" ]));
           ])
    in
    Elem (name, attrs, kids)
  in
  elem 1

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

(* The first step is relative to the context node (the document) unless
   it is "//", which from the document means the same thing. *)
let render path =
  let s = String.concat "" (List.map render_step path) in
  match path with
  | { slashes = `One; _ } :: _ -> String.sub s 1 (String.length s - 1)
  | _ -> s

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

  let eval doc path =
    List.fold_left apply_step [ doc ]
      (List.concat_map
         (fun s ->
           let step = (s.axis, s.test, s.preds) in
           match s.slashes with
           | `One -> [ step ]
           | `Two -> [ (Descendant_or_self, Kind_node, []); step ])
         path)
end

let evaluated doc path =
  Xquery.Value.nodes_of "test"
    (Xquery.Eval.run_string ~context_node:doc (render path))

let prop_paths_match_reference =
  QCheck2.Test.make ~name:"paths select what the step-by-step reference does"
    ~count:400
    ~print:(fun (t, path) ->
      Printf.sprintf "%s over %s" (render path)
        (Printer.to_string (document t)))
    QCheck2.Gen.(pair gen_tree gen_path)
    (fun (t, path) ->
      let doc = document t in
      List.equal ( == ) (Reference.eval doc path) (evaluated doc path))

(* ------------------------------------------------- allocation guard *)

(* perfbench's corpus profile at scan-large's 200 documents: "//book"
   selects the same 200 roots as "/book" and may allocate at most 3x as
   much to do it. *)
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
  if desc_words > 3.0 *. child_words then
    Alcotest.failf "//book allocated %.0f minor words, /book %.0f (limit 3x)"
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
    Alcotest.test_case "boolean builtin predicates take one step" `Quick
      test_boolean_call_predicates;
    Alcotest.test_case "a prolog function shadowing a builtin stays positional"
      `Quick test_shadowed_builtin_stays_positional;
    Alcotest.test_case "//book allocates at most 3x /book" `Quick
      test_descendant_allocation;
  ]
