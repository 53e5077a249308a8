(* Algebraic laws of the AllMatches semantics, as an oracle for what the
   two strategies share.  The strategy properties check that they agree
   with each other; a law checks each of them against itself, so it also
   catches a bug they both make.  Most laws compare which paragraphs of a
   random shelf satisfy [//p[. ftcontains S]] for two selections that
   must mean the same, under every strategy.  A subset law A ⊆ B is
   checked as the equivalence [A || B ≡ B]: a node satisfies an FTOr
   exactly when it satisfies one of its operands, anchored or not, since
   an anchor filters the matches of its own operand only.  The
   connective laws say so directly, node by node.  The sequence law
   compares a multi-node context with its nodes one at a time. *)

open Galatex

let vocab = [ "a"; "b"; "c"; "d" ]

(* A shelf of one to five paragraphs, each one or two sentences of one to
   four of [words], so [same sentence] can tell sentences apart. *)
let gen_shelf_of words =
  QCheck2.Gen.(
    let sentence = map (String.concat " ") (list_size (int_range 1 4) (oneofl words)) in
    let paragraph = map (String.concat ". ") (list_size (int_range 1 2) sentence) in
    map
      (fun paragraphs ->
        "<shelf>"
        ^ String.concat ""
            (List.mapi (Printf.sprintf {|<p id="%d">%s</p>|}) paragraphs)
        ^ "</shelf>")
      (list_size (int_range 1 5) paragraph))

let gen_shelf = gen_shelf_of vocab

(* The operands: content anchors among the operators, and no top-level
   FTOr of their own. *)
let gen_selection =
  Ft_gen.(
    selection ~depth:1 ~words:vocab ~options:[ ""; " with stemming" ]
      ~leaf_weight:3
      [
        (2, And); (1, Or); (1, Not); (1, Ordered); (1, Window (1, 5));
        (1, Distance (0, 3)); (1, Occurs (1, 2)); (1, Occurs_at_most (0, 1));
        (1, Anchor);
      ])

(* The per-match filters pushing a filter below FTOr relies on. *)
let gen_filter =
  QCheck2.Gen.(
    oneof
      [
        return "ordered";
        map (Printf.sprintf "window %d words") (int_range 1 6);
        map (Printf.sprintf "distance at most %d words") (int_range 0 4);
        return "same sentence";
      ])

let strategies = [ Engine.Native_materialized; Engine.Translated ]

let shelf_engine shelf = Engine.of_strings [ ("shelf.xml", shelf) ]

(* [preds] must select the same paragraphs of [shelf] under each
   strategy. *)
let equivalent shelf preds =
  let eng = shelf_engine shelf in
  let satisfying strategy pred =
    Xquery.Value.to_display_string
      (Engine.run eng ~strategy
         (Printf.sprintf "for $p in collection()//p[%s] return string($p/@id)"
            pred))
  in
  List.for_all
    (fun strategy ->
      match List.map (satisfying strategy) preds with
      | first :: rest -> List.for_all (String.equal first) rest
      | [] -> true)
    strategies

let print_case (shelf, sides) = shelf ^ "\n" ^ String.concat "\n  vs " sides

let law name ~count ?(shelf = gen_shelf) gen =
  QCheck2.Test.make ~name ~count ~print:print_case
    QCheck2.Gen.(pair shelf gen)
    (fun (shelf, sides) ->
      equivalent shelf (List.map (( ^ ) ". ftcontains ") sides))

(* [sub] ⊆ [super], for each pair [gen] draws. *)
let subset name ~count ?shelf gen =
  law name ~count ?shelf
    (QCheck2.Gen.map
       (fun (sub, super) -> [ Printf.sprintf "%s || %s" sub super; super ])
       gen)

let prop_filters_distribute =
  law "per-match filters distribute over FTOr" ~count:200
    QCheck2.Gen.(
      map3
        (fun a b f ->
          [
            Printf.sprintf "((%s || %s) %s)" a b f;
            Printf.sprintf "((%s %s) || (%s %s))" a f b f;
          ])
        gen_selection gen_selection gen_filter)

let prop_or_commutes =
  law "FTOr is commutative on satisfaction" ~count:100
    QCheck2.Gen.(
      map2
        (fun a b -> [ Printf.sprintf "%s || %s" a b; Printf.sprintf "%s || %s" b a ])
        gen_selection gen_selection)

let prop_or_associates =
  law "FTOr is associative on satisfaction" ~count:100
    QCheck2.Gen.(
      map3
        (fun a b c ->
          [
            Printf.sprintf "(%s || %s) || %s" a b c;
            Printf.sprintf "%s || (%s || %s)" a b c;
          ])
        gen_selection gen_selection gen_selection)

let prop_or_idempotent =
  law "FTOr is idempotent on satisfaction" ~count:100
    QCheck2.Gen.(map (fun a -> [ a; Printf.sprintf "%s || %s" a a ]) gen_selection)

let prop_and_commutes =
  law "FTAnd is commutative on satisfaction" ~count:100
    QCheck2.Gen.(
      map2
        (fun a b -> [ Printf.sprintf "%s && %s" a b; Printf.sprintf "%s && %s" b a ])
        gen_selection gen_selection)

let prop_and_associates =
  law "FTAnd is associative on satisfaction" ~count:100
    QCheck2.Gen.(
      map3
        (fun a b c ->
          [
            Printf.sprintf "(%s && %s) && %s" a b c;
            Printf.sprintf "%s && (%s && %s)" a b c;
          ])
        gen_selection gen_selection gen_selection)

(* --- the connectives, node by node --- *)

(* A node satisfies [S && T] exactly when it satisfies both, and [S || T]
   exactly when it satisfies either: whatever anchors S and T hold. *)
let connective name ft xq =
  QCheck2.Test.make ~name ~count:100 ~print:print_case
    QCheck2.Gen.(
      pair gen_shelf
        (map2
           (fun a b ->
             [
               Printf.sprintf ". ftcontains (%s %s %s)" a ft b;
               Printf.sprintf "(. ftcontains %s) %s (. ftcontains %s)" a xq b;
             ])
           gen_selection gen_selection))
    (fun (shelf, preds) -> equivalent shelf preds)

let prop_and_is_and = connective "S && T is S and T, node by node" "&&" "and"
let prop_or_is_or = connective "S || T is S or T, node by node" "||" "or"

(* --- monotone in the bound --- *)

let prop_window_monotone =
  subset "window n words within window n+1 words" ~count:60
    QCheck2.Gen.(
      map2
        (fun a n ->
          ( Printf.sprintf "(%s window %d words)" a n,
            Printf.sprintf "(%s window %d words)" a (n + 1) ))
        gen_selection (int_range 1 5))

let prop_distance_monotone =
  subset "distance at most n within at most n+1" ~count:60
    QCheck2.Gen.(
      map2
        (fun a n ->
          ( Printf.sprintf "(%s distance at most %d words)" a n,
            Printf.sprintf "(%s distance at most %d words)" a (n + 1) ))
        gen_selection (int_range 0 4))

let prop_occurs_monotone =
  subset "occurs at least n+1 within at least n" ~count:60
    QCheck2.Gen.(
      map2
        (fun a n ->
          ( Printf.sprintf "(%s occurs at least %d times)" a (n + 1),
            Printf.sprintf "(%s occurs at least %d times)" a n ))
        gen_selection (int_range 0 2))

let prop_ordered_within_unordered =
  subset "ordered within unordered" ~count:60
    QCheck2.Gen.(map (fun a -> (Printf.sprintf "(%s ordered)" a, a)) gen_selection)

(* --- stemming --- *)

(* Words that share a stem, so stemming changes which nodes match. *)
let stem_vocab = [ "a"; "walk"; "walks"; "walked" ]

(* Operands whose node set only grows with their leaves' matches: no
   negation and no upper-bounded count. *)
let gen_positive =
  Ft_gen.(
    selection ~depth:1 ~words:stem_vocab ~options:[ "" ] ~leaf_weight:3
      [
        (2, And); (1, Or); (1, Ordered); (1, Window (1, 5));
        (1, Distance (0, 3)); (1, Occurs (1, 2));
      ])

let prop_stemming_widens =
  subset "without stemming within with stemming" ~count:60
    ~shelf:(gen_shelf_of stem_vocab)
    QCheck2.Gen.(
      map (fun a -> (a, Printf.sprintf "(%s with stemming)" a)) gen_positive)

(* --- negation --- *)

(* The operands of [!]: no FTAnd and no count under it, anchors allowed.
   The translated
   strategy's FTUnaryNot builds one match per choice of an entry from
   every input match, and an FTAnd's cross product makes that choice
   space explode: [!("b" with stemming && "b")] over [<p>b. b b a b</p>]
   needs 65,536 matches and exhausts memory, aborting the process. *)
let gen_negatable =
  Ft_gen.(
    selection ~depth:1 ~words:vocab ~options:[ ""; " with stemming" ]
      ~leaf_weight:3
      [
        (1, Or); (1, Not); (1, Ordered); (1, Window (1, 5));
        (1, Distance (0, 3)); (1, Anchor);
      ])

let prop_not_complements =
  QCheck2.Test.make ~name:"! S is the complement of S on satisfaction"
    ~count:60
    ~print:(fun (shelf, s) -> print_case (shelf, [ s ]))
    QCheck2.Gen.(pair gen_shelf gen_negatable)
    (fun (shelf, s) ->
      equivalent shelf
        [ Printf.sprintf ". ftcontains ! %s" s;
          Printf.sprintf "not(. ftcontains %s)" s ])

(* --- scores --- *)

(* Every paragraph's ft:score lies in [0, 1] and is 0 exactly when the
   paragraph does not satisfy the selection: asked of each paragraph
   alone, and in the batched [let] form. *)
let prop_score_zero_iff_unsatisfied =
  QCheck2.Test.make ~name:"ft:score is in [0, 1] and 0 iff unsatisfied"
    ~count:60
    ~print:(fun (shelf, s) -> print_case (shelf, [ s ]))
    QCheck2.Gen.(pair gen_shelf gen_selection)
    (fun (shelf, s) ->
      let eng = shelf_engine shelf in
      List.for_all
        (fun strategy ->
          let run q = Engine.run eng ~strategy q in
          let satisfied =
            List.map
              (function Xquery.Value.Boolean b -> b | _ -> false)
              (run
                 (Printf.sprintf
                    "for $p in collection()//p return $p ftcontains %s" s))
          in
          let consistent scores =
            List.length scores = List.length satisfied
            && List.for_all2
                 (fun score sat ->
                   match score with
                   | Xquery.Value.Double d ->
                       d >= 0.0 && d <= 1.0 && (d > 0.0) = sat
                   | _ -> false)
                 scores satisfied
          in
          consistent
            (run
               (Printf.sprintf
                  "for $p in collection()//p return ft:score($p, %s)" s))
          && consistent
               (run
                  (Printf.sprintf
                     "for $p in collection()//p let $s := ft:score($p, %s) \
                      return $s"
                     s)))
        strategies)

(* --- the sequence law --- *)

(* XQuery Full Text defines [E ftcontains S] as [some] item of the search
   context [E] satisfying [S], and [ft:score(E, S)] as one score per item:
   a context of several nodes means what its nodes mean one at a time. *)

(* A context of paragraphs: all of them, or some picked by index, in any
   order and with repeats (an index past the last paragraph picks none). *)
let gen_context =
  QCheck2.Gen.(
    frequency
      [
        (1, return "collection()//p");
        ( 3,
          map
            (fun ks ->
              Printf.sprintf "(%s)"
                (String.concat ", "
                   (List.map (Printf.sprintf "collection()//p[%d]") ks)))
            (list_size (int_range 1 4) (int_range 1 5)) );
      ])

(* Over several nodes at once, a conjunction pairs words of different
   nodes, and counting or negating those pairs is what breaks the law: a
   third of the cases count a conjunction, and a third conjoin a negated
   phrase.  [!] never negates a conjunction (see [gen_negatable]). *)
let gen_sequence_selection =
  let sel depth =
    Ft_gen.(
      selection ~depth ~words:vocab ~options:[ ""; " with stemming" ]
        ~leaf_weight:2
        [
          (3, And); (1, Or); (2, Not); (1, Ordered); (1, Window (1, 5));
          (2, Occurs (1, 2)); (1, Occurs_at_most (0, 1)); (1, Anchor);
        ])
  in
  QCheck2.Gen.(
    frequency
      [
        (1, sel 2);
        ( 1,
          map3
            (fun (a, b) kind n ->
              Printf.sprintf "((%s && %s) occurs %s %d times)" a b kind n)
            (pair (sel 0) (sel 0))
            (oneofl [ "at least"; "exactly"; "at most" ])
            (int_range 1 2) );
        ( 1,
          map3
            (Printf.sprintf "(%s && ! \"%s %s\")")
            (sel 1) (oneofl vocab) (oneofl vocab) );
      ])

let display eng strategy q =
  Xquery.Value.to_display_string (Engine.run eng ~strategy q)

(* [ctx ftcontains S], then [rest] (a [without content] clause, say), is
   the [some] form under every strategy *)
let contains_law ?(rest = "") shelf ctx s =
  let eng = shelf_engine shelf in
  List.for_all
    (fun strategy ->
      String.equal
        (display eng strategy (Printf.sprintf "%s ftcontains %s%s" ctx s rest))
        (display eng strategy
           (Printf.sprintf "some $n in %s satisfies $n ftcontains %s%s" ctx s
              rest)))
    strategies

let score_law shelf ctx s =
  let eng = shelf_engine shelf in
  List.for_all
    (fun strategy ->
      Test_strategies.same_scores
        (Test_strategies.scores ~engine:eng
           (Printf.sprintf "ft:score(%s, %s)" ctx s)
           strategy)
        (Test_strategies.scores ~engine:eng
           (Printf.sprintf "for $n in %s return ft:score($n, %s)" ctx s)
           strategy))
    strategies

let print_context_case (shelf, ctx, s) = print_case (shelf, [ ctx; s ])

let prop_sequence_contains =
  QCheck2.Test.make ~name:"E ftcontains S is some node of E satisfying S"
    ~count:60 ~print:print_context_case
    QCheck2.Gen.(triple gen_shelf gen_context gen_sequence_selection)
    (fun (shelf, ctx, s) -> contains_law shelf ctx s)

let prop_sequence_score =
  QCheck2.Test.make ~name:"ft:score(E, S) is each node's ft:score" ~count:60
    ~print:print_context_case
    QCheck2.Gen.(triple gen_shelf gen_context gen_sequence_selection)
    (fun (shelf, ctx, s) -> score_law shelf ctx s)

(* [without content] takes its ignored nodes from the outer context, so
   both forms ignore the same paragraph *)
let prop_sequence_without_content =
  QCheck2.Test.make ~name:"E ftcontains S without content I follows the law"
    ~count:40
    ~print:(fun ((shelf, ctx, s), k) ->
      print_context_case (shelf, ctx, Printf.sprintf "%s without //p[%d]" s k))
    QCheck2.Gen.(
      pair
        (triple gen_shelf gen_context gen_sequence_selection)
        (int_range 1 5))
    (fun ((shelf, ctx, s), k) ->
      contains_law
        ~rest:(Printf.sprintf " without content collection()//p[%d]" k)
        shelf ctx s)

(* Two shelves on which evaluating the paragraphs together, not one at a
   time, answers otherwise: a count, and a negation, over pairs of words
   from different paragraphs. *)
let test_sequence_shelves () =
  let counted =
    shelf_engine
      "<shelf><p>c c b d</p><p>d a b a</p><p>b b c b</p><p>d a c</p></shelf>"
  and negated =
    shelf_engine
      "<shelf><p>c x a b y c c</p><p>c gamma delta</p><p>alpha gamma \
       c</p><p>c</p><p>zeta c</p></shelf>"
  in
  List.iter
    (fun strategy ->
      let name = Engine.strategy_name strategy in
      Alcotest.(check string)
        (name ^ ": a count over the paragraphs at once")
        "true"
        (display counted strategy
           {|(//p) ftcontains (("b" && "c") occurs at least 2 times)|});
      Alcotest.(check (list (float 1e-9)))
        (name ^ ": a negation over the paragraphs at once")
        [ 0.0; 0.642857142857; 0.642857142857; 0.0; 0.0 ]
        (Test_strategies.scores ~engine:negated
           {|ft:score(//p, "gamma" && !("a b"))|} strategy))
    strategies

(* An empty context compiles nothing; a node of no indexed document (a
   constructed tree) satisfies nothing and scores 0, alone or beside an
   indexed node. *)
let test_degenerate_contexts () =
  let shelf = "<shelf><p>a b</p><p>c</p></shelf>" in
  let eng = shelf_engine shelf in
  List.iter
    (fun strategy ->
      let name = Engine.strategy_name strategy in
      let check label expected q =
        Alcotest.(check string) (name ^ ": " ^ label) expected
          (display eng strategy q)
      in
      check "empty context" "false" {|() ftcontains "a"|};
      check "empty context, no score" "0" {|count(ft:score((), "a"))|};
      check "constructed node" "false" {|<p>a b</p> ftcontains "a"|};
      check "constructed node's score" "0" {|ft:score(<p>a b</p>, "a")|};
      check "constructed beside indexed" "true"
        {|(<p>a b</p>, collection()//p) ftcontains "a"|})
    strategies;
  List.iter
    (fun ctx ->
      Alcotest.(check bool) (ctx ^ ": ft:score follows the law") true
        (score_law shelf ctx {|"a"|});
      Alcotest.(check bool) (ctx ^ ": ftcontains follows the law") true
        (contains_law shelf ctx {|"c"|}))
    [ "()"; "<p>a b</p>"; "(<p>a b</p>, collection()//p)" ]

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_filters_distribute; prop_or_commutes; prop_or_associates;
      prop_or_idempotent; prop_window_monotone; prop_distance_monotone;
      prop_occurs_monotone; prop_ordered_within_unordered;
      prop_stemming_widens; prop_not_complements;
      prop_score_zero_iff_unsatisfied; prop_sequence_contains;
      prop_sequence_score; prop_sequence_without_content;
      prop_and_commutes; prop_and_associates; prop_and_is_and;
      prop_or_is_or ]
  @ [
      Alcotest.test_case "the sequence law on its two shelves" `Quick
        test_sequence_shelves;
      Alcotest.test_case "empty and constructed contexts" `Quick
        test_degenerate_contexts;
    ]
