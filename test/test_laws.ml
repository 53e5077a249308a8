(* Algebraic laws of the AllMatches semantics, as an oracle for what the
   two strategies share.  The strategy properties check that they agree
   with each other; a law checks each of them against itself, so it also
   catches a bug they both make.  Most laws compare which paragraphs of a
   random shelf satisfy [//p[. ftcontains S]] for two selections that
   must mean the same, under every strategy.  A subset law A ⊆ B is
   checked as the equivalence [A || B ≡ B]: a node satisfies an FTOr of
   anchor-free operands exactly when it satisfies one of them. *)

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

(* The operands: no anchors, which FTOr carries across its operands (a
   separate, recorded divergence), and no top-level FTOr of their own. *)
let gen_selection =
  Ft_gen.(
    selection ~depth:1 ~words:vocab ~options:[ ""; " with stemming" ]
      ~leaf_weight:3
      [
        (2, And); (1, Or); (1, Not); (1, Ordered); (1, Window (1, 5));
        (1, Distance (0, 3)); (1, Occurs (1, 2)); (1, Occurs_at_most (0, 1));
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

(* The operands of [!]: no FTAnd and no count under it.  The translated
   strategy's FTUnaryNot builds one match per choice of an entry from
   every input match, and an FTAnd's cross product makes that choice
   space explode: [!("b" with stemming && "b")] over [<p>b. b b a b</p>]
   needs 65,536 matches and exhausts memory, aborting the process. *)
let gen_negatable =
  Ft_gen.(
    selection ~depth:1 ~words:vocab ~options:[ ""; " with stemming" ]
      ~leaf_weight:3
      [ (1, Or); (1, Not); (1, Ordered); (1, Window (1, 5)); (1, Distance (0, 3)) ])

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

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_filters_distribute; prop_or_commutes; prop_or_associates;
      prop_or_idempotent; prop_window_monotone; prop_distance_monotone;
      prop_occurs_monotone; prop_ordered_within_unordered;
      prop_stemming_widens; prop_not_complements;
      prop_score_zero_iff_unsatisfied ]
