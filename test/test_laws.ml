(* Algebraic laws of the AllMatches semantics, as an oracle for what the
   three strategies share.  The strategy properties check that they agree
   with each other; a law checks each of them against itself, so it also
   catches a bug they all make.  Every law compares which paragraphs of a
   random shelf satisfy [//p[. ftcontains S]] for two selections that
   must mean the same, under every strategy. *)

open Galatex

let vocab = [ "a"; "b"; "c"; "d" ]

(* A shelf of one to five paragraphs, each one or two sentences of one to
   four words, so [same sentence] can tell sentences apart. *)
let gen_shelf =
  QCheck2.Gen.(
    let sentence = map (String.concat " ") (list_size (int_range 1 4) (oneofl vocab)) in
    let paragraph = map (String.concat ". ") (list_size (int_range 1 2) sentence) in
    map
      (fun paragraphs ->
        "<shelf>"
        ^ String.concat ""
            (List.mapi (Printf.sprintf {|<p id="%d">%s</p>|}) paragraphs)
        ^ "</shelf>")
      (list_size (int_range 1 5) paragraph))

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

let strategies =
  [ Engine.Native_materialized; Engine.Native_pipelined; Engine.Translated ]

(* [sides] must select the same paragraphs of [shelf] under each strategy. *)
let equivalent shelf sides =
  let eng = Engine.of_strings [ ("shelf.xml", shelf) ] in
  let satisfying strategy sel =
    Xquery.Value.to_display_string
      (Engine.run eng ~strategy
         (Printf.sprintf
            "for $p in collection()//p[. ftcontains %s] return string($p/@id)"
            sel))
  in
  List.for_all
    (fun strategy ->
      match List.map (satisfying strategy) sides with
      | first :: rest -> List.for_all (String.equal first) rest
      | [] -> true)
    strategies

let print_case (shelf, sides) = shelf ^ "\n" ^ String.concat "\n  vs " sides

let law name ~count gen =
  QCheck2.Test.make ~name ~count ~print:print_case
    QCheck2.Gen.(pair gen_shelf gen)
    (fun (shelf, sides) -> equivalent shelf sides)

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

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_filters_distribute; prop_or_commutes; prop_or_associates;
      prop_or_idempotent ]
