open Xmlkit

let check = Alcotest.check
let bool_ = Alcotest.bool

let dewey = Alcotest.testable Dewey.pp Dewey.equal

let test_string_round_trip () =
  List.iter
    (fun s -> check Alcotest.string "round trip" s (Dewey.to_string (Dewey.of_string s)))
    [ "1"; "1.3.1.1"; "1.10.2"; "7" ]

let test_of_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("invalid " ^ s) (Invalid_argument "Dewey.of_string: bad component ")
        (fun () ->
          try ignore (Dewey.of_string s)
          with Invalid_argument _ ->
            raise (Invalid_argument "Dewey.of_string: bad component ")))
    [ ""; "1..2"; "a.b"; "1.-2"; "0" ]

let test_parent_child () =
  let d = Dewey.of_string "1.3.1" in
  check dewey "child" (Dewey.of_string "1.3.1.4") (Dewey.child d 4);
  check (Alcotest.option dewey) "parent" (Some (Dewey.of_string "1.3"))
    (Dewey.parent d);
  check (Alcotest.option dewey) "root parent" None (Dewey.parent Dewey.root)

let test_hierarchical_order () =
  (* the paper's example: 1.10.1 > 1.9.2 (numeric, not lexicographic) *)
  let a = Dewey.of_string "1.10.1" and b = Dewey.of_string "1.9.2" in
  check bool_ "1.10.1 > 1.9.2" true (Dewey.compare a b > 0);
  (* ancestors come first *)
  check bool_ "ancestor first" true
    (Dewey.compare (Dewey.of_string "1.3") (Dewey.of_string "1.3.1") < 0)

let test_containment () =
  let node = Dewey.of_string "1.3.1.1" in
  check bool_ "contains descendant" true
    (Dewey.contains node (Dewey.of_string "1.3.1.1.4"));
  check bool_ "contains self" true (Dewey.contains node node);
  check bool_ "no false prefix" false
    (Dewey.contains (Dewey.of_string "1.1") (Dewey.of_string "1.10.1"));
  check bool_ "strict ancestor" false (Dewey.is_ancestor node node);
  check bool_ "ancestor" true
    (Dewey.is_ancestor (Dewey.of_string "1.3") (Dewey.of_string "1.3.9"))

(* --- properties --- *)

let gen_dewey =
  QCheck2.Gen.(
    map
      (fun steps -> Dewey.of_list (List.map (fun s -> 1 + abs s mod 9) steps))
      (list_size (int_range 1 6) int))

let prop_order_total =
  QCheck2.Test.make ~name:"dewey order is antisymmetric and transitive-ish"
    ~count:300
    QCheck2.Gen.(triple gen_dewey gen_dewey gen_dewey)
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry *)
      sgn (Dewey.compare a b) = -sgn (Dewey.compare b a)
      (* transitivity on a sorted triple *)
      &&
      let sorted = List.sort Dewey.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] ->
          Dewey.compare x y <= 0 && Dewey.compare y z <= 0
          && Dewey.compare x z <= 0
      | _ -> false)

let prop_ancestor_iff_prefix =
  QCheck2.Test.make ~name:"child extends and is contained" ~count:300
    QCheck2.Gen.(pair gen_dewey (int_range 1 9))
    (fun (d, r) ->
      let c = Dewey.child d r in
      Dewey.is_ancestor d c && Dewey.compare d c < 0
      && Dewey.parent c = Some d)

let prop_string_round_trip =
  QCheck2.Test.make ~name:"to_string/of_string round trip" ~count:300 gen_dewey
    (fun d -> Dewey.equal d (Dewey.of_string (Dewey.to_string d)))

let tests =
  [
    Alcotest.test_case "string round trip" `Quick test_string_round_trip;
    Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
    Alcotest.test_case "parent/child" `Quick test_parent_child;
    Alcotest.test_case "hierarchical order (paper example)" `Quick
      test_hierarchical_order;
    Alcotest.test_case "containment" `Quick test_containment;
    QCheck_alcotest.to_alcotest prop_order_total;
    QCheck_alcotest.to_alcotest prop_ancestor_iff_prefix;
    QCheck_alcotest.to_alcotest prop_string_round_trip;
  ]
