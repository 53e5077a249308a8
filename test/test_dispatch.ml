(* One full-text dispatch per step.  The evaluator hands a path step's
   ". ftcontains S" predicate, and the items of "for $v in E let $s :=
   ft:score($v, S)", to the handler in one call when S means the same for
   every node; each node is still evaluated alone.  The forms that stay
   per node are pinned by their dispatch counts, and the batched forms are
   checked against per-node forms written in plain XQuery. *)

open Galatex

let dispatches eng q =
  let r = Engine.run_report eng q in
  (r.Engine.counters.Xquery.Limits.ft_dispatches, r.Engine.value)

(* perfbench's corpus profile *)
let perfbench_books doc_count =
  Corpus.Generator.books
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.seed = 7919;
      doc_count;
      sections_per_doc = 2;
      paras_per_section = 3;
      words_per_para = 30;
      vocab_size = 150;
    }

let test_dispatch_counts () =
  let eng = Engine.create (perfbench_books 50) in
  let w = Corpus.Vocab.word_for_rank 12 in
  let expect label n q =
    Alcotest.(check int) label n (fst (dispatches eng q))
  in
  let filter = Printf.sprintf {|count(collection()//book[. ftcontains "%s"])|} w in
  expect "filter: one dispatch" 1 filter;
  expect "ranked FLWOR: one dispatch" 1
    (Printf.sprintf
       {|subsequence(for $b in collection()//book let $s := ft:score($b, "%s") where $s > 0 order by $s descending return string($b/@id), 1, 10)|}
       w);
  Alcotest.(check string)
    "the filter counts what a where clause counts"
    (Xquery.Value.to_display_string
       (Engine.run eng
          (Printf.sprintf
             {|count(for $b in collection()//book where $b ftcontains "%s" return $b)|}
             w)))
    (Xquery.Value.to_display_string (snd (dispatches eng filter)));
  expect "focus-dependent selection: one per book" 50
    {|count(collection()//book[. ftcontains {string(./@id)}])|};
  expect "positional predicate: one per book" 50
    (Printf.sprintf {|count(collection()//book[. ftcontains "%s"][1])|} w);
  expect "without content: one per book" 50
    (Printf.sprintf
       {|count(collection()//book[. ftcontains "%s" without content .//title])|}
       w);
  expect "positional variable: one per book" 50
    {|count(for $b at $i in collection()//book let $s := ft:score($b, {string($i)}) return $s)|};
  expect "no books: no dispatch" 0
    (Printf.sprintf {|count(collection()//chapter[. ftcontains "%s"])|} w);
  expect "a full-text call inside a word source: counted" 2
    (Printf.sprintf
       {|(collection()//book)[1] ftcontains {if ((collection()//book)[2] ftcontains "%s") then "%s" else "zzz"}|}
       w w);
  expect "ftcontains over many books: one dispatch" 1
    (Printf.sprintf {|(collection()//book) ftcontains "%s"|} w);
  expect "ft:score of many books: one dispatch" 1
    (Printf.sprintf {|ft:score(collection()//book, "%s")|} w);
  expect "empty context: no dispatch" 0
    (Printf.sprintf {|(collection()//chapter) ftcontains "%s"|} w)

(* The per-node kernel allocates what a node matches, not a fixed toll of
   closures and copies: minor words per book of the batched forms at 50
   books, each bound about 1.5x what the kernel needs (158, 286, 82 and
   277 words; 45.8 for the step alone).  Minor-word counts are exact, so
   the bounds are deterministic. *)
let test_batched_allocation () =
  let eng = Engine.create (perfbench_books 50) in
  let be = Corpus.Vocab.word_for_rank 12 and pe = Corpus.Vocab.word_for_rank 20 in
  let words_per_book q =
    let once () =
      let before = Gc.minor_words () in
      ignore
        (Sys.opaque_identity
           (Engine.run eng ~strategy:Engine.Native_materialized q));
      (Gc.minor_words () -. before) /. 50.0
    in
    ignore (once ());
    (* the least of two runs: any other thread's allocation only adds *)
    Float.min (once ()) (once ())
  in
  let check label bound q =
    let got = words_per_book q in
    if got > bound then
      Alcotest.failf "%s: %.0f minor words per book (limit %.0f)" label got
        bound
  in
  check "phrase filter" 240.0
    (Printf.sprintf {|count(collection()//book[. ftcontains "%s %s"])|} be pe);
  check "ranked FLWOR" 430.0
    (Printf.sprintf
       {|subsequence(for $b in collection()//book let $s := ft:score($b, "%s %s") where $s > 0 order by $s descending return concat(string($s), " ", string($b/@id)), 1, 10)|}
       be pe);
  check "absent word" 125.0 {|count(collection()//book[. ftcontains "qqqzzz"])|};
  check "window" 415.0
    (Printf.sprintf
       {|count(collection()//book[. ftcontains "%s" && "%s" window 14 words])|}
       be pe)

(* --- the batched forms equal per-node forms --- *)

let engine = lazy (Corpus.Usecases.engine ())

let same_item a b =
  match (a, b) with
  | Xquery.Value.Node x, Xquery.Value.Node y -> Xmlkit.Node.equal x y
  | Xquery.Value.Double x, Xquery.Value.Double y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

(* The per-node verdict skips the containment check of includes, which
   were read inside the node, but not of excludes or content anchors: the
   selections here produce all three. *)
let gen_selection =
  Ft_gen.(
    selection ~words:Test_strategies.vocab
      ~options:[ ""; " with stemming"; " case sensitive" ]
      ~leaf_weight:4
      [
        (2, And); (2, Or); (1, Not); (1, Ordered); (1, Window (2, 20));
        (1, Distance (1, 15)); (1, Occurs (1, 3)); (1, Occurs_exactly (0, 2));
        (1, Occurs_at_most (0, 2)); (1, Same_sentence); (2, Anchor);
      ])

(* A top-level FTOr stops at the first disjunct that satisfies the node,
   anchored or not: an anchor filters the matches of its own operand.  Its
   disjuncts here carry anchors, negations, occurrence counts and weights,
   and the chain may sit under match options. *)
let gen_top_or =
  let disjunct =
    Ft_gen.(
      selection ~depth:1 ~words:Test_strategies.vocab
        ~options:[ ""; " weight 0.5"; " with stemming"; " case sensitive" ]
        ~leaf_weight:2
        [
          (1, And); (1, Not); (1, Occurs (1, 3)); (1, Occurs_at_most (0, 1));
          (1, Window (2, 10)); (2, Anchor);
        ])
  in
  QCheck2.Gen.(
    map3
      (fun chain options wrap ->
        let chain = String.concat " || " chain in
        if wrap then Printf.sprintf "(%s) %s" chain options else chain)
      (list_size (int_range 2 3) disjunct)
      (oneofl [ "with stemming"; "case insensitive" ])
      bool)

(* The per-node kernel stops reading an FTAnd or a phrase once an
   earlier operand has no entries in the node, and stops enumerating at
   the first match that satisfies it: FTAnd, window, distance, ordered
   and scope over an operand that is empty in the node (an absent word,
   or a phrase whose later token is absent), and a word ANDed with
   itself. *)
let gen_empty_operand =
  let open QCheck2.Gen in
  let sub =
    Ft_gen.selection ~depth:1 ~words:Test_strategies.vocab ~options:[ "" ]
      ~leaf_weight:3
      [ (1, And); (1, Or); (1, Not) ]
  in
  let empty =
    oneofl
      [ {|"nosuchword"|}; {|"usability nosuchword"|}; {|"nosuchword testing"|} ]
  in
  let conjunction =
    oneof
      [
        map2 (Printf.sprintf "(%s && %s)") empty sub;
        map2 (Printf.sprintf "(%s && %s)") sub empty;
        map
          (fun w -> Printf.sprintf {|("%s" && "%s")|} w w)
          (oneofl Test_strategies.vocab);
      ]
  in
  map3
    (fun filter conj n ->
      match filter with
      | 0 -> conj
      | 1 -> Printf.sprintf "(%s window %d words)" conj n
      | 2 -> Printf.sprintf "(%s distance at most %d words)" conj n
      | 3 -> Printf.sprintf "(%s ordered)" conj
      | _ -> Printf.sprintf "(%s same sentence)" conj)
    (int_range 0 4) conjunction (int_range 1 15)

(* Selections that require no word: a node holding none of their words
   can satisfy them, so no node may be skipped for lack of entries. *)
let gen_no_required_word =
  let open QCheck2.Gen in
  let word = oneofl Test_strategies.vocab in
  let sub =
    Ft_gen.selection ~depth:1 ~words:Test_strategies.vocab ~options:[ "" ]
      ~leaf_weight:3
      [ (1, And); (1, Window (2, 10)) ]
  in
  oneof
    [
      map (Printf.sprintf {|(! "%s")|}) word;
      map2 (Printf.sprintf {|("%s" occurs at most %d times)|}) word (int_range 0 2);
      map (Printf.sprintf {|("%s" occurs exactly 0 times)|}) word;
      map2 (Printf.sprintf {|(%s || ! "%s")|}) sub word;
      map2 (Printf.sprintf {|(! "%s" || %s)|}) word sub;
      map2 (Printf.sprintf {|((%s || ! "%s") window 12 words)|}) sub word;
    ]

let prop_batched_equals_per_node =
  QCheck2.Test.make
    ~name:"batched full-text dispatch equals per-node evaluation" ~count:100
    ~print:(fun (ctx, sel) -> ctx ^ " " ^ sel)
    QCheck2.Gen.(
      pair Test_strategies.gen_context
        (frequency
           [
             (2, gen_selection);
             (1, gen_top_or);
             (1, gen_empty_operand);
             (1, gen_no_required_word);
           ]))
    (fun (ctx, sel) ->
      let eng = Lazy.force engine in
      let agree batched per_node =
        let n, got = dispatches eng batched in
        n <= 1 && List.equal same_item got (Engine.run eng per_node)
      in
      agree
        (Printf.sprintf "collection()%s[. ftcontains %s]" ctx sel)
        (Printf.sprintf
           "for $n in collection()%s where $n ftcontains %s return $n" ctx sel)
      && agree
           (Printf.sprintf
              "for $b in collection()%s let $s := ft:score($b, %s) return $s"
              ctx sel)
           (Printf.sprintf "for $b in collection()%s return ft:score($b, %s)"
              ctx sel))

(* An anchored disjunct that satisfies the node ends the enumeration: the
   postings of the disjunct after it are never read. *)
let test_anchored_or_exits_early () =
  let eng = Engine.of_strings [ ("p.xml", "<p>a b</p>") ] in
  let read sel =
    let r =
      Engine.run_report eng ~strategy:Engine.Native_materialized
        (Printf.sprintf "count(//p[. ftcontains %s])" sel)
    in
    ( Xquery.Value.to_display_string r.Engine.value,
      r.Engine.counters.Xquery.Limits.postings_read )
  in
  let answer, alone = read {|("a" at start)|} in
  Alcotest.(check string) "the anchored disjunct alone" "1" answer;
  Alcotest.(check (pair string int))
    "no posting of the second disjunct is read" ("1", alone)
    (read {|("a" at start) || "b"|})

let tests =
  [
    Alcotest.test_case "one full-text dispatch per step" `Quick
      test_dispatch_counts;
    Alcotest.test_case "an anchored FTOr disjunct exits early" `Quick
      test_anchored_or_exits_early;
    Alcotest.test_case "batched kernel allocation per book" `Quick
      test_batched_allocation;
    QCheck_alcotest.to_alcotest prop_batched_equals_per_node;
  ]
