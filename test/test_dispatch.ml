(* One full-text dispatch per step.  The evaluator hands a path step's
   ". ftcontains S" predicate, and the items of "for $v in E let $s :=
   ft:score($v, S)", to the handler in one call when S means the same for
   every node; each node is still evaluated alone.  The forms that stay
   per node are pinned by their dispatch counts, and the batched forms are
   checked against per-node forms written in plain XQuery. *)

open Galatex

let dispatches eng ?(strategy = Engine.Native_materialized) q =
  let r = Engine.run_report eng ~strategy q in
  (r.Engine.counters.Xquery.Limits.ft_dispatches, r.Engine.value)

(* perfbench's corpus profile at 50 books *)
let test_dispatch_counts () =
  let eng =
    Engine.create
      (Corpus.Generator.books
         {
           Corpus.Generator.default_profile with
           Corpus.Generator.seed = 7919;
           doc_count = 50;
           sections_per_doc = 2;
           paras_per_section = 3;
           words_per_para = 30;
           vocab_size = 150;
         })
  in
  let w = Corpus.Vocab.word_for_rank 12 in
  let expect label n q =
    List.iter
      (fun strategy ->
        Alcotest.(check int) label n (fst (dispatches eng ~strategy q)))
      [ Engine.Native_materialized; Engine.Native_pipelined ]
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
    (Printf.sprintf {|count(collection()//chapter[. ftcontains "%s"])|} w)

(* --- the batched forms equal per-node forms --- *)

let engine = lazy (Corpus.Usecases.engine ())

let same_item a b =
  match (a, b) with
  | Xquery.Value.Node x, Xquery.Value.Node y -> Xmlkit.Node.equal x y
  | Xquery.Value.Double x, Xquery.Value.Double y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let prop_batched_equals_per_node =
  QCheck2.Test.make
    ~name:"batched full-text dispatch equals per-node evaluation" ~count:40
    ~print:(fun (ctx, sel) -> ctx ^ " " ^ sel)
    QCheck2.Gen.(pair Test_strategies.gen_context Test_strategies.gen_selection)
    (fun (ctx, sel) ->
      let eng = Lazy.force engine in
      List.for_all
        (fun strategy ->
          let agree batched per_node =
            let n, got = dispatches eng ~strategy batched in
            n <= 1
            && List.equal same_item got (Engine.run eng ~strategy per_node)
          in
          agree
            (Printf.sprintf "collection()%s[. ftcontains %s]" ctx sel)
            (Printf.sprintf
               "for $n in collection()%s where $n ftcontains %s return $n" ctx
               sel)
          && agree
               (Printf.sprintf
                  "for $b in collection()%s let $s := ft:score($b, %s) return $s"
                  ctx sel)
               (Printf.sprintf
                  "for $b in collection()%s return ft:score($b, %s)" ctx sel))
        [ Engine.Native_materialized; Engine.Native_pipelined ])

let tests =
  [
    Alcotest.test_case "one full-text dispatch per step" `Quick
      test_dispatch_counts;
    QCheck_alcotest.to_alcotest prop_batched_equals_per_node;
  ]
