(* The use-case catalogue (the paper's conformance surface) under both
   evaluation strategies. *)

let engine = lazy (Corpus.Usecases.engine ())

let strategy_tests (name, strategy) =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun (uc : Corpus.Usecases.usecase) ->
          match Corpus.Usecases.check_case (Lazy.force engine) ~strategy uc with
          | Ok () -> ()
          | Error (got, want) ->
              Alcotest.failf "%s [%s]: got [%s], want [%s]" uc.Corpus.Usecases.id
                name (String.concat "; " got) (String.concat "; " want))
        Corpus.Usecases.all_cases)

let test_every_feature_probed () =
  (* the Table 1 GalaTex feature row is fully covered by the catalogue *)
  let features =
    List.sort_uniq compare
      (List.map (fun (uc : Corpus.Usecases.usecase) -> uc.Corpus.Usecases.feature)
         Corpus.Usecases.all_cases)
  in
  List.iter
    (fun required ->
      Alcotest.check Alcotest.bool ("probed: " ^ required) true
        (List.mem required features))
    [
      "phrase matching"; "Boolean connectives"; "order specificity";
      "proximity distance"; "no. occurrences"; "stemming"; "case sensitive";
      "regular expressions"; "stop words"; "weighting"; "scoring"; "scope";
      "composability"; "ignore option"; "anchors"; "diacritics";
    ]

let tests =
  test_every_feature_probed |> fun f ->
  Alcotest.test_case "Table 1 feature coverage" `Quick f
  :: List.map strategy_tests
       [
         ("materialized", Galatex.Engine.Native_materialized);
         ("translated", Galatex.Engine.Translated);
       ]
