(* The use-case catalogue under both evaluation strategies, with
   per-strategy timing — the command-line version of the paper's GalaTex
   demo, which "permits users to execute both the XQuery Full-Text use
   cases and their own queries". *)

let () =
  let engine = Corpus.Usecases.engine () in
  let strategies =
    [
      ("materialized", Galatex.Engine.Native_materialized);
      ("translated", Galatex.Engine.Translated);
    ]
  in
  Printf.printf "%-24s %-22s %12s %12s\n" "use case" "feature" "materialized"
    "translated";
  let totals = Array.make 2 0.0 in
  List.iter
    (fun (uc : Corpus.Usecases.usecase) ->
      let cells =
        List.mapi
          (fun i (_, strategy) ->
            let t0 = Unix.gettimeofday () in
            let outcome = Corpus.Usecases.check_case engine ~strategy uc in
            let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
            totals.(i) <- totals.(i) +. dt;
            match outcome with
            | Ok () -> Printf.sprintf "%8.2fms" dt
            | Error _ -> "FAIL")
          strategies
      in
      Printf.printf "%-24s %-22s %12s %12s\n" uc.Corpus.Usecases.id
        uc.Corpus.Usecases.feature (List.nth cells 0) (List.nth cells 1))
    Corpus.Usecases.cases;
  Printf.printf "%-24s %-22s %10.1fms %10.1fms\n" "TOTAL" "" totals.(0)
    totals.(1);
  Printf.printf
    "\nThe translated (all-XQuery) strategy is complete but %.0fx slower than\n\
     the native one — the completeness-over-efficiency trade the paper\n\
     makes explicitly.\n"
    (totals.(1) /. Float.max 0.001 totals.(0))
