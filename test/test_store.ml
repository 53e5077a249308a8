(* The persistent-store robustness contract:

   1. save |> load is the identity on indexes (qcheck over random corpora,
      plus the empty-index edge case);
   2. a fault injected at *any* I/O operation of a save or a load yields
      exactly one of: an exact round trip, a salvage with a damage report
      (still exact, given sources), or a structured gtlx: storage error —
      never a raw exception, never silently wrong postings;
   3. a save crashing over an existing snapshot leaves the old or the new
      index loadable — never a mix;
   4. on-disk corruption (bit flips, truncation, version patches, missing
      manifest) is detected and either salvaged or reported structurally.

   Exactness is cross-checked at the query level: a recovered engine must
   answer a use-case query identically to a freshly indexed one. *)

open Ftindex

let storage_codes =
  [ Xquery.Errors.GTLX0006; Xquery.Errors.GTLX0007; Xquery.Errors.GTLX0008 ]

(* --- scratch directories (inside the dune sandbox cwd) --- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Printf.sprintf "store-scratch-%d-%d" (Unix.getpid ()) !dir_counter

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- structural index equality (documents, tokens, postings, scores) --- *)

let index_eq (a : Inverted.t) (b : Inverted.t) =
  let doc_sig i =
    List.map (fun (u, r) -> (u, Xmlkit.Printer.to_string r)) (Inverted.documents i)
  in
  (* the query-time score of every (document, word) run *)
  let scores i w =
    List.map
      (fun (doc, run) -> (doc, Inverted.score i ~doc run))
      (Inverted.Doc_map.bindings (Inverted.runs i w))
  in
  doc_sig a = doc_sig b
  && Inverted.total_postings a = Inverted.total_postings b
  && Inverted.distinct_words a = Inverted.distinct_words b
  && List.for_all
       (fun w -> Inverted.postings a w = Inverted.postings b w && scores a w = scores b w)
       (Inverted.distinct_words a)
  && List.for_all
       (fun (u, _) ->
         Inverted.tokens_of_doc a ~doc:u = Inverted.tokens_of_doc b ~doc:u)
       (Inverted.documents a)

let check_same msg a b = Alcotest.(check bool) msg true (index_eq a b)

(* --- fixtures --- *)

let corpus_sources =
  [
    ( "a.xml",
      "<book><title>Usability testing</title><p>Software usability and \
       testing of web site design requirements.</p></book>" );
    ( "b.xml",
      "<book><title>Web design</title><p>Practical web design including \
       usability goals and testing plans.</p></book>" );
  ]

let corpus_index () = Indexer.index_strings corpus_sources

let faults =
  [
    ("io-error", Store.Io.Io_error);
    ("crash", Store.Io.Crash);
    ("torn-0", Store.Io.Torn_write 0);
    ("torn-17", Store.Io.Torn_write 17);
    ("bitflip-3", Store.Io.Bit_flip 3);
    ("bitflip-99", Store.Io.Bit_flip 99);
  ]

(* --- round trips --- *)

let test_roundtrip () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Store.save ~dir index;
      let l = Store.load ~dir () in
      Alcotest.(check bool) "clean report" true (Store.clean l.Store.report);
      check_same "round trip" index l.Store.index)

let test_roundtrip_empty () =
  let index = Inverted.empty () in
  with_dir (fun dir ->
      Store.save ~dir index;
      let l = Store.load ~dir () in
      Alcotest.(check bool) "clean report" true (Store.clean l.Store.report);
      check_same "empty round trip" index l.Store.index)

let test_save_replaces_previous () =
  with_dir (fun dir ->
      let a = corpus_index () in
      let b = Indexer.index_strings [ List.hd corpus_sources ] in
      Store.save ~dir a;
      Store.save ~dir b;
      let l = Store.load ~dir () in
      Alcotest.(check bool) "clean report" true (Store.clean l.Store.report);
      check_same "second save wins" b l.Store.index)

(* --- qcheck: save |> load = id on random corpora --- *)

let gen_profile =
  let open QCheck2.Gen in
  let* seed = int_range 0 1000 in
  let* doc_count = int_range 1 4 in
  let* sections = int_range 1 2 in
  let* words = int_range 5 25 in
  let* vocab = int_range 10 80 in
  return
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.seed;
      doc_count;
      sections_per_doc = sections;
      paras_per_section = 2;
      words_per_para = words;
      vocab_size = vocab;
    }

let prop_roundtrip_id =
  QCheck2.Test.make ~name:"Store.save |> Store.load = id" ~count:25
    gen_profile
    (fun profile ->
      let index = Corpus.Generator.index_books profile in
      with_dir (fun dir ->
          Store.save ~dir index;
          let l = Store.load ~dir () in
          Store.clean l.Store.report && index_eq index l.Store.index))

(* --- fault sweeps ---

   Outcome trichotomy for every injection point: exact round trip, salvage
   with a report (still exact, sources provided), or a structured storage
   error.  [Io.Crashed] may escape a save (simulated process death) but
   never a load. *)

let structured_storage e =
  List.mem e.Xquery.Errors.code storage_codes
  || (* a transient read failure of the manifest surfaces as retrieval *)
  e.Xquery.Errors.code = Xquery.Errors.FODC0002

let check_load_outcome ~name ~expect ?(alternates = []) ~sources dir =
  match Store.load ~sources ~dir () with
  | l ->
      Alcotest.(check bool)
        (name ^ ": loaded index exact")
        true
        (List.exists (index_eq l.Store.index) (expect :: alternates))
  | exception Xquery.Errors.Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: structured storage error (got %s)" name
           (Xquery.Errors.code_string e.Xquery.Errors.code))
        true (structured_storage e)
  | exception exn ->
      Alcotest.failf "%s: raw exception escaped load: %s" name
        (Printexc.to_string exn)

let count_save_ops index =
  with_dir (fun dir ->
      let io = Store.Io.real () in
      Store.save ~io ~dir index;
      Store.Io.ops io)

let test_save_fault_sweep () =
  let index = corpus_index () in
  let total = count_save_ops index in
  Alcotest.(check bool) "save performs several ops" true (total > 10);
  for at = 1 to total do
    List.iter
      (fun (fname, fault) ->
        let name = Printf.sprintf "save %s@%d" fname at in
        with_dir (fun dir ->
            (match Store.save ~io:(Store.Io.with_fault ~at fault) ~dir index with
            | () -> ()
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (name ^ ": structured save error")
                  true
                  (e.Xquery.Errors.code = Xquery.Errors.GTLX0008)
            | exception Store.Io.Crashed -> () (* simulated process death *)
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped save: %s" name
                  (Printexc.to_string exn));
            (* whatever the save left behind must load exactly or fail
               structurally; a torn fresh save has no manifest -> GTLX0008 *)
            check_load_outcome ~name ~expect:index ~sources:corpus_sources dir))
      faults
  done

let test_save_over_existing_fault_sweep () =
  (* crash-safety across overwrites: after a faulted save of B over a
     snapshot of A, the directory holds exactly A or exactly B *)
  let a = corpus_index () in
  let b =
    Indexer.index_strings
      [
        ( "c.xml",
          "<book><title>Different corpus</title><p>Entirely new words \
           nothing shared with the previous snapshot text.</p></book>" );
      ]
  in
  let sources =
    corpus_sources
    @ [ ( "c.xml",
          "<book><title>Different corpus</title><p>Entirely new words \
           nothing shared with the previous snapshot text.</p></book>" ) ]
  in
  let total = count_save_ops b in
  for at = 1 to total do
    List.iter
      (fun (fname, fault) ->
        let name = Printf.sprintf "overwrite %s@%d" fname at in
        with_dir (fun dir ->
            Store.save ~dir a;
            (match Store.save ~io:(Store.Io.with_fault ~at fault) ~dir b with
            | () | (exception Xquery.Errors.Error _)
            | (exception Store.Io.Crashed) ->
                ()
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped save: %s" name
                  (Printexc.to_string exn));
            check_load_outcome ~name ~expect:a ~alternates:[ b ] ~sources dir))
      faults
  done

let test_load_fault_sweep () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Store.save ~dir index;
      let io = Store.Io.real () in
      ignore (Store.load ~io ~dir ());
      let total = Store.Io.ops io in
      Alcotest.(check bool) "load performs several ops" true (total > 4);
      for at = 1 to total do
        List.iter
          (fun (fname, fault) ->
            let name = Printf.sprintf "load %s@%d" fname at in
            match
              Store.load
                ~io:(Store.Io.with_fault ~at fault)
                ~sources:corpus_sources ~dir ()
            with
            | l ->
                Alcotest.(check bool)
                  (name ^ ": exact after salvage")
                  true
                  (index_eq index l.Store.index)
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: structured error (got %s)" name
                     (Xquery.Errors.code_string e.Xquery.Errors.code))
                  true (structured_storage e)
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped load: %s" name
                  (Printexc.to_string exn))
          faults
      done)

(* --- on-disk corruption (no injector: real bytes damaged) --- *)

let patch_file path off f =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let b = Bytes.of_string data in
  if off < Bytes.length b then
    Bytes.set b off (f (Bytes.get b off));
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc b)

let truncate_file path len =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.sub data 0 (min len (String.length data))))

let snapshot_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare

let test_corruption_sweep () =
  let index = corpus_index () in
  with_dir (fun master ->
      Store.save ~dir:master index;
      let files = snapshot_files master in
      List.iter
        (fun file ->
          (* a handful of byte offsets spread over each file, plus
             truncations at interesting lengths *)
          let size =
            let ic = open_in_bin (Filename.concat master file) in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> in_channel_length ic)
          in
          let offsets = [ 0; 5; 9; 13; 26; size / 2; size - 1 ] in
          List.iter
            (fun off ->
              if off >= 0 && off < size then
                with_dir (fun dir ->
                    Store.save ~dir index;
                    patch_file (Filename.concat dir file) off
                      (fun c -> Char.chr (Char.code c lxor 0x40));
                    check_load_outcome
                      ~name:(Printf.sprintf "flip %s@%d" file off)
                      ~expect:index ~sources:corpus_sources dir))
            offsets;
          List.iter
            (fun len ->
              if len < size then
                with_dir (fun dir ->
                    Store.save ~dir index;
                    truncate_file (Filename.concat dir file) len;
                    check_load_outcome
                      ~name:(Printf.sprintf "truncate %s@%d" file len)
                      ~expect:index ~sources:corpus_sources dir))
            [ 0; 7; 24; size / 2; size - 1 ])
        files)

let expect_load_code name expected ?(sources = []) dir =
  match Store.load ~sources ~dir () with
  | _ -> Alcotest.failf "%s: load unexpectedly succeeded" name
  | exception Xquery.Errors.Error e ->
      Alcotest.(check string)
        name
        (Xquery.Errors.code_string expected)
        (Xquery.Errors.code_string e.Xquery.Errors.code)

let test_version_mismatch () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Store.save ~dir index;
      (* the format version is the u32 right after the 8-byte magic *)
      patch_file (Filename.concat dir Store.manifest_name) 8 (fun _ -> '\xfe');
      expect_load_code "version mismatch" Xquery.Errors.GTLX0007 dir)

let test_missing_manifest () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Store.save ~dir index;
      Sys.remove (Filename.concat dir Store.manifest_name);
      expect_load_code "missing manifest" Xquery.Errors.GTLX0008 dir)

let test_not_a_snapshot () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      expect_load_code "empty directory" Xquery.Errors.GTLX0008 dir)

let test_damaged_doc_without_sources_is_fatal () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Store.save ~dir index;
      let doc_seg =
        List.find
          (fun f -> String.length f > 4 && String.sub f 0 4 = "doc-")
          (snapshot_files dir)
      in
      patch_file (Filename.concat dir doc_seg) 40 (fun c ->
          Char.chr (Char.code c lxor 0x01));
      expect_load_code "damaged doc, no sources" Xquery.Errors.GTLX0006 dir;
      (* same damage, sources provided: salvaged exactly *)
      let l = Store.load ~sources:corpus_sources ~dir () in
      Alcotest.(check bool)
        "salvage reports damage" false
        (Store.clean l.Store.report);
      Alcotest.(check (list string))
        "re-indexed the damaged document"
        [ fst (List.hd corpus_sources) ]
        l.Store.report.Store.reindexed;
      check_same "salvaged exactly" index l.Store.index)

(* --- the governor applies to loading too --- *)

let test_load_deadline () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Store.save ~dir index;
      let governor =
        Xquery.Limits.governor
          { Xquery.Limits.defaults with Xquery.Limits.timeout = Some (-1.0) }
      in
      match Store.load ~governor ~dir () with
      | _ -> Alcotest.fail "expired deadline: load should not finish"
      | exception Xquery.Errors.Error e ->
          Alcotest.(check string)
            "deadline code" "gtlx:GTLX0004"
            (Xquery.Errors.code_string e.Xquery.Errors.code))

(* --- fencing epoch: round trip, regression refusal, bump atomicity --- *)

let test_epoch_roundtrip () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Alcotest.(check (option int))
        "no manifest yet" None (Store.current_epoch ~dir);
      Store.save ~dir index;
      Alcotest.(check (option int))
        "fresh directory starts at epoch 1" (Some 1)
        (Store.current_epoch ~dir);
      let l = Store.load ~dir () in
      Alcotest.(check int) "loaded epoch" 1 l.Store.epoch;
      Store.save ~epoch:5 ~dir index;
      Alcotest.(check (option int))
        "explicit epoch stamped" (Some 5) (Store.current_epoch ~dir);
      (* a compaction-style resave with no [epoch] carries it over *)
      Store.save ~dir index;
      Alcotest.(check (option int))
        "resave carries the epoch over" (Some 5) (Store.current_epoch ~dir);
      Store.bump_epoch ~dir ~epoch:7 ();
      Alcotest.(check (option int))
        "bumped" (Some 7) (Store.current_epoch ~dir);
      Store.bump_epoch ~dir ~epoch:7 ();
      Alcotest.(check (option int))
        "equal bump is a no-op" (Some 7) (Store.current_epoch ~dir);
      (match Store.bump_epoch ~dir ~epoch:6 () with
      | () -> Alcotest.fail "epoch regression must be refused"
      | exception Xquery.Errors.Error e ->
          Alcotest.(check string)
            "regression code" "gtlx:GTLX0013"
            (Xquery.Errors.code_string e.Xquery.Errors.code));
      let l = Store.load ~dir () in
      Alcotest.(check int) "epoch survives the refused bump" 7 l.Store.epoch;
      check_same "bumps never touch the index" index l.Store.index)

(* Regression: the anti-entropy fingerprint must see an epoch bump.  A
   CRC-32 of the raw frame bytes would not — the frame ends in
   crc32(payload), and a CRC over a CRC-terminated message is invariant
   under same-length payload edits (the residue property), so two
   manifests differing only in their epoch hashed identically and a
   fenced-off old primary never noticed the new timeline. *)
let test_manifest_crc_sees_epoch () =
  let index = corpus_index () in
  with_dir (fun dir ->
      Store.save ~dir index;
      let before = Store.manifest_crc ~dir in
      Alcotest.(check bool) "fingerprint exists" true (before <> None);
      Store.bump_epoch ~dir ~epoch:2 ();
      Alcotest.(check bool)
        "same-length epoch bump changes the fingerprint" true
        (Store.manifest_crc ~dir <> before))

let count_bump_ops index =
  with_dir (fun dir ->
      Store.save ~dir index;
      let io = Store.Io.real () in
      Store.bump_epoch ~io ~dir ~epoch:3 ();
      Store.Io.ops io)

let test_bump_epoch_fault_sweep () =
  (* a faulted bump leaves the old epoch, the new epoch, or a manifest
     that fails structurally — never a third epoch, never a raw
     exception, and a readable manifest always loads the exact index *)
  let index = corpus_index () in
  let total = count_bump_ops index in
  Alcotest.(check bool) "bump performs several ops" true (total > 2);
  for at = 1 to total do
    List.iter
      (fun (fname, fault) ->
        let name = Printf.sprintf "bump %s@%d" fname at in
        with_dir (fun dir ->
            Store.save ~dir index;
            (match
               Store.bump_epoch
                 ~io:(Store.Io.with_fault ~at fault)
                 ~dir ~epoch:9 ()
             with
            | () -> ()
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (name ^ ": structured bump error")
                  true
                  (e.Xquery.Errors.code = Xquery.Errors.GTLX0008)
            | exception Store.Io.Crashed -> () (* simulated process death *)
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped bump: %s" name
                  (Printexc.to_string exn));
            match Store.current_epoch ~dir with
            | Some (1 | 9) -> (
                match Store.load ~dir () with
                | l -> check_same (name ^ ": index intact") index l.Store.index
                | exception Xquery.Errors.Error e ->
                    Alcotest.failf "%s: readable manifest failed load (%s)"
                      name
                      (Xquery.Errors.code_string e.Xquery.Errors.code))
            | Some e -> Alcotest.failf "%s: torn epoch %d" name e
            | None -> (
                (* the flipped manifest got renamed in: detection, not
                   silence, is the contract *)
                match Store.load ~dir () with
                | _ ->
                    Alcotest.failf "%s: corrupt manifest loaded cleanly" name
                | exception Xquery.Errors.Error e ->
                    Alcotest.(check bool)
                      (name ^ ": corrupt manifest fails structurally")
                      true (structured_storage e))))
      faults
  done

(* --- engine level: persistence round trip and query cross-check --- *)

let usecase_query = {|//book[. ftcontains "usability" && "testing"]/title|}

let test_engine_roundtrip_query () =
  let fresh = Galatex.Engine.of_strings corpus_sources in
  let expected =
    Xquery.Value.to_display_string (Galatex.Engine.run fresh usecase_query)
  in
  with_dir (fun dir ->
      Galatex.Engine.save fresh ~dir;
      let loaded = Galatex.Engine.of_store ~dir () in
      (match Galatex.Engine.salvage_report loaded with
      | Some r -> Alcotest.(check bool) "clean load" true (Store.clean r)
      | None -> Alcotest.fail "of_store must retain a salvage report");
      Alcotest.(check string)
        "loaded engine answers identically" expected
        (Xquery.Value.to_display_string (Galatex.Engine.run loaded usecase_query));
      (* and after salvage from real corruption, still identical *)
      let doc_seg =
        List.find
          (fun f -> String.length f > 4 && String.sub f 0 4 = "doc-")
          (snapshot_files dir)
      in
      patch_file (Filename.concat dir doc_seg) 30 (fun c ->
          Char.chr (Char.code c lxor 0x20));
      let salvaged = Galatex.Engine.of_store ~sources:corpus_sources ~dir () in
      (match Galatex.Engine.salvage_report salvaged with
      | Some r -> Alcotest.(check bool) "damage reported" false (Store.clean r)
      | None -> Alcotest.fail "salvage report missing");
      Alcotest.(check string)
        "salvaged engine answers identically" expected
        (Xquery.Value.to_display_string
           (Galatex.Engine.run salvaged usecase_query)))

let test_run_report_exposes_fallbacks_total () =
  let engine = Galatex.Engine.of_strings corpus_sources in
  let r = Galatex.Engine.run_report engine usecase_query in
  Alcotest.(check int) "no degradations yet" 0 r.Galatex.Engine.fallbacks_total;
  (* force one degradation via the step-fault injector on the pipelined
     strategy, then observe the engine-wide counter in the next report *)
  let r2 =
    Galatex.Engine.run_report engine ~strategy:Galatex.Engine.Native_pipelined
      ~fault_at:3 ~fallback:true usecase_query
  in
  Alcotest.(check bool) "fell back" true r2.Galatex.Engine.fell_back;
  Alcotest.(check int) "counter exposed" 1 r2.Galatex.Engine.fallbacks_total;
  Alcotest.(check int)
    "matches fallback_count" (Galatex.Engine.fallback_count engine)
    r2.Galatex.Engine.fallbacks_total

(* Satellite (c): a reader racing a writer over the same snapshot
   directory.  Saves are atomic (temp -> fsync -> rename, manifest last)
   and load retries when the manifest generation moves mid-load, so every
   successful concurrent load must equal one of the two indexes exactly —
   never a torn mix — and once the writer stops, loads are clean and equal
   to the last index written. *)
let test_concurrent_generations () =
  let a = corpus_index () in
  let b =
    Indexer.index_strings
      [
        ( "c.xml",
          "<doc><title>Zebra quokka</title><p>an entirely different corpus \
           with other words</p></doc>" );
      ]
  in
  with_dir (fun dir ->
      Store.save ~dir a;
      let writer_done = Atomic.make false in
      let writer =
        Thread.create
          (fun () ->
            (* 12 generations, alternating b/a: the last write is a *)
            for i = 1 to 12 do
              Store.save ~dir (if i mod 2 = 1 then b else a)
            done;
            Atomic.set writer_done true)
          ()
      in
      let loads = ref 0 and torn = ref 0 and structured = ref 0 in
      while not (Atomic.get writer_done) do
        match Store.load ~dir () with
        | l ->
            incr loads;
            if not (index_eq l.Store.index a || index_eq l.Store.index b) then
              incr torn
        | exception Xquery.Errors.Error e
          when List.mem e.Xquery.Errors.code storage_codes ->
            (* a load that exhausted its retries while the directory kept
               moving: structured, acceptable — the contract is only that
               nothing torn ever comes back as a success *)
            incr structured
      done;
      Thread.join writer;
      Alcotest.(check int) "no torn index ever observed" 0 !torn;
      Alcotest.(check bool) "reader made progress" true (!loads > 0);
      let final = Store.load ~dir () in
      Alcotest.(check bool) "final load clean" true (Store.clean final.Store.report);
      check_same "final load is the last written index" a final.Store.index)

let tests =
  [
    Alcotest.test_case "round trip" `Quick test_roundtrip;
    Alcotest.test_case "concurrent writer vs reader generations" `Quick
      test_concurrent_generations;
    Alcotest.test_case "round trip (empty index)" `Quick test_roundtrip_empty;
    Alcotest.test_case "second save replaces first" `Quick
      test_save_replaces_previous;
    QCheck_alcotest.to_alcotest prop_roundtrip_id;
    Alcotest.test_case "save fault sweep" `Slow test_save_fault_sweep;
    Alcotest.test_case "overwrite fault sweep" `Slow
      test_save_over_existing_fault_sweep;
    Alcotest.test_case "load fault sweep" `Quick test_load_fault_sweep;
    Alcotest.test_case "on-disk corruption sweep" `Slow test_corruption_sweep;
    Alcotest.test_case "version mismatch (GTLX0007)" `Quick
      test_version_mismatch;
    Alcotest.test_case "missing manifest (GTLX0008)" `Quick
      test_missing_manifest;
    Alcotest.test_case "not a snapshot (GTLX0008)" `Quick test_not_a_snapshot;
    Alcotest.test_case "unsalvageable doc (GTLX0006) vs sources" `Quick
      test_damaged_doc_without_sources_is_fatal;
    Alcotest.test_case "deadline applies to load (GTLX0004)" `Quick
      test_load_deadline;
    Alcotest.test_case "fencing epoch round trip" `Quick test_epoch_roundtrip;
    Alcotest.test_case "manifest CRC sees same-length divergence" `Quick
      test_manifest_crc_sees_epoch;
    Alcotest.test_case "epoch bump fault sweep" `Slow
      test_bump_epoch_fault_sweep;
    Alcotest.test_case "engine save/of_store query cross-check" `Quick
      test_engine_roundtrip_query;
    Alcotest.test_case "run_report exposes fallbacks_total" `Quick
      test_run_report_exposes_fallbacks_total;
  ]
