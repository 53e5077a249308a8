(* The write-ahead-log durability contract:

   1. applying an operation is exact: the updated index is bit-equal
      (documents, postings, corpus-wide scores) to re-indexing the updated
      document set from scratch (deterministic cases + qcheck over random
      op sequences);
   2. append / recover round-trips: records come back in order with dense
      sequence numbers, a reopened writer continues the sequence;
   3. a torn tail (the file ends inside the last record's promised extent)
      is dropped silently and truncated physically on reopen; mid-log
      corruption (bytes present, checksum wrong) surfaces as GTLX0010; a
      log format version bump surfaces as GTLX0007; a stale log (base
      generation older than the manifest — a compaction's leftover) is
      ignored;
   4. a fault injected at *any* I/O operation of an append, a recovery
      read, or a compaction yields exactly one of: an index equal to
      re-indexing some acknowledged prefix of the operations, or a
      structured gtlx:/err: error — never a raw exception, never silently
      wrong postings.  Compaction never loses an acknowledged update: after
      any faulted compact, recovery yields the *full* updated index or a
      structured error.

   Exactness is cross-checked at the query level, test_store style: a
   recovered engine answers the use-case query identically to an engine
   indexed from scratch over the folded document set. *)

open Ftindex

let index_eq = Test_store.index_eq
let with_dir = Test_store.with_dir
let corpus_sources = Test_store.corpus_sources
let faults = Test_store.faults
let check_same = Test_store.check_same

let structured_codes =
  [
    Xquery.Errors.GTLX0006;
    Xquery.Errors.GTLX0007;
    Xquery.Errors.GTLX0008;
    Xquery.Errors.GTLX0010;
    Xquery.Errors.FODC0002;
  ]

let structured e = List.mem e.Xquery.Errors.code structured_codes

let zebra_doc =
  "<book><title>Zebra quokka</title><p>entirely new words about zebra \
   usability</p></book>"

let replacement_a =
  "<book><title>Usability rewritten</title><p>the same uri with different \
   testing text</p></book>"

(* adds c.xml, removes b.xml, replaces a.xml: every op kind, and no
   document survives untouched (so salvage-source ambiguity cannot hide
   an inexact recovery) *)
let update_ops =
  [
    Wal.Add_doc { uri = "c.xml"; source = zebra_doc };
    Wal.Remove_doc "b.xml";
    Wal.Add_doc { uri = "a.xml"; source = replacement_a };
  ]

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

(* every index reachable by acknowledging a prefix of [ops] *)
let prefix_indexes sources ops =
  List.init
    (List.length ops + 1)
    (fun k -> Indexer.index_strings (Wal.fold_sources sources (take k ops)))

let base_index () = Indexer.index_strings corpus_sources

(* --- 1. apply = reindex from scratch --- *)

let test_apply_exact () =
  let applied =
    List.fold_left (fun i op -> Wal.apply i op) (base_index ()) update_ops
  in
  let scratch =
    Indexer.index_strings (Wal.fold_sources corpus_sources update_ops)
  in
  check_same "apply = fold_sources reindex" applied scratch;
  (* removing an absent uri is a no-op *)
  check_same "remove of unknown uri"
    (Wal.apply (base_index ()) (Wal.Remove_doc "nope.xml"))
    (base_index ());
  (* query-level cross-check *)
  let q = Test_store.usecase_query in
  Alcotest.(check string)
    "applied engine answers like a fresh one"
    (Xquery.Value.to_display_string
       (Galatex.Engine.run
          (Galatex.Engine.of_strings
             (Wal.fold_sources corpus_sources update_ops))
          q))
    (Xquery.Value.to_display_string
       (Galatex.Engine.run (Galatex.Engine.of_index applied) q))

let gen_ops_over vocab =
  let open QCheck2.Gen in
  let uris = [| "a.xml"; "b.xml"; "d0.xml"; "d1.xml" |] in
  let gen_doc =
    let* words = list_size (int_range 1 12) (oneofa vocab) in
    return (Printf.sprintf "<doc><p>%s</p></doc>" (String.concat " " words))
  in
  let gen_op =
    let* uri = oneofa uris in
    frequency
      [
        ( 3,
          let* source = gen_doc in
          return (Wal.Add_doc { uri; source }) );
        (1, return (Wal.Remove_doc uri));
      ]
  in
  list_size (int_range 0 10) gen_op

let gen_ops =
  gen_ops_over
    [| "usability"; "testing"; "web"; "design"; "zebra"; "quokka"; "goals" |]

let prop_apply_exact =
  QCheck2.Test.make ~name:"Wal.apply sequence = reindex from scratch"
    ~count:40 gen_ops (fun ops ->
      let applied =
        List.fold_left (fun i op -> Wal.apply i op) (base_index ()) ops
      in
      let scratch =
        Indexer.index_strings (Wal.fold_sources corpus_sources ops)
      in
      index_eq applied scratch)

(* An update costs O(words in the document x log V), not O(postings) nor
   O(vocabulary + documents): what one replace plus one remove allocate may
   not grow with the corpus the way a whole-index rewrite per record, or a
   copy of every table, would make it.  Minor-heap words at 4x the books
   over a 150-word vocabulary, and both heaps ([Gc.allocated_bytes]) at
   64x the books over a 2,000-word vocabulary, where a copied table is
   large enough to go straight to the major heap. *)
let test_update_cost_not_corpus_sized () =
  let profile ~vocab docs =
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.seed = 7919;
      doc_count = docs;
      sections_per_doc = 2;
      paras_per_section = 3;
      words_per_para = 30;
      vocab_size = vocab;
    }
  in
  let allocated ~vocab ~measure docs =
    let source =
      Xmlkit.Printer.to_string
        (snd
           (List.hd (Corpus.Generator.books { (profile ~vocab 1) with seed = 1 })))
    in
    let base = Corpus.Generator.index_books (profile ~vocab docs) in
    let once () =
      let before = measure () in
      let index = Wal.apply base (Wal.Add_doc { uri = "book1.xml"; source }) in
      ignore (Wal.apply index (Wal.Remove_doc "book2.xml"));
      measure () -. before
    in
    (* the least of two runs: any other thread's allocation only adds *)
    Float.min (once ()) (once ())
  in
  let check ~vocab ~measure ~what small_docs large_docs =
    let small = allocated ~vocab ~measure small_docs
    and large = allocated ~vocab ~measure large_docs in
    if large > 2.0 *. small then
      Alcotest.failf
        "vocabulary %d: update allocated %.0f %s at %d books vs %.0f at %d \
         (%.1fx)"
        vocab large what large_docs small small_docs (large /. small)
  in
  check ~vocab:150 ~measure:Gc.minor_words ~what:"minor words" 50 200;
  check ~vocab:2_000 ~measure:Gc.allocated_bytes ~what:"bytes" 50 3_200

(* The expansion cache outlives updates: an environment carried through
   [Engine.apply_update] expands every token to what a fresh environment
   over the same index does.  The generated documents bring words into the
   index (zebras, café, connects) and take them out again, and the tokens
   are expanded before the updates and after each one, so the cache is
   warm at every version. *)
let prop_expansion_cache_survives_updates =
  let vocab =
    [| "usability"; "testing"; "tests"; "web"; "zebra"; "zebras"; "quokka";
       "caf\xc3\xa9"; "cafe"; "connects"; "connection"; "Goals" |]
  in
  let thesaurus =
    Tokenize.Thesaurus.synonym_ring ~name:"default"
      [ [ "zebra"; "quokka" ]; [ "web"; "site" ] ]
  in
  let option_sets =
    let open Xquery.Ast in
    [
      [];
      [ Opt_stemming true ];
      [ Opt_wildcards true ];
      [ Opt_diacritics true ];
      [ Opt_thesaurus
          (Some { th_name = None; th_relationship = None; th_levels = None }) ];
    ]
  in
  let tokens =
    [ "usability"; "zebra"; "cafe"; "connected"; "test"; "zeb.*"; "caf."; "goals";
      "web"; "quokka" ]
  in
  let expansions env =
    List.concat_map
      (fun options ->
        let resolved =
          Galatex.Match_options.resolve_with
            ~outer:Galatex.Match_options.defaults options
        in
        List.map
          (fun token ->
            (Galatex.Match_options.expand env resolved token)
              .Galatex.Match_options.keys)
          tokens)
      option_sets
  in
  QCheck2.Test.make
    ~name:"expansion cache carried through updates = fresh expansion"
    ~count:40 (gen_ops_over vocab) (fun ops ->
      let engine =
        Galatex.Engine.of_index ~default_thesaurus:thesaurus (base_index ())
      in
      ignore (expansions (Galatex.Engine.env engine));
      List.fold_left
        (fun (ok, engine) op ->
          let engine = Galatex.Engine.apply_update engine op in
          let fresh =
            Galatex.Env.create ~default_thesaurus:thesaurus
              (Galatex.Engine.index engine)
          in
          (ok && expansions (Galatex.Engine.env engine) = expansions fresh, engine))
        (true, engine) ops
      |> fst)

(* --- 2. append / recover round trips --- *)

let test_writer_roundtrip () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      List.iter (fun op -> ignore (Wal.append w op)) update_ops;
      Alcotest.(check int) "records counted" 3 (Wal.wal_records w);
      (match Wal.read_log ~dir () with
      | None -> Alcotest.fail "log vanished"
      | Some log ->
          Alcotest.(check int) "base generation" 1 log.Wal.base_generation;
          Alcotest.(check bool) "no torn tail" false log.Wal.truncated;
          Alcotest.(check (list int))
            "dense 1-based sequence" [ 1; 2; 3 ]
            (List.map (fun r -> r.Wal.seq) log.Wal.records);
          Alcotest.(check bool)
            "operations preserved" true
            (List.map (fun r -> r.Wal.op) log.Wal.records = update_ops);
          check_same "replay is exact"
            (Indexer.index_strings (Wal.fold_sources corpus_sources update_ops))
            (Wal.replay (base_index ()) log.Wal.records));
      (* a reopened writer continues the sequence *)
      let w2 = Wal.open_writer ~dir ~generation:1 () in
      Alcotest.(check int) "records survive reopen" 3 (Wal.wal_records w2);
      Alcotest.(check int) "sequence continues" 4 (Wal.next_seq w2);
      let r = Wal.append w2 (Wal.Remove_doc "c.xml") in
      Alcotest.(check int) "next sequence assigned" 4 r.Wal.seq)

let test_stale_log_ignored () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      ignore (Wal.append w (List.hd update_ops));
      (* a compaction moved the snapshot on: the old log is stale *)
      (match Wal.read_log ~dir () with
      | Some log -> Alcotest.(check int) "old base" 1 log.Wal.base_generation
      | None -> Alcotest.fail "log missing");
      let w2 = Wal.open_writer ~dir ~generation:2 () in
      Alcotest.(check int) "stale log reset" 0 (Wal.wal_records w2);
      Alcotest.(check int) "writer on the new generation" 2
        (Wal.writer_generation w2);
      match Wal.read_log ~dir () with
      | Some log -> Alcotest.(check int) "new base" 2 log.Wal.base_generation
      | None -> Alcotest.fail "reset log missing")

(* --- 3. torn tails, mid-log corruption, version bumps --- *)

let wal_file dir = Filename.concat dir Wal.wal_name

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let test_torn_tail_truncated_silently () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      ignore (Wal.append w (List.nth update_ops 0));
      ignore (Wal.append w (List.nth update_ops 1));
      let two = Wal.wal_bytes w in
      ignore (Wal.append w (List.nth update_ops 2));
      let three = Wal.wal_bytes w in
      Alcotest.(check int) "writer tracks the file size" three
        (file_size (wal_file dir));
      (* every way the third append can tear: from one byte in to one
         byte short of complete *)
      List.iter
        (fun cut ->
          Test_store.truncate_file (wal_file dir) cut;
          match Wal.read_log ~dir () with
          | None -> Alcotest.failf "cut@%d: log unreadable" cut
          | Some log ->
              Alcotest.(check bool)
                (Printf.sprintf "cut@%d: tear detected" cut)
                true log.Wal.truncated;
              Alcotest.(check int)
                (Printf.sprintf "cut@%d: prefix records survive" cut)
                2
                (List.length log.Wal.records);
              Alcotest.(check int)
                (Printf.sprintf "cut@%d: valid prefix" cut)
                two log.Wal.valid_bytes)
        [ two + 1; two + 4; two + 9; three - 1 ];
      (* reopening truncates the torn tail physically and appends cleanly *)
      Test_store.truncate_file (wal_file dir) (three - 1);
      let w2 = Wal.open_writer ~dir ~generation:1 () in
      Alcotest.(check int) "tail dropped on reopen" two
        (file_size (wal_file dir));
      Alcotest.(check int) "reopen continues after record 2" 3 (Wal.next_seq w2);
      ignore (Wal.append w2 (List.nth update_ops 2));
      match Wal.read_log ~dir () with
      | Some log ->
          Alcotest.(check bool) "clean after re-append" false log.Wal.truncated;
          Alcotest.(check int) "three records again" 3
            (List.length log.Wal.records)
      | None -> Alcotest.fail "log unreadable after re-append")

let expect_code name code f =
  match f () with
  | _ -> Alcotest.failf "%s: unexpectedly succeeded" name
  | exception Xquery.Errors.Error e ->
      Alcotest.(check string)
        name
        (Xquery.Errors.code_string code)
        (Xquery.Errors.code_string e.Xquery.Errors.code)

let test_midlog_corruption_is_gtlx0010 () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      let header = Wal.wal_bytes w in
      ignore (Wal.append w (List.nth update_ops 0));
      ignore (Wal.append w (List.nth update_ops 1));
      (* flip a byte inside record 1 — NOT the tail, so this cannot be
         mistaken for a torn append *)
      Test_store.patch_file (wal_file dir) (header + 12) (fun c ->
          Char.chr (Char.code c lxor 0x08));
      expect_code "mid-log flip" Xquery.Errors.GTLX0010 (fun () ->
          Wal.read_log ~dir ());
      expect_code "open_writer refuses to destroy a corrupt log"
        Xquery.Errors.GTLX0010 (fun () -> Wal.open_writer ~dir ~generation:1 ());
      expect_code "of_store surfaces it" Xquery.Errors.GTLX0010 (fun () ->
          Galatex.Engine.of_store ~dir ()))

(* a crafted header with a bumped version (checksums valid, so this is a
   format skew, not corruption) — also pins the frame layout: if the codec
   drifts, this test fails before any cross-version deployment would *)
let test_version_mismatch_is_gtlx0007 () =
  let put_u32 v =
    String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))
  in
  let frame payload =
    let len = put_u32 (String.length payload) in
    len ^ put_u32 (Codec.crc32 len) ^ payload ^ put_u32 (Codec.crc32 payload)
  in
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let header =
        Wal.wal_magic ^ put_u32 (Wal.wal_version + 1) ^ put_u32 1
      in
      let oc = open_out_bin (wal_file dir) in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (frame header));
      expect_code "future log version" Xquery.Errors.GTLX0007 (fun () ->
          Wal.read_log ~dir ()))

(* --- engine-level recovery: snapshot + WAL across a cold start --- *)

let test_of_store_replays_and_reports () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      ignore (Wal.append w (List.nth update_ops 0));
      ignore (Wal.append w (List.nth update_ops 1));
      ignore (Wal.append w (List.nth update_ops 2));
      (* tear the third record: only the first two were made durable *)
      Test_store.truncate_file (wal_file dir) (Wal.wal_bytes w - 3);
      let engine = Galatex.Engine.of_store ~dir () in
      (match Galatex.Engine.wal_recovery engine with
      | Some r ->
          Alcotest.(check int) "two records replayed" 2
            r.Galatex.Engine.replayed;
          Alcotest.(check bool) "tear reported" true
            r.Galatex.Engine.truncated_tail
      | None -> Alcotest.fail "wal_recovery missing");
      check_same "recovered index = reindex of the acknowledged prefix"
        (Indexer.index_strings
           (Wal.fold_sources corpus_sources (take 2 update_ops)))
        (Galatex.Engine.index engine);
      (* a compaction folds the replayed state into generation 2 *)
      let engine = Galatex.Engine.compact engine ~dir in
      Alcotest.(check (option int))
        "compacted generation" (Some 2)
        (Galatex.Engine.generation engine);
      (match Wal.read_log ~dir () with
      | Some log ->
          Alcotest.(check int) "log reset onto the new base" 2
            log.Wal.base_generation;
          Alcotest.(check int) "log empty" 0 (List.length log.Wal.records)
      | None -> Alcotest.fail "log missing after compaction");
      let reloaded = Galatex.Engine.of_store ~dir () in
      Alcotest.(check bool) "no replay needed after compaction" true
        (match Galatex.Engine.wal_recovery reloaded with
        | None | Some { Galatex.Engine.replayed = 0; truncated_tail = false }
          ->
            true
        | Some _ -> false);
      check_same "compacted snapshot is exact"
        (Indexer.index_strings
           (Wal.fold_sources corpus_sources (take 2 update_ops)))
        (Galatex.Engine.index reloaded))

(* --- 4. fault sweeps: every I/O op of append / recovery / compact --- *)

(* salvage sources covering both generations a recovery might land on *)
let all_sources =
  Wal.fold_sources corpus_sources update_ops @ corpus_sources

let check_recovery ~name ~candidates dir =
  match Galatex.Engine.of_store ~sources:all_sources ~dir () with
  | engine ->
      Alcotest.(check bool)
        (name ^ ": recovered index = an acknowledged prefix")
        true
        (List.exists
           (fun c -> index_eq c (Galatex.Engine.index engine))
           candidates)
  | exception Xquery.Errors.Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: structured error (got %s)" name
           (Xquery.Errors.code_string e.Xquery.Errors.code))
        true (structured e)
  | exception exn ->
      Alcotest.failf "%s: raw exception escaped recovery: %s" name
        (Printexc.to_string exn)

let count_append_ops () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let io = Store.Io.real () in
      let w = Wal.open_writer ~io ~dir ~generation:1 () in
      List.iter (fun op -> ignore (Wal.append w op)) update_ops;
      Store.Io.ops io)

let test_append_fault_sweep () =
  let candidates = prefix_indexes corpus_sources update_ops in
  let total = count_append_ops () in
  Alcotest.(check bool) "append path performs several ops" true (total > 6);
  for at = 1 to total do
    List.iter
      (fun (fname, fault) ->
        let name = Printf.sprintf "append %s@%d" fname at in
        with_dir (fun dir ->
            Store.save ~dir (base_index ());
            let io = Store.Io.with_fault ~at fault in
            (match
               let w = Wal.open_writer ~io ~dir ~generation:1 () in
               List.iter (fun op -> ignore (Wal.append w op)) update_ops
             with
            | () -> ()
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: structured append error (got %s)" name
                     (Xquery.Errors.code_string e.Xquery.Errors.code))
                  true (structured e)
            | exception Store.Io.Crashed -> () (* simulated process death *)
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped append: %s" name
                  (Printexc.to_string exn));
            check_recovery ~name ~candidates dir))
      faults
  done

let test_recovery_read_fault_sweep () =
  let candidates = prefix_indexes corpus_sources update_ops in
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      List.iter (fun op -> ignore (Wal.append w op)) update_ops;
      let io = Store.Io.real () in
      ignore (Wal.read_log ~io ~dir ());
      let total = Store.Io.ops io in
      Alcotest.(check bool) "read performs ops" true (total >= 1);
      for at = 1 to total do
        List.iter
          (fun (fname, fault) ->
            let name = Printf.sprintf "recovery %s@%d" fname at in
            match Wal.read_log ~io:(Store.Io.with_fault ~at fault) ~dir () with
            | None ->
                (* a fully-torn read: an empty log is the acknowledged
                   prefix of length 0 *)
                ()
            | Some log ->
                let recovered =
                  Wal.replay (base_index ()) log.Wal.records
                in
                Alcotest.(check bool)
                  (name ^ ": replayed prefix exact")
                  true
                  (List.exists (index_eq recovered) candidates)
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: structured error (got %s)" name
                     (Xquery.Errors.code_string e.Xquery.Errors.code))
                  true (structured e)
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped read_log: %s" name
                  (Printexc.to_string exn))
          faults
      done)

let count_compact_ops () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      List.iter (fun op -> ignore (Wal.append w op)) update_ops;
      let engine = Galatex.Engine.of_store ~dir () in
      let io = Store.Io.real () in
      ignore (Galatex.Engine.compact ~io engine ~dir);
      Store.Io.ops io)

let test_compact_fault_sweep () =
  (* compaction must never lose an acknowledged update: whatever op dies,
     recovery yields the FULL updated index (from the old snapshot + log,
     or from the new snapshot) or a structured error — prefixes are not
     acceptable here *)
  let full =
    Indexer.index_strings (Wal.fold_sources corpus_sources update_ops)
  in
  let total = count_compact_ops () in
  Alcotest.(check bool) "compact performs several ops" true (total > 8);
  for at = 1 to total do
    List.iter
      (fun (fname, fault) ->
        let name = Printf.sprintf "compact %s@%d" fname at in
        with_dir (fun dir ->
            Store.save ~dir (base_index ());
            let w = Wal.open_writer ~dir ~generation:1 () in
            List.iter (fun op -> ignore (Wal.append w op)) update_ops;
            let engine = Galatex.Engine.of_store ~dir () in
            (match
               Galatex.Engine.compact
                 ~io:(Store.Io.with_fault ~at fault)
                 engine ~dir
             with
            | _ -> ()
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: structured compact error (got %s)" name
                     (Xquery.Errors.code_string e.Xquery.Errors.code))
                  true (structured e)
            | exception Store.Io.Crashed -> ()
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped compact: %s" name
                  (Printexc.to_string exn));
            check_recovery ~name ~candidates:[ full ] dir))
      faults
  done

(* --- 5. fencing epoch: sealing, regression refusal, monotonicity ---

   The failover contract at the storage layer: a promotion bumps the
   manifest epoch first, then seals the log onto it; a crash in between
   leaves the manifest ahead, which the next open_writer heals by
   sealing.  A writer must never append on a superseded timeline. *)

let test_seal_preserves_records () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      List.iter (fun op -> ignore (Wal.append w op)) update_ops;
      Alcotest.(check int) "writer starts on epoch 1" 1 (Wal.writer_epoch w);
      (* promotion order: manifest first, then the log *)
      Store.bump_epoch ~dir ~epoch:4 ();
      Wal.seal ~dir ~generation:1 ~epoch:4 ();
      (match Wal.read_log ~dir () with
      | None -> Alcotest.fail "sealed log vanished"
      | Some log ->
          Alcotest.(check int) "sealed epoch" 4 log.Wal.base_epoch;
          Alcotest.(check int)
            "records preserved" (List.length update_ops)
            (List.length log.Wal.records);
          check_same "replay after seal is exact"
            (List.fold_left Wal.apply (base_index ())
               (List.map (fun r -> r.Wal.op) log.Wal.records))
            (List.fold_left Wal.apply (base_index ()) update_ops));
      (* the default open_writer epoch is the manifest's: it adopts *)
      let w2 = Wal.open_writer ~dir ~generation:1 () in
      Alcotest.(check int) "reopened on the sealed epoch" 4 (Wal.writer_epoch w2);
      (* crash between bump and seal: the manifest is ahead; the next
         open_writer seals the log up to it, keeping every record *)
      Store.bump_epoch ~dir ~epoch:6 ();
      let w3 = Wal.open_writer ~dir ~generation:1 () in
      Alcotest.(check int) "healed onto the manifest epoch" 6
        (Wal.writer_epoch w3);
      match Wal.read_log ~dir () with
      | None -> Alcotest.fail "healed log vanished"
      | Some log ->
          Alcotest.(check int) "healed header" 6 log.Wal.base_epoch;
          Alcotest.(check int)
            "healing kept the records" (List.length update_ops)
            (List.length log.Wal.records))

let test_epoch_regression_refused () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      Store.bump_epoch ~dir ~epoch:5 ();
      let w = Wal.open_writer ~dir ~generation:1 () in
      ignore (Wal.append w (List.hd update_ops));
      (* an old primary reopening its log below the sealed epoch *)
      (match Wal.open_writer ~dir ~generation:1 ~epoch:3 () with
      | _ -> Alcotest.fail "writer accepted a superseded epoch"
      | exception Xquery.Errors.Error e ->
          Alcotest.(check string)
            "stale writer refused" "gtlx:GTLX0013"
            (Xquery.Errors.code_string e.Xquery.Errors.code));
      (* and a stale sealer is the stale party too *)
      match Wal.seal ~dir ~generation:1 ~epoch:3 () with
      | () -> Alcotest.fail "seal accepted a superseded epoch"
      | exception Xquery.Errors.Error e ->
          Alcotest.(check string)
            "stale seal refused" "gtlx:GTLX0013"
            (Xquery.Errors.code_string e.Xquery.Errors.code))

let count_seal_ops () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      List.iter (fun op -> ignore (Wal.append w op)) update_ops;
      let io = Store.Io.real () in
      Wal.seal ~io ~dir ~generation:1 ~epoch:4 ();
      Store.Io.ops io)

let test_seal_fault_sweep () =
  (* a faulted seal leaves the log on the old epoch or the new one, or
     fails structurally — never a half-stamped timeline, never a raw
     exception.  The surviving records are some acknowledged prefix (a
     torn read models a tail that was never durable, exactly like the
     append sweep); a clean read preserves every record, which
     test_seal_preserves_records pins separately. *)
  let candidates = prefix_indexes corpus_sources update_ops in
  let total = count_seal_ops () in
  Alcotest.(check bool) "seal performs several ops" true (total > 2);
  for at = 1 to total do
    List.iter
      (fun (fname, fault) ->
        let name = Printf.sprintf "seal %s@%d" fname at in
        with_dir (fun dir ->
            Store.save ~dir (base_index ());
            let w = Wal.open_writer ~dir ~generation:1 () in
            List.iter (fun op -> ignore (Wal.append w op)) update_ops;
            (match
               Wal.seal
                 ~io:(Store.Io.with_fault ~at fault)
                 ~dir ~generation:1 ~epoch:4 ()
             with
            | () -> ()
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: structured seal error (got %s)" name
                     (Xquery.Errors.code_string e.Xquery.Errors.code))
                  true (structured e)
            | exception Store.Io.Crashed -> ()
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped seal: %s" name
                  (Printexc.to_string exn));
            match Wal.read_log ~dir () with
            | Some log ->
                Alcotest.(check bool)
                  (name ^ ": old or new epoch, never torn")
                  true
                  (log.Wal.base_epoch = 1 || log.Wal.base_epoch = 4);
                let recovered = Wal.replay (base_index ()) log.Wal.records in
                Alcotest.(check bool)
                  (name ^ ": recovered index = an acknowledged prefix")
                  true
                  (List.exists (index_eq recovered) candidates)
            | None -> ()
            | exception Xquery.Errors.Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: structured read error (got %s)" name
                     (Xquery.Errors.code_string e.Xquery.Errors.code))
                  true (structured e)
            | exception exn ->
                Alcotest.failf "%s: raw exception escaped read_log: %s" name
                  (Printexc.to_string exn)))
      faults
  done

(* qcheck: under any program of bumps, resaves and writer reopens, the
   observed epoch never decreases, regressions always refuse with
   GTLX0013, and a default writer always lands on the manifest epoch *)
type epoch_action = Bump of int | Resave | Reopen

let prop_epoch_monotone =
  let open QCheck2 in
  let gen_action =
    Gen.oneof
      [
        Gen.map (fun e -> Bump e) (Gen.int_range 1 12);
        Gen.return Resave;
        Gen.return Reopen;
      ]
  in
  Test.make ~name:"fencing epoch is monotone" ~count:30
    (Gen.list_size (Gen.int_range 1 10) gen_action)
    (fun actions ->
      with_dir (fun dir ->
          Store.save ~dir (base_index ());
          let model = ref 1 in
          List.iter
            (fun action ->
              (match action with
              | Bump e -> (
                  match Store.bump_epoch ~dir ~epoch:e () with
                  | () ->
                      if e < !model then
                        Test.fail_reportf
                          "regression to %d accepted at epoch %d" e !model;
                      model := max !model e
                  | exception Xquery.Errors.Error err ->
                      if
                        not
                          (e < !model
                          && err.Xquery.Errors.code = Xquery.Errors.GTLX0013)
                      then
                        Test.fail_reportf "bump to %d at %d failed with %s" e
                          !model
                          (Xquery.Errors.code_string err.Xquery.Errors.code))
              | Resave -> Store.save ~dir (base_index ())
              | Reopen ->
                  let w = Wal.open_writer ~dir ~generation:1 () in
                  if Wal.writer_epoch w <> !model then
                    Test.fail_reportf "writer epoch %d, manifest epoch %d"
                      (Wal.writer_epoch w) !model);
              match Store.current_epoch ~dir with
              | Some e when e = !model -> ()
              | e ->
                  Test.fail_reportf "manifest epoch %s, model %d"
                    (match e with
                    | None -> "unreadable"
                    | Some v -> string_of_int v)
                    !model)
            actions;
          true))

(* --- 6. wire shipping: the replication transfer path ---

   A primary ships acknowledged records framed exactly as on disk
   ([encode_records]); a follower decodes them ([decode_records]) and
   filters them against its own applied position ([select_fresh]).  The
   contract: replaying any shuffled-with-duplicates prefix of the
   acknowledged records either converges to the in-order replay state of
   some prefix, or is rejected with GTLX0010 — never silent divergence. *)

let records_of ops = List.mapi (fun i op -> { Wal.seq = i + 1; op }) ops

let test_shipping_roundtrip () =
  let records = records_of update_ops in
  let decoded = Wal.decode_records (Wal.encode_records records) in
  Alcotest.(check bool) "records survive the wire" true (decoded = records);
  Alcotest.(check bool) "empty ship" true (Wal.decode_records "" = []);
  (* a torn wire transfer is a protocol error, not a local torn tail:
     the primary only ships acknowledged records, so missing bytes mean
     corruption — reject, never silently drop *)
  let frames = Wal.encode_records records in
  (match Wal.decode_records (String.sub frames 0 (String.length frames - 3)) with
  | _ -> Alcotest.fail "torn wire frames accepted"
  | exception Xquery.Errors.Error e ->
      Alcotest.(check string)
        "torn wire is GTLX0010" "gtlx:GTLX0010"
        (Xquery.Errors.code_string e.Xquery.Errors.code));
  (* flipped payload byte: checksum catches it *)
  let corrupt = Bytes.of_string frames in
  Bytes.set corrupt (Bytes.length corrupt - 5) '\xff';
  match Wal.decode_records (Bytes.to_string corrupt) with
  | _ -> Alcotest.fail "corrupt wire frames accepted"
  | exception Xquery.Errors.Error e ->
      Alcotest.(check string)
        "corrupt wire is GTLX0010" "gtlx:GTLX0010"
        (Xquery.Errors.code_string e.Xquery.Errors.code)

let test_select_fresh () =
  let records = records_of update_ops in
  (* duplicates below the applied position are skipped idempotently *)
  Alcotest.(check bool)
    "skips applied prefix" true
    (Wal.select_fresh ~applied:2 records
    = List.filter (fun r -> r.Wal.seq > 2) records);
  Alcotest.(check bool)
    "everything applied -> nothing fresh" true
    (Wal.select_fresh ~applied:(List.length records) records = []);
  Alcotest.(check bool)
    "redelivered batch with internal duplicates" true
    (Wal.select_fresh ~applied:0 (List.hd records :: records) = records);
  (* a gap is never bridged: rejection, not silent divergence *)
  match Wal.select_fresh ~applied:0 (List.filter (fun r -> r.Wal.seq <> 2) records) with
  | _ -> Alcotest.fail "sequence gap accepted"
  | exception Xquery.Errors.Error e ->
      Alcotest.(check string)
        "gap is GTLX0010" "gtlx:GTLX0010"
        (Xquery.Errors.code_string e.Xquery.Errors.code)

let prop_shipping_convergence =
  let gen =
    let open QCheck2.Gen in
    let* ops = gen_ops in
    let records = records_of ops in
    let n = List.length records in
    let* k = int_range 0 n in
    let prefix = List.filteri (fun i _ -> i < k) records in
    let* dups =
      if k = 0 then return []
      else
        let* idx = list_size (int_range 0 3) (int_range 0 (k - 1)) in
        return (List.map (fun i -> List.nth prefix i) idx)
    in
    let* delivered = shuffle_l (prefix @ dups) in
    return (records, delivered)
  in
  QCheck2.Test.make
    ~name:"shipped replay converges or rejects — never diverges" ~count:60 gen
    (fun (records, delivered) ->
      match
        Wal.select_fresh ~applied:0
          (Wal.decode_records (Wal.encode_records delivered))
      with
      | exception Xquery.Errors.Error e ->
          (* rejected: must be the structured unreplayable code *)
          e.Xquery.Errors.code = Xquery.Errors.GTLX0010
      | fresh ->
          (* accepted: exactly records 1..m in order, and replaying them
             is bit-identical to the in-order replay of that prefix *)
          let m = List.length fresh in
          List.map (fun r -> r.Wal.seq) fresh = List.init m (fun i -> i + 1)
          && index_eq
               (Wal.replay (base_index ()) fresh)
               (Wal.replay (base_index ())
                  (List.filteri (fun i _ -> i < m) records)))

(* query-level spot check on top of the structural sweeps: a post-crash
   engine answers the use-case query exactly like a from-scratch index *)
let test_query_cross_check_after_recovery () =
  with_dir (fun dir ->
      Store.save ~dir (base_index ());
      let w = Wal.open_writer ~dir ~generation:1 () in
      List.iter (fun op -> ignore (Wal.append w op)) update_ops;
      let recovered = Galatex.Engine.of_store ~sources:all_sources ~dir () in
      let scratch =
        Galatex.Engine.of_strings (Wal.fold_sources corpus_sources update_ops)
      in
      List.iter
        (fun q ->
          Alcotest.(check string)
            (Printf.sprintf "recovered answers %s identically" q)
            (Xquery.Value.to_display_string (Galatex.Engine.run scratch q))
            (Xquery.Value.to_display_string (Galatex.Engine.run recovered q)))
        [
          Test_store.usecase_query;
          {|//title[. ftcontains "zebra"]|};
          {|//book[. ftcontains "usability" && "testing"]/title|};
        ])

let tests =
  [
    Alcotest.test_case "apply is exact" `Quick test_apply_exact;
    QCheck_alcotest.to_alcotest prop_apply_exact;
    QCheck_alcotest.to_alcotest prop_expansion_cache_survives_updates;
    Alcotest.test_case "update cost is not corpus-sized" `Quick
      test_update_cost_not_corpus_sized;
    Alcotest.test_case "writer round trip" `Quick test_writer_roundtrip;
    Alcotest.test_case "stale log ignored" `Quick test_stale_log_ignored;
    Alcotest.test_case "torn tail truncated silently" `Quick
      test_torn_tail_truncated_silently;
    Alcotest.test_case "mid-log corruption (GTLX0010)" `Quick
      test_midlog_corruption_is_gtlx0010;
    Alcotest.test_case "log version mismatch (GTLX0007)" `Quick
      test_version_mismatch_is_gtlx0007;
    Alcotest.test_case "of_store replays and reports" `Quick
      test_of_store_replays_and_reports;
    Alcotest.test_case "append fault sweep" `Slow test_append_fault_sweep;
    Alcotest.test_case "recovery read fault sweep" `Quick
      test_recovery_read_fault_sweep;
    Alcotest.test_case "compact fault sweep" `Slow test_compact_fault_sweep;
    Alcotest.test_case "query cross-check after recovery" `Quick
      test_query_cross_check_after_recovery;
    Alcotest.test_case "seal preserves records" `Quick
      test_seal_preserves_records;
    Alcotest.test_case "epoch regression refused (GTLX0013)" `Quick
      test_epoch_regression_refused;
    Alcotest.test_case "seal fault sweep" `Slow test_seal_fault_sweep;
    QCheck_alcotest.to_alcotest prop_epoch_monotone;
    Alcotest.test_case "shipping round trip" `Quick test_shipping_roundtrip;
    Alcotest.test_case "select fresh (duplicates, gaps)" `Quick
      test_select_fresh;
    QCheck_alcotest.to_alcotest prop_shipping_convergence;
  ]
