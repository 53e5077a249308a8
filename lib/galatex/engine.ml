open Xmlkit

(* The GalaTex engine façade (paper Figure 4): index a corpus, compile
   XQuery Full-Text queries, and evaluate them under one of two
   strategies:

   - [Translated]: the paper's architecture — the query is translated into
     plain XQuery calling the fts library module (itself written in XQuery)
     over XML inverted lists (Section 3.2.2).  Complete, conformant, slow.
   - [Native_materialized]: the same AllMatches semantics implemented as
     native operators — the engine-integration step Section 4 calls for.
     Each node is evaluated alone, and an ftcontains verdict stops at the
     node's first satisfying match: Section 4.1's early-exit FTContains
     loop, materializing only the leaves and the blocking operators.

   Every run is resource-governed: a Limits.governor accounts eval steps,
   recursion depth, materialization and wall-clock time, and the engine
   boundary guarantees that the only exceptions escaping [run] /
   [run_report] / [run_query_report] are structured [Xquery.Errors.Error]
   values.
   When the translated strategy dies on an *internal* error,
   [run_report] can degrade gracefully to the reference materialized
   path and record that it did. *)

type strategy = Translated | Native_materialized

let strategy_name = function
  | Translated -> "translated"
  | Native_materialized -> "materialized"

type report = {
  value : Xquery.Value.t;
  strategy_used : strategy;
  fell_back : bool;
  fallback_error : Xquery.Errors.t option;
  steps : int;
  peak_matches : int;
  fallbacks_total : int;
  trace : Obs.Trace.span;
  counters : Xquery.Limits.counters;
}

(* Map the front ends' positional syntax exceptions to err:XPST0003 so the
   boundary wrap (and the CLI's single handler) sees structured errors. *)
let () =
  Xquery.Errors.register_classifier (function
    | Xquery.Parser.Error { pos; msg } ->
        Some (Xquery.Errors.make ~position:pos Xquery.Errors.XPST0003 msg)
    | Xquery.Lexer.Error { pos; msg } ->
        Some (Xquery.Errors.make ~position:pos Xquery.Errors.XPST0003 msg)
    | Xmlkit.Parser.Error { pos; msg } ->
        Some
          (Xquery.Errors.make ~position:pos Xquery.Errors.XPST0003
             ("XML: " ^ msg))
    | _ -> None)

type t = {
  env : Env.t;
  context_doc : Node.t option;  (** default context node for queries *)
  config : Tokenize.Segmenter.config;
      (** tokenizer configuration the index was built with — recorded into
          snapshots so salvage re-indexes identically *)
  fallbacks : int Atomic.t;
      (** graceful degradations since construction — atomic because one
          engine serves many concurrent requests in the query daemon *)
  mutable salvage : Ftindex.Store.report option;
      (** set when this engine came out of {!of_store} *)
  mutable generation : int option;
      (** snapshot generation when this engine came out of {!of_store} *)
  mutable wal : wal_recovery option;
      (** set when {!of_store} replayed a write-ahead log *)
}

and wal_recovery = { replayed : int; truncated_tail : bool }

let context_doc_of index = Option.map snd (Ftindex.Inverted.first_document index)

let of_index ?(config = Tokenize.Segmenter.default_config) ?thesauri
    ?default_thesaurus index =
  {
    env = Env.create ?thesauri ?default_thesaurus index;
    context_doc = context_doc_of index;
    config;
    fallbacks = Atomic.make 0;
    salvage = None;
    generation = None;
    wal = None;
  }

let create ?config ?thesauri ?default_thesaurus docs =
  of_index ?config ?thesauri ?default_thesaurus
    (Ftindex.Indexer.index_documents ?config docs)

let of_strings ?config ?thesauri ?default_thesaurus docs =
  of_index ?config ?thesauri ?default_thesaurus
    (Ftindex.Indexer.index_strings ?config docs)

let env t = t.env
let index t = Env.index t.env
let fallback_count t = Atomic.get t.fallbacks
let salvage_report t = t.salvage
let generation t = t.generation
let wal_recovery t = t.wal

(* Persistence: delegate to the crash-safe store, carrying the engine's
   tokenizer config so a later salvage re-indexes identically. *)
let save ?io t ~dir = Ftindex.Store.save ?io ~config:t.config ~dir (index t)

let of_store ?io ?(limits = Xquery.Limits.defaults) ?sources ?thesauri
    ?default_thesaurus ~dir () =
  let governor = Xquery.Limits.governor limits in
  let loaded = Ftindex.Store.load ?io ~governor ?sources ~dir () in
  (* Replay the write-ahead log on top of the snapshot.  A log based on
     another generation is stale — the crash happened after a compaction
     folded it into the snapshot but before the log reset — and is
     ignored; that is what makes replay idempotent across retries. *)
  let wal, index =
    match Ftindex.Wal.read_log ?io ~dir () with
    | None -> (None, loaded.Ftindex.Store.index)
    | Some log
      when log.Ftindex.Wal.base_generation <> loaded.Ftindex.Store.generation
      ->
        (None, loaded.Ftindex.Store.index)
    | Some log ->
        ( Some
            {
              replayed = List.length log.Ftindex.Wal.records;
              truncated_tail = log.Ftindex.Wal.truncated;
            },
          Ftindex.Wal.replay ~config:loaded.Ftindex.Store.config
            loaded.Ftindex.Store.index log.Ftindex.Wal.records )
  in
  let t =
    of_index ~config:loaded.Ftindex.Store.config ?thesauri ?default_thesaurus
      index
  in
  t.salvage <- Some loaded.Ftindex.Store.report;
  t.generation <- Some loaded.Ftindex.Store.generation;
  t.wal <- wal;
  t

(* Live updates: apply one WAL operation, producing a new engine over the
   updated index.  The caller (the serving layer) appends to the log first
   and swaps engines atomically; readers keep the old [t].  The new
   environment carries the expansion memo table over, revised by the
   words the operation added and removed.  The fallback counter cell is
   shared so the engine-wide degradation count survives updates. *)
let apply_update t op =
  let index', (added, removed) =
    Ftindex.Wal.apply_delta ~config:t.config (index t) op
  in
  {
    t with
    env = Env.update t.env index' ~added ~removed;
    context_doc = context_doc_of index';
  }

(* Hot reload builds a fresh engine via [of_store], which starts its
   counters from zero; carrying the predecessor's cells across the swap
   keeps engine-lifetime totals monotonic over reloads. *)
let share_counters ~from t = { t with fallbacks = from.fallbacks }

(* Fold the log into a fresh snapshot generation (the store's atomic
   manifest protocol), then reset the log on top of it.  The reset is
   advisory: recovery ignores a stale log, so a failure here costs disk
   space, never correctness. *)
let compact ?io t ~dir =
  save ?io t ~dir;
  match Ftindex.Store.current_generation ~dir with
  | None ->
      Xquery.Errors.raise_error Xquery.Errors.GTLX0008
        "compaction of %s: no readable manifest after save" dir
  | Some gen ->
      (try Ftindex.Wal.reset ?io ~dir ~generation:gen ()
       with Sys_error _ | Unix.Unix_error _ -> ());
      { t with generation = Some gen; wal = None }

(* fn:collection(): all corpus documents, so multi-document queries don't
   depend on the default context node. *)
let register_collection t ctx =
  Xquery.Context.register_builtin ctx "collection" 0 (fun _ _ ->
      Xquery.Value.of_nodes (Ftindex.Inverted.document_roots (Env.index t.env)))

let focus_context t ?context ctx =
  let node =
    match context with
    | Some uri -> Ftindex.Inverted.document_root (Env.index t.env) uri
    | None -> t.context_doc
  in
  match node with
  | Some n -> Xquery.Context.with_focus ctx (Xquery.Value.Node n) ~position:1 ~size:1
  | None -> ctx

let parse = Xquery.Parser.parse_query

(* Wrap an ft handler so every ftcontains / ft:score dispatch records a
   nested span — this is where the strategies actually diverge, so it is
   the span users look at first. *)
let traced_handler tr name (h : Xquery.Context.ft_handler) :
    Xquery.Context.ft_handler =
 fun ~eval ctx ~per_node ~ignored nodes selection verdict ->
  Obs.Trace.with_span tr name (fun () ->
      h ~eval ctx ~per_node ~ignored nodes selection verdict)

(* One strategy attempt under a shared governor and trace. *)
let attempt t ~tr ~governor ~strategy ?context (q : Xquery.Ast.query) =
  (* collection() and the context item exist before the prolog runs, so
     a prolog variable can read the indexed documents *)
  let prepare ctx =
    register_collection t ctx;
    focus_context t ?context ctx
  in
  let ctx, body =
    match strategy with
    | Translated ->
        let translated =
          Obs.Trace.with_span tr "translate" (fun () ->
              Translate.translate_query q)
        in
        ( Fts_module.setup_context ~governor ~prepare t.env translated,
          translated.Xquery.Ast.body )
    | Native_materialized ->
        ( Xquery.Eval.setup_context ~prepare ~governor
            ~resolve_doc:(Fts_module.make_resolver t.env)
            ~ft:(traced_handler tr "ft_eval" (Ft_eval.handler t.env))
            q,
          q.Xquery.Ast.body )
  in
  Obs.Trace.with_span tr "eval" (fun () -> Xquery.Eval.eval ctx body)

(* The boundary guarantee: everything an attempt raises leaves this
   function as a structured Errors.Error. *)
let structured f =
  try Ok (f ()) with exn -> Error (Xquery.Errors.wrap_exn exn)

(* The shared body: [tr] arrives with an open "query" root span (so the
   parse phase, recorded by [run_report] before the AST exists, lands in
   the same tree). *)
let run_in t ~tr ?(strategy = Native_materialized)
    ?(limits = Xquery.Limits.defaults) ?fault_at ?(fallback = true) ?context
    (q : Xquery.Ast.query) =
  let governor = Xquery.Limits.governor ?fault_at limits in
  let finish ~strategy_used ~fell_back ~fallback_error value =
    Obs.Trace.exit tr;
    let trace =
      match Obs.Trace.root tr with Some s -> s | None -> assert false
    in
    {
      value;
      strategy_used;
      fell_back;
      fallback_error;
      steps = Xquery.Limits.steps governor;
      peak_matches = Xquery.Limits.peak_matches governor;
      fallbacks_total = Atomic.get t.fallbacks;
      trace;
      counters = Xquery.Limits.copy_counters (Xquery.Limits.counters governor);
    }
  in
  match
    structured (fun () -> attempt t ~tr ~governor ~strategy ?context q)
  with
  | Ok value ->
      finish ~strategy_used:strategy ~fell_back:false ~fallback_error:None value
  | Error err ->
      let internal =
        Xquery.Errors.class_of err.Xquery.Errors.code = Xquery.Errors.Internal
      in
      if not (fallback && strategy <> Native_materialized && internal) then
        raise (Xquery.Errors.Error err)
      else begin
        (* graceful degradation: retry on the reference materialized path
           under the same (partly spent) governor.  The second attempt's
           spans join the same "query" root, so the trace shows both
           attempts. *)
        Atomic.incr t.fallbacks;
        Logs.warn (fun m ->
            m "engine: %s strategy failed (%s); falling back to materialized"
              (strategy_name strategy)
              (Xquery.Errors.to_string err));
        match
          structured (fun () ->
              attempt t ~tr ~governor ~strategy:Native_materialized ?context q)
        with
        | Ok value ->
            finish ~strategy_used:Native_materialized ~fell_back:true
              ~fallback_error:(Some err) value
        | Error err' -> raise (Xquery.Errors.Error err')
      end

let run_query_report t ?clock ?strategy ?limits ?fault_at ?fallback ?context
    (q : Xquery.Ast.query) =
  let tr = Obs.Trace.make ?clock () in
  Obs.Trace.enter tr "query";
  run_in t ~tr ?strategy ?limits ?fault_at ?fallback ?context q

let run_report t ?clock ?strategy ?limits ?fault_at ?fallback ?context src =
  let tr = Obs.Trace.make ?clock () in
  Obs.Trace.enter tr "query";
  match
    structured (fun () -> Obs.Trace.with_span tr "parse" (fun () -> parse src))
  with
  | Error err -> raise (Xquery.Errors.Error err)
  | Ok q ->
      run_in t ~tr ?strategy ?limits ?fault_at ?fallback ?context q

let run t ?clock ?strategy ?limits ?fault_at ?fallback ?context src =
  (run_report t ?clock ?strategy ?limits ?fault_at ?fallback ?context src)
    .value

(* Show the plain XQuery the GalaTex translation produces (Section 3.2.2). *)
let translate_to_text src =
  Xquery.Printer.query_to_string (Translate.translate_query (parse src))

(* Evaluate just an FTSelection over the whole corpus — used by
   examples, tests and benches that work below full queries. *)
let selection_all_matches ?approximate t selection_src =
  let q = parse (". ftcontains " ^ selection_src) in
  match q.Xquery.Ast.body with
  | Xquery.Ast.Ft_contains { selection; _ } ->
      let resolve_doc = Fts_module.make_resolver t.env in
      let ctx = Xquery.Eval.setup_context ~resolve_doc q in
      Ft_eval.all_matches ?approximate t.env ~eval:Xquery.Eval.eval ctx selection
  | _ -> invalid_arg "selection_all_matches: not an FTSelection"
