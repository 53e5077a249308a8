(* The repository benchmark: one workload per invocation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 --galatex EXE

   Brings the workload's topology up as separate `galatex serve` /
   `galatex route` processes, drives it from this process with at most
   [workers] requests in flight, checks every answer against an in-process
   engine over the same document state, and prints each metric by name
   with its unit.  The last line of stdout is one JSON object:
   end-to-end metrics when untraced, per-layer metrics when traced.
   Exit code 1 means a wrong answer or a failed operation; 2 bad
   arguments; 3 the run itself broke (no result is printed then). *)

open Perfbench_core
module Proto = Galatex_server.Protocol
module Cli = Galatex_server.Client
module Engine = Galatex.Engine

let work = "_pbwork"
let out_dir = "_pbout"
let null_rtts = 200
let scatter_samples = 24

(* How --seconds is spent: the open loop, then the closed loop in
   [closed_rounds] equal rounds.  Set-ups are repeated [setup_reps] to
   [max_reps] times and restarts [restart_reps] to [max_reps] times,
   within [rep_budget] seconds each, and their medians reported: a cheap
   set-up (~20 ms on 8 documents) fills the budget, so its median rests
   on about a hundred samples; a costly one (~0.8 s on 200) on five.
   Restarts replay the run's whole WAL (~2 s on read-write), so three. *)
let open_share = 0.6
let closed_share = 0.25
let closed_rounds = 5
let setup_reps = 5
let restart_reps = 3
let max_reps = 150
let rep_budget = 2.5

(* Warm-up: sequential queries from the schedule for [warmup_s] seconds
   (at least [min_warmups]), so the daemon's heap has grown before the
   open loop starts. *)
let warmup_s = 1.0
let min_warmups = 20

(* Concurrency of the load generator: at most one request per core, and at
   most two — the serving processes need the cores too. *)
let workers = max 1 (min 2 (Domain.recommended_domain_count ()))

let now = Unix.gettimeofday
let ms s = 1000.0 *. s

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let dir_bytes ?(except = []) dir =
  Array.fold_left
    (fun acc e -> if List.mem e except then acc else acc + file_size (Filename.concat dir e))
    0 (Sys.readdir dir)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median_of_runs n f = Stats.median (Array.init n (fun _ -> snd (timed f)))

(* ------------------------------------------------------------ output *)

(* Metrics that go into the JSON result, newest first. *)
let metrics : (string * float * string) list ref = ref []

(* [report] prints a metric and puts it in the result; [show] only
   prints it. *)
let show name value unit = Printf.printf "%-44s %14.6f %s\n%!" name value unit

let report name value unit =
  metrics := (name, value, unit) :: !metrics;
  show name value unit

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ----------------------------------------------------- layer wrappers *)

(* Each in-process call into a layer's public function gets a span. *)
let index_strings srcs =
  Spans.with_span "ftindex.index_strings" (fun _ -> Ftindex.Indexer.index_strings srcs)

let store_save ~dir idx = Spans.with_span "ftindex.save" (fun _ -> Ftindex.Store.save ~dir idx)
let of_store dir = Spans.with_span "ftindex.of_store" (fun _ -> Engine.of_store ~dir ())
let parse text = Spans.with_span "xquery.parse" (fun _ -> Engine.parse text)

let apply_update e op =
  Spans.with_span "ftindex.apply_update" (fun _ -> Engine.apply_update e op)

let request sock r =
  Spans.with_span "server.request" (fun _ ->
      Cli.request ~recv_timeout:30.0 ~socket_path:sock r)

(* ---------------------------------------------------------- topology *)

type topo = {
  daemons : Procs.t array;  (** the serving daemons, shard order *)
  router : Procs.t option;
  dirs : string array;  (** their snapshot directories *)
  front : string;  (** where the load goes *)
}

let serving t = Array.to_list t.daemons @ Option.to_list t.router

(* Index, save and start a topology over [sources]; returns it with its
   index and save seconds.  The caller times the whole call. *)
let bring_up ~exe ~tag ~shards sources =
  let parts =
    if shards = 1 then [| sources |] else Corpus.Partition.split ~shards sources
  in
  let index_s = ref 0.0 and save_s = ref 0.0 in
  let dirs =
    Array.mapi
      (fun i part ->
        let dir = Printf.sprintf "%s/%s-%d" work tag i in
        let idx, ti = timed (fun () -> index_strings part) in
        let (), ts = timed (fun () -> store_save ~dir idx) in
        index_s := !index_s +. ti;
        save_s := !save_s +. ts;
        dir)
      parts
  in
  let daemons =
    Array.mapi
      (fun i dir ->
        Procs.serve ~exe
          ~log:(Printf.sprintf "%s/%s-%d.log" work tag i)
          ~dir
          ~sock:(Printf.sprintf "%s/%s%d.sock" work tag i))
      dirs
  in
  Array.iter (fun p -> Procs.wait_healthy p) daemons;
  let router =
    if shards = 1 then None
    else
      let r =
        Procs.route ~exe
          ~log:(Printf.sprintf "%s/%s-rt.log" work tag)
          ~shards:(Array.to_list (Array.map (fun p -> p.Procs.sock) daemons))
          ~sock:(Printf.sprintf "%s/%srt.sock" work tag)
      in
      Procs.wait_healthy r;
      Some r
  in
  let front =
    match router with Some r -> r.Procs.sock | None -> daemons.(0).Procs.sock
  in
  ({ daemons; router; dirs; front }, !index_s, !save_s)

let tear_down t = List.iter (fun p -> Procs.stop p) (serving t)

(* ---------------------------------------------------- daemon counters *)

let scrape t =
  Array.map
    (fun p ->
      match Cli.metrics ~socket_path:p.Procs.sock () with
      | Ok text -> Prom.parse text
      | Error e -> failwith ("metrics scrape failed: " ^ e))
    t.daemons

let stat_counter sock name =
  match Cli.stats ~socket_path:sock () with
  | Ok s -> Option.value ~default:0 (List.assoc_opt name s.Proto.counters)
  | Error e -> failwith ("stats failed: " ^ e)

(* Mean engine seconds per query per daemon over a window, from the
   daemons' own query-duration histograms. *)
let engine_per_query deltas =
  Array.map
    (fun d ->
      let n = Prom.total d "galatex_query_duration_seconds_count" in
      if n = 0.0 then Float.nan
      else Prom.total d "galatex_query_duration_seconds_sum" /. n)
    deltas

let window_deltas before after =
  Array.map2 (fun b a -> Prom.delta ~before:b ~after:a) before after

(* -------------------------------------------------------- operations *)

type qreply = { q : Gen.query; seq : int; gen : int; items : string list }

type result =
  | Answer of qreply
  | Acked of { ops : Ftindex.Wal.op list; last_seq : int }
  | Failed of string  (** shed, error, partial or transport failure *)

let merge_of (q : Gen.query) = Option.map (fun k -> Proto.Merge_topk k) q.Gen.k

let send_query sock (q : Gen.query) =
  match
    request sock
      (Proto.Query (Proto.query_request ?merge:(merge_of q) q.Gen.text))
  with
  | Ok (Proto.Value v) when v.Proto.partial = None ->
      Answer { q; seq = v.Proto.seq; gen = v.Proto.generation; items = v.Proto.items }
  | Ok (Proto.Value _) -> Failed "partial answer"
  | Ok (Proto.Failure e) -> Failed (e.Proto.code ^ ": " ^ e.Proto.message)
  | Ok _ -> Failed "unexpected response"
  | Error e -> Failed ("transport: " ^ e)

let send_update sock ops =
  match request sock (Proto.Update { ops; epoch = 0 }) with
  | Ok (Proto.Update_reply r) -> Acked { ops; last_seq = r.Proto.u_last_seq }
  | Ok (Proto.Failure e) -> Failed (e.Proto.code ^ ": " ^ e.Proto.message)
  | Ok _ -> Failed "unexpected response"
  | Error e -> Failed ("transport: " ^ e)

let send sock = function
  | Gen.Query q -> send_query sock q
  | Gen.Update ops -> send_update sock ops

(* ------------------------------------------------ reference answers *)

let items_of (v : Xquery.Value.t) = List.map (Fmt.str "%a" Xquery.Value.pp_item) v

(* One in-process evaluation, as the per-layer statistics see it. *)
type eval = {
  family : Gen.family;
  eval_s : float;
  postings : int;
  materialized : int;
  steps : int;
  peak : int;
  hits : int;  (** the count for a count query, the items of a ranked one *)
  expected : (string list, string) Stdlib.result;
}

let no_eval family msg =
  { family; eval_s = 0.0; postings = 0; materialized = 0; steps = 0; peak = 0;
    hits = 0; expected = Error msg }

(* Parse once, then evaluate; a query under 5 ms is timed [reps] times
   and its median kept, because one sub-millisecond timing is mostly
   noise. *)
let evaluate ~reps engine (q : Gen.query) =
  match Engine.parse q.Gen.text with
  | exception e -> no_eval q.Gen.family (Printexc.to_string e)
  | ast -> (
      let run () =
        Spans.with_span "galatex.run_query_report" (fun _ ->
            Engine.run_query_report engine ast)
      in
      match timed run with
      | exception Xquery.Errors.Error e ->
          no_eval q.Gen.family (Xquery.Errors.to_string e)
      | r, t ->
          let t =
            if reps > 1 && t < 0.005 then
              Stats.median (Array.init reps (fun i -> if i = 0 then t else snd (timed run)))
            else t
          in
          let items = items_of r.Engine.value in
          let c = r.Engine.counters in
          {
            family = q.Gen.family;
            eval_s = t;
            postings = c.Xquery.Limits.postings_read;
            materialized = c.Xquery.Limits.allmatches_materialized;
            steps = r.Engine.steps;
            peak = r.Engine.peak_matches;
            hits =
              (match (q.Gen.k, items) with
              | None, [ n ] -> Option.value ~default:0 (int_of_string_opt n)
              | _ -> List.length items);
            expected = Ok items;
          })

(* The ranking of a ranked answer: its ids in order, scores dropped. *)
let ranking items =
  List.map
    (fun it ->
      match String.rindex_opt it ' ' with
      | Some i -> String.sub it (i + 1) (String.length it - i - 1)
      | None -> it)
    items

(* A document state reference: an engine advanced through acknowledged
   updates in sequence order, memoizing answers per state. *)
type reference = {
  mutable engine : Engine.t;
  mutable at : int;  (** ops applied *)
  ops : (int * Ftindex.Wal.op) array;  (** (seq, op), ascending *)
  memo : (string, eval) Hashtbl.t;
  reps : int;
}

let reference ~reps engine acked =
  let ops =
    List.concat_map
      (fun (last_seq, ops) ->
        let n = List.length ops in
        List.mapi (fun i op -> (last_seq - n + 1 + i, op)) ops)
      acked
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  { engine; at = 0; ops; memo = Hashtbl.create 64; reps }

(* Advance to the state after every op with seq <= [seq]. *)
let advance r seq =
  let moved = ref false in
  while r.at < Array.length r.ops && fst r.ops.(r.at) <= seq do
    r.engine <- apply_update r.engine (snd r.ops.(r.at));
    r.at <- r.at + 1;
    moved := true
  done;
  if !moved then Hashtbl.reset r.memo

(* Evaluations at the initial state are repeated [reps] times; later
   states change every few operations on a write-heavy run, and one
   timing each keeps the check affordable. *)
let expected r q =
  match Hashtbl.find_opt r.memo q.Gen.text with
  | Some e -> e
  | None ->
      let e = evaluate ~reps:(if r.at = 0 then r.reps else 1) r.engine q in
      Hashtbl.add r.memo q.Gen.text e;
      e

(* ------------------------------------------------------------ checks *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** failed operations, wrong answers included *)
  mutable ranked : int;
  mutable ranked_match : int;  (** same items (scores and ids), same order *)
  mutable ranking_match : int;  (** same ids, same order *)
}

let tally = { attempted = 0; failed = 0; ranked = 0; ranked_match = 0; ranking_match = 0 }

let fail fmt =
  Printf.ksprintf
    (fun s ->
      tally.failed <- tally.failed + 1;
      prerr_endline ("perfbench: " ^ s))
    fmt

let wrong fmt =
  Printf.ksprintf
    (fun s ->
      tally.failed <- tally.failed + 1;
      prerr_endline ("perfbench: WRONG " ^ s))
    fmt

let show_items items = "[" ^ String.concat " | " items ^ "]"

(* Every document id, for the durability check. *)
let ids_query =
  { Gen.family = Gen.Phrase; k = None;
    text = "for $b in collection()//book return string($b/@id)" }

(* Compare one reply with the reference.  On a sharded topology ranked
   answers only feed the top-k match ratios (shard-local idf is a known
   defect the benchmark reports rather than fails on), and the id listing
   is compared as a set: the router concatenates shard by shard. *)
let check ~sharded ref (a : qreply) =
  let e = expected ref a.q in
  match e.expected with
  | Error msg -> wrong "reference failed on %s: %s" a.q.Gen.text msg
  | Ok items -> (
      match a.q.Gen.k with
      | Some _ when sharded ->
          tally.ranked <- tally.ranked + 1;
          if items = a.items then tally.ranked_match <- tally.ranked_match + 1;
          if ranking items = ranking a.items then
            tally.ranking_match <- tally.ranking_match + 1
      | None when sharded && a.q.Gen.text = ids_query.Gen.text ->
          if List.sort compare items <> List.sort compare a.items then
            wrong "document ids at %d acknowledged ops: got %s, expected %s" a.seq
              (show_items a.items) (show_items items)
      | _ ->
          if items <> a.items then
            wrong "%s at seq %d: got %s, expected %s" a.q.Gen.text a.seq (show_items a.items)
              (show_items items))


(* ---------------------------------------------------------- arguments *)

type args = {
  workload : Gen.workload;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --galatex EXE";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Gen.name) Gen.workloads));
  exit 2

let parse_args argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] argv in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = match Gen.find (get "workload") with Some w -> w | None -> usage () in
  let seconds = int "seconds" in
  if seconds <= 0 then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  { workload; seed = int "seed"; seconds = float_of_int seconds; trace; exe = get "galatex" }

(* ------------------------------------------------------------- phases *)

let shards_of w = match w.Gen.topology with Gen.Single -> 1 | Gen.Sharded n -> n

let queries_of events =
  Array.to_list events
  |> List.filter_map (fun e -> match e.Gen.op with Gen.Query q -> Some q | _ -> None)

(* Run [f] [min_reps] to [max_reps] times, stopping once [rep_budget]
   seconds are spent; [f last] is told whether it is the final run. *)
let repeat ~min_reps f =
  let start = now () in
  let rec go i acc =
    let spent = now () -. start in
    let per = if i = 0 then 0.0 else spent /. float_of_int i in
    let last =
      i + 1 >= max_reps || (i + 1 >= min_reps && spent +. (2.0 *. per) > rep_budget)
    in
    let r = f ~last i in
    if last then List.rev (r :: acc) else go (i + 1) (r :: acc)
  in
  Array.of_list (go 0 [])

(* Set up repeatedly from the generated sources to the first healthy
   reply; the last topology is kept.  Per set-up: (total, index, save)
   seconds. *)
let setup_phase ~exe ~shards sources =
  let kept = ref None in
  let runs =
    repeat ~min_reps:setup_reps (fun ~last i ->
        let (t, index_s, save_s), total =
          timed (fun () ->
              Spans.with_span "setup" (fun _ ->
                  bring_up ~exe ~tag:(Printf.sprintf "u%d" i) ~shards sources))
        in
        if last then kept := Some t
        else begin
          List.iter Procs.kill9 (serving t);
          Array.iter rm_rf t.dirs
        end;
        (total, index_s, save_s))
  in
  ( Option.get !kept,
    Array.map (fun (x, _, _) -> x) runs,
    Array.map (fun (_, x, _) -> x) runs,
    Array.map (fun (_, _, x) -> x) runs )

(* Everything the run sent and got back, for the post-hoc checks.  An
   answer's [seq] is the document state it saw: the daemon's applied WAL
   sequence number on a single daemon; on a cluster, where reads and
   writes never overlap, the number of operations acknowledged so far. *)
type log = {
  sharded : bool;
  mutable answers : qreply list;
  mutable acked : (int * Ftindex.Wal.op list) list;  (** (last seq, ops) *)
  mutable acked_ops : int;
}

let account log = function
  | Answer a ->
      let a = if log.sharded then { a with seq = log.acked_ops } else a in
      log.answers <- a :: log.answers
  | Acked { ops; last_seq } ->
      log.acked_ops <- log.acked_ops + List.length ops;
      let last_seq = if log.sharded then log.acked_ops else last_seq in
      log.acked <- (last_seq, ops) :: log.acked
  | Failed msg -> fail "%s" msg

let attempt log sock op =
  tally.attempted <- tally.attempted + 1;
  let r = send sock op in
  account log r;
  r

(* What the read phase measured. *)
type reads = {
  null_rtt : float array;  (** s *)
  outcomes : result Openloop.outcome array;  (** every open-loop op *)
  queries : result Openloop.outcome array;  (** the open-loop queries *)
  updates : result Openloop.outcome array;  (** interleaved update batches *)
  engine_s : float array;  (** per daemon: mean engine s per query *)
  cpu_ms_per_op : float;  (** serving processes' CPU per open-loop op *)
  steal : float;  (** host steal during the open loop, percent *)
}

(* Host CPU time stolen from this machine (jiffies: stolen, total), from
   the first line of /proc/stat.  Printed beside wall-clock figures: on
   a shared host they move with it. *)
let host_steal () =
  let f =
    Procs.read_file "/proc/stat" |> String.split_on_char ' '
    |> List.filter (( <> ) "") |> List.tl |> List.map float_of_string
  in
  (List.nth f 7, List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < 8) f))

let steal_pct (s0, t0) (s1, t1) = 100.0 *. (s1 -. s0) /. Float.max 1.0 (t1 -. t0)

let serving_cpu t = List.fold_left (fun a p -> a +. Procs.cpu_seconds p) 0.0 (serving t)

(* Serving CPU per open-loop operation, as the median over one-second
   windows: CPU sampled at each window edge, divided by the operations
   that finished inside the window.  A burst of contention on the shared
   host inflates a window, not the run. *)
module Cpu_windows = struct
  type t = { samples : (float * float) list ref; stop : bool Atomic.t; thread : Thread.t }

  let window = 1.0

  let start topo =
    let samples = ref [ (now (), serving_cpu topo) ] and stop = Atomic.make false in
    let rec loop next =
      if not (Atomic.get stop) then begin
        Thread.delay (Float.max 0.0 (next -. now ()));
        if not (Atomic.get stop) then samples := (now (), serving_cpu topo) :: !samples;
        loop (next +. window)
      end
    in
    { samples; stop; thread = Thread.create loop (now () +. window) }

  let stop t outcomes =
    Atomic.set t.stop true;
    Thread.join t.thread;
    let edges = Array.of_list (List.rev !(t.samples)) in
    let per_op =
      List.filter_map
        (fun k ->
          let (t0, c0), (t1, c1) = (edges.(k), edges.(k + 1)) in
          let ops =
            Array.fold_left
              (fun a o -> if o.Openloop.finish >= t0 && o.Openloop.finish < t1 then a + 1 else a)
              0 outcomes
          in
          if ops = 0 then None else Some (ms (c1 -. c0) /. float_of_int ops))
        (List.init (max 0 (Array.length edges - 1)) Fun.id)
    in
    Stats.median (Array.of_list per_op)
end

(* Idle round trips of the cheapest query, a warm-up, then the open loop.
   Traced runs trace every other request, so the tracing overhead is
   measured under the same load. *)
let reads_phase ~trace log topo events =
  let sock0 = topo.daemons.(0).Procs.sock in
  let null_rtt =
    Array.init null_rtts (fun _ ->
        snd (timed (fun () -> ignore (request sock0 (Proto.Query (Proto.query_request "1"))))))
  in
  let stop = now () +. warmup_s in
  List.iteri
    (fun i q -> if i < min_warmups || now () < stop then ignore (attempt log topo.front (Gen.Query q)))
    (queries_of events);
  let m0 = scrape topo in
  let s0 = host_steal () in
  let n = Array.length events in
  let sampler = Cpu_windows.start topo in
  let outcomes =
    Openloop.run ~clock:Openloop.real_clock ~workers ~n
      ~due:(fun i -> events.(i).Gen.due_ms /. 1000.0)
      ~exec:(fun i ->
        Spans.with_span ~on:(trace && i mod 2 = 0) ~req:i "client.op" (fun _ ->
            send topo.front events.(i).Gen.op))
  in
  let cpu_ms_per_op = Cpu_windows.stop sampler outcomes in
  let engine_s = engine_per_query (window_deltas m0 (scrape topo)) in
  let steal = steal_pct s0 (host_steal ()) in
  tally.attempted <- tally.attempted + n;
  Array.iter (fun o -> account log o.Openloop.result) outcomes;
  let pick want =
    Array.of_list
      (List.filteri
         (fun i _ -> want (match events.(i).Gen.op with Gen.Query _ -> true | _ -> false))
         (Array.to_list outcomes))
  in
  { null_rtt; outcomes; queries = pick Fun.id; updates = pick not; engine_s; cpu_ms_per_op; steal }

(* The write probe: sequential update batches.  Returns their ack
   latencies and the daemons' CPU for each, in ms.  The router only
   forwards a batch; the write path — WAL append, fsync, apply — runs in
   the daemons, whose CPU is exact per batch. *)
let probe_phase log topo probe =
  let daemons_cpu () = Array.fold_left (fun a p -> a +. Procs.cpu_seconds p) 0.0 topo.daemons in
  List.map
    (fun ops ->
      let c0 = daemons_cpu () in
      let lat = snd (timed (fun () -> attempt log topo.front (Gen.Update ops))) in
      (ms lat, ms (daemons_cpu () -. c0)))
    probe
  |> Array.of_list |> fun a -> (Array.map fst a, Array.map snd a)

(* kill -9 every daemon and restart it over its snapshot plus the WAL
   the run wrote.  Per restart: seconds to the first healthy reply, and
   the CPU seconds the restarted daemons spent getting there. *)
let recovery_phase ~exe topo =
  let daemons = ref topo.daemons in
  let runs =
    repeat ~min_reps:restart_reps (fun ~last:_ _ ->
        Array.iter Procs.kill9 !daemons;
        let (), wall =
          timed (fun () ->
              Spans.with_span "recovery" (fun _ ->
                  daemons := Array.map (Procs.restart ~exe) !daemons;
                  Array.iter (fun p -> Procs.wait_healthy p) !daemons))
        in
        (wall, Array.fold_left (fun a p -> a +. Procs.cpu_seconds p) 0.0 !daemons))
  in
  ({ topo with daemons = !daemons }, Array.map fst runs, Array.map snd runs)

(* After the restarts: the document ids and a sample of the workload's
   queries, checked with every other answer against the reference state
   after all acknowledged writes — an acknowledged document that is
   missing, or a removed one that came back, is a wrong answer.  A single
   daemon must also report every acknowledged record applied. *)
let durability_phase log topo events =
  let sample =
    List.sort_uniq compare
      (List.filter (fun q -> q.Gen.k = None || not log.sharded) (queries_of events))
    |> List.filteri (fun i _ -> i < 8)
  in
  let last_acked = List.fold_left (fun m (s, _) -> max m s) 0 log.acked in
  List.iter
    (fun q ->
      match attempt log topo.front (Gen.Query q) with
      | Answer a when (not log.sharded) && a.seq <> last_acked ->
          wrong "after restart the daemon is at seq %d, %d records were acknowledged" a.seq
            last_acked
      | _ -> ())
    (ids_query :: sample)

(* Closed loop: [workers] connections, each waiting for its reply,
   cycling through the schedule's operations; ops/s per round. *)
let closed_phase log topo events ~seconds =
  let n = Array.length events in
  let offset = ref 0 in
  Array.init closed_rounds (fun _ ->
      let out, elapsed =
        Openloop.closed ~workers ~seconds:(seconds /. float_of_int closed_rounds)
          ~exec:(fun i -> send topo.front events.((!offset + i) mod n).Gen.op)
      in
      offset := !offset + Array.length out;
      tally.attempted <- tally.attempted + Array.length out;
      Array.iter (fun o -> account log o.Openloop.result) out;
      float_of_int (Array.length out) /. elapsed)

(* Check every answer against the reference, advanced through the
   acknowledged writes in sequence order; returns the evaluation each
   answer was checked with. *)
let check_phase ~reps engine log =
  let r = reference ~reps engine log.acked in
  Array.iteri
    (fun i (seq, _) ->
      if seq <> i + 1 then wrong "acknowledged sequence numbers are not dense at %d" seq)
    r.ops;
  let answers = List.stable_sort (fun a b -> compare a.seq b.seq) (List.rev log.answers) in
  let gen0 = match answers with a :: _ -> a.gen | [] -> 0 in
  List.map
    (fun a ->
      if (not log.sharded) && a.gen <> gen0 then
        wrong "answer from generation %d, expected %d" a.gen gen0;
      advance r a.seq;
      check ~sharded:log.sharded r a;
      expected r a.q)
    answers
  |> Array.of_list

(* Sequential scatter cost: for each sampled query, the router round trip
   minus the slowest direct round trip to a shard, plus the skew of
   per-shard engine time.  Runs on the workload's own cluster.  A traced
   result carries every per-layer metric, so single-daemon workloads get
   a 2-shard probe cluster over the same corpus; the reconciliation
   charges them no cluster time. *)
let scatter_probe ~exe topo sources queries =
  let t, own =
    match topo.router with
    | Some _ -> (topo, false)
    | None ->
        let t, _, _ = bring_up ~exe ~tag:"px" ~shards:2 sources in
        (t, true)
  in
  let sample = List.filteri (fun i _ -> i < scatter_samples) (List.sort_uniq compare queries) in
  let before = scrape t in
  let overheads =
    List.map
      (fun q ->
        Spans.with_span "cluster.scatter_probe" (fun _ ->
            let routed = snd (timed (fun () -> send_query t.front q)) in
            let direct =
              Array.map (fun p -> snd (timed (fun () -> send_query p.Procs.sock q))) t.daemons
            in
            ms (routed -. Array.fold_left Float.max 0.0 direct)))
      sample
  in
  let engine = engine_per_query (window_deltas before (scrape t)) in
  if own then tear_down t;
  (Stats.mean (Array.of_list overheads), Array.fold_left Float.max 0.0 engine /. Stats.mean engine)

(* ------------------------------------------------------------ reports *)

let latency_ms outs = Array.map (fun o -> ms (Openloop.latency o)) outs

(* Latency percentiles as the median over consecutive windows of at
   least [window_samples] samples each: a burst of interference on the
   shared machine spoils a window, not the run.  Each window keeps >= 10
   samples beyond its p95. *)
let window_samples = 200

let windowed p samples =
  let n = Array.length samples in
  let k = max 1 (n / window_samples) in
  Stats.median
    (Array.init k (fun w ->
         let lo = w * n / k and hi = (w + 1) * n / k in
         Stats.percentile (Array.sub samples lo (hi - lo)) p))

(* The end-to-end metrics.  The result carries what repeats on a shared
   2-core virtual machine: CPU cost per operation, memory and set-up time.
   CPU per update batch, latency, throughput and recovery are printed
   beside them, but move with the neighbours' load (see README.md). *)
let report_e2e ~setup_s ~recovery ~rss ~throughput ~probe ~u_lat ~u_open reads =
  let recovery_s, recovery_cpu = recovery in
  let _, update_cpu = probe in
  report "server_cpu_ms_per_op" reads.cpu_ms_per_op "ms";
  report "server_rss_mb" (rss /. 1048576.0) "MB";
  report "setup_s" (Stats.median setup_s) "s";
  note "  (median of %d set-ups; %d kill -9 and restart cycles)" (Array.length setup_s)
    (Array.length recovery_s);
  show "server_cpu_ms_per_update" (Stats.median update_cpu) "ms";
  note "  (median over %d update batches of the sequential write probe)" (Array.length update_cpu);
  let q_lat = latency_ms reads.queries in
  let n = Array.length q_lat in
  note "wall clock, host steal %.1f%% during the open loop:" reads.steal;
  show "query_p50_ms" (windowed 50.0 q_lat) "ms";
  show "query_p95_ms" (windowed 95.0 q_lat) "ms";
  note "  (%d query samples in %d window(s) of >= %d; %d beyond the pooled p95)" n
    (max 1 (n / window_samples)) (min n window_samples) (Stats.beyond n 95.0);
  show "throughput_ops_s" (Stats.median throughput) "1/s";
  note "  (closed-loop rounds: %s ops/s)"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") throughput)));
  show "update_p50_ms" (windowed 50.0 u_lat) "ms";
  show "update_p95_ms" (windowed 95.0 u_lat) "ms";
  note "  (%d update batches, %s)" (Array.length u_lat)
    (if u_open then "open loop, interleaved with the queries"
     else "sequential write probe after the reads");
  show "recovery_s" (Stats.median recovery_s) "s";
  show "recovery_cpu_ms" (ms (Stats.median recovery_cpu)) "ms"

type layer_inputs = {
  index_s : float array;
  save_s : float array;
  load_s : float;
  base : Ftindex.Inverted.t array;  (** per-daemon snapshot index, pre-WAL *)
  snapshot_bytes : int;
  evals : eval array;
  scatter : float * float;  (** overhead ms, skew *)
}

let report_layers ~sources ~events ~dirs log reads li =
  let lags = Array.map (fun o -> ms (Openloop.lag o)) reads.outcomes in
  report "workload.lag_p95_ms" (Stats.percentile lags 95.0) "ms";
  report "server.null_rtt_p50_ms" (ms (Stats.median reads.null_rtt)) "ms";
  let engine_ms = ms (Stats.mean reads.engine_s) in
  report "server.engine_ms_per_query" engine_ms "ms";
  let rtt_ms = Stats.mean (Array.map (fun o -> ms (Openloop.service o)) reads.queries) in
  report "server.overhead_ms_per_query" (rtt_ms -. engine_ms) "ms";
  let texts = List.map (fun q -> q.Gen.text) (queries_of events) in
  let parse_us =
    1e6
    *. median_of_runs 3 (fun () -> List.iter (fun t -> ignore (parse t)) texts)
    /. float_of_int (List.length texts)
  in
  report "xquery.parse_us_per_query" parse_us "us";
  let evals = li.evals in
  List.iter
    (fun f ->
      let ts =
        Array.of_list
          (List.filter_map
             (fun e -> if e.family = f then Some (ms e.eval_s) else None)
             (Array.to_list evals))
      in
      report ("galatex.eval_ms_p50." ^ Gen.family_name f) (Stats.median ts) "ms")
    Gen.families;
  let per_query f = Stats.mean (Array.map (fun e -> float_of_int (f e)) evals) in
  report "galatex.postings_read_per_query" (per_query (fun e -> e.postings)) "count";
  report "galatex.allmatches_materialized_per_query" (per_query (fun e -> e.materialized)) "count";
  report "galatex.steps_per_query" (per_query (fun e -> e.steps)) "count";
  report "galatex.postings_read_per_hit"
    (per_query (fun e -> e.postings) /. Float.max 1.0 (per_query (fun e -> e.hits)))
    "ratio";
  report "galatex.peak_matches_p95"
    (Stats.percentile (Array.map (fun e -> float_of_int e.peak) evals) 95.0)
    "count";
  report "ftindex.index_s" (Stats.median li.index_s) "s";
  report "ftindex.save_s" (Stats.median li.save_s) "s";
  report "ftindex.load_s" li.load_s "s";
  report "ftindex.apply_update_ms" (ms (Stats.mean (Spans.durations "ftindex.apply_update"))) "ms";
  let records = ref 0 and replay_s = ref 0.0 in
  Array.iteri
    (fun i dir ->
      match Ftindex.Wal.read_log ~dir () with
      | None -> ()
      | Some wal ->
          let recs = wal.Ftindex.Wal.records in
          records := !records + List.length recs;
          replay_s :=
            !replay_s
            +. snd
                 (timed (fun () ->
                      Spans.with_span "ftindex.replay" (fun _ ->
                          ignore (Ftindex.Wal.replay li.base.(i) recs)))))
    dirs;
  report "ftindex.replay_ms_per_record" (ms !replay_s /. float_of_int (max 1 !records)) "ms";
  let source_bytes = List.fold_left (fun a (_, s) -> a + String.length s) 0 sources in
  report "ftindex.snapshot_bytes_per_source_byte"
    (float_of_int li.snapshot_bytes /. float_of_int source_bytes)
    "ratio";
  let update_bytes =
    List.fold_left
      (fun a (_, ops) ->
        List.fold_left
          (fun a -> function
            | Ftindex.Wal.Add_doc { source; _ } -> a + String.length source
            | Ftindex.Wal.Remove_doc uri -> a + String.length uri)
          a ops)
      0 log.acked
  in
  let wal_bytes =
    Array.fold_left (fun a d -> a + file_size (Filename.concat d Ftindex.Wal.wal_name)) 0 dirs
  in
  report "ftindex.wal_bytes_per_update_byte"
    (float_of_int wal_bytes /. float_of_int (max 1 update_bytes))
    "ratio";
  let docs = ref [] in
  report "xmlkit.parse_s"
    (median_of_runs 3 (fun () ->
         docs :=
           List.map
             (fun (uri, s) ->
               Spans.with_span "xmlkit.parse_document" (fun _ ->
                   Xmlkit.Parser.parse_document ~uri s))
             sources))
    "s";
  report "tokenize.segment_s"
    (median_of_runs 3 (fun () ->
         List.iter
           (fun d ->
             ignore
               (Spans.with_span "tokenize.tokenize_document" (fun _ ->
                    Tokenize.Segmenter.tokenize_document d)))
           !docs))
    "s";
  let overhead, skew = li.scatter in
  report "cluster.scatter_overhead_ms" overhead "ms";
  report "cluster.shard_skew" skew "ratio";
  if not log.sharded then
    note "  (cluster.*: a 2-shard probe cluster over this corpus; this workload's load does not use it)";
  (rtt_ms, parse_us /. 1000.0)

(* Where the mean request time goes: layer self times, each measured on
   its own, against the measured mean round trip.  Returns the server,
   engine and cluster shares (percent). *)
let reconcile ~sharded ~scatter_ms reads (rtt_ms, parse_ms) =
  let server = ms (Stats.median reads.null_rtt) in
  let engine =
    ms (if sharded then Array.fold_left Float.max 0.0 reads.engine_s else Stats.mean reads.engine_s)
  in
  let galatex = engine -. parse_ms in
  let cluster = if sharded then scatter_ms else 0.0 in
  let residual = rtt_ms -. (server +. parse_ms +. galatex +. cluster) in
  let share x = 100.0 *. x /. rtt_ms in
  note "reconciliation (mean request time %.3f ms, launch to reply):" rtt_ms;
  List.iter
    (fun (layer, what, x) -> note "  %-8s %-44s %10.3f ms %6.1f%%" layer what x (share x))
    [
      ("server", "idle round trip (connect, frame, accept)", server);
      ("xquery", "parse (in-process)", parse_ms);
      ("galatex", "daemon engine time minus parse", galatex);
      ("cluster", "router round trip minus slowest shard", cluster);
      ("server", "rest: queue wait and contention under load", residual);
    ];
  let q_lat = latency_ms reads.queries in
  note "  %-8s %-44s %10.3f ms (before launch, outside the round trip)" "workload"
    "mean wait for a free load worker" (Stats.mean q_lat -. rtt_ms);
  note "  the independently measured layers cover %.1f%% of the mean request time"
    (100.0 -. share residual);
  (share (server +. residual), share (parse_ms +. galatex), share cluster)

(* Even-numbered open-loop operations were traced, odd ones not. *)
let tracing_overhead events reads =
  let half parity =
    Array.of_list
      (List.filteri
         (fun i _ ->
           i mod 2 = parity && match events.(i).Gen.op with Gen.Query _ -> true | _ -> false)
         (Array.to_list reads.outcomes))
    |> latency_ms
  in
  let traced = half 0 and untraced = half 1 in
  note "tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms (%+.4f ms); p95 %+.4f ms"
    (Stats.median traced) (Stats.median untraced)
    (Stats.median traced -. Stats.median untraced)
    (Stats.percentile traced 95.0 -. Stats.percentile untraced 95.0)

(* What each workload is built to show, checked on its traced run. *)
let design_intent name ~server ~engine ~cluster =
  let claim, holds =
    match name with
    | "scan-large" -> ("engine share >= 90%", engine >= 90.0)
    | "point-small" -> ("server share >= 30%", server >= 30.0)
    | "sharded-ranked" -> ("cluster share > 0", cluster > 0.0)
    | _ -> ("no cluster share", cluster = 0.0)
  in
  note "design intent (%s): %s" claim (if holds then "holds" else "VIOLATED")

(* --------------------------------------------------------------- run *)

let run args =
  let w = args.workload in
  let shards = shards_of w in
  Spans.enabled := args.trace;
  rm_rf work;
  Unix.mkdir work 0o755;
  let sources = Gen.corpus w ~seed:args.seed in
  let events, probe = Gen.inputs w ~seed:args.seed ~seconds:(open_share *. args.seconds) in
  note "workload %s: %d documents, %d shard(s), open loop %.0f/s for %.1f s, seed %d, %d load workers"
    w.Gen.name w.Gen.docs shards w.Gen.rate (open_share *. args.seconds) args.seed workers;
  note "updates are acknowledged after the daemon's own fsync of the write-ahead log";
  let topo, setup_s, index_s, save_s = setup_phase ~exe:args.exe ~shards sources in
  let snapshot_bytes =
    Array.fold_left (fun a d -> a + dir_bytes ~except:[ Ftindex.Wal.wal_name ] d) 0 topo.dirs
  in
  (* in-process engines over the very snapshots the daemons serve *)
  let load () = Array.map of_store topo.dirs in
  let engines = load () in
  let load_s = if args.trace then median_of_runs 3 (fun () -> ignore (load ())) else Float.nan in
  let reference_engine =
    if shards > 1 then Engine.of_index (Ftindex.Indexer.index_strings sources) else engines.(0)
  in
  let log = { sharded = shards > 1; answers = []; acked = []; acked_ops = 0 } in
  let reads = reads_phase ~trace:args.trace log topo events in
  let probe = probe_phase log topo probe in
  let rss = List.fold_left (fun a p -> a +. Procs.peak_rss p) 0.0 (serving topo) in
  List.iter
    (fun p ->
      note "  %s: shed %d, errors %d, partials %d (daemon counters before the restarts)"
        p.Procs.sock (stat_counter p.Procs.sock "shed") (stat_counter p.Procs.sock "errors")
        (stat_counter p.Procs.sock "partials"))
    (serving topo);
  let topo, recovery_s, recovery_cpu = recovery_phase ~exe:args.exe topo in
  durability_phase log topo events;
  let throughput = closed_phase log topo events ~seconds:(closed_share *. args.seconds) in
  let scatter =
    if args.trace then Some (scatter_probe ~exe:args.exe topo sources (queries_of events))
    else None
  in
  tear_down topo;
  let evals = check_phase ~reps:(if args.trace then 3 else 1) reference_engine log in
  let u_open = Array.length reads.updates > 0 in
  let u_lat = if u_open then latency_ms reads.updates else fst probe in
  report_e2e ~setup_s ~recovery:(recovery_s, recovery_cpu) ~rss ~throughput ~probe ~u_lat ~u_open
    reads;
  show "failed_ratio" (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)) "ratio";
  if log.sharded then begin
    let share n = float_of_int n /. float_of_int (max 1 tally.ranked) in
    show "topk_match_ratio" (share tally.ranked_match) "ratio";
    show "topk_ranking_match_ratio" (share tally.ranking_match) "ratio";
    note "  (%d ranked answers against one engine over the union corpus: items with\n   their scores, then ids only; shard-local idf is a known defect, reported\n   here, not failed on)"
      tally.ranked
  end;
  match scatter with
  | None -> ()
  | Some ((scatter_ms, _) as scatter) ->
      metrics := [];
      let li =
        { index_s; save_s; load_s; base = Array.map Engine.index engines; snapshot_bytes; evals;
          scatter }
      in
      let self = report_layers ~sources ~events ~dirs:topo.dirs log reads li in
      let server, engine, cluster = reconcile ~sharded:log.sharded ~scatter_ms reads self in
      design_intent w.Gen.name ~server ~engine ~cluster;
      tracing_overhead events reads;
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Spans.write (Printf.sprintf "%s/spans-%s.tsv" out_dir w.Gen.name)

let json_result () =
  let metric (name, v, unit) =
    if not (Float.is_finite v) then failwith (name ^ " is not a finite number");
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " (List.rev_map metric !metrics))

let cleanup () =
  Procs.stop_all ();
  rm_rf work

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  (* killed from outside: take the serving processes down too *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> cleanup (); exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  match
    Fun.protect ~finally:cleanup
      (fun () ->
        run args;
        json_result ())
  with
  | line ->
      print_endline line;
      exit (if tally.failed = 0 then 0 else 1)
  | exception e ->
      prerr_endline ("perfbench: run failed: " ^ Printexc.to_string e);
      exit 3
