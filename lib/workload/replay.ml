(* Open-loop trace replay through the daemon protocol.

   Events launch at their due time regardless of completions, so a slow
   server cannot slow the arrival process down and hide its own tail —
   and latency is measured from the event's *due* instant, not its
   launch, so queueing delay behind the in-flight cap is charged to the
   server (no coordinated omission). *)

module Cli = Galatex_server.Client
module Proto = Galatex_server.Protocol

type counts = { full : int; partial : int; shed : int; error : int }

type result = {
  issued : int;
  counts : counts;
  latencies_sorted_ms : float array;
      (** one sample per issued event, sorted ascending *)
  wall_s : float;
}

type classified = Full | Partial | Shed | Error

let classify_query = function
  | Ok (Proto.Value v) -> if v.Proto.partial = None then Full else Partial
  | Ok (Proto.Failure e) when e.Proto.code = "gtlx:GTLX0009" -> Shed
  | Ok _ | Error _ -> Error

let classify_update = function
  | Ok (Proto.Update_reply _) -> Full
  | Ok (Proto.Failure e) when e.Proto.code = "gtlx:GTLX0009" -> Shed
  | Ok _ | Error _ -> Error

let run ~socket_path ?(concurrency = 16) ?(client_timeout = 5.0)
    ?(events = []) ?(now = Unix.gettimeofday) ?(sleep = Thread.delay)
    (trace : Trace.t) =
  if concurrency <= 0 then invalid_arg "Replay.run: concurrency <= 0";
  let n = Array.length trace in
  let lats = Array.make (max n 1) Float.nan in
  let full = ref 0 and partial = ref 0 and shed = ref 0 and error = ref 0 in
  let lock = Mutex.create () in
  let slots = ref concurrency and slot_cv = Condition.create () in
  let acquire () =
    Mutex.lock lock;
    while !slots = 0 do
      Condition.wait slot_cv lock
    done;
    decr slots;
    Mutex.unlock lock
  in
  let release () =
    Mutex.lock lock;
    incr slots;
    Condition.signal slot_cv;
    Mutex.unlock lock
  in
  let t0 = now () in
  let one i due_abs op =
    let outcome =
      match op with
      | Trace.Query { text; topk; _ } ->
          classify_query
            (Cli.request ~recv_timeout:client_timeout ~socket_path
               (Proto.Query
                  (Proto.query_request
                     ?merge:(Option.map (fun k -> Proto.Merge_topk k) topk)
                     text)))
      | Trace.Update ops ->
          classify_update
            (Cli.request ~recv_timeout:client_timeout ~socket_path
               (Proto.Update { ops; epoch = 0 }))
    in
    let dt_ms = (now () -. due_abs) *. 1000.0 in
    Mutex.lock lock;
    lats.(i) <- dt_ms;
    (match outcome with
    | Full -> incr full
    | Partial -> incr partial
    | Shed -> incr shed
    | Error -> incr error);
    Mutex.unlock lock;
    release ()
  in
  let wait_until due_abs =
    let wait = due_abs -. now () in
    if wait > 0.0 then sleep wait
  in
  (* timed actions fire on the trace clock, interleaved with launches *)
  let pending =
    ref (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events)
  in
  let actions = ref [] in
  let rec fire_until due_ms =
    match !pending with
    | (at_ms, fire) :: rest when at_ms <= due_ms ->
        pending := rest;
        wait_until (t0 +. (at_ms /. 1000.0));
        actions := Thread.create fire () :: !actions;
        fire_until due_ms
    | _ -> ()
  in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i { Trace.due_ms; op } ->
           fire_until due_ms;
           let due_abs = t0 +. (due_ms /. 1000.0) in
           wait_until due_abs;
           acquire ();
           Thread.create (fun () -> one i due_abs op) ())
         trace)
  in
  fire_until infinity;
  List.iter Thread.join threads;
  let wall_s = now () -. t0 in
  List.iter Thread.join !actions;
  let sorted = Array.sub lats 0 n in
  Array.sort compare sorted;
  {
    issued = n;
    counts = { full = !full; partial = !partial; shed = !shed; error = !error };
    latencies_sorted_ms = sorted;
    wall_s;
  }
