(* In-memory spans around the benchmark's own calls into each layer:
   (name, start, end, parent, request id).  Recording is off unless the
   run is traced; the spans are written out once, at exit. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** the enclosing span's id, 0 at top level *)
  req : int;  (** request id, -1 when the span belongs to no request *)
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1

let add s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* Per thread, the open spans, innermost first: (id, request id), id 0
   marking a span that is not recorded.  Guarded by [lock]. *)
let open_spans : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

(* [with_span name f] times [f] and records it, as a child of the
   thread's innermost open span and under its request id unless [req] is
   given.  Nothing is recorded when tracing is off, when [on] is false, or
   inside a span that was not recorded.  [f] gets the span's id. *)
let with_span ?(on = true) ?req name f =
  if not !enabled then f 0
  else begin
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    let outer = Option.value ~default:[] (Hashtbl.find_opt open_spans tid) in
    Mutex.unlock lock;
    let parent, parent_req = match outer with top :: _ -> top | [] -> (-1, -1) in
    let id = if on && parent <> 0 then Atomic.fetch_and_add next_id 1 else 0 in
    let req = Option.value req ~default:parent_req in
    let set stack =
      Mutex.lock lock;
      Hashtbl.replace open_spans tid stack;
      Mutex.unlock lock
    in
    set ((id, req) :: outer);
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        if id <> 0 then
          add { id; name; start; stop = Unix.gettimeofday (); parent = max 0 parent; req };
        set outer)
      (fun () -> f id)
  end

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* Durations (seconds) of every recorded span called [name]. *)
let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    (all ())
  |> Array.of_list

let write path =
  let oc = open_out path in
  output_string oc "id\tname\tstart\tend\tparent\treq\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\n" s.id s.name s.start s.stop
        s.parent s.req)
    (all ());
  close_out oc
