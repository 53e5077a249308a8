(* Load generators.  The open loop launches request [i] at its due time
   [start + due i] on whichever of [workers] threads frees up first, in
   index order, and charges latency from the due time: a request stuck
   behind a slow one pays for the wait (no coordinated omission).  The
   closed loop keeps [workers] requests in flight back to back.

   The clock is a parameter so the tests can run the open loop under a
   fake clock. *)

type clock = { now : unit -> float; sleep_until : float -> unit }

let real_clock =
  {
    now = Unix.gettimeofday;
    sleep_until =
      (fun t ->
        let d = t -. Unix.gettimeofday () in
        if d > 0.0 then Thread.delay d);
  }

type 'r outcome = {
  due : float;  (** absolute due instant *)
  launch : float;
  finish : float;
  result : 'r;
}

let latency o = o.finish -. o.due
let lag o = o.launch -. o.due
let service o = o.finish -. o.launch

(* Run [workers] copies of [body] (the caller's thread is one of them)
   and wait for all. *)
let parallel workers body =
  let others = List.init (max 0 (workers - 1)) (fun _ -> Thread.create body ()) in
  body ();
  List.iter Thread.join others

let run ~clock ~workers ~n ~due ~exec =
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let start = clock.now () in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let due = start +. due i in
      clock.sleep_until due;
      let launch = clock.now () in
      let result = exec i in
      out.(i) <- Some { due; launch; finish = clock.now (); result };
      loop ()
    end
  in
  parallel workers loop;
  Array.map Option.get out

(* Closed loop for [seconds]: each worker issues [exec i] for the next
   index as soon as its previous request returned.  Returns the outcomes
   in index order (due = launch) and the elapsed wall time. *)
let closed ~workers ~seconds ~exec =
  let lock = Mutex.create () in
  let acc = ref [] in
  let next = Atomic.make 0 in
  let start = Unix.gettimeofday () in
  let stop = start +. seconds in
  let rec loop () =
    let launch = Unix.gettimeofday () in
    if launch < stop then begin
      let i = Atomic.fetch_and_add next 1 in
      let result = exec i in
      let o = { due = launch; launch; finish = Unix.gettimeofday (); result } in
      Mutex.lock lock;
      acc := (i, o) :: !acc;
      Mutex.unlock lock;
      loop ()
    end
  in
  parallel workers loop;
  let elapsed = Unix.gettimeofday () -. start in
  (Array.of_list (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !acc)), elapsed)
