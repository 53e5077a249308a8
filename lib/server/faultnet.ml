(* Deterministic seeded network fault injection: a userspace proxy for
   Unix-domain socket pairs.

   Each accepted connection gets a pair of pump threads (one per
   direction) that forward bytes under a [plan] of scheduled faults.
   Plans come from a pure function of the connection index, so a seeded
   chaos schedule replays byte-for-byte — the network analogue of the
   [Store.Io] single-shot disk fault injector.

   The pumps deliberately use plain blocking-ish loops gated on short
   select ticks: the proxy is the *adversary*, not the system under
   test, so it must be able to stall, dribble, and half-close without
   any deadline machinery of its own — while still shutting down
   promptly when [stop] flips the flag. *)

type plan = {
  latency : float;
  rate : int option;
  stall_after : int option;
  close_after : int option;
  half_close_after : int option;
  blackhole : bool;
}

let clean =
  {
    latency = 0.;
    rate = None;
    stall_after = None;
    close_after = None;
    half_close_after = None;
    blackhole = false;
  }

let stalled ?(after = 0) () = { clean with stall_after = Some after }
let throttled bytes_per_second = { clean with rate = Some bytes_per_second }
let delayed seconds = { clean with latency = seconds }
let dropping ?(after = 0) () = { clean with close_after = Some after }

(* ------------------------------------------------------------------ *)
(* SplitMix64, embedded: the corpus library has one, but the server
   library must not depend on corpus generation to inject faults. *)

module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next_int64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    let v = Int64.to_int (Int64.logand (next_int64 t) 0x3FFFFFFFFFFFFFFFL) in
    v mod bound

  let float t =
    let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
    float_of_int bits /. 9007199254740992.0
end

(* ------------------------------------------------------------------ *)

type conn = {
  src : Unix.file_descr;
  dst : Unix.file_descr;
  mutable killed : bool; (* close_after fired: sever both directions *)
  mutable pumps_left : int;
  lock : Mutex.t;
}

type t = {
  listen_fd : Unix.file_descr;
  listen_path : string;
  stop : bool Atomic.t;
  accepted : int Atomic.t;
  threads : Thread.t list ref;
  tlock : Mutex.t;
  mutable accept_thread : Thread.t option;
  mutable stopped : bool;
}

let tick = 0.05
let connections t = Atomic.get t.accepted

let sleep_checked t seconds =
  let until = Unix.gettimeofday () +. seconds in
  let rec go () =
    if not (Atomic.get t.stop) then
      let left = until -. Unix.gettimeofday () in
      if left > 0. then (
        Thread.delay (Float.min left tick);
        go ())
  in
  go ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_quiet fd how = try Unix.shutdown fd how with Unix.Unix_error _ -> ()

let release conn =
  Mutex.lock conn.lock;
  conn.pumps_left <- conn.pumps_left - 1;
  let last = conn.pumps_left = 0 in
  Mutex.unlock conn.lock;
  if last then (
    close_quiet conn.src;
    close_quiet conn.dst)

let rec readable t fd =
  if Atomic.get t.stop then false
  else
    match Unix.select [ fd ] [] [] tick with
    | [], _, _ -> readable t fd
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable t fd
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> false

(* Forward all of [chunk] to [dst], gated on select ticks so a
   backpressuring destination never wedges shutdown. *)
let forward t fd chunk len =
  let off = ref 0 in
  let ok = ref true in
  while !ok && !off < len && not (Atomic.get t.stop) do
    match Unix.select [] [ fd ] [] tick with
    | _, [], _ -> ()
    | _ -> (
        match Unix.write fd chunk !off (len - !off) with
        | k -> off := !off + k
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error (_, _, _) -> ok := false)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ok := false
  done;
  !ok

(* One direction of one connection: src --[plan]--> dst. *)
let pump t conn ~(plan : plan) ~src ~dst =
  let sent = ref 0 in
  let buf = Bytes.create 4096 in
  let stall_forever () =
    while not (Atomic.get t.stop || conn.killed) do
      Thread.delay tick
    done
  in
  let boundary limit = Option.map (fun n -> n - !sent) limit in
  let finished = ref plan.blackhole in
  if plan.blackhole then stall_forever ();
  while not (!finished || Atomic.get t.stop || conn.killed) do
    (* distance to the nearest scheduled fault decides the chunk size *)
    let upto =
      List.fold_left
        (fun acc b -> match b with Some n -> min acc n | None -> acc)
        (Bytes.length buf)
        [
          boundary plan.stall_after;
          boundary plan.close_after;
          boundary plan.half_close_after;
        ]
    in
    let upto =
      (* keep throttle sleeps short: chunk ~ rate/20 bytes per 50 ms *)
      match plan.rate with
      | Some r -> min upto (max 1 (r / 20))
      | None -> upto
    in
    if boundary plan.stall_after = Some 0 then (
      stall_forever ();
      finished := true)
    else if boundary plan.close_after = Some 0 then (
      conn.killed <- true;
      finished := true)
    else if boundary plan.half_close_after = Some 0 then (
      shutdown_quiet dst Unix.SHUTDOWN_SEND;
      finished := true)
    else if readable t src then
      match Unix.read src buf 0 upto with
      | 0 ->
          shutdown_quiet dst Unix.SHUTDOWN_SEND;
          finished := true
      | n ->
          if plan.latency > 0. then sleep_checked t plan.latency;
          if not (forward t dst buf n) then finished := true;
          sent := !sent + n;
          Option.iter
            (fun r -> sleep_checked t (float_of_int n /. float_of_int (max 1 r)))
            plan.rate
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (_, _, _) -> finished := true
    else
      (* [readable] only returns false on shutdown or a dead fd *)
      finished := true
  done;
  release conn

let spawn t f =
  let th = Thread.create f () in
  Mutex.lock t.tlock;
  t.threads := th :: !(t.threads);
  Mutex.unlock t.tlock

let handle t client ~target ~c2s ~s2c =
  if c2s.blackhole || s2c.blackhole then (
    (* accept-then-hang: never even dial the target *)
    let conn =
      { src = client; dst = client; killed = false; pumps_left = 1; lock = Mutex.create () }
    in
    spawn t (fun () -> pump t conn ~plan:{ clean with blackhole = true } ~src:client ~dst:client))
  else
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_UNIX target);
        fd
      with e ->
        close_quiet fd;
        raise e
    with
    | upstream ->
        let conn =
          {
            src = client;
            dst = upstream;
            killed = false;
            pumps_left = 2;
            lock = Mutex.create ();
          }
        in
        spawn t (fun () -> pump t conn ~plan:c2s ~src:client ~dst:upstream);
        spawn t (fun () -> pump t conn ~plan:s2c ~src:upstream ~dst:client)
    | exception Unix.Unix_error (_, _, _) ->
        (* target down: behave like a refused connection *)
        close_quiet client

let start ~listen ~target ~plan_for =
  (* the core's safe bind: pumps write into peers that die mid-fault, so
     it also turns SIGPIPE into EPIPE (essential for the standalone
     [galatex faultnet] proxy) *)
  let listen_fd = Serving.listen listen in
  let t =
    {
      listen_fd;
      listen_path = listen;
      stop = Atomic.make false;
      accepted = Atomic.make 0;
      threads = ref [];
      tlock = Mutex.create ();
      accept_thread = None;
      stopped = false;
    }
  in
  let accept_loop () =
    while not (Atomic.get t.stop) do
      if readable t listen_fd then
        match Unix.accept listen_fd with
        | client, _ ->
            let i = Atomic.fetch_and_add t.accepted 1 in
            let c2s, s2c = plan_for i in
            handle t client ~target ~c2s ~s2c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error (_, _, _) -> ()
    done
  in
  t.accept_thread <- Some (Thread.create accept_loop ());
  t

let stop t =
  if not t.stopped then (
    t.stopped <- true;
    Atomic.set t.stop true;
    Option.iter Thread.join t.accept_thread;
    close_quiet t.listen_fd;
    (try Unix.unlink t.listen_path with Unix.Unix_error _ -> ());
    let rec drain () =
      Mutex.lock t.tlock;
      let ths = !(t.threads) in
      t.threads := [];
      Mutex.unlock t.tlock;
      if ths <> [] then (
        List.iter Thread.join ths;
        drain ())
    in
    drain ())

let seeded_plans ~seed ?(p_stall = 0.) ?(p_drop = 0.) ?(p_throttle = 0.)
    ?(latency = 0.) ?(jitter = 0.) ?(rate = 4096) () i =
  let r = Rng.create ((seed * 0x1000193) lxor ((i + 1) * 0x9E3779B9)) in
  let base () =
    let l = latency +. if jitter > 0. then Rng.float r *. jitter else 0. in
    { clean with latency = l }
  in
  let u = Rng.float r in
  (* fault offsets must actually land inside a typical exchange: protocol
     frames are tens of bytes, bulk pulls are kilobytes — draw half the
     offsets inside the first 48 bytes (mid-header, mid-frame) and half
     across the first 2 KiB (mid-transfer), so a 5% stall rate bites ~5%
     of small exchanges instead of ~0.1% *)
  let offset () =
    if Rng.float r < 0.5 then Rng.int r 48 else Rng.int r 2048
  in
  let faulted =
    if u < p_stall then { (base ()) with stall_after = Some (offset ()) }
    else if u < p_stall +. p_drop then
      { (base ()) with close_after = Some (offset ()) }
    else if u < p_stall +. p_drop +. p_throttle then
      { (base ()) with rate = Some rate }
    else base ()
  in
  let other = base () in
  (* fault either direction: request path and reply path both matter *)
  if Rng.float r < 0.5 then (faulted, other) else (other, faulted)
