(* Deadline-aware framed network I/O.

   This is the only place in the serving stack that calls
   [Unix.read]/[Unix.write] on a socket.  Every operation is gated by
   [Unix.select] against two bounds — an absolute deadline for the whole
   operation and a relative idle bound on progress — so a stalled,
   slow-loris, or half-open peer produces the structured resource code
   gtlx:GTLX0014 instead of a wedged thread.  Per-syscall socket
   timeouts ([SO_RCVTIMEO]) cannot give this guarantee: one byte per
   interval resets them forever, and they never cover writes or
   connects.

   The select wait is capped at [tick] seconds so an operation notices a
   deadline that was already close when it started, and so the "no
   request outlives its deadline by more than one tick" invariant of the
   chaos tests has a concrete tick to name. *)

type limits = { deadline : float option; idle : float option }

let no_limits = { deadline = None; idle = None }
let now () = Unix.gettimeofday ()
let within ?idle seconds = { deadline = Some (now () +. seconds); idle }
let limits_of_deadline ?idle deadline = { deadline; idle }
let remaining l = Option.map (fun d -> d -. now ()) l.deadline

let expired l =
  match l.deadline with Some d -> now () > d | None -> false

let max_frame = 16 * 1024 * 1024

exception Timeout of string

let timeout_msg what moved total =
  Printf.sprintf "network I/O deadline exceeded during %s (%d/%s bytes)" what
    moved
    (if total < 0 then "?" else string_of_int total)

let raise_gtlx0014 msg = Xquery.Errors.raise_error GTLX0014 "%s" msg

(* Longest single select wait: bounds how far past an expired deadline an
   operation can run (the "one tick" of the chaos invariants). *)
let tick = 0.25

(* Seconds we may wait in one select call, or raise [Timeout] if either
   bound has already passed.  [last] is the instant of last progress. *)
let budget ~what ~moved ~total l last =
  let t = now () in
  let against bound =
    match bound with Some b -> Some (b -. t) | None -> None
  in
  let deadline_left = against l.deadline
  and idle_left = against (Option.map (fun i -> last +. i) l.idle) in
  let left =
    match (deadline_left, idle_left) with
    | None, None -> tick
    | Some d, None | None, Some d -> d
    | Some d, Some i -> Float.min d i
  in
  if left <= 0. then raise (Timeout (timeout_msg what moved total))
  else Float.min left tick

let rec wait_readable fd seconds =
  match Unix.select [ fd ] [] [] seconds with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd seconds

let rec wait_writable fd seconds =
  match Unix.select [] [ fd ] [] seconds with
  | _, [], _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_writable fd seconds

(* Read exactly [n] bytes.  EOF mid-way is the peer's fault (torn frame,
   an [Error]); running out of time is raised as [Timeout]. *)
let read_exact_raw ~what limits fd n =
  Unix.set_nonblock fd;
  let buf = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  let last = ref (now ()) in
  while (not !eof) && !off < n do
    let seconds = budget ~what ~moved:!off ~total:n limits !last in
    if wait_readable fd seconds then
      match Unix.read fd buf !off (n - !off) with
      | 0 -> eof := true
      | k ->
          off := !off + k;
          last := now ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
  done;
  if !eof then Error (Printf.sprintf "torn frame: %d of %d bytes" !off n)
  else Ok (Bytes.to_string buf)

let write_all_raw ~what limits fd s =
  Unix.set_nonblock fd;
  let n = String.length s in
  let off = ref 0 in
  let last = ref (now ()) in
  while !off < n do
    let seconds = budget ~what ~moved:!off ~total:n limits !last in
    if wait_writable fd seconds then
      match Unix.write_substring fd s !off (n - !off) with
      | k ->
          off := !off + k;
          last := now ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
  done

let translate f = try f () with Timeout msg -> raise_gtlx0014 msg

let read_exact ?(limits = no_limits) fd n =
  translate (fun () -> read_exact_raw ~what:"read" limits fd n)

let write_all ?(limits = no_limits) fd s =
  translate (fun () -> write_all_raw ~what:"write" limits fd s)

let write_frame ?(limits = no_limits) fd payload =
  let b = Buffer.create (String.length payload + 4) in
  Ftindex.Codec.put_u32 b (String.length payload);
  Buffer.add_string b payload;
  translate (fun () -> write_all_raw ~what:"frame write" limits fd (Buffer.contents b))

(* A frame read in progress: the 4-byte header, then the body it
   announces.  Each step reads no further than the frame's end, so bytes
   after it stay in the socket. *)
type frame_reader = {
  header : Bytes.t;
  mutable body : Bytes.t option;  (** allocated once the header is in *)
  mutable got : int;  (** bytes of the current part *)
  mutable last : float;  (** instant of the last byte received *)
}

let frame_reader () =
  { header = Bytes.create 4; body = None; got = 0; last = now () }

(* The part being read, and its name in a timeout message. *)
let part r =
  match r.body with
  | None -> (r.header, "frame header read")
  | Some b -> (b, "frame read")

(* Read what the (non-blocking) socket holds toward the frame.  [None]:
   the frame is not complete yet and the limits still hold. *)
let step limits r fd =
  let rec go () =
    let buf, what = part r in
    let total = Bytes.length buf in
    if r.got = total then
      match r.body with
      | Some b -> Some (Ok (Bytes.unsafe_to_string b))
      | None ->
          let len =
            Ftindex.Codec.(get_u32 (reader (Bytes.to_string r.header)))
          in
          if len > max_frame then
            Some (Error (Printf.sprintf "oversized frame (%d bytes)" len))
          else begin
            r.body <- Some (Bytes.create len);
            r.got <- 0;
            go ()
          end
    else
      match Unix.read fd buf r.got (total - r.got) with
      | 0 ->
          Some
            (Error
               (match r.body with
               | None -> "connection closed before a frame"
               | Some _ ->
                   Printf.sprintf "torn frame: %d of %d bytes" r.got total))
      | k ->
          r.got <- r.got + k;
          r.last <- now ();
          go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          (* raises [Timeout] once a bound has passed *)
          ignore (budget ~what ~moved:r.got ~total limits r.last);
          None
  in
  go ()

let read_frame_step ?(limits = no_limits) r fd =
  translate (fun () -> step limits r fd)

let read_frame ?(limits = no_limits) ?(reader = frame_reader ()) fd =
  translate (fun () ->
      Unix.set_nonblock fd;
      let rec go () =
        let buf, what = part reader in
        let seconds =
          budget ~what ~moved:reader.got ~total:(Bytes.length buf) limits
            reader.last
        in
        if wait_readable fd seconds then
          match step limits reader fd with Some result -> result | None -> go ()
        else go ()
      in
      go ())

let connect ?(limits = no_limits) path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.set_nonblock fd;
     let rec attempt () =
       match Unix.connect fd (Unix.ADDR_UNIX path) with
       | () -> ()
       | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
           (* finish the handshake: writable + no pending socket error *)
           let rec settle () =
             let seconds = budget ~what:"connect" ~moved:0 ~total:(-1) limits (now ()) in
             if wait_writable fd seconds then
               match Unix.getsockopt_error fd with
               | None -> ()
               | Some e -> raise (Unix.Unix_error (e, "connect", path))
             else settle ()
           in
           settle ()
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
           (* Unix-domain listen backlog full: back off briefly and retry
              until the deadline says otherwise *)
           let seconds = budget ~what:"connect" ~moved:0 ~total:(-1) limits (now ()) in
           Thread.delay (Float.min seconds 0.01);
           attempt ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> attempt ()
     in
     translate attempt
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd
