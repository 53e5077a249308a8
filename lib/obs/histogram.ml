(* Latency histogram with fixed log-spaced buckets (see histogram.mli).

   Buckets are atomics, so concurrent observers never lock; the sum is
   accumulated in integer nanoseconds because [Atomic.fetch_and_add] only
   exists for ints — exact for every latency a daemon will ever see. *)

type t = {
  bounds : float array;  (** upper bounds in seconds, ascending *)
  buckets : int Atomic.t array;  (** length [bounds] + 1; last = +Inf *)
  sum_ns : int Atomic.t;
  total : int Atomic.t;
}

(* 1-2.5-5 per decade from 100 us to 10 s: log-spaced, fixed, and small
   enough to ship in a Prometheus exposition without pagination. *)
let default_bounds =
  [|
    0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1;
    0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
  |]

let create ?(bounds = default_bounds) () =
  let bounds = Array.copy bounds in
  Array.sort compare bounds;
  {
    bounds;
    buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
    sum_ns = Atomic.make 0;
    total = Atomic.make 0;
  }

let bucket_index t v =
  let n = Array.length t.bounds in
  let rec go i = if i >= n || v <= t.bounds.(i) then i else go (i + 1) in
  go 0

let observe t v =
  let v = if Float.is_finite v && v > 0.0 then v else 0.0 in
  Atomic.incr t.buckets.(bucket_index t v);
  ignore (Atomic.fetch_and_add t.sum_ns (int_of_float (v *. 1e9)));
  Atomic.incr t.total

let count t = Atomic.get t.total
let sum t = float_of_int (Atomic.get t.sum_ns) /. 1e9

(* Prometheus-style cumulative buckets: (upper bound, observations <= it),
   ending with (infinity, total). *)
let cumulative t =
  let acc = ref 0 in
  let below =
    Array.to_list
      (Array.mapi
         (fun i b ->
           acc := !acc + Atomic.get t.buckets.(i);
           (b, !acc))
         t.bounds)
  in
  below @ [ (infinity, count t) ]

(* Exact rank ceil(p·n/100): [p *. n] is formed before the division so
   whole-percent ranks stay exact (0.95 *. 20. is not 19.). *)
let nearest_rank sorted p =
  match Array.length sorted with
  | 0 -> Float.nan
  | n ->
      let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
