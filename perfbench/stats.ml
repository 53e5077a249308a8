(* Order statistics for the benchmark's metrics.  One estimator
   everywhere: nearest rank, so every reported percentile is a latency
   that some request actually saw. *)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest rank on an ascending array: the smallest sample with at least
   [p] percent of the samples at or below it.  [p *. n] is formed before
   the division so whole-percent ranks stay exact (0.95 *. 20. is not
   19.). *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = nearest_rank (sorted_copy xs) p
let median xs = percentile xs 50.0

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Samples strictly above the [p]-th percentile's rank: the tail that
   backs the estimate.  A p95 over fewer than 10 of them is noise. *)
let beyond n p =
  n - int_of_float (Float.ceil (p *. float_of_int n /. 100.0))
