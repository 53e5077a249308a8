(* Random full-text selections, as query source text, for the property
   tests.  Each caller picks the vocabulary, the match options a leaf may
   carry, the leaf's weight and the operators that compose selections, each
   with its weight and, where it takes a count, the range drawn from.
   Operators nest [depth] deep (default 2). *)

type op =
  | And
  | Or
  | Not  (** negates a leaf *)
  | Ordered
  | Same_sentence
  | Same_paragraph
  | Window of int * int  (** window size range, in words *)
  | Distance of int * int  (** "at most" bound range, in words *)
  | Occurs of int * int  (** "at least" count range *)
  | Occurs_exactly of int * int  (** "exactly" count range *)
  | Occurs_at_most of int * int  (** "at most" count range *)
  | Not_in  (** mild negation, [S1 not in S2] *)
  | Anchor  (** one of [at start], [at end], [entire content] *)

let selection ?(depth = 2) ~words ~options ~leaf_weight ops =
  let open QCheck2.Gen in
  let leaf =
    map2 (fun w o -> Printf.sprintf "\"%s\"%s" w o) (oneofl words) (oneofl options)
  in
  let rec sel depth =
    if depth = 0 then leaf
    else
      let sub = sel (depth - 1) in
      let compose = function
        | And -> map2 (Printf.sprintf "(%s && %s)") sub sub
        | Or -> map2 (Printf.sprintf "(%s || %s)") sub sub
        | Not -> map (Printf.sprintf "(! %s)") leaf
        | Ordered -> map (Printf.sprintf "(%s ordered)") sub
        | Same_sentence -> map (Printf.sprintf "(%s same sentence)") sub
        | Same_paragraph -> map (Printf.sprintf "(%s same paragraph)") sub
        | Window (lo, hi) ->
            map2 (Printf.sprintf "(%s window %d words)") sub (int_range lo hi)
        | Distance (lo, hi) ->
            map2 (Printf.sprintf "(%s distance at most %d words)") sub (int_range lo hi)
        | Occurs (lo, hi) ->
            map2 (Printf.sprintf "(%s occurs at least %d times)") sub (int_range lo hi)
        | Occurs_exactly (lo, hi) ->
            map2 (Printf.sprintf "(%s occurs exactly %d times)") sub (int_range lo hi)
        | Occurs_at_most (lo, hi) ->
            map2 (Printf.sprintf "(%s occurs at most %d times)") sub (int_range lo hi)
        | Not_in -> map2 (Printf.sprintf "(%s not in %s)") sub sub
        | Anchor ->
            map2 (Printf.sprintf "(%s %s)") sub
              (oneofl [ "at start"; "at end"; "entire content" ])
      in
      frequency ((leaf_weight, leaf) :: List.map (fun (w, op) -> (w, compose op)) ops)
  in
  sel depth
