(* Dewey labels identify nodes by the path of child ranks from the document
   root, e.g. [1; 3; 1; 1] prints as "1.3.1.1".  GalaTex (Section 3.2.1) uses
   Dewey numbers both as TokenInfo identifiers and to decide containment of a
   word position in an evaluation-context node, which only needs the
   prefix/order structure implemented here. *)

type t = int list

let root : t = [ 1 ]
let is_root = function [ 1 ] -> true | _ -> false

let of_list steps =
  if steps = [] then invalid_arg "Dewey.of_list: empty label";
  List.iter (fun s -> if s < 1 then invalid_arg "Dewey.of_list: step < 1") steps;
  steps

let to_list (d : t) : int list = d

let child (d : t) rank : t =
  if rank < 1 then invalid_arg "Dewey.child: rank < 1";
  d @ [ rank ]

let parent (d : t) : t option =
  match List.rev d with
  | [] | [ _ ] -> None
  | _ :: rev_init -> Some (List.rev rev_init)

let depth = List.length

let rec compare (a : t) (b : t) =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a', y :: b' -> if x <> y then Stdlib.compare x y else compare a' b'

let equal a b = compare a b = 0

(* [is_prefix a b] holds when [a] is an ancestor-or-self label of [b]. *)
let rec is_prefix (a : t) (b : t) =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> x = y && is_prefix a' b'

let is_ancestor a b = is_prefix a b && List.length a < List.length b
let contains = is_prefix

let to_string d = String.concat "." (List.map string_of_int d)

let of_string s =
  if s = "" then invalid_arg "Dewey.of_string: empty string";
  let parts = String.split_on_char '.' s in
  of_list
    (List.map
       (fun p ->
         match int_of_string_opt p with
         | Some n -> n
         | None -> invalid_arg ("Dewey.of_string: bad component " ^ p))
       parts)

let pp ppf d = Fmt.string ppf (to_string d)
