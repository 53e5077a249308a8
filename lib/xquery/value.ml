open Xmlkit

(* The XQuery data model (XDM) fragment the engine operates on: sequences of
   items, where an item is a node or an atomic value.  Untyped atomics from
   atomization are represented as strings and promoted to numbers on demand,
   which matches untyped-data semantics closely enough for the queries the
   paper's translation scheme produces. *)

type item =
  | Node of Node.t
  | Boolean of bool
  | Integer of int
  | Double of float
  | String of string

type t = item list

(* Type errors are structured Errors.Error values with code XPTY0004;
   arithmetic on zero divisors uses FOAR0001 below. *)
let type_error fmt = Errors.raise_error Errors.XPTY0004 fmt

let empty : t = []
let of_item i : t = [ i ]
let of_nodes ns : t = List.map (fun n -> Node n) ns
let boolean b : t = [ Boolean b ]
let integer i : t = [ Integer i ]
let double f : t = [ Double f ]
let string s : t = [ String s ]

let item_kind = function
  | Node _ -> "node"
  | Boolean _ -> "boolean"
  | Integer _ -> "integer"
  | Double _ -> "double"
  | String _ -> "string"

(* --- atomization --- *)

let atomize_item = function
  | Node n -> String (Node.string_value n)
  | atomic -> atomic

let atomize (v : t) : t = List.map atomize_item v

(* --- casts --- *)

let float_of_string_xq s =
  match String.trim s with
  | "INF" -> Some infinity
  | "-INF" -> Some neg_infinity
  | "NaN" -> Some nan
  | s -> float_of_string_opt s

let item_to_double item =
  match atomize_item item with
  | Integer i -> float_of_int i
  | Double d -> d
  | Boolean b -> if b then 1.0 else 0.0
  | String s -> (
      match float_of_string_xq s with
      | Some f -> f
      | None -> nan)
  | Node _ -> assert false

let item_to_string item =
  match atomize_item item with
  | String s -> s
  | Integer i -> string_of_int i
  | Double d ->
      if Float.is_integer d && Float.abs d < 1e15 && Float.is_finite d then
        (* serialize whole doubles without a trailing ".", as XQuery does *)
        Printf.sprintf "%.0f" d
      else if Float.is_nan d then "NaN"
      else if d = infinity then "INF"
      else if d = neg_infinity then "-INF"
      else string_of_float d
  | Boolean b -> if b then "true" else "false"
  | Node _ -> assert false

let to_singleton name (v : t) =
  match v with
  | [ item ] -> item
  | [] -> type_error "%s: empty sequence where a single item is required" name
  | _ -> type_error "%s: sequence of %d items where one is required" name (List.length v)

let to_string_single v = item_to_string (to_singleton "string value" v)

let to_number v = item_to_double (to_singleton "number value" v)

let to_node name = function
  | Node n -> n
  | item -> type_error "%s: expected a node, got a %s" name (item_kind item)

let nodes_of name (v : t) = List.map (to_node name) v

(* --- effective boolean value (XQuery 1.0, 2.4.3) --- *)

let effective_boolean_value (v : t) =
  match v with
  | [] -> false
  | Node _ :: _ -> true
  | [ Boolean b ] -> b
  | [ String s ] -> s <> ""
  | [ Integer i ] -> i <> 0
  | [ Double d ] -> not (d = 0.0 || Float.is_nan d)
  | _ -> type_error "effective boolean value of a multi-item atomic sequence"

(* --- comparisons --- *)

let is_numeric_item = function
  | Integer _ | Double _ -> true
  | String s -> float_of_string_xq s <> None && String.trim s <> ""
  | _ -> false

(* Compare two atomized items, numerically when either side is numeric
   (untyped data promotes to double in general comparisons over untyped
   content, the common case for this engine). *)
let compare_items a b =
  let a = atomize_item a and b = atomize_item b in
  match (a, b) with
  | Boolean x, Boolean y -> compare x y
  | Integer x, Integer y -> compare x y
  | (Integer _ | Double _), (Integer _ | Double _) ->
      compare (item_to_double a) (item_to_double b)
  | (Integer _ | Double _), String _ | String _, (Integer _ | Double _) ->
      compare (item_to_double a) (item_to_double b)
  | String x, String y ->
      if is_numeric_item a && is_numeric_item b then
        compare (item_to_double a) (item_to_double b)
      else compare x y
  | Boolean _, _ | _, Boolean _ ->
      type_error "cannot compare a boolean with a non-boolean"
  | Node _, _ | _, Node _ -> assert false

type comparison = Eq | Ne | Lt | Le | Gt | Ge

let holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* General comparison: existential over both sequences. *)
let general_compare cmp (a : t) (b : t) =
  let a = atomize a and b = atomize b in
  List.exists
    (fun x -> List.exists (fun y -> holds cmp (compare_items x y)) b)
    a

(* Value comparison (eq, ne, lt, ...): both sides singletons (empty gives
   empty, represented as false here since callers need a boolean). *)
let value_compare cmp (a : t) (b : t) =
  match (atomize a, atomize b) with
  | [], _ | _, [] -> None
  | [ x ], [ y ] -> Some (holds cmp (compare_items x y))
  | _ -> type_error "value comparison requires singleton operands"

(* --- sequences of nodes --- *)

(* Most step results are already strictly in document order (one context
   node, or downward steps over disjoint trees in tree-id order): one
   allocation-free pass finds that out, and only the rest are sorted. *)
let rec ascending_after prev = function
  | [] -> true
  | Node n :: rest -> Node.compare_order prev n < 0 && ascending_after n rest
  | _ -> false

let document_order_dedup (v : t) : t =
  match v with
  | [] -> v
  | Node n :: rest when ascending_after n rest -> v
  | _ ->
      let nodes = nodes_of "path step" v in
      of_nodes (List.sort_uniq Node.compare_order nodes)

let is_all_nodes (v : t) =
  List.for_all (function Node _ -> true | _ -> false) v

(* --- arithmetic --- *)

type arith = Add | Sub | Mul | Div | Idiv | Mod

let arith op (a : t) (b : t) : t =
  match (atomize a, atomize b) with
  | [], _ | _, [] -> []
  | [ x ], [ y ] -> (
      match (op, atomize_item x, atomize_item y) with
      | Add, Integer i, Integer j -> integer (i + j)
      | Sub, Integer i, Integer j -> integer (i - j)
      | Mul, Integer i, Integer j -> integer (i * j)
      | Idiv, Integer i, Integer j ->
          if j = 0 then
            Errors.raise_error Errors.FOAR0001 "integer division by zero"
          else integer (i / j)
      | Mod, Integer i, Integer j ->
          if j = 0 then Errors.raise_error Errors.FOAR0001 "modulus by zero"
          else integer (i mod j)
      | _ ->
          let fx = item_to_double x and fy = item_to_double y in
          let r =
            match op with
            | Add -> fx +. fy
            | Sub -> fx -. fy
            | Mul -> fx *. fy
            | Div -> fx /. fy
            | Idiv ->
                if fy = 0.0 then
                  Errors.raise_error Errors.FOAR0001 "integer division by zero"
                else Float.of_int (int_of_float (fx /. fy))
            | Mod -> Float.rem fx fy
          in
          double r)
  | _ -> type_error "arithmetic on non-singleton sequences"

let pp_item ppf = function
  | Node n -> Fmt.string ppf (Printer.to_string n)
  | Boolean b -> Fmt.bool ppf b
  | Integer i -> Fmt.int ppf i
  | Double d -> Fmt.string ppf (item_to_string (Double d))
  | String s -> Fmt.string ppf s

let pp ppf (v : t) = Fmt.(list ~sep:(any ", ") pp_item) ppf v

let to_display_string (v : t) =
  String.concat " " (List.map (fun i -> Fmt.str "%a" pp_item i) v)
