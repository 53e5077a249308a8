(* The daemons' Prometheus text exposition, reduced to what the benchmark
   needs: series values and their change across a measurement window. *)

type t = (string * float) list
(** [(series, value)], where [series] is the metric name with its label
    set exactly as exposed, e.g. [foo_sum{strategy="materialized"}]. *)

let parse text : t =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
               let series = String.trim (String.sub line 0 i) in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some f -> Some (series, f)
               | None -> None))

let metric_name series =
  match String.index_opt series '{' with
  | Some i -> String.sub series 0 i
  | None -> series

(* after - before per series; a series absent before counts from 0. *)
let delta ~before ~after : t =
  List.map
    (fun (series, v) ->
      (series, v -. Option.value ~default:0.0 (List.assoc_opt series before)))
    after

(* Sum over every label set of one metric name. *)
let total (t : t) name =
  List.fold_left
    (fun acc (series, v) -> if metric_name series = name then acc +. v else acc)
    0.0 t
