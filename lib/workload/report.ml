(* Per-scenario replay results and their JSON form.

   The writer is Printf-built like every other BENCH_*.json emitter; the
   reader (for the gate) goes through Jsonlite.  [of_json (to_json ...)]
   round-trips every gated field. *)

type scenario = {
  name : string;
  requests : int;
  rate : float;
  concurrency : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  full : int;
  partial : int;
  shed : int;
  error : int;
  counters : (string * int) list;
  replica_lag : int option;
  gate : (string * float) list;
      (** per-scenario tolerance overrides, e.g. [("p99_ratio", 2.0)] —
          normally empty; hand-edited into baselines where a scenario
          needs more headroom than {!Gate.default} *)
}

let issued s = s.full + s.partial + s.shed + s.error
let rate_of part s = float_of_int part /. float_of_int (max 1 (issued s))
let shed_rate s = rate_of s.shed s
let error_rate s = rate_of s.error s

let of_replay ~name ~rate ~concurrency ?(counters = []) ?replica_lag
    (r : Replay.result) =
  let p = Obs.Histogram.nearest_rank r.latencies_sorted_ms in
  {
    name;
    requests = r.issued;
    rate;
    concurrency;
    p50_ms = p 50.0;
    p95_ms = p 95.0;
    p99_ms = p 99.0;
    full = r.counts.full;
    partial = r.counts.partial;
    shed = r.counts.shed;
    error = r.counts.error;
    counters;
    replica_lag;
    gate = [];
  }

let scenario_json s =
  let counters_json =
    String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": %d" (Jsonlite.escape k) v)
         s.counters)
  in
  let gate_json =
    match s.gate with
    | [] -> ""
    | overrides ->
        Printf.sprintf ",\n      \"gate\": { %s }"
          (String.concat ", "
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "\"%s\": %g" (Jsonlite.escape k) v)
                overrides))
  in
  Printf.sprintf
    "{\n\
    \      \"name\": \"%s\",\n\
    \      \"requests\": %d,\n\
    \      \"rate_per_s\": %g,\n\
    \      \"concurrency\": %d,\n\
    \      \"p50_ms\": %.3f,\n\
    \      \"p95_ms\": %.3f,\n\
    \      \"p99_ms\": %.3f,\n\
    \      \"full\": %d,\n\
    \      \"partial\": %d,\n\
    \      \"shed\": %d,\n\
    \      \"error\": %d,\n\
    \      \"replica_lag\": %s,\n\
    \      \"counters\": { %s }%s\n\
    \    }"
    (Jsonlite.escape s.name) s.requests s.rate s.concurrency s.p50_ms s.p95_ms
    s.p99_ms s.full s.partial s.shed s.error
    (match s.replica_lag with Some l -> string_of_int l | None -> "null")
    counters_json gate_json

let to_json ?(meta = []) scenarios =
  let meta_json =
    String.concat ""
      (List.map
         (fun (k, v) ->
           Printf.sprintf "  \"%s\": \"%s\",\n" (Jsonlite.escape k)
             (Jsonlite.escape v))
         meta)
  in
  Printf.sprintf "{\n%s  \"scenarios\": [\n    %s\n  ]\n}\n" meta_json
    (String.concat ",\n    " (List.map scenario_json scenarios))

(* ------------------------------------------------------------ reading *)

let num_field obj key =
  match Option.bind (Jsonlite.member key obj) Jsonlite.to_float with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing numeric field %S" key)

let ( let* ) = Result.bind

let scenario_of_json obj =
  let* name =
    match Option.bind (Jsonlite.member "name" obj) Jsonlite.to_string with
    | Some n -> Ok n
    | None -> Error "scenario without a \"name\""
  in
  let err msg = Printf.sprintf "scenario %S: %s" name msg in
  let* requests = Result.map_error err (num_field obj "requests") in
  let* rate = Result.map_error err (num_field obj "rate_per_s") in
  let* concurrency = Result.map_error err (num_field obj "concurrency") in
  let* p50_ms = Result.map_error err (num_field obj "p50_ms") in
  let* p95_ms = Result.map_error err (num_field obj "p95_ms") in
  let* p99_ms = Result.map_error err (num_field obj "p99_ms") in
  let* full = Result.map_error err (num_field obj "full") in
  let* partial = Result.map_error err (num_field obj "partial") in
  let* shed = Result.map_error err (num_field obj "shed") in
  let* error = Result.map_error err (num_field obj "error") in
  let replica_lag =
    match Jsonlite.member "replica_lag" obj with
    | Some (Jsonlite.Num f) -> Some (int_of_float f)
    | _ -> None
  in
  let counters =
    match Jsonlite.member "counters" obj with
    | Some (Jsonlite.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            Option.map (fun f -> (k, int_of_float f)) (Jsonlite.to_float v))
          fields
    | _ -> []
  in
  let gate =
    match Jsonlite.member "gate" obj with
    | Some (Jsonlite.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Jsonlite.to_float v))
          fields
    | _ -> []
  in
  Ok
    {
      name;
      requests = int_of_float requests;
      rate;
      concurrency = int_of_float concurrency;
      p50_ms;
      p95_ms;
      p99_ms;
      full = int_of_float full;
      partial = int_of_float partial;
      shed = int_of_float shed;
      error = int_of_float error;
      counters;
      replica_lag;
      gate;
    }

let of_json text =
  let* root = Jsonlite.parse text in
  let* scenarios =
    match Option.bind (Jsonlite.member "scenarios" root) Jsonlite.to_list with
    | Some l -> Ok l
    | None -> Error "no \"scenarios\" array at the top level"
  in
  List.fold_left
    (fun acc obj ->
      let* scenarios = acc in
      let* s = scenario_of_json obj in
      Ok (s :: scenarios))
    (Ok []) scenarios
  |> Result.map List.rev
