let schema_version = "stabreg/run-report/v1"

type op_summary = {
  count : int;
  mean : float;
  min : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

type msg_stats = { sent : int; recv : int; bytes : int }

type t = {
  experiment : string;
  seed : int;
  mutable params : (int * int * string) option;
  mutable messages : (string * msg_stats) list; (* insertion order *)
  mutable ops : (string * op_summary) list;
  mutable stabilization : int option;
  mutable counters : (string * int) list;
  mutable extra : (string * Json.t) list;
}

let create ~experiment ~seed =
  {
    experiment;
    seed;
    params = None;
    messages = [];
    ops = [];
    stabilization = None;
    counters = [];
    extra = [];
  }

let experiment t = t.experiment

let set_params t ~n ~f ~mode = t.params <- Some (n, f, mode)

let has_params t = t.params <> None

let set_stabilization t ticks = t.stabilization <- Some ticks

let add_message_class t ~name ~sent ~recv ~bytes =
  t.messages <- t.messages @ [ (name, { sent; recv; bytes }) ]

let add_op_summary t ~name s = t.ops <- t.ops @ [ (name, s) ]

let op_summary_of_histogram h =
  {
    count = Metrics.hist_count h;
    mean = Metrics.hist_mean h;
    min = Metrics.hist_min h;
    p50 = Metrics.quantile h 0.5;
    p90 = Metrics.quantile h 0.9;
    p95 = Metrics.quantile h 0.95;
    p99 = Metrics.quantile h 0.99;
    p999 = Metrics.quantile h 0.999;
    max = Metrics.hist_max h;
  }

let set_counters t cs = t.counters <- cs

let add_extra t key v = t.extra <- t.extra @ [ (key, v) ]

let op_summary_to_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("min", Json.Float s.min);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p95", Json.Float s.p95);
      ("p99", Json.Float s.p99);
      ("p999", Json.Float s.p999);
      ("max", Json.Float s.max);
    ]

let to_json t =
  let n, f, mode =
    match t.params with Some p -> p | None -> (0, 0, "unset")
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("experiment", Json.Str t.experiment);
      ("seed", Json.Int t.seed);
      ( "params",
        Json.Obj
          [ ("n", Json.Int n); ("f", Json.Int f); ("mode", Json.Str mode) ] );
      ( "messages",
        Json.Obj
          (List.map
             (fun (name, (m : msg_stats)) ->
               ( name,
                 Json.Obj
                   [
                     ("sent", Json.Int m.sent);
                     ("recv", Json.Int m.recv);
                     ("bytes", Json.Int m.bytes);
                   ] ))
             t.messages) );
      ( "ops",
        Json.Obj
          (List.map (fun (name, s) -> (name, op_summary_to_json s)) t.ops) );
      ( "stabilization_time",
        match t.stabilization with Some d -> Json.Int d | None -> Json.Null );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
      ("extra", Json.Obj t.extra);
    ]

(* --- schema validation --- *)

open Json.Decode

let validate_op_summary ctx j =
  let* _ = as_obj ctx j in
  let* _ = int_field ctx "count" j in
  List.fold_left
    (fun acc key ->
      let* () = acc in
      let* _ = float_field ctx key j in
      Ok ())
    (Ok ())
    [ "mean"; "min"; "p50"; "p90"; "p95"; "p99"; "p999"; "max" ]

let validate_msg_stats ctx j =
  let* _ = as_obj ctx j in
  List.fold_left
    (fun acc key ->
      let* () = acc in
      let* _ = int_field ctx key j in
      Ok ())
    (Ok ()) [ "sent"; "recv"; "bytes" ]

(* Validate every member of an object-valued field with [f]. *)
let each_member ctx key f j =
  let* members = obj_field ctx key j in
  List.fold_left
    (fun acc (name, v) ->
      let* () = acc in
      f (key ^ "." ^ name) v)
    (Ok ()) members

let validate j =
  let ctx = "report" in
  let* _ = as_obj ctx j in
  let* _ = check_schema ctx [ schema_version ] j in
  let* _ = str_field ctx "experiment" j in
  let* _ = int_field ctx "seed" j in
  let* params = field ctx "params" j in
  let* _ = as_obj "params" params in
  let* _ = int_field "params" "n" params in
  let* _ = int_field "params" "f" params in
  let* _ = str_field "params" "mode" params in
  let* () = each_member ctx "messages" validate_msg_stats j in
  let* () = each_member ctx "ops" validate_op_summary j in
  let* _ = field ctx "stabilization_time" j in
  let* _ = opt_field ctx "stabilization_time" as_int j in
  each_member ctx "counters"
    (fun ctx v ->
      let* _ = as_int ctx v in
      Ok ())
    j

(* --- file output --- *)

let mkdir_p dir =
  let parts = String.split_on_char '/' dir in
  ignore
    (List.fold_left
       (fun prefix part ->
         if String.equal part "" then
           if String.equal prefix "" then "/" else prefix
         else begin
           let path =
             if String.equal prefix "" then part
             else if String.equal prefix "/" then "/" ^ part
             else prefix ^ "/" ^ part
           in
           (if not (Sys.file_exists path) then
              try Sys.mkdir path 0o755 with Sys_error _ -> ());
           path
         end)
       "" parts)

let write ~dir t =
  mkdir_p dir;
  let path = Filename.concat dir (t.experiment ^ ".json") in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (to_json t));
  output_char oc '\n';
  close_out oc;
  path
