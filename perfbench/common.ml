(* Shared plumbing of the benchmark: wall clock, order statistics, the
   in-memory span recorder of the traced run, and the result record every
   workload fills in. *)

let now = Unix.gettimeofday

(* --- order statistics ------------------------------------------------ *)

(* Linear interpolation between closest ranks (the numpy default), so a
   p99 over fewer than 100 samples lands between the two largest rather
   than snapping to the maximum. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((a.(j) -. a.(i)) *. (pos -. float_of_int i))

let median xs = quantile xs 0.5

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Rounds repeat the same ops in the same order; each op's cost is its
   median over the rounds, which keeps one-off pauses (a major GC slice,
   a preempted time slice) out of the per-op percentiles. *)
let per_op_medians rounds =
  match rounds with
  | [] -> []
  | first :: _ ->
    let cols = Array.of_list (List.map Array.of_list rounds) in
    List.mapi (fun i _ -> median (Array.to_list (Array.map (fun c -> c.(i)) cols))) first

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Failures are reported add-one smoothed: a run without failures reads
   1/(attempted+1) instead of 0, so the value is never 0, and the first
   failure at least doubles it, which every bound catches. *)
let failed_share ~failed ~attempted =
  float_of_int (failed + 1) /. float_of_int (attempted + 1)

(* --- timed repetition ------------------------------------------------- *)

let top_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The peak heap after set-up and the first round: a fixed amount of work,
   whereas how many rounds fit in a run varies with the machine. *)
let first_round_heap_mb = ref 0.

(* Run [round ()] until [seconds] of wall time have passed and at least
   [min] rounds ran.  Rounds repeat identical inputs, so their
   deterministic outputs must agree (checked by the caller). *)
let repeat ~seconds ~min round =
  let t0 = now () in
  let rec go i acc =
    if i >= min && now () -. t0 >= seconds then List.rev acc
    else begin
      let r = round () in
      if i = 0 then first_round_heap_mb := top_heap_mb ();
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- spans of the traced run ------------------------------------------ *)

module Span = struct
  type t = {
    id : int;
    parent : int;  (** 0 for a root span *)
    trace : int;  (** shared by a root and all its descendants *)
    name : string;
    t0 : float;
    mutable t1 : float;
  }

  let enabled = ref false

  let recorded : t list ref = ref []

  let stack : t list ref = ref []

  let next_id = ref 0

  let next_trace = ref 0

  let record name f =
    if not !enabled then f ()
    else begin
      incr next_id;
      let parent, trace =
        match !stack with
        | p :: _ -> (p.id, p.trace)
        | [] ->
          incr next_trace;
          (0, !next_trace)
      in
      let s = { id = !next_id; parent; trace; name; t0 = now (); t1 = nan } in
      stack := s :: !stack;
      let finish () =
        s.t1 <- now ();
        (stack := match !stack with _ :: rest -> rest | [] -> []);
        recorded := s :: !recorded
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let reset () =
    recorded := [];
    stack := [];
    next_id := 0;
    next_trace := 0

  let duration s = s.t1 -. s.t0

  let count () = List.length !recorded

  (* Per span name: (calls, total seconds, self seconds), where self time
     is the span's duration minus the time its direct children cover. *)
  let summary () =
    let covered = Hashtbl.create 4096 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          let c = Option.value ~default:0. (Hashtbl.find_opt covered s.parent) in
          Hashtbl.replace covered s.parent (c +. duration s))
      !recorded;
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
        in
        let n, tot, sf =
          Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
        in
        Hashtbl.replace by_name s.name (n + 1, tot +. duration s, sf +. self))
      !recorded;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let find name =
    match List.assoc_opt name (summary ()) with
    | Some v -> v
    | None -> (0, 0., 0.)

  (* One JSON object per span, oldest first, times in microseconds from
     the first span's start. *)
  let write path =
    let spans = List.rev !recorded in
    let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f}\n"
          s.id s.parent s.trace s.name
          ((s.t0 -. origin) *. 1e6)
          ((s.t1 -. origin) *. 1e6))
      spans;
    close_out oc
end

(* --- results ----------------------------------------------------------- *)

type out = {
  mutable problems : string list;  (** incorrect outputs; empty when correct *)
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable counters : (string * int) list;  (** deterministic work counts *)
  mutable info : (string * Obs.Json.t) list;
}

let create_out () =
  { problems = []; attempted = 0; failed = 0; metrics = []; counters = []; info = [] }

let metric o name unit_ value = o.metrics <- (name, value, unit_) :: o.metrics

let problem o fmt = Printf.ksprintf (fun s -> o.problems <- s :: o.problems) fmt

let check o cond fmt =
  Printf.ksprintf (fun s -> if not cond then o.problems <- s :: o.problems) fmt

let info o key v = o.info <- (key, v) :: o.info

let info_times o key xs = info o key (Obs.Json.List (List.map (fun x -> Obs.Json.Float x) xs))

(* The deterministic counters of every repeated round must equal those of
   the first; a mismatch is an incorrect output. *)
let same_counters o ~what rounds =
  match rounds with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i c ->
        if c <> first then problem o "%s: round %d counters differ from round 0" what (i + 1))
      rest

(* Message counters of one engine's metrics registry, by class. *)
let classes = Obs.Event.all_classes

let sent_count metrics cls =
  Obs.Metrics.counter metrics
    (Printf.sprintf "msg.sent.%s.count" (Obs.Event.class_name cls))

let sent_bytes metrics cls =
  Obs.Metrics.counter metrics
    (Printf.sprintf "msg.sent.%s.bytes" (Obs.Event.class_name cls))

let sent_total metrics =
  List.fold_left (fun acc c -> acc + sent_count metrics c) 0 classes

(* Traffic of one or more deployments, summed: per-class messages, bytes,
   ss-broadcasts and collection retries. *)
type traffic = {
  per_class : (Obs.Event.msg_class * int) list;
  bytes : int;
  broadcasts : int;
  retries : int;
}

let traffic_of metrics_list =
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 metrics_list in
  {
    per_class = List.map (fun c -> (c, sum (fun m -> sent_count m c))) classes;
    bytes = sum (fun m -> List.fold_left (fun a c -> a + sent_bytes m c) 0 classes);
    broadcasts = sum (fun m -> Obs.Metrics.counter m "ss.broadcasts");
    retries = sum (fun m -> Obs.Metrics.counter m "collect.retries");
  }

let sum_traffic ts =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  {
    per_class =
      List.map (fun c -> (c, sum (fun t -> List.assoc c t.per_class))) classes;
    bytes = sum (fun t -> t.bytes);
    broadcasts = sum (fun t -> t.broadcasts);
    retries = sum (fun t -> t.retries);
  }

let traffic_msgs t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.per_class

let traffic_counters ~prefix t =
  List.map
    (fun (c, n) -> (Printf.sprintf "%s.msgs.%s" prefix (Obs.Event.class_name c), n))
    t.per_class
  @ [
      (prefix ^ ".bytes", t.bytes);
      (prefix ^ ".broadcasts", t.broadcasts);
      (prefix ^ ".retries", t.retries);
    ]

(* The net.* per-layer metrics: traffic per workload op.  Traffic comes in
   parts, each scaled by how much of the workload its sample stands for
   (1 unless only one deployment of several is observable). *)
let net_metrics o parts ~ops =
  let per f =
    List.fold_left (fun acc (scale, t) -> acc +. (scale *. float_of_int (f t))) 0. parts
    /. float_of_int (max 1 ops)
  in
  metric o "net.broadcasts_per_op" "count" (per (fun t -> t.broadcasts));
  metric o "net.bytes_per_op" "bytes" (per (fun t -> t.bytes));
  List.iter
    (fun c ->
      metric o
        (Printf.sprintf "net.%s_per_op" (Obs.Event.class_name c))
        "count"
        (per (fun t -> List.assoc c t.per_class)))
    classes;
  metric o "collect.retries_per_op" "count" (per (fun t -> t.retries))
