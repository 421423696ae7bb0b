(* The benchmark program: one workload per process.

     main.exe --workload register|mc|shard|chaos --seed N --seconds S --trace 0|1
              [--spans-out FILE]

   --trace 0 measures the end-to-end metrics of the workload with tracing
   off.  --trace 1 is the separate traced run: the layer ladder, then
   untraced and traced units of the chosen workload (their difference is
   the tracing overhead, and an untraced one gives the workload's net.*,
   collect.* and gc.* metrics), then one traced unit of every other
   workload, so every layer's per-layer metrics and span self times are on
   record whichever workload was traced.

   The last line of standard output is one JSON object with the metrics,
   the deterministic work counters, the correctness verdict and the run's
   environment. *)

open Common

type wl = Register | Mc | Shard | Chaos

let workloads = [ ("register", Register); ("mc", Mc); ("shard", Shard); ("chaos", Chaos) ]

let end_to_end o wl ~seed ~seconds =
  (match wl with
  | Register -> Wl_register.end_to_end o ~seed ~seconds
  | Mc -> Wl_mc.end_to_end o ~seed ~seconds
  | Shard -> Wl_shard.end_to_end o ~seed ~seconds
  | Chaos -> Wl_chaos.end_to_end o ~seed ~seconds);
  metric o "top_heap_mb" "MB" !first_round_heap_mb

(* The span names of every workload's traced unit; each one's self time
   is reported, whichever workload was traced. *)
let span_names =
  [
    "register.pair";
    "register.oracle";
    "mc.search";
    "mc.walk";
    "mc.sys.create";
    "mc.sys.enabled";
    "mc.sys.apply";
    "mc.sys.fingerprint";
    "mc.verdict";
    "shard.generate";
    "shard.shard_of";
    "shard.tier_run";
    "chaos.trial";
    "chaos.generate";
    "chaos.run_trial";
    "chaos.stabilization";
  ]

(* One unit of each workload as the traced run executes it. *)
type unit_result = {
  ops : int;  (** completed ops (pairs, walk ops, logical ops, client ops) *)
  work : int;  (** what GC is counted per: [ops], or expanded states for mc *)
  attempted : int;  (** as in the end-to-end run *)
  failed : int;
  traffic : (float * traffic) list;  (** see [Common.net_metrics] *)
  emit : out -> unit;  (** the per-layer metrics of the workload's layers *)
}

let unit_register inputs =
  let r = Wl_register.round inputs in
  let ops = Wl_register.ops r in
  { ops; work = ops; attempted = 2 * ops; failed = Wl_register.failures r;
    traffic = [ (1., Wl_register.traffic r) ];
    emit = (fun o -> Wl_register.correctness o r; Wl_register.per_layer o r) }

let unit_mc inputs ~seed =
  let r = Wl_mc.round inputs in
  let ws = Wl_mc.run_walks ~seed in
  let stats = r.Wl_mc.outcome.Mc.Checker.stats in
  { ops = Wl_mc.walk_ops ws; work = stats.states;
    attempted = stats.terminals + Wl_mc.walks;
    failed = List.length (List.filter (fun (w : Wl_mc.walk) -> w.violating) ws);
    traffic = [ (1., Wl_mc.walks_traffic ws) ];
    emit = (fun o -> Wl_mc.correctness o r; Wl_mc.per_layer o r) }

let unit_shard inputs =
  let inputs, r = Wl_shard.traced_round inputs in
  let ops = Wl_shard.ops r in
  { ops; work = ops; attempted = ops; failed = Wl_shard.failures r;
    traffic = Wl_shard.samples r;
    emit = (fun o -> Wl_shard.correctness o r; Wl_shard.per_layer o inputs r) }

let unit_chaos inputs =
  let r = Wl_chaos.traced_round inputs in
  let ops = Wl_chaos.ops r in
  { ops; work = ops; attempted = Wl_chaos.trials * Wl_chaos.ops_per_trial;
    failed = Wl_chaos.failures r; traffic = [ (1., Wl_chaos.traffic r) ];
    emit = (fun o -> Wl_chaos.per_layer o inputs r) }

let traced o wl ~seed =
  Ladder.per_layer o ~seed;
  let reg = Wl_register.setup ~seed
  and mc = Wl_mc.setup ~seed
  and shard = Wl_shard.setup ~seed
  and chaos = Wl_chaos.setup ~seed in
  let unit_of = function
    | Register -> fun () -> unit_register reg
    | Mc -> fun () -> unit_mc mc ~seed
    | Shard -> fun () -> unit_shard shard
    | Chaos -> fun () -> unit_chaos chaos
  in
  (* The chosen workload: a warm-up unit, then untraced and traced units
     alternately, twice; the first untraced unit gives traffic and GC, the
     last traced one the spans. *)
  let run = unit_of wl in
  ignore (run ());
  let st0 = Gc.quick_stat () in
  let u, u1 = time run in
  let st1 = Gc.quick_stat () in
  o.attempted <- u.attempted;
  o.failed <- u.failed;
  net_metrics o u.traffic ~ops:u.ops;
  metric o "gc.minor_words_per_op" "words"
    ((st1.Gc.minor_words -. st0.Gc.minor_words) /. float_of_int u.work);
  metric o "gc.major_collections" "count"
    (float_of_int (st1.Gc.major_collections - st0.Gc.major_collections));
  let traced_unit () =
    Span.reset ();
    Span.enabled := true;
    let r = time run in
    Span.enabled := false;
    r
  in
  let _, t1 = traced_unit () in
  let _, u2 = time run in
  let u, t2 = traced_unit () in
  let untraced_s = (u1 +. u2) /. 2. and traced_s = (t1 +. t2) /. 2. in
  Span.enabled := true;
  u.emit o;
  List.iter (fun (_, w) -> if w <> wl then (unit_of w ()).emit o) workloads;
  Span.enabled := false;
  metric o "trace.overhead_ms" "ms" ((traced_s -. untraced_s) *. 1e3);
  metric o "trace.overhead_share" "share" ((traced_s -. untraced_s) /. untraced_s);
  metric o "trace.spans" "count" (float_of_int (Span.count ()));
  List.iter
    (fun name ->
      let _, _, self = Span.find name in
      metric o ("self_ms." ^ name) "ms" (self *. 1e3))
    span_names

let json_of_out o ~workload ~seed ~seconds ~trace =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool (o.problems = []));
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ( "metrics",
        Obj
          (List.rev_map
             (fun (name, value, unit_) -> (name, Obj [ ("value", Float value); ("unit", Str unit_) ]))
             o.metrics) );
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) o.counters));
      ("problems", List (List.rev_map (fun s -> Str s) o.problems));
      ( "run",
        Obj
          ([
             ("workload", Str workload);
             ("seed", Int seed);
             ("seconds", Float seconds);
             ("trace", Int trace);
             ("ocaml", Str Sys.ocaml_version);
             ("word_size", Int Sys.word_size);
           ]
          @ List.rev o.info) );
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " register | mc | shard | chaos");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " wall seconds to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer run");
      ("--spans-out", Arg.Set_string spans_out, " with --trace 1, write the spans here (JSONL)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let o = create_out () in
  (match !trace with
  | 0 -> end_to_end o wl ~seed:!seed ~seconds:!seconds
  | 1 ->
    traced o wl ~seed:!seed;
    if !spans_out <> "" then Span.write !spans_out
  | t ->
    prerr_endline (Printf.sprintf "--trace must be 0 or 1, not %d" t);
    exit 2);
  print_endline
    (Obs.Json.to_string
       (json_of_out o ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace))
