(* Workload [mc]: Mc.Checker.search to an exhaustive verdict on
   swsr-regular, n=4, t=1, one silent Byzantine server, one write and one
   read, read budget 2 -- the only workload where Mc.Sys create/replay/
   fingerprint does the work.  It is exhaustive rather than budget-cut so
   that a reduction (fewer states) shows as well as a faster state.  The
   search explores in its canonical order, so it is the same for every
   seed; the seed drives random walks over the same configuration, which
   give the op-level metrics (latency in model ticks, messages per op,
   first certified read). *)

open Common

let cfg =
  {
    (Mc.Config.default ~family:Mc.Config.Regular) with
    Mc.Config.n = 4;
    f = 1;
    byz = [ (0, Mc.Config.Silent) ];
    writes = 1;
    reads = 1;
    read_budget = 2;
  }

(* The checker test suite's tiny exhaustive config, searched once during
   set-up to warm the checker's code and heap. *)
let warm_cfg = { cfg with Mc.Config.n = 3; f = 0; byz = [] }

let walks = 300

type walk = {
  lat : int list;  (** per-op model ticks, invocation to response *)
  stab : int option;
  ops : int;
  traffic : traffic;
  violating : bool;
}

(* Ticks from the start to the response of the first read the regularity
   oracle certifies.  The walk's single read may overlap the single
   write, so reads are certified from the start rather than from a write's
   completion as in Chaos.Recovery.stabilization. *)
let first_certified_read h =
  let report = Oracles.Regularity.check ~initial_ok:true h in
  let flagged = List.map (fun (v : Oracles.Regularity.violation) -> v.read) report.violations in
  List.find_map
    (fun (op : Oracles.History.op) ->
      if op.ok && not (List.memq op flagged) then Some (Sim.Vtime.to_int op.resp) else None)
    (Oracles.History.reads h)

(* One seeded walk: choose uniformly among the enabled moves until the
   execution is terminal, fingerprinting after every move as the checker
   does, and judge the terminal state. *)
let walk rng =
  Span.record "mc.walk" @@ fun () ->
  let sys = Span.record "mc.sys.create" (fun () -> Mc.Sys.create cfg) in
  let rec go () =
    match Span.record "mc.sys.enabled" (fun () -> Mc.Sys.enabled sys) with
    | [] -> Span.record "mc.verdict" (fun () -> Mc.Checker.terminal_verdict sys)
    | moves ->
      let m = List.nth moves (Sim.Rng.int rng (List.length moves)) in
      ignore (Span.record "mc.sys.apply" (fun () -> Mc.Sys.apply sys m));
      ignore (Span.record "mc.sys.fingerprint" (fun () -> Mc.Sys.fingerprint_raw_ex sys));
      go ()
  in
  let verdict = go () in
  let h = Mc.Sys.history sys in
  let ops = Oracles.History.ops h in
  {
    lat =
      List.map
        (fun (op : Oracles.History.op) ->
          Sim.Vtime.to_int op.resp - Sim.Vtime.to_int op.inv)
        ops;
    stab = first_certified_read h;
    ops = List.length ops;
    traffic = traffic_of [ Sim.Engine.metrics (Mc.Sys.engine sys) ];
    violating =
      (match verdict with Mc.Checker.Clean -> false | Mc.Checker.Violation _ -> true);
  }

let run_walks ~seed =
  let rng = Sim.Rng.create (seed + 17) in
  List.init walks (fun _ -> walk rng)

let walks_traffic ws = sum_traffic (List.map (fun w -> w.traffic) ws)

let walk_ops ws = List.fold_left (fun a w -> a + w.ops) 0 ws

type r = { outcome : Mc.Checker.outcome; search_s : float; counters : (string * int) list }

let search () =
  let outcome, search_s =
    time (fun () -> Span.record "mc.search" (fun () -> Mc.Checker.search cfg))
  in
  let s = outcome.Mc.Checker.stats in
  let counters =
    [
      ("mc.states", s.states);
      ("mc.unique_states", s.peak_visited);
      ("mc.transitions", s.transitions);
      ("mc.terminals", s.terminals);
      ("mc.revisits", s.revisits);
      ("mc.sleep_skips", s.sleep_skips);
      ("mc.sym_skips", s.sym_skips);
      ("mc.replays", s.replays);
      ("mc.max_depth", s.max_depth_seen);
      ("mc.exhaustive", Bool.to_int outcome.exhaustive);
    ]
  in
  { outcome; search_s; counters }

type inputs = { seed : int }

let setup ~seed =
  (match Mc.Config.validate cfg with Ok () -> () | Error e -> failwith e);
  ignore (Mc.Checker.search warm_cfg);
  ignore (run_walks ~seed);
  { seed }

let round (_ : inputs) = search ()

(* The unit of work is one exhaustive verdict. *)
let ops (_ : r) = 1

let correctness o r =
  check o r.outcome.exhaustive "mc: search was not exhaustive";
  check o
    (match r.outcome.verdict with Mc.Checker.Clean -> true | Mc.Checker.Violation _ -> false)
    "mc: verdict %s, expected clean"
    (Mc.Checker.verdict_kind r.outcome.verdict)

let end_to_end o ~seed ~seconds =
  let setups = List.init 5 (fun _ -> snd (time (fun () -> setup ~seed))) in
  let inputs = setup ~seed in
  let rounds = repeat ~seconds ~min:3 (fun () -> round inputs) in
  same_counters o ~what:"mc" (List.map (fun r -> r.counters) rounds);
  let first = List.hd rounds in
  correctness o first;
  let ws = run_walks ~seed in
  let walk_fail = List.length (List.filter (fun w -> w.violating) ws) in
  check o (walk_fail = 0) "mc: %d seeded walks ended in a violation" walk_fail;
  let terminals = first.outcome.stats.terminals in
  let attempted = terminals + walks and failed = walk_fail in
  o.attempted <- attempted;
  o.failed <- failed;
  let walk_ops = walk_ops ws in
  o.counters <-
    first.counters
    @ [
        ("mc.walk.ops", walk_ops);
        ("mc.walk.msgs", traffic_msgs (walks_traffic ws));
        ("mc.walk.lat_sum", List.fold_left (fun a w -> a + List.fold_left ( + ) 0 w.lat) 0 ws);
      ];
  let times = List.map (fun r -> r.search_s) rounds in
  let lat = List.concat_map (fun w -> List.map float_of_int w.lat) ws in
  let stab = List.filter_map (fun w -> Option.map float_of_int w.stab) ws in
  metric o "setup_s" "s" (median setups);
  metric o "ops_per_s" "1/s" (float_of_int (List.length times) /. List.fold_left ( +. ) 0. times);
  metric o "verdict_s" "s" (median times);
  metric o "op_us_p50" "us" (median times *. 1e6);
  metric o "op_us_p99" "us" (quantile times 0.99 *. 1e6);
  metric o "lat_ticks_p50" "ticks" (median lat);
  metric o "lat_ticks_p99" "ticks" (quantile lat 0.99);
  metric o "msgs_per_op" "count"
    (ratio (traffic_msgs (walks_traffic ws)) walk_ops);
  metric o "stab_ticks_p50" "ticks" (median stab);
  metric o "stab_ticks_p99" "ticks" (quantile stab 0.99);
  metric o "failed_share" "share" (failed_share ~failed ~attempted);
  info_times o "round_s" times;
  info o "searches" (Obs.Json.Int (List.length times));
  info o "walks" (Obs.Json.Int walks);
  info o "lat_samples" (Obs.Json.Int (List.length lat));
  info o "stab_samples" (Obs.Json.Int (List.length stab))

let per_layer o r =
  let s = r.outcome.Mc.Checker.stats in
  metric o "mc.states" "count" (float_of_int s.states);
  metric o "mc.unique_states" "count" (float_of_int s.peak_visited);
  metric o "mc.unique_per_state" "share" (ratio s.peak_visited s.states);
  metric o "mc.replays" "count" (float_of_int s.replays);
  metric o "mc.replays_per_state" "count" (ratio s.replays s.states);
  metric o "mc.revisits" "count" (float_of_int s.revisits);
  metric o "mc.sleep_skips" "count" (float_of_int s.sleep_skips);
  metric o "mc.sym_skips" "count" (float_of_int s.sym_skips);
  metric o "mc.max_depth" "count" (float_of_int s.max_depth_seen);
  metric o "mc.states_per_s" "1/s" (float_of_int s.states /. r.search_s);
  List.iter
    (fun (span, name) ->
      let n, total, _ = Span.find span in
      metric o name "us" (if n = 0 then 0. else total *. 1e6 /. float_of_int n))
    [
      ("mc.sys.create", "mc.sys.create_us");
      ("mc.sys.apply", "mc.sys.apply_us");
      ("mc.sys.enabled", "mc.sys.enabled_us");
      ("mc.sys.fingerprint", "mc.sys.fingerprint_us");
      ("mc.verdict", "mc.sys.verdict_us");
    ]
