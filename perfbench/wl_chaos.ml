(* Workload [chaos]: Chaos.Campaign trials driven through generate/
   run_trial -- regular family, n=9, f=1, Lossy medium, default schedule
   knobs (initial garbage Byzantine, 3 transient injections, 2 mobile
   roams, 2 link windows), no shrinking, so run time does not depend on
   how many violations occur.  The only workload that exercises
   Byzantine.Adversary, Sim.Fault, Ss_transport/Lossy_link and the
   segment-wise oracles, and the one that measures the paper's headline
   number: ticks from a disturbance until reads are certified again.

   The trial population is fixed: the 500 trials of campaign seed 7,
   whatever --seed says.  Non-clean trials are rare (4 to 13 in 500 for
   campaign seeds 1..8), so a seeded population would move failed_share
   by far more than any bound can hold; a fixed one makes it an exact
   count, and the known stuck trials show on every run. *)

open Common

let cfg =
  {
    (Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular) with
    Chaos.Campaign.medium = Chaos.Campaign.Lossy;
  }

let campaign_seed = 7

let trials = 500

(* The per-trial seed derivation of Chaos.Campaign.run. *)
let trial_seed i = campaign_seed + (1_000_003 * i)

let ops_per_trial = cfg.writes + cfg.reads

let kinds = [ "stuck"; "regularity"; "inversion"; "mw"; "liveness" ]

type trial = {
  verdict : Chaos.Campaign.verdict;
  ops : int;  (** history length *)
  duration : int;
  events : int;  (** schedule size *)
  wall_s : float;
  lat : int list;
  stab : int option list;  (** one per disturbance point *)
  traffic : traffic;
  pkts : int;
  dropped : int;
}

let trial_body seed schedule =
  let t0 = now () in
  let scn = ref None in
  let outcome =
    Span.record "chaos.run_trial" (fun () ->
        Chaos.Campaign.run_trial ~on_scenario:(fun s -> scn := Some s) cfg ~seed schedule)
  in
  let scn = Option.get !scn in
  let h = scn.Harness.Scenario.history in
  let points = Chaos.Schedule.disturbance_points schedule in
  let rec segments = function
    | [] -> []
    | [ p ] -> [ (p, max_int) ]
    | p :: (q :: _ as rest) -> (p, q) :: segments rest
  in
  let stab =
    Span.record "chaos.stabilization" (fun () ->
        List.map (fun (lo, hi) -> Chaos.Recovery.stabilization h ~lo ~hi) (segments points))
  in
  let metrics = Harness.Scenario.metrics scn in
  {
    verdict = outcome.verdict;
    ops = outcome.ops;
    duration = outcome.duration;
    events = List.length schedule;
    wall_s = now () -. t0;
    lat =
      List.map
        (fun (op : Oracles.History.op) ->
          Sim.Vtime.to_int op.resp - Sim.Vtime.to_int op.inv)
        (Oracles.History.ops h);
    stab;
    traffic = traffic_of [ metrics ];
    pkts = Obs.Metrics.counter metrics "net.pkts";
    dropped = Obs.Metrics.counter metrics "net.dropped";
  }

let run_one seed schedule = Span.record "chaos.trial" (fun () -> trial_body seed schedule)

let generate seed = Span.record "chaos.generate" (fun () -> Chaos.Campaign.generate cfg ~seed)

type inputs = { schedules : (int * Chaos.Schedule.t) array; generate_s : float }

let setup ~seed:_ =
  let schedules, generate_s =
    time (fun () ->
        Array.init trials (fun i ->
            let s = trial_seed i in
            (s, generate s)))
  in
  (* warm-up: a few trials *)
  for i = 0 to 59 do
    let s, sch = schedules.(i) in
    ignore (run_one s sch)
  done;
  { schedules; generate_s }

type r = { trials : trial list; wall_s : float }

let round inputs =
  let ts, wall_s =
    time (fun () -> Array.to_list (Array.map (fun (s, sch) -> run_one s sch) inputs.schedules))
  in
  { trials = ts; wall_s }

(* The traced unit: generate each schedule again, inside the trial span. *)
let traced_round inputs =
  let ts, wall_s =
    time (fun () ->
        Array.to_list
          (Array.map
             (fun (s, _) -> Span.record "chaos.trial" (fun () -> trial_body s (generate s)))
             inputs.schedules))
  in
  { trials = ts; wall_s }

let clean t = match t.verdict with Chaos.Campaign.Clean -> true | Chaos.Campaign.Violation _ -> false

(* every op of a non-clean trial counts as failed *)
let failures r = ops_per_trial * List.length (List.filter (fun t -> not (clean t)) r.trials)

let kind_count r k =
  List.length (List.filter (fun t -> Chaos.Campaign.verdict_kind t.verdict = k) r.trials)

let ops r = List.fold_left (fun a t -> a + t.ops) 0 r.trials

let traffic r = sum_traffic (List.map (fun t -> t.traffic) r.trials)

let counters r =
  let sum f = List.fold_left (fun a t -> a + f t) 0 r.trials in
  traffic_counters ~prefix:"chaos" (traffic r)
  @ [
      ("chaos.ops", ops r);
      ("chaos.duration", sum (fun t -> t.duration));
      ("chaos.events", sum (fun t -> t.events));
      ("chaos.pkts", sum (fun t -> t.pkts));
      ("chaos.dropped", sum (fun t -> t.dropped));
      ("chaos.stab_points", sum (fun t -> List.length t.stab));
      ("chaos.stab_sum", sum (fun t -> List.fold_left (fun a s -> a + Option.value ~default:0 s) 0 t.stab));
      ("chaos.clean", List.length (List.filter clean r.trials));
    ]
  @ List.map (fun k -> ("chaos.violating." ^ k, kind_count r k)) kinds

let end_to_end o ~seed ~seconds =
  let setups = List.init 5 (fun _ -> snd (time (fun () -> setup ~seed))) in
  let inputs = setup ~seed in
  let rounds = repeat ~seconds ~min:3 (fun () -> round inputs) in
  same_counters o ~what:"chaos" (List.map counters rounds);
  let first = List.hd rounds in
  let unknown =
    List.filter (fun t -> not (clean t || List.mem (Chaos.Campaign.verdict_kind t.verdict) kinds)) first.trials
  in
  check o (unknown = []) "chaos: %d trials with an unknown violation kind" (List.length unknown);
  let attempted = trials * ops_per_trial and failed = failures first in
  o.attempted <- attempted;
  o.failed <- failed;
  o.counters <- counters first;
  let op_us =
    per_op_medians
      (List.map
         (fun r -> List.map (fun (t : trial) -> t.wall_s *. 1e6 /. float_of_int (max 1 t.ops)) r.trials)
         rounds)
  in
  let lat = List.concat_map (fun t -> List.map float_of_int t.lat) first.trials in
  let stab = List.concat_map (fun t -> List.filter_map (Option.map float_of_int) t.stab) first.trials in
  metric o "setup_s" "s" (median setups);
  metric o "ops_per_s" "1/s" (median (List.map (fun r -> float_of_int (ops r) /. r.wall_s) rounds));
  metric o "verdict_s" "s" (median (List.map (fun r -> r.wall_s) rounds));
  metric o "op_us_p50" "us" (median op_us);
  metric o "op_us_p99" "us" (quantile op_us 0.99);
  metric o "lat_ticks_p50" "ticks" (median lat);
  metric o "lat_ticks_p99" "ticks" (quantile lat 0.99);
  metric o "msgs_per_op" "count" (ratio (traffic_msgs (traffic first)) (ops first));
  metric o "stab_ticks_p50" "ticks" (median stab);
  metric o "stab_ticks_p99" "ticks" (quantile stab 0.99);
  metric o "failed_share" "share" (failed_share ~failed ~attempted);
  info_times o "round_s" (List.map (fun r -> r.wall_s) rounds);
  info o "rounds" (Obs.Json.Int (List.length rounds));
  info o "violations"
    (Obs.Json.Obj (List.map (fun k -> (k, Obs.Json.Int (kind_count first k))) kinds));
  info o "op_us_samples" (Obs.Json.Int (List.length op_us));
  info o "stab_samples" (Obs.Json.Int (List.length stab))

let per_layer o inputs r =
  let n = List.length r.trials in
  let sum f = List.fold_left (fun a t -> a + f t) 0 r.trials in
  let points = sum (fun t -> List.length t.stab) in
  let unstab = sum (fun t -> List.length (List.filter Option.is_none t.stab)) in
  let msgs = traffic_msgs (traffic r) in
  metric o "chaos.generate_us" "us" (inputs.generate_s *. 1e6 /. float_of_int trials);
  metric o "chaos.trial_ms" "ms" (r.wall_s *. 1e3 /. float_of_int n);
  metric o "chaos.events_per_trial" "count" (ratio (sum (fun t -> t.events)) n);
  metric o "chaos.unstabilized_share" "share" (ratio unstab points);
  List.iter
    (fun k -> metric o ("chaos.violating_trials." ^ k) "count" (float_of_int (kind_count r k)))
    kinds;
  metric o "transport.pkts_per_msg" "count" (ratio (sum (fun t -> t.pkts)) msgs);
  metric o "transport.dropped_per_msg" "count" (ratio (sum (fun t -> t.dropped)) msgs)
