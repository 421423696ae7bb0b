(* Workload [shard]: Shard.Tier.run at S=4, n=9, f=1, retry on, with the
   default open-loop Zipfian workload (theta 0.99, 64 keys, 50/50 mix,
   mean gap 3 ticks, 4x bursts).  The open loop runs in virtual time and
   latency counts from each op's due instant, so generator lateness is
   zero by construction.  Here the register layer runs as many instances
   with writes beside reads and heavy coalescing: a batching or router
   change shows here and not in [register].

   A round is sixteen tier runs of 3,750 logical ops on seeds derived
   from --seed.  The ring placement follows the seed, and the shard that
   owns the hottest keys sets the tail; sixteen placements per round keep
   a few unlucky placements from setting the latency metrics.

   Tier.run exposes only shard 0's deployment, so traffic is sampled
   there: shard 0's messages per register op, times the tier-wide
   register ops per logical op. *)

open Common

let cfg =
  {
    Shard.Tier.default_config with
    Shard.Tier.workload = { Workload.Openloop.default_config with Workload.Openloop.ops = 3_750 };
  }

let placements = 16

let sub_seed ~seed j = seed + (1_000_003 * j)

type sub = {
  report : Shard.Tier.report;
  sub_s : float;
  sample : traffic;  (** shard 0 *)
  first_read : int option;  (** shard 0: instant the first read was served *)
}

(* Shard 0's first successful register read: a hub sink that detaches
   itself after the first Op_return of a kv read, so the rest of the run
   emits no events. *)
let watch_first_read (scn : Harness.Scenario.t) cell =
  let hub = Harness.Scenario.hub scn in
  let name = "perfbench.first_read" in
  Obs.Hub.attach hub
    (Obs.Sink.make ~name (function
      | Obs.Event.Op_return { time; reg = "kv"; op = `Read; ok = true; _ } ->
        cell := Some time;
        Obs.Hub.detach hub name
      | _ -> ()))

let run_tier ~seed =
  let scn = ref None and first_read = ref None in
  let report, sub_s =
    time @@ fun () ->
    Span.record "shard.tier_run" (fun () ->
        Shard.Tier.run
          ~on_scenario:(fun s ->
            scn := Some s;
            watch_first_read s first_read)
          cfg ~seed)
  in
  let sample =
    match !scn with
    | Some s -> traffic_of [ Harness.Scenario.metrics s ]
    | None -> traffic_of []
  in
  { report; sub_s; sample; first_read = !first_read }

let register_ops (s : Shard.Tier.shard_report) = s.register_writes + s.register_reads

let tier_register_ops sub = List.fold_left (fun a s -> a + register_ops s) 0 sub.report.shards

(* Scale from shard 0's register ops to the whole tier's. *)
let scale sub =
  match sub.report.shards with
  | s0 :: _ when register_ops s0 > 0 ->
    float_of_int (tier_register_ops sub) /. float_of_int (register_ops s0)
  | _ -> 0.

type r = { subs : sub list; wall_s : float }

let ops r = List.fold_left (fun a s -> a + s.report.ops) 0 r.subs

let samples r = List.map (fun s -> (scale s, s.sample)) r.subs

let counters r =
  List.concat
    (List.mapi
       (fun j sub ->
         let rep = sub.report in
         let p = Printf.sprintf "shard.p%d" j in
         traffic_counters ~prefix:(p ^ ".s0") sub.sample
         @ List.concat_map
             (fun (s : Shard.Tier.shard_report) ->
               let p = Printf.sprintf "%s.s%d" p s.shard in
               [
                 (p ^ ".ops", s.ops);
                 (p ^ ".register_writes", s.register_writes);
                 (p ^ ".register_reads", s.register_reads);
                 (p ^ ".write_batches", s.write_batches);
                 (p ^ ".read_batches", s.read_batches);
                 (p ^ ".duration", s.duration);
                 (p ^ ".violations", s.violations);
                 (p ^ ".liveness", s.liveness);
               ])
             rep.shards
         @ [
             (p ^ ".degraded", rep.writes.degraded + rep.reads.degraded);
             (p ^ ".timed_out", rep.writes.timed_out + rep.reads.timed_out);
             (p ^ ".first_read", Option.value ~default:(-1) sub.first_read);
           ])
       r.subs)

(* The arrival instant of the first read routed to shard 0, from the
   schedule and ring placement Tier.run derives from the same seed. *)
let first_read_due ring ops =
  List.find_map
    (fun (op : Workload.Openloop.op) ->
      match op.kind with
      | Workload.Openloop.Read when Shard.Ring.shard_of ring (Shard.Tier.key_name op.key) = 0 ->
        Some op.at
      | Workload.Openloop.Read | Workload.Openloop.Write -> None)
    ops

type inputs = {
  seed : int;
  generate_s : float;
  lookup_ns : float;
  first_due : int option list;  (** per placement: the first read due on shard 0 *)
}

let generate_and_lookup ~seed =
  let seeds = List.init placements (fun j -> sub_seed ~seed j) in
  let schedules, generate_s =
    time (fun () ->
        Span.record "shard.generate" (fun () ->
            List.map (fun seed -> Workload.Openloop.generate cfg.workload ~seed) seeds))
  in
  let rings =
    List.map (fun seed -> Shard.Ring.create ~seed ~shards:cfg.shards ~vnodes:cfg.vnodes) seeds
  in
  let keys = List.init cfg.workload.keys Shard.Tier.key_name in
  let reps = 200 in
  let _, lookup_s =
    time (fun () ->
        Span.record "shard.shard_of" (fun () ->
            for _ = 1 to reps do
              List.iter (fun k -> ignore (Shard.Ring.shard_of (List.hd rings) k)) keys
            done))
  in
  {
    seed;
    generate_s;
    lookup_ns = lookup_s *. 1e9 /. float_of_int (reps * List.length keys);
    first_due = List.map2 first_read_due rings schedules;
  }

let setup ~seed =
  let inputs = generate_and_lookup ~seed in
  (* warm-up: a small tier run *)
  ignore
    (Shard.Tier.run
       { cfg with workload = { cfg.workload with Workload.Openloop.ops = 10_000 } }
       ~seed);
  inputs

let round { seed; _ } =
  let subs, wall_s =
    time (fun () -> List.init placements (fun j -> run_tier ~seed:(sub_seed ~seed j)))
  in
  { subs; wall_s }

(* The traced unit: input generation and routing lookups, then the runs. *)
let traced_round inputs =
  let inputs = generate_and_lookup ~seed:inputs.seed in
  (inputs, round inputs)

let failures r =
  List.fold_left
    (fun a sub ->
      let rep = sub.report in
      a + rep.writes.degraded + rep.writes.timed_out + rep.reads.degraded + rep.reads.timed_out
      + List.fold_left (fun a (s : Shard.Tier.shard_report) -> a + s.violations + s.liveness) 0 rep.shards)
    0 r.subs

let correctness o r =
  List.iteri
    (fun j sub ->
      check o sub.report.clean "shard: tier report %d is not clean" j;
      check o (scale sub > 0.) "shard: shard 0 of run %d served no register ops" j)
    r.subs

let end_to_end o ~seed ~seconds =
  let setups = List.init 5 (fun _ -> snd (time (fun () -> setup ~seed))) in
  let inputs = setup ~seed in
  let rounds = repeat ~seconds ~min:3 (fun () -> round inputs) in
  same_counters o ~what:"shard" (List.map counters rounds);
  let first = List.hd rounds in
  List.iter
    (fun r ->
      List.iter2
        (fun a b -> check o (Shard.Tier.matches a.report b.report) "shard: reports differ between rounds")
        first.subs r.subs)
    rounds;
  correctness o first;
  let attempted = ops first and failed = failures first in
  o.attempted <- attempted;
  o.failed <- failed;
  o.counters <- counters first;
  let per_op_us =
    per_op_medians
      (List.map
         (fun r -> List.map (fun s -> s.sub_s *. 1e6 /. float_of_int s.report.ops) r.subs)
         rounds)
  in
  (* per placement, the most loaded shard's percentile; averaged, since
     Tier.run reports bucketed percentiles *)
  let worst f =
    List.map
      (fun sub ->
        List.fold_left
          (fun m (s : Shard.Tier.shard_report) -> Float.max m (f s.latency))
          0. sub.report.shards)
      first.subs
  in
  (* ticks from the first read due on shard 0 to the first read served *)
  let stab =
    List.combine inputs.first_due (List.map (fun s -> s.first_read) first.subs)
    |> List.filter_map (function
         | Some due, Some served -> Some (float_of_int (served - due))
         | _ -> None)
  in
  let msgs = List.fold_left (fun a (k, t) -> a +. (k *. float_of_int (traffic_msgs t))) 0. (samples first) in
  metric o "setup_s" "s" (median setups);
  metric o "ops_per_s" "1/s"
    (median (List.map (fun r -> float_of_int (ops r) /. r.wall_s) rounds));
  metric o "verdict_s" "s" (median (List.map (fun r -> r.wall_s) rounds));
  metric o "op_us_p50" "us" (median per_op_us);
  metric o "op_us_p99" "us" (quantile per_op_us 0.99);
  metric o "lat_ticks_p50" "ticks" (mean (worst (fun l -> l.Shard.Tier.p50)));
  metric o "lat_ticks_p99" "ticks" (mean (worst (fun l -> l.Shard.Tier.p99)));
  metric o "msgs_per_op" "count" (msgs /. float_of_int (ops first));
  metric o "stab_ticks_p50" "ticks" (median stab);
  metric o "stab_ticks_p99" "ticks" (quantile stab 0.99);
  metric o "failed_share" "share" (failed_share ~failed ~attempted);
  info_times o "round_s" (List.map (fun r -> r.wall_s) rounds);
  info o "rounds" (Obs.Json.Int (List.length rounds))

let per_layer o inputs r =
  let reports = List.map (fun s -> s.report) r.subs in
  let sum f =
    List.fold_left
      (fun a (rep : Shard.Tier.report) ->
        a + List.fold_left (fun a (s : Shard.Tier.shard_report) -> a + f s) 0 rep.shards)
      0 reports
  in
  let sum_rep f = List.fold_left (fun a rep -> a + f rep) 0 reports in
  let logical (t : Shard.Tier.tally) = t.ok + t.degraded + t.timed_out in
  let n = List.length reports in
  metric o "workload.generate_ms" "ms" (inputs.generate_s *. 1e3 /. float_of_int placements);
  metric o "ring.ns_per_lookup" "ns" inputs.lookup_ns;
  metric o "tier.register_ops_per_op" "count" (ratio (sum register_ops) (ops r));
  metric o "tier.write_batch_mean" "count"
    (ratio (sum_rep (fun rep -> logical rep.writes)) (sum (fun s -> s.write_batches)));
  metric o "tier.read_batch_mean" "count"
    (ratio (sum_rep (fun rep -> logical rep.reads)) (sum (fun s -> s.read_batches)));
  metric o "tier.hot_shard_share" "share"
    (mean
       (List.map
          (fun (rep : Shard.Tier.report) ->
            ratio (List.fold_left (fun m (s : Shard.Tier.shard_report) -> max m s.ops) 0 rep.shards) rep.ops)
          reports));
  metric o "tier.duration_ticks" "ticks" (ratio (sum_rep (fun rep -> rep.duration)) n)
