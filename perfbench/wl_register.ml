(* Workload [register]: a closed loop of write+read pairs, one writer and
   one reader per register family, each family on its own n=9, f=1
   asynchronous deployment with uniform 1..10-tick link delays.  Pairs go
   round-robin across the families; the bench drives each pair by
   stepping the engine itself (engine -> link -> Net -> protocol), so
   engine events are counted exactly.  No batching, no faults. *)

open Registers
open Common

type family = Regular | Atomic | Swmr | Swmr_wb | Mwmr

let families = [ Regular; Atomic; Swmr; Swmr_wb; Mwmr ]

let family_name = function
  | Regular -> "regular"
  | Atomic -> "atomic"
  | Swmr -> "swmr"
  | Swmr_wb -> "swmr_wb"
  | Mwmr -> "mwmr"

(* Pairs per family in one round: about half a second of work. *)
let pairs = 800

type dep = {
  family : family;
  engine : Sim.Engine.t;
  hist : Oracles.History.t;
  pair : int -> unit;  (** write value k, then read; runs in a fiber *)
  reader_stats : unit -> int * int;  (** inquiry iterations, help returns *)
}

let deploy ~seed family =
  let params = Params.create_unchecked ~n:9 ~f:1 ~mode:Params.Async () in
  let rng = Sim.Rng.create seed in
  let trace = Sim.Trace.create ~record_events:false () in
  let engine = Sim.Engine.create ~trace ~rng:(Sim.Rng.split rng) () in
  let net =
    Net.create ~engine ~params
      ~link_delay:(fun r -> Sim.Link.uniform r ~lo:1 ~hi:10)
      ()
  in
  ignore (Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.split rng));
  let hist = Oracles.History.create () in
  let now () = Sim.Engine.now engine in
  let record ~proc ~kind ?ts f =
    let inv = now () in
    let r = f () in
    let resp = now () in
    match r with
    | Some v -> Oracles.History.record hist ~proc ~kind ~inv ~resp ?ts v
    | None ->
      Oracles.History.record hist ~proc ~kind ~inv ~resp ?ts ~ok:false Value.bot
  in
  let sw write read k =
    let v = Value.int k in
    record ~proc:"w" ~kind:Oracles.History.Write (fun () ->
        write v;
        Some v);
    record ~proc:"r" ~kind:Oracles.History.Read read
  in
  let no_stats () = (0, 0) in
  let pair, reader_stats =
    match family with
    | Regular ->
      let w = Swsr_regular.writer ~net ~client_id:1 ~inst:0 in
      let r = Swsr_regular.reader ~net ~client_id:2 ~inst:0 in
      ( sw (Swsr_regular.write w) (fun () -> Swsr_regular.read r),
        fun () -> (Swsr_regular.reader_iterations r, Swsr_regular.help_returns r) )
    | Atomic ->
      let w = Swsr_atomic.writer ~net ~client_id:1 ~inst:0 () in
      let r = Swsr_atomic.reader ~net ~client_id:2 ~inst:0 () in
      (sw (Swsr_atomic.write w) (fun () -> Swsr_atomic.read r), no_stats)
    | Swmr ->
      let w = Swmr.writer ~net ~client_id:1 ~base_inst:0 ~readers:3 () in
      let r = Swmr.reader ~net ~client_id:2 ~base_inst:0 ~reader_index:0 () in
      (sw (Swmr.write w) (fun () -> Swmr.read r), no_stats)
    | Swmr_wb ->
      let w = Swmr_wb.writer ~net ~client_id:1 ~base_inst:0 ~readers:3 () in
      let r =
        Swmr_wb.reader ~net ~client_id:2 ~base_inst:0 ~reader_index:0 ~readers:3 ()
      in
      (sw (Swmr_wb.write w) (fun () -> Swmr_wb.read r), no_stats)
    | Mwmr ->
      let cfg = Mwmr.default_config ~m:3 in
      let p0 = Mwmr.process ~net ~cfg ~id:0 ~client_id:1 in
      let p1 = Mwmr.process ~net ~cfg ~id:1 ~client_id:2 in
      let pair k =
        let v = Value.int k in
        let inv = now () in
        Mwmr.write p0 v;
        let resp = now () in
        let ts = Option.map (fun (e, s) -> (e, s, 0)) (Mwmr.last_write_timestamp p0) in
        Oracles.History.record hist ~proc:"p0" ~kind:Oracles.History.Write ~inv ~resp
          ?ts v;
        let inv = now () in
        let r = Mwmr.read_timestamped p1 in
        let resp = now () in
        (* a read that opened a new epoch also wrote (line 11) *)
        List.iter
          (fun (v, e, s) ->
            Oracles.History.record hist ~proc:"p1" ~kind:Oracles.History.Write ~inv
              ~resp ~ts:(e, s, 1) v)
          (Mwmr.take_restamps p1);
        match r with
        | Some (v, e, s, j) ->
          Oracles.History.record hist ~proc:"p1" ~kind:Oracles.History.Read ~inv
            ~resp ~ts:(e, s, j) v
        | None ->
          Oracles.History.record hist ~proc:"p1" ~kind:Oracles.History.Read ~inv
            ~resp ~ok:false Value.bot
      in
      (pair, no_stats)
  in
  { family; engine; hist; pair; reader_stats }

let family_seed ~seed i = (seed * 7919) + (i * 104_729) + 1

(* Run one pair to quiescence by stepping the engine; returns whether the
   pair's fiber completed and how many engine events fired. *)
let run_pair d k =
  Span.record "register.pair" @@ fun () ->
  let h = Sim.Fiber.spawn ~name:"pair" (fun () -> d.pair k) in
  let events = ref 0 in
  while Sim.Engine.step d.engine do
    incr events
  done;
  let done_ =
    match Sim.Fiber.status h with
    | Sim.Fiber.Done -> true
    | Sim.Fiber.Running | Sim.Fiber.Failed _ -> false
  in
  (done_, !events)

(* Oracle of a family's history: (ops flagged, ops checked). *)
let oracle d =
  Span.record "register.oracle" @@ fun () ->
  let h = d.hist in
  let ops = Oracles.History.length h in
  let flagged =
    match d.family with
    | Regular ->
      let r = Oracles.Regularity.check h in
      List.length r.violations + r.liveness_failures
    | Atomic | Swmr | Swmr_wb ->
      let r = Oracles.Atomicity.Sw.check h in
      List.length r.regularity.violations
      + r.regularity.liveness_failures
      + List.length r.inversions
      + List.length r.malformed
    | Mwmr ->
      let r = Oracles.Atomicity.Mw.check ~tie:`Min_index h in
      List.length r.violations
  in
  (flagged, ops)

type fam_result = {
  fam : family;
  pair_s : float list;  (** wall seconds per pair *)
  oracle_s : float;
  ops : int;  (** history length *)
  flagged : int;  (** ops the oracle flagged *)
  wedged : int;  (** pairs whose fiber never finished *)
  events : int;
  traffic : traffic;
  lat : int list;  (** per-op ticks, invocation to response *)
  stab : int option;  (** ticks from start to the first certified read *)
  iterations : int;
  help : int;
}

type r = {
  fams : fam_result list;
  loop_s : float;  (** pair loop only *)
  round_s : float;  (** deploy + pairs + oracle *)
  counters : (string * int) list;
}

type inputs = { seed : int }

let setup ~seed =
  (* warm-up: a short closed loop on every family *)
  List.iteri
    (fun i fam ->
      let d = deploy ~seed:(family_seed ~seed i) fam in
      for k = 1 to 300 do
        ignore (run_pair d k)
      done;
      ignore (oracle d))
    families;
  { seed }

let round { seed } =
  let t0 = now () in
  let deps =
    Array.of_list (List.mapi (fun i fam -> deploy ~seed:(family_seed ~seed i) fam) families)
  in
  let nf = Array.length deps in
  let times = Array.init nf (fun _ -> Array.make pairs 0.) in
  let wedged = Array.make nf 0 and events = Array.make nf 0 in
  let t_loop = now () in
  for k = 1 to pairs do
    Array.iteri
      (fun i d ->
        let t = now () in
        let ok, ev = run_pair d k in
        times.(i).(k - 1) <- now () -. t;
        if not ok then wedged.(i) <- wedged.(i) + 1;
        events.(i) <- events.(i) + ev)
      deps
  done;
  let loop_s = now () -. t_loop in
  let fams =
    List.init nf (fun i ->
        let d = deps.(i) in
        let (flagged, ops), oracle_s = time (fun () -> oracle d) in
        let lat =
          List.map
            (fun (op : Oracles.History.op) ->
              Sim.Vtime.to_int op.resp - Sim.Vtime.to_int op.inv)
            (Oracles.History.ops d.hist)
        in
        let iterations, help = d.reader_stats () in
        {
          fam = d.family;
          pair_s = Array.to_list times.(i);
          oracle_s;
          ops;
          flagged;
          wedged = wedged.(i);
          events = events.(i);
          traffic = traffic_of [ Sim.Engine.metrics d.engine ];
          lat;
          stab = Chaos.Recovery.stabilization d.hist ~lo:0 ~hi:max_int;
          iterations;
          help;
        })
  in
  let round_s = now () -. t0 in
  let counters =
    List.concat_map
      (fun f ->
        let p = "register." ^ family_name f.fam in
        traffic_counters ~prefix:p f.traffic
        @ [
            (p ^ ".events", f.events);
            (p ^ ".ops", f.ops);
            (p ^ ".flagged", f.flagged);
            (p ^ ".wedged", f.wedged);
            (p ^ ".read_iterations", f.iterations);
            (p ^ ".help_returns", f.help);
            (p ^ ".stab", Option.value ~default:(-1) f.stab);
          ])
      fams
  in
  { fams; loop_s; round_s; counters }

let total_pairs = pairs * List.length families

let ops (_ : r) = total_pairs

let traffic r = sum_traffic (List.map (fun f -> f.traffic) r.fams)

let failures r =
  List.fold_left (fun a f -> a + f.flagged + (2 * f.wedged)) 0 r.fams

let correctness o r =
  List.iter
    (fun f ->
      check o (f.flagged = 0) "register %s: oracle flagged %d ops" (family_name f.fam)
        f.flagged;
      check o (f.wedged = 0) "register %s: %d pairs never completed" (family_name f.fam)
        f.wedged)
    r.fams

let end_to_end o ~seed ~seconds =
  let setups = List.init 5 (fun _ -> snd (time (fun () -> setup ~seed))) in
  let inputs = setup ~seed in
  let rounds = repeat ~seconds ~min:3 (fun () -> round inputs) in
  same_counters o ~what:"register" (List.map (fun r -> r.counters) rounds);
  let first = List.hd rounds in
  correctness o first;
  let attempted = 2 * total_pairs in
  let failed = failures first in
  o.attempted <- attempted;
  o.failed <- failed;
  o.counters <- first.counters;
  let pair_us =
    per_op_medians
      (List.map (fun r -> List.concat_map (fun f -> List.map (fun s -> s *. 1e6) f.pair_s) r.fams) rounds)
  in
  let lat = List.concat_map (fun f -> List.map float_of_int f.lat) first.fams in
  let stab = List.filter_map (fun f -> Option.map float_of_int f.stab) first.fams in
  metric o "setup_s" "s" (median setups);
  metric o "ops_per_s" "1/s"
    (median (List.map (fun r -> float_of_int total_pairs /. r.loop_s) rounds));
  metric o "verdict_s" "s" (median (List.map (fun r -> r.round_s) rounds));
  metric o "op_us_p50" "us" (median pair_us);
  metric o "op_us_p99" "us" (quantile pair_us 0.99);
  metric o "lat_ticks_p50" "ticks" (median lat);
  metric o "lat_ticks_p99" "ticks" (quantile lat 0.99);
  metric o "msgs_per_op" "count" (ratio (traffic_msgs (traffic first)) total_pairs);
  metric o "stab_ticks_p50" "ticks" (median stab);
  metric o "stab_ticks_p99" "ticks" (quantile stab 0.99);
  metric o "failed_share" "share" (failed_share ~failed ~attempted);
  info_times o "round_s" (List.map (fun r -> r.loop_s) rounds);
  info o "rounds" (Obs.Json.Int (List.length rounds));
  info o "op_us_samples" (Obs.Json.Int (List.length pair_us));
  info o "lat_samples" (Obs.Json.Int (List.length lat));
  info o "stab_samples" (Obs.Json.Int (List.length stab))

(* Per-layer metrics of the protocol and oracle layers, from one round. *)
let per_layer o r =
  let events = List.fold_left (fun a f -> a + f.events) 0 r.fams in
  metric o "sim.events_per_op" "count" (ratio events total_pairs);
  List.iter
    (fun f ->
      let name = family_name f.fam in
      metric o (Printf.sprintf "protocol.%s.us_per_op" name) "us"
        (mean f.pair_s *. 1e6);
      metric o (Printf.sprintf "protocol.%s.msgs_per_op" name) "count"
        (ratio (traffic_msgs f.traffic) pairs);
      if f.fam = Regular then begin
        metric o "protocol.regular.read_iterations" "count" (ratio f.iterations pairs);
        metric o "protocol.regular.help_share" "share" (ratio f.help pairs)
      end)
    r.fams;
  let oracle_s = List.fold_left (fun a f -> a +. f.oracle_s) 0. r.fams in
  let ops = List.fold_left (fun a f -> a + f.ops) 0 r.fams in
  metric o "oracle.us_per_op" "us" (oracle_s *. 1e6 /. float_of_int ops)
