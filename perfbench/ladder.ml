(* The register layer ladder, built from public calls only.  Each rung adds
   one layer on top of the one below, so subtracting rung from rung prices
   a layer:

     0. bare Sim.Engine: schedule + step
     1. + Sim.Link: send + step
     2. + Registers.Net.ss_broadcast to 9 honest servers (they reply)
     3. + protocol: a swsr-regular write+read pair
     4. + oracle: Oracles.Regularity over the pairs' history *)

open Registers
open Common

let engine ~seed =
  let trace = Sim.Trace.create ~record_events:false () in
  Sim.Engine.create ~trace ~rng:(Sim.Rng.create seed) ()

let drain e =
  let n = ref 0 in
  while Sim.Engine.step e do
    incr n
  done;
  !n

(* Every rung moves traffic in the shape of one ss-broadcast round: 9
   requests out, each answered by one reply, drained to quiescence, with
   seeded 1..10-tick delays; so at most 9 events are in flight and rung
   costs subtract cleanly. *)
let fanout = 9

(* Rung 0: [rounds] rounds of 9 events, each scheduling one follow-up. *)
let rung_engine ~seed rounds =
  let e = engine ~seed in
  let rng = Sim.Rng.create (seed + 1) in
  let delay () = Sim.Rng.int_in rng 1 10 in
  let fired = ref 0 in
  let (), dt =
    time (fun () ->
        for _ = 1 to rounds do
          for _ = 1 to fanout do
            Sim.Engine.schedule e ~delay:(delay ()) (fun () ->
                Sim.Engine.schedule e ~delay:(delay ()) ignore)
          done;
          fired := !fired + drain e
        done)
  in
  dt /. float_of_int !fired

(* Rung 1: the same rounds as messages over 9 request and 9 reply links. *)
let rung_link ~seed rounds =
  let e = engine ~seed in
  let rng = Sim.Rng.create (seed + 1) in
  let link name deliver =
    Sim.Link.create ~engine:e ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10) ~name
      ~deliver
  in
  let got = ref 0 in
  let replies = Array.init fanout (fun i -> link (Printf.sprintf "s%d->c" i) (fun () -> incr got)) in
  let requests =
    Array.init fanout (fun i ->
        link (Printf.sprintf "c->s%d" i) (fun () ->
            incr got;
            Sim.Link.send replies.(i) ()))
  in
  let (), dt =
    time (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun l -> Sim.Link.send l ()) requests;
          ignore (drain e)
        done)
  in
  dt /. float_of_int !got

let deployment ~seed =
  let e = engine ~seed in
  let params = Params.create_unchecked ~n:9 ~f:1 ~mode:Params.Async () in
  let net =
    Net.create ~engine:e ~params
      ~link_delay:(fun r -> Sim.Link.uniform r ~lo:1 ~hi:10)
      ()
  in
  ignore (Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.create (seed + 2)));
  (e, net)

(* Rung 2: [n] ss-broadcasts of a WRITE to 9 honest servers, each drained
   to quiescence (the servers' acknowledgments included); returns seconds
   per broadcast and messages per broadcast. *)
let rung_net ~seed n =
  let e, net = deployment ~seed in
  let port = Net.add_client net ~id:1 in
  let (), dt =
    time (fun () ->
        for k = 1 to n do
          let body = Messages.Write { Messages.sn = 0; v = Value.int k } in
          ignore (Sim.Fiber.spawn (fun () -> ignore (Net.ss_broadcast net port ~inst:0 body)));
          ignore (drain e);
          ignore (Sim.Mailbox.drain port.Net.mailbox)
        done)
  in
  let msgs = sent_total (Sim.Engine.metrics e) in
  (dt /. float_of_int n, ratio msgs n)

(* Rungs 3 and 4: [n] swsr-regular write+read pairs, then the oracle over
   their history. *)
let rung_protocol ~seed n =
  let e, net = deployment ~seed in
  let w = Swsr_regular.writer ~net ~client_id:1 ~inst:0 in
  let r = Swsr_regular.reader ~net ~client_id:2 ~inst:0 in
  let hist = Oracles.History.create () in
  let (), dt =
    time (fun () ->
        for k = 1 to n do
          ignore
            (Sim.Fiber.spawn (fun () ->
                 let v = Value.int k in
                 let inv = Sim.Engine.now e in
                 Swsr_regular.write w v;
                 Oracles.History.record hist ~proc:"w" ~kind:Oracles.History.Write ~inv
                   ~resp:(Sim.Engine.now e) v;
                 let inv = Sim.Engine.now e in
                 let got = Option.value ~default:Value.bot (Swsr_regular.read r) in
                 Oracles.History.record hist ~proc:"r" ~kind:Oracles.History.Read ~inv
                   ~resp:(Sim.Engine.now e) got));
          ignore (drain e)
        done)
  in
  let report, dt_oracle = time (fun () -> Oracles.Regularity.check hist) in
  ( dt /. float_of_int n,
    dt_oracle /. float_of_int (Oracles.History.length hist),
    Oracles.Regularity.is_clean report )

(* Each rung runs three times; the median run counts. *)
let med3 f = median (List.init 3 (fun _ -> Gc.full_major (); f ()))

let per_layer o ~seed =
  let ev = med3 (fun () -> rung_engine ~seed 20_000) in
  let msg = med3 (fun () -> rung_link ~seed 20_000) in
  let nets = List.init 3 (fun _ -> Gc.full_major (); rung_net ~seed 5_000) in
  let bc = median (List.map fst nets) and msgs_per_bc = snd (List.hd nets) in
  let pairs = List.init 3 (fun _ -> Gc.full_major (); rung_protocol ~seed 2_000) in
  List.iter (fun (_, _, clean) -> check o clean "ladder: oracle flagged the swsr-regular history") pairs;
  let pair = median (List.map (fun (p, _, _) -> p) pairs) in
  let oracle_op = median (List.map (fun (_, q, _) -> q) pairs) in
  metric o "ladder.engine_ns_per_event" "ns" (ev *. 1e9);
  metric o "ladder.link_ns_per_msg" "ns" (msg *. 1e9);
  metric o "ladder.net_ns_per_broadcast" "ns" (bc *. 1e9);
  metric o "ladder.protocol_ns_per_pair" "ns" (pair *. 1e9);
  metric o "ladder.oracle_ns_per_op" "ns" (oracle_op *. 1e9);
  metric o "sim.ns_per_event" "ns" (ev *. 1e9);
  metric o "link.ns_per_msg" "ns" ((msg -. ev) *. 1e9);
  metric o "net.ns_per_broadcast" "ns" ((bc -. (msgs_per_bc *. msg)) *. 1e9)
