(* Differential tests of the history checkers: the sorted sweeps in
   Oracles.Regularity / Oracles.Atomicity against the all-pairs
   reference in Oracle_spec, on random histories and on real simulator
   histories, report for report, list order included.  Plus scale pins:
   20,000-op histories that an all-pairs checker could not get through
   in tier-1 time. *)

open Util
open Oracles

(* --- typed report equality ------------------------------------------- *)

let ts_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (e1, s1, p1), Some (e2, s2, p2) ->
    Registers.Epoch.equal e1 e2 && Int.equal s1 s2 && Int.equal p1 p2
  | Some _, None | None, Some _ -> false

let kind_equal (a : History.kind) (b : History.kind) =
  match (a, b) with
  | History.Write, History.Write | History.Read, History.Read -> true
  | History.Write, History.Read | History.Read, History.Write -> false

let op_equal (a : History.op) (b : History.op) =
  String.equal a.proc b.proc && kind_equal a.kind b.kind
  && Sim.Vtime.compare a.inv b.inv = 0
  && Sim.Vtime.compare a.resp b.resp = 0
  && Registers.Value.equal a.value b.value
  && Bool.equal a.ok b.ok && ts_equal a.ts b.ts

let regularity_equal (a : Regularity.report) (b : Regularity.report) =
  Int.equal a.reads_checked b.reads_checked
  && Int.equal a.reads_skipped b.reads_skipped
  && Int.equal a.liveness_failures b.liveness_failures
  && List.equal
       (fun (v : Regularity.violation) (w : Regularity.violation) ->
         op_equal v.read w.read && List.equal Registers.Value.equal v.expected w.expected)
       a.violations b.violations

let sw_equal (a : Atomicity.Sw.report) (b : Atomicity.Sw.report) =
  regularity_equal a.regularity b.regularity
  && List.equal
       (fun (x : Atomicity.inversion) (y : Atomicity.inversion) ->
         op_equal x.earlier_read y.earlier_read && op_equal x.later_read y.later_read)
       a.inversions b.inversions
  && List.equal String.equal a.malformed b.malformed

let mw_equal (a : Atomicity.Mw.report) (b : Atomicity.Mw.report) =
  Int.equal a.writes_checked b.writes_checked
  && Int.equal a.reads_checked b.reads_checked
  && List.equal
       (fun (v : Atomicity.Mw.violation) (w : Atomicity.Mw.violation) ->
         String.equal v.kind w.kind && String.equal v.detail w.detail)
       a.violations b.violations

(* Every checker, every option, against the reference.  Returns the first
   disagreement, printed both ways. *)
let disagreement ?cutoff h =
  let show pp r = Format.asprintf "%a" pp r in
  let cutoff_s =
    match cutoff with None -> "none" | Some c -> string_of_int (Sim.Vtime.to_int c)
  in
  let first = ref None in
  let expect what equal pp fast spec =
    if Option.is_none !first && not (equal fast spec) then
      first :=
        Some
          (Printf.sprintf "%s (cutoff %s)\nfast:\n%s\nspec:\n%s" what cutoff_s
             (show pp fast) (show pp spec))
  in
  List.iter
    (fun initial_ok ->
      expect
        (Printf.sprintf "regularity initial_ok=%b" initial_ok)
        regularity_equal Regularity.pp
        (Regularity.check ?cutoff ~initial_ok h)
        (Oracle_spec.Regularity.check ?cutoff ~initial_ok h))
    [ false; true ];
  expect "sw" sw_equal Atomicity.Sw.pp (Atomicity.Sw.check ?cutoff h)
    (Oracle_spec.Sw.check ?cutoff h);
  List.iter
    (fun (name, tie) ->
      expect ("mw " ^ name) mw_equal Atomicity.Mw.pp
        (Atomicity.Mw.check ?cutoff ~tie h)
        (Oracle_spec.Mw.check ?cutoff ~tie h))
    [ ("min", `Min_index); ("max", `Max_index) ];
  !first

(* --- random histories ------------------------------------------------ *)

let epoch s a = { Registers.Epoch.s; a }

let genesis = Registers.Epoch.genesis ~k:3

let next1 = Registers.Epoch.next_epoch ~k:3 [ genesis ]

let next2 = Registers.Epoch.next_epoch ~k:3 [ genesis; next1 ]

(* [x] and [y] are incomparable; [c1 > c2 > c3 > c1] is a cycle. *)
let x = epoch 1 [ 2; 7; 8 ]

let y = epoch 2 [ 1; 9; 10 ]

let c1 = epoch 1 [ 2; 4; 5 ]

let c2 = epoch 2 [ 3; 6; 7 ]

let c3 = epoch 3 [ 1; 8; 9 ]

let epoch_pools =
  [|
    [| genesis |];
    [| genesis; next1 |];
    [| genesis; next1; next2 |];
    [| x; y |];
    [| genesis; x; y |];
    [| c1; c2; c3 |];
  |]

type raw = {
  write : bool;
  who : int;
  inv : int;
  len : int;
  value : int;  (** negative: [Bot] *)
  ok : bool;
  stamp : (int * int) option;  (** (epoch index, seq) *)
  copy : int option;  (** a read returning the [copy]-th write's value and stamp *)
}

type case = { pool : int; writers : int; raws : raw list; cutoff : int option }

let gen_case =
  let open QCheck.Gen in
  let* pool = int_range 0 (Array.length epoch_pools - 1) in
  let npool = Array.length epoch_pools.(pool) in
  let* writers = int_range 1 3 in
  let* n = int_range 0 24 in
  let* raws =
    list_repeat n
      (let* write = bool in
       let* who = int_range 0 (writers - 1) in
       let* inv = int_range 0 40 in
       let* len = frequency [ (1, return 0); (4, int_range 1 12) ] in
       let* value = frequency [ (1, return (-1)); (8, int_range 0 10) ] in
       let* ok = frequency [ (1, return false); (8, return true) ] in
       let* stamp =
         frequency
           [
             (1, return None);
             (8, map2 (fun e s -> Some (e, s)) (int_range 0 (npool - 1)) (int_range 0 3));
           ]
       in
       let* copy = frequency [ (1, return None); (1, map Option.some (int_range 0 20)) ] in
       return { write; who; inv; len; value; ok; stamp; copy })
  in
  let* cutoff = frequency [ (1, return None); (1, map Option.some (int_range 0 40)) ] in
  return { pool; writers; raws; cutoff }

let history_of c =
  let pool = epoch_pools.(c.pool) in
  let h = History.create () in
  let value v = if v < 0 then Registers.Value.bot else int_value v in
  let stamp who = Option.map (fun (e, s) -> (pool.(e), s, who)) in
  let writes =
    Array.of_list
      (List.filter_map
         (fun r -> if r.write then Some (value r.value, stamp r.who r.stamp) else None)
         c.raws)
  in
  List.iter
    (fun r ->
      let inv = Sim.Vtime.of_int r.inv and resp = Sim.Vtime.of_int (r.inv + r.len) in
      if r.write then
        History.record h ~proc:(Printf.sprintf "p%d" r.who) ~kind:History.Write ~inv
          ~resp ?ts:(stamp r.who r.stamp) (value r.value)
      else
        let v, ts =
          match r.copy with
          | Some i when Array.length writes > 0 -> writes.(i mod Array.length writes)
          | Some _ | None -> (value r.value, stamp (r.who + 10) r.stamp)
        in
        History.record h ~proc:(Printf.sprintf "r%d" r.who) ~kind:History.Read ~inv ~resp
          ?ts ~ok:r.ok v)
    c.raws;
  h

let print_case c =
  let h = history_of c in
  Printf.sprintf "writers=%d pool=%d cutoff=%s\n%s" c.writers c.pool
    (match c.cutoff with None -> "none" | Some t -> string_of_int t)
    (String.concat "\n"
       (List.map
          (fun (o : History.op) ->
            Format.asprintf "%a%s" History.pp_op o
              (match o.ts with
              | None -> ""
              | Some (e, s, p) -> Format.asprintf " ts=%a/%d/%d" Registers.Epoch.pp e s p))
          (History.ops h)))

let prop_random_histories =
  QCheck.Test.make ~name:"sweeps = all-pairs reference on random histories" ~count:1500
    (QCheck.make gen_case ~print:print_case)
    (fun c ->
      let h = history_of c in
      match disagreement ?cutoff:(Option.map Sim.Vtime.of_int c.cutoff) h with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* --- real simulator histories ---------------------------------------- *)

type family = Regular | Atomic | Swmr | Swmr_wb | Mwmr

let family_name = function
  | Regular -> "regular"
  | Atomic -> "atomic"
  | Swmr -> "swmr"
  | Swmr_wb -> "swmr_wb"
  | Mwmr -> "mwmr"

(* One deployment of [family] (n=9, f=1) with a short mixed workload.
   With [faults], server 0 answers garbage and every registered piece of
   state is corrupted once, mid-run. *)
let sim_history family ~seed ~faults =
  let params = Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async () in
  let scn = Harness.Scenario.create ~seed ~params () in
  let net = scn.Harness.Scenario.net in
  if faults then begin
    Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
      Byzantine.Behavior.garbage;
    Sim.Fault.schedule scn.Harness.Scenario.fault ~engine:scn.Harness.Scenario.engine
      ~at:(Sim.Vtime.of_int (40 + (seed mod 200)))
      ~prefix:""
  end;
  let gap = Harness.Workload.gap 0 15 in
  let budget = 40 in
  let writer write () = Harness.Workload.writer_job scn ~write ~count:12 ~gap () in
  let reader proc read () =
    Harness.Workload.reader_job scn ~proc ~read ~count:12 ~gap ()
  in
  let jobs =
    match family with
    | Regular ->
      let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
      let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
      [
        writer (Registers.Swsr_regular.write w);
        reader "reader" (fun () -> Registers.Swsr_regular.read ~max_iterations:budget r);
      ]
    | Atomic ->
      let w = Registers.Swsr_atomic.writer ~net ~client_id:100 ~inst:0 () in
      let r = Registers.Swsr_atomic.reader ~net ~client_id:101 ~inst:0 () in
      [
        writer (Registers.Swsr_atomic.write w);
        reader "reader" (fun () -> Registers.Swsr_atomic.read ~max_iterations:budget r);
      ]
    | Swmr ->
      let w = Registers.Swmr.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
      writer (Registers.Swmr.write w)
      :: List.init 2 (fun i ->
             let r =
               Registers.Swmr.reader ~net ~client_id:(101 + i) ~base_inst:0 ~reader_index:i ()
             in
             reader (Printf.sprintf "r%d" i) (fun () ->
                 Registers.Swmr.read ~max_iterations:budget r))
    | Swmr_wb ->
      let w = Registers.Swmr_wb.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
      writer (Registers.Swmr_wb.write w)
      :: List.init 2 (fun i ->
             let r =
               Registers.Swmr_wb.reader ~net ~client_id:(101 + i) ~base_inst:0
                 ~reader_index:i ~readers:2 ()
             in
             reader (Printf.sprintf "r%d" i) (fun () ->
                 Registers.Swmr_wb.read ~max_iterations:budget r))
    | Mwmr ->
      let cfg = Registers.Mwmr.default_config ~m:3 in
      List.init 3 (fun i ->
          let process =
            Registers.Mwmr.process ~net ~cfg ~id:i ~client_id:(300 + i)
          in
          fun () ->
            Harness.Workload.mwmr_job scn ~proc:(Printf.sprintf "p%d" i) ~process ~ops:10
              ~write_ratio:0.5 ~gap ~max_iterations:budget ())
  in
  List.iter (fun job -> ignore (Sim.Fiber.spawn job)) jobs;
  Harness.Scenario.run ~until:(Sim.Vtime.of_int 50_000) scn;
  scn.Harness.Scenario.history

let test_sim_histories () =
  List.iter
    (fun family ->
      List.iter
        (fun faults ->
          for seed = 1 to 6 do
            let h = sim_history family ~seed ~faults in
            let cutoffs =
              None
              :: List.filter_map
                   (fun (w : History.op) ->
                     if Sim.Vtime.to_int w.inv mod 3 = 0 then Some (Some w.resp) else None)
                   (History.writes h)
            in
            List.iter
              (fun cutoff ->
                match disagreement ?cutoff h with
                | None -> ()
                | Some msg ->
                  Alcotest.failf "%s seed %d faults %b: %s" (family_name family) seed
                    faults msg)
              cutoffs
          done)
        [ false; true ])
    [ Regular; Atomic; Swmr; Swmr_wb; Mwmr ]

(* --- scale pins ------------------------------------------------------ *)

let scale_ops = 20_000

(* Three writers take turns; each write is followed by a read that
   overlaps the next write and returns the newer value.  Clean. *)
let test_mw_scale () =
  let h = History.create () in
  let ts k = (genesis, k, k mod 3) in
  for k = 1 to scale_ops / 2 do
    let t = 10 * k in
    History.record h ~proc:(Printf.sprintf "p%d" (k mod 3)) ~kind:History.Write
      ~inv:(Sim.Vtime.of_int t) ~resp:(Sim.Vtime.of_int (t + 4)) ~ts:(ts k) (int_value k);
    History.record h ~proc:"r" ~kind:History.Read ~inv:(Sim.Vtime.of_int (t + 5))
      ~resp:(Sim.Vtime.of_int (t + 12)) ~ts:(ts k) (int_value k)
  done;
  let r = Atomicity.Mw.check ~tie:`Min_index h in
  check_true "clean" (Atomicity.Mw.is_clean r);
  check_int "writes" (scale_ops / 2) r.writes_checked;
  check_int "reads" (scale_ops / 2) r.reads_checked

(* One writer, one reader whose reads straddle the writes. *)
let sw_scale_history () =
  let h = History.create () in
  for k = 1 to scale_ops / 2 do
    let t = 10 * k in
    History.record h ~proc:"writer" ~kind:History.Write ~inv:(Sim.Vtime.of_int t)
      ~resp:(Sim.Vtime.of_int (t + 6)) (int_value k);
    History.record h ~proc:"reader" ~kind:History.Read ~inv:(Sim.Vtime.of_int (t + 3))
      ~resp:(Sim.Vtime.of_int (t + 9)) (int_value k)
  done;
  h

let test_sw_scale () =
  let h = sw_scale_history () in
  let r = Atomicity.Sw.check h in
  check_true "clean" (Atomicity.Sw.is_clean r);
  check_int "reads" (scale_ops / 2) r.regularity.reads_checked

let test_regularity_scale () =
  let r = Regularity.check (sw_scale_history ()) in
  check_true "clean" (Regularity.is_clean r);
  check_int "reads" (scale_ops / 2) r.reads_checked

let tests =
  [
    qcheck prop_random_histories;
    case "sweeps = reference on simulator histories" test_sim_histories;
    case "scale: 20k-op mwmr history" test_mw_scale;
    case "scale: 20k-op single-writer history (sw)" test_sw_scale;
    case "scale: 20k-op single-writer history (regularity)" test_regularity_scale;
  ]
