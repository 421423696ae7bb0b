open Util

(* --- Parallel.Pool ---------------------------------------------------- *)

let test_map_order () =
  let xs = List.init 23 Fun.id in
  let squares = Parallel.Pool.map ~domains:4 (fun x -> x * x) xs in
  check_true "order and values preserved"
    (squares = List.map (fun x -> x * x) xs)

let test_map_single_domain () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  check_true "domains=1 is plain map"
    (Parallel.Pool.map ~domains:1 string_of_int xs
    = List.map string_of_int xs)

let test_map_empty () =
  check_true "empty input" (Parallel.Pool.map ~domains:4 Fun.id [] = [])

let test_map_more_domains_than_items () =
  check_true "domains > items"
    (Parallel.Pool.map ~domains:8 succ [ 1; 2 ] = [ 2; 3 ])

let test_map_invalid_domains () =
  match Parallel.Pool.map ~domains:0 Fun.id [ 1 ] with
  | _ -> Alcotest.fail "domains=0 accepted"
  | exception Invalid_argument _ -> ()

let test_failure_lowest_index () =
  (* Items 3 and 7 both raise; the reported failure must be item 3 —
     the lowest index — regardless of which domain hit its error
     first. *)
  match
    Parallel.Pool.map ~domains:4
      (fun x -> if x = 3 || x = 7 then failwith "boom" else x)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Parallel.Pool.Worker_failure (i, Failure _) ->
    check_int "lowest failing index" 3 i
  | exception e -> raise e

let test_item_zero_on_caller_domain () =
  let self = Domain.self () in
  let homes =
    Parallel.Pool.map ~domains:4 (fun _ -> Domain.self ()) [ 0; 1; 2; 3 ]
  in
  check_true "item 0 runs on the calling domain"
    (match homes with d :: _ -> d = self | [] -> false)

(* --- Parallel.Pool.map_checked (the deterministic race harness) ------- *)

let test_map_checked_clean_is_map () =
  let xs = List.init 17 Fun.id in
  check_true "clean map_checked is map"
    (Parallel.Pool.map_checked ~domains:4 (fun x -> x * x) xs
    = Parallel.Pool.map ~domains:4 (fun x -> x * x) xs)

let test_map_checked_single_domain () =
  Alcotest.(check (list int))
    "domains=1 still double-runs and agrees" [ 2; 3; 4 ]
    (Parallel.Pool.map_checked ~domains:1 succ [ 1; 2; 3 ])

let test_map_checked_catches_shared_state () =
  (* A worker reading a shared counter depends on execution order: the
     inverted second pass must expose it, lowest index first. *)
  let c = Atomic.make 0 in
  match
    Parallel.Pool.map_checked ~domains:1
      (fun _ -> Atomic.fetch_and_add c 1)
      [ 10; 20; 30 ]
  with
  | _ -> Alcotest.fail "order-dependent worker accepted"
  | exception Parallel.Pool.Nondeterministic i ->
    check_int "lowest differing index" 0 i

let test_map_checked_recheck_suppresses_side_effects () =
  (* First pass logs into a caller-local buffer; the recheck recomputes
     the value without re-logging — and must still be compared. *)
  let log = Buffer.create 32 in
  let f x =
    Buffer.add_string log (string_of_int x);
    x * 3
  in
  let r =
    Parallel.Pool.map_checked ~domains:1 ~recheck:(fun x -> x * 3) f [ 1; 2 ]
  in
  Alcotest.(check (list int)) "first-pass results returned" [ 3; 6 ] r;
  Alcotest.(check string) "side effects ran once" "12" (Buffer.contents log)

let test_map_checked_recheck_mismatch () =
  match
    Parallel.Pool.map_checked ~domains:2 ~recheck:(fun x -> x + 1) Fun.id
      [ 0; 1; 2 ]
  with
  | _ -> Alcotest.fail "diverging recheck accepted"
  | exception Parallel.Pool.Nondeterministic i ->
    check_int "lowest differing index" 0 i

let test_map_checked_second_pass_failure () =
  let seen = Atomic.make 0 in
  let f x =
    (* first visit of item 1 succeeds, the re-run raises *)
    if x = 1 && Atomic.fetch_and_add seen 1 > 0 then failwith "flaky" else x
  in
  match Parallel.Pool.map_checked ~domains:1 f [ 0; 1; 2 ] with
  | _ -> Alcotest.fail "second-pass failure accepted"
  | exception Parallel.Pool.Nondeterministic i ->
    check_int "failing item reported" 1 i

let test_map_checked_first_pass_failure_wins () =
  (* A first-pass failure is a plain Worker_failure, exactly as map. *)
  match
    Parallel.Pool.map_checked ~domains:4
      (fun x -> if x = 3 || x = 7 then failwith "boom" else x)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Parallel.Pool.Worker_failure (i, Failure _) ->
    check_int "lowest failing index" 3 i
  | exception e -> raise e

let test_map_checked_item_zero_on_caller_both_passes () =
  let self = Domain.self () in
  let homes =
    Parallel.Pool.map_checked ~domains:4
      (fun i -> if i = 0 then Domain.self () = self else true)
      [ 0; 1; 2; 3 ]
  in
  check_true "item 0 on the calling domain in both passes"
    (List.for_all Fun.id homes)

(* --- mc counterexample pipeline ------------------------------------- *)

let mc_cfg ?(n = 3) ?(f = 0) ?(byz = []) ?(read_budget = 2) () =
  {
    Mc.Config.family = Mc.Config.Regular;
    n;
    f;
    byz;
    writes = 1;
    reads = 1;
    read_budget;
    menu = [];
    oracle = Mc.Config.Family_default;
  }

(* A seed swarm fanned out through the race harness: every search runs
   twice under inverted scheduling and must agree with itself and, item
   by item, with the plain sequential search — verdict, trace and stats.
   The grid mixes clean exhaustive configs with a budget-truncated
   Byzantine one. *)
let test_race_check_agrees () =
  let truncated =
    ( mc_cfg ~n:9 ~f:1
        ~byz:[ (0, Mc.Config.Silent); (1, Mc.Config.Silent) ]
        ~read_budget:8 (),
      { Mc.Checker.max_states = 2_000; max_depth = 10_000 } )
  in
  let jobs =
    List.concat_map
      (fun seed ->
        [
          (seed, (mc_cfg (), Mc.Checker.default_budgets));
          (seed, (mc_cfg ~n:2 (), Mc.Checker.default_budgets));
          (seed, truncated);
        ])
      [ None; Some 1; Some 7 ]
  in
  let run (seed, (cfg, budgets)) = Mc.Checker.search ~budgets ?seed cfg in
  let checked = Parallel.Pool.map_checked ~domains:3 run jobs in
  List.iter2
    (fun (p : Mc.Checker.outcome) (s : Mc.Checker.outcome) ->
      check_true "verdicts equal"
        (Mc.Checker.verdict_equal p.Mc.Checker.verdict s.Mc.Checker.verdict);
      check_true "outcomes equal" (p = s))
    checked (List.map run jobs)

(* The whole [check] pipeline regenerates the committed examples/mc
   stuck artifact byte for byte. *)
let test_committed_artifact_byte_equal () =
  let path = "../examples/mc/mc-regular-stuck.json" in
  let committed =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let cex =
    match Obs.Json.parse committed with
    | Error e -> Alcotest.failf "%s does not parse: %s" path e
    | Ok j -> (
      match Mc.Checker.cex_of_json j with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok c -> c)
  in
  match (Mc.Checker.check cex.Mc.Checker.config).Mc.Checker.cex with
  | None -> Alcotest.fail "check found no counterexample"
  | Some c ->
    Alcotest.(check string)
      "check regenerates the committed bytes" committed
      (Obs.Json.to_string_pretty (Mc.Checker.cex_to_json c) ^ "\n")

(* --- chaos campaign fan-out ------------------------------------------ *)

let test_campaign_domains_deterministic () =
  let cfg =
    {
      (Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular) with
      Chaos.Campaign.writes = 10;
      reads = 8;
      initial = List.init 3 (fun i -> (i, Chaos.Strategy.Collude));
    }
  in
  let logs_seq = Buffer.create 128 and logs_par = Buffer.create 128 in
  let r1 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_seq (l ^ "\n"))
      cfg ~seed:11 ~trials:3
  in
  let r2 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_par (l ^ "\n"))
      ~domains:3 cfg ~seed:11 ~trials:3
  in
  let verdicts r =
    List.map
      (fun (t : Chaos.Campaign.trial) ->
        Chaos.Campaign.verdict_kind t.outcome.Chaos.Campaign.verdict)
      r.Chaos.Campaign.trials
  in
  check_true "verdicts identical" (verdicts r1 = verdicts r2);
  check_true "log stream identical"
    (String.equal (Buffer.contents logs_seq) (Buffer.contents logs_par));
  check_true "repro artifacts identical"
    (List.for_all2
       (fun (a : Chaos.Campaign.trial) (b : Chaos.Campaign.trial) ->
         match (a.repro, b.repro) with
         | None, None -> true
         | Some ra, Some rb ->
           String.equal
             (Obs.Json.to_string (Chaos.Campaign.repro_to_json ra))
             (Obs.Json.to_string (Chaos.Campaign.repro_to_json rb))
         | _ -> false)
       r1.Chaos.Campaign.trials r2.Chaos.Campaign.trials)

let test_campaign_race_check_agrees () =
  let cfg =
    {
      (Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular) with
      Chaos.Campaign.writes = 10;
      reads = 8;
      initial = List.init 3 (fun i -> (i, Chaos.Strategy.Collude));
    }
  in
  let logs_plain = Buffer.create 128 and logs_checked = Buffer.create 128 in
  let r1 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_plain (l ^ "\n"))
      ~domains:2 cfg ~seed:11 ~trials:3
  in
  let r2 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_checked (l ^ "\n"))
      ~domains:2 ~race_check:true cfg ~seed:11 ~trials:3
  in
  let verdicts r =
    List.map
      (fun (t : Chaos.Campaign.trial) ->
        Chaos.Campaign.verdict_kind t.outcome.Chaos.Campaign.verdict)
      r.Chaos.Campaign.trials
  in
  check_true "verdicts identical" (verdicts r1 = verdicts r2);
  check_true "log stream identical"
    (String.equal (Buffer.contents logs_plain) (Buffer.contents logs_checked))

let tests =
  [
    case "pool: map preserves order" test_map_order;
    case "pool: domains=1 is plain map" test_map_single_domain;
    case "pool: empty input" test_map_empty;
    case "pool: more domains than items" test_map_more_domains_than_items;
    case "pool: domains=0 rejected" test_map_invalid_domains;
    case "pool: failure reports lowest index" test_failure_lowest_index;
    case "pool: item 0 on caller domain" test_item_zero_on_caller_domain;
    case "pool: clean map_checked is map" test_map_checked_clean_is_map;
    case "pool: map_checked at domains=1" test_map_checked_single_domain;
    case "pool: map_checked catches shared state"
      test_map_checked_catches_shared_state;
    case "pool: recheck suppresses side effects"
      test_map_checked_recheck_suppresses_side_effects;
    case "pool: diverging recheck is nondeterminism"
      test_map_checked_recheck_mismatch;
    case "pool: second-pass failure is nondeterminism"
      test_map_checked_second_pass_failure;
    case "pool: first-pass failure stays Worker_failure"
      test_map_checked_first_pass_failure_wins;
    case "pool: map_checked keeps item 0 on caller"
      test_map_checked_item_zero_on_caller_both_passes;
    case "mc: race-checked search agrees" test_race_check_agrees;
    case "mc: committed artifact regenerated byte-for-byte"
      test_committed_artifact_byte_equal;
    case "chaos: campaign fan-out deterministic"
      test_campaign_domains_deterministic;
    case "chaos: race-checked campaign agrees"
      test_campaign_race_check_agrees;
  ]
