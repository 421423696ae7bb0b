open Util

(* lib/mc: bounded model checker over the register protocols. *)

let tiny_cfg =
  {
    Mc.Config.family = Mc.Config.Regular;
    n = 3;
    f = 0;
    byz = [];
    writes = 1;
    reads = 1;
    read_budget = 2;
    menu = [];
    oracle = Mc.Config.Family_default;
  }

(* Declared fault bound t=1 but two silent Byzantine servers: the n-f ack
   quorum is unreachable, so every execution deadlocks the clients. *)
let overbound_cfg =
  {
    tiny_cfg with
    Mc.Config.n = 9;
    f = 1;
    byz = [ (0, Mc.Config.Silent); (1, Mc.Config.Silent) ];
    read_budget = 8;
  }

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_json path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: parse error: %s" path e

(* The committed example artifacts, copied into the build tree by the
   test stanza's deps. *)
let examples = "../examples/mc"

(* --- exhaustive verification of a tiny in-bound configuration ------- *)

let test_tiny_exhaustive_clean () =
  let o = Mc.Checker.search tiny_cfg in
  check_true "clean" (o.Mc.Checker.verdict = Mc.Checker.Clean);
  check_true "exhaustive (no budget hit)" o.Mc.Checker.exhaustive;
  check_true "explored something" (o.Mc.Checker.stats.Mc.Checker.states > 0)

(* Sleep sets + symmetry must not change the verdict, only the state
   count: re-search without any reduction and compare. *)
let test_reduction_soundness_cross_check () =
  let reduced = Mc.Checker.search ~reduction:Mc.Checker.Sleep_sets tiny_cfg in
  let full = Mc.Checker.search ~reduction:Mc.Checker.No_reduction tiny_cfg in
  check_true "both exhaustive"
    (reduced.Mc.Checker.exhaustive && full.Mc.Checker.exhaustive);
  check_true "same verdict"
    (Mc.Checker.same_verdict reduced.Mc.Checker.verdict
       full.Mc.Checker.verdict);
  (* No state-count inequality: sleep-set subsumption may re-expand a
     state the plain visited set would prune (different sleep sets), so
     only the verdicts are comparable. *)
  check_true "reduction skipped something"
    (reduced.Mc.Checker.stats.Mc.Checker.sleep_skips
     + reduced.Mc.Checker.stats.Mc.Checker.sym_skips
    > 0)

(* A shuffled exploration order covers the same reduced space: identical
   exhaustive verdict, and the same seed gives the same run twice.  Two
   searches in the same order — default or seeded, clean or violating —
   are structurally identical outcomes: verdict, trace, exhaustiveness
   and every stat, so no hidden global state leaks between runs. *)
let test_order_seed_deterministic () =
  let a = Mc.Checker.search ~seed:5 tiny_cfg in
  let b = Mc.Checker.search ~seed:5 tiny_cfg in
  check_true "seeded run is exhaustive" a.Mc.Checker.exhaustive;
  check_true "seeded verdict matches default order"
    (Mc.Checker.same_verdict a.Mc.Checker.verdict
       (Mc.Checker.search tiny_cfg).Mc.Checker.verdict);
  check_int "same seed, same exploration"
    a.Mc.Checker.stats.Mc.Checker.states
    b.Mc.Checker.stats.Mc.Checker.states;
  List.iter
    (fun (name, seed, cfg) ->
      check_true (name ^ ": two searches structurally equal")
        (Mc.Checker.search ?seed cfg = Mc.Checker.search ?seed cfg))
    [
      ("tiny, default order", None, tiny_cfg);
      ("tiny, seed 5", Some 5, tiny_cfg);
      ("over-bound, default order", None, overbound_cfg);
    ]

(* --- the negative run: violation found, shrunk, replayed ------------ *)

let test_overbound_stuck_found_and_replayable () =
  let r = Mc.Checker.check overbound_cfg in
  (match r.Mc.Checker.outcome.Mc.Checker.verdict with
  | Mc.Checker.Violation { kind = "stuck"; _ } -> ()
  | v -> Alcotest.failf "expected stuck, got %s" (Mc.Checker.verdict_kind v));
  match r.Mc.Checker.cex with
  | None -> Alcotest.fail "violation produced no counterexample"
  | Some cex -> (
    check_true "shrinker ran" (r.Mc.Checker.shrink_runs > 0);
    match Mc.Checker.replay cex with
    | Ok v ->
      check_true "replay reproduces the verdict"
        (Mc.Checker.verdict_equal v cex.Mc.Checker.verdict)
    | Error e -> Alcotest.failf "replay failed: %s" e)

(* The target filter skips violations of other kinds instead of stopping
   on them. *)
let test_target_filter_skips_other_kinds () =
  let budgets = { Mc.Checker.max_states = 2_000; max_depth = 10_000 } in
  let o = Mc.Checker.search ~budgets ~target:"inversion" overbound_cfg in
  check_true "stuck terminals do not end the hunt"
    (o.Mc.Checker.verdict = Mc.Checker.Clean);
  check_true "they are counted instead"
    (o.Mc.Checker.stats.Mc.Checker.off_target > 0)

(* --- cex artifacts: JSON round trip and the committed examples ------ *)

let test_cex_json_round_trip () =
  let r = Mc.Checker.check overbound_cfg in
  let cex =
    match r.Mc.Checker.cex with
    | Some c -> c
    | None -> Alcotest.fail "no counterexample"
  in
  match Mc.Checker.cex_of_json (Mc.Checker.cex_to_json cex) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok c ->
    check_true "trace survives"
      (List.for_all2 Mc.Sys.move_equal c.Mc.Checker.trace
         cex.Mc.Checker.trace);
    check_true "verdict survives"
      (Mc.Checker.verdict_equal c.Mc.Checker.verdict cex.Mc.Checker.verdict);
    check_true "digest survives"
      (String.equal c.Mc.Checker.digest cex.Mc.Checker.digest)

let replay_committed name () =
  let path = Filename.concat examples name in
  match Mc.Checker.cex_of_json (parse_json path) with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok cex -> (
    match Mc.Checker.replay cex with
    | Ok v ->
      check_true "replay reproduces the recorded verdict bit-for-bit"
        (Mc.Checker.verdict_equal v cex.Mc.Checker.verdict)
    | Error e -> Alcotest.failf "%s: replay failed: %s" path e)

(* --- guided witness schedules --------------------------------------- *)

(* The committed witness drives the regular protocol (judged against the
   SW-atomicity oracle) into the paper's Fig. 1 new/old inversion: a
   second write lands on 3 of 6 servers, one read quorum sees all three
   fresh copies, the next read quorum sees only two. *)
let test_guided_witness_finds_inversion () =
  let path = Filename.concat examples "inversion-witness.json" in
  let cfg, schedule =
    match Mc.Checker.guide_of_json (parse_json path) with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let r = Mc.Checker.guided ~shrink_violations:false cfg schedule in
  match r.Mc.Checker.outcome.Mc.Checker.verdict with
  | Mc.Checker.Violation { kind = "inversion"; _ } -> ()
  | v ->
    Alcotest.failf "expected inversion, got %s" (Mc.Checker.verdict_kind v)

let tests =
  [
    case "tiny config verified exhaustively" test_tiny_exhaustive_clean;
    case "reduction soundness cross-check" test_reduction_soundness_cross_check;
    case "seeded order is sound and deterministic"
      test_order_seed_deterministic;
    case "over-bound config: stuck found, shrunk, replayed"
      test_overbound_stuck_found_and_replayable;
    case "target filter skips other kinds" test_target_filter_skips_other_kinds;
    case "cex JSON round trip" test_cex_json_round_trip;
    case "committed stuck artifact replays"
      (replay_committed "mc-regular-stuck.json");
    case "committed inversion artifact replays"
      (replay_committed "mc-regular-inversion.json");
    case "guided witness finds the inversion"
      test_guided_witness_finds_inversion;
  ]
