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

(* --- exploration pins ------------------------------------------------ *)

(* The benchmark's configuration: one silent Byzantine server against
   t=1 at n=4, one write, one read with a budget of two inquiries. *)
let bench_cfg =
  {
    tiny_cfg with
    Mc.Config.n = 4;
    f = 1;
    byz = [ (0, Mc.Config.Silent) ];
  }

(* The exact work of an exhaustive search, field by field.  The numbers
   are those of the fiber-backed search, which replayed every non-last
   sibling; snapshots must explore the same states and replay nothing. *)
let pin_stats name cfg ~states ~unique ~transitions ~terminals ~revisits
    ~sleep_skips ~sym_skips ~max_depth () =
  let o = Mc.Checker.search cfg in
  let s = o.Mc.Checker.stats in
  check_true (name ^ ": clean") (o.Mc.Checker.verdict = Mc.Checker.Clean);
  check_true (name ^ ": exhaustive") o.Mc.Checker.exhaustive;
  List.iter
    (fun (field, want, got) -> check_int (name ^ ": " ^ field) want got)
    [
      ("states", states, s.Mc.Checker.states);
      ("unique states", unique, s.Mc.Checker.peak_visited);
      ("transitions", transitions, s.Mc.Checker.transitions);
      ("terminals", terminals, s.Mc.Checker.terminals);
      ("revisits", revisits, s.Mc.Checker.revisits);
      ("sleep skips", sleep_skips, s.Mc.Checker.sleep_skips);
      ("symmetry skips", sym_skips, s.Mc.Checker.sym_skips);
      ("max depth", max_depth, s.Mc.Checker.max_depth_seen);
      ("replays", 0, s.Mc.Checker.replays);
    ]

(* --- the regular family's data state against the fiber reference ---- *)

let regular ?(menu = []) ?(oracle = Mc.Config.Family_default) ~n ~f ~byz
    ~writes ~reads ~read_budget () =
  {
    tiny_cfg with
    Mc.Config.n;
    f;
    byz;
    writes;
    reads;
    read_budget;
    menu;
    oracle;
  }

let collude = Mc.Config.Collude { sn = 3; v = 99 }

let differential_cfgs =
  [
    ("n=3 honest, 2 writes, 2 reads",
      regular ~n:3 ~f:0 ~byz:[] ~writes:2 ~reads:2 ~read_budget:2 ());
    ( "n=4 silent, server and round corruption",
      regular ~n:4 ~f:1
        ~byz:[ (0, Mc.Config.Silent) ]
        ~writes:1 ~reads:2 ~read_budget:3
        ~menu:
          [
            Mc.Config.Corrupt_server { server = 1; sn = 0; v = 7 };
            Mc.Config.Corrupt_round { client = 101; round = 0 };
            Mc.Config.Corrupt_round { client = 100; round = -5 };
          ]
        () );
    ( "n=5 collude, crash-recovery, atomic oracle",
      regular ~n:5 ~f:1 ~byz:[ (4, collude) ] ~writes:2 ~reads:2
        ~read_budget:2
        ~menu:[ Mc.Config.Crash_recover { server = 2 } ]
        ~oracle:Mc.Config.Atomic_oracle () );
    ( "n=4 two colluders over t=1",
      regular ~n:4 ~f:1
        ~byz:[ (1, collude); (2, collude) ]
        ~writes:1 ~reads:1 ~read_budget:2
        ~menu:[ Mc.Config.Corrupt_server { server = 0; sn = 9; v = 5 } ]
        () );
    ( "n=3 all Byzantine (zero-target ticks)",
      regular ~n:3 ~f:1
        ~byz:[ (0, Mc.Config.Silent); (1, collude); (2, Mc.Config.Silent) ]
        ~writes:1 ~reads:2 ~read_budget:2
        ~menu:[ Mc.Config.Corrupt_round { client = 100; round = 3 } ]
        () );
    ( "n=4 t=2 (zero target beside correct servers)",
      regular ~n:4 ~f:2 ~byz:[] ~writes:1 ~reads:1 ~read_budget:2 () );
  ]

let traffic sys =
  Obs.Metrics.counters (Sim.Engine.metrics (Mc.Sys.engine sys))
  |> List.filter (fun (name, _) ->
         String.equal name "ss.broadcasts"
         || String.starts_with ~prefix:"msg.sent." name)

let render_ops sys =
  List.map
    (Format.asprintf "%a" Oracles.History.pp_op)
    (Oracles.History.ops (Mc.Sys.history sys))

(* Everything observable about one state must agree between the two
   representations. *)
let same_state where data live =
  let moves = Mc.Sys.enabled data in
  check_true (where ^ ": enabled moves")
    (List.equal Mc.Sys.move_equal moves (Mc.Sys.enabled live));
  Alcotest.(check string)
    (where ^ ": fingerprint") (Mc.Sys.fingerprint live)
    (Mc.Sys.fingerprint data);
  Alcotest.(check (list string))
    (where ^ ": history") (render_ops live) (render_ops data);
  Alcotest.(check (list int))
    (where ^ ": corruption instants")
    (Mc.Sys.corrupt_times live)
    (Mc.Sys.corrupt_times data);
  Alcotest.(check (list string))
    (where ^ ": unfinished clients") (Mc.Sys.stuck live) (Mc.Sys.stuck data);
  Alcotest.(check (list (pair string int)))
    (where ^ ": traffic counters") (traffic live) (traffic data);
  if moves = [] then
    check_true (where ^ ": terminal verdict")
      (Mc.Checker.verdict_equal
         (Mc.Checker.terminal_verdict live)
         (Mc.Checker.terminal_verdict data));
  moves

let walks_per_cfg = 25

let test_data_state_matches_fibers () =
  let rng = Random.State.make [| 2015 |] in
  List.iter
    (fun (name, cfg) ->
      let ticks = ref 0 and corrupts = ref 0 in
      for w = 1 to walks_per_cfg do
        let data = Mc.Sys.create cfg and live = Mc.Sys.create_fibers cfg in
        let rec go step =
          let where = Printf.sprintf "%s, walk %d, step %d" name w step in
          match same_state where data live with
          | [] -> ()
          | moves ->
            let choices = Array.of_list moves in
            let pick () =
              choices.(Random.State.int rng (Array.length choices))
            in
            (* A snapshot is independent: driving it elsewhere leaves the
               original untouched. *)
            (match Mc.Sys.snapshot data with
            | Some copy ->
              let before = Mc.Sys.fingerprint data in
              check_true (where ^ ": snapshot applies")
                (Mc.Sys.apply copy (pick ()));
              Alcotest.(check string)
                (where ^ ": original unchanged by its snapshot") before
                (Mc.Sys.fingerprint data)
            | None -> Alcotest.fail "regular state did not snapshot");
            let mv = pick () in
            (match mv with
            | Mc.Sys.Tick _ -> incr ticks
            | Mc.Sys.Corrupt _ -> incr corrupts
            | Mc.Sys.Deliver _ -> ());
            check_true (where ^ ": live applies") (Mc.Sys.apply live mv);
            check_true (where ^ ": data applies") (Mc.Sys.apply data mv);
            go (step + 1)
        in
        go 0
      done;
      if List.length cfg.Mc.Config.byz = cfg.Mc.Config.n then
        check_true (name ^ ": walks fired ticks") (!ticks > 0);
      if cfg.Mc.Config.menu <> [] then
        check_true (name ^ ": walks fired corruptions") (!corrupts > 0))
    differential_cfgs

(* --- malformed move indices ------------------------------------------ *)

(* The committed stuck artifact with one extra move spliced into its
   trace. *)
let with_extra_move move =
  match parse_json (Filename.concat examples "mc-regular-stuck.json") with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "trace", Obs.Json.List items -> (k, Obs.Json.List (move :: items))
           | _ -> (k, v))
         fields)
  | _ -> Alcotest.fail "artifact is not an object"

let negative_moves =
  [
    ( "tick",
      Obs.Json.Obj
        [ ("move", Obs.Json.Str "tick"); ("index", Obs.Json.Int (-1)) ],
      "move.index: expected a non-negative index, got -1",
      Mc.Sys.Tick (-1) );
    ( "corrupt",
      Obs.Json.Obj
        [ ("move", Obs.Json.Str "corrupt"); ("item", Obs.Json.Int (-1)) ],
      "move.item: expected a non-negative index, got -1",
      Mc.Sys.Corrupt (-1) );
  ]

let test_negative_indices_rejected () =
  let menu_cfg =
    {
      tiny_cfg with
      Mc.Config.menu = [ Mc.Config.Crash_recover { server = 0 } ];
    }
  in
  List.iter
    (fun (name, json, error, mv) ->
      let artifact = with_extra_move json in
      List.iter
        (fun (what, parsed) ->
          match parsed with
          | Ok () ->
            Alcotest.failf "%s: %s with a negative index parsed" name what
          | Error e ->
            Alcotest.(check string) (name ^ ": " ^ what ^ " error") error e)
        [
          ("cex", Result.map ignore (Mc.Checker.cex_of_json artifact));
          ("guide", Result.map ignore (Mc.Checker.guide_of_json artifact));
        ];
      List.iter
        (fun (impl, sys) ->
          check_false
            (name ^ ": " ^ impl ^ " treats it as inapplicable")
            (Mc.Sys.apply ~strict:false sys mv);
          match Mc.Sys.apply sys mv with
          | _ -> Alcotest.failf "%s: %s strict apply succeeded" name impl
          | exception Invalid_argument msg ->
            check_true
              (name ^ ": " ^ impl ^ " raises its own error")
              (String.starts_with ~prefix:"Mc.Sys.apply" msg))
        [
          ("data", Mc.Sys.create menu_cfg);
          ("fibers", Mc.Sys.create_fibers menu_cfg);
        ])
    negative_moves

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
    case "exploration pin: bench config (n=4, 1 silent)"
      (pin_stats "bench" bench_cfg ~states:27_123 ~unique:6_731
         ~transitions:27_122 ~terminals:55 ~revisits:20_337
         ~sleep_skips:23_915 ~sym_skips:5_957 ~max_depth:25);
    case "exploration pin: tiny config (n=3)"
      (pin_stats "tiny" tiny_cfg ~states:1_805 ~unique:599 ~transitions:1_804
         ~terminals:13 ~revisits:1_193 ~sleep_skips:1_139 ~sym_skips:406
         ~max_depth:15);
    case "regular data state matches the fiber reference"
      test_data_state_matches_fibers;
    case "negative move indices are rejected" test_negative_indices_rejected;
  ]
