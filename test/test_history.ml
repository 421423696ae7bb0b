open Util
open Oracles

let t i = Sim.Vtime.of_int i

let mk_op ?(proc = "p") ?(ok = true) kind inv resp v =
  (proc, kind, t inv, t resp, int_value v, ok)

let record h (proc, kind, inv, resp, v, ok) =
  History.record h ~proc ~kind ~inv ~resp ~ok v

let test_record_and_sort () =
  let h = History.create () in
  record h (mk_op History.Read 10 20 1);
  record h (mk_op History.Write 0 5 2);
  record h (mk_op History.Read 7 9 3);
  check_int "length" 3 (History.length h);
  let invs = List.map (fun (o : History.op) -> Sim.Vtime.to_int o.inv) (History.ops h) in
  check_true "sorted by invocation" (invs = [ 0; 7; 10 ]);
  check_int "writes" 1 (List.length (History.writes h));
  check_int "reads" 2 (List.length (History.reads h))

let test_stable_order_on_ties () =
  let h = History.create () in
  History.record h ~proc:"a" ~kind:History.Read ~inv:(t 5) ~resp:(t 6) (int_value 1);
  History.record h ~proc:"b" ~kind:History.Read ~inv:(t 5) ~resp:(t 6) (int_value 2);
  match History.ops h with
  | [ o1; o2 ] ->
    Alcotest.(check string) "recording order kept" "a" o1.History.proc;
    Alcotest.(check string) "second" "b" o2.History.proc
  | _ -> Alcotest.fail "expected two ops"

let test_overlap_semantics () =
  let h = History.create () in
  record h (mk_op History.Write 0 10 1);
  record h (mk_op History.Write 10 20 2);
  record h (mk_op History.Write 5 15 3);
  match History.ops h with
  | [ w1; w3; w2 ] ->
    check_false "touching endpoints are sequential" (History.overlap w1 w2);
    check_true "genuine overlap" (History.overlap w1 w3);
    check_true "overlap symmetric" (History.overlap w3 w1);
    check_true "w3/w2 overlap" (History.overlap w3 w2)
  | _ -> Alcotest.fail "unexpected ordering"

let test_failed_read_flag () =
  let h = History.create () in
  record h (mk_op ~ok:false History.Read 0 4 0);
  match History.ops h with
  | [ o ] ->
    check_false "not ok" o.History.ok;
    check_true "prints budget note"
      (let s = Format.asprintf "%a" History.pp_op o in
       String.length s > 0)
  | _ -> Alcotest.fail "one op expected"

let test_ts_recorded () =
  let h = History.create () in
  let e = Registers.Epoch.genesis ~k:2 in
  History.record h ~proc:"p" ~kind:History.Write ~inv:(t 0) ~resp:(t 1)
    ~ts:(e, 4, 2) (int_value 9);
  match History.ops h with
  | [ o ] -> check_true "timestamp kept" (o.History.ts = Some (e, 4, 2))
  | _ -> Alcotest.fail "one op expected"

let test_sort_cached () =
  let h = History.create () in
  record h (mk_op History.Write 5 6 1);
  let first = History.ops h in
  check_true "second call reuses the sorted list" (first == History.ops h);
  record h (mk_op History.Read 0 1 1);
  let invs = List.map (fun (o : History.op) -> Sim.Vtime.to_int o.inv) (History.ops h) in
  check_true "record invalidates the cache" (List.equal Int.equal invs [ 0; 5 ])

let tests =
  [
    case "record and sort" test_record_and_sort;
    case "stable order on ties" test_stable_order_on_ties;
    case "overlap semantics" test_overlap_semantics;
    case "failed read flag" test_failed_read_flag;
    case "timestamps recorded" test_ts_recorded;
    case "sort cached until record" test_sort_cached;
  ]
