(* The committed artifacts against their readers: every file passes the
   one schema table behind [experiments validate], decodes and re-encodes
   to itself, and the replayable ones reject every mutated leaf. *)

open Util
module J = Obs.Json

let read_json path =
  match J.parse (Exp_drivers.Artifacts.read_file path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

let decoded path = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: committed artifact rejected: %s" path e

(* Every committed artifact: the examples plus the lint baseline and
   shared-state inventory at the repository root. *)
let committed () =
  let in_dir dir =
    let dir = Filename.concat "../examples" dir in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.map (Filename.concat dir)
  in
  (Sys.readdir "../examples" |> Array.to_list
  |> List.filter (fun d -> Sys.is_directory (Filename.concat "../examples" d))
  |> List.concat_map in_dir)
  @ [ "../lint-baseline.json"; "../lint-domains.json" ]
  |> List.sort String.compare

let test_validate_table () =
  let files = committed () in
  check_true "found the committed artifacts" (List.length files >= 9);
  List.iter
    (fun path ->
      let contents = Exp_drivers.Artifacts.read_file path in
      let tag =
        match J.member "schema" (read_json path) with
        | Some (J.Str s) -> s
        | _ -> Alcotest.failf "%s: no schema tag" path
      in
      match Exp_drivers.Artifacts.validate contents with
      | Ok schema -> Alcotest.(check string) path tag schema
      | Error e -> Alcotest.failf "%s: %s" path e)
    files

(* Chaos repros written before the crash fields existed decode with the
   inert defaults, which the encoder then writes out. *)
let without_crash_defaults = function
  | J.Obj fields ->
    J.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "config", J.Obj c ->
             ( k,
               J.Obj
                 (List.filter
                    (fun (ck, _) ->
                      not
                        (String.equal ck "crashes"
                        || String.equal ck "crash_down"))
                    c) )
           | _ -> (k, v))
         fields)
  | j -> j

let check_round_trip path j j' =
  if not (J.equal j j') then
    Alcotest.failf "%s: re-encoding differs:\n%s\n%s" path (J.to_string j)
      (J.to_string j')

let test_round_trip () =
  List.iter
    (fun path ->
      let j = read_json path in
      match J.member "schema" j with
      | Some (J.Str s) when String.equal s Mc.Checker.cex_schema ->
        check_round_trip path j
          (Mc.Checker.cex_to_json (decoded path (Mc.Checker.cex_of_json j)))
      | Some (J.Str s) when String.equal s Mc.Checker.guide_schema ->
        (* A guide has no encoder of its own; its fields are a cex's. *)
        let config, trace = decoded path (Mc.Checker.guide_of_json j) in
        let cex =
          Mc.Checker.cex_to_json
            {
              config;
              trace;
              verdict = Mc.Checker.Clean;
              states = 0;
              digest = "";
            }
        in
        let pick k j = Option.value (J.member k j) ~default:J.Null in
        check_round_trip path j
          (J.Obj
             [
               ("schema", J.Str s);
               ("config", pick "config" cex);
               ("trace", pick "trace" cex);
             ])
      | Some (J.Str s) when String.equal s Chaos.Campaign.repro_schema ->
        check_round_trip path j
          (without_crash_defaults
             (Chaos.Campaign.repro_to_json
                (decoded path (Chaos.Campaign.repro_of_json j))))
      | Some (J.Str s) when String.equal s Chaos.Recovery.schema ->
        check_round_trip path j
          (Chaos.Recovery.to_json (decoded path (Chaos.Recovery.of_json j)))
      | Some (J.Str s) when String.equal s Shard.Tier.schema ->
        check_round_trip path j
          (Shard.Tier.to_json (decoded path (Shard.Tier.of_json j)))
      | _ -> ())
    (committed ())

(* --- mutation ------------------------------------------------------- *)

type step = Key of string | Index of int

(* Every leaf of a tree, empty containers included, with its path. *)
let rec leaves path = function
  | J.Obj (_ :: _ as fields) ->
    List.concat_map (fun (k, v) -> leaves (Key k :: path) v) fields
  | J.List (_ :: _ as items) ->
    List.concat (List.mapi (fun i v -> leaves (Index i :: path) v) items)
  | leaf -> [ (List.rev path, leaf) ]

let rec replace path v j =
  match (path, j) with
  | [], _ -> v
  | Key k :: rest, J.Obj fields ->
    J.Obj
      (List.map
         (fun (k', x) ->
           if String.equal k k' then (k', replace rest v x) else (k', x))
         fields)
  | Index i :: rest, J.List items ->
    J.List
      (List.mapi (fun i' x -> if i = i' then replace rest v x else x) items)
  | _ -> j

let path_to_string path =
  String.concat ""
    (List.map
       (function Key k -> "." ^ k | Index i -> Printf.sprintf "[%d]" i)
       path)

let wrong_type = function
  | J.Str _ -> J.Int 7
  | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.List _ | J.Obj _ ->
    J.Str "mutant"

let same_type_other = function
  | J.Int i -> Some (J.Int (i + 1))
  | J.Float x -> Some (J.Float (x +. 1.0))
  | J.Str s -> Some (J.Str (s ^ "x"))
  | J.Bool b -> Some (J.Bool (not b))
  | J.Null | J.List _ | J.Obj _ -> None

(* A replayable artifact: [decode] is its reader; [reproduces j] decodes
   [j] and checks it against one replay of the committed file, the same
   comparison its [--replay] makes.  Mutations below never touch the
   inputs, so one replay serves every mutant. *)
type subject = {
  path : string;
  decode : J.t -> (unit, string) result;
  reproduces : J.t -> bool;
}

let subject path of_json replay check =
  let j = read_json path in
  let replayed = replay (decoded path (of_json j)) in
  {
    path;
    decode = (fun j -> Result.map ignore (of_json j));
    reproduces =
      (fun j ->
        match of_json j with Ok a -> check a replayed | Error _ -> false);
  }

let subjects () =
  let chaos path =
    subject path Chaos.Campaign.repro_of_json Chaos.Campaign.replay
      (fun r o -> r.Chaos.Campaign.verdict = o.Chaos.Campaign.verdict)
  and mc path =
    subject path Mc.Checker.cex_of_json Fun.id (fun c _ ->
        Result.is_ok (Mc.Checker.replay c))
  in
  [
    chaos "../examples/chaos/regular_collude_repro.json";
    chaos "../examples/chaos/mwmr_mobile_roam_stuck.json";
    mc "../examples/mc/mc-regular-stuck.json";
    mc "../examples/mc/mc-regular-inversion.json";
    subject "../examples/recovery/crash_burst_n9.json" Chaos.Recovery.of_json
      (fun r -> Chaos.Recovery.replay r)
      Chaos.Recovery.matches;
    subject "../examples/shard/chaos_isolation_t0.json" Shard.Tier.of_json
      (fun r -> Shard.Tier.replay r)
      Shard.Tier.matches;
  ]

let test_wrong_type_rejected () =
  let total = ref 0 in
  List.iter
    (fun s ->
      let j = read_json s.path in
      List.iter
        (fun (path, leaf) ->
          incr total;
          let where = s.path ^ path_to_string path in
          match s.decode (replace path (wrong_type leaf) j) with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s: wrong-typed value accepted" where
          | exception e ->
            Alcotest.failf "%s: reader raised %s" where (Printexc.to_string e))
        (leaves [] j))
    (subjects ());
  check_true "mutated every leaf" (!total > 500)

(* The fields a replay re-derives from: everything else is an output the
   replay must reproduce.  A cex's [states] is informational — it depends
   on search options the artifact does not record. *)
let inputs = [ "schema"; "seed"; "config"; "schedule"; "trace" ]

let test_outputs_checked_by_replay () =
  List.iter
    (fun s ->
      let j = read_json s.path in
      check_true (s.path ^ " replays") (s.reproduces j);
      List.iter
        (fun (path, leaf) ->
          match (path, same_type_other leaf) with
          | Key k :: _, _ when List.exists (String.equal k) inputs -> ()
          | [ Key "states" ], _
            when String.equal
                   (Filename.basename (Filename.dirname s.path))
                   "mc" -> ()
          | _, None -> ()
          | _, Some v ->
            if s.reproduces (replace path v j) then
              Alcotest.failf "%s%s: edited output still replays" s.path
                (path_to_string path))
        (leaves [] j))
    (subjects ())

let tests =
  [
    Alcotest.test_case "validate table accepts every committed artifact"
      `Quick test_validate_table;
    Alcotest.test_case "committed artifacts re-encode to themselves" `Quick
      test_round_trip;
    Alcotest.test_case "wrong-typed leaves are rejected, never raised" `Quick
      test_wrong_type_rejected;
    Alcotest.test_case "every output leaf is checked by replay" `Quick
      test_outputs_checked_by_replay;
  ]
