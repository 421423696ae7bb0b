type verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }

let verdict_kind = function
  | Clean -> "clean"
  | Violation { kind; _ } -> kind

let same_verdict a b = String.equal (verdict_kind a) (verdict_kind b)

let verdict_equal a b =
  match (a, b) with
  | Clean, Clean -> true
  | Violation a, Violation b ->
    String.equal a.kind b.kind && a.count = b.count
    && String.equal a.detail b.detail
  | _ -> false

let pp_verdict fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Violation { kind; count; detail } ->
    Format.fprintf fmt "%s x%d (%s)" kind count detail

(* ------------------------------------------------------------------ *)
(* Terminal-state oracle                                              *)

(* Mirrors the chaos campaign's stabilization semantics: the register
   condition is only guaranteed from the first write completed after a
   disturbance, so the history is cut at every corruption instant and each
   segment checked independently with a cutoff at its first write's
   response ("every quiescent suffix after the last corruption is
   legal").  A segment without a write is vacuous — nothing
   re-established the register. *)

let sub_history h ~lo ~hi =
  let sub = Oracles.History.create () in
  List.iter
    (fun (o : Oracles.History.op) ->
      let keep =
        match o.kind with
        | Oracles.History.Write -> true
        | Oracles.History.Read ->
          Sim.Vtime.to_int o.inv >= lo && Sim.Vtime.to_int o.resp < hi
      in
      if keep then
        Oracles.History.record sub ~proc:o.proc ~kind:o.kind ~inv:o.inv
          ~resp:o.resp ?ts:o.ts ~ok:o.ok o.value)
    (Oracles.History.ops h);
  sub

let cutoff_from h ~lo =
  Oracles.History.writes h
  |> List.find_opt (fun (o : Oracles.History.op) ->
         Sim.Vtime.to_int o.inv >= lo)
  |> Option.map (fun (o : Oracles.History.op) -> o.Oracles.History.resp)

let describe_read (o : Oracles.History.op) =
  Format.asprintf "%a" Oracles.History.pp_op o

let regularity_issues (r : Oracles.Regularity.report) =
  List.map
    (fun (v : Oracles.Regularity.violation) ->
      ("regularity", describe_read v.read))
    r.violations
  @
  if r.liveness_failures > 0 then
    [
      ( "liveness",
        Printf.sprintf "%d reads exhausted their budget" r.liveness_failures
      );
    ]
  else []

let sw_issues (r : Oracles.Atomicity.Sw.report) =
  regularity_issues r.regularity
  @ List.map
      (fun (i : Oracles.Atomicity.inversion) ->
        ("inversion", describe_read i.later_read))
      r.inversions
  @ List.map (fun m -> ("regularity", m)) r.malformed

let segments points =
  let bounds = 0 :: points in
  let rec go = function
    | [] -> []
    | [ lo ] -> [ (lo, max_int) ]
    | lo :: (hi :: _ as rest) -> (lo, hi) :: go rest
  in
  go bounds

let segment_issues (cfg : Config.t) h points =
  segments points
  |> List.concat_map (fun (lo, hi) ->
         let sub = sub_history h ~lo ~hi in
         match cutoff_from sub ~lo with
         | None -> []
         | Some cutoff -> (
           let atomic_check () =
             sw_issues (Oracles.Atomicity.Sw.check ~cutoff sub)
           in
           match (cfg.family, cfg.oracle) with
           | Config.Regular, Config.Family_default ->
             regularity_issues (Oracles.Regularity.check ~cutoff sub)
           | Config.Regular, Config.Atomic_oracle -> atomic_check ()
           | Config.Atomic, _ -> atomic_check ()
           | Config.Mwmr, _ -> []))

(* MWMR timestamps are global, so only the suffix after the last
   disturbance is checked (see the chaos campaign for the rationale). *)
let mwmr_issues (cfg : Config.t) h points =
  match cfg.family with
  | Config.Regular | Config.Atomic -> []
  | Config.Mwmr -> (
    let lo = match List.rev points with [] -> 0 | p :: _ -> p in
    match cutoff_from h ~lo with
    | None -> []
    | Some cutoff ->
      Oracles.Atomicity.Mw.check ~cutoff ~tie:`Min_index h
      |> fun (r : Oracles.Atomicity.Mw.report) ->
      List.map
        (fun (v : Oracles.Atomicity.Mw.violation) ->
          ("mw", v.kind ^ ": " ^ v.detail))
        r.violations)

let verdict_of_issues issues =
  match issues with
  | [] -> Clean
  | _ ->
    let severity = function "liveness" -> 1 | _ -> 0 in
    let kind, detail =
      List.stable_sort
        (fun (a, _) (b, _) -> Int.compare (severity a) (severity b))
        issues
      |> List.hd (* lint: allow R4 -- issues is non-empty in this branch *)
    in
    let count =
      List.length (List.filter (fun (k, _) -> String.equal k kind) issues)
    in
    Violation { kind; count; detail }

let terminal_verdict sys =
  let stuck = Sys.stuck sys in
  if stuck <> [] then
    Violation
      {
        kind = "stuck";
        count = List.length stuck;
        detail = "fibers never finished: " ^ String.concat ", " stuck;
      }
  else
    let cfg = Sys.config sys in
    let h = Sys.history sys in
    let points = Sys.corrupt_times sys in
    verdict_of_issues (segment_issues cfg h points @ mwmr_issues cfg h points)

(* ------------------------------------------------------------------ *)
(* Search                                                             *)

type reduction = No_reduction | Sleep_sets

let reduction_to_string = function
  | No_reduction -> "none"
  | Sleep_sets -> "sleep-sets"

type budgets = { max_states : int; max_depth : int }

let default_budgets = { max_states = 2_000_000; max_depth = 10_000 }

type stats = {
  mutable states : int;  (** nodes expanded *)
  mutable transitions : int;
  mutable terminals : int;
  mutable revisits : int;  (** pruned by the visited set *)
  mutable sleep_skips : int;  (** moves skipped by sleep sets *)
  mutable sym_skips : int;  (** moves skipped as symmetric to a sibling *)
  mutable replays : int;  (** prefix re-executions (fiber-backed families) *)
  mutable off_target : int;  (** violations ignored by a [target] filter *)
  mutable fp_collisions : int;
      (** distinct digests interned under an already-occupied 8-byte key *)
  mutable peak_visited : int;
  mutable max_depth_seen : int;
  mutable truncated : bool;  (** some budget cut the search *)
}

let fresh_stats () =
  {
    states = 0;
    transitions = 0;
    terminals = 0;
    revisits = 0;
    sleep_skips = 0;
    sym_skips = 0;
    replays = 0;
    off_target = 0;
    fp_collisions = 0;
    peak_visited = 0;
    max_depth_seen = 0;
    truncated = false;
  }

type outcome = {
  verdict : verdict;
  exhaustive : bool;
      (** [true] iff no state/depth budget truncated the search: a [Clean]
          exhaustive outcome is a proof over the bounded configuration *)
  stats : stats;
  trace : Sys.move list option;  (** violating trace, execution order *)
}

exception Found of Sys.move list * verdict

exception Out_of_states

type ctx = {
  cfg : Config.t;
  budgets : budgets;
  reduction : reduction;
  use_visited : bool;
  (* [Some rng]: shuffle sibling order at every node (deterministically,
     from the seed).  Sleep sets, subsumption and symmetry pruning are all
     order-agnostic, so any order explores the same reduced state space —
     but a different order reaches different corners of it first, which is
     what a bug hunt under a state budget needs. *)
  rng : Random.State.t option;
  (* Violations whose kind the caller is not hunting are recorded in the
     stats but do not stop the search. *)
  keep : verdict -> bool;
  (* The visited table, two layers deep.

     Keying: states are interned under a 64-bit structural key folded
     from the first 8 bytes of the raw 16-byte canonical digest.  Int
     keys hash in constant time (no walk over a 32-char hex string) and
     halve the per-entry key memory; each bucket keeps the full raw
     digests so a key collision is verified against the whole digest
     before two states are ever merged.

     Value: the residual sleep set (sorted, canonical coordinates) — the
     enabled moves no visit has explored from this state yet.  The first
     visit stores its arrival sleep (it explores everything else); a
     revisit with sleep [s] only needs the residual minus [s] — every
     other move was either explored by an earlier visit or is covered by
     a sibling of the current path — and afterwards the residual shrinks
     to its intersection with [s] (Godefroid's sleep sets combined with
     state matching).  A revisit with an empty difference is pruned
     outright, which subsumes the classic "some stored sleep is a subset
     of ours" condition. *)
  visited : (int, (string * Sys.move list) list) Hashtbl.t;
  mutable visited_entries : int;
  stats : stats;
  (* Flight recorder, sampled on the deterministic state counter. *)
  recorder : Obs.Profile.t option;
  mutable sys : Sys.t;
}

let sorted_moves l = List.sort_uniq Sys.compare_move l

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let fp_key raw = Int64.to_int (String.get_int64_le raw 0)

let fp_find ctx raw =
  match Hashtbl.find_opt ctx.visited (fp_key raw) with
  | None -> None
  | Some bucket ->
    List.find_map
      (fun (r, residual) ->
        if String.equal r raw then Some residual else None)
      bucket

let fp_store ctx raw residual =
  let key = fp_key raw in
  let bucket =
    match Hashtbl.find_opt ctx.visited key with None -> [] | Some b -> b
  in
  let fresh = not (List.exists (fun (r, _) -> String.equal r raw) bucket) in
  let bucket =
    if fresh then (raw, residual) :: bucket
    else
      List.map
        (fun (r, v) -> if String.equal r raw then (r, residual) else (r, v))
        bucket
  in
  Hashtbl.replace ctx.visited key bucket;
  if fresh then begin
    if List.length bucket > 1 then
      ctx.stats.fp_collisions <- ctx.stats.fp_collisions + 1;
    ctx.visited_entries <- ctx.visited_entries + 1;
    if ctx.visited_entries > ctx.stats.peak_visited then
      ctx.stats.peak_visited <- ctx.visited_entries
  end

(* The expansion plan for a state arrival: explore every non-slept move
   (first visit), only the canonical moves listed (revisit with a
   non-empty residual), or nothing (revisit already covered). *)
type expansion = Expand_all | Expand_only of Sys.move list | Covered

let plan_expansion ctx fp sleep_canon =
  if not ctx.use_visited then Expand_all
  else
    match fp_find ctx fp with
    | None ->
      fp_store ctx fp sleep_canon;
      Expand_all
    | Some residual ->
      ctx.stats.revisits <- ctx.stats.revisits + 1;
      let need =
        List.filter
          (fun m -> not (List.exists (Sys.move_equal m) sleep_canon))
          residual
      in
      if need = [] then Covered
      else begin
        fp_store ctx fp
          (List.filter
             (fun m -> List.exists (Sys.move_equal m) sleep_canon)
             residual);
        Expand_only need
      end

let replay_prefix ctx prefix_rev =
  ctx.stats.replays <- ctx.stats.replays + 1;
  let sys = Sys.create ctx.cfg in
  List.iter (fun mv -> ignore (Sys.apply sys mv)) (List.rev prefix_rev);
  ctx.sys <- sys

(* One flight-recorder snapshot: the full stats record plus the live
   frontier depth and visited-set occupancy at the sampled state. *)
let profile_fields ctx ~depth =
  let s = ctx.stats in
  [
    ("states", Obs.Json.Int s.states);
    ("transitions", Obs.Json.Int s.transitions);
    ("depth", Obs.Json.Int depth);
    ("max_depth", Obs.Json.Int s.max_depth_seen);
    ("visited", Obs.Json.Int ctx.visited_entries);
    ("revisits", Obs.Json.Int s.revisits);
    ("sleep_skips", Obs.Json.Int s.sleep_skips);
    ("sym_skips", Obs.Json.Int s.sym_skips);
    ("fp_collisions", Obs.Json.Int s.fp_collisions);
    ("replays", Obs.Json.Int s.replays);
    ("terminals", Obs.Json.Int s.terminals);
  ]

let rec explore ctx ~prefix_rev ~depth ~sleep =
  if ctx.stats.states >= ctx.budgets.max_states then begin
    ctx.stats.truncated <- true;
    raise Out_of_states
  end;
  ctx.stats.states <- ctx.stats.states + 1;
  if depth > ctx.stats.max_depth_seen then ctx.stats.max_depth_seen <- depth;
  (match ctx.recorder with
  | None -> ()
  | Some r ->
    Obs.Profile.sample r ~tick:ctx.stats.states (fun () ->
        profile_fields ctx ~depth));
  let moves = Sys.enabled ctx.sys in
  if moves = [] then begin
    ctx.stats.terminals <- ctx.stats.terminals + 1;
    match terminal_verdict ctx.sys with
    | Clean -> ()
    | Violation _ as v ->
      if ctx.keep v then raise (Found (List.rev prefix_rev, v))
      else ctx.stats.off_target <- ctx.stats.off_target + 1
  end
  else if depth >= ctx.budgets.max_depth then ctx.stats.truncated <- true
  else begin
    (* Sleep sets are compared across states the fingerprint merged, and
       the fingerprint canonicalizes server identities (symmetry
       reduction) — so the comparison must happen in the same canonical
       coordinates, via the renaming the fingerprint chose. *)
    let need_rep = ctx.reduction = Sleep_sets in
    let fp, ren, rep =
      if ctx.use_visited || need_rep then Sys.fingerprint_raw_ex ctx.sys
      else ("", Fun.id, Fun.id)
    in
    let sleep_canon =
      sorted_moves (List.map (Sys.canonical_move ren) sleep)
    in
    match plan_expansion ctx fp sleep_canon with
    | Covered -> ()
    | (Expand_all | Expand_only _) as plan ->
      (* Symmetric-move pruning: deliveries aimed at servers of the same
         automorphism class have isomorphic successors; keep one per
         class. *)
      let moves =
        if not need_rep then moves
        else begin
          let seen = ref [] in
          List.filter
            (fun mv ->
              let r = Sys.canonical_move rep mv in
              if List.exists (Sys.move_equal r) !seen then begin
                ctx.stats.sym_skips <- ctx.stats.sym_skips + 1;
                false
              end
              else begin
                seen := r :: !seen;
                true
              end)
            moves
        end
      in
      (* On a partial re-expansion, moves outside the residual were
         explored from this state by an earlier visit; they are exactly
         as covered as a slept move, and they must sleep (not vanish) so
         the children explored now inherit them through the independence
         filter. *)
      let moves, covered =
        match plan with
        | Expand_all | Covered -> (moves, [])
        | Expand_only need ->
          List.partition
            (fun mv ->
              List.exists
                (Sys.move_equal (Sys.canonical_move ren mv))
                need)
            moves
      in
      ctx.stats.sleep_skips <- ctx.stats.sleep_skips + List.length covered;
      let moves =
        match ctx.rng with None -> moves | Some st -> shuffle st moves
      in
      let sleep = ref (covered @ sleep) in
      (* The children to explore are known up front: enabled moves are
         distinct, so sibling exploration can never put a later
         *candidate* to sleep (only child sleeps grow as siblings are
         explored).  The entry state waits untouched while earlier
         children run on copies of it, and the LAST child consumes it.
         A copy is a snapshot where the representation allows one
         (regular family); otherwise it is rebuilt by replaying the
         prefix, [children - 1] replays per node. *)
      let to_explore =
        List.filter
          (fun mv -> not (List.exists (Sys.move_equal mv) !sleep))
          moves
      in
      ctx.stats.sleep_skips <-
        ctx.stats.sleep_skips
        + (List.length moves - List.length to_explore);
      let last = List.length to_explore - 1 in
      let entry = ctx.sys in
      List.iteri
        (fun i mv ->
          (if i >= last then ctx.sys <- entry
           else
             match Sys.snapshot entry with
             | Some copy -> ctx.sys <- copy
             | None -> replay_prefix ctx prefix_rev);
          ignore (Sys.apply ctx.sys mv);
          ctx.stats.transitions <- ctx.stats.transitions + 1;
          let child_sleep =
            match ctx.reduction with
            | Sleep_sets -> List.filter (Sys.independent mv) !sleep
            | No_reduction -> []
          in
          explore ctx
            ~prefix_rev:(mv :: prefix_rev)
            ~depth:(depth + 1) ~sleep:child_sleep;
          match ctx.reduction with
          | Sleep_sets -> sleep := mv :: !sleep
          | No_reduction -> ())
        to_explore
  end

let search ?(budgets = default_budgets) ?(reduction = Sleep_sets)
    ?(use_visited = true) ?seed ?target ?recorder (cfg : Config.t) =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mc.Checker.search: " ^ e));
  let ctx =
    {
      cfg;
      budgets;
      reduction;
      use_visited;
      rng = Option.map (fun s -> Random.State.make [| s |]) seed;
      keep =
        (match target with
        | None -> fun _ -> true
        | Some kind -> fun v -> String.equal (verdict_kind v) kind);
      visited = Hashtbl.create 4096;
      visited_entries = 0;
      stats = fresh_stats ();
      recorder;
      sys = Sys.create cfg;
    }
  in
  let finish outcome =
    (match ctx.recorder with
    | None -> ()
    | Some r ->
      Obs.Profile.sample ~force:true r ~tick:ctx.stats.states (fun () ->
          profile_fields ctx ~depth:ctx.stats.max_depth_seen));
    outcome
  in
  match explore ctx ~prefix_rev:[] ~depth:0 ~sleep:[] with
  | () ->
    finish
      {
        verdict = Clean;
        exhaustive = not ctx.stats.truncated;
        stats = ctx.stats;
        trace = None;
      }
  | exception Found (trace, v) ->
    finish
      {
        verdict = v;
        exhaustive = false;
        stats = ctx.stats;
        trace = Some trace;
      }
  | exception Out_of_states ->
    finish
      {
        verdict = Clean;
        exhaustive = false;
        stats = ctx.stats;
        trace = None;
      }

(* ------------------------------------------------------------------ *)
(* Deterministic completion, shrinking                                *)

let completion_fuel = 200_000

(* Run the system to a terminal state by always firing the first enabled
   non-corruption move.  Deterministic; terminates because the workload is
   bounded and corruption moves (which could re-disturb forever) are never
   chosen. *)
let canonical_completion sys =
  let rec loop acc fuel =
    if fuel = 0 then List.rev acc
    else
      match
        List.find_opt
          (function Sys.Corrupt _ -> false | _ -> true)
          (Sys.enabled sys)
      with
      | None -> List.rev acc
      | Some mv ->
        ignore (Sys.apply sys mv);
        loop (mv :: acc) (fuel - 1)
  in
  loop [] completion_fuel

(* Execute a forced move prefix (leniently: moves invalidated by earlier
   edits are skipped) and then complete canonically.  Returns the system,
   the moves that actually fired, and the terminal verdict. *)
let run_forced cfg prefix =
  let sys = Sys.create cfg in
  let fired =
    List.filter (fun mv -> Sys.apply ~strict:false sys mv) prefix
  in
  let tail = canonical_completion sys in
  (sys, fired @ tail, terminal_verdict sys)

let take k l = List.filteri (fun i _ -> i < k) l

let shrink ?(log = ignore) cfg trace verdict =
  let runs = ref 0 in
  let try_prefix prefix =
    incr runs;
    let _, fired, v = run_forced cfg prefix in
    if same_verdict v verdict then Some (fired, v) else None
  in
  (* Phase 1: shortest forced prefix whose canonical completion still
     violates.  Linear scan from the empty prefix: each candidate run is a
     single bounded execution, so this is cheap even for long traces. *)
  let len = List.length trace in
  let rec first_k k =
    if k > len then None
    else
      match try_prefix (take k trace) with
      | Some _ -> Some k
      | None -> first_k (k + 1)
  in
  let kept =
    match first_k 0 with
    | Some k ->
      log (Printf.sprintf "shrink: forced prefix %d -> %d moves" len k);
      take k trace
    | None ->
      (* The canonical completion of the full trace may diverge from the
         original verdict (the violation lived in the exact suffix);
         fall back to the unshrunk trace. *)
      log "shrink: no forced prefix reproduces; keeping full trace";
      trace
  in
  (* Phase 2: drop corruption moves that are not needed. *)
  let drop_one kept i =
    match List.nth kept i with
    | Sys.Corrupt _ -> (
      let candidate = List.filteri (fun j _ -> j <> i) kept in
      match try_prefix candidate with
      | Some _ ->
        log "shrink: dropped a corruption move";
        candidate
      | None -> kept)
    | _ -> kept
    | exception _ -> kept
  in
  let kept =
    List.fold_left drop_one kept
      (List.rev (List.init (List.length kept) Fun.id))
  in
  (* Re-execute and record the complete concrete move list: the artifact
     must replay strictly, move for move. *)
  let _, fired, v = run_forced cfg kept in
  (fired, v, !runs + 1)

(* ------------------------------------------------------------------ *)
(* Counterexample artifacts                                           *)

let cex_schema = "stabreg/mc-cex/v1"

type cex = {
  config : Config.t;
  trace : Sys.move list;  (** complete, strict-replayable *)
  verdict : verdict;
  states : int;  (** states expanded when the violation was found *)
  digest : string;  (** terminal-state fingerprint *)
}

let move_to_json = function
  | Sys.Deliver label ->
    Obs.Json.Obj
      [ ("move", Obs.Json.Str "deliver"); ("label", Obs.Json.Str label) ]
  | Sys.Tick i ->
    Obs.Json.Obj [ ("move", Obs.Json.Str "tick"); ("index", Obs.Json.Int i) ]
  | Sys.Corrupt i ->
    Obs.Json.Obj [ ("move", Obs.Json.Str "corrupt"); ("item", Obs.Json.Int i) ]

let verdict_to_json = function
  | Clean -> Obs.Json.Obj [ ("kind", Obs.Json.Str "clean") ]
  | Violation { kind; count; detail } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.Str kind);
        ("count", Obs.Json.Int count);
        ("detail", Obs.Json.Str detail);
      ]

let cex_to_json c =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str cex_schema);
      ("config", Config.to_json c.config);
      ("trace", Obs.Json.List (List.map move_to_json c.trace));
      ("verdict", verdict_to_json c.verdict);
      ("states", Obs.Json.Int c.states);
      ("digest", Obs.Json.Str c.digest);
    ]

open Obs.Json.Decode

let index_field ctx key j =
  let* i = int_field ctx key j in
  if i < 0 then
    Error
      (Printf.sprintf "%s.%s: expected a non-negative index, got %d" ctx key i)
  else Ok i

let move_of_json j =
  let* kind = str_field "move" "move" j in
  match kind with
  | "deliver" ->
    let* label = str_field "move" "label" j in
    Ok (Sys.Deliver label)
  | "tick" ->
    let* i = index_field "move" "index" j in
    Ok (Sys.Tick i)
  | "corrupt" ->
    let* i = index_field "move" "item" j in
    Ok (Sys.Corrupt i)
  | s -> Error (Printf.sprintf "move: unknown kind %S" s)

let verdict_of_json j =
  let* kind = str_field "verdict" "kind" j in
  if String.equal kind "clean" then Ok Clean
  else
    let* count = int_field "verdict" "count" j in
    let* detail = str_field "verdict" "detail" j in
    Ok (Violation { kind; count; detail })

let cex_of_json j =
  let ctx = "cex" in
  let* _ = check_schema ctx [ cex_schema ] j in
  let* config = field ctx "config" j in
  let* config = Config.of_json config in
  let* trace = list_field ctx "trace" move_of_json j in
  let* verdict = field ctx "verdict" j in
  let* verdict = verdict_of_json verdict in
  let* states = int_field ctx "states" j in
  let* digest = str_field ctx "digest" j in
  Ok { config; trace; verdict; states; digest }

let guide_schema = "stabreg/mc-guide/v1"

(* A guide file is a cex without the outcome fields: just a config and a
   schedule of moves to force.  A full cex artifact is accepted too (its
   recorded outcome is ignored — the schedule is re-judged from scratch). *)
let guide_of_json j =
  let ctx = "guide" in
  let* _ = check_schema ctx [ guide_schema; cex_schema ] j in
  let* config = field ctx "config" j in
  let* config = Config.of_json config in
  let* trace = list_field ctx "trace" move_of_json j in
  Ok (config, trace)

(* Strict replay: every recorded move must fire, the terminal verdict must
   be structurally equal, and the terminal fingerprint must match the
   recorded digest.  The informational [states] count is not checked. *)
let replay (c : cex) =
  let sys = Sys.create c.config in
  match
    List.iteri
      (fun i mv ->
        if not (Sys.apply ~strict:false sys mv) then
          failwith
            (Printf.sprintf "move %d (%s) did not apply" i
               (Sys.move_to_string mv)))
      c.trace
  with
  | exception Failure msg -> Error msg
  | () ->
    let v = terminal_verdict sys in
    let digest = Sys.fingerprint sys in
    if not (verdict_equal v c.verdict) then
      Error
        (Format.asprintf "replay verdict %a differs from recorded %a"
           pp_verdict v pp_verdict c.verdict)
    else if not (String.equal digest c.digest) then
      Error
        (Printf.sprintf "replay digest %s differs from recorded %s" digest
           c.digest)
    else Ok v

(* ------------------------------------------------------------------ *)
(* One-call drivers: search (or run a guided schedule), then shrink the
   violation into a cex *)

type run = { outcome : outcome; cex : cex option; shrink_runs : int }

let package ~shrink_violations ~log cfg (outcome : outcome) =
  match (outcome.verdict, outcome.trace) with
  | Clean, _ | _, None -> { outcome; cex = None; shrink_runs = 0 }
  | (Violation _ as v), Some trace ->
    let trace, verdict, shrink_runs =
      if shrink_violations then shrink ~log cfg trace v
      else
        (* still normalize through a strict re-execution so the artifact
           records its own digest *)
        (trace, v, 0)
    in
    let sys = Sys.create cfg in
    List.iter (fun mv -> ignore (Sys.apply sys mv)) trace;
    let digest = Sys.fingerprint sys in
    let cex =
      { config = cfg; trace; verdict; states = outcome.stats.states; digest }
    in
    { outcome = { outcome with verdict }; cex = Some cex; shrink_runs }

let check ?budgets ?reduction ?use_visited ?seed ?target ?recorder
    ?(shrink_violations = true) ?(log = ignore) cfg =
  let outcome =
    search ?budgets ?reduction ?use_visited ?seed ?target ?recorder cfg
  in
  package ~shrink_violations ~log cfg outcome

let guided ?(shrink_violations = true) ?(log = ignore) cfg schedule =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mc.Checker.guided: " ^ e));
  let _, fired, verdict = run_forced cfg schedule in
  let stats = fresh_stats () in
  stats.replays <- 1;
  stats.terminals <- 1;
  stats.max_depth_seen <- List.length fired;
  package ~shrink_violations ~log cfg
    { verdict; exhaustive = false; stats; trace = Some fired }
