(* The executable specification of the history checkers: the original
   all-pairs scans of Oracles.Regularity, Oracles.Atomicity.Sw and
   Oracles.Atomicity.Mw, kept verbatim.  They are quadratic in the
   history length; the library's checkers are sorted sweeps that must
   return structurally identical reports (test_oracle_diff.ml). *)

open Oracles

module Regularity = struct
  open Regularity

  (* Admissible values for a read: value of the last write completed before
     the read's invocation, plus values of all writes concurrent with it. *)
  let admissible writes (read : History.op) =
    let completed_before =
      List.filter (fun (w : History.op) -> Sim.Vtime.( <= ) w.resp read.inv) writes
    in
    let last_completed =
      List.fold_left
        (fun acc (w : History.op) ->
          match acc with
          | Some (best : History.op) when Sim.Vtime.( <= ) w.resp best.resp ->
            acc
          | Some _ | None -> Some w)
        None completed_before
    in
    let concurrent = List.filter (fun w -> History.overlap w read) writes in
    let vs =
      (match last_completed with Some w -> [ w.value ] | None -> [])
      @ List.map (fun (w : History.op) -> w.value) concurrent
    in
    vs

  let check ?cutoff ?(initial_ok = false) h =
    let writes = History.writes h in
    let reads = History.reads h in
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    let checked, skipped = List.partition after_cutoff reads in
    let liveness = List.filter (fun (r : History.op) -> not r.ok) checked in
    let violations =
      List.filter_map
        (fun (r : History.op) ->
          if not r.ok then None
          else
            let expected = admissible writes r in
            let no_completed_prior =
              not
                (List.exists
                   (fun (w : History.op) -> Sim.Vtime.( <= ) w.resp r.inv)
                   writes)
            in
            if expected = [] && initial_ok then None
            else if
              (* A read overlapping only the register's first write(s) may
                 still see the initial value — it can take effect before
                 any of them. *)
              initial_ok && no_completed_prior
              && Registers.Value.equal r.value Registers.Value.bot
            then None
            else if
              List.exists (fun v -> Registers.Value.equal v r.value) expected
            then None
            else Some { read = r; expected })
        checked
    in
    {
      reads_checked = List.length checked;
      reads_skipped = List.length skipped;
      liveness_failures = List.length liveness;
      violations;
    }
end

module Sw = struct
  open Atomicity
  open Atomicity.Sw

  let find_malformed writes =
    let rec overlapping = function
      | (w1 : History.op) :: ((w2 : History.op) :: _ as rest) ->
        (if History.overlap w1 w2 then
           [ Format.asprintf "overlapping writes: %a / %a" History.pp_op w1
               History.pp_op w2 ]
         else [])
        @ overlapping rest
      | [ _ ] | [] -> []
    in
    let dup_values =
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun (w : History.op) ->
          let key = Registers.Value.to_string w.value in
          if Hashtbl.mem seen key then
            Some (Printf.sprintf "duplicate written value %s" key)
          else begin
            Hashtbl.add seen key ();
            None
          end)
        writes
    in
    overlapping writes @ dup_values

  (* Index of the write whose value the read returned; None if the value
     was never written (a regularity violation, reported there). *)
  let write_index writes (r : History.op) =
    let rec scan i = function
      | [] -> None
      | (w : History.op) :: rest ->
        if Registers.Value.equal w.value r.value then Some i
        else scan (i + 1) rest
    in
    scan 0 writes

  let check ?cutoff h =
    let regularity = Regularity.check ?cutoff h in
    let writes = History.writes h in
    let malformed = find_malformed writes in
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    let reads =
      History.reads h
      |> List.filter (fun (r : History.op) -> r.ok && after_cutoff r)
      |> List.filter_map (fun r ->
             match write_index writes r with
             | Some i -> Some (r, i)
             | None -> None)
    in
    (* New/old inversion: a read that precedes another read in real time
       must not return a strictly newer write. *)
    let rec pairs = function
      | [] -> []
      | (r1, i1) :: rest ->
        List.filter_map
          (fun ((r2 : History.op), i2) ->
            if Sim.Vtime.( <= ) (r1 : History.op).resp r2.inv && i1 > i2 then
              Some { earlier_read = r1; later_read = r2 }
            else None)
          rest
        @ pairs rest
    in
    { regularity; inversions = pairs reads; malformed }
end

module Mw = struct
  open Atomicity.Mw

  exception Incomparable of Registers.Epoch.t * Registers.Epoch.t

  (* Total order on timestamps, raising on epoch incomparability (only
     pre-stabilization debris is incomparable). *)
  let compare_ts ~tie (e1, s1, p1) (e2, s2, p2) =
    let pid_cmp =
      match tie with
      | `Max_index -> Int.compare p1 p2 (* Definition 1: larger id later *)
      | `Min_index -> Int.compare p2 p1 (* line 15 literal: smaller id wins *)
    in
    if Registers.Epoch.equal e1 e2 then
      let c = Int.compare s1 s2 in
      if c <> 0 then c else pid_cmp
    else if Registers.Epoch.gt e1 e2 then 1
    else if Registers.Epoch.gt e2 e1 then -1
    else raise (Incomparable (e1, e2))

  let check ?cutoff ~tie h =
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    let violations = ref [] in
    let bad kind detail = violations := { kind; detail } :: !violations in
    let with_ts ops =
      List.filter_map
        (fun (o : History.op) ->
          match o.ts with
          | Some ts when o.ok && after_cutoff o -> Some (o, ts)
          | Some _ | None -> None)
        ops
    in
    let writes = with_ts (History.writes h) in
    let reads = with_ts (History.reads h) in
    let cmp a b =
      try Some (compare_ts ~tie a b)
      with Incomparable (e1, e2) ->
        bad "incomparable-epochs"
          (Format.asprintf "%a vs %a" Registers.Epoch.pp e1
             Registers.Epoch.pp e2);
        None
    in
    (* 1. Timestamps respect the real-time order of writes (Lemma 16). *)
    let rec write_pairs = function
      | [] -> []
      | w :: rest -> List.map (fun w' -> (w, w')) rest @ write_pairs rest
    in
    List.iter
      (fun (((w1 : History.op), ts1), ((w2 : History.op), ts2)) ->
        if Sim.Vtime.( <= ) w1.resp w2.inv then
          match cmp ts1 ts2 with
          | Some c when c >= 0 ->
            bad "write-order"
              (Format.asprintf "%a not before %a" History.pp_op w1
                 History.pp_op w2)
          | Some _ | None -> ())
      (write_pairs writes);
    (* 2. Each read is at least as new as every write completed before it,
       and not newer than every write invoked before it responded. *)
    List.iter
      (fun (((r : History.op), tsr) : History.op * _) ->
        List.iter
          (fun (((w : History.op), tsw) : History.op * _) ->
            if Sim.Vtime.( <= ) w.resp r.inv then
              match cmp tsr tsw with
              | Some c when c < 0 ->
                bad "stale-read"
                  (Format.asprintf "%a older than completed %a" History.pp_op
                     r History.pp_op w)
              | Some _ | None -> ())
          writes;
        (* The read's timestamp must belong to some write that had started
           (or be older than all of them: the initial value). *)
        let plausible =
          writes = []
          || List.exists
               (fun ((w : History.op), tsw) ->
                 Sim.Vtime.( < ) w.inv r.resp
                 && match cmp tsr tsw with Some 0 -> true | _ -> false)
               writes
          || List.for_all
               (fun ((w : History.op), tsw) ->
                 (not (Sim.Vtime.( <= ) w.resp r.inv))
                 && match cmp tsr tsw with Some c -> c < 0 | None -> true)
               writes
        in
        if not plausible then
          bad "future-or-phantom-read"
            (Format.asprintf "%a matches no plausible write" History.pp_op r))
      reads;
    (* 3. Reads are monotone along real time. *)
    let rec read_pairs = function
      | [] -> []
      | r :: rest -> List.map (fun r' -> (r, r')) rest @ read_pairs rest
    in
    List.iter
      (fun (((r1 : History.op), ts1), ((r2 : History.op), ts2)) ->
        if Sim.Vtime.( <= ) r1.resp r2.inv then
          match cmp ts1 ts2 with
          | Some c when c > 0 ->
            bad "read-inversion"
              (Format.asprintf "%a then %a" History.pp_op r1 History.pp_op r2)
          | Some _ | None -> ())
      (read_pairs reads);
    {
      writes_checked = List.length writes;
      reads_checked = List.length reads;
      violations = List.rev !violations;
    }
end
