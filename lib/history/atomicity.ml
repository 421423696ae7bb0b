type inversion = { earlier_read : History.op; later_read : History.op }

module Sw = struct
  type report = {
    regularity : Regularity.report;
    inversions : inversion list;
    malformed : string list;
  }

  (* [first_write] maps each written value to the index of its first
     write. *)
  let find_malformed writes ~first_write =
    let rec overlapping acc = function
      | (w1 : History.op) :: ((w2 : History.op) :: _ as rest) ->
        let acc =
          if History.overlap w1 w2 then
            Format.asprintf "overlapping writes: %a / %a" History.pp_op w1
              History.pp_op w2
            :: acc
          else acc
        in
        overlapping acc rest
      | [ _ ] | [] -> List.rev acc
    in
    (* [Value.to_string] is injective, so keying by value flags exactly
       the writes whose printed values repeat; only those are printed. *)
    let dup_values =
      writes
      |> List.filteri (fun i (w : History.op) ->
             match Sweep.Values.find_opt first_write w.value with
             | Some first -> first < i
             | None -> false)
      |> List.map (fun (w : History.op) ->
             Printf.sprintf "duplicate written value %s"
               (Registers.Value.to_string w.value))
    in
    overlapping [] writes @ dup_values

  let time = Sim.Vtime.to_int

  let check ?cutoff h =
    let regularity = Regularity.check ?cutoff h in
    let writes = History.writes h in
    let first_write = Sweep.Values.create 16 in
    List.iteri
      (fun i (w : History.op) ->
        if not (Sweep.Values.mem first_write w.value) then
          Sweep.Values.add first_write w.value i)
      writes;
    let malformed = find_malformed writes ~first_write in
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    (* Each read with the index of the write whose value it returned.  A
       read whose value was never written is a regularity violation,
       reported there. *)
    let reads =
      History.reads h
      |> List.filter_map (fun (r : History.op) ->
             if r.ok && after_cutoff r then
               Option.map (fun i -> (r, i)) (Sweep.Values.find_opt first_write r.value)
             else None)
      |> Array.of_list
    in
    let index = Array.map snd reads in
    (* New/old inversion: a read that precedes another read in real time
       must not return a strictly newer write. *)
    let inversions = ref [] in
    Sweep.ordered_pairs
      ~inv:(Array.map (fun (r, _) -> time r.History.inv) reads)
      ~resp:(Array.map (fun (r, _) -> time r.History.resp) reads)
      ~below:(index, fun i -> index.(i))
      (fun i j ->
        inversions :=
          { earlier_read = fst reads.(i); later_read = fst reads.(j) } :: !inversions);
    { regularity; inversions = List.rev !inversions; malformed }

  let is_clean r =
    Regularity.is_clean r.regularity && r.inversions = [] && r.malformed = []

  let pp ppf r =
    Format.fprintf ppf "%a@.atomicity: %d inversions, %d malformed"
      Regularity.pp r.regularity
      (List.length r.inversions)
      (List.length r.malformed);
    List.iter
      (fun inv ->
        Format.fprintf ppf "@.  INVERSION %a then %a" History.pp_op
          inv.earlier_read History.pp_op inv.later_read)
      r.inversions;
    List.iter (fun m -> Format.fprintf ppf "@.  MALFORMED %s" m) r.malformed
end

module Mw = struct
  type violation = { kind : string; detail : string }

  type report = {
    writes_checked : int;
    reads_checked : int;
    violations : violation list;
  }

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

  type entry = {
    op : History.op;
    ts : Registers.Epoch.t * int * int;
    key : int;  (** dense timestamp rank; only meaningful when ranked *)
  }

  let time = Sim.Vtime.to_int

  (* Dense integer keys such that [Int.compare k1 k2] has the sign of
     [compare_ts ~tie ts1 ts2] for every pair, or [None] when [Epoch.gt]
     is not a strict total order on the epochs present — then
     [compare_ts] is not a total order either. *)
  let rank_timestamps ~tie stamps =
    let epochs =
      Array.of_list
        (List.sort_uniq Registers.Epoch.compare_structural
           (Array.fold_left (fun acc (e, _, _) -> e :: acc) [] stamps))
    in
    let k = Array.length epochs in
    let score = Array.make k 0 and comparable = ref true in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        if Registers.Epoch.gt epochs.(i) epochs.(j) then score.(i) <- score.(i) + 1
        else if Registers.Epoch.gt epochs.(j) epochs.(i) then
          score.(j) <- score.(j) + 1
        else comparable := false
      done
    done;
    (* A tournament is transitive iff its scores are pairwise distinct. *)
    let seen = Array.make k false in
    Array.iter (fun s -> seen.(s) <- true) score;
    if not (!comparable && Array.for_all Fun.id seen) then None
    else
      let n = Array.length stamps in
      let order = Array.init n Fun.id in
      let cmp i j = compare_ts ~tie stamps.(i) stamps.(j) in
      Array.sort cmp order;
      let keys = Array.make n 0 in
      for m = 1 to n - 1 do
        let prev = order.(m - 1) and i = order.(m) in
        keys.(i) <- (keys.(prev) + if cmp prev i = 0 then 0 else 1)
      done;
      Some keys

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
      |> Array.of_list
    in
    let writes = with_ts (History.writes h) in
    let reads = with_ts (History.reads h) in
    let nw = Array.length writes in
    let keys = rank_timestamps ~tie (Array.map snd (Array.append writes reads)) in
    let ranked = Option.is_some keys in
    let entries offset =
      Array.mapi (fun i (op, ts) ->
          { op; ts; key = (match keys with Some k -> k.(offset + i) | None -> 0) })
    in
    let writes = entries 0 writes and reads = entries nw reads in
    (* With ranked timestamps no comparison can fail.  Otherwise every
       candidate goes through [compare_ts], which reports each
       incomparable pair it meets, in the order it meets them. *)
    let cmp a b =
      if ranked then Some (Int.compare a.key b.key)
      else
        try Some (compare_ts ~tie a.ts b.ts)
        with Incomparable (e1, e2) ->
          bad "incomparable-epochs"
            (Format.asprintf "%a vs %a" Registers.Epoch.pp e1
               Registers.Epoch.pp e2);
          None
    in
    let pairs ops ~bound f =
      Sweep.ordered_pairs
        ~inv:(Array.map (fun e -> time e.op.inv) ops)
        ~resp:(Array.map (fun e -> time e.op.resp) ops)
        ?below:
          (if ranked then Some (Array.map (fun e -> e.key) ops, fun i -> bound ops.(i))
           else None)
        (fun i j -> f ops.(i) ops.(j))
    in
    (* 1. Timestamps respect the real-time order of writes (Lemma 16). *)
    pairs writes ~bound:(fun w -> w.key + 1) (fun w1 w2 ->
        match cmp w1 w2 with
        | Some c when c >= 0 ->
          bad "write-order"
            (Format.asprintf "%a not before %a" History.pp_op w1.op History.pp_op
               w2.op)
        | Some _ | None -> ());
    (* 2. Each read is at least as new as every write completed before it,
       and not newer than every write invoked before it responded. *)
    let resp = Array.map (fun w -> time w.op.resp) writes in
    let by_resp = Sweep.order resp in
    let sorted_resp = Array.map (fun i -> resp.(i)) by_resp in
    let newest_completed = Sweep.prefix_max (Array.map (fun i -> writes.(i).key) by_resp) in
    let min_resp = if nw = 0 then max_int else sorted_resp.(0) in
    let min_key = Array.fold_left (fun m w -> Int.min m w.key) max_int writes in
    let first_inv_of_key =
      let a = Array.make (nw + Array.length reads) max_int in
      Array.iter (fun w -> a.(w.key) <- Int.min a.(w.key) (time w.op.inv)) writes;
      a
    in
    Array.iter
      (fun r ->
        let completed = Sweep.upper_bound sorted_resp (time r.op.inv) in
        if (not ranked) || newest_completed.(completed) > r.key then
          Array.iter
            (fun w ->
              if Sim.Vtime.( <= ) w.op.resp r.op.inv then
                match cmp r w with
                | Some c when c < 0 ->
                  bad "stale-read"
                    (Format.asprintf "%a older than completed %a" History.pp_op
                       r.op History.pp_op w.op)
                | Some _ | None -> ())
            writes;
        (* The read's timestamp must belong to some write that had started
           (or be older than all of them: the initial value). *)
        let plausible =
          nw = 0
          ||
          if ranked then
            first_inv_of_key.(r.key) < time r.op.resp
            || (min_resp > time r.op.inv && r.key < min_key)
          else
            Array.exists
              (fun w ->
                Sim.Vtime.( < ) w.op.inv r.op.resp
                && match cmp r w with Some 0 -> true | _ -> false)
              writes
            || Array.for_all
                 (fun w ->
                   (not (Sim.Vtime.( <= ) w.op.resp r.op.inv))
                   && match cmp r w with Some c -> c < 0 | None -> true)
                 writes
        in
        if not plausible then
          bad "future-or-phantom-read"
            (Format.asprintf "%a matches no plausible write" History.pp_op r.op))
      reads;
    (* 3. Reads are monotone along real time. *)
    pairs reads ~bound:(fun r -> r.key) (fun r1 r2 ->
        match cmp r1 r2 with
        | Some c when c > 0 ->
          bad "read-inversion"
            (Format.asprintf "%a then %a" History.pp_op r1.op History.pp_op r2.op)
        | Some _ | None -> ());
    {
      writes_checked = nw;
      reads_checked = Array.length reads;
      violations = List.rev !violations;
    }

  let is_clean r = r.violations = []

  let pp ppf r =
    Format.fprintf ppf "mw-atomicity: %d writes, %d reads, %d violations"
      r.writes_checked r.reads_checked
      (List.length r.violations);
    List.iter
      (fun v -> Format.fprintf ppf "@.  %s: %s" v.kind v.detail)
      r.violations
end
