type violation = { read : History.op; expected : Registers.Value.t list }

type report = {
  reads_checked : int;
  reads_skipped : int;
  liveness_failures : int;
  violations : violation list;
}

let time = Sim.Vtime.to_int

let check ?cutoff ?(initial_ok = false) h =
  let writes = Array.of_list (History.writes h) in
  let reads = History.reads h in
  let after_cutoff (o : History.op) =
    match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
  in
  let checked, skipped = List.partition after_cutoff reads in
  let liveness = List.filter (fun (r : History.op) -> not r.ok) checked in
  (* Writes by response instant (ties in invocation order), and each
     written value's positions. *)
  let resp = Array.map (fun (w : History.op) -> time w.resp) writes in
  let by_resp = Sweep.order resp in
  let sorted_resp = Array.map (fun i -> resp.(i)) by_resp in
  let nw = Array.length writes in
  let min_resp = if nw = 0 then max_int else sorted_resp.(0) in
  let first_inv = if nw = 0 then max_int else time writes.(0).inv in
  let positions = Sweep.Values.create nw in
  for i = nw - 1 downto 0 do
    let v = writes.(i).value in
    let others = Option.value ~default:[] (Sweep.Values.find_opt positions v) in
    Sweep.Values.replace positions v (i :: others)
  done;
  (* The last write completed before the read's invocation: the latest
     response instant, and among writes responding then, the first. *)
  let last_completed (r : History.op) =
    let completed = Sweep.upper_bound sorted_resp (time r.inv) in
    if completed = 0 then None
    else
      let first = Sweep.lower_bound sorted_resp sorted_resp.(completed - 1) in
      Some writes.(by_resp.(first))
  in
  let concurrent (r : History.op) =
    Array.fold_right
      (fun w acc -> if History.overlap w r then w.History.value :: acc else acc)
      writes []
  in
  (* Admissible values for a read: value of the last write completed before
     the read's invocation, plus values of all writes concurrent with it. *)
  let admits (r : History.op) =
    (initial_ok
    && min_resp > time r.inv
    (* No write completed yet, so a write is concurrent with the read iff
       it started before the read responded.  With none, any value goes;
       a read overlapping only the register's first write(s) may still see
       the initial value — it can take effect before any of them. *)
    && (first_inv >= time r.resp || Registers.Value.equal r.value Registers.Value.bot))
    || (match last_completed r with
       | Some w -> Registers.Value.equal w.value r.value
       | None -> false)
    || List.exists
         (fun i -> History.overlap writes.(i) r)
         (Option.value ~default:[] (Sweep.Values.find_opt positions r.value))
  in
  let violations =
    List.filter_map
      (fun (r : History.op) ->
        if (not r.ok) || admits r then None
        else
          let expected =
            (match last_completed r with Some w -> [ w.value ] | None -> [])
            @ concurrent r
          in
          Some { read = r; expected })
      checked
  in
  {
    reads_checked = List.length checked;
    reads_skipped = List.length skipped;
    liveness_failures = List.length liveness;
    violations;
  }

let is_clean r = r.violations = [] && r.liveness_failures = 0

let pp ppf r =
  Format.fprintf ppf
    "regularity: %d checked, %d skipped, %d liveness failures, %d violations"
    r.reads_checked r.reads_skipped r.liveness_failures
    (List.length r.violations);
  List.iter
    (fun v ->
      Format.fprintf ppf "@.  VIOLATION %a returned %a, admissible: %s"
        History.pp_op v.read Registers.Value.pp v.read.History.value
        (String.concat ", "
           (List.map Registers.Value.to_string v.expected)))
    r.violations
