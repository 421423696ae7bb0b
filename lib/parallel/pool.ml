(* Deterministic fan-out over OCaml 5 domains.

   The contract is not speed but *reproducibility*: callers (chaos
   campaigns, the shard tier) must observe results that are
   bit-identical no matter how the runtime schedules domains.  So this
   module is deliberately minimal: a fixed round-robin assignment of
   items to workers decided before any domain starts, results written
   to distinct slots of a preallocated array (plain writes to distinct
   indices from different domains are race-free, and [Domain.join]
   publishes them to the caller), and exceptions re-raised in item
   order. *)

exception Worker_failure of int * exn

let map ~domains f items =
  if domains < 1 then
    invalid_arg "Parallel.Pool.map: domains must be >= 1";
  let items = Array.of_list items in
  let n = Array.length items in
  let k = min domains (max 1 n) in
  if k = 1 then Array.to_list (Array.map f items)
  else begin
    let results = Array.make n None in
    let run_shard shard =
      let i = ref shard in
      while !i < n do
        (results.(!i) <-
          (match f items.(!i) with
          | v -> Some (Ok v)
          | exception e -> Some (Error e)));
        i := !i + k
      done
    in
    (* Workers take shards 1..k-1; the caller's own domain runs shard 0,
       so item 0 always executes on the calling domain (callers rely on
       this: chaos campaigns attach observability sinks to trial 0,
       which must not migrate to a worker domain). *)
    let workers = List.init (k - 1) (fun w -> Domain.spawn (fun () -> run_shard (w + 1))) in
    run_shard 0;
    List.iter Domain.join workers;
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some (Ok v) -> v
           | Some (Error e) -> raise (Worker_failure (i, e))
           | None -> assert false)
         results)
  end

exception Nondeterministic of int

(* The race harness: run the fan-out twice, the second time with the
   scheduling order inverted — workers spawned in reverse shard order
   and every shard walking its items highest-index first (item 0 still
   runs on the calling domain, preserving the sink-attachment
   contract).  Any dependence on execution order — a shared accumulator,
   an order-sensitive RNG, a data race that happens to be benign under
   one schedule — shows up as a result mismatch. *)
let map_checked ~domains ?equal ?recheck f items =
  let first = map ~domains f items in
  let g = Option.value recheck ~default:f in
  let eq = Option.value equal ~default:(fun a b -> a = b) in
  let items = Array.of_list items in
  let n = Array.length items in
  let k = min domains (max 1 n) in
  let results = Array.make n None in
  let run_shard_rev shard =
    let count = if shard >= n then 0 else ((n - 1 - shard) / k) + 1 in
    let j = ref (shard + ((count - 1) * k)) in
    while !j >= 0 do
      results.(!j) <-
        (match g items.(!j) with
        | v -> Some (Ok v)
        | exception e -> Some (Error e));
      j := !j - k
    done
  in
  if k = 1 then run_shard_rev 0
  else begin
    let workers =
      List.init (k - 1) (fun w ->
          Domain.spawn (fun () -> run_shard_rev (k - 1 - w)))
    in
    run_shard_rev 0;
    List.iter Domain.join workers
  end;
  List.iteri
    (fun i v1 ->
      match results.(i) with
      | Some (Ok v2) when eq v1 v2 -> ()
      | Some (Ok _) | Some (Error _) | None -> raise (Nondeterministic i))
    first;
  first
