type summary = Obs.Report.op_summary

let percentile sorted p =
  if p <= 0.0 then sorted.(0)
  else
    let n = Array.length sorted in
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

let summary xs =
  if xs = [] then invalid_arg "Metrics.summary: empty sample";
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  let total = Array.fold_left ( +. ) 0.0 arr in
  {
    Obs.Report.count = n;
    mean = total /. float_of_int n;
    min = arr.(0);
    p50 = percentile arr 0.5;
    p90 = percentile arr 0.9;
    p95 = percentile arr 0.95;
    p99 = percentile arr 0.99;
    p999 = percentile arr 0.999;
    max = arr.(n - 1);
  }

let summary_opt xs = if xs = [] then None else Some (summary xs)

let latencies ~kind h =
  Oracles.History.ops h
  |> List.filter_map (fun (o : Oracles.History.op) ->
         if o.kind = kind && o.ok then
           Some (float_of_int (Sim.Vtime.diff o.resp o.inv))
         else None)

let ok_reads h =
  List.length
    (List.filter (fun (o : Oracles.History.op) -> o.ok) (Oracles.History.reads h))

let failed_reads h =
  List.length
    (List.filter
       (fun (o : Oracles.History.op) -> not o.ok)
       (Oracles.History.reads h))

let stabilization_read_index ~valid h =
  let reads = Oracles.History.reads h in
  let n = List.length reads in
  if n = 0 then None
  else
    (* Last invalid read determines the clean suffix. *)
    let last_bad =
      List.fold_left
        (fun (i, acc) r -> (i + 1, if valid r then acc else Some i))
        (0, None) reads
      |> snd
    in
    match last_bad with
    | None -> Some 0
    | Some i when i + 1 < n -> Some (i + 1)
    | Some _ -> None

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "n=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p95=%.1f p99=%.1f p999=%.1f \
     max=%.1f"
    s.count s.mean s.min s.p50 s.p90 s.p95 s.p99 s.p999 s.max
