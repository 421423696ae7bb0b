type kind = Write | Read

type op = {
  proc : string;
  kind : kind;
  inv : Sim.Vtime.t;
  resp : Sim.Vtime.t;
  value : Registers.Value.t;
  ok : bool;
  ts : (Registers.Epoch.t * int * int) option;
}

type t = {
  mutable ops_rev : op list;
  mutable count : int;
  mutable sorted : op list option;  (** [ops], until the next [record] *)
}

let create () = { ops_rev = []; count = 0; sorted = None }

let record t ~proc ~kind ~inv ~resp ?ts ?(ok = true) value =
  t.ops_rev <- { proc; kind; inv; resp; value; ok; ts } :: t.ops_rev;
  t.count <- t.count + 1;
  t.sorted <- None

let ops t =
  match t.sorted with
  | Some ops -> ops
  | None ->
    (* rev gives recording order; stable sort keeps it for equal times. *)
    let ops =
      List.stable_sort
        (fun a b -> Sim.Vtime.compare a.inv b.inv)
        (List.rev t.ops_rev)
    in
    t.sorted <- Some ops;
    ops

let writes t = List.filter (fun o -> o.kind = Write) (ops t)

let reads t = List.filter (fun o -> o.kind = Read) (ops t)

let length t = t.count

(* In the discrete-time recorder, an operation responding at the same
   instant another is invoked precedes it (the response event fired first),
   so touching endpoints are sequential, not concurrent. *)
let overlap a b =
  not (Sim.Vtime.( <= ) a.resp b.inv || Sim.Vtime.( <= ) b.resp a.inv)

let pp_op ppf o =
  Format.fprintf ppf "%s %s[%d,%d] %a%s" o.proc
    (match o.kind with Write -> "W" | Read -> "R")
    (Sim.Vtime.to_int o.inv) (Sim.Vtime.to_int o.resp) Registers.Value.pp
    o.value
    (if o.ok then "" else " (budget-exhausted)")
