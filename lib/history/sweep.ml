module Values = Hashtbl.Make (struct
  type t = Registers.Value.t

  let equal = Registers.Value.equal

  (* Values are plain trees of ints, strings and lists: the structural
     hash agrees with [Value.equal]. *)
  let hash = Hashtbl.hash
end)

(* The first index of [a] whose element fails [before], which must hold
   on a prefix of [a]. *)
let partition_point (a : int array) before =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if before a.(mid) then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let lower_bound a x = partition_point a (fun y -> y < x)

let upper_bound a x = partition_point a (fun y -> y <= x)

let order a =
  let idx = Array.init (Array.length a) Fun.id in
  Array.stable_sort (fun i j -> Int.compare a.(i) a.(j)) idx;
  idx

let prefix_max a =
  let p = Array.make (Array.length a + 1) min_int in
  Array.iteri (fun i x -> p.(i + 1) <- Int.max p.(i) x) a;
  p

let suffix_min a =
  let n = Array.length a in
  let s = Array.make (n + 1) max_int in
  for i = n - 1 downto 0 do
    s.(i) <- Int.min a.(i) s.(i + 1)
  done;
  s

let ordered_pairs ~inv ~resp ?below f =
  let n = Array.length inv in
  let below = Option.map (fun (key, bound) -> (key, suffix_min key, bound)) below in
  for i = 0 to n - 1 do
    (* [inv] ascends, so the ops started at or after [resp.(i)] form a
       suffix. *)
    let start = Int.max (i + 1) (lower_bound inv resp.(i)) in
    match below with
    | None ->
      for j = start to n - 1 do
        f i j
      done
    | Some (key, smin, bound) ->
      let b = bound i in
      let j = ref start in
      while !j < n && smin.(!j) < b do
        if key.(!j) < b then f i !j;
        incr j
      done
  done
