(** Sorted-array primitives shared by the history checkers.

    The checkers turn a history into arrays of integer instants (sorted
    by invocation, as {!History.ops} returns them) and integer keys, so
    that "every op that responded before this one started" is a binary
    search and "some later op has a smaller key" is one suffix-minimum
    lookup. *)

module Values : Hashtbl.S with type key = Registers.Value.t
(** Tables keyed by {!Registers.Value.equal}. *)

val lower_bound : int array -> int -> int
(** [lower_bound a x] is the first index of the ascending array [a] whose
    element is [>= x] ([Array.length a] if there is none). *)

val upper_bound : int array -> int -> int
(** [upper_bound a x] is the first index whose element is [> x]: the
    number of elements [<= x]. *)

val order : int array -> int array
(** The permutation of indices that sorts [a] ascending, stable: equal
    elements keep their index order. *)

val prefix_max : int array -> int array
(** [p.(i)] is the maximum of [a.(0) .. a.(i-1)] ([min_int] for [i = 0]);
    [p] has [Array.length a + 1] entries. *)

val ordered_pairs :
  inv:int array ->
  resp:int array ->
  ?below:int array * (int -> int) ->
  (int -> int -> unit) ->
  unit
(** [ordered_pairs ~inv ~resp f] calls [f i j], in lexicographic [(i, j)]
    order, for every [i < j] with [resp.(i) <= inv.(j)]: op [i] completed
    before op [j] started.  [inv] must be ascending.

    With [~below:(key, bound)], only the pairs with
    [key.(j) < bound i] are visited.  A suffix minimum of [key] ends the
    scan of [i]'s candidates as soon as no later key is below the bound,
    so an [i] with no such pair costs one binary search. *)
