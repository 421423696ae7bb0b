(** Deterministic fan-out over OCaml 5 domains.

    The one guarantee everything else in this repo leans on: the value
    [map ~domains f items] returns — including which exception it
    raises, if any — is a function of [f] and [items] alone, never of
    how the runtime schedules domains.  Work is assigned round-robin
    before any domain starts, results land in distinct slots, and
    failures are reported in item order.  [f] must itself be
    self-contained: it runs concurrently with the other items and must
    not touch shared mutable state. *)

exception Worker_failure of int * exn
(** [Worker_failure (i, e)]: applying [f] to item [i] raised [e].  When
    several items fail, the lowest index wins — deterministically —
    regardless of which domain crashed first in wall-clock time. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f items] is [List.map f items] computed on up to
    [domains] domains ([domains - 1] spawned workers plus the calling
    domain).  Item order is preserved.  Item [0] always runs on the
    calling domain, so callers may give it caller-local side effects
    (e.g. attaching an observability sink).  With [domains = 1] (or a
    single item) no domain is spawned at all and the call is exactly
    [List.map].  Raises [Invalid_argument] if [domains < 1]. *)

exception Nondeterministic of int
(** [Nondeterministic i]: item [i] produced a different result when the
    fan-out was re-run with inverted scheduling order. *)

val map_checked :
  domains:int ->
  ?equal:('b -> 'b -> bool) ->
  ?recheck:('a -> 'b) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** The deterministic race harness.  [map_checked ~domains f items] is
    [map ~domains f items], then the same shard set run a second time
    with inverted scheduling — workers spawned in reverse shard order,
    each shard walking its items highest-index first (item [0] still on
    the calling domain) — asserting per-item equal results.  Every item
    is re-run.  A mismatch (or a second-pass failure) raises
    [Nondeterministic i] for the lowest differing index; otherwise the
    first pass's results are returned, so a clean [map_checked] is
    observationally [map].  [equal] defaults to structural equality;
    [recheck] (default [f]) runs the second pass, letting callers
    suppress caller-local side effects (e.g. not re-attaching a sink)
    while computing the same value. *)
