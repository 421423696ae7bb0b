(** Stateful bounded DFS over {!Sys} executions, with safety +
    stabilization oracles, sleep-set partial-order reduction, shrinking,
    and replayable counterexample artifacts.

    The explorer enumerates every interleaving of pending deliveries and
    corruption-menu strikes up to the configured budgets.  Sibling
    branches start from copies of their parent state: a {!Sys.snapshot}
    for the regular family, whose states are plain data, and a replay of
    the move prefix from a fresh {!Sys.create} for the fiber-backed
    atomic and MWMR families.  States are merged by {!Sys.fingerprint},
    interned in the visited table under a 64-bit structural key with
    full-digest collision verification.  Each visited state keeps the
    residual sleep set — the enabled moves no visit has explored from it
    yet: a revisit re-explores exactly that residual minus its own sleep
    set and nothing else (Godefroid's sleep sets combined with state
    matching), which both keeps the sleep-set/visited-set combination
    sound and avoids re-expanding already-covered successors. *)

type verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }
      (** [kind] is the oracle's issue class (e.g. ["new-old-inversion"],
          ["stuck"]); [detail] is the first offending witness. *)

val verdict_kind : verdict -> string

val same_verdict : verdict -> verdict -> bool
(** Same kind (used by the shrinker: any violation of the same class
    counts as a reproduction). *)

val verdict_equal : verdict -> verdict -> bool
(** Structural equality (used by strict artifact replay). *)

val pp_verdict : Format.formatter -> verdict -> unit

val terminal_verdict : Sys.t -> verdict
(** Judge a terminal (no enabled moves) execution: deadlocked fibers
    first, then the stabilization-segmented register condition — the
    history is cut at every corruption instant and each segment checked
    from its first completed write, so only quiescent suffixes after the
    last disturbance must be legal. *)

type reduction = No_reduction | Sleep_sets

val reduction_to_string : reduction -> string

type budgets = { max_states : int; max_depth : int }

val default_budgets : budgets
(** 2,000,000 states, depth 10,000. *)

type stats = {
  mutable states : int;  (** nodes expanded *)
  mutable transitions : int;
  mutable terminals : int;
  mutable revisits : int;
      (** arrivals at an already-visited state (pruned outright or
          partially re-expanded from the stored residual) *)
  mutable sleep_skips : int;  (** moves skipped by sleep sets *)
  mutable sym_skips : int;  (** moves skipped as symmetric to a sibling *)
  mutable replays : int;
      (** prefix re-executions: one per non-last sibling for families
          whose states cannot be snapshotted (atomic, mwmr); 0 when
          searching the regular family *)
  mutable off_target : int;  (** violations ignored by a [target] filter *)
  mutable fp_collisions : int;
      (** distinct full digests interned under an already-occupied 8-byte
          visited-set key — how often the two-layer table actually needed
          its second layer *)
  mutable peak_visited : int;
  mutable max_depth_seen : int;
  mutable truncated : bool;  (** some budget cut the search *)
}

type outcome = {
  verdict : verdict;
  exhaustive : bool;
      (** [true] iff no state/depth budget truncated the search: a [Clean]
          exhaustive outcome is a proof over the bounded configuration *)
  stats : stats;
  trace : Sys.move list option;  (** violating trace, execution order *)
}

val search :
  ?budgets:budgets ->
  ?reduction:reduction ->
  ?use_visited:bool ->
  ?seed:int ->
  ?target:string ->
  ?recorder:Obs.Profile.t ->
  Config.t ->
  outcome
(** Explore until a violation, exhaustion, or a budget.  Raises
    [Invalid_argument] on an invalid config.  [use_visited:false]
    additionally disables state merging (for cross-checking the
    fingerprint on tiny configs).

    [seed] shuffles the sibling order at every node (deterministically
    from the seed).  Sleep sets, subsumption and symmetry pruning are
    order-agnostic, so the reduced state space — and hence any exhaustive
    verdict — is unchanged; only which corner a state budget reaches
    first differs.  Use different seeds to hunt bugs that hide from the
    default order (swarm-style).

    [target] restricts the hunt to one violation kind (e.g.
    ["inversion"]): terminals violating some other way are counted in
    [stats.off_target] and skipped.  An exhaustive [Clean] outcome under
    a target only certifies the absence of that kind.

    [recorder] is a flight recorder ({!Obs.Profile}) sampled on the
    deterministic state counter: each sample snapshots the live stats
    record plus the current frontier depth and visited-set occupancy,
    and a final forced sample closes the timeline.  Recording never
    perturbs the search (no verdict, trace or stat changes). *)

val shrink :
  ?log:(string -> unit) ->
  Config.t ->
  Sys.move list ->
  verdict ->
  Sys.move list * verdict * int
(** [shrink cfg trace verdict] minimizes a violating trace: shortest
    forced prefix whose deterministic canonical completion still yields a
    violation of the same kind, then drops unneeded corruption moves.
    Returns the complete concrete (strict-replayable) move list of the
    minimized execution, its verdict, and the number of re-executions. *)

(** {2 Counterexample artifacts} *)

val cex_schema : string
(** ["stabreg/mc-cex/v1"] *)

type cex = {
  config : Config.t;
  trace : Sys.move list;  (** complete, strict-replayable *)
  verdict : verdict;
  states : int;
      (** states expanded when the violation was found; informational — it
          depends on search options the artifact does not record, so
          {!replay} does not check it *)
  digest : string;  (** terminal-state fingerprint *)
}

val cex_to_json : cex -> Obs.Json.t

val cex_of_json : Obs.Json.t -> (cex, string) result

val replay : cex -> (verdict, string) result
(** Strict replay: every recorded move must fire, the terminal verdict
    must be structurally equal to the recorded one, and the terminal
    fingerprint must match the recorded digest.  [states] is not
    checked. *)

(** {2 Guided witness schedules} *)

val guide_schema : string
(** ["stabreg/mc-guide/v1"] *)

val guide_of_json : Obs.Json.t -> (Config.t * Sys.move list, string) result
(** Parse a guide file: a config plus a schedule of moves to force — a
    counterexample artifact without the outcome fields.  A full cex
    artifact is accepted too (its recorded outcome is ignored). *)

(** {2 One-call drivers} *)

type run = { outcome : outcome; cex : cex option; shrink_runs : int }

val check :
  ?budgets:budgets ->
  ?reduction:reduction ->
  ?use_visited:bool ->
  ?seed:int ->
  ?target:string ->
  ?recorder:Obs.Profile.t ->
  ?shrink_violations:bool ->
  ?log:(string -> unit) ->
  Config.t ->
  run
(** {!search}; on a violation, {!shrink} it (unless disabled) and
    package the result as a replayable {!cex}.  The returned outcome's
    verdict is the (possibly shrunk) final verdict. *)

val guided :
  ?shrink_violations:bool ->
  ?log:(string -> unit) ->
  Config.t ->
  Sys.move list ->
  run
(** Guided witness checking (the moral equivalent of simulating a SPIN
    trail): execute the schedule as a forced prefix — moves that cannot
    fire are skipped — then drain deterministically to a terminal state
    and judge it.  A violation is shrunk and packaged exactly like
    {!check}'s.  Useful for interleavings a budgeted search cannot reach
    unaided: the author scripts only the critical deliveries.  Never
    claims exhaustiveness.  Raises [Invalid_argument] on an invalid
    config. *)
