(** A register deployment under model-checker control.

    One {!t} is one execution-in-progress of the configured system, but
    nothing fires by itself — the explorer repeatedly asks for the
    {!enabled} moves and {!apply}s its choice.  All residual
    nondeterminism is pinned (fixed unit link delays, deterministic
    Byzantine behaviors, concrete corruption payloads), so an execution is
    exactly its move sequence: replaying the same moves from a fresh
    {!create} reproduces the same global state bit for bit.

    A state has one of two representations, chosen by the family:
    - {b regular}: plain data — server instances, per-link FIFO queues,
      port round tags, mailboxes, and the writer and reader as explicit
      step automata (the client control flow of [Swsr_regular] and of the
      ss-broadcast, restated over the library's server automaton,
      Byzantine behaviors and thresholds).  Such a state can be copied
      ({!snapshot}), which is how the DFS branches;
    - {b atomic, mwmr}: the protocol code itself, running unchanged as
      fibers over {!Registers.Net} with every engine event held back.
      OCaml fibers cannot be cloned, so the DFS rebuilds siblings by
      replaying the move prefix.
    Both render through one canonical fingerprint, and on the regular
    family they agree move for move (enabled moves, fingerprints, history,
    verdicts, traffic counters); {!create_fibers} keeps the fiber-backed
    regular deployment as the reference.

    Soundness of the move menu w.r.t. the paper's model:
    - per-link FIFO: a [Deliver] always fires the oldest pending event of
      its link, never an overtaking one;
    - synchronized ss-broadcast delivery: the broadcasting client resumes
      at the min(n-2t, #correct)-th correct delivery callback, counted as
      it happens, so the resume point is respected under any interleaving
      the explorer picks;
    - transient corruption: a [Corrupt] move applies one menu item
      (at most once per execution), modelling a transient fault striking
      between any two events. *)

type move =
  | Deliver of string
      (** fire the FIFO-head pending delivery of the named link *)
  | Tick of int
      (** fire the [i]-th pending unlabeled engine event (rare: only
          degenerate configurations schedule unlabeled events) *)
  | Corrupt of int  (** fire menu item [i] *)

val move_to_string : move -> string

val move_equal : move -> move -> bool

val compare_move : move -> move -> int

val independent : move -> move -> bool
(** Conservative commutation relation for the sleep-set reduction: [true]
    only for two deliveries on links with disjoint {src, dst} endpoint
    sets.  Corruptions and unlabeled events are dependent with
    everything. *)

type t

val create : Config.t -> t
(** Build the deployment and start the clients (they run to their first
    block, issuing the first broadcasts).  Deterministic: two [create]s of
    the same config are indistinguishable. *)

val create_fibers : Config.t -> t
(** {!create} with the fiber-backed representation whatever the family —
    the reference implementation the regular family's data state is
    checked against. *)

val snapshot : t -> t option
(** An independent copy of the state (applying moves to either leaves the
    other untouched), or [None] for fiber-backed states. *)

val config : t -> Config.t

val engine : t -> Sim.Engine.t
(** The engine the deployment runs on; its metrics hold the traffic
    counters ([msg.sent.<class>.count], [msg.sent.<class>.bytes],
    [ss.broadcasts]).  For a data state it is a fresh engine carrying the
    state's clock and those counters. *)

val history : t -> Oracles.History.t

val corrupt_times : t -> int list
(** Instants at which corruption moves fired so far, ascending. *)

val enabled : t -> move list
(** The current choice menu, deterministically ordered: one [Deliver] per
    link with pending traffic (label order), then [Tick]s, then the unused
    [Corrupt] items (only while some client is still running).
    Empty iff the execution is terminal. *)

val apply : ?strict:bool -> t -> move -> bool
(** Fire one move: advance the clock one tick, then execute it (and
    whatever protocol code it resumes, synchronously to the next
    block).  Returns [true] on success.  An inapplicable move (no pending
    delivery on the link, a negative or out-of-range index, a menu item
    already fired) raises [Invalid_argument] under [strict] (the default,
    for artifact replay) and returns [false] otherwise (for shrink
    candidates, where a dropped prefix may invalidate later moves). *)

val client_active : t -> bool
(** Some client is still running. *)

val stuck : t -> string list
(** Names of clients (["writer"], ["reader"], ["p0"], ...) that have not
    finished — non-empty at a terminal state means the execution
    deadlocked (or crashed). *)

val fingerprint : t -> string
(** Canonical digest of the global state: server instances, Byzantine
    assignment, per-link in-flight payloads, mailbox contents, port round
    tags, client persistent bookkeeping, remaining corruption menu, client
    statuses, and the recorded history with instants canonicalized to
    their rank (order type) so order-isomorphic pasts merge.  Server
    slots not named by any corruption-menu item are additionally
    canonicalized up to permutation (symmetry reduction): the protocols
    never branch on a server's identity, so permuted states have
    isomorphic futures and identical verdicts.  Two states with equal
    fingerprints have indistinguishable futures and verdicts. *)

val fingerprint_raw_ex : t -> string * (int -> int) * (int -> int)
(** {!fingerprint_ex} with the digest kept in its raw 16-byte form (no
    hex rendering).  This is the hot-path variant: the checker's visited
    table interns raw digests under a folded 64-bit key, and hex only
    ever appears in artifacts via {!fingerprint}. *)

val fingerprint_ex : t -> string * (int -> int) * (int -> int)
(** [(digest, ren, rep)]: {!fingerprint} plus the canonical server
    renaming it chose ([ren]: original slot -> canonical slot) and the
    automorphism-class representative map ([rep]: original slot -> least
    interchangeable slot).  The checker must pass sleep sets through
    {!canonical_move}[ ren] before comparing them across states merged by
    the symmetry reduction, and may restrict branching to moves fixed by
    {!canonical_move}[ rep] (successors of class members are
    isomorphic). *)

val canonical_move : (int -> int) -> move -> move
(** Rewrite the server ids inside a [Deliver] label through a canonical
    renaming; [Tick] and [Corrupt] are unchanged. *)
