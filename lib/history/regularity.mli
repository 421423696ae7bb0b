(** The regular-register condition (§2.2), checked per read.

    After the cutoff (the experiment's stand-in for [tau_stab]), every read
    must return either the value of the last write that completed before
    the read started, or the value of a write concurrent with the read.
    Reads invoked before the cutoff are ignored (they are allowed to return
    arbitrary values); reads that ran out of budget count as liveness
    failures, reported separately.

    Cost: O((R+W) log W) for R reads and W writes — one binary search over
    the writes sorted by response for each read, and a table from value to
    write positions (O(1) per read with the workloads' distinct written
    values).  Only a violating read pays an O(W) scan, to list its
    admissible values.  The all-pairs definition this is tested against
    lives in [test/oracle_spec.ml]. *)

type violation = {
  read : History.op;
  expected : Registers.Value.t list;  (** the admissible values *)
}

type report = {
  reads_checked : int;
  reads_skipped : int;  (** invoked before the cutoff *)
  liveness_failures : int;  (** reads that exhausted their budget *)
  violations : violation list;
}

val check :
  ?cutoff:Sim.Vtime.t -> ?initial_ok:bool -> History.t -> report
(** [check ~cutoff h] verifies every read of [h] invoked at or after
    [cutoff] (default: check all).  [initial_ok] (default [false]) admits
    any value for reads with no preceding or concurrent write at all, and
    admits [⊥] for reads invoked before any write completed (such a read
    may take effect before the concurrent first write) — useful for
    histories that legitimately start unwritten. *)

val is_clean : report -> bool
(** No violations and no liveness failures among checked reads. *)

val pp : Format.formatter -> report -> unit
