(** Atomicity checkers: regularity plus the absence of new/old inversions
    (§2.2), for single-writer and multi-writer histories.

    {!Sw} handles SWSR/SWMR histories: the single writer makes writes
    totally ordered by invocation time; each read is mapped to the index of
    the write whose (distinct) value it returned, and atomicity amounts to
    regularity plus monotonicity of those indices along the real-time order
    of reads — precisely "no two reads return new/old inverted values".

    {!Mw} handles MWMR histories using the (epoch, seq, writer) timestamps
    recorded with each operation: writes must be totally ordered by
    timestamp consistently with real time (Lemma 16), and reads must be
    monotone and sandwiched between the writes they follow and overlap.

    Both are sorted sweeps, not all-pairs scans.  {!Sw} costs
    O((R+W) log(R+W)) on a clean history: a value-to-write-index table,
    then one binary search and one suffix-minimum lookup per read to rule
    out inversions.  {!Mw} first ranks the timestamps when [Epoch.gt] is a
    strict total order on the epochs present (checked pairwise over the
    few distinct epochs), then prunes write-order and read-inversion
    candidates with suffix minima, stale reads with prefix maxima over the
    writes sorted by response, and answers plausibility from per-rank
    tables: O((R+W) log(R+W)) too.  An op with a violation pays one scan
    of its candidates.  When the epochs are not totally ordered
    (pre-stabilization debris), {!Mw} compares every real-time-ordered
    candidate pair, so its [incomparable-epochs] reports come out in the
    same order as the definition's.  The all-pairs definitions both are
    tested against live in [test/oracle_spec.ml]. *)

type inversion = { earlier_read : History.op; later_read : History.op }

module Sw : sig
  type report = {
    regularity : Regularity.report;
    inversions : inversion list;
    malformed : string list;
        (** history-discipline problems: overlapping writes from the
            single writer, duplicate written values *)
  }

  val check : ?cutoff:Sim.Vtime.t -> History.t -> report

  val is_clean : report -> bool

  val pp : Format.formatter -> report -> unit
end

module Mw : sig
  type violation = {
    kind : string;
    detail : string;
  }

  type report = {
    writes_checked : int;
    reads_checked : int;
    violations : violation list;
  }

  val check :
    ?cutoff:Sim.Vtime.t ->
    tie:[ `Min_index | `Max_index ] ->
    History.t ->
    report
  (** [tie] must match the register's configured line-15 tie-break: with
      [`Min_index] the smaller writer id wins among equal (epoch, seq)
      timestamps, with [`Max_index] the larger (Definition 1's [j > i]). *)

  val is_clean : report -> bool

  val pp : Format.formatter -> report -> unit
end
