(** Aggregate statistics over histories and traces, for the experiment
    tables and benchmarks. *)

type summary = Obs.Report.op_summary

val summary : float list -> summary
(** Raises [Invalid_argument] on an empty list. *)

val summary_opt : float list -> summary option

val latencies : kind:Oracles.History.kind -> Oracles.History.t -> float list
(** Operation latencies (ticks) of the given kind, successful ops only. *)

val ok_reads : Oracles.History.t -> int

val failed_reads : Oracles.History.t -> int

val stabilization_read_index :
  valid:(Oracles.History.op -> bool) -> Oracles.History.t -> int option
(** Index (0-based, in invocation order) of the first read from which all
    subsequent reads satisfy [valid] — the empirically observed
    stabilization point; [None] if no suffix is clean or there are no
    reads. *)

val pp_summary : Format.formatter -> summary -> unit
