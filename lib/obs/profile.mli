(** The search flight recorder: a [stabreg/mc-profile/v1] timeline of
    periodic engine snapshots (states/sec, frontier depth, pruning hits,
    per-domain trial splits, ...).

    Sampling cadence is keyed on a deterministic progress counter (model
    checker states, chaos trials) — never on wall time — so which
    samples exist is byte-stable across runs.  Each sample does carry an
    [elapsed_s] wall-clock field for throughput computation, but the
    clock is {e injected}: library code defaults to a constant-zero
    clock, and only the drivers in [bin/] (outside the determinism lint
    scope) pass a real one.  Replay comparisons must therefore ignore
    [elapsed_s] — or simply run with the default clock. *)

type t

val schema_version : string

val create : ?every:int -> ?clock:(unit -> float) -> kind:string -> unit -> t
(** [every] (default 1000, in ticks of the progress counter) is the
    minimum tick distance between samples; [kind] tags the producing
    engine (["mc"], ["chaos"]).  Raises [Invalid_argument] when [every]
    is not positive. *)

val due : t -> tick:int -> bool
(** Would a {!sample} at [tick] record? *)

val sample : ?force:bool -> t -> tick:int -> (unit -> (string * Json.t) list) -> unit
(** Record a snapshot if [tick] has advanced at least [every] ticks past
    the previous sample (the first call always records; [force] skips
    the cadence check, for a final snapshot at shutdown).  The field
    thunk is only evaluated when the sample records. *)

val add_section : t -> string -> Json.t -> unit
(** Attach a named top-level section (e.g. ["domains"]: the per-domain
    split of a fanned-out chaos campaign). *)

val samples : t -> int

val sample_jsons : t -> Json.t list
(** The recorded samples, oldest first. *)

val to_json : t -> Json.t

val validate : Json.t -> (unit, string) result

val write : dir:string -> name:string -> t -> string
(** Write [<dir>/<name>.json] (pretty-printed), creating [dir] if
    needed; returns the path. *)
