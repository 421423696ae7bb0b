(** A minimal JSON tree, printer and parser.

    The observability layer serializes traces, metrics and run reports
    without adding a dependency on an external JSON package; the parser
    and {!Decode} read every artifact back (replays, the [validate]
    subcommand, lint baselines). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Non-finite floats render as [null]; integral
    floats keep a [".0"] marker so printing and re-parsing preserves the
    Int/Float distinction. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for report files meant to be diffed. *)

exception Parse_error of string

val parse_exn : string -> t
(** Raises {!Parse_error}. *)

val parse : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts both [Float] and [Int]. *)

val to_string_opt : t -> string option

val to_list_opt : t -> t list option

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Result-returning decoders for reading artifacts back.  Every error is
    a string prefixed by the context [ctx] the caller names (for example
    ["config"]): a missing key reads [<ctx>: missing field "k"], a
    mistyped value [<ctx>.<k>: expected an integer].  No decoder raises. *)
module Decode : sig
  val ( let* ) :
    ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result

  val field : string -> string -> t -> (t, string) result
  (** [field ctx key j]: the value under [key] in the object [j]. *)

  val as_int : string -> t -> (int, string) result

  val as_float : string -> t -> (float, string) result
  (** Accepts both [Float] and [Int]. *)

  val as_string : string -> t -> (string, string) result

  val as_bool : string -> t -> (bool, string) result

  val as_obj : string -> t -> ((string * t) list, string) result

  val as_list :
    string -> (t -> ('a, string) result) -> t -> ('a list, string) result
  (** Decode every item in order; the first item error is returned. *)

  val req_field :
    string ->
    string ->
    (string -> t -> ('a, string) result) ->
    t ->
    ('a, string) result
  (** [req_field ctx key as_x j]: {!field}, then [as_x] under the context
      [ctx.key]. *)

  val int_field : string -> string -> t -> (int, string) result
  (** [req_field ctx key as_int j]; the other [*_field] decoders are built
      the same way. *)

  val float_field : string -> string -> t -> (float, string) result

  val str_field : string -> string -> t -> (string, string) result

  val bool_field : string -> string -> t -> (bool, string) result

  val obj_field : string -> string -> t -> ((string * t) list, string) result

  val list_field :
    string ->
    string ->
    (t -> ('a, string) result) ->
    t ->
    ('a list, string) result

  val opt_field :
    string ->
    string ->
    (string -> t -> ('a, string) result) ->
    t ->
    ('a option, string) result
  (** Like {!req_field}, but [None] when [key] is absent or [null]. *)

  val check_schema : string -> string list -> t -> (string, string) result
  (** The artifact prologue: the ["schema"] string field, which must be
      one of the accepted versions; returns the version found. *)
end
