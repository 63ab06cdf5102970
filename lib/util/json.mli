(** Minimal JSON codec for the observability artifacts (flight-recorder
    black box, Chrome trace export) and their round-trip through the
    critical-path analyzer.  Values are an ordinary algebraic type; all
    numbers are floats, as in JSON itself.

    The printer emits compact one-line JSON.  Non-finite floats are
    written as [1e999] / [-1e999] (which parse back as infinities) and
    NaN as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a description and byte offset. *)

val to_string : t -> string

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val of_string_opt : string -> t option

(** {1 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k], if any. *)

val to_float : t -> float option

val to_int : t -> int option
(** Only for numbers that are exact integers. *)

val to_str : t -> string option

val to_list : t -> t list option
