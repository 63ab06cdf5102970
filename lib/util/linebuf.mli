(** A growable byte buffer that text records are written into, reused
    from record to record, with writers for the two number forms the
    journal and snapshot texts use, and their reader twin.  Unlike
    [Buffer], the bytes written so far are reachable in place
    ({!bytes}), so a record can be checksummed and handed to a sink
    without a copy.  Writing allocates only when the buffer grows.

    The {{!reading}reader} decodes a line in place from its byte range:
    it accepts exactly the text the writers produce and nothing else, so
    every field reads back bit-exactly and a damaged one is refused. *)

type t

val create : int -> t
(** An empty buffer with room for about [n] bytes before it grows. *)

val clear : t -> unit
(** Forget the contents; the storage is kept for reuse. *)

val length : t -> int

val bytes : t -> Bytes.t
(** The backing store: its first {!length} bytes are the contents.  Valid
    until the next write, which may replace it. *)

val contents : t -> string
(** A copy of the contents. *)

val add_char : t -> char -> unit

val add_string : t -> string -> unit

val add_int : t -> int -> unit
(** The decimal text of an int, byte-identical to [string_of_int]
    ([min_int] included). *)

val add_hfloat : t -> float -> unit
(** The lossless hexadecimal text of a float, byte-identical to
    [Printf.sprintf "%h"]: ["0x1.8p+1"], ["-0x0p+0"],
    ["0x0.0000000000001p-1022"], ["infinity"], ["-nan"].
    [float_of_string] reads it back bit-exactly (NaN payloads aside). *)

(** {1:reading Reading} *)

val index_newline : Bytes.t -> pos:int -> stop:int -> int
(** The index of the first newline in [b] at or after [pos] and before
    [stop], or [stop] when there is none — how a text is cut into line
    ranges in place.  Scans eight bytes a step. *)

type reader
(** A cursor over one line's byte range. *)

val read_bytes : Bytes.t -> pos:int -> len:int -> (reader -> 'a option) -> 'a option
(** [read_bytes b ~pos ~len f] runs the decoder [f] over the [len] bytes
    of [b] from [pos], which must not change while it runs.  [None] when
    the range is not inside [b], when a field [f] reads is malformed, or
    when [f] itself says [None]; exceptions [f] raises on its own pass
    through.  A decoder that must see the whole range checks
    {!at_end}. *)

val read : string -> pos:int -> len:int -> (reader -> 'a option) -> 'a option
(** {!read_bytes} over a string. *)

val at_end : reader -> bool
(** Every byte of the range has been read. *)

val expect : reader -> char -> unit
(** Consume one byte, which must be the given one. *)

val read_int : reader -> int
(** The text {!add_int} writes, and only that: an optional minus sign,
    then decimal digits with no leading zero ([-0] refused), in range
    ([min_int] included). *)

val read_hfloat : reader -> float
(** The text {!add_hfloat} writes, and only that, read back bit-exactly
    (a NaN reads as [Float.nan] with the written sign): the fraction's
    hex digits lower-case without trailing zeros, each exponent in the
    form its kind of float is written with. *)

val read_word : reader -> string
(** The bytes up to the next space or the end of the range; may be
    empty. *)

val read_ints : reader -> int list
(** Comma-separated {!read_int}s; an empty field (a space or the end
    next) is the empty list. *)
