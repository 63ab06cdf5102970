(** A growable byte buffer that text records are written into, reused
    from record to record, with writers for the two number forms the
    journal and snapshot texts use.  Unlike [Buffer], the bytes written
    so far are reachable in place ({!bytes}), so a record can be
    checksummed and handed to a sink without a copy.  Writing allocates
    only when the buffer grows. *)

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
