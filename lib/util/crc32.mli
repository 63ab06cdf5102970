(** CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding each
    write-ahead journal record against torn writes and bit rot.  Pure
    OCaml, slice-by-8 table-driven; no dependencies, no allocation. *)

val string : string -> int
(** Checksum of a whole string, as a non-negative int in [0, 2^32). *)

val substring : string -> pos:int -> len:int -> int
(** Checksum of the [len] bytes of a string starting at [pos].  Raises
    [Invalid_argument] when the range is not inside the string. *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** {!substring} over a byte buffer — how a record is checksummed in
    place in the buffer it was written into. *)

val to_hex : int -> string
(** Fixed-width lowercase 8-digit hex rendering of a checksum. *)

val blit_hex : int -> Bytes.t -> pos:int -> unit
(** Write {!to_hex}'s 8 digits into a buffer at [pos]. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] when the input is not 8 hex digits
    (either case). *)

val of_hex_at : string -> pos:int -> int option
(** {!of_hex} of the 8 characters of a string starting at [pos]; [None]
    when they are not all hex digits or run past the end. *)
