(** A simulated filesystem with fault injection — the disk under the
    broker's durable state.

    Every file is a byte buffer split into a {e durable} prefix (what a
    real disk would still hold after power loss) and a volatile suffix
    (written but not yet fsynced).  [crash] models power loss: each file
    reverts to its durable prefix plus a torn half of the unsynced
    suffix, exactly the failure the write-ahead journal must survive.

    A seeded fault plan injects the storage failures that real disks
    exhibit and POSIX lets applications ignore: short writes, [EIO],
    [ENOSPC] (a byte-capacity budget), and lying fsyncs that report
    success without making anything durable.  Deterministic corruption
    primitives ([corrupt], [bitrot]) model at-rest bit rot for
    scrub/recovery testing.  All operations are total: errors are
    returned as values, never raised. *)

type t
(** A mutable in-memory filesystem. *)

type error = Eio | Enospc

val error_label : error -> string
(** ["eio"] / ["enospc"], for metrics labels and messages. *)

type faults = {
  short_write_p : float;  (** probability an append persists only a prefix *)
  write_eio_p : float;    (** probability a write fails outright with [Eio] *)
  fsync_eio_p : float;    (** probability an fsync fails with [Eio] *)
  fsync_lie_p : float;    (** probability an fsync returns [Ok] but durably syncs nothing *)
  capacity : int option;  (** total byte budget across all files; exceeding it is [Enospc] *)
}

val no_faults : faults
(** All probabilities zero, unlimited capacity. *)

val create : ?seed:int -> ?faults:faults -> unit -> t
(** A fresh empty filesystem.  [seed] (default 0) drives every
    probabilistic fault draw and [bitrot], so runs are reproducible. *)

val faults : t -> faults

(* ------------------------------------------------------------------ *)
(* Write path *)

val append : t -> name:string -> string -> (unit, error) result
(** Append bytes to [name], creating it if absent.  The new bytes are
    volatile until [fsync].  Subject to the fault plan: [Eio] writes
    nothing, [Enospc] writes nothing, a short write silently persists
    only a prefix (and returns [Ok ()] — the caller cannot tell). *)

val append_bytes : t -> name:string -> Bytes.t -> len:int -> (unit, error) result
(** {!append} of the first [len] bytes of a buffer, with the same fault
    draws as appending a string of that length. *)

val write : t -> name:string -> string -> (unit, error) result
(** Replace [name]'s contents entirely.  Modelled as truncate-then-
    append: after [write] the whole file is volatile, so a crash before
    [fsync] can lose both old and new contents — which is why
    checkpoints go through a shadow file and [rename]. *)

val fsync : t -> name:string -> (unit, error) result
(** Make [name]'s current contents durable.  Subject to [fsync_eio_p]
    (explicit failure) and [fsync_lie_p] ([Ok] without durability). *)

val rename : t -> src:string -> dst:string -> (unit, error) result
(** Atomically move [src] over [dst] (replacing it), preserving the
    durable split.  [Eio] if [src] does not exist. *)

val remove : t -> name:string -> unit

(* ------------------------------------------------------------------ *)
(* Read path *)

val read : t -> name:string -> (string, error) result
(** Current full contents (durable + volatile) — the live process view.
    After [crash], volatile bytes are gone so this is the disk truth. *)

val view : t -> name:string -> (Bytes.t * int) option
(** The file's backing buffer and its length, without a copy: its first
    [len] bytes are {!read}'s contents.  Valid until the next write to
    the file, which may replace the buffer; it must not be mutated.
    [None] when absent. *)

val exists : t -> name:string -> bool
val size : t -> name:string -> int
(** [0] when absent. *)

val list : t -> string list
(** All file names, sorted. *)

val total_bytes : t -> int

(* ------------------------------------------------------------------ *)
(* Fault machinery *)

val crash : t -> unit
(** Power loss: every file reverts to its durable prefix plus a torn
    half of whatever was volatile (modelling a partially-persisted tail
    of in-flight sectors).  Everything remaining becomes durable. *)

val corrupt : t -> name:string -> at:int -> bit:int -> bool
(** Flip bit [bit land 7] of byte [at] in [name].  At-rest rot, so the
    durable split is untouched.  [false] if the file is absent or [at]
    out of range. *)

val bitrot : t -> name:string -> int option
(** Flip one seeded-random bit somewhere in [name]; returns the byte
    offset hit, or [None] for a missing/empty file. *)

val injected : t -> (string * int) list
(** Count of injected faults by label ("short_write", "eio", "enospc",
    "fsync_eio", "fsync_lie", "bitrot"), for reporting. *)

(* ------------------------------------------------------------------ *)
(* Handles *)

type handle
(** A file name resolved once, for a writer that appends to the same
    file record after record: operations through it skip the name
    lookup.  It resolves the name again after anything that may have
    made it name another file, or none ({!rename}, {!remove}, {!crash},
    a file created), so it always acts on the file its name names now;
    fault draws are those of the name-based operations, which go through
    a handle of their own.  A handle acts on the filesystem it was made
    on: a {!copy} has files of its own. *)

val handle : t -> name:string -> handle

val handle_exists : handle -> bool
(** {!exists} of the handle's name. *)

val handle_append : handle -> Bytes.t -> len:int -> (unit, error) result
(** {!append_bytes} to the handle's name. *)

val handle_fsync : handle -> (unit, error) result
(** {!fsync} of the handle's name. *)

(* ------------------------------------------------------------------ *)
(* Cloning and real-directory round trips *)

val copy : t -> t
(** Deep, independent clone (same fault plan; the PRNG stream continues
    from the same state in both).  Used by the corruption matrix to
    mutate one byte per trial against a pristine fixture. *)

val export : t -> (string * string) list
(** [(name, contents)] for every file, sorted by name — for writing a
    store out to a real directory. *)

val import : (string * string) list -> t
(** Rebuild a filesystem from [export] output; everything durable. *)
