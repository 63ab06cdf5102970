(** Segmented durable storage for the broker's journal and checkpoints,
    over the fault-injectable {!Bbr_util.Vfs}.

    {b Layout.}  The journal is a chain of segment files
    [seg-<n>.log]: a header line [bbr-seg v1 <n>], CRC'd record lines
    (the {!Wal} framing), and — once the segment is {e sealed} — a
    footer [seal <count> <crc32>] whose CRC covers the whole record
    region.  The active (highest-numbered) segment has no footer yet;
    every other segment must have a valid one, so at-rest bit rot in a
    sealed segment is always detectable.  Checkpoints alternate between
    two slots [ckpt.a]/[ckpt.b] (dual generation): the first line
    [bbr-ckpt v1 <crc32>] checksums everything after it, including the
    [gen <g> cover <c>] metadata line, so a flipped bit in the cover
    cannot silently shift the replay start.  A checkpoint is written to
    a shadow file, fsynced, read back and verified, then atomically
    renamed over the {e older} slot — the previous generation always
    survives until the new one is proven on disk.

    {b Recovery contract.}  {!tail_from} returns the longest provably
    intact record suffix starting at a checkpoint's cover: it stops at
    the first corrupt record, sequence gap, or bad segment, quarantines
    sealed segments whose bytes changed since sealing, and reports what
    it dropped.  Combined with newest-verifiable-checkpoint selection
    (see {!candidates}), any single corruption yields either an exact
    rebuild or a clean prefix state with the loss reported — never a
    silent wrong state.

    {b Failure policy.}  Write-path disk errors (EIO, ENOSPC, short
    write, lying fsync) are absorbed and counted — the control plane
    must not crash because the disk hiccuped; the damage surfaces at
    recovery time as a shorter reported prefix.  Nothing here raises. *)

module Vfs = Bbr_util.Vfs

type t

val create : ?rotate_every:int -> vfs:Vfs.t -> unit -> t
(** A store rooted at the top of [vfs].  [rotate_every] (default 64) is
    the record count at which the active segment is sealed and rotated;
    checkpoints also force a rotation so pruning works on whole
    segments.  Picks up any segments/checkpoints already present in
    [vfs] (an imported store). *)

val vfs : t -> Vfs.t

val sink : t -> Wal.sink
(** The write-through sink to hand to {!Wal.create}: [put] appends a
    record line (a byte range, newline included) to the active segment
    (rotating as configured), [sync] fsyncs it. *)

val seal_active : t -> unit
(** Seal the active segment (write its CRC footer) and rotate.  A no-op
    when the active segment was never written. *)

val checkpoint : t -> cover:int -> string -> (int, string) result
(** [checkpoint t ~cover body] seals the active segment, then writes
    [body] (a {!Snapshot.save} text) as the next checkpoint generation:
    shadow file, fsync, read-back verification, atomic rename over the
    older slot.  [cover] is the journal's {!Wal.appended_total} at save
    time — replay resumes at that sequence number.  On success, sealed
    segments entirely below every retained generation's cover are
    pruned, and the new generation number is returned.  On verification
    failure both existing generations are left untouched and an [Error]
    is returned (counted in [bb_storage_checkpoint_failures_total]). *)

val candidates : t -> (int * int * string) list
(** Verifiable checkpoints as [(generation, cover, body)], newest
    first.  A slot that fails its CRC is simply absent from this list —
    that is the fallback mechanism. *)

val slots_present : t -> int
(** Checkpoint slot files on disk, verifiable or not.  More slots than
    {!candidates} means a corrupted generation. *)

type tail = {
  lines : string list;     (** intact record lines, oldest first *)
  records : int;
  truncated : string option;  (** why the suffix stopped early, if it did *)
  quarantined : string list;  (** sealed segments renamed to [*.quar] *)
}

val tail_from : t -> cover:int -> tail
(** The longest provably intact record suffix with sequence numbers
    [cover, cover+1, ...].  Corrupt sealed segments encountered are
    quarantined (renamed [*.quar], counted, flight-recorded); a torn
    record in the active segment just truncates.  Never raises.  Each
    segment is checked where it sits (header, footer and every line's
    CRC, with no copy of the file); only the returned lines are
    copied. *)

val fold_tail :
  t -> cover:int -> init:'a -> ('a -> Bytes.t -> pos:int -> len:int -> 'a) -> 'a * tail
(** {!tail_from} without the copies: [f] is handed each line of the
    suffix, in order, as the [len] bytes of a buffer from [pos] — the
    segment's own bytes, valid while [f] runs and the file is not
    written — and the returned [tail] has no [lines].  Recovery decodes
    the records there. *)

type scrub_report = {
  segments_checked : int;
  errors : (string * string) list;  (** (file, kind) per detection *)
  quarantined_files : string list;
  checkpoints_ok : int;
  checkpoints_bad : int;
}

val scrub : t -> scrub_report
(** Full integrity pass: every sealed segment's footer, every record
    CRC and intra-segment sequence chain, both checkpoint generations.
    Sealed segments whose bytes changed since sealing are quarantined.
    Detections are counted in [bb_storage_scrub_errors_total{kind}] and
    sealed-segment corruption triggers the flight recorder. *)

val scrub_clean : scrub_report -> bool

val crash : t -> unit
(** Power loss (see {!Vfs.crash}): unsynced suffixes are torn away. *)

val bitrot_checkpoint : t -> string option
(** Flip one seeded bit in the newest verifiable checkpoint slot — the
    disk-fault scenario's targeted corruption.  Returns the slot name
    hit, or [None] when no checkpoint exists. *)
