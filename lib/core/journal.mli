(** Write-ahead journal of broker state mutations.

    PR 1's warm-standby failover restores the last periodic checkpoint,
    losing every admission since.  The journal closes that gap: every
    {!Broker.mutation} is appended — CRC-32 per record, before the
    decision leaves the broker — so a standby can reconstruct the crashed
    primary exactly as [checkpoint + journal tail].

    {b Format.}  Versioned line-oriented text.  A header line, then one
    record per line:

    {v <crc32-hex> <seq> <at> <payload> v}

    [crc32] covers everything after it; [seq] is a monotonic record
    number (a gap means lost records); [at] is the broker clock;
    [payload] is the mutation, floats in lossless [%h] notation and paths
    named by their link-id sequences (path {e ids} are not portable
    across brokers).

    The text is the one the journal has always written, byte for byte;
    it is written without [Printf], field by field into the log's reused
    record buffer ({!write_payload}, {!Wal}): decimal ints and [%h]
    floats from {!Bbr_util.Linebuf}, the CRC computed in place.

    {b Durability model.}  There is one: the journal holds no records in
    memory.  Every record is encoded at append time and written through
    to a segmented {!Storage} over a {!Bbr_util.Vfs} — the store given
    to {!create}, or a private one on a fresh fault-free in-memory
    [Vfs] — and fsynced every [fsync_every] records or once per
    {!group}.  A crash is {!Storage.crash}: each file keeps its durable
    prefix plus a torn half of its unsynced suffix ({!Bbr_util.Vfs.crash}),
    exactly what a power cut leaves behind.  Recovery reads the store
    ({!Storage.tail_from}, {!Failover.recover_from}); {!parse} and
    {!replay} tolerate a torn or corrupt tail by truncating at the first
    bad record and warning — they never raise.

    {b Compaction.}  A checkpoint makes the journal prefix redundant:
    {!Failover.checkpoint} writes the checkpoint through the same store
    (which prunes the segments it covers) and then calls {!compact}, so
    {!text} always reads exactly the tail since the last checkpoint. *)

type t

val header : string
(** First line of every journal: ["bbr-journal v1"]. *)

(** {1 Writing} *)

val create : ?fsync_every:int -> ?storage:Storage.t -> unit -> t
(** A fresh journal.  [fsync_every] (default 1) is the number of
    records between durability boundaries; 1 means every record survives
    a crash.  Records are written through to [storage] ({!Storage.sink})
    at append time; without [storage] the journal creates its own store
    on a fresh fault-free in-memory {!Bbr_util.Vfs}.  Raises
    [Invalid_argument] when [fsync_every < 1]. *)

val storage : t -> Storage.t
(** The store every record is written through to. *)

val attach : t -> Broker.t -> unit
(** Install the journal as the broker's mutation hook: every subsequent
    mutation is appended, stamped with the broker clock.  Also installs
    the broker's batch hook, so the body of {!Broker.batched} commits as
    one {!group}. *)

val group : t -> (unit -> 'a) -> 'a
(** Group commit: records appended while [f] runs are held back from the
    per-record fsync boundaries and all become durable together when [f]
    returns — one fsync for the whole batch.  {!synced_records} excludes
    them until then.  Nested groups join the outermost one.  If [f]
    raises, the group aborts and the records fall back to the ordinary
    [fsync_every] boundaries. *)

val append : t -> at:float -> Broker.mutation -> unit
(** Append one record (what {!attach} arranges to happen on every
    mutation). *)

val compact : t -> unit
(** Restart {!records} and move the start of {!text} to the next record:
    the state the records so far rebuilt is covered by a newer
    checkpoint. *)

val records : t -> int
(** Records appended since the last {!compact}. *)

val appended_total : t -> int
(** Records ever appended, across compactions — the record-boundary
    count crash-point injection triggers on. *)

val synced_records : t -> int
(** Records up to the last durability boundary — what a crash right now
    is guaranteed to keep: the last [fsync_every] modulo boundary, capped
    at the start of any still-open {!group}, raised by any completed
    group commit. *)

val on_record : t -> (int -> unit) -> unit
(** Install a callback fired after every append with {!appended_total} —
    the hook fault injection uses to kill a broker at an exact record
    boundary. *)

val text : t -> string
(** The journal as a parseable text: the header, then the intact
    records the store holds from the last {!compact} on
    ({!Storage.tail_from}).  After {!Storage.crash} that is the durable
    prefix, cut at the first torn record. *)

val records_on_disk : t -> int
(** How many records {!text} holds: the records since the last
    {!compact} that the store still holds intact.  After
    {!Storage.crash}, {!records} minus this is the count the crash
    lost. *)

(** {1 Reading} *)

val parse : string -> ((float * Broker.mutation) list * string option, string) result
(** Decode a journal.  [Error] only for a missing/bad header; anything
    wrong after that — CRC mismatch, sequence gap, torn or malformed
    record — truncates the journal at the first bad record and comes back
    as [Ok (prefix, Some warning)].  Never raises. *)

type replay_outcome = {
  applied : int;  (** records applied *)
  warning : string option;  (** tail-truncation warning from {!parse} *)
}

val replay : Broker.t -> string -> (replay_outcome, string) result
(** Apply every journaled mutation, in order, to [broker] — normally a
    standby freshly restored from the matching checkpoint.  Per-flow
    admissions re-book under their original flow ids and rates on their
    recorded links, never re-routed; link records change
    only topology state (the recovery cascade is journaled record by
    record).  [Error] when the header is bad or a re-booking fails, in
    which case the broker may be partially updated — replay into a fresh
    broker, as {!Failover.promote} does.  Never raises. *)

val replay_from :
  Broker.t -> Storage.t -> cover:int -> Storage.tail * (replay_outcome, string) result
(** {!replay} of the store's intact record suffix from [cover] (what
    {!Storage.tail_from} returns), without building a text or copying a
    line: the store checks each line's CRC where it sits and hands it
    over ({!Storage.fold_tail}), and the record is decoded there and
    applied ({!Wal.next_record}) — one CRC and one decode a record.  A
    malformed record truncates with a warning, as in {!replay}.  The
    [tail] reports what the store found (its [lines] are empty).  Never
    raises. *)

val encode : seq:int -> at:float -> Broker.mutation -> string
(** One record line (without the newline) — exposed for fuzzing. *)

val write_payload : Bbr_util.Linebuf.t -> Broker.mutation -> unit
(** Append a record's payload to a buffer: the mutation alone, without
    CRC, sequence number or clock.  The journal's one encoder: records,
    {!payload}, {!encode} and a {!Snapshot}'s per-flow lines all go
    through it. *)

val payload : Broker.mutation -> string
(** {!write_payload} as a string — the form in which a {!Snapshot} saves
    a booked per-flow reservation (an [Admit] payload). *)

val decode_payload : Bbr_util.Linebuf.reader -> Broker.mutation option
(** Read a payload {!write_payload} wrote, in place, up to the end of
    its fields — the caller checks that nothing follows, as {!Wal} does
    for a record and {!Snapshot} for an [admit] line; [None] when
    malformed.  Never raises. *)

val text_of_lines : string list -> string
(** A parseable journal text from raw record lines (as {!Storage.tail}
    returns them): the header line plus each line newline-terminated —
    the glue between a recovered storage suffix and {!replay}. *)

val apply : Broker.t -> Broker.mutation -> (unit, string) result
(** Apply one decoded mutation — {!replay}'s step function, exposed so
    recovery oracles can walk a tail record by record and digest every
    intermediate prefix state. *)
