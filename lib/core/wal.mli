(** Generic write-ahead-log machinery: the CRC'd, group-committing
    record writer PR 3 built for the broker journal, factored out so
    other control-plane components (the inter-domain federation
    coordinator, for one) can journal their own record kinds through the
    exact same durability model.

    A log is parameterized by a payload codec; the record framing is
    identical to {!Journal}:

    {v <crc32-hex> <seq> <at> <payload> v}

    [crc32] covers everything after it; [seq] is a monotonic record
    number (a gap means lost records); [at] is the writer's clock in
    lossless [%h] notation; [payload] is whatever [encode_payload]
    wrote (it must not contain newlines).

    {b Writing.}  A record is written in one pass into a byte buffer the
    log owns and reuses ({!Bbr_util.Linebuf}): the 8-character CRC slot,
    the sequence number and clock, then the payload through
    [encode_payload]; the CRC is computed over the buffer in place,
    patched into its slot, and the line, newline included, is handed to
    the sink as a byte range.  No string is built per record.

    {b Durability model.}  The writer holds no records: it encodes each
    one and writes it through its {!sink} (the segmented {!Storage} over
    a {!Bbr_util.Vfs}), calling [sync] every [fsync_every] records, or
    once at the end of the outermost {!group}.  What survives a crash is
    whatever the sink made durable; the writer only keeps the counters
    that say where the boundaries are.  {!parse} tolerates a torn or
    corrupt tail by truncating at the first bad record and warning — it
    never raises.

    {b Reading.}  A record is decoded once, in place, from its line's
    byte range ({!Bbr_util.Linebuf}'s reader), with no splitting and no
    copy of its fields; the CRC is checked once, by {!parse} over a
    text or by the store for the lines {!next_record} reads. *)

type 'a t

type sink = { put : Bytes.t -> int -> unit; sync : unit -> unit }
(** The write-through target for encoded record lines.  [put b n]
    receives each record line as the first [n] bytes of [b], newline
    included, at append time — before the {!on_record} hook fires,
    preserving write-ahead ordering — and [sync] is called at every
    durability boundary ([fsync_every] when no group is open; the end of
    the outermost {!group} otherwise).  [b] is the log's own buffer:
    [put] must copy what it keeps. *)

val create :
  ?fsync_every:int ->
  encode_payload:(Bbr_util.Linebuf.t -> 'a -> unit) ->
  sink ->
  'a t
(** A fresh log writing through [sink]; [encode_payload buf v] appends
    [v]'s payload text to [buf].  [fsync_every] (default 1) is the
    number of records between durability boundaries.  Raises
    [Invalid_argument] when [< 1]. *)

val append : 'a t -> at:float -> 'a -> unit
(** Encode and write one record stamped [at]; fires the {!on_record}
    hook with the new {!appended_total}. *)

val group : 'a t -> (unit -> 'b) -> 'b
(** Group commit: records appended while [f] runs become durable
    together when [f] returns.  Nested groups join the outermost one; an
    aborting [f] drops the records back to the ordinary boundaries. *)

val in_group : 'a t -> bool
(** A group is currently open (callers that count group commits use this
    to tell the outermost {!group} from a nested one). *)

val records : 'a t -> int
(** Records appended since the last {!compact}. *)

val appended_total : 'a t -> int
(** Records ever appended, across compactions — the next record's
    sequence number. *)

val synced_records : 'a t -> int
(** Records since the last {!compact} up to the last durability
    boundary — what a crash right now is guaranteed to keep. *)

val on_record : 'a t -> (int -> unit) -> unit
(** Install a callback fired after every append with {!appended_total}
    (the crash-point-injection hook). *)

val compact : 'a t -> unit
(** Restart the record counters: a newer checkpoint covers everything
    appended so far. *)

val write_line :
  Bbr_util.Linebuf.t ->
  seq:int ->
  at:float ->
  (Bbr_util.Linebuf.t -> 'a -> unit) ->
  'a ->
  unit
(** [write_line buf ~seq ~at encode_payload v] replaces [buf]'s contents
    with one record line (without the newline), exactly as {!append}
    writes it — exposed for {!Journal.encode}. *)

val seq_of_range : Bytes.t -> pos:int -> len:int -> int option
(** The sequence number of the record line held in the [len] bytes of a
    buffer from [pos] (newline excluded), iff the line is complete and
    CRC-clean — how the storage layer checks a segment's lines where they
    sit and reads record identity without knowing the payload codec.
    Never raises. *)

val text_of_lines : header:string -> string list -> string
(** A parseable log text from raw record lines (as the storage layer
    returns them): [header], then each line newline-terminated. *)

val parse :
  header:string ->
  decode_payload:(Bbr_util.Linebuf.reader -> 'a option) ->
  string ->
  ((float * 'a) list * string option, string) result
(** Decode a log text: [header], then one record per line.  Each line
    is checked against its CRC and decoded in place from its byte range:
    its sequence number and clock, then [decode_payload] reads the
    payload, which must fill the rest of the line.  [Error] only for a
    missing/bad header; anything wrong after that — CRC mismatch,
    sequence gap, torn or malformed record — truncates at the first bad
    record and comes back as [Ok (prefix, Some warning)].  Never
    raises. *)

type 'a chain
(** A record chain being read: the next line's record must carry the
    next sequence number. *)

val chain : decode_payload:(Bbr_util.Linebuf.reader -> 'a option) -> 'a chain
(** A chain yet to read its first record, whose number may be any;
    [decode_payload] reads each record's payload. *)

val next_record :
  'a chain -> Bytes.t -> pos:int -> len:int -> (float * 'a, string) result
(** Decode the chain's next record, in place, from the [len] bytes of a
    buffer from [pos]: a line whose CRC the store has already checked
    ({!Storage.fold_tail}'s), so the record is read once and not checked
    again.  [Ok (at, v)], or the warning that cuts the chain there,
    worded as {!parse} words it: a malformed record or a sequence gap.
    Never raises. *)
