(** Warm-standby broker failover.

    The replication scheme the paper's footnote 2 gestures at: because
    every piece of QoS state lives in the broker's MIBs, a standby can
    take over after a crash from durable state alone, without involving
    any core router.  All of that state goes through one {!Storage}: the
    attached {!Journal}'s own store, or a private one on a fault-free
    in-memory {!Bbr_util.Vfs} when there is no journal.  Checkpoints are
    written there as verified dual-generation {!Snapshot}s, journal
    records are written through as they are appended, and promotion
    ({!recover_from}) reads nothing else.

    Recovery semantics without a journal: flows admitted after the last
    checkpoint are lost on promotion (their eventual DRQs are harmless
    no-ops thanks to idempotent teardown); everything checkpointed is
    restored exactly, under its original flow id and on its original
    links.  With a journal, promotion also replays the intact record
    suffix past the checkpoint, so nothing durably journaled is lost: the
    recovered broker is decision-equivalent to the crashed one (equal
    {!Audit.mib_digest}) up to what {!Storage.crash} tore away.  In-flight
    requests are not the manager's problem — a reliable {!Cops} channel
    retransmits them to the promoted broker once {!Cops.set_broker}
    repoints it. *)

type t

type storage_recovery = {
  sr_gen : int option;  (** checkpoint generation restored; [None] = from empty *)
  sr_cover : int;  (** replay started at this journal sequence number *)
  sr_fallback : bool;
      (** a newer generation existed but failed verification, or the
          chosen candidate was not the first tried *)
  sr_truncated : string option;  (** why the record suffix stopped early *)
  sr_quarantined : int;  (** sealed segments quarantined during recovery *)
  sr_replayed : int;
}
(** What a promotion actually recovered — the data-loss
    report callers surface (exit codes, scenario outcomes). *)

val recovery_loss : storage_recovery -> bool
(** True when the recovery was degraded in any visible way: generation
    fallback, truncated suffix, or quarantined segments. *)

val create :
  make_standby:(unit -> Broker.t) ->
  ?time:Broker.time_hooks ->
  ?journal:Journal.t ->
  Broker.t ->
  t
(** [make_standby ()] must build a fresh broker over the same topology
    and classes as the primary (it is called at promotion time, so the
    standby starts empty).  [time] defaults to {!Broker.immediate_time} —
    fine for manual {!checkpoint} calls, but see the warning on
    {!start_checkpoints}.  [journal], when given, is attached to the
    primary immediately (every mutation from here on is journaled), and
    its store ({!Journal.storage}) becomes the failover's {!storage}:
    {!checkpoint} writes there and then compacts the journal, and
    {!promote} recovers from there and re-attaches the journal. *)

val active : t -> Broker.t
(** The broker currently holding the PDP role: the primary until a
    promotion, the latest standby afterwards. *)

val is_up : t -> bool

val checkpoint : t -> unit
(** Snapshot the active broker now and write it through
    {!Storage.checkpoint} (shadow file, fsync, read-back verification,
    atomic rename over the older generation), covering every journal
    record appended so far; then compact the attached journal.  When the
    write fails the journal is not compacted — its records are the only
    durable copy of the uncovered tail.  Ignored while crashed. *)

val start_checkpoints : t -> every:float -> unit
(** Checkpoint on a periodic timer.  Requires real (engine-driven) time
    hooks: under {!Broker.immediate_time} the timer fires recursively on
    the spot and never returns.  The timer keeps rescheduling until
    {!stop}; when driving an {!Bbr_netsim.Engine}, bound the run with
    [~until].  Idempotent: a second call does not start a second timer.
    Raises [Invalid_argument] when [every <= 0]. *)

val stop : t -> unit
(** Stop the periodic checkpoint timer (it unschedules at its next
    firing). *)

val crash : t -> unit
(** The active broker fails: checkpoints stop until promotion.  Pair with
    {!Cops.set_pdp_up} to make the signaling channel see the outage, and
    with {!Storage.crash} on {!storage} to lose what was never fsynced. *)

val promote : t -> (int, string) result
(** Build a standby with [make_standby] and recover it from {!storage}
    alone through {!recover_from}: the newest verifiable checkpoint plus
    the longest intact journal suffix, degrading across generations
    rather than failing.  On [Ok n] ([n] = reservations restored +
    journal records applied) the standby is the new {!active} and is up,
    a fresh checkpoint of it is taken, and the journal — compacted and
    re-attached — resumes on the standby; repoint signaling with
    {!Cops.set_broker}.  [Error] when there is neither a journal nor a
    checkpoint to promote from; the previous active broker is then left
    in place (still down), untouched. *)

val journal : t -> Journal.t option
(** The write-ahead journal attached at {!create}, if any. *)

val replay_warning : t -> string option
(** The tail-truncation warning of the last promotion's journal replay —
    [Some _] when a torn or corrupt record cut the replay short (records
    past the cut are lost, as after a real crash). *)

val last_recovery : t -> storage_recovery option
(** The data-loss report of the last promotion; [None] before any. *)

val recover_from :
  make:(unit -> Broker.t) ->
  Storage.t ->
  (Broker.t * int * storage_recovery, string) result
(** Cold recovery, the read-only core of {!promote}: build a
    broker with [make], restore the newest verifiable checkpoint
    generation, replay the longest intact record suffix; degrade across
    generations (and ultimately to an intact chain from sequence 0, or
    the empty state with loss reported) rather than fail.  Returns the
    recovered broker, the count of reservations restored from the
    checkpoint, and the degradation report.  Mutates nothing but the
    store's quarantine renames; never raises. *)

val storage : t -> Storage.t
(** The store checkpoints and journal records are written to. *)

val snapshot_age : t -> float option
(** Time since the last checkpoint — the window of admissions a crash
    right now would lose without a journal.  [None] before the first
    checkpoint. *)

val checkpoints : t -> int
(** Checkpoints taken so far. *)

val generation : t -> int
(** Promotions so far: 0 while the original primary serves. *)
