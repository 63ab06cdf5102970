(** End-to-end fault-tolerance scenario: the Figure-10 churn workload
    signaled over a lossy reliable COPS channel, with seeded link failures
    and a broker crash followed by warm-standby promotion.

    Everything is driven by one discrete-event engine and one seed, so a
    given configuration reproduces the exact same run — failures, losses,
    retransmissions and all.  The scenario measures what the paper's
    centralized-state argument predicts: data-plane failures are absorbed
    by rerouting at the broker (flows rerouted vs dropped), and a broker
    crash costs only the admissions since the last checkpoint (flows lost
    vs restored) plus a promotion delay (recovery time). *)

type config = {
  seed : int;
  setting : Fig8.setting;
  arrival_rate : float;  (** flow arrivals per second *)
  mean_holding : float;  (** seconds *)
  duration : float;  (** arrivals offered during [0, duration) *)
  horizon : float;  (** fault injection and measurement stop here *)
  loss : float;  (** COPS per-message loss probability, [0 <= p < 1] *)
  latency : float;  (** one-way PEP-PDP delay, seconds *)
  link_down : (float * (string * string)) list;
      (** [(time, (src, dst))] link failures to inject *)
  link_up : (float * (string * string)) list;  (** repairs *)
  crash_at : float option;  (** broker crash time *)
  promote_after : float;  (** failure-detection + promotion delay, seconds *)
  checkpoint_every : float option;  (** warm-standby checkpoint period *)
  checkpoint_on_decision : bool;
      (** additionally checkpoint after every confirmed admission and
          (one round trip later) every teardown, so the standby's
          snapshot is always fresh and a loss-free crash loses no flow *)
  extra_links : (string * string * float) list;
      (** [(src, dst, capacity)] links added to the Figure-8 topology —
          e.g. a protection detour for the reroute experiment *)
  journal : bool;
      (** write-ahead journal every broker mutation; promotion then
          replays the journal tail on top of the checkpoint, so a crash
          loses only what {!Bbr_broker.Storage.crash} tears from the
          journal's store past its last fsync boundary *)
  journal_fsync_every : int;
      (** journal durability boundary (records per fsync); 1 = every
          record survives a crash *)
  crash_at_record : int option;
      (** crash the broker the instant the [n]-th journal record is
          appended — exact record-boundary crash-point injection (implies
          journaling even when [journal = false]) *)
}

val default_config : config
(** Seed 1, rate-only Figure-8 setting, 0.15 arrivals/s held 200 s over a
    2000 s window, 4000 s horizon, loss-free 5 ms channel, no faults,
    checkpoints every 50 s (period only), 0.5 s promotion delay, no extra
    links, no journal ([fsync_every = 1] when one is enabled). *)

type outcome = {
  offered : int;
  admitted : int;
  rejected : int;
  rerouted : int;  (** reservations moved to a surviving path, summed over failures *)
  dropped : int;  (** reservations released with no feasible alternative *)
  flows_at_crash : int;  (** active per-flow reservations when the broker died *)
  flows_restored : int;  (** reservations the promoted standby rebuilt *)
  flows_lost : int;  (** [max 0 (flows_at_crash - flows_restored)] *)
  recovery_time : float option;  (** crash-to-promoted, seconds *)
  unresolved : int;  (** requests never decided ({!Bbr_broker.Cops.pending} at the end) *)
  messages : int;
  retransmissions : int;
  promote_error : string option;  (** [Some _] when promotion failed *)
  journal_records_at_crash : int;
      (** journal tail length when the broker died (0 when not journaling) *)
  journal_records_lost : int;
      (** records appended since the last checkpoint minus those the
          crashed store still holds intact *)
  digest_at_crash : string option;
      (** {!Bbr_broker.Audit.mib_digest} of the dying primary — the
          recovery oracle; [None] when not journaling *)
  digest_recovered : string option;
      (** digest of the promoted standby; equals [digest_at_crash] iff
          recovery was exact (always, when [journal_fsync_every = 1]) *)
  storage_fallback : bool;
      (** recovery had to skip a corrupt/unverifiable checkpoint
          generation *)
  storage_truncated : string option;
      (** why the replayed record suffix stopped early, if it did *)
  storage_quarantined : int;
      (** sealed segments quarantined during recovery *)
}

val pp_outcome : outcome Fmt.t

val run : config -> outcome
(** Raises [Invalid_argument] when a [link_down]/[link_up] endpoint pair
    names no link, or when a crash is requested ([crash_at] or
    [crash_at_record]) with neither checkpointing nor a journal (an
    unrecoverable configuration). *)
