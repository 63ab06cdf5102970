(** Inter-domain guaranteed services across a federation of
    broker-managed domains, with failure-isolated per-segment
    reservations.

    The paper confines itself to one domain and names inter-domain QoS
    reservation and service-level agreements as the open problem
    (Sections 1 and 6).  This module implements the composition as a
    {e failure-isolated reservation protocol} (in the spirit of
    Hummingbird's decoupled per-segment reservations):

    - every domain runs its own bandwidth broker;
    - adjacent domains are connected by {e peering links}, each governed
      by an {e SLA} that commits an aggregate bandwidth between the two
      domains (and contributes a fixed delay);
    - an end-to-end request is routed over the {e domain graph}, the
      end-to-end delay budget is solved once by the coordinator — each
      transit domain's conditioner acts as one extra rate-based hop, so
      the closed form of Section 3.1 extends across domains — and the
      resulting rate is then reserved {e segment by segment}: one
      independent booking per domain, composed end-to-end by an explicit
      coordinator transaction.

    {2 The transaction state machine}

    Each request becomes a coordinator transaction driving one segment
    per domain through

    {v PREPARE --> BOOKED --> COMMITTED
                   |             |
                   v             v (commit refused: segment expired)
              COMPENSATED <------+ v}

    - {b PREPARE}: the coordinator sends each domain a booking for its
      segment at the solved rate.  Prepares are retransmitted on the
      capped, jittered exponential-backoff schedule COPS also uses
      ({!Bbr_broker.Exchange}); a domain books idempotently — a duplicate PREPARE for
      a transaction it already holds re-acknowledges the same flow.
    - {b BOOKED}: every segment acknowledged.  The coordinator re-checks
      the SLAs (concurrent transactions race for them), applies the
      usage, journals the commit and notifies each domain, which
      promotes the booking from {e prepared} to {e committed}.
    - {b COMPENSATED}: any refusal, or a domain that never acknowledges
      within the retry budget ({!Bbr_broker.Types.Peer_unreachable}),
      fails the transaction.  Booked segments are not "rolled back" in
      band: each is handed a {e compensating teardown} that is retried
      idempotently until the domain confirms it — a crashed or
      partitioned domain delays only its own compensation, never the
      committed segments of other flows.

    Failure isolation, concretely: one domain's crash mid-prepare costs
    exactly that transaction (compensated once retries are exhausted)
    plus one orphaned prepared booking in the crashed domain, which its
    broker releases when the booking's hold expires.  Nothing any other
    flow committed is touched.

    {2 Crash-recoverable coordinator}

    Coordinator state — in-flight transactions, segment outcomes, the
    compensation queue — is journaled through the PR 3 write-ahead
    machinery ({!Bbr_broker.Wal}): [begin]/[booked] before the decision,
    [commit]/[abort] at it, per-domain [cack]/[rack] as commit
    notifications and compensations drain, [closed] when a transaction
    has no obligations left.  {!crash_coordinator} models a coordinator
    crash (state wiped, the journal's store crashed with
    {!Bbr_broker.Storage.crash}, so it keeps its last fsync boundary
    plus a torn half of the unsynced suffix); {!recover_coordinator} replays the journal:
    committed transactions come back with their SLA usage, undecided
    ones are resolved to compensation, and every unacknowledged
    obligation is re-queued.  With [fsync_every = 1] the recovered
    {!decision_digest} equals the dying coordinator's exactly.

    Restricted to domains whose transit paths are rate-based (the same
    restriction as {!Bbr_broker.Edge_broker}, and for the same reason:
    delay-based budget splitting needs per-domain schedulability
    negotiation, a further research problem). *)

type t

(** Protocol timing and durability parameters.  Every retransmission
    follows the {!Bbr_broker.Exchange} retry schedule: PREPAREs start at
    {!Bbr_broker.Exchange.first_timeout} (50 ms), obligations at 100 ms,
    and each timeout doubles per retry up to 1 s
    ({!Bbr_broker.Exchange.next_timeout}). *)
type config = {
  latency : float;  (** one-way coordinator↔domain message delay, seconds *)
  prepare_retries : int;
      (** PREPARE rounds before the transaction gives up on a silent
          domain and compensates.  Commit notifications, compensations
          and teardowns retry {e without bound} (idempotently) until the
          domain confirms. *)
  prepare_ttl : float;
      (** a prepared booking is a {!Bbr_broker.Broker.hold} that expires
          this long after its last PREPARE: a COMMIT arriving later is
          refused (the coordinator then compensates) *)
  jitter : (unit -> float) option;
      (** sampled per timer, must return a value in [\[0, 1)]; every
          retransmission delay [d] becomes [d * (1 + jitter ())]
          ({!Bbr_broker.Exchange.jittered}; see {!Bbr_util.Prng.float}).
          [None] = exact timers. *)
  fsync_every : int;  (** coordinator journal durability boundary *)
}

val default_config : config
(** 5 ms latency, 5 prepare rounds, 30 s prepare TTL, no jitter, fsync
    every record. *)

val create : ?time:Bbr_broker.Broker.time_hooks -> ?config:config -> unit -> t
(** A fresh coordinator.  [time] (default
    {!Bbr_broker.Broker.immediate_time}) supplies the clock and timers;
    bind it to a discrete-event engine to run the asynchronous protocol
    with real timeouts.  Under [immediate_time] messages deliver
    synchronously and timers never fire — loss-free {!request}s resolve
    before returning, which is the mode the simple examples use. *)

val set_faults : t -> Bbr_broker.Exchange.faults -> unit
(** Install the message-channel fault processes, sampled per message
    copy in both directions ({!Bbr_broker.Exchange.send});
    {!Bbr_broker.Exchange.no_faults} heals the channel. *)

val add_domain : t -> name:string -> Bbr_vtrs.Topology.t -> Bbr_broker.Broker.t
(** Register a domain and its broker (created internally, on the
    federation's clock).  Domain names must contain no spaces or commas
    (they appear in journal records).  Raises [Invalid_argument] on
    duplicate names. *)

val broker : t -> domain:string -> Bbr_broker.Broker.t option

val broker_exn : t -> domain:string -> Bbr_broker.Broker.t
(** Raises [Not_found]. *)

val add_peering :
  t ->
  from_domain:string ->
  from_egress:string ->
  to_domain:string ->
  to_ingress:string ->
  committed_rate:float ->
  ?delay:float ->
  unit ->
  unit
(** Declare a (directed) peering with its SLA: at most [committed_rate]
    bits/s of guaranteed traffic may cross it; [delay] (default 0.01 s) is
    the peering link's contribution to end-to-end bounds.  Raises
    [Invalid_argument] on unknown domains or a duplicate peering. *)

(** {1 Fault injection} *)

val set_domain_up : t -> domain:string -> bool -> unit
(** Crash / recover a domain's broker agent.  While down it consumes
    incoming messages without reacting (its reservation state survives —
    per-domain brokers are assumed to run their own crash-consistency
    machinery).  Raises [Not_found] for an unknown domain. *)

val set_reachable : t -> domain:string -> bool -> unit
(** Partition / heal the path between the coordinator and a domain:
    while unreachable, messages in either direction are silently lost.
    Raises [Not_found] for an unknown domain. *)

(** {1 Requests} *)

(** Where a federation-wide flow enters and leaves. *)
type endpoints = {
  src_domain : string;
  src_ingress : string;  (** ingress router inside the source domain *)
  dst_domain : string;
  dst_egress : string;  (** egress router inside the destination domain *)
}

type reservation = {
  flow : int;  (** federation-wide flow id (= the transaction id) *)
  rate : float;
  domains : string list;  (** the domain-level path *)
  bound : float;  (** end-to-end delay bound achieved *)
}

val request_async :
  t ->
  endpoints ->
  profile:Bbr_vtrs.Traffic.t ->
  dreq:float ->
  on_decision:((reservation, Bbr_broker.Types.reject_reason) result -> unit) ->
  int
(** Start an end-to-end reservation transaction; returns its id.
    [on_decision] fires exactly once, when the transaction commits or is
    resolved to rejection/compensation — possibly within this call
    (loss-free immediate time), possibly seconds of simulated time later
    (retries, compensation).  A compensated transaction reports the
    refusing domain's reason, or [Peer_unreachable] when a domain never
    answered. *)

val request :
  t ->
  endpoints ->
  profile:Bbr_vtrs.Traffic.t ->
  dreq:float ->
  (reservation, Bbr_broker.Types.reject_reason) result
(** Synchronous convenience over {!request_async} for federations on
    {!Bbr_broker.Broker.immediate_time} with a loss-free channel, where
    the decision is available before the call returns.  Raises
    [Invalid_argument] if the transaction does not resolve synchronously
    (engine-driven or faulty federations must use {!request_async}). *)

val teardown : t -> int -> unit
(** Release a federation reservation: the SLA usage is returned at once
    and each domain is handed an idempotent segment teardown, retried
    until confirmed.  Idempotent — unknown or already-torn flows are
    no-ops, so retransmitted teardowns are harmless. *)

(** {1 Introspection} *)

val sla_usage_exn : t -> from_domain:string -> to_domain:string -> float * float
(** Raises [Not_found]. *)

val flow_count : t -> int
(** Live (committed, not torn down) federation flows. *)

val in_flight : t -> int
(** Transactions still preparing (no commit/compensate decision yet). *)

val obligations_pending : t -> int
(** Unconfirmed obligations — commit notifications, compensating
    teardowns and flow teardowns still awaiting a domain's
    acknowledgement.  Drains to 0 once every domain is up and reachable. *)

val pump : t -> unit
(** Re-send every pending obligation now and re-arm the retry timer.
    The coordinator retries automatically under an engine-driven clock;
    under [immediate_time] (where timers cannot advance) call this
    manually after healing faults. *)

(** Counters since creation (also exported as [bb_fed_*] metrics when a
    registry is installed). *)
type stats = {
  committed : int;
  compensated : int;  (** transactions that booked then failed *)
  rejected : int;  (** refused before any segment was booked *)
  torn_down : int;
  prepares : int;  (** PREPARE copies sent, retransmissions included *)
  retries : int;  (** retransmitted PREPAREs and obligation re-sends *)
  compensations : int;  (** compensating teardowns enqueued *)
  commit_nacks : int;
      (** commit notifications a domain refused because the prepared
          booking had already expired — each compensates its whole flow *)
  reaped : int;  (** prepared bookings released when their hold expired *)
  messages : int;  (** inter-domain message copies sent *)
  dropped : int;
  duplicated : int;
}

val stats : t -> stats

(** {1 Audit, recovery} *)

type report = {
  domain_audits : (string * Bbr_broker.Audit.report) list;
      (** per-domain MIB audits *)
  violations : Bbr_broker.Audit.violation list;
      (** cross-domain findings: {!Bbr_broker.Audit.Sla_mismatch},
          {!Bbr_broker.Audit.Stranded_segment} *)
  checked_flows : int;
  checked_segments : int;
  checked_segments_rate : float;
      (** Σ over live flows of rate × segment count — the broker-side
          bandwidth the federation accounts for (the stranded-bandwidth
          baseline) *)
  checked_peerings : int;
  prepared_segments : int;  (** in-flight prepared bookings seen *)
}

val audit : ?eps:float -> ?exclusive:bool -> t -> report
(** Cross-domain invariant audit: every SLA byte is backed by a live
    committed flow crossing the peering; every committed flow's every
    segment is live in its domain's broker at the committed rate;
    and — with [exclusive] (default [true], i.e. the federation owns all
    reservations in its domains) — every broker reservation is accounted
    for by a committed segment, a prepared booking or an in-flight
    teardown.  Each domain's own MIB audit rides along (an expired
    prepared booking shows there).  Findings count
    on [bb_audit_violations_total{kind}]. *)

val audit_ok : report -> bool
(** No federation-level violations and every domain audit clean. *)

val decision_digest : t -> string
(** Hex digest over the journal-backed transaction decisions
    (id, committed | compensated): the oracle for coordinator
    crash-recovery equivalence.  Upfront rejections book nothing and are
    excluded. *)

type recovery = {
  replayed : int;  (** journal records applied *)
  replay_warning : string option;  (** torn/corrupt-tail warning *)
  recovered_flows : int;  (** committed flows rebuilt *)
  recovery_aborts : int;
      (** transactions found undecided and resolved to compensation *)
  requeued : int;  (** unacknowledged obligations re-queued *)
  replayed_digest : string;
      (** {!decision_digest} of the journal-backed decisions alone,
          before the recovery aborts — compare with the dying
          coordinator's digest *)
}

val crash_coordinator : t -> int
(** Model a coordinator crash: every in-flight transaction, flow record,
    SLA usage figure and queued obligation is lost; the journal's store
    crashes ({!Bbr_broker.Storage.crash}).  Returns the number of
    journal records lost: those appended minus those still intact in the
    store.
    Undelivered [on_decision] callbacks are dropped (the requesting
    edge's own COPS timeout covers that).  Domain brokers are untouched. *)

val recover_coordinator : t -> recovery
(** Replay the surviving journal into the crashed coordinator:
    committed transactions return with their SLA usage and legs,
    undecided ones are resolved to compensation (journaled as such), and
    every unacknowledged obligation is re-queued and re-sent.  The
    records are read where the store holds them ({!Storage.fold_tail});
    a torn or corrupt tail is cut and reported in [replay_warning].  The
    journal is rebuilt on a fresh store from the replayed records and
    keeps appending. *)

val pp_report : report Fmt.t

val pp_stats : stats Fmt.t
