(** COPS-style signaling between ingress routers and the broker.

    Under the BB architecture the only control messages in the domain run
    between an ingress router (the PEP, in COPS terms) and the broker (the
    PDP): a request, a decision, an installation report, and a delete
    notice — {e per flow}, regardless of path length, with no refresh
    traffic at all.  This module models that channel with an injectable
    transport delay so the message overhead can be measured and compared
    against hop-by-hop soft-state signaling ({!Bbr_intserv.Rsvp}), which
    costs two messages per hop per set-up plus a perpetual refresh stream.

    Message accounting per admitted flow on a perfect channel:
    REQ + DEC + RPT = 3, plus DRQ = 1 on teardown; a rejected flow costs
    REQ + DEC = 2.

    {2 Reliable operation}

    Created with a {!reliability}, the channel tolerates message loss,
    duplication and PDP fail-over: every transaction is retransmitted on
    the capped exponential-backoff schedule of {!Exchange} until
    resolved, the PDP suppresses duplicate
    requests by replaying its recorded decision (so a lost DEC never
    double-books a flow), and DRQs are acknowledged (DRQ + ACK = 2 on a
    loss-free channel).  After {!set_broker} repoints the PEP at a promoted
    standby, in-flight transactions drain to the new PDP through the same
    retransmission path; transactions decided by the dead broker whose DEC
    was lost are decided afresh by the standby (at-least-once semantics
    across a crash). *)

type t

type reliability

val reliability :
  ?jitter:(unit -> float) ->
  ?busy_retries:int ->
  faults:Exchange.faults ->
  unit ->
  reliability
(** [faults] are the channel's per-copy fault processes
    ({!Exchange.send}): a dropped copy is lost, a duplicated message
    lands twice, and every copy waits [latency] plus its extra delay.
    Use [{ Exchange.no_faults with drop }] for a lossy channel that
    neither duplicates nor delays.  Every transaction follows the
    {!Exchange} retry schedule: a first retransmission timeout of
    {!Exchange.first_timeout} (0.05 s), doubled per retry and capped at
    1 s ({!Exchange.next_timeout}).  Retries are unbounded: with any loss
    rate below 1 every transaction eventually resolves.

    [jitter], sampled once per scheduled timer, must return a value in
    [\[0, 1)]; every retransmission and busy-backoff delay [d] becomes
    [d * (1 + jitter ())] ({!Exchange.jittered}; see
    {!Bbr_util.Prng.float} for a seeded source).  Without it timers are
    exact — and the PEP population re-sends in lockstep after a broker
    failover, the synchronized retry storm the jitter exists to break
    up.  Each message's loss draws come before its timer's jitter draw.

    [busy_retries] (default 5) bounds how many consecutive
    [Server_busy] decisions a transaction absorbs by backing off and
    retrying before giving up and delivering the error. *)

type pdp = Types.request -> ((Types.flow_id * Types.reservation, Types.reject_reason) result -> unit) -> unit
(** An asynchronous decision point for per-flow requests: called at the
    broker side with the request and a continuation that must eventually
    be applied to the decision, exactly once.  {!Overload.submit} has this
    shape. *)

val create :
  Broker.t ->
  ?latency:float ->
  ?reliability:reliability ->
  ?pdp:pdp ->
  defer:(float -> (unit -> unit) -> unit) ->
  unit ->
  t
(** [defer delay action] delivers a message: it must run [action] after
    [delay] (e.g. [Engine.schedule_after]).  [latency] is the one-way
    PEP↔PDP delay (default 0.005 s).  Without [reliability] the channel is
    the base model: {!Exchange.no_faults}, no acknowledgements, no
    timers.

    [pdp], when given, replaces the direct [Broker.request] call for
    per-flow REQs — this is how the {!Overload} admission pipeline is
    placed in front of the broker.  While a transaction's decision sits in
    the asynchronous pipeline, duplicate REQ copies are swallowed (counted
    in {!duplicates}) instead of enqueuing the same work twice. *)

val set_broker : t -> Broker.t -> unit
(** Repoint the PEP at a new PDP (a promoted warm standby).  In-flight
    reliable transactions retransmit to it automatically.  When the dead
    broker's requests were fronted by an {!Overload} pipeline, retarget
    that pipeline at the standby ({!Overload.retarget}) as well. *)

val set_pdp_up : t -> bool -> unit
(** Model a broker crash: while down, the PDP consumes incoming messages
    without reacting.  Reliable PEPs keep retransmitting; on the base
    channel the transaction is simply lost. *)

val request :
  t ->
  Types.request ->
  on_decision:((Types.flow_id * Types.reservation, Types.reject_reason) result -> unit) ->
  unit
(** Per-flow service request: REQ travels to the broker, the decision is
    made there (directly, or through the installed {!pdp} pipeline), DEC
    travels back; on an admit the PEP configures its edge conditioner and
    sends the RPT report.  [on_decision] fires exactly once, when the
    transaction resolves.

    On a reliable channel a [Server_busy { retry_after }] decision does
    not resolve the transaction: the PEP silences its retransmission
    timers, waits the jittered [retry_after] (never less than the first
    retransmission timeout, {!Exchange.first_timeout}), and re-submits
    the REQ as a fresh decision — up to [busy_retries] times, after
    which the busy error is delivered.  On the base channel the busy decision is delivered like
    any other rejection. *)

val request_class :
  t ->
  ?class_id:int ->
  Types.request ->
  on_decision:((Types.flow_id * Aggregate.class_def, Types.reject_reason) result -> unit) ->
  unit
(** Class-based variant. *)

val teardown : t -> Types.flow_id -> unit
(** DRQ: the PEP tells the broker the per-flow reservation is gone.
    Acknowledged and retransmitted on a reliable channel. *)

val teardown_class : t -> Types.flow_id -> unit

val messages : t -> int
(** Total signaling messages put on the wire so far, including lost
    copies, retransmissions and acknowledgements. *)

val pending : t -> int
(** Requests in flight (REQ sent, no DEC delivered yet).  On a reliable
    channel with a live (or eventually promoted) PDP this always drains
    to 0. *)

val retransmissions : t -> int
(** REQ/DRQ copies beyond the first per transaction. *)

val duplicates : t -> int
(** Duplicate REQ/DRQ copies the PDP answered from its transaction
    memory instead of re-deciding, or swallowed while the decision was
    still in the asynchronous pipeline. *)

val busy_backoffs : t -> int
(** [Server_busy] decisions honored with a backoff-and-resubmit instead
    of being delivered. *)
