(** The lossy control channel, shared by both signalling legs of the
    architecture: COPS between edge routers and the broker ({!Cops}) and
    broker-to-broker SLA signalling across domains
    ({!Bbr_interdomain.Federation}).

    Both legs deliver at least once over a faulty channel: each sender
    re-sends on a capped exponential-backoff timer until its peer
    answers, and each receiver suppresses duplicates in its own
    protocol state.  This module holds what the two legs share — the
    fault model, the per-copy send and the retry schedule.  Duplicate
    suppression stays with each protocol. *)

(** Per-copy fault processes (see {!Bbr_netsim.Fault.drop} for a seeded
    Bernoulli source). *)
type faults = {
  drop : unit -> bool;  (** lose this copy *)
  duplicate : unit -> bool;  (** put a second copy on the wire *)
  extra_delay : unit -> float;  (** added to the latency, seconds *)
}

val no_faults : faults
(** A perfect channel.  Its processes draw nothing. *)

(** What happened to a message, reported to the sender's counters. *)
type event =
  | Sent  (** a copy went on the wire, whether or not it arrives *)
  | Dropped  (** that copy was lost *)
  | Duplicated  (** the message gets a second copy (itself [Sent]) *)

val send :
  faults ->
  after:(float -> (unit -> unit) -> unit) ->
  latency:float ->
  ?reachable:(unit -> bool) ->
  note:(event -> unit) ->
  (unit -> unit) ->
  unit
(** [send faults ~after ~latency ~note k] puts one message on the wire.
    Each copy draws [drop]; a surviving copy draws [extra_delay] and
    runs [k] after [latency +. extra_delay] through [after] (e.g.
    [Engine.schedule_after]).  Then [duplicate] is drawn once; a
    duplicated message sends a second copy, which draws its own drop and
    delay.  [reachable] (default always) is checked when a copy is sent
    and again when it lands: a partition loses copies in flight too.  A
    copy that fails the check at send counts as [Dropped]; one that
    fails it on landing is lost silently.  The draws happen in this
    order on every call, so a seeded run replays exactly. *)

(** {1 Retry schedule} *)

val first_timeout : float
(** 0.05 s: the first retransmission timeout of a request. *)

val next_timeout : float -> float
(** The timeout after one more unanswered try: doubled, capped at 1 s.
    From {!first_timeout}: 0.05, 0.1, 0.2, 0.4, 0.8, 1, 1, … *)

val jittered : (unit -> float) option -> float -> float
(** [jittered jitter d] is [d *. (1. +. j ())], drawing [j] once, for a
    source returning values in [\[0, 1)] (see {!Bbr_util.Prng.float});
    [d] exactly without one.  Jitter breaks up the synchronized re-sends
    of a sender population that lost its peer at the same instant. *)
