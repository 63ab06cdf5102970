(** Overload control for the broker's admission pipeline.

    The paper's scalability argument rests on admission being an O(1)
    (Section 3.1) or O(M) (Section 3.2) computation against the MIBs — but
    a real control plane also needs an explicit service-capacity model, or
    there is nothing between "fine" and meltdown when the request rate
    exceeds what even cheap decisions can absorb.  This module puts a
    bounded queue and a degradation ladder in front of {!Broker.request}:

    - requests wait in a bounded FIFO and each decision costs a
      (sim-time) service time;
    - work that missed its setup deadline is dropped at dequeue, before
      any service capacity is spent on it;
    - past a fill watermark the queue sheds by {!Policy.priority} class —
      the least important of the queued work and the newcomer goes;
    - a hysteretic {e brownout} controller watches the fill fraction and,
      under sustained load, degrades mixed-path admission from the exact
      O(M) scan to the conservative O(1) rate-only bound
      ({!Admission.conservative}) — trading admission precision for a
      shorter service time — and switches back once the queue stays
      drained;
    - every shed request is answered with
      [Types.Server_busy { retry_after }], which a COPS PEP honors with
      jittered backoff ({!Cops.reliability}) instead of hammering the
      retransmission path.

    Shed requests never reach the broker: no MIB state is touched, no
    journal record is written, so recovery digests are unaffected.  All
    timing comes from the injected {!Broker.time_hooks}; under the seeded
    simulator the whole pipeline is deterministic. *)

type config = {
  queue_limit : int;  (** bounded FIFO capacity (entries) *)
  deadline : float;
      (** per-request setup deadline (seconds of queueing); older work is
          dropped at dequeue *)
  shed_watermark : float;
      (** queue-fill fraction past which priority shedding starts *)
  service_exact : float;  (** service time of an O(M) exact decision *)
  service_conservative : float;
      (** service time of an O(1) conservative decision *)
  brownout_enter : float;  (** fill fraction that arms brownout entry *)
  brownout_exit : float;  (** fill fraction that arms brownout exit *)
  brownout_sustain : float;
      (** seconds the fill must stay past a watermark before the
          controller flips — the hysteresis that stops mode flapping *)
  retry_after : float;  (** back-off hint carried by [Server_busy] *)
  batch_limit : int;
      (** max queued requests drained as one {!Broker.batched} batch
          (single timer, single journal group commit); 1 = decide one at a
          time.  Outcomes are identical either way — batching only
          amortizes overheads. *)
}

val default_config : config
(** 64-deep queue, 0.5 s deadline, shed past 3/4 full, 2 ms exact / 0.5 ms
    conservative service, brownout at 1/2 sustained 0.25 s with exit at
    1/4, retry hint 0.5 s, batch_limit 1. *)

type t

type outcome = (Types.flow_id * Types.reservation, Types.reject_reason) result

type mode = [ `Exact | `Conservative ]

val create :
  ?config:config ->
  ?oracle:(Types.request -> bool) ->
  ?on_serviced:(Types.request -> mode -> outcome -> unit) ->
  time:Broker.time_hooks ->
  Broker.t ->
  t
(** A pipeline in front of [broker].  [oracle], when given, is consulted
    immediately before each real decision (against pre-booking MIB state);
    an admission the oracle would have rejected increments
    [oracle_violations] — the safety property the conservative mode is
    tested against.  [on_serviced] observes every request that reached the
    broker (not the shed ones) with the mode that decided it.  Raises
    [Invalid_argument] on a nonsensical [config]. *)

val submit : t -> Types.request -> (outcome -> unit) -> unit
(** Enqueue one admission request; the callback fires exactly once, either
    with the broker's decision or with
    [Error (Server_busy { retry_after })] if the request was shed
    (queue full, deadline missed, priority eviction, or pipeline
    stopped). *)

val stop : t -> unit
(** Stop accepting work and shed everything still queued (each pending
    callback fires with [Server_busy]).  The decision currently in
    service, if any, still completes.  Subsequent {!submit}s are shed
    immediately — so timers stay bounded and the simulator drains. *)

val quiesce : t -> unit
(** Crash-time freeze: like {!stop}, but the decision currently in
    service does {e not} complete — its batch is shed when its timer
    fires, instead of being decided against a broker that no longer
    exists.  Pair with {!retarget} once a successor is promoted. *)

val retarget : t -> Broker.t -> unit
(** Point the pipeline at a successor broker after a crash + promotion.
    The batch currently in service (whose timer straddles the outage) is
    shed with [Server_busy] instead of being decided against a broker
    whose recovered MIB never saw it; work still queued is re-served
    against the successor.  Also clears a prior {!stop}, so a pipeline
    stopped at crash time resumes accepting work. *)

val brownout : t -> bool
(** The controller is currently in degraded (conservative) mode. *)

val latency_quantile : t -> q:float -> float
(** Quantile of the sim-time submit→decision latency over all decided
    (non-shed) requests; [nan] when none decided yet. *)

(** Cumulative pipeline counters.  [shed_*] partition the shed requests by
    reason; [conservative_decisions] counts decisions taken in brownout
    mode; [oracle_violations] counts admissions the exact oracle would
    have rejected (must stay 0). *)
type stats = {
  submitted : int;
  decided : int;
  admitted : int;
  rejected : int;
  shed_queue_full : int;
  shed_deadline : int;
  shed_priority : int;
  shed_shutdown : int;
  conservative_decisions : int;
  brownout_entries : int;
  brownout_exits : int;
  oracle_violations : int;
  max_depth : int;
}

val stats : t -> stats

val shed_total : stats -> int
