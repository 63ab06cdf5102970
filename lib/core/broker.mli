(** The bandwidth broker: the front end that receives flow service requests
    from ingress routers and runs the full control loop of the paper's
    Figure 1 — policy check, path selection, admissibility test, and
    bookkeeping — entirely outside the core routers.

    Two service models are offered:
    - {!request}: per-flow guaranteed delay service (Section 3); and
    - {!request_class}: class-based guaranteed delay service with dynamic
      flow aggregation (Section 4).

    On admission the broker pushes the resulting edge-conditioner
    configuration to the ingress router through the [on_edge_config] /
    [on_class_rate] callbacks (the COPS leg of Section 2.2). *)

type time_hooks = {
  now : unit -> float;  (** the broker's clock *)
  after : float -> (unit -> unit) -> unit;  (** run an action after a delay *)
}

val immediate_time : time_hooks
(** A clock pinned at 0 whose timers fire immediately — suitable for static
    (non-simulated) use; no {!hold} expires on it. *)

type t

(** Which admission procedure produced a decision. *)
type service = Perflow | Class_based | Fixed

val service_label : service -> string
(** ["perflow"], ["class"], ["fixed"] — the metric label values. *)

(** One admission decision, as delivered to [on_decision] subscribers:
    every call to {!request}, {!request_class} or {!request_fixed} yields
    exactly one record, admitted or rejected. *)
type decision_record = {
  service : service;
  request : Types.request;
  flow : Types.flow_id option;  (** [Some] iff admitted *)
  rate : float;  (** reserved rate; [0.] on rejection or class service *)
  rejected : Types.reject_reason option;
  at : float;  (** broker clock at decision time *)
}

val create :
  ?policy:Policy.t ->
  ?classes:Aggregate.class_def list ->
  ?method_:Aggregate.method_ ->
  ?time:time_hooks ->
  ?fast_path:bool ->
  ?on_edge_config:(flow:Types.flow_id -> Types.reservation -> unit) ->
  ?on_class_rate:(class_id:int -> path_id:int -> total_rate:float -> unit) ->
  ?on_decision:(decision_record -> unit) ->
  Bbr_vtrs.Topology.t ->
  t
(** [method_] defaults to {!Aggregate.Feedback}; [classes] to none;
    [policy] to allow-all; [time] to {!immediate_time}.  [fast_path]
    (default [true]) backs the exact admission test with the cached
    breakpoint tables of {!Admission_cache}; it is digest-neutral —
    decisions and MIB digests are identical either way — so [false] is the
    reference the differential tests compare against, and the uncached
    baseline for benchmarking.  [on_decision] receives every decision
    record, after the broker's own bookkeeping. *)

(** {1 State-mutation hook (write-ahead journaling)}

    Every mutation of the broker's durable state — admissions, teardowns,
    contingency releases, macroflow evacuations, link state changes — is
    announced through a single optional hook, in commit order.  {!Journal} installs itself here to build its
    write-ahead log; {!Journal.replay} applies the same mutations to a
    fresh broker to reconstruct the state.

    [Link_failed] and [Link_restored] are {e physical} records: on replay
    they change only the link state, because the teardown / evacuation /
    re-admission cascade {!fail_link} performs is journaled record by
    record in execution order.  Aggregate rate changes are not mutations:
    the rate is a deterministic function of the admissions, so they reach
    only the [on_class_rate] hook, the [bb_agg_rate_changes_total] counter
    and the [bb.agg.rate_change] trace event.

    When no hook is installed the emission sites cost one load and one
    branch and allocate nothing. *)

(** One booked per-flow reservation, as the journal records it: the
    flow, its request, the booked rate–delay pair and the ids of the
    links it holds, in booking order. *)
type booking = {
  flow : Types.flow_id;
  request : Types.request;
  rate : float;
  delay : float;
  links : int list;
}

type mutation =
  | Admit of booking
      (** a per-flow reservation was booked (via {!request} or
          {!request_fixed}) on the routed path, which replay books
          verbatim (through {!book_path}) without re-routing *)
  | Admit_segment of booking
      (** a shard booked its segment of a multi-shard path (via
          {!book_segment}); replay books the links verbatim without
          re-routing *)
  | Admit_class of { flow : Types.flow_id; class_id : int; request : Types.request }
      (** a microflow joined a class macroflow *)
  | Teardown of Types.flow_id  (** a per-flow reservation was released *)
  | Teardown_class of Types.flow_id  (** a microflow left its macroflow *)
  | Queue_emptied of { class_id : int; links : int list }
      (** edge queue-empty feedback released a macroflow's contingency;
          the path is named by its link-id sequence, which is stable
          across brokers (path ids are not) *)
  | Evacuated of { class_id : int; links : int list }
      (** a whole macroflow was hard-released by {!fail_link} *)
  | Link_failed of int  (** link marked down (physical record) *)
  | Link_restored of int  (** link marked up (physical record) *)

val set_mutation_hook : t -> (mutation -> unit) -> unit
(** Install the (single) mutation hook, replacing any previous one. *)

val clear_mutation_hook : t -> unit

val now : t -> float
(** The broker's clock (from [time]; 0 under {!immediate_time}). *)

(** {1 Per-flow guaranteed service} *)

val request :
  t ->
  ?flow:Types.flow_id ->
  ?admission:[ `Exact | `Conservative ] ->
  Types.request ->
  (Types.flow_id * Types.reservation, Types.reject_reason) result
(** Full admission-control procedure for a new flow.  On success the flow
    is booked in the MIBs and the reservation pushed to the edge.

    [flow] books under a caller-chosen id instead of a fresh one (the id
    space is advanced past it) — used by the sharded broker's router,
    which allocates ids centrally so a sharded run reproduces the
    single-broker id sequence exactly.

    [admission] selects the admissibility test on mixed paths: [`Exact]
    (the default) runs {!Admission.admit}: one exact O(M) evaluation of
    the path's delay intervals ({!Admission.mixed}), which includes the
    candidate's own-deadline term the paper's Figure-4 formulas omit;
    [`Conservative] runs the O(1) rate-only bound
    ({!Admission.conservative}) — the degraded mode the {!Overload}
    brownout controller switches to under sustained load.  Both are
    identical on all-rate-based paths, and both journal as plain [Admit]
    records (the booked pair, not the test, is what replay needs).

    Every per-flow decision ({!request}, {!request_fixed}, and each
    re-admission {!fail_link} makes) runs one pipeline under a
    [bb.request] span: policy, routing, admissibility, bookkeeping, the
    [Admit] journal record, the edge push and the decision log. *)

val teardown : t -> Types.flow_id -> unit
(** Release a per-flow reservation.  Idempotent: an unknown
    (already-released) flow is a no-op, so retransmitted DRQs are
    harmless. *)

val batched : t -> (unit -> 'a) -> 'a
(** Run [f] as one batch: journal records it appends reach a single
    durability boundary together (group commit), and consecutive
    requests inside it see the still-warm admission cache.  Decisions are
    identical to running [f] outside a batch.  With no journal attached
    this is just [f ()].  Reentrant: an inner batch joins the outer one.
    The natural unit for edge-broker lease refills and overload drains. *)

val set_batch_hook : t -> ((unit -> unit) -> unit) -> unit
(** Install the wrapper {!batched} runs its body under — used by
    {!Journal.attach} to implement group commit.  The wrapper must invoke
    its argument exactly once. *)

val request_fixed :
  t ->
  Types.request ->
  rate:float ->
  ?delay:float ->
  unit ->
  (Types.flow_id, Types.reject_reason) result
(** Book a reservation at an externally chosen rate–delay pair, checking
    policy, routing, the profile's rate window, residual bandwidth and (on
    paths with delay-based hops, where [delay] is then mandatory) exact
    schedulability — but {e not} the end-to-end delay budget, which the
    caller owns.  This is the hook the inter-domain coordinator uses: it
    solves the delay budget across domains and books the resulting rate in
    each domain.  Raises [Invalid_argument] when [delay] is missing on a
    mixed path.  Tear down with {!teardown}.  The decision is logged with
    service {!Fixed}. *)

val book_segment : t -> booking -> unit
(** Book an already-decided reservation on an explicit set of links — the
    commit leg of the sharded broker's two-phase multi-shard admission,
    and the replay form of [Admit_segment] journal records, which it
    journals.  No policy, routing or admissibility check runs: the
    coordinator owns the decision.  The links need not form a connected
    path (a path alternating between shards leaves each owner a
    non-contiguous segment); they are booked verbatim, in list order.
    The flow-id space is advanced past the booking's flow.  Neither the
    edge push nor the decision log fires — both stay with the
    coordinator, which sees the whole flow.  Tear down with {!teardown}.
    Raises [Not_found] on an unknown link id. *)

val book_path : t -> booking -> unit
(** Like {!book_segment}, for a whole path: the replay form of [Admit]
    journal records and {!Snapshot} [admit] lines, journaled as [Admit].
    The links are booked verbatim, whatever their state now, but must
    form a connected path from the request's ingress to its egress.
    Raises [Invalid_argument] when they do not, and [Not_found] on an
    unknown link id. *)

(** {1 Class-based guaranteed service} *)

val request_class :
  t ->
  ?class_id:int ->
  ?flow:Types.flow_id ->
  Types.request ->
  (Types.flow_id * Aggregate.class_def, Types.reject_reason) result
(** Admit the flow into a delay service class — [class_id] if given
    (rejected when the class bound exceeds the flow's requirement),
    otherwise the loosest class satisfying the requirement.  [flow] as in
    {!request}. *)

val book_class :
  t ->
  class_id:int ->
  flow:Types.flow_id ->
  Types.request ->
  (unit, Types.reject_reason) result
(** The replay form of [Admit_class] journal records, journaled as
    [Admit_class]: route the request, look the pinned class up (refused
    as {!request_class} refuses it) and join its macroflow under the
    recorded flow id, advancing the id space past it.  No policy check,
    stage timer or decision log runs: the primary decided. *)

val teardown_class : t -> Types.flow_id -> unit
(** Idempotent, like {!teardown}. *)

val queue_empty : t -> class_id:int -> path_id:int -> unit
(** Forwarded edge-conditioner feedback (see {!Aggregate.queue_empty}). *)

(** {1 Expiring holds}

    One table holds every time-bounded reservation: a lease's grant
    pseudo-flows, a federation domain's prepared segments and, under
    {!Aggregate.Bounding}, each contingency grant until its period bound
    of eq. (17).  The broker arms one timer, for the earliest expiry;
    when it fires, every due hold is released by expiry, then id: a held
    flow is torn down, a held grant released.  A teardown of a held flow
    drops its hold; a flow {!fail_link} re-admits keeps it.  Holds are
    not journaled: a replayed broker has none. *)

type pin = Flow of Types.flow_id | Grant of { class_id : int; path_id : int; grant : int }

type hold = private { id : int; owner : string; mutable expires : float; pin : pin }
(** [owner] names the holder, e.g. ["I1->E1"]; [expires] is broker time. *)

val hold : t -> owner:string -> expires:float -> Types.flow_id -> int
(** Hold a booked flow until [expires]; returns the hold id.  Raises
    [Invalid_argument] when the flow is not booked or is held already. *)

val renew : t -> int -> expires:float -> unit
(** Move a hold's expiry; a no-op on a hold that is gone. *)

val convert : t -> int -> unit
(** Keep the booking and drop the hold; a no-op on a hold that is gone. *)

val holds : t -> hold list
(** The live holds, ascending id. *)

val pinned : t -> hold -> float
(** The bandwidth a hold keeps booked, 0 once its flow or grant is gone. *)

val expire : t -> unit
(** Release every hold past its expiry now, as the timer does. *)

val set_expiry_hook : t -> (hold -> unit) -> unit
(** The (single) hook told of each hold released at its expiry. *)

val after : t -> float -> (unit -> unit) -> unit
(** Run an action after a delay on the broker's timer service. *)

(** {1 Link failure handling}

    The paper's reliability argument (Section 2, footnote 2): all QoS
    state lives at the broker, so recovering from a data-plane failure is
    a pure control-plane operation — no core router is involved. *)

type link_recovery = {
  link_id : int;
  perflow_rerouted : Types.flow_id list;
      (** per-flow reservations re-admitted on a surviving path, keeping
          their flow ids *)
  perflow_dropped : Types.flow_id list;
      (** per-flow reservations released with no feasible alternative *)
  class_rerouted : Types.flow_id list;  (** class members re-joined elsewhere *)
  class_dropped : Types.flow_id list;
}

val fail_link : t -> link_id:int -> link_recovery
(** Restore-or-preempt recovery for a link failure: mark the link down,
    release every per-flow reservation and macroflow riding it (found
    through the path MIB), and attempt re-admission of each victim over
    the surviving topology — full admission control on the new path, in
    ascending flow-id order, per-flow reservations first.  Policy is not
    re-checked (the flow was already authorized); the end-to-end delay
    requirement is.  Victims that no longer fit anywhere are dropped — the
    broker has no reservation for them afterwards, and their eventual
    DRQs are no-ops.  Raises [Invalid_argument] for an unknown link id;
    calling it again for an already-down link finds no victims and is
    harmless. *)

val restore_link : t -> link_id:int -> unit
(** Mark a failed link up again.  Routing resumes using it for new
    selections; existing reservations are not rebalanced. *)

val set_link_admin : t -> link_id:int -> up:bool -> unit
(** The physical half of {!fail_link} / {!restore_link}: journal the
    [Link_failed] / [Link_restored] record and flip the topology state —
    {e without} running any recovery cascade.  The sharded broker's router calls this on every shard so the
    teardown/re-admission cascade, which spans shards, runs once,
    centrally.  Raises [Invalid_argument] for an unknown link id. *)

val recovered_count : link_recovery -> int

val dropped_count : link_recovery -> int

(** {1 Introspection} *)

val topology : t -> Bbr_vtrs.Topology.t

val policy : t -> Policy.t
(** The broker's policy information base — exposed so the {!Overload}
    pipeline can shed by {!Policy.priority} class. *)

val node_mib : t -> Node_mib.t

val path_mib : t -> Path_mib.t

val flow_mib : t -> Flow_mib.t

val routing : t -> Routing.t

val aggregate : t -> Aggregate.t

val route_of : t -> Types.request -> Path_mib.info option
(** The path the broker would select for this request. *)

val fast_path_stats : t -> Admission_cache.stats option
(** Cache effectiveness counters; [None] when created with
    [~fast_path:false]. *)

val per_flow_count : t -> int

val class_flow_count : t -> int
