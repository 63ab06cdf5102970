(** Two-tier (hierarchical) bandwidth brokering.

    The paper's conclusion names a distributed/hierarchical broker
    architecture as the way to scale the control plane beyond one central
    BB.  This module implements the quota-delegation design point: an
    {e edge broker} sits next to an ingress router, holds a bandwidth
    {e quota} on one ingress→egress path that it acquired from the central
    broker in chunks, and performs per-flow admission {e locally} using the
    O(1) closed form of Section 3.1 — contacting the central broker only
    when its quota runs out (or to hand idle quota back).

    The effect: per-flow admission no longer transits the central broker,
    whose transaction load drops from one per flow to one per quota chunk,
    at the price of bandwidth fragmentation when quota sits idle at one
    edge while another starves (measurable with {!central_transactions}
    and the hierarchy benchmark).

    Restricted to paths made of rate-based schedulers only: a delay-based
    quota would have to carve up VT-EDF schedulability, which requires the
    global view (this is exactly the trade-off the paper hints at). *)

type t

val create :
  central:Broker.t -> ingress:string -> egress:string -> chunk:float -> (t, Types.reject_reason) result
(** [chunk] is the quota acquisition granularity in bits/s.  Fails with
    [No_route] when the central broker has no path, and with
    [Not_schedulable] when the path contains delay-based hops. *)

val request : t -> Types.request -> (Types.flow_id * Types.reservation, Types.reject_reason) result
(** Local admission against the quota; transparently acquires more quota
    from the central broker when needed (first in [chunk] units, then the
    exact shortfall).  Flow ids are local to this edge broker. *)

val teardown : t -> Types.flow_id -> unit
(** Release a local reservation back into the quota.  Idempotent: an
    unknown (already-released) flow is a no-op. *)

val return_idle_quota : t -> unit
(** Hand whole idle chunks back to the central broker (keeps at most one
    chunk of slack).  Idempotent and re-entrancy-safe: each grant's state
    is settled before its teardown transaction runs, so a central-side
    hook calling back into this edge broker mid-return cannot
    double-count {!central_transactions} or double-release quota; a
    nested call is a no-op. *)

val quota_total : t -> float
(** Bandwidth currently delegated to this edge broker. *)

val quota_used : t -> float
(** Of which reserved by local flows. *)

val local_flows : t -> int

val central_transactions : t -> int
(** Quota acquisitions, refusals, returns and lease renewals — the
    central-broker load this edge broker has generated (compare with one
    transaction per flow under the flat architecture). *)

(** {1 Lease-based delegation}

    Unleased delegation has a robustness hole: an edge broker that
    crashes or partitions strands its delegated quota at the central
    broker forever.  Under a {!lease_manager}, every delegation is a
    renewable lease: each backing grant pseudo-flow is a {!Broker.hold}
    at the central broker.  Every heartbeat (one central transaction
    every [period/4]) and every quota acquisition moves all the grants'
    expiry to [3/4 period] later, so a silent edge's quota is back in the
    shared pool exactly [3/4] of a period after its last contact.  A
    reconnecting edge {!reconnect}s: if it returned before the holds
    expired nothing was lost; otherwise it re-registers each still-live
    local flow with the central broker (ascending flow id) and
    surrenders the flows — and all idle quota — the shrunken pool can no
    longer carry.  Timing runs on the central broker's clock; the
    renewal timers stop at {!stop_manager}, so a simulation drains. *)

type manager

val lease_manager : central:Broker.t -> period:float -> manager
(** The central-side lease registry.  Raises [Invalid_argument] when
    [period <= 0]. *)

val stop_manager : manager -> unit
(** Stop all renewal timers (idempotent). *)

val create_leased :
  manager -> ingress:string -> egress:string -> chunk:float -> (t, Types.reject_reason) result
(** Like {!create}, but the edge broker's delegation is governed by the
    manager's lease: auto-renewal starts immediately. *)

val leased : t -> bool

val connected : t -> bool
(** [true] for unleased brokers and for leased brokers currently
    heartbeating. *)

val disconnect : t -> unit
(** Partition (or crash) the edge broker: heartbeats stop, and quota
    acquisitions/returns fail locally instead of reaching the central
    broker.  Local flows keep being served from the (now aging) local
    quota view.  Raises [Invalid_argument] on an unleased broker. *)

(** What {!reconnect} did: which local flows kept their backing, which
    were surrendered, and the quota delta. *)
type reconcile = {
  re_registered : Types.flow_id list;  (** still-live, re-backed locally *)
  surrendered : Types.flow_id list;  (** dropped — no longer fit centrally *)
  quota_before : float;
  quota_after : float;
}

val reconnect : t -> reconcile
(** Rejoin after a partition and reconcile with the central broker (see
    the section doc).  Raises [Invalid_argument] on an unleased
    broker. *)
