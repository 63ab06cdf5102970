(** MIB invariant audit and anti-entropy repair.

    The broker's authority rests on its bookkeeping being exact: every
    flow-MIB entry must be backed by reservations on each link of its
    path, every link's reserved rate must equal the sum of the flows and
    macroflows crossing it, and the aggregate owner/member tables must
    agree.  This module cross-checks flow MIB ⇄ path MIB ⇄ per-link
    reserved-rate bookkeeping, checks that every delay-based link is
    still schedulable, reports violations (and counts them on the
    [bb_audit_violations_total{kind}] metric), and can repair the
    reconcilable ones — releasing leaked bandwidth, re-reserving missing
    bandwidth, dropping orphan records.

    It also provides the canonical {!mib_digest} used to prove
    crash-recovery equivalence: two brokers with equal digests hold the
    same reservations on the same paths at the same rates. *)

type kind =
  | Leaked_bandwidth
      (** a link's reserved rate exceeds the sum of the reservations
          crossing it — bandwidth nothing accounts for *)
  | Missing_bandwidth
      (** a link's reserved rate falls short of the reservations that
          claim to cross it *)
  | Orphan_flow
      (** a flow-MIB record with no backing link reservations *)
  | Dangling_membership
      (** the aggregate owner and member tables disagree *)
  | Aggregate_accounting
      (** a macroflow's contingency total does not match its grants, or
          is negative *)
  | Expired_hold
      (** a {!Broker.hold} past its expiry still pins bandwidth: the
          broker's expiry timer failed to release it *)
  | Sla_mismatch
      (** a peering SLA's recorded usage disagrees with the sum of the
          live federation flows crossing it (see {!Bbr_interdomain.Federation.audit}) *)
  | Stranded_segment
      (** a domain broker holds a reservation no live federation flow,
          in-flight transaction or prepared booking accounts for —
          bandwidth a failed compensation left behind *)
  | Unschedulable_link
      (** a delay-based link whose booked flows violate eq. (5)
          ({!Bbr_vtrs.Vtedf.schedulable} is false): admission let
          through a pair the exact check refuses.  Not repairable. *)

val kind_label : kind -> string
(** Metric label value: ["leaked_bandwidth"], ["orphan_flow"], ... *)

type violation = {
  kind : kind;
  subject : string;  (** what is wrong: ["link 3"], ["flow 17"], ... *)
  detail : string;  (** human-readable specifics, amounts included *)
}

type report = {
  violations : violation list;
  flows : int;  (** per-flow records checked *)
  members : int;  (** class memberships checked *)
  macroflows : int;
  links : int;  (** links checked *)
}

val ok : report -> bool
(** No violations. *)

val check : ?eps:float -> Broker.t -> report
(** Run every invariant check.  [eps] (default [1e-3] b/s) is the
    absolute tolerance on bandwidth comparisons — far above
    floating-point noise, far below any real leak.  Counts each finding
    on [bb_audit_violations_total{kind}] when metrics are installed.
    The broker's holds are read on its own clock: a hold past its expiry
    that still pins bandwidth is an {!Expired_hold}. *)

type repair_outcome = {
  found : report;  (** the audit that drove the repair *)
  repaired : int;  (** corrective actions applied *)
  remaining : report;  (** re-audit after repair — empty when all fixed *)
}

val repair : ?eps:float -> Broker.t -> repair_outcome
(** Anti-entropy pass: release every expired hold ({!Broker.expire}),
    drop orphan flow records, reconcile the aggregate membership tables,
    release leaked bandwidth and re-reserve missing bandwidth (when it
    still fits).  Each action counts on [bb_audit_repairs_total{kind}]. *)

val mib_digest : Broker.t -> string
(** Hex digest of the broker's logical reservation state: per-flow
    records (id, rate, delay, path links), class memberships, macroflow
    aggregates (base rate, contingency pool, edge-delay bound), link
    up/down state and the per-link reserved rate {e recomputed in
    canonical order} (so the digest is independent of the floating-point
    summation order the broker's history happened to use).  Every rate
    and bound is printed exactly ([%h]).  Two brokers are
    decision-equivalent replicas iff their digests match and {!check} is
    clean on both. *)

val digest_of_perflow :
  topology:Bbr_vtrs.Topology.t ->
  (Types.flow_id * float * float * int list) list ->
  string
(** {!mib_digest} computed from an explicit per-flow population — each
    entry is [(flow, rate, delay, path link ids)] — instead of a broker's
    MIBs.  Byte-identical to {!mib_digest} on a broker holding exactly
    these flows and no class-based state: the sharded broker's router
    merges its shards' flow records (stitching multi-shard segments back
    into whole paths) and digests them through this function, so
    sharded-vs-single equivalence is a string comparison.  Input order is
    irrelevant (entries are sorted by flow id). *)

val pp_report : report Fmt.t
