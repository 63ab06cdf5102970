(** Broker state snapshots for warm-standby failover.

    The paper argues (Section 2, footnote 2) that concentrating the QoS
    control state at the broker lets reliability be solved in the control
    plane alone — e.g. by replicating the broker — without touching core
    routers.  This module provides the mechanism: write down every
    reservation exactly as the broker booked it, and book exactly that
    into a fresh broker.  Restore never re-runs admission.

    Per-flow reservations are saved as the journal's [admit] payloads
    ({!Journal.payload}) and booked verbatim on their saved links, never
    re-routed, through {!Journal.apply}.  Each class macroflow is saved
    with its aggregate profile, base rate, contingency pool, edge-delay
    bound and live grants, followed by its members, and is booked as
    saved by {!Aggregate.restore_macroflow}.  A standby therefore resumes
    with the primary's allocation state bit for bit (equal
    {!Audit.mib_digest}).

    Flow ids are preserved: every reservation is re-booked under its
    original id, and the saved id horizon ([next] line) is reserved on
    restore, so ids the failed primary already handed to ingress routers
    stay valid for DRQs and are never re-issued by the standby.

    The snapshot format is a versioned line-oriented text format
    (["bbr-snapshot v2"]), one reservation or macroflow per line.  A
    snapshot is read by the build that wrote it; other versions are
    refused at the header. *)

val save : Broker.t -> string
(** Serialize all current reservations. *)

val restore : Broker.t -> string -> (int, string) result
(** Book a snapshot into a broker, which must be freshly created over
    the same topology (with the same service classes).  Returns the number
    of reservations restored (per-flow flows plus class members), or a
    description of the first parse or booking failure — a link that
    would go over capacity refuses its booking.

    Atomic: the full snapshot is parsed and then booked into a scratch
    broker first; the target broker is touched only once both passes
    succeed, so on [Error] it is exactly as it was. *)

val flows_in : string -> int
(** Number of reservation lines ([admit] and [member]) in a snapshot
    (cheap sanity check). *)
