(** Broker state snapshots for warm-standby failover.

    The paper argues (Section 2, footnote 2) that concentrating the QoS
    control state at the broker lets reliability be solved in the control
    plane alone — e.g. by replicating the broker — without touching core
    routers.  This module provides the mechanism: serialize every active
    reservation to a plain-text snapshot, and rebuild an equivalent broker
    from it by replaying the bookings in admission order.

    Restored state is exact for per-flow reservations (the original
    rate–delay pairs are re-booked verbatim on the saved links via
    {!Broker.book_path}, never re-routed) and deterministic for class-based
    reservations (joins replay in flow-id order, reproducing the same
    aggregate rates).  Auxiliary aggregate state — the live contingency
    grants and edge-delay bounds — is captured exactly in an [aux]
    section: on restore, the contingency the replayed joins synthesised
    is swept and the primary's precise pools are re-established, so a
    standby resumes with bit-identical allocation state (the
    deterministic-resume guarantee the crash-recovery tests assert).
    Older snapshots without the [aux] marker restore as before, keeping
    the conservative join-synthesised contingency.

    Flow ids are preserved: every reservation is re-booked under its
    original id, and the saved id horizon ([next] line) is reserved on
    restore, so ids the failed primary already handed to ingress routers
    stay valid for DRQs and are never re-issued by the standby.

    The snapshot format is a versioned line-oriented text format, one
    reservation per line. *)

val save : Broker.t -> string
(** Serialize all current reservations. *)

val restore : Broker.t -> string -> (int, string) result
(** Replay a snapshot into a broker, which must be freshly created over
    the same topology (with the same service classes).  Returns the number
    of reservations restored, or a description of the first parse or
    re-booking failure.

    Atomic: the full snapshot is parsed and then replayed against a
    scratch broker first; the target broker is touched only once both
    passes succeed, so on [Error] it is exactly as it was. *)

val flows_in : string -> int
(** Number of reservation lines in a snapshot (cheap sanity check). *)
