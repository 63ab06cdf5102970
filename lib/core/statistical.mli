(** Statistical rate guarantees — the simplest instance of the paper's
    "statistical and other forms of QoS guarantees" future work
    (Section 6), and a demonstration that new service models slot into the
    broker without touching core routers.

    Service model: an admitted flow is guaranteed its sustained rate
    [rho] except for a fraction [epsilon] of time.  Treating the flows'
    instantaneous rates as independent random variables bounded by their
    peak rates with means [rho_j], Hoeffding's inequality bounds the
    overflow probability of a link of capacity [C]:

    {v P( sum R_j > C ) <= exp( -2 (C - sum rho_j)^2 / sum peak_j^2 ) v}

    so the broker admits a flow set iff on every link of the path

    {v min( sum peak_j, sum rho_j + sqrt( ln(1/epsilon) / 2 * sum peak_j^2 ) ) <= C v}

    (capped at the peak sum: pure peak allocation is always safe, so the
    statistical service never admits fewer flows than it).

    The square-root term is the {e effective-bandwidth surcharge}; it grows
    like sqrt(n), so per-flow cost falls as flows multiplex — the
    statistical service admits far more flows than peak-rate allocation
    and approaches mean-rate allocation at scale.

    Statistical flows share links with deterministic reservations: the
    surcharge is booked in the same node MIB, so each service sees the
    other's load and every path's residual reflects both. *)

type t

val create : Broker.t -> epsilon:float -> t
(** Piggybacks on the broker's policy, routing and node MIB.
    [epsilon] must lie in (0, 1). *)

val epsilon : t -> float

val request : t -> Types.request -> (Types.flow_id, Types.reject_reason) result
(** Admission per the Hoeffding rule on every link of the selected path;
    the request's [dreq] is ignored (this service guarantees rate, not
    delay).  On success the change in effective bandwidth is reserved in
    the node MIB. *)

val teardown : t -> Types.flow_id -> unit
(** Raises [Invalid_argument] for an unknown flow. *)

val effective_bandwidth : t -> link_id:int -> float
(** Current effective-bandwidth demand of the statistical flows on a
    link: [sum rho + sqrt(ln(1/eps)/2 * sum peak^2)]; 0 when none. *)

val surcharge : t -> link_id:int -> float
(** The square-root term alone — what statistical multiplexing costs over
    pure mean-rate allocation. *)

val flow_count : t -> int
