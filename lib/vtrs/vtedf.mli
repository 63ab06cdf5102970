(** Schedulability state of a delay-based (VT-EDF) scheduler.

    A VT-EDF scheduler of capacity [C] can guarantee every flow [j] its
    delay parameter [d^j] with error term [lmax*/C] iff (paper eq. (5))

    {v sum_j [ r^j (t - d^j) + lmax^j ] 1{t >= d^j}  <=  C t   for all t >= 0 v}

    The left side is piecewise linear with upward jumps at the [d^j], so the
    condition only needs checking at each distinct delay value (and the
    total-rate slope condition at infinity).  This module maintains the flow
    population of one scheduler grouped by {e distinct} delay value — the
    structure behind the paper's O(M) path-oriented admission algorithm
    (Section 3.2) — and answers exact schedulability queries.

    The broker holds one [Vtedf.t] per delay-based link; the routers
    themselves remain stateless. *)

type t

type klass = {
  delay : float;  (** the distinct delay value [d^m] *)
  sum_rate : float;  (** total reserved rate of flows at this delay *)
  sum_lmax : float;  (** total max packet size of flows at this delay *)
  count : int;  (** number of flows at this delay *)
}

val create : capacity:float -> t
(** Raises [Invalid_argument] unless [capacity > 0]. *)

val capacity : t -> float

val total_rate : t -> float
(** Sum of reserved rates of all flows. *)

val flow_count : t -> int

val classes : t -> klass list
(** Current population grouped by distinct delay, in increasing delay
    order.  [List.length (classes t)] is the paper's [M]. *)

val class_count : t -> int
(** The paper's [M] — number of distinct delay classes — without building
    the {!classes} list. *)

val version : t -> int
(** Mutation counter: incremented by every {!add}, {!remove} and
    {!resize}.  A cache of anything computed from the population (such as
    a {!breakpoints_into} table) is current while the version it
    remembers equals this one. *)

val canon : float -> float
(** The class key of a delay: for [d > 0], [ldexp (round (m *. 2^36) *.
    2^-36) e] where [(m, e) = frexp d] (the mantissa rounded half away
    from zero at 36 bits), and [0.] for [0.].  Two delays share a class
    exactly when their keys are equal. *)

val add : t -> rate:float -> delay:float -> lmax:float -> unit
(** Registers a flow.  No schedulability check is made — callers decide via
    {!can_admit} first.  The delay is canonicalized (mantissa rounded at
    [2^-36] relative precision) before grouping, so float noise below
    ~7e-12 relative cannot split one logical delay class into several —
    and because the canonical value is a pure function of the delay,
    {!remove} with the same float always finds the class {!add} booked
    into.  Raises [Invalid_argument] on non-positive [rate], [lmax] or
    negative [delay]. *)

val remove : t -> rate:float -> delay:float -> lmax:float -> unit
(** Unregisters a flow previously added with the same parameters, matching
    its delay class by the same canonicalization as {!add}.  Raises
    [Invalid_argument] if no flow with this delay is present. *)

val resize : t -> delay:float -> lmax:float -> old_rate:float -> new_rate:float -> unit
(** Re-rates one flow in place: the state is bit for bit what {!remove}
    of [old_rate] followed by {!add} of [new_rate] (same [delay] and
    [lmax]) would leave, found with one class lookup and counted as one
    {!version} step.  Raises [Invalid_argument] as that pair would, but
    before changing anything. *)

val can_resize :
  t -> delay:float -> lmax:float -> old_rate:float -> new_rate:float -> bool
(** Whether the flow booked at [old_rate] could be re-rated to
    [new_rate]: the answer {!can_admit} of [new_rate] gives after
    {!remove} of [old_rate], computed without changing the scheduler (its
    classes, {!total_rate} and {!version} stay as they are).  Raises
    [Invalid_argument] when no flow with this delay is present. *)

val demand : t -> at:float -> float
(** Left side of eq. (5) at time [at]:
    [sum over flows with d^j <= at of (r^j (at - d^j) + lmax^j)]. *)

val rate_below : t -> at:float -> float
(** Sum of reserved rates of flows with delay parameter [<= at] — the local
    slope of {!demand}. *)

val residual_service : t -> at:float -> float
(** [S(at) = C*at - demand at]: the minimal residual service over any
    interval of length [at].  At a breakpoint [d^m] this is the paper's
    [S_i^k]. *)

val breakpoints_into : t -> d:float array -> s:float array -> int
(** [(d^m, S at d^m)] for every distinct delay, ascending, computed in one
    linear pass without allocating — the O(M) building block of the
    Section-3.2 admission algorithm: writes the delays into [d] and the
    residual services into [s] and returns {!class_count}.  Raises
    [Invalid_argument] when a buffer is shorter than {!class_count}. *)

val schedulable : t -> bool
(** Exact check of eq. (5) over the current population. *)

val can_admit : t -> rate:float -> delay:float -> lmax:float -> bool
(** Exact check that eq. (5) still holds after adding the candidate flow:
    the slope condition [total_rate + rate <= C], the candidate's own
    constraint at [t = delay], and the constraint at every existing
    breakpoint [d^m >= delay].  Assumes the current population is
    schedulable. *)

val copy : t -> t
(** A deep, independent replica of the current population (identical
    {!breakpoints_into}, {!demand}, {!can_admit} answers).  Used by the
    sharded broker's coordinator to run exact cross-shard admission on
    state gathered from owning domains. *)

val pp : t Fmt.t
