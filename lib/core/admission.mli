(** Path-oriented admission control for per-flow guaranteed services
    (paper Section 3).

    Because the broker holds the QoS state of the whole path, admissibility
    is tested against the entire path at once instead of hop by hop:

    - {!rate_based} — paths with only rate-based schedulers (Section 3.1):
      a closed-form O(1) test returning the minimal feasible reserved rate.
    - {!mixed} — paths mixing rate- and delay-based schedulers
      (Section 3.2, Figure 4): an O(M) scan over the [M] distinct delay
      values supported by the delay-based schedulers of the path, returning
      a rate–delay pair with the minimal feasible rate.
    - {!mixed_reference} — an exact oracle that adds the candidate's
      own-deadline constraint of the VT-EDF schedulability condition
      (eq. (5)) to every delay interval; {!mixed}'s fallback.  Also O(M)
      in practice: it searches for the own deadline only on the intervals
      whose cheap lower bound can still win.

    All tests are pure with respect to the MIBs: they never mutate
    reservation state. *)

type path_state = {
  hops : int;
  rate_hops : int;
  delay_hops : int;
  d_tot : float;
  cres : float;  (** minimal residual bandwidth along the path *)
  edf : Bbr_vtrs.Vtedf.t list;  (** delay-based schedulers along the path *)
}

val path_state : Node_mib.t -> Path_mib.t -> Path_mib.info -> path_state
(** Snapshot view of a path assembled from the MIBs. *)

(** The merged breakpoint table of a mixed path: every distinct delay value
    [d^m] supported across the delay-based schedulers, ascending, with the
    minimal residual service [S^m] of the path at [d^m] (Section 3.2).
    Parallel arrays of which only the first [m] entries are meaningful, so
    a cache can maintain the table incrementally in oversized buffers and
    hand it to {!mixed} without re-merging per request. *)
type merged = {
  m : int;  (** number of merged breakpoints *)
  md : float array;  (** distinct delays, ascending *)
  ms : float array;  (** minimal residual service at each delay *)
}

val merge_breakpoints : path_state -> merged
(** Builds the merged table from scratch — the uncached reference.  A table
    supplied via [?bps] below must be element-wise identical to this one
    for the cache to be digest-neutral. *)

val rate_based :
  path_state -> Bbr_vtrs.Traffic.t -> dreq:float -> (float, Types.reject_reason) result
(** Minimal feasible reserved rate on an all-rate-based path, or why none
    exists.  Raises [Invalid_argument] when the path has delay-based
    hops. *)

val mixed :
  ?bps:merged ->
  path_state ->
  Bbr_vtrs.Traffic.t ->
  dreq:float ->
  (float * float, Types.reject_reason) result
(** Figure-4 algorithm: [(rate, delay)] with minimal [rate] on a mixed
    path.  Any returned pair is re-validated against the exact
    schedulability condition.  The published interval formulas omit the
    candidate's own-deadline constraint, so the pair can fail it, and the
    scan can find no pair where one exists; then the result of
    {!mixed_reference} is returned instead.  That is not rare: on the
    [mesh-perflow] benchmark 28 896 of 41 616 calls (69%, seed 1) fall
    back, as do a quarter of the crowded populations its tests draw.
    [?bps] supplies a pre-merged breakpoint table (from
    {!Admission_cache}); when absent the table is rebuilt via
    {!merge_breakpoints}.  Raises [Invalid_argument] when the path has no
    delay-based hop. *)

val mixed_reference :
  ?bps:merged ->
  path_state ->
  Bbr_vtrs.Traffic.t ->
  dreq:float ->
  (float * float, Types.reject_reason) result
(** The exact oracle (see module doc): the minimal rate over every
    interval's constraints, the candidate's own deadline at every
    scheduler included, and the first interval's pair at that rate.  Bit
    for bit the answer of evaluating every interval, which costs
    O(M{^2} H); the tests keep that loop as its specification. *)

val admit :
  ?bps:merged ->
  path_state ->
  Bbr_vtrs.Traffic.t ->
  dreq:float ->
  (Types.reservation, Types.reject_reason) result
(** Dispatch on the path kind: {!rate_based} when [delay_hops = 0]
    (reservation delay 0), {!mixed} otherwise. *)

val conservative :
  path_state ->
  Bbr_vtrs.Traffic.t ->
  dreq:float ->
  (Types.reservation, Types.reject_reason) result
(** The brownout-mode admission test: the Section-3.1 closed form with
    every hop treated as rate-based, offering each delay-based scheduler
    the pair [<r, lmax/r>] (under which VT-EDF degenerates to a rate-based
    server, so the end-to-end bound holds by construction).  No interval
    scan: one closed-form rate plus one exact schedulability check.
    Strictly conservative with respect to {!admit} — it may reject a flow
    {!mixed} would place, but any reservation it returns satisfies the
    exact schedulability condition.  Equals {!rate_based} on all-rate
    paths. *)

val schedulable : path_state -> rate:float -> delay:float -> lmax:float -> bool
(** Exact check that a candidate pair fits every constraint of the path:
    rate window, residual bandwidth, and eq. (5) at every delay-based
    scheduler. *)

(** {1 Introspection} *)

(** One delay interval of the Figure-4 scan, with the two rate ranges of
    eqs. (10) and (11).  Exposed for diagnostics and for reproducing the
    monotonicity illustration of the paper's Figure 5. *)
type interval_view = {
  index : int;  (** [m], 1-based from the leftmost interval *)
  d_lo : float;  (** [d^{m-1}] *)
  d_hi : float;  (** [min (d^m, t)] *)
  fea_l : float;  (** left edge of [R_fea^m] *)
  fea_r : float;  (** right edge of [R_fea^m] *)
  del_l : float;  (** left edge of [R_del^m] *)
  del_r : float;  (** right edge of [R_del^m] *)
}

val intervals :
  ?bps:merged ->
  path_state ->
  Bbr_vtrs.Traffic.t ->
  dreq:float ->
  interval_view list
(** The interval table the Figure-4 scan walks, left to right.  Empty when
    the request is trivially unachievable.  Raises [Invalid_argument] on a
    path without delay-based hops. *)
