(** Path-oriented admission control for per-flow guaranteed services
    (paper Section 3).

    Because the broker holds the QoS state of the whole path, admissibility
    is tested against the entire path at once instead of hop by hop:

    - {!rate_based} — paths with only rate-based schedulers (Section 3.1):
      a closed-form O(1) test returning the minimal feasible reserved rate.
    - {!mixed} — paths mixing rate- and delay-based schedulers
      (Section 3.2): one exact evaluation of the [M + 1] intervals cut by
      the [M] distinct delay values of the path's delay-based schedulers,
      returning a rate–delay pair with the minimal feasible rate.  Unlike
      the paper's Figure-4 scan it adds the candidate's own-deadline
      constraint of the VT-EDF schedulability condition (eq. (5)) to every
      interval, and it is still O(M) in practice.  The published interval
      formulas survive only as the Figure-5 table of {!intervals}.

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

val path_state_of :
  Path_mib.info -> cres:float -> edf:Bbr_vtrs.Vtedf.t list -> path_state
(** The path's state over the given residual and delay-based schedulers,
    in path order: the one constructor, for callers whose schedulers are
    not in a {!Node_mib.t} (the sharded router's replicas). *)

val path_state : Node_mib.t -> Path_mib.t -> Path_mib.info -> path_state
(** Snapshot view of a path assembled from the MIBs. *)

(** A breakpoint table (Section 3.2): delays [d^m], ascending, with
    residual services [S^m], in the first [n] entries of [d] and [s].  One
    delay-based scheduler's table is {!fill}ed from it; a mixed path's
    merged table holds every distinct delay across the path's schedulers
    with the path's minimal [S^m] there.  The buffers may be longer than
    [n], so a cache can refill them in place. *)
type table = { mutable n : int; mutable d : float array; mutable s : float array }

val table : unit -> table
(** An empty table with no buffers. *)

val fill : table -> Bbr_vtrs.Vtedf.t -> unit
(** Recomputes the scheduler's table in full
    ({!Bbr_vtrs.Vtedf.breakpoints_into}), growing the buffers when they
    are short. *)

val merge : table array -> scratch:table -> into:table -> unit
(** Merges per-scheduler tables into [into]: every distinct delay once,
    its [S] the minimum over the tables holding it ([Float.min]).  One
    table is a blit; [H >= 2] tables take [H - 1] successive two-way
    merges, alternating between [scratch] and [into] so the last lands
    in [into].  A pass reads its two inputs once and writes at most the
    [M] entries of the merged table, so a merge costs O((H - 1) M).
    The result is bit for bit the same for any grouping.  Allocates
    nothing unless [into]'s or [scratch]'s buffers are short, when they
    grow; [scratch] is used only for [H >= 3].  The buffers are the
    caller's, so calls on separate domains share no state. *)

val merge_breakpoints : path_state -> table
(** The path's merged table, {!fill}ed and {!merge}d into fresh buffers:
    what {!mixed} builds when no [?bps] is handed in.  A table supplied
    via [?bps] must be element-wise identical to this one for the cache
    to be digest-neutral. *)

val rate_based :
  path_state -> Bbr_vtrs.Traffic.t -> dreq:float -> (float, Types.reject_reason) result
(** Minimal feasible reserved rate on an all-rate-based path, or why none
    exists.  Raises [Invalid_argument] when the path has delay-based
    hops. *)

val mixed :
  ?bps:table ->
  path_state ->
  Bbr_vtrs.Traffic.t ->
  dreq:float ->
  (float * float, Types.reject_reason) result
(** The exact mixed-path test: [(rate, delay)] with minimal [rate], or
    why none exists.  Interval [j] admits the least rate
    [max (rho, Xi / (t - d_own), del_lower_j)] within its upper edge,
    where [d_own] is the least delay in the interval that meets the
    candidate's own deadline at every scheduler; the answer is the first
    interval of least rate, so any returned pair satisfies
    {!schedulable}.  Evaluating every interval costs O(M{^2} H).  This
    test computes [del_lower] of every interval in one pass and searches
    for the own deadline (O(M H)) only on intervals whose cheap lower
    bound — the same formula at the interval's left edge — can still beat
    the best rate so far, which prunes nothing that could win; the tests
    keep the full loop as its specification and check this one bit for
    bit.  [?bps] supplies the path's merged table (from
    {!Admission_cache}); when absent it is built by {!merge_breakpoints}.
    Raises [Invalid_argument] when the path has no delay-based hop. *)

val admit :
  ?bps:table ->
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

(** One delay interval with the two rate ranges of the published
    eqs. (10) and (11), which omit the own-deadline term {!mixed} adds.
    Exposed for diagnostics and for reproducing the monotonicity
    illustration of the paper's Figure 5. *)
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
  ?bps:table ->
  path_state ->
  Bbr_vtrs.Traffic.t ->
  dreq:float ->
  interval_view list
(** The published interval table, left to right.  Empty when
    the request is trivially unachievable.  Raises [Invalid_argument] on a
    path without delay-based hops. *)
