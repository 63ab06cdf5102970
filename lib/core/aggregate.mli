(** Class-based guaranteed services with dynamic flow aggregation
    (paper Section 4).

    The domain offers a fixed set of delay service classes.  All microflows
    of one class that share a path are aggregated into a single macroflow,
    shaped at the edge with one aggregate reserved rate and carrying one
    fixed delay parameter [cd] at delay-based hops.

    Microflows may join and leave at any time.  To prevent the transient
    delay-bound violations of Section 4.1, every rate adjustment is
    accompanied by {e contingency bandwidth} (Theorems 2 and 3): on a join,
    [max 0 (peak_nu - rate_increment)] extra bandwidth is held for a
    contingency period; on a leave, the rate reduction itself is retained
    as contingency before being released.  Two ways of sizing the period
    are implemented:

    - {!Bounding}: the theoretical bound of eq. (17),
      [tau = d_edge_old * (r + conting) / delta_r], a hold's period;
    - {!Feedback}: the edge conditioner signals when its backlog empties
      ({!queue_empty}), at which point {e all} contingency bandwidth of the
      macroflow is released (the lingering backlog is gone, eq. (13)).

    The aggregate reserved rate is always at least the sum of the member
    sustained rates (otherwise the edge backlog grows without bound) and at
    least the minimum rate at which the class end-to-end bound holds
    (eq. (19), using the macroflow core bound of eq. (12) with the path
    MTU). *)

type method_ = Bounding | Feedback

type class_def = {
  class_id : int;
  dreq : float;  (** end-to-end delay bound of the class, seconds *)
  cd : float;  (** fixed delay parameter at delay-based schedulers *)
}

type hooks = {
  now : unit -> float;  (** broker clock *)
  hold : class_id:int -> path_id:int -> grant:int -> expires:float -> unit;
      (** under {!Bounding}: {!release_grant} a new grant at [expires] *)
  rate_changed : class_id:int -> path_id:int -> total_rate:float -> unit;
      (** pushed to the ingress edge conditioner (the COPS leg): fired
          whenever base + contingency changes *)
}

type t

val create :
  Node_mib.t -> Path_mib.t -> classes:class_def list -> method_:method_ -> hooks:hooks -> t
(** Raises [Invalid_argument] on duplicate class ids or invalid bounds. *)

val classes : t -> class_def list

val find_class : t -> class_id:int -> class_def option

val best_class : t -> dreq:float -> class_def option
(** The class with the largest bound not exceeding [dreq] (loosest class
    that still satisfies the flow), or [None] when every class is tighter
    than needed... i.e. no class bound [<= dreq]. *)

val join :
  t ->
  class_id:int ->
  path:Path_mib.info ->
  flow:Types.flow_id ->
  Bbr_vtrs.Traffic.t ->
  (unit, Types.reject_reason) result
(** Admission test and bookkeeping for a microflow joining the class's
    macroflow on [path] (Section 4.3, "Microflow Join").  The aggregate
    profile is read from the macroflow's exact running sum
    ({!Bbr_vtrs.Traffic.Sum}), so the cost does not grow with the
    membership. *)

val leave : t -> flow:Types.flow_id -> unit
(** Microflow departure (Section 4.3, "Microflow Leave"): the member's
    profile is taken out of the running sum, in O(1) of the membership.
    Raises [Invalid_argument] for an unknown flow. *)

val evacuate :
  t -> class_id:int -> path_id:int -> (Types.flow_id * Bbr_vtrs.Traffic.t) list
(** Tear a whole macroflow out at once: release its entire allocation
    (base {e and} contingency — the path has failed, so no contingency
    period applies), forget the macroflow, and return its members in
    ascending flow-id order so the broker can attempt re-admission on a
    surviving path.  Empty list when the macroflow does not exist. *)

val queue_empty : t -> class_id:int -> path_id:int -> unit
(** Edge-conditioner feedback: the macroflow's backlog emptied.  Under
    {!Feedback} this releases all contingency bandwidth of the macroflow
    and resets its edge-delay bound; ignored under {!Bounding}. *)

(** {1 Introspection} *)

type macro_stats = {
  class_id : int;
  path_id : int;
  members : int;
  profile : Bbr_vtrs.Traffic.t option;  (** aggregate of the members; [None] when empty *)
  base_rate : float;  (** reserved rate excluding contingency *)
  contingency : float;  (** currently held contingency bandwidth *)
  edge_bound : float;  (** current worst-case edge-delay bound *)
}

val macroflow_stats : t -> class_id:int -> path_id:int -> macro_stats option

val all_macroflows : t -> macro_stats list

val member_count : t -> int

val owner : t -> flow:Types.flow_id -> (int * int) option
(** [(class_id, path_id)] of the macroflow a flow belongs to. *)

val members : t -> class_id:int -> path_id:int -> (Types.flow_id * Bbr_vtrs.Traffic.t) list
(** The microflows of a macroflow, ascending flow id; empty when the
    macroflow does not exist. *)

val path_endpoints : t -> class_id:int -> path_id:int -> (string * string) option
(** [(ingress, egress)] of the macroflow's path. *)

val owners_alist : t -> (Types.flow_id * (int * int)) list
(** Every class member with its [(class_id, path_id)], ascending flow id
    — the owner table as the {!Audit} cross-checks see it. *)

(** {1 Snapshot / journal support} *)

val release_grant : t -> class_id:int -> path_id:int -> grant:int -> unit
(** Release a contingency grant whose hold expired (a no-op once it is
    gone); the edge-delay bound resets with the last one. *)

val grant_amount : t -> class_id:int -> path_id:int -> grant:int -> float
(** A live grant's amount; 0 when it is gone. *)

val grant_amounts : t -> class_id:int -> path_id:int -> float list
(** The macroflow's live contingency grants, oldest first.  Their sum is
    the macroflow's [contingency] up to release rounding. *)

val restore_macroflow :
  t ->
  class_id:int ->
  path:Path_mib.info ->
  members:(Types.flow_id * Bbr_vtrs.Traffic.t) list ->
  profile:Bbr_vtrs.Traffic.t option ->
  base:float ->
  conting:float ->
  edge_bound:float ->
  grants:float list ->
  unit
(** Book a macroflow exactly as a {!Snapshot} recorded it, without
    running admission: its members and owner entries, aggregate profile,
    base rate, contingency pool and edge-delay bound take the given
    values (the running sum is rebuilt from [members]; the saved profile
    is booked as it is), and [base + conting] is reserved on the path links and at
    their delay-based schedulers.  [grants] (oldest first) are
    registered as live contingency grants; under {!Bounding} each is
    held afresh from eq. (17).  Raises [Invalid_argument] when
    the class is unknown, the macroflow already exists, a member is
    listed twice, or a link would go over capacity. *)

val repair_membership : t -> int
(** Anti-entropy reconciliation of the owner ⇄ member tables: drop owner
    entries whose macroflow is gone or does not list the flow, and
    re-adopt members missing their owner entry (the member table drives
    the rate accounting, so it wins).  Returns the number of entries
    fixed. *)
