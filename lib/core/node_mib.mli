(** Node QoS state information base (paper Section 2.2).

    For every router outgoing link in the domain, the broker records the
    static parameters (capacity, scheduler class, error term) and the
    dynamic reservation state: the total reserved bandwidth, and — for
    delay-based links — the VT-EDF schedulability population.  Core routers
    themselves hold none of this. *)

type entry = {
  link : Bbr_vtrs.Topology.link;
  edf : Bbr_vtrs.Vtedf.t option;
      (** schedulability state; [Some] iff the link is delay-based *)
}

type t

val create : Bbr_vtrs.Topology.t -> t

val entry : t -> link_id:int -> entry
(** Raises [Invalid_argument] for an unknown link id. *)

val reserved : t -> link_id:int -> float
(** Total bandwidth currently reserved on the link, including contingency
    bandwidth. *)

val residual : t -> link_id:int -> float
(** [capacity - reserved]. *)

val reserve : t -> link_id:int -> float -> unit
(** Add to the link's reserved bandwidth.  The caller is responsible for
    having run the admissibility test; reserving beyond capacity raises
    [Invalid_argument] (it would indicate a broker bug). *)

val release : t -> link_id:int -> float -> unit
(** Subtract from the link's reserved bandwidth.  Raises
    [Invalid_argument] if more than reserved would be released. *)

val reserve_links : t -> Bbr_vtrs.Topology.link list -> float -> unit
(** {!reserve} of the same amount on each link, in list order. *)

val release_links : t -> Bbr_vtrs.Topology.link list -> float -> unit
(** {!release} of the same amount on each link, in list order. *)

val min_residual : t -> Bbr_vtrs.Topology.link list -> float
(** The least {!residual} over the links, folded in list order from
    [infinity] with [Float.min]; the loop allocates nothing.  Raises
    [Invalid_argument] for an unknown link id. *)

val on_change : t -> (link_id:int -> unit) -> unit
(** Register a hook invoked after every {!reserve}/{!release}.  No
    product module subscribes: [C_res] is read on demand
    ({!Path_mib.residual}), so the hook serves only external probes that
    count link changes. *)
