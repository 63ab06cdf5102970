(** Path QoS state information base (paper Section 2.2).

    For every ingress→egress path in use, the broker keeps the static
    path-level quantities that make the admissibility tests fast: hop
    counts and the sum of error terms and propagation delays [D_tot].  The
    {e minimal residual bandwidth along the path} [C_res] is not maintained
    incrementally: it is read on demand as the min over the path's [h]
    links of the node MIB's residual — O(h), independent of how many flows
    and paths the broker holds, which is the paper's scalability axis.  A
    reservation change therefore costs nothing here, however many paths
    cross the link. *)

type info = {
  path_id : int;
  links : Bbr_vtrs.Topology.link list;
  hops : int;  (** [h] *)
  rate_hops : int;  (** [q] *)
  delay_hops : int;  (** [h - q] *)
  d_tot : float;  (** [sum (psi_i + pi_i)] *)
}

type t

val create : Node_mib.t -> t
(** An empty path MIB reading link residuals from the given node MIB. *)

val register : t -> Bbr_vtrs.Topology.link list -> info
(** Register (or look up) a path.  Paths are deduplicated by their link-id
    sequence.  Raises [Invalid_argument] on an empty or disconnected link
    list. *)

val register_segment : t -> Bbr_vtrs.Topology.link list -> info
(** Like {!register} but without the connectivity requirement: a broker
    shard owning only a subset of a path's links books them as one
    {e segment}, and a path that alternates between shards leaves each
    owner a non-contiguous link list.  Segments share the id space and
    deduplication key of full paths.  Raises [Invalid_argument] on an
    empty link list. *)

val residual : t -> info -> float
(** [C_res^P = min over links of (capacity - reserved)], read from the node
    MIB — O(h).  Raises [Invalid_argument] for a path this MIB never
    registered. *)

val find : t -> path_id:int -> info option
(** O(1) id lookup. *)

val find_links : t -> links:int list -> info option
(** Look a registered path up by its link-id sequence — the path identity
    that is stable across brokers (path ids depend on registration order,
    so a journal or snapshot replayed onto a standby names paths by their
    links). *)

val paths : t -> info list

