(** Routing module of the broker (paper Figure 1).

    Peers with the domain topology to select an ingress→egress path for
    each new flow and registers it with the path MIB.  Path selection is
    minimum hop count with the link-id sequence as a deterministic
    tie-break (the paper delegates path set-up to MPLS and does not
    prescribe a metric). *)

type t

val create : Bbr_vtrs.Topology.t -> Path_mib.t -> t

val path : t -> ingress:string -> egress:string -> Path_mib.info option
(** Shortest path between two routers over the links currently up,
    memoized; [None] when unreachable or either router is unknown.  The
    memo is dropped automatically whenever the topology's link up/down
    state changes (see {!Bbr_vtrs.Topology.set_link_state}), so selections
    steer around failed links and may return after repairs. *)

val shortest_path :
  Bbr_vtrs.Topology.t ->
  ingress:string ->
  egress:string ->
  Bbr_vtrs.Topology.link list option
(** The underlying path computation, usable without a broker (the IntServ
    baseline routes with the same metric so comparisons are apples to
    apples).  Skips links marked down. *)

