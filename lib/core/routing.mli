(** Routing module of the broker (paper Figure 1).

    Peers with the domain topology to select an ingress→egress path for
    each new flow and registers it with the path MIB.  Path selection is
    minimum hop count with the link-id sequence as a deterministic
    tie-break: neighbours are explored in link insertion order and the
    first path found wins (the paper delegates path set-up to MPLS and
    does not prescribe a metric).

    A router keeps one breadth-first tree per ingress: a parent-link
    array, searched to completion and refilled in place the first time
    the ingress is asked for a route after the topology's state version
    moved (a link went up or down, or was added).  A search that stopped
    at one egress would have set the same parents for every node it
    reached, so the routes are those of a search per request.  Next to
    each tree is an int-indexed row of the routes asked for, one per
    egress, each read back from the tree and registered with the path MIB
    on its first ask; the row is emptied whenever the tree is searched
    again. *)

type t

val create : Bbr_vtrs.Topology.t -> Path_mib.t -> t

val path : t -> ingress:string -> egress:string -> Path_mib.info option
(** Shortest path between two routers over the links currently up;
    [None] when unreachable, when either router is unknown and for
    [ingress = egress].  Repeated asks within one topology state version
    return the same registered path.  A hit costs two router-name lookups
    and allocates nothing; the first ask from an ingress after a state
    change costs one search of the whole topology, O(nodes + links), and
    a pair's first ask reads back and registers its path, O(h). *)

val shortest_path :
  Bbr_vtrs.Topology.t ->
  ingress:string ->
  egress:string ->
  Bbr_vtrs.Topology.link list option
(** The same path, computed by one fresh search without a broker (the
    IntServ baseline routes with the same metric so comparisons are
    apples to apples).  Skips links marked down. *)
