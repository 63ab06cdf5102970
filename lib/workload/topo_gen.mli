(** Synthetic domain topologies beyond the paper's Figure 8 — used by the
    robustness test-suites and available to users for their own
    experiments.  All generators are deterministic in the supplied
    generator state. *)

val chain :
  ?prefix:string ->
  ?capacity:float ->
  ?sched:Bbr_vtrs.Topology.sched_class ->
  hops:int ->
  unit ->
  Bbr_vtrs.Topology.t * string * string
(** A linear domain of [hops] links; returns (topology, ingress, egress).
    Node names are [prefix ^ i]. *)

val star :
  ?capacity:float ->
  leaves:int ->
  unit ->
  Bbr_vtrs.Topology.t
(** [leaves] edge routers, each with a link to and from a hub "C"; edge
    router [i] is named ["N<i>"].  Every pair of edge routers is connected
    through the hub (2 hops). *)

val random :
  Bbr_util.Prng.t ->
  nodes:int ->
  extra_links:int ->
  ?delay_fraction:float ->
  ?capacity_lo:float ->
  ?capacity_hi:float ->
  unit ->
  Bbr_vtrs.Topology.t
(** A connected random domain: a random spanning arborescence plus
    [extra_links] random extra directed links, with every link mirrored in
    the reverse direction.  Each link's scheduler is delay-based with
    probability [delay_fraction] (default 0.3) and its capacity uniform in
    [[capacity_lo, capacity_hi]] (default 1–10 Mb/s).  Nodes are named
    ["N0"… ].  Raises [Invalid_argument] for fewer than 2 nodes. *)

val power_law :
  Bbr_util.Prng.t ->
  nodes:int ->
  ?m:int ->
  ?delay_fraction:float ->
  ?capacity_lo:float ->
  ?capacity_hi:float ->
  unit ->
  Bbr_vtrs.Topology.t
(** A connected ISP-scale domain with a power-law degree distribution,
    grown by preferential attachment (Barabási–Albert): each new node
    attaches to [m] (default 2) distinct earlier nodes with probability
    proportional to their degree, every undirected edge realized as a
    mirrored pair of directed links sharing one capacity drawn uniformly
    from [[capacity_lo, capacity_hi]] (default 1–10 Mb/s) and a scheduler
    that is delay-based with probability [delay_fraction] (default 0.2).
    O(nodes·m): a 10k-node graph builds in well under a second.  Nodes
    are ["N0"…]; early nodes become the high-degree hubs.  Deterministic
    in the generator state: equal seeds yield {!digest}-identical
    topologies.  Raises [Invalid_argument] for fewer than 2 nodes or
    [m < 1]. *)

val digest : Bbr_vtrs.Topology.t -> string
(** CRC-32 hex digest of the canonical topology rendering (node order,
    link endpoints, capacities, scheduler classes, error terms) — the
    determinism oracle for generators: same seed ⇒ same digest. *)

val degrees : Bbr_vtrs.Topology.t -> (string * int) list
(** Out-degree per node, in node insertion order. *)

val hubs : Bbr_vtrs.Topology.t -> string list
(** Nodes by descending degree (name breaking ties) — the first entries
    are the cores a regional-failure campaign aims at. *)

val leaves : Bbr_vtrs.Topology.t -> string list
(** Nodes by ascending degree — the stubs a partition campaign cuts off
    and the natural ingress/egress candidates. *)

val random_endpoints : Bbr_util.Prng.t -> Bbr_vtrs.Topology.t -> string * string
(** Two distinct nodes of the topology. *)

val regions :
  Bbr_util.Prng.t ->
  regions:int ->
  nodes_per_region:int ->
  ?extra_links:int ->
  ?delay_fraction:float ->
  ?capacity_lo:float ->
  ?capacity_hi:float ->
  ?inter_capacity:float ->
  unit ->
  Bbr_vtrs.Topology.t
(** A domain of [regions] connected random regions (each a spanning tree
    plus [extra_links] extras, generated as in {!random}), joined in a
    ring of wide rate-based inter-region links between the regions' hub
    nodes ["R<r>_N0"] (two regions share a single pair).  The hub is
    each region's only gateway, so minimum-hop paths between two
    same-region nodes never leave the region — the
    property that makes regional traffic single-shard under a
    region-based partition ({!region_of_node}).  Nodes are named
    ["R<r>_N<i>"].  Deterministic in the generator state. *)

val region_of_node : string -> int option
(** Parse the region index from a {!regions} node name ([None] for
    foreign names) — the basis of the sharded broker's partition
    function: [shard of node = region mod nshards]. *)
