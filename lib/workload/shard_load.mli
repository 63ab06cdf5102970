(** The regional domain and request stream of the sharded broker
    (ROADMAP item 1).

    Builds a {!Topo_gen.regions} domain and partitions it by region
    across {!Bbr_broker.Shard_router} shards.  Intra-region traffic is
    single-shard under that partition; cross-region traffic takes the
    router's two-phase path.  Everything is a pure function of a seeded
    {!Bbr_util.Prng}, so a single broker fed the same stream is the
    digest-exact reference for a sharded run. *)

type config = {
  seed : int;
  regions : int;  (** regions in the generated domain *)
  nodes_per_region : int;
  extra_links : int;  (** intra-region extras beyond the spanning tree *)
}

val default : config

val topology : config -> Bbr_vtrs.Topology.t
(** The {!Topo_gen.regions} domain of [config] (deterministic in
    [config.seed]). *)

val partition : nshards:int -> string -> int
(** Region-based partition function: [region mod nshards] (0 for names
    without a region prefix). *)

val request : config -> Bbr_util.Prng.t -> Bbr_broker.Types.request
(** The next request of the stream: a Table-1 profile and a delay bound
    in [\[0.5, 6\]] s between two distinct nodes of one region, or, one
    draw in ten, between nodes of two different regions.  Needs
    [regions >= 2] and [nodes_per_region >= 2]. *)
