module Prng = Bbr_util.Prng
module Types = Bbr_broker.Types

type config = {
  seed : int;
  regions : int;
  nodes_per_region : int;
  extra_links : int;
}

let default = { seed = 20_260_809; regions = 8; nodes_per_region = 6; extra_links = 6 }

let topology cfg =
  let prng = Prng.create ~seed:cfg.seed in
  Topo_gen.regions prng ~regions:cfg.regions
    ~nodes_per_region:cfg.nodes_per_region ~extra_links:cfg.extra_links ()

let partition ~nshards name =
  match Topo_gen.region_of_node name with
  | Some r -> r mod nshards
  | None -> 0

let node r i = Printf.sprintf "R%d_N%d" r i

(* Two distinct nodes of one region (a shard-local path, by the hub-ring
   property of {!Topo_gen.regions}), or, one draw in ten, two nodes of
   different regions. *)
let request cfg prng =
  let k = cfg.nodes_per_region and n = cfg.regions in
  let cross = Prng.int prng ~bound:10 = 0 in
  let r1 = Prng.int prng ~bound:n in
  let r2 = if cross then (r1 + 1 + Prng.int prng ~bound:(n - 1)) mod n else r1 in
  let a = Prng.int prng ~bound:k in
  let b = if cross then Prng.int prng ~bound:k else (a + 1 + Prng.int prng ~bound:(k - 1)) mod k in
  {
    Types.profile = Profiles.profile (Prng.int prng ~bound:4);
    dreq = Prng.float_range prng ~lo:0.5 ~hi:6.0;
    ingress = node r1 a;
    egress = node r2 b;
  }
