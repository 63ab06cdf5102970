(* mesh-perflow: one broker, per-flow service, any-to-any between the
   edge routers of a 128-node regional mesh.  Thousands of distinct paths
   share the hub-ring links, so path and node MIB bookkeeping and the
   admission cache's revalidation dominate; a hub-ring link fails as each
   round's measured phase starts and is restored halfway through it,
   resetting the routing memo and the whole cache. *)

open Bbr_broker
module Prng = Bbr_util.Prng
module Topology = Bbr_vtrs.Topology
module Topo_gen = Bbr_workload.Topo_gen

(* The topology and the flapped link are fixed; the seed drives the
   request stream. *)
let topology () =
  Topo_gen.regions (Prng.create ~seed:1) ~regions:8 ~nodes_per_region:16 ~delay_fraction:0.5 ()

let region name = Option.value ~default:(-1) (Topo_gen.region_of_node name)

let warmup = 3000

(* The edge routers flows enter and leave by: the [edge] lowest-degree
   nodes of each region. *)
let edge = 6

let endpoints topo =
  let leaves = Topo_gen.leaves topo in
  List.concat_map
    (fun r ->
      List.filteri (fun i _ -> i < edge) (List.filter (fun n -> region n = r) leaves))
    (List.init 8 Fun.id)

let stream ~seed ~n =
  let topo = topology () in
  let nodes = Array.of_list (endpoints topo) in
  let k = Array.length nodes in
  let ring =
    Array.of_list
      (List.filter_map
         (fun (l : Topology.link) ->
           if region l.Topology.src <> region l.Topology.dst then Some l.Topology.link_id
           else None)
         (Topology.links topo))
  in
  let prng = Prng.create ~seed in
  let reqs =
    Array.init n (fun _ ->
        let a = Prng.int prng ~bound:k in
        let b = (a + 1 + Prng.int prng ~bound:(k - 1)) mod k in
        Harness.table1_request prng ~ingress:nodes.(a) ~egress:nodes.(b))
  in
  (* The first ring link, whatever the seed: which link fails decides how
     many detour paths get registered, and with them the cost of every
     later decision. *)
  (reqs, ring.(0))

let spec ~ops link =
  let topo = topology () in
  {
    Single.name = "mesh-perflow";
    service = Single.Perflow;
    make = (fun () -> Broker.create (Topology.copy topo));
    cap = 2000;
    warmup;
    every = ops;
    events = Single.Flaps [| link |];
  }

let run ~seed ~rounds ~ops ~trace ~spans_path =
  let reqs, link = stream ~seed ~n:(warmup + ops) in
  Single.run (spec ~ops link) reqs ~rounds ~ops ~trace ~spans_path
