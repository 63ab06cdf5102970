(* The broker on random domains: generator sanity checks, the broker's
   guarantees under storms, checked after every op against the reference
   broker ([Model]), and routing against the reference broker's search.
   The model property ([test_model.ml]) runs the same storms through every
   front end at once. *)

module Topology = Bbr_vtrs.Topology
module Node_mib = Bbr_broker.Node_mib
module Topo_gen = Bbr_workload.Topo_gen
module Prng = Bbr_util.Prng
module Broker = Bbr_broker.Broker
module Snapshot = Bbr_broker.Snapshot
module Audit = Bbr_broker.Audit

(* ------------------------------------------------------------------ *)
(* Storms, each invariant checked after every op *)

(* The cached broker alone, or with [fronts], beside the model. *)
let storm_property ~name ~count ?(fronts = []) each =
  QCheck.Test.make ~name ~count Gen.arb_storm (fun s -> Lockstep.run ~fronts ~each s)

let prop_reservations_consistent =
  storm_property ~name:"link reservations equal the sum of live flows" ~count:100
    (fun lane -> Lockstep.ledgers_match ~what:"op" lane.Lockstep.model [ lane.Lockstep.broker ])

let prop_never_over_capacity =
  storm_property ~name:"no link is ever reserved beyond capacity" ~count:100 (fun lane ->
      let b = lane.Lockstep.broker in
      List.iter
        (fun (l : Topology.link) ->
          let link_id = l.Topology.link_id in
          let reserved = Node_mib.reserved (Broker.node_mib b) ~link_id in
          if reserved > l.Topology.capacity *. (1. +. 1e-9) then
            Lockstep.failf "link %d reserves %h of its %h" link_id reserved l.Topology.capacity)
        (Topology.links (Broker.topology b)))

let prop_admitted_meet_their_bounds =
  storm_property ~name:"every admitted reservation satisfies its delay bound" ~count:100
    (Lockstep.bounds_met ~what:"op")

let prop_edf_schedulable_after_storm =
  storm_property ~name:"all VT-EDF schedulers stay schedulable" ~count:100
    (Lockstep.schedulable ~what:"op")

(* Whenever the live set empties mid-storm, and after the final full
   teardown, every front end is blank. *)
let prop_teardown_all_restores_blank =
  storm_property ~name:"tearing everything down leaves a blank broker" ~count:100
    ~fronts:[ Lockstep.Uncached; Lockstep.Inline_router ]
    (fun lane -> if Model.live lane.Lockstep.model = [] then Lockstep.check_empty lane)

(* A broker restored from a snapshot taken after any op has the cached
   broker's digest, and one restored at a random op keeps deciding with
   it. *)
let prop_snapshot_survives_storm =
  storm_property ~name:"snapshot/restore reproduces any storm state" ~count:50
    ~fronts:[ Lockstep.Restored ] (fun lane ->
      let b = lane.Lockstep.broker in
      let standby = Broker.create (Topology.copy (Broker.topology b)) in
      match Snapshot.restore standby (Snapshot.save b) with
      | Error e -> Lockstep.failf "restore: %s" e
      | Ok _ when Audit.mib_digest standby <> Audit.mib_digest b ->
          Lockstep.failf "restored digest differs"
      | Ok _ -> ())

(* ------------------------------------------------------------------ *)
(* Routing *)

(* Routing against the reference broker's search ({!Model.route}): a
   string-keyed visited set, per-node reversed paths, out-links found by
   filtering every link.  The indexed search must pick exactly the same
   route. *)

let reference_out_links topology name =
  List.filter (fun (l : Topology.link) -> l.Topology.src = name) (Topology.links topology)

let link_ids = List.map (fun (l : Topology.link) -> l.Topology.link_id)

let arb_routed_topology =
  QCheck.make
    ~print:(fun (seed, regional, nodes, extra, down) ->
      Printf.sprintf "seed=%d regional=%b nodes=%d extra=%d down=%.2f" seed regional
        nodes extra down)
    QCheck.Gen.(
      let* seed = int_range 1 1_000_000 in
      let* regional = bool in
      let* nodes = int_range 2 12 in
      let* extra = int_range 0 10 in
      let* down = float_range 0. 0.5 in
      return (seed, regional, nodes, extra, down))

let prop_routing_matches_reference =
  QCheck.Test.make ~name:"indexed routing picks the reference route" ~count:100
    arb_routed_topology (fun (seed, regional, nodes, extra, down) ->
      let prng = Prng.create ~seed in
      let topology =
        if regional then
          Topo_gen.regions prng
            ~regions:(1 + (nodes mod 4))
            ~nodes_per_region:(max 2 (nodes / 2))
            ~extra_links:extra ()
        else Topo_gen.random prng ~nodes ~extra_links:extra ()
      in
      List.iter
        (fun (l : Topology.link) ->
          if Prng.float prng < down then
            Topology.set_link_state topology ~link_id:l.Topology.link_id ~up:false)
        (Topology.links topology);
      let agrees t =
        let nodes = Topology.nodes t in
        List.for_all
          (fun n -> link_ids (Topology.out_links t n) = link_ids (reference_out_links t n))
          nodes
        && List.for_all
             (fun ingress ->
               List.for_all
                 (fun egress ->
                   Option.map link_ids (Bbr_broker.Routing.shortest_path t ~ingress ~egress)
                   = Option.map link_ids (Model.route t ~ingress ~egress))
                 nodes)
             nodes
      in
      agrees topology && agrees (Topology.copy topology))

(* The routing memo (per-ingress trees and rows) answers what the
   reference broker's search answers, under random sequences of link failures and restores
   on regional domains: every ordered pair, [None] for self, unknown and
   unreachable routers, and the same registered path for a repeated ask
   within one state version.  A random subset of pairs is asked before
   each state change, so stale trees and rows would be read after it. *)
let prop_routing_memo_matches_fresh =
  QCheck.Test.make ~name:"memoized routing equals a fresh search under flaps" ~count:60
    (QCheck.make
       ~print:(fun (seed, regions, per, steps) ->
         Printf.sprintf "seed=%d regions=%d nodes_per_region=%d steps=%d" seed regions per
           steps)
       QCheck.Gen.(
         let* seed = int_range 1 1_000_000 in
         let* regions = int_range 1 4 in
         let* per = int_range 2 6 in
         let* steps = int_range 1 12 in
         return (seed, regions, per, steps)))
    (fun (seed, regions, per, steps) ->
      let module Path_mib = Bbr_broker.Path_mib in
      let module Routing = Bbr_broker.Routing in
      let prng = Prng.create ~seed in
      let topology =
        Topo_gen.regions prng ~regions ~nodes_per_region:per ~extra_links:(per / 2) ()
      in
      let routing =
        Routing.create topology (Path_mib.create (Node_mib.create topology))
      in
      let nodes = "nowhere" :: Topology.nodes topology in
      let links = Array.of_list (Topology.links topology) in
      let ok = ref true in
      let check ingress egress =
        let memo = Routing.path routing ~ingress ~egress in
        let fresh = Model.route topology ~ingress ~egress in
        let again = Routing.path routing ~ingress ~egress in
        let id = Option.map (fun (i : Path_mib.info) -> i.Path_mib.path_id) in
        ok :=
          !ok
          && Option.map (fun (i : Path_mib.info) -> link_ids i.Path_mib.links) memo
             = Option.map link_ids fresh
          && id memo = id again
          && ((ingress <> egress && ingress <> "nowhere" && egress <> "nowhere")
             || memo = None)
      in
      for _ = 1 to steps do
        List.iter
          (fun a -> List.iter (fun b -> if Prng.float prng < 0.3 then check a b) nodes)
          nodes;
        let l = links.(Prng.int prng ~bound:(Array.length links)) in
        Topology.set_link_state topology ~link_id:l.Topology.link_id
          ~up:(not (Topology.link_is_up topology ~link_id:l.Topology.link_id));
        List.iter (fun a -> List.iter (check a) nodes) nodes
      done;
      !ok)

(* Deterministic generator sanity checks. *)

let test_chain () =
  let t, ingress, egress = Topo_gen.chain ~hops:4 () in
  Alcotest.(check int) "links" 4 (Topology.num_links t);
  match Bbr_broker.Routing.shortest_path t ~ingress ~egress with
  | Some path -> Alcotest.(check int) "chain route" 4 (List.length path)
  | None -> Alcotest.fail "chain should route"

let test_star () =
  let t = Topo_gen.star ~leaves:5 () in
  Alcotest.(check int) "links" 10 (Topology.num_links t);
  match Bbr_broker.Routing.shortest_path t ~ingress:"N0" ~egress:"N3" with
  | Some path -> Alcotest.(check int) "two hops via hub" 2 (List.length path)
  | None -> Alcotest.fail "star should route"

let test_power_law_deterministic () =
  (* Same seed ⇒ digest-identical 10k-node topology; a different seed must
     not collide (the digest actually depends on the draw). *)
  let build seed =
    Topo_gen.power_law (Prng.create ~seed) ~nodes:10_000 ~m:2 ()
  in
  let a = Topo_gen.digest (build 42) and b = Topo_gen.digest (build 42) in
  Alcotest.(check string) "same seed, same digest" a b;
  let c = Topo_gen.digest (build 43) in
  if a = c then Alcotest.fail "different seeds should not digest equal"

let test_power_law_shape () =
  let prng = Prng.create ~seed:7 in
  let t = Topo_gen.power_law prng ~nodes:2_000 ~m:2 () in
  (* Every node except N0/N1 adds m undirected edges = 2m directed links. *)
  Alcotest.(check int) "link count" (2 * (1 + (2_000 - 2) * 2)) (Topology.num_links t);
  (* Preferential attachment concentrates degree: the top hub must be far
     above the mean degree (~4), and the minimum must be >= m. *)
  let degs = List.map snd (Topo_gen.degrees t) in
  let top = List.fold_left max 0 degs in
  if top < 20 then Alcotest.failf "no hub emerged (max degree %d)" top;
  List.iter (fun d -> if d < 2 then Alcotest.failf "degree %d < m" d) degs;
  (* hubs/leaves are consistent orderings of the same node set. *)
  let hubs = Topo_gen.hubs t in
  Alcotest.(check int) "hubs covers all nodes" 2_000 (List.length hubs);
  Alcotest.(check (list string)) "leaves is hubs reversed"
    (List.rev hubs) (Topo_gen.leaves t)

let test_power_law_connected () =
  let prng = Prng.create ~seed:11 in
  let t = Topo_gen.power_law prng ~nodes:60 ~m:2 () in
  let nodes = Topology.nodes t in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            match Bbr_broker.Routing.shortest_path t ~ingress:a ~egress:b with
            | Some _ -> ()
            | None -> Alcotest.failf "no route %s -> %s" a b)
        nodes)
    nodes

let test_random_connected () =
  (* Every random topology must be strongly connected (links are mirrored). *)
  let prng = Prng.create ~seed:5 in
  for _ = 1 to 20 do
    let t = Topo_gen.random prng ~nodes:8 ~extra_links:3 () in
    let nodes = Topology.nodes t in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a <> b then
              match Bbr_broker.Routing.shortest_path t ~ingress:a ~egress:b with
              | Some _ -> ()
              | None -> Alcotest.failf "no route %s -> %s" a b)
          nodes)
      nodes
  done

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_reservations_consistent;
        prop_never_over_capacity;
        prop_admitted_meet_their_bounds;
        prop_edf_schedulable_after_storm;
        prop_teardown_all_restores_blank;
        prop_snapshot_survives_storm;
        prop_routing_matches_reference;
        prop_routing_memo_matches_fresh;
      ]
  in
  Alcotest.run "random_topology"
    [
      ( "generators",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "power-law deterministic digest" `Quick
            test_power_law_deterministic;
          Alcotest.test_case "power-law shape" `Quick test_power_law_shape;
          Alcotest.test_case "power-law connected" `Quick test_power_law_connected;
        ] );
      ("storm properties", props);
    ]
