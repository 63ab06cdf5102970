(* Robustness properties of the broker on random domains: the guarantees
   must not depend on the particular Figure-8 topology. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Vtedf = Bbr_vtrs.Vtedf
module Delay = Bbr_vtrs.Delay
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Node_mib = Bbr_broker.Node_mib
module Topo_gen = Bbr_workload.Topo_gen
module Prng = Bbr_util.Prng

(* ------------------------------------------------------------------ *)
(* Generators *)

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* nodes = int_range 3 12 in
    let* extra = int_range 0 10 in
    let* ops = int_range 10 120 in
    return (seed, nodes, extra, ops))

let arb_scenario =
  QCheck.make
    ~print:(fun (seed, nodes, extra, ops) ->
      Printf.sprintf "seed=%d nodes=%d extra=%d ops=%d" seed nodes extra ops)
    scenario_gen

(* Run a random admit/teardown storm against a random topology; returns
   the broker, the live flows, and every (flow, reservation, path) ever
   admitted. *)
let run_storm (seed, nodes, extra, ops) =
  let prng = Prng.create ~seed in
  let topology = Topo_gen.random prng ~nodes ~extra_links:extra () in
  let broker = Broker.create topology in
  let live = ref [] in
  let admitted = ref [] in
  for _ = 1 to ops do
    if !live <> [] && Prng.float prng < 0.35 then begin
      match !live with
      | flow :: rest ->
          Broker.teardown broker flow;
          live := rest
      | [] -> ()
    end
    else begin
      let ingress, egress = Topo_gen.random_endpoints prng topology in
      let ty = Prng.int prng ~bound:4 in
      let profile = Bbr_workload.Profiles.profile ty in
      let dreq = Prng.float_range prng ~lo:0.3 ~hi:6. in
      let req = { Types.profile; dreq; ingress; egress } in
      match Broker.request broker req with
      | Ok (flow, res) ->
          live := flow :: !live;
          admitted := (flow, req, res) :: !admitted
      | Error _ -> ()
    end
  done;
  (topology, broker, !live, !admitted)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_reservations_consistent =
  QCheck.Test.make ~name:"link reservations equal the sum of live flows" ~count:100
    arb_scenario (fun spec ->
      let topology, broker, live, _ = run_storm spec in
      let expected = Hashtbl.create 16 in
      List.iter
        (fun flow ->
          match Bbr_broker.Flow_mib.find (Broker.flow_mib broker) flow with
          | None -> ()
          | Some r ->
              List.iter
                (fun (l : Topology.link) ->
                  let id = l.Topology.link_id in
                  Hashtbl.replace expected id
                    (Option.value ~default:0. (Hashtbl.find_opt expected id)
                    +. r.Bbr_broker.Flow_mib.reservation.Types.rate))
                r.Bbr_broker.Flow_mib.path.Bbr_broker.Path_mib.links)
        live;
      List.for_all
        (fun (l : Topology.link) ->
          let id = l.Topology.link_id in
          let want = Option.value ~default:0. (Hashtbl.find_opt expected id) in
          Float.abs (Node_mib.reserved (Broker.node_mib broker) ~link_id:id -. want)
          < 1e-3)
        (Topology.links topology))

let prop_never_over_capacity =
  QCheck.Test.make ~name:"no link is ever reserved beyond capacity" ~count:100
    arb_scenario (fun spec ->
      let topology, broker, _, _ = run_storm spec in
      List.for_all
        (fun (l : Topology.link) ->
          Node_mib.reserved (Broker.node_mib broker) ~link_id:l.Topology.link_id
          <= l.Topology.capacity +. 1e-3)
        (Topology.links topology))

let prop_admitted_meet_their_bounds =
  QCheck.Test.make ~name:"every admitted reservation satisfies its delay bound"
    ~count:100 arb_scenario (fun spec ->
      let _, broker, _, admitted = run_storm spec in
      List.for_all
        (fun (flow, (req : Types.request), (res : Types.reservation)) ->
          match Bbr_broker.Flow_mib.find (Broker.flow_mib broker) flow with
          | None -> true (* already torn down; was checked when admitted *)
          | Some r ->
              let info = r.Bbr_broker.Flow_mib.path in
              Delay.e2e_bound req.Types.profile
                ~q:info.Bbr_broker.Path_mib.rate_hops
                ~delay_hops:info.Bbr_broker.Path_mib.delay_hops
                ~rate:res.Types.rate ~delay:res.Types.delay
                ~d_tot:info.Bbr_broker.Path_mib.d_tot
              <= req.Types.dreq +. 1e-6)
        admitted)

let prop_edf_schedulable_after_storm =
  QCheck.Test.make ~name:"all VT-EDF schedulers stay schedulable" ~count:100
    arb_scenario (fun spec ->
      let topology, broker, _, _ = run_storm spec in
      List.for_all
        (fun (l : Topology.link) ->
          match
            (Node_mib.entry (Broker.node_mib broker) ~link_id:l.Topology.link_id)
              .Node_mib.edf
          with
          | Some edf -> Vtedf.schedulable edf
          | None -> true)
        (Topology.links topology))

let prop_teardown_all_restores_blank =
  QCheck.Test.make ~name:"tearing everything down leaves a blank broker" ~count:100
    arb_scenario (fun spec ->
      let topology, broker, live, _ = run_storm spec in
      List.iter (Broker.teardown broker) live;
      Node_mib.total_reserved (Broker.node_mib broker) < 1e-3
      && Broker.per_flow_count broker = 0
      && List.for_all
           (fun (l : Topology.link) ->
             match
               (Node_mib.entry (Broker.node_mib broker) ~link_id:l.Topology.link_id)
                 .Node_mib.edf
             with
             | Some edf -> Vtedf.flow_count edf = 0
             | None -> true)
           (Topology.links topology))

let prop_snapshot_survives_storm =
  QCheck.Test.make ~name:"snapshot/restore reproduces any storm state" ~count:50
    arb_scenario (fun ((seed, nodes, extra, _) as spec) ->
      let _, broker, _, _ = run_storm spec in
      (* Rebuild the same topology from the same seed prefix. *)
      let prng = Prng.create ~seed in
      let topology' = Topo_gen.random prng ~nodes ~extra_links:extra () in
      let standby = Broker.create topology' in
      match Bbr_broker.Snapshot.restore standby (Bbr_broker.Snapshot.save broker) with
      | Error _ -> false
      | Ok _ ->
          Float.abs
            (Node_mib.total_reserved (Broker.node_mib broker)
            -. Node_mib.total_reserved (Broker.node_mib standby))
          < 1e-3
          && Broker.per_flow_count broker = Broker.per_flow_count standby)

(* Routing oracle: the breadth-first search as it stood before the
   topology carried an adjacency index and node indices — string-keyed
   visited set, per-node reversed paths, out-links found by filtering every
   link.  The indexed search must pick exactly the same route. *)

let reference_out_links topology name =
  List.filter (fun (l : Topology.link) -> l.Topology.src = name) (Topology.links topology)

let reference_bfs topology ~ingress ~egress =
  let nodes = Topology.nodes topology in
  if not (List.mem ingress nodes && List.mem egress nodes)
  then None
  else if ingress = egress then None
  else begin
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited ingress ();
    let frontier = Queue.create () in
    Queue.add (ingress, []) frontier;
    let result = ref None in
    while !result = None && not (Queue.is_empty frontier) do
      let node, rev_path = Queue.take frontier in
      List.iter
        (fun (link : Topology.link) ->
          if
            !result = None
            && Topology.link_is_up topology ~link_id:link.Topology.link_id
            && not (Hashtbl.mem visited link.Topology.dst)
          then begin
            Hashtbl.replace visited link.Topology.dst ();
            let rev_path' = link :: rev_path in
            if link.Topology.dst = egress then result := Some (List.rev rev_path')
            else Queue.add (link.Topology.dst, rev_path') frontier
          end)
        (reference_out_links topology node)
    done;
    !result
  end

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
                   = Option.map link_ids (reference_bfs t ~ingress ~egress))
                 nodes)
             nodes
      in
      agrees topology && agrees (Topology.copy topology))

(* The routing memo (per-ingress trees and rows) answers what a fresh
   search answers, under random sequences of link failures and restores
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
        let fresh = Routing.shortest_path topology ~ingress ~egress in
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
