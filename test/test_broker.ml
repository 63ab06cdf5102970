(* Tests for the broker control plane: MIBs, policy, routing, and the
   per-flow request/teardown cycle. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Node_mib = Bbr_broker.Node_mib
module Path_mib = Bbr_broker.Path_mib
module Flow_mib = Bbr_broker.Flow_mib
module Policy = Bbr_broker.Policy
module Routing = Bbr_broker.Routing
module Broker = Bbr_broker.Broker

let check_float = Alcotest.(check (float 1e-9))

let type0 = Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.

let diamond () =
  (* A -> B -> D (short) and A -> C1 -> C2 -> D (long) *)
  let t = Topology.create () in
  let ab = Topology.add_link t ~src:"A" ~dst:"B" ~capacity:1e6 Topology.Rate_based in
  let bd = Topology.add_link t ~src:"B" ~dst:"D" ~capacity:1e6 Topology.Rate_based in
  let ac = Topology.add_link t ~src:"A" ~dst:"C1" ~capacity:1e6 Topology.Rate_based in
  let cc = Topology.add_link t ~src:"C1" ~dst:"C2" ~capacity:1e6 Topology.Rate_based in
  let cd = Topology.add_link t ~src:"C2" ~dst:"D" ~capacity:1e6 Topology.Rate_based in
  (t, [ ab; bd ], [ ac; cc; cd ])

(* ------------------------------------------------------------------ *)
(* Node_mib *)

let test_node_mib_reserve_release () =
  let t, short, _ = diamond () in
  let mib = Node_mib.create t in
  let id = (List.hd short).Topology.link_id in
  check_float "initial residual" 1e6 (Node_mib.residual mib ~link_id:id);
  Node_mib.reserve mib ~link_id:id 400_000.;
  check_float "after reserve" 600_000. (Node_mib.residual mib ~link_id:id);
  Node_mib.release mib ~link_id:id 150_000.;
  check_float "after release" 750_000. (Node_mib.residual mib ~link_id:id)

let test_node_mib_over_capacity () =
  let t, short, _ = diamond () in
  let mib = Node_mib.create t in
  let id = (List.hd short).Topology.link_id in
  Node_mib.reserve mib ~link_id:id 999_999.;
  Alcotest.(check bool) "over-capacity raises" true
    (try
       Node_mib.reserve mib ~link_id:id 100_000.;
       false
     with Invalid_argument _ -> true)

let test_node_mib_over_release () =
  let t, short, _ = diamond () in
  let mib = Node_mib.create t in
  let id = (List.hd short).Topology.link_id in
  Node_mib.reserve mib ~link_id:id 1_000.;
  Alcotest.(check bool) "over-release raises" true
    (try
       Node_mib.release mib ~link_id:id 2_000.;
       false
     with Invalid_argument _ -> true)

let test_node_mib_edf_presence () =
  let t = Topology.create () in
  let r = Topology.add_link t ~src:"A" ~dst:"B" ~capacity:1e6 Topology.Rate_based in
  let d = Topology.add_link t ~src:"B" ~dst:"C" ~capacity:1e6 Topology.Delay_based in
  let mib = Node_mib.create t in
  Alcotest.(check bool) "rate-based has no EDF" true
    ((Node_mib.entry mib ~link_id:r.Topology.link_id).Node_mib.edf = None);
  Alcotest.(check bool) "delay-based has EDF" true
    ((Node_mib.entry mib ~link_id:d.Topology.link_id).Node_mib.edf <> None)

let test_node_mib_change_hook () =
  let t, short, _ = diamond () in
  let mib = Node_mib.create t in
  let changed = ref [] in
  Node_mib.on_change mib (fun ~link_id -> changed := link_id :: !changed);
  let id = (List.hd short).Topology.link_id in
  Node_mib.reserve mib ~link_id:id 1.;
  Node_mib.release mib ~link_id:id 1.;
  Alcotest.(check (list int)) "hook fired" [ id; id ] !changed

(* ------------------------------------------------------------------ *)
(* Path_mib *)

let test_path_mib_register_and_cache () =
  let t, short, _ = diamond () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let info = Path_mib.register path_mib short in
  Alcotest.(check int) "hops" 2 info.Path_mib.hops;
  check_float "cres full" 1e6 (Path_mib.residual path_mib info);
  (* Reserving on one link updates the cached minimum. *)
  Node_mib.reserve node_mib ~link_id:(List.nth short 1).Topology.link_id 300_000.;
  check_float "cres tracks" 700_000. (Path_mib.residual path_mib info)

let test_path_mib_dedup () =
  let t, short, _ = diamond () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let a = Path_mib.register path_mib short in
  let b = Path_mib.register path_mib short in
  Alcotest.(check int) "same id" a.Path_mib.path_id b.Path_mib.path_id;
  Alcotest.(check int) "one path" 1 (List.length (Path_mib.paths path_mib))

let test_path_mib_rejects_garbage () =
  let t, short, long = diamond () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  Alcotest.check_raises "empty" (Invalid_argument "Path_mib.register: empty path")
    (fun () -> ignore (Path_mib.register path_mib []));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Path_mib.register: disconnected path") (fun () ->
      ignore (Path_mib.register path_mib [ List.hd short; List.nth long 2 ]))

let test_path_mib_shared_link () =
  (* Two paths sharing a link both see reservations on it. *)
  let t = Topology.create () in
  let a = Topology.add_link t ~src:"A" ~dst:"M" ~capacity:1e6 Topology.Rate_based in
  let b = Topology.add_link t ~src:"B" ~dst:"M" ~capacity:1e6 Topology.Rate_based in
  let m = Topology.add_link t ~src:"M" ~dst:"Z" ~capacity:1e6 Topology.Rate_based in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let p1 = Path_mib.register path_mib [ a; m ] in
  let p2 = Path_mib.register path_mib [ b; m ] in
  Node_mib.reserve node_mib ~link_id:m.Topology.link_id 900_000.;
  check_float "p1 sees it" 100_000. (Path_mib.residual path_mib p1);
  check_float "p2 sees it" 100_000. (Path_mib.residual path_mib p2)

let test_path_mib_lazy_residual () =
  (* C_res is read on demand: after a reserve/release storm over many
     overlapping paths, every path's residual is the min over its links. *)
  let prng = Bbr_util.Prng.create ~seed:16 in
  let t = Bbr_workload.Topo_gen.random prng ~nodes:10 ~extra_links:8 () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let nodes = Topology.nodes t in
  List.iter
    (fun ingress ->
      List.iter
        (fun egress ->
          Option.iter
            (fun links -> ignore (Path_mib.register path_mib links))
            (Routing.shortest_path t ~ingress ~egress))
        nodes)
    nodes;
  let paths = Array.of_list (Path_mib.paths path_mib) in
  let expected info =
    List.fold_left
      (fun acc (l : Topology.link) ->
        Float.min acc (Node_mib.residual node_mib ~link_id:l.Topology.link_id))
      infinity info.Path_mib.links
  in
  let live = ref [] in
  for _ = 1 to 2_000 do
    (match !live with
    | (links, amount) :: rest when Bbr_util.Prng.float prng < 0.4 ->
        List.iter
          (fun (l : Topology.link) ->
            Node_mib.release node_mib ~link_id:l.Topology.link_id amount)
          links;
        live := rest
    | _ ->
        let info = paths.(Bbr_util.Prng.int prng ~bound:(Array.length paths)) in
        let amount = Bbr_util.Prng.float_range prng ~lo:1. ~hi:50_000. in
        if Path_mib.residual path_mib info >= amount then begin
          List.iter
            (fun (l : Topology.link) ->
              Node_mib.reserve node_mib ~link_id:l.Topology.link_id amount)
            info.Path_mib.links;
          live := (info.Path_mib.links, amount) :: !live
        end);
    let info = paths.(Bbr_util.Prng.int prng ~bound:(Array.length paths)) in
    check_float "residual is the link min" (expected info)
      (Path_mib.residual path_mib info)
  done;
  if !live = [] then Alcotest.fail "storm left nothing reserved";
  Array.iter
    (fun info ->
      check_float "every path after the storm" (expected info)
        (Path_mib.residual path_mib info))
    paths;
  let stranger = { (paths.(0)) with Path_mib.path_id = Array.length paths } in
  Alcotest.check_raises "unregistered path id"
    (Invalid_argument "Path_mib.residual: unregistered path") (fun () ->
      ignore (Path_mib.residual path_mib stranger))

(* ------------------------------------------------------------------ *)
(* Flow_mib *)

let test_flow_mib_cycle () =
  let t, short, long = diamond () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let info = Path_mib.register path_mib short in
  let mib = Flow_mib.create () in
  let id = Flow_mib.fresh_id mib in
  let record =
    {
      Flow_mib.flow = id;
      request = { Types.profile = type0; dreq = 2.; ingress = "A"; egress = "D" };
      reservation = { Types.rate = 50_000.; delay = 0. };
      path = info;
      admitted_at = 0.;
    }
  in
  Flow_mib.add mib record;
  Alcotest.(check int) "count" 1 (Flow_mib.count mib);
  Alcotest.(check bool) "find" true (Flow_mib.find mib id <> None);
  check_float "total rate" 50_000. (Flow_mib.total_reserved_rate mib);
  Alcotest.(check bool) "fresh ids distinct" true (Flow_mib.fresh_id mib <> id);
  Alcotest.(check bool) "find returns the stored record" true
    (match Flow_mib.find mib id with Some r -> r == record | None -> false);
  (match Flow_mib.remove mib id with
  | Some r -> Alcotest.(check int) "removed the record" id r.Flow_mib.flow
  | None -> Alcotest.fail "expected record");
  Alcotest.(check int) "empty" 0 (Flow_mib.count mib);
  (* [crossing]: only the flows whose path uses the link, in ascending
     id whatever the insertion order, also after a remove and a re-add. *)
  let long_info = Path_mib.register path_mib long in
  let on path flow = { record with Flow_mib.flow; path } in
  List.iter
    (fun (flow, path) -> Flow_mib.add mib (on path flow))
    [ (7, info); (2, long_info); (5, info); (1, info); (4, long_info) ];
  let crossing link =
    List.map
      (fun (r : Flow_mib.record) -> r.Flow_mib.flow)
      (Flow_mib.crossing mib ~link_id:link.Topology.link_id)
  in
  Alcotest.(check (list int)) "short-path flows" [ 1; 5; 7 ] (crossing (List.hd short));
  Alcotest.(check (list int)) "long-path flows" [ 2; 4 ] (crossing (List.hd long));
  ignore (Flow_mib.remove mib 1);
  Alcotest.(check (list int)) "after remove" [ 5; 7 ] (crossing (List.hd short));
  Flow_mib.add mib (on info 1);
  Alcotest.(check (list int)) "after re-add" [ 1; 5; 7 ] (crossing (List.hd short));
  check_float "total rate in id order" 250_000. (Flow_mib.total_reserved_rate mib)

let test_flow_mib_duplicate () =
  let t, short, _ = diamond () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let info = Path_mib.register path_mib short in
  let mib = Flow_mib.create () in
  let record =
    {
      Flow_mib.flow = 3;
      request = { Types.profile = type0; dreq = 2.; ingress = "A"; egress = "D" };
      reservation = { Types.rate = 1.; delay = 0. };
      path = info;
      admitted_at = 0.;
    }
  in
  Flow_mib.add mib record;
  Alcotest.(check bool) "duplicate raises" true
    (try
       Flow_mib.add mib record;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Policy *)

let req ?(ingress = "A") ?(egress = "D") ?(dreq = 2.) () =
  { Types.profile = type0; dreq; ingress; egress }

let test_policy_default_allow () =
  let p = Policy.create () in
  Alcotest.(check bool) "allowed" true (Policy.check p (req ()) = Ok ())

let test_policy_default_deny () =
  let p = Policy.create ~default:Policy.Deny () in
  Alcotest.(check bool) "denied" true (Policy.check p (req ()) = Error "default")

let test_policy_first_match_wins () =
  let p = Policy.create () in
  Policy.add_ingress_rule p ~name:"block-A" ~ingress:"A" Policy.Deny;
  Policy.add_ingress_rule p ~name:"allow-A" ~ingress:"A" Policy.Allow;
  Alcotest.(check bool) "first rule wins" true
    (Policy.check p (req ()) = Error "block-A");
  Alcotest.(check int) "rule count" 2 (Policy.rule_count p)

let test_policy_peak_limit () =
  let p = Policy.create () in
  Policy.add_peak_limit p ~name:"cap-peak" ~max_peak:50_000.;
  Alcotest.(check bool) "peak over limit denied" true
    (Policy.check p (req ()) = Error "cap-peak")

let test_policy_delay_floor () =
  let p = Policy.create () in
  Policy.add_delay_floor p ~name:"no-tight" ~min_dreq:1.;
  Alcotest.(check bool) "tight denied" true
    (Policy.check p (req ~dreq:0.5 ()) = Error "no-tight");
  Alcotest.(check bool) "loose ok" true (Policy.check p (req ~dreq:2. ()) = Ok ())

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_routing_shortest () =
  let t, short, _ = diamond () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let r = Routing.create t path_mib in
  match Routing.path r ~ingress:"A" ~egress:"D" with
  | Some info ->
      Alcotest.(check int) "two hops" 2 info.Path_mib.hops;
      Alcotest.(check (list int)) "short path"
        (List.map (fun (l : Topology.link) -> l.Topology.link_id) short)
        (List.map (fun (l : Topology.link) -> l.Topology.link_id) info.Path_mib.links)
  | None -> Alcotest.fail "expected a path"

let test_routing_unreachable () =
  let t, _, _ = diamond () in
  ignore (Topology.add_link t ~src:"X" ~dst:"Y" ~capacity:1e6 Topology.Rate_based);
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let r = Routing.create t path_mib in
  Alcotest.(check bool) "no route" true (Routing.path r ~ingress:"A" ~egress:"X" = None);
  Alcotest.(check bool) "unknown node" true
    (Routing.path r ~ingress:"nowhere" ~egress:"D" = None);
  Alcotest.(check bool) "self" true (Routing.path r ~ingress:"A" ~egress:"A" = None)

let test_routing_memoized () =
  let t, _, _ = diamond () in
  let node_mib = Node_mib.create t in
  let path_mib = Path_mib.create node_mib in
  let r = Routing.create t path_mib in
  let a = Routing.path r ~ingress:"A" ~egress:"D" in
  let b = Routing.path r ~ingress:"A" ~egress:"D" in
  Alcotest.(check bool) "same info" true
    (match (a, b) with
    | Some x, Some y -> x.Path_mib.path_id = y.Path_mib.path_id
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Broker: per-flow cycle *)

let test_broker_request_teardown_cycle () =
  let t, short, _ = diamond () in
  let broker = Broker.create t in
  let r = req ~dreq:3. () in
  match Broker.request broker r with
  | Ok (flow, res) ->
      Alcotest.(check bool) "rate sane" true (res.Types.rate >= 50_000.);
      Alcotest.(check int) "booked" 1 (Broker.per_flow_count broker);
      let link_id = (List.hd short).Topology.link_id in
      Alcotest.(check bool) "reserved on path" true
        (Bbr_broker.Node_mib.reserved (Broker.node_mib broker) ~link_id > 0.);
      Broker.teardown broker flow;
      Alcotest.(check int) "released" 0 (Broker.per_flow_count broker);
      check_float "bandwidth back" 0.
        (Bbr_broker.Node_mib.reserved (Broker.node_mib broker) ~link_id)
  | Error e -> Alcotest.failf "unexpected reject: %a" Types.pp_reject_reason e

let test_broker_policy_reject () =
  let t, _, _ = diamond () in
  let policy = Policy.create () in
  Policy.add_ingress_rule policy ~name:"no-A" ~ingress:"A" Policy.Deny;
  let broker = Broker.create ~policy t in
  match Broker.request broker (req ()) with
  | Error (Types.Policy_denied "no-A") -> ()
  | _ -> Alcotest.fail "expected policy rejection"

let test_broker_no_route () =
  let t, _, _ = diamond () in
  let broker = Broker.create t in
  match Broker.request broker (req ~egress:"Mars" ()) with
  | Error Types.No_route -> ()
  | _ -> Alcotest.fail "expected no-route rejection"

let test_broker_fills_to_capacity () =
  let t, _, _ = diamond () in
  let broker = Broker.create t in
  (* 1 Mb/s path, 50 kb/s flows with a loose bound -> exactly 20 fit. *)
  let admitted = ref 0 in
  let continue = ref true in
  while !continue do
    match Broker.request broker (req ~dreq:10. ()) with
    | Ok _ -> incr admitted
    | Error Types.Insufficient_bandwidth -> continue := false
    | Error e -> Alcotest.failf "unexpected reject: %a" Types.pp_reject_reason e
  done;
  Alcotest.(check int) "20 flows of rho on 1 Mb/s" 20 !admitted

let test_broker_edge_config_pushed () =
  let t, _, _ = diamond () in
  let pushed = ref [] in
  let broker =
    Broker.create ~on_edge_config:(fun ~flow res -> pushed := (flow, res) :: !pushed) t
  in
  (match Broker.request broker (req ~dreq:3. ()) with
  | Ok (flow, res) -> (
      match !pushed with
      | [ (f, r) ] ->
          Alcotest.(check int) "flow id" flow f;
          check_float "rate" res.Types.rate r.Types.rate
      | _ -> Alcotest.fail "expected one push")
  | Error _ -> Alcotest.fail "expected admission")

let test_broker_teardown_unknown () =
  (* Idempotent: an unknown (or already-released) flow is a no-op, so
     retransmitted DRQs are harmless. *)
  let t, _, _ = diamond () in
  let broker = Broker.create t in
  Broker.teardown broker 99;
  Alcotest.(check int) "still empty" 0 (Broker.per_flow_count broker);
  match Broker.request broker (req ~dreq:3. ()) with
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e
  | Ok (flow, _) ->
      Broker.teardown broker flow;
      Broker.teardown broker flow;
      Alcotest.(check int) "released once" 0 (Broker.per_flow_count broker)

let test_broker_request_fixed () =
  let t, _, _ = diamond () in
  let broker = Broker.create t in
  (* Rate below the profile's sustained rate is refused. *)
  (match Broker.request_fixed broker (req ()) ~rate:10_000. () with
  | Error Types.Delay_unachievable -> ()
  | _ -> Alcotest.fail "expected rate-window rejection");
  (* A valid rate books without any delay-budget computation. *)
  (match Broker.request_fixed broker (req ~dreq:0.0001 ()) ~rate:80_000. () with
  | Ok flow ->
      Alcotest.(check int) "booked" 1 (Broker.per_flow_count broker);
      Broker.teardown broker flow
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e);
  (* Capacity still enforced. *)
  List.iter
    (fun _ -> ignore (Broker.request_fixed broker (req ()) ~rate:100_000. ()))
    (List.init 10 Fun.id);
  match Broker.request_fixed broker (req ()) ~rate:100_000. () with
  | Error Types.Insufficient_bandwidth -> ()
  | _ -> Alcotest.fail "expected capacity rejection"

let test_broker_request_fixed_mixed_needs_delay () =
  let t = Topology.create () in
  ignore (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:1e6 Topology.Delay_based);
  let broker = Broker.create t in
  let r = { Types.profile = type0; dreq = 2.; ingress = "A"; egress = "B" } in
  Alcotest.(check bool) "delay mandatory" true
    (try
       ignore (Broker.request_fixed broker r ~rate:60_000. ());
       false
     with Invalid_argument _ -> true);
  match Broker.request_fixed broker r ~rate:60_000. ~delay:0.1 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e

let test_broker_teardown_frees_edf () =
  (* On a mixed path, teardown must also remove the EDF entries so later
     flows see the capacity again. *)
  let t = Topology.create () in
  let a = Topology.add_link t ~src:"A" ~dst:"B" ~capacity:200_000. Topology.Rate_based in
  let b = Topology.add_link t ~src:"B" ~dst:"C" ~capacity:200_000. Topology.Delay_based in
  ignore a;
  ignore b;
  let broker = Broker.create t in
  let r =
    { Types.profile = type0; dreq = 3.; ingress = "A"; egress = "C" }
  in
  let flows = ref [] in
  let continue = ref true in
  while !continue do
    match Broker.request broker r with
    | Ok (flow, _) -> flows := flow :: !flows
    | Error _ -> continue := false
  done;
  let full_count = List.length !flows in
  Alcotest.(check bool) "at least one admitted" true (full_count >= 1);
  (* Tear everything down and fill again: identical count. *)
  List.iter (Broker.teardown broker) !flows;
  let again = ref 0 in
  let continue = ref true in
  while !continue do
    match Broker.request broker r with
    | Ok _ -> incr again
    | Error _ -> continue := false
  done;
  Alcotest.(check int) "same count after teardown" full_count !again

let () =
  Alcotest.run "broker"
    [
      ( "node_mib",
        [
          Alcotest.test_case "reserve/release" `Quick test_node_mib_reserve_release;
          Alcotest.test_case "over capacity" `Quick test_node_mib_over_capacity;
          Alcotest.test_case "over release" `Quick test_node_mib_over_release;
          Alcotest.test_case "edf presence" `Quick test_node_mib_edf_presence;
          Alcotest.test_case "change hook" `Quick test_node_mib_change_hook;
        ] );
      ( "path_mib",
        [
          Alcotest.test_case "register+cache" `Quick test_path_mib_register_and_cache;
          Alcotest.test_case "dedup" `Quick test_path_mib_dedup;
          Alcotest.test_case "rejects garbage" `Quick test_path_mib_rejects_garbage;
          Alcotest.test_case "shared link" `Quick test_path_mib_shared_link;
          Alcotest.test_case "lazy residual" `Quick test_path_mib_lazy_residual;
        ] );
      ( "flow_mib",
        [
          Alcotest.test_case "cycle" `Quick test_flow_mib_cycle;
          Alcotest.test_case "duplicate" `Quick test_flow_mib_duplicate;
        ] );
      ( "policy",
        [
          Alcotest.test_case "default allow" `Quick test_policy_default_allow;
          Alcotest.test_case "default deny" `Quick test_policy_default_deny;
          Alcotest.test_case "first match" `Quick test_policy_first_match_wins;
          Alcotest.test_case "peak limit" `Quick test_policy_peak_limit;
          Alcotest.test_case "delay floor" `Quick test_policy_delay_floor;
        ] );
      ( "routing",
        [
          Alcotest.test_case "shortest" `Quick test_routing_shortest;
          Alcotest.test_case "unreachable" `Quick test_routing_unreachable;
          Alcotest.test_case "memoized" `Quick test_routing_memoized;
        ] );
      ( "broker",
        [
          Alcotest.test_case "request/teardown" `Quick test_broker_request_teardown_cycle;
          Alcotest.test_case "policy reject" `Quick test_broker_policy_reject;
          Alcotest.test_case "no route" `Quick test_broker_no_route;
          Alcotest.test_case "fills to capacity" `Quick test_broker_fills_to_capacity;
          Alcotest.test_case "edge config push" `Quick test_broker_edge_config_pushed;
          Alcotest.test_case "teardown unknown" `Quick test_broker_teardown_unknown;
          Alcotest.test_case "request_fixed" `Quick test_broker_request_fixed;
          Alcotest.test_case "request_fixed mixed" `Quick
            test_broker_request_fixed_mixed_needs_delay;
          Alcotest.test_case "teardown frees EDF" `Quick test_broker_teardown_frees_edf;
        ] );
    ]
