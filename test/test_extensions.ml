(* Tests for the extension modules: COPS-style broker signaling, the
   hierarchical (quota-delegating) edge broker, the SCFQ discipline and the
   per-hop buffer instrumentation. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Cops = Bbr_broker.Cops
module Edge_broker = Bbr_broker.Edge_broker
module Engine = Bbr_netsim.Engine
module Hop = Bbr_netsim.Hop
module Packet = Bbr_netsim.Packet
module Server = Bbr_netsim.Server
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles

let check_float = Alcotest.(check (float 1e-6))

let type0 = Profiles.profile 0

let req ?(dreq = 2.44) () =
  { Types.profile = type0; dreq; ingress = Fig8.ingress1; egress = Fig8.egress1 }

(* ------------------------------------------------------------------ *)
(* Cops *)

let mk_cops () =
  let engine = Engine.create () in
  let broker = Broker.create (Fig8.topology `Rate_only) in
  let cops =
    Cops.create broker ~defer:(fun delay f -> Engine.schedule_after engine ~delay f) ()
  in
  (engine, broker, cops)

let test_cops_admit_round_trip () =
  let engine, broker, cops = mk_cops () in
  let decision = ref None in
  Cops.request cops (req ()) ~on_decision:(fun d -> decision := Some d);
  Alcotest.(check int) "in flight" 1 (Cops.pending cops);
  Engine.run engine;
  (match !decision with
  | Some (Ok (_, res)) -> check_float "rate" 50_000. res.Types.rate
  | Some (Error _) -> Alcotest.fail "expected admit"
  | None -> Alcotest.fail "decision never arrived");
  Alcotest.(check int) "none in flight" 0 (Cops.pending cops);
  (* REQ + DEC + RPT *)
  Alcotest.(check int) "3 messages per admitted flow" 3 (Cops.messages cops);
  Alcotest.(check int) "flow booked at broker" 1 (Broker.per_flow_count broker)

let test_cops_reject_costs_two () =
  let engine, _broker, cops = mk_cops () in
  let decision = ref None in
  Cops.request cops (req ~dreq:0.1 ()) ~on_decision:(fun d -> decision := Some d);
  Engine.run engine;
  (match !decision with
  | Some (Error Types.Delay_unachievable) -> ()
  | _ -> Alcotest.fail "expected delay rejection");
  Alcotest.(check int) "2 messages per rejected flow" 2 (Cops.messages cops)

let test_cops_teardown () =
  let engine, broker, cops = mk_cops () in
  let flow = ref None in
  Cops.request cops (req ()) ~on_decision:(fun d ->
      match d with Ok (f, _) -> flow := Some f | Error _ -> ());
  Engine.run engine;
  Cops.teardown cops (Option.get !flow);
  Engine.run engine;
  Alcotest.(check int) "released at broker" 0 (Broker.per_flow_count broker);
  Alcotest.(check int) "4 messages total" 4 (Cops.messages cops)

let test_cops_overhead_is_path_independent () =
  (* The whole point: message cost does not scale with path length, and
     there is no refresh traffic over time. *)
  let engine, _broker, cops = mk_cops () in
  for _ = 1 to 10 do
    Cops.request cops (req ()) ~on_decision:(fun _ -> ())
  done;
  Engine.run ~until:1_000. engine;
  Alcotest.(check int) "30 messages for 10 flows, forever" 30 (Cops.messages cops)

(* ------------------------------------------------------------------ *)
(* Edge_broker *)

let test_edge_broker_create_checks () =
  let central = Broker.create (Fig8.topology `Mixed) in
  (match Edge_broker.create ~central ~ingress:Fig8.ingress1 ~egress:"nowhere" ~chunk:1e5 with
  | Error Types.No_route -> ()
  | _ -> Alcotest.fail "expected no-route");
  match Edge_broker.create ~central ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~chunk:1e5 with
  | Error Types.Not_schedulable -> ()
  | _ -> Alcotest.fail "mixed paths must be refused"

let mk_edge ?(chunk = 500_000.) () =
  let central = Broker.create (Fig8.topology `Rate_only) in
  match Edge_broker.create ~central ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~chunk with
  | Ok eb -> (central, eb)
  | Error _ -> Alcotest.fail "edge broker creation failed"

let test_edge_broker_local_admission () =
  let central, eb = mk_edge () in
  (match Edge_broker.request eb (req ()) with
  | Ok (_, res) -> check_float "same rate as flat broker" 50_000. res.Types.rate
  | Error _ -> Alcotest.fail "expected admit");
  (* One chunk acquired; the flow itself never reached the central MIBs. *)
  Alcotest.(check int) "one central transaction" 1 (Edge_broker.central_transactions eb);
  Alcotest.(check int) "central holds the quota flow" 1 (Broker.per_flow_count central);
  Alcotest.(check int) "edge holds the user flow" 1 (Edge_broker.local_flows eb);
  check_float "quota" 500_000. (Edge_broker.quota_total eb);
  check_float "used" 50_000. (Edge_broker.quota_used eb)

let test_edge_broker_fill_matches_central () =
  (* The hierarchy must not change the admission count: still 30 type-0
     flows at the 2.44 bound. *)
  let _central, eb = mk_edge ~chunk:500_000. () in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Edge_broker.request eb (req ()) with
    | Ok _ -> incr n
    | Error _ -> continue := false
  done;
  Alcotest.(check int) "30 flows" 30 !n;
  (* 3 chunks of 500k cover 1.5 Mb/s; the final refusal costs 2 more. *)
  Alcotest.(check bool) "few central transactions" true
    (Edge_broker.central_transactions eb <= 5)

let test_edge_broker_exact_shortfall () =
  (* With an awkward chunk size the edge broker falls back to asking for
     the exact shortfall, so capacity is still fully usable. *)
  let _central, eb = mk_edge ~chunk:400_000. () in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Edge_broker.request eb (req ()) with
    | Ok _ -> incr n
    | Error _ -> continue := false
  done;
  Alcotest.(check int) "still 30 flows" 30 !n

let test_edge_broker_teardown_and_return () =
  let central, eb = mk_edge ~chunk:100_000. () in
  let flows =
    List.init 4 (fun _ ->
        match Edge_broker.request eb (req ()) with
        | Ok (f, _) -> f
        | Error _ -> Alcotest.fail "expected admit")
  in
  check_float "two chunks" 200_000. (Edge_broker.quota_total eb);
  List.iter (Edge_broker.teardown eb) flows;
  check_float "nothing used" 0. (Edge_broker.quota_used eb);
  Edge_broker.return_idle_quota eb;
  (* keeps at most one chunk of slack *)
  check_float "one chunk kept" 100_000. (Edge_broker.quota_total eb);
  Alcotest.(check int) "central released the rest" 1 (Broker.per_flow_count central)

let test_edge_broker_competition () =
  (* Two edge brokers share the middle links; quota held idle by one is
     unavailable to the other — the fragmentation cost of the hierarchy. *)
  let central = Broker.create (Fig8.topology `Rate_only) in
  let eb1 =
    match
      Edge_broker.create ~central ~ingress:Fig8.ingress1 ~egress:Fig8.egress1
        ~chunk:1_200_000.
    with
    | Ok e -> e
    | Error _ -> Alcotest.fail "eb1"
  in
  let eb2 =
    match
      Edge_broker.create ~central ~ingress:Fig8.ingress2 ~egress:Fig8.egress2
        ~chunk:1_200_000.
    with
    | Ok e -> e
    | Error _ -> Alcotest.fail "eb2"
  in
  (* eb1 grabs a huge chunk with a single flow in it. *)
  (match Edge_broker.request eb1 (req ()) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "eb1 admit");
  (* eb2 can still fit flows in the remaining 300 kb/s (falling back to
     exact-shortfall quota requests). *)
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match
      Edge_broker.request eb2 { (req ()) with Types.ingress = Fig8.ingress2; egress = Fig8.egress2 }
    with
    | Ok _ -> incr n
    | Error _ -> continue := false
  done;
  Alcotest.(check int) "only 6 fit beside the idle quota" 6 !n;
  (* eb1's chunk is partially used, so it cannot be returned whole — the
     fragmentation persists until eb1's flow leaves. *)
  Edge_broker.return_idle_quota eb1;
  check_float "partially used chunk stays" 1_200_000. (Edge_broker.quota_total eb1);
  (* Even after the flow leaves, one chunk of slack is retained by policy
     (the next arrival should not need a central transaction). *)
  Edge_broker.teardown eb1 0;
  Edge_broker.return_idle_quota eb1;
  check_float "one chunk of slack kept" 1_200_000. (Edge_broker.quota_total eb1)

(* ------------------------------------------------------------------ *)
(* SCFQ discipline *)

let one_link ?(capacity = 1.2e6) () =
  let t = Topology.create () in
  let l = Topology.add_link t ~src:"A" ~dst:"B" ~capacity Topology.Rate_based in
  l

let test_scfq_requires_install () =
  let e = Engine.create () in
  let link = one_link () in
  let hop = Hop.create e ~link ~deliver:(fun _ -> ()) Hop.Scfq in
  Alcotest.(check bool) "uninstalled flow raises" true
    (try
       Hop.receive hop (Packet.make ~flow:9 ~seq:0 ~size:1_000. ~born:0. ~path:[| link |]);
       false
     with Invalid_argument _ -> true)

let test_scfq_fair_split () =
  (* Two equal-rate backlogged flows must share the link ~50/50 over any
     long interval. *)
  let e = Engine.create () in
  let link = one_link ~capacity:120_000. () in
  let served = Hashtbl.create 4 in
  let hop =
    Hop.create e ~link
      ~deliver:(fun p ->
        let c = Option.value ~default:0 (Hashtbl.find_opt served p.Packet.flow) in
        Hashtbl.replace served p.Packet.flow (c + 1))
      Hop.Scfq
  in
  Hop.install_flow hop ~flow:1 ~rate:60_000. ~deadline:0.;
  Hop.install_flow hop ~flow:2 ~rate:60_000. ~deadline:0.;
  (* 100 packets of each flow dumped at t=0. *)
  for seq = 0 to 99 do
    Hop.receive hop (Packet.make ~flow:1 ~seq ~size:12_000. ~born:0. ~path:[| link |]);
    Hop.receive hop (Packet.make ~flow:2 ~seq ~size:12_000. ~born:0. ~path:[| link |])
  done;
  (* Run for half the total drain time and compare service shares. *)
  Engine.run ~until:100. e;
  let c1 = Hashtbl.find served 1 and c2 = Hashtbl.find served 2 in
  Alcotest.(check bool)
    (Printf.sprintf "equal shares (%d vs %d)" c1 c2)
    true
    (abs (c1 - c2) <= 1)

let test_scfq_weighted_split () =
  (* A 3:1 rate ratio must produce a ~3:1 service ratio while both flows
     stay backlogged. *)
  let e = Engine.create () in
  let link = one_link ~capacity:120_000. () in
  let served = Hashtbl.create 4 in
  let hop =
    Hop.create e ~link
      ~deliver:(fun p ->
        let c = Option.value ~default:0 (Hashtbl.find_opt served p.Packet.flow) in
        Hashtbl.replace served p.Packet.flow (c + 1))
      Hop.Scfq
  in
  Hop.install_flow hop ~flow:1 ~rate:90_000. ~deadline:0.;
  Hop.install_flow hop ~flow:2 ~rate:30_000. ~deadline:0.;
  for seq = 0 to 199 do
    Hop.receive hop (Packet.make ~flow:1 ~seq ~size:12_000. ~born:0. ~path:[| link |]);
    Hop.receive hop (Packet.make ~flow:2 ~seq ~size:12_000. ~born:0. ~path:[| link |])
  done;
  (* Stop while flow 1 is still backlogged: 200*12000/90000 = 26.7 s. *)
  Engine.run ~until:20. e;
  let c1 = Hashtbl.find served 1 and c2 = Hashtbl.find served 2 in
  let ratio = float_of_int c1 /. float_of_int c2 in
  Alcotest.(check bool)
    (Printf.sprintf "3:1 service ratio (got %.2f)" ratio)
    true
    (ratio > 2.5 && ratio < 3.5)

let test_scfq_state_count () =
  let e = Engine.create () in
  let link = one_link () in
  let hop = Hop.create e ~link ~deliver:(fun _ -> ()) Hop.Scfq in
  Hop.install_flow hop ~flow:1 ~rate:1_000. ~deadline:0.;
  Hop.install_flow hop ~flow:2 ~rate:1_000. ~deadline:0.;
  Alcotest.(check int) "stateful" 2 (Hop.flow_state_count hop);
  Hop.remove_flow hop ~flow:1;
  Alcotest.(check int) "removed" 1 (Hop.flow_state_count hop)

(* ------------------------------------------------------------------ *)
(* CJVC: non-work-conserving core-stateless scheduling *)

let test_cjvc_bounds_and_jitter () =
  (* One shaped flow through three CJVC hops: the delay bound holds and —
     the point of CJVC — packets exit the last hop with (almost exactly)
     the shaper's spacing: the burstiness a work-conserving chain would
     accumulate is removed. *)
  let topo = Topology.create () in
  for i = 0 to 2 do
    ignore
      (Topology.add_link topo
         ~src:(Printf.sprintf "H%d" i)
         ~dst:(Printf.sprintf "H%d" (i + 1))
         ~capacity:1.5e6 Topology.Rate_based)
  done;
  let engine = Engine.create () in
  let rate = 50_000. in
  let links = Topology.links topo in
  let arrivals = ref [] in
  let hops = Array.make 3 None in
  let deliver pkt =
    if pkt.Packet.hop_ix < 3 then
      Hop.receive (Option.get hops.(pkt.Packet.hop_ix)) pkt
    else arrivals := Engine.now engine :: !arrivals
  in
  List.iteri
    (fun i link -> hops.(i) <- Some (Hop.create engine ~link ~deliver Hop.Cjvc))
    links;
  let cond =
    Bbr_netsim.Edge_conditioner.create engine ~rate ~delay_param:0. ~lmax:12_000.
      ~next:deliver ()
  in
  let path = Array.of_list links in
  ignore
    (Bbr_netsim.Source.greedy engine ~profile:type0 ~flow:1 ~path
       ~next:(fun p -> Bbr_netsim.Edge_conditioner.submit cond p)
       ());
  Engine.run ~until:30. engine;
  let times = List.rev !arrivals in
  Alcotest.(check bool) "traffic flowed" true (List.length times > 50);
  (* Jitter check: consecutive exits spaced >= L/r - psi-slack. *)
  let spacing_ok =
    let min_gap = (12_000. /. rate) -. (2. *. 12_000. /. 1.5e6) in
    let rec go = function
      | a :: (b :: _ as rest) -> b -. a >= min_gap -. 1e-9 && go rest
      | _ -> true
    in
    go times
  in
  Alcotest.(check bool) "jitter removed" true spacing_ok;
  (* Delay bound of eq. (2) still holds per-hop-lateness-wise. *)
  Array.iter
    (fun h ->
      Alcotest.(check bool) "error term" true
        (Hop.max_lateness (Option.get h) <= 1e-9))
    hops

(* ------------------------------------------------------------------ *)
(* Statistical rate guarantees *)

module Statistical = Bbr_broker.Statistical

let one_link_topology ?(capacity = 1.5e6) () =
  let t = Topology.create () in
  ignore (Topology.add_link t ~src:"A" ~dst:"B" ~capacity Topology.Rate_based);
  t

let stat_req = { Types.profile = type0; dreq = 0.; ingress = "A"; egress = "B" }

let fill_statistical ?capacity ~epsilon () =
  let broker = Broker.create (one_link_topology ?capacity ()) in
  let stat = Statistical.create broker ~epsilon in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Statistical.request stat stat_req with
    | Ok _ -> incr n
    | Error _ -> continue := false
  done;
  (!n, stat, broker)

let test_statistical_epsilon_validation () =
  let broker = Broker.create (one_link_topology ()) in
  Alcotest.(check bool) "bad epsilon" true
    (try
       ignore (Statistical.create broker ~epsilon:0.);
       false
     with Invalid_argument _ -> true)

let test_statistical_multiplexing_gain () =
  (* On a 15 Mb/s link, peak allocation fits 150 type-0 flows and mean
     allocation 300.  The multiplexing gain grows with scale (the
     Hoeffding surcharge is O(sqrt n)): the statistical service must land
     strictly in between, admitting more as epsilon loosens. *)
  let capacity = 15e6 in
  let tight, _, _ = fill_statistical ~capacity ~epsilon:1e-12 () in
  let mid, _, _ = fill_statistical ~capacity ~epsilon:1e-3 () in
  let loose, _, _ = fill_statistical ~capacity ~epsilon:0.05 () in
  (* The peak-sum cap guarantees the count can never drop below peak
     allocation, however tight epsilon gets; at this scale the Hoeffding
     term is already the better of the two. *)
  Alcotest.(check bool)
    (Printf.sprintf "tight >= peak allocation (%d >= 150)" tight)
    true (tight >= 150);
  Alcotest.(check bool) (Printf.sprintf "mid beats peak (%d > 150)" mid) true (mid > 150);
  Alcotest.(check bool) (Printf.sprintf "below mean (%d < 300)" loose) true (loose < 300);
  Alcotest.(check bool)
    (Printf.sprintf "monotone in epsilon (%d <= %d <= %d)" tight mid loose)
    true
    (tight <= mid && mid <= loose)

let test_statistical_teardown_restores () =
  let _, stat, broker = fill_statistical ~epsilon:1e-3 () in
  let count = Statistical.flow_count stat in
  for flow = 0 to count - 1 do
    Statistical.teardown stat flow
  done;
  Alcotest.(check int) "empty" 0 (Statistical.flow_count stat);
  check_float "effective bandwidth zero" 0. (Statistical.effective_bandwidth stat ~link_id:0);
  check_float "node MIB clean" 0.
    (Bbr_broker.Node_mib.reserved (Broker.node_mib broker) ~link_id:0)

let test_statistical_coexists_with_deterministic () =
  (* Statistical flows book their effective bandwidth in the shared node
     MIB, so deterministic admission sees it, and vice versa. *)
  let broker = Broker.create (one_link_topology ()) in
  let stat = Statistical.create broker ~epsilon:1e-3 in
  (* One deterministic megabit flow first. *)
  let det_profile =
    Traffic.make ~sigma:60_000. ~rho:1_000_000. ~peak:1_000_000. ~lmax:12_000.
  in
  (match Broker.request broker { stat_req with Types.profile = det_profile; dreq = 10. } with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "deterministic flow should fit");
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Statistical.request stat stat_req with
    | Ok _ -> incr n
    | Error _ -> continue := false
  done;
  Alcotest.(check bool)
    (Printf.sprintf "statistical squeezed by deterministic load (%d)" !n)
    true
    (!n > 0 && !n <= 8)

let test_statistical_overflow_probability_honoured () =
  (* Empirical check of the Hoeffding bound: admit to saturation at
     epsilon = 1e-2, run the admitted set as independently-phased on/off
     sources, and measure the fraction of time the aggregate input rate
     exceeds the link capacity. *)
  let epsilon = 1e-2 in
  let n, _, _ = fill_statistical ~epsilon () in
  let capacity = 1.5e6 in
  let prng = Bbr_util.Prng.create ~seed:2024 in
  let engine = Bbr_netsim.Engine.create () in
  let ton = Traffic.t_on type0 in
  let cycle = ton *. type0.Traffic.peak /. type0.Traffic.rho in
  let current = ref 0. in
  let over_since = ref nan in
  let over_time = ref 0. in
  let change delta =
    let now = Bbr_netsim.Engine.now engine in
    (if !current > capacity +. 1e-6 && Float.is_nan !over_since then over_since := now);
    if !current > capacity +. 1e-6 && !current +. delta <= capacity +. 1e-6 then begin
      over_time := !over_time +. (now -. !over_since);
      over_since := nan
    end;
    current := !current +. delta
  in
  for _ = 1 to n do
    let phase = Bbr_util.Prng.float_range prng ~lo:0. ~hi:cycle in
    let rec on_phase at =
      Bbr_netsim.Engine.schedule engine ~at (fun () ->
          change type0.Traffic.peak;
          off_phase (at +. ton))
    and off_phase at =
      Bbr_netsim.Engine.schedule engine ~at (fun () ->
          change (-.type0.Traffic.peak);
          on_phase (at +. cycle -. ton))
    in
    on_phase phase
  done;
  let horizon = 2_000. in
  Bbr_netsim.Engine.run ~until:horizon engine;
  let fraction = !over_time /. horizon in
  Alcotest.(check bool)
    (Printf.sprintf "overflow fraction %.4f within 5x epsilon (n=%d)" fraction n)
    true
    (fraction <= 5. *. epsilon)

(* ------------------------------------------------------------------ *)
(* Buffer instrumentation *)

let test_server_backlog_tracking () =
  let e = Engine.create () in
  let srv = Server.create e ~capacity:12_000. ~on_depart:(fun _ -> ()) in
  for seq = 0 to 2 do
    Server.enqueue srv ~key:(float_of_int seq)
      (Packet.make ~flow:0 ~seq ~size:12_000. ~born:0. ~path:[||])
  done;
  check_float "peak backlog" 36_000. (Server.max_backlog_bits srv);
  check_float "current backlog" 36_000. (Server.backlog_bits srv);
  Engine.run e;
  check_float "drained" 0. (Server.backlog_bits srv);
  check_float "peak remembered" 36_000. (Server.max_backlog_bits srv)

let test_hop_backlog_bounded_under_admission () =
  (* With shaped, admitted flows, the first-hop buffer requirement stays
     within the aggregate burst the shapers can release. *)
  let e = Engine.create () in
  let link = one_link ~capacity:1.5e6 () in
  let hop = Hop.create e ~link ~deliver:(fun _ -> ()) Hop.Csvc in
  let n = 20 in
  for flow = 1 to n do
    let cond =
      Bbr_netsim.Edge_conditioner.create e ~rate:50_000. ~delay_param:0. ~lmax:12_000.
        ~next:(fun p -> Hop.receive hop p)
        ()
    in
    ignore
      (Bbr_netsim.Source.greedy e ~profile:type0 ~flow ~path:[| link |]
         ~next:(fun p -> Bbr_netsim.Edge_conditioner.submit cond p)
         ())
  done;
  Engine.run ~until:30. e;
  (* Each conditioner emits one packet per size/rate; the hop can momentarily
     hold up to one packet per flow plus the one in service. *)
  Alcotest.(check bool) "buffer bounded by one packet per flow" true
    (Hop.max_backlog_bits hop <= float_of_int (n + 1) *. 12_000. +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Snapshot / failover *)

module Snapshot = Bbr_broker.Snapshot
module Node_mib = Bbr_broker.Node_mib

let reservations_of broker =
  List.map
    (fun (l : Topology.link) ->
      Node_mib.reserved (Broker.node_mib broker) ~link_id:l.Topology.link_id)
    (Topology.links (Broker.topology broker))

let test_snapshot_per_flow_round_trip () =
  let broker = Broker.create (Fig8.topology `Mixed) in
  (* A mixed population of rates and bounds. *)
  List.iter
    (fun (ty, dreq) ->
      match
        Broker.request broker
          {
            Types.profile = Profiles.profile ty;
            dreq;
            ingress = Fig8.ingress1;
            egress = Fig8.egress1;
          }
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "fixture admit failed")
    [ (0, 2.44); (1, 2.74); (2, 2.91); (3, 3.81); (0, 2.19) ];
  let snap = Snapshot.save broker in
  Alcotest.(check int) "five lines" 5 (Snapshot.flows_in snap);
  let standby = Broker.create (Fig8.topology `Mixed) in
  (match Snapshot.restore standby snap with
  | Ok n -> Alcotest.(check int) "restored all" 5 n
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Alcotest.(check (list (float 1e-6))) "identical link reservations"
    (reservations_of broker) (reservations_of standby);
  Alcotest.(check int) "same flow count" (Broker.per_flow_count broker)
    (Broker.per_flow_count standby)

let test_snapshot_class_round_trip () =
  let module Aggregate = Bbr_broker.Aggregate in
  let classes = [ { Aggregate.class_id = 0; dreq = 2.44; cd = 0.1 } ] in
  (* Release timers are collected, not fired, so the Bounding grants are
     still live when the snapshot is taken. *)
  let mk () =
    let timers = ref [] in
    let time =
      { Broker.now = (fun () -> 0.); after = (fun _ f -> timers := f :: !timers) }
    in
    (Broker.create ~classes ~method_:Aggregate.Bounding ~time (Fig8.topology `Rate_only), timers)
  in
  let broker, _ = mk () in
  let flows =
    List.init 7 (fun _ ->
        match Broker.request_class broker (req ()) with
        | Ok (flow, _) -> flow
        | Error _ -> Alcotest.fail "fixture join failed")
  in
  (* A leave turns the rate decrement into one more grant. *)
  Broker.teardown_class broker (List.nth flows 2);
  let snap = Snapshot.save broker in
  let standby, timers = mk () in
  (match Snapshot.restore standby snap with
  | Ok n -> Alcotest.(check int) "restored all members" 6 n
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Alcotest.(check int) "same membership" (Broker.class_flow_count broker)
    (Broker.class_flow_count standby);
  let macros b = Aggregate.all_macroflows (Broker.aggregate b) in
  let exact f b = List.map (fun s -> Printf.sprintf "%h" (f s)) (macros b) in
  let grants b =
    List.map
      (fun (s : Aggregate.macro_stats) ->
        Aggregate.grant_amounts (Broker.aggregate b) ~class_id:s.Aggregate.class_id
          ~path_id:s.Aggregate.path_id)
      (macros b)
  in
  Alcotest.(check bool) "contingency is held" true
    (List.exists (fun (s : Aggregate.macro_stats) -> s.Aggregate.contingency > 0.) (macros broker));
  List.iter
    (fun (what, f) ->
      Alcotest.(check (list string)) what (exact f broker) (exact f standby))
    [
      ("same base rates", fun (s : Aggregate.macro_stats) -> s.Aggregate.base_rate);
      ("same contingency", fun s -> s.Aggregate.contingency);
      ("same edge bounds", fun s -> s.Aggregate.edge_bound);
    ];
  Alcotest.(check (list (list (float 0.)))) "same grants" (grants broker) (grants standby);
  (* Every restored grant has its own release timer; firing them all
     returns the standby to its steady allocation. *)
  Alcotest.(check int) "one timer per grant"
    (List.length (List.concat (grants standby)))
    (List.length !timers);
  List.iter (fun f -> f ()) !timers;
  Alcotest.(check (list (float 0.))) "contingency released" [ 0. ]
    (List.map (fun (s : Aggregate.macro_stats) -> s.Aggregate.contingency) (macros standby));
  Alcotest.(check bool) "audit clean after release" true
    (Bbr_broker.Audit.ok (Bbr_broker.Audit.check standby));
  (* On a standby whose timers fire at once, each grant is released as it
     is restored, from consistent state. *)
  let immediate =
    Broker.create ~classes ~method_:Aggregate.Bounding (Fig8.topology `Rate_only)
  in
  (match Snapshot.restore immediate snap with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Alcotest.(check (list string)) "released at once" (exact (fun s -> s.Aggregate.contingency) standby)
    (exact (fun s -> s.Aggregate.contingency) immediate);
  Alcotest.(check bool) "audit clean when released at once" true
    (Bbr_broker.Audit.ok (Bbr_broker.Audit.check immediate))

let test_snapshot_rejects_garbage () =
  let standby = Broker.create (Fig8.topology `Rate_only) in
  (match Snapshot.restore standby "not a snapshot" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected header error");
  (* Checkpoints are read by the build that wrote them: an older format
     version is refused at the header. *)
  (match Snapshot.restore standby "bbr-snapshot v1\n" with
  | Error e ->
      Alcotest.(check string) "header error" {|bad snapshot header: "bbr-snapshot v1"|} e
  | Ok _ -> Alcotest.fail "expected header error");
  match Snapshot.restore standby "bbr-snapshot v2\nadmit oops" with
  | Error e ->
      Alcotest.(check string) "parse error" {|unparseable snapshot line: "admit oops"|} e
  | Ok _ -> Alcotest.fail "expected parse error"

let test_snapshot_standby_keeps_admitting () =
  (* After fail-over, the standby must make the same future decisions the
     primary would have. *)
  let broker = Broker.create (Fig8.topology `Rate_only) in
  for _ = 1 to 28 do
    ignore (Broker.request broker (req ~dreq:2.44 ()))
  done;
  let standby = Broker.create (Fig8.topology `Rate_only) in
  (match Snapshot.restore standby (Snapshot.save broker) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  let fill b =
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match Broker.request b (req ~dreq:2.44 ()) with
      | Ok _ -> incr n
      | Error _ -> continue := false
    done;
    !n
  in
  Alcotest.(check int) "same remaining capacity" (fill broker) (fill standby)

let () =
  Alcotest.run "extensions"
    [
      ( "cops",
        [
          Alcotest.test_case "admit round trip" `Quick test_cops_admit_round_trip;
          Alcotest.test_case "reject costs two" `Quick test_cops_reject_costs_two;
          Alcotest.test_case "teardown" `Quick test_cops_teardown;
          Alcotest.test_case "overhead path-independent" `Quick
            test_cops_overhead_is_path_independent;
        ] );
      ( "edge_broker",
        [
          Alcotest.test_case "creation checks" `Quick test_edge_broker_create_checks;
          Alcotest.test_case "local admission" `Quick test_edge_broker_local_admission;
          Alcotest.test_case "fill matches central" `Quick
            test_edge_broker_fill_matches_central;
          Alcotest.test_case "exact shortfall" `Quick test_edge_broker_exact_shortfall;
          Alcotest.test_case "teardown + quota return" `Quick
            test_edge_broker_teardown_and_return;
          Alcotest.test_case "competition/fragmentation" `Quick
            test_edge_broker_competition;
        ] );
      ( "scfq",
        [
          Alcotest.test_case "requires install" `Quick test_scfq_requires_install;
          Alcotest.test_case "fair split" `Quick test_scfq_fair_split;
          Alcotest.test_case "weighted split" `Quick test_scfq_weighted_split;
          Alcotest.test_case "state count" `Quick test_scfq_state_count;
        ] );
      ( "cjvc",
        [ Alcotest.test_case "bounds and jitter" `Quick test_cjvc_bounds_and_jitter ] );
      ( "statistical",
        [
          Alcotest.test_case "epsilon validation" `Quick test_statistical_epsilon_validation;
          Alcotest.test_case "multiplexing gain" `Quick test_statistical_multiplexing_gain;
          Alcotest.test_case "teardown restores" `Quick test_statistical_teardown_restores;
          Alcotest.test_case "coexists with deterministic" `Quick
            test_statistical_coexists_with_deterministic;
          Alcotest.test_case "overflow probability" `Slow
            test_statistical_overflow_probability_honoured;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "per-flow round trip" `Quick
            test_snapshot_per_flow_round_trip;
          Alcotest.test_case "class round trip" `Quick test_snapshot_class_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_snapshot_rejects_garbage;
          Alcotest.test_case "standby keeps admitting" `Quick
            test_snapshot_standby_keeps_admitting;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "server backlog" `Quick test_server_backlog_tracking;
          Alcotest.test_case "hop backlog bounded" `Quick
            test_hop_backlog_bounded_under_admission;
        ] );
    ]
