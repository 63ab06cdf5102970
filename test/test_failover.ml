(* Tests for the fault-tolerance extensions: link-failure recovery at the
   broker, the reliable COPS channel, snapshot atomicity, warm-standby
   failover, and the seeded fault-injection scenario end to end. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Aggregate = Bbr_broker.Aggregate
module Cops = Bbr_broker.Cops
module Exchange = Bbr_broker.Exchange
module Edge_broker = Bbr_broker.Edge_broker
module Snapshot = Bbr_broker.Snapshot
module Failover = Bbr_broker.Failover
module Flow_mib = Bbr_broker.Flow_mib
module Node_mib = Bbr_broker.Node_mib
module Routing = Bbr_broker.Routing
module Engine = Bbr_netsim.Engine
module Fault = Bbr_netsim.Fault
module Scenario = Bbr_scenario.Scenario
module Runner = Bbr_scenario.Runner
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles
module Prng = Bbr_util.Prng

let type0 = Profiles.profile 0

let req ?(ingress = "A") ?(egress = "B") ?(dreq = 3.) ?(profile = type0) () =
  { Types.profile; dreq; ingress; egress }

(* Two parallel 2-hop paths A -> M1 -> B (primary, by insertion order) and
   A -> M2 -> B (backup). *)
let two_path ?(primary = 200_000.) ?(backup = 200_000.) () =
  let t = Topology.create () in
  let a1 = Topology.add_link t ~src:"A" ~dst:"M1" ~capacity:primary Topology.Rate_based in
  ignore (Topology.add_link t ~src:"M1" ~dst:"B" ~capacity:primary Topology.Rate_based);
  ignore (Topology.add_link t ~src:"A" ~dst:"M2" ~capacity:backup Topology.Rate_based);
  ignore (Topology.add_link t ~src:"M2" ~dst:"B" ~capacity:backup Topology.Rate_based);
  (t, a1.Topology.link_id)

let on_link links link_id =
  List.exists (fun (l : Topology.link) -> l.Topology.link_id = link_id) links

(* ------------------------------------------------------------------ *)
(* Topology link state and routing invalidation *)

let test_routing_avoids_down_links () =
  let t = Topology.create () in
  let direct = Topology.add_link t ~src:"A" ~dst:"B" ~capacity:1e6 Topology.Rate_based in
  ignore (Topology.add_link t ~src:"A" ~dst:"M" ~capacity:1e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"M" ~dst:"B" ~capacity:1e6 Topology.Rate_based);
  let node_mib = Node_mib.create t in
  let path_mib = Bbr_broker.Path_mib.create node_mib in
  let routing = Routing.create t path_mib in
  let hops () =
    match Routing.path routing ~ingress:"A" ~egress:"B" with
    | Some info -> List.length info.Bbr_broker.Path_mib.links
    | None -> 0
  in
  Alcotest.(check int) "direct path first" 1 (hops ());
  Topology.set_link_state t ~link_id:direct.Topology.link_id ~up:false;
  Alcotest.(check int) "cache invalidated, detour found" 2 (hops ());
  Topology.set_link_state t ~link_id:direct.Topology.link_id ~up:true;
  Alcotest.(check int) "back on the direct path" 1 (hops ());
  Alcotest.(check bool) "unknown id raises" true
    (try
       Topology.set_link_state t ~link_id:99 ~up:false;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Idempotent teardown *)

let test_teardown_class_idempotent () =
  let t, _ = two_path () in
  let broker =
    Broker.create ~classes:[ { Aggregate.class_id = 0; dreq = 3.; cd = 0.24 } ] t
  in
  match Broker.request_class broker (req ()) with
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e
  | Ok (flow, _) ->
      Broker.teardown_class broker flow;
      Broker.teardown_class broker flow;
      Broker.teardown_class broker 99;
      Alcotest.(check int) "left once" 0 (Broker.class_flow_count broker)

let test_edge_broker_teardown_idempotent () =
  let central = Broker.create (Fig8.topology `Rate_only) in
  match
    Edge_broker.create ~central ~ingress:Fig8.ingress1 ~egress:Fig8.egress1
      ~chunk:500_000.
  with
  | Error _ -> Alcotest.fail "edge broker creation failed"
  | Ok eb -> (
      Edge_broker.teardown eb 99;
      match Edge_broker.request eb (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ()) with
      | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e
      | Ok (flow, _) ->
          let used = Edge_broker.quota_used eb in
          Alcotest.(check bool) "in use" true (used > 0.);
          Edge_broker.teardown eb flow;
          Edge_broker.teardown eb flow;
          Alcotest.(check (float 1e-9)) "released once" 0. (Edge_broker.quota_used eb))

(* ------------------------------------------------------------------ *)
(* Link failure: restore-or-preempt at the broker *)

let test_fail_link_reroutes_all () =
  let t, primary_id = two_path () in
  let broker = Broker.create t in
  let flows =
    List.map
      (fun _ ->
        match Broker.request broker (req ()) with
        | Ok (flow, _) -> flow
        | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e)
      [ (); (); () ]
  in
  let r = Broker.fail_link broker ~link_id:primary_id in
  Alcotest.(check (list int)) "all rerouted" flows r.Broker.perflow_rerouted;
  Alcotest.(check (list int)) "none dropped" [] r.Broker.perflow_dropped;
  Alcotest.(check int) "still booked" 3 (Broker.per_flow_count broker);
  (* Every survivor now runs over the backup path, under its old id. *)
  Flow_mib.fold (Broker.flow_mib broker) ~init:() ~f:(fun () rec_ ->
      Alcotest.(check bool) "off the dead link" false
        (on_link rec_.Flow_mib.path.Bbr_broker.Path_mib.links primary_id));
  (* A second failure of the same link finds no victims. *)
  let r = Broker.fail_link broker ~link_id:primary_id in
  Alcotest.(check int) "no victims twice" 0
    (Broker.recovered_count r + Broker.dropped_count r)

let test_fail_link_drops_when_no_alternative () =
  let t, primary_id = two_path () in
  let broker = Broker.create t and model = Model.create t in
  (match Broker.request broker (req ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e);
  ignore (Model.request model (req ()));
  (* Take the backup down first; then the primary's victims have nowhere
     to go. *)
  let backup_id =
    (Option.get (Topology.find_link t ~src:"A" ~dst:"M2")).Topology.link_id
  in
  Topology.set_link_state t ~link_id:backup_id ~up:false;
  ignore (Model.fail_link model ~link_id:backup_id);
  let r = Broker.fail_link broker ~link_id:primary_id in
  Alcotest.(check int) "dropped" 1 (Broker.dropped_count r);
  Alcotest.(check int) "nothing rerouted" 0 (Broker.recovered_count r);
  Alcotest.(check int) "released" 0 (Broker.per_flow_count broker);
  ignore (Model.fail_link model ~link_id:primary_id);
  Lockstep.ledgers_match ~what:"no stranded bandwidth" model [ broker ];
  (* The dropped flow's eventual DRQ is a harmless no-op. *)
  List.iter (fun f -> Broker.teardown broker f) r.Broker.perflow_dropped

let test_fail_link_partial_reroute () =
  (* Backup holds only 2 of the 4 victim flows (type0 books 50 kb/s at
     dreq 3).  Re-admission runs in ascending flow-id order, so the two
     oldest flows survive. *)
  let t, primary_id = two_path ~primary:200_000. ~backup:100_000. () in
  let broker = Broker.create t in
  let flows =
    List.init 4 (fun _ ->
        match Broker.request broker (req ()) with
        | Ok (flow, _) -> flow
        | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e)
  in
  let r = Broker.fail_link broker ~link_id:primary_id in
  Alcotest.(check (list int)) "oldest two rerouted"
    [ List.nth flows 0; List.nth flows 1 ]
    r.Broker.perflow_rerouted;
  Alcotest.(check (list int)) "youngest two dropped"
    [ List.nth flows 2; List.nth flows 3 ]
    r.Broker.perflow_dropped;
  Alcotest.(check int) "two booked" 2 (Broker.per_flow_count broker)

let test_fail_link_reroutes_class_members () =
  (* Generous capacity: under Feedback with no queue-empty signal every
     join's contingency bandwidth stays held. *)
  let t, primary_id = two_path ~primary:800_000. ~backup:800_000. () in
  let broker =
    Broker.create ~classes:[ { Aggregate.class_id = 0; dreq = 3.; cd = 0.24 } ] t
  in
  let flows =
    List.init 3 (fun _ ->
        match Broker.request_class broker (req ()) with
        | Ok (flow, _) -> flow
        | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e)
  in
  let r = Broker.fail_link broker ~link_id:primary_id in
  Alcotest.(check (list int)) "members rerouted" flows r.Broker.class_rerouted;
  Alcotest.(check (list int)) "none dropped" [] r.Broker.class_dropped;
  Alcotest.(check int) "members intact" 3 (Broker.class_flow_count broker);
  (* The macroflow now lives on the backup path. *)
  List.iter
    (fun (s : Aggregate.macro_stats) ->
      match Bbr_broker.Path_mib.find (Broker.path_mib broker) ~path_id:s.Aggregate.path_id with
      | Some info ->
          Alcotest.(check bool) "off the dead link" false
            (on_link info.Bbr_broker.Path_mib.links primary_id)
      | None -> Alcotest.fail "macroflow path unknown")
    (Aggregate.all_macroflows (Broker.aggregate broker))

(* ------------------------------------------------------------------ *)
(* Reliable COPS *)

let mk_reliable_cops ?(latency = 0.005) ?reliability broker =
  let engine = Engine.create () in
  let cops =
    Cops.create broker ~latency ?reliability
      ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
      ()
  in
  (engine, cops)

let test_cops_resolves_under_loss () =
  (* Acceptance criterion: under 10% message loss every request resolves,
     exactly once, with no pending leak. *)
  let broker = Broker.create (Fig8.topology `Rate_only) in
  let prng = Prng.create ~seed:42 in
  let engine, cops =
    mk_reliable_cops broker
      ~reliability:(Cops.reliability
           ~faults:{ Exchange.no_faults with drop = Fault.drop prng ~p:0.1 }
           ())
  in
  let n = 40 in
  let decisions = ref 0 and admitted = ref [] in
  for i = 1 to n do
    Engine.schedule engine ~at:(float_of_int i) (fun () ->
        Cops.request cops
          (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ())
          ~on_decision:(fun d ->
            incr decisions;
            match d with Ok (flow, _) -> admitted := flow :: !admitted | Error _ -> ()))
  done;
  Engine.run engine;
  Alcotest.(check int) "every request decided exactly once" n !decisions;
  Alcotest.(check int) "no pending leak" 0 (Cops.pending cops);
  Alcotest.(check bool) "losses forced retransmissions" true
    (Cops.retransmissions cops > 0);
  Alcotest.(check int) "broker agrees with the PEP"
    (List.length !admitted) (Broker.per_flow_count broker);
  (* Reliable DRQs drain the reservations despite the same loss. *)
  List.iter (fun flow -> Cops.teardown cops flow) !admitted;
  Engine.run engine;
  Alcotest.(check int) "all torn down" 0 (Broker.per_flow_count broker)

let test_cops_duplicate_suppression () =
  (* Drop exactly the first DEC: the retransmitted REQ must be answered
     from the PDP's transaction memory, not re-decided. *)
  let broker = Broker.create (Fig8.topology `Rate_only) in
  let sent = ref 0 in
  let loss () =
    incr sent;
    !sent = 2
  in
  let engine, cops =
    mk_reliable_cops broker
      ~reliability:(Cops.reliability ~faults:{ Exchange.no_faults with drop = loss } ())
  in
  let decisions = ref 0 in
  Cops.request cops
    (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ())
    ~on_decision:(fun _ -> incr decisions);
  Engine.run engine;
  Alcotest.(check int) "decided once" 1 !decisions;
  Alcotest.(check int) "one retransmission" 1 (Cops.retransmissions cops);
  Alcotest.(check int) "answered from memory" 1 (Cops.duplicates cops);
  Alcotest.(check int) "not double-booked" 1 (Broker.per_flow_count broker);
  (* REQ, DEC(lost), REQ', DEC', RPT *)
  Alcotest.(check int) "5 messages" 5 (Cops.messages cops);
  Alcotest.(check int) "nothing pending" 0 (Cops.pending cops)

let test_cops_drains_across_crash () =
  (* Requests in flight when the PDP dies retransmit until a standby is
     promoted, then resolve against it. *)
  let topo = Fig8.topology `Rate_only in
  let primary = Broker.create topo in
  let engine, cops =
    mk_reliable_cops primary
      ~reliability:(Cops.reliability ~faults:Exchange.no_faults ())
  in
  let decisions = ref 0 in
  Engine.schedule engine ~at:1. (fun () ->
      Cops.set_pdp_up cops false;
      Cops.request cops
        (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ())
        ~on_decision:(fun _ -> incr decisions));
  Engine.schedule engine ~at:2. (fun () ->
      Cops.set_broker cops (Broker.create topo);
      Cops.set_pdp_up cops true);
  Engine.run engine;
  Alcotest.(check int) "resolved after failover" 1 !decisions;
  Alcotest.(check int) "no pending leak" 0 (Cops.pending cops);
  Alcotest.(check bool) "outage forced retransmissions" true
    (Cops.retransmissions cops > 0)

let test_cops_duplicating_channel () =
  (* Every message is duplicated and copies are lost and reordered: the
     PDP's transaction memory must still book each flow exactly once. *)
  let broker = Broker.create (Fig8.topology `Rate_only) in
  let prng = Prng.create ~seed:7 in
  let faults =
    {
      Exchange.drop = Fault.drop prng ~p:0.2;
      duplicate = (fun () -> true);
      extra_delay = (fun () -> Prng.float prng *. 0.01);
    }
  in
  let engine, cops =
    mk_reliable_cops broker ~reliability:(Cops.reliability ~faults ())
  in
  let n = 40 in
  let fired = Array.make n 0 and admitted = ref [] in
  for i = 0 to n - 1 do
    Engine.schedule engine ~at:(float_of_int (i + 1)) (fun () ->
        Cops.request cops
          (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ())
          ~on_decision:(fun d ->
            fired.(i) <- fired.(i) + 1;
            match d with Ok (flow, _) -> admitted := flow :: !admitted | Error _ -> ()))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "on_decision once per request" (List.init n (fun _ -> 1))
    (Array.to_list fired);
  Alcotest.(check int) "no pending leak" 0 (Cops.pending cops);
  Alcotest.(check bool) "duplicates answered from memory" true (Cops.duplicates cops > 0);
  Alcotest.(check bool) "some admitted" true (!admitted <> []);
  Alcotest.(check int) "each flow booked once"
    (List.length !admitted) (Broker.per_flow_count broker);
  Alcotest.(check int) "distinct flow ids" (List.length !admitted)
    (List.length (List.sort_uniq compare !admitted));
  List.iter (fun flow -> Cops.teardown cops flow) !admitted;
  Engine.run engine;
  Alcotest.(check int) "all torn down" 0 (Broker.per_flow_count broker)

(* ------------------------------------------------------------------ *)
(* The shared lossy channel and retry schedule *)

let test_exchange_schedule () =
  let rec steps d k = if k = 0 then [] else d :: steps (Exchange.next_timeout d) (k - 1) in
  Alcotest.(check (list (float 1e-12))) "doubles to the 1 s cap"
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.0; 1.0 ]
    (steps Exchange.first_timeout 7);
  Alcotest.(check (float 1e-12)) "exact without jitter" 0.4 (Exchange.jittered None 0.4);
  Alcotest.(check (float 1e-12)) "stretched by 1 + j" 0.5
    (Exchange.jittered (Some (fun () -> 0.25)) 0.4)

(* A channel whose [after] queues deliveries for the test to run, and
   whose drop process replays [drops] in order. *)
let exchange_rig ?reachable ~drops ~duplicate () =
  let drops = ref drops and events = ref [] and queued = ref [] and delivered = ref 0 in
  let faults =
    {
      Exchange.drop =
        (fun () ->
          match !drops with
          | d :: rest ->
              drops := rest;
              d
          | [] -> Alcotest.fail "unexpected drop draw");
      duplicate = (fun () -> duplicate);
      extra_delay = (fun () -> 0.25);
    }
  in
  Exchange.send faults
    ~after:(fun d k -> queued := (d, k) :: !queued)
    ~latency:0.5 ?reachable
    ~note:(fun e -> events := e :: !events)
    (fun () -> incr delivered);
  (List.rev !events, List.rev !queued, delivered, drops)

let pp_exchange_event ppf e =
  Fmt.string ppf
    (match e with
    | Exchange.Sent -> "sent"
    | Exchange.Dropped -> "dropped"
    | Exchange.Duplicated -> "duplicated")

let event = Alcotest.testable pp_exchange_event ( = )

let test_exchange_duplicate_draws_own_drop () =
  let events, queued, delivered, drops =
    exchange_rig ~drops:[ true; false ] ~duplicate:true ()
  in
  Alcotest.(check (list event)) "first copy lost, second sent"
    [ Exchange.Sent; Exchange.Dropped; Exchange.Duplicated; Exchange.Sent ]
    events;
  Alcotest.(check int) "both drops drawn" 0 (List.length !drops);
  Alcotest.(check (list (float 1e-12))) "latency + extra delay" [ 0.75 ]
    (List.map fst queued);
  List.iter (fun (_, k) -> k ()) queued;
  Alcotest.(check int) "the duplicate lands" 1 !delivered;
  let events, queued, delivered, _ =
    exchange_rig ~drops:[ false; false ] ~duplicate:true ()
  in
  Alcotest.(check int) "two copies sent" 2
    (List.length (List.filter (( = ) Exchange.Sent) events));
  List.iter (fun (_, k) -> k ()) queued;
  Alcotest.(check int) "both land" 2 !delivered

let test_exchange_unreachable_peer () =
  let events, queued, delivered, _ =
    exchange_rig ~reachable:(fun () -> false) ~drops:[ false ] ~duplicate:false ()
  in
  Alcotest.(check (list event)) "dropped at send" [ Exchange.Sent; Exchange.Dropped ]
    events;
  Alcotest.(check int) "nothing in flight" 0 (List.length queued);
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  let up = ref true in
  let events, queued, delivered, _ =
    exchange_rig ~reachable:(fun () -> !up) ~drops:[ false ] ~duplicate:false ()
  in
  Alcotest.(check (list event)) "sent while reachable" [ Exchange.Sent ] events;
  up := false;
  List.iter (fun (_, k) -> k ()) queued;
  Alcotest.(check int) "lost in flight" 0 !delivered

(* ------------------------------------------------------------------ *)
(* Snapshot: atomicity and id preservation *)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = affix || scan (i + 1)) in
  n = 0 || scan 0

let test_snapshot_restore_atomic () =
  let mk () =
    let t = Topology.create () in
    ignore (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:100_000. Topology.Rate_based);
    Broker.create t
  in
  let target = mk () in
  (* Two 80 kb/s bookings cannot both fit a 100 kb/s link.  The first
     line books on its own; the second must be refused for capacity on
     the scratch broker, leaving the target untouched. *)
  let line flow =
    Bbr_broker.Journal.payload
      (Broker.Admit
         { flow;
           request =
             { Types.profile = Traffic.make ~sigma:1000. ~rho:80000. ~peak:90000. ~lmax:1000.;
               dreq = 1.; ingress = "A"; egress = "B" };
           rate = 80000.; delay = 0.; links = [ 0 ] })
    ^ "\n"
  in
  (match Snapshot.restore (mk ()) ("bbr-snapshot v2\n" ^ line 0) with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "first line restored %d entries" n
  | Error e -> Alcotest.failf "first line must book: %s" e);
  (match Snapshot.restore target ("bbr-snapshot v2\n" ^ line 0 ^ line 1) with
  | Ok _ -> Alcotest.fail "overloaded snapshot must be rejected"
  | Error e ->
      if not (is_infix ~affix:"flow 1" e && is_infix ~affix:"over capacity" e) then
        Alcotest.failf "second line must be refused for capacity, got: %s" e);
  Alcotest.(check int) "target untouched" 0 (Broker.per_flow_count target);
  Lockstep.ledgers_match ~what:"no bandwidth booked" (Model.create (Broker.topology target))
    [ target ];
  (* Malformed numerics are a parse error, not an exception; so are
     numbers in any text but the one the writer produces. *)
  List.iter
    (fun line ->
      match Snapshot.restore target ("bbr-snapshot v2\n" ^ line) with
      | Ok _ -> Alcotest.failf "malformed line must be rejected: %s" line
      | Error e ->
          Alcotest.(check bool) "a parse error" true (is_infix ~affix:"unparseable" e))
    [ "admit 0 oops 1 1 1 1 A B 1 0 0";
      "admit 0 1000. 80000. 90000. 1000. 1. A B 80000. 0. 0" ];
  Alcotest.(check int) "still untouched" 0 (Broker.per_flow_count target)

(* Per-flow snapshot lines and [admit] journal records share one codec,
   name their links and are booked verbatim; links that do not run from
   the request's ingress to its egress are refused, not booked. *)
let test_restore_rejects_stray_links () =
  let t = Topology.create () in
  List.iter
    (fun (src, dst) ->
      ignore (Topology.add_link t ~src ~dst ~capacity:100_000. Topology.Rate_based))
    [ ("A", "B"); ("B", "C"); ("X", "C") ];
  let target = Broker.create t in
  let admit links =
    Broker.Admit
      { flow = 0; request = req ~ingress:"A" ~egress:"C" ~dreq:1. ();
        rate = 8000.; delay = 0.; links = List.map int_of_string (String.split_on_char ',' links) }
  in
  let snapshot links = "bbr-snapshot v2\n" ^ Bbr_broker.Journal.payload (admit links) ^ "\n" in
  List.iter
    (fun (what, links) ->
      (match Snapshot.restore target (snapshot links) with
      | Ok _ -> Alcotest.failf "%s must be rejected" what
      | Error _ -> ());
      let record = Bbr_broker.Journal.encode ~seq:0 ~at:0. (admit links) in
      (match Bbr_broker.Journal.replay target (Bbr_broker.Journal.text_of_lines [ record ]) with
      | Ok _ -> Alcotest.failf "journaled %s must be rejected" what
      | Error _ -> ());
      Alcotest.(check int) (what ^ ": target untouched") 0 (Broker.per_flow_count target))
    [ ("a path ending short of the egress", "0");
      ("a path leaving from another node", "2");
      ("a disconnected path", "0,2") ];
  match Snapshot.restore target (snapshot "0,1") with
  | Ok 1 -> Alcotest.(check int) "the A-B-C path restores" 1 (Broker.per_flow_count target)
  | Ok n -> Alcotest.failf "restored %d entries" n
  | Error e -> Alcotest.failf "the A-B-C path was refused: %s" e

let test_snapshot_preserves_flow_ids () =
  let topo = Fig8.topology `Rate_only in
  let primary = Broker.create topo in
  let flows =
    List.init 3 (fun _ ->
        match
          Broker.request primary (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ())
        with
        | Ok (flow, _) -> flow
        | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e)
  in
  let snap = Snapshot.save primary in
  let standby = Broker.create topo in
  (match Snapshot.restore standby snap with
  | Ok n -> Alcotest.(check int) "all restored" 3 n
  | Error e -> Alcotest.failf "restore failed: %s" e);
  (* An ingress router can tear down by the id the primary issued. *)
  Broker.teardown standby (List.nth flows 1);
  Alcotest.(check int) "teardown by original id" 2 (Broker.per_flow_count standby);
  (* New admissions never collide with ids the primary handed out. *)
  match Broker.request standby (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ()) with
  | Ok (flow, _) ->
      Alcotest.(check bool) "fresh id beyond the primary's horizon" true
        (List.for_all (fun f -> flow > f) flows)
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e

(* A macroflow keeps a running sum of its members, so a snapshot that
   lists a member twice is refused rather than summed twice. *)
let test_restore_rejects_duplicate_member () =
  let topo = Fig8.topology `Rate_only in
  let mk () =
    Broker.create ~classes:[ { Aggregate.class_id = 0; dreq = 3.; cd = 0.24 } ] topo
  in
  let primary = mk () in
  List.iter
    (fun _ ->
      match
        Broker.request_class primary
          (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:3. ())
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e)
    [ 1; 2 ];
  let lines = String.split_on_char '\n' (Snapshot.save primary) in
  let member = List.find (fun l -> String.starts_with ~prefix:"member " l) lines in
  let doubled =
    String.concat "\n" (List.concat_map (fun l -> if l = member then [ l; l ] else [ l ]) lines)
  in
  let standby = mk () in
  (match Snapshot.restore standby doubled with
  | Ok _ -> Alcotest.fail "a repeated member must be refused"
  | Error _ -> ());
  Alcotest.(check int) "standby untouched" 0
    (Aggregate.member_count (Broker.aggregate standby));
  match Snapshot.restore standby (Snapshot.save primary) with
  | Ok n -> Alcotest.(check int) "the snapshot as saved restores" 2 n
  | Error e -> Alcotest.failf "restore failed: %s" e

(* Mostly small flows, and some large enough that a few of them, with
   their contingency, bring the 200 Mb/s link near capacity. *)
let profile_gen =
  QCheck.Gen.(
    let* big = frequency [ (3, return false); (1, return true) ] in
    let* rho = if big then float_range 5e6 40e6 else float_range 50_000. 200_000. in
    let* lmax = float_range 500. 12_000. in
    let* burst = float_range 1. 4. in
    let* pm = float_range 1.5 4. in
    return (Traffic.make ~sigma:(lmax *. burst) ~rho ~peak:(rho *. pm) ~lmax))

type load_op =
  | Per_flow of Traffic.t
  | Join of float * Traffic.t  (** class bound asked for, profile *)
  | Leave of int  (** a live flow, by index modulo the live count *)
  | Queue_empty  (** on every macroflow *)

let pp_load_op ppf = function
  | Per_flow p -> Fmt.pf ppf "flow %a" Traffic.pp p
  | Join (dreq, p) -> Fmt.pf ppf "join %g %a" dreq Traffic.pp p
  | Leave i -> Fmt.pf ppf "leave %d" i
  | Queue_empty -> Fmt.string ppf "queue_empty"

let arb_mixed_load =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.list ~sep:Fmt.semi pp_load_op))
    QCheck.Gen.(
      list_size (int_range 1 30)
        (frequency
           [
             (2, map (fun p -> Per_flow p) profile_gen);
             (4, map2 (fun d p -> Join (d, p)) (oneofl [ 5.; 10. ]) profile_gen);
             (2, map (fun i -> Leave i) (int_bound 1000));
             (1, return Queue_empty);
           ]))

let prop_snapshot_round_trip_mixed =
  (* A broker carrying per-flow bookings and class macroflows — members
     joined and left, contingency pools part released by queue-empty
     signals, some macroflows emptied, links near capacity — restores
     from its snapshot digest-exact. *)
  QCheck.Test.make ~count:60 ~name:"snapshot round-trips mixed load" arb_mixed_load
    (fun ops ->
      let mk () =
        let t = Topology.create () in
        ignore
          (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:200e6 Topology.Rate_based);
        Broker.create
          ~classes:
            [
              { Aggregate.class_id = 0; dreq = 5.; cd = 0.24 };
              { Aggregate.class_id = 1; dreq = 10.; cd = 0.24 };
            ]
          t
      in
      let apply broker live =
        let admitted flow ~cls = live := (flow, cls) :: !live in
        function
        | Per_flow profile -> (
            match Broker.request broker (req ~profile ~dreq:5. ()) with
            | Ok (flow, _) -> admitted flow ~cls:false
            | Error _ -> ())
        | Join (dreq, profile) -> (
            match Broker.request_class broker (req ~profile ~dreq ()) with
            | Ok (flow, _) -> admitted flow ~cls:true
            | Error _ -> ())
        | Leave _ when !live = [] -> ()
        | Leave i ->
            let flow, cls = List.nth !live (i mod List.length !live) in
            live := List.filter (fun (f, _) -> f <> flow) !live;
            if cls then Broker.teardown_class broker flow else Broker.teardown broker flow
        | Queue_empty ->
            List.iter
              (fun (s : Aggregate.macro_stats) ->
                Broker.queue_empty broker ~class_id:s.Aggregate.class_id
                  ~path_id:s.Aggregate.path_id)
              (Aggregate.all_macroflows (Broker.aggregate broker))
      in
      let original = mk () in
      let live = ref [] in
      List.iter (apply original live) ops;
      let restored = mk () in
      (match Snapshot.restore restored (Snapshot.save original) with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "restore failed: %s" e);
      Bbr_broker.Audit.ok (Bbr_broker.Audit.check restored)
      && Bbr_broker.Audit.mib_digest restored = Bbr_broker.Audit.mib_digest original
      &&
      (* The restored macroflow sums carry on as the primary's do: the
         same leaves and joins on both keep them digest-identical. *)
      let trailing = List.filter (function Join _ | Leave _ -> true | _ -> false) ops in
      let live' = ref !live in
      List.iter (apply original live) trailing;
      List.iter (apply restored live') trailing;
      Bbr_broker.Audit.mib_digest restored = Bbr_broker.Audit.mib_digest original)

(* ------------------------------------------------------------------ *)
(* Failover manager *)

let test_failover_promote_cycle () =
  let topo = Fig8.topology `Rate_only in
  let make () = Broker.create topo in
  let primary = make () in
  let fw = Failover.create ~make_standby:make primary in
  (match Failover.promote fw with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "promotion without a checkpoint must fail");
  (match Broker.request primary (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e);
  Failover.checkpoint fw;
  Alcotest.(check int) "one checkpoint" 1 (Failover.checkpoints fw);
  (* Admissions after the checkpoint are the crash's loss window. *)
  (match Broker.request primary (req ~ingress:Fig8.ingress2 ~egress:Fig8.egress2 ~dreq:2.44 ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e);
  Failover.crash fw;
  Alcotest.(check bool) "down" false (Failover.is_up fw);
  Failover.checkpoint fw;
  Alcotest.(check int) "no checkpoint while down" 1 (Failover.checkpoints fw);
  (match Failover.promote fw with
  | Ok n -> Alcotest.(check int) "checkpointed state restored" 1 n
  | Error e -> Alcotest.failf "promotion failed: %s" e);
  Alcotest.(check bool) "up again" true (Failover.is_up fw);
  Alcotest.(check int) "generation bumped" 1 (Failover.generation fw);
  Alcotest.(check bool) "standby took over" true (Failover.active fw != primary);
  Alcotest.(check int) "standby holds the checkpointed flow" 1
    (Broker.per_flow_count (Failover.active fw))

(* The class-aggregate benchmark's broker shape: the eight Table-1
   classes under Feedback on a 5-hop 200 Mb/s VT-EDF chain, about 5 000
   requests holding at most 3 000 members, every macroflow's queue
   reported empty every 32 decisions.  Its checkpoint must restore as
   booked, and recovery from the store — checkpoint plus a journal tail
   of further joins and leaves — must be lossless and digest-exact. *)
let test_checkpoint_near_capacity_classes () =
  let make () =
    let topo, _, _ =
      Bbr_workload.Topo_gen.chain ~capacity:200e6 ~sched:Topology.Delay_based ~hops:5 ()
    in
    Broker.create
      ~classes:(Bbr_workload.Dynamic.service_classes 0.24)
      ~method_:Aggregate.Feedback topo
  in
  let primary = make () in
  let fw =
    Failover.create ~make_standby:make ~journal:(Bbr_broker.Journal.create ()) primary
  in
  let prng = Prng.create ~seed:1 in
  let live = Queue.create () in
  let decisions = ref 0 in
  let macros () = Aggregate.all_macroflows (Broker.aggregate primary) in
  let step () =
    if !decisions mod 32 = 0 then
      List.iter
        (fun (s : Aggregate.macro_stats) ->
          Broker.queue_empty primary ~class_id:s.Aggregate.class_id
            ~path_id:s.Aggregate.path_id)
        (macros ());
    incr decisions;
    let ty = Prng.int prng ~bound:4 in
    let dreq = Profiles.bound ty (if Prng.bool prng then `Tight else `Loose) in
    match
      Broker.request_class primary
        { Types.profile = Profiles.profile ty; dreq; ingress = "n0"; egress = "n5" }
    with
    | Ok (flow, _) ->
        Queue.push flow live;
        if Queue.length live > 3000 then Broker.teardown_class primary (Queue.pop live)
    | Error _ -> ()
  in
  for _ = 1 to 5000 do
    step ()
  done;
  Alcotest.(check bool) "contingency is held at the checkpoint" true
    (List.exists (fun (s : Aggregate.macro_stats) -> s.Aggregate.contingency > 0.) (macros ()));
  (match Snapshot.restore (make ()) (Snapshot.save primary) with
  | Ok n -> Alcotest.(check int) "every member restored" (Broker.class_flow_count primary) n
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Failover.checkpoint fw;
  Alcotest.(check int) "checkpoint taken" 1 (Failover.checkpoints fw);
  for _ = 1 to 50 do
    step ()
  done;
  match Failover.recover_from ~make (Failover.storage fw) with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok (standby, _, r) ->
      Alcotest.(check bool) "recovery reports no loss" false (Failover.recovery_loss r);
      Alcotest.(check string) "recovered digest equals the live one"
        (Bbr_broker.Audit.mib_digest primary)
        (Bbr_broker.Audit.mib_digest standby)

let test_failover_periodic_checkpoints () =
  let engine = Engine.create () in
  let time =
    {
      Broker.now = (fun () -> Engine.now engine);
      after = (fun delay f -> Engine.schedule_after engine ~delay f);
    }
  in
  let topo = Fig8.topology `Rate_only in
  let make () = Broker.create ~time topo in
  let fw = Failover.create ~make_standby:make ~time (make ()) in
  Failover.start_checkpoints fw ~every:1.;
  Failover.start_checkpoints fw ~every:1.;
  Engine.run ~until:5.5 engine;
  Alcotest.(check int) "one timer, five ticks" 5 (Failover.checkpoints fw);
  (match Failover.snapshot_age fw with
  | Some age -> Alcotest.(check (float 1e-9)) "age since last tick" 0.5 age
  | None -> Alcotest.fail "expected a checkpoint");
  Failover.stop fw;
  Engine.run engine;
  Alcotest.(check int) "stopped" 5 (Failover.checkpoints fw)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let test_fault_drop () =
  let prng = Prng.create ~seed:7 in
  let never = Fault.drop prng ~p:0. in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never drops" false (never ())
  done;
  let count p =
    let prng = Prng.create ~seed:7 in
    let d = Fault.drop prng ~p in
    let n = ref 0 in
    for _ = 1 to 10_000 do
      if d () then incr n
    done;
    !n
  in
  let n = count 0.1 in
  Alcotest.(check bool) "p=0.1 drops ~10%" true (n > 800 && n < 1200);
  Alcotest.(check int) "seeded: reproducible" n (count 0.1);
  Alcotest.(check bool) "invalid p raises" true
    (try
       ignore (Fault.drop prng ~p:1. ());
       false
     with Invalid_argument _ -> true)

let test_fault_link_plan_deterministic () =
  let plan () =
    Fault.link_plan (Prng.create ~seed:3) ~link_ids:[ 0; 1; 2 ] ~horizon:1000. ()
  in
  let a = plan () and b = plan () in
  let strip = List.map (fun e -> (e.Fault.at, e.Fault.action)) in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  Alcotest.(check bool) "identical (modulo injection ids)" true (strip a = strip b);
  Alcotest.(check bool) "non-empty" true (a <> []);
  let rec sorted = function
    | x :: (y :: _ as rest) -> x.Fault.at <= y.Fault.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by time" true (sorted a);
  (* Per link, the schedule alternates down/up starting from up. *)
  List.iter
    (fun id ->
      let mine =
        List.filter_map
          (function
            | { Fault.action = Fault.Link_down i; _ } when i = id -> Some `Down
            | { Fault.action = Fault.Link_up i; _ } when i = id -> Some `Up
            | _ -> None)
          a
      in
      let rec alternates expected = function
        | [] -> true
        | x :: rest -> x = expected && alternates (if x = `Down then `Up else `Down) rest
      in
      Alcotest.(check bool) "alternates from down" true (alternates `Down mine))
    [ 0; 1; 2 ]

let test_fault_install_fires_hooks () =
  let engine = Engine.create () in
  let log = ref [] in
  let hooks =
    Fault.hooks
      ~on_link_down:(fun id -> log := (Engine.now engine, `Down id) :: !log)
      ~on_link_up:(fun id -> log := (Engine.now engine, `Up id) :: !log)
      ~on_crash:(fun who -> log := (Engine.now engine, `Crash who) :: !log)
      ()
  in
  Fault.install engine hooks
    [
      Fault.event ~at:1. (Fault.Link_down 4);
      Fault.event ~at:2. (Fault.Crash "bb");
      Fault.event ~at:3. (Fault.Link_up 4);
    ];
  Engine.run engine;
  Alcotest.(check bool) "hooks fired in order" true
    (List.rev !log = [ (1., `Down 4); (2., `Crash "bb"); (3., `Up 4) ])

(* Coincident same-sim-time injections must dispatch in injection-id
   order no matter how the event lists were interleaved before install —
   scenario campaigns concatenate fault lists from independent phase
   generators, and the run must not depend on concatenation order. *)
let test_fault_coincident_deterministic () =
  (* Bind in sequence: ids are handed out in creation order, and a list
     literal's elements evaluate right-to-left. *)
  let e1 = Fault.event ~at:5. (Fault.Link_down 0) in
  let e2 = Fault.event ~at:5. (Fault.Link_down 1) in
  let e3 = Fault.event ~at:5. (Fault.Crash "bb") in
  let e4 = Fault.event ~at:5. (Fault.Link_up 0) in
  let events = [ e1; e2; e3; e4 ] in
  let dispatch_order evs =
    let engine = Engine.create () in
    let log = ref [] in
    let hooks =
      Fault.hooks
        ~on_link_down:(fun id -> log := `Down id :: !log)
        ~on_link_up:(fun id -> log := `Up id :: !log)
        ~on_crash:(fun who -> log := `Crash who :: !log)
        ()
    in
    Fault.install engine hooks evs;
    Engine.run engine;
    List.rev !log
  in
  let expected = [ `Down 0; `Down 1; `Crash "bb"; `Up 0 ] in
  Alcotest.(check bool) "program order" true (dispatch_order events = expected);
  Alcotest.(check bool) "reversed list, same dispatch" true
    (dispatch_order (List.rev events) = expected);
  (* An interleaving a scenario would produce: faults from two phase
     generators concatenated tail-first. *)
  let a, b = (List.filteri (fun i _ -> i mod 2 = 0) events,
              List.filteri (fun i _ -> i mod 2 = 1) events) in
  Alcotest.(check bool) "merged interleaving, same dispatch" true
    (dispatch_order (b @ a) = expected)

(* ------------------------------------------------------------------ *)
(* End-to-end scenario *)

let e2e_config ~loss =
  {
    Bbr_scenario.Matrix.fig10_failover with
    Scenario.loss;
    duration = 500.;
    horizon = 1200.;
    faults =
      [
        Scenario.Links { at = 200.; duration = 150.; ends = [ ("R3", "R4") ] };
        Scenario.Broker_crash { at = Scenario.At 400.; promote_after = 0.5 };
      ];
  }

let test_e2e_deterministic () =
  let a = Runner.run (e2e_config ~loss:0.1) in
  let b = Runner.run (e2e_config ~loss:0.1) in
  Alcotest.(check bool) "same seed, same outcome" true (a = b)

let test_e2e_no_loss_no_flows_lost () =
  let o = Runner.run (e2e_config ~loss:0.) in
  Alcotest.(check bool) "workload offered" true (o.Runner.offered > 0);
  Alcotest.(check bool) "crash observed with active flows" true
    (o.Runner.flows_at_crash > 0);
  Alcotest.(check int) "lossless journal + no loss: nothing lost" 0 (Runner.flows_lost o);
  Alcotest.(check int) "no stuck requests" 0 o.Runner.unresolved;
  Alcotest.(check int) "loss-free channel never retransmits" 0
    o.Runner.retransmissions;
  Alcotest.(check bool) "recovery time observed" true (o.Runner.recovery_time <> None)

let test_e2e_lossy_all_resolve () =
  let o = Runner.run (e2e_config ~loss:0.1) in
  Alcotest.(check int) "every request resolves under 10% loss" 0 o.Runner.unresolved;
  Alcotest.(check bool) "losses actually happened" true (o.Runner.retransmissions > 0);
  Alcotest.(check int) "promotion clean" 0
    (match o.Runner.promote_error with None -> 0 | Some _ -> 1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "failover"
    [
      ( "routing",
        [ Alcotest.test_case "avoids down links" `Quick test_routing_avoids_down_links ] );
      ( "teardown",
        [
          Alcotest.test_case "class idempotent" `Quick test_teardown_class_idempotent;
          Alcotest.test_case "edge broker idempotent" `Quick
            test_edge_broker_teardown_idempotent;
        ] );
      ( "fail_link",
        [
          Alcotest.test_case "reroutes all" `Quick test_fail_link_reroutes_all;
          Alcotest.test_case "drops without alternative" `Quick
            test_fail_link_drops_when_no_alternative;
          Alcotest.test_case "partial reroute by id order" `Quick
            test_fail_link_partial_reroute;
          Alcotest.test_case "reroutes class members" `Quick
            test_fail_link_reroutes_class_members;
        ] );
      ( "reliable cops",
        [
          Alcotest.test_case "resolves under 10% loss" `Quick
            test_cops_resolves_under_loss;
          Alcotest.test_case "duplicate suppression" `Quick
            test_cops_duplicate_suppression;
          Alcotest.test_case "drains across crash" `Quick test_cops_drains_across_crash;
          Alcotest.test_case "duplicating channel" `Quick test_cops_duplicating_channel;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "retry schedule and jitter" `Quick test_exchange_schedule;
          Alcotest.test_case "duplicate draws its own drop" `Quick
            test_exchange_duplicate_draws_own_drop;
          Alcotest.test_case "unreachable peer" `Quick test_exchange_unreachable_peer;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore is atomic" `Quick test_snapshot_restore_atomic;
          Alcotest.test_case "preserves flow ids" `Quick test_snapshot_preserves_flow_ids;
          Alcotest.test_case "rejects stray links" `Quick test_restore_rejects_stray_links;
          Alcotest.test_case "rejects a repeated member" `Quick
            test_restore_rejects_duplicate_member;
          QCheck_alcotest.to_alcotest prop_snapshot_round_trip_mixed;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote cycle" `Quick test_failover_promote_cycle;
          Alcotest.test_case "near-capacity class checkpoint" `Quick
            test_checkpoint_near_capacity_classes;
          Alcotest.test_case "periodic checkpoints" `Quick
            test_failover_periodic_checkpoints;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "drop process" `Quick test_fault_drop;
          Alcotest.test_case "link plan deterministic" `Quick
            test_fault_link_plan_deterministic;
          Alcotest.test_case "install fires hooks" `Quick test_fault_install_fires_hooks;
          Alcotest.test_case "coincident injections deterministic" `Quick
            test_fault_coincident_deterministic;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "deterministic" `Quick test_e2e_deterministic;
          Alcotest.test_case "no loss, no flows lost" `Quick
            test_e2e_no_loss_no_flows_lost;
          Alcotest.test_case "lossy, all resolve" `Quick test_e2e_lossy_all_resolve;
        ] );
    ]
