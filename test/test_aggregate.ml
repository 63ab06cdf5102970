(* Tests for class-based guaranteed services with dynamic flow aggregation
   (paper Section 4): joins, leaves, contingency bandwidth under both the
   bounding and the feedback methods, and the Theorem 2/3 conditions. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Delay = Bbr_vtrs.Delay
module Types = Bbr_broker.Types
module Aggregate = Bbr_broker.Aggregate
module Node_mib = Bbr_broker.Node_mib
module Path_mib = Bbr_broker.Path_mib
module Broker = Bbr_broker.Broker
module Engine = Bbr_netsim.Engine

let check_float = Alcotest.(check (float 1e-6))

let type0 = Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.

type fixture = {
  engine : Engine.t;
  node_mib : Node_mib.t;
  path_mib : Path_mib.t;
  path : Path_mib.info;
  agg : Aggregate.t;
  rate_events : (int * int * float) list ref;  (* class, path, total *)
}

(* The aggregate of a broker on an engine clock, whose hold table
   releases the Bounding grants as the engine runs. *)
let fixture ?(setting = `Rate_only) ?(classes = [ { Aggregate.class_id = 0; dreq = 2.44; cd = 0.1 } ])
    ~method_ () =
  let topo = Bbr_workload.Fig8.topology setting in
  let engine = Engine.create () in
  let rate_events = ref [] in
  let broker =
    Broker.create ~classes ~method_
      ~time:
        {
          Broker.now = (fun () -> Engine.now engine);
          after = (fun delay f -> Engine.schedule_after engine ~delay f);
        }
      ~on_class_rate:(fun ~class_id ~path_id ~total_rate ->
        rate_events := (class_id, path_id, total_rate) :: !rate_events)
      topo
  in
  let path_mib = Broker.path_mib broker in
  let path = Path_mib.register path_mib (Bbr_workload.Fig8.path1 topo) in
  {
    engine;
    node_mib = Broker.node_mib broker;
    path_mib;
    path;
    agg = Broker.aggregate broker;
    rate_events;
  }

let stats fx = Option.get (Aggregate.macroflow_stats fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id)

(* ------------------------------------------------------------------ *)

let test_create_validation () =
  let topo = Bbr_workload.Fig8.topology `Rate_only in
  let node_mib = Node_mib.create topo in
  let path_mib = Path_mib.create node_mib in
  let hooks =
    {
      Aggregate.now = (fun () -> 0.);
      hold = (fun ~class_id:_ ~path_id:_ ~grant:_ ~expires:_ -> ());
      rate_changed = (fun ~class_id:_ ~path_id:_ ~total_rate:_ -> ());
    }
  in
  Alcotest.(check bool) "duplicate ids" true
    (try
       ignore
         (Aggregate.create node_mib path_mib
            ~classes:
              [
                { Aggregate.class_id = 1; dreq = 2.; cd = 0.1 };
                { Aggregate.class_id = 1; dreq = 3.; cd = 0.1 };
              ]
            ~method_:Aggregate.Bounding ~hooks);
       false
     with Invalid_argument _ -> true)

let test_best_class () =
  let fx =
    fixture
      ~classes:
        [
          { Aggregate.class_id = 0; dreq = 1.0; cd = 0.1 };
          { Aggregate.class_id = 1; dreq = 2.0; cd = 0.1 };
          { Aggregate.class_id = 2; dreq = 3.0; cd = 0.1 };
        ]
      ~method_:Aggregate.Bounding ()
  in
  (match Aggregate.best_class fx.agg ~dreq:2.5 with
  | Some c -> Alcotest.(check int) "loosest satisfying" 1 c.Aggregate.class_id
  | None -> Alcotest.fail "expected class");
  Alcotest.(check bool) "none tight enough" true
    (Aggregate.best_class fx.agg ~dreq:0.5 = None)

let test_first_join_reserves_mean_rate () =
  let fx = fixture ~method_:Aggregate.Bounding () in
  (match Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "join rejected: %a" Types.pp_reject_reason e);
  let s = stats fx in
  Alcotest.(check int) "one member" 1 s.Aggregate.members;
  (* At the 2.44 bound the delay-minimal aggregate rate equals rho. *)
  check_float "base = rho" 50_000. s.Aggregate.base_rate;
  (* Theorem 2 contingency: peak - increment = 100k - 50k. *)
  check_float "contingency" 50_000. s.Aggregate.contingency;
  (* Links carry base + contingency. *)
  let link_id = (List.hd fx.path.Path_mib.links).Topology.link_id in
  check_float "link reservation" 100_000. (Node_mib.reserved fx.node_mib ~link_id)

let test_join_rejected_when_peak_exceeds_residual () =
  let fx = fixture ~method_:Aggregate.Bounding () in
  (* Eat residual down to under one peak. *)
  List.iter
    (fun (l : Topology.link) ->
      Node_mib.reserve fx.node_mib ~link_id:l.Topology.link_id 1_450_000.)
    fx.path.Path_mib.links;
  match Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0 with
  | Error Types.Insufficient_bandwidth -> ()
  | _ -> Alcotest.fail "expected bandwidth rejection"

let test_bounding_contingency_expires () =
  let fx = fixture ~method_:Aggregate.Bounding () in
  (match Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "join rejected");
  (* First join: no prior edge backlog, tau = 0, released as soon as the
     hold's timer fires. *)
  Engine.run fx.engine;
  check_float "contingency released" 0. (stats fx).Aggregate.contingency;
  (* Second join: edge bound is now positive, tau > 0. *)
  (match Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:2 type0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "second join rejected");
  Alcotest.(check bool) "contingency held" true ((stats fx).Aggregate.contingency > 0.);
  Engine.run fx.engine;
  check_float "released after tau" 0. (stats fx).Aggregate.contingency;
  check_float "steady base" 100_000. (stats fx).Aggregate.base_rate

let test_bounding_tau_formula () =
  (* eq. (17): tau = d_edge_old * (r + conting_before) / delta_r. *)
  let fx = fixture ~method_:Aggregate.Bounding () in
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0);
  Engine.run fx.engine;
  let s1 = stats fx in
  let d_edge_old = s1.Aggregate.edge_bound in
  check_float "steady edge bound" (Delay.edge_bound type0 ~rate:50_000.) d_edge_old;
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:2 type0);
  (* increment 50k, contingency 50k; expected release at
     tau = d_edge_old * 50000 / 50000 = d_edge_old. *)
  Engine.run ~until:(d_edge_old -. 0.01) fx.engine;
  Alcotest.(check bool) "still held just before tau" true
    ((stats fx).Aggregate.contingency > 0.);
  Engine.run ~until:(d_edge_old +. 0.01) fx.engine;
  check_float "released at tau" 0. (stats fx).Aggregate.contingency

let test_feedback_releases_on_queue_empty () =
  let fx = fixture ~method_:Aggregate.Feedback () in
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0);
  Engine.run fx.engine;
  Alcotest.(check bool) "held until signal" true ((stats fx).Aggregate.contingency > 0.);
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  check_float "released on signal" 0. (stats fx).Aggregate.contingency

let test_bounding_ignores_queue_empty () =
  let fx = fixture ~method_:Aggregate.Bounding () in
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0);
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:2 type0);
  let held = (stats fx).Aggregate.contingency in
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  check_float "unchanged" held (stats fx).Aggregate.contingency

let test_leave_keeps_allocation_during_contingency () =
  let fx = fixture ~method_:Aggregate.Feedback () in
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0);
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:2 type0);
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  let before = stats fx in
  check_float "two members at 2x rho" 100_000. before.Aggregate.base_rate;
  Aggregate.leave fx.agg ~flow:2;
  let during = stats fx in
  (* Theorem 3: base drops, decrement becomes contingency, total allocation
     unchanged until the contingency period ends. *)
  check_float "base dropped" 50_000. during.Aggregate.base_rate;
  check_float "decrement held" 50_000. during.Aggregate.contingency;
  let link_id = (List.hd fx.path.Path_mib.links).Topology.link_id in
  check_float "links unchanged" 100_000. (Node_mib.reserved fx.node_mib ~link_id);
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  check_float "released after signal" 50_000. (Node_mib.reserved fx.node_mib ~link_id)

let test_last_leave_clears_everything () =
  let fx = fixture ~method_:Aggregate.Feedback () in
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0);
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  Aggregate.leave fx.agg ~flow:1;
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  let s = stats fx in
  Alcotest.(check int) "no members" 0 s.Aggregate.members;
  check_float "no base" 0. s.Aggregate.base_rate;
  check_float "no contingency" 0. s.Aggregate.contingency;
  let link_id = (List.hd fx.path.Path_mib.links).Topology.link_id in
  check_float "links free" 0. (Node_mib.reserved fx.node_mib ~link_id);
  Alcotest.(check int) "owner map empty" 0 (Aggregate.member_count fx.agg)

let test_leave_unknown_flow () =
  let fx = fixture ~method_:Aggregate.Feedback () in
  Alcotest.(check bool) "raises" true
    (try
       Aggregate.leave fx.agg ~flow:7;
       false
     with Invalid_argument _ -> true)

let test_static_fill_counts () =
  (* The aggregate column of Table 2 (rate-based-only): 29 flows at both
     bounds. *)
  let run dreq =
    let fx = fixture ~classes:[ { Aggregate.class_id = 0; dreq; cd = 0.1 } ]
        ~method_:Aggregate.Bounding () in
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      (match Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:!n type0 with
      | Ok () -> incr n
      | Error _ -> continue := false);
      Engine.run fx.engine
    done;
    !n
  in
  Alcotest.(check int) "2.44 -> 29" 29 (run 2.44);
  Alcotest.(check int) "2.19 -> 29" 29 (run 2.19)

let test_mixed_path_edf_entry () =
  (* On the mixed path the macroflow occupies the VT-EDF schedulers with
     one entry at delay cd; it must come and go with the macroflow. *)
  let fx = fixture ~setting:`Mixed ~method_:Aggregate.Feedback () in
  let edf_entry_count () =
    List.fold_left
      (fun acc (l : Topology.link) ->
        match (Node_mib.entry fx.node_mib ~link_id:l.Topology.link_id).Node_mib.edf with
        | Some edf -> acc + Bbr_vtrs.Vtedf.flow_count edf
        | None -> acc)
      0 fx.path.Path_mib.links
  in
  Alcotest.(check int) "no entries" 0 (edf_entry_count ());
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0);
  Alcotest.(check int) "one entry per EDF hop" 2 (edf_entry_count ());
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:2 type0);
  Alcotest.(check int) "still one entry per hop" 2 (edf_entry_count ());
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  Aggregate.leave fx.agg ~flow:1;
  Aggregate.leave fx.agg ~flow:2;
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  Alcotest.(check int) "entries gone" 0 (edf_entry_count ())

let test_rate_change_hook_fires () =
  let fx = fixture ~method_:Aggregate.Feedback () in
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 type0);
  (match !(fx.rate_events) with
  | (cls, pid, total) :: _ ->
      Alcotest.(check int) "class" 0 cls;
      Alcotest.(check int) "path" fx.path.Path_mib.path_id pid;
      check_float "total incl. contingency" 100_000. total
  | [] -> Alcotest.fail "expected rate push");
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  match !(fx.rate_events) with
  | (_, _, total) :: _ -> check_float "after release" 50_000. total
  | [] -> Alcotest.fail "expected rate push"

let test_join_leave_storm_conserves_bandwidth () =
  (* After an arbitrary join/leave storm with all contingency released,
     link reservations equal the sum of member sustained rates. *)
  let fx = fixture ~method_:Aggregate.Feedback () in
  let prng = Bbr_util.Prng.create ~seed:99 in
  let live = ref [] in
  let next = ref 0 in
  for _ = 1 to 200 do
    if !live <> [] && Bbr_util.Prng.bool prng then begin
      match !live with
      | f :: rest ->
          Aggregate.leave fx.agg ~flow:f;
          live := rest
      | [] -> ()
    end
    else begin
      match Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:!next type0 with
      | Ok () ->
          live := !next :: !live;
          incr next
      | Error _ -> ()
    end;
    Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id
  done;
  let s = stats fx in
  Alcotest.(check int) "members tracked" (List.length !live) s.Aggregate.members;
  check_float "base = members * rho"
    (float_of_int (List.length !live) *. 50_000.)
    s.Aggregate.base_rate;
  check_float "no contingency" 0. s.Aggregate.contingency;
  let link_id = (List.hd fx.path.Path_mib.links).Topology.link_id in
  check_float "links consistent" s.Aggregate.base_rate
    (Node_mib.reserved fx.node_mib ~link_id)

let test_heterogeneous_members () =
  (* Different profile types can share a class; the aggregate base equals
     the sum of their sustained rates at a loose bound. *)
  let fx =
    fixture ~classes:[ { Aggregate.class_id = 0; dreq = 4.24; cd = 0.1 } ]
      ~method_:Aggregate.Feedback ()
  in
  let p1 = Bbr_workload.Profiles.profile 0 in
  let p3 = Bbr_workload.Profiles.profile 3 in
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:1 p1);
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  ignore (Aggregate.join fx.agg ~class_id:0 ~path:fx.path ~flow:2 p3);
  Aggregate.queue_empty fx.agg ~class_id:0 ~path_id:fx.path.Path_mib.path_id;
  check_float "base = rho1 + rho3" 70_000. (stats fx).Aggregate.base_rate

let () =
  Alcotest.run "aggregate"
    [
      ( "setup",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "best class" `Quick test_best_class;
        ] );
      ( "join",
        [
          Alcotest.test_case "first join" `Quick test_first_join_reserves_mean_rate;
          Alcotest.test_case "peak over residual" `Quick
            test_join_rejected_when_peak_exceeds_residual;
          Alcotest.test_case "static fill = Table 2" `Quick test_static_fill_counts;
          Alcotest.test_case "heterogeneous members" `Quick test_heterogeneous_members;
        ] );
      ( "contingency",
        [
          Alcotest.test_case "bounding expiry" `Quick test_bounding_contingency_expires;
          Alcotest.test_case "bounding tau (eq 17)" `Quick test_bounding_tau_formula;
          Alcotest.test_case "feedback release" `Quick test_feedback_releases_on_queue_empty;
          Alcotest.test_case "bounding ignores feedback" `Quick
            test_bounding_ignores_queue_empty;
        ] );
      ( "leave",
        [
          Alcotest.test_case "Theorem 3 hold" `Quick
            test_leave_keeps_allocation_during_contingency;
          Alcotest.test_case "last leave" `Quick test_last_leave_clears_everything;
          Alcotest.test_case "unknown flow" `Quick test_leave_unknown_flow;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "EDF entries" `Quick test_mixed_path_edf_entry;
          Alcotest.test_case "rate hook" `Quick test_rate_change_hook_fires;
          Alcotest.test_case "join/leave storm" `Quick
            test_join_leave_storm_conserves_bandwidth;
        ] );
    ]
