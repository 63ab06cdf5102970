(* Dynamic flow aggregation and contingency bandwidth (paper Section 4,
   Figure 7).

   Part 1 reproduces the transient the paper warns about: two greedy
   microflows are aggregated; one leaves; reducing the macroflow's
   reserved rate immediately lets the leftover backlog delay later packets
   far beyond the class's edge-delay bound.  Applying Theorem 3 — keep the
   old rate as contingency bandwidth until the backlog clears — repairs
   it.

   Part 2 shows the broker running the whole mechanism end to end with
   the contingency-feedback method: joins, leaves, rate pushes to the edge
   conditioner, and queue-empty feedback releasing contingency bandwidth.

   Run with: dune exec examples/aggregation_contingency.exe *)

module Traffic = Bbr_vtrs.Traffic
module Delay = Bbr_vtrs.Delay
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Aggregate = Bbr_broker.Aggregate
module Engine = Bbr_netsim.Engine
module Edge_conditioner = Bbr_netsim.Edge_conditioner
module Source = Bbr_netsim.Source
module Fluid_edge = Bbr_netsim.Fluid_edge
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles

let type0 = Profiles.profile 0

(* --- Part 1: the edge transient, packet level ---------------------- *)

let leave_transient ~naive =
  let engine = Engine.create () in
  let t_leave = Traffic.t_on type0 in
  let max_wait_after = ref 0. in
  let arrivals = Hashtbl.create 512 in
  let seq = ref 0 in
  let cond = ref None in
  let c =
    Edge_conditioner.create engine ~rate:100_000. ~delay_param:0. ~lmax:24_000.
      ~next:(fun p ->
        match Hashtbl.find_opt arrivals p.Bbr_netsim.Packet.seq with
        | Some at when at >= t_leave ->
            max_wait_after := Float.max !max_wait_after (Engine.now engine -. at)
        | _ -> ())
      ()
  in
  cond := Some c;
  let submit p =
    let tagged = { p with Bbr_netsim.Packet.seq = !seq } in
    incr seq;
    Hashtbl.replace arrivals tagged.Bbr_netsim.Packet.seq (Engine.now engine);
    Edge_conditioner.submit c tagged
  in
  let _s1 = Source.greedy engine ~profile:type0 ~flow:1 ~path:[||] ~next:submit () in
  let s2 = Source.greedy engine ~profile:type0 ~flow:2 ~path:[||] ~next:submit () in
  Engine.schedule engine ~at:t_leave (fun () ->
      Source.halt s2;
      if naive then Edge_conditioner.set_rate c 50_000.
      else begin
        let tau = Edge_conditioner.backlog_bits c /. 50_000. in
        Engine.schedule_after engine ~delay:tau (fun () ->
            Edge_conditioner.set_rate c 50_000.)
      end);
  Engine.run ~until:30. engine;
  !max_wait_after

(* --- Part 2: the broker's contingency machinery -------------------- *)

let broker_demo () =
  let engine = Engine.create () in
  let topo = Fig8.topology `Rate_only in
  let fluid = ref None in
  let broker_ref = ref None in
  let get_fluid () =
    match !fluid with
    | Some f -> f
    | None ->
        let f =
          Fluid_edge.create engine ~service:0.
            ~on_empty:(fun () ->
              Fmt.pr "  t=%6.2f  edge queue empty -> broker releases contingency@."
                (Engine.now engine);
              Option.iter
                (fun b -> Broker.queue_empty b ~class_id:0 ~path_id:0)
                !broker_ref)
            ()
        in
        fluid := Some f;
        f
  in
  let broker =
    Broker.create
      ~classes:[ { Aggregate.class_id = 0; dreq = 2.44; cd = 0.1 } ]
      ~method_:Aggregate.Feedback
      (* The engine is the broker's clock.  Under Bounding the broker
         would hold each contingency grant on it until its period of
         eq. (17) ends; under Feedback the queue-empty signal below
         releases the grants, and the broker holds nothing. *)
      ~time:
        {
          Broker.now = (fun () -> Engine.now engine);
          after = (fun delay f -> Engine.schedule_after engine ~delay f);
        }
      ~on_class_rate:(fun ~class_id:_ ~path_id:_ ~total_rate ->
        Fmt.pr "  t=%6.2f  edge conditioner reconfigured to %.0f b/s@."
          (Engine.now engine) total_rate;
        Fluid_edge.set_service (get_fluid ()) total_rate)
      topo
  in
  broker_ref := Some broker;
  let req =
    { Types.profile = type0; dreq = 2.44; ingress = Fig8.ingress1; egress = Fig8.egress1 }
  in
  let join () =
    match Broker.request_class broker req with
    | Ok (flow, _) ->
        let f = get_fluid () in
        Fluid_edge.add_burst f type0.Traffic.sigma;
        Fluid_edge.set_input f ~id:flow ~rate:type0.Traffic.rho;
        Fmt.pr "  t=%6.2f  microflow %d joined@." (Engine.now engine) flow;
        Some flow
    | Error e ->
        Fmt.pr "  t=%6.2f  join rejected: %a@." (Engine.now engine)
          Types.pp_reject_reason e;
        None
  in
  let stats () =
    match Aggregate.macroflow_stats (Broker.aggregate broker) ~class_id:0 ~path_id:0 with
    | Some s ->
        Fmt.pr "  t=%6.2f  members=%d base=%.0f contingency=%.0f@." (Engine.now engine)
          s.Aggregate.members s.Aggregate.base_rate s.Aggregate.contingency
    | None -> ()
  in
  let f1 = join () in
  stats ();
  Engine.run ~until:50. engine;
  stats ();
  let _f2 = join () in
  stats ();
  Engine.run ~until:100. engine;
  stats ();
  (match f1 with
  | Some flow ->
      Option.iter (fun f -> Fluid_edge.remove_input f ~id:flow) !fluid;
      Broker.teardown_class broker flow;
      Fmt.pr "  t=%6.2f  microflow %d left (Theorem 3: rate held as contingency)@."
        (Engine.now engine) flow;
      stats ();
      (* A departure with an already-empty backlog produces no emptying
         transition; the edge reports emptiness explicitly. *)
      Option.iter
        (fun f ->
          if Fluid_edge.is_empty f then begin
            Fmt.pr "  t=%6.2f  edge reports empty queue@." (Engine.now engine);
            Broker.queue_empty broker ~class_id:0 ~path_id:0
          end)
        !fluid
  | None -> ());
  Engine.run ~until:200. engine;
  stats ()

let () =
  let bound = Delay.edge_bound type0 ~rate:50_000. in
  Fmt.pr "=== Part 1: the Figure-7 transient (microflow leave) ===@.";
  Fmt.pr "edge-delay bound of the remaining macroflow: %.3f s@." bound;
  Fmt.pr "naive immediate rate cut   -> worst delay after leave: %.3f s  (VIOLATION)@."
    (leave_transient ~naive:true);
  Fmt.pr "Theorem-3 contingency hold -> worst delay after leave: %.3f s  (ok)@.@."
    (leave_transient ~naive:false);
  Fmt.pr "=== Part 2: broker-driven joins/leaves with contingency feedback ===@.";
  broker_demo ()
