module Engine = Bbr_netsim.Engine
module Broker = Bbr_broker.Broker
module Audit = Bbr_broker.Audit
module Edge_broker = Bbr_broker.Edge_broker
module Flow_mib = Bbr_broker.Flow_mib
module Types = Bbr_broker.Types
module Traffic = Bbr_vtrs.Traffic
module Prng = Bbr_util.Prng

type config = {
  seed : int;
  lease_period : float;
  chunk : float;
  arrival_rate : float;  (** local flow arrivals/s at each edge *)
  mean_holding : float;
  duration : float;
  horizon : float;
  disconnect_at : float;
  reconnect_at : float option;  (** [None]: the edge stays dead *)
}

let default_config =
  {
    seed = 1;
    lease_period = 30.;
    chunk = 150_000.;
    arrival_rate = 0.15;
    mean_holding = 100.;
    duration = 400.;
    horizon = 600.;
    disconnect_at = 150.;
    reconnect_at = Some 350.;
  }

type outcome = {
  offered : int;
  admitted : int;
  rejected : int;
  quota_at_disconnect : float;  (** delegated to the partitioned edge *)
  reclaim_time : float option;
      (** sim seconds from disconnect until the central broker held none
          of the partitioned edge's grant flows *)
  reclaimed_within_period : bool;
  re_registered : int;
  surrendered : int;
  stale_leases : int;  (** [Stale_lease] findings in the final audit *)
  audit : Audit.report;
  central_transactions : int;
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>offered %d  admitted %d  rejected %d@,\
     disconnect: %.6g b/s delegated%a, within one period: %b@,\
     reconnect: %d re-registered, %d surrendered@,\
     stale leases %d  audit %s  central transactions %d@]"
    o.offered o.admitted o.rejected o.quota_at_disconnect
    (Fmt.option (fun ppf t -> Fmt.pf ppf ", reclaimed in %.2f s" t))
    o.reclaim_time o.reclaimed_within_period o.re_registered o.surrendered
    o.stale_leases
    (if Audit.ok o.audit then "clean" else "VIOLATIONS")
    o.central_transactions

(* A CBR-ish local flow request an edge broker can admit from quota. *)
let local_request prng ~ingress ~egress =
  let rate = 20_000. +. (Prng.float prng *. 60_000.) in
  {
    Types.profile =
      Traffic.make ~sigma:Bbr_vtrs.Topology.mtu_bits ~rho:rate ~peak:rate
        ~lmax:Bbr_vtrs.Topology.mtu_bits;
    dreq = 1.5;
    ingress;
    egress;
  }

let run config =
  let engine = Engine.create () in
  let topo = Fig8.topology `Rate_only in
  let time =
    {
      Broker.now = (fun () -> Engine.now engine);
      after = (fun delay f -> Engine.schedule_after engine ~delay f);
    }
  in
  let central = Broker.create ~time topo in
  let mgr =
    Edge_broker.lease_manager ~central ~time ~period:config.lease_period
  in
  let edge ingress egress =
    match Edge_broker.create_leased mgr ~ingress ~egress ~chunk:config.chunk with
    | Ok e -> e
    | Error e ->
        invalid_arg
          (Fmt.str "Lease_soak.run: cannot create edge broker: %a"
             Types.pp_reject_reason e)
  in
  let e1 = edge Fig8.ingress1 Fig8.egress1 in
  let e2 = edge Fig8.ingress2 Fig8.egress2 in
  let prng = Prng.create ~seed:config.seed in
  let arr_rng = Prng.split prng in
  let hold_rng = Prng.split prng in
  let prof_rng = Prng.split prng in
  let offered = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let drive (edge_broker, ingress, egress) =
    let rec arrival at =
      if at < config.duration then
        Engine.schedule engine ~at (fun () ->
            incr offered;
            (match
               Edge_broker.request edge_broker (local_request prof_rng ~ingress ~egress)
             with
            | Ok (flow, _) ->
                incr admitted;
                let holding = Prng.exponential hold_rng ~mean:config.mean_holding in
                Engine.schedule_after engine ~delay:holding (fun () ->
                    Edge_broker.teardown edge_broker flow;
                    Edge_broker.return_idle_quota edge_broker)
            | Error _ -> incr rejected);
            arrival (at +. Prng.exponential arr_rng ~mean:(1. /. config.arrival_rate)))
    in
    arrival (Prng.exponential arr_rng ~mean:(1. /. config.arrival_rate))
  in
  drive (e1, Fig8.ingress1, Fig8.egress1);
  drive (e2, Fig8.ingress2, Fig8.egress2);
  (* Watch the partitioned edge's grant flows at the central broker: the
     reclaim instant is when the last one disappears. *)
  let quota_at_disconnect = ref 0. in
  let grant_flows_at_disconnect = ref [] in
  let reclaim_time = ref None in
  let poll_every = config.lease_period /. 20. in
  let polling = ref false in
  let rec poll () =
    if !polling then begin
      let fm = Broker.flow_mib central in
      if
        !reclaim_time = None
        && List.for_all (fun f -> Flow_mib.find fm f = None) !grant_flows_at_disconnect
      then begin
        reclaim_time := Some (Engine.now engine -. config.disconnect_at);
        polling := false
      end
      else Engine.schedule_after engine ~delay:poll_every poll
    end
  in
  Engine.schedule engine ~at:config.disconnect_at (fun () ->
      quota_at_disconnect := Edge_broker.quota_total e1;
      grant_flows_at_disconnect :=
        (match Edge_broker.leases mgr with
        | l1 :: _ -> l1.Types.granted
        | [] -> []);
      Edge_broker.disconnect e1;
      polling := true;
      poll ());
  let re_registered = ref 0 and surrendered = ref 0 in
  (match config.reconnect_at with
  | None -> ()
  | Some at ->
      Engine.schedule engine ~at (fun () ->
          let r = Edge_broker.reconnect e1 in
          re_registered := List.length r.Edge_broker.re_registered;
          surrendered := List.length r.Edge_broker.surrendered));
  Engine.run ~until:config.horizon engine;
  Edge_broker.stop_manager mgr;
  polling := false;
  Engine.run engine;
  (* Audit as of the horizon — the last instant leases were being
     renewed and swept.  (The drain above runs holding-time teardowns
     arbitrarily far past the horizon, where every lease would look
     expired only because its manager was stopped.) *)
  let audit =
    Audit.check ~now:config.horizon ~leases:(Edge_broker.leases mgr) central
  in
  let stale =
    List.length
      (List.filter (fun v -> v.Audit.kind = Audit.Stale_lease) audit.Audit.violations)
  in
  {
    offered = !offered;
    admitted = !admitted;
    rejected = !rejected;
    quota_at_disconnect = !quota_at_disconnect;
    reclaim_time = !reclaim_time;
    reclaimed_within_period =
      (match !reclaim_time with
      | Some t -> t <= config.lease_period +. 1e-9
      | None -> false);
    re_registered = !re_registered;
    surrendered = !surrendered;
    stale_leases = stale;
    audit = audit;
    central_transactions =
      Edge_broker.central_transactions e1 + Edge_broker.central_transactions e2;
  }
