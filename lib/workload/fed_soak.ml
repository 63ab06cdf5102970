module Engine = Bbr_netsim.Engine
module Fault = Bbr_netsim.Fault
module Prng = Bbr_util.Prng
module Stats = Bbr_util.Stats
module Broker = Bbr_broker.Broker
module Flow_mib = Bbr_broker.Flow_mib
module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Federation = Bbr_interdomain.Federation
module Exchange = Bbr_broker.Exchange

type config = {
  seed : int;
  n_domains : int;
  extra_peerings : int;
  domain_hops : int;
  link_capacity : float;
  sla_rate : float;
  arrival_rate : float;
  mean_holding : float;
  duration : float;
  drop_p : float;
  dup_p : float;
  max_extra_delay : float;
  fault_from : float;
  fault_until : float;
  partition_from : float;
  partition_until : float;
  domain_crash_from : float;
  domain_crash_until : float;
  crash_coordinator_at : float option;
  reap_every : float;
  fed : Federation.config;
}

let default_config =
  {
    seed = 1;
    n_domains = 12;
    extra_peerings = 6;
    domain_hops = 2;
    link_capacity = 10e6;
    sla_rate = 2e6;
    arrival_rate = 3.;
    mean_holding = 25.;
    duration = 120.;
    drop_p = 0.05;
    dup_p = 0.02;
    max_extra_delay = 0.02;
    fault_from = 20.;
    fault_until = 80.;
    partition_from = 40.;
    partition_until = 60.;
    domain_crash_from = 30.;
    domain_crash_until = 50.;
    crash_coordinator_at = Some 70.;
    reap_every = 10.;
    fed = { Federation.default_config with prepare_ttl = 10. };
  }

type outcome = {
  offered : int;
  committed : int;
  compensated : int;
  rejected : int;
  unresolved : int;
  torn_down : int;
  p50_commit_latency : float;
  p95_commit_latency : float;
  stats : Federation.stats;
  recovery_time : float option;
  digest_match : bool option;
  recovered_flows : int;
  recovery_aborts : int;
  pending_obligations : int;
  stranded_bandwidth : float;
  live_flows : int;
  audit : Federation.report;
  audit_clean : bool;
}

let run cfg =
  if cfg.n_domains < 3 then invalid_arg "Fed_soak.run: need at least 3 domains";
  let eng = Engine.create () in
  let time =
    {
      Broker.now = (fun () -> Engine.now eng);
      after = (fun delay f -> Engine.schedule_after eng ~delay f);
    }
  in
  Option.iter
    (fun tr -> Bbr_obs.Trace.set_sim_clock tr (fun () -> Engine.now eng))
    (Bbr_obs.Trace.current ());
  let rng = Prng.create ~seed:cfg.seed in
  let graph_rng = Prng.split rng in
  let arrival_rng = Prng.split rng in
  let fault_rng = Prng.split rng in
  let jitter_rng = Prng.split rng in
  let fed =
    Federation.create ~time
      ~config:{ cfg.fed with jitter = Some (fun () -> Prng.float jitter_rng) }
      ()
  in
  (* The federation graph: per-domain rate-based chains, a random spanning
     tree of bidirectional peerings plus extras. *)
  let names = Array.init cfg.n_domains (fun i -> Printf.sprintf "D%d" i) in
  let gates =
    Array.map
      (fun name ->
        let topo, ingress, egress =
          Topo_gen.chain ~prefix:name ~capacity:cfg.link_capacity
            ~sched:Topology.Rate_based ~hops:cfg.domain_hops ()
        in
        ignore (Federation.add_domain fed ~name topo);
        (ingress, egress))
      names
  in
  let have = Hashtbl.create 32 in
  let peer a b =
    if a <> b && not (Hashtbl.mem have (a, b)) then begin
      Hashtbl.replace have (a, b) ();
      Federation.add_peering fed ~from_domain:names.(a)
        ~from_egress:(snd gates.(a)) ~to_domain:names.(b)
        ~to_ingress:(fst gates.(b)) ~committed_rate:cfg.sla_rate ~delay:0.005 ()
    end
  in
  for i = 1 to cfg.n_domains - 1 do
    let parent = Prng.int graph_rng ~bound:i in
    peer parent i;
    peer i parent
  done;
  for _ = 1 to cfg.extra_peerings do
    let a = Prng.int graph_rng ~bound:cfg.n_domains in
    let b = Prng.int graph_rng ~bound:cfg.n_domains in
    peer a b
  done;
  (* Workload state. *)
  let profile =
    Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.
  in
  let offered = ref 0 in
  let committed = ref 0 in
  let compensated = ref 0 in
  let rejected = ref 0 in
  let latencies = ref [] in
  let submit () =
    incr offered;
    let src = Prng.int arrival_rng ~bound:cfg.n_domains in
    let dst =
      (src + 1 + Prng.int arrival_rng ~bound:(cfg.n_domains - 1)) mod cfg.n_domains
    in
    let ep =
      {
        Federation.src_domain = names.(src);
        src_ingress = fst gates.(src);
        dst_domain = names.(dst);
        dst_egress = snd gates.(dst);
      }
    in
    let t0 = Engine.now eng in
    let holding = Prng.exponential arrival_rng ~mean:cfg.mean_holding in
    ignore
      (Federation.request_async fed ep ~profile ~dreq:6. ~on_decision:(function
        | Ok r ->
            incr committed;
            latencies := (Engine.now eng -. t0) :: !latencies;
            Engine.schedule_after eng ~delay:holding (fun () ->
                Federation.teardown fed r.Federation.flow)
        | Error (Bbr_broker.Types.Peer_unreachable _) -> incr compensated
        | Error _ -> incr rejected))
  in
  let rec arrivals () =
    let gap = Prng.exponential arrival_rng ~mean:(1. /. cfg.arrival_rate) in
    Engine.schedule_after eng ~delay:gap (fun () ->
        if Engine.now eng < cfg.duration then begin
          submit ();
          arrivals ()
        end)
  in
  arrivals ();
  (* Fault windows. *)
  let chaos =
    {
      Exchange.drop = Fault.drop fault_rng ~p:cfg.drop_p;
      duplicate = Fault.drop fault_rng ~p:cfg.dup_p;
      extra_delay = (fun () -> Prng.float fault_rng *. cfg.max_extra_delay);
    }
  in
  Engine.schedule eng ~at:cfg.fault_from (fun () -> Federation.set_faults fed chaos);
  Engine.schedule eng ~at:cfg.fault_until (fun () ->
      Federation.set_faults fed Exchange.no_faults);
  let partitioned = names.(1) and crashed = names.(2) in
  Engine.schedule eng ~at:cfg.partition_from (fun () ->
      Federation.set_reachable fed ~domain:partitioned false);
  Engine.schedule eng ~at:cfg.partition_until (fun () ->
      Federation.set_reachable fed ~domain:partitioned true);
  Engine.schedule eng ~at:cfg.domain_crash_from (fun () ->
      Federation.set_domain_up fed ~domain:crashed false);
  Engine.schedule eng ~at:cfg.domain_crash_until (fun () ->
      Federation.set_domain_up fed ~domain:crashed true);
  (* Periodic orphan sweep while the run is hot. *)
  let horizon = cfg.duration +. (4. *. cfg.mean_holding) in
  let rec reaper () =
    Engine.schedule_after eng ~delay:cfg.reap_every (fun () ->
        ignore (Federation.reap fed);
        if Engine.now eng < horizon then reaper ())
  in
  reaper ();
  (* Coordinator crash and recovery, with the digest oracle. *)
  let digest_match = ref None in
  let recovery_time = ref None in
  let recovered_flows = ref 0 in
  let recovery_aborts = ref 0 in
  (match cfg.crash_coordinator_at with
  | None -> ()
  | Some at ->
      Engine.schedule eng ~at (fun () ->
          let digest = Federation.decision_digest fed in
          ignore (Federation.crash_coordinator fed);
          let r = Federation.recover_coordinator fed in
          if not (String.equal digest r.Federation.replayed_digest) then
            Bbr_obs.Flight.trigger ~reason:"recovery-digest-mismatch";
          digest_match := Some (String.equal digest r.Federation.replayed_digest);
          recovered_flows := r.Federation.recovered_flows;
          recovery_aborts := r.Federation.recovery_aborts;
          let rec drain_watch () =
            if Federation.obligations_pending fed = 0 then
              recovery_time := Some (Engine.now eng -. at)
            else if Engine.now eng < horizon +. 60. then
              Engine.schedule_after eng ~delay:0.25 drain_watch
          in
          drain_watch ()));
  (* After the horizon, one last heal + pump to flush anything the fault
     windows stranded, then drain to quiescence. *)
  Engine.schedule eng ~at:horizon (fun () ->
      Federation.set_faults fed Exchange.no_faults;
      Federation.set_reachable fed ~domain:partitioned true;
      Federation.set_domain_up fed ~domain:crashed true;
      Federation.pump fed);
  Engine.run eng;
  ignore (Federation.reap fed);
  let audit = Federation.audit fed in
  if not (Federation.audit_ok audit) then
    Bbr_obs.Flight.trigger ~reason:"audit-violation";
  let stats = Federation.stats fed in
  (* Stranded bandwidth: broker-side reserved rate the live federation
     flows (rate × segment count) cannot account for.  After the drain
     and the final reap no prepared bookings remain, so any residue is a
     failed compensation. *)
  let lat = Array.of_list !latencies in
  let stranded =
    let total_held =
      Array.fold_left
        (fun acc name ->
          match Federation.broker fed ~domain:name with
          | None -> acc
          | Some b -> acc +. Flow_mib.total_reserved_rate (Broker.flow_mib b))
        0. names
    in
    total_held -. (audit.Federation.checked_segments_rate : float)
  in
  {
    offered = !offered;
    committed = !committed;
    compensated = !compensated;
    rejected = !rejected;
    unresolved = !offered - !committed - !compensated - !rejected;
    torn_down = stats.Federation.torn_down;
    p50_commit_latency = (if lat = [||] then 0. else Stats.percentile lat ~p:50.);
    p95_commit_latency = (if lat = [||] then 0. else Stats.percentile lat ~p:95.);
    stats;
    recovery_time = !recovery_time;
    digest_match = !digest_match;
    recovered_flows = !recovered_flows;
    recovery_aborts = !recovery_aborts;
    pending_obligations = Federation.obligations_pending fed;
    stranded_bandwidth = stranded;
    live_flows = Federation.flow_count fed;
    audit;
    audit_clean = Federation.audit_ok audit;
  }

let ok o =
  o.audit_clean && o.pending_obligations = 0
  && Float.abs o.stranded_bandwidth <= 1e-3
  && (o.digest_match = None || o.digest_match = Some true)
  && ((o.digest_match <> None) || o.unresolved = 0)

let pp_outcome ppf o =
  Fmt.pf ppf
    "offered %d: %d committed, %d compensated, %d rejected, %d unresolved@.commit \
     latency p50 %.4f s, p95 %.4f s@.%a@.recovery: %a s, digest %s, %d flows \
     recovered, %d recovery aborts@.end state: %d live flows, %d pending \
     obligations, %.1f b/s stranded, audit %s"
    o.offered o.committed o.compensated o.rejected o.unresolved o.p50_commit_latency
    o.p95_commit_latency Federation.pp_stats o.stats
    Fmt.(option ~none:(any "-") float)
    o.recovery_time
    (match o.digest_match with
    | None -> "n/a"
    | Some true -> "exact"
    | Some false -> "MISMATCH")
    o.recovered_flows o.recovery_aborts o.live_flows o.pending_obligations
    o.stranded_bandwidth
    (if o.audit_clean then "clean" else "VIOLATIONS")
