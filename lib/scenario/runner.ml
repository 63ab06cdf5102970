module Engine = Bbr_netsim.Engine
module Fault = Bbr_netsim.Fault
module Broker = Bbr_broker.Broker
module Cops = Bbr_broker.Cops
module Ov = Bbr_broker.Overload
module Admission = Bbr_broker.Admission
module Audit = Bbr_broker.Audit
module Journal = Bbr_broker.Journal
module Storage = Bbr_broker.Storage
module Failover = Bbr_broker.Failover
module Vfs = Bbr_util.Vfs
module Policy = Bbr_broker.Policy
module Types = Bbr_broker.Types
module Topology = Bbr_vtrs.Topology
module Topo_gen = Bbr_workload.Topo_gen
module Fig8 = Bbr_workload.Fig8
module Prng = Bbr_util.Prng
module Flight = Bbr_obs.Flight

type outcome = {
  scenario : Scenario.t;
  offered : int;
  admitted : int;
  rejected : int;
  busy : int;
  completed : int;
  pipeline : Ov.stats;
  p50_latency : float;
  p95_latency : float;
  brownout_time : float;
  baseline_goodput : float;
  measurements : Slo.measurement list;
  genuine_anomalies : Monitor.anomaly list;
  expected_anomalies : int;
  monitor_samples : int;
  audit_ok : bool;
  digest : string;
  messages : int;
  retransmissions : int;
  unresolved : int;
  promote_error : string option;
  checkpoint_fallback : bool;
  storage_scrub_errors : int;
}

let slo_ok o = List.for_all (fun (m : Slo.measurement) -> m.Slo.met) o.measurements

let ok o =
  o.genuine_anomalies = [] && slo_ok o && o.audit_ok && o.promote_error = None
  && o.unresolved = 0

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>%s: %s@,\
     offered %d  admitted %d  rejected %d  busy %d  completed %d@,\
     pipeline: decided %d  shed %d  max depth %d  brownout %.1f s  \
     conservative %d@,\
     latency: p50 %.3f s  p95 %.3f s@,\
     goodput baseline %.3f@,\
     monitor: %d samples, %d expected anomalies, %d GENUINE@,\
     %a@,\
     audit %s  unresolved %d%a@]"
    o.scenario.Scenario.name (if ok o then "PASS" else "FAIL") o.offered
    o.admitted o.rejected o.busy o.completed o.pipeline.Ov.decided
    (Ov.shed_total o.pipeline) o.pipeline.Ov.max_depth o.brownout_time
    o.pipeline.Ov.conservative_decisions o.p50_latency o.p95_latency
    o.baseline_goodput o.monitor_samples o.expected_anomalies
    (List.length o.genuine_anomalies)
    (Fmt.list ~sep:Fmt.cut Slo.pp_measurement)
    o.measurements
    (if o.audit_ok then "clean" else "VIOLATIONS")
    o.unresolved
    (Fmt.option (fun ppf e -> Fmt.pf ppf "@,promotion FAILED: %s" e))
    o.promote_error;
  if o.checkpoint_fallback || o.storage_scrub_errors > 0 then
    Fmt.pf ppf "@,storage: %d scrub detection(s)%s" o.storage_scrub_errors
      (if o.checkpoint_fallback then
         ", promotion fell back to the prior checkpoint generation"
       else "")

(* ------------------------------------------------------------------ *)
(* Topology and fault targeting. *)

let build_topology sc prng =
  match sc.Scenario.topology with
  | Scenario.Fig8 setting -> Fig8.topology setting
  | Scenario.Power_law { nodes; m } -> Topo_gen.power_law prng ~nodes ~m ()

(* Both directions of every undirected adjacency touching [node]. *)
let links_at topo node =
  List.filter
    (fun (l : Topology.link) -> l.Topology.src = node || l.Topology.dst = node)
    (Topology.links topo)

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

(* The concrete link ids a declared fault brings down. *)
let fault_links topo = function
  | Scenario.Broker_crash _ | Scenario.Disk_fault _ -> []
  | Scenario.Regional_links { count; _ } -> (
      match Topo_gen.hubs topo with
      | [] -> []
      | hub :: _ ->
          (* [count] undirected adjacencies at the top hub, both
             directions each — a regional outage around a core. *)
          let outgoing =
            List.filter (fun (l : Topology.link) -> l.Topology.src = hub)
              (Topology.links topo)
          in
          List.concat_map
            (fun (l : Topology.link) ->
              l.Topology.link_id
              ::
              (match Topology.find_link topo ~src:l.Topology.dst ~dst:l.Topology.src with
              | Some back -> [ back.Topology.link_id ]
              | None -> []))
            (take count outgoing))
  | Scenario.Partition { leaves; _ } ->
      let stubs = take leaves (Topo_gen.leaves topo) in
      List.sort_uniq compare
        (List.concat_map
           (fun node ->
             List.map (fun (l : Topology.link) -> l.Topology.link_id) (links_at topo node))
           stubs)

(* ------------------------------------------------------------------ *)
(* Workload materialization: a non-homogeneous Poisson process sampled
   by thinning against the shape's peak rate, each arrival carrying its
   class, endpoints and holding time — a pure function of the seed. *)

type arrival = {
  at : float;
  klass : Traffic_mix.klass;
  ingress : string;
  egress : string;
  holding : float;
}

let arrivals sc topo prng =
  let arr_rng = Prng.split prng in
  let thin_rng = Prng.split prng in
  let pick_rng = Prng.split prng in
  let hold_rng = Prng.split prng in
  let end_rng = Prng.split prng in
  let peak = Float.max 1e-9 (Scenario.peak_rate sc.Scenario.load) in
  let endpoints =
    match sc.Scenario.topology with
    | Scenario.Fig8 _ ->
        fun () ->
          if Prng.float end_rng < 0.5 then (Fig8.ingress1, Fig8.egress1)
          else (Fig8.ingress2, Fig8.egress2)
    | Scenario.Power_law _ -> fun () -> Topo_gen.random_endpoints end_rng topo
  in
  let rec go acc t =
    let t = t +. Prng.exponential arr_rng ~mean:(1. /. peak) in
    if t >= sc.Scenario.duration then List.rev acc
    else if Prng.float thin_rng *. peak <= Scenario.rate_at sc.Scenario.load t then begin
      let klass = Traffic_mix.pick pick_rng in
      let ingress, egress = endpoints () in
      let holding = Prng.exponential hold_rng ~mean:sc.Scenario.mean_holding in
      go ({ at = t; klass; ingress; egress; holding } :: acc) t
    end
    else go acc t
  in
  go [] 0.

let exact_oracle broker (req : Types.request) =
  match Broker.route_of broker req with
  | None -> false
  | Some path ->
      let ps =
        Admission.path_state (Broker.node_mib broker) (Broker.path_mib broker) path
      in
      Result.is_ok (Admission.admit ps req.Types.profile ~dreq:req.Types.dreq)

(* ------------------------------------------------------------------ *)

let run sc =
  let engine = Engine.create () in
  Option.iter
    (fun tr -> Bbr_obs.Trace.set_sim_clock tr (fun () -> Engine.now engine))
    (Bbr_obs.Trace.current ());
  let prng = Prng.create ~seed:sc.Scenario.seed in
  let topo = build_topology sc prng in
  let time =
    {
      Broker.now = (fun () -> Engine.now engine);
      after = (fun delay f -> Engine.schedule_after engine ~delay f);
    }
  in
  let policy = Policy.create () in
  Traffic_mix.install_policy policy;
  let make () = Broker.create ~policy ~time topo in
  (* fsync-per-record through a real (simulated) disk: the record chain
     loses nothing at a crash, so a promotion must reproduce the
     pre-crash digest exactly — any difference is a genuine violation,
     not modelled data loss.  Even when a Disk_fault rots the current
     checkpoint generation, recovery falls back to the prior generation
     plus a longer replay and the digest still matches. *)
  let store = Storage.create ~vfs:(Vfs.create ~seed:sc.Scenario.seed ()) () in
  let journal = Journal.create ~fsync_every:1 ~storage:store () in
  let fw = Failover.create ~make_standby:make ~time ~journal (make ()) in
  Failover.start_checkpoints fw ~every:(Float.max 5. (sc.Scenario.duration /. 50.));
  let ov =
    Ov.create ~config:sc.Scenario.pipeline
      ~oracle:(fun req -> exact_oracle (Failover.active fw) req)
      ~time (Failover.active fw)
  in
  let jitter_rng = Prng.split prng in
  let cops =
    Cops.create (Failover.active fw) ~latency:sc.Scenario.latency
      ~reliability:
        (Cops.reliability
           ~loss:(fun () -> false)
           ~jitter:(fun () -> Prng.float jitter_rng)
           ())
      ~pdp:(fun req k -> Ov.submit ov req k)
      ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
      ()
  in
  if Flight.armed () <> None then
    Flight.set_digest (fun () ->
        if Failover.is_up fw then Some (Audit.mib_digest (Failover.active fw))
        else None);
  (* Monitor + SLO plumbing. *)
  let monitor =
    Monitor.create ~now:(fun () -> Engine.now engine) ~windows:(Scenario.windows sc) ()
  in
  let slo = Slo.create ~budgets:sc.Scenario.slo in
  List.iter (Slo.declare slo) (Scenario.events sc);
  (* Workload. *)
  let plan = arrivals sc topo prng in
  let submitted = ref 0 and admitted = ref 0 in
  let rejected = ref 0 and busy = ref 0 and completed = ref 0 in
  List.iter
    (fun a ->
      Engine.schedule engine ~at:a.at (fun () ->
          incr submitted;
          Cops.request cops
            {
              Types.profile = a.klass.Traffic_mix.profile;
              dreq = a.klass.Traffic_mix.dreq;
              ingress = a.ingress;
              egress = a.egress;
            }
            ~on_decision:(function
              | Ok (flow, _) ->
                  incr admitted;
                  Engine.schedule_after engine ~delay:a.holding (fun () ->
                      Cops.teardown cops flow;
                      incr completed)
              | Error (Types.Server_busy _) -> incr busy
              | Error _ -> incr rejected)))
    plan;
  (* Faults.  Link operations hitting a crashed broker are deferred (in
     injection order) until promotion: the data plane changed while the
     control plane was down, and the successor discovers it on arrival. *)
  let pending : (unit -> unit) list ref = ref [] in
  let when_up f = if Failover.is_up fw then f () else pending := f :: !pending in
  let flush_pending () =
    let ps = List.rev !pending in
    pending := [];
    List.iter (fun f -> f ()) ps
  in
  let promote_error = ref None in
  let checkpoint_fallback = ref false in
  let scrub_errors = ref 0 in
  let crash_promote_after =
    List.find_map
      (function
        | Scenario.Broker_crash { promote_after; _ } -> Some promote_after
        | _ -> None)
      sc.Scenario.faults
  in
  let hooks =
    Fault.hooks
      ~on_link_down:(fun link_id ->
        when_up (fun () ->
            ignore (Broker.fail_link (Failover.active fw) ~link_id)))
      ~on_link_up:(fun link_id ->
        when_up (fun () -> Broker.restore_link (Failover.active fw) ~link_id))
      ~on_crash:(fun _ ->
        let digest_at_crash = Audit.mib_digest (Failover.active fw) in
        (* The process dies: the disk keeps only what was fsynced. *)
        Storage.crash store;
        Ov.quiesce ov;
        Failover.crash fw;
        Cops.set_pdp_up cops false;
        let promote_after = Option.value ~default:0.5 crash_promote_after in
        Engine.schedule_after engine ~delay:promote_after (fun () ->
            match Failover.promote fw with
            | Ok _ ->
                let recovered = Failover.active fw in
                if Audit.mib_digest recovered <> digest_at_crash then
                  Monitor.note monitor Monitor.Digest_mismatch
                    "recovered broker digest differs from pre-crash digest";
                (match Failover.last_recovery fw with
                | Some r ->
                    if r.Failover.sr_fallback then checkpoint_fallback := true
                | None -> ());
                Ov.retarget ov recovered;
                Cops.set_broker cops recovered;
                Cops.set_pdp_up cops true;
                flush_pending ()
            | Error e -> promote_error := Some e))
      ()
  in
  let fault_events =
    List.concat_map
      (fun fault ->
        match fault with
        | Scenario.Broker_crash { at; _ } -> [ Fault.event ~at (Fault.Crash "broker") ]
        | Scenario.Disk_fault _ -> []
        | Scenario.Regional_links { at; duration; _ }
        | Scenario.Partition { at; duration; _ } ->
            let ids = fault_links topo fault in
            List.map (fun id -> Fault.event ~at (Fault.Link_down id)) ids
            @ List.map
                (fun id -> Fault.event ~at:(at +. duration) (Fault.Link_up id))
                ids)
      sc.Scenario.faults
  in
  Fault.install engine hooks fault_events;
  (* Disk faults are not data-plane events: they rot the current
     checkpoint generation at rest, and an immediate scrub pass detects
     (and counts) the damage.  Recovery feels it only at the next
     promotion, which must degrade to the prior generation. *)
  List.iter
    (function
      | Scenario.Disk_fault { at; _ } ->
          Engine.schedule engine ~at (fun () ->
              ignore (Storage.bitrot_checkpoint store);
              let r = Storage.scrub store in
              scrub_errors := !scrub_errors + List.length r.Storage.errors)
      | _ -> ())
    sc.Scenario.faults;
  (* Standing invariant probe: the monitor samples it continuously and
     classifies each finding against the declared fault windows.  The
     audit verdict doubles as the SLO oracle's clean-audit series. *)
  let sample_every = Float.max 0.5 (sc.Scenario.duration /. 600.) in
  let last_oracle_violations = ref 0 in
  let probe () =
    let now = Engine.now engine in
    let up = Failover.is_up fw in
    let audit_clean = up && Audit.ok (Audit.check (Failover.active fw)) in
    Slo.note_audit slo ~at:now audit_clean;
    let found = ref [] in
    if not audit_clean then
      found :=
        (Monitor.Audit_violation, if up then "MIB cross-check failed" else "broker down")
        :: !found;
    let ovs = (Ov.stats ov).Ov.oracle_violations in
    if ovs > !last_oracle_violations then begin
      found :=
        ( Monitor.Oracle_violation,
          Printf.sprintf "%d new over-admissions" (ovs - !last_oracle_violations) )
        :: !found;
      last_oracle_violations := ovs
    end;
    !found
  in
  Monitor.start_sampling monitor engine ~every:sample_every ~probe;
  (* Goodput (trailing admit ratio) and brownout time series. *)
  let goodput_window = 10 in
  let history = ref [] (* (submitted, admitted), newest first *) in
  let brownout_time = ref 0. in
  let sampling = ref true in
  let rec sample () =
    if !sampling then begin
      let now = Engine.now engine in
      if Ov.brownout ov then brownout_time := !brownout_time +. sample_every;
      history := (!submitted, !admitted) :: take goodput_window !history;
      (match List.rev !history with
      | (s0, a0) :: _ when !submitted > s0 ->
          Slo.note_goodput slo ~at:now
            (float_of_int (!admitted - a0) /. float_of_int (!submitted - s0))
      | _ -> ());
      Slo.note_brownout slo ~at:now (Ov.brownout ov);
      Engine.schedule_after engine ~delay:sample_every sample
    end
  in
  Engine.schedule_after engine ~delay:sample_every sample;
  (* Run, then drain. *)
  Engine.run ~until:sc.Scenario.horizon engine;
  sampling := false;
  Monitor.stop monitor;
  Ov.stop ov;
  Failover.stop fw;
  if !promote_error = None then Engine.run engine;
  let active = Failover.active fw in
  let audit = Audit.check active in
  let measurements = Slo.report slo in
  {
    scenario = sc;
    offered = List.length plan;
    admitted = !admitted;
    rejected = !rejected;
    busy = !busy;
    completed = !completed;
    pipeline = Ov.stats ov;
    p50_latency = Ov.latency_quantile ov ~q:0.5;
    p95_latency = Ov.latency_quantile ov ~q:0.95;
    brownout_time = !brownout_time;
    baseline_goodput = Slo.baseline slo;
    measurements;
    genuine_anomalies = Monitor.genuine monitor;
    expected_anomalies = List.length (Monitor.expected monitor);
    monitor_samples = Monitor.samples monitor;
    audit_ok = Audit.ok audit;
    digest = Audit.mib_digest active;
    messages = Cops.messages cops;
    retransmissions = Cops.retransmissions cops;
    unresolved = Cops.pending cops;
    promote_error = !promote_error;
    checkpoint_fallback = !checkpoint_fallback;
    storage_scrub_errors = !scrub_errors;
  }
