module Engine = Bbr_netsim.Engine
module Fault = Bbr_netsim.Fault
module Broker = Bbr_broker.Broker
module Cops = Bbr_broker.Cops
module Exchange = Bbr_broker.Exchange
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
module Dynamic = Bbr_workload.Dynamic
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
  p99_latency : float;
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
  rerouted : int;
  dropped : int;
  flows_at_crash : int;
  flows_restored : int;
  recovery_time : float option;
  records_at_crash : int;
  records_lost : int;
  crash_digests_match : bool option;
  recovered_digest_match : bool option;
  promote_error : string option;
  checkpoint_fallback : bool;
  storage_truncated : string option;
  storage_scrub_errors : int;
}

let flows_lost o = max 0 (o.flows_at_crash - o.flows_restored)

let slo_ok o = List.for_all (fun (m : Slo.measurement) -> m.Slo.met) o.measurements

let ok o =
  o.genuine_anomalies = [] && slo_ok o && o.audit_ok && o.promote_error = None
  && o.unresolved = 0
  && o.recovered_digest_match <> Some false

let match_label ok = if ok then "MATCH" else "MISMATCH"

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>%s: %s@,\
     offered %d  admitted %d  rejected %d  busy %d  completed %d@,\
     pipeline: decided %d  shed %d  max depth %d  brownout %.1f s  \
     conservative %d@,\
     latency: p50 %.3f s  p95 %.3f s  p99 %.3f s@,\
     goodput baseline %.3f@,\
     monitor: %d samples, %d expected anomalies, %d GENUINE%a@,\
     signaling: %d messages, %d retransmissions, %d unresolved@,\
     oracle violations %d  audit %s%a"
    o.scenario.Scenario.name (if ok o then "PASS" else "FAIL") o.offered
    o.admitted o.rejected o.busy o.completed o.pipeline.Ov.decided
    (Ov.shed_total o.pipeline) o.pipeline.Ov.max_depth o.brownout_time
    o.pipeline.Ov.conservative_decisions o.p50_latency o.p95_latency o.p99_latency
    o.baseline_goodput o.monitor_samples o.expected_anomalies
    (List.length o.genuine_anomalies)
    (Fmt.list ~sep:Fmt.nop (fun ppf m -> Fmt.pf ppf "@,%a" Slo.pp_measurement m))
    o.measurements o.messages o.retransmissions o.unresolved
    o.pipeline.Ov.oracle_violations
    (if o.audit_ok then "clean" else "VIOLATIONS")
    (Fmt.option (fun ppf e -> Fmt.pf ppf "@,promotion FAILED: %s" e))
    o.promote_error;
  if o.rerouted > 0 || o.dropped > 0 then
    Fmt.pf ppf "@,link failures: rerouted %d  dropped %d" o.rerouted o.dropped;
  Option.iter
    (fun matched ->
      Fmt.pf ppf "@,crash: %d active -> %d restored (%d lost)%a" o.flows_at_crash
        o.flows_restored (flows_lost o)
        (Fmt.option (fun ppf t -> Fmt.pf ppf ", recovered in %.3f s" t))
        o.recovery_time;
      if o.scenario.Scenario.journal <> None then
        Fmt.pf ppf "@,journal: %d records at crash, %d lost; digests %s"
          o.records_at_crash o.records_lost (match_label matched))
    o.crash_digests_match;
  Option.iter
    (fun m -> Fmt.pf ppf "@,recovered digest %s" (match_label m))
    o.recovered_digest_match;
  if o.checkpoint_fallback || o.storage_scrub_errors > 0 || o.storage_truncated <> None
  then
    Fmt.pf ppf "@,storage: %d scrub detection(s)%s%a" o.storage_scrub_errors
      (if o.checkpoint_fallback then
         ", promotion fell back to the prior checkpoint generation"
       else "")
      (Fmt.option (fun ppf w -> Fmt.pf ppf ", replay truncated: %s" w))
      o.storage_truncated
  ;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Topology and fault targeting. *)

(* The Figure-8 protection detour R3 -> R6 -> R4. *)
let detour = [ ("R3", "R6"); ("R6", "R4") ]

let build_topology sc prng =
  match sc.Scenario.topology with
  | Scenario.Fig8 { setting; detour = with_detour } ->
      let topo = Fig8.topology setting in
      if with_detour then
        List.iter
          (fun (src, dst) ->
            ignore
              (Topology.add_link topo ~src ~dst ~capacity:Fig8.capacity
                 Topology.Rate_based))
          detour;
      topo
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
  | Scenario.Links { ends; _ } ->
      List.map
        (fun (src, dst) ->
          match Topology.find_link topo ~src ~dst with
          | Some l -> l.Topology.link_id
          | None -> invalid_arg (Printf.sprintf "Runner.run: no link %s -> %s" src dst))
        ends
  | Scenario.Regional_links { count; _ } -> (
      match Topo_gen.hubs topo with
      | [] -> []
      | hub :: _ ->
          (* [count] undirected adjacencies at the top hub, both
             directions each — a regional outage around a core. *)
          let outgoing = Topology.out_links topo hub in
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
        (List.concat_map (fun node -> Topology.link_ids (links_at topo node)) stubs)

(* ------------------------------------------------------------------ *)
(* Workload materialization, a pure function of the seed.  Figure 8
   carries the paper's Figure-10 churn; a power-law domain carries the
   five-class mix as a non-homogeneous Poisson process sampled by
   thinning against the shape's peak rate. *)

let mix_arrivals sc topo prng =
  let arr_rng = Prng.split prng in
  let thin_rng = Prng.split prng in
  let pick_rng = Prng.split prng in
  let hold_rng = Prng.split prng in
  let end_rng = Prng.split prng in
  let peak = Float.max 1e-9 (Scenario.peak_rate sc.Scenario.load) in
  let rec go acc t =
    let t = t +. Prng.exponential arr_rng ~mean:(1. /. peak) in
    if t >= sc.Scenario.duration then List.rev acc
    else if Prng.float thin_rng *. peak <= Scenario.rate_at sc.Scenario.load t then begin
      let klass = Traffic_mix.pick pick_rng in
      let ingress, egress = Topo_gen.random_endpoints end_rng topo in
      let holding = Prng.exponential hold_rng ~mean:sc.Scenario.mean_holding in
      let e =
        {
          Dynamic.at = t;
          holding;
          profile = klass.Traffic_mix.profile;
          dreq = klass.Traffic_mix.dreq;
          ingress;
          egress;
        }
      in
      go (e :: acc) t
    end
    else go acc t
  in
  go [] 0.

let arrivals sc topo prng =
  match (sc.Scenario.topology, sc.Scenario.load) with
  | Scenario.Fig8 { setting; _ }, Scenario.Constant arrival_rate ->
      Dynamic.arrivals
        {
          Dynamic.seed = sc.Scenario.seed;
          setting;
          arrival_rate;
          mean_holding = sc.Scenario.mean_holding;
          duration = sc.Scenario.duration;
          cd = 0.24;
        }
  | Scenario.Fig8 _, _ -> invalid_arg "Runner.run: a Figure-8 scenario needs a Constant load"
  | Scenario.Power_law _, _ -> mix_arrivals sc topo prng

let install_policy sc policy =
  match sc.Scenario.topology with
  | Scenario.Fig8 _ ->
      (* Everything entering at I1 is premium, the rest importance 0. *)
      Policy.add_priority_rule policy ~name:"premium-ingress"
        ~matches:(fun r -> r.Types.ingress = Fig8.ingress1)
        ~priority:10
  | Scenario.Power_law _ -> Traffic_mix.install_policy policy

let exact_oracle broker (req : Types.request) =
  match Broker.route_of broker req with
  | None -> false
  | Some path ->
      let ps =
        Admission.path_state (Broker.node_mib broker) (Broker.path_mib broker) path
      in
      Result.is_ok (Admission.admit ps req.Types.profile ~dreq:req.Types.dreq)

let validate sc =
  let crash_points =
    List.filter_map
      (function Scenario.Broker_crash { at; _ } -> Some at | _ -> None)
      sc.Scenario.faults
  in
  if crash_points <> [] && sc.Scenario.journal = None && sc.Scenario.checkpoint_every = None
  then invalid_arg "Runner.run: a crash needs checkpoints or a journal to recover from";
  if
    sc.Scenario.journal = None
    && List.exists (function Scenario.At_record _ -> true | Scenario.At _ -> false) crash_points
  then invalid_arg "Runner.run: a record-boundary crash needs a journal"

(* ------------------------------------------------------------------ *)

let run sc =
  validate sc;
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
  install_policy sc policy;
  let make () = Broker.create ~policy ~time topo in
  (* The journal writes through a real (simulated) disk.  Under
     fsync-per-record the record chain loses nothing at a crash, so a
     promotion must reproduce the pre-crash digest exactly — any
     difference is a genuine violation, not modelled data loss.  Even
     when a Disk_fault rots the current checkpoint generation, recovery
     falls back to the prior generation plus a longer replay and the
     digest still matches.  Without a journal, checkpoints go to the
     failover's private fault-free store. *)
  let journal =
    Option.map
      (fun fsync_every ->
        Journal.create ~fsync_every
          ~storage:(Storage.create ~vfs:(Vfs.create ~seed:sc.Scenario.seed ()) ())
          ())
      sc.Scenario.journal
  in
  let fw = Failover.create ~make_standby:make ~time ?journal (make ()) in
  let store = Failover.storage fw in
  Option.iter (fun every -> Failover.start_checkpoints fw ~every) sc.Scenario.checkpoint_every;
  let ov =
    Ov.create ~config:sc.Scenario.pipeline
      ~oracle:(fun req -> exact_oracle (Failover.active fw) req)
      ~time (Failover.active fw)
  in
  (* Split order is part of the seed's meaning: jitter, the workload's
     streams, then COPS loss. *)
  let jitter_rng = Prng.split prng in
  let plan = arrivals sc topo prng in
  let loss_rng = Prng.split prng in
  let cops =
    Cops.create (Failover.active fw) ~latency:sc.Scenario.latency
      ~reliability:
        (Cops.reliability
           ~faults:
             { Exchange.no_faults with drop = Fault.drop loss_rng ~p:sc.Scenario.loss }
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
  let submitted = ref 0 and admitted = ref 0 in
  let rejected = ref 0 and busy = ref 0 and completed = ref 0 in
  List.iter
    (fun (e : Dynamic.entry) ->
      let req =
        {
          Types.profile = e.Dynamic.profile;
          dreq = e.Dynamic.dreq;
          ingress = e.Dynamic.ingress;
          egress = e.Dynamic.egress;
        }
      in
      Engine.schedule engine ~at:e.Dynamic.at (fun () ->
          incr submitted;
          Cops.request cops req ~on_decision:(function
            | Ok (flow, _) ->
                incr admitted;
                Engine.schedule_after engine ~delay:e.Dynamic.holding (fun () ->
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
  let rerouted = ref 0 and dropped = ref 0 in
  let flows_at_crash = ref 0 and flows_restored = ref 0 in
  let recovery_time = ref None in
  let records_at_crash = ref 0 and records_lost = ref 0 in
  let crash_digests_match = ref None in
  let promote_error = ref None in
  let checkpoint_fallback = ref false in
  let storage_truncated = ref None in
  let scrub_errors = ref 0 in
  let link_hooks =
    Fault.hooks
      ~on_link_down:(fun link_id ->
        when_up (fun () ->
            let r = Broker.fail_link (Failover.active fw) ~link_id in
            rerouted := !rerouted + Broker.recovered_count r;
            dropped := !dropped + Broker.dropped_count r))
      ~on_link_up:(fun link_id ->
        when_up (fun () -> Broker.restore_link (Failover.active fw) ~link_id))
      ()
  in
  let crash ~promote_after =
    let crashed_at = Engine.now engine in
    let dying = Failover.active fw in
    let digest_at_crash = Audit.mib_digest dying in
    flows_at_crash := !flows_at_crash + Broker.per_flow_count dying;
    (* The process dies: the disk keeps only what was fsynced. *)
    Option.iter (fun j -> records_at_crash := !records_at_crash + Journal.records j) journal;
    Storage.crash store;
    Option.iter
      (fun j ->
        records_lost := !records_lost + Journal.records j - Journal.records_on_disk j)
      journal;
    Ov.quiesce ov;
    Failover.crash fw;
    Cops.set_pdp_up cops false;
    Engine.schedule_after engine ~delay:promote_after (fun () ->
        match Failover.promote fw with
        | Ok _ ->
            let recovered = Failover.active fw in
            let matched = Audit.mib_digest recovered = digest_at_crash in
            if (not matched) && sc.Scenario.journal = Some 1 then
              Monitor.note monitor Monitor.Digest_mismatch
                "recovered broker digest differs from pre-crash digest";
            crash_digests_match :=
              Some (matched && Option.value ~default:true !crash_digests_match);
            flows_restored := !flows_restored + Broker.per_flow_count recovered;
            recovery_time := Some (Engine.now engine -. crashed_at);
            (match Failover.last_recovery fw with
            | Some r ->
                if r.Failover.sr_fallback then checkpoint_fallback := true;
                if r.Failover.sr_truncated <> None then
                  storage_truncated := r.Failover.sr_truncated
            | None -> ());
            Ov.retarget ov recovered;
            Cops.set_broker cops recovered;
            Cops.set_pdp_up cops true;
            flush_pending ()
        | Error e -> promote_error := Some e)
  in
  let crash_hooks ~promote_after =
    Fault.hooks ~on_crash:(fun _ -> crash ~promote_after) ()
  in
  (* Every planned injection, dispatched in the canonical order
     ({!Fault.compare_events}) with the hooks of the fault it came from —
     so each crash promotes after its own delay. *)
  List.concat_map
    (fun fault ->
      match fault with
      | Scenario.Broker_crash { at = Scenario.At at; promote_after } ->
          [ (Fault.event ~at (Fault.Crash "broker"), crash_hooks ~promote_after) ]
      | Scenario.Broker_crash { at = Scenario.At_record _; _ } | Scenario.Disk_fault _ ->
          []
      | Scenario.Regional_links { at; duration; _ }
      | Scenario.Links { at; duration; _ }
      | Scenario.Partition { at; duration; _ } ->
          let ids = fault_links topo fault in
          List.map (fun id -> (Fault.event ~at (Fault.Link_down id), link_hooks)) ids
          @ List.map
              (fun id -> (Fault.event ~at:(at +. duration) (Fault.Link_up id), link_hooks))
              ids)
    sc.Scenario.faults
  |> List.stable_sort (fun (a, _) (b, _) -> Fault.compare_events a b)
  |> List.iter (fun (e, hooks) -> Fault.install engine hooks [ e ]);
  (* Record-boundary crashes: the instant the [n]-th record is appended,
     crash at the current sim time — between this record and the next —
     and declare the event's window now that its instant is known. *)
  let at_record =
    List.filter_map
      (function
        | Scenario.Broker_crash { at = Scenario.At_record n; promote_after } ->
            Some (n, promote_after)
        | _ -> None)
      sc.Scenario.faults
  in
  Option.iter
    (fun j ->
      if at_record <> [] then
        Journal.on_record j (fun total ->
            match List.assoc_opt total at_record with
            | Some promote_after when Failover.is_up fw ->
                let ev =
                  Scenario.crash_event ~at:(Engine.now engine) ~promote_after
                in
                Slo.declare slo ev;
                Monitor.add_window monitor (Scenario.window sc.Scenario.slo ev);
                Fault.inject engine (crash_hooks ~promote_after) (Fault.Crash "broker")
            | _ -> ()))
    journal;
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
  let digest = Audit.mib_digest active in
  let measurements = Slo.report slo in
  (* A lossless journal's store must rebuild the final broker cold. *)
  let recovered_digest_match =
    match (sc.Scenario.journal, !promote_error) with
    | Some 1, None -> (
        match Failover.recover_from ~make store with
        | Ok (cold, _, _) -> Some (Audit.mib_digest cold = digest)
        | Error _ -> Some false)
    | _ -> None
  in
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
    p99_latency = Ov.latency_quantile ov ~q:0.99;
    brownout_time = !brownout_time;
    baseline_goodput = Slo.baseline slo;
    measurements;
    genuine_anomalies = Monitor.genuine monitor;
    expected_anomalies = List.length (Monitor.expected monitor);
    monitor_samples = Monitor.samples monitor;
    audit_ok = Audit.ok audit;
    digest;
    messages = Cops.messages cops;
    retransmissions = Cops.retransmissions cops;
    unresolved = Cops.pending cops;
    rerouted = !rerouted;
    dropped = !dropped;
    flows_at_crash = !flows_at_crash;
    flows_restored = !flows_restored;
    recovery_time = !recovery_time;
    records_at_crash = !records_at_crash;
    records_lost = !records_lost;
    crash_digests_match = !crash_digests_match;
    recovered_digest_match;
    promote_error = !promote_error;
    checkpoint_fallback = !checkpoint_fallback;
    storage_truncated = !storage_truncated;
    storage_scrub_errors = !scrub_errors;
  }
