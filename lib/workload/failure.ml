module Engine = Bbr_netsim.Engine
module Fault = Bbr_netsim.Fault
module Broker = Bbr_broker.Broker
module Cops = Bbr_broker.Cops
module Failover = Bbr_broker.Failover
module Journal = Bbr_broker.Journal
module Storage = Bbr_broker.Storage
module Audit = Bbr_broker.Audit
module Types = Bbr_broker.Types
module Topology = Bbr_vtrs.Topology
module Prng = Bbr_util.Prng

type config = {
  seed : int;
  setting : Fig8.setting;
  arrival_rate : float;
  mean_holding : float;
  duration : float;
  horizon : float;
  loss : float;
  latency : float;
  link_down : (float * (string * string)) list;
  link_up : (float * (string * string)) list;
  crash_at : float option;
  promote_after : float;
  checkpoint_every : float option;
  checkpoint_on_decision : bool;
  extra_links : (string * string * float) list;
  journal : bool;
  journal_fsync_every : int;
  crash_at_record : int option;
}

let default_config =
  {
    seed = 1;
    setting = `Rate_only;
    arrival_rate = 0.15;
    mean_holding = 200.;
    duration = 2000.;
    horizon = 4000.;
    loss = 0.;
    latency = 0.005;
    link_down = [];
    link_up = [];
    crash_at = None;
    promote_after = 0.5;
    checkpoint_every = Some 50.;
    checkpoint_on_decision = false;
    extra_links = [];
    journal = false;
    journal_fsync_every = 1;
    crash_at_record = None;
  }

type outcome = {
  offered : int;
  admitted : int;
  rejected : int;
  rerouted : int;
  dropped : int;
  flows_at_crash : int;
  flows_restored : int;
  flows_lost : int;
  recovery_time : float option;
  unresolved : int;
  messages : int;
  retransmissions : int;
  promote_error : string option;
  journal_records_at_crash : int;
  journal_records_lost : int;
  digest_at_crash : string option;
  digest_recovered : string option;
  storage_fallback : bool;
  storage_truncated : string option;
  storage_quarantined : int;
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>offered %d  admitted %d  rejected %d@,\
     link failures: rerouted %d  dropped %d@,\
     crash: %d active -> %d restored (%d lost)%a@,\
     signaling: %d messages, %d retransmissions, %d unresolved%a@]"
    o.offered o.admitted o.rejected o.rerouted o.dropped o.flows_at_crash
    o.flows_restored o.flows_lost
    (Fmt.option (fun ppf t -> Fmt.pf ppf ", recovered in %.3f s" t))
    o.recovery_time o.messages o.retransmissions o.unresolved
    (Fmt.option (fun ppf e -> Fmt.pf ppf "@,promotion FAILED: %s" e))
    o.promote_error;
  if o.digest_at_crash <> None then
    Fmt.pf ppf "@,journal: %d records at crash, %d lost; digests %s"
      o.journal_records_at_crash o.journal_records_lost
      (match (o.digest_at_crash, o.digest_recovered) with
      | Some a, Some b when a = b -> "MATCH"
      | Some _, Some _ -> "MISMATCH"
      | _ -> "n/a (not recovered)");
  if o.storage_fallback || o.storage_quarantined > 0 || o.storage_truncated <> None
  then
    Fmt.pf ppf "@,storage: %s%s%a"
      (if o.storage_fallback then "generation fallback" else "no fallback")
      (if o.storage_quarantined > 0 then
         Printf.sprintf ", %d segment(s) quarantined" o.storage_quarantined
       else "")
      (Fmt.option (fun ppf w -> Fmt.pf ppf ", truncated: %s" w))
      o.storage_truncated

let link_id_of topo (src, dst) =
  match Topology.find_link topo ~src ~dst with
  | Some l -> l.Topology.link_id
  | None -> invalid_arg (Printf.sprintf "Failure.run: no link %s -> %s" src dst)

let run config =
  let journaling = config.journal || config.crash_at_record <> None in
  if
    (config.crash_at <> None || config.crash_at_record <> None)
    && config.checkpoint_every = None
    && (not config.checkpoint_on_decision)
    && not journaling
  then
    invalid_arg
      "Failure.run: a crash needs checkpointing or a journal, or recovery is \
       impossible";
  let engine = Engine.create () in
  let topo = Fig8.topology config.setting in
  List.iter
    (fun (src, dst, capacity) ->
      ignore (Topology.add_link topo ~src ~dst ~capacity Topology.Rate_based))
    config.extra_links;
  let time =
    {
      Broker.now = (fun () -> Engine.now engine);
      after = (fun delay f -> Engine.schedule_after engine ~delay f);
    }
  in
  let make () = Broker.create ~time topo in
  let journal =
    if journaling then Some (Journal.create ~fsync_every:config.journal_fsync_every ())
    else None
  in
  let fw = Failover.create ~make_standby:make ~time ?journal (make ()) in
  let prng = Prng.create ~seed:config.seed in
  let loss_rng = Prng.split prng in
  let cops =
    Cops.create (Failover.active fw) ~latency:config.latency
      ~reliability:(Cops.reliability ~loss:(Fault.drop loss_rng ~p:config.loss) ())
      ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
      ()
  in
  (* The same Poisson/Table-1 churn workload as the Figure-10 experiment,
     materialized so the run is a pure function of the seed. *)
  let arrivals =
    Dynamic.arrivals
      {
        Dynamic.seed = config.seed;
        setting = config.setting;
        arrival_rate = config.arrival_rate;
        mean_holding = config.mean_holding;
        duration = config.duration;
        cd = 0.24;
      }
  in
  let admitted = ref 0 and rejected = ref 0 in
  let rerouted = ref 0 and dropped = ref 0 in
  let flows_at_crash = ref 0 and flows_restored = ref 0 in
  let recovery_time = ref None and promote_error = ref None in
  let journal_records_at_crash = ref 0 and journal_records_lost = ref 0 in
  let digest_at_crash = ref None and digest_recovered = ref None in
  let storage_fallback = ref false and storage_truncated = ref None in
  let storage_quarantined = ref 0 in
  (* Eager checkpointing keeps the standby's snapshot fresh relative to
     every booking the PEP has seen confirmed; teardowns checkpoint one
     round trip later, once the DRQ has reached the broker. *)
  let checkpoint_now () = if config.checkpoint_on_decision then Failover.checkpoint fw in
  let checkpoint_soon () =
    if config.checkpoint_on_decision then
      Engine.schedule_after engine
        ~delay:((2. *. config.latency) +. 1e-6)
        (fun () -> Failover.checkpoint fw)
  in
  List.iter
    (fun (e : Dynamic.entry) ->
      Engine.schedule engine ~at:e.Dynamic.at (fun () ->
          Cops.request cops
            {
              Types.profile = e.Dynamic.profile;
              dreq = e.Dynamic.dreq;
              ingress = e.Dynamic.ingress;
              egress = e.Dynamic.egress;
            }
            ~on_decision:(function
              | Ok (flow, _) ->
                  incr admitted;
                  checkpoint_now ();
                  Engine.schedule_after engine ~delay:e.Dynamic.holding (fun () ->
                      Cops.teardown cops flow;
                      checkpoint_soon ())
              | Error _ -> incr rejected)))
    arrivals;
  (match config.checkpoint_every with
  | Some every -> Failover.start_checkpoints fw ~every
  | None -> ());
  let events =
    List.map
      (fun (at, ends) -> Fault.event ~at (Fault.Link_down (link_id_of topo ends)))
      config.link_down
    @ List.map
        (fun (at, ends) -> Fault.event ~at (Fault.Link_up (link_id_of topo ends)))
        config.link_up
    @
    match config.crash_at with
    | Some at -> [ Fault.event ~at (Fault.Crash "broker") ]
    | None -> []
  in
  let hooks =
    Fault.hooks
      ~on_link_down:(fun link_id ->
        let r = Broker.fail_link (Failover.active fw) ~link_id in
        rerouted := !rerouted + Broker.recovered_count r;
        dropped := !dropped + Broker.dropped_count r)
      ~on_link_up:(fun link_id -> Broker.restore_link (Failover.active fw) ~link_id)
      ~on_crash:(fun _ ->
        let crashed_at = Engine.now engine in
        flows_at_crash := Broker.per_flow_count (Failover.active fw);
        (* Freeze the oracle BEFORE modelling the crash's data loss: the
           digest of the dying primary is what a perfect recovery must
           reproduce.  Then crash the disk: each file keeps its last fsync
           boundary plus a torn half of the unsynced suffix. *)
        (match journal with
        | None -> Storage.crash (Failover.storage fw)
        | Some j ->
            digest_at_crash := Some (Audit.mib_digest (Failover.active fw));
            journal_records_at_crash := Journal.records j;
            Storage.crash (Journal.storage j);
            journal_records_lost := Journal.records j - Journal.records_on_disk j);
        Failover.crash fw;
        Cops.set_pdp_up cops false;
        Engine.schedule_after engine ~delay:config.promote_after (fun () ->
            match Failover.promote fw with
            | Ok n ->
                (* With a journal, [n] counts snapshot lines + journal
                   records (teardowns included); the live flow count of
                   the recovered broker is the comparable figure. *)
                flows_restored :=
                  (if journal = None then n
                   else Broker.per_flow_count (Failover.active fw));
                if journal <> None then
                  digest_recovered := Some (Audit.mib_digest (Failover.active fw));
                (match Failover.last_recovery fw with
                | None -> ()
                | Some r ->
                    storage_fallback := r.Failover.sr_fallback;
                    storage_truncated := r.Failover.sr_truncated;
                    storage_quarantined := r.Failover.sr_quarantined);
                Cops.set_broker cops (Failover.active fw);
                Cops.set_pdp_up cops true;
                recovery_time := Some (Engine.now engine -. crashed_at)
            | Error e -> promote_error := Some e))
      ()
  in
  (* Crash-point injection at an exact journal record boundary: the
     instant the [n]-th record is appended, schedule the crash at the
     current simulated time.  Because the hook fires synchronously inside
     the mutation, the crash lands between this record and the next —
     there is no "few more admissions slip in" race. *)
  (match (journal, config.crash_at_record) with
  | Some j, Some n ->
      Journal.on_record j (fun total ->
          if total = n && Failover.is_up fw then
            Fault.inject engine hooks (Fault.Crash "broker"))
  | _ -> ());
  Fault.install engine hooks events;
  Engine.run ~until:config.horizon engine;
  (* Let the tail drain: departures past the horizon, in-flight
     retransmissions, the final checkpoint tick (which sees [stop] and
     unschedules).  Skipped when promotion failed — the PDP is then down
     forever and reliable transactions would retransmit without end. *)
  Failover.stop fw;
  if !promote_error = None then Engine.run engine;
  {
    offered = List.length arrivals;
    admitted = !admitted;
    rejected = !rejected;
    rerouted = !rerouted;
    dropped = !dropped;
    flows_at_crash = !flows_at_crash;
    flows_restored = !flows_restored;
    flows_lost = max 0 (!flows_at_crash - !flows_restored);
    recovery_time = !recovery_time;
    unresolved = Cops.pending cops;
    messages = Cops.messages cops;
    retransmissions = Cops.retransmissions cops;
    promote_error = !promote_error;
    journal_records_at_crash = !journal_records_at_crash;
    journal_records_lost = !journal_records_lost;
    digest_at_crash = !digest_at_crash;
    digest_recovered = !digest_recovered;
    storage_fallback = !storage_fallback;
    storage_truncated = !storage_truncated;
    storage_quarantined = !storage_quarantined;
  }
