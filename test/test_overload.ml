(* Tests for the overload-resilient admission pipeline: conservative
   brownout admission vs the exact oracle, bounded-queue shedding,
   brownout hysteresis, Server-busy backpressure through COPS, and
   lease-based quota delegation with reclaim and reconcile. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Vtedf = Bbr_vtrs.Vtedf
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Admission = Bbr_broker.Admission
module Policy = Bbr_broker.Policy
module Overload = Bbr_broker.Overload
module Cops = Bbr_broker.Cops
module Exchange = Bbr_broker.Exchange
module Edge_broker = Bbr_broker.Edge_broker
module Audit = Bbr_broker.Audit
module Snapshot = Bbr_broker.Snapshot
module Engine = Bbr_netsim.Engine
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles
module Lease_soak = Bbr_workload.Lease_soak
module Scenario = Bbr_scenario.Scenario
module Runner = Bbr_scenario.Runner
module Prng = Bbr_util.Prng

let type0 = Profiles.profile 0

let req ?(ingress = "A") ?(egress = "B") ?(dreq = 3.) ?(profile = type0) () =
  { Types.profile; dreq; ingress; egress }

let hooks engine =
  {
    Broker.now = (fun () -> Engine.now engine);
    after = (fun delay f -> Engine.schedule_after engine ~delay f);
  }

(* One 10 Mb/s rate-based link A -> B: every type-0 request at dreq 3 s
   admits until the link fills. *)
let one_link ?policy () =
  let t = Topology.create () in
  ignore (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:10e6 Topology.Rate_based);
  fun ~time -> Broker.create ?policy ~time t

let is_busy = function
  | Error (Types.Server_busy _) -> true
  | Ok _ | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Conservative (brownout) admission vs the exact oracle *)

let mk_mixed n =
  let capacity = 1.5e6 in
  let edf = [ Vtedf.create ~capacity; Vtedf.create ~capacity ] in
  for i = 1 to n do
    let delay = 0.02 +. (0.02 *. float_of_int i) in
    List.iter (fun s -> Vtedf.add s ~rate:10_000. ~delay ~lmax:12_000.) edf
  done;
  {
    Admission.hops = 5;
    rate_hops = 3;
    delay_hops = 2;
    d_tot = 0.04;
    cres = capacity -. (float_of_int n *. 10_000.);
    edf;
  }

let test_conservative_rate_only_matches_rate_based () =
  let ps =
    { Admission.hops = 5; rate_hops = 5; delay_hops = 0; d_tot = 0.04; cres = 1.5e6; edf = [] }
  in
  match
    ( Admission.conservative ps type0 ~dreq:2.44,
      Admission.admit ps type0 ~dreq:2.44 )
  with
  | Ok c, Ok e ->
      Alcotest.(check (float 1e-9)) "same rate" e.Types.rate c.Types.rate;
      Alcotest.(check (float 1e-9)) "delay 0" 0. c.Types.delay
  | _ -> Alcotest.fail "rate-only conservative should admit like rate_based"

let arb_flow_spec =
  let gen =
    QCheck.Gen.(
      let* rho = float_range 10_000. 200_000. in
      let* peak_mult = float_range 1.0 4.0 in
      let* lmax = float_range 1_000. 12_000. in
      let* sigma_mult = float_range 1.0 10.0 in
      let sigma = lmax *. sigma_mult in
      let* dreq = float_range 0.05 5.0 in
      let* booked = int_range 0 40 in
      return (sigma, rho, rho *. peak_mult, lmax, dreq, booked))
  in
  QCheck.make gen ~print:(fun (s, r, p, l, d, n) ->
      Printf.sprintf "sigma=%g rho=%g peak=%g lmax=%g dreq=%g booked=%d" s r p l d n)

let prop_conservative_never_beats_oracle =
  (* Whatever the conservative O(1) bound admits, the exact test agrees:
     the reservation satisfies the VT-EDF schedulability condition and the
     exact oracle also finds the flow placeable. *)
  QCheck.Test.make ~count:300 ~name:"conservative admit implies exact admit"
    arb_flow_spec
    (fun (sigma, rho, peak, lmax, dreq, booked) ->
      let ps = mk_mixed booked in
      let p = Traffic.make ~sigma ~rho ~peak ~lmax in
      match Admission.conservative ps p ~dreq with
      | Error _ -> true (* conservative may refuse; never unsafe *)
      | Ok { Types.rate; delay } ->
          Admission.schedulable ps ~rate ~delay ~lmax
          && rate >= rho -. 1e-9
          && (match Admission.mixed ps p ~dreq with
             | Ok _ -> true
             | Error _ ->
                 QCheck.Test.fail_reportf
                   "conservative admitted (r=%g d=%g) but the exact test rejects"
                   rate delay))

(* ------------------------------------------------------------------ *)
(* Policy priority classes *)

let test_policy_priority_first_match_wins () =
  let p = Policy.create () in
  Policy.add_priority_rule p ~name:"premium"
    ~matches:(fun r -> r.Types.ingress = "I1")
    ~priority:10;
  Policy.add_priority_rule p ~name:"also-I1"
    ~matches:(fun r -> r.Types.ingress = "I1")
    ~priority:99;
  Alcotest.(check int) "first match wins" 10 (Policy.priority p (req ~ingress:"I1" ()));
  Alcotest.(check int) "no match defaults to 0" 0 (Policy.priority p (req ~ingress:"I2" ()))

(* ------------------------------------------------------------------ *)
(* Pipeline shedding *)

let test_shed_queue_full () =
  let engine = Engine.create () in
  let broker = one_link () ~time:(hooks engine) in
  let config =
    { Overload.default_config with Overload.queue_limit = 2; service_exact = 1. }
  in
  let ov = Overload.create ~config ~time:(hooks engine) broker in
  let outcomes = ref [] in
  for _ = 1 to 6 do
    Overload.submit ov (req ()) (fun o -> outcomes := o :: !outcomes)
  done;
  Engine.run engine;
  let s = Overload.stats ov in
  Alcotest.(check int) "every callback fired" 6 (List.length !outcomes);
  Alcotest.(check bool) "queue-full sheds" true (s.Overload.shed_queue_full > 0);
  Alcotest.(check int) "decided + shed = submitted" 6
    (s.Overload.decided + Overload.shed_total s);
  List.iter
    (fun o ->
      match o with
      | Error (Types.Server_busy { retry_after }) ->
          Alcotest.(check (float 1e-9)) "retry hint" config.Overload.retry_after
            retry_after
      | Ok _ | Error _ -> ())
    !outcomes

let test_shed_deadline () =
  let engine = Engine.create () in
  let broker = one_link () ~time:(hooks engine) in
  let config =
    { Overload.default_config with Overload.deadline = 1.; service_exact = 3. }
  in
  let ov = Overload.create ~config ~time:(hooks engine) broker in
  let n = ref 0 in
  for _ = 1 to 3 do
    Overload.submit ov (req ()) (fun _ -> incr n)
  done;
  Engine.run engine;
  let s = Overload.stats ov in
  Alcotest.(check int) "all resolved" 3 !n;
  (* The head of line is served; everything behind it waited 3 s > 1 s. *)
  Alcotest.(check int) "late work dropped at dequeue" 2 s.Overload.shed_deadline;
  Alcotest.(check int) "only the head was decided" 1 s.Overload.decided

let test_shed_priority_evicts_lowest () =
  let policy = Policy.create () in
  Policy.add_priority_rule policy ~name:"premium"
    ~matches:(fun r -> r.Types.ingress = "P")
    ~priority:10;
  let engine = Engine.create () in
  let t = Topology.create () in
  ignore (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:10e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"P" ~dst:"B" ~capacity:10e6 Topology.Rate_based);
  let broker = Broker.create ~policy ~time:(hooks engine) t in
  let config =
    {
      Overload.default_config with
      Overload.queue_limit = 4;
      shed_watermark = 0.5;
      deadline = 100.;
      service_exact = 1.;
    }
  in
  let ov = Overload.create ~config ~time:(hooks engine) broker in
  let premium = ref None in
  let low_busy = ref 0 in
  for _ = 1 to 4 do
    Overload.submit ov (req ()) (fun o -> if is_busy o then incr low_busy)
  done;
  Overload.submit ov (req ~ingress:"P" ()) (fun o -> premium := Some o);
  Engine.run engine;
  let s = Overload.stats ov in
  Alcotest.(check bool) "a low-priority entry was evicted" true
    (s.Overload.shed_priority >= 1 && !low_busy >= 1);
  match !premium with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "premium shed: %a" Types.pp_reject_reason e
  | None -> Alcotest.fail "premium never resolved"

let test_stop_sheds_pending_and_drains () =
  let engine = Engine.create () in
  let broker = one_link () ~time:(hooks engine) in
  let config = { Overload.default_config with Overload.service_exact = 5. } in
  let ov = Overload.create ~config ~time:(hooks engine) broker in
  let busy = ref 0 and resolved = ref 0 in
  for _ = 1 to 4 do
    Overload.submit ov (req ()) (fun o ->
        incr resolved;
        if is_busy o then incr busy)
  done;
  Overload.stop ov;
  Overload.submit ov (req ()) (fun o ->
      incr resolved;
      if is_busy o then incr busy);
  Engine.run engine;
  Alcotest.(check int) "all five resolved" 5 !resolved;
  (* The in-service head still completes; the 3 queued + 1 late are shed. *)
  Alcotest.(check int) "queued and late submits shed" 4 !busy;
  Alcotest.(check int) "shutdown sheds counted" 4
    (Overload.stats ov).Overload.shed_shutdown

(* ------------------------------------------------------------------ *)
(* Brownout hysteresis *)

let test_brownout_enter_exit () =
  let engine = Engine.create () in
  let broker = one_link () ~time:(hooks engine) in
  let config =
    {
      Overload.default_config with
      Overload.queue_limit = 10;
      deadline = 1_000.;
      shed_watermark = 1.0;
      service_exact = 1.0;
      service_conservative = 0.1;
      brownout_enter = 0.2;
      brownout_exit = 0.1;
      brownout_sustain = 2.0;
    }
  in
  let ov = Overload.create ~config ~time:(hooks engine) broker in
  (* Burst phase: two requests per second against a 1 s exact service
     time — the queue grows past the enter watermark and stays there
     beyond the sustain window, so brownout engages and the 0.1 s
     conservative decisions drain it.  Trickle phase: one request every
     5 s keeps generating queue events with the queue near-empty, so the
     exit side of the hysteresis fires and the run ends in normal
     mode. *)
  for i = 0 to 19 do
    Engine.schedule engine ~at:(0.5 *. float_of_int i) (fun () ->
        Overload.submit ov (req ()) (fun _ -> ()))
  done;
  for i = 0 to 7 do
    Engine.schedule engine ~at:(15. +. (5. *. float_of_int i)) (fun () ->
        Overload.submit ov (req ()) (fun _ -> ()))
  done;
  Engine.run engine;
  let s = Overload.stats ov in
  Alcotest.(check bool) "entered brownout" true (s.Overload.brownout_entries >= 1);
  Alcotest.(check bool) "exited brownout" true (s.Overload.brownout_exits >= 1);
  Alcotest.(check bool) "conservative decisions taken" true
    (s.Overload.conservative_decisions > 0);
  Alcotest.(check bool) "ended in normal mode" false (Overload.brownout ov);
  Alcotest.(check int) "nothing shed in this regime" 0 (Overload.shed_total s);
  Alcotest.(check int) "oracle never violated" 0 s.Overload.oracle_violations

(* ------------------------------------------------------------------ *)
(* Shed requests leave no trace: MIB digest equals a mirror broker that
   only ever saw the serviced requests; the exact oracle (a snapshot
   restored into a fresh broker) is never contradicted. *)

let arb_pipeline_load =
  let gen =
    QCheck.Gen.(
      list_size (int_range 5 25)
        (pair (int_range 0 3) (float_range 0.5 4.0)))
  in
  QCheck.make gen ~print:(fun l ->
      String.concat ";"
        (List.map (fun (p, d) -> Printf.sprintf "(%d,%.2f)" p d) l))

let prop_shed_leaves_no_trace =
  QCheck.Test.make ~count:40
    ~name:"shed requests touch no MIB state; brownout never beats the oracle"
    arb_pipeline_load
    (fun specs ->
      let engine = Engine.create () in
      let topo () =
        let t = Topology.create () in
        ignore
          (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:2e6 Topology.Rate_based);
        t
      in
      let broker = Broker.create ~time:(hooks engine) (topo ()) in
      let mirror = Broker.create (topo ()) in
      let oracle r =
        let probe = Broker.create (topo ()) in
        (match Snapshot.restore probe (Snapshot.save broker) with
        | Ok _ -> ()
        | Error e -> QCheck.Test.fail_reportf "oracle snapshot: %s" e);
        match Broker.request probe r with Ok _ -> true | Error _ -> false
      in
      let on_serviced r mode outcome =
        let replayed = Broker.request mirror ~admission:mode r in
        match (outcome, replayed) with
        | Ok (_, a), Ok (_, b) when a = b -> ()
        | Error _, Error _ -> ()
        | _ -> QCheck.Test.fail_report "mirror replay diverged"
      in
      (* A tiny queue and brownout from the first instant: sheds and
         conservative decisions both exercised. *)
      let config =
        {
          Overload.default_config with
          Overload.queue_limit = 3;
          deadline = 0.8;
          service_exact = 0.6;
          service_conservative = 0.3;
          brownout_enter = 0.01;
          brownout_exit = 0.;
          brownout_sustain = 0.;
        }
      in
      let ov =
        Overload.create ~config ~oracle ~on_serviced ~time:(hooks engine) broker
      in
      List.iteri
        (fun i (profile, dreq) ->
          Engine.schedule engine ~at:(0.2 *. float_of_int i) (fun () ->
              Overload.submit ov (req ~profile:(Profiles.profile profile) ~dreq ())
                (fun _ -> ())))
        specs;
      Engine.run engine;
      let s = Overload.stats ov in
      if s.Overload.oracle_violations > 0 then
        QCheck.Test.fail_reportf "%d oracle violations" s.Overload.oracle_violations;
      Audit.ok (Audit.check broker)
      && String.equal (Audit.mib_digest broker) (Audit.mib_digest mirror))

(* ------------------------------------------------------------------ *)
(* COPS: Server-busy backoff *)

let busy_pdp ~busy_first k_real : Cops.pdp =
  let n = ref 0 in
  fun r k ->
    incr n;
    if !n <= busy_first then k (Error (Types.Server_busy { retry_after = 0.2 }))
    else k_real r k

(* A PDP busy for its first two verdicts, then deciding: the PEP backs
   off twice and delivers the admit.  Over a channel that doubles every
   message each busy verdict reaches the PEP twice, and the PDP replays it
   to the REQ's duplicate; only the first copy for the current attempt
   may back off, or the copies spend the retry budget. *)
let test_cops_busy_then_decision faults () =
  let engine = Engine.create () in
  let broker = one_link () ~time:(hooks engine) in
  let rel = Cops.reliability ~faults () in
  let pdp = busy_pdp ~busy_first:2 (fun r k -> k (Broker.request broker r)) in
  let cops =
    Cops.create broker ~reliability:rel ~pdp
      ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
      ()
  in
  let decision = ref None in
  Cops.request cops (req ()) ~on_decision:(fun d -> decision := Some d);
  Engine.run engine;
  (match !decision with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e
  | None -> Alcotest.fail "transaction never resolved");
  Alcotest.(check int) "two busy backoffs" 2 (Cops.busy_backoffs cops);
  Alcotest.(check int) "channel drained" 0 (Cops.pending cops)

let test_cops_busy_retries_exhausted () =
  let engine = Engine.create () in
  let broker = one_link () ~time:(hooks engine) in
  let rel = Cops.reliability ~faults:Exchange.no_faults ~busy_retries:3 () in
  let pdp : Cops.pdp =
    fun _ k -> k (Error (Types.Server_busy { retry_after = 0.2 }))
  in
  let cops =
    Cops.create broker ~reliability:rel ~pdp
      ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
      ()
  in
  let decision = ref None in
  Cops.request cops (req ()) ~on_decision:(fun d -> decision := Some d);
  Engine.run engine;
  (match !decision with
  | Some d -> Alcotest.(check bool) "gave up with Server_busy" true (is_busy d)
  | None -> Alcotest.fail "transaction never resolved — engine cannot drain");
  Alcotest.(check int) "three backoffs then surrender" 3 (Cops.busy_backoffs cops)

let test_cops_jitter_stretches_backoff () =
  let resolve_time jitter =
    let engine = Engine.create () in
    let broker = one_link () ~time:(hooks engine) in
    let rel = Cops.reliability ~faults:Exchange.no_faults ~jitter () in
    let pdp = busy_pdp ~busy_first:1 (fun r k -> k (Broker.request broker r)) in
    let cops =
      Cops.create broker ~reliability:rel ~pdp
        ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
        ()
    in
    let at = ref nan in
    Cops.request cops (req ()) ~on_decision:(fun _ -> at := Engine.now engine);
    Engine.run engine;
    !at
  in
  let exact = resolve_time (fun () -> 0.) in
  let stretched = resolve_time (fun () -> 0.9) in
  Alcotest.(check bool) "jittered backoff resolves later" true
    (stretched > exact +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Leased quota delegation *)

let lease_env ~period f =
  let engine = Engine.create () in
  let central = Broker.create ~time:(hooks engine) (Fig8.topology `Rate_only) in
  let mgr = Edge_broker.lease_manager ~central ~time:(hooks engine) ~period in
  Fun.protect
    ~finally:(fun () ->
      Edge_broker.stop_manager mgr;
      Engine.run engine)
    (fun () -> f engine central mgr)

let edge mgr =
  match
    Edge_broker.create_leased mgr ~ingress:Fig8.ingress1 ~egress:Fig8.egress1
      ~chunk:300_000.
  with
  | Ok eb -> eb
  | Error e -> Alcotest.failf "edge creation: %a" Types.pp_reject_reason e

let local_req rate =
  let profile = Traffic.make ~sigma:(rate /. 2.) ~rho:rate ~peak:rate ~lmax:12_000. in
  req ~profile ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:1e9 ()

let test_lease_reclaim_within_period () =
  lease_env ~period:8. (fun engine central mgr ->
      let eb = edge mgr in
      (match Edge_broker.request eb (local_req 100_000.) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "local admit: %a" Types.pp_reject_reason e);
      Alcotest.(check int) "one grant pseudo-flow" 1 (Broker.per_flow_count central);
      Engine.schedule engine ~at:5. (fun () -> Edge_broker.disconnect eb);
      Engine.run ~until:13. engine;
      (* 5 s disconnect + 3/4 period TTL + 1/8 period sweep lag = 12 s. *)
      Alcotest.(check int) "grant reclaimed within one period" 0
        (Broker.per_flow_count central);
      Alcotest.(check bool) "edge still holds its stale local view" true
        (Edge_broker.quota_total eb > 0.))

let test_lease_reconnect_before_expiry () =
  lease_env ~period:8. (fun engine central mgr ->
      let eb = edge mgr in
      (match Edge_broker.request eb (local_req 100_000.) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "local admit: %a" Types.pp_reject_reason e);
      Engine.schedule engine ~at:2. (fun () -> Edge_broker.disconnect eb);
      let rc = ref None in
      Engine.schedule engine ~at:3. (fun () -> rc := Some (Edge_broker.reconnect eb));
      Engine.run ~until:20. engine;
      match !rc with
      | None -> Alcotest.fail "reconnect never ran"
      | Some r ->
          Alcotest.(check int) "nothing re-registered" 0
            (List.length r.Edge_broker.re_registered);
          Alcotest.(check int) "nothing surrendered" 0
            (List.length r.Edge_broker.surrendered);
          Alcotest.(check (float 1e-9)) "quota kept" r.Edge_broker.quota_before
            r.Edge_broker.quota_after;
          Alcotest.(check int) "grant survived throughout" 1
            (Broker.per_flow_count central))

let test_lease_reconnect_after_reclaim () =
  lease_env ~period:8. (fun engine central mgr ->
      let eb = edge mgr in
      List.iter
        (fun rate ->
          match Edge_broker.request eb (local_req rate) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "local admit: %a" Types.pp_reject_reason e)
        [ 200_000.; 200_000.; 200_000. ];
      Engine.schedule engine ~at:2. (fun () -> Edge_broker.disconnect eb);
      (* After the reclaim, a competitor grabs most of the freed path:
         only part of the edge's old load fits back in. *)
      Engine.schedule engine ~at:14. (fun () ->
          match
            Broker.request central
              (req
                 ~profile:
                   (Traffic.make ~sigma:60_000. ~rho:1_100_000. ~peak:1_100_000.
                      ~lmax:12_000.)
                 ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:1e9 ())
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "competitor admit: %a" Types.pp_reject_reason e);
      let rc = ref None in
      Engine.schedule engine ~at:16. (fun () -> rc := Some (Edge_broker.reconnect eb));
      Engine.run ~until:30. engine;
      match !rc with
      | None -> Alcotest.fail "reconnect never ran"
      | Some r ->
          Alcotest.(check int) "part of the load re-registered" 2
            (List.length r.Edge_broker.re_registered);
          Alcotest.(check int) "the rest surrendered" 1
            (List.length r.Edge_broker.surrendered);
          Alcotest.(check bool) "edge usable again" true
            (Edge_broker.connected eb);
          let report =
            Audit.check ~now:(Engine.now engine) ~leases:(Edge_broker.leases mgr)
              central
          in
          Alcotest.(check bool) "audit clean after reconcile" true (Audit.ok report))

let test_stale_lease_audit_and_repair () =
  let central = Broker.create (Fig8.topology `Rate_only) in
  let flow =
    match
      Broker.request central
        (req ~profile:type0 ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ())
    with
    | Ok (flow, _) -> flow
    | Error e -> Alcotest.failf "grant admit: %a" Types.pp_reject_reason e
  in
  let lease holder expires_at =
    { Types.holder; expires_at; granted = [ flow ] }
  in
  let live = Audit.check ~now:3. ~leases:[ lease "edge-x" 5. ] central in
  Alcotest.(check bool) "live lease is legitimate backing" true (Audit.ok live);
  let stale = Audit.check ~now:10. ~leases:[ lease "edge-x" 5. ] central in
  Alcotest.(check int) "one stale-lease violation" 1
    (List.length stale.Audit.violations);
  (match stale.Audit.violations with
  | [ v ] ->
      Alcotest.(check string) "kind label" "stale_lease" (Audit.kind_label v.Audit.kind)
  | _ -> Alcotest.fail "expected exactly one violation");
  let outcome = Audit.repair ~now:10. ~leases:[ lease "edge-x" 5. ] central in
  Alcotest.(check bool) "repair cleans up" true (Audit.ok outcome.Audit.remaining);
  Alcotest.(check int) "pinned grant torn down" 0 (Broker.per_flow_count central)

let test_return_idle_quota_idempotent () =
  let central = Broker.create (Fig8.topology `Rate_only) in
  match
    Edge_broker.create ~central ~ingress:Fig8.ingress1 ~egress:Fig8.egress1
      ~chunk:300_000.
  with
  | Error e -> Alcotest.failf "edge creation: %a" Types.pp_reject_reason e
  | Ok eb ->
      (* Two chunks acquired (100k then a 250k flow forcing a second
         300k chunk), then everything torn down: 600 kb/s idle. *)
      let flows =
        List.map
          (fun rate ->
            match Edge_broker.request eb (local_req rate) with
            | Ok (flow, _) -> flow
            | Error e -> Alcotest.failf "local admit: %a" Types.pp_reject_reason e)
          [ 100_000.; 250_000. ]
      in
      Alcotest.(check (float 1e-9)) "two chunks held" 600_000.
        (Edge_broker.quota_total eb);
      List.iter (Edge_broker.teardown eb) flows;
      let tx_before = Edge_broker.central_transactions eb in
      Edge_broker.return_idle_quota eb;
      let tx_first = Edge_broker.central_transactions eb in
      let quota_first = Edge_broker.quota_total eb in
      (* One whole chunk goes back; the other stays as permitted slack. *)
      Alcotest.(check int) "one return transaction" (tx_before + 1) tx_first;
      Alcotest.(check (float 1e-9)) "one chunk of slack kept" 300_000. quota_first;
      Edge_broker.return_idle_quota eb;
      Alcotest.(check int) "second return is free" tx_first
        (Edge_broker.central_transactions eb);
      Alcotest.(check (float 1e-9)) "quota unchanged by the no-op" quota_first
        (Edge_broker.quota_total eb);
      Alcotest.(check int) "central holds only the slack grant" 1
        (Broker.per_flow_count central)

(* ------------------------------------------------------------------ *)
(* End-to-end soaks (reduced horizons) *)

let soak_config =
  { Bbr_scenario.Matrix.fig10_overload with Scenario.duration = 500.; horizon = 1_000. }

let test_soak_brownout_invariants () =
  let o = Runner.run soak_config in
  let s = o.Runner.pipeline in
  Alcotest.(check int) "no oracle violations" 0 s.Overload.oracle_violations;
  Alcotest.(check int) "no unresolved transactions" 0 o.Runner.unresolved;
  Alcotest.(check bool) "overload actually shed work" true (Overload.shed_total s > 0);
  Alcotest.(check bool) "brownout engaged" true (s.Overload.brownout_entries > 0);
  Alcotest.(check bool) "audit clean" true o.Runner.audit_ok;
  Alcotest.(check (option bool)) "journal replay digest-exact" (Some true)
    o.Runner.recovered_digest_match;
  (* Bounded decision latency: nothing waits past the deadline and then
     gets served — so p99 <= deadline + one service time. *)
  let bound =
    soak_config.Scenario.pipeline.Overload.deadline
    +. soak_config.Scenario.pipeline.Overload.service_exact
  in
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.3f bounded by %.3f" o.Runner.p99_latency bound)
    true
    (o.Runner.p99_latency <= bound +. 1e-9)

let test_soak_deterministic () =
  let a = Runner.run soak_config and b = Runner.run soak_config in
  Alcotest.(check string) "same digest" a.Runner.digest b.Runner.digest;
  Alcotest.(check int) "same admissions" a.Runner.admitted b.Runner.admitted;
  Alcotest.(check int) "same sheds"
    (Overload.shed_total a.Runner.pipeline)
    (Overload.shed_total b.Runner.pipeline)

let test_soak_partition_reclaim () =
  let o = Lease_soak.run Lease_soak.default_config in
  Alcotest.(check bool) "reclaimed within one lease period" true
    o.Lease_soak.reclaimed_within_period;
  Alcotest.(check int) "no stale leases at the horizon" 0 o.Lease_soak.stale_leases;
  Alcotest.(check bool) "audit clean" true (Audit.ok o.Lease_soak.audit);
  Alcotest.(check bool) "reconnect re-registered live flows" true
    (o.Lease_soak.re_registered > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "overload"
    [
      ( "conservative admission",
        [
          Alcotest.test_case "rate-only path unchanged" `Quick
            test_conservative_rate_only_matches_rate_based;
          QCheck_alcotest.to_alcotest prop_conservative_never_beats_oracle;
        ] );
      ( "policy priority",
        [
          Alcotest.test_case "first match wins" `Quick
            test_policy_priority_first_match_wins;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "queue full" `Quick test_shed_queue_full;
          Alcotest.test_case "deadline at dequeue" `Quick test_shed_deadline;
          Alcotest.test_case "priority eviction" `Quick
            test_shed_priority_evicts_lowest;
          Alcotest.test_case "stop sheds pending" `Quick
            test_stop_sheds_pending_and_drains;
        ] );
      ( "brownout",
        [
          Alcotest.test_case "hysteresis enter/exit" `Quick test_brownout_enter_exit;
          QCheck_alcotest.to_alcotest prop_shed_leaves_no_trace;
        ] );
      ( "cops backpressure",
        [
          Alcotest.test_case "busy then decision" `Quick
            (test_cops_busy_then_decision Exchange.no_faults);
          Alcotest.test_case "duplicated busy DECs back off once" `Quick
            (test_cops_busy_then_decision
               { Exchange.no_faults with Exchange.duplicate = (fun () -> true) });
          Alcotest.test_case "busy retries exhausted" `Quick
            test_cops_busy_retries_exhausted;
          Alcotest.test_case "jitter stretches backoff" `Quick
            test_cops_jitter_stretches_backoff;
        ] );
      ( "leases",
        [
          Alcotest.test_case "reclaim within one period" `Quick
            test_lease_reclaim_within_period;
          Alcotest.test_case "reconnect before expiry" `Quick
            test_lease_reconnect_before_expiry;
          Alcotest.test_case "reconnect after reclaim" `Quick
            test_lease_reconnect_after_reclaim;
          Alcotest.test_case "stale-lease audit and repair" `Quick
            test_stale_lease_audit_and_repair;
          Alcotest.test_case "idle-quota return idempotent" `Quick
            test_return_idle_quota_idempotent;
        ] );
      ( "soaks",
        [
          Alcotest.test_case "brownout invariants" `Quick test_soak_brownout_invariants;
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
          Alcotest.test_case "partition reclaim" `Quick test_soak_partition_reclaim;
        ] );
    ]
