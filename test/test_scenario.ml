(* The chaos scenario engine: DSL semantics, monitor window
   classification, SLO measurement, and the headline robustness
   property — after every fault heals, the broker's audit is clean and
   the whole run is a deterministic function of the seed, across random
   interleavings of flash crowds, link bursts, partitions and broker
   crashes. *)

module Scenario = Bbr_scenario.Scenario
module Monitor = Bbr_scenario.Monitor
module Slo = Bbr_scenario.Slo
module Runner = Bbr_scenario.Runner
module Matrix = Bbr_scenario.Matrix
module Traffic_mix = Bbr_scenario.Traffic_mix
module Policy = Bbr_broker.Policy
module Types = Bbr_broker.Types

(* ------------------------------------------------------------------ *)
(* DSL units *)

let test_load_shapes () =
  let d = Scenario.Diurnal { base = 1.0; amplitude = 0.5; period = 100. } in
  Alcotest.(check (float 1e-9)) "diurnal at t=0" 1.0 (Scenario.rate_at d 0.);
  Alcotest.(check (float 1e-9)) "diurnal peak" 1.5 (Scenario.rate_at d 25.);
  let f =
    Scenario.Flash { shape = d; at = 10.; mult = 4.; rise = 2.; hold = 6.; fall = 2. }
  in
  Alcotest.(check (float 1e-6)) "flash before" (Scenario.rate_at d 5.)
    (Scenario.rate_at f 5.);
  Alcotest.(check (float 1e-6)) "flash hold multiplies"
    (4. *. Scenario.rate_at d 14.)
    (Scenario.rate_at f 14.);
  Alcotest.(check (float 1e-6)) "flash after" (Scenario.rate_at d 30.)
    (Scenario.rate_at f 30.);
  Alcotest.(check (float 1e-9)) "peak envelope" 6.0 (Scenario.peak_rate f)

let test_events_and_windows () =
  let sc =
    {
      Scenario.default with
      Scenario.load =
        Scenario.Flash
          { shape = Scenario.Constant 1.; at = 50.; mult = 8.; rise = 5.; hold = 10.;
            fall = 5. };
      faults = [ Scenario.Broker_crash { at = Scenario.At 100.; promote_after = 2. } ];
      slo = { Scenario.default_slo with Scenario.recover_goodput = 20.;
              clean_audit = 10.; brownout_exit = 30. };
    }
  in
  (match Scenario.events sc with
  | [ flash; crash ] ->
      Alcotest.(check (float 1e-9)) "flash heal" 70. flash.Scenario.healed_at;
      Alcotest.(check (float 1e-9)) "crash heal" 102. crash.Scenario.healed_at
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es));
  let ws = Scenario.windows sc in
  Alcotest.(check bool) "inside flash window" true (Scenario.in_windows ws 60.);
  Alcotest.(check bool) "inside crash grace" true (Scenario.in_windows ws 130.);
  Alcotest.(check bool) "outside all windows" false (Scenario.in_windows ws 20.)

let test_scale () =
  let sc = List.hd Matrix.scenarios in
  let same = Scenario.scale 1. sc in
  Alcotest.(check (float 0.)) "scale 1 is identity" sc.Scenario.duration
    same.Scenario.duration;
  let half = Scenario.scale 2. sc in
  Alcotest.(check (float 1e-9)) "duration halves" (sc.Scenario.duration /. 2.)
    half.Scenario.duration;
  Alcotest.(check (float 1e-9)) "slo budgets shrink"
    (sc.Scenario.slo.Scenario.clean_audit /. 2.)
    half.Scenario.slo.Scenario.clean_audit

let test_traffic_mix_policy () =
  let policy = Policy.create () in
  Traffic_mix.install_policy policy;
  List.iter
    (fun (k : Traffic_mix.klass) ->
      let req =
        { Types.profile = k.Traffic_mix.profile; dreq = k.Traffic_mix.dreq;
          ingress = "a"; egress = "b" }
      in
      Alcotest.(check int)
        (Printf.sprintf "policy priority for %s" k.Traffic_mix.name)
        k.Traffic_mix.priority (Policy.priority policy req);
      match Traffic_mix.classify req with
      | Some k' -> Alcotest.(check string) "classify" k.Traffic_mix.name k'.Traffic_mix.name
      | None -> Alcotest.failf "class %s did not classify" k.Traffic_mix.name)
    Traffic_mix.classes

(* ------------------------------------------------------------------ *)
(* Monitor + SLO units *)

let test_monitor_windows () =
  let now = ref 0. in
  let m = Monitor.create ~now:(fun () -> !now) ~windows:[ (10., 20.) ] () in
  now := 15.;
  Monitor.note m Monitor.Audit_violation "inside";
  now := 25.;
  Monitor.note m Monitor.Oracle_violation "outside";
  Alcotest.(check int) "one expected" 1 (List.length (Monitor.expected m));
  match Monitor.genuine m with
  | [ a ] ->
      Alcotest.(check string) "genuine detail" "outside" a.Monitor.detail;
      Alcotest.(check string) "kind label" "oracle_violation"
        (Monitor.kind_label a.Monitor.kind)
  | l -> Alcotest.failf "expected 1 genuine anomaly, got %d" (List.length l)

let test_slo_measurement () =
  let budgets =
    { Scenario.recover_goodput = 10.; goodput_frac = 0.8; clean_audit = 5.;
      brownout_exit = 20. }
  in
  let slo = Slo.create ~budgets in
  (* Baseline 1.0 before the event at t=50; goodput collapses, then
     recovers at t=58 -> 8 s, inside the 10 s budget. *)
  for t = 1 to 45 do
    Slo.note_goodput slo ~at:(float_of_int t) 1.0
  done;
  List.iter (fun at -> Slo.note_goodput slo ~at 0.1) [ 51.; 53.; 55. ];
  Slo.note_goodput slo ~at:58. 0.9;
  Slo.note_audit slo ~at:40. true;
  Slo.note_audit slo ~at:52. false;
  Slo.note_audit slo ~at:62. true;
  Slo.note_brownout slo ~at:49. false;
  Slo.note_brownout slo ~at:51. false;
  Slo.declare slo
    { Scenario.label = "ev"; injected_at = 46.; healed_at = 50. };
  Alcotest.(check (float 1e-9)) "baseline" 1.0 (Slo.baseline slo);
  let get metric =
    match
      List.find_opt (fun (m : Slo.measurement) -> m.Slo.metric = metric)
        (Slo.measure slo)
    with
    | Some m -> m
    | None -> Alcotest.failf "missing measurement %s" metric
  in
  let g = get "goodput_recovery" in
  Alcotest.(check bool) "goodput met" true g.Slo.met;
  Alcotest.(check (option (float 1e-9))) "goodput time" (Some 8.) g.Slo.value;
  let a = get "clean_audit" in
  Alcotest.(check bool) "audit breach (12 s > 5 s)" false a.Slo.met;
  let b = get "brownout_exit" in
  Alcotest.(check bool) "brownout met immediately" true b.Slo.met;
  Alcotest.(check (option (float 1e-9))) "brownout time" (Some 1.) b.Slo.value;
  Alcotest.(check bool) "overall not ok" false (Slo.ok slo)

(* ------------------------------------------------------------------ *)
(* The matrix smoke (one scenario end to end through the Runner). *)

let test_matrix_smoke () =
  match Matrix.run_all ~scale:8. ~names:[ "crash-during-flash-crowd" ] () with
  | [ o ] ->
      Alcotest.(check bool) "scenario passed" true (Runner.ok o);
      Alcotest.(check int) "no genuine anomalies" 0
        (List.length o.Runner.genuine_anomalies);
      if o.Runner.offered <= 0 then Alcotest.fail "no arrivals offered";
      if o.Runner.monitor_samples <= 0 then Alcotest.fail "monitor never sampled"
  | l -> Alcotest.failf "expected 1 outcome, got %d" (List.length l)

let test_matrix_json () =
  let outcomes = Matrix.run_all ~scale:8. ~names:[ "regional-failure" ] () in
  let json = Matrix.to_json ~scale:8. outcomes in
  match Bbr_util.Json.of_string_opt json with
  | None -> Alcotest.fail "BENCH json does not parse"
  | Some j -> (
      match Option.bind (Bbr_util.Json.member "schema" j) Bbr_util.Json.to_str with
      | Some s -> Alcotest.(check string) "schema" "bbr/scenarios/v1" s
      | None -> Alcotest.fail "missing schema field")

(* ------------------------------------------------------------------ *)
(* Property: across random compositions of flash crowds, regional link
   bursts, partitions and broker crashes on power-law domains — and of
   named-link failures and record-boundary crashes on the Figure-8 domain
   under its Figure-10 churn — once everything heals the audit is clean,
   nothing violates an invariant outside a declared window, every
   transaction resolves, and the run is a deterministic function of the
   seed (same seed, same digest and counters). *)

type draw = {
  seed : int;
  nodes : int;
  fig8 : bool;
  flash : bool;
  crash : bool;
  links : bool;
  partition : bool;
  t1 : float;
  t2 : float;
  t3 : float;
}

let interleaving_gen =
  QCheck.Gen.(
    let* seed = int_range 1 100_000 in
    let* nodes = int_range 30 60 in
    let* fig8 = bool in
    let* flash = bool in
    let* crash = bool in
    let* links = bool in
    let* partition = bool in
    let* t1 = float_range 20. 50. in
    let* t2 = float_range 30. 70. in
    let* t3 = float_range 20. 80. in
    return { seed; nodes; fig8; flash; crash; links; partition; t1; t2; t3 })

(* On Figure 8 the load stays constant (Figure-10 churn), [links] fails
   R3->R4 and R4->R5, [partition] adds the R3->R6->R4 detour, and the
   crash fires at a journal record boundary (about two records per
   second of churn, so around [t2]). *)
let fig8_scenario d =
  {
    Scenario.default with
    Scenario.name = "prop-fig8";
    descr = "random Figure-8 interleaving";
    seed = d.seed;
    topology =
      Scenario.Fig8
        { setting = (if d.seed mod 2 = 0 then `Mixed else `Rate_only); detour = d.partition };
    load = Scenario.Constant 1.2;
    mean_holding = 25.;
    duration = 120.;
    horizon = 200.;
    checkpoint_every = Some 5.;
    faults =
      (if d.crash then
         [ Scenario.Broker_crash
             { at = Scenario.At_record (int_of_float (2. *. d.t2)); promote_after = 1. } ]
       else [])
      @
      if d.links then
        [ Scenario.Links { at = d.t3; duration = 15.; ends = [ ("R3", "R4"); ("R4", "R5") ] } ]
      else [];
  }

let power_law_scenario d =
  let base = Scenario.Constant 1.2 in
  {
    Scenario.default with
    Scenario.name = "prop";
    descr = "random interleaving";
    seed = d.seed;
    topology = Scenario.Power_law { nodes = d.nodes; m = 2 };
    load =
      (if d.flash then
         Scenario.Flash
           { shape = base; at = d.t1; mult = 5.; rise = 4.; hold = 12.; fall = 4. }
       else base);
    mean_holding = 25.;
    duration = 120.;
    horizon = 200.;
    checkpoint_every = Some 5.;
    faults =
      (if d.crash then [ Scenario.Broker_crash { at = Scenario.At d.t2; promote_after = 1. } ]
       else [])
      @ (if d.links then
           [ Scenario.Regional_links { at = d.t3; duration = 15.; count = 3 } ]
         else [])
      @ (if d.partition then
           [ Scenario.Partition { at = d.t3 +. 5.; duration = 10.; leaves = 5 } ]
         else []);
    slo = { Scenario.default_slo with Scenario.recover_goodput = 60.; brownout_exit = 80. };
  }

let scenario_of d = if d.fig8 then fig8_scenario d else power_law_scenario d

let arb_interleaving =
  QCheck.make
    ~print:(fun d ->
      Printf.sprintf
        "seed=%d nodes=%d fig8=%b flash=%b crash=%b links=%b partition=%b t1=%.1f \
         t2=%.1f t3=%.1f"
        d.seed d.nodes d.fig8 d.flash d.crash d.links d.partition d.t1 d.t2 d.t3)
    interleaving_gen

let heals_clean spec =
  let sc = scenario_of spec in
  let o = Runner.run sc in
  let o' = Runner.run sc in
  o.Runner.audit_ok
  && o.Runner.genuine_anomalies = []
  && o.Runner.promote_error = None
  && o.Runner.unresolved = 0
  && o.Runner.recovered_digest_match = Some true
  && (not
        (List.exists
           (fun (a : Monitor.anomaly) -> a.Monitor.kind = Monitor.Digest_mismatch)
           o.Runner.genuine_anomalies))
  && o.Runner.digest = o'.Runner.digest
  && o.Runner.admitted = o'.Runner.admitted
  && o.Runner.offered = o'.Runner.offered

let prop_heal_clean =
  QCheck.Test.make ~name:"faults heal to a clean, deterministic broker" ~count:12
    arb_interleaving heals_clean

(* Two interleavings the property once failed on, each a way replay used
   to re-route instead of booking the recorded links. *)

(* Regional links flap from 40.3 s to 55.3 s.  The checkpoint at 55 s
   is taken while they are down and the crash at 56 s comes after they
   are back, so checkpoint and tail hold flows on paths routing would no
   longer choose. *)
let test_checkpoint_after_flap () =
  Alcotest.(check bool) "heals clean" true
    (heals_clean
       { seed = 25918; nodes = 55; fig8 = false; flash = false; crash = true;
         links = true; partition = false; t1 = 31.7; t2 = 56.0; t3 = 40.3 })

(* Regional links fail at 67.4 s, one second before the crash: the
   journal tail's admissions name links that are down at replay time. *)
let test_tail_admits_over_failed_links () =
  Alcotest.(check bool) "heals clean" true
    (heals_clean
       { seed = 43153; nodes = 42; fig8 = false; flash = false; crash = true;
         links = true; partition = false; t1 = 35.0; t2 = 68.5; t3 = 67.4 })


(* ------------------------------------------------------------------ *)
(* Figure-10 pins: the numbers EXPERIMENTS.md and BENCH_overload.json
   report for the failover, crash-at-record, overload and lease soaks. *)

module Ov = Bbr_broker.Overload
module Lease_soak = Bbr_workload.Lease_soak

let failover_row (o : Runner.outcome) =
  Printf.sprintf "admitted %d rerouted %d dropped %d at-crash %d restored %d lost %d messages %d"
    o.Runner.admitted o.Runner.rerouted o.Runner.dropped o.Runner.flows_at_crash
    o.Runner.flows_restored (Runner.flows_lost o) o.Runner.messages

let test_pin_failover () =
  let failover = Matrix.fig10_failover in
  Alcotest.(check string) "lossless durability"
    "admitted 284 rerouted 31 dropped 0 at-crash 27 restored 27 lost 0 messages 1420"
    (failover_row (Runner.run failover));
  Alcotest.(check string) "50 s checkpoints only"
    "admitted 284 rerouted 31 dropped 0 at-crash 27 restored 24 lost 3 messages 1420"
    (failover_row (Runner.run { failover with Scenario.journal = None }));
  let lossy = Runner.run { failover with Scenario.loss = 0.1 } in
  Alcotest.(check string) "10% COPS loss"
    "admitted 284 rerouted 31 dropped 0 at-crash 27 restored 27 lost 0 messages 1596 \
     retransmissions 118 unresolved 0"
    (Printf.sprintf "%s retransmissions %d unresolved %d" (failover_row lossy)
       lossy.Runner.retransmissions lossy.Runner.unresolved)

let test_pin_crash_at_record () =
  let o = Runner.run { Matrix.fig10_crash_at_record with Scenario.journal = Some 64 } in
  Alcotest.(check (pair int int)) "records at crash, lost" (69, 3)
    (o.Runner.records_at_crash, o.Runner.records_lost)

let overload_row (o : Runner.outcome) =
  let s = o.Runner.pipeline in
  Printf.sprintf
    "offered %d decided %d admitted %d shed %d busy %d goodput %.4f p50 %.4f p99 %.4f \
     conservative %d oracle %d"
    o.Runner.offered s.Ov.decided o.Runner.admitted (Ov.shed_total s) o.Runner.busy
    (float_of_int s.Ov.decided /. float_of_int (max 1 s.Ov.submitted))
    o.Runner.p50_latency o.Runner.p99_latency s.Ov.conservative_decisions
    s.Ov.oracle_violations

let test_pin_overload () =
  Alcotest.(check string) "5x flat"
    "offered 1109 decided 640 admitted 369 shed 4076 busy 469 goodput 0.1357 p50 \
     12.1335 p99 12.4935 conservative 0 oracle 0"
    (overload_row
       (Runner.run
          { Matrix.fig10_overload_flat with Scenario.load = Scenario.Constant (0.15 *. 5.) }));
  Alcotest.(check string) "10x brownout"
    "offered 2185 decided 2185 admitted 396 shed 330 busy 0 goodput 0.8688 p50 7.9853 \
     p99 12.2510 conservative 1979 oracle 0"
    (overload_row (Runner.run Matrix.fig10_overload))

let test_pin_lease_soak () =
  let o = Lease_soak.run Lease_soak.default_config in
  Alcotest.(check bool) "reclaimed within one period" true
    o.Lease_soak.reclaimed_within_period;
  Alcotest.(check int) "re-registered" 7 o.Lease_soak.re_registered

(* Each crash promotes after its own delay: a 1 s outage, then a 7 s
   one.  The monitor samples every 0.5 s and finds the broker down at
   each sample of an outage, so the two outages alone leave at least
   1 + 13 expected anomalies — a second crash promoted on the first
   crash's 1 s schedule would leave at most 6. *)
let test_crashes_keep_own_delay () =
  let o =
    Runner.run
      {
        (power_law_scenario
           { seed = 7; nodes = 40; fig8 = false; flash = false; crash = false;
             links = false; partition = false; t1 = 0.; t2 = 0.; t3 = 0. })
        with
        Scenario.faults =
          [
            Scenario.Broker_crash { at = Scenario.At 40.; promote_after = 1. };
            Scenario.Broker_crash { at = Scenario.At 80.; promote_after = 7. };
          ];
      }
  in
  Alcotest.(check (option string)) "promotions clean" None o.Runner.promote_error;
  Alcotest.(check bool)
    (Printf.sprintf "%d broker-down samples" o.Runner.expected_anomalies)
    true
    (o.Runner.expected_anomalies >= 14);
  Alcotest.(check (option (float 1e-9))) "last outage lasted 7 s" (Some 7.)
    o.Runner.recovery_time

(* A record-boundary crash has no instant until it fires: the runner
   declares its event then, so the SLO oracle judges it like any other. *)
let test_record_crash_declares_event () =
  let o =
    Runner.run
      (fig8_scenario
         { seed = 3; nodes = 0; fig8 = true; flash = false; crash = true;
           links = false; partition = false; t1 = 0.; t2 = 40.; t3 = 0. })
  in
  Alcotest.(check (option bool)) "crashed, recovered digest-exact" (Some true)
    o.Runner.crash_digests_match;
  Alcotest.(check (list string)) "crash event judged"
    [ "broker-crash"; "broker-crash"; "broker-crash" ]
    (List.map (fun (m : Slo.measurement) -> m.Slo.event) o.Runner.measurements)

let () =
  Alcotest.run "scenario"
    [
      ( "dsl",
        [
          Alcotest.test_case "load shapes" `Quick test_load_shapes;
          Alcotest.test_case "events and windows" `Quick test_events_and_windows;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "traffic mix policy" `Quick test_traffic_mix_policy;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "monitor window classification" `Quick
            test_monitor_windows;
          Alcotest.test_case "slo measurement" `Quick test_slo_measurement;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "crash scenario end to end" `Quick test_matrix_smoke;
          Alcotest.test_case "bench json parses" `Quick test_matrix_json;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_heal_clean;
          Alcotest.test_case "checkpoint after a link flap" `Quick
            test_checkpoint_after_flap;
          Alcotest.test_case "tail admits over failed links" `Quick
            test_tail_admits_over_failed_links;
          Alcotest.test_case "crashes keep their own delay" `Quick
            test_crashes_keep_own_delay;
          Alcotest.test_case "record crash declares its event" `Quick
            test_record_crash_declares_event;
        ] );
      ( "fig10 pins",
        [
          Alcotest.test_case "failover rows" `Quick test_pin_failover;
          Alcotest.test_case "crash at record" `Quick test_pin_crash_at_record;
          Alcotest.test_case "overload rows" `Quick test_pin_overload;
          Alcotest.test_case "lease soak" `Quick test_pin_lease_soak;
        ] );
    ]
