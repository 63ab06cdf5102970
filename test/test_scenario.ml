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
      faults = [ Scenario.Broker_crash { at = 100.; promote_after = 2. } ];
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
   bursts, partitions and broker crashes, once everything heals the
   audit is clean, nothing violates an invariant outside a declared
   window, every transaction resolves — and the run is a deterministic
   function of the seed (same seed, same digest and counters). *)

let interleaving_gen =
  QCheck.Gen.(
    let* seed = int_range 1 100_000 in
    let* nodes = int_range 30 60 in
    let* flash = bool in
    let* crash = bool in
    let* links = bool in
    let* partition = bool in
    let* t1 = float_range 20. 50. in
    let* t2 = float_range 30. 70. in
    let* t3 = float_range 20. 80. in
    return (seed, nodes, flash, crash, links, partition, t1, t2, t3))

let scenario_of (seed, nodes, flash, crash, links, partition, t1, t2, t3) =
  let base = Scenario.Constant 1.2 in
  {
    Scenario.default with
    Scenario.name = "prop";
    descr = "random interleaving";
    seed;
    topology = Scenario.Power_law { nodes; m = 2 };
    load =
      (if flash then
         Scenario.Flash
           { shape = base; at = t1; mult = 5.; rise = 4.; hold = 12.; fall = 4. }
       else base);
    mean_holding = 25.;
    duration = 120.;
    horizon = 200.;
    faults =
      (if crash then [ Scenario.Broker_crash { at = t2; promote_after = 1. } ] else [])
      @ (if links then [ Scenario.Regional_links { at = t3; duration = 15.; count = 3 } ]
         else [])
      @ (if partition then [ Scenario.Partition { at = t3 +. 5.; duration = 10.; leaves = 5 } ]
         else []);
    slo = { Scenario.default_slo with Scenario.recover_goodput = 60.; brownout_exit = 80. };
  }

let arb_interleaving =
  QCheck.make
    ~print:(fun (seed, nodes, flash, crash, links, partition, t1, t2, t3) ->
      Printf.sprintf
        "seed=%d nodes=%d flash=%b crash=%b links=%b partition=%b t1=%.1f t2=%.1f t3=%.1f"
        seed nodes flash crash links partition t1 t2 t3)
    interleaving_gen

let heals_clean spec =
  let sc = scenario_of spec in
  let o = Runner.run sc in
  let o' = Runner.run sc in
  o.Runner.audit_ok
  && o.Runner.genuine_anomalies = []
  && o.Runner.promote_error = None
  && o.Runner.unresolved = 0
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
    (heals_clean (25918, 55, false, true, true, false, 31.7, 56.0, 40.3))

(* Regional links fail at 67.4 s, one second before the crash: the
   journal tail's admissions name links that are down at replay time. *)
let test_tail_admits_over_failed_links () =
  Alcotest.(check bool) "heals clean" true
    (heals_clean (43153, 42, false, true, true, false, 35.0, 68.5, 67.4))

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
        ] );
    ]
