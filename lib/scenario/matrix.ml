module Ov = Bbr_broker.Overload

let base_load = Scenario.Constant 1.0

let diurnal = Scenario.Diurnal { base = 1.0; amplitude = 0.3; period = 300. }

let flash ?(at = 200.) ?(mult = 8.) shape =
  Scenario.Flash { shape; at; mult; rise = 20.; hold = 60.; fall = 20. }

let scenarios =
  [
    {
      Scenario.default with
      Scenario.name = "diurnal-soak";
      descr = "diurnal sine load on a power-law domain, no faults";
      seed = 11;
      load = diurnal;
      faults = [];
    };
    {
      Scenario.default with
      Scenario.name = "flash-crowd";
      descr = "8x flash crowd over diurnal load; pipeline must brown out and recover";
      seed = 12;
      load = flash diurnal;
      slo = { Scenario.default_slo with Scenario.recover_goodput = 60.; brownout_exit = 90. };
    };
    {
      Scenario.default with
      Scenario.name = "regional-failure";
      descr = "4 core adjacencies at the top hub fail for 60 s under steady load";
      seed = 13;
      load = base_load;
      faults = [ Scenario.Regional_links { at = 200.; duration = 60.; count = 4 } ];
    };
    {
      Scenario.default with
      Scenario.name = "failure-under-overload";
      descr = "regional link burst at the peak of a 6x flash crowd";
      seed = 14;
      load = flash ~at:150. ~mult:6. base_load;
      faults = [ Scenario.Regional_links { at = 190.; duration = 40.; count = 4 } ];
      slo = { Scenario.default_slo with Scenario.recover_goodput = 90.; brownout_exit = 120. };
    };
    {
      Scenario.default with
      Scenario.name = "crash-during-flash-crowd";
      descr = "broker crash + warm-standby promotion in the tail of an 8x flash crowd";
      seed = 15;
      load = flash ~at:200. ~mult:8. base_load;
      faults = [ Scenario.Broker_crash { at = Scenario.At 260.; promote_after = 2. } ];
      slo =
        { Scenario.default_slo with
          Scenario.recover_goodput = 90.; clean_audit = 30.; brownout_exit = 120. };
    };
    {
      Scenario.default with
      Scenario.name = "disk-fault-recovery";
      descr =
        "bit rot in the current checkpoint generation, then a broker crash: \
         promotion must fall back to the prior generation and still recover \
         digest-exact from the intact journal";
      seed = 17;
      load = base_load;
      faults =
        [
          Scenario.Disk_fault { at = 234.; duration = 30. };
          Scenario.Broker_crash { at = Scenario.At 235.; promote_after = 2. };
        ];
      slo = { Scenario.default_slo with Scenario.clean_audit = 30. };
    };
    {
      Scenario.default with
      Scenario.name = "partition-heal";
      descr = "20 stub nodes partitioned for 80 s, then healed";
      seed = 16;
      load = base_load;
      faults = [ Scenario.Partition { at = 200.; duration = 80.; leaves = 20 } ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* The fault-tolerance and overload experiments on the paper's own
   Figure-10 churn: 0.15 flows/s of Table-1 flows held 200 s on average,
   2000 s of arrivals over the Figure-8 domain, signalled over reliable
   COPS through the default (unsaturated) pipeline. *)

let fig10_base =
  {
    Scenario.default with
    Scenario.seed = 1;
    topology = Scenario.Fig8 { setting = `Rate_only; detour = false };
    load = Scenario.Constant 0.15;
    mean_holding = 200.;
    duration = 2000.;
    horizon = 4000.;
    pipeline = Ov.default_config;
    checkpoint_every = Some 50.;
    journal = Some 1;
  }

(* Service times sized so 10x the base arrival rate (~1.5 req/s)
   saturates the exact O(M) path (capacity 1/2.5 = 0.4 req/s) but not
   the conservative O(1) path (capacity 2 req/s): the flat pipeline
   melts, the brownout pipeline degrades and keeps deciding. *)
let fig10_overload =
  {
    fig10_base with
    Scenario.name = "fig10-overload";
    descr =
      "10x the Figure-10 churn through a saturated pipeline: brownout \
       degrades to O(1) admission, the exact oracle shadows every decision";
    topology = Scenario.Fig8 { setting = `Mixed; detour = false };
    load = Scenario.Constant (0.15 *. 10.);
    duration = 1500.;
    horizon = 3000.;
    pipeline =
      {
        Ov.default_config with
        Ov.queue_limit = 32;
        deadline = 10.;
        service_exact = 2.5;
        service_conservative = 0.5;
        brownout_sustain = 5.;
        retry_after = 10.;
      };
  }

let fig10_failover =
  {
    fig10_base with
    Scenario.name = "fig10-failover";
    descr =
      "Figure-10 churn; R3->R4 fails at 600 s for 300 s with an R3->R6->R4 \
       detour, the broker crashes at 1500 s and a standby is promoted 0.5 s later";
    topology = Scenario.Fig8 { setting = `Rate_only; detour = true };
    faults =
      [
        Scenario.Links { at = 600.; duration = 300.; ends = [ ("R3", "R4") ] };
        Scenario.Broker_crash { at = Scenario.At 1500.; promote_after = 0.5 };
      ];
  }

let fig10_crash_at_record =
  {
    fig10_base with
    Scenario.name = "fig10-crash-at-record";
    descr =
      "Figure-10 churn; the broker dies the instant journal record 150 is \
       appended, long after its last checkpoint (period 333 s)";
    checkpoint_every = Some 333.;
    faults = [ Scenario.Broker_crash { at = Scenario.At_record 150; promote_after = 0.5 } ];
  }

let fig10_overload_flat =
  {
    fig10_overload with
    Scenario.name = "fig10-overload-flat";
    descr =
      "fig10-overload through a flat pipeline that never degrades: every \
       decision pays the exact O(M) service time";
    (* The enter watermark is the full queue and the sustain horizon is
       unreachable. *)
    pipeline =
      { fig10_overload.Scenario.pipeline with Ov.brownout_enter = 1.; brownout_sustain = infinity };
  }

let fig10 = [ fig10_failover; fig10_crash_at_record; fig10_overload; fig10_overload_flat ]

let names = List.map (fun s -> s.Scenario.name) (scenarios @ fig10)

let find name = List.find_opt (fun s -> s.Scenario.name = name) (scenarios @ fig10)

let run_all ?(scale = 1.) ?names:(wanted = []) () =
  let picked =
    if wanted = [] then scenarios
    else
      List.filter_map
        (fun n ->
          match find n with
          | Some s -> Some s
          | None -> invalid_arg (Printf.sprintf "Matrix.run_all: unknown scenario %S" n))
        wanted
  in
  List.map (fun s -> Runner.run (Scenario.scale scale s)) picked

(* ------------------------------------------------------------------ *)
(* BENCH_scenarios.json *)

let json_float b x =
  if Float.is_nan x || Float.is_integer x && Float.abs x < 1e15 then
    if Float.is_nan x then Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.6g" x)

let to_json ~scale outcomes =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n  \"schema\": \"bbr/scenarios/v1\",\n  \"scale\": %.6g,\n  \"scenarios\": [" scale;
  List.iteri
    (fun i (o : Runner.outcome) ->
      if i > 0 then pf ",";
      let s = o.Runner.scenario in
      pf
        "\n    {\n\
        \      \"name\": %S,\n\
        \      \"descr\": %S,\n\
        \      \"pass\": %b,\n\
        \      \"offered\": %d,\n\
        \      \"admitted\": %d,\n\
        \      \"rejected\": %d,\n\
        \      \"busy\": %d,\n\
        \      \"completed\": %d,\n\
        \      \"goodput_baseline\": "
        s.Scenario.name s.Scenario.descr (Runner.ok o) o.Runner.offered
        o.Runner.admitted o.Runner.rejected o.Runner.busy o.Runner.completed;
      json_float b o.Runner.baseline_goodput;
      pf ",\n      \"decision_p50_s\": ";
      json_float b o.Runner.p50_latency;
      pf ",\n      \"decision_p95_s\": ";
      json_float b o.Runner.p95_latency;
      pf ",\n      \"brownout_time_s\": ";
      json_float b o.Runner.brownout_time;
      pf
        ",\n\
        \      \"genuine_violations\": %d,\n\
        \      \"expected_anomalies\": %d,\n\
        \      \"monitor_samples\": %d,\n\
        \      \"audit_ok\": %b,\n\
        \      \"checkpoint_fallback\": %b,\n\
        \      \"storage_scrub_errors\": %d,\n\
        \      \"slo\": ["
        (List.length o.Runner.genuine_anomalies)
        o.Runner.expected_anomalies o.Runner.monitor_samples o.Runner.audit_ok
        o.Runner.checkpoint_fallback o.Runner.storage_scrub_errors;
      List.iteri
        (fun j (m : Slo.measurement) ->
          if j > 0 then pf ",";
          pf "\n        { \"event\": %S, \"metric\": %S, \"seconds\": " m.Slo.event
            m.Slo.metric;
          (match m.Slo.value with
          | Some v -> json_float b v
          | None -> Buffer.add_string b "null");
          pf ", \"budget\": ";
          json_float b m.Slo.budget;
          pf ", \"met\": %b }" m.Slo.met)
        o.Runner.measurements;
      pf "\n      ]\n    }")
    outcomes;
  pf "\n  ]\n}\n";
  Buffer.contents b

let write_json ~path ~scale outcomes =
  let oc = open_out path in
  output_string oc (to_json ~scale outcomes);
  close_out oc
