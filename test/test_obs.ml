(* Tests for the bbr_obs telemetry stack: registry semantics, trace ring,
   exporters, and the instrumented control loop end to end. *)

module Metrics = Bbr_obs.Metrics
module Trace = Bbr_obs.Trace
module Trace_export = Bbr_obs.Trace_export
module Flight = Bbr_obs.Flight
module Exporter = Bbr_obs.Exporter
module Json = Bbr_util.Json
module Stats = Bbr_util.Stats
module Static = Bbr_workload.Static
module Broker = Bbr_broker.Broker
module Telemetry = Bbr_broker.Telemetry
module Types = Bbr_broker.Types
module Aggregate = Bbr_broker.Aggregate
module Traffic = Bbr_vtrs.Traffic
module Topology = Bbr_vtrs.Topology
module Engine = Bbr_netsim.Engine

let check_float = Alcotest.(check (float 1e-9))

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = affix || scan (i + 1)) in
  n = 0 || scan 0

(* Run [f] with a fresh registry and tracer installed; always uninstalls. *)
let with_obs ?capacity f =
  let reg = Metrics.create () in
  let tracer = Trace.create ?capacity () in
  Metrics.install reg;
  Trace.install tracer;
  Fun.protect
    ~finally:(fun () ->
      Metrics.uninstall ();
      Trace.uninstall ())
    (fun () -> f reg tracer)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_counter_semantics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "requests_total" in
  Metrics.inc c;
  Metrics.add c 2.5;
  check_float "accumulates" 3.5 (Metrics.counter_value c)

let test_gauge_semantics () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 4.;
  Metrics.gauge_add g (-1.5);
  check_float "set+add" 2.5 (Metrics.gauge_value g)

let test_histogram_semantics () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" ~buckets:[| 1.; 10.; 100. |] in
  List.iter (Metrics.observe h) [ 0.5; 5.; 5.; 50.; 1000. ];
  Alcotest.(check int) "count" 5 (Metrics.hist_count h);
  check_float "sum" 1060.5 (Metrics.hist_sum h);
  (* Quantile interpolation stays within the bucket holding the rank. *)
  let q50 = Metrics.hist_quantile h ~q:0.5 in
  Alcotest.(check bool) "median in (1, 10]" true (q50 > 1. && q50 <= 10.)

let test_label_family_identity () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "m" ~labels:[ ("x", "1"); ("y", "2") ] in
  (* Same child up to label ordering: physically the same instrument. *)
  let b = Metrics.counter reg "m" ~labels:[ ("y", "2"); ("x", "1") ] in
  Alcotest.(check bool) "order-insensitive identity" true (a == b);
  let c = Metrics.counter reg "m" ~labels:[ ("x", "1"); ("y", "3") ] in
  Alcotest.(check bool) "different labels, different child" true (a != c)

let test_kind_mismatch_raises () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "m");
  Alcotest.check_raises "gauge on a counter family"
    (Invalid_argument "Metrics: m already registered as a counter (wanted gauge)")
    (fun () ->
      ignore (Metrics.gauge reg "m"))

let test_convenience_noop_without_registry () =
  Metrics.uninstall ();
  (* Must not raise, must not create anything observable. *)
  Metrics.count "nope";
  Metrics.set_gauge "nope_g" 1.;
  Metrics.observe_one "nope_h" 0.5;
  Alcotest.(check bool) "still disabled" false (Metrics.enabled ())

let test_derived_gauge_replacement () =
  let reg = Metrics.create () in
  let v = ref 1. in
  Metrics.gauge_fn reg "d" (fun () -> !v);
  (* Re-registration replaces the callback (failover re-pointing). *)
  Metrics.gauge_fn reg "d" (fun () -> !v *. 10.);
  v := 3.;
  match Metrics.snapshot reg with
  | [ { Metrics.s_value = Metrics.Vgauge g; _ } ] -> check_float "replaced" 30. g
  | _ -> Alcotest.fail "expected one derived gauge sample"

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_ring_wraparound () =
  let t = Trace.create ~capacity:4 () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Alcotest.(check int) "nothing evicted while under capacity" 0
        (Trace.evicted t);
      for i = 1 to 6 do
        Trace.event (Printf.sprintf "e%d" i)
      done;
      Alcotest.(check int) "length capped" 4 (Trace.length t);
      Alcotest.(check int) "total keeps counting" 6 (Trace.total t);
      Alcotest.(check int) "evicted = total - length" 2 (Trace.evicted t);
      let names = List.map (fun (e : Trace.entry) -> e.Trace.name) (Trace.entries t) in
      Alcotest.(check (list string)) "oldest evicted, order kept"
        [ "e3"; "e4"; "e5"; "e6" ] names;
      let seqs = List.map (fun (e : Trace.entry) -> e.Trace.seq) (Trace.entries t) in
      Alcotest.(check (list int)) "seq monotone across eviction" [ 2; 3; 4; 5 ] seqs)

let test_span_durations () =
  let t = Trace.create () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Trace.span_record "s" ~dur:0.25;
      Trace.span_record "s" ~dur:0.75;
      Trace.span_record "other" ~dur:9.;
      let d = Trace.durations t ~name:"s" in
      Alcotest.(check int) "two spans" 2 (Array.length d);
      check_float "p50 interpolates" 0.5 (Stats.percentile d ~p:50.);
      match List.assoc_opt "s" (Trace.span_stats t) with
      | Some acc ->
          Alcotest.(check int) "accumulator count" 2 (Stats.count acc);
          check_float "accumulator mean" 0.5 (Stats.mean acc)
      | None -> Alcotest.fail "span_stats missing name")

let test_deterministic_clocks () =
  let t = Trace.create () in
  Trace.set_sim_clock t (fun () -> 42.);
  Trace.set_wall_clock t (fun () -> 7.);
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Trace.event "e";
      match Trace.entries t with
      | [ e ] ->
          check_float "sim stamp" 42. e.Trace.sim_time;
          check_float "wall stamp" 7. e.Trace.wall_time
      | _ -> Alcotest.fail "expected one entry")

(* ------------------------------------------------------------------ *)
(* Exporters *)

let golden_registry () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "req_total" ~help:"Requests" ~labels:[ ("svc", "a") ] in
  Metrics.add c 3.;
  let h = Metrics.histogram reg "lat" ~buckets:[| 0.1; 1. |] in
  Metrics.observe h 0.05;
  Metrics.observe h 0.5;
  Metrics.observe h 5.;
  reg

let test_prometheus_golden () =
  let got = Exporter.to_prometheus (golden_registry ()) in
  let want =
    String.concat "\n"
      [
        "# HELP req_total Requests";
        "# TYPE req_total counter";
        "req_total{svc=\"a\"} 3";
        "# TYPE lat histogram";
        "lat_bucket{le=\"0.1\"} 1";
        "lat_bucket{le=\"1\"} 2";
        "lat_bucket{le=\"+Inf\"} 3";
        "lat_sum 5.55";
        "lat_count 3";
        "";
      ]
  in
  Alcotest.(check string) "exposition format" want got

let test_json_golden () =
  let got = Exporter.to_json (golden_registry ()) in
  let want =
    "{\"metrics\":[{\"name\":\"req_total\",\"kind\":\"counter\",\"labels\":{\"svc\":\"a\"},\"value\":3},{\"name\":\"lat\",\"kind\":\"histogram\",\"labels\":{},\"sum\":5.55,\"count\":3,\"buckets\":[{\"le\":0.1,\"count\":1},{\"le\":1,\"count\":2},{\"le\":\"+Inf\",\"count\":3}]}]}"
  in
  Alcotest.(check string) "json document" want got

let test_prometheus_label_escaping () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "m" ~labels:[ ("k", "a\"b\\c\nd") ]);
  let out = Exporter.to_prometheus reg in
  Alcotest.(check bool) "escaped" true
    (is_infix ~affix:{|m{k="a\"b\\c\nd"} 0|} out)

(* Tiny exposition parser — just enough of the Prometheus text format to
   read back what [Exporter.to_prometheus] writes: one series per line,
   name + optional brace-delimited labels + value, label values carrying
   the backslash, quote and newline escapes.  Returns
   [(name, labels, value)]. *)
let parse_series line =
  match String.index_opt line '{' with
  | None -> (
      match String.index_opt line ' ' with
      | Some sp ->
          ( String.sub line 0 sp,
            [],
            float_of_string
              (String.sub line (sp + 1) (String.length line - sp - 1)) )
      | None -> Alcotest.failf "unparsable series line: %s" line)
  | Some ob ->
      let name = String.sub line 0 ob in
      let labels = ref [] in
      let i = ref (ob + 1) in
      while line.[!i] <> '}' do
        let eq = String.index_from line !i '=' in
        let key = String.sub line !i (eq - !i) in
        let buf = Buffer.create 8 in
        let j = ref (eq + 2) in
        let stop = ref false in
        while not !stop do
          match line.[!j] with
          | '\\' ->
              (match line.[!j + 1] with
              | 'n' -> Buffer.add_char buf '\n'
              | c -> Buffer.add_char buf c);
              j := !j + 2
          | '"' ->
              stop := true;
              incr j
          | c ->
              Buffer.add_char buf c;
              incr j
        done;
        labels := (key, Buffer.contents buf) :: !labels;
        i := (if line.[!j] = ',' then !j + 1 else !j)
      done;
      let sp = !i + 2 in
      ( name,
        List.rev !labels,
        float_of_string (String.sub line sp (String.length line - sp)) )

(* Satellite: full exposition round-trip.  Export a registry holding every
   instrument kind (with pathological label values), parse the text back,
   and check each series recovers its exact labels and value. *)
let test_prometheus_round_trip () =
  let reg = Metrics.create () in
  let c =
    Metrics.counter reg "req_total"
      ~labels:[ ("svc", "a\"b\\c\nd"); ("zone", "east") ]
  in
  Metrics.add c 3.;
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 2.5;
  let h = Metrics.histogram reg "lat" ~buckets:[| 0.1; 1. |] in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 5. ];
  let series =
    Exporter.to_prometheus reg |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map parse_series
  in
  let find name labels =
    match
      List.find_opt (fun (n, ls, _) -> n = name && ls = labels) series
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "series %s not found after round-trip" name
  in
  check_float "escaped labels recover the counter" 3.
    (find "req_total" [ ("svc", "a\"b\\c\nd"); ("zone", "east") ]);
  check_float "gauge" 2.5 (find "depth" []);
  check_float "bucket le=0.1" 1. (find "lat_bucket" [ ("le", "0.1") ]);
  check_float "bucket le=1 is cumulative" 2. (find "lat_bucket" [ ("le", "1") ]);
  check_float "bucket le=+Inf counts all" 3.
    (find "lat_bucket" [ ("le", "+Inf") ]);
  check_float "sum" 5.55 (find "lat_sum" []);
  check_float "count" 3. (find "lat_count" [])

(* The flight recorder's lossless entry codec: events with attrs, nested
   spans with sim extent, and admit/reject decisions all survive
   JSON-and-back structurally intact. *)
let test_entry_json_round_trip () =
  with_obs (fun _reg tracer ->
      Trace.set_sim_clock tracer (fun () -> 12.5);
      Trace.set_wall_clock tracer (fun () -> 99.25);
      Trace.event ~attrs:[ ("k", "v\"w\\x"); ("n", "2") ] "bb.e";
      let sp = Trace.start_span ~sim_time:1. "bb.s" in
      let child = Trace.start_span ~sim_time:2. ~parent:sp "bb.s.child" in
      Trace.finish_span ~sim_time:3. child;
      Trace.finish_span ~sim_time:4. ~attrs:[ ("result", "ok") ] sp;
      Trace.decision
        {
          Trace.service = "perflow";
          flow = Some 7;
          admitted = true;
          reject_reason = None;
          ingress = "a";
          egress = "b";
          rate = 1.5e6;
        };
      Trace.decision
        {
          Trace.service = "class";
          flow = None;
          admitted = false;
          reject_reason = Some "insufficient_bandwidth";
          ingress = "a";
          egress = "b";
          rate = 0.;
        };
      let entries = Trace.entries tracer in
      Alcotest.(check int) "five entries recorded" 5 (List.length entries);
      (* Single-entry codec. *)
      List.iter
        (fun (e : Trace.entry) ->
          match Trace_export.entry_of_json (Trace_export.entry_json e) with
          | None -> Alcotest.failf "entry #%d failed to decode" e.Trace.seq
          | Some e' ->
              Alcotest.(check bool)
                (Printf.sprintf "entry #%d structurally equal" e.Trace.seq)
                true (e = e'))
        entries;
      (* Whole-list codec, order preserved. *)
      match Trace_export.entries_of_json (Trace_export.entries_json entries) with
      | None -> Alcotest.fail "entries_of_json rejected its own encoding"
      | Some back ->
          Alcotest.(check bool) "list round-trips in order" true
            (entries = back))

(* Chrome trace_event export: valid JSON, non-empty traceEvents, every
   event carries the fields about:tracing / Perfetto require. *)
let test_chrome_export_valid () =
  with_obs (fun _reg tracer ->
      let broker = Broker.create (Bbr_workload.Fig8.topology `Rate_only) in
      let req =
        {
          Types.profile = Bbr_workload.Profiles.profile 0;
          dreq = 2.44;
          ingress = Bbr_workload.Fig8.ingress1;
          egress = Bbr_workload.Fig8.egress1;
        }
      in
      for _ = 1 to 3 do
        ignore (Broker.request broker req)
      done;
      let s = Trace_export.chrome_string (Trace.entries tracer) in
      match Json.of_string_opt s with
      | None -> Alcotest.fail "chrome export is not valid JSON"
      | Some j ->
          let evs =
            Option.value ~default:[]
              (Option.join (Option.map Json.to_list (Json.member "traceEvents" j)))
          in
          Alcotest.(check bool) "traceEvents non-empty" true (evs <> []);
          let non_meta = ref 0 in
          List.iter
            (fun ev ->
              List.iter
                (fun k ->
                  Alcotest.(check bool)
                    (k ^ " present on every event")
                    true
                    (Json.member k ev <> None))
                [ "name"; "ph"; "pid" ];
              (* Metadata records (ph = M, process naming) carry no
                 timestamp; every real slice / instant must. *)
              if Json.member "ph" ev <> Some (Json.Str "M") then begin
                incr non_meta;
                List.iter
                  (fun k ->
                    Alcotest.(check bool)
                      (k ^ " present on every non-meta event")
                      true
                      (Json.member k ev <> None))
                  [ "ts"; "tid" ]
              end)
            evs;
          Alcotest.(check bool) "has non-meta events" true (!non_meta > 0))

(* Black box round-trip: arm, record, trigger, read the file back.  The
   first anomaly owns the box; later triggers are counted in the trace
   but must not overwrite it. *)
let test_flight_box_round_trip () =
  with_obs (fun _reg tracer ->
      Trace.set_sim_clock tracer (fun () -> 5.);
      Trace.set_wall_clock tracer (fun () -> 50.);
      let path = Filename.temp_file "bbr_flight" ".json" in
      Fun.protect
        ~finally:(fun () ->
          Flight.disarm ();
          Sys.remove path)
        (fun () ->
          let (_ : Flight.t) = Flight.arm ~out:path () in
          Flight.set_digest (fun () -> Some "mib:42");
          let sp = Trace.start_span ~sim_time:1. "bb.request" in
          Trace.event ~sim_time:2. "bb.e";
          Trace.finish_span ~sim_time:3. sp;
          Flight.trigger ~reason:"test-anomaly";
          Flight.trigger ~reason:"later-noise";
          match Flight.parse (Flight.read_file path) with
          | Error e -> Alcotest.failf "flight box failed to parse: %s" e
          | Ok d ->
              Alcotest.(check string) "first trigger owns the box"
                "test-anomaly" d.Flight.reason;
              Alcotest.(check int) "one trigger at dump time" 1
                d.Flight.triggers;
              Alcotest.(check (option string)) "MIB digest carried"
                (Some "mib:42") d.Flight.mib_digest;
              Alcotest.(check int) "flight ring evicted nothing" 0
                d.Flight.dump_evicted;
              let names =
                List.map (fun (e : Trace.entry) -> e.Trace.name) d.Flight.entries
              in
              List.iter
                (fun n ->
                  Alcotest.(check bool) (n ^ " mirrored into the box") true
                    (List.mem n names))
                [ "bb.e"; "bb.request"; "bb.flight.trigger" ]))

(* ------------------------------------------------------------------ *)
(* Integration: the instrumented control loop *)

let test_fig8_fill_counters () =
  with_obs (fun reg tracer ->
      let r =
        Static.fill ~setting:`Mixed ~dreq:2.19
          ~observe:Telemetry.register_broker Static.Perflow_bb
      in
      let samples = Metrics.snapshot reg in
      let counter name labels =
        List.fold_left
          (fun acc (s : Metrics.sample) ->
            match s.Metrics.s_value with
            | Metrics.Vcounter v
              when s.Metrics.s_name = name
                   && List.for_all
                        (fun kv -> List.mem kv s.Metrics.s_labels)
                        labels ->
                acc +. v
            | _ -> acc)
          0. samples
      in
      let admits = counter "bb_admission_total" [ ("result", "admit") ] in
      let rejects = counter "bb_admission_total" [ ("result", "reject") ] in
      Alcotest.(check int) "admit counter = fill result" r.Static.admitted
        (int_of_float admits);
      Alcotest.(check int) "one reject ends the fill" 1 (int_of_float rejects);
      (* Offered = admitted + rejected, and the decision log agrees. *)
      let decisions = Trace.decisions tracer in
      Alcotest.(check int) "decision log covers every offer"
        (int_of_float (admits +. rejects))
        (List.length decisions);
      Alcotest.(check bool) "last decision is the reject" false
        (match List.rev decisions with
        | (_, d) :: _ -> d.Trace.admitted
        | [] -> true);
      (* Reject reasons use the shared label vocabulary. *)
      List.iter
        (fun ((_ : Trace.entry), (d : Trace.decision)) ->
          if not d.Trace.admitted then
            Alcotest.(check bool) "reason is a known label" true
              (List.mem
                 (Option.value ~default:"" d.Trace.reject_reason)
                 [
                   "policy_denied";
                   "no_route";
                   "insufficient_bandwidth";
                   "delay_unachievable";
                   "not_schedulable";
                 ]))
        decisions;
      (* Stage histograms saw every stage of the loop. *)
      let hist_count stage =
        List.fold_left
          (fun acc (s : Metrics.sample) ->
            match s.Metrics.s_value with
            | Metrics.Vhistogram { count; _ }
              when s.Metrics.s_name = "bb_stage_seconds"
                   && List.mem ("stage", stage) s.Metrics.s_labels ->
                acc + count
            | _ -> acc)
          0 samples
      in
      List.iter
        (fun stage ->
          Alcotest.(check bool)
            (stage ^ " histogram populated")
            true
            (hist_count stage > 0))
        [ "policy"; "routing"; "admissibility"; "bookkeeping"; "cops_push" ];
      (* Derived link gauges: utilization in [0, 1] and nonzero somewhere. *)
      let utils =
        List.filter_map
          (fun (s : Metrics.sample) ->
            match s.Metrics.s_value with
            | Metrics.Vgauge v when s.Metrics.s_name = "bb_link_utilization" ->
                Some v
            | _ -> None)
          samples
      in
      Alcotest.(check bool) "link gauges registered" true (utils <> []);
      List.iter
        (fun u ->
          Alcotest.(check bool) "utilization within [0,1]" true
            (u >= 0. && u <= 1. +. 1e-9))
        utils;
      Alcotest.(check bool) "loaded path visible" true
        (List.exists (fun u -> u > 0.5) utils))

let test_decision_hook () =
  (* The broker's on_decision subscription fires without any registry. *)
  Metrics.uninstall ();
  Trace.uninstall ();
  let seen = ref [] in
  let topo = Bbr_workload.Fig8.topology `Rate_only in
  let broker =
    Broker.create ~on_decision:(fun d -> seen := d :: !seen) topo
  in
  let req =
    {
      Types.profile = Bbr_workload.Profiles.profile 0;
      dreq = 2.44;
      ingress = Bbr_workload.Fig8.ingress1;
      egress = Bbr_workload.Fig8.egress1;
    }
  in
  (match Broker.request broker req with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first request should admit");
  (match Broker.request broker { req with Types.dreq = 1e-9 } with
  | Ok _ -> Alcotest.fail "impossible bound should reject"
  | Error _ -> ());
  match List.rev !seen with
  | [ first; second ] ->
      Alcotest.(check bool) "first admitted" true (first.Broker.rejected = None);
      Alcotest.(check bool) "first has a flow id" true (first.Broker.flow <> None);
      Alcotest.(check bool) "second rejected" true (second.Broker.rejected <> None);
      Alcotest.(check string) "service label" "perflow"
        (Broker.service_label first.Broker.service)
  | l -> Alcotest.failf "expected 2 decision records, got %d" (List.length l)

let test_edge_broker_transactions_counted () =
  with_obs (fun reg _tracer ->
      let central = Broker.create (Bbr_workload.Fig8.topology `Rate_only) in
      match
        Bbr_broker.Edge_broker.create ~central
          ~ingress:Bbr_workload.Fig8.ingress1 ~egress:Bbr_workload.Fig8.egress1
          ~chunk:150_000.
      with
      | Error _ -> Alcotest.fail "edge broker creation"
      | Ok eb ->
          let req =
            {
              Types.profile = Bbr_workload.Profiles.profile 0;
              dreq = 2.44;
              ingress = Bbr_workload.Fig8.ingress1;
              egress = Bbr_workload.Fig8.egress1;
            }
          in
          for _ = 1 to 5 do
            ignore (Bbr_broker.Edge_broker.request eb req)
          done;
          let tx =
            List.fold_left
              (fun acc (s : Metrics.sample) ->
                match s.Metrics.s_value with
                | Metrics.Vcounter v
                  when s.Metrics.s_name = "bb_edge_transactions_total" ->
                    acc +. v
                | _ -> acc)
              0. (Metrics.snapshot reg)
          in
          Alcotest.(check int) "counter matches the ad-hoc tally"
            (Bbr_broker.Edge_broker.central_transactions eb)
            (int_of_float tx))

(* ------------------------------------------------------------------ *)
(* Stats merge (satellite) *)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  List.iter
    (fun x ->
      Stats.add all x;
      Stats.add (if x < 3. then a else b) x)
    [ 1.; 2.; 3.; 4.; 5.; 10. ];
  let m = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count all) (Stats.count m);
  check_float "mean" (Stats.mean all) (Stats.mean m);
  check_float "variance" (Stats.variance all) (Stats.variance m);
  check_float "min" (Stats.min all) (Stats.min m);
  check_float "max" (Stats.max all) (Stats.max m);
  (* Identity on the empty accumulator, both sides. *)
  let e = Stats.create () in
  check_float "left identity" (Stats.mean all) (Stats.mean (Stats.merge e all));
  check_float "right identity" (Stats.mean all) (Stats.mean (Stats.merge all e));
  Alcotest.(check string) "empty summary" "n=0" (Stats.summary e)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "gauge" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram" `Quick test_histogram_semantics;
          Alcotest.test_case "label identity" `Quick test_label_family_identity;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_raises;
          Alcotest.test_case "disabled no-op" `Quick
            test_convenience_noop_without_registry;
          Alcotest.test_case "derived gauge replace" `Quick
            test_derived_gauge_replacement;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "span durations" `Quick test_span_durations;
          Alcotest.test_case "deterministic clocks" `Quick
            test_deterministic_clocks;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json golden" `Quick test_json_golden;
          Alcotest.test_case "label escaping" `Quick
            test_prometheus_label_escaping;
          Alcotest.test_case "prometheus round-trip" `Quick
            test_prometheus_round_trip;
          Alcotest.test_case "entry json round-trip" `Quick
            test_entry_json_round_trip;
          Alcotest.test_case "chrome export valid" `Quick
            test_chrome_export_valid;
          Alcotest.test_case "flight box round-trip" `Quick
            test_flight_box_round_trip;
        ] );
      ( "integration",
        [
          Alcotest.test_case "fig8 fill counters" `Quick test_fig8_fill_counters;
          Alcotest.test_case "decision hook" `Quick test_decision_hook;
          Alcotest.test_case "edge transactions" `Quick
            test_edge_broker_transactions_counted;
        ] );
      ("stats", [ Alcotest.test_case "merge" `Quick test_stats_merge ]);
    ]
