(* Benchmark and experiment harness.

   Regenerates every evaluation artifact of the paper (see DESIGN.md and
   EXPERIMENTS.md):

     table2   Table 2  — max flows admitted per scheme/setting/bound
     fig9     Figure 9 — mean reserved bandwidth vs number of flows
     fig10    Figure 10 — flow blocking rate vs offered load (5 seeds)
     fig5     Figure 5 — monotonicity of the R_fea / R_del rate ranges
     fig7     Figure 7 — dynamic-aggregation edge transient
     bounds   packet-level validation: measured delays vs analytic bounds

   plus extension ablations:

     overhead     broker (COPS) vs RSVP control-message load
     hierarchy    quota-delegating edge brokers vs central transactions
     state        QoS-state footprint per architecture
     failover     recovery from link failure + broker crash vs COPS loss
     recovery     journal replay throughput + durability overhead
                  (writes BENCH_recovery.json)
     overload     goodput / decision latency / shed rate vs offered load,
                  flat pipeline vs brownout (writes BENCH_overload.json)
     admission_throughput
                  fast-path admission req/s, cached vs uncached, with
                  allocation per request (writes
                  BENCH_admission_throughput.json; BBR_BENCH_SCALE=k
                  divides the request budgets for smoke runs)
     scenarios    chaos scenario matrix: composed fault campaigns with
                  recovery-SLO oracles and a standing invariant monitor
                  (writes BENCH_scenarios.json; BBR_BENCH_SCALE=k shrinks
                  every scenario for smoke runs)
     storage      storage-fault armor: single-corruption recovery matrix
                  over a segmented store with dual-generation checkpoints
                  — every byte region x bit flip is classified as exact
                  recovery / reported-loss prefix / silent / raised
                  (writes BENCH_storage.json; BBR_BENCH_SCALE=k thins
                  the offset grid for smoke runs)
     scaling      admission cost vs M; bounds vs path length
     statistical  Hoeffding effective-bandwidth multiplexing gain
     micro        Bechamel micro-benchmarks of the admission hot paths

   Run everything:      dune exec bench/main.exe
   Run one section:     dune exec bench/main.exe -- table2 fig9 ... *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Delay = Bbr_vtrs.Delay
module Vtedf = Bbr_vtrs.Vtedf
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Admission = Bbr_broker.Admission
module Aggregate = Bbr_broker.Aggregate
module Engine = Bbr_netsim.Engine
module Net = Bbr_netsim.Net
module Sink = Bbr_netsim.Sink
module Source = Bbr_netsim.Source
module Edge_conditioner = Bbr_netsim.Edge_conditioner
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles
module Static = Bbr_workload.Static
module Dynamic = Bbr_workload.Dynamic
module Transient = Bbr_workload.Transient

let type0 = Profiles.profile 0

let section title = Fmt.pr "@.==== %s ====@.@." title

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let table2_expected =
  (* (scheme, setting, bound) -> paper value *)
  [
    (("IntServ/GS", `Rate_only, 2.44), 30);
    (("IntServ/GS", `Rate_only, 2.19), 27);
    (("IntServ/GS", `Mixed, 2.44), 30);
    (("IntServ/GS", `Mixed, 2.19), 27);
    (("Per-flow BB/VTRS", `Rate_only, 2.44), 30);
    (("Per-flow BB/VTRS", `Rate_only, 2.19), 27);
    (("Per-flow BB/VTRS", `Mixed, 2.44), 30);
    (("Per-flow BB/VTRS", `Mixed, 2.19), 27);
    (("Aggr BB/VTRS cd=0.10", `Rate_only, 2.44), 29);
    (("Aggr BB/VTRS cd=0.10", `Rate_only, 2.19), 29);
    (("Aggr BB/VTRS cd=0.10", `Mixed, 2.44), 29);
    (("Aggr BB/VTRS cd=0.10", `Mixed, 2.19), 29);
    (("Aggr BB/VTRS cd=0.24", `Rate_only, 2.44), 29);
    (("Aggr BB/VTRS cd=0.24", `Rate_only, 2.19), 29);
    (("Aggr BB/VTRS cd=0.24", `Mixed, 2.44), 29);
    (("Aggr BB/VTRS cd=0.24", `Mixed, 2.19), 29);
    (("Aggr BB/VTRS cd=0.50", `Rate_only, 2.44), 29);
    (("Aggr BB/VTRS cd=0.50", `Rate_only, 2.19), 29);
    (("Aggr BB/VTRS cd=0.50", `Mixed, 2.44), 29);
    (("Aggr BB/VTRS cd=0.50", `Mixed, 2.19), 28);
  ]

let run_table2 () =
  section "Table 2: number of calls admitted — measured [paper]";
  let schemes =
    [
      ("IntServ/GS", Static.Intserv_gs);
      ("Per-flow BB/VTRS", Static.Perflow_bb);
      ("Aggr BB/VTRS cd=0.10", Static.Aggr_bb { cd = 0.10; method_ = Aggregate.Bounding });
      ("Aggr BB/VTRS cd=0.24", Static.Aggr_bb { cd = 0.24; method_ = Aggregate.Bounding });
      ("Aggr BB/VTRS cd=0.50", Static.Aggr_bb { cd = 0.50; method_ = Aggregate.Bounding });
    ]
  in
  Fmt.pr "%-22s %14s %14s %14s %14s@." "" "rate 2.44" "rate 2.19" "mixed 2.44"
    "mixed 2.19";
  let mismatches = ref 0 in
  List.iter
    (fun (name, scheme) ->
      Fmt.pr "%-22s" name;
      List.iter
        (fun (setting, dreq) ->
          let got = (Static.fill ~setting ~dreq scheme).Static.admitted in
          let want = List.assoc (name, setting, dreq) table2_expected in
          if got <> want then incr mismatches;
          Fmt.pr "      %2d [%2d]%s" got want (if got = want then " " else "!"))
        [ (`Rate_only, 2.44); (`Rate_only, 2.19); (`Mixed, 2.44); (`Mixed, 2.19) ];
      Fmt.pr "@.")
    schemes;
  if !mismatches = 0 then Fmt.pr "@.all 20 cells match the paper.@."
  else Fmt.pr "@.%d cells differ from the paper!@." !mismatches

(* ------------------------------------------------------------------ *)
(* Figure 9 *)

let run_fig9 () =
  section "Figure 9: mean reserved bandwidth per flow (mixed setting, bound 2.19 s)";
  let gs = Static.fill ~setting:`Mixed ~dreq:2.19 Static.Intserv_gs in
  let pf = Static.fill ~setting:`Mixed ~dreq:2.19 Static.Perflow_bb in
  let ag =
    Static.fill ~setting:`Mixed ~dreq:2.19
      (Static.Aggr_bb { cd = 0.10; method_ = Aggregate.Bounding })
  in
  let mean r n =
    match List.nth_opt r.Static.steps (n - 1) with
    | Some s -> Fmt.str "%10.1f" s.Static.mean_rate
    | None -> Fmt.str "%10s" "-"
  in
  Fmt.pr "%4s  %10s  %10s  %10s@." "n" "IntServ/GS" "Perflow-BB" "Aggr cd=.1";
  let maxn = List.fold_left (fun m r -> max m r.Static.admitted) 0 [ gs; pf; ag ] in
  for n = 1 to maxn do
    if n mod 2 = 1 || n >= 25 then
      Fmt.pr "%4d  %s  %s  %s@." n (mean gs n) (mean pf n) (mean ag n)
  done;
  Fmt.pr "@.paper shape: GS flat; Per-flow starts at the mean rate and rises@.";
  Fmt.pr "but stays below GS; Aggregate sits at the mean rate, below both.@."

(* ------------------------------------------------------------------ *)
(* Figure 10 *)

let run_fig10 () =
  section "Figure 10: flow blocking rate vs offered load (mean of 5 seeds)";
  let loads = [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.4 ] in
  let base = { Dynamic.default_config with Dynamic.duration = 20_000. } in
  let schemes =
    [
      Dynamic.Perflow;
      Dynamic.Aggr Aggregate.Feedback;
      Dynamic.Aggr Aggregate.Bounding;
    ]
  in
  Fmt.pr "%-10s" "load(f/s)";
  List.iter (fun s -> Fmt.pr " %24s" (Fmt.str "%a" Dynamic.pp_scheme s)) schemes;
  Fmt.pr "@.";
  let curves = List.map (fun s -> Dynamic.blocking_vs_load ~base ~loads s) schemes in
  List.iteri
    (fun i load ->
      Fmt.pr "%-10.3f" load;
      List.iter (fun curve -> Fmt.pr " %24.4f" (snd (List.nth curve i))) curves;
      Fmt.pr "@.")
    loads;
  Fmt.pr "@.paper shape: per-flow lowest, feedback between, bounding highest;@.";
  Fmt.pr "the three converge as the network approaches saturation.@."

(* ------------------------------------------------------------------ *)
(* Figure 5 *)

let run_fig5 () =
  section "Figure 5: monotonicity of R_fea and R_del across delay intervals";
  (* A loaded mixed path and the published interval table of eqs. (10)
     and (11).  Moving left (m decreasing) R_fea shifts left and R_del
     shrinks. *)
  let capacity = 1.5e6 in
  let edf = [ Vtedf.create ~capacity; Vtedf.create ~capacity ] in
  let reserved = ref 0. in
  List.iter
    (fun (rate, delay) ->
      List.iter (fun s -> Vtedf.add s ~rate ~delay ~lmax:12_000.) edf;
      reserved := !reserved +. rate)
    [ (600_000., 0.05); (300_000., 0.20); (200_000., 0.45); (150_000., 0.80) ];
  let ps =
    {
      Admission.hops = 5;
      rate_hops = 3;
      delay_hops = 2;
      d_tot = 5. *. (12_000. /. capacity);
      cres = capacity -. !reserved;
      edf;
    }
  in
  let views = Admission.intervals ps type0 ~dreq:2.19 in
  Fmt.pr "%3s  %19s  %25s  %25s@." "m" "delay interval" "R_fea [l, r]" "R_del [l, r]";
  List.iter
    (fun (v : Admission.interval_view) ->
      Fmt.pr "%3d  [%7.4f, %7.4f)  [%10.1f, %12.1f]  [%10.1f, %12.1f]@."
        v.Admission.index v.Admission.d_lo v.Admission.d_hi v.Admission.fea_l
        v.Admission.fea_r v.Admission.del_l v.Admission.del_r)
    views;
  let ok = ref true in
  let rec check = function
    | (a : Admission.interval_view) :: (b :: _ as rest) ->
        if not (a.Admission.fea_l <= b.Admission.fea_l +. 1e-6) then ok := false;
        if not (a.Admission.del_l >= b.Admission.del_l -. 1e-6) then ok := false;
        if not (a.Admission.del_r <= b.Admission.del_r +. 1e-6) then ok := false;
        check rest
    | _ -> ()
  in
  check views;
  Fmt.pr "@.monotonicity (R_fea shifts left, R_del shrinks, as m decreases): %s@."
    (if !ok then "holds" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

let run_fig7 () =
  section "Figure 7: dynamic-aggregation transient at the edge conditioner";
  let r = Transient.leave_scenario () in
  Fmt.pr "microflow-leave scenario (2 greedy type-0 flows, one departs at T_on):@.";
  Fmt.pr "  edge-delay bound of the remaining macroflow: %8.3f s@." r.Transient.bound;
  Fmt.pr "  naive immediate rate reduction:              %8.3f s  %s@." r.Transient.naive
    (if r.Transient.naive > r.Transient.bound then "<- violation, as the paper warns"
     else "(no violation?)");
  Fmt.pr "  Theorem-3 contingency hold:                  %8.3f s  %s@."
    r.Transient.with_contingency
    (if r.Transient.with_contingency <= r.Transient.bound +. 1e-6 then
       "<- bound restored"
     else "still violated?!");
  let observed, bound = Transient.join_holds () in
  Fmt.pr "@.microflow-join scenario (type-3 joins a type-0 macroflow, Theorem 2):@.";
  Fmt.pr "  eq. (13) bound max(old, new):                %8.3f s@." bound;
  Fmt.pr "  worst observed edge delay:                   %8.3f s  %s@." observed
    (if observed <= bound +. 1e-6 then "<- within bound" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* Packet-level bound validation *)

let run_bounds () =
  section "Bound validation: saturated packet-level runs vs eq. (4)";
  let run ~setting ~dreq ~mode =
    let topo = Fig8.topology setting in
    let engine = Engine.create () in
    let net = Net.create engine topo mode in
    let path_links = Fig8.path1 topo in
    let path = Array.of_list path_links in
    let q = Topology.rate_based_hops path_links in
    let dh = Topology.delay_based_hops path_links in
    let d_tot = Topology.d_tot path_links in
    let req =
      { Types.profile = type0; dreq; ingress = Fig8.ingress1; egress = Fig8.egress1 }
    in
    let flows = ref [] in
    (match mode with
    | Net.Core_stateless ->
        let broker = Broker.create topo in
        let continue = ref true in
        while !continue do
          match Broker.request broker req with
          | Ok (flow, res) -> flows := (flow, res) :: !flows
          | Error _ -> continue := false
        done
    | Net.Intserv ->
        let gs = Bbr_intserv.Gs_admission.create topo in
        let continue = ref true in
        while !continue do
          match Bbr_intserv.Gs_admission.request gs req with
          | Ok (flow, res) ->
              Net.install_flow net ~flow ~path:path_links ~rate:res.Types.rate
                ~deadline:res.Types.delay;
              flows := (flow, res) :: !flows
          | Error _ -> continue := false
        done);
    List.iter
      (fun (flow, (res : Types.reservation)) ->
        let cond =
          Net.make_conditioner net ~rate:res.Types.rate ~delay_param:res.Types.delay
            ~lmax:type0.Traffic.lmax ()
        in
        ignore
          (Source.greedy engine ~profile:type0 ~flow ~path
             ~next:(fun p -> Edge_conditioner.submit cond p)
             ()))
      !flows;
    Engine.run ~until:40. engine;
    let sink = Net.sink net in
    let worst_margin = ref infinity in
    let worst_delay = ref 0. in
    let violations = ref 0 in
    List.iter
      (fun (flow, (res : Types.reservation)) ->
        match Sink.stats sink ~flow with
        | Some s ->
            let bound =
              Delay.e2e_bound type0 ~q ~delay_hops:dh ~rate:res.Types.rate
                ~delay:res.Types.delay ~d_tot
            in
            worst_delay := Float.max !worst_delay s.Sink.max_e2e;
            worst_margin := Float.min !worst_margin (bound -. s.Sink.max_e2e);
            if s.Sink.max_e2e > bound +. 1e-9 then incr violations
        | None -> incr violations)
      !flows;
    ( List.length !flows,
      !worst_delay,
      !worst_margin,
      !violations,
      Net.core_flow_state net )
  in
  Fmt.pr "%-28s %6s %12s %12s %10s %10s@." "configuration" "flows" "worst delay"
    "min margin" "violations" "core state";
  List.iter
    (fun (label, setting, dreq, mode) ->
      let flows, delay, margin, viol, state = run ~setting ~dreq ~mode in
      Fmt.pr "%-28s %6d %12.4f %12.4f %10d %10d@." label flows delay margin viol state)
    [
      ("BB/VTRS rate-only 2.44", `Rate_only, 2.44, Net.Core_stateless);
      ("BB/VTRS rate-only 2.19", `Rate_only, 2.19, Net.Core_stateless);
      ("BB/VTRS mixed 2.19", `Mixed, 2.19, Net.Core_stateless);
      ("IntServ VC/RC-EDF 2.19", `Mixed, 2.19, Net.Intserv);
    ];
  Fmt.pr "@.(margin = analytic bound minus worst observed delay; must stay >= 0)@."

(* ------------------------------------------------------------------ *)
(* Statistical service ablation: multiplexing gain vs epsilon. *)

let run_statistical () =
  section "Statistical service: admitted flows vs overflow budget (15 Mb/s link)";
  let fill epsilon =
    let t = Topology.create () in
    ignore (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:15e6 Topology.Rate_based);
    let broker = Broker.create t in
    let stat = Bbr_broker.Statistical.create broker ~epsilon in
    let req = { Types.profile = type0; dreq = 0.; ingress = "A"; egress = "B" } in
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match Bbr_broker.Statistical.request stat req with
      | Ok _ -> incr n
      | Error _ -> continue := false
    done;
    (!n, Bbr_broker.Statistical.surcharge stat ~link_id:0)
  in
  Fmt.pr "%-24s %10s %20s@." "service" "admitted" "surcharge (b/s)";
  Fmt.pr "%-24s %10d %20s@." "deterministic (peak)" 150 "-";
  List.iter
    (fun epsilon ->
      let n, s = fill epsilon in
      Fmt.pr "statistical e=%-10g %10d %20.0f@." epsilon n s)
    [ 1e-9; 1e-6; 1e-3; 1e-2; 0.05 ];
  Fmt.pr "%-24s %10d %20s@." "mean-rate (no guarantee)" 300 "-";
  Fmt.pr
    "@.Hoeffding effective-bandwidth admission: the sqrt(n) surcharge buys a@.";
  Fmt.pr "provable overflow probability <= epsilon with no core-router support.@."

(* ------------------------------------------------------------------ *)
(* Scaling ablations: admission cost vs M, bounds vs path length. *)

let run_scaling () =
  section "Scaling: mixed-path admission cost vs M";
  let mk_mixed n =
    let capacity = float_of_int n *. 12_000. *. 4. in
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
  in
  let time_of f =
    let reps = 2_000 in
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Sys.time () -. t0) /. float_of_int reps *. 1e6
  in
  Fmt.pr "%8s %16s@." "M" "mixed (us)";
  (* Warm up once, so the first row does not pay for cold caches. *)
  ignore (time_of (fun () -> Admission.mixed (mk_mixed 5) type0 ~dreq:2.19));
  List.iter
    (fun m ->
      let ps = mk_mixed m in
      Fmt.pr "%8d %16.1f@." m (time_of (fun () -> Admission.mixed ps type0 ~dreq:2.19)))
    [ 5; 10; 25; 50; 100; 200 ];
  Fmt.pr "@.==== Scaling: end-to-end bound vs path length (type-0 at mean rate) ====@.@.";
  Fmt.pr "%6s %18s %22s@." "hops" "bound at rho (s)" "min achievable dreq (s)";
  List.iter
    (fun h ->
      let d_tot = float_of_int h *. 0.008 in
      let at_rho =
        Delay.e2e_bound type0 ~q:h ~delay_hops:0 ~rate:50_000. ~delay:0. ~d_tot
      in
      let at_peak =
        Delay.e2e_bound type0 ~q:h ~delay_hops:0 ~rate:100_000. ~delay:0. ~d_tot
      in
      Fmt.pr "%6d %18.3f %22.3f@." h at_rho at_peak)
    [ 1; 2; 5; 10; 20; 40 ];
  Fmt.pr "@.(each extra rate-based hop adds lmax/r + psi to the bound — eq. (4))@."

(* ------------------------------------------------------------------ *)
(* Control-loop stage latency + instrumentation overhead (telemetry). *)

module Metrics = Bbr_obs.Metrics
module Obs_trace = Bbr_obs.Trace
module Telemetry = Bbr_broker.Telemetry
module Stats = Bbr_util.Stats

let run_admission () =
  section "Admission telemetry: control-loop stage latency percentiles";
  (* One instrumented mixed-setting fill; exact percentiles come from the
     raw trace spans (the bb_stage_seconds histogram carries the same data
     at bucket resolution for exporters). *)
  let reg = Metrics.create () in
  let tracer = Obs_trace.create ~capacity:65_536 () in
  Metrics.install reg;
  Obs_trace.install tracer;
  let fill () =
    Static.fill ~setting:`Mixed ~dreq:2.19 ~observe:Telemetry.register_broker
      Static.Perflow_bb
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Metrics.uninstall ();
        Obs_trace.uninstall ())
      fill
  in
  Fmt.pr "mixed setting, bound 2.19 s: %d offers (%d admitted + 1 reject)@.@."
    (r.Static.admitted + 1) r.Static.admitted;
  Fmt.pr "%-16s %8s %12s %12s %12s   %s@." "stage" "n" "p50 (us)" "p95 (us)"
    "p99 (us)" "summary (s)";
  List.iter
    (fun name ->
      let d = Obs_trace.durations tracer ~name:("bb.stage." ^ name) in
      if Array.length d > 0 then begin
        let p q = Stats.percentile d ~p:q *. 1e6 in
        let acc = Stats.create () in
        Array.iter (Stats.add acc) d;
        Fmt.pr "%-16s %8d %12.2f %12.2f %12.2f   %a@." name (Array.length d)
          (p 50.) (p 95.) (p 99.) Stats.pp acc
      end)
    [ "policy"; "routing"; "admissibility"; "bookkeeping"; "cops_push" ];
  (* Decision log sanity: the counters must reconcile with the fill. *)
  let admits =
    List.length
      (List.filter
         (fun (_, (d : Obs_trace.decision)) -> d.Obs_trace.admitted)
         (Obs_trace.decisions tracer))
  in
  Fmt.pr "@.decision log: %d entries, %d admits@."
    (List.length (Obs_trace.decisions tracer))
    admits;
  (* Overhead: the same admission microbench with and without a registry
     installed.  The disabled path must stay within noise (<2%). *)
  let time_fill () =
    let reps = 25 in
    (* warm-up *)
    ignore (fill ());
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (fill ())
    done;
    (Sys.time () -. t0) /. float_of_int reps *. 1e3
  in
  let off = time_fill () in
  Metrics.install (Metrics.create ());
  let on_ =
    Fun.protect ~finally:Metrics.uninstall (fun () -> time_fill ())
  in
  let off2 = time_fill () in
  let off = Float.min off off2 in
  Fmt.pr "@.fill wall time: %.3f ms uninstrumented, %.3f ms with registry \
          (+%.1f%%)@."
    off on_
    ((on_ -. off) /. off *. 100.);
  Fmt.pr "(uninstalled instrumentation is a mutable read + branch per site)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let run_micro () =
  section "Micro-benchmarks: admission-control hot paths (Bechamel OLS, ns/op)";
  let open Bechamel in
  let rate_ps =
    {
      Admission.hops = 5;
      rate_hops = 5;
      delay_hops = 0;
      d_tot = 0.04;
      cres = 1.5e6;
      edf = [];
    }
  in
  (* Mixed-path states with M distinct delay values already booked. *)
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
  in
  let ps10 = mk_mixed 10 and ps50 = mk_mixed 50 in
  let gs = Bbr_intserv.Gs_admission.create (Fig8.topology `Mixed) in
  let gs_req =
    { Types.profile = type0; dreq = 3.5; ingress = Fig8.ingress1; egress = Fig8.egress1 }
  in
  let batch_broker = Broker.create (Fig8.topology `Mixed) in
  let batch_reqs =
    List.init 16 (fun i ->
        {
          Types.profile = Profiles.profile (i mod 4);
          dreq = 1.5 +. (0.25 *. float_of_int (i mod 6));
          ingress = (if i mod 2 = 0 then Fig8.ingress1 else Fig8.ingress2);
          egress = (if i mod 2 = 0 then Fig8.egress1 else Fig8.egress2);
        })
  in
  let tests =
    Test.make_grouped ~name:"admission"
      [
        Test.make ~name:"rate-based O(1) test"
          (Staged.stage (fun () -> Admission.rate_based rate_ps type0 ~dreq:2.44));
        Test.make ~name:"mixed, M=10"
          (Staged.stage (fun () -> Admission.mixed ps10 type0 ~dreq:2.19));
        Test.make ~name:"mixed, M=50"
          (Staged.stage (fun () -> Admission.mixed ps50 type0 ~dreq:2.19));
        Test.make ~name:"IntServ hop-by-hop admit+teardown"
          (Staged.stage (fun () ->
               match Bbr_intserv.Gs_admission.request gs gs_req with
               | Ok (flow, _) -> Bbr_intserv.Gs_admission.teardown gs flow
               | Error _ -> ()));
        Test.make ~name:"broker batched(16)+teardown"
          (Staged.stage (fun () ->
               List.iter
                 (function
                   | Ok (flow, _) -> Broker.teardown batch_broker flow
                   | Error _ -> ())
                 (Broker.batched batch_broker (fun () ->
                      List.map (Broker.request batch_broker) batch_reqs))));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  Fmt.pr "%-45s %14s@." "benchmark" "ns/op";
  List.iter (fun (name, est) -> Fmt.pr "%-45s %14.1f@." name est) rows;
  (* Event-engine throughput as a plain wall-clock measurement. *)
  let t0 = Sys.time () in
  let engine = Engine.create () in
  let n = 200_000 in
  for i = 1 to n do
    Engine.schedule engine ~at:(float_of_int i *. 1e-3) (fun () -> ())
  done;
  Engine.run engine;
  let dt = Sys.time () -. t0 in
  Fmt.pr "%-45s %14.1f@." "event engine (schedule+dispatch)"
    (dt /. float_of_int n *. 1e9)

(* ------------------------------------------------------------------ *)
(* Control-plane message overhead: COPS-style broker signaling vs RSVP
   hop-by-hop soft state (extension; quantifies Section 1's motivation). *)

let run_overhead () =
  section "Control-plane overhead: broker (COPS) vs hop-by-hop (RSVP)";
  let horizon = 600. in
  let n_flows = 27 in
  (* Broker side. *)
  let engine = Engine.create () in
  let broker = Broker.create (Fig8.topology `Rate_only) in
  let cops =
    Bbr_broker.Cops.create broker
      ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
      ()
  in
  let req =
    { Types.profile = type0; dreq = 2.19; ingress = Fig8.ingress1; egress = Fig8.egress1 }
  in
  for _ = 1 to n_flows do
    Bbr_broker.Cops.request cops req ~on_decision:(fun _ -> ())
  done;
  Engine.run ~until:horizon engine;
  let cops_messages = Bbr_broker.Cops.messages cops in
  (* RSVP side: same flows, same horizon, default 30 s refreshes. *)
  let engine = Engine.create () in
  let topo = Fig8.topology `Rate_only in
  let rsvp = Bbr_intserv.Rsvp.create engine topo () in
  for flow = 1 to n_flows do
    Bbr_intserv.Rsvp.open_session rsvp ~flow ~path:(Fig8.path1 topo) ~rate:54_020.
      ~on_result:(fun _ -> ())
  done;
  Engine.run ~until:horizon engine;
  let rsvp_messages = Bbr_intserv.Rsvp.messages rsvp in
  let rsvp_state = Bbr_intserv.Rsvp.state_count rsvp in
  Fmt.pr "%d flows held for %.0f s on the 5-hop Figure-8 path:@.@." n_flows horizon;
  Fmt.pr "%-34s %10s %18s@." "" "messages" "router state";
  Fmt.pr "%-34s %10d %18d@." "bandwidth broker (COPS-style)" cops_messages 0;
  Fmt.pr "%-34s %10d %18d@." "RSVP soft state (30 s refresh)" rsvp_messages rsvp_state;
  Fmt.pr "@.ratio: %.0fx fewer control messages, and none of them touch core routers.@."
    (float_of_int rsvp_messages /. float_of_int (max 1 cops_messages))

(* ------------------------------------------------------------------ *)
(* Hierarchical broker ablation: quota chunk size vs central load. *)

let run_hierarchy () =
  section "Hierarchical BB ablation: quota chunk size vs central-broker load";
  let fill chunk =
    let central = Broker.create (Fig8.topology `Rate_only) in
    match
      Bbr_broker.Edge_broker.create ~central ~ingress:Fig8.ingress1 ~egress:Fig8.egress1
        ~chunk
    with
    | Error _ -> (0, 0)
    | Ok eb ->
        let req =
          {
            Types.profile = type0;
            dreq = 2.44;
            ingress = Fig8.ingress1;
            egress = Fig8.egress1;
          }
        in
        let n = ref 0 in
        let continue = ref true in
        while !continue do
          match Bbr_broker.Edge_broker.request eb req with
          | Ok _ -> incr n
          | Error _ -> continue := false
        done;
        (!n, Bbr_broker.Edge_broker.central_transactions eb)
  in
  Fmt.pr "%-24s %10s %24s@." "chunk (b/s)" "admitted" "central transactions";
  Fmt.pr "%-24s %10d %24d@." "(flat: no hierarchy)" 30 30;
  List.iter
    (fun chunk ->
      let admitted, tx = fill chunk in
      Fmt.pr "%-24.0f %10d %24d@." chunk admitted tx)
    [ 50_000.; 150_000.; 500_000.; 1_500_000. ];
  Fmt.pr
    "@.admission counts are unchanged; central transactions drop with chunk size@.";
  Fmt.pr "(the cost is bandwidth fragmentation across edge brokers under churn).@."

(* ------------------------------------------------------------------ *)
(* QoS-state footprint: where reservation state lives at saturation. *)

let run_state () =
  section "QoS-state footprint at admission saturation (mixed setting, 2.19 s)";
  let req =
    { Types.profile = type0; dreq = 2.19; ingress = Fig8.ingress1; egress = Fig8.egress1 }
  in
  (* Per-flow BB. *)
  let broker = Broker.create (Fig8.topology `Mixed) in
  let continue = ref true in
  while !continue do
    match Broker.request broker req with Ok _ -> () | Error _ -> continue := false
  done;
  let perflow_broker_state = Broker.per_flow_count broker in
  (* Aggregate BB: one class. *)
  (* Bounding method, sequential arrivals: the engine runs out after each
     join, so every contingency grant's hold has expired before the next
     arrival. *)
  let engine = Engine.create () in
  let broker_agg =
    Broker.create
      ~classes:[ { Aggregate.class_id = 0; dreq = 2.19; cd = 0.1 } ]
      ~method_:Aggregate.Bounding
      ~time:
        {
          Broker.now = (fun () -> Engine.now engine);
          after = (fun delay f -> Engine.schedule_after engine ~delay f);
        }
      (Fig8.topology `Mixed)
  in
  let admitted_agg = ref 0 in
  let continue = ref true in
  while !continue do
    match Broker.request_class broker_agg req with
    | Ok _ ->
        incr admitted_agg;
        Engine.run engine
    | Error _ -> continue := false
  done;
  let macros = List.length (Aggregate.all_macroflows (Broker.aggregate broker_agg)) in
  (* IntServ. *)
  let gs = Bbr_intserv.Gs_admission.create (Fig8.topology `Mixed) in
  let continue = ref true in
  while !continue do
    match Bbr_intserv.Gs_admission.request gs req with
    | Ok _ -> ()
    | Error _ -> continue := false
  done;
  Fmt.pr "%-26s %8s %22s %20s@." "architecture" "flows" "control-plane state"
    "core-router state";
  Fmt.pr "%-26s %8d %22s %20d@." "IntServ/GS (hop-by-hop)"
    (Bbr_intserv.Gs_admission.flow_count gs)
    "n/a (in routers)"
    (Bbr_intserv.Gs_admission.router_flow_state gs);
  Fmt.pr "%-26s %8d %22d %20d@." "Per-flow BB/VTRS" perflow_broker_state
    perflow_broker_state 0;
  Fmt.pr "%-26s %8d %22d %20d@." "Aggr BB/VTRS (1 class)" !admitted_agg macros 0;
  Fmt.pr
    "@.aggregation shrinks broker state from one entry per flow to one per@.";
  Fmt.pr "(class x path) macroflow; core routers hold none in either BB mode.@."

(* ------------------------------------------------------------------ *)
(* Fault tolerance: recovery under link failure + broker crash, swept
   over COPS loss rates (extension; EXPERIMENTS.md "recovery" section). *)

let run_failover () =
  section "Fault tolerance: link failure + broker crash vs COPS loss rate";
  let module Sc = Bbr_scenario.Scenario in
  let module Runner = Bbr_scenario.Runner in
  let failover = Bbr_scenario.Matrix.fig10_failover in
  Fmt.pr
    "Figure-8 churn (0.15 flows/s, 200 s holding), R3->R4 fails at 600 s with@.";
  Fmt.pr
    "an R3->R6->R4 detour, broker crashes at 1500 s, standby promoted 0.5 s later.@.@.";
  let row label (o : Runner.outcome) =
    Fmt.pr "%-34s %5d %5d %5d %6d %6d %5d %7d %7d %6d@." label o.Runner.admitted
      o.Runner.rerouted o.Runner.dropped o.Runner.flows_at_crash
      o.Runner.flows_restored (Runner.flows_lost o) o.Runner.messages
      o.Runner.retransmissions o.Runner.unresolved
  in
  Fmt.pr "%-34s %5s %5s %5s %6s %6s %5s %7s %7s %6s@." "configuration" "admit" "rert"
    "drop" "@crash" "restor" "lost" "msgs" "rexmit" "stuck";
  (* The scenario checkpoints every 50 s; the second block drops its
     journal. *)
  List.iter
    (fun (label, journal) ->
      List.iter
        (fun loss ->
          row (Fmt.str "%s, p=%.2f" label loss) (Runner.run { failover with Sc.loss; journal }))
        [ 0.; 0.01; 0.1 ])
    [ ("journal, fsync every record", Some 1); ("50 s periodic ckpt", None) ];
  Fmt.pr
    "@.a journal fsynced every record loses nothing across the crash; periodic@.";
  Fmt.pr
    "checkpoints alone lose the admissions of the last window.  No request is@.";
  Fmt.pr
    "ever stuck: the reliable channel retransmits every transaction to resolution.@."

(* ------------------------------------------------------------------ *)
(* Durability: write-ahead journal replay throughput and the admission
   latency cost of journaling (extension; PR 3's crash consistency). *)

module Journal = Bbr_broker.Journal

let run_recovery () =
  section "Recovery: journal replay throughput and durability overhead";
  let mk () = Broker.create (Fig8.topology `Rate_only) in
  let req =
    { Types.profile = type0; dreq = 2.44; ingress = Fig8.ingress1; egress = Fig8.egress1 }
  in
  let churn broker =
    match Broker.request broker req with
    | Ok (flow, _) -> Broker.teardown broker flow
    | Error _ -> assert false (* admit+teardown keeps the network empty *)
  in
  (* Synthetic journals of increasing length: admit/teardown churn, two
     records per cycle. *)
  let build n =
    let broker = mk () in
    let j = Journal.create () in
    Journal.attach j broker;
    while Journal.records j < n do
      churn broker
    done;
    Journal.text j
  in
  Fmt.pr "%10s %14s %16s@." "records" "replay (ms)" "records/s";
  let replay_rows =
    List.map
      (fun n ->
        let text = build n in
        let standby = mk () in
        let t0 = Unix.gettimeofday () in
        (match Journal.replay standby text with
        | Ok _ -> ()
        | Error e -> failwith e);
        let dt = Unix.gettimeofday () -. t0 in
        let rate = float_of_int n /. dt in
        Fmt.pr "%10d %14.2f %16.0f@." n (dt *. 1e3) rate;
        (n, dt, rate))
      [ 1_000; 5_000; 20_000 ]
  in
  (* Durability overhead on the admission hot path: the same
     mixed-setting fill the [admission] section times (routing + exact
     schedulability + bookkeeping), with and without a journal attached.
     Per-admission latency = fill wall time / offers; percentiles over
     repeated fills. *)
  let fill ~journal () =
    let observe broker =
      if journal then Journal.attach (Journal.create ()) broker
    in
    Static.fill ~setting:`Mixed ~dreq:2.19 ~observe Static.Perflow_bb
  in
  let offers = (fill ~journal:false ()).Static.admitted + 1 in
  let fills = 150 in
  (* Interleave the two configurations fill by fill so clock drift and
     cache warmth hit both sides equally. *)
  let off = Array.make fills 0. and on_ = Array.make fills 0. in
  ignore (fill ~journal:true ());
  for i = 0 to fills - 1 do
    let t0 = Unix.gettimeofday () in
    ignore (fill ~journal:false ());
    let t1 = Unix.gettimeofday () in
    ignore (fill ~journal:true ());
    let t2 = Unix.gettimeofday () in
    off.(i) <- (t1 -. t0) /. float_of_int offers;
    on_.(i) <- (t2 -. t1) /. float_of_int offers
  done;
  let words_per_op ~journal =
    ignore (fill ~journal ());
    let w0 = Gc.minor_words () in
    let n = 40 in
    for _ = 1 to n do
      ignore (fill ~journal ())
    done;
    (Gc.minor_words () -. w0) /. float_of_int (n * offers)
  in
  let woff = words_per_op ~journal:false and won = words_per_op ~journal:true in
  let p a q = Stats.percentile a ~p:q *. 1e6 in
  let p50_off = p off 50. and p95_off = p off 95. in
  let p50_on = p on_ 50. and p95_on = p on_ 95. in
  let overhead = (p95_on -. p95_off) /. p95_off *. 100. in
  Fmt.pr "@.mixed-setting admission (us/offer over %d fills of %d offers):@." fills
    offers;
  Fmt.pr "%-20s %10s %10s %16s@." "" "p50" "p95" "minor words/op";
  Fmt.pr "%-20s %10.2f %10.2f %16.1f@." "journal disabled" p50_off p95_off woff;
  Fmt.pr "%-20s %10.2f %10.2f %16.1f@." "journal enabled" p50_on p95_on won;
  Fmt.pr "@.durability overhead at p95: %+.1f%%  (budget: <= 75%%)@." overhead;
  Fmt.pr
    "(with no journal attached the mutation hook is a load + branch and@.";
  Fmt.pr "allocates nothing: disabled equals the unjournaled broker exactly)@.";
  (* Machine-readable artifact, tracked across PRs. *)
  let oc = open_out "BENCH_recovery.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"recovery\": {\n    \"replay\": [\n";
      List.iteri
        (fun i (n, dt, rate) ->
          Printf.fprintf oc
            "      {\"records\": %d, \"seconds\": %.6f, \"records_per_sec\": %.0f}%s\n"
            n dt rate
            (if i = List.length replay_rows - 1 then "" else ","))
        replay_rows;
      Printf.fprintf oc "    ],\n    \"admission_us\": {\n";
      Printf.fprintf oc
        "      \"journal_disabled\": {\"p50\": %.3f, \"p95\": %.3f, \
         \"minor_words_per_op\": %.1f},\n"
        p50_off p95_off woff;
      Printf.fprintf oc
        "      \"journal_enabled\": {\"p50\": %.3f, \"p95\": %.3f, \
         \"minor_words_per_op\": %.1f},\n"
        p50_on p95_on won;
      Printf.fprintf oc "      \"p95_overhead_pct\": %.1f\n    }\n  }\n}\n" overhead);
  Fmt.pr "@.wrote BENCH_recovery.json@."

(* ------------------------------------------------------------------ *)
(* Overload resilience: the bounded admission pipeline under increasing
   offered load, with and without brownout degradation (extension; PR 4's
   overload control).  Writes BENCH_overload.json. *)

module Ov = Bbr_broker.Overload

let run_overload_bench () =
  section "Overload: goodput, decision latency and shed rate vs offered load";
  let module Sc = Bbr_scenario.Scenario in
  let module Runner = Bbr_scenario.Runner in
  let point ~overload ~brownout =
    (* Offered load as a multiple of the Figure-10 base rate. *)
    let sc =
      if brownout then Bbr_scenario.Matrix.fig10_overload
      else Bbr_scenario.Matrix.fig10_overload_flat
    in
    let o = Runner.run { sc with Sc.load = Sc.Constant (0.15 *. overload) } in
    let s = o.Runner.pipeline in
    let shed = Ov.shed_total s in
    let goodput =
      float_of_int s.Ov.decided /. float_of_int (max 1 s.Ov.submitted)
    in
    (o, s, shed, goodput)
  in
  let factors = [ 2.; 5.; 10. ] in
  Fmt.pr
    "Figure-8 churn through the bounded pipeline (queue 32, deadline 10 s,@.";
  Fmt.pr "exact decision 2.5 s, conservative 0.5 s), exact oracle shadowing:@.@.";
  Fmt.pr "%-9s %-9s %9s %9s %9s %9s %11s %9s %9s@." "load" "pipeline" "offered"
    "decided" "admitted" "shed" "busy-fail" "p99 (s)" "degr (s)";
  let rows =
    List.concat_map
      (fun overload ->
        List.map
          (fun brownout ->
            let o, s, shed, goodput = point ~overload ~brownout in
            Fmt.pr "%-9.1f %-9s %9d %9d %9d %9d %11d %9.2f %9.1f@." overload
              (if brownout then "brownout" else "flat")
              o.Runner.offered s.Ov.decided o.Runner.admitted shed o.Runner.busy
              o.Runner.p99_latency o.Runner.brownout_time;
            if s.Ov.oracle_violations > 0 then
              Fmt.pr "  ^ ORACLE VIOLATIONS: %d@." s.Ov.oracle_violations;
            (overload, brownout, o, s, shed, goodput))
          [ false; true ])
      factors
  in
  Fmt.pr
    "@.brownout trades admission precision (conservative O(1) decisions) for@.";
  Fmt.pr
    "service rate: past saturation the flat pipeline sheds at the deadline and@.";
  Fmt.pr
    "exhausts Server-busy retries while brownout keeps deciding; the exact@.";
  Fmt.pr "oracle confirms neither ever admits an unschedulable flow.@.";
  let oc = open_out "BENCH_overload.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"overload\": [\n";
      List.iteri
        (fun i (overload, brownout, (o : Runner.outcome), (s : Ov.stats), shed, goodput) ->
          Printf.fprintf oc
            "    {\"overload\": %.1f, \"brownout\": %b, \"offered\": %d, \
             \"decided\": %d, \"admitted\": %d, \"shed\": %d, \"busy\": %d, \
             \"goodput\": %.4f, \"p50_latency_s\": %.4f, \"p99_latency_s\": \
             %.4f, \"degraded_s\": %.1f, \"conservative\": %d, \
             \"oracle_violations\": %d}%s\n"
            overload brownout o.Runner.offered s.Ov.decided o.Runner.admitted shed
            o.Runner.busy goodput o.Runner.p50_latency o.Runner.p99_latency
            o.Runner.brownout_time s.Ov.conservative_decisions
            s.Ov.oracle_violations
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Fmt.pr "@.wrote BENCH_overload.json@."

(* ------------------------------------------------------------------ *)
(* Fast-path admission throughput: the cached per-link and per-path
   breakpoint tables vs building path state and the merged table per
   request.
   Writes BENCH_admission_throughput.json. *)

module Topo_gen = Bbr_workload.Topo_gen
module Audit = Bbr_broker.Audit
module Prng = Bbr_util.Prng

let run_admission_throughput () =
  section "Admission throughput: cached fast path vs per-request rebuild";
  let scale =
    match Sys.getenv_opt "BBR_BENCH_SCALE" with
    | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
    | None -> 1
  in
  (* Words allocated so far: the minor heap's, plus arrays over 256 words,
     which go straight to the major heap (the major count less what was
     promoted, which the minor count already holds). *)
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  (* One churn run: [n] admission requests against [mk ()], keeping at
     most [cap] reservations alive (oldest out first) so the delay-class
     population M reaches a steady state.  Requests come from a fixed
     seeded stream and admission is digest-neutral, so the cached and
     uncached runs execute identical operation sequences — the final MIB
     digest doubles as the equivalence check. *)
  let churn ~fast_path ~cap ~n mk =
    let topology, endpoints = mk () in
    let broker = Broker.create ~fast_path topology in
    let prng = Prng.create ~seed:20_260_807 in
    let live = Queue.create () in
    let admitted = ref 0 in
    Gc.full_major ();
    let w0 = allocated () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      let ingress, egress = endpoints prng in
      let profile = Profiles.profile (Prng.int prng ~bound:4) in
      let dreq = Prng.float_range prng ~lo:0.5 ~hi:6. in
      match Broker.request broker { Types.profile; dreq; ingress; egress } with
      | Ok (flow, _) ->
          incr admitted;
          Queue.push flow live;
          if Queue.length live > cap then Broker.teardown broker (Queue.pop live)
      | Error _ ->
          (* make room so the stream keeps exercising admissions *)
          if not (Queue.is_empty live) then
            Broker.teardown broker (Queue.pop live)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let words = (allocated () -. w0) /. float_of_int n in
    (float_of_int n /. dt, words, !admitted, Audit.mib_digest broker)
  in
  let fig8 () =
    let topology = Fig8.topology `Mixed in
    let endpoints prng =
      if Prng.float prng < 0.5 then (Fig8.ingress1, Fig8.egress1)
      else (Fig8.ingress2, Fig8.egress2)
    in
    (topology, endpoints)
  in
  (* A wide delay-based chain: capacity high enough to hold hundreds of
     concurrent reservations, so the merged breakpoint table the exact
     scan walks has M in the hundreds — the regime the paper's O(M)
     argument (and this cache) is about. *)
  let chain () =
    let topology, ingress, egress =
      Topo_gen.chain ~capacity:1e9 ~sched:Topology.Delay_based ~hops:4 ()
    in
    (topology, fun _ -> (ingress, egress))
  in
  let scenarios =
    [
      ("fig8-mixed", fig8, 64, 10_000);
      ("fig8-mixed", fig8, 64, 100_000);
      ("chain-edf", chain, 512, 10_000);
      ("chain-edf", chain, 512, 100_000);
    ]
  in
  Fmt.pr "%-12s %9s %12s %12s %8s %11s %11s %6s@." "topology" "requests"
    "uncached r/s" "cached r/s" "speedup" "words/req" "(cached)" "equal";
  let rows =
    List.map
      (fun (name, mk, cap, n0) ->
        let n = max 100 (n0 / scale) in
        let u_rps, u_words, u_adm, u_dig = churn ~fast_path:false ~cap ~n mk in
        let c_rps, c_words, c_adm, c_dig = churn ~fast_path:true ~cap ~n mk in
        let equivalent = u_adm = c_adm && String.equal u_dig c_dig in
        let speedup = c_rps /. u_rps in
        Fmt.pr "%-12s %9d %12.0f %12.0f %7.1fx %11.1f %11.1f %6s@." name n
          u_rps c_rps speedup u_words c_words
          (if equivalent then "yes" else "NO!");
        (name, n, u_rps, c_rps, speedup, u_words, c_words, c_adm, equivalent))
      scenarios
  in
  Fmt.pr
    "@.(words/req = words allocated per request, minor and direct major; 'equal' checks@.";
  Fmt.pr
    "identical admitted counts and MIB digests between the two runs)@.";
  let oc = open_out "BENCH_admission_throughput.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"admission_throughput\": {\n    \"scale\": %d,\n    \"scenarios\": [\n"
        scale;
      List.iteri
        (fun i (name, n, u, c, sp, uw, cw, adm, eq) ->
          Printf.fprintf oc
            "      {\"topology\": %S, \"requests\": %d, \"uncached_req_per_s\": \
             %.0f, \"cached_req_per_s\": %.0f, \"speedup\": %.2f, \
             \"uncached_words_per_req\": %.1f, \
             \"cached_words_per_req\": %.1f, \"admitted\": %d, \
             \"equivalent\": %b}%s\n"
            name n u c sp uw cw adm eq
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "    ]\n  }\n}\n");
  Fmt.pr "@.wrote BENCH_admission_throughput.json@."

(* ------------------------------------------------------------------ *)
(* Inter-domain federation: 2PC commit latency, compensation rate and
   coordinator-crash recovery time across channel-loss levels (extension;
   PR 6's failure-isolated federation).  Writes BENCH_federation.json. *)

module Fs = Bbr_workload.Fed_soak

let run_federation_bench () =
  section "Federation: commit latency, compensation rate, crash recovery";
  let point ~drop_p =
    Fs.run
      {
        Fs.default_config with
        Fs.drop_p;
        dup_p = drop_p /. 2.;
        arrival_rate = 2.;
        duration = 100.;
      }
  in
  Fmt.pr "12-domain federation, 2 arrivals/s for 100 s, faults in [20, 80),@.";
  Fmt.pr "partition [40, 60), domain crash [30, 50), coordinator crash at 70:@.@.";
  Fmt.pr "%-7s %8s %10s %10s %11s %11s %10s %9s@." "loss" "offered" "committed"
    "comp-rate" "p50 commit" "p95 commit" "recovery" "clean";
  let rows =
    List.map
      (fun drop_p ->
        let o = point ~drop_p in
        let decided = max 1 (o.Fs.committed + o.Fs.compensated) in
        let comp_rate = float_of_int o.Fs.compensated /. float_of_int decided in
        Fmt.pr "%-7.2f %8d %10d %10.4f %10.4fs %10.4fs %9.2fs %9b@." drop_p
          o.Fs.offered o.Fs.committed comp_rate o.Fs.p50_commit_latency
          o.Fs.p95_commit_latency
          (Option.value ~default:nan o.Fs.recovery_time)
          (Fs.ok o);
        (drop_p, o, comp_rate))
      [ 0.; 0.05; 0.15 ]
  in
  Fmt.pr
    "@.loss inflates the commit tail (retransmission rounds) and the@.";
  Fmt.pr
    "compensation rate (transactions that exhaust their prepare retries);@.";
  Fmt.pr "recovery time is bounded by the obligation retry cap, not load.@.";
  let oc = open_out "BENCH_federation.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"federation\": [\n";
      List.iteri
        (fun i (drop_p, (o : Fs.outcome), comp_rate) ->
          Printf.fprintf oc
            "    {\"drop_p\": %.2f, \"offered\": %d, \"committed\": %d, \
             \"compensated\": %d, \"compensation_rate\": %.4f, \
             \"p50_commit_latency_s\": %.4f, \"p95_commit_latency_s\": %.4f, \
             \"recovery_time_s\": %s, \"digest_exact\": %b, \"retries\": %d, \
             \"reaped\": %d, \"clean\": %b}%s\n"
            drop_p o.Fs.offered o.Fs.committed o.Fs.compensated comp_rate
            o.Fs.p50_commit_latency o.Fs.p95_commit_latency
            (match o.Fs.recovery_time with
            | Some s -> Printf.sprintf "%.3f" s
            | None -> "null")
            (o.Fs.digest_match = Some true)
            o.Fs.stats.Bbr_interdomain.Federation.retries
            o.Fs.stats.Bbr_interdomain.Federation.reaped (Fs.ok o)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Fmt.pr "@.wrote BENCH_federation.json@."

(* ------------------------------------------------------------------ *)
(* Observability: causal-tracing overhead on the cached admission fast
   path (the PR-5 per-path schedulability caches).  The acceptance
   budget is <= 10% on p95 per-request latency with the full tracer
   (span contexts + ambient stack + ring writes) installed.
   Writes BENCH_obs.json. *)

let run_obs () =
  section "Observability: tracing overhead on the cached admission fast path";
  let scale =
    match Sys.getenv_opt "BBR_BENCH_SCALE" with
    | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
    | None -> 1
  in
  let n = max 200 (2_000 / scale) and cap = 64 in
  let churn () =
    let topology = Fig8.topology `Mixed in
    let broker = Broker.create ~fast_path:true topology in
    let prng = Prng.create ~seed:20_260_809 in
    let live = Queue.create () in
    for _ = 1 to n do
      let ingress, egress =
        if Prng.float prng < 0.5 then (Fig8.ingress1, Fig8.egress1)
        else (Fig8.ingress2, Fig8.egress2)
      in
      let profile = Profiles.profile (Prng.int prng ~bound:4) in
      let dreq = Prng.float_range prng ~lo:0.5 ~hi:6. in
      match Broker.request broker { Types.profile; dreq; ingress; egress } with
      | Ok (flow, _) ->
          Queue.push flow live;
          if Queue.length live > cap then Broker.teardown broker (Queue.pop live)
      | Error _ ->
          if not (Queue.is_empty live) then Broker.teardown broker (Queue.pop live)
    done
  in
  let reg = Metrics.create () in
  let tracer = Obs_trace.create ~capacity:65_536 () in
  let with_metrics f =
    Metrics.install reg;
    Fun.protect ~finally:Metrics.uninstall f
  in
  let with_tracing f =
    Metrics.install reg;
    Obs_trace.install tracer;
    Fun.protect
      ~finally:(fun () ->
        Metrics.uninstall ();
        Obs_trace.uninstall ())
      f
  in
  let rounds = max 10 (60 / scale) in
  let off = Array.make rounds 0. in
  let met = Array.make rounds 0. in
  let on_ = Array.make rounds 0. in
  (* Warm all paths, then interleave round by round so clock drift and
     cache warmth hit every side equally (as the recovery bench does).
     Each round keeps the better of two runs per configuration: the
     comparison is between instrumentation paths, not scheduler noise. *)
  churn ();
  with_metrics churn;
  with_tracing churn;
  let timed f =
    let t0 = Unix.gettimeofday () in
    f churn;
    let t1 = Unix.gettimeofday () in
    f churn;
    let t2 = Unix.gettimeofday () in
    Float.min (t1 -. t0) (t2 -. t1) /. float_of_int n
  in
  for i = 0 to rounds - 1 do
    off.(i) <- timed (fun c -> c ());
    met.(i) <- timed with_metrics;
    on_.(i) <- timed with_tracing
  done;
  let p a q = Stats.percentile a ~p:q *. 1e6 in
  let p50_off = p off 50. and p95_off = p off 95. in
  let p50_met = p met 50. and p95_met = p met 95. in
  let p50_on = p on_ 50. and p95_on = p on_ 95. in
  (* The tracing toggle: "off" is the metrics-only baseline (the normal
     observed operating mode); "uninstrumented" is reported alongside so
     the registry's own cost stays visible. *)
  let overhead = (p95_on -. p95_met) /. p95_met *. 100. in
  Fmt.pr "fig8-mixed cached fast path (us/request over %d rounds of %d):@.@."
    rounds n;
  Fmt.pr "%-20s %10s %10s@." "" "p50" "p95";
  Fmt.pr "%-20s %10.2f %10.2f@." "uninstrumented" p50_off p95_off;
  Fmt.pr "%-20s %10.2f %10.2f@." "tracing off" p50_met p95_met;
  Fmt.pr "%-20s %10.2f %10.2f@." "tracing on" p50_on p95_on;
  Fmt.pr "@.tracing overhead at p95: %+.1f%%  (budget: <= 10%%)@." overhead;
  Fmt.pr "trace ring: %d entries recorded, %d retained, %d evicted@."
    (Obs_trace.total tracer) (Obs_trace.length tracer) (Obs_trace.evicted tracer);
  Fmt.pr
    "(each request records one bb.request span, five bb.stage spans and a@.";
  Fmt.pr "decision entry; uninstalled sites are a mutable read + branch)@.";
  let oc = open_out "BENCH_obs.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"obs\": {\n    \"scale\": %d,\n    \"requests_per_round\": %d,\n\
        \    \"rounds\": %d,\n    \"request_us\": {\n"
        scale n rounds;
      Printf.fprintf oc
        "      \"uninstrumented\": {\"p50\": %.3f, \"p95\": %.3f},\n" p50_off
        p95_off;
      Printf.fprintf oc
        "      \"tracing_off\": {\"p50\": %.3f, \"p95\": %.3f},\n" p50_met
        p95_met;
      Printf.fprintf oc
        "      \"tracing_on\": {\"p50\": %.3f, \"p95\": %.3f},\n" p50_on p95_on;
      Printf.fprintf oc "      \"p95_overhead_pct\": %.1f\n    },\n" overhead;
      Printf.fprintf oc
        "    \"trace_entries_total\": %d,\n    \"trace_evicted\": %d\n  }\n}\n"
        (Obs_trace.total tracer) (Obs_trace.evicted tracer));
  Fmt.pr "@.wrote BENCH_obs.json@."

(* ------------------------------------------------------------------ *)
(* Chaos scenario matrix: composed fault campaigns with recovery-SLO
   oracles and a standing invariant monitor.  Delegates to
   Bbr_scenario.Matrix; writes BENCH_scenarios.json. *)

let run_scenarios () =
  section "Chaos scenario matrix (recovery SLOs, standing invariant monitor)";
  let scale =
    match Sys.getenv_opt "BBR_BENCH_SCALE" with
    | Some s -> ( try Float.max 1. (float_of_string s) with _ -> 1.)
    | None -> 1.
  in
  let module Matrix = Bbr_scenario.Matrix in
  let module Runner = Bbr_scenario.Runner in
  let module Sc = Bbr_scenario.Scenario in
  let outcomes = Matrix.run_all ~scale () in
  Fmt.pr "%-26s %6s %8s %8s %9s %9s %8s %s@." "scenario" "pass" "offered"
    "admitted" "p95(s)" "brownout" "genuine" "slo";
  List.iter
    (fun (o : Runner.outcome) ->
      let slo_met =
        List.length (List.filter (fun (m : Bbr_scenario.Slo.measurement) -> m.Bbr_scenario.Slo.met) o.Runner.measurements)
      in
      Fmt.pr "%-26s %6b %8d %8d %9.3f %9.1f %8d %d/%d@."
        o.Runner.scenario.Sc.name (Runner.ok o) o.Runner.offered
        o.Runner.admitted o.Runner.p95_latency o.Runner.brownout_time
        (List.length o.Runner.genuine_anomalies)
        slo_met
        (List.length o.Runner.measurements))
    outcomes;
  Matrix.write_json ~path:"BENCH_scenarios.json" ~scale outcomes;
  Fmt.pr "@.wrote BENCH_scenarios.json@."

(* ------------------------------------------------------------------ *)
(* Storage-fault armor: the headline robustness claim, measured.  A busy
   broker journals through a segmented store (two checkpoint
   generations, sealed segments, an active tail); then every file is
   corrupted one bit at a time over a grid of byte offsets, and each
   corrupted clone is cold-recovered and classified:

     exact            bit-identical to the pre-corruption broker
     prefix_reported  a valid prefix state, loss reported, audit clean
     silent           wrong state or unreported loss  (must be 0)
     raised           recovery raised an exception    (must be 0)
     unrecoverable    no candidate worked             (must be 0)

   Sealed-segment trials additionally run the scrubber on the corrupted
   clone: detection must be 100% (the footer CRC covers every byte).
   Writes BENCH_storage.json. *)

module Storage = Bbr_broker.Storage
module Failover = Bbr_broker.Failover
module Snapshot = Bbr_broker.Snapshot
module Vfs = Bbr_util.Vfs

let run_storage () =
  section "Storage-fault armor: single-corruption recovery matrix";
  let scale =
    match Sys.getenv_opt "BBR_BENCH_SCALE" with
    | Some s -> ( try max 1 (int_of_float (float_of_string s)) with _ -> 1)
    | None -> 1
  in
  let classes = [ { Aggregate.class_id = 0; dreq = 3.; cd = 0.24 } ] in
  (* Capacity well above what the fixture books. *)
  let two_path () =
    let t = Topology.create () in
    ignore (Topology.add_link t ~src:"A" ~dst:"M1" ~capacity:2e7 Topology.Rate_based);
    ignore (Topology.add_link t ~src:"M1" ~dst:"B" ~capacity:2e7 Topology.Rate_based);
    ignore (Topology.add_link t ~src:"A" ~dst:"M2" ~capacity:2e7 Topology.Rate_based);
    ignore (Topology.add_link t ~src:"M2" ~dst:"B" ~capacity:2e7 Topology.Rate_based);
    t
  in
  let mk () = Broker.create ~classes (two_path ()) in
  let req = { Types.profile = type0; dreq = 3.; ingress = "A"; egress = "B" } in
  let vfs = Vfs.create ~seed:42 () in
  let st = Storage.create ~rotate_every:8 ~vfs () in
  let j = Journal.create ~fsync_every:1 ~storage:st () in
  let broker = mk () in
  let fw = Failover.create ~make_standby:mk ~journal:j broker in
  let n_ops = max 36 (145 / scale) in
  let per_flow = ref [] and last_class = ref None in
  for i = 1 to n_ops do
    (if i mod 3 = 0 then
       match Broker.request_class broker req with
       | Ok (f, _) -> last_class := Some f
       | Error _ -> ()
     else
       match Broker.request broker req with
       | Ok (f, _) -> per_flow := f :: !per_flow
       | Error _ -> ());
    (if i mod 7 = 0 then
       match !per_flow with
       | f :: rest ->
           Broker.teardown broker f;
           per_flow := rest
       | [] -> ());
    (if i mod 5 = 0 then
       match !last_class with
       | Some c -> (
           match Aggregate.owner (Broker.aggregate broker) ~flow:c with
           | Some (class_id, path_id) -> Broker.queue_empty broker ~class_id ~path_id
           | None -> ())
       | None -> ());
    if i = n_ops / 3 || i = 2 * n_ops / 3 then Failover.checkpoint fw
  done;
  let digest_full = Audit.mib_digest broker in
  (* Every digest a recovery is allowed to land on: the oldest retained
     generation's state, then each prefix of the record chain from its
     cover onward. *)
  let prefix_digests =
    let v = Vfs.copy vfs in
    let stc = Storage.create ~vfs:v () in
    match List.rev (Storage.candidates stc) with
    | [] -> failwith "storage bench: fixture has no verifiable checkpoint"
    | (_gen, cover, body) :: _ -> (
        let replica = mk () in
        (match Snapshot.restore replica body with
        | Ok _ -> ()
        | Error e -> failwith ("storage bench: pristine restore failed: " ^ e));
        let digests = ref [ Audit.mib_digest replica ] in
        let tail = Storage.tail_from stc ~cover in
        match Journal.parse (Journal.text_of_lines tail.Storage.lines) with
        | Error e -> failwith ("storage bench: pristine tail bad: " ^ e)
        | Ok (entries, _) ->
            List.iter
              (fun (_at, m) ->
                (match Journal.apply replica m with
                | Ok () -> ()
                | Error e -> failwith ("storage bench: pristine apply failed: " ^ e));
                digests := Audit.mib_digest replica :: !digests)
              entries;
            !digests)
  in
  if List.hd prefix_digests <> digest_full then
    failwith "storage bench: ground-truth digest chain does not end at the live state";
  let files = Vfs.list vfs in
  (* A segment is active until its seal footer is written: the footer is
     its last line.  Rotation opens the next segment lazily, so a run
     that ends on a segment boundary has no active segment at all. *)
  let sealed f =
    match Vfs.read vfs ~name:f with
    | Error _ -> false
    | Ok c ->
        let body = String.sub c 0 (max 0 (String.length c - 1)) in
        let last =
          match String.rindex_opt body '\n' with
          | Some i -> String.sub body (i + 1) (String.length body - i - 1)
          | None -> body
        in
        String.starts_with ~prefix:"seal " last
  in
  let region_of f =
    if String.starts_with ~prefix:"ckpt" f then "checkpoint"
    else if sealed f then "sealed_segment"
    else "active_segment"
  in
  if not (List.exists (fun f -> region_of f = "active_segment") files) then
    failwith "storage bench: fixture ends on a segment boundary (no active segment)";
  let classify ~file ~at ~bit =
    let v = Vfs.copy vfs in
    if not (Vfs.corrupt v ~name:file ~at ~bit) then `Skip
    else
      let stc = Storage.create ~vfs:v () in
      match Failover.recover_from ~make:mk stc with
      | exception _ -> `Raised
      | Error _ -> `Unrecoverable
      | Ok (b, _, r) ->
          let d = Audit.mib_digest b in
          if d = digest_full then `Exact
          else if not (List.mem d prefix_digests) then `Silent
          else if not (Failover.recovery_loss r) then `Silent
          else if not (Audit.ok (Audit.check b)) then `Silent
          else `Prefix
  in
  let detected_by_scrub ~file ~at ~bit =
    let v = Vfs.copy vfs in
    ignore (Vfs.corrupt v ~name:file ~at ~bit);
    not (Storage.scrub_clean (Storage.scrub (Storage.create ~vfs:v ())))
  in
  let bits = if scale > 1 then [ 0 ] else [ 0; 3; 7 ] in
  let offsets_per_file = max 6 (64 / scale) in
  let regions = Hashtbl.create 4 in
  let counts region =
    match Hashtbl.find_opt regions region with
    | Some c -> c
    | None ->
        let c = Array.make 7 0 in
        (* trials exact prefix silent raised unrec detected *)
        Hashtbl.add regions region c;
        c
  in
  List.iter
    (fun file ->
      let region = region_of file in
      let c = counts region in
      let size = Vfs.size vfs ~name:file in
      let stride = max 1 (size / offsets_per_file) in
      let at = ref 0 in
      while !at < size do
        List.iter
          (fun bit ->
            (match classify ~file ~at:!at ~bit with
            | `Skip -> ()
            | v ->
                c.(0) <- c.(0) + 1;
                let slot =
                  match v with
                  | `Exact -> 1
                  | `Prefix -> 2
                  | `Silent -> 3
                  | `Raised -> 4
                  | `Unrecoverable | `Skip -> 5
                in
                c.(slot) <- c.(slot) + 1);
            if region = "sealed_segment" && detected_by_scrub ~file ~at:!at ~bit
            then c.(6) <- c.(6) + 1)
          bits;
        at := !at + stride
      done)
    files;
  let region_names = [ "checkpoint"; "sealed_segment"; "active_segment" ] in
  Fmt.pr "%-16s %7s %7s %7s %7s %7s %7s@." "region" "trials" "exact" "prefix"
    "silent" "raised" "unrec";
  List.iter
    (fun r ->
      let c = counts r in
      Fmt.pr "%-16s %7d %7d %7d %7d %7d %7d@." r c.(0) c.(1) c.(2) c.(3) c.(4)
        c.(5))
    region_names;
  let sealed = counts "sealed_segment" in
  let detection_rate =
    if sealed.(0) = 0 then 1. else float_of_int sealed.(6) /. float_of_int sealed.(0)
  in
  Fmt.pr "sealed-segment scrub detection: %d/%d (%.3f)@." sealed.(6) sealed.(0)
    detection_rate;
  let t0 = Sys.time () in
  let scrub_report = Storage.scrub (Storage.create ~vfs:(Vfs.copy vfs) ()) in
  (* Printed, not written: the artifact holds counts only, so it
     regenerates byte for byte. *)
  Fmt.pr "scrub of the pristine store: %d segments in %.6g s@."
    scrub_report.Storage.segments_checked
    (Sys.time () -. t0);
  let segments =
    List.length
      (List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "seg-") files)
  in
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n  \"schema\": \"bbr/storage/v1\",\n  \"scale\": %d,\n" scale;
  pf "  \"fixture\": {\n    \"ops\": %d,\n    \"files\": %d,\n    \"segments\": %d,\n"
    n_ops (List.length files) segments;
  pf "    \"checkpoint_generations\": %d,\n    \"prefix_states\": %d,\n    \"bytes\": %d\n  },\n"
    (List.length (Storage.candidates st))
    (List.length prefix_digests) (Vfs.total_bytes vfs);
  pf "  \"matrix\": [";
  List.iteri
    (fun i r ->
      let c = counts r in
      if i > 0 then pf ",";
      pf
        "\n    { \"region\": %S, \"trials\": %d, \"exact\": %d, \
         \"prefix_reported\": %d, \"silent\": %d, \"raised\": %d, \
         \"unrecoverable\": %d }"
        r c.(0) c.(1) c.(2) c.(3) c.(4) c.(5))
    region_names;
  pf "\n  ],\n";
  let total i = List.fold_left (fun a r -> a + (counts r).(i)) 0 region_names in
  pf
    "  \"totals\": { \"trials\": %d, \"silent\": %d, \"raised\": %d, \
     \"unrecoverable\": %d, \"sealed_detection_rate\": %.6g },\n"
    (total 0) (total 3) (total 4) (total 5) detection_rate;
  pf "  \"scrub\": { \"segments_checked\": %d, \"clean\": %b }\n}\n"
    scrub_report.Storage.segments_checked
    (Storage.scrub_clean scrub_report);
  let oc = open_out "BENCH_storage.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Fmt.pr "@.wrote BENCH_storage.json@."

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table2", run_table2);
    ("fig9", run_fig9);
    ("fig10", run_fig10);
    ("fig5", run_fig5);
    ("fig7", run_fig7);
    ("bounds", run_bounds);
    ("overhead", run_overhead);
    ("hierarchy", run_hierarchy);
    ("state", run_state);
    ("failover", run_failover);
    ("recovery", run_recovery);
    ("overload", run_overload_bench);
    ("federation", run_federation_bench);
    ("admission_throughput", run_admission_throughput);
    ("scenarios", run_scenarios);
    ("storage", run_storage);
    ("scaling", run_scaling);
    ("statistical", run_statistical);
    ("admission", run_admission);
    ("obs", run_obs);
    ("micro", run_micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section %S; available: %s@." name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested
