(* Causal-context properties of the tracer: whatever workload runs under
   an installed tracer, the recorded entries must assemble into coherent
   span trees.  Checked across the three span-producing subsystems —
   plain broker request/batch interleavings, the overload admission
   pipeline (sim-extended queue/service spans, COPS busy backoff), and
   the federation chaos soak (2PC legs finishing in later engine
   callbacks, crash/recovery) — under random seeds and fault windows.

   Invariants, over the retained entries (ring sized to avoid eviction):

   - every context carries a valid (trace, span) pair, and a finished
     span's parent exists as a finished span of the same trace;
   - a child span's sim-time interval is contained in its parent's;
   - events and decisions with a context point at an existing span of
     the same trace, and their instant lies inside that span's sim
     extent. *)

module Trace = Bbr_obs.Trace
module Broker = Bbr_broker.Broker
module Types = Bbr_broker.Types
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles
module Scenario = Bbr_scenario.Scenario
module Runner = Bbr_scenario.Runner
module Fed_soak = Bbr_workload.Fed_soak
module Prng = Bbr_util.Prng

let eps = 1e-9

type fail = { entry : Trace.entry; what : string }

let pp_fail f =
  Format.asprintf "%s: %a" f.what (fun ppf e -> Trace.pp_entry ppf e) f.entry

(* Check the invariants over one run's entries; returns the first
   violation, if any. *)
let coherence_violation entries =
  let spans = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.entry) ->
      match (e.Trace.payload, e.Trace.ctx) with
      | Trace.Span _, Some c ->
          Hashtbl.replace spans (c.Trace.trace_id, c.Trace.span_id) e
      | _ -> ())
    entries;
  let interval (e : Trace.entry) = (e.Trace.sim_time, e.Trace.sim_time +. e.Trace.sim_dur) in
  let contained ~outer:(lo, hi) ~inner:(lo', hi') =
    lo' >= lo -. eps && hi' <= hi +. eps
  in
  let check_entry acc (e : Trace.entry) =
    if acc <> None then acc
    else
      match e.Trace.ctx with
      | None -> None
      | Some c -> (
          match e.Trace.payload with
          | Trace.Span _ -> (
              match c.Trace.parent with
              | None -> None
              | Some p -> (
                  match Hashtbl.find_opt spans (c.Trace.trace_id, p) with
                  | None -> Some { entry = e; what = "span parent missing from trace" }
                  | Some pe ->
                      if contained ~outer:(interval pe) ~inner:(interval e)
                      then None
                      else
                        Some
                          {
                            entry = e;
                            what =
                              Printf.sprintf
                                "child sim interval outside parent's ([%f, %f])"
                                (fst (interval pe))
                                (snd (interval pe));
                          }))
          | Trace.Event | Trace.Decision _ -> (
              match Hashtbl.find_opt spans (c.Trace.trace_id, c.Trace.span_id) with
              | None ->
                  Some { entry = e; what = "event's enclosing span missing" }
              | Some pe ->
                  let lo, hi = interval pe in
                  if e.Trace.sim_time >= lo -. eps && e.Trace.sim_time <= hi +. eps
                  then None
                  else Some { entry = e; what = "event outside enclosing span" }))
  in
  List.fold_left check_entry None entries

let with_tracer ~capacity f =
  let t = Trace.create ~capacity () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () -> f t)

let assert_coherent ~ctx t =
  if Trace.total t = 0 then
    QCheck.Test.fail_reportf "%s: workload recorded no entries" ctx
  else if Trace.evicted t > 0 then
    QCheck.Test.fail_reportf "%s: ring evicted %d entries (undersized test ring)"
      ctx (Trace.evicted t)
  else
    match coherence_violation (Trace.entries t) with
    | None -> true
    | Some f -> QCheck.Test.fail_reportf "%s: %s" ctx (pp_fail f)

(* --- random broker request/batch interleavings ----------------------- *)

let requests_coherent seed =
  with_tracer ~capacity:(1 lsl 16) (fun t ->
      let broker = Broker.create (Fig8.topology `Mixed) in
      let prng = Prng.create ~seed in
      let live = Queue.create () in
      for _ = 1 to 120 do
        let req () =
          let ingress, egress =
            if Prng.float prng < 0.5 then (Fig8.ingress1, Fig8.egress1)
            else (Fig8.ingress2, Fig8.egress2)
          in
          {
            Types.profile = Profiles.profile (Prng.int prng ~bound:4);
            dreq = Prng.float_range prng ~lo:0.5 ~hi:6.;
            ingress;
            egress;
          }
        in
        match Prng.int prng ~bound:4 with
        | 0 | 1 -> (
            match Broker.request broker (req ()) with
            | Ok (flow, _) -> Queue.push flow live
            | Error _ -> ())
        | 2 ->
            let n = 1 + Prng.int prng ~bound:4 in
            List.iter
              (function
                | Ok (flow, _) -> Queue.push flow live
                | Error _ -> ())
              (let reqs = List.init n (fun _ -> req ()) in
               Broker.batched broker (fun () -> List.map (Broker.request broker) reqs))
        | _ ->
            if not (Queue.is_empty live) then
              Broker.teardown broker (Queue.pop live)
      done;
      assert_coherent ~ctx:"requests" t)

(* --- overload pipeline ----------------------------------------------- *)

let overload_coherent seed =
  with_tracer ~capacity:(1 lsl 17) (fun t ->
      let sc =
        if seed mod 2 = 0 then Bbr_scenario.Matrix.fig10_overload
        else Bbr_scenario.Matrix.fig10_overload_flat
      in
      let (_ : Runner.outcome) =
        Runner.run
          {
            sc with
            Scenario.seed;
            load = Scenario.Constant (0.15 *. (4. +. float_of_int (seed mod 17)));
            duration = 40.;
            horizon = 200.;
          }
      in
      assert_coherent ~ctx:"overload" t)

(* --- federation chaos soak ------------------------------------------- *)

let federation_coherent seed =
  with_tracer ~capacity:(1 lsl 17) (fun t ->
      let cfg =
        {
          Fed_soak.default_config with
          Fed_soak.seed;
          n_domains = 4 + (seed mod 4);
          extra_peerings = seed mod 3;
          arrival_rate = 2.;
          duration = 30.;
          mean_holding = 8.;
          fault_from = 5.;
          fault_until = 20.;
          partition_from = 8.;
          partition_until = 15.;
          domain_crash_from = 10.;
          domain_crash_until = 18.;
          crash_coordinator_at = (if seed mod 2 = 0 then Some 22. else None);
        }
      in
      let (_ : Fed_soak.outcome) = Fed_soak.run cfg in
      assert_coherent ~ctx:"federation" t)

let prop name ~count f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 1 1_000_000) f)

(* Seed 14239 once produced a bb.cops.busy_wait span outliving its
   bb.cops.exchange parent: a stale DEC resolved the exchange mid-backoff
   and the retry timer finished the wait span after the parent closed.
   Kept as a deterministic regression alongside the random sweeps. *)
let test_busy_wait_truncation () =
  Alcotest.(check bool)
    "overload seed 14239 coherent" true (overload_coherent 14239)

let () =
  Alcotest.run "tracectx"
    [
      ( "properties",
        [
          prop "request/batch interleavings build coherent span trees"
            ~count:25 requests_coherent;
          prop "overload pipeline spans nest inside their pipeline roots"
            ~count:8 overload_coherent;
          prop
            "federation 2PC spans form one coherent tree per transaction \
             under chaos"
            ~count:8 federation_coherent;
          Alcotest.test_case "busy-wait truncated at stale-DEC resolution"
            `Quick test_busy_wait_truncation;
        ] );
    ]
