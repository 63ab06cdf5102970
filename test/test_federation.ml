(* The failure-isolated inter-domain federation protocol: per-segment
   2PC with compensation, retry/timeout/backoff under loss, partitions,
   domain crashes, TTL reaping, and crash-recoverable coordinator state. *)

module Engine = Bbr_netsim.Engine
module Prng = Bbr_util.Prng
module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Federation = Bbr_interdomain.Federation
module Exchange = Bbr_broker.Exchange
module Fed_soak = Bbr_workload.Fed_soak
module Topo_gen = Bbr_workload.Topo_gen

let check_float = Alcotest.(check (float 1e-6))

let type0 = Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.

let engine_time eng =
  {
    Broker.now = (fun () -> Engine.now eng);
    after = (fun delay f -> Engine.schedule_after eng ~delay f);
  }

(* A linear federation A -> B -> ... over 2-hop rate-based chain domains,
   on an engine-driven clock. *)
let linear_fed ?config eng n =
  let fed = Federation.create ~time:(engine_time eng) ?config () in
  let names = Array.init n (fun i -> String.make 1 (Char.chr (Char.code 'A' + i))) in
  let gates =
    Array.map
      (fun name ->
        let topo, ingress, egress =
          Topo_gen.chain ~prefix:name ~capacity:1.5e6 ~sched:Topology.Rate_based
            ~hops:2 ()
        in
        ignore (Federation.add_domain fed ~name topo);
        (ingress, egress))
      names
  in
  for i = 0 to n - 2 do
    Federation.add_peering fed ~from_domain:names.(i) ~from_egress:(snd gates.(i))
      ~to_domain:names.(i + 1) ~to_ingress:(fst gates.(i + 1))
      ~committed_rate:600_000. ()
  done;
  (fed, names, gates)

let ep_of names gates i j =
  {
    Federation.src_domain = names.(i);
    src_ingress = fst gates.(i);
    dst_domain = names.(j);
    dst_egress = snd gates.(j);
  }

let no_stranded fed names =
  let audit = Federation.audit fed in
  let held =
    Array.fold_left
      (fun acc name ->
        match Federation.broker fed ~domain:name with
        | None -> acc
        | Some b ->
            acc +. Bbr_broker.Flow_mib.total_reserved_rate (Broker.flow_mib b))
      0. names
  in
  Float.abs (held -. audit.Federation.checked_segments_rate) <= 1e-3

let assert_clean ?(msg = "audit") fed names =
  let audit = Federation.audit fed in
  if not (Federation.audit_ok audit) then
    Alcotest.failf "%s: %a" msg Federation.pp_report audit;
  Alcotest.(check bool) (msg ^ ": no stranded bandwidth") true (no_stranded fed names);
  Alcotest.(check int) (msg ^ ": obligations drained") 0
    (Federation.obligations_pending fed)

(* ------------------------------------------------------------------ *)
(* Clean-path asynchronous protocol.                                  *)

let test_async_commit () =
  let eng = Engine.create () in
  let fed, names, gates = linear_fed eng 3 in
  let decided = ref None in
  Engine.schedule eng ~at:0.1 (fun () ->
      ignore
        (Federation.request_async fed (ep_of names gates 0 2) ~profile:type0 ~dreq:6.
           ~on_decision:(fun r -> decided := Some r)));
  Engine.run eng;
  (match !decided with
  | Some (Ok r) ->
      Alcotest.(check (list string)) "three domains" [ "A"; "B"; "C" ]
        r.Federation.domains;
      check_float "rate at rho" 50_000. r.Federation.rate
  | Some (Error e) -> Alcotest.failf "rejected: %a" Types.pp_reject_reason e
  | None -> Alcotest.fail "no decision");
  Alcotest.(check int) "one live flow" 1 (Federation.flow_count fed);
  assert_clean fed names

let test_commit_under_loss () =
  (* 30% loss both directions: retransmission and obligation retries must
     still land every booking, notification and ack. *)
  let eng = Engine.create () in
  let fed, names, gates = linear_fed eng 3 in
  let rng = Prng.create ~seed:42 in
  Federation.set_faults fed
    {
      Exchange.drop = Bbr_netsim.Fault.drop rng ~p:0.3;
      duplicate = Bbr_netsim.Fault.drop rng ~p:0.1;
      extra_delay = (fun () -> Prng.float rng *. 0.01);
    };
  let commits = ref 0 and fails = ref 0 in
  for k = 0 to 4 do
    Engine.schedule eng
      ~at:(0.5 +. (0.7 *. float_of_int k))
      (fun () ->
        ignore
          (Federation.request_async fed (ep_of names gates 0 2) ~profile:type0
             ~dreq:6. ~on_decision:(function
            | Ok _ -> incr commits
            | Error _ -> incr fails)))
  done;
  Engine.schedule eng ~at:30. (fun () ->
      Federation.set_faults fed Exchange.no_faults;
      Federation.pump fed);
  Engine.run eng;
  Alcotest.(check int) "all five decided" 5 (!commits + !fails);
  Alcotest.(check bool) "most commit despite loss" true (!commits >= 3);
  Alcotest.(check int) "flows match commits minus compensations" !commits
    (Federation.flow_count fed);
  let stats = Federation.stats fed in
  Alcotest.(check bool) "retries happened" true (stats.Federation.retries > 0);
  assert_clean fed names

let test_unreachable_peer_compensates () =
  (* Domain C partitioned for the whole prepare window: the transaction
     gives up with Peer_unreachable and compensates A and B; nothing is
     left behind once the partition heals. *)
  let eng = Engine.create () in
  let fed, names, gates = linear_fed eng 3 in
  Federation.set_reachable fed ~domain:"C" false;
  let decided = ref None in
  Engine.schedule eng ~at:0.1 (fun () ->
      ignore
        (Federation.request_async fed (ep_of names gates 0 2) ~profile:type0 ~dreq:6.
           ~on_decision:(fun r -> decided := Some r)));
  Engine.schedule eng ~at:60. (fun () ->
      Federation.set_reachable fed ~domain:"C" true;
      Federation.pump fed);
  Engine.run eng;
  (match !decided with
  | Some (Error (Types.Peer_unreachable d)) ->
      Alcotest.(check string) "names the silent domain" "C" d
  | Some (Ok _) -> Alcotest.fail "must not commit through a partition"
  | Some (Error e) -> Alcotest.failf "wrong reason: %a" Types.pp_reject_reason e
  | None -> Alcotest.fail "no decision");
  Alcotest.(check int) "no flow" 0 (Federation.flow_count fed);
  let used, _ = Federation.sla_usage_exn fed ~from_domain:"A" ~to_domain:"B" in
  check_float "sla released" 0. used;
  let stats = Federation.stats fed in
  Alcotest.(check bool) "compensations enqueued" true
    (stats.Federation.compensations > 0);
  assert_clean fed names

let test_domain_crash_and_reap () =
  (* Domain C crashes before the PREPARE lands: it consumes every
     retransmission without reacting, the transaction gives up with
     Peer_unreachable, and the compensating releases — retried while C
     is down — reconcile everything once C comes back. *)
  let eng = Engine.create () in
  let config = { Federation.default_config with prepare_ttl = 5. } in
  let fed, names, gates = linear_fed ~config eng 3 in
  Engine.schedule eng ~at:0.05 (fun () ->
      Federation.set_domain_up fed ~domain:"C" false);
  let decided = ref None in
  Engine.schedule eng ~at:0.1 (fun () ->
      ignore
        (Federation.request_async fed (ep_of names gates 0 2) ~profile:type0 ~dreq:6.
           ~on_decision:(fun r -> decided := Some r)));
  Engine.schedule eng ~at:40. (fun () ->
      Federation.set_domain_up fed ~domain:"C" true;
      Federation.pump fed);
  Engine.schedule eng ~at:50. (fun () -> ignore (Federation.reap fed));
  Engine.run eng;
  (match !decided with
  | Some (Error (Types.Peer_unreachable _)) -> ()
  | _ -> Alcotest.fail "expected Peer_unreachable compensation");
  assert_clean fed names

let test_commit_nack_compensates_whole_flow () =
  (* The commit notifications are lost long enough for domain C's TTL
     reaper to clear its prepared booking; when the retried commit
     finally lands, C refuses it and the coordinator must compensate the
     whole flow — no half-committed remnants in A or B. *)
  let eng = Engine.create () in
  let config = { Federation.default_config with prepare_ttl = 2. } in
  let fed, names, gates = linear_fed ~config eng 3 in
  let decided = ref None in
  Engine.schedule eng ~at:0.1 (fun () ->
      ignore
        (Federation.request_async fed (ep_of names gates 0 2) ~profile:type0 ~dreq:6.
           ~on_decision:(fun r -> decided := Some r)));
  (* The commit happens at ~0.11 and its notifications are in flight;
     partition C before its copy lands (delivery checks reachability), so
     C never learns of the commit. *)
  Engine.schedule eng ~at:0.112 (fun () ->
      Federation.set_reachable fed ~domain:"C" false);
  (* While C is dark, its TTL reaper clears the prepared, never-committed
     segment. *)
  Engine.schedule eng ~at:4. (fun () ->
      Alcotest.(check int) "one orphan reaped" 1 (Federation.reap fed));
  Engine.schedule eng ~at:8. (fun () ->
      Federation.set_reachable fed ~domain:"C" true;
      Federation.pump fed);
  Engine.run eng;
  (match !decided with
  | Some (Ok _) -> () (* the commit decision stood when it was made *)
  | _ -> Alcotest.fail "expected an initial commit");
  let stats = Federation.stats fed in
  Alcotest.(check bool) "commit nack seen" true (stats.Federation.commit_nacks >= 1);
  Alcotest.(check int) "flow compensated away" 0 (Federation.flow_count fed);
  let used, _ = Federation.sla_usage_exn fed ~from_domain:"A" ~to_domain:"B" in
  check_float "sla released" 0. used;
  assert_clean fed names

(* ------------------------------------------------------------------ *)
(* Coordinator crash and journal recovery.                            *)

let test_coordinator_crash_recovery () =
  let eng = Engine.create () in
  let fed, names, gates = linear_fed eng 3 in
  let flows = ref [] in
  for k = 0 to 3 do
    Engine.schedule eng
      ~at:(0.1 +. (0.2 *. float_of_int k))
      (fun () ->
        ignore
          (Federation.request_async fed (ep_of names gates 0 2) ~profile:type0
             ~dreq:6. ~on_decision:(function
            | Ok r -> flows := r.Federation.flow :: !flows
            | Error e -> Alcotest.failf "rejected: %a" Types.pp_reject_reason e)))
  done;
  (* Leave one transaction undecided at the crash: partition C so its
     PREPARE is never answered. *)
  Engine.schedule eng ~at:2. (fun () ->
      Federation.set_reachable fed ~domain:"C" false;
      ignore
        (Federation.request_async fed (ep_of names gates 0 2) ~profile:type0 ~dreq:6.
           ~on_decision:(fun _ -> ())));
  let digest_match = ref None in
  let recovered = ref 0 and aborts = ref 0 in
  Engine.schedule eng ~at:2.1 (fun () ->
      let digest = Federation.decision_digest fed in
      let used_before, _ = Federation.sla_usage_exn fed ~from_domain:"A" ~to_domain:"B" in
      ignore (Federation.crash_coordinator fed);
      Alcotest.(check int) "crash wipes volatile flows" 0 (Federation.flow_count fed);
      let r = Federation.recover_coordinator fed in
      digest_match := Some (String.equal digest r.Federation.replayed_digest);
      recovered := r.Federation.recovered_flows;
      aborts := r.Federation.recovery_aborts;
      let used_after, _ = Federation.sla_usage_exn fed ~from_domain:"A" ~to_domain:"B" in
      check_float "sla usage replayed exactly" used_before used_after);
  Engine.schedule eng ~at:3. (fun () ->
      Federation.set_reachable fed ~domain:"C" true;
      Federation.pump fed);
  Engine.run eng;
  Alcotest.(check (option bool)) "digest-exact replay" (Some true) !digest_match;
  Alcotest.(check int) "all committed flows recovered" 4 !recovered;
  Alcotest.(check int) "undecided transaction aborted by recovery" 1 !aborts;
  Alcotest.(check int) "flows live again" 4 (Federation.flow_count fed);
  (* recovered flows remain fully operational *)
  List.iter (fun f -> Federation.teardown fed f) !flows;
  Engine.run eng;
  Alcotest.(check int) "teardown after recovery works" 0 (Federation.flow_count fed);
  assert_clean fed names

let test_torn_tail_tolerated () =
  (* With a wider fsync window the crash tears the journal mid-record;
     recovery truncates at the tear and still replays a consistent
     prefix. *)
  let eng = Engine.create () in
  let config = { Federation.default_config with fsync_every = 4 } in
  let fed, names, gates = linear_fed ~config eng 2 in
  for k = 0 to 2 do
    Engine.schedule eng
      ~at:(0.1 +. (0.2 *. float_of_int k))
      (fun () ->
        ignore
          (Federation.request_async fed (ep_of names gates 0 1) ~profile:type0
             ~dreq:6. ~on_decision:(fun _ -> ())))
  done;
  Engine.schedule eng ~at:2. (fun () ->
      let lost = Federation.crash_coordinator fed in
      Alcotest.(check bool) "unsynced tail lost" true (lost > 0);
      let r = Federation.recover_coordinator fed in
      Alcotest.(check bool) "torn tail reported" true (r.Federation.replay_warning <> None));
  Engine.schedule eng ~at:3. (fun () -> Federation.pump fed);
  Engine.run eng;
  (* Whatever the journal forgot, the domains still hold: releases and
     reaping must reconcile the survivors.  The recovered coordinator
     re-resolves everything it knew about; segments of forgotten
     transactions are TTL-reaped. *)
  Engine.run eng;
  Alcotest.(check int) "obligations drained" 0 (Federation.obligations_pending fed);
  ignore names

(* ------------------------------------------------------------------ *)
(* The storm: random request/teardown/fault/crash interleavings.       *)

let storm_once seed =
  let eng = Engine.create () in
  let config =
    { Federation.default_config with prepare_ttl = 6.; prepare_retries = 4 }
  in
  let fed, names, gates = linear_fed ~config eng 4 in
  let rng = Prng.create ~seed in
  let chaos_rng = Prng.split rng in
  let committed = ref [] in
  let at = ref 0.1 in
  let chaos_on () =
    Federation.set_faults fed
      {
        Exchange.drop = Bbr_netsim.Fault.drop chaos_rng ~p:0.25;
        duplicate = Bbr_netsim.Fault.drop chaos_rng ~p:0.1;
        extra_delay = (fun () -> Prng.float chaos_rng *. 0.02);
      }
  in
  for _ = 1 to 40 do
    at := !at +. Prng.exponential rng ~mean:0.4;
    let now = !at in
    match Prng.int rng ~bound:10 with
    | 0 | 1 | 2 | 3 ->
        let i = Prng.int rng ~bound:4 and j = Prng.int rng ~bound:4 in
        let j = if i = j then (j + 1) mod 4 else j in
        let i, j = if i < j then (i, j) else (j, i) in
        Engine.schedule eng ~at:now (fun () ->
            ignore
              (Federation.request_async fed (ep_of names gates i j) ~profile:type0
                 ~dreq:8. ~on_decision:(function
                | Ok r -> committed := r.Federation.flow :: !committed
                | Error _ -> ())))
    | 4 | 5 ->
        Engine.schedule eng ~at:now (fun () ->
            match !committed with
            | f :: rest ->
                committed := rest;
                Federation.teardown fed f
            | [] -> ())
    | 6 ->
        Engine.schedule eng ~at:now (fun () ->
            if Prng.bool rng then chaos_on ()
            else Federation.set_faults fed Exchange.no_faults)
    | 7 ->
        let d = names.(Prng.int rng ~bound:4) in
        let down = Prng.bool rng in
        Engine.schedule eng ~at:now (fun () ->
            if Prng.bool rng then Federation.set_reachable fed ~domain:d (not down)
            else Federation.set_domain_up fed ~domain:d (not down))
    | 8 ->
        Engine.schedule eng ~at:now (fun () -> ignore (Federation.reap fed))
    | _ ->
        Engine.schedule eng ~at:now (fun () ->
            let digest = Federation.decision_digest fed in
            ignore (Federation.crash_coordinator fed);
            let r = Federation.recover_coordinator fed in
            if not (String.equal digest r.Federation.replayed_digest) then
              Alcotest.fail "storm: replay digest mismatch")
  done;
  (* Heal everything, drain, reap, and require a spotless end state. *)
  let heal_at = !at +. 1. in
  Engine.schedule eng ~at:heal_at (fun () ->
      Federation.set_faults fed Exchange.no_faults;
      Array.iter
        (fun d ->
          Federation.set_reachable fed ~domain:d true;
          Federation.set_domain_up fed ~domain:d true)
        names;
      Federation.pump fed);
  Engine.schedule eng ~at:(heal_at +. 30.) (fun () -> ignore (Federation.reap fed));
  Engine.run eng;
  ignore (Federation.reap fed);
  let audit = Federation.audit fed in
  Federation.audit_ok audit
  && Federation.obligations_pending fed = 0
  && no_stranded fed names
  && Federation.in_flight fed = 0

let storm_prop =
  QCheck.Test.make ~count:20
    ~name:
      "storm: random request/teardown/fault/crash interleavings leave audit-clean \
       MIBs, no stranded bandwidth and an empty obligation queue once faults heal"
    QCheck.(int_range 1 1_000_000)
    storm_once

(* ------------------------------------------------------------------ *)
(* Soak smoke (the full-size run is bbsim federation / CI / bench).    *)

let test_soak_smoke () =
  let cfg =
    {
      Fed_soak.default_config with
      Fed_soak.n_domains = 10;
      arrival_rate = 1.5;
      duration = 60.;
      fault_from = 10.;
      fault_until = 40.;
      partition_from = 15.;
      partition_until = 30.;
      domain_crash_from = 20.;
      domain_crash_until = 35.;
      crash_coordinator_at = Some 45.;
      mean_holding = 15.;
    }
  in
  let o = Fed_soak.run cfg in
  if not (Fed_soak.ok o) then Alcotest.failf "soak not clean: %a" Fed_soak.pp_outcome o;
  Alcotest.(check bool) "work happened" true (o.Fed_soak.committed > 20);
  Alcotest.(check (option bool)) "digest-exact recovery" (Some true)
    o.Fed_soak.digest_match;
  (* Every counter at its pinned value: a change to the channel, the
     retry schedule or the order of their draws moves one of them. *)
  let s = o.Fed_soak.stats in
  Alcotest.(check string) "soak counters"
    "committed 70 compensated 15 prepares 378 retries 286 compensations 64 reaped 0 \
     messages 1872 dropped 189 duplicated 20 recovered 13"
    (Printf.sprintf
       "committed %d compensated %d prepares %d retries %d compensations %d reaped %d \
        messages %d dropped %d duplicated %d recovered %d"
       o.Fed_soak.committed o.Fed_soak.compensated s.Federation.prepares
       s.Federation.retries s.Federation.compensations s.Federation.reaped
       s.Federation.messages s.Federation.dropped s.Federation.duplicated
       o.Fed_soak.recovered_flows)

let () =
  Alcotest.run "federation"
    [
      ( "protocol",
        [
          Alcotest.test_case "async commit" `Quick test_async_commit;
          Alcotest.test_case "commit under loss" `Quick test_commit_under_loss;
          Alcotest.test_case "unreachable peer" `Quick test_unreachable_peer_compensates;
          Alcotest.test_case "domain crash + reap" `Quick test_domain_crash_and_reap;
          Alcotest.test_case "commit nack" `Quick test_commit_nack_compensates_whole_flow;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash_recovery;
          Alcotest.test_case "torn tail" `Quick test_torn_tail_tolerated;
        ] );
      ("storm", [ QCheck_alcotest.to_alcotest storm_prop ]);
      ("soak", [ Alcotest.test_case "smoke" `Slow test_soak_smoke ]);
    ]
