(* Tests for crash-consistent broker state: the write-ahead journal and
   its replay, journal-aware failover, the MIB audit with anti-entropy
   repair, deterministic resume of auxiliary state, and fuzzing of the
   recovery decoders against truncated/corrupted inputs. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Aggregate = Bbr_broker.Aggregate
module Journal = Bbr_broker.Journal
module Snapshot = Bbr_broker.Snapshot
module Failover = Bbr_broker.Failover
module Storage = Bbr_broker.Storage
module Audit = Bbr_broker.Audit
module Flow_mib = Bbr_broker.Flow_mib
module Node_mib = Bbr_broker.Node_mib
module Scenario = Bbr_scenario.Scenario
module Runner = Bbr_scenario.Runner
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles
module Prng = Bbr_util.Prng
module Crc32 = Bbr_util.Crc32

let type0 = Profiles.profile 0

let req ?(ingress = "A") ?(egress = "B") ?(dreq = 3.) ?(profile = type0) () =
  { Types.profile; dreq; ingress; egress }

(* Two parallel 2-hop paths A -> M1 -> B and A -> M2 -> B, generous
   capacity so class joins with contingency in flight always fit. *)
let two_path () =
  let t = Topology.create () in
  ignore (Topology.add_link t ~src:"A" ~dst:"M1" ~capacity:2e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"M1" ~dst:"B" ~capacity:2e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"A" ~dst:"M2" ~capacity:2e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"M2" ~dst:"B" ~capacity:2e6 Topology.Rate_based);
  t

let classes = [ { Aggregate.class_id = 0; dreq = 3.; cd = 0.24 } ]

let mk_broker topo = Broker.create ~classes topo

let admit broker =
  match Broker.request broker (req ()) with
  | Ok (flow, _) -> flow
  | Error e -> Alcotest.failf "unexpected rejection: %a" Types.pp_reject_reason e

let admit_class broker =
  match Broker.request_class broker (req ()) with
  | Ok (flow, _) -> flow
  | Error e -> Alcotest.failf "unexpected rejection: %a" Types.pp_reject_reason e

(* A broker exercising every mutation kind, with its journal: per-flow
   admissions and teardowns, class joins/leaves, a queue-empty signal and
   a link failure (evacuate + re-admit cascade). *)
let busy_broker () =
  let topo = two_path () in
  let broker = mk_broker topo in
  let j = Journal.create () in
  Journal.attach j broker;
  let f1 = admit broker in
  let _f2 = admit broker in
  let c1 = admit_class broker in
  let _c2 = admit_class broker in
  Broker.teardown broker f1;
  (match Aggregate.owner (Broker.aggregate broker) ~flow:c1 with
  | Some (class_id, path_id) -> Broker.queue_empty broker ~class_id ~path_id
  | None -> Alcotest.fail "class member has no owner");
  ignore (Broker.fail_link broker ~link_id:0);
  Broker.restore_link broker ~link_id:0;
  (broker, topo, j)

(* ------------------------------------------------------------------ *)
(* Journal: encode/decode round trip *)

(* Replicas must replay over their own topology instance: replay mutates
   link up/down state, and a shared [Topology.t] would leak one replica's
   (possibly truncated) replay into the next.  Link ids are assigned in
   construction order, so journals port across [two_path ()] instances. *)
let fresh_replica () = mk_broker (two_path ())

let test_journal_round_trip () =
  let broker, _topo, j = busy_broker () in
  Alcotest.(check bool) "journal non-trivial" true (Journal.records j > 5);
  (match Journal.parse (Journal.text j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (entries, warning) ->
      Alcotest.(check int) "every record decodes" (Journal.records j)
        (List.length entries);
      Alcotest.(check bool) "no warning" true (warning = None));
  let standby = fresh_replica () in
  (match Journal.replay standby (Journal.text j) with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok { Journal.applied; warning } ->
      Alcotest.(check int) "all applied" (Journal.records j) applied;
      Alcotest.(check bool) "clean replay" true (warning = None));
  Alcotest.(check string) "digest-identical replica"
    (Audit.mib_digest broker) (Audit.mib_digest standby);
  Alcotest.(check int) "same per-flow count" (Broker.per_flow_count broker)
    (Broker.per_flow_count standby);
  Alcotest.(check int) "same member count" (Broker.class_flow_count broker)
    (Broker.class_flow_count standby)

let test_journal_replay_idempotent () =
  (* Two independent fresh brokers replaying the same journal converge on
     the same digest — replay is a pure function of the journal. *)
  let _broker, _topo, j = busy_broker () in
  let a = fresh_replica () and b = fresh_replica () in
  (match (Journal.replay a (Journal.text j), Journal.replay b (Journal.text j)) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "replay failed");
  Alcotest.(check string) "identical digests" (Audit.mib_digest a) (Audit.mib_digest b)

let test_journal_detects_corruption () =
  let _broker, _topo, j = busy_broker () in
  let text = Journal.text j in
  (* Flip one payload character somewhere in the middle: CRC must catch
     it and truncate there, never raise. *)
  let lines = String.split_on_char '\n' text in
  let target = 1 + (List.length lines / 2) in
  let corrupted =
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i = target && String.length l > 12 then (
             let b = Bytes.of_string l in
             Bytes.set b (String.length l - 1)
               (if Bytes.get b (String.length l - 1) = '0' then '1' else '0');
             Bytes.to_string b)
           else l)
         lines)
  in
  match Journal.replay (fresh_replica ()) corrupted with
  | Error e -> Alcotest.failf "corrupt tail must truncate, not fail: %s" e
  | Ok { Journal.applied; warning } ->
      Alcotest.(check bool) "prefix survived" true (applied >= target - 1);
      Alcotest.(check bool) "tail truncated" true (applied < Journal.records j);
      Alcotest.(check bool) "warning raised" true (warning <> None)

let test_journal_torn_tail () =
  let _broker, _topo, j = busy_broker () in
  let n = Journal.records j in
  (* Every record so far is fsynced.  Three more of equal length are
     still volatile inside an open group when the disk crashes:
     [Vfs.crash] keeps half of the volatile bytes — one and a half
     records — so the first survives, the second is torn, the third is
     gone. *)
  Alcotest.(check int) "sequence numbers of one width"
    (String.length (string_of_int n))
    (String.length (string_of_int (n + 2)));
  Journal.group j (fun () ->
      List.iter (fun flow -> Journal.append j ~at:0. (Broker.Teardown flow)) [ 90; 91; 92 ];
      Storage.crash (Journal.storage j));
  Alcotest.(check int) "two lost" (n + 1) (Journal.records_on_disk j);
  (* The torn half-record fails its CRC; recovery replays the intact
     prefix and reports the cut. *)
  match Failover.recover_from ~make:fresh_replica (Journal.storage j) with
  | Error e -> Alcotest.failf "torn tail must truncate, not fail: %s" e
  | Ok (_, _, r) ->
      Alcotest.(check int) "prefix applied" (n + 1) r.Failover.sr_replayed;
      Alcotest.(check bool) "torn record reported" true
        (r.Failover.sr_truncated <> None)

let test_journal_crash_cut_and_compact () =
  let j = Journal.create ~fsync_every:3 () in
  let at = 0. in
  for i = 0 to 6 do
    Journal.append j ~at (Broker.Teardown i)
  done;
  Alcotest.(check int) "7 appended" 7 (Journal.records j);
  Alcotest.(check int) "6 synced" 6 (Journal.synced_records j);
  (* One volatile record: the crash keeps half of it, a torn record. *)
  Storage.crash (Journal.storage j);
  Alcotest.(check int) "crash loses the unsynced record" 6 (Journal.records_on_disk j);
  Alcotest.(check bool) "torn record detected" true
    ((Storage.tail_from (Journal.storage j) ~cover:0).Storage.truncated <> None);
  Journal.compact j;
  Alcotest.(check int) "compacted" 0 (Journal.records j);
  Alcotest.(check int) "total survives compaction" 7 (Journal.appended_total j);
  Alcotest.(check bool) "only the header remains" true
    (String.trim (Journal.text j) = Journal.header);
  Alcotest.(check bool) "fsync_every < 1 rejected" true
    (try
       ignore (Journal.create ~fsync_every:0 ());
       false
     with Invalid_argument _ -> true)

let test_journal_detach_stops_recording () =
  let topo = two_path () in
  let broker = mk_broker topo in
  let j = Journal.create () in
  Journal.attach j broker;
  ignore (admit broker);
  let n = Journal.records j in
  Broker.clear_mutation_hook broker;
  ignore (admit broker);
  Alcotest.(check int) "no records once detached" n (Journal.records j)

(* ------------------------------------------------------------------ *)
(* Failover with a journal *)

let test_promote_replays_tail () =
  let topo = Fig8.topology `Rate_only in
  let make () = Broker.create topo in
  let primary = make () in
  let j = Journal.create () in
  let fw = Failover.create ~make_standby:make ~journal:j primary in
  let freq () = req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 () in
  let admit1 () =
    match Broker.request primary (freq ()) with
    | Ok (flow, _) -> flow
    | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e
  in
  let f1 = admit1 () in
  Failover.checkpoint fw;
  Alcotest.(check int) "checkpoint compacts the journal" 0 (Journal.records j);
  (* Post-checkpoint mutations live only in the journal tail. *)
  let _f2 = admit1 () in
  let f3 = admit1 () in
  Broker.teardown primary f3;
  let oracle = Audit.mib_digest primary in
  Failover.crash fw;
  (match Failover.promote fw with
  | Error e -> Alcotest.failf "promotion failed: %s" e
  | Ok n -> Alcotest.(check bool) "restored + replayed" true (n >= 3));
  let recovered = Failover.active fw in
  Alcotest.(check bool) "standby took over" true (recovered != primary);
  Alcotest.(check string) "zero lost, zero phantom" oracle
    (Audit.mib_digest recovered);
  Alcotest.(check int) "both live flows back" 2 (Broker.per_flow_count recovered);
  Alcotest.(check bool) "no replay warning" true (Failover.replay_warning fw = None);
  (* The journal now follows the promoted broker. *)
  Alcotest.(check int) "journal compacted at promote" 0 (Journal.records j);
  Broker.teardown recovered f1;
  Alcotest.(check bool) "journal re-attached to the standby" true
    (Journal.records j > 0)

let test_promote_from_journal_only () =
  (* No checkpoint ever taken: the journal covers the broker's whole life
     and promotion replays it from an empty standby. *)
  let topo = Fig8.topology `Rate_only in
  let make () = Broker.create topo in
  let primary = make () in
  let j = Journal.create () in
  let fw = Failover.create ~make_standby:make ~journal:j primary in
  (match Broker.request primary (req ~ingress:Fig8.ingress1 ~egress:Fig8.egress1 ~dreq:2.44 ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Types.pp_reject_reason e);
  let oracle = Audit.mib_digest primary in
  Failover.crash fw;
  (match Failover.promote fw with
  | Error e -> Alcotest.failf "promotion failed: %s" e
  | Ok n -> Alcotest.(check int) "the one admission replayed" 1 n);
  Alcotest.(check string) "exact recovery from journal alone" oracle
    (Audit.mib_digest (Failover.active fw))

(* The link ids a per-flow reservation is booked on. *)
let links_of broker flow =
  match Flow_mib.find (Broker.flow_mib broker) flow with
  | Some r ->
      List.map
        (fun (l : Topology.link) -> l.Topology.link_id)
        r.Flow_mib.path.Bbr_broker.Path_mib.links
  | None -> Alcotest.failf "flow %d not booked" flow

let test_checkpoint_after_link_flap () =
  (* Flows rerouted by a link failure stay on their detour after the
     link comes back.  A checkpoint taken then must restore them on the
     detour, not wherever routing would place them now. *)
  let topo = two_path () in
  let make () = mk_broker topo in
  let primary = make () in
  let fw = Failover.create ~make_standby:make ~journal:(Journal.create ()) primary in
  let f1 = admit primary in
  let f2 = admit primary in
  Alcotest.(check (list int)) "booked on the first path" [ 0; 1 ] (links_of primary f1);
  ignore (Broker.fail_link primary ~link_id:0);
  Broker.restore_link primary ~link_id:0;
  Alcotest.(check (list int)) "still on the detour" [ 2; 3 ] (links_of primary f2);
  Failover.checkpoint fw;
  let oracle = Audit.mib_digest primary in
  Failover.crash fw;
  (match Failover.promote fw with
  | Error e -> Alcotest.failf "promotion failed: %s" e
  | Ok _ -> ());
  Alcotest.(check string) "digest-exact promotion" oracle
    (Audit.mib_digest (Failover.active fw));
  Alcotest.(check (list int)) "restored on the detour" [ 2; 3 ]
    (links_of (Failover.active fw) f1)

let test_tail_admits_over_failed_link () =
  (* Admissions journaled on one path, which fails later; its flows move
     to a detour with room for only one of them.  A standby sharing the
     topology replays the tail while the link is still down: the
     admissions must be booked on the links they name, not re-routed
     onto the detour, where the second no longer fits. *)
  let rate =
    match Broker.request (mk_broker (two_path ())) (req ()) with
    | Ok (_, res) -> res.Types.rate
    | Error e -> Alcotest.failf "probe rejected: %a" Types.pp_reject_reason e
  in
  let topo = Topology.create () in
  List.iter
    (fun (src, dst, capacity) ->
      ignore (Topology.add_link topo ~src ~dst ~capacity Topology.Rate_based))
    [ ("A", "M1", 2e6); ("M1", "B", 2e6); ("A", "M2", 1.5 *. rate); ("M2", "B", 1.5 *. rate) ];
  let make () = mk_broker topo in
  let primary = make () in
  let j = Journal.create () in
  Journal.attach j primary;
  let f1 = admit primary in
  let f2 = admit primary in
  Alcotest.(check (list int)) "booked on the first path" [ 0; 1 ] (links_of primary f2);
  let r = Broker.fail_link primary ~link_id:0 in
  Alcotest.(check (pair int int)) "one rerouted, one dropped" (1, 1)
    (Broker.recovered_count r, Broker.dropped_count r);
  Alcotest.(check (list int)) "the survivor is on the detour" [ 2; 3 ] (links_of primary f1);
  match Failover.recover_from ~make (Journal.storage j) with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok (standby, _, r) ->
      Alcotest.(check bool) "no loss reported" false (Failover.recovery_loss r);
      Alcotest.(check string) "digest-exact recovery" (Audit.mib_digest primary)
        (Audit.mib_digest standby)

let test_e2e_crash_at_record_digest_equal () =
  (* The acceptance criterion, end to end: kill the primary at an
     arbitrary journal record boundary mid-workload; with every record
     fsynced the recovered broker must be decision-equivalent to the
     no-crash oracle — digest equality, zero lost, zero phantom. *)
  let config =
    {
      Bbr_scenario.Matrix.fig10_crash_at_record with
      Scenario.duration = 300.;
      horizon = 800.;
      checkpoint_every = Some 120.;
      faults = [ Scenario.Broker_crash { at = Scenario.At_record 60; promote_after = 0.5 } ];
    }
  in
  let o = Runner.run config in
  Alcotest.(check (option string)) "promotion clean" None o.Runner.promote_error;
  Alcotest.(check int) "no records lost at fsync_every=1" 0 o.Runner.records_lost;
  Alcotest.(check int) "zero flows lost" 0 (Runner.flows_lost o);
  Alcotest.(check bool) "digests present" true (o.Runner.crash_digests_match <> None);
  Alcotest.(check (option bool)) "recovered digest equals the oracle" (Some true)
    o.Runner.crash_digests_match;
  Alcotest.(check int) "no stuck requests" 0 o.Runner.unresolved;
  (* Determinism: the whole scenario is a pure function of the seed. *)
  let o' = Runner.run config in
  Alcotest.(check bool) "reproducible" true (o = o')

(* ------------------------------------------------------------------ *)
(* Deterministic resume of auxiliary state *)

let test_snapshot_restores_contingency_exactly () =
  let topo = two_path () in
  let original = mk_broker topo in
  ignore (admit_class original);
  ignore (admit_class original);
  ignore (admit original);
  let pools b =
    List.map
      (fun (s : Aggregate.macro_stats) ->
        (s.Aggregate.class_id, s.Aggregate.contingency, s.Aggregate.edge_bound))
      (Aggregate.all_macroflows (Broker.aggregate b))
  in
  Alcotest.(check bool) "contingency in flight" true
    (List.exists (fun (_, c, _) -> c > 0.) (pools original));
  let restored = mk_broker topo in
  (match Snapshot.restore restored (Snapshot.save original) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Alcotest.(check bool) "pools and bounds bit-identical" true
    (pools restored = pools original);
  Alcotest.(check string) "digest-identical" (Audit.mib_digest original)
    (Audit.mib_digest restored);
  (* Deterministic resume: the same subsequent operations take the
     replicas through identical states. *)
  let step b =
    ignore (admit_class b);
    let f = admit b in
    Broker.teardown b f
  in
  step original;
  step restored;
  Alcotest.(check string) "identical after identical ops"
    (Audit.mib_digest original) (Audit.mib_digest restored)

let test_prng_state_round_trip () =
  (* The RNG half of deterministic resume: a stream rebuilt from a saved
     state continues exactly where the original left off. *)
  let p = Prng.create ~seed:42 in
  for _ = 1 to 17 do
    ignore (Prng.float p)
  done;
  let saved = Prng.state p in
  let tail = List.init 50 (fun _ -> Prng.float p) in
  let resumed = Prng.of_state saved in
  let tail' = List.init 50 (fun _ -> Prng.float resumed) in
  Alcotest.(check bool) "identical continuation" true (tail = tail')

(* ------------------------------------------------------------------ *)
(* Audit: clean states, seeded corruption, anti-entropy repair *)

let test_audit_clean_on_busy_broker () =
  let broker, _topo, _j = busy_broker () in
  let r = Audit.check broker in
  if not (Audit.ok r) then
    Alcotest.failf "expected a clean audit, got: %a" Audit.pp_report r;
  Alcotest.(check bool) "flows counted" true (r.Audit.flows > 0);
  Alcotest.(check bool) "links counted" true (r.Audit.links = 4)

let test_audit_detects_and_repairs_leak () =
  let broker, _topo, _j = busy_broker () in
  let before = Node_mib.reserved (Broker.node_mib broker) ~link_id:1 in
  (* Corrupt the node MIB directly: 5 kb/s reserved on link 1 that no
     flow or macroflow accounts for. *)
  Node_mib.reserve (Broker.node_mib broker) ~link_id:1 5_000.;
  let r = Audit.check broker in
  Alcotest.(check bool) "leak detected" true
    (List.exists
       (fun (v : Audit.violation) -> v.Audit.kind = Audit.Leaked_bandwidth)
       r.Audit.violations);
  let { Audit.repaired; remaining; _ } = Audit.repair broker in
  Alcotest.(check bool) "repaired" true (repaired > 0);
  if not (Audit.ok remaining) then
    Alcotest.failf "leak must be repaired, got: %a" Audit.pp_report remaining;
  Alcotest.(check (float 1e-6)) "bandwidth reconciled" before
    (Node_mib.reserved (Broker.node_mib broker) ~link_id:1)

let test_audit_detects_and_repairs_orphan () =
  let broker, _topo, _j = busy_broker () in
  (* Duplicate a live flow record under an unused id: a flow-MIB entry
     with no backing link reservations anywhere. *)
  let some_record =
    Flow_mib.fold (Broker.flow_mib broker) ~init:None ~f:(fun acc r ->
        if acc = None then Some r else acc)
  in
  (match some_record with
  | None -> Alcotest.fail "expected a live flow"
  | Some r -> Flow_mib.add (Broker.flow_mib broker) { r with Flow_mib.flow = 9_999 });
  let before = Flow_mib.count (Broker.flow_mib broker) in
  let r = Audit.check broker in
  Alcotest.(check bool) "orphan detected" true
    (List.exists
       (fun (v : Audit.violation) -> v.Audit.kind = Audit.Orphan_flow)
       r.Audit.violations);
  let { Audit.remaining; _ } = Audit.repair broker in
  if not (Audit.ok remaining) then
    Alcotest.failf "orphan must be repaired, got: %a" Audit.pp_report remaining;
  Alcotest.(check int) "orphan record dropped, live flows kept" (before - 1)
    (Flow_mib.count (Broker.flow_mib broker))

let test_audit_repair_is_stable () =
  (* Repairing a clean broker changes nothing. *)
  let broker, _topo, _j = busy_broker () in
  let digest = Audit.mib_digest broker in
  let { Audit.repaired; remaining; _ } = Audit.repair broker in
  Alcotest.(check int) "nothing to repair" 0 repaired;
  Alcotest.(check bool) "still clean" true (Audit.ok remaining);
  Alcotest.(check string) "state untouched" digest (Audit.mib_digest broker)

(* A delay class booked past the exact check: at t = 1 ms the link serves
   1 500 bits against a 12 000-bit packet due.  Nothing repairs it. *)
let test_audit_detects_unschedulable_link () =
  let topo = Topology.create () in
  ignore (Topology.add_link topo ~src:"A" ~dst:"B" ~capacity:1.5e6 Topology.Delay_based);
  let broker = Broker.create topo in
  (match Broker.request broker (req ~dreq:2.44 ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected: %a" Types.pp_reject_reason e);
  let clean = Audit.check broker in
  if not (Audit.ok clean) then Alcotest.failf "expected a clean audit: %a" Audit.pp_report clean;
  (match (Node_mib.entry (Broker.node_mib broker) ~link_id:0).Node_mib.edf with
  | Some edf -> Bbr_vtrs.Vtedf.add edf ~rate:1_000. ~delay:0.001 ~lmax:12_000.
  | None -> Alcotest.fail "expected a delay-based link");
  let kinds r = List.map (fun (v : Audit.violation) -> v.Audit.kind) r.Audit.violations in
  Alcotest.(check bool) "detected" true
    (kinds (Audit.check broker) = [ Audit.Unschedulable_link ]);
  let { Audit.remaining; _ } = Audit.repair broker in
  Alcotest.(check bool) "still reported after repair" true
    (List.mem Audit.Unschedulable_link (kinds remaining))

(* ------------------------------------------------------------------ *)
(* Fuzz: the recovery decoders never raise *)

let arb_mutilation =
  (* (seed for the workload, cut position fraction, byte flips as
     (position fraction, new byte)) *)
  QCheck.make
    ~print:(fun (cut, flips) ->
      Fmt.str "cut=%f flips=%a" cut
        (Fmt.list (Fmt.pair Fmt.float Fmt.int))
        flips)
    QCheck.Gen.(
      pair (float_bound_inclusive 1.)
        (list_size (int_range 0 8)
           (pair (float_bound_inclusive 1.) (int_range 0 255))))

let mutilate text (cut, flips) =
  let text =
    let n = String.length text in
    String.sub text 0 (max 1 (int_of_float (cut *. float_of_int n)))
  in
  let b = Bytes.of_string text in
  List.iter
    (fun (pos, byte) ->
      let i = int_of_float (pos *. float_of_int (Bytes.length b - 1)) in
      Bytes.set b (max 0 i) (Char.chr byte))
    flips;
  Bytes.to_string b

let prop_journal_replay_never_raises =
  QCheck.Test.make ~count:300 ~name:"mutilated journal never raises" arb_mutilation
    (fun m ->
      let _broker, _topo, j = busy_broker () in
      let text = mutilate (Journal.text j) m in
      match Journal.replay (fresh_replica ()) text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) text)

let prop_snapshot_restore_never_raises =
  QCheck.Test.make ~count:300 ~name:"mutilated snapshot never raises" arb_mutilation
    (fun m ->
      let broker, _topo, _j = busy_broker () in
      let text = mutilate (Snapshot.save broker) m in
      match Snapshot.restore (fresh_replica ()) text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) text)

let prop_truncated_journal_prefix_applies =
  (* Cutting a journal anywhere loses at most the records past the cut:
     the prefix before it replays cleanly (replay idempotence of the
     surviving prefix is digest-checked across two brokers). *)
  QCheck.Test.make ~count:100 ~name:"truncated journal: clean prefix replay"
    (QCheck.make ~print:string_of_float QCheck.Gen.(float_bound_inclusive 1.))
    (fun cut ->
      let _broker, _topo, j = busy_broker () in
      let text = mutilate (Journal.text j) (cut, []) in
      let a = fresh_replica () and b = fresh_replica () in
      match (Journal.replay a text, Journal.replay b text) with
      | Ok ra, Ok rb ->
          ra.Journal.applied = rb.Journal.applied
          && ra.Journal.applied <= Journal.records j
          && Audit.mib_digest a = Audit.mib_digest b
      | Error _, Error _ -> true (* header itself destroyed *)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Golden record text *)

(* One record of each mutation kind, with the float corners the text
   must carry: -0, a subnormal, the smallest normal, [max_float], a
   value needing every fraction nibble.  The expected lines are the
   journal's text as [Printf "%d %h %s"] wrote it before the record
   writer replaced [Printf]: the format is unchanged byte for byte. *)
let golden_records =
  let request =
    { Types.profile = Traffic.make ~sigma:60000. ~rho:0.1 ~peak:1.5e6 ~lmax:12000.;
      dreq = 2.19; ingress = "I1"; egress = "E2" }
  in
  let booking =
    { Broker.flow = 42; request; rate = 123456.789; delay = 4.9406564584124654e-324;
      links = [ 3; 0; 17 ] }
  in
  [ (0, 0., Broker.Admit booking,
     "e14db4aa 0 0x0p+0 admit 42 0x1.d4cp+15 0x1.999999999999ap-4 0x1.6e36p+20 \
      0x1.77p+13 0x1.1851eb851eb85p+1 I1 E2 0x1.e240c9fbe76c9p+16 \
      0x0.0000000000001p-1022 3,0,17");
    (1, 1e-3, Broker.Admit_segment { booking with links = []; rate = -0. },
     "1c23a99a 1 0x1.0624dd2f1a9fcp-10 admitseg 42 0x1.d4cp+15 0x1.999999999999ap-4 \
      0x1.6e36p+20 0x1.77p+13 0x1.1851eb851eb85p+1 I1 E2 -0x0p+0 \
      0x0.0000000000001p-1022 ");
    (2, 17.25, Broker.Admit_class { flow = 7; class_id = 3; request },
     "9facf73d 2 0x1.14p+4 admitc 7 3 0x1.d4cp+15 0x1.999999999999ap-4 0x1.6e36p+20 \
      0x1.77p+13 0x1.1851eb851eb85p+1 I1 E2");
    (3, 1e300, Broker.Teardown 42, "fb142c54 3 0x1.7e43c8800759cp+996 drop 42");
    (4, 3.5, Broker.Teardown_class 7, "8ef0add5 4 0x1.cp+1 dropc 7");
    (5, 100., Broker.Queue_emptied { class_id = 3; links = [ 1; 2 ] },
     "f5e88630 5 0x1.9p+6 qempty 3 1,2");
    (6, 100.5, Broker.Evacuated { class_id = 0; links = [] }, "091d0231 6 0x1.92p+6 evac 0 ");
    (7, 2.2250738585072014e-308, Broker.Link_failed 9, "50bed7be 7 0x1p-1022 linkdown 9");
    (1234567, max_float, Broker.Link_restored 9,
     "f2fd0f94 1234567 0x1.fffffffffffffp+1023 linkup 9") ]

let test_journal_golden_text () =
  List.iter
    (fun (seq, at, m, want) ->
      Alcotest.(check string) "encode" want (Journal.encode ~seq ~at m);
      match Journal.parse (Journal.header ^ "\n" ^ want ^ "\n") with
      | Ok ([ (at', m') ], None) ->
          Alcotest.(check bool) "decodes back" true
            (Int64.bits_of_float at = Int64.bits_of_float at' && compare m m' = 0)
      | _ -> Alcotest.failf "golden line does not parse: %s" want)
    golden_records;
  (* The appended records reach the store as the same bytes, each
     newline-terminated. *)
  let store = Storage.create ~vfs:(Bbr_util.Vfs.create ()) () in
  let j = Journal.create ~storage:store () in
  List.iter
    (fun (seq, at, m, _) -> if seq < 8 then Journal.append j ~at m)
    golden_records;
  Alcotest.(check (list string)) "stored lines"
    (List.filter_map
       (fun (seq, _, _, want) -> if seq < 8 then Some want else None)
       golden_records)
    (Storage.tail_from store ~cover:0).Storage.lines

(* ------------------------------------------------------------------ *)
(* CRC32 vectors *)

let test_crc32_vectors () =
  (* Standard check value for the reflected CRC-32 (IEEE 802.3). *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check string) "hex render" "cbf43926" (Crc32.to_hex 0xCBF43926);
  (match Crc32.of_hex "cbf43926" with
  | Some v -> Alcotest.(check int) "hex parse" 0xCBF43926 v
  | None -> Alcotest.fail "of_hex rejected a valid digest");
  Alcotest.(check bool) "bad hex rejected" true (Crc32.of_hex "xyz" = None);
  Alcotest.(check bool) "short hex rejected" true (Crc32.of_hex "cbf439" = None)

(* ------------------------------------------------------------------ *)
(* CRC32 against the bytewise definition *)

let crc_reference s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

let test_crc32_every_range () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 4 do
    let s = String.init 80 (fun _ -> Char.chr (Prng.int g ~bound:256)) in
    let b = Bytes.of_string s in
    for pos = 0 to 15 do
      for len = 0 to 64 do
        let want = crc_reference (String.sub s pos len) in
        if Crc32.substring s ~pos ~len <> want || Crc32.bytes b ~pos ~len <> want then
          Alcotest.failf "crc of [%d, %d) differs from the bytewise reference" pos (pos + len)
      done
    done;
    Alcotest.(check int) "whole string" (crc_reference s) (Crc32.string s)
  done;
  let b = Bytes.make 10 '.' in
  Crc32.blit_hex 0xCBF43926 b ~pos:1;
  Alcotest.(check string) "blit_hex" ".cbf43926." (Bytes.to_string b);
  Alcotest.(check (option int)) "of_hex_at" (Some 0xCBF43926) (Crc32.of_hex_at ".cbf43926." ~pos:1);
  Alcotest.(check (option int)) "upper case" (Some 0xCBF43926) (Crc32.of_hex "CBF43926");
  Alcotest.(check (option int)) "past the end" None (Crc32.of_hex_at ".cbf43926." ~pos:3);
  Alcotest.(check (option int)) "not hex" None (Crc32.of_hex "cbf4392g")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "recovery"
    [
      ( "journal",
        [
          Alcotest.test_case "encode/decode/replay round trip" `Quick
            test_journal_round_trip;
          Alcotest.test_case "replay idempotent" `Quick test_journal_replay_idempotent;
          Alcotest.test_case "golden record text" `Quick test_journal_golden_text;
          Alcotest.test_case "CRC catches corruption" `Quick
            test_journal_detects_corruption;
          Alcotest.test_case "torn tail truncates" `Quick test_journal_torn_tail;
          Alcotest.test_case "crash cut + compaction" `Quick
            test_journal_crash_cut_and_compact;
          Alcotest.test_case "detach stops recording" `Quick
            test_journal_detach_stops_recording;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote replays the tail" `Quick test_promote_replays_tail;
          Alcotest.test_case "journal-only promotion" `Quick
            test_promote_from_journal_only;
          Alcotest.test_case "checkpoint after a link flap" `Quick
            test_checkpoint_after_link_flap;
          Alcotest.test_case "tail admits over a failed link" `Quick
            test_tail_admits_over_failed_link;
          Alcotest.test_case "e2e crash at record boundary" `Quick
            test_e2e_crash_at_record_digest_equal;
        ] );
      ( "deterministic resume",
        [
          Alcotest.test_case "contingency restored exactly" `Quick
            test_snapshot_restores_contingency_exactly;
          Alcotest.test_case "prng state round trip" `Quick test_prng_state_round_trip;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean on a busy broker" `Quick
            test_audit_clean_on_busy_broker;
          Alcotest.test_case "detects and repairs a leak" `Quick
            test_audit_detects_and_repairs_leak;
          Alcotest.test_case "detects and repairs an orphan" `Quick
            test_audit_detects_and_repairs_orphan;
          Alcotest.test_case "repair is stable on clean state" `Quick
            test_audit_repair_is_stable;
          Alcotest.test_case "detects an unschedulable link" `Quick
            test_audit_detects_unschedulable_link;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_journal_replay_never_raises;
          QCheck_alcotest.to_alcotest prop_snapshot_restore_never_raises;
          QCheck_alcotest.to_alcotest prop_truncated_journal_prefix_applies;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "every offset and length" `Quick test_crc32_every_range;
        ] );
    ]
