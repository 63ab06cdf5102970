(* The sharded multi-core broker: SPSC channel semantics, inline routers
   under random storms and a spawned router through a link failure that
   turns a flow multi-shard, each in lockstep with a single broker and the
   reference broker, per-shard journal recovery, and the regions topology
   generator.  The model property ([test_model.ml]) runs routers beside
   every other front end at once. *)

module Topology = Bbr_vtrs.Topology
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Journal = Bbr_broker.Journal
module Audit = Bbr_broker.Audit
module Node_mib = Bbr_broker.Node_mib
module Path_mib = Bbr_broker.Path_mib
module Routing = Bbr_broker.Routing
module Shard = Bbr_broker.Shard
module Shard_router = Bbr_broker.Shard_router
module Topo_gen = Bbr_workload.Topo_gen
module Profiles = Bbr_workload.Profiles
module Prng = Bbr_util.Prng
module Spsc = Bbr_util.Spsc

(* ------------------------------------------------------------------ *)
(* SPSC channel *)

let test_spsc_order () =
  let q = Spsc.create ~capacity:16 in
  for i = 1 to 16 do
    Alcotest.(check bool) "push fits" true (Spsc.try_push q i)
  done;
  Alcotest.(check bool) "17th rejected" false (Spsc.try_push q 17);
  Alcotest.(check int) "length" 16 (Spsc.length q);
  for i = 1 to 16 do
    Alcotest.(check (option int)) "fifo" (Some i) (Spsc.try_pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Spsc.try_pop q);
  Alcotest.(check bool) "empty" true (Spsc.is_empty q)

let test_spsc_wraparound () =
  let q = Spsc.create ~capacity:4 in
  for round = 0 to 99 do
    Alcotest.(check bool) "push" true (Spsc.try_push q round);
    Alcotest.(check bool) "push" true (Spsc.try_push q (round + 1000));
    Alcotest.(check (option int)) "pop" (Some round) (Spsc.try_pop q);
    Alcotest.(check (option int)) "pop" (Some (round + 1000)) (Spsc.try_pop q)
  done

(* A producer domain and a consumer domain pass 100 000 messages.  On a
   one- or two-slot ring a push often finds the ring full and a pop often
   finds it empty, and random pauses on both sides outlast the spin
   budget, so each side parks again and again.  A lost wake-up hangs the
   run; a torn publish breaks FIFO order. *)
let test_spsc_cross_domain ~capacity () =
  let n = 100_000 in
  let q = Spsc.create ~capacity in
  let pause prng =
    if Prng.int prng ~bound:64 = 0 then Unix.sleepf (Prng.float prng *. 50e-6)
  in
  let producer =
    Domain.spawn (fun () ->
        let prng = Prng.create ~seed:capacity in
        for i = 0 to n - 1 do
          pause prng;
          Spsc.push q i
        done)
  in
  let prng = Prng.create ~seed:(capacity + 1000) in
  for want = 0 to n - 1 do
    pause prng;
    let got = Spsc.pop q in
    if got <> want then Alcotest.failf "FIFO broken: popped %d, expected %d" got want
  done;
  Domain.join producer;
  Alcotest.(check bool) "ring drained" true (Spsc.is_empty q)

(* ------------------------------------------------------------------ *)
(* Inline routers under storms *)

(* An inline router of 1 to 3 shards decides every op of a storm bit for
   bit as the single broker does, both equal the reference broker, and
   their digests agree at the end. *)
let prop_sharded_digest_equals_single =
  QCheck.Test.make
    ~name:"sharded broker is digest-exact against the single-threaded reference" ~count:30
    Gen.arb_storm (fun s -> Lockstep.run ~fronts:[ Lockstep.Inline_router ] s)

(* Every shard journal of a three-shard router, two-phase segment records
   included, replays from genesis to its live shard's digest. *)
let prop_per_shard_journal_replay_digest_exact =
  QCheck.Test.make ~name:"per-shard journal replay is digest-exact (incl. segment records)"
    ~count:20 Gen.arb_storm (fun s -> Lockstep.run ~fronts:[ Lockstep.Inline_router ] ~shards:3 s)

(* ------------------------------------------------------------------ *)
(* Lockstep storms: spawned router vs single broker *)

(* [regions] regions of four nodes (partitioned one per shard), plus a
   leaf R0_N4 hung off R0_N1 with a wide detour to R1_N1.  The flow
   R0_N1 -> R0_N4 is single-shard on its direct link; with that link down
   its only route is R0_N1 -> ... -> R1_N1 -> R0_N4, which spans shards
   0 and 1 (R0 and R1 are neighbours on the hub ring). *)
let detour_topology prng ~regions =
  let t = Topo_gen.regions prng ~regions ~nodes_per_region:4 ~extra_links:2 () in
  let pair a b =
    ignore (Topology.add_link t ~src:a ~dst:b ~capacity:1e8 Topology.Rate_based);
    ignore (Topology.add_link t ~src:b ~dst:a ~capacity:1e8 Topology.Rate_based)
  in
  pair "R0_N1" "R0_N4";
  pair "R1_N1" "R0_N4";
  t

(* The single broker, the spawned router and the reference broker in
   one lane ({!Lockstep}): every decision, cascade and booking must agree. *)
let test_spawned_router_storm ~nshards () =
  let prng = Prng.create ~seed:2024 in
  let topology = detour_topology prng ~regions:nshards in
  let region n = Option.get (Topo_gen.region_of_node n) in
  let sharded =
    Shard_router.create ~spawn:true ~shards:nshards ~partition:region topology
  in
  Fun.protect ~finally:(fun () -> Shard_router.stop sharded) @@ fun () ->
  let lane = Lockstep.lane ~admission:`Exact "single" topology ~exact:true in
  lane.Lockstep.fronts <-
    lane.Lockstep.fronts @ [ Lockstep.of_router "spawned router" ~shards:nshards sharded ];
  let storm ops = List.iter (Lockstep.step lane) (Gen.draw prng topology ~ops) in
  let owners f =
    match List.find_opt (fun (g, _, _, _) -> g = f) (Shard_router.flows sharded) with
    | None -> []
    | Some (_, _, _, links) ->
        List.sort_uniq compare
          (List.map (fun link_id -> Shard_router.owner_of_link sharded ~link_id) links)
  in
  storm 300;
  (* Every link back up. *)
  List.iter (fun _ -> Lockstep.step lane (Gen.Restore 0)) (Topology.links topology);
  let flow =
    match
      Lockstep.request lane
        { Types.profile = Profiles.profile 3; dreq = 6.0; ingress = "R0_N1"; egress = "R0_N4" }
    with
    | Ok (f, _) -> f
    | Error _ -> Alcotest.fail "detour flow rejected"
  in
  Alcotest.(check (list int)) "single-shard before the failure" [ 0 ] (owners flow);
  let link_id =
    (Option.get (Topology.find_link topology ~src:"R0_N1" ~dst:"R0_N4")).Topology.link_id
  in
  let rerouted, _ = Lockstep.fail lane link_id in
  Alcotest.(check bool) "detour flow rerouted" true (List.mem flow rerouted);
  Alcotest.(check (list int)) "multi-shard after the failure" [ 0; 1 ] (owners flow);
  storm 300;
  Lockstep.teardown lane flow;
  Alcotest.(check (list int)) "detour flow torn on both shards" [] (owners flow);
  (* A second teardown of a torn flow is a no-op on both sides. *)
  Lockstep.teardown lane flow;
  Lockstep.restore lane link_id;
  storm 100;
  Lockstep.digests_match ~what:"end" lane;
  Alcotest.(check bool) "shard audits clean" true (Shard_router.audits_clean sharded)

(* ------------------------------------------------------------------ *)
(* Per-shard journal recovery *)

(* Crash one shard's store mid-batch (group commit, fsync_every = 4):
   the surviving synced prefix must still replay cleanly into an
   internally consistent broker.  (Whole shard journals replay
   digest-exact in the model property, [test_model.ml].) *)
let test_crash_cut_shard_journal () =
  let j0 = Journal.create ~fsync_every:4 () in
  let storm = { Gen.seed = 4242; nodes = 9; extra = 6; length = 120 } in
  let topology = Gen.domain storm in
  let sharded =
    Shard_router.create
      ~journal_for:(fun i -> if i = 0 then Some j0 else None)
      ~shards:3
      ~partition:(fun name -> Hashtbl.hash name mod 3)
      topology
  in
  let lane = Lockstep.lane ~admission:`Exact "single" topology ~exact:true in
  lane.Lockstep.fronts <- lane.Lockstep.fronts @ [ Lockstep.of_router "router" ~shards:3 sharded ];
  List.iter (Lockstep.step lane) (Gen.ops storm topology);
  let lines () =
    List.filter (fun l -> l <> "") (List.tl (String.split_on_char '\n' (Journal.text j0)))
  in
  let before = lines () and synced = Journal.synced_records j0 in
  Alcotest.(check int) "every record written through" (Journal.records j0)
    (List.length before);
  let volatile = List.filteri (fun i _ -> i >= synced) before in
  Alcotest.(check bool) "the run ends mid-batch" true (volatile <> []);
  (* [Vfs.crash] keeps half of the unsynced bytes: exactly the volatile
     records that fit whole in that half survive. *)
  let keep = List.fold_left (fun n l -> n + String.length l + 1) 0 volatile / 2 in
  let rec fitting n used = function
    | l :: rest when used + String.length l + 1 <= keep ->
        fitting (n + 1) (used + String.length l + 1) rest
    | _ -> n
  in
  Bbr_broker.Storage.crash (Journal.storage j0);
  Alcotest.(check int) "records kept" (synced + fitting 0 0 volatile)
    (Journal.records_on_disk j0);
  let replica = Broker.create (Topology.copy topology) in
  (match Journal.replay replica (Journal.text j0) with
  | Error e -> Alcotest.failf "prefix replay failed: %s" e
  | Ok _ -> ());
  Alcotest.(check bool)
    "replayed prefix audits clean" true
    (Audit.ok (Audit.check replica))

(* ------------------------------------------------------------------ *)
(* Regions topology *)

let test_region_of_node () =
  Alcotest.(check (option int)) "R3_N7" (Some 3) (Topo_gen.region_of_node "R3_N7");
  Alcotest.(check (option int)) "R12_N0" (Some 12) (Topo_gen.region_of_node "R12_N0");
  Alcotest.(check (option int)) "foreign" None (Topo_gen.region_of_node "core1");
  Alcotest.(check (option int)) "bare R" None (Topo_gen.region_of_node "Rx_N1")

(* The hub-ring property: a min-hop path between two nodes of the same
   region never leaves the region, so regional traffic is single-shard
   under the region partition. *)
let test_regions_intra_region_paths_stay_local () =
  let prng = Prng.create ~seed:7 in
  let topology =
    Topo_gen.regions prng ~regions:4 ~nodes_per_region:5 ~extra_links:4 ()
  in
  let node_mib = Node_mib.create topology in
  let path_mib = Path_mib.create node_mib in
  let routing = Routing.create topology path_mib in
  for r = 0 to 3 do
    for a = 0 to 4 do
      for b = 0 to 4 do
        if a <> b then begin
          let name i = Printf.sprintf "R%d_N%d" r i in
          match Routing.path routing ~ingress:(name a) ~egress:(name b) with
          | None -> Alcotest.failf "region %d disconnected (%d->%d)" r a b
          | Some info ->
              List.iter
                (fun (l : Topology.link) ->
                  Alcotest.(check (option int))
                    "link stays in region" (Some r)
                    (Topo_gen.region_of_node l.Topology.src))
                info.Path_mib.links
        end
      done
    done
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shard"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo order, full and empty" `Quick test_spsc_order;
          Alcotest.test_case "wraparound" `Quick test_spsc_wraparound;
          Alcotest.test_case "cross-domain transfer" `Quick
            (test_spsc_cross_domain ~capacity:64);
          Alcotest.test_case "park/wake, capacity 1" `Quick
            (test_spsc_cross_domain ~capacity:1);
          Alcotest.test_case "park/wake, capacity 2" `Quick
            (test_spsc_cross_domain ~capacity:2);
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_sharded_digest_equals_single;
          Alcotest.test_case "spawned router storm" `Quick
            (test_spawned_router_storm ~nshards:2);
          Alcotest.test_case "spawned router storm, 4 shards" `Quick
            (test_spawned_router_storm ~nshards:4);
        ] );
      ( "recovery",
        [
          QCheck_alcotest.to_alcotest prop_per_shard_journal_replay_digest_exact;
          Alcotest.test_case "crash-cut mid-batch on one shard" `Quick
            test_crash_cut_shard_journal;
        ] );
      ( "regions",
        [
          Alcotest.test_case "region_of_node" `Quick test_region_of_node;
          Alcotest.test_case "intra-region paths stay local" `Quick
            test_regions_intra_region_paths_stay_local;
        ] );
    ]
