(* The sharded multi-core broker: SPSC channel semantics, differential
   equivalence of the sharded broker against a single-threaded reference
   (digest-exact through the router, inline or spawned), per-shard
   journal recovery, and the regions topology generator. *)

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
(* Differential storm: sharded (inline, deterministic) vs single broker *)

let req ~profile ~dreq ~ingress ~egress =
  { Types.profile; dreq; ingress; egress }

type storm_op =
  | Request of Types.request
  | Teardown_nth of int  (** index into the live list *)
  | Fail_nth of int  (** index into the up-link list *)
  | Restore_nth of int  (** index into the failed-link list *)

(* Draw the op sequence up front from one generator so both sides see the
   identical program. *)
let draw_storm prng topology ~ops =
  List.init ops (fun _ ->
      let c = Prng.float prng in
      if c < 0.20 then Teardown_nth (Prng.int prng ~bound:1_000_000)
      else if c < 0.30 then Fail_nth (Prng.int prng ~bound:1_000_000)
      else if c < 0.40 then Restore_nth (Prng.int prng ~bound:1_000_000)
      else
        let ingress, egress = Topo_gen.random_endpoints prng topology in
        Request
          (req
             ~profile:(Profiles.profile (Prng.int prng ~bound:4))
             ~dreq:(Prng.float_range prng ~lo:0.5 ~hi:6.0)
             ~ingress ~egress))

let nth_mod xs i = List.nth xs (i mod List.length xs)

(* Run the storm on both brokers in lock step, failing on the first
   divergent decision; returns unit with both sides fully stormed. *)
let run_differential ~seed ~nodes ~extra ~nshards ~ops ~journal_for =
  let prng = Prng.create ~seed in
  let topology = Topo_gen.random prng ~nodes ~extra_links:extra () in
  let program = draw_storm prng topology ~ops in
  let single = Broker.create (Topology.copy topology) in
  let partition name = Hashtbl.hash name mod nshards in
  let sharded =
    Shard_router.create ~journal_for ~shards:nshards ~partition topology
  in
  let live = ref [] in
  let up = ref (List.map (fun (l : Topology.link) -> l.Topology.link_id)
                  (Topology.links topology)) in
  let down = ref [] in
  List.iter
    (fun op ->
      match op with
      | Request r -> (
          let a = Broker.request single r in
          let b = Shard_router.request sharded r in
          match (a, b) with
          | Ok (fa, ra), Ok (fb, rb) ->
              Alcotest.(check int) "same flow id" fa fb;
              Alcotest.(check bool) "same reservation" true (ra = rb);
              live := fa :: !live
          | Error _, Error _ -> ()
          | _ ->
              Alcotest.failf "decision diverged (single %s, sharded %s)"
                (if Result.is_ok a then "admit" else "reject")
                (if Result.is_ok b then "admit" else "reject"))
      | Teardown_nth i ->
          if !live <> [] then begin
            let f = nth_mod !live i in
            Broker.teardown single f;
            Shard_router.teardown sharded f;
            live := List.filter (fun x -> x <> f) !live
          end
      | Fail_nth i ->
          if !live <> [] && !up <> [] then begin
            let link_id = nth_mod !up i in
            let ra = Broker.fail_link single ~link_id in
            let rb = Shard_router.fail_link sharded ~link_id in
            Alcotest.(check (list int))
              "same rerouted" ra.Broker.perflow_rerouted
              rb.Shard_router.rerouted;
            Alcotest.(check (list int))
              "same dropped" ra.Broker.perflow_dropped rb.Shard_router.dropped;
            live :=
              List.filter
                (fun f -> not (List.mem f ra.Broker.perflow_dropped))
                !live;
            up := List.filter (fun l -> l <> link_id) !up;
            down := link_id :: !down
          end
      | Restore_nth i ->
          if !down <> [] then begin
            let link_id = nth_mod !down i in
            Broker.restore_link single ~link_id;
            Shard_router.restore_link sharded ~link_id;
            down := List.filter (fun l -> l <> link_id) !down;
            up := link_id :: !up
          end)
    program;
  (* [topology] is the pristine (all links up) instance — replay replicas
     must start from it, since the journal records link transitions from
     genesis. *)
  (topology, single, sharded)

let prop_sharded_digest_equals_single =
  QCheck.Test.make
    ~name:"sharded broker is digest-exact against the single-threaded reference"
    ~count:30
    (QCheck.make
       ~print:(fun (seed, nodes, extra, nshards, ops) ->
         Printf.sprintf "seed=%d nodes=%d extra=%d shards=%d ops=%d" seed nodes
           extra nshards ops)
       QCheck.Gen.(
         let* seed = int_range 1 1_000_000 in
         let* nodes = int_range 4 10 in
         let* extra = int_range 0 8 in
         let* nshards = int_range 1 4 in
         let* ops = int_range 20 90 in
         return (seed, nodes, extra, nshards, ops)))
    (fun (seed, nodes, extra, nshards, ops) ->
      let _, single, sharded =
        run_differential ~seed ~nodes ~extra ~nshards ~ops
          ~journal_for:(fun _ -> None)
      in
      let da = Audit.mib_digest single in
      let db = Shard_router.mib_digest sharded in
      if da <> db then QCheck.Test.fail_reportf "digest diverged";
      if not (Shard_router.audits_clean sharded) then
        QCheck.Test.fail_reportf "per-shard audit dirty";
      if not (Audit.ok (Audit.check single)) then
        QCheck.Test.fail_reportf "single-broker audit dirty";
      true)

(* ------------------------------------------------------------------ *)
(* Differential storm: spawned router vs single broker *)

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

let test_spawned_router_storm ~nshards () =
  let prng = Prng.create ~seed:2024 in
  let topology = detour_topology prng ~regions:nshards in
  let region n = Option.get (Topo_gen.region_of_node n) in
  let nodes = Array.of_list (Topology.nodes topology) in
  let in_region r = List.filter (fun n -> region n = r) (Array.to_list nodes) |> Array.of_list in
  let single = Broker.create (Topology.copy topology) in
  let sharded =
    Shard_router.create ~spawn:true ~shards:nshards ~partition:region topology
  in
  Fun.protect ~finally:(fun () -> Shard_router.stop sharded) @@ fun () ->
  let live = Queue.create () and torn = ref [] in
  let request r =
    let a = Broker.request single r and b = Shard_router.request sharded r in
    (match (a, b) with
    | Ok (fa, ra), Ok (fb, rb) ->
        Alcotest.(check int) "same flow id" fa fb;
        Alcotest.(check bool) "same reservation" true (ra = rb)
    | Error _, Error _ -> ()
    | _ -> Alcotest.fail "decision diverged");
    a
  in
  let teardown f =
    Broker.teardown single f;
    Shard_router.teardown sharded f
  in
  let owners f =
    match List.find_opt (fun (g, _, _, _) -> g = f) (Shard_router.flows sharded) with
    | None -> []
    | Some (_, _, _, links) ->
        List.sort_uniq compare
          (List.map (fun link_id -> Shard_router.owner_of_link sharded ~link_id) links)
  in
  let storm ops =
    for _ = 1 to ops do
      let c = Prng.float prng in
      if c < 0.15 && not (Queue.is_empty live) then begin
        let f = Queue.pop live in
        teardown f;
        torn := f :: !torn
      end
      else if c < 0.20 && !torn <> [] then
        teardown (List.nth !torn (Prng.int prng ~bound:(List.length !torn)))
      else if c < 0.25 then teardown (1_000_000 + Prng.int prng ~bound:1000)
      else begin
        let ingress, egress =
          if Prng.float prng < 0.3 then Topo_gen.random_endpoints prng topology
          else
            let rs = in_region (Prng.int prng ~bound:nshards) in
            let a = Prng.int prng ~bound:(Array.length rs) in
            let b = (a + 1 + Prng.int prng ~bound:(Array.length rs - 1)) mod Array.length rs in
            (rs.(a), rs.(b))
        in
        let r =
          req
            ~profile:(Profiles.profile (Prng.int prng ~bound:4))
            ~dreq:(Prng.float_range prng ~lo:0.5 ~hi:6.0)
            ~ingress ~egress
        in
        match request r with
        | Ok (f, _) ->
            Queue.push f live;
            if Queue.length live > 24 then begin
              let old = Queue.pop live in
              teardown old;
              torn := old :: !torn
            end
        | Error _ -> ()
      end
    done
  in
  storm 300;
  let flow =
    match
      request (req ~profile:(Profiles.profile 3) ~dreq:6.0 ~ingress:"R0_N1" ~egress:"R0_N4")
    with
    | Ok (f, _) -> f
    | Error _ -> Alcotest.fail "detour flow rejected"
  in
  Alcotest.(check (list int)) "single-shard before the failure" [ 0 ] (owners flow);
  let link_id =
    (Option.get (Topology.find_link topology ~src:"R0_N1" ~dst:"R0_N4")).Topology.link_id
  in
  let ra = Broker.fail_link single ~link_id in
  let rb = Shard_router.fail_link sharded ~link_id in
  Alcotest.(check (list int)) "same rerouted" ra.Broker.perflow_rerouted rb.Shard_router.rerouted;
  Alcotest.(check (list int)) "same dropped" ra.Broker.perflow_dropped rb.Shard_router.dropped;
  Alcotest.(check bool) "detour flow rerouted" true (List.mem flow rb.Shard_router.rerouted);
  Alcotest.(check (list int)) "multi-shard after the failure" [ 0; 1 ] (owners flow);
  (* A dropped victim stays in [live]; its later teardown is a no-op on
     both sides. *)
  storm 300;
  teardown flow;
  Alcotest.(check (list int)) "detour flow torn on both shards" [] (owners flow);
  teardown flow;
  Broker.restore_link single ~link_id;
  Shard_router.restore_link sharded ~link_id;
  storm 100;
  Alcotest.(check string) "digest equals the single broker"
    (Audit.mib_digest single) (Shard_router.mib_digest sharded);
  Alcotest.(check bool) "shard audits clean" true (Shard_router.audits_clean sharded)

(* ------------------------------------------------------------------ *)
(* Per-shard journal recovery *)

(* Every shard's journal, replayed from genesis onto a fresh broker over
   a fresh topology copy, reproduces the live shard digest bit for bit —
   including Admit_segment records from two-phase multi-shard
   admissions. *)
let prop_per_shard_journal_replay_digest_exact =
  QCheck.Test.make
    ~name:"per-shard journal replay is digest-exact (incl. segment records)"
    ~count:20
    (QCheck.make
       ~print:(fun (seed, ops) -> Printf.sprintf "seed=%d ops=%d" seed ops)
       QCheck.Gen.(
         let* seed = int_range 1 1_000_000 in
         let* ops = int_range 20 80 in
         return (seed, ops)))
    (fun (seed, ops) ->
      let journals = Hashtbl.create 4 in
      let journal_for i =
        let j = Journal.create ~fsync_every:1 () in
        Hashtbl.replace journals i j;
        Some j
      in
      let topology, _, sharded =
        run_differential ~seed ~nodes:8 ~extra:5 ~nshards:3 ~ops ~journal_for
      in
      Hashtbl.iter
        (fun i j ->
          let replica = Broker.create (Topology.copy topology) in
          (match Journal.replay replica (Journal.text j) with
          | Error e -> QCheck.Test.fail_reportf "shard %d replay failed: %s" i e
          | Ok _ -> ());
          let live = Audit.mib_digest (Shard.broker (Shard_router.shard sharded i)) in
          if Audit.mib_digest replica <> live then
            QCheck.Test.fail_reportf "shard %d replay digest diverged" i;
          if not (Audit.ok (Audit.check replica)) then
            QCheck.Test.fail_reportf "shard %d replica audit dirty" i)
        journals;
      true)

(* Crash one shard's store mid-batch (group commit, fsync_every = 4):
   the surviving synced prefix must still replay cleanly into an
   internally consistent broker. *)
let test_crash_cut_shard_journal () =
  let journals = Hashtbl.create 4 in
  let journal_for i =
    let j = Journal.create ~fsync_every:(if i = 0 then 4 else 1) () in
    Hashtbl.replace journals i j;
    Some j
  in
  let topology, _, _ =
    run_differential ~seed:4242 ~nodes:9 ~extra:6 ~nshards:3 ~ops:120
      ~journal_for
  in
  let j0 = Hashtbl.find journals 0 in
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
