(* Fast-path admission engine: flat VT-EDF regressions, incremental
   breakpoint refresh, cached/uncached differential equivalence,
   per-decision cost counts, batched requests and group commit. *)

module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Journal = Bbr_broker.Journal
module Path_mib = Bbr_broker.Path_mib
module Node_mib = Bbr_broker.Node_mib
module Routing = Bbr_broker.Routing
module Admission = Bbr_broker.Admission
module Admission_cache = Bbr_broker.Admission_cache
module Audit = Bbr_broker.Audit
module Snapshot = Bbr_broker.Snapshot
module Overload = Bbr_broker.Overload
module Fig8 = Bbr_workload.Fig8
module Topo_gen = Bbr_workload.Topo_gen
module Profiles = Bbr_workload.Profiles
module Dynamic = Bbr_workload.Dynamic
module Aggregate = Bbr_broker.Aggregate
module Prng = Bbr_util.Prng
module Engine = Bbr_netsim.Engine
module Traffic = Bbr_vtrs.Traffic

(* ------------------------------------------------------------------ *)
(* VT-EDF flat-state regressions *)

(* Satellite: add/remove used exact float equality to match a delay
   class, so a remove with (admission-computed) float noise on the delay
   raised [Invalid_argument].  Both now match within Fp tolerance. *)
let test_tolerant_class_match () =
  let t = Vtedf.create ~capacity:1e6 in
  Vtedf.add t ~rate:1000. ~delay:0.5 ~lmax:1500.;
  Vtedf.add t ~rate:2000. ~delay:(0.5 *. (1. +. 1e-12)) ~lmax:500.;
  Alcotest.(check int) "jittered add joins the class" 1 (Vtedf.class_count t);
  Alcotest.(check int) "both flows present" 2 (Vtedf.flow_count t);
  Vtedf.remove t ~rate:1000. ~delay:(0.5 *. (1. -. 1e-12)) ~lmax:1500.;
  Alcotest.(check int) "jittered remove found the class" 1 (Vtedf.flow_count t);
  Vtedf.remove t ~rate:2000. ~delay:0.5 ~lmax:500.;
  Alcotest.(check int) "class emptied" 0 (Vtedf.class_count t);
  Vtedf.add t ~rate:10. ~delay:0.25 ~lmax:100.;
  Alcotest.check_raises "genuinely absent delay still raises"
    (Invalid_argument "Vtedf.remove: no flow with this delay") (fun () ->
      Vtedf.remove t ~rate:10. ~delay:0.7 ~lmax:100.)

let test_breakpoints_into_matches_list () =
  let t = Vtedf.create ~capacity:2e6 in
  let prng = Prng.create ~seed:11 in
  for _ = 1 to 40 do
    let delay = 0.05 *. float_of_int (1 + Prng.int prng ~bound:15) in
    let rate = Prng.float_range prng ~lo:10. ~hi:4000. in
    Vtedf.add t ~rate ~delay ~lmax:1500.
  done;
  let n = Vtedf.class_count t in
  let d = Array.make n 0. and s = Array.make n 0. in
  let n' = Vtedf.breakpoints_into t ~d ~s in
  Alcotest.(check int) "count" n n';
  let bps = Vtedf.breakpoints t in
  Alcotest.(check int) "list length" n (List.length bps);
  List.iteri
    (fun i (bd, bs) ->
      if d.(i) <> bd || s.(i) <> bs then
        Alcotest.failf "breakpoint %d differs: (%h,%h) vs (%h,%h)" i d.(i) s.(i)
          bd bs)
    bps

(* Incremental refresh must be bit-identical to a full recompute after
   any interleaving of adds, removes and skipped refreshes. *)
let prop_refresh_incremental =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000) in
  QCheck.Test.make ~name:"refresh_breakpoints equals full recompute" ~count:200
    arb (fun seed ->
      let prng = Prng.create ~seed in
      let t = Vtedf.create ~capacity:1e6 in
      let d = ref (Array.make 8 0.)
      and s = ref (Array.make 8 0.)
      and dem = ref (Array.make 8 0.)
      and rcum = ref (Array.make 8 0.) in
      let ensure buf n =
        if Array.length !buf < n then begin
          let nb = Array.make (max n ((2 * Array.length !buf) + 1)) 0. in
          Array.blit !buf 0 nb 0 (Array.length !buf);
          buf := nb
        end
      in
      let synced = ref (-1) in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 80 do
        (if !live <> [] && Prng.float prng < 0.4 then begin
           let i = Prng.int prng ~bound:(List.length !live) in
           let rate, delay, lmax = List.nth !live i in
           live := List.filteri (fun j _ -> j <> i) !live;
           (* remove with float noise on the delay, as admission does *)
           Vtedf.remove t ~rate ~delay:(delay *. (1. +. 1e-13)) ~lmax
         end
         else begin
           let base = 0.1 *. float_of_int (1 + Prng.int prng ~bound:12) in
           let delay =
             if Prng.float prng < 0.3 then base *. (1. +. 1e-12) else base
           in
           let rate = Prng.float_range prng ~lo:10. ~hi:5000. in
           let lmax = Prng.float_range prng ~lo:64. ~hi:1500. in
           Vtedf.add t ~rate ~delay ~lmax;
           live := (rate, delay, lmax) :: !live
         end);
        (* Sometimes let mutations pile up before the next refresh. *)
        if Prng.float prng < 0.7 then begin
          let m = Vtedf.class_count t in
          ensure d m;
          ensure s m;
          ensure dem m;
          ensure rcum m;
          let n, from =
            Vtedf.refresh_breakpoints t ~since:!synced ~d:!d ~s:!s ~dem:!dem
              ~rcum:!rcum
          in
          synced := Vtedf.version t;
          ok := !ok && n = m && from <= n;
          let fd = Array.make (max 1 m) 0. and fs = Array.make (max 1 m) 0. in
          let n' = Vtedf.breakpoints_into t ~d:fd ~s:fs in
          ok := !ok && n = n';
          for i = 0 to n - 1 do
            ok := !ok && !d.(i) = fd.(i) && !s.(i) = fs.(i)
          done
        end
      done;
      (* A refresh with nothing changed recomputes nothing. *)
      let m = Vtedf.class_count t in
      ensure d m;
      ensure s m;
      ensure dem m;
      ensure rcum m;
      let _ =
        Vtedf.refresh_breakpoints t ~since:!synced ~d:!d ~s:!s ~dem:!dem
          ~rcum:!rcum
      in
      let n, from =
        Vtedf.refresh_breakpoints t ~since:(Vtedf.version t) ~d:!d ~s:!s
          ~dem:!dem ~rcum:!rcum
      in
      !ok && from = n)

(* ------------------------------------------------------------------ *)
(* Cached vs uncached differential equivalence (the tentpole property) *)

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* nodes = int_range 3 10 in
    let* extra = int_range 0 8 in
    let* ops = int_range 20 150 in
    return (seed, nodes, extra, ops))

let arb_scenario =
  QCheck.make
    ~print:(fun (seed, nodes, extra, ops) ->
      Printf.sprintf "seed=%d nodes=%d extra=%d ops=%d" seed nodes extra ops)
    scenario_gen

let mk_topology ~seed ~nodes ~extra =
  let prng = Prng.create ~seed in
  (* delay_fraction 0.5: exercise the VT-EDF merge path hard *)
  Topo_gen.random prng ~nodes ~extra_links:extra ~delay_fraction:0.5 ()

let random_request prng topology =
  let ingress, egress = Topo_gen.random_endpoints prng topology in
  let ty = Prng.int prng ~bound:4 in
  let profile = Profiles.profile ty in
  let dreq = Prng.float_range prng ~lo:0.3 ~hi:6. in
  { Types.profile; dreq; ingress; egress }

(* Drive two brokers — one with the fast path, one without — through an
   identical interleaving of request / teardown / fail_link /
   restore_link; every decision and the final MIB digest must agree. *)
let prop_cached_equals_uncached =
  QCheck.Test.make
    ~name:"fast path is decision- and digest-neutral under storms" ~count:100
    arb_scenario (fun (seed, nodes, extra, ops) ->
      let fast = Broker.create ~fast_path:true (mk_topology ~seed ~nodes ~extra) in
      let slow =
        Broker.create ~fast_path:false (mk_topology ~seed ~nodes ~extra)
      in
      let prng = Prng.create ~seed:(seed + 7919) in
      let links = Topology.links (Broker.topology fast) in
      let nlinks = List.length links in
      let live = ref [] in
      let failed = ref [] in
      let same = ref true in
      for _ = 1 to ops do
        let r = Prng.float prng in
        if r < 0.06 && nlinks > 0 then begin
          let l = List.nth links (Prng.int prng ~bound:nlinks) in
          let id = l.Topology.link_id in
          if not (List.mem id !failed) then begin
            let ra = Broker.fail_link fast ~link_id:id in
            let rb = Broker.fail_link slow ~link_id:id in
            failed := id :: !failed;
            same := !same && ra = rb
          end
        end
        else if r < 0.12 then (
          match !failed with
          | id :: rest ->
              Broker.restore_link fast ~link_id:id;
              Broker.restore_link slow ~link_id:id;
              failed := rest
          | [] -> ())
        else if r < 0.40 && !live <> [] then (
          match !live with
          | flow :: rest ->
              Broker.teardown fast flow;
              Broker.teardown slow flow;
              live := rest
          | [] -> ())
        else begin
          let req = random_request prng (Broker.topology fast) in
          let a = Broker.request fast req in
          let b = Broker.request slow req in
          same := !same && a = b;
          match a with Ok (flow, _) -> live := flow :: !live | Error _ -> ()
        end
      done;
      !same
      && Broker.per_flow_count fast = Broker.per_flow_count slow
      && String.equal (Audit.mib_digest fast) (Audit.mib_digest slow))

(* Snapshot restore rebuilds cached brokers identically to uncached
   ones, and subsequent decisions agree. *)
let prop_restore_digest_neutral =
  QCheck.Test.make ~name:"snapshot restore is digest-neutral with the fast path"
    ~count:40 arb_scenario (fun (seed, nodes, extra, ops) ->
      let source = Broker.create (mk_topology ~seed ~nodes ~extra) in
      let prng = Prng.create ~seed:(seed + 13) in
      for _ = 1 to ops do
        ignore (Broker.request source (random_request prng (Broker.topology source)))
      done;
      let text = Snapshot.save source in
      let fast = Broker.create ~fast_path:true (mk_topology ~seed ~nodes ~extra) in
      let slow =
        Broker.create ~fast_path:false (mk_topology ~seed ~nodes ~extra)
      in
      match (Snapshot.restore fast text, Snapshot.restore slow text) with
      | Ok _, Ok _ ->
          String.equal (Audit.mib_digest fast) (Audit.mib_digest slow)
          && (let req = random_request prng (Broker.topology fast) in
              Broker.request fast req = Broker.request slow req)
          && String.equal (Audit.mib_digest fast) (Audit.mib_digest slow)
      | _ -> false)

let test_cache_hits () =
  let broker = Broker.create (Fig8.topology `Mixed) in
  let req =
    {
      Types.profile = Profiles.profile 1;
      dreq = 2.0;
      ingress = Fig8.ingress2;
      egress = Fig8.egress2;
    }
  in
  for _ = 1 to 6 do
    ignore (Broker.request broker req)
  done;
  (* Two back-to-back queries with no intervening booking: saturate the
     path so requests start bouncing, then repeat one. *)
  let rec saturate n =
    if n > 0 then
      match Broker.request broker req with
      | Ok _ -> saturate (n - 1)
      | Error _ -> ()
  in
  saturate 10_000;
  let stats () =
    match Broker.fast_path_stats broker with
    | None -> Alcotest.fail "fast path should be on by default"
    | Some s -> s
  in
  ignore (Broker.request broker req);
  let before = stats () in
  ignore (Broker.request broker req);
  let s = stats () in
  Alcotest.(check bool) "paths cached" true (s.Admission_cache.paths > 0);
  Alcotest.(check bool)
    "mixed path exercised the merge" true
    (s.Admission_cache.merges > 0);
  (* A hit is a query whose merged table was current: the rejected
     request booked nothing, so the repeat neither refreshes nor merges. *)
  Alcotest.(check int) "unchanged re-query hits" (before.Admission_cache.hits + 1)
    s.Admission_cache.hits;
  Alcotest.(check int) "no re-merge on a hit" before.Admission_cache.merges
    s.Admission_cache.merges;
  (* A teardown on the path, with no query in between: the next query
     hands out the residual as it is now.  The cache here is the only one
     over an uncached broker's MIBs. *)
  let plain = Broker.create ~fast_path:false (Fig8.topology `Mixed) in
  let cache = Admission_cache.create (Broker.node_mib plain) (Broker.path_mib plain) in
  let flows = List.init 6 (fun _ -> fst (Result.get_ok (Broker.request plain req))) in
  let path = Option.get (Broker.route_of plain req) in
  ignore (Admission_cache.query cache path);
  let before = Admission_cache.stats cache in
  Broker.teardown plain (List.hd flows);
  let ps, _ = Admission_cache.query cache path in
  let s = Admission_cache.stats cache in
  Alcotest.(check (float 0.)) "cres read on the query"
    (Path_mib.residual (Broker.path_mib plain) path)
    ps.Bbr_broker.Admission.cres;
  Alcotest.(check int) "teardown moved the table: no hit" before.Admission_cache.hits
    s.Admission_cache.hits;
  Alcotest.(check int) "one re-merge" (before.Admission_cache.merges + 1)
    s.Admission_cache.merges

(* ------------------------------------------------------------------ *)
(* The paper's cost model, pinned by counts (Sections 3.1-3.2): a cached
   per-flow decision allocates the same, and does the same cache work,
   whether 250 or 4 000 flows are live on its path.  Counts repeat
   exactly, so unlike timings they can gate.  [dreq] comes from Table 1's
   bounds: a continuous draw would open one delay class per flow, so M
   would grow with N and the test would see the O(M) scan. *)

let churn_cost sched ~live =
  let topology, ingress, egress = Topo_gen.chain ~capacity:1e9 ~sched ~hops:5 () in
  let broker = Broker.create topology in
  let req i =
    let ty = i mod 4 in
    {
      Types.profile = Profiles.profile ty;
      dreq = Profiles.bound ty (if i / 4 mod 2 = 0 then `Loose else `Tight);
      ingress;
      egress;
    }
  in
  let flows = Queue.create () in
  let admit i =
    match Broker.request broker (req i) with
    | Ok (flow, _) -> Queue.push flow flows
    | Error e -> Alcotest.failf "request %d rejected: %a" i Types.pp_reject_reason e
  in
  let step i =
    Broker.teardown broker (Queue.pop flows);
    admit i
  in
  for i = 0 to live - 1 do
    admit i
  done;
  for i = live to live + 199 do
    step i
  done;
  let steps = 2_000 in
  let s0 = Option.get (Broker.fast_path_stats broker) in
  let w0 = Gc.minor_words () in
  for i = live + 200 to live + 200 + steps - 1 do
    step i
  done;
  let w1 = Gc.minor_words () in
  let s1 = Option.get (Broker.fast_path_stats broker) in
  let per n = float_of_int n /. float_of_int steps in
  ( (w1 -. w0) /. float_of_int steps,
    per (s1.Admission_cache.merges - s0.Admission_cache.merges),
    per (s1.Admission_cache.link_refreshes - s0.Admission_cache.link_refreshes) )

let test_decision_cost_flat () =
  List.iter
    (fun (name, sched, delay_hops) ->
      let costs = List.map (fun live -> (live, churn_cost sched ~live)) [ 250; 4_000 ] in
      let _, (w_small, _, _) = List.hd costs in
      List.iter
        (fun (live, (words, merges, refreshes)) ->
          let at what = Printf.sprintf "%s, %d live: %s" name live what in
          Alcotest.(check bool)
            (at (Printf.sprintf "%.1f words/step within 2%% of %.1f" words w_small))
            true
            (Float.abs (words -. w_small) <= 0.02 *. w_small);
          Alcotest.(check bool) (at "at most 1 merge/decision") true (merges <= 1.);
          Alcotest.(check bool)
            (at (Printf.sprintf "at most %d link refreshes/decision" delay_hops))
            true
            (refreshes <= float_of_int delay_hops))
        costs)
    [ ("rate-based", Topology.Rate_based, 0); ("VT-EDF", Topology.Delay_based, 5) ]

(* The class half (Section 4): a member joining or leaving a macroflow
   costs the same whether 300 or 30 000 members share it.  Feedback
   contingency, the Table-1 class ladder on one 5-hop VT-EDF chain, the
   capacity scaled to the membership.  The fill's contingency grants are
   released by one queue-empty round before the window, so the window
   sees only the steady state's own grants. *)
let class_churn ~members =
  let capacity = float_of_int members *. 150e3 in
  let topology, ingress, egress =
    Topo_gen.chain ~capacity ~sched:Topology.Delay_based ~hops:5 ()
  in
  let broker =
    Broker.create ~classes:(Dynamic.service_classes 0.24) ~method_:Aggregate.Feedback
      topology
  in
  let req i =
    let ty = i mod 4 in
    {
      Types.profile = Profiles.profile ty;
      dreq = Profiles.bound ty (if i / 4 mod 2 = 0 then `Loose else `Tight);
      ingress;
      egress;
    }
  in
  let flows = Queue.create () in
  let admit i =
    match Broker.request_class broker (req i) with
    | Ok (flow, _) -> Queue.push flow flows
    | Error e -> Alcotest.failf "class request %d rejected: %a" i Types.pp_reject_reason e
  in
  let feedback () =
    List.iter
      (fun (s : Aggregate.macro_stats) ->
        Broker.queue_empty broker ~class_id:s.Aggregate.class_id ~path_id:s.Aggregate.path_id)
      (Aggregate.all_macroflows (Broker.aggregate broker))
  in
  let step i =
    Broker.teardown_class broker (Queue.pop flows);
    admit i;
    if i mod 32 = 0 then feedback ()
  in
  for i = 0 to members - 1 do
    admit i
  done;
  feedback ();
  for i = members to members + 199 do
    step i
  done;
  let steps = 2_048 in
  let w0 = Gc.minor_words () in
  for i = members + 200 to members + 200 + steps - 1 do
    step i
  done;
  let w1 = Gc.minor_words () in
  (broker, (w1 -. w0) /. float_of_int steps)

let test_class_cost_flat () =
  let costs = List.map (fun n -> (n, class_churn ~members:n)) [ 300; 30_000 ] in
  let w_small = snd (snd (List.hd costs)) in
  List.iter
    (fun (n, (broker, words)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d members: %.1f words/step within 2%% of %.1f" n words w_small)
        true
        (Float.abs (words -. w_small) <= 0.02 *. w_small);
      Alcotest.(check int)
        (Printf.sprintf "%d members live" n)
        n
        (Aggregate.member_count (Broker.aggregate broker)))
    costs;
  let broker, _ = List.assoc 30_000 costs in
  Alcotest.(check bool) "audit clean at 30 000 members" true (Audit.ok (Audit.check broker))

(* ------------------------------------------------------------------ *)
(* Batched requests and journal group commit *)

let fig8_requests ?(dreq_step = 0.3) n =
  List.init n (fun i ->
      let profile = Profiles.profile (i mod 4) in
      let ingress, egress =
        if i mod 2 = 0 then (Fig8.ingress1, Fig8.egress1)
        else (Fig8.ingress2, Fig8.egress2)
      in
      {
        Types.profile;
        dreq = 1.0 +. (dreq_step *. float_of_int (i mod 5));
        ingress;
        egress;
      })

(* [batched] over [request] as a real group commit: a journaled broker
   deciding a batch matches an unjournaled one deciding one by one. *)
let test_batch_equals_sequential () =
  let a = Broker.create (Fig8.topology `Mixed) in
  let b = Broker.create (Fig8.topology `Mixed) in
  let j = Journal.create ~fsync_every:64 () in
  Journal.attach j a;
  let reqs = fig8_requests 16 in
  let ra = Broker.batched a (fun () -> List.map (Broker.request a) reqs) in
  let rb = List.map (Broker.request b) reqs in
  Alcotest.(check bool) "same decisions" true (ra = rb);
  Alcotest.(check int) "the batch committed as one group" (Journal.records j)
    (Journal.synced_records j);
  Alcotest.(check bool)
    "some admitted, some possible rejections, in order" true
    (List.length ra = 16);
  Alcotest.(check string) "same digest" (Audit.mib_digest b) (Audit.mib_digest a)

let test_batch_group_commit () =
  let broker = Broker.create (Fig8.topology `Mixed) in
  let j = Journal.create ~fsync_every:64 () in
  Journal.attach j broker;
  List.iter
    (fun r -> ignore (Broker.request broker r))
    (fig8_requests ~dreq_step:0.2 5);
  Alcotest.(check bool) "singles wrote records" true (Journal.records j > 0);
  Alcotest.(check int) "singles below the fsync boundary" 0
    (Journal.synced_records j);
  ignore
    (Broker.batched broker (fun () ->
         List.map (Broker.request broker) (fig8_requests 8)));
  Alcotest.(check int) "batch commits as one group" (Journal.records j)
    (Journal.synced_records j)

let test_batched_reentrant () =
  let broker = Broker.create (Fig8.topology `Rate_only) in
  let j = Journal.create ~fsync_every:64 () in
  Journal.attach j broker;
  let reqs = fig8_requests 4 in
  Broker.batched broker (fun () ->
      Broker.batched broker (fun () ->
          List.iter (fun r -> ignore (Broker.request broker r)) reqs));
  Alcotest.(check int) "inner batch joined the outer group"
    (Journal.records j) (Journal.synced_records j)

(* ------------------------------------------------------------------ *)
(* Path MIB id lookup (satellite) *)

let test_path_mib_find () =
  let broker = Broker.create (Fig8.topology `Rate_only) in
  List.iter (fun r -> ignore (Broker.request broker r)) (fig8_requests 4);
  let pm = Broker.path_mib broker in
  let ps = Path_mib.paths pm in
  Alcotest.(check bool) "paths registered" true (ps <> []);
  List.iter
    (fun (info : Path_mib.info) ->
      match Path_mib.find pm ~path_id:info.Path_mib.path_id with
      | Some found ->
          Alcotest.(check int) "find returns the registered info"
            info.Path_mib.path_id found.Path_mib.path_id
      | None -> Alcotest.fail "find missed a registered path")
    ps;
  Alcotest.(check bool) "unknown id" true (Path_mib.find pm ~path_id:9999 = None);
  let ids = List.map (fun (i : Path_mib.info) -> i.Path_mib.path_id) ps in
  Alcotest.(check (list int)) "paths keeps registration order"
    (List.sort compare ids) ids

(* ------------------------------------------------------------------ *)
(* Overload batch drain (satellite to the batching tentpole) *)

let hooks engine =
  {
    Broker.now = (fun () -> Engine.now engine);
    after = (fun delay f -> Engine.schedule_after engine ~delay f);
  }

let overload_run ~batch_limit n =
  let engine = Engine.create () in
  let broker = Broker.create ~time:(hooks engine) (Fig8.topology `Mixed) in
  let config =
    {
      Overload.default_config with
      queue_limit = 256;
      deadline = 1000.;
      batch_limit;
    }
  in
  let ov = Overload.create ~config ~time:(hooks engine) broker in
  let outcomes = ref [] in
  List.iteri
    (fun i req ->
      Engine.schedule_after engine ~delay:(1e-5 *. float_of_int i) (fun () ->
          Overload.submit ov req (fun o -> outcomes := (i, o) :: !outcomes)))
    (fig8_requests n);
  Engine.run engine;
  let sorted = List.sort compare !outcomes in
  (sorted, Audit.mib_digest broker, Overload.stats ov)

let test_overload_batch_drain () =
  let n = 40 in
  let o1, d1, s1 = overload_run ~batch_limit:1 n in
  let o8, d8, s8 = overload_run ~batch_limit:8 n in
  Alcotest.(check int) "all decided (unbatched)" n s1.Overload.decided;
  Alcotest.(check int) "all decided (batched)" n s8.Overload.decided;
  Alcotest.(check bool) "identical outcomes" true (o1 = o8);
  Alcotest.(check string) "identical digests" d1 d8

(* ------------------------------------------------------------------ *)
(* Journal append cost *)

(* A record is written field by field into the log's reused buffer,
   checksummed in place and appended to the store as a byte range, so an
   [admit] append allocates a fixed handful of words whatever its
   floats; the Printf encoder it replaced allocated about 600.  Measured:
   20.5 words a record — the boxes of the five profile floats read out of
   their unboxed record, the store's file lookup, and its per-segment
   header and seal amortised over 64 records. *)
let append_words_bound = 24.

let test_append_cost () =
  let store = Bbr_broker.Storage.create ~vfs:(Bbr_util.Vfs.create ()) () in
  let j = Journal.create ~storage:store () in
  let admit i =
    Broker.Admit
      {
        Broker.flow = i;
        request =
          {
            Types.profile = Profiles.profile (i mod 4);
            dreq = 2.19 +. (float_of_int i /. 1000.);
            ingress = "ingress-0";
            egress = "egress-3";
          };
        rate = 50_000. +. (float_of_int i /. 7.);
        delay = 0.1 /. float_of_int (i + 1);
        links = [ 0; 1; 2; 3; 4 ];
      }
  in
  let records = 1_024 in
  let muts = Array.init records admit in
  (* Warm up: the record buffer and the first segments reach size. *)
  Array.iteri (fun i m -> Journal.append j ~at:(float_of_int i) m) muts;
  let w0 = Gc.minor_words () in
  Array.iteri (fun i m -> Journal.append j ~at:(float_of_int (records + i) *. 0.37) m) muts;
  let words = (Gc.minor_words () -. w0) /. float_of_int records in
  if words > append_words_bound then
    Alcotest.failf "an admit append allocates %.1f minor words (bound %.0f)" words
      append_words_bound;
  Alcotest.(check int) "every record on disk" (2 * records) (Journal.records_on_disk j)

(* ------------------------------------------------------------------ *)
(* Admission allocation *)

(* Minor words per call of [f], after one warm-up call. *)
let words_per_call f =
  let calls = 64 in
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* [dq] 1.5 Mb/s VT-EDF hops behind 3 rate-based ones, each holding the
   same [m] flows of 2 kb/s at distinct delays 6 ms apart. *)
let crowded_path ~m ~dq =
  let capacity = 1.5e6 in
  let edf = List.init dq (fun _ -> Vtedf.create ~capacity) in
  for i = 0 to m - 1 do
    let rate = 2_000. and delay = 0.02 +. (0.006 *. float_of_int i) and lmax = 4_000. in
    if not (List.for_all (fun s -> Vtedf.can_admit s ~rate ~delay ~lmax) edf) then
      Alcotest.failf "flow %d does not fit" i;
    List.iter (fun s -> Vtedf.add s ~rate ~delay ~lmax) edf
  done;
  {
    Admission.hops = 3 + dq;
    rate_hops = 3;
    delay_hops = dq;
    d_tot = float_of_int (3 + dq) *. (12_000. /. capacity);
    cres = capacity -. (float_of_int m *. 2_000.);
    edf;
  }

let type0 = Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.

(* The exact check walks every class without allocating per class. *)
let test_can_admit_words_flat () =
  let words m =
    let edf = List.hd (crowded_path ~m ~dq:1).Admission.edf in
    (* Below every class: the candidate meets each breakpoint. *)
    let check () = Vtedf.can_admit edf ~rate:50_000. ~delay:0.01 ~lmax:12_000. in
    Alcotest.(check bool) (Printf.sprintf "admissible at M = %d" m) true (check ());
    words_per_call check
  in
  Alcotest.(check (float 0.)) "words at M = 200 equal words at M = 10" (words 10) (words 200)

(* A decision that reaches the exact oracle costs O(M) words: its one
   table of per-interval bounds and a constant.  At dreq 1.7 the Figure-4
   pair fails the exact check and the oracle admits at the own-deadline
   floor lmax/C; with the residual below rho no pair exists, and any
   rejection past a non-empty interval table comes from the oracle. *)
let test_fallback_words_linear () =
  let m = 200 and dreq = 1.7 in
  let ps = crowded_path ~m ~dq:2 in
  let bps = Admission.merge_breakpoints ps in
  let budget = float_of_int ((2 * m) + 64) in
  let within name ps =
    let w = words_per_call (fun () -> Admission.mixed ~bps ps type0 ~dreq) in
    if w >= budget then
      Alcotest.failf "%s: %.0f words a decision at M = %d (budget %.0f)" name w m budget
  in
  (match Admission.mixed ~bps ps type0 ~dreq with
  | Ok (_, delay) ->
      Alcotest.(check (float 1e-12)) "delay at the own-deadline floor" (12_000. /. 1.5e6) delay
  | Error e -> Alcotest.failf "rejected: %a" Types.pp_reject_reason e);
  within "admit" ps;
  let starved = { ps with Admission.cres = 40_000. } in
  Alcotest.(check bool) "interval table" true (Admission.intervals ~bps starved type0 ~dreq <> []);
  (match Admission.mixed ~bps starved type0 ~dreq with
  | Error Types.Insufficient_bandwidth -> ()
  | _ -> Alcotest.fail "expected a bandwidth rejection");
  within "reject" starved

(* A routing memo miss allocates the path it returns and its memo entry,
   not search arrays the size of the topology: every edge-to-edge pair of
   the 128-node regional mesh, the memo emptied by a flap, picks the route
   a fresh search picks. *)
let test_routing_miss_words () =
  let topo =
    Topo_gen.regions (Prng.create ~seed:1) ~regions:8 ~nodes_per_region:16
      ~delay_fraction:0.5 ()
  in
  let nodes = Array.of_list (Topo_gen.leaves topo) in
  let routing = Routing.create topo (Path_mib.create (Node_mib.create topo)) in
  let pairs f = Array.iter (fun a -> Array.iter (fun b -> if a <> b then f a b) nodes) nodes in
  let route a b = Routing.path routing ~ingress:a ~egress:b in
  pairs (fun a b -> ignore (route a b));
  let link = (List.hd (Topology.links topo)).Topology.link_id in
  Topology.set_link_state topo ~link_id:link ~up:false;
  Topology.set_link_state topo ~link_id:link ~up:true;
  let misses = ref 0 in
  let w0 = Gc.minor_words () in
  pairs (fun a b ->
      incr misses;
      ignore (route a b));
  let words = (Gc.minor_words () -. w0) /. float_of_int !misses in
  let n = Topology.num_nodes topo in
  if words >= float_of_int n then
    Alcotest.failf "%.1f words a memo miss on %d nodes" words n;
  pairs (fun a b ->
      let memo = Option.map (fun (i : Path_mib.info) -> i.Path_mib.links) (route a b) in
      if memo <> Routing.shortest_path topo ~ingress:a ~egress:b then
        Alcotest.failf "%s -> %s: memoized route differs from a fresh search" a b)

(* ------------------------------------------------------------------ *)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_refresh_incremental;
        prop_cached_equals_uncached;
        prop_restore_digest_neutral;
      ]
  in
  Alcotest.run "fastpath"
    [
      ( "vtedf",
        [
          Alcotest.test_case "tolerant class matching" `Quick
            test_tolerant_class_match;
          Alcotest.test_case "breakpoints_into = breakpoints" `Quick
            test_breakpoints_into_matches_list;
          Alcotest.test_case "can_admit words flat in M" `Quick test_can_admit_words_flat;
        ] );
      ( "admission",
        [
          Alcotest.test_case "oracle fallback words linear in M" `Quick
            test_fallback_words_linear;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit counters move" `Quick test_cache_hits;
          Alcotest.test_case "decision cost flat in live flows" `Quick
            test_decision_cost_flat;
          Alcotest.test_case "class decision cost flat in members" `Quick
            test_class_cost_flat;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch = sequential" `Quick
            test_batch_equals_sequential;
          Alcotest.test_case "group commit boundary" `Quick
            test_batch_group_commit;
          Alcotest.test_case "nested batch joins" `Quick test_batched_reentrant;
          Alcotest.test_case "overload batch drain" `Quick
            test_overload_batch_drain;
        ] );
      ( "path_mib",
        [ Alcotest.test_case "find by id" `Quick test_path_mib_find ] );
      ( "routing",
        [ Alcotest.test_case "memo miss words below nodes" `Quick test_routing_miss_words ] );
      ( "journal",
        [ Alcotest.test_case "admit append cost fixed" `Quick test_append_cost ] );
      ("properties", props);
    ]
