(* Fast-path admission engine: flat VT-EDF regressions, breakpoint
   tables and their merge against the reference broker's, per-decision
   cost counts, batched requests and group commit, and cached against
   uncached and snapshot-restored brokers under storms beside the
   reference broker ([Lockstep]; the model property, [test_model.ml],
   runs every front end at once). *)

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
module Overload = Bbr_broker.Overload
module Fig8 = Bbr_workload.Fig8
module Topo_gen = Bbr_workload.Topo_gen
module Profiles = Bbr_workload.Profiles
module Dynamic = Bbr_workload.Dynamic
module Aggregate = Bbr_broker.Aggregate
module Policy = Bbr_broker.Policy
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
  let bps = Model.breakpoints (Lockstep.hop t) in
  Alcotest.(check int) "list length" n (List.length bps);
  List.iteri
    (fun i (bd, bs) ->
      if d.(i) <> bd || s.(i) <> bs then
        Alcotest.failf "breakpoint %d differs: (%h,%h) vs (%h,%h)" i d.(i) s.(i)
          bd bs)
    bps

let same_table (tb : Admission.table) spec =
  let bits = Int64.bits_of_float in
  tb.Admission.n = List.length spec
  && List.for_all2
       (fun i (d, s) ->
         bits tb.Admission.d.(i) = bits d && bits tb.Admission.s.(i) = bits s)
       (List.init tb.Admission.n Fun.id)
       spec

(* {!Admission.merge} equals the reference broker's map merge
   ({!Model.merge}) bit for bit: fresh ({!Admission.merge_breakpoints})
   and refilled in place after adds and removes, as the cache does it.  1 to 6 schedulers of different
   capacities, so one table (a blit), two (one two-way merge) and three
   or more (successive merges through the scratch table) are all drawn.
   Their delays come from one grid, so they share delays, and some
   rounds add one delay to every scheduler; some stay empty. *)
let prop_merge_equals_map =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000) in
  QCheck.Test.make ~name:"merge equals the Float map merge bit for bit" ~count:300 arb
    (fun seed ->
      let prng = Prng.create ~seed in
      let h = 1 + Prng.int prng ~bound:6 in
      let edf =
        List.init h (fun i -> Vtedf.create ~capacity:(1e6 *. float_of_int (i + 1)))
      in
      let live = Array.make h [] in
      let add i t ~rate ~delay ~lmax =
        Vtedf.add t ~rate ~delay ~lmax;
        live.(i) <- (rate, delay, lmax) :: live.(i)
      in
      let step () =
        (* about one round in three puts one delay in every table *)
        if Prng.float prng < 0.3 then begin
          let delay = 0.1 *. float_of_int (1 + Prng.int prng ~bound:12) in
          List.iteri (fun i t -> add i t ~rate:50. ~delay ~lmax:500.) edf
        end;
        List.iteri
          (fun i t ->
            (* about one scheduler in five sits out a round *)
            if Prng.float prng >= 0.2 then
              for _ = 1 to Prng.int prng ~bound:30 do
                if live.(i) <> [] && Prng.float prng < 0.4 then begin
                  let k = Prng.int prng ~bound:(List.length live.(i)) in
                  let rate, delay, lmax = List.nth live.(i) k in
                  live.(i) <- List.filteri (fun j _ -> j <> k) live.(i);
                  Vtedf.remove t ~rate ~delay ~lmax
                end
                else begin
                  let delay = 0.1 *. float_of_int (1 + Prng.int prng ~bound:12) in
                  let rate = Prng.float_range prng ~lo:10. ~hi:5000. in
                  let lmax = Prng.float_range prng ~lo:64. ~hi:1500. in
                  add i t ~rate ~delay ~lmax
                end
              done)
          edf
      in
      let ps =
        {
          Admission.hops = h;
          rate_hops = 0;
          delay_hops = h;
          d_tot = 0.;
          cres = 1e6;
          edf;
        }
      in
      let tables = Array.of_list (List.map (fun _ -> Admission.table ()) edf) in
      let into = Admission.table () and scratch = Admission.table () in
      let round () =
        step ();
        List.iteri (fun i t -> Admission.fill tables.(i) t) edf;
        Admission.merge tables ~scratch ~into;
        let spec = Model.merge (List.map (fun t -> Model.breakpoints (Lockstep.hop t)) edf) in
        same_table into spec && same_table (Admission.merge_breakpoints ps) spec
      in
      round () && round () && round ())

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
     hands out the residual as it is now, from a cache over an uncached
     broker's MIBs. *)
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
(* Cached vs uncached under storms *)

(* An uncached broker decides every op of a storm bit for bit as the
   cached one does, both equal the reference broker, and their digests
   agree at the end and after a full teardown. *)
let prop_cached_equals_uncached =
  QCheck.Test.make ~name:"fast path is decision- and digest-neutral under storms" ~count:100
    Gen.arb_storm (fun s -> Lockstep.run ~fronts:[ Lockstep.Uncached ] s)

(* A cached broker restored from a snapshot at a random op has the
   uncached broker's digest, and the three keep deciding alike. *)
let prop_restore_digest_neutral =
  QCheck.Test.make ~name:"snapshot restore is digest-neutral with the fast path" ~count:40
    Gen.arb_storm (fun s -> Lockstep.run ~fronts:[ Lockstep.Uncached; Lockstep.Restored ] s)

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

(* Measured: 187.8 words a step (a teardown, a join, and a queue-empty
   round every 32 steps); 861.3 when every ledger float was boxed and
   each join's feasibility test removed and re-added the macroflow at
   every scheduler of the path. *)
let class_step_words_bound = 190.

let test_class_cost_flat () =
  let costs = List.map (fun n -> (n, class_churn ~members:n)) [ 300; 30_000 ] in
  let w_small = snd (snd (List.hd costs)) in
  if w_small > class_step_words_bound then
    Alcotest.failf "a class churn step allocates %.1f words (bound %.0f)" w_small
      class_step_words_bound;
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

(* Words allocated so far: minor words plus the blocks too large for the
   minor heap, which go straight to the major heap (a segment's bytes as
   it grows, say). *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A record is written field by field into the log's reused buffer,
   checksummed in place and appended to the store as a byte range, so an
   [admit] append allocates a fixed count of words whatever its floats;
   the Printf encoder it replaced allocated about 600.  Measured: 74.7
   words a record, 14.6 of them minor — the boxes of the five profile
   floats read out of their unboxed record, and per segment its name,
   handle, header and footer and the bytes of its file as it grows,
   amortised over 64 records.  The footer is computed where the
   segment's bytes sit; the copy of the segment the seal used to read
   out cost 30 more (104.9 in all). *)
let append_words_bound = 78.

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
  let w0 = allocated () in
  Array.iteri (fun i m -> Journal.append j ~at:(float_of_int (records + i) *. 0.37) m) muts;
  let words = (allocated () -. w0) /. float_of_int records in
  if words > append_words_bound then
    Alcotest.failf "an admit append allocates %.1f words (bound %.0f)" words
      append_words_bound;
  Alcotest.(check int) "every record on disk" (2 * records) (Journal.records_on_disk j)

(* The replay twin: the words one record costs to rebuild from the store
   through [Failover.recover_from] — CRC check and decode where the
   segment holds the line, then apply — measured as the difference between rebuilding [2n] records
   and [n], so the fixed cost of a rebuild cancels.  The per-flow
   broker books [admit] records verbatim on a rate-based chain; the
   class broker re-runs the macroflow join of each [admitc]
   ([Broker.book_class]). *)
let replay_words ~class_based =
  let chain () =
    Topo_gen.chain ~capacity:1e12
      ~sched:(if class_based then Topology.Delay_based else Topology.Rate_based)
      ~hops:5 ()
  in
  let make () =
    let topology, _, _ = chain () in
    if class_based then
      Broker.create ~classes:(Dynamic.service_classes 0.24) ~method_:Aggregate.Feedback
        topology
    else Broker.create topology
  in
  let store n =
    let _, ingress, egress = chain () in
    let st = Bbr_broker.Storage.create ~vfs:(Bbr_util.Vfs.create ()) () in
    let broker = make () in
    Journal.attach (Journal.create ~storage:st ()) broker;
    for i = 0 to n - 1 do
      let ty = i mod 4 in
      let req =
        { Types.profile = Profiles.profile ty;
          dreq = Profiles.bound ty (if i / 4 mod 2 = 0 then `Loose else `Tight); ingress;
          egress }
      in
      match
        if class_based then Result.map ignore (Broker.request_class broker req)
        else Result.map ignore (Broker.request broker req)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "request %d rejected: %a" i Types.pp_reject_reason e
    done;
    (st, Bbr_broker.Audit.mib_digest broker)
  in
  let rebuild n =
    let st, digest = store n in
    let w0 = allocated () in
    let recovered =
      match Bbr_broker.Failover.recover_from ~make st with
      | Ok (b, _, r) when r.Bbr_broker.Failover.sr_replayed = n -> b
      | Ok _ | Error _ -> Alcotest.failf "%d records did not replay" n
    in
    let words = allocated () -. w0 in
    Alcotest.(check string) "replayed digest-exact" digest (Bbr_broker.Audit.mib_digest recovered);
    words
  in
  let n = 512 in
  (rebuild (2 * n) -. rebuild n) /. float_of_int n

(* Measured: 257.3 words an [admit] record and 169.3 an [admitc], most
   of them the booking or the macroflow join.  Joining the tail's lines
   into one text and parsing it again cost 550 and 709; replaying an
   [admitc] through the whole [Broker.request_class] over boxed ledgers
   cost 506.5. *)
let admit_replay_words_bound = 270.
let admitc_replay_words_bound = 175.

let test_replay_cost () =
  List.iter
    (fun (what, class_based, bound) ->
      let words = replay_words ~class_based in
      if words > bound then
        Alcotest.failf "replaying an %s record allocates %.1f words (bound %.0f)" what words
          bound)
    [ ("admit", false, admit_replay_words_bound); ("admitc", true, admitc_replay_words_bound) ]

(* ------------------------------------------------------------------ *)
(* Admission allocation *)

(* Words allocated per call of [f], after one warm-up call. *)
let words_per_call f =
  let calls = 64 in
  ignore (Sys.opaque_identity (f ()));
  let w0 = allocated () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (allocated () -. w0) /. float_of_int calls

(* Words one queue-empty signal costs on a [hops]-hop VT-EDF chain whose
   one macroflow holds the grants of [joins] joins, with the number of
   grants it released. *)
let queue_empty_words ~hops ~joins =
  let topology, ingress, egress =
    Topo_gen.chain ~capacity:1e9 ~sched:Topology.Delay_based ~hops ()
  in
  let broker =
    Broker.create ~classes:(Dynamic.service_classes 0.24) ~method_:Aggregate.Feedback
      topology
  in
  let req =
    { Types.profile = Profiles.profile 1; dreq = Profiles.bound 1 `Loose; ingress; egress }
  in
  let signal () =
    List.iter
      (fun (s : Aggregate.macro_stats) ->
        Broker.queue_empty broker ~class_id:s.Aggregate.class_id ~path_id:s.Aggregate.path_id)
      (Aggregate.all_macroflows (Broker.aggregate broker))
  in
  let join () =
    match Broker.request_class broker req with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "join rejected: %a" Types.pp_reject_reason e
  in
  (* Warm up: the macroflow exists and its grant slots have grown. *)
  for _ = 1 to joins do
    join ()
  done;
  signal ();
  for _ = 1 to joins do
    join ()
  done;
  let s = List.hd (Aggregate.all_macroflows (Broker.aggregate broker)) in
  let grants =
    List.length
      (Aggregate.grant_amounts (Broker.aggregate broker) ~class_id:s.Aggregate.class_id
         ~path_id:s.Aggregate.path_id)
  in
  let w0 = allocated () in
  Broker.queue_empty broker ~class_id:s.Aggregate.class_id ~path_id:s.Aggregate.path_id;
  (allocated () -. w0, grants)

(* Measured: 8 words a grant, the boxes of the amount and the totals
   handed to [Node_mib], [Vtedf] and the rate hook, on 1 hop as on 5.
   With boxed ledgers a grant cost 37 more words a hop. *)
let queue_empty_grant_words = 8.

(* A queue-empty signal releases each grant on every link and scheduler
   of the path without allocating per hop: its words are a fixed cost
   plus a fixed count per grant, the same on 1 hop and on 5. *)
let test_queue_empty_words () =
  let cost ~joins =
    let w1, g1 = queue_empty_words ~hops:1 ~joins
    and w5, g5 = queue_empty_words ~hops:5 ~joins in
    if g1 <> g5 || g1 < joins - 1 then
      Alcotest.failf "%d joins left %d and %d grants" joins g1 g5;
    if w1 <> w5 then
      Alcotest.failf "%d grants: %.0f words on 1 hop, %.0f on 5" g1 w1 w5;
    (w1, g1)
  in
  let w_few, g_few = cost ~joins:4 and w_many, g_many = cost ~joins:40 in
  let per_grant = (w_many -. w_few) /. float_of_int (g_many - g_few) in
  if per_grant > queue_empty_grant_words then
    Alcotest.failf "a released grant allocates %.2f words (bound %.0f; %.0f for %d, %.0f for %d)"
      per_grant queue_empty_grant_words w_few g_few w_many g_many

(* [dq] 1.5 Mb/s VT-EDF hops behind [rq] rate-based ones, each holding
   the same [m] flows of 2 kb/s at distinct delays 6 ms apart. *)
let crowded_path ?(rq = 3) ~m ~dq () =
  let capacity = 1.5e6 in
  let edf = List.init dq (fun _ -> Vtedf.create ~capacity) in
  for i = 0 to m - 1 do
    let rate = 2_000. and delay = 0.02 +. (0.006 *. float_of_int i) and lmax = 4_000. in
    if not (List.for_all (fun s -> Vtedf.can_admit s ~rate ~delay ~lmax) edf) then
      Alcotest.failf "flow %d does not fit" i;
    List.iter (fun s -> Vtedf.add s ~rate ~delay ~lmax) edf
  done;
  {
    Admission.hops = rq + dq;
    rate_hops = rq;
    delay_hops = dq;
    d_tot = float_of_int (rq + dq) *. (12_000. /. capacity);
    cres = capacity -. (float_of_int m *. 2_000.);
    edf;
  }

let type0 = Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.

(* The exact check walks every class without allocating per class. *)
let test_can_admit_words_flat () =
  let words m =
    let edf = List.hd (crowded_path ~m ~dq:1 ()).Admission.edf in
    (* Below every class: the candidate meets each breakpoint. *)
    let check () = Vtedf.can_admit edf ~rate:50_000. ~delay:0.01 ~lmax:12_000. in
    Alcotest.(check bool) (Printf.sprintf "admissible at M = %d" m) true (check ());
    words_per_call check
  in
  Alcotest.(check (float 0.)) "words at M = 200 equal words at M = 10" (words 10) (words 200)

(* A mixed decision over a cached table costs O(M) words: its one table
   of per-interval lower bounds and a constant.  At dreq 1.7 the flow is
   admitted at the own-deadline floor lmax/C; with the residual below rho
   no pair exists, and the rejection is decided past a non-empty interval
   table. *)
let test_mixed_words_linear () =
  let m = 200 and dreq = 1.7 in
  let ps = crowded_path ~m ~dq:2 () in
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

(* An uncached decision builds the path's merged table into fresh
   buffers, two per scheduler and two for the path: O(M) words, at
   dreq 1.7 and at dreq 1.0.  The sharded router's two-phase
   admit decides this way. *)
let test_uncached_words_linear () =
  let m = 200 in
  let ps = crowded_path ~rq:0 ~m ~dq:2 () in
  let budget = float_of_int ((10 * m) + 64) in
  List.iter
    (fun dreq ->
      if Result.is_error (Admission.admit ps type0 ~dreq) then
        Alcotest.failf "dreq %g: rejected" dreq;
      let w = words_per_call (fun () -> Admission.admit ps type0 ~dreq) in
      if w >= budget then
        Alcotest.failf "dreq %g: %.0f words a decision at M = %d (budget %.0f)" dreq w m
          budget)
    [ 1.7; 1.0 ]

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

(* A routing hit reads the ingress's memo row: two router-name lookups
   and no allocation, for every edge-to-edge pair of the regional mesh. *)
let test_routing_hit_words () =
  let topo =
    Topo_gen.regions (Prng.create ~seed:1) ~regions:8 ~nodes_per_region:16
      ~delay_fraction:0.5 ()
  in
  let nodes = Array.of_list (Topo_gen.leaves topo) in
  let routing = Routing.create topo (Path_mib.create (Node_mib.create topo)) in
  let all_pairs () =
    for i = 0 to Array.length nodes - 1 do
      for j = 0 to Array.length nodes - 1 do
        ignore
          (Sys.opaque_identity (Routing.path routing ~ingress:nodes.(i) ~egress:nodes.(j)))
      done
    done
  in
  (* the counters' own reads allocate; an empty call measures them *)
  Alcotest.(check (float 0.))
    "words a hit" (words_per_call Fun.id) (words_per_call all_pairs)

(* ------------------------------------------------------------------ *)

(* Every request passes the policy stage: its rules are walked where they
   are kept, with no closure and no reversed copy of the list. *)
let test_policy_words () =
  let p = Policy.create () in
  Policy.add_ingress_rule p ~name:"block-X" ~ingress:"X" Policy.Deny;
  Policy.add_peak_limit p ~name:"cap-peak" ~max_peak:1e9;
  Policy.add_priority_rule p ~name:"gold" ~matches:(fun r -> r.Types.ingress = "X") ~priority:3;
  Policy.add_priority_rule p ~name:"silver" ~matches:(fun r -> r.Types.dreq > 1.) ~priority:2;
  let req = { Types.profile = type0; dreq = 2.; ingress = "A"; egress = "B" } in
  Alcotest.(check bool) "allowed" true (Policy.check p req = Ok ());
  Alcotest.(check int) "second priority rule" 2 (Policy.priority p req);
  (* [words_per_call] itself allocates its counters' boxes. *)
  let none = words_per_call Fun.id in
  Alcotest.(check (float 0.)) "check allocates nothing" none
    (words_per_call (fun () -> Policy.check p req));
  Alcotest.(check (float 0.)) "priority allocates nothing" none
    (words_per_call (fun () -> Policy.priority p req))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_merge_equals_map;
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
          Alcotest.test_case "mixed words linear in M" `Quick test_mixed_words_linear;
          Alcotest.test_case "uncached admit words linear in M" `Quick
            test_uncached_words_linear;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit counters move" `Quick test_cache_hits;
          Alcotest.test_case "decision cost flat in live flows" `Quick
            test_decision_cost_flat;
          Alcotest.test_case "class decision cost flat in members" `Quick
            test_class_cost_flat;
          Alcotest.test_case "queue-empty words fixed per grant" `Quick
            test_queue_empty_words;
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
      ("policy", [ Alcotest.test_case "check allocates nothing" `Quick test_policy_words ]);
      ( "path_mib",
        [ Alcotest.test_case "find by id" `Quick test_path_mib_find ] );
      ( "routing",
        [
          Alcotest.test_case "memo miss words below nodes" `Quick test_routing_miss_words;
          Alcotest.test_case "memo hit allocates nothing" `Quick test_routing_hit_words;
        ] );
      ( "journal",
        [ Alcotest.test_case "admit append cost fixed" `Quick test_append_cost;
          Alcotest.test_case "record replay cost fixed" `Quick test_replay_cost ] );
      ("properties", props);
    ]
