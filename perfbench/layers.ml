(* The traced run's probes.  Everything here observes the program from
   outside, through public hooks: a mutation hook that wraps
   [Journal.append] (what [Journal.attach] installs, plus timing), a
   [Node_mib.on_change] counter, and spans around the calls the workload
   makes.  None of it runs in the untraced run that yields the
   end-to-end numbers. *)

open Bbr_broker
open Harness

(* One probe per broker; a spawned shard's probe is written only by its
   own domain while an operation is in flight, and read by the router
   domain only after the reply (the mailbox's atomics order the two). *)
type probe = {
  spans : Spans.t;
  append : Samples.t;
  encode : Samples.t;
  decide : Samples.t;
  mutable entry : int;  (* start of the decision in flight; 0 when none *)
  mutable parent : int;  (* its span id *)
  mutable dec : int;  (* its decision index *)
  mutable changes : int;  (* Node_mib.on_change events *)
  mutable recomputes : int;  (* paths crossing the changed link, summed *)
  mutable through : int array;  (* link id -> registered paths crossing it *)
  mutable next_path : int;  (* path ids below this are counted in [through] *)
}

let probe ~store =
  {
    spans = Spans.create ~store;
    append = Samples.create 4096;
    encode = Samples.create 4096;
    decide = Samples.create 4096;
    entry = 0;
    parent = -1;
    dec = -1;
    changes = 0;
    recomputes = 0;
    through = [||];
    next_path = 0;
  }

(* Install the journal exactly as [Journal.attach] does — mutation hook
   appending each record, [Journal.group] as the batch hook — with the
   append timed, the same record encoded once more to time [Journal.encode],
   and the first admission record of a decision closing its
   [broker.decide] span. *)
let attach_journal p broker journal =
  Broker.set_mutation_hook broker (fun mu ->
      let t0 = now () in
      (match mu with
      | (Broker.Admit _ | Broker.Admit_segment _ | Broker.Admit_class _) when p.entry > 0 ->
          Samples.add p.decide (t0 - p.entry);
          ignore
            (Spans.add p.spans "broker.decide" ~start:p.entry ~stop:t0 ~parent:p.parent
               ~dec:p.dec);
          p.entry <- 0
      | _ -> ());
      let at = Broker.now broker in
      Journal.append journal ~at mu;
      let t1 = now () in
      Samples.add p.append (t1 - t0);
      ignore (Spans.add p.spans "journal.append" ~start:t0 ~stop:t1 ~parent:p.parent ~dec:p.dec);
      let seq = Journal.appended_total journal - 1 in
      let e0 = now () in
      ignore (Sys.opaque_identity (Journal.encode ~seq ~at mu));
      Samples.add p.encode (now () - e0));
  Broker.set_batch_hook broker (fun body -> Journal.group journal body)

(* Count reservation changes, and the path min-residual recomputes each
   one triggers: one per registered path crossing the changed link.  Path
   ids are dense, so new paths are picked up by probing the next id. *)
let attach_mibs p broker =
  let pm = Broker.path_mib broker in
  let nlinks = Bbr_vtrs.Topology.num_links (Broker.topology broker) in
  p.through <- Array.make (max 1 nlinks) 0;
  let rec sync () =
    match Path_mib.find pm ~path_id:p.next_path with
    | None -> ()
    | Some info ->
        List.iter
          (fun (l : Bbr_vtrs.Topology.link) ->
            let id = l.Bbr_vtrs.Topology.link_id in
            p.through.(id) <- p.through.(id) + 1)
          info.Path_mib.links;
        p.next_path <- p.next_path + 1;
        sync ()
  in
  Node_mib.on_change (Broker.node_mib broker) (fun ~link_id ->
      sync ();
      p.changes <- p.changes + 1;
      p.recomputes <- p.recomputes + p.through.(link_id))

(* Path ids registered so far (catching up on paths no change touched). *)
let paths p broker =
  let pm = Broker.path_mib broker in
  while Path_mib.find pm ~path_id:p.next_path <> None do
    p.next_path <- p.next_path + 1
  done;
  p.next_path

let begin_decision p ~dec ~span ~start =
  p.entry <- start;
  p.parent <- span;
  p.dec <- dec

(* Pool several probes' samples (the shards of one router). *)
let pooled f ps =
  let s = Samples.create 4096 in
  List.iter
    (fun p ->
      let x = f p in
      for i = 0 to Samples.count x - 1 do
        Samples.add s x.Samples.a.(i)
      done)
    ps;
  s

(* ------------------------------------------------------------------ *)
(* The per-layer metrics: every workload prints every one; a layer a
   workload does not run reads 0. *)

(* In BENCHMARK.json order, but for decision_p99_us and
   trace.overhead_pct, which the run adds. *)
let names =
  [
    ("routing.path_us_p50", "us");
    ("routing.memo_hit_ratio", "ratio");
    ("node_mib.changes_per_decision", "count");
    ("path_mib.recomputes_per_decision", "count");
    ("path_mib.paths", "count");
    ("admission_cache.hit_ratio", "ratio");
    ("admission_cache.merges_per_decision", "count");
    ("admission_cache.link_refreshes_per_decision", "count");
    ("broker.decide_us_p50", "us");
    ("broker.fail_link_ms_p50", "ms");
    ("journal.append_us_p50", "us");
    ("journal.append_us_p99", "us");
    ("journal.encode_us_p50", "us");
    ("journal.records_per_decision", "count");
    ("storage.bytes_per_decision", "B");
    ("aggregate.queue_empty_us_p50", "us");
    ("aggregate.members", "count");
    ("aggregate.contingency_share", "ratio");
    ("shard.hop_rtt_us_p50", "us");
    ("shard.hop_rtt_us_p99", "us");
    ("shard_router.single_us_p50", "us");
    ("shard_router.multi_us_p50", "us");
    ("shard_router.multi_share", "ratio");
    ("shard_router.teardown_us_p50", "us");
    ("recover.tail_from_ms", "ms");
    ("recover.apply_us_per_record", "us");
    ("recover.records", "count");
    ("gc.minor_collections_per_kdecision", "count");
    ("gc.major_collections_per_kdecision", "count");
    ("gc.promoted_words_per_decision", "words");
  ]

(* Every metric of [names], taken from [given] or else 0. *)
let complete given =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) given with
      | Some x -> x
      | None -> m name unit_ 0.)
    names

(* Decide, journal, storage and GC metrics, common to every workload. *)
let journal_metrics ~decisions ~probes ~records ~bytes ~(gc : gc) =
  let per x = float_of_int x /. float_of_int (max 1 decisions) in
  let append = pooled (fun p -> p.append) probes in
  [
    m "broker.decide_us_p50" "us" (Samples.us (pooled (fun p -> p.decide) probes) 50.);
    m "journal.append_us_p50" "us" (Samples.us append 50.);
    m "journal.append_us_p99" "us" (Samples.us append 99.);
    m "journal.encode_us_p50" "us" (Samples.us (pooled (fun p -> p.encode) probes) 50.);
    m "journal.records_per_decision" "count" (per records);
    m "storage.bytes_per_decision" "B" (per bytes);
    m "gc.minor_collections_per_kdecision" "count" (1000. *. per gc.minors);
    m "gc.major_collections_per_kdecision" "count" (1000. *. per gc.majors);
    m "gc.promoted_words_per_decision" "words" (gc.promoted /. float_of_int (max 1 decisions));
  ]

(* The rebuild in its two halves (see {!Durable.recover_parts}). *)
let recover_metrics ~tail_ns ~apply_ns ~records =
  [
    m "recover.tail_from_ms" "ms" (float_of_int tail_ns /. 1e6);
    m "recover.apply_us_per_record" "us"
      (float_of_int apply_ns /. 1e3 /. float_of_int (max 1 records));
    m "recover.records" "count" (float_of_int records);
  ]
