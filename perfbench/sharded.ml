(* sharded-front: the sharded broker's front end, [Shard_router] over two
   shards spawned on their own domains, partitioned by region, each shard
   with its own durable journal.  90% of requests stay inside one region
   (one mailbox op on the owning shard); 10% cross regions and go through
   the two-phase Prepare/Book_segment admission.  Teardown goes through
   the router's broadcast.  The mailbox hop and the broadcast dominate;
   admission on the short regional paths is cheap. *)

open Bbr_broker
open Harness
module Prng = Bbr_util.Prng
module Topology = Bbr_vtrs.Topology
module Topo_gen = Bbr_workload.Topo_gen
module Shard_load = Bbr_workload.Shard_load

let nshards = 2
let cfg = Shard_load.default
let cap = 256 (* live flows *)
let warmup = 1000
let probe_every = 16 (* traced run: a mailbox round-trip probe per shard this often *)

let region name = Option.value ~default:0 (Topo_gen.region_of_node name)

let stream ~seed ~n =
  let node r i = Printf.sprintf "R%d_N%d" r i in
  let k = cfg.Shard_load.nodes_per_region and regions = cfg.Shard_load.regions in
  let prng = Prng.create ~seed in
  Array.init n (fun _ ->
      let cross = Prng.int prng ~bound:10 = 0 in
      let r1 = Prng.int prng ~bound:regions in
      let r2 = if cross then (r1 + 1 + Prng.int prng ~bound:(regions - 1)) mod regions else r1 in
      let a = Prng.int prng ~bound:k in
      let b = if cross then Prng.int prng ~bound:k else (a + 1 + Prng.int prng ~bound:(k - 1)) mod k in
      table1_request prng ~ingress:(node r1 a) ~egress:(node r2 b))

type trace = {
  probes : Layers.probe array;  (* one per shard, written on its domain *)
  spans : Spans.t;  (* the router domain's spans *)
  hop : Samples.t;
  single : Samples.t;
  multi : Samples.t;
}

type st = {
  topo : Topology.t;
  router : Shard_router.t;
  stores : Storage.t array;
  reqs : Types.request array;
  live : Live.t;
  mutable next : int;
  c : meter;
}

let step st tr =
  let c = st.c in
  let req = st.reqs.(st.next) in
  st.next <- st.next + 1;
  (match tr with
  | Some tr when c.decisions mod probe_every = 0 ->
      for s = 0 to nshards - 1 do
        let t0 = now () in
        (match Shard.rpc (Shard_router.shard st.router s) (Shard.Prepare []) with
        | _ -> ()
        | exception _ -> c.failed <- c.failed + 1);
        let t1 = now () in
        c.attempted <- c.attempted + 1;
        Samples.add tr.hop (t1 - t0);
        ignore (Spans.add tr.spans "shard.rpc" ~start:t0 ~stop:t1 ~parent:(-1) ~dec:c.decisions)
      done
  | _ -> ());
  let span =
    match tr with
    | None -> -1
    | Some tr ->
        let span = Spans.open_ tr.spans "decision" ~parent:(-1) ~dec:c.decisions in
        let t = now () in
        Array.iter (fun p -> Layers.begin_decision p ~dec:c.decisions ~span ~start:t) tr.probes;
        span
  in
  let t0 = now () in
  let r = Shard_router.request st.router req in
  let t1 = now () in
  Samples.add c.dec (t1 - t0);
  (match tr with
  | Some tr ->
      Spans.finish tr.spans span;
      Samples.add
        (if region req.Types.ingress = region req.Types.egress then tr.single else tr.multi)
        (t1 - t0)
  | None -> ());
  c.attempted <- c.attempted + 1;
  c.decisions <- c.decisions + 1;
  match r with
  | Ok (flow, _) ->
      let old = Live.push st.live flow in
      if old >= 0 then begin
        let t0 = now () in
        (match Shard_router.teardown st.router old with
        | () -> ()
        | exception _ -> c.failed <- c.failed + 1);
        let t1 = now () in
        c.attempted <- c.attempted + 1;
        Samples.add c.td (t1 - t0);
        match tr with
        | Some tr ->
            ignore (Spans.add tr.spans "teardown" ~start:t0 ~stop:t1 ~parent:(-1) ~dec:c.decisions)
        | None -> ()
      end
  | Error (Types.Server_busy _) -> c.failed <- c.failed + 1
  | Error _ -> c.rejected <- c.rejected + 1
  | exception _ -> c.failed <- c.failed + 1

(* Shard domains, journals and stores, and warm-up. *)
let setup reqs ~ops =
  let topo = Shard_load.topology cfg in
  let stores = Array.init nshards (fun _ -> Storage.create ~vfs:(Bbr_util.Vfs.create ()) ()) in
  let journals = Array.map (fun st -> Journal.create ~fsync_every:1 ~storage:st ()) stores in
  let router =
    Shard_router.create ~spawn:true
      ~journal_for:(fun i -> Some journals.(i))
      ~shards:nshards ~partition:(Shard_load.partition ~nshards) topo
  in
  let st = { topo; router; stores; reqs; live = Live.create cap; next = 0; c = meter () } in
  for _ = 1 to warmup do
    step st None
  done;
  restart st.c ~ops;
  st

let measure st ~ops tr = Harness.measure st.c ~ops (fun () -> step st tr)

(* A single broker fed the same sequence: flow ids are allocated the same
   way, so its MIB digest must equal the router's merged one. *)
let reference_digest st =
  let b = Broker.create (Topology.copy st.topo) in
  let live = Queue.create () in
  for i = 0 to st.next - 1 do
    match Broker.request b st.reqs.(i) with
    | Ok (flow, _) ->
        Queue.push flow live;
        if Queue.length live > cap then Broker.teardown b (Queue.pop live)
    | Error _ -> ()
  done;
  Audit.mib_digest b

(* Replay each shard's durable journal into a fresh broker; every
   replica must match its shard.  Call after [Shard_router.stop]. *)
let replay st =
  Array.mapi
    (fun i store ->
      let b = Broker.create (Topology.copy st.topo) in
      let tail = Storage.tail_from store ~cover:0 in
      match Journal.replay b (Journal.text_of_lines tail.Storage.lines) with
      | Ok { Journal.warning = None; _ } -> (i, b)
      | Ok { Journal.warning = Some w; _ } -> failwith ("journal truncated: " ^ w)
      | Error e -> failwith ("replay: " ^ e))
    st.stores

let replicas_match st replicas =
  Array.for_all
    (fun (i, b) ->
      Audit.mib_digest b = Audit.mib_digest (Shard.broker (Shard_router.shard st.router i)))
    replicas

(* The gates that need the shards running, then stop them. *)
let live_gates st =
  let merged = Shard_router.mib_digest st.router in
  let clean = Shard_router.audits_clean st.router in
  Shard_router.stop st.router;
  if not clean then Error "a shard's audit is not clean"
  else if merged <> reference_digest st then
    Error "sharded MIB digest differs from the single-broker reference"
  else Ok ()

let with_gates f = try f () with e -> Error (Printexc.to_string e)

(* An untraced round: timed set-up, the measured phase, the live heap,
   then the gates around a timed replay of the shards' journals. *)
let plain reqs ~ops () =
  let current = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun st -> Shard_router.stop st.router) !current)
    (fun () ->
      let setup_ns, st =
        timed (fun () ->
            let st = setup reqs ~ops in
            current := Some st;
            st)
      in
      let p = measure st ~ops None in
      let live_mb = live_mb () in
      let recover_ns = ref 0 in
      let gate =
        with_gates (fun () ->
            match live_gates st with
            | Error _ as e -> e
            | Ok () ->
                (* A replay takes tens of milliseconds: time three. *)
                let runs = List.init 3 (fun _ -> timed (fun () -> replay st)) in
                recover_ns :=
                  int_of_float (median (List.map (fun (ns, _) -> float_of_int ns) runs));
                if List.for_all (fun (_, replicas) -> replicas_match st replicas) runs then Ok ()
                else Error "a replayed shard journal differs from its shard")
      in
      round p ~note:(phase_note "sharded-front" p) ~gate
        ~metrics:(e2e_metrics p ~setup_ns ~live_mb ~recover_ns:!recover_ns))

(* A traced round: the per-layer metrics and its spans. *)
let traced reqs ~ops () =
  let st = setup reqs ~ops in
  Fun.protect
    ~finally:(fun () -> Shard_router.stop st.router)
    (fun () ->
      (* The shards are idle between operations, so their brokers can be
         probed from here: the next mailbox op publishes the hooks. *)
      let shards = Array.init nshards (Shard_router.shard st.router) in
      let probes = Array.init nshards (fun i -> Layers.probe ~store:(i + 1)) in
      Array.iteri
        (fun i s ->
          let b = Shard.broker s in
          Layers.attach_journal probes.(i) b (Option.get (Shard.journal s));
          Layers.attach_mibs probes.(i) b)
        shards;
      let tr =
        {
          probes;
          spans = Spans.create ~store:0;
          hop = Samples.create 4096;
          single = Samples.create ops;
          multi = Samples.create ops;
        }
      in
      let brokers = Array.map Shard.broker shards in
      let sum f = Array.fold_left (fun acc b -> acc + f b) 0 brokers in
      let cache f = sum (fun b -> f (Option.get (Broker.fast_path_stats b))) in
      let journals = Array.map (fun s -> Option.get (Shard.journal s)) shards in
      let records () = Array.fold_left (fun acc j -> acc + Journal.appended_total j) 0 journals in
      let bytes () = Array.fold_left (fun acc s -> acc + Durable.store_bytes s) 0 st.stores in
      let probe_sum f = Array.fold_left (fun acc p -> acc + f p) 0 probes in
      let hits0 = cache (fun c -> c.Admission_cache.hits)
      and merges0 = cache (fun c -> c.Admission_cache.merges)
      and refreshes0 = cache (fun c -> c.Admission_cache.link_refreshes)
      and records0 = records ()
      and bytes0 = bytes ()
      and changes0 = probe_sum (fun p -> p.Layers.changes)
      and recomputes0 = probe_sum (fun p -> p.Layers.recomputes) in
      let p = measure st ~ops (Some tr) in
      let per x = float_of_int x /. float_of_int (max 1 p.meter.decisions) in
      let layers =
        [
          m "node_mib.changes_per_decision" "count"
            (per (probe_sum (fun p -> p.Layers.changes) - changes0));
          m "path_mib.recomputes_per_decision" "count"
            (per (probe_sum (fun p -> p.Layers.recomputes) - recomputes0));
          m "path_mib.paths" "count"
            (float_of_int
               (Array.fold_left ( + ) 0
                  (Array.mapi (fun i b -> Layers.paths probes.(i) b) brokers)));
          m "admission_cache.hit_ratio" "ratio"
            (per (cache (fun c -> c.Admission_cache.hits) - hits0));
          m "admission_cache.merges_per_decision" "count"
            (per (cache (fun c -> c.Admission_cache.merges) - merges0));
          m "admission_cache.link_refreshes_per_decision" "count"
            (per (cache (fun c -> c.Admission_cache.link_refreshes) - refreshes0));
          m "shard.hop_rtt_us_p50" "us" (Samples.us tr.hop 50.);
          m "shard.hop_rtt_us_p99" "us" (Samples.us tr.hop 99.);
          m "shard_router.single_us_p50" "us" (Samples.us tr.single 50.);
          m "shard_router.multi_us_p50" "us" (Samples.us tr.multi 50.);
          m "shard_router.multi_share" "ratio"
            (float_of_int (Samples.count tr.multi)
            /. float_of_int (max 1 (Samples.count st.c.dec)));
          m "shard_router.teardown_us_p50" "us" (Samples.us st.c.td 50.);
        ]
        @ Layers.journal_metrics ~decisions:p.meter.decisions ~probes:(Array.to_list probes)
            ~records:(records () - records0) ~bytes:(bytes () - bytes0) ~gc:p.gc
      in
      let recovered = ref [] in
      let gate =
        with_gates (fun () ->
            match live_gates st with
            | Error _ as e -> e
            | Ok () ->
                (* The replay in its two halves, summed over the shards. *)
                let tail_ns = ref 0 and apply_ns = ref 0 and records = ref 0 in
                let replicas =
                  Array.mapi
                    (fun i store ->
                      let t, a, n, b =
                        Durable.recover_parts
                          ~make:(fun () -> Broker.create (Topology.copy st.topo))
                          store
                      in
                      tail_ns := !tail_ns + t;
                      apply_ns := !apply_ns + a;
                      records := !records + n;
                      (i, b))
                    st.stores
                in
                recovered :=
                  Layers.recover_metrics ~tail_ns:!tail_ns ~apply_ns:!apply_ns ~records:!records;
                if replicas_match st replicas then Ok ()
                else Error "a replayed shard journal differs from its shard")
      in
      let r =
        round p ~note:(phase_note "sharded-front traced" p) ~gate ~metrics:(fun ~ok_share:_ ->
            Layers.complete (layers @ !recovered))
      in
      let spans = tr.spans :: Array.to_list (Array.map (fun p -> p.Layers.spans) probes) in
      (r, spans))

let run ~seed ~rounds ~ops ~trace ~spans_path =
  (* [Crc32]'s table is a [lazy] value.  When two shard domains force it
     at once, the first time either journals a record, one of them raises
     [CamlinternalLazy.Undefined] and dies, and the router waits for its
     reply forever.  Forcing the table here, before any shard is spawned,
     keeps that start-up race (a program defect) from hanging the run. *)
  ignore (Bbr_util.Crc32.string "");
  let reqs = stream ~seed ~n:(warmup + ops) in
  Harness.run ~rounds ~trace ~spans_path ~plain:(plain reqs ~ops) ~traced:(traced reqs ~ops)
