(* The closed loop of the two single-broker workloads: one caller
   keeps one request outstanding, holds up to [cap] live flows (tearing
   the oldest down beyond that), and fires the workload's periodic
   events between decisions.  Every decision is durable (see
   {!Durable}). *)

open Bbr_broker
open Harness
module Topology = Bbr_vtrs.Topology

type service = Perflow | Class

(* What happens every [every] decisions. *)
type events =
  | Flaps of int array
      (** link ids: the k-th period starts by failing [flaps.(k)], which
          is restored halfway through the period *)
  | Feedback  (** queue-empty feedback on every macroflow *)

type spec = {
  name : string;
  service : service;
  make : unit -> Broker.t;  (* a fresh broker; called again for recovery *)
  cap : int;
  warmup : int;  (* decisions before the first timed one *)
  every : int;
  events : events;
}

(* Probes of the traced run. *)
type trace = {
  probe : Layers.probe;
  routing : Samples.t;
  memo : (string * string, unit) Hashtbl.t;  (* mirrors the routing memo *)
  mutable memo_version : int;
  mutable memo_hits : int;
  qe : Samples.t;  (* per queue_empty call *)
  mutable share_sum : float;  (* contingency share, summed over feedback rounds *)
  mutable share_n : int;
}

type st = {
  spec : spec;
  d : Durable.t;
  reqs : Types.request array;
  live : Live.t;
  mutable down : int;  (* the failed link, or -1 *)
  mutable next : int;  (* next request of the stream *)
  mutable measuring : bool;  (* past the warm-up: flaps fire *)
  c : meter;
  flap : Samples.t;  (* per fail_link call *)
}

let timed_op st tr name f =
  let t0 = now () in
  (match f () with () -> () | exception _ -> st.c.failed <- st.c.failed + 1);
  let t1 = now () in
  st.c.attempted <- st.c.attempted + 1;
  (match tr with
  | Some tr ->
      ignore
        (Spans.add tr.probe.Layers.spans name ~start:t0 ~stop:t1 ~parent:(-1) ~dec:st.c.decisions)
  | None -> ());
  t1 - t0

(* Flaps start with the measured phase; feedback runs from the start, as
   contingency would otherwise pile up during the warm-up. *)
let events st tr =
  let b = st.d.Durable.broker in
  let j = st.next - st.spec.warmup in
  match st.spec.events with
  | Flaps _ when not st.measuring -> ()
  | Flaps links ->
      if j mod st.spec.every = 0 then begin
        let link = links.(j / st.spec.every) in
        Samples.add st.flap
          (timed_op st tr "broker.fail_link" (fun () ->
               ignore (Broker.fail_link b ~link_id:link);
               st.down <- link))
      end
      else if j mod st.spec.every = st.spec.every / 2 && st.down >= 0 then begin
        let link = st.down in
        ignore
          (timed_op st tr "broker.restore_link" (fun () ->
               Broker.restore_link b ~link_id:link;
               st.down <- -1))
      end
  | Feedback ->
      if st.next mod st.spec.every = 0 then begin
        let macros = Aggregate.all_macroflows (Broker.aggregate b) in
        (match tr with
        | Some tr ->
            let base, cont =
              List.fold_left
                (fun (b, c) (s : Aggregate.macro_stats) ->
                  (b +. s.Aggregate.base_rate, c +. s.Aggregate.contingency))
                (0., 0.) macros
            in
            if base +. cont > 0. then begin
              tr.share_sum <- tr.share_sum +. (cont /. (base +. cont));
              tr.share_n <- tr.share_n + 1
            end
        | None -> ());
        List.iter
          (fun (s : Aggregate.macro_stats) ->
            let ns =
              timed_op st tr "broker.queue_empty" (fun () ->
                  Broker.queue_empty b ~class_id:s.Aggregate.class_id
                    ~path_id:s.Aggregate.path_id)
            in
            match tr with Some tr -> Samples.add tr.qe ns | None -> ())
          macros
      end

(* The traced run's work ahead of a decision: time the route lookup,
   open the decision span.  Returns the span id. *)
let before_decision st tr (req : Types.request) =
  let b = st.d.Durable.broker in
  let r0 = now () in
  ignore (Routing.path (Broker.routing b) ~ingress:req.Types.ingress ~egress:req.Types.egress);
  let r1 = now () in
  Samples.add tr.routing (r1 - r0);
  let version = Topology.state_version (Broker.topology b) in
  if version <> tr.memo_version then begin
    Hashtbl.reset tr.memo;
    tr.memo_version <- version
  end;
  let key = (req.Types.ingress, req.Types.egress) in
  if Hashtbl.mem tr.memo key then tr.memo_hits <- tr.memo_hits + 1
  else Hashtbl.add tr.memo key ();
  let p = tr.probe in
  let dec = st.c.decisions in
  let span = Spans.open_ p.Layers.spans "decision" ~parent:(-1) ~dec in
  ignore (Spans.add p.Layers.spans "routing.path" ~start:r0 ~stop:r1 ~parent:span ~dec);
  Layers.begin_decision p ~dec ~span ~start:(now ());
  span

let decide b service req =
  match service with
  | Perflow -> Result.map fst (Broker.request b req)
  | Class -> Result.map fst (Broker.request_class b req)

let release b service flow =
  match service with Perflow -> Broker.teardown b flow | Class -> Broker.teardown_class b flow

let step st tr =
  let b = st.d.Durable.broker and c = st.c in
  events st tr;
  let req = st.reqs.(st.next) in
  st.next <- st.next + 1;
  let span = match tr with None -> -1 | Some tr -> before_decision st tr req in
  let t0 = now () in
  let r = decide b st.spec.service req in
  let t1 = now () in
  Samples.add c.dec (t1 - t0);
  (match tr with Some tr -> Spans.finish tr.probe.Layers.spans span | None -> ());
  c.attempted <- c.attempted + 1;
  c.decisions <- c.decisions + 1;
  match r with
  | Ok flow ->
      let old = Live.push st.live flow in
      if old >= 0 then
        Samples.add c.td (timed_op st tr "teardown" (fun () -> release b st.spec.service old))
  | Error (Types.Server_busy _) -> c.failed <- c.failed + 1
  | Error _ -> c.rejected <- c.rejected + 1
  | exception _ -> c.failed <- c.failed + 1

(* Durable broker and warm-up, up to the first timed decision. *)
let setup spec reqs ~ops =
  let st =
    {
      spec;
      d = Durable.create spec.make;
      reqs;
      live = Live.create spec.cap;
      down = -1;
      next = 0;
      measuring = false;
      c = meter ();
      flap = Samples.create 16;
    }
  in
  for _ = 1 to spec.warmup do
    step st None
  done;
  restart st.c ~ops;
  st.measuring <- true;
  st

let measure st ~ops tr = Harness.measure st.c ~ops (fun () -> step st tr)

(* The gates and the rebuild.  Only the store outlives the live gate, so
   the live broker and its in-memory journal can be collected before the
   rebuild allocates its own copy of the state. *)
let recover_and_check st rebuild =
  match Durable.live_digest st.d with
  | Error e -> (None, Error e)
  | Ok digest -> (
      let make = st.spec.make and store = st.d.Durable.store in
      match rebuild ~make store with
      | r, recovered -> (Some r, Durable.matches digest recovered)
      | exception e -> (None, Error (Printexc.to_string e)))

(* An untraced round: timed set-up, the measured phase, the live heap,
   then the gates around a timed rebuild. *)
let plain spec reqs ~ops () =
  let setup_ns, st = timed (fun () -> setup spec reqs ~ops) in
  let p = measure st ~ops None in
  let live_mb = live_mb () in
  let recover_ns, gate =
    recover_and_check st (fun ~make store -> timed (fun () -> Durable.recover ~make store))
  in
  round p ~note:(phase_note spec.name p) ~gate
    ~metrics:(e2e_metrics p ~setup_ns ~live_mb ~recover_ns:(Option.value ~default:0 recover_ns))

(* A traced round: the per-layer metrics and its spans. *)
let traced spec reqs ~ops () =
  let st = setup spec reqs ~ops in
  let b = st.d.Durable.broker in
  let journal = st.d.Durable.journal and store = st.d.Durable.store in
  let probe = Layers.probe ~store:0 in
  Layers.attach_journal probe b journal;
  Layers.attach_mibs probe b;
  let tr =
    {
      probe;
      routing = Samples.create ops;
      memo = Hashtbl.create 4096;
      memo_version = -1;
      memo_hits = 0;
      qe = Samples.create 1024;
      share_sum = 0.;
      share_n = 0;
    }
  in
  let cache0 = Option.get (Broker.fast_path_stats b) in
  let records0 = Journal.appended_total journal in
  let bytes0 = Durable.store_bytes store in
  let changes0 = probe.Layers.changes and recomputes0 = probe.Layers.recomputes in
  let p = measure st ~ops (Some tr) in
  let cache1 = Option.get (Broker.fast_path_stats b) in
  let per x = float_of_int x /. float_of_int (max 1 p.meter.decisions) in
  let layers =
    [
      m "routing.path_us_p50" "us" (Samples.us tr.routing 50.);
      m "routing.memo_hit_ratio" "ratio" (per tr.memo_hits);
      m "node_mib.changes_per_decision" "count" (per (probe.Layers.changes - changes0));
      m "path_mib.recomputes_per_decision" "count" (per (probe.Layers.recomputes - recomputes0));
      m "path_mib.paths" "count" (float_of_int (Layers.paths probe b));
      m "admission_cache.hit_ratio" "ratio"
        (per (cache1.Admission_cache.hits - cache0.Admission_cache.hits));
      m "admission_cache.merges_per_decision" "count"
        (per (cache1.Admission_cache.merges - cache0.Admission_cache.merges));
      m "admission_cache.link_refreshes_per_decision" "count"
        (per (cache1.Admission_cache.link_refreshes - cache0.Admission_cache.link_refreshes));
      m "broker.fail_link_ms_p50" "ms" (Samples.us st.flap 50. /. 1e3);
      m "aggregate.queue_empty_us_p50" "us" (Samples.us tr.qe 50.);
      m "aggregate.members" "count" (float_of_int (Aggregate.member_count (Broker.aggregate b)));
      m "aggregate.contingency_share" "ratio" (tr.share_sum /. float_of_int (max 1 tr.share_n));
    ]
    @ Layers.journal_metrics ~decisions:p.meter.decisions ~probes:[ probe ]
        ~records:(Journal.appended_total journal - records0)
        ~bytes:(Durable.store_bytes store - bytes0)
        ~gc:p.gc
  in
  let parts, gate =
    recover_and_check st (fun ~make store ->
        let tail_ns, apply_ns, records, recovered = Durable.recover_parts ~make store in
        (Layers.recover_metrics ~tail_ns ~apply_ns ~records, recovered))
  in
  let r =
    round p ~note:(phase_note (spec.name ^ " traced") p) ~gate ~metrics:(fun ~ok_share:_ ->
        Layers.complete (layers @ Option.value ~default:[] parts))
  in
  (r, [ probe.Layers.spans ])

let run spec reqs ~rounds ~ops ~trace ~spans_path =
  Harness.run ~rounds ~trace ~spans_path ~plain:(plain spec reqs ~ops)
    ~traced:(traced spec reqs ~ops)
