module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf
module Ids = Map.Make (Int)
module Expiry = Map.Make (struct type t = float * int let compare = compare end)

type time_hooks = { now : unit -> float; after : float -> (unit -> unit) -> unit }

let immediate_time = { now = (fun () -> 0.); after = (fun _ f -> f ()) }

type service = Perflow | Class_based | Fixed

let service_label = function
  | Perflow -> "perflow"
  | Class_based -> "class"
  | Fixed -> "fixed"

type decision_record = {
  service : service;
  request : Types.request;
  flow : Types.flow_id option;
  rate : float;
  rejected : Types.reject_reason option;
  at : float;
}

(* One booked per-flow reservation: the flow, its request, the booked
   rate-delay pair and the ids of the links it holds. *)
type booking = {
  flow : Types.flow_id;
  request : Types.request;
  rate : float;
  delay : float;
  links : int list;
}

(* Every state mutation the broker can commit, in replayable form.  This
   is the vocabulary of the write-ahead {!Journal}: applying the same
   mutation sequence to a fresh broker over the same topology reproduces
   the same MIB state.  [Link_failed] is {e physical}: it records only the
   link-state change — the teardowns, evacuations and re-admissions that
   {!fail_link} performs are each journaled as their own records, in
   execution order, so a replay reproduces the reroute exactly without
   re-running the recovery procedure. *)
type mutation =
  | Admit of booking
  | Admit_segment of booking
  | Admit_class of { flow : Types.flow_id; class_id : int; request : Types.request }
  | Teardown of Types.flow_id
  | Teardown_class of Types.flow_id
  | Queue_emptied of { class_id : int; links : int list }
  | Evacuated of { class_id : int; links : int list }
  | Link_failed of int
  | Link_restored of int

type pin = Flow of Types.flow_id | Grant of { class_id : int; path_id : int; grant : int }

type hold = { id : int; owner : string; mutable expires : float; pin : pin }

type t = {
  topology : Topology.t;
  policy : Policy.t;
  node_mib : Node_mib.t;
  path_mib : Path_mib.t;
  flow_mib : Flow_mib.t;
  routing : Routing.t;
  aggregate : Aggregate.t;
  time : time_hooks;
  cache : Admission_cache.t option;  (* admission fast path; None = uncached *)
  (* Installed by the journal: wraps the body of {!batched} so all records
     appended by a request batch reach one durability boundary together
     (group commit). *)
  mutable batch_wrap : ((unit -> unit) -> unit) option;
  on_edge_config : flow:Types.flow_id -> Types.reservation -> unit;
  on_decision : (decision_record -> unit) option;
  mutable on_mutation : (mutation -> unit) option;
  (* Live holds by id, by held flow and by expiry; [armed] is the
     target of the one timer. *)
  mutable holds : hold Ids.t;
  mutable held_flows : hold Ids.t;
  mutable expiry : hold Expiry.t;
  mutable next_hold : int;
  mutable armed : float;
  mutable on_expire : (hold -> unit) option;
}

let set_mutation_hook t f = t.on_mutation <- Some f

let clear_mutation_hook t = t.on_mutation <- None

let now t = t.time.now ()

(* Every admission outcome funnels through here: the subscriber hook
   always fires; the obs counters and decision log only when installed. *)
let note_decision t ~service req outcome =
  let at = t.time.now () in
  Obs_log.decision ~service:(service_label service) ~at req outcome;
  match t.on_decision with
  | None -> ()
  | Some hook ->
      let flow, rate, rejected =
        match outcome with
        | Ok (flow, rate) -> (Some flow, rate, None)
        | Error e -> (None, 0., Some e)
      in
      hook { service; request = req; flow; rate; rejected; at }

let s_policy = Obs_log.stage_site "policy"

let s_routing = Obs_log.stage_site "routing"

let s_admissibility = Obs_log.stage_site "admissibility"

let s_bookkeeping = Obs_log.stage_site "bookkeeping"

let s_cops_push = Obs_log.stage_site "cops_push"

let stage t site f = Obs_log.stage ~now:t.time.now site f

let route_of t (req : Types.request) =
  Routing.path t.routing ~ingress:req.Types.ingress ~egress:req.Types.egress

(* Shared front half of every admission procedure: policy check, then
   path selection — the first two stages of the Figure-1 control loop. *)
let preamble t req =
  match stage t s_policy (fun () -> Policy.check t.policy req) with
  | Error rule -> Error (Types.Policy_denied rule)
  | Ok () -> (
      match stage t s_routing (fun () -> route_of t req) with
      | None -> Error Types.No_route
      | Some path -> Ok path)

(* A caller-pinned id (the id space is advanced past it), or a fresh one. *)
let claim_id t = function
  | Some f ->
      Flow_mib.reserve_ids t.flow_mib ~below:(f + 1);
      f
  | None -> Flow_mib.fresh_id t.flow_mib

(* Reserve [res] on every link of [path] and record the flow. *)
let book t ~flow (req : Types.request) (path : Path_mib.info) (res : Types.reservation) =
  List.iter
    (fun (l : Topology.link) ->
      let link_id = l.Topology.link_id in
      Node_mib.reserve t.node_mib ~link_id res.Types.rate;
      match (Node_mib.entry t.node_mib ~link_id).Node_mib.edf with
      | Some edf ->
          Vtedf.add edf ~rate:res.Types.rate ~delay:res.Types.delay
            ~lmax:req.Types.profile.Bbr_vtrs.Traffic.lmax
      | None -> ())
    path.Path_mib.links;
  Flow_mib.add t.flow_mib
    {
      Flow_mib.flow;
      request = req;
      reservation = res;
      path;
      admitted_at = t.time.now ();
    }

type admission = [ `Exact | `Conservative | `Fixed of float * float option ]

(* The admissibility stage: the exact test (cached or from scratch), the
   conservative rate-only bound, or an externally chosen rate-delay pair
   checked against residual bandwidth and schedulability.  The
   conservative and fixed tests never walk the merged table, so they read
   the path state directly. *)
let admissibility t path ~(admission : admission) (req : Types.request) =
  let p = req.Types.profile and dreq = req.Types.dreq in
  match admission with
  | `Fixed (rate, _) when not (Bbr_vtrs.Traffic.conforms p ~rate) ->
      Error Types.Delay_unachievable
  | _ -> (
      stage t s_admissibility @@ fun () ->
      match (admission, t.cache) with
      | `Exact, Some cache ->
          let ps, bps = Admission_cache.query cache path in
          Admission.admit ~bps ps p ~dreq
      | `Exact, None -> Admission.admit (Admission.path_state t.node_mib t.path_mib path) p ~dreq
      | `Conservative, _ ->
          Admission.conservative (Admission.path_state t.node_mib t.path_mib path) p ~dreq
      | `Fixed (rate, delay), _ ->
          let ps = Admission.path_state t.node_mib t.path_mib path in
          let delay =
            match (delay, ps.Admission.delay_hops) with
            | Some d, _ -> d
            | None, 0 -> 0.
            | None, _ -> invalid_arg "Broker.request_fixed: delay required on a mixed path"
          in
          if Admission.schedulable ps ~rate ~delay ~lmax:p.Bbr_vtrs.Traffic.lmax then
            Ok { Types.rate; delay }
          else if Bbr_util.Fp.gt rate ps.Admission.cres then Error Types.Insufficient_bandwidth
          else Error Types.Not_schedulable)

(* The per-flow control loop of Figure 1, for every per-flow decision:
   policy, routing, admissibility, bookkeeping, then the journal record
   (written before the decision leaves the broker), the COPS push of the
   reservation to the ingress edge conditioner, and the decision log. *)
let decide t ?flow ~admission req =
  Obs_log.span ~now:t.time.now "bb.request"
    ~attrs:[ ("ingress", req.Types.ingress); ("egress", req.Types.egress) ]
  @@ fun _sp ->
  let outcome =
    match preamble t req with
    | Error e -> Error e
    | Ok path -> (
        match admissibility t path ~admission req with
        | Error e -> Error e
        | Ok res ->
            let flow =
              stage t s_bookkeeping (fun () ->
                  let flow = claim_id t flow in
                  book t ~flow req path res;
                  flow)
            in
            (match t.on_mutation with
            | None -> ()
            | Some f ->
                f
                  (Admit
                     {
                       flow;
                       request = req;
                       rate = res.Types.rate;
                       delay = res.Types.delay;
                       links = Topology.link_ids path.Path_mib.links;
                     }));
            stage t s_cops_push (fun () -> t.on_edge_config ~flow res);
            Ok (flow, res))
  in
  let service = match admission with `Fixed _ -> Fixed | `Exact | `Conservative -> Perflow in
  note_decision t ~service req
    (Result.map (fun (flow, (res : Types.reservation)) -> (flow, res.Types.rate)) outcome);
  outcome

let request t ?flow ?(admission = `Exact) req =
  decide t ?flow ~admission:(admission : [ `Exact | `Conservative ] :> admission) req

let request_fixed t req ~rate ?delay () =
  Result.map fst (decide t ~admission:(`Fixed (rate, delay)) req)

(* Book an already-decided reservation verbatim on [path] (the booking's
   links, which need not be connected) and journal [m]: no policy,
   routing or admissibility runs here.  The edge push and the decision
   log stay with whoever owns the decision.  [Flow_mib.add] advances the
   id space past the booking's flow. *)
let book_links t (b : booking) path m =
  book t ~flow:b.flow b.request path { Types.rate = b.rate; delay = b.delay };
  match t.on_mutation with None -> () | Some f -> f m

(* The commit leg of the sharded broker's two-phase multi-shard admission,
   and the replay form of [Admit_segment] records: a path alternating
   between shards leaves each owner a non-contiguous segment. *)
let book_segment t b =
  let seg =
    Path_mib.register_segment t.path_mib (List.map (Topology.link_by_id t.topology) b.links)
  in
  book_links t b seg (Admit_segment b)

(* The replay form of a whole-path [Admit] record or snapshot admit line:
   booked verbatim like a segment, but the links must still run from the
   request's ingress to its egress, so a malformed or hand-edited record
   is refused rather than booked. *)
let book_path t b =
  let ls = List.map (Topology.link_by_id t.topology) b.links in
  (match (ls, List.rev ls) with
  | first :: _, last :: _
    when first.Topology.src = b.request.Types.ingress
         && last.Topology.dst = b.request.Types.egress ->
      ()
  | _ -> invalid_arg "Broker.book_path: links do not run from ingress to egress");
  book_links t b (Path_mib.register t.path_mib ls) (Admit b)

let set_batch_hook t f = t.batch_wrap <- Some f

(* Run [f] as one batch: journal records it appends reach a single
   durability boundary together (group commit), and consecutive requests
   inside it hit the still-warm admission cache.  Reentrant — a batch
   within a batch joins the outer one (the wrap installed by the journal is
   itself reentrant). *)
let batched t f =
  match t.batch_wrap with
  | None -> f ()
  | Some wrap ->
      let out = ref None in
      wrap (fun () -> out := Some (f ()));
      (* The wrap always runs its body exactly once. *)
      Option.get !out

(* Forget hold [h]: its booking stays as it is. *)
let drop t h =
  t.holds <- Ids.remove h.id t.holds;
  t.expiry <- Expiry.remove (h.expires, h.id) t.expiry;
  match h.pin with Flow flow -> t.held_flows <- Ids.remove flow t.held_flows | Grant _ -> ()

let drop_flow_hold t flow =
  if not (Ids.is_empty t.held_flows) then
    match Ids.find_opt flow t.held_flows with Some h -> drop t h | None -> ()

(* Idempotent: a teardown for an unknown (already-released) flow is a
   no-op, so retransmitted DRQs and departures of flows dropped by a link
   failure are harmless.  [release] keeps the flow's hold. *)
let release t flow =
  match Flow_mib.remove t.flow_mib flow with
  | None -> ()
  | Some record ->
      (match t.on_mutation with
      | None -> ()
      | Some f -> f (Teardown flow));
      Obs_log.count "bb_teardowns_total" ~labels:[ ("service", "perflow") ];
      let res = record.Flow_mib.reservation in
      List.iter
        (fun (l : Topology.link) ->
          let link_id = l.Topology.link_id in
          (match (Node_mib.entry t.node_mib ~link_id).Node_mib.edf with
          | Some edf ->
              Vtedf.remove edf ~rate:res.Types.rate ~delay:res.Types.delay
                ~lmax:record.Flow_mib.request.Types.profile.Bbr_vtrs.Traffic.lmax
          | None -> ());
          Node_mib.release t.node_mib ~link_id res.Types.rate)
        record.Flow_mib.path.Path_mib.links

let teardown t flow =
  drop_flow_hold t flow;
  release t flow

(* A caller-pinned class, refused when its bound is looser than the
   request's. *)
let pinned_class t ~class_id (req : Types.request) =
  match Aggregate.find_class t.aggregate ~class_id with
  | Some c when c.Aggregate.dreq <= req.Types.dreq +. 1e-12 -> Ok c
  | Some _ -> Error Types.Delay_unachievable
  | None -> Error (Types.Policy_denied "unknown service class")

(* The macroflow join of an already-decided class admission on [path],
   journaled as [Admit_class]. *)
let rejoin t ~class_id ~flow path (req : Types.request) =
  match Aggregate.join t.aggregate ~class_id ~path ~flow req.Types.profile with
  | Error _ as e -> e
  | Ok () ->
      (match t.on_mutation with
      | None -> ()
      | Some f -> f (Admit_class { flow; class_id; request = req }));
      Ok ()

let request_class t ?class_id ?flow req =
  let outcome =
    match preamble t req with
    | Error e -> Error e
    | Ok path -> (
        let cls =
          match class_id with
          | Some class_id -> pinned_class t ~class_id req
          | None -> (
              match Aggregate.best_class t.aggregate ~dreq:req.Types.dreq with
              | Some c -> Ok c
              | None -> Error Types.Delay_unachievable)
        in
        match cls with
        | Error e -> Error e
        | Ok cls -> (
            let flow = claim_id t flow in
            (* For class-based service the admissibility test and the
               bookkeeping are one operation (the macroflow join of
               Section 4.3); the subsequent rate push to the edge rides
               the aggregate's [rate_changed] hook. *)
            match
              stage t s_admissibility (fun () ->
                  Aggregate.join t.aggregate ~class_id:cls.Aggregate.class_id ~path
                    ~flow req.Types.profile)
            with
            | Ok () ->
                (match t.on_mutation with
                | None -> ()
                | Some f ->
                    f (Admit_class { flow; class_id = cls.Aggregate.class_id; request = req }));
                Ok (flow, cls)
            | Error e -> Error e))
  in
  note_decision t ~service:Class_based req
    (Result.map (fun (flow, _) -> (flow, 0.)) outcome);
  outcome

(* The replay form of an [Admit_class] record: routing, the pinned class
   and the join, as {!request_class} runs them.  The policy check, the
   stage timers and the decision log stay with the primary, which
   decided; a standby whose policy differs still rebuilds its state. *)
let book_class t ~class_id ~flow req =
  match route_of t req with
  | None -> Error Types.No_route
  | Some path -> (
      match pinned_class t ~class_id req with
      | Error _ as e -> e
      | Ok _ -> rejoin t ~class_id ~flow:(claim_id t (Some flow)) path req)

(* Idempotent for the same reason as {!teardown}. *)
let teardown_class t flow =
  if Aggregate.owner t.aggregate ~flow <> None then begin
    (match t.on_mutation with
    | None -> ()
    | Some f -> f (Teardown_class flow));
    Obs_log.count "bb_teardowns_total" ~labels:[ ("service", "class") ];
    Aggregate.leave t.aggregate ~flow
  end

let queue_empty t ~class_id ~path_id =
  (match t.on_mutation with
  | None -> ()
  | Some f ->
      (* Journal only signals that land on a live macroflow; the path is
         identified by its link ids, which (unlike path ids) survive a
         replay onto a differently grown path MIB. *)
      if Aggregate.macroflow_stats t.aggregate ~class_id ~path_id <> None then
        match Path_mib.find t.path_mib ~path_id with
        | Some info -> f (Queue_emptied { class_id; links = Topology.link_ids info.Path_mib.links })
        | None -> ());
  Aggregate.queue_empty t.aggregate ~class_id ~path_id

(* ------------------------------------------------------------------ *)
(* Expiring holds.                                                    *)

let release_hold t h =
  drop t h;
  (match h.pin with
  | Flow flow -> release t flow
  | Grant { class_id; path_id; grant } ->
      Aggregate.release_grant t.aggregate ~class_id ~path_id ~grant);
  if Obs_log.active () then begin
    Obs_log.count "bb_holds_expired_total";
    Obs_log.event ~at:(t.time.now ()) "bb.hold.expired"
      ~attrs:[ ("hold", string_of_int h.id); ("owner", h.owner) ]
  end;
  Option.iter (fun f -> f h) t.on_expire

(* Release every hold due by [upto], by expiry and then by id, and arm
   the one timer for the earliest expiry left.  A timer whose target is
   not [armed] was superseded.  [armed] is set once [after] returns, so
   a timer that fires inside it, on a clock that does not advance
   ({!immediate_time}), expires nothing. *)
let rec expire_upto t upto =
  match Expiry.min_binding_opt t.expiry with
  | Some ((at, _), h) when at <= upto ->
      release_hold t h;
      expire_upto t upto
  | _ -> arm t

and arm t =
  match Expiry.min_binding_opt t.expiry with
  | Some ((at, _), _) when at < t.armed ->
      t.time.after (Float.max 0. (at -. t.time.now ())) (fun () ->
          if at = t.armed then begin
            t.armed <- infinity;
            expire_upto t (Float.max at (t.time.now ()))
          end);
      t.armed <- at
  | _ -> ()

let expire t =
  t.armed <- infinity;
  expire_upto t (t.time.now ())

let add_hold t ~owner ~expires pin =
  let h = { id = t.next_hold; owner; expires; pin } in
  t.next_hold <- t.next_hold + 1;
  t.holds <- Ids.add h.id h t.holds;
  (match pin with Flow flow -> t.held_flows <- Ids.add flow h t.held_flows | Grant _ -> ());
  t.expiry <- Expiry.add (expires, h.id) h t.expiry;
  arm t;
  h.id

let hold t ~owner ~expires flow =
  if Flow_mib.find t.flow_mib flow = None then invalid_arg "Broker.hold: flow not booked";
  if Ids.mem flow t.held_flows then invalid_arg "Broker.hold: flow already held";
  add_hold t ~owner ~expires (Flow flow)

let renew t id ~expires =
  Option.iter
    (fun h ->
      t.expiry <- Expiry.add (expires, h.id) h (Expiry.remove (h.expires, h.id) t.expiry);
      h.expires <- expires;
      arm t)
    (Ids.find_opt id t.holds)

let convert t id = Option.iter (drop t) (Ids.find_opt id t.holds)

let holds t = List.map snd (Ids.bindings t.holds)

let pinned t h =
  match h.pin with
  | Flow flow -> (
      match Flow_mib.find t.flow_mib flow with
      | Some r -> r.Flow_mib.reservation.Types.rate
      | None -> 0.)
  | Grant { class_id; path_id; grant } ->
      Aggregate.grant_amount t.aggregate ~class_id ~path_id ~grant

let set_expiry_hook t f = t.on_expire <- Some f

let after t delay f = t.time.after delay f

let create ?policy ?(classes = []) ?(method_ = Aggregate.Feedback) ?time
    ?(fast_path = true)
    ?(on_edge_config = fun ~flow:_ _ -> ()) ?(on_class_rate = fun ~class_id:_ ~path_id:_ ~total_rate:_ -> ())
    ?on_decision topology =
  let policy = match policy with Some p -> p | None -> Policy.create () in
  let time = Option.value ~default:immediate_time time in
  let node_mib = Node_mib.create topology in
  let path_mib = Path_mib.create node_mib in
  let cache =
    if fast_path then Some (Admission_cache.create node_mib path_mib) else None
  in
  (* The aggregate holds its Bounding grants in the table of the broker
     built around it. *)
  let rec t =
    lazy
      {
        topology;
        policy;
        node_mib;
        path_mib;
        flow_mib = Flow_mib.create ();
        routing = Routing.create topology path_mib;
        aggregate = Aggregate.create node_mib path_mib ~classes ~method_ ~hooks;
        time;
        cache;
        batch_wrap = None;
        on_edge_config;
        on_decision;
        on_mutation = None;
        holds = Ids.empty;
        held_flows = Ids.empty;
        expiry = Expiry.empty;
        next_hold = 0;
        armed = infinity;
        on_expire = None;
      }
  and hooks =
    {
      Aggregate.now = time.now;
      hold =
        (fun ~class_id ~path_id ~grant ~expires ->
          ignore
            (add_hold (Lazy.force t) ~owner:(Printf.sprintf "class %d" class_id) ~expires
               (Grant { class_id; path_id; grant })));
      rate_changed = on_class_rate;
    }
  in
  Lazy.force t

(* ------------------------------------------------------------------ *)
(* Link failure handling (restore-or-preempt).                        *)

type link_recovery = {
  link_id : int;
  perflow_rerouted : Types.flow_id list;
  perflow_dropped : Types.flow_id list;
  class_rerouted : Types.flow_id list;
  class_dropped : Types.flow_id list;
}

let recovered_count r = List.length r.perflow_rerouted + List.length r.class_rerouted

let dropped_count r = List.length r.perflow_dropped + List.length r.class_dropped

(* The physical half of a link transition: journal the record and flip the
   topology state.  [fail_link] / [restore_link]
   run this and then their recovery cascade; the sharded broker's router
   calls it directly on each shard so the cascade (which spans shards) can
   run once, centrally. *)
let set_link_admin t ~link_id ~up =
  ignore (Topology.link_by_id t.topology link_id);
  (match t.on_mutation with
  | None -> ()
  | Some f -> f (if up then Link_restored link_id else Link_failed link_id));
  Topology.set_link_state t.topology ~link_id ~up

let fail_link t ~link_id =
  set_link_admin t ~link_id ~up:false;
  (* Victims, released before any re-admission so survivors compete for the
     full remaining capacity.  Per-flow records are captured first: teardown
     removes them from the MIB. *)
  let perflow_victims = Flow_mib.crossing t.flow_mib ~link_id in
  List.iter (fun (r : Flow_mib.record) -> release t r.Flow_mib.flow) perflow_victims;
  let class_victims =
    List.filter_map
      (fun (s : Aggregate.macro_stats) ->
        match Path_mib.find t.path_mib ~path_id:s.Aggregate.path_id with
        | Some info
          when List.exists
                 (fun (l : Topology.link) -> l.Topology.link_id = link_id)
                 info.Path_mib.links ->
            let endpoints =
              Aggregate.path_endpoints t.aggregate ~class_id:s.Aggregate.class_id
                ~path_id:s.Aggregate.path_id
            in
            (match t.on_mutation with
            | None -> ()
            | Some f ->
                f
                  (Evacuated
                     {
                       class_id = s.Aggregate.class_id;
                       links = Topology.link_ids info.Path_mib.links;
                     }));
            Some
              ( s.Aggregate.class_id,
                endpoints,
                Aggregate.evacuate t.aggregate ~class_id:s.Aggregate.class_id
                  ~path_id:s.Aggregate.path_id )
        | _ -> None)
      (Aggregate.all_macroflows t.aggregate)
  in
  (* Re-admission, flow-id order within each population: the flow keeps its
     id across the reroute, so ingress routers and in-flight DRQs stay
     valid; the edge is reconfigured through the usual hooks. *)
  let perflow_rerouted, perflow_dropped =
    List.partition_map
      (fun (r : Flow_mib.record) ->
        match request t ~flow:r.Flow_mib.flow r.Flow_mib.request with
        | Ok _ -> Either.Left r.Flow_mib.flow
        | Error _ -> Either.Right r.Flow_mib.flow)
      perflow_victims
  in
  (* A re-admitted flow keeps its hold; a dropped one loses it. *)
  if not (Ids.is_empty t.held_flows) then List.iter (drop_flow_hold t) perflow_dropped;
  let class_rerouted, class_dropped =
    List.concat_map
      (fun (class_id, endpoints, members) ->
        List.map
          (fun (flow, profile) ->
            let rejoined =
              match endpoints with
              | None -> false
              | Some (ingress, egress) -> (
                  match Routing.path t.routing ~ingress ~egress with
                  | None -> false
                  | Some path ->
                      (* This join bypasses {!request_class}, so it
                         journals its own record.  The class is pinned;
                         [dreq = infinity] replays through any class
                         bound. *)
                      Result.is_ok
                        (rejoin t ~class_id ~flow path
                           { Types.profile; dreq = infinity; ingress; egress }))
            in
            if rejoined then Either.Left flow else Either.Right flow)
          members)
      class_victims
    |> List.partition_map Fun.id
  in
  let recovery =
    { link_id; perflow_rerouted; perflow_dropped; class_rerouted; class_dropped }
  in
  if Obs_log.active () then begin
    let at = t.time.now () in
    Obs_log.count "bb_link_failures_total";
    Obs_log.count "bb_flows_rerouted_total"
      ~by:(float_of_int (recovered_count recovery));
    Obs_log.count "bb_flows_dropped_total"
      ~by:(float_of_int (dropped_count recovery));
    Obs_log.event ~at "bb.link.failed"
      ~attrs:
        [
          ("link", string_of_int link_id);
          ("rerouted", string_of_int (recovered_count recovery));
          ("dropped", string_of_int (dropped_count recovery));
        ]
  end;
  recovery

let restore_link t ~link_id =
  set_link_admin t ~link_id ~up:true;
  if Obs_log.active () then
    Obs_log.event ~at:(t.time.now ()) "bb.link.restored"
      ~attrs:[ ("link", string_of_int link_id) ]

let topology t = t.topology

let policy t = t.policy

let node_mib t = t.node_mib

let path_mib t = t.path_mib

let flow_mib t = t.flow_mib

let routing t = t.routing

let aggregate t = t.aggregate

let fast_path_stats t = Option.map Admission_cache.stats t.cache

let per_flow_count t = Flow_mib.count t.flow_mib

let class_flow_count t = Aggregate.member_count t.aggregate
