module Traffic = Bbr_vtrs.Traffic
module Delay = Bbr_vtrs.Delay
module Topology = Bbr_vtrs.Topology
module Fp = Bbr_util.Fp

module Metrics = Bbr_obs.Metrics

(* A grant's central pseudo-flow is held under a leased edge's lease;
   [hold] is -1 on an unleased edge. *)
type grant = { central_flow : Types.flow_id; amount : float; hold : int }

type t = {
  central : Broker.t;
  ingress : string;
  egress : string;
  chunk : float;
  hops : int;
  d_tot : float;
  mutable grants : grant list;
  mutable quota : float;
  mutable used : float;
  flows : (Types.flow_id, float) Hashtbl.t;  (* local flow -> rate *)
  mutable next_id : int;
  mutable transactions : int;
  mutable returning : bool;  (* a quota return is in flight *)
  mutable lease : manager option;  (* None: an unleased edge *)
  (* The edge is heartbeating.  A partitioned leased edge cannot reach
     the central broker: quota acquisitions and returns fail locally
     instead of pretending the exchange happened. *)
  mutable connected : bool;
}

and manager = {
  m_central : Broker.t;
  period : float;
  mutable members : t list;
  mutable m_stopped : bool;
}

(* Quota is acquired as a constant-bit-rate pseudo-flow: its reserved rate
   equals its sustained (= peak) rate for any loose delay requirement. *)
let quota_request t amount =
  {
    Types.profile =
      Traffic.make ~sigma:Topology.mtu_bits ~rho:amount ~peak:amount
        ~lmax:Topology.mtu_bits;
    dreq = 1e9;
    ingress = t.ingress;
    egress = t.egress;
  }

let create ~central ~ingress ~egress ~chunk =
  if chunk <= 0. then invalid_arg "Edge_broker.create: chunk must be positive";
  let probe =
    {
      Types.profile =
        Traffic.make ~sigma:Topology.mtu_bits ~rho:1. ~peak:1. ~lmax:Topology.mtu_bits;
      dreq = 1e9;
      ingress;
      egress;
    }
  in
  match Broker.route_of central probe with
  | None -> Error Types.No_route
  | Some info ->
      if info.Path_mib.delay_hops > 0 then Error Types.Not_schedulable
      else
        Ok
          {
            central;
            ingress;
            egress;
            chunk;
            hops = info.Path_mib.hops;
            d_tot = info.Path_mib.d_tot;
            grants = [];
            quota = 0.;
            used = 0.;
            flows = Hashtbl.create 32;
            next_id = 0;
            transactions = 0;
            returning = false;
            lease = None;
            connected = true;
          }

let available t = t.quota -. t.used

let holder t = t.ingress ^ "->" ^ t.egress

(* Every exchange with the central broker funnels through here, so the
   transaction tally and the [bb_edge_transactions_total] counter cannot
   drift apart. *)
let central_transaction t f =
  t.transactions <- t.transactions + 1;
  Obs_log.count "bb_edge_transactions_total";
  f t.central

(* The lease TTL: 3/4 of the nominal period after the edge's last
   contact with the central broker (a heartbeat or an acquisition). *)
let ttl m = 0.75 *. m.period

(* A contact renews the whole lease: its grants expire together. *)
let renew_lease t =
  match t.lease with
  | None -> ()
  | Some m ->
      let expires = Broker.now t.central +. ttl m in
      List.iter (fun g -> Broker.renew t.central g.hold ~expires) t.grants

let add_grant t central_flow amount =
  let hold =
    match t.lease with
    | None -> -1
    | Some m ->
        Broker.hold t.central ~owner:(holder t) ~expires:(Broker.now t.central +. ttl m)
          central_flow
  in
  t.grants <- { central_flow; amount; hold } :: t.grants;
  t.quota <- t.quota +. amount;
  renew_lease t

(* Acquire at least [shortfall] more quota: chunk-sized first, then the
   exact remainder if the chunk is refused. *)
let rec acquire_loop t shortfall =
  if shortfall <= 0. then true
  else if not t.connected then false
  else begin
    let ask = Float.max t.chunk shortfall in
    match central_transaction t (fun c -> Broker.request c (quota_request t ask)) with
    | Ok (central_flow, res) ->
        add_grant t central_flow res.Types.rate;
        acquire_loop t (shortfall -. res.Types.rate)
    | Error _ ->
        if ask > shortfall +. 1e-9 then begin
          (* The full chunk did not fit; retry with the exact shortfall. *)
          match
            central_transaction t (fun c ->
                Broker.request c (quota_request t shortfall))
          with
          | Ok (central_flow, res) ->
              add_grant t central_flow res.Types.rate;
              true
          | Error _ -> false
        end
        else false
  end

(* A refill is one unit of work against the central broker: batch it so
   a multi-transaction refill group-commits as one journal boundary. *)
let acquire t shortfall =
  if shortfall <= 0. then true
  else Broker.batched t.central (fun () -> acquire_loop t shortfall)

let request t (req : Types.request) =
  let p = req.Types.profile in
  let outcome =
    match
      Delay.min_rate_rate_based p ~hops:t.hops ~d_tot:t.d_tot ~dreq:req.Types.dreq
    with
    | None -> Error Types.Delay_unachievable
    | Some rmin ->
        if Fp.gt rmin p.Traffic.peak then Error Types.Delay_unachievable
        else begin
          let rate = Float.max p.Traffic.rho rmin in
          let ok =
            Fp.leq rate (available t) || acquire t (rate -. available t)
          in
          if not ok then Error Types.Insufficient_bandwidth
          else begin
            let flow = t.next_id in
            t.next_id <- t.next_id + 1;
            t.used <- t.used +. rate;
            Hashtbl.replace t.flows flow rate;
            Ok (flow, { Types.rate; delay = 0. })
          end
        end
  in
  Obs_log.decision ~service:"edge" ~at:(Broker.now t.central) req
    (Result.map (fun (flow, (res : Types.reservation)) -> (flow, res.Types.rate))
       outcome);
  outcome

(* Idempotent, matching {!Broker.teardown}: a retransmitted or stale DRQ
   for an unknown flow is a no-op. *)
let teardown t flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> ()
  | Some rate ->
      Hashtbl.remove t.flows flow;
      Obs_log.count "bb_teardowns_total" ~labels:[ ("service", "edge") ];
      t.used <- Float.max 0. (t.used -. rate)

(* Idempotent and re-entrancy-safe.  The grant is popped and the quota
   adjusted BEFORE the teardown transaction runs: a central broker with a
   mutation hook (journal, failover) can call back into this edge broker
   mid-teardown, and under the old order that re-entrant call saw the
   grant still listed and tore it down a second time — double-counting
   [central_transactions] and double-decrementing the quota.  The
   [returning] guard additionally makes any such nested call a no-op. *)
let return_idle_quota t =
  if t.connected && not t.returning then begin
    t.returning <- true;
    let rec give_back () =
      match t.grants with
      | grant :: rest when Fp.geq (available t -. grant.amount) t.chunk ->
          t.grants <- rest;
          t.quota <- t.quota -. grant.amount;
          central_transaction t (fun c -> Broker.teardown c grant.central_flow);
          give_back ()
      | _ -> ()
    in
    Fun.protect ~finally:(fun () -> t.returning <- false) give_back
  end

let quota_total t = t.quota

let quota_used t = t.used

let local_flows t = Hashtbl.length t.flows

let central_transactions t = t.transactions

(* ------------------------------------------------------------------ *)
(* Lease-based delegation: a silent edge (crashed or partitioned) stops
   renewing its grants' holds, and the central broker tears the grants
   down when they expire.  The edge's own view of its quota is then
   stale — which is fine, because being silent it cannot spend it
   centrally — and is reconciled when it comes back ({!reconnect}). *)

let note_lease_gauge m =
  Metrics.set_gauge "bb_lease_active"
    (float_of_int (List.length (List.filter (fun e -> e.connected) m.members)))

(* One renewal timer per lease, alive until the manager stops; it only
   heartbeats while the edge is connected, so a partition silently lets
   the lease age out. *)
let rec renew_loop m t =
  if not m.m_stopped then begin
    if t.connected then begin
      central_transaction t (fun _ -> ());
      renew_lease t;
      Metrics.count "bb_lease_renewals_total"
    end;
    Broker.after m.m_central (m.period /. 4.) (fun () -> renew_loop m t)
  end

let lease_manager ~central ~period =
  if period <= 0. then invalid_arg "Edge_broker.lease_manager: period must be positive";
  { m_central = central; period; members = []; m_stopped = false }

let stop_manager m = m.m_stopped <- true

let create_leased m ~ingress ~egress ~chunk =
  match create ~central:m.m_central ~ingress ~egress ~chunk with
  | Error e -> Error e
  | Ok t ->
      t.lease <- Some m;
      m.members <- m.members @ [ t ];
      note_lease_gauge m;
      renew_loop m t;
      Ok t

let leased t = t.lease <> None

let connected t = t.connected

let disconnect t =
  match t.lease with
  | None -> invalid_arg "Edge_broker.disconnect: not a leased edge broker"
  | Some m ->
      if t.connected then begin
        t.connected <- false;
        note_lease_gauge m;
        Obs_log.event ~at:(Broker.now t.central) "bb.lease.disconnected"
          ~attrs:[ ("holder", holder t) ]
      end

type reconcile = {
  re_registered : Types.flow_id list;
  surrendered : Types.flow_id list;
  quota_before : float;
  quota_after : float;
}

let reconnect t =
  match t.lease with
  | None -> invalid_arg "Edge_broker.reconnect: not a leased edge broker"
  | Some m ->
      let quota_before = t.quota in
      let live_ids () =
        Hashtbl.fold (fun f _ acc -> f :: acc) t.flows [] |> List.sort compare
      in
      let fm = Broker.flow_mib t.central in
      let result =
        if List.for_all (fun g -> Flow_mib.find fm g.central_flow <> None) t.grants
        then begin
          (* Back before the holds expired: the grants are intact, the
             lease just needs a fresh heartbeat — nothing to re-register. *)
          t.connected <- true;
          renew_lease t;
          central_transaction t (fun _ -> ());
          { re_registered = []; surrendered = []; quota_before; quota_after = t.quota }
        end
        else begin
          (* The central broker released the grants at expiry.  The old
             grant list is dead paper: drop the local view, then re-earn
             backing for each still-live local flow, ascending flow id —
             flows the shrunken pool can no longer carry are surrendered.
             Idle quota is NOT re-acquired (that is the surrender). *)
          t.grants <- [];
          t.quota <- 0.;
          t.used <- 0.;
          t.connected <- true;
          (* The whole re-registration sweep is one batch: each flow still
             decides against the state the previous ones left behind, but
             the journal group-commits the lot at one boundary. *)
          let re_registered, surrendered =
            Broker.batched t.central (fun () ->
                List.partition_map
                  (fun f ->
                    let rate = Hashtbl.find t.flows f in
                    match
                      central_transaction t (fun c ->
                          Broker.request c (quota_request t rate))
                    with
                    | Ok (central_flow, res) ->
                        add_grant t central_flow res.Types.rate;
                        t.used <- t.used +. rate;
                        Either.Left f
                    | Error _ ->
                        Hashtbl.remove t.flows f;
                        Either.Right f)
                  (live_ids ()))
          in
          { re_registered; surrendered; quota_before; quota_after = t.quota }
        end
      in
      note_lease_gauge m;
      Metrics.count "bb_lease_reconciles_total";
      Obs_log.event ~at:(Broker.now t.central) "bb.lease.reconciled"
        ~attrs:
          [
            ("holder", holder t);
            ("re_registered", string_of_int (List.length result.re_registered));
            ("surrendered", string_of_int (List.length result.surrendered));
          ];
      result
