module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Path_mib = Bbr_broker.Path_mib
module Flow_mib = Bbr_broker.Flow_mib
module Audit = Bbr_broker.Audit
module Wal = Bbr_broker.Wal
module Storage = Bbr_broker.Storage
module Exchange = Bbr_broker.Exchange
module Obs_log = Bbr_broker.Obs_log
module Trace = Bbr_obs.Trace
module Flight = Bbr_obs.Flight
module Fp = Bbr_util.Fp

type config = {
  latency : float;
  prepare_retries : int;
  prepare_ttl : float;
  jitter : (unit -> float) option;
  fsync_every : int;
}

let default_config =
  {
    latency = 0.005;
    prepare_retries = 5;
    prepare_ttl = 30.;
    jitter = None;
    fsync_every = 1;
  }

(* Commit notifications and teardowns are off the request's critical
   path: their re-sends start one step further along the schedule. *)
let obligation_timeout = 0.1

type peering = {
  from_domain : string;
  from_egress : string;
  to_domain : string;
  to_ingress : string;
  committed : float;
  delay : float;
  mutable used : float;
}

(* A segment booked inside a domain.  A prepared one is held on the
   domain's broker ([s_hold]) until the COMMIT converts it (-1). *)
type seg = { s_flow : Types.flow_id; mutable s_hold : int }

(* One domain's broker agent: its reservation state survives a crash
   ([up = false] merely stops it reacting to messages); [released] is the
   tombstone table that makes compensation idempotent against duplicated
   and reordered PREPAREs. *)
type agent = {
  name : string;
  broker : Broker.t;
  mutable up : bool;
  mutable reachable : bool;
  segs : (int, seg) Hashtbl.t;  (* by transaction *)
  released : (int, unit) Hashtbl.t;
}

type endpoints = {
  src_domain : string;
  src_ingress : string;
  dst_domain : string;
  dst_egress : string;
}

type reservation = { flow : int; rate : float; domains : string list; bound : float }

(* Coordinator-side in-flight transaction (PREPARE phase only: a decided
   transaction leaves this table for [flows] or [outcomes]). *)
type txn = {
  id : int;
  t_rate : float;
  t_bound : float;
  t_domains : string list;
  t_peers : peering list;
  t_segs : (string * Types.request) list;
  mutable t_booked : (string * Types.flow_id) list;
  mutable t_pending : string list;
  mutable t_attempts : int;
  mutable t_timeout : float;
  mutable t_deadline : float;
  t_decide : (reservation, Types.reject_reason) result -> unit;
  mutable t_done : bool;
  (* One live [bb.fed.prepare] leg span per still-pending domain. *)
  mutable t_prep_spans : (string * Trace.span) list;
}

(* A committed federation flow. *)
type booking = {
  b_rate : float;
  b_bound : float;
  b_domains : string list;
  b_legs : (string * Types.flow_id) list;
  b_peers : peering list;
}

type outcome = O_committed | O_compensated | O_rejected

type ob_kind = Ob_commit | Ob_release

(* An unacknowledged promise to a domain — a commit notification or an
   idempotent (compensating or ordinary) teardown — retried with capped
   backoff until the domain confirms. *)
type obligation = {
  ob_txn : int;
  ob_dom : string;
  ob_kind : ob_kind;
  mutable ob_timeout : float;
  mutable ob_next : float;
  ob_span : Trace.span;  (* [bb.fed.commit] / [bb.fed.compensate] leg *)
}

(* Coordinator journal records (see DESIGN §3h for the grammar). *)
type rec_ =
  | R_begin of {
      txn : int;
      rate : float;
      bound : float;
      domains : string list;
      peers : (string * string) list;
    }
  | R_booked of { txn : int; dom : string; flow : Types.flow_id }
  | R_commit of int
  | R_abort of { txn : int; reason : string }
  | R_cack of { txn : int; dom : string }
  | R_rack of { txn : int; dom : string }
  | R_tear of int
  | R_closed of int

type stats = {
  committed : int;
  compensated : int;
  rejected : int;
  torn_down : int;
  prepares : int;
  retries : int;
  compensations : int;
  commit_nacks : int;
  reaped : int;
  messages : int;
  dropped : int;
  duplicated : int;
}

type t = {
  domains : (string, agent) Hashtbl.t;
  mutable peerings : peering list;  (* reversed registration order *)
  flows : (int, booking) Hashtbl.t;
  txns : (int, txn) Hashtbl.t;
  outcomes : (int, outcome) Hashtbl.t;
  obligations : (string, obligation) Hashtbl.t;
  mutable next_id : int;
  time : Broker.time_hooks;
  config : config;
  mutable faults : Exchange.faults;
  mutable journal : rec_ Wal.t;
  mutable store : Storage.t;  (* the journal's disk *)
  mutable pump_at : float;  (* due time of the armed pump timer; inf = disarmed *)
  mutable epoch : int;  (* bumped on coordinator crash; stale timers check it *)
  tspans : (int, Trace.span) Hashtbl.t;  (* live [bb.fed.txn] root spans *)
  mutable storm_start : float;  (* compensation-storm detection window *)
  mutable storm_count : int;
  mutable s_committed : int;
  mutable s_compensated : int;
  mutable s_rejected : int;
  mutable s_torn_down : int;
  mutable s_prepares : int;
  mutable s_retries : int;
  mutable s_compensations : int;
  mutable s_commit_nacks : int;
  mutable s_reaped : int;
  mutable s_messages : int;
  mutable s_dropped : int;
  mutable s_duplicated : int;
}

(* ---------------------------------------------------------------- *)
(* Journal codec.                                                   *)

let peers_str = function
  | [] -> "-"
  | ps -> String.concat "," (List.map (fun (a, b) -> a ^ ">" ^ b) ps)

let encode_rec = function
  | R_begin { txn; rate; bound; domains; peers } ->
      Printf.sprintf "begin %d %h %h %s %s" txn rate bound (String.concat "," domains)
        (peers_str peers)
  | R_booked { txn; dom; flow } -> Printf.sprintf "booked %d %s %d" txn dom flow
  | R_commit txn -> Printf.sprintf "commit %d" txn
  | R_abort { txn; reason } -> Printf.sprintf "abort %d %s" txn reason
  | R_cack { txn; dom } -> Printf.sprintf "cack %d %s" txn dom
  | R_rack { txn; dom } -> Printf.sprintf "rack %d %s" txn dom
  | R_tear txn -> Printf.sprintf "tear %d" txn
  | R_closed txn -> Printf.sprintf "closed %d" txn

let peers_of_str s =
  if s = "-" then Some []
  else
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
          match String.index_opt p '>' with
          | Some i ->
              go
                ((String.sub p 0 i, String.sub p (i + 1) (String.length p - i - 1)) :: acc)
                rest
          | None -> None)
    in
    go [] (String.split_on_char ',' s)

(* Read back in place through the journal's reader: each field after the
   tag follows a single space. *)
module Linebuf = Bbr_util.Linebuf

let get_int r =
  Linebuf.expect r ' ';
  Linebuf.read_int r

let get_float r =
  Linebuf.expect r ' ';
  Linebuf.read_hfloat r

let get_word r =
  Linebuf.expect r ' ';
  Linebuf.read_word r

let decode_rec r : rec_ option =
  match Linebuf.read_word r with
  | "begin" ->
      let txn = get_int r in
      let rate = get_float r in
      let bound = get_float r in
      let domains = String.split_on_char ',' (get_word r) in
      Option.map
        (fun peers -> R_begin { txn; rate; bound; domains; peers })
        (peers_of_str (get_word r))
  | "booked" ->
      let txn = get_int r in
      let dom = get_word r in
      Some (R_booked { txn; dom; flow = get_int r })
  | "commit" -> Some (R_commit (get_int r))
  | "abort" ->
      let txn = get_int r in
      Some (R_abort { txn; reason = get_word r })
  | "cack" ->
      let txn = get_int r in
      Some (R_cack { txn; dom = get_word r })
  | "rack" ->
      let txn = get_int r in
      Some (R_rack { txn; dom = get_word r })
  | "tear" -> Some (R_tear (get_int r))
  | "closed" -> Some (R_closed (get_int r))
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Construction.                                                    *)

let metric ?(labels = []) name = if Obs_log.active () then Obs_log.count name ~labels

(* A coordinator journal writing through its own store on a fresh
   fault-free in-memory disk. *)
let fresh_journal config =
  let store = Storage.create ~vfs:(Bbr_util.Vfs.create ()) () in
  ( Wal.create ~fsync_every:config.fsync_every
      ~encode_payload:(fun b r -> Bbr_util.Linebuf.add_string b (encode_rec r))
      (Storage.sink store),
    store )

let create ?(time = Broker.immediate_time) ?(config = default_config) () =
  if config.fsync_every < 1 then invalid_arg "Federation.create: fsync_every must be >= 1";
  let journal, store = fresh_journal config in
  {
    domains = Hashtbl.create 16;
    peerings = [];
    flows = Hashtbl.create 64;
    txns = Hashtbl.create 16;
    outcomes = Hashtbl.create 64;
    obligations = Hashtbl.create 16;
    next_id = 0;
    time;
    config;
    faults = Exchange.no_faults;
    journal;
    store;
    pump_at = infinity;
    epoch = 0;
    tspans = Hashtbl.create 16;
    storm_start = neg_infinity;
    storm_count = 0;
    s_committed = 0;
    s_compensated = 0;
    s_rejected = 0;
    s_torn_down = 0;
    s_prepares = 0;
    s_retries = 0;
    s_compensations = 0;
    s_commit_nacks = 0;
    s_reaped = 0;
    s_messages = 0;
    s_dropped = 0;
    s_duplicated = 0;
  }

let set_faults t f = t.faults <- f

let agent_exn t name =
  match Hashtbl.find_opt t.domains name with Some a -> a | None -> raise Not_found

let broker t ~domain =
  Option.map (fun a -> a.broker) (Hashtbl.find_opt t.domains domain)

let broker_exn t ~domain = (agent_exn t domain).broker

let add_peering t ~from_domain ~from_egress ~to_domain ~to_ingress ~committed_rate
    ?(delay = 0.01) () =
  if not (Hashtbl.mem t.domains from_domain && Hashtbl.mem t.domains to_domain) then
    invalid_arg "Federation.add_peering: unknown domain";
  if
    List.exists
      (fun p -> p.from_domain = from_domain && p.to_domain = to_domain)
      t.peerings
  then invalid_arg "Federation.add_peering: duplicate peering";
  if committed_rate <= 0. then
    invalid_arg "Federation.add_peering: committed rate must be positive";
  t.peerings <-
    {
      from_domain;
      from_egress;
      to_domain;
      to_ingress;
      committed = committed_rate;
      delay;
      used = 0.;
    }
    :: t.peerings

let set_domain_up t ~domain up = (agent_exn t domain).up <- up

let set_reachable t ~domain r = (agent_exn t domain).reachable <- r

(* ---------------------------------------------------------------- *)
(* The message channel: both directions cross the same faulty link.  *)

(* Deliver [k] to/from [agent] across the coordinator<->domain channel
   ({!Exchange.send}): a partition loses copies at send and in flight.
   [k] never runs in a stale coordinator epoch. *)
let channel t agent k =
  let epoch = t.epoch in
  Exchange.send t.faults ~after:t.time.after ~latency:t.config.latency
    ~reachable:(fun () -> agent.reachable)
    ~note:(function
      | Exchange.Sent ->
          t.s_messages <- t.s_messages + 1;
          metric "bb_fed_msgs_total" ~labels:[ ("event", "sent") ]
      | Exchange.Dropped ->
          t.s_dropped <- t.s_dropped + 1;
          metric "bb_fed_msgs_total" ~labels:[ ("event", "dropped") ]
      | Exchange.Duplicated ->
          t.s_duplicated <- t.s_duplicated + 1;
          metric "bb_fed_msgs_total" ~labels:[ ("event", "duplicated") ])
    (fun () -> if t.epoch = epoch then k ())

let jrec t r = Wal.append t.journal ~at:(t.time.now ()) r

(* ---------------------------------------------------------------- *)
(* Tracing: one trace per coordinator transaction.  The [bb.fed.txn]
   root opens when the transaction is journaled and closes when its
   last obligation drains; PREPARE / COMMIT / COMPENSATE legs are
   child spans, retries and reaps annotated events.                  *)

let txn_span t txn =
  match Hashtbl.find_opt t.tspans txn with Some sp -> sp | None -> Trace.null_span

let finish_txn_span t txn ~result =
  match Hashtbl.find_opt t.tspans txn with
  | None -> ()
  | Some sp ->
      Hashtbl.remove t.tspans txn;
      Trace.finish_span ~sim_time:(t.time.now ()) ~attrs:[ ("result", result) ] sp

(* Compensation-storm detector: [storm_threshold] compensating
   obligations inside one [storm_window] of sim time trips the flight
   recorder (the box captures the state at the first anomaly). *)
let storm_window = 10.

let storm_threshold = 10

let note_compensation t =
  let now = t.time.now () in
  if now -. t.storm_start > storm_window then begin
    t.storm_start <- now;
    t.storm_count <- 0
  end;
  t.storm_count <- t.storm_count + 1;
  if t.storm_count = storm_threshold then Flight.trigger ~reason:"compensation-storm"

(* A prepared booking's hold expired and its broker tore it down; the
   tombstone refuses a later COMMIT or duplicate PREPARE. *)
let prepare_expired t agent (h : Broker.hold) =
  match
    Hashtbl.fold
      (fun txn s acc -> if s.s_hold = h.Broker.id then Some txn else acc)
      agent.segs None
  with
  | None -> ()
  | Some txn ->
      Hashtbl.remove agent.segs txn;
      Hashtbl.replace agent.released txn ();
      t.s_reaped <- t.s_reaped + 1;
      metric "bb_fed_reaped_total";
      Trace.event ~sim_time:(t.time.now ()) ~parent:(txn_span t txn)
        ~attrs:[ ("domain", agent.name); ("txn", string_of_int txn) ]
        "bb.fed.reap"

let add_domain t ~name topology =
  if Hashtbl.mem t.domains name then
    invalid_arg (Printf.sprintf "Federation.add_domain: duplicate domain %s" name);
  if name = "" || String.exists (fun c -> c = ' ' || c = ',' || c = '>') name then
    invalid_arg "Federation.add_domain: domain names must not contain spaces, ',' or '>'";
  let broker = Broker.create ~time:t.time topology in
  Hashtbl.replace t.domains name
    {
      name;
      broker;
      up = true;
      reachable = true;
      segs = Hashtbl.create 16;
      released = Hashtbl.create 16;
    };
  Broker.set_expiry_hook broker (prepare_expired t (agent_exn t name));
  broker

(* ---------------------------------------------------------------- *)
(* Domain-side handlers.  All idempotent: duplicates re-acknowledge.  *)

let rec dom_prepare t agent ~txn ~(req : Types.request) ~rate =
  if Hashtbl.mem agent.released txn then () (* tombstoned: compensated already *)
  else
    match Hashtbl.find_opt agent.segs txn with
    | Some s ->
        (* duplicate PREPARE: renew a prepared booking, re-acknowledge *)
        Broker.renew agent.broker s.s_hold ~expires:(t.time.now () +. t.config.prepare_ttl);
        channel t agent (fun () -> coord_booked t ~txn ~dom:agent.name ~flow:s.s_flow)
    | None -> (
        match Broker.request_fixed agent.broker req ~rate () with
        | Ok flow ->
            let s_hold =
              Broker.hold agent.broker
                ~owner:(Printf.sprintf "transaction %d" txn)
                ~expires:(t.time.now () +. t.config.prepare_ttl)
                flow
            in
            Hashtbl.replace agent.segs txn { s_flow = flow; s_hold };
            channel t agent (fun () -> coord_booked t ~txn ~dom:agent.name ~flow)
        | Error reason -> channel t agent (fun () -> coord_refused t ~txn ~reason))

and dom_commit t agent ~txn =
  match Hashtbl.find_opt agent.segs txn with
  | Some s ->
      Broker.convert agent.broker s.s_hold;
      s.s_hold <- -1;
      channel t agent (fun () -> coord_cack t ~txn ~dom:agent.name)
  | None ->
      (* expired or compensated before the commit landed *)
      channel t agent (fun () -> coord_cnack t ~txn ~dom:agent.name)

and dom_release t agent ~txn =
  (match Hashtbl.find_opt agent.segs txn with
  | Some s ->
      Broker.teardown agent.broker s.s_flow;
      Hashtbl.remove agent.segs txn
  | None -> ());
  Hashtbl.replace agent.released txn ();
  channel t agent (fun () -> coord_rack t ~txn ~dom:agent.name)

(* ---------------------------------------------------------------- *)
(* Obligations: commit notifications and (compensating) teardowns.   *)

and okey kind txn dom =
  (match kind with Ob_commit -> "c:" | Ob_release -> "r:")
  ^ string_of_int txn ^ ":" ^ dom

and send_obligation t ob =
  match Hashtbl.find_opt t.domains ob.ob_dom with
  | None -> ()
  | Some agent ->
      channel t agent (fun () ->
          if agent.up then
            (* domain-side work nests under the obligation's leg span *)
            Trace.with_ambient ob.ob_span (fun () ->
                match ob.ob_kind with
                | Ob_commit -> dom_commit t agent ~txn:ob.ob_txn
                | Ob_release -> dom_release t agent ~txn:ob.ob_txn))

and add_obligation t ~compensation ~txn ~dom kind =
  let key = okey kind txn dom in
  if not (Hashtbl.mem t.obligations key) then begin
    if compensation then begin
      t.s_compensations <- t.s_compensations + 1;
      metric "bb_fed_compensations_total";
      note_compensation t
    end;
    let ob =
      {
        ob_txn = txn;
        ob_dom = dom;
        ob_kind = kind;
        ob_timeout = obligation_timeout;
        ob_next = t.time.now () +. Exchange.jittered t.config.jitter obligation_timeout;
        ob_span =
          Trace.start_span ~sim_time:(t.time.now ()) ~parent:(txn_span t txn)
            ~attrs:[ ("txn", string_of_int txn); ("domain", dom) ]
            (match (kind, compensation) with
            | Ob_commit, _ -> "bb.fed.commit"
            | Ob_release, true -> "bb.fed.compensate"
            | Ob_release, false -> "bb.fed.release");
      }
    in
    Hashtbl.replace t.obligations key ob;
    send_obligation t ob;
    arm_pump t
  end

and resend_obligation t ob =
  if Hashtbl.mem t.obligations (okey ob.ob_kind ob.ob_txn ob.ob_dom) then begin
    t.s_retries <- t.s_retries + 1;
    let kind = match ob.ob_kind with Ob_commit -> "commit" | Ob_release -> "release" in
    metric "bb_fed_retry_total" ~labels:[ ("kind", kind) ];
    Trace.event ~sim_time:(t.time.now ()) ~parent:ob.ob_span
      ~attrs:[ ("kind", kind); ("domain", ob.ob_dom) ]
      "bb.fed.retry";
    ob.ob_timeout <- Exchange.next_timeout ob.ob_timeout;
    ob.ob_next <- t.time.now () +. Exchange.jittered t.config.jitter ob.ob_timeout;
    send_obligation t ob
  end

and run_pump t =
  let now = t.time.now () in
  let due =
    Hashtbl.fold
      (fun _ ob acc -> if ob.ob_next <= now +. 1e-9 then ob :: acc else acc)
      t.obligations []
  in
  List.iter (resend_obligation t) due;
  arm_pump t

and arm_pump t =
  let next =
    Hashtbl.fold (fun _ ob acc -> Float.min acc ob.ob_next) t.obligations infinity
  in
  if next < t.pump_at then begin
    t.pump_at <- next;
    let epoch = t.epoch in
    let delay = Float.max 0. (next -. t.time.now ()) in
    t.time.after delay (fun () ->
        if t.epoch = epoch && t.pump_at = next then begin
          t.pump_at <- infinity;
          (* a frozen clock (immediate time) fires timers with the clock
             still short of the target: stay disarmed, the caller pumps
             manually *)
          if t.time.now () +. 1e-9 >= next then run_pump t
        end)
  end

(* ---------------------------------------------------------------- *)
(* Coordinator handlers.                                            *)

and coord_booked t ~txn ~dom ~flow =
  match Hashtbl.find_opt t.txns txn with
  | None -> () (* decided already: late or duplicate ack *)
  | Some tx ->
      if not (List.mem_assoc dom tx.t_booked) then begin
        tx.t_booked <- (dom, flow) :: tx.t_booked;
        tx.t_pending <- List.filter (fun d -> d <> dom) tx.t_pending;
        (match List.assoc_opt dom tx.t_prep_spans with
        | Some sp ->
            tx.t_prep_spans <- List.remove_assoc dom tx.t_prep_spans;
            Trace.finish_span ~sim_time:(t.time.now ())
              ~attrs:[ ("result", "booked"); ("flow", string_of_int flow) ]
              sp
        | None -> ());
        jrec t (R_booked { txn; dom; flow });
        if tx.t_pending = [] then try_commit t tx
      end

and coord_refused t ~txn ~reason =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some tx -> abort_txn t tx reason

and coord_cack t ~txn ~dom =
  match Hashtbl.find_opt t.obligations (okey Ob_commit txn dom) with
  | None -> ()
  | Some ob ->
      Hashtbl.remove t.obligations (okey Ob_commit txn dom);
      Trace.finish_span ~sim_time:(t.time.now ())
        ~attrs:[ ("result", "acked") ]
        ob.ob_span;
      jrec t (R_cack { txn; dom });
      close_if_drained t txn

and coord_rack t ~txn ~dom =
  match Hashtbl.find_opt t.obligations (okey Ob_release txn dom) with
  | None -> ()
  | Some ob ->
      Hashtbl.remove t.obligations (okey Ob_release txn dom);
      Trace.finish_span ~sim_time:(t.time.now ())
        ~attrs:[ ("result", "acked") ]
        ob.ob_span;
      jrec t (R_rack { txn; dom });
      close_if_drained t txn

(* A domain refused the commit notification: its prepared booking
   expired before the notification landed.  The flow cannot stand on a
   missing segment — compensate it whole. *)
and coord_cnack t ~txn ~dom:_ =
  t.s_commit_nacks <- t.s_commit_nacks + 1;
  let stale =
    Hashtbl.fold
      (fun k ob acc ->
        if ob.ob_txn = txn && ob.ob_kind = Ob_commit then (k, ob) :: acc else acc)
      t.obligations []
  in
  List.iter
    (fun (k, ob) ->
      Hashtbl.remove t.obligations k;
      Trace.finish_span ~sim_time:(t.time.now ())
        ~attrs:[ ("result", "cnack") ]
        ob.ob_span)
    stale;
  match Hashtbl.find_opt t.flows txn with
  | None -> () (* already torn down or compensated; releases are queued *)
  | Some b ->
      Hashtbl.remove t.flows txn;
      List.iter (fun p -> p.used <- Float.max 0. (p.used -. b.b_rate)) b.b_peers;
      Hashtbl.replace t.outcomes txn O_compensated;
      jrec t (R_abort { txn; reason = "commit_nack" });
      t.s_compensated <- t.s_compensated + 1;
      metric "bb_fed_txn_total" ~labels:[ ("outcome", "compensated") ];
      List.iter
        (fun (dom, _) -> add_obligation t ~compensation:true ~txn ~dom Ob_release)
        b.b_legs

and close_if_drained t txn =
  let live = Hashtbl.fold (fun _ ob n -> if ob.ob_txn = txn then n + 1 else n) t.obligations 0 in
  if live = 0 then begin
    jrec t (R_closed txn);
    let result =
      match Hashtbl.find_opt t.outcomes txn with
      | Some O_committed -> "committed"
      | Some O_compensated -> "compensated"
      | Some O_rejected -> "rejected"
      | None -> "unknown"
    in
    finish_txn_span t txn ~result
  end

(* ---------------------------------------------------------------- *)
(* Decision points.                                                 *)

and try_commit t tx =
  (* SLA re-check: concurrent transactions raced for the peerings while
     this one was out preparing. *)
  if not (List.for_all (fun p -> Fp.leq (p.used +. tx.t_rate) p.committed) tx.t_peers)
  then abort_txn t tx Types.Insufficient_bandwidth
  else begin
    List.iter (fun p -> p.used <- p.used +. tx.t_rate) tx.t_peers;
    Hashtbl.remove t.txns tx.id;
    tx.t_done <- true;
    let legs =
      List.map (fun d -> (d, List.assoc d tx.t_booked)) tx.t_domains
    in
    Hashtbl.replace t.flows tx.id
      {
        b_rate = tx.t_rate;
        b_bound = tx.t_bound;
        b_domains = tx.t_domains;
        b_legs = legs;
        b_peers = tx.t_peers;
      };
    Hashtbl.replace t.outcomes tx.id O_committed;
    jrec t (R_commit tx.id);
    Trace.event ~sim_time:(t.time.now ()) ~parent:(txn_span t tx.id)
      ~attrs:[ ("decision", "commit") ]
      "bb.fed.decision";
    t.s_committed <- t.s_committed + 1;
    metric "bb_fed_txn_total" ~labels:[ ("outcome", "committed") ];
    List.iter
      (fun (dom, _) -> add_obligation t ~compensation:false ~txn:tx.id ~dom Ob_commit)
      legs;
    tx.t_decide
      (Ok { flow = tx.id; rate = tx.t_rate; domains = tx.t_domains; bound = tx.t_bound })
  end

and abort_txn t tx reason =
  Hashtbl.remove t.txns tx.id;
  tx.t_done <- true;
  List.iter
    (fun (_, sp) ->
      Trace.finish_span ~sim_time:(t.time.now ()) ~attrs:[ ("result", "aborted") ] sp)
    tx.t_prep_spans;
  tx.t_prep_spans <- [];
  Hashtbl.replace t.outcomes tx.id O_compensated;
  jrec t (R_abort { txn = tx.id; reason = Types.reject_label reason });
  Trace.event ~sim_time:(t.time.now ()) ~parent:(txn_span t tx.id)
    ~attrs:[ ("decision", "abort"); ("reason", Types.reject_label reason) ]
    "bb.fed.decision";
  t.s_compensated <- t.s_compensated + 1;
  metric "bb_fed_txn_total" ~labels:[ ("outcome", "compensated") ];
  (* Compensate every segment domain, not just the acknowledged ones: a
     BOOKED reply may still be in flight, and the release doubles as the
     tombstone that blocks late duplicated PREPAREs from re-booking. *)
  List.iter
    (fun dom -> add_obligation t ~compensation:true ~txn:tx.id ~dom Ob_release)
    tx.t_domains;
  tx.t_decide (Error reason)

(* ---------------------------------------------------------------- *)
(* PREPARE retransmission timer (per transaction, capped backoff).   *)

and arm_txn_timer t tx =
  let epoch = t.epoch in
  let delay = Exchange.jittered t.config.jitter tx.t_timeout in
  let target = t.time.now () +. delay in
  tx.t_deadline <- target;
  t.time.after delay (fun () ->
      if
        t.epoch = epoch && (not tx.t_done)
        && Hashtbl.mem t.txns tx.id
        (* frozen clock (immediate time): the timer fired with the clock
           short of the target — let it die rather than spin *)
        && t.time.now () +. 1e-9 >= tx.t_deadline
      then txn_timeout t tx)

and txn_timeout t tx =
  if tx.t_pending = [] then ()
  else if tx.t_attempts >= t.config.prepare_retries then
    abort_txn t tx (Types.Peer_unreachable (List.hd tx.t_pending))
  else begin
    tx.t_attempts <- tx.t_attempts + 1;
    tx.t_timeout <- Exchange.next_timeout tx.t_timeout;
    List.iter
      (fun dom ->
        t.s_retries <- t.s_retries + 1;
        metric "bb_fed_retry_total" ~labels:[ ("kind", "prepare") ];
        Trace.event ~sim_time:(t.time.now ())
          ~parent:
            (match List.assoc_opt dom tx.t_prep_spans with
            | Some sp -> sp
            | None -> txn_span t tx.id)
          ~attrs:[ ("kind", "prepare"); ("domain", dom) ]
          "bb.fed.retry";
        send_prepare t tx dom)
      tx.t_pending;
    arm_txn_timer t tx
  end

and send_prepare t tx dom =
  if not tx.t_done then
    match Hashtbl.find_opt t.domains dom with
    | None -> ()
    | Some agent ->
        t.s_prepares <- t.s_prepares + 1;
        if not (List.mem_assoc dom tx.t_prep_spans) then
          tx.t_prep_spans <-
            ( dom,
              Trace.start_span ~sim_time:(t.time.now ()) ~parent:(txn_span t tx.id)
                ~attrs:[ ("domain", dom) ] "bb.fed.prepare" )
            :: tx.t_prep_spans;
        let req = List.assoc dom tx.t_segs in
        let txn = tx.id and rate = tx.t_rate in
        let leg =
          match List.assoc_opt dom tx.t_prep_spans with
          | Some sp -> sp
          | None -> Trace.null_span
        in
        channel t agent (fun () ->
            if agent.up then
              (* the domain's own admission spans nest under this leg *)
              Trace.with_ambient leg (fun () -> dom_prepare t agent ~txn ~req ~rate))

let pump t =
  let obs = Hashtbl.fold (fun _ ob acc -> ob :: acc) t.obligations [] in
  List.iter (resend_obligation t) obs;
  arm_pump t

(* ---------------------------------------------------------------- *)
(* Routing and the cross-domain delay budget (unchanged from the
   synchronous coordinator: the closed form of paper Section 3.1 with
   every domain conditioner acting as one extra rate-based hop).      *)

let domain_route t ~src ~dst =
  if src = dst then Some []
  else begin
    let visited = Hashtbl.create 8 in
    Hashtbl.replace visited src ();
    let frontier = Queue.create () in
    Queue.add (src, []) frontier;
    let result = ref None in
    let ordered = List.rev t.peerings in
    while !result = None && not (Queue.is_empty frontier) do
      let here, rev_path = Queue.take frontier in
      List.iter
        (fun p ->
          if
            !result = None && p.from_domain = here
            && not (Hashtbl.mem visited p.to_domain)
          then begin
            Hashtbl.replace visited p.to_domain ();
            let rev_path' = p :: rev_path in
            if p.to_domain = dst then result := Some (List.rev rev_path')
            else Queue.add (p.to_domain, rev_path') frontier
          end)
        ordered
    done;
    !result
  end

(* The intra-domain segments a flow crosses, as (domain, ingress, egress). *)
let segments ep peers =
  match peers with
  | [] -> [ (ep.src_domain, ep.src_ingress, ep.dst_egress) ]
  | first :: _ ->
      let rec transits = function
        | a :: (b :: _ as rest) ->
            (a.to_domain, a.to_ingress, b.from_egress) :: transits rest
        | [ last ] -> [ (ep.dst_domain, last.to_ingress, ep.dst_egress) ]
        | [] -> []
      in
      (ep.src_domain, ep.src_ingress, first.from_egress) :: transits peers

let e2e_bound ~profile ~rate ~segment_infos ~peer_delay =
  let l = profile.Traffic.lmax in
  let ton = Traffic.t_on profile in
  List.fold_left
    (fun acc (info : Path_mib.info) ->
      acc
      +. (float_of_int (info.Path_mib.hops + 1) *. l /. rate)
      +. info.Path_mib.d_tot)
    ((ton *. (profile.Traffic.peak -. rate) /. rate) +. peer_delay)
    segment_infos

(* ---------------------------------------------------------------- *)
(* Requests.                                                        *)

let request_async t ep ~profile ~dreq ~on_decision =
  let id = t.next_id in
  t.next_id <- id + 1;
  let reject reason =
    Hashtbl.replace t.outcomes id O_rejected;
    t.s_rejected <- t.s_rejected + 1;
    metric "bb_fed_txn_total" ~labels:[ ("outcome", "rejected") ];
    on_decision (Error reason);
    id
  in
  match domain_route t ~src:ep.src_domain ~dst:ep.dst_domain with
  | None -> reject Types.No_route
  | Some peers -> (
      let segs = segments ep peers in
      (* Resolve each segment's path through its domain's broker (the
         coordinator plans locally; only the bookings travel). *)
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | (domain, ingress, egress) :: rest -> (
            let agent = Hashtbl.find t.domains domain in
            let probe = { Types.profile; dreq; ingress; egress } in
            match Broker.route_of agent.broker probe with
            | None -> Error Types.No_route
            | Some info ->
                if info.Path_mib.delay_hops > 0 then Error Types.Not_schedulable
                else resolve ((domain, probe, info) :: acc) rest)
      in
      match resolve [] segs with
      | Error e -> reject e
      | Ok legs -> (
          let infos = List.map (fun (_, _, info) -> info) legs in
          let peer_delay = List.fold_left (fun acc p -> acc +. p.delay) 0. peers in
          let total_hops_terms =
            List.fold_left
              (fun acc (info : Path_mib.info) -> acc + info.Path_mib.hops + 1)
              0 infos
          in
          let d_tot_sum =
            List.fold_left
              (fun acc (info : Path_mib.info) -> acc +. info.Path_mib.d_tot)
              peer_delay infos
          in
          let ton = Traffic.t_on profile in
          let denom = dreq -. d_tot_sum +. ton in
          if denom <= 0. then reject Types.Delay_unachievable
          else
            let rmin =
              ((ton *. profile.Traffic.peak)
              +. (float_of_int total_hops_terms *. profile.Traffic.lmax))
              /. denom
            in
            if Fp.gt rmin profile.Traffic.peak then reject Types.Delay_unachievable
            else
              let rate = Float.max profile.Traffic.rho rmin in
              (* Optimistic SLA pre-check: fail fast before booking anything.
                 The authoritative check re-runs at commit. *)
              if not (List.for_all (fun p -> Fp.leq (p.used +. rate) p.committed) peers)
              then reject Types.Insufficient_bandwidth
              else begin
                let domains = List.map (fun (d, _, _) -> d) legs in
                let bound = e2e_bound ~profile ~rate ~segment_infos:infos ~peer_delay in
                let tx =
                  {
                    id;
                    t_rate = rate;
                    t_bound = bound;
                    t_domains = domains;
                    t_peers = peers;
                    t_segs = List.map (fun (d, probe, _) -> (d, probe)) legs;
                    t_booked = [];
                    t_pending = domains;
                    t_attempts = 1;
                    t_timeout = Exchange.first_timeout;
                    t_deadline = infinity;
                    t_decide = on_decision;
                    t_done = false;
                    t_prep_spans = [];
                  }
                in
                jrec t
                  (R_begin
                     {
                       txn = id;
                       rate;
                       bound;
                       domains;
                       peers =
                         List.map (fun p -> (p.from_domain, p.to_domain)) peers;
                     });
                Hashtbl.replace t.txns id tx;
                Hashtbl.replace t.tspans id
                  (Trace.start_span ~sim_time:(t.time.now ())
                     ~attrs:
                       [
                         ("txn", string_of_int id);
                         ("domains", String.concat "," domains);
                       ]
                     "bb.fed.txn");
                List.iter (fun dom -> send_prepare t tx dom) domains;
                if not tx.t_done then arm_txn_timer t tx;
                id
              end))

let request t ep ~profile ~dreq =
  let result = ref None in
  let _id = request_async t ep ~profile ~dreq ~on_decision:(fun r -> result := Some r) in
  match !result with
  | Some r -> r
  | None ->
      invalid_arg
        "Federation.request: transaction did not resolve synchronously (an \
         engine-driven or faulty federation must use request_async)"

let teardown t flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> () (* idempotent: unknown or already torn down *)
  | Some b ->
      Hashtbl.remove t.flows flow;
      List.iter (fun p -> p.used <- Float.max 0. (p.used -. b.b_rate)) b.b_peers;
      jrec t (R_tear flow);
      t.s_torn_down <- t.s_torn_down + 1;
      (* supersede any still-pending commit notifications *)
      List.iter
        (fun (dom, _) ->
          match Hashtbl.find_opt t.obligations (okey Ob_commit flow dom) with
          | None -> ()
          | Some ob ->
              Hashtbl.remove t.obligations (okey Ob_commit flow dom);
              Trace.finish_span ~sim_time:(t.time.now ())
                ~attrs:[ ("result", "superseded") ]
                ob.ob_span)
        b.b_legs;
      List.iter
        (fun (dom, _) -> add_obligation t ~compensation:false ~txn:flow ~dom Ob_release)
        b.b_legs

(* ---------------------------------------------------------------- *)
(* Introspection.                                                   *)

let find_peering t ~from_domain ~to_domain =
  List.find_opt
    (fun p -> p.from_domain = from_domain && p.to_domain = to_domain)
    t.peerings

let sla_usage t ~from_domain ~to_domain =
  Option.map (fun p -> (p.used, p.committed)) (find_peering t ~from_domain ~to_domain)

let sla_usage_exn t ~from_domain ~to_domain =
  match sla_usage t ~from_domain ~to_domain with
  | Some v -> v
  | None -> raise Not_found

let flow_count t = Hashtbl.length t.flows

let in_flight t = Hashtbl.length t.txns

let obligations_pending t = Hashtbl.length t.obligations

let stats t =
  {
    committed = t.s_committed;
    compensated = t.s_compensated;
    rejected = t.s_rejected;
    torn_down = t.s_torn_down;
    prepares = t.s_prepares;
    retries = t.s_retries;
    compensations = t.s_compensations;
    commit_nacks = t.s_commit_nacks;
    reaped = t.s_reaped;
    messages = t.s_messages;
    dropped = t.s_dropped;
    duplicated = t.s_duplicated;
  }

(* ---------------------------------------------------------------- *)
(* Cross-domain audit.                                              *)

type report = {
  domain_audits : (string * Audit.report) list;
  violations : Audit.violation list;
  checked_flows : int;
  checked_segments : int;
  checked_segments_rate : float;
  checked_peerings : int;
  prepared_segments : int;
}

let audit ?(eps = 1e-3) ?(exclusive = true) t =
  let violations = ref [] in
  let add kind subject detail =
    violations := { Audit.kind; subject; detail } :: !violations;
    metric "bb_audit_violations_total" ~labels:[ ("kind", Audit.kind_label kind) ]
  in
  (* 1. Every SLA byte backed by a live committed flow crossing it. *)
  List.iter
    (fun p ->
      let expected =
        Hashtbl.fold
          (fun _ b acc -> if List.memq p b.b_peers then acc +. b.b_rate else acc)
          t.flows 0.
      in
      if Float.abs (p.used -. expected) > eps then
        add Audit.Sla_mismatch
          (Printf.sprintf "peering %s>%s" p.from_domain p.to_domain)
          (Printf.sprintf "SLA usage %g b/s but live flows account for %g b/s" p.used
             expected))
    t.peerings;
  (* 2. Every committed flow's every segment live in its domain at rate. *)
  let segs = ref 0 in
  let segs_rate = ref 0. in
  Hashtbl.iter
    (fun id b ->
      List.iter
        (fun (dom, leg) ->
          incr segs;
          segs_rate := !segs_rate +. b.b_rate;
          match Hashtbl.find_opt t.domains dom with
          | None ->
              add Audit.Sla_mismatch
                (Printf.sprintf "flow %d" id)
                (Printf.sprintf "segment domain %s no longer registered" dom)
          | Some agent -> (
              match Flow_mib.find (Broker.flow_mib agent.broker) leg with
              | None ->
                  add Audit.Sla_mismatch
                    (Printf.sprintf "flow %d" id)
                    (Printf.sprintf
                       "committed segment (flow %d) missing in domain %s — SLA \
                        bytes with no live reservation behind them"
                       leg dom)
              | Some rec_ ->
                  if Float.abs (rec_.Flow_mib.reservation.Types.rate -. b.b_rate) > eps
                  then
                    add Audit.Sla_mismatch
                      (Printf.sprintf "flow %d" id)
                      (Printf.sprintf
                         "segment in %s reserved at %g b/s, federation committed %g b/s"
                         dom rec_.Flow_mib.reservation.Types.rate b.b_rate)))
        b.b_legs)
    t.flows;
  (* 3. Domain-side bookkeeping: strays and forgotten segments.  A
     prepared booking past its TTL is an expired hold, which the domain
     audit below reports. *)
  let prepared_total = ref 0 in
  Hashtbl.iter
    (fun _ agent ->
      (* committed segment whose federation flow is gone and nothing in
         flight will release it *)
      Hashtbl.iter
        (fun txn s ->
          if s.s_hold >= 0 then incr prepared_total
          else if
            (not (Hashtbl.mem t.flows txn))
            && not (Hashtbl.mem t.obligations (okey Ob_release txn agent.name))
          then
            add Audit.Stranded_segment
              (Printf.sprintf "domain %s flow %d" agent.name s.s_flow)
              (Printf.sprintf
                 "committed segment of federation flow %d has no live flow and no \
                  pending release"
                 txn))
        agent.segs;
      if exclusive then begin
        let accounted = Hashtbl.create 16 in
        Hashtbl.iter (fun _ s -> Hashtbl.replace accounted s.s_flow ()) agent.segs;
        Flow_mib.fold (Broker.flow_mib agent.broker) ~init:()
          ~f:(fun () (r : Flow_mib.record) ->
            if not (Hashtbl.mem accounted r.Flow_mib.flow) then
              add Audit.Stranded_segment
                (Printf.sprintf "domain %s flow %d" agent.name r.Flow_mib.flow)
                (Printf.sprintf
                   "reservation of %g b/s that no federation flow, transaction or \
                    prepared booking accounts for"
                   r.Flow_mib.reservation.Types.rate))
      end)
    t.domains;
  let domain_audits =
    Hashtbl.fold
      (fun name agent acc -> (name, Audit.check ~eps agent.broker) :: acc)
      t.domains []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    domain_audits;
    violations = List.rev !violations;
    checked_flows = Hashtbl.length t.flows;
    checked_segments = !segs;
    checked_segments_rate = !segs_rate;
    checked_peerings = List.length t.peerings;
    prepared_segments = !prepared_total;
  }

let audit_ok r =
  r.violations = [] && List.for_all (fun (_, a) -> Audit.ok a) r.domain_audits

(* ---------------------------------------------------------------- *)
(* Decision digest, crash, recovery.                                *)

let decision_digest t =
  let lines =
    Hashtbl.fold
      (fun id o acc ->
        match o with
        | O_committed -> Printf.sprintf "%d:c" id :: acc
        | O_compensated -> Printf.sprintf "%d:x" id :: acc
        | O_rejected -> acc)
      t.outcomes []
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

let journal_tail t = Storage.tail_from t.store ~cover:0

let crash_coordinator t =
  Storage.crash t.store;
  let lost = Wal.records t.journal - (journal_tail t).Storage.records in
  t.epoch <- t.epoch + 1;
  (* Spans owned by the lost coordinator state would otherwise dangle
     open forever: close them with the crash marked. *)
  let crash_now = t.time.now () in
  let crashed sp =
    Trace.finish_span ~sim_time:crash_now ~attrs:[ ("result", "crashed") ] sp
  in
  Hashtbl.iter
    (fun _ tx -> List.iter (fun (_, sp) -> crashed sp) tx.t_prep_spans)
    t.txns;
  Hashtbl.iter (fun _ ob -> crashed ob.ob_span) t.obligations;
  Hashtbl.iter (fun _ sp -> crashed sp) t.tspans;
  Hashtbl.reset t.tspans;
  t.storm_start <- neg_infinity;
  t.storm_count <- 0;
  Hashtbl.reset t.txns;
  Hashtbl.reset t.flows;
  Hashtbl.reset t.outcomes;
  Hashtbl.reset t.obligations;
  List.iter (fun p -> p.used <- 0.) t.peerings;
  t.next_id <- 0;
  t.pump_at <- infinity;
  lost

type recovery = {
  replayed : int;
  replay_warning : string option;
  recovered_flows : int;
  recovery_aborts : int;
  requeued : int;
  replayed_digest : string;
}

(* Per-transaction replay accumulator. *)
type rstate = {
  mutable r_rate : float;
  mutable r_bound : float;
  mutable r_domains : string list;
  mutable r_peers : (string * string) list;
  mutable r_legs : (string * Types.flow_id) list;  (* reverse booked order *)
  mutable r_decision : [ `C | `A ] option;
  mutable r_torn : bool;
  mutable r_cacks : string list;
  mutable r_racks : string list;
  mutable r_closed : bool;
}

let recover_coordinator t =
  let chain = Wal.chain ~decode_payload:decode_rec in
  match
    Storage.fold_tail t.store ~cover:0 ~init:([], None) (fun (acc, warning) b ~pos ~len ->
        if warning <> None then (acc, warning)
        else
          match Wal.next_record chain b ~pos ~len with
          | Ok entry -> (entry :: acc, None)
          | Error w -> (acc, Some w))
  with
  | (entries, warning), tail ->
      let entries = List.rev entries in
      let replay_warning =
        match tail.Storage.truncated with Some _ as why -> why | None -> warning
      in
      let states : (int, rstate) Hashtbl.t = Hashtbl.create 64 in
      let st txn =
        match Hashtbl.find_opt states txn with
        | Some s -> s
        | None ->
            let s =
              {
                r_rate = 0.;
                r_bound = 0.;
                r_domains = [];
                r_peers = [];
                r_legs = [];
                r_decision = None;
                r_torn = false;
                r_cacks = [];
                r_racks = [];
                r_closed = false;
              }
            in
            Hashtbl.replace states txn s;
            s
      in
      List.iter
        (fun (_at, r) ->
          match r with
          | R_begin { txn; rate; bound; domains; peers } ->
              let s = st txn in
              s.r_rate <- rate;
              s.r_bound <- bound;
              s.r_domains <- domains;
              s.r_peers <- peers
          | R_booked { txn; dom; flow } ->
              let s = st txn in
              if not (List.mem_assoc dom s.r_legs) then s.r_legs <- (dom, flow) :: s.r_legs
          | R_commit txn -> (st txn).r_decision <- Some `C
          | R_abort { txn; _ } ->
              let s = st txn in
              s.r_decision <- Some `A;
              s.r_closed <- false
          | R_cack { txn; dom } ->
              let s = st txn in
              if not (List.mem dom s.r_cacks) then s.r_cacks <- dom :: s.r_cacks
          | R_rack { txn; dom } ->
              let s = st txn in
              if not (List.mem dom s.r_racks) then s.r_racks <- dom :: s.r_racks
          | R_tear txn ->
              let s = st txn in
              s.r_torn <- true;
              s.r_closed <- false
          | R_closed txn -> (st txn).r_closed <- true)
        entries;
      (* The journal-backed decisions alone, before recovery resolves the
         undecided remainder: the crash-equivalence oracle. *)
      let digest_lines =
        Hashtbl.fold
          (fun id s acc ->
            match s.r_decision with
            | Some `C when not s.r_torn -> Printf.sprintf "%d:c" id :: acc
            | Some `C -> Printf.sprintf "%d:c" id :: acc
            | Some `A -> Printf.sprintf "%d:x" id :: acc
            | None -> acc)
          states []
      in
      let replayed_digest =
        Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare digest_lines)))
      in
      (* Rebuild the journal on a fresh store from the parsed records:
         drops the torn fragment, then keeps appending. *)
      let journal, store = fresh_journal t.config in
      List.iter (fun (at, r) -> Wal.append journal ~at r) entries;
      t.journal <- journal;
      t.store <- store;
      let recovered_flows = ref 0 in
      let recovery_aborts = ref 0 in
      let requeued = ref 0 in
      let enqueue ~compensation txn dom kind =
        (* A recovered transaction gets a fresh root span: the original
           one died with the crashed coordinator. *)
        if not (Hashtbl.mem t.tspans txn) then
          Hashtbl.replace t.tspans txn
            (Trace.start_span ~sim_time:(t.time.now ())
               ~attrs:[ ("txn", string_of_int txn); ("recovered", "true") ]
               "bb.fed.txn");
        if not (Hashtbl.mem t.obligations (okey kind txn dom)) then incr requeued;
        add_obligation t ~compensation ~txn ~dom kind
      in
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) states [] |> List.sort compare in
      List.iter
        (fun id ->
          let s = Hashtbl.find states id in
          if id >= t.next_id then t.next_id <- id + 1;
          match s.r_decision with
          | Some `C when not s.r_torn ->
              Hashtbl.replace t.outcomes id O_committed;
              let legs = List.map (fun d -> (d, List.assoc d s.r_legs)) s.r_domains in
              let peers =
                List.filter_map
                  (fun (a, b) -> find_peering t ~from_domain:a ~to_domain:b)
                  s.r_peers
              in
              List.iter (fun p -> p.used <- p.used +. s.r_rate) peers;
              Hashtbl.replace t.flows id
                {
                  b_rate = s.r_rate;
                  b_bound = s.r_bound;
                  b_domains = s.r_domains;
                  b_legs = legs;
                  b_peers = peers;
                };
              incr recovered_flows;
              if not s.r_closed then
                List.iter
                  (fun (dom, _) ->
                    if not (List.mem dom s.r_cacks) then
                      enqueue ~compensation:false id dom Ob_commit)
                  legs
          | Some `C ->
              (* committed then torn down *)
              Hashtbl.replace t.outcomes id O_committed;
              if not s.r_closed then
                List.iter
                  (fun dom ->
                    if not (List.mem dom s.r_racks) then
                      enqueue ~compensation:false id dom Ob_release)
                  s.r_domains
          | Some `A ->
              Hashtbl.replace t.outcomes id O_compensated;
              if not s.r_closed then
                List.iter
                  (fun dom ->
                    if not (List.mem dom s.r_racks) then
                      enqueue ~compensation:false id dom Ob_release)
                  s.r_domains
          | None ->
              (* begun, never decided: the crash decides — compensate *)
              Hashtbl.replace t.outcomes id O_compensated;
              jrec t (R_abort { txn = id; reason = "recovery" });
              t.s_compensated <- t.s_compensated + 1;
              metric "bb_fed_txn_total" ~labels:[ ("outcome", "compensated") ];
              incr recovery_aborts;
              List.iter
                (fun dom -> enqueue ~compensation:true id dom Ob_release)
                s.r_domains)
        ids;
      {
        replayed = List.length entries;
        replay_warning;
        recovered_flows = !recovered_flows;
        recovery_aborts = !recovery_aborts;
        requeued = !requeued;
        replayed_digest;
      }

(* ---------------------------------------------------------------- *)
(* Pretty-printing.                                                 *)

let pp_stats ppf s =
  Fmt.pf ppf
    "committed=%d compensated=%d rejected=%d torn_down=%d prepares=%d retries=%d \
     compensations=%d commit_nacks=%d reaped=%d messages=%d dropped=%d duplicated=%d"
    s.committed s.compensated s.rejected s.torn_down s.prepares s.retries
    s.compensations s.commit_nacks s.reaped s.messages s.dropped s.duplicated

let pp_report ppf r =
  Fmt.pf ppf "federation audit: %d flow(s), %d segment(s), %d peering(s), %d prepared"
    r.checked_flows r.checked_segments r.checked_peerings r.prepared_segments;
  List.iter
    (fun (v : Audit.violation) ->
      Fmt.pf ppf "@.  [%s] %s: %s" (Audit.kind_label v.Audit.kind) v.Audit.subject
        v.Audit.detail)
    r.violations;
  List.iter
    (fun (name, a) ->
      if not (Audit.ok a) then Fmt.pf ppf "@.  domain %s: %a" name Audit.pp_report a)
    r.domain_audits
