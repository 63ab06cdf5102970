module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf
module Spsc = Bbr_util.Spsc

type prepared = { p_link : int; p_residual : float; p_edf : Vtedf.t option }

type victim = { v_flow : Types.flow_id; v_request : Types.request }

type op =
  | Admit of { flow : Types.flow_id; request : Types.request }
  | Book_segment of Broker.booking
  | Prepare of int list
  | Teardown of Types.flow_id
  | Set_link of { link_id : int; up : bool }
  | Victims of int
  | Dump
  | Audit_ok
  | Stop

type reply =
  | Done
  | Admitted of (Types.flow_id * Types.reservation, Types.reject_reason) result
  | Prepared of prepared list
  | Victims_are of victim list
  | Flows of (Types.flow_id * float * float * int list) list
  | Flag of bool

type t = {
  id : int;
  broker : Broker.t;
  journal : Journal.t option;
  inbox : op Spsc.t;
  outbox : reply Spsc.t;
  pending : reply Queue.t;  (* inline mode: replies queue here *)
  mutable domain : unit Domain.t option;
}

let broker t = t.broker

let journal t = t.journal

let exec t op =
  match op with
  | Admit { flow; request } -> Admitted (Broker.request t.broker ~flow request)
  | Book_segment b ->
      Broker.book_segment t.broker b;
      Done
  | Prepare links ->
      let nm = Broker.node_mib t.broker in
      Prepared
        (List.map
           (fun link_id ->
             {
               p_link = link_id;
               p_residual = Node_mib.residual nm ~link_id;
               p_edf =
                 Option.map Vtedf.copy (Node_mib.entry nm ~link_id).Node_mib.edf;
             })
           links)
  | Teardown flow ->
      Broker.teardown t.broker flow;
      Done
  | Set_link { link_id; up } ->
      Broker.set_link_admin t.broker ~link_id ~up;
      Done
  | Victims link_id ->
      Victims_are
        (List.map
           (fun (r : Flow_mib.record) ->
             { v_flow = r.Flow_mib.flow; v_request = r.Flow_mib.request })
           (Flow_mib.crossing (Broker.flow_mib t.broker) ~link_id))
  | Dump ->
      Flows
        (Flow_mib.fold (Broker.flow_mib t.broker) ~init:[] ~f:(fun acc r ->
             ( r.Flow_mib.flow,
               r.Flow_mib.reservation.Types.rate,
               r.Flow_mib.reservation.Types.delay,
               Topology.link_ids r.Flow_mib.path.Path_mib.links )
             :: acc))
  | Audit_ok -> Flag (Audit.ok (Audit.check t.broker))
  | Stop -> Done

let spawned t = t.domain <> None

(* Inline mode tags telemetry with the shard id only for the duration of
   the operation (every shard shares the main domain); a spawned shard
   tags its whole domain once in the loop below. *)
let exec_tagged t op =
  let prev = Obs_log.shard () in
  Obs_log.set_shard (Some t.id);
  Fun.protect ~finally:(fun () -> Obs_log.set_shard prev) (fun () -> exec t op)

let send t op =
  if spawned t then Spsc.push t.inbox op
  else Queue.push (exec_tagged t op) t.pending

(* Rounds of [Domain.cpu_relax] the router spends waiting for a reply
   before it parks.  A reply is always on its way, and a shard's hop is a
   few microseconds, so spinning beats a park/wake pair; the budget is
   bounded so a slow op (a dump, an audit) still frees the core.  The
   shard side parks almost at once ({!Spsc.pop}): an idle shard that
   spun would take the router's core when domains outnumber cores. *)
let reply_spins = 2000

let rec await_reply t n =
  match Spsc.try_pop t.outbox with
  | Some r -> r
  | None when n < reply_spins ->
      Domain.cpu_relax ();
      await_reply t (n + 1)
  | None -> Spsc.pop t.outbox

let recv t = if spawned t then await_reply t 0 else Queue.pop t.pending

let rpc t op =
  send t op;
  recv t

let loop t () =
  Obs_log.set_shard (Some t.id);
  let rec go () =
    let op = Spsc.pop t.inbox in
    let reply = exec t op in
    Spsc.push t.outbox reply;
    match op with Stop -> () | _ -> go ()
  in
  go ()

(* Ring capacity of the command and reply mailboxes.  The router keeps at
   most one op outstanding per shard, so the rings never fill. *)
let mailbox = 1024

let create ?journal ?(spawn = false) ~id topology =
  let broker = Broker.create (Topology.copy topology) in
  Option.iter (fun j -> Journal.attach j broker) journal;
  let t =
    {
      id;
      broker;
      journal;
      inbox = Spsc.create ~capacity:mailbox;
      outbox = Spsc.create ~capacity:mailbox;
      pending = Queue.create ();
      domain = None;
    }
  in
  if spawn then t.domain <- Some (Domain.spawn (loop t));
  t

let stop t =
  match t.domain with
  | None -> ()
  | Some d ->
      (match rpc t Stop with Done -> () | _ -> assert false);
      Domain.join d;
      t.domain <- None
