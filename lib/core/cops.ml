module Metrics = Bbr_obs.Metrics
module Trace = Bbr_obs.Trace

type reliability = {
  faults : Exchange.faults;
  jitter : (unit -> float) option;
  busy_retries : int;
}

let reliability ?jitter ?(busy_retries = 5) ~faults () =
  if busy_retries < 0 then invalid_arg "Cops.reliability: busy_retries must be >= 0";
  { faults; jitter; busy_retries }

type pdp = Types.request -> ((Types.flow_id * Types.reservation, Types.reject_reason) result -> unit) -> unit

type t = {
  mutable broker : Broker.t;
  latency : float;
  defer : float -> (unit -> unit) -> unit;
  rel : reliability option;
  pdp : pdp option;
  mutable pdp_up : bool;
  mutable messages : int;
  mutable pending : int;
  mutable retransmissions : int;
  mutable duplicates : int;
  mutable busy_backoffs : int;
}

let create broker ?(latency = 0.005) ?reliability ?pdp ~defer () =
  {
    broker;
    latency;
    defer;
    rel = reliability;
    pdp;
    pdp_up = true;
    messages = 0;
    pending = 0;
    retransmissions = 0;
    duplicates = 0;
    busy_backoffs = 0;
  }

let set_broker t broker = t.broker <- broker

let set_pdp_up t up = t.pdp_up <- up

(* One message leg: every copy is counted whether or not it arrives (wire
   overhead is what we measure); the reliability's faults drop or
   duplicate it. *)
let send t action =
  let faults = match t.rel with Some r -> r.faults | None -> Exchange.no_faults in
  Exchange.send faults ~after:t.defer ~latency:t.latency
    ~note:(function
      | Exchange.Sent ->
          t.messages <- t.messages + 1;
          Metrics.count "bb_cops_messages_total"
      | Exchange.Dropped | Exchange.Duplicated -> ())
    action

let note_pending t = Metrics.set_gauge "bb_cops_pending" (float_of_int t.pending)

(* One request/decision exchange.  [decide] runs at whichever broker is the
   PDP when the (possibly retransmitted) REQ arrives; [accepted] says
   whether an RPT follows a positive decision.

   Reliability machinery, active only when the channel was created with a
   [reliability]:
   - the PEP retransmits the REQ on a capped exponential-backoff timer until
     a DEC arrives;
   - the PDP remembers the decision of this transaction and replays it for
     duplicate REQs instead of re-deciding, so a lost DEC cannot double-book
     a flow.  The memory is tied to the broker instance that decided: after
     a fail-over to a standby the transaction is decided afresh (at-least-
     once semantics across a crash);
   - the PEP resolves each transaction exactly once, so duplicate DECs
     cannot leak [pending] or fire [on_decision] twice. *)
(* [decide] is continuation-passing: at the PDP it may answer inline (the
   plain broker call) or asynchronously (the {!Overload} admission queue,
   given to {!create}).  [busy] extracts the [Server_busy] back-off
   hint from a decision, if any.

   Server_busy handling, reliable channels only: the PEP does {e not}
   resolve the transaction — it silences its retransmission timers (by
   bumping [gen]), forgets the PDP's recorded decision (a busy verdict
   must not be replayed from the duplicate cache), waits the jittered
   [retry_after], and re-enters the REQ path.  After [busy_retries]
   consecutive busy verdicts the PEP gives up and delivers the error.
   Each DEC carries the [gen] of the REQ that produced it, so a copy of a
   busy verdict whose attempt has already backed off (a duplicate on the
   wire, or the PDP's replay to a duplicate REQ) is dropped: one busy
   verdict costs one backoff.  The PDP replays a recorded busy verdict
   only to a REQ of the attempt it answered; a later attempt is decided
   afresh, or its replies would all be stale. *)
let exchange t ~decide ~busy ~accepted ~on_decision =
  t.pending <- t.pending + 1;
  note_pending t;
  (* The whole REQ->DEC exchange is one span, rooted at submission (or
     parented on the ambient caller).  Its sim extent covers wire legs,
     retransmissions, busy backoffs and the PDP's admission pipeline;
     the PDP's own spans nest under it via [with_ambient]. *)
  let now () = Broker.now t.broker in
  let xsp = Trace.start_span ~sim_time:(now ()) "bb.cops.exchange" in
  let resolved = ref false in
  let decided = ref None in
  let deciding = ref None in
  (* The busy-wait span outstanding between a Server_busy verdict and its
     retry timer.  A stale DEC can resolve the exchange mid-backoff; the
     wait ends then, not when the timer fires, so whichever side runs
     first finishes the span and clears the slot. *)
  let busy_sp = ref None in
  let finish_busy () =
    match !busy_sp with
    | None -> ()
    | Some b ->
        busy_sp := None;
        Trace.finish_span ~sim_time:(Broker.now t.broker) b
  in
  let gen = ref 0 in
  let busy_left = ref (match t.rel with Some r -> r.busy_retries | None -> 0) in
  let rec deliver_decision g dec =
    if (not !resolved) && not (g <> !gen && Option.is_some (busy dec)) then begin
      match (t.rel, if !busy_left > 0 then busy dec else None) with
      | Some r, Some retry_after ->
          busy_left := !busy_left - 1;
          incr gen;
          let g = !gen in
          decided := None;
          t.busy_backoffs <- t.busy_backoffs + 1;
          Metrics.count "bb_cops_busy_backoffs_total";
          let bsp =
            Trace.start_span ~sim_time:(now ()) ~parent:xsp
              ~attrs:[ ("gen", string_of_int g) ]
              "bb.cops.busy_wait"
          in
          busy_sp := Some bsp;
          t.defer
            (Exchange.jittered r.jitter (Float.max retry_after Exchange.first_timeout))
            (fun () ->
              (match !busy_sp with
              | Some b when b == bsp ->
                  busy_sp := None;
                  Trace.finish_span ~sim_time:(now ()) bsp
              | _ -> ());
              if (not !resolved) && g = !gen then
                Trace.with_ambient xsp (fun () -> attempt g Exchange.first_timeout))
      | _ ->
          resolved := true;
          t.pending <- t.pending - 1;
          note_pending t;
          finish_busy ();
          Trace.finish_span ~sim_time:(now ())
            ~attrs:[ ("result", if accepted dec then "accept" else "reject") ]
            xsp;
          on_decision dec;
          (* The PEP reports successful installation of the decision. *)
          if accepted dec then send t (fun () -> ())
    end
  and pdp_decide g =
    match !decided with
    | Some (pdp, dg, dec) when pdp == t.broker && (dg = g || Option.is_none (busy dec)) ->
        t.duplicates <- t.duplicates + 1;
        Metrics.count "bb_cops_duplicates_total";
        send t (fun () -> deliver_decision dg dec)
    | _ -> (
        match !deciding with
        | Some pdp when pdp == t.broker ->
            (* The decision for this transaction is still in the PDP's
               admission pipeline: swallow the duplicate REQ rather than
               queue the same work twice. *)
            t.duplicates <- t.duplicates + 1;
            Metrics.count "bb_cops_duplicates_total"
        | _ ->
            let b = t.broker in
            deciding := Some b;
            Trace.with_ambient xsp (fun () ->
                decide b (fun dec ->
                    (match !deciding with
                    | Some pdp when pdp == b -> deciding := None
                    | _ -> ());
                    if b == t.broker then decided := Some (b, g, dec);
                    send t (fun () -> deliver_decision g dec))))
  and attempt g timeout =
    if (not !resolved) && g = !gen then begin
      send t (fun () ->
          (* REQ arrived at the PDP: decide and send DEC back.  A crashed
             PDP consumes the message without answering. *)
          if t.pdp_up then pdp_decide g);
      match t.rel with
      | None -> ()
      | Some r ->
          t.defer (Exchange.jittered r.jitter timeout) (fun () ->
              if (not !resolved) && g = !gen then begin
                t.retransmissions <- t.retransmissions + 1;
                Metrics.count "bb_cops_retransmissions_total";
                Trace.event ~sim_time:(now ()) ~parent:xsp "bb.cops.retransmit";
                attempt g (Exchange.next_timeout timeout)
              end)
    end
  in
  attempt 0 Exchange.first_timeout

let busy_reject = function
  | Error (Types.Server_busy { retry_after }) -> Some retry_after
  | _ -> None

let request t req ~on_decision =
  exchange t
    ~decide:(fun broker k ->
      match t.pdp with
      | Some pdp -> pdp req k
      | None -> k (Broker.request broker req))
    ~busy:busy_reject
    ~accepted:(function Ok _ -> true | Error _ -> false)
    ~on_decision

let request_class t ?class_id req ~on_decision =
  exchange t
    ~decide:(fun broker k -> k (Broker.request_class broker ?class_id req))
    ~busy:busy_reject
    ~accepted:(function Ok _ -> true | Error _ -> false)
    ~on_decision

(* A DRQ.  Unreliable channel: fire and forget, one message, exactly as the
   base protocol.  Reliable channel: the PDP acknowledges, the PEP
   retransmits until acknowledged, and the PDP applies the delete once per
   transaction per broker (teardown is idempotent at the broker anyway, but
   suppressing duplicates keeps the MIB churn honest). *)
let one_way t apply =
  match t.rel with
  | None -> send t (fun () -> if t.pdp_up then apply t.broker)
  | Some r ->
      let acked = ref false in
      let applied = ref None in
      let rec attempt timeout =
        send t (fun () ->
            if t.pdp_up then begin
              (match !applied with
              | Some pdp when pdp == t.broker ->
                  t.duplicates <- t.duplicates + 1;
                  Metrics.count "bb_cops_duplicates_total"
              | _ ->
                  applied := Some t.broker;
                  apply t.broker);
              send t (fun () -> acked := true)
            end);
        t.defer (Exchange.jittered r.jitter timeout) (fun () ->
            if not !acked then begin
              t.retransmissions <- t.retransmissions + 1;
              Metrics.count "bb_cops_retransmissions_total";
              attempt (Exchange.next_timeout timeout)
            end)
      in
      attempt Exchange.first_timeout

let teardown t flow = one_way t (fun broker -> Broker.teardown broker flow)

let teardown_class t flow = one_way t (fun broker -> Broker.teardown_class broker flow)

let messages t = t.messages

let pending t = t.pending

let retransmissions t = t.retransmissions

let duplicates t = t.duplicates

let busy_backoffs t = t.busy_backoffs
