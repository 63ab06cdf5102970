module Metrics = Bbr_obs.Metrics
module Trace = Bbr_obs.Trace

type config = {
  queue_limit : int;
  deadline : float;
  shed_watermark : float;
  service_exact : float;
  service_conservative : float;
  brownout_enter : float;
  brownout_exit : float;
  brownout_sustain : float;
  retry_after : float;
  batch_limit : int;
}

let default_config =
  {
    queue_limit = 64;
    deadline = 0.5;
    shed_watermark = 0.75;
    service_exact = 2e-3;
    service_conservative = 5e-4;
    brownout_enter = 0.5;
    brownout_exit = 0.25;
    brownout_sustain = 0.25;
    retry_after = 0.5;
    batch_limit = 1;
  }

let validate c =
  if c.queue_limit < 1 then invalid_arg "Overload: queue_limit must be >= 1";
  if c.deadline <= 0. then invalid_arg "Overload: deadline must be positive";
  if c.service_exact <= 0. || c.service_conservative <= 0. then
    invalid_arg "Overload: service times must be positive";
  if not (c.shed_watermark > 0. && c.shed_watermark <= 1.) then
    invalid_arg "Overload: shed_watermark must be in (0, 1]";
  if not (c.brownout_exit < c.brownout_enter && c.brownout_enter <= 1.) then
    invalid_arg "Overload: need brownout_exit < brownout_enter <= 1";
  if c.brownout_sustain < 0. then invalid_arg "Overload: brownout_sustain must be >= 0";
  if c.retry_after < 0. then invalid_arg "Overload: retry_after must be >= 0";
  if c.batch_limit < 1 then invalid_arg "Overload: batch_limit must be >= 1"

type outcome = (Types.flow_id * Types.reservation, Types.reject_reason) result

type mode = [ `Exact | `Conservative ]

let shed_label = function
  | `Queue_full -> "queue_full"
  | `Deadline -> "deadline"
  | `Priority -> "priority"
  | `Shutdown -> "shutdown"

type entry = {
  req : Types.request;
  enqueued_at : float;
  prio : int;
  respond : outcome -> unit;
  mutable dropped : bool;  (* shed by the priority policy while queued *)
  (* Causal trace: the pipeline span covers submit -> respond; queue-wait
     and service are its children, crossing sim-time boundaries via the
     explicit handles.  Null handles when no tracer is installed. *)
  span : Trace.span;
  qspan : Trace.span;
  mutable sspan : Trace.span;
}

type stats = {
  submitted : int;
  decided : int;
  admitted : int;
  rejected : int;
  shed_queue_full : int;
  shed_deadline : int;
  shed_priority : int;
  shed_shutdown : int;
  conservative_decisions : int;
  brownout_entries : int;
  brownout_exits : int;
  oracle_violations : int;
  max_depth : int;
}

type t = {
  mutable broker : Broker.t;
  config : config;
  time : Broker.time_hooks;
  oracle : (Types.request -> bool) option;
  on_serviced : (Types.request -> mode -> outcome -> unit) option;
  queue : entry Queue.t;
  mutable depth : int;  (* live (non-dropped) queued entries *)
  mutable busy : bool;
  mutable stopped : bool;
  mutable epoch : int;  (* bumped by retarget; cancels in-service work *)
  mutable brownout : bool;
  mutable above_since : float option;  (* load >= enter watermark since *)
  mutable below_since : float option;  (* load <= exit watermark since *)
  (* running tallies *)
  mutable submitted : int;
  mutable decided : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable shed_queue_full : int;
  mutable shed_deadline : int;
  mutable shed_priority : int;
  mutable shed_shutdown : int;
  mutable conservative_decisions : int;
  mutable brownout_entries : int;
  mutable brownout_exits : int;
  mutable oracle_violations : int;
  mutable max_depth : int;
  mutable latencies : float array;
  mutable n_lat : int;
}

let create ?(config = default_config) ?oracle ?on_serviced ~time broker =
  validate config;
  {
    broker;
    config;
    time;
    oracle;
    on_serviced;
    queue = Queue.create ();
    depth = 0;
    busy = false;
    stopped = false;
    epoch = 0;
    brownout = false;
    above_since = None;
    below_since = None;
    submitted = 0;
    decided = 0;
    admitted = 0;
    rejected = 0;
    shed_queue_full = 0;
    shed_deadline = 0;
    shed_priority = 0;
    shed_shutdown = 0;
    conservative_decisions = 0;
    brownout_entries = 0;
    brownout_exits = 0;
    oracle_violations = 0;
    max_depth = 0;
    latencies = Array.make 256 0.;
    n_lat = 0;
  }

(* Decision latencies run from microseconds (idle pipeline) to tens of
   seconds (deadline-bounded queueing): extend the default power-of-4
   bucket ladder, which stops at ~4 s, by two rungs. *)
let latency_buckets =
  Array.append Metrics.default_buckets [| 16.777216; 67.108864 |]

let note_depth t =
  if t.depth > t.max_depth then t.max_depth <- t.depth;
  Metrics.set_gauge "bb_overload_queue_depth" (float_of_int t.depth)

let record_latency t dt =
  if t.n_lat = Array.length t.latencies then begin
    let bigger = Array.make (2 * t.n_lat) 0. in
    Array.blit t.latencies 0 bigger 0 t.n_lat;
    t.latencies <- bigger
  end;
  t.latencies.(t.n_lat) <- dt;
  t.n_lat <- t.n_lat + 1;
  Metrics.observe_one ~buckets:latency_buckets "bb_decision_latency_seconds" dt

let latency_quantile t ~q =
  if t.n_lat = 0 then nan
  else begin
    let a = Array.sub t.latencies 0 t.n_lat in
    Array.sort compare a;
    let q = Float.max 0. (Float.min 1. q) in
    a.(int_of_float (Float.round (q *. float_of_int (t.n_lat - 1))))
  end

(* ------------------------------------------------------------------ *)
(* Brownout controller: a hysteresis loop over the queue-fill fraction.
   Re-evaluated at every queue event; while the queue is non-empty the
   server generates an event at least every service time, so the sustain
   clock cannot silently stall under load. *)

let fill t = float_of_int t.depth /. float_of_int t.config.queue_limit

let update_brownout t =
  let now = t.time.now () in
  let frac = fill t in
  if not t.brownout then begin
    t.below_since <- None;
    if frac >= t.config.brownout_enter then (
      match t.above_since with
      | None -> t.above_since <- Some now
      | Some since ->
          if now -. since >= t.config.brownout_sustain then begin
            t.brownout <- true;
            t.above_since <- None;
            t.brownout_entries <- t.brownout_entries + 1;
            Metrics.set_gauge "bb_brownout_active" 1.;
            Metrics.count "bb_brownout_transitions_total" ~labels:[ ("dir", "enter") ];
            Obs_log.event ~at:now "bb.brownout.enter"
              ~attrs:[ ("depth", string_of_int t.depth) ]
          end)
    else t.above_since <- None
  end
  else begin
    t.above_since <- None;
    if frac <= t.config.brownout_exit then (
      match t.below_since with
      | None -> t.below_since <- Some now
      | Some since ->
          if now -. since >= t.config.brownout_sustain then begin
            t.brownout <- false;
            t.below_since <- None;
            t.brownout_exits <- t.brownout_exits + 1;
            Metrics.set_gauge "bb_brownout_active" 0.;
            Metrics.count "bb_brownout_transitions_total" ~labels:[ ("dir", "exit") ];
            Obs_log.event ~at:now "bb.brownout.exit"
              ~attrs:[ ("depth", string_of_int t.depth) ]
          end)
    else t.below_since <- None
  end

(* ------------------------------------------------------------------ *)
(* Shedding. *)

let shed t entry reason =
  (match reason with
  | `Queue_full -> t.shed_queue_full <- t.shed_queue_full + 1
  | `Deadline -> t.shed_deadline <- t.shed_deadline + 1
  | `Priority -> t.shed_priority <- t.shed_priority + 1
  | `Shutdown -> t.shed_shutdown <- t.shed_shutdown + 1);
  Metrics.count "bb_overload_shed_total" ~labels:[ ("reason", shed_label reason) ];
  let now = t.time.now () in
  Obs_log.event ~at:now "bb.overload.shed" ~parent:entry.span
    ~attrs:[ ("reason", shed_label reason); ("priority", string_of_int entry.prio) ];
  Trace.finish_span ~sim_time:now entry.qspan;
  Trace.finish_span ~sim_time:now
    ~attrs:[ ("result", "shed"); ("reason", shed_label reason) ]
    entry.span;
  entry.respond (Error (Types.Server_busy { retry_after = t.config.retry_after }))

(* The lowest-priority live entry, oldest first on ties — the victim the
   watermark policy evicts to make room for more important work. *)
let min_prio_entry t =
  Queue.fold
    (fun acc e ->
      if e.dropped then acc
      else
        match acc with Some m when m.prio <= e.prio -> acc | _ -> Some e)
    None t.queue

let pop_live t =
  let rec go () =
    match Queue.take_opt t.queue with
    | None -> None
    | Some e -> if e.dropped then go () else Some e
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The server: one decision in service at a time, each costing the mode's
   service time in sim time.  Already-late work is dropped at dequeue for
   free — the whole point of the deadline check is to avoid spending
   service capacity on work whose requester has given up. *)

let rec serve t =
  match pop_live t with
  | None -> t.busy <- false
  | Some e ->
      t.depth <- t.depth - 1;
      note_depth t;
      let now = t.time.now () in
      if now -. e.enqueued_at > t.config.deadline then begin
        shed t e `Deadline;
        update_brownout t;
        serve t
      end
      else begin
        let mode = if t.brownout then `Conservative else `Exact in
        let cost =
          match mode with
          | `Exact -> t.config.service_exact
          | `Conservative -> t.config.service_conservative
        in
        dequeued t e;
        (* Batch drain: pull up to [batch_limit - 1] more live, in-deadline
           entries to decide together under one timer and one broker batch
           (journal group commit, warm admission cache).  Each entry is
           still decided against the state its predecessors left behind,
           so outcomes equal the one-at-a-time drain's. *)
        let batch = gather_batch t [ e ] (t.config.batch_limit - 1) in
        let total_cost = cost *. float_of_int (List.length batch) in
        let epoch = t.epoch in
        t.time.after total_cost (fun () ->
            if t.epoch <> epoch then
              (* The broker died under us mid-service: the batch's work was
                 lost with it.  Shed rather than decide against the
                 successor, whose recovered MIB never saw these requests. *)
              List.iter
                (fun e ->
                  Trace.finish_span ~sim_time:(t.time.now ()) e.sspan;
                  shed t e `Shutdown)
                batch
            else begin
              (match batch with
              | [ one ] -> decide t one mode
              | several ->
                  Trace.span "bb.overload.batch" (fun () ->
                      Broker.batched t.broker (fun () ->
                          List.iter (fun e -> decide t e mode) several)));
              update_brownout t;
              serve t
            end)
      end

(* Dequeue bookkeeping for an entry that made its deadline: the queue
   wait ends here and the service span opens. *)
and dequeued t e =
  let now = t.time.now () in
  Trace.finish_span ~sim_time:now e.qspan;
  e.sspan <- Trace.start_span ~sim_time:now ~parent:e.span "bb.service"

and gather_batch t acc k =
  if k <= 0 then List.rev acc
  else
    match pop_live t with
    | None -> List.rev acc
    | Some e ->
        t.depth <- t.depth - 1;
        note_depth t;
        if t.time.now () -. e.enqueued_at > t.config.deadline then begin
          shed t e `Deadline;
          gather_batch t acc k
        end
        else begin
          dequeued t e;
          gather_batch t (e :: acc) (k - 1)
        end

and decide t e mode =
  let oracle_ok = Option.map (fun f -> f e.req) t.oracle in
  let outcome =
    (* The broker's bb.request span (and its stages) nest under this
       entry's pipeline span, not under whatever else is ambient in the
       engine callback. *)
    Trace.with_ambient e.span (fun () ->
        Broker.request t.broker ~admission:mode e.req)
  in
  (match mode with
  | `Conservative -> t.conservative_decisions <- t.conservative_decisions + 1
  | `Exact -> ());
  t.decided <- t.decided + 1;
  (match outcome with
  | Ok _ ->
      t.admitted <- t.admitted + 1;
      if oracle_ok = Some false then t.oracle_violations <- t.oracle_violations + 1
  | Error _ -> t.rejected <- t.rejected + 1);
  let now = t.time.now () in
  record_latency t (now -. e.enqueued_at);
  Trace.finish_span ~sim_time:now
    ~attrs:
      [ ("mode", match mode with `Exact -> "exact" | `Conservative -> "conservative") ]
    e.sspan;
  Trace.finish_span ~sim_time:now
    ~attrs:[ ("result", match outcome with Ok _ -> "admit" | Error _ -> "reject") ]
    e.span;
  (match t.on_serviced with None -> () | Some f -> f e.req mode outcome);
  e.respond outcome

let submit t req respond =
  t.submitted <- t.submitted + 1;
  let now = t.time.now () in
  let prio = Policy.priority (Broker.policy t.broker) req in
  (* Roots a fresh trace unless submitted under an ambient span (the
     COPS exchange at the PDP): then the whole pipeline nests there. *)
  let span =
    Trace.start_span ~sim_time:now
      ~attrs:[ ("priority", string_of_int prio) ]
      "bb.pipeline"
  in
  let entry =
    {
      req;
      enqueued_at = now;
      prio;
      respond;
      dropped = false;
      span;
      qspan = Trace.start_span ~sim_time:now ~parent:span "bb.queue.wait";
      sspan = Trace.null_span;
    }
  in
  if t.stopped then shed t entry `Shutdown
  else if t.depth >= t.config.queue_limit then begin
    shed t entry `Queue_full;
    update_brownout t
  end
  else begin
    let watermark =
      int_of_float
        (Float.round (t.config.shed_watermark *. float_of_int t.config.queue_limit))
    in
    (if t.depth >= watermark then
       (* Past the watermark someone must go: the least important of the
          queued work and the newcomer. *)
       match min_prio_entry t with
       | Some victim when victim.prio < entry.prio ->
           victim.dropped <- true;
           t.depth <- t.depth - 1;
           shed t victim `Priority;
           Queue.add entry t.queue;
           t.depth <- t.depth + 1
       | _ -> shed t entry `Priority
     else begin
       Queue.add entry t.queue;
       t.depth <- t.depth + 1
     end);
    note_depth t;
    update_brownout t;
    if not t.busy then begin
      t.busy <- true;
      serve t
    end
  end

let stop t =
  t.stopped <- true;
  let rec drain () =
    match pop_live t with
    | None -> ()
    | Some e ->
        t.depth <- t.depth - 1;
        shed t e `Shutdown;
        drain ()
  in
  drain ();
  note_depth t

let quiesce t =
  (* Crash-time freeze: invalidate the in-service batch (its timer will
     fire into the epoch guard and shed) and stop + drain the queue.
     Unlike {!stop}, not even the decision in service completes — the
     broker it would decide against is gone. *)
  t.epoch <- t.epoch + 1;
  t.busy <- false;
  stop t

let retarget t broker =
  t.epoch <- t.epoch + 1;
  t.broker <- broker;
  t.stopped <- false;
  (* The old epoch's in-service timer, if any, will fire into the guard
     above and shed its batch without recursing into [serve]; restart the
     server for whatever queued work survived the outage. *)
  t.busy <- false;
  if not (Queue.is_empty t.queue) then begin
    t.busy <- true;
    serve t
  end

let brownout t = t.brownout

let stats t =
  {
    submitted = t.submitted;
    decided = t.decided;
    admitted = t.admitted;
    rejected = t.rejected;
    shed_queue_full = t.shed_queue_full;
    shed_deadline = t.shed_deadline;
    shed_priority = t.shed_priority;
    shed_shutdown = t.shed_shutdown;
    conservative_decisions = t.conservative_decisions;
    brownout_entries = t.brownout_entries;
    brownout_exits = t.brownout_exits;
    oracle_violations = t.oracle_violations;
    max_depth = t.max_depth;
  }

let shed_total (s : stats) =
  s.shed_queue_full + s.shed_deadline + s.shed_priority + s.shed_shutdown
