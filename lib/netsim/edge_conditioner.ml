module Packet_state = Bbr_vtrs.Packet_state

type t = {
  engine : Engine.t;
  mutable rate : float;
  delay_param : float;
  lmax : float;
  on_empty : unit -> unit;
  next : Packet.t -> unit;
  queue : (Packet.t * float) Queue.t;  (* packet, arrival time *)
  mutable last_release : float;
  mutable backlog : float;
  mutable releasing : bool;  (* a release event is pending *)
  mutable epoch : int;  (* invalidates stale release events after set_rate *)
  mutable released : int;
  mutable max_wait : float;
}

let create engine ~rate ~delay_param ~lmax ?(on_empty = fun () -> ()) ~next () =
  if rate <= 0. then invalid_arg "Edge_conditioner.create: rate must be positive";
  {
    engine;
    rate;
    delay_param;
    lmax;
    on_empty;
    next;
    queue = Queue.create ();
    last_release = neg_infinity;
    backlog = 0.;
    releasing = false;
    epoch = 0;
    released = 0;
    max_wait = neg_infinity;
  }

(* Release the head packet at [max now (last_release + size/rate)]; on a
   rate change, the pending event is invalidated via [epoch] and
   re-scheduled under the new rate. *)
let rec arm t =
  match Queue.peek_opt t.queue with
  | None -> ()
  | Some (pkt, _) ->
      t.releasing <- true;
      let epoch = t.epoch in
      let at =
        Float.max (Engine.now t.engine)
          (t.last_release +. (pkt.Packet.size /. t.rate))
      in
      Engine.schedule t.engine ~at (fun () -> if t.epoch = epoch then release t)

and release t =
  match Queue.take_opt t.queue with
  | None -> assert false
  | Some (pkt, arrived) ->
      let now = Engine.now t.engine in
      t.last_release <- now;
      t.backlog <- t.backlog -. pkt.Packet.size;
      t.released <- t.released + 1;
      let wait = now -. arrived in
      if wait > t.max_wait then t.max_wait <- wait;
      pkt.Packet.edge_exit <- now;
      pkt.Packet.state <-
        Some
          (Packet_state.init ~rate:t.rate ~delay:t.delay_param ~lmax:t.lmax
             ~edge_departure:now);
      t.releasing <- false;
      t.next pkt;
      if Queue.is_empty t.queue then t.on_empty () else arm t

let submit t pkt =
  Queue.add (pkt, Engine.now t.engine) t.queue;
  t.backlog <- t.backlog +. pkt.Packet.size;
  if not t.releasing then arm t

let set_rate t rate =
  if rate <= 0. then invalid_arg "Edge_conditioner.set_rate: rate must be positive";
  if rate <> t.rate then begin
    t.rate <- rate;
    if t.releasing then begin
      (* Invalidate the pending release and re-arm under the new rate. *)
      t.epoch <- t.epoch + 1;
      t.releasing <- false;
      arm t
    end
  end

let rate t = t.rate

let backlog_bits t = t.backlog


let released t = t.released

let max_queueing_delay t = t.max_wait
