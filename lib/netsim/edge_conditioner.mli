(** Edge traffic conditioner (paper Section 2.1, Figure 2).

    Sits at the ingress router, in front of the first-hop scheduler.  It
    shapes a (micro- or macro-) flow so that consecutive packets enter the
    network core no closer than [size/rate] apart, and stamps each departing
    packet with its dynamic packet state (rate–delay pair and initial
    virtual time stamp = the departure time).

    The service rate is reconfigurable at runtime — the bandwidth broker
    adjusts it when microflows join or leave a macroflow and when
    contingency bandwidth is granted or released (Section 4.2).  A rate
    increase takes effect immediately, including for the packet currently
    being held.

    The conditioner reports the queue-empty events the contingency-feedback
    method of Section 4.2.1 relies on. *)

type t

val create :
  Engine.t ->
  rate:float ->
  delay_param:float ->
  lmax:float ->
  ?on_empty:(unit -> unit) ->
  next:(Packet.t -> unit) ->
  unit ->
  t
(** [rate] is the initial reserved rate (bits/s); [delay_param] and [lmax]
    are stamped into the packet state ([d^j], [L^{j,max}]); [next] receives
    conditioned, stamped packets; [on_empty] fires whenever the backlog
    returns to zero. *)

val submit : t -> Packet.t -> unit
(** Packet arrival from the source side. *)

val set_rate : t -> float -> unit
(** Reconfigure the service (reserved) rate.  Raises [Invalid_argument] on
    a non-positive rate. *)

val rate : t -> float

val backlog_bits : t -> float
(** Bits currently queued (including a packet being held for release). *)

val released : t -> int
(** Packets released into the core so far. *)

val max_queueing_delay : t -> float
(** Largest waiting time observed so far between a packet's arrival and its
    release ([neg_infinity] before any release) — compared against the edge
    delay bound, eq. (3), in tests and in the Figure-7 experiment. *)
