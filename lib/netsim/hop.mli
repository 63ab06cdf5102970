(** One scheduler instance attached to a directed link.

    A hop receives packets, queues them according to its discipline, serves
    them at the link capacity and — after the link's propagation delay —
    hands them to the downstream [deliver] callback with the hop index
    advanced and (for core-stateless disciplines) the packet's virtual time
    stamp updated by the concatenation rule.

    Core-stateless disciplines ({!Csvc}, {!Vtedf}) keep {e no} per-flow
    state: the service priority is computed from the dynamic packet state
    alone.  Stateful disciplines ({!Vc}, {!Rcedf}) require {!install_flow}
    before packets of a flow arrive — they model the IntServ baseline. *)

type discipline =
  | Csvc  (** core-stateless virtual clock: priority = virtual finish time *)
  | Cjvc
      (** core-jitter virtual clock (Stoica & Zhang): like {!Csvc} but
          non-work-conserving — packets are held until their virtual
          arrival time, eliminating downstream jitter *)
  | Vtedf  (** virtual-time EDF: priority = omega + d *)
  | Vc  (** stateful per-flow virtual clock (IntServ rate-based baseline) *)
  | Scfq
      (** self-clocked fair queueing (Golestani): a WFQ-family
          fair scheduler with per-flow weights = reserved rates; the
          system virtual time is the service tag of the most recently
          completed packet *)
  | Rcedf  (** rate-controlled EDF: per-flow shaper + EDF (IntServ baseline) *)
  | Fifo

type t

val create :
  Engine.t -> link:Bbr_vtrs.Topology.link -> deliver:(Packet.t -> unit) -> discipline -> t

val receive : t -> Packet.t -> unit
(** Packet arrival at this hop.  Raises [Invalid_argument] when a
    core-stateless hop receives a packet without packet state, or a
    stateful hop a packet of an uninstalled flow. *)

val install_flow : t -> flow:int -> rate:float -> deadline:float -> unit
(** Register per-flow state at a stateful hop ([Vc] ignores [deadline]).
    No-op for core-stateless and FIFO hops — they have nothing to
    install (this is the decoupling the paper is about). *)

val remove_flow : t -> flow:int -> unit

val flow_state_count : t -> int
(** Number of per-flow entries this hop holds; always 0 for core-stateless
    and FIFO hops. *)

val link : t -> Bbr_vtrs.Topology.link

val served : t -> int

val queue_len : t -> int

val max_backlog_bits : t -> float
(** Largest buffer occupancy observed at this hop (bits) — the buffer
    requirement the node QoS MIB of Section 2.2 records. *)

val max_lateness : t -> float
(** Over all packets that carried packet state, the maximum of
    [actual_finish - (virtual_finish + psi)] observed at this hop —
    non-positive iff the hop honoured its error term (the per-hop guarantee
    of paper Section 2.1).  [neg_infinity] when no such packet was
    served. *)
