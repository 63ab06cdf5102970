(** Packets flowing through the simulated data plane. *)

type t = {
  flow : int;  (** owning (micro)flow id *)
  seq : int;  (** per-flow sequence number *)
  size : float;  (** bits *)
  born : float;  (** emission time at the source *)
  path : Bbr_vtrs.Topology.link array;  (** hops still to traverse, in order *)
  mutable hop_ix : int;  (** index of the hop currently being traversed *)
  mutable edge_exit : float;  (** time the packet left the edge conditioner *)
  mutable state : Bbr_vtrs.Packet_state.t option;
      (** dynamic packet state; [None] before edge stamping and for
          disciplines that do not use it *)
}

val make :
  flow:int -> seq:int -> size:float -> born:float -> path:Bbr_vtrs.Topology.link array -> t

val current_link : t -> Bbr_vtrs.Topology.link
(** The link/scheduler the packet is currently at.  Raises
    [Invalid_argument] when the packet has left the last hop. *)

val pp : t Fmt.t
