(** Egress measurement point: collects per-flow delay statistics used to
    validate the analytic delay bounds. *)

type flow_stats = {
  received : int;
  max_e2e : float;  (** max (arrival - born): source-to-egress delay *)
  sum_e2e : float;
  max_core : float;  (** max (arrival - edge_exit): delay across the core *)
  max_edge : float;  (** max (edge_exit - born): delay in the edge shaper *)
}

type t

val create : Engine.t -> t

val receive : t -> Packet.t -> unit

val stats : t -> flow:int -> flow_stats option

val flows : t -> int list
(** Flow ids seen, in ascending order. *)

val total_received : t -> int
