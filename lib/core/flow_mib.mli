(** Flow information base (paper Section 2.2): per-flow traffic profile,
    service profile and current QoS reservation, kept only at the broker.

    One hash table of records keyed by flow id.  {!fold} visits records
    in no particular order; every reader whose output depends on order
    ({!crossing}, {!total_reserved_rate}, snapshots, audits, digests)
    sorts by flow id. *)

type record = {
  flow : Types.flow_id;
  request : Types.request;
  reservation : Types.reservation;
  path : Path_mib.info;
  admitted_at : float;  (** broker clock at admission *)
}

type t

val create : unit -> t

val fresh_id : t -> Types.flow_id
(** Allocate the next unused flow id. *)

val reserve_ids : t -> below:Types.flow_id -> unit
(** Ensure {!fresh_id} never returns an id below [below].  A restored
    standby reserves the primary's id space so post-failover admissions
    cannot collide with ids still held by ingress routers. *)

val next_id : t -> Types.flow_id
(** The id {!fresh_id} would allocate next (without allocating it). *)

val add : t -> record -> unit
(** Raises [Invalid_argument] if the id is already present. *)

val find : t -> Types.flow_id -> record option
(** The stored record, if the flow is live. *)

val remove : t -> Types.flow_id -> record option
(** Remove and return the stored record, or [None] if absent. *)

val count : t -> int

val fold : t -> init:'a -> f:('a -> record -> 'a) -> 'a
(** Visit every record, in unspecified order. *)

val crossing : t -> link_id:int -> record list
(** The records whose path uses the link, in ascending flow id: the
    victims of a failure of that link. *)

val total_reserved_rate : t -> float
(** Sum of reserved rates over all flows, added in flow-id order so the
    result does not depend on table order (diagnostics). *)
