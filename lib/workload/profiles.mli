(** The traffic profiles and delay bounds of the paper's Table 1.

    Four flow types, all with a 0.1 Mb/s peak rate and 1500-byte maximum
    packets; each type comes with two candidate end-to-end delay bounds
    (a loose and a tight one). *)

type entry = {
  flow_type : int;  (** 0..3 *)
  profile : Bbr_vtrs.Traffic.t;
  loose_bound : float;  (** first "Delay Bounds" column, seconds *)
  tight_bound : float;  (** second column *)
}

val table : entry array
(** Table 1, in flow-type order. *)

val profile : int -> Bbr_vtrs.Traffic.t
(** Profile of the given flow type.  Raises [Invalid_argument] outside
    0..3. *)

val bound : int -> [ `Loose | `Tight ] -> float

val all_bounds : float list
(** The eight distinct delay bounds of the table, ascending. *)
