(** Standing invariant monitor.

    Samples invariant probes continuously {e during} a scenario run — not
    just at the end — and classifies every violation against the
    scenario's declared fault windows: inside a window degradation is
    expected (capacity loss, recovery transients); outside, it is a
    genuine violation, and the first one triggers the armed
    {!Bbr_obs.Flight} recorder so the black box captures the state at
    first anomaly. *)

type kind =
  | Audit_violation  (** MIB cross-check found a violation *)
  | Oracle_violation  (** pipeline admitted what the exact oracle rejects *)
  | Digest_mismatch
      (** recovered broker digest ≠ pre-crash digest under a lossless
          journal *)
  | Goodput_floor  (** goodput below floor outside any fault window *)

val kind_label : kind -> string

type anomaly = {
  at : float;
  kind : kind;
  detail : string;
  expected : bool;  (** fell inside a declared fault window *)
}

type t

val create :
  now:(unit -> float) -> windows:(float * float) list -> unit -> t

val add_window : t -> float * float -> unit
(** Declare one more expected-degradation window — for an event whose
    instant is known only once it fires. *)

val note : t -> kind -> string -> unit
(** Record one violation observed now; fires {!Bbr_obs.Flight.trigger}
    if it lands outside every declared window. *)

val start_sampling :
  t ->
  Bbr_netsim.Engine.t ->
  every:float ->
  probe:(unit -> (kind * string) list) ->
  unit
(** Schedule a sampling loop: every [every] sim seconds, [probe] returns
    the violations visible right now (empty list = all invariants hold)
    and each is {!note}d.  Runs until {!stop}. *)

val stop : t -> unit

val anomalies : t -> anomaly list
(** In observation order. *)

val genuine : t -> anomaly list
(** Anomalies outside every declared fault window — must be empty for a
    scenario to pass. *)

val expected : t -> anomaly list

val samples : t -> int
(** Number of probe rounds taken. *)
