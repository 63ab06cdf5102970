(** Recovery-SLO oracle.

    The runner stamps every injected event ({!declare}) and feeds the
    oracle three time series sampled during the run: goodput (admitted
    flows/s over a sliding window), audit cleanliness, and the overload
    pipeline's brownout state.  At the end, each event is judged against
    the scenario's budgets: time-to-goodput-recovery (back to
    [goodput_frac] x the pre-disturbance baseline), time-to-clean-audit,
    and time-to-brownout-exit, all measured from the event's declared
    heal instant.  Any breach triggers the armed {!Bbr_obs.Flight}
    recorder. *)

type measurement = {
  event : string;
  metric : string;  (** ["goodput_recovery" | "clean_audit" | "brownout_exit"] *)
  value : float option;  (** seconds from heal; [None] = never recovered *)
  budget : float;
  met : bool;
}

type t

val create : budgets:Scenario.slo -> t

val note_goodput : t -> at:float -> float -> unit
val note_audit : t -> at:float -> bool -> unit
val note_brownout : t -> at:float -> bool -> unit

val declare : t -> Scenario.event -> unit
(** Stamp one injected event for post-hoc judgment. *)

val baseline : t -> float
(** Mean goodput over the samples preceding the first declared
    injection. *)

val measure : t -> measurement list
(** Three measurements per declared event, in declaration order. *)

val ok : t -> bool

val report : t -> measurement list
(** {!measure}, plus {!Bbr_obs.Flight.trigger} on every breach — the
    black-box hook. *)

val pp_measurement : measurement Fmt.t
