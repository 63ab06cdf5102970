(** Declarative chaos-scenario DSL.

    A scenario is a timeline: a topology, a time-varying load shape
    (diurnal sine, flash-crowd spikes, compositions), a list of fault
    injections (link bursts, network partitions, broker crash +
    warm-standby promotion), the control plane's durability and
    signalling settings, and per-scenario recovery-SLO budgets.  The
    {!Runner} executes it against the full broker stack; {!Monitor} and
    {!Slo} judge it. *)

type topology_spec =
  | Fig8 of { setting : Bbr_workload.Fig8.setting; detour : bool }
      (** the paper's Figure-8 domain carrying its Figure-10 churn:
          Poisson arrivals of Table-1 flows from both sources
          ({!Bbr_workload.Dynamic.arrivals}, cd 0.24), with every request
          entering at I1 marked premium (policy rule [premium-ingress],
          priority 10) for the overload pipeline's watermark shedding.
          [detour] adds the protection path R3→R6→R4 at
          {!Bbr_workload.Fig8.capacity}: one hop longer than R3→R4, so
          routing takes it only once R3→R4 is down.  Needs a {!Constant}
          load. *)
  | Power_law of { nodes : int; m : int }
      (** {!Bbr_workload.Topo_gen.power_law} ISP graph carrying the
          five-class {!Traffic_mix} *)

type load_shape =
  | Constant of float  (** arrivals/s *)
  | Diurnal of { base : float; amplitude : float; period : float }
      (** [base * (1 + amplitude * sin(2πt/period))], clamped at 0 *)
  | Flash of {
      shape : load_shape;  (** underlying shape the flash multiplies *)
      at : float;
      mult : float;  (** peak multiplier, e.g. 10. *)
      rise : float;
      hold : float;
      fall : float;
    }  (** trapezoid flash crowd composed over [shape] *)

(** When a broker crash fires. *)
type crash_point =
  | At of float  (** at this sim time *)
  | At_record of int
      (** the instant the [n]-th journal record is appended (counted
          across compactions) — an exact record-boundary crash; needs a
          journal *)

type fault =
  | Regional_links of { at : float; duration : float; count : int }
      (** [count] links at the top hub go down together, restored after
          [duration] *)
  | Links of { at : float; duration : float; ends : (string * string) list }
      (** the named [(src, dst)] links go down together, restored after
          [duration]; {!Runner.run} raises [Invalid_argument] when a pair
          names no link *)
  | Partition of { at : float; duration : float; leaves : int }
      (** the [leaves] lowest-degree nodes are cut off entirely *)
  | Broker_crash of { at : crash_point; promote_after : float }
      (** primary dies (its store keeps what was fsynced), warm standby
          promoted after [promote_after] *)
  | Disk_fault of { at : float; duration : float }
      (** at-rest bit rot in the current checkpoint generation at [at];
          a scrub detects it on the spot.  [duration] bounds the
          expected-degradation window — recovery SLOs are measured from
          [at + duration].  Compose with a {!Broker_crash} shortly after
          to force promotion through the prior-generation fallback *)

(** Per-scenario recovery budgets, all in sim seconds measured from the
    declared heal instant of each event. *)
type slo = {
  recover_goodput : float;  (** goodput back to [goodput_frac] x baseline *)
  goodput_frac : float;
  clean_audit : float;  (** first clean MIB audit *)
  brownout_exit : float;  (** pipeline out of degraded mode *)
}

val default_slo : slo

type t = {
  name : string;
  descr : string;
  seed : int;
  topology : topology_spec;
  load : load_shape;
  mean_holding : float;
  duration : float;  (** arrivals stop here *)
  horizon : float;  (** engine runs (bounded) until here, then drains *)
  latency : float;  (** COPS one-way latency *)
  loss : float;  (** COPS per-message loss probability, [0 <= p < 1] *)
  pipeline : Bbr_broker.Overload.config;
  checkpoint_every : float option;
      (** warm-standby checkpoint period; [None] = no periodic
          checkpoints *)
  journal : int option;
      (** [Some n]: write-ahead journal every broker mutation, fsync every
          [n] records — [Some 1] loses nothing at a crash, so a promotion
          must be digest-exact.  [None]: checkpoints only, a crash loses
          what was admitted since the last one.  A crash needs a journal
          or checkpoints. *)
  faults : fault list;
  slo : slo;
}

val default : t
(** 400-node power-law domain, diurnal load, no faults, loss-free COPS,
    checkpoints every 12 s, journal fsynced every record. *)

val rate_at : load_shape -> float -> float
(** Instantaneous arrival rate (arrivals/s) at sim time [t]. *)

val peak_rate : load_shape -> float
(** Upper bound on {!rate_at} over all time — the thinning envelope. *)

(** A declared disturbance: every fault and every flash phase. *)
type event = { label : string; injected_at : float; healed_at : float }

val events : t -> event list
(** Every event known before the run: all but the record-boundary
    crashes, which the {!Runner} declares when they fire
    ({!crash_event}). *)

val crash_event : at:float -> promote_after:float -> event

val grace : slo -> float
(** The largest recovery budget — how long after heal degradation is
    still "expected". *)

val window : slo -> event -> float * float
(** An event's expected-degradation window:
    [(injected_at, healed_at + grace)]. *)

val windows : t -> (float * float) list
(** {!window} of every one of {!events}. *)

val in_windows : (float * float) list -> float -> bool

val scale : float -> t -> t
(** [scale k t] shrinks durations, event instants, holding times, SLO
    budgets, the checkpoint period (floored at 5 s) and (power-law)
    topology size by [k] — the smoke-run knob.  [scale 1.] is the
    identity.  Raises [Invalid_argument] on [k <= 0]. *)
