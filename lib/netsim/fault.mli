(** Seeded fault injection for the simulated control plane.

    The paper's reliability claim (Section 2, footnote 2) is that keeping
    all QoS state at the broker turns failure handling into a pure
    control-plane problem.  This module supplies the failures to handle:
    a deterministic, seed-driven schedule of link outages and broker
    crashes bound to the discrete-event {!Engine} clock, plus a Bernoulli
    loss process for the COPS channel.  Everything is driven by
    {!Bbr_util.Prng}, so a given seed reproduces the exact same fault
    sequence on every run. *)

type action =
  | Link_down of int  (** take a topology link down (by link id) *)
  | Link_up of int  (** repair it *)
  | Crash of string  (** crash a named broker *)
  | Recover of string

type event = {
  at : float;
  id : int;  (** injection id: process-wide creation order (see {!event}) *)
  action : action;
}

val event : at:float -> action -> event
(** Build an event carrying a fresh injection id.  Ids are handed out in
    creation order, so a batch of events built in program order keeps that
    order wherever times coincide — even after the lists holding them are
    concatenated, filtered or merged. *)

val compare_events : event -> event -> int
(** Order by time, injection id breaking ties — the canonical dispatch
    order {!install} enforces. *)

type hooks = {
  on_link_down : int -> unit;
  on_link_up : int -> unit;
  on_crash : string -> unit;
  on_recover : string -> unit;
}

val hooks :
  ?on_link_down:(int -> unit) ->
  ?on_link_up:(int -> unit) ->
  ?on_crash:(string -> unit) ->
  ?on_recover:(string -> unit) ->
  unit ->
  hooks
(** Omitted handlers default to no-ops. *)

val install : Engine.t -> hooks -> event list -> unit
(** Schedule every event on the engine; at its time the matching hook
    fires.  Events are scheduled in {!compare_events} order, so coincident
    same-sim-time injections dispatch deterministically by injection id —
    independent of how the caller interleaved the lists it concatenated. *)

val inject : Engine.t -> hooks -> action -> unit
(** Schedule one action at the engine's {e current} time — same metrics,
    tracing and hook dispatch as a pre-planned event.  This is how
    state-triggered faults enter the schedule: e.g. crash-point injection
    kills the broker from a journal record-boundary callback, at whatever
    simulated instant that record happens to be written. *)

val drop : Bbr_util.Prng.t -> p:float -> unit -> bool
(** A Bernoulli loss process: each call returns [true] (drop this
    message) with probability [p].  [p = 0] never samples the stream, so
    a loss-free run consumes no randomness.  Raises [Invalid_argument]
    unless [0 <= p < 1].  Feed to {!Bbr_broker.Cops.reliability}. *)

val link_plan :
  Bbr_util.Prng.t ->
  link_ids:int list ->
  horizon:float ->
  ?mtbf:float ->
  ?mttr:float ->
  unit ->
  event list
(** A seeded outage schedule over [link_ids] up to time [horizon]: each
    link alternates exponentially distributed up-times (mean [mtbf],
    default [horizon/2]) and down-times (mean [mttr], default
    [horizon/20]), on its own split PRNG stream.  Events come back sorted
    by time, ready for {!install}. *)
