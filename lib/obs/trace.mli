(** Structured event/trace layer: a fixed-capacity ring buffer of entries
    stamped with sim time {e and} wall time.

    Three payloads: point-in-time {e events} (link failures, failover
    transitions, aggregation rate changes), timed {e spans} (the stages of
    the broker's Figure-1 control loop), and admission {e decisions} — the
    audit trail recording every admit/reject with its reject reason.

    {2 Causal contexts}

    Entries optionally carry a {!ctx} — (trace id, span id, parent span
    id) — so all the work done on behalf of one request or one federation
    transaction assembles into a span tree.  Two ways to make spans:

    - {!span} for work that completes inside one call frame.  It also
      makes the span {e ambient}: nested spans and events recorded
      inside [f] become its children automatically.
    - {!start_span} / {!finish_span} for work that crosses sim-time
      boundaries (an overload queue wait, a 2PC leg whose reply arrives
      in a later engine callback).  The handle can be stashed in a
      record and finished from any callback; {!with_ambient} temporarily
      re-establishes it as the parent for nested instrumentation.

    A finished span is recorded as ONE entry stamped with its {e start}
    sim/wall times, carrying the wall duration in its payload and the
    sim-time extent in [sim_dur].  Spans still open when the ring is
    inspected have no entry.

    {2 Wraparound caveat}

    The ring holds the last [capacity] entries; [total] keeps counting
    past wraparound, so [evicted = total - length] entries have been
    dropped, oldest first.  Every extraction below — {!entries},
    {!durations}, {!span_stats}, {!decisions} — computes over the
    {e retained} entries only: once [evicted > 0] the statistics are
    biased toward the end of the run and span trees may be missing
    ancestors.  Check {!evicted} (it is also surfaced in the flight
    recorder dump) or size the ring for the run.

    Like {!Metrics}, a tracer is reached through a process-wide slot and
    the recording helpers are branch-only no-ops when none is installed. *)

type decision = {
  service : string;  (** ["perflow"], ["class"], ["fixed"], or caller-defined *)
  flow : int option;  (** assigned flow id on admit *)
  admitted : bool;
  reject_reason : string option;  (** [None] iff admitted *)
  ingress : string;
  egress : string;
  rate : float;  (** reserved rate on admit, 0 otherwise *)
}

type payload = Event | Span of { dur : float  (** wall seconds *) } | Decision of decision

type ctx = {
  trace_id : int;  (** one per root span: one request, one federation txn *)
  span_id : int;
  (** for [Span] entries, the span itself; for [Event]/[Decision]
      entries, the enclosing span *)
  parent : int option;  (** parent span id; [None] for a trace root *)
}

type entry = {
  seq : int;  (** 0-based and monotone across eviction — never wraps *)
  name : string;
  sim_time : float;  (** for finished spans: the {e start} sim time *)
  wall_time : float;  (** for finished spans: the {e start} wall time *)
  payload : payload;
  attrs : (string * string) list;
  ctx : ctx option;
  sim_dur : float;  (** sim-time extent of a finished span; [0.] elsewhere *)
}

type t

type span
(** An open span handle.  Immutable ids; safe to stash in records and
    finish from an engine callback.  Handles obtained while no tracer
    was installed are null: every operation on them is a no-op. *)

val default_capacity : int
(** 4096 entries. *)

val create : ?capacity:int -> unit -> t
(** Sim clock defaults to a constant 0 (set one with {!set_sim_clock});
    wall clock to [Unix.gettimeofday]. *)

val install : t -> unit

val uninstall : unit -> unit

val current : unit -> t option

val enabled : unit -> bool

val set_sim_clock : t -> (unit -> float) -> unit
(** Typically [fun () -> Engine.now engine] or the broker's [time.now]. *)

val set_wall_clock : t -> (unit -> float) -> unit
(** Override the wall clock (tests install a deterministic one). *)

val set_tee : t -> (entry -> unit) option -> unit
(** Tap every entry recorded on [t] (after it lands in the ring).  The
    flight recorder uses this to mirror entries into its larger ring. *)

val record :
  t ->
  ?sim_time:float ->
  ?wall_time:float ->
  ?attrs:(string * string) list ->
  ?ctx:ctx ->
  ?sim_dur:float ->
  name:string ->
  payload ->
  unit
(** Low-level append.  [sim_time]/[wall_time] default to the tracer's
    clocks. *)

val append : t -> entry -> unit
(** Append a pre-built entry verbatim (seq and stamps untouched).  For
    the flight recorder's tee and for rebuilding a ring from a dump. *)

(** {1 Span contexts} *)

val null_span : span
(** The inert handle: parent to nothing, finishes silently.  What every
    span-creating helper returns when no tracer is installed. *)

val start_span :
  ?sim_time:float ->
  ?wall_time:float ->
  ?attrs:(string * string) list ->
  ?parent:span ->
  string ->
  span
(** Open a span on the installed tracer.  Parent resolution: an explicit
    non-null [?parent] wins; otherwise the innermost ambient span;
    otherwise the span roots a fresh trace.  Start stamps default to the
    tracer's clocks; [sim_time]/[wall_time] override them (callers that
    already read a clock pass the value in rather than reading twice). *)

val finish_span :
  ?sim_time:float ->
  ?wall_time:float ->
  ?attrs:(string * string) list ->
  span ->
  unit
(** Record the span's single entry.  End-of-span stamps default to the
    tracer's clocks; [attrs] are appended to the start attrs.
    Idempotent — a second finish is ignored. *)

val with_ambient : span -> (unit -> 'a) -> 'a
(** Run [f] with the span as the innermost ambient parent (exception
    safe).  Use when resuming work for a stashed handle inside an engine
    callback. *)

val push_ambient : span -> unit

val pop_ambient : span -> unit
(** Unbracketed ambient-stack access for zero-closure hot paths; prefer
    {!with_ambient}.  [pop_ambient] drops everything up to and including
    the span, so an unbalanced push (e.g. across a {!clear}) cannot
    wedge the stack.  Both are no-ops on null handles. *)

val ambient : unit -> span list
(** The whole ambient stack, innermost first (diagnostics). *)

(** {1 Recording on the installed tracer}

    All are no-ops when no tracer is installed.  [?parent] attaches the
    entry to that span's context; default is the innermost ambient
    span. *)

val event :
  ?sim_time:float ->
  ?attrs:(string * string) list ->
  ?parent:span ->
  string ->
  unit

val span_record :
  ?sim_time:float ->
  ?attrs:(string * string) list ->
  ?parent:span ->
  string ->
  dur:float ->
  unit
(** Record an externally timed span (no context of its own — it carries
    the enclosing span's ids, like an event). *)

val decision :
  ?sim_time:float ->
  ?attrs:(string * string) list ->
  ?parent:span ->
  decision ->
  unit
(** Appended under the entry name ["bb.decision"]. *)

val span : ?sim_time:float -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a fresh (ambient) span, recording its
    measured wall duration on exit (also on exception).  Without a
    tracer: just [f ()]. *)

val now_wall : unit -> float
(** The installed tracer's wall clock (or [Unix.gettimeofday]). *)

(** {1 Extraction}

    All computed over the retained entries only — see the wraparound
    caveat above. *)

val capacity : t -> int

val length : t -> int
(** Entries currently held ([<= capacity]). *)

val total : t -> int
(** Entries ever recorded, including evicted ones. *)

val evicted : t -> int
(** [total - length]: entries lost to ring wraparound, oldest first.
    Nonzero means every statistic below is computed over a suffix of the
    run. *)

val entries : t -> entry list
(** Oldest first. *)

val clear : t -> unit

val durations : t -> name:string -> float array
(** Wall durations of the {e retained} spans with this name, oldest
    first — feed to {!Bbr_util.Stats.percentile}.  Biased once
    {!evicted}[ > 0]. *)

val span_stats : t -> (string * Bbr_util.Stats.t) list
(** One accumulator per span name over the {e retained} entries; check
    {!evicted} before trusting tails. *)

val decisions : t -> (entry * decision) list
(** The retained decision-log entries, oldest first. *)

val pp_entry : entry Fmt.t

val dump : t -> string
(** Every retained entry, one per line. *)
