(** The named scenarios and the matrix's benchmark artifact.

    Seven composed chaos campaigns — diurnal soak, flash crowd, regional
    link failure, failure-under-overload, broker crash during a flash
    crowd, disk fault + crash, partition + heal — each with recovery-SLO
    budgets.  A full run writes [BENCH_scenarios.json] (schema
    [bbr/scenarios/v1]) with goodput, decision latency quantiles,
    recovery times and violation counts per scenario.  Four more named
    scenarios replay the paper's Figure-10 churn under faults and
    overload. *)

val scenarios : Scenario.t list
(** The matrix: the seven campaigns {!run_all} runs by default. *)

(** {1 Figure-10 scenarios}

    The paper's Figure-10 churn on the Figure-8 domain, journaled with an
    fsync every record and checkpointed every 50 s unless noted. *)

val fig10_failover : Scenario.t
(** [fig10-failover]: R3→R4 fails at 600 s for 300 s with the detour in
    place, the broker crashes at 1500 s, a standby is promoted 0.5 s
    later. *)

val fig10_crash_at_record : Scenario.t
(** [fig10-crash-at-record]: the broker dies when journal record 150 is
    appended; checkpoints every 333 s. *)

val fig10_overload : Scenario.t
(** [fig10-overload]: 10x the arrival rate on the mixed setting through
    a saturated brownout pipeline. *)

val fig10_overload_flat : Scenario.t
(** [fig10-overload-flat]: [fig10-overload] through a pipeline that never
    degrades. *)

val fig10 : Scenario.t list
(** The four above, in that order; reachable by name, not run by
    {!run_all}'s default. *)

val names : string list
(** Every named scenario: the matrix, then {!fig10}. *)

val find : string -> Scenario.t option

val run_all : ?scale:float -> ?names:string list -> unit -> Runner.outcome list
(** Run the whole matrix (or just [names], which may name any scenario),
    each scenario shrunk by {!Scenario.scale} [scale] (default 1 — full
    size).  Raises [Invalid_argument] on an unknown name. *)

val to_json : scale:float -> Runner.outcome list -> string

val write_json : path:string -> scale:float -> Runner.outcome list -> unit
(** Raises [Sys_error] on I/O failure. *)
