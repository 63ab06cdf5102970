(** Scenario execution, the one end-to-end harness: wires a
    {!Scenario.t} through the full stack — power-law topology with the
    multi-class {!Traffic_mix}, or the Figure-8 domain with its Figure-10
    churn; every request through (lossy) reliable COPS, the bounded
    overload pipeline and warm-standby failover with the scenario's
    checkpoints and journal; deterministic fault injection — with the
    {!Monitor} sampling invariants throughout and the {!Slo} oracle
    judging every declared event's recovery. *)

type outcome = {
  scenario : Scenario.t;
  offered : int;
  admitted : int;
  rejected : int;  (** broker resource/policy rejections *)
  busy : int;  (** resolved [Server_busy] after all retries *)
  completed : int;
  pipeline : Bbr_broker.Overload.stats;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  brownout_time : float;  (** sim seconds spent degraded *)
  baseline_goodput : float;  (** pre-disturbance admit ratio *)
  measurements : Slo.measurement list;
  genuine_anomalies : Monitor.anomaly list;
      (** invariant violations outside every declared fault window *)
  expected_anomalies : int;
  monitor_samples : int;
  audit_ok : bool;  (** final MIB cross-check *)
  digest : string;  (** final {!Bbr_broker.Audit.mib_digest} *)
  messages : int;
  retransmissions : int;
  unresolved : int;
  rerouted : int;
      (** reservations moved to a surviving path, summed over link
          failures *)
  dropped : int;  (** reservations released with no feasible alternative *)
  flows_at_crash : int;
      (** per-flow reservations active when the broker died, summed over
          crashes *)
  flows_restored : int;  (** per-flow reservations the promoted standbys hold *)
  recovery_time : float option;  (** crash-to-promoted of the last crash *)
  records_at_crash : int;
      (** journal records since the last checkpoint when the broker died,
          summed over crashes *)
  records_lost : int;  (** of those, the records the crashed store lost *)
  crash_digests_match : bool option;
      (** every promotion reproduced the {!Bbr_broker.Audit.mib_digest}
          of the broker that died; [None] without a crash *)
  recovered_digest_match : bool option;
      (** under [journal = Some 1]: a cold {!Bbr_broker.Failover.recover_from}
          of the final store reproduces [digest]; [None] otherwise *)
  promote_error : string option;
  checkpoint_fallback : bool;
      (** a promotion skipped a corrupt/unverifiable
          checkpoint generation (expected under a
          {!Scenario.fault.Disk_fault}) *)
  storage_truncated : string option;
      (** why a promotion's journal replay stopped early, if one did *)
  storage_scrub_errors : int;
      (** corruption detections by the scrub passes a
          {!Scenario.fault.Disk_fault} triggers *)
}

val flows_lost : outcome -> int
(** [max 0 (flows_at_crash - flows_restored)]. *)

val ok : outcome -> bool
(** The scenario passed: no genuine anomalies, all SLOs met, final audit
    clean, promotion (if any) succeeded, no unresolved transactions, and
    the cold recovery (if any) reproduced the final digest. *)

val pp_outcome : outcome Fmt.t

val run : Scenario.t -> outcome
(** Execute the scenario to completion (deterministic in
    [scenario.seed]).  If a {!Bbr_obs.Flight} recorder is armed, its MIB
    digest closure is installed and any genuine anomaly or SLO breach
    triggers the black box.  Raises [Invalid_argument] when a Figure-8
    scenario's load is not {!Scenario.Constant}, a {!Scenario.Links}
    pair names no link, a crash has neither a journal nor
    checkpoints to recover from, or a record-boundary crash has no
    journal. *)
