(** Scenario execution: wires a {!Scenario.t} through the full stack —
    power-law or Figure-8 topology, multi-class COPS workload
    ({!Traffic_mix}), the bounded overload pipeline, journaled
    warm-standby failover, deterministic fault injection — with the
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
  promote_error : string option;
  checkpoint_fallback : bool;
      (** a promotion skipped a corrupt/unverifiable
          checkpoint generation (expected under a
          {!Scenario.fault.Disk_fault}) *)
  storage_scrub_errors : int;
      (** corruption detections by the scrub passes a
          {!Scenario.fault.Disk_fault} triggers *)
}

val slo_ok : outcome -> bool
(** Every recovery-SLO measurement met its budget. *)

val ok : outcome -> bool
(** The scenario passed: no genuine anomalies, all SLOs met, final audit
    clean, promotion (if any) succeeded, no unresolved transactions. *)

val pp_outcome : outcome Fmt.t

val run : Scenario.t -> outcome
(** Execute the scenario to completion (deterministic in
    [scenario.seed]).  If a {!Bbr_obs.Flight} recorder is armed, its MIB
    digest closure is installed and any genuine anomaly or SLO breach
    triggers the black box. *)
