(** Inter-domain federation chaos soak.

    A deterministic end-to-end robustness experiment for the
    {!Bbr_interdomain.Federation} coordinator: a 10+ domain random
    federation graph under Poisson flow churn, with the full fault menu
    thrown at it mid-run —

    - message-channel chaos (Bernoulli loss, duplication, extra delay)
      on every coordinator↔domain leg;
    - a partitioned transit domain (messages both ways silently lost for
      a window);
    - a crashed transit domain (consumes messages without reacting, then
      comes back with its reservation state intact);
    - a coordinator crash at a chosen instant, journal truncated to the
      last fsync boundary, followed by immediate recovery — the replayed
      decision digest is compared against the dying coordinator's;
    - orphaned prepared bookings, released as their holds expire.

    After the fault window every process heals and the run drains to
    quiescence.  The acceptance criteria for {b bbsim federation} and CI:
    every audit clean (federation invariants and each domain's MIB), the
    obligation queue empty, zero stranded bandwidth (no domain broker
    holds a byte the federation cannot account for), and — when the
    coordinator crashed — a digest-exact recovery. *)

type config = {
  seed : int;
  n_domains : int;  (** federation size (>= 3) *)
  extra_peerings : int;  (** peering pairs beyond the spanning tree *)
  domain_hops : int;  (** intra-domain chain length *)
  link_capacity : float;
  sla_rate : float;  (** committed rate per peering, b/s *)
  arrival_rate : float;  (** flow arrivals/s, Poisson *)
  mean_holding : float;  (** exponential holding time, s *)
  duration : float;  (** arrivals offered during [0, duration) *)
  drop_p : float;  (** per-message-copy loss probability in the window *)
  dup_p : float;
  max_extra_delay : float;  (** uniform extra per-message delay, s *)
  fault_from : float;  (** channel chaos active in [fault_from, fault_until) *)
  fault_until : float;
  partition_from : float;  (** a transit domain unreachable in this window *)
  partition_until : float;
  domain_crash_from : float;  (** a transit domain down in this window *)
  domain_crash_until : float;
  crash_coordinator_at : float option;
      (** crash + recover the coordinator at this instant *)
  fed : Bbr_interdomain.Federation.config;
}

val default_config : config
(** Seed 1: 12 domains, 6 extra peerings, 2-hop domains at 10 Mb/s,
    2 Mb/s SLAs, 3 arrivals/s for 120 s, 5% loss / 2% duplication /
    up to 20 ms extra delay during [20, 80), a partition in [40, 60), a
    domain crash in [30, 50), a coordinator crash at 70 s, a 10 s
    prepare TTL and jittered retries. *)

type outcome = {
  offered : int;
  committed : int;  (** decisions seen by the requesters *)
  compensated : int;
  rejected : int;
  unresolved : int;
      (** requests whose decision callback never fired — only the
          coordinator crash drops callbacks, so without one this must
          be 0 *)
  torn_down : int;
  p50_commit_latency : float;  (** request to commit decision, s *)
  p95_commit_latency : float;
  stats : Bbr_interdomain.Federation.stats;
  recovery_time : float option;
      (** sim seconds from the coordinator crash until the re-queued
          obligation backlog first drained *)
  digest_match : bool option;
      (** replayed decision digest vs the dying coordinator's *)
  recovered_flows : int;
  recovery_aborts : int;
  pending_obligations : int;  (** at the end of the run — must be 0 *)
  stranded_bandwidth : float;
      (** Σ over domains of broker-reserved rate the federation cannot
          account for — must be 0 *)
  live_flows : int;
  audit : Bbr_interdomain.Federation.report;
  audit_clean : bool;
}

val run : config -> outcome

val ok : outcome -> bool
(** The acceptance predicate: clean audits, empty obligation queue, zero
    stranded bandwidth, zero unresolved decisions unless the coordinator
    crashed, and a digest-exact recovery when it did. *)

val pp_outcome : outcome Fmt.t
