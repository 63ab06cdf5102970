(** Lease-partition soak for leased quota delegation.

    Two lease-holding edge brokers admit local flows from delegated
    quota, with no COPS, overload pipeline or failover in between; one
    partitions mid-run, its grants' holds expire, and the central broker
    must return the full delegation to the shared pool within one lease
    period; on reconnect the edge reconciles (re-registering still-live
    flows, surrendering the rest).  A pure function of its seed. *)

type config = {
  seed : int;
  lease_period : float;
  chunk : float;  (** quota acquisition granularity, b/s *)
  arrival_rate : float;  (** local flow arrivals/s at each edge *)
  mean_holding : float;
  duration : float;
  horizon : float;
  disconnect_at : float;
  reconnect_at : float option;  (** [None]: the edge stays dead *)
}

val default_config : config
(** Seed 1, 30 s lease, disconnect at 150 s, reconnect at 350 s. *)

type outcome = {
  offered : int;
  admitted : int;
  rejected : int;
  quota_at_disconnect : float;  (** delegated to the partitioned edge *)
  reclaim_time : float option;
      (** sim seconds from disconnect until the central broker held none
          of the partitioned edge's grant flows *)
  reclaimed_within_period : bool;  (** the acceptance criterion *)
  re_registered : int;
  surrendered : int;
  expired_holds : int;  (** [Expired_hold] findings in the final audit *)
  audit : Bbr_broker.Audit.report;
  central_transactions : int;
}

val run : config -> outcome

val pp_outcome : outcome Fmt.t
