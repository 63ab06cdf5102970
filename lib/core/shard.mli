(** One shard of the sharded multi-core broker.

    A shard is a complete single-threaded {!Broker} over a private
    {!Bbr_vtrs.Topology.copy} of the domain, owning a subset of the links
    (the ownership map lives in {!Shard_router}).  Every reservation on a
    link executes on the link's owning shard and nowhere else, so a
    shard's MIB slice needs no synchronization — its state on the links it
    owns is bit-exact with what a single broker executing the same global
    operation order would hold.  A shard runs only the ops its router
    sends; it has no load loop and allocates no flow ids of its own.

    A shard either runs {e inline} (operations applied synchronously on
    the caller's domain — the deterministic mode used for differential
    testing and the default on one core) or {e spawned} on its own OCaml
    domain, fed through a bounded single-producer/single-consumer mailbox
    ({!Bbr_util.Spsc}); the router is the only producer.  The two ends
    wait differently: an idle shard parks on its inbox almost at once, so
    it holds no core, while the router, awaiting a reply it knows is
    coming, spins for a bounded budget before it parks too.  Telemetry is
    tagged with the shard id via {!Obs_log.set_shard}; a spawned domain
    has no metrics registry or tracer installed (both are domain-local)
    unless it installs its own. *)

(** Per-link snapshot returned by [Prepare] — the read phase of the
    router's two-phase multi-shard admission. *)
type prepared = {
  p_link : int;
  p_residual : float;  (** residual bandwidth on the link *)
  p_edf : Bbr_vtrs.Vtedf.t option;
      (** independent scheduler-state replica; [None] on rate-based links *)
}

type victim = { v_flow : Types.flow_id; v_request : Types.request }

(** The shard command vocabulary.  Each op yields exactly one {!reply}. *)
type op =
  | Admit of { flow : Types.flow_id; request : Types.request }
      (** full single-shard admission under a router-chosen id *)
  | Book_segment of Broker.booking
      (** commit phase of a multi-shard admission ({!Broker.book_segment}) *)
  | Prepare of int list  (** snapshot the named links (read-only) *)
  | Teardown of Types.flow_id  (** idempotent; no-op on shards without it *)
  | Set_link of { link_id : int; up : bool }  (** physical link record *)
  | Victims of int  (** flows riding the given link, ascending flow id *)
  | Dump  (** all flow records as [(flow, rate, delay, links)] *)
  | Audit_ok  (** {!Audit.check} is clean *)
  | Stop

type reply =
  | Done
  | Admitted of (Types.flow_id * Types.reservation, Types.reject_reason) result
  | Prepared of prepared list
  | Victims_are of victim list
  | Flows of (Types.flow_id * float * float * int list) list
  | Flag of bool

type t

val create : ?journal:Journal.t -> ?spawn:bool -> id:int -> Bbr_vtrs.Topology.t -> t
(** A shard over its own copy of [topology]; [id] tags its telemetry.
    [journal] is attached to the shard's broker (per-shard write-ahead
    log, group commit included).  [spawn] (default [false]) runs the
    shard on its own domain, behind 1024-slot command and reply rings. *)

val broker : t -> Broker.t
(** The shard's private broker.  Safe to touch directly only in inline
    mode, or after {!stop}. *)

val journal : t -> Journal.t option

val spawned : t -> bool

val send : t -> op -> unit
(** Dispatch an op.  Inline: executes now, queueing the reply.  Spawned:
    enqueues on the mailbox (blocking push when full).  Only one domain —
    the router's — may call this. *)

val recv : t -> reply
(** The next pending reply, in op order.  Spawned: spins briefly on the
    reply ring, then parks until the shard answers. *)

val rpc : t -> op -> reply
(** [send] then [recv]. *)

val stop : t -> unit
(** Stop and join the shard's domain (no-op inline).  The broker remains
    readable afterwards. *)
