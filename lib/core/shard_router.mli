(** The sharded multi-core broker (ROADMAP item 1).

    The domain's links are partitioned across [N] {!Shard}s by a
    node-level partition function (owner of a link = shard of its source
    router); each shard is a complete single-threaded broker over a
    private topology copy, optionally on its own OCaml domain.  This
    router is the single front end: it routes each request on its own
    topology replica (routing is load-independent, so every replica
    agrees), then

    - dispatches a {e single-shard} path — every link owned by one shard —
      to that shard as one mailbox op: the entire admission (policy,
      routing, Section-3 admissibility, booking, journaling) runs there
      with no cross-shard synchronization; or
    - runs a {e multi-shard} path through a lightweight two-phase
      admission: every involved shard snapshots its links (residuals and
      {!Bbr_vtrs.Vtedf.copy} replicas), the router assembles the exact
      {!Admission.path_state} a single broker would see, decides, and on
      admit each shard books its segment verbatim
      ({!Broker.book_segment}).  No abort leg is needed: the router is the
      sole producer of every shard mailbox and sends nothing else to the
      involved shards between the phases, so snapshots cannot go stale.

    Every sharded run goes through {!request} and {!teardown}: flow ids
    are allocated centrally and consumed only on admission, and the router
    waits for each reply before its next operation, so a run, inline or
    spawned, reproduces a single broker's id sequence — and, because every
    reservation on a link executes on its owner in the same global order,
    its MIB digests, bit for bit ({!mib_digest} vs {!Audit.mib_digest}).
    Spawned shards overlap only inside one operation (a two-phase
    snapshot, a broadcast); parallelism across requests would have to
    come from batching them.

    Scope: per-flow guaranteed service only (no class-based aggregation)
    under the default allow-all policy; recovery is per-shard journal
    replay from genesis (no snapshot checkpoints of segment records). *)

type t

val create :
  ?spawn:bool ->
  ?journal_for:(int -> Journal.t option) ->
  ?on_edge_config:(flow:Types.flow_id -> Types.reservation -> unit) ->
  shards:int ->
  partition:(string -> int) ->
  Bbr_vtrs.Topology.t ->
  t
(** [create ~shards:n ~partition topology] builds [n] shards, each over
    its own {!Bbr_vtrs.Topology.copy}.  [partition] maps a router name to
    a shard index in [\[0, n)]; a link is owned by [partition link.src].
    [spawn] (default [false]) runs each shard on its own domain.
    [journal_for i] supplies shard [i]'s write-ahead journal (attached to
    its private broker; group commit applies per shard).  [on_edge_config]
    receives every admitted reservation, as with {!Broker.create}.
    Raises [Invalid_argument] when [partition] leaves the range. *)

val request :
  t ->
  Types.request ->
  (Types.flow_id * Types.reservation, Types.reject_reason) result
(** Synchronous sharded admission (see module doc).  Decision-identical
    to {!Broker.request} on a single broker fed the same sequence. *)

val teardown : t -> Types.flow_id -> unit
(** Tear the flow down on its owning shards only — the one shard of a
    single-shard flow, or every shard holding a segment of a multi-shard
    one — as recorded when it was admitted.  A no-op, sending nothing,
    for an unknown or already-torn flow. *)

type recovery = {
  link_id : int;
  rerouted : Types.flow_id list;
  dropped : Types.flow_id list;
}

val fail_link : t -> link_id:int -> recovery
(** Stop-the-world replica of {!Broker.fail_link} for per-flow service:
    the link goes down on the router and every shard (each journals the
    physical record), victims are collected from the owner shard, torn
    down on their owners in ascending flow-id order, then re-admitted over
    the surviving topology in the same order under their pinned ids. *)

val restore_link : t -> link_id:int -> unit

val set_link : t -> link_id:int -> up:bool -> unit
(** The physical transition alone (both directions), no cascade. *)

val flows : t -> (Types.flow_id * float * float * int list) list
(** The merged per-flow population: [(flow, rate, delay, path links)]
    with multi-shard segments stitched back into whole paths (unique for
    the simple paths min-hop routing produces).  Unordered. *)

val mib_digest : t -> string
(** {!Audit.digest_of_perflow} over {!flows} — byte-comparable with
    {!Audit.mib_digest} of a single broker fed the same sequence. *)

val audits_clean : t -> bool
(** {!Audit.check} is clean on every shard. *)

val shard : t -> int -> Shard.t

val owner_of_link : t -> link_id:int -> int

val stop : t -> unit
(** Stop and join every spawned shard domain (no-op inline). *)
