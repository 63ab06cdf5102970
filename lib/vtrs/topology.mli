(** Network-domain topology: the QoS abstraction of the data plane that the
    bandwidth broker's routing and admission modules operate on.

    A domain is a directed graph of routers; each directed link carries the
    static QoS parameters the VTRS needs: capacity, propagation delay, the
    class of scheduler serving the link (rate-based or delay-based, paper
    Section 2.1) and the scheduler's error term [psi].  Core routers keep no
    QoS state — everything here is static configuration known to the
    broker. *)

type sched_class =
  | Rate_based  (** e.g. core-stateless virtual clock (C̄S-VC), VC, WFQ *)
  | Delay_based  (** e.g. VT-EDF, RC-EDF *)

type link = {
  link_id : int;  (** dense index, unique within the domain *)
  src : string;  (** upstream router name *)
  dst : string;  (** downstream router name *)
  src_ix : int;  (** {!node_ix} of [src] *)
  dst_ix : int;  (** {!node_ix} of [dst] *)
  capacity : float;  (** bits/s *)
  prop_delay : float;  (** propagation delay to the next hop, seconds *)
  sched : sched_class;
  psi : float;  (** scheduler error term [psi] (seconds), paper eq. (1) *)
}

type t
(** A domain: a set of named routers and directed links. *)

val create : unit -> t

val add_link :
  t ->
  src:string ->
  dst:string ->
  capacity:float ->
  ?prop_delay:float ->
  ?psi:float ->
  sched_class ->
  link
(** Adds a directed link.  Both endpoints are added as nodes if missing.
    [prop_delay] defaults to 0.  [psi] defaults to the minimum error term of
    the core-stateless schedulers, [lmax_link / capacity], with
    [lmax_link = 12000] bits (a 1500-byte MTU) — the value used throughout
    the paper's simulations; pass [~psi] to override.  Raises
    [Invalid_argument] if a link [src -> dst] already exists or if
    [capacity <= 0]. *)

val mtu_bits : float
(** Largest packet size permissible in the domain, [L^{P,max}]: 1500 bytes =
    12000 bits, as in the paper's simulations. *)

val nodes : t -> string list
(** All router names, in insertion order. *)

val links : t -> link list
(** All links, in insertion order (= increasing [link_id]). *)

val num_links : t -> int

val link_by_id : t -> int -> link
(** Raises [Not_found] for an unknown id. *)

val find_link : t -> src:string -> dst:string -> link option

val out_links : t -> string -> link list
(** Links leaving the given router, in insertion order (including links
    currently marked down — the physical topology does not shrink).  A
    lookup in a per-node adjacency index; [[]] for an unknown router. *)

(** {1 Dense node indices}

    Routers are numbered [0 .. num_nodes - 1] in insertion order, so path
    searches can keep per-node state in arrays. *)

val num_nodes : t -> int

val node_ix : t -> string -> int
(** Raises [Not_found] for an unknown router. *)

val out_links_ix : t -> int -> link list
(** {!out_links} by node index. *)

val copy : t -> t
(** A structurally independent replica: same nodes and links in the same
    insertion order (so link ids coincide), same up/down state, no shared
    mutable cells.  Broker shards running on separate domains each take a
    copy so topology state is never shared across domains. *)

(** {1 Link failure state}

    Links carry an up/down flag so the control plane can model data-plane
    failures: a down link keeps its configuration (capacity, scheduler,
    error term) but must not be used for new path selection.  Reservation
    bookkeeping is the broker's concern — marking a link down here does not
    touch any MIB. *)

val set_link_state : t -> link_id:int -> up:bool -> unit
(** Mark a link down (failed) or back up.  Idempotent per state; raises
    [Invalid_argument] for an unknown link id. *)

val link_is_up : t -> link_id:int -> bool
(** Links start up; [false] after [set_link_state ~up:false]. *)

val state_version : t -> int
(** A counter bumped on every added link and every up/down transition —
    lets path caches detect staleness without subscribing to events. *)

(** {1 Path-level quantities}

    A path is a list of links, each link's [dst] matching the next link's
    [src]. *)

val is_path : t -> link list -> bool

val link_ids : link list -> int list
(** The links' ids, in path order — the form journals, snapshots and
    shard messages name a path by. *)

val hop_count : link list -> int
(** [h]: number of schedulers along the path. *)

val rate_based_hops : link list -> int
(** [q]: number of rate-based schedulers along the path. *)

val delay_based_hops : link list -> int
(** [h - q]. *)

val d_tot : link list -> float
(** [D_tot = sum_i (psi_i + pi_i)] over the path (paper eq. (4)). *)
