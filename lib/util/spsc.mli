(** Bounded single-producer/single-consumer channel.

    The mailbox primitive of the sharded broker: the router domain is the
    only producer and the owning shard domain the only consumer, so no
    locks are needed — two atomic indices over a fixed ring.  FIFO,
    bounded, and allocation-free per message beyond the [Some] box.

    The single-producer/single-consumer contract is the caller's
    responsibility: concurrent pushes (or concurrent pops) from two
    domains race and corrupt the ring.

    The blocking {!push} and {!pop} spin a few rounds and then park the
    calling domain on a condition variable until the peer's next
    {!try_pop} or {!try_push} wakes it.  The non-blocking calls take the
    ring's mutex only when the peer is parked. *)

type 'a t

val create : capacity:int -> 'a t
(** Ring of at least [capacity] slots (rounded up to a power of two).
    Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Messages currently queued (producer-tail minus consumer-head). *)

val is_empty : 'a t -> bool

val try_push : 'a t -> 'a -> bool
(** [false] when the ring is full. *)

val push : 'a t -> 'a -> unit
(** Blocking {!try_push}: spins briefly, then parks until the consumer
    frees a slot — a parked domain holds no core, so this is safe on a
    host with fewer cores than domains. *)

val try_pop : 'a t -> 'a option

val pop : 'a t -> 'a
(** Blocking {!try_pop}: spins briefly, then parks until the producer
    publishes a message. *)
