(** Polymorphic binary min-heap.

    The discrete-event engine and the schedulers both need a priority queue
    with O(log n) insert / extract-min; the standard library offers none.
    Ordering is supplied at creation time and ties are broken by insertion
    order, which the simulator relies on for determinism. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> 'a t
(** [create ~leq] makes an empty heap ordered by [leq] (a total preorder:
    [leq a b] means [a] has priority at least as high as [b]).  Elements
    comparing equal are dequeued in insertion order. *)

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Highest-priority element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the highest-priority element. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** All elements in unspecified order (for inspection in tests). *)
