(* Bounded single-producer/single-consumer ring.

   The shard mailboxes need exactly one producer (the router domain) and
   one consumer (the shard domain), so the classic two-index ring is
   enough: [head] is advanced only by the consumer, [tail] only by the
   producer, and each side reads the other's index through an [Atomic].
   Publishing order: the producer writes the cell, then advances [tail];
   under the OCaml 5 memory model the atomic store releases the plain
   cell write, so the consumer that observes the new [tail] also
   observes the cell.  The cell is cleared on pop so the ring never
   keeps the last [capacity] messages alive.

   Blocking.  A side that cannot proceed spins a few rounds, then parks
   on its condition variable: under the mutex it raises its
   [parked] flag, re-checks the ring and waits.  The peer's [try_push]
   or [try_pop] publishes its index first and only then reads that flag,
   taking the mutex to signal only when it is set.  Both orders are
   sequentially consistent atomics (a Dekker handshake): either the
   parker's re-check sees the new index, or the publisher sees the flag
   and its signal lands once the parker is waiting (it holds the mutex
   from the flag to the wait).  So no wake-up is lost, and the fast path
   takes no lock while the peer is awake.  A parked domain leaves its
   core to the others, which matters when domains outnumber cores. *)

type 'a t = {
  buf : 'a option array;
  mask : int;
  head : int Atomic.t;  (* next slot to pop; advanced by the consumer *)
  tail : int Atomic.t;  (* next slot to push; advanced by the producer *)
  lock : Mutex.t;
  nonempty : Condition.t;  (* the parked consumer waits here *)
  nonfull : Condition.t;  (* the parked producer waits here *)
  consumer_parked : bool Atomic.t;
  producer_parked : bool Atomic.t;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ~capacity =
  if capacity < 1 then invalid_arg "Spsc.create: capacity must be >= 1";
  let cap = pow2 capacity 1 in
  {
    buf = Array.make cap None;
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    consumer_parked = Atomic.make false;
    producer_parked = Atomic.make false;
  }

let capacity t = t.mask + 1

let length t = Atomic.get t.tail - Atomic.get t.head

let is_empty t = length t = 0

let is_full t = Atomic.get t.tail - Atomic.get t.head > t.mask

let signal t cond =
  Mutex.lock t.lock;
  Condition.signal cond;
  Mutex.unlock t.lock

let try_push t v =
  let tail = Atomic.get t.tail in
  if tail - Atomic.get t.head > t.mask then false
  else begin
    t.buf.(tail land t.mask) <- Some v;
    Atomic.set t.tail (tail + 1);
    if Atomic.get t.consumer_parked then signal t t.nonempty;
    true
  end

let try_pop t =
  let head = Atomic.get t.head in
  if Atomic.get t.tail = head then None
  else begin
    let slot = head land t.mask in
    let v = t.buf.(slot) in
    t.buf.(slot) <- None;
    Atomic.set t.head (head + 1);
    if Atomic.get t.producer_parked then signal t t.nonfull;
    v
  end

(* Rounds of [Domain.cpu_relax] before a blocked side parks: enough to
   catch a peer that is mid-publish, too few to hold a shared core. *)
let spins = 64

let park_producer t =
  Mutex.lock t.lock;
  Atomic.set t.producer_parked true;
  while is_full t do
    Condition.wait t.nonfull t.lock
  done;
  Atomic.set t.producer_parked false;
  Mutex.unlock t.lock

let park_consumer t =
  Mutex.lock t.lock;
  Atomic.set t.consumer_parked true;
  while is_empty t do
    Condition.wait t.nonempty t.lock
  done;
  Atomic.set t.consumer_parked false;
  Mutex.unlock t.lock

let rec push_from t v n =
  if try_push t v then ()
  else if n < spins then begin
    Domain.cpu_relax ();
    push_from t v (n + 1)
  end
  else begin
    park_producer t;
    push_from t v 0
  end

let push t v = push_from t v 0

let rec pop_from t n =
  match try_pop t with
  | Some v -> v
  | None when n < spins ->
      Domain.cpu_relax ();
      pop_from t (n + 1)
  | None ->
      park_consumer t;
      pop_from t 0

let pop t = pop_from t 0
