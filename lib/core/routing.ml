module Topology = Bbr_vtrs.Topology

(* The arrays of a breadth-first search, kept from one search to the next
   so that a search allocates only the path it returns.  Node [v] is
   reached in the current search iff [seen.(v) = stamp]; [parent.(v)] is
   the id of the link that first reached it. *)
type scratch = {
  mutable seen : int array;
  mutable parent : int array;
  mutable queue : int array;
  mutable stamp : int;
}

let scratch () = { seen = [||]; parent = [||]; queue = [||]; stamp = 0 }

type t = {
  topology : Topology.t;
  path_mib : Path_mib.t;
  cache : (string * string, Path_mib.info option) Hashtbl.t;
  mutable seen_version : int;  (* topology state version the cache reflects *)
  search : scratch;
}

let create topology path_mib =
  {
    topology;
    path_mib;
    cache = Hashtbl.create 16;
    seen_version = Topology.state_version topology;
    search = scratch ();
  }

(* Appends the unreached far ends of the [links] that are up to the queue
   at [tail]; returns the new tail. *)
let rec enqueue topology s links tail =
  match links with
  | [] -> tail
  | (link : Topology.link) :: rest ->
      let next = link.Topology.dst_ix in
      if
        Topology.link_is_up topology ~link_id:link.Topology.link_id
        && s.seen.(next) <> s.stamp
      then begin
        s.seen.(next) <- s.stamp;
        s.parent.(next) <- link.Topology.link_id;
        s.queue.(tail) <- next;
        enqueue topology s rest (tail + 1)
      end
      else enqueue topology s rest tail

(* Breadth-first search on dense node indices: minimum hop count over the
   links currently up; neighbours are explored in link insertion order, so
   the first path found is deterministic.  The path is read back from the
   egress through [parent]. *)
let bfs s topology ~ingress ~egress =
  match (Topology.node_ix topology ingress, Topology.node_ix topology egress) with
  | exception Not_found -> None
  | src, dst when src = dst -> None
  | src, dst ->
      let n = Topology.num_nodes topology in
      if Array.length s.seen < n then begin
        s.seen <- Array.make n 0;
        s.parent <- Array.make n (-1);
        s.queue <- Array.make n 0
      end;
      s.stamp <- s.stamp + 1;
      s.seen.(src) <- s.stamp;
      s.queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while s.seen.(dst) <> s.stamp && !head < !tail do
        tail := enqueue topology s (Topology.out_links_ix topology s.queue.(!head)) !tail;
        incr head
      done;
      let rec back v acc =
        if v = src then acc
        else
          let link = Topology.link_by_id topology s.parent.(v) in
          back link.Topology.src_ix (link :: acc)
      in
      if s.seen.(dst) = s.stamp then Some (back dst []) else None

let shortest_path topology ~ingress ~egress = bfs (scratch ()) topology ~ingress ~egress

let path t ~ingress ~egress =
  (* Link up/down transitions invalidate every memoized selection: routes
     must steer around failed links and may return after repairs. *)
  let version = Topology.state_version t.topology in
  if version <> t.seen_version then begin
    Hashtbl.reset t.cache;
    t.seen_version <- version
  end;
  match Hashtbl.find_opt t.cache (ingress, egress) with
  | Some cached -> cached
  | None ->
      let selected =
        Option.map (Path_mib.register t.path_mib) (bfs t.search t.topology ~ingress ~egress)
      in
      Hashtbl.replace t.cache (ingress, egress) selected;
      selected

