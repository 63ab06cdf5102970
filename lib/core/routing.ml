module Topology = Bbr_vtrs.Topology

(* One ingress's breadth-first tree, searched at topology state [version]
   (-1: not yet), and its memoized routes, valid for that state only.
   [parent.(v)] is the id of the link that first reached node [v], -1 for
   the ingress and unreached nodes; [row.(v)] is the registered route to
   [v] once asked for. *)
type tree = {
  mutable version : int;
  mutable parent : int array;
  mutable row : route array;
}

and route = Unasked | Asked of Path_mib.info option

type t = {
  topology : Topology.t;
  path_mib : Path_mib.t;
  mutable trees : tree array;  (* by ingress node index *)
  mutable queue : int array;  (* search scratch, one slot per node *)
}

let create topology path_mib = { topology; path_mib; trees = [||]; queue = [||] }

(* Appends the unreached far ends of the [links] that are up to the queue
   at [tail]; returns the new tail. *)
let rec enqueue topology parent src queue links tail =
  match links with
  | [] -> tail
  | (link : Topology.link) :: rest ->
      let next = link.Topology.dst_ix in
      if
        Topology.link_is_up topology ~link_id:link.Topology.link_id
        && next <> src
        && parent.(next) < 0
      then begin
        parent.(next) <- link.Topology.link_id;
        queue.(tail) <- next;
        enqueue topology parent src queue rest (tail + 1)
      end
      else enqueue topology parent src queue rest tail

(* Breadth-first search from [src] to completion over the links currently
   up, filling [parent]: minimum hop count, neighbours explored in link
   insertion order, so every node's first path is deterministic.  A
   search that stopped on reaching one egress would have set the same
   parents for every node it reached. *)
let search topology ~queue ~parent src =
  Array.fill parent 0 (Array.length parent) (-1);
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    tail := enqueue topology parent src queue (Topology.out_links_ix topology queue.(!head)) !tail;
    incr head
  done

(* The path to [dst], read back from it through [parent]. *)
let path_to topology parent src dst =
  let rec back v acc =
    if v = src then acc
    else
      let link = Topology.link_by_id topology parent.(v) in
      back link.Topology.src_ix (link :: acc)
  in
  if parent.(dst) < 0 then None else Some (back dst [])

let shortest_path topology ~ingress ~egress =
  match (Topology.node_ix topology ingress, Topology.node_ix topology egress) with
  | exception Not_found -> None
  | src, dst when src = dst -> None
  | src, dst ->
      let n = Topology.num_nodes topology in
      let parent = Array.make n (-1) in
      search topology ~queue:(Array.make n 0) ~parent src;
      path_to topology parent src dst

(* [src]'s tree, searched again when the topology's state moved since. *)
let tree t src =
  let topology = t.topology in
  let n = Topology.num_nodes topology in
  if Array.length t.trees < n then begin
    t.trees <-
      Array.init n (fun i ->
          if i < Array.length t.trees then t.trees.(i)
          else { version = -1; parent = [||]; row = [||] });
    t.queue <- Array.make n 0
  end;
  let tr = t.trees.(src) in
  let version = Topology.state_version topology in
  if tr.version <> version then begin
    if Array.length tr.parent < n then begin
      tr.parent <- Array.make n (-1);
      tr.row <- Array.make n Unasked
    end
    else Array.fill tr.row 0 n Unasked;
    search topology ~queue:t.queue ~parent:tr.parent src;
    tr.version <- version
  end;
  tr

let path t ~ingress ~egress =
  match (Topology.node_ix t.topology ingress, Topology.node_ix t.topology egress) with
  | exception Not_found -> None
  | src, dst when src = dst -> None
  | src, dst -> (
      let tr = tree t src in
      match tr.row.(dst) with
      | Asked route -> route
      | Unasked ->
          let route =
            Option.map (Path_mib.register t.path_mib) (path_to t.topology tr.parent src dst)
          in
          tr.row.(dst) <- Asked route;
          route)
