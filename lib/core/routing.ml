module Topology = Bbr_vtrs.Topology

type t = {
  topology : Topology.t;
  path_mib : Path_mib.t;
  cache : (string * string, Path_mib.info option) Hashtbl.t;
  mutable seen_version : int;  (* topology state version the cache reflects *)
}

let create topology path_mib =
  {
    topology;
    path_mib;
    cache = Hashtbl.create 16;
    seen_version = Topology.state_version topology;
  }

(* Breadth-first search on dense node indices: minimum hop count over the
   links currently up; neighbours are explored in link insertion order, so
   the first path found is deterministic.  [parent.(v)] is the id of the
   link that first reached node [v]; the path is read back from the
   egress. *)
let bfs topology ~ingress ~egress =
  match (Topology.node_ix topology ingress, Topology.node_ix topology egress) with
  | exception Not_found -> None
  | src, dst when src = dst -> None
  | src, dst ->
      let n = Topology.num_nodes topology in
      let visited = Array.make n false in
      let parent = Array.make n (-1) in
      let queue = Array.make n src in
      visited.(src) <- true;
      let head = ref 0 and tail = ref 1 in
      while (not visited.(dst)) && !head < !tail do
        List.iter
          (fun (link : Topology.link) ->
            let next = link.Topology.dst_ix in
            if
              Topology.link_is_up topology ~link_id:link.Topology.link_id
              && not visited.(next)
            then begin
              visited.(next) <- true;
              parent.(next) <- link.Topology.link_id;
              queue.(!tail) <- next;
              incr tail
            end)
          (Topology.out_links_ix topology queue.(!head));
        incr head
      done;
      let rec back v acc =
        if v = src then acc
        else
          let link = Topology.link_by_id topology parent.(v) in
          back link.Topology.src_ix (link :: acc)
      in
      if visited.(dst) then Some (back dst []) else None

let shortest_path topology ~ingress ~egress = bfs topology ~ingress ~egress

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
        Option.map (Path_mib.register t.path_mib) (bfs t.topology ~ingress ~egress)
      in
      Hashtbl.replace t.cache (ingress, egress) selected;
      selected

