module Topology = Bbr_vtrs.Topology

type info = {
  path_id : int;
  links : Topology.link list;
  hops : int;
  rate_hops : int;
  delay_hops : int;
  d_tot : float;
}

(* Arena layout: path ids are dense (allocated 0,1,2,... and never freed —
   a registered path lives for the broker's lifetime), so [by_id] is a
   plain array indexed by path id.  Only the by-links lookup stays a
   Hashtbl — its key is a link-id sequence.  No per-path residual is
   stored: [residual] reads [C_res] from the node MIB on demand, so a
   reservation change costs nothing here however many paths cross the
   link. *)
type t = {
  node_mib : Node_mib.t;
  mutable by_id : info option array;  (* path_id -> info *)
  by_links : (int list, info) Hashtbl.t;
  mutable next_id : int;
}

let create node_mib =
  { node_mib; by_id = Array.make 16 None; by_links = Hashtbl.create 16; next_id = 0 }

let rec connected = function
  | [] | [ _ ] -> true
  | (a : Topology.link) :: (b :: _ as rest) ->
      a.Topology.dst = b.Topology.src && connected rest

let grow_paths t =
  let old = Array.length t.by_id in
  let infos = Array.make (2 * old) None in
  Array.blit t.by_id 0 infos 0 old;
  t.by_id <- infos

let register_links t links =
  let key = Topology.link_ids links in
  match Hashtbl.find_opt t.by_links key with
  | Some info -> info
  | None ->
      let info =
        {
          path_id = t.next_id;
          links;
          hops = Topology.hop_count links;
          rate_hops = Topology.rate_based_hops links;
          delay_hops = Topology.delay_based_hops links;
          d_tot = Topology.d_tot links;
        }
      in
      t.next_id <- t.next_id + 1;
      if info.path_id >= Array.length t.by_id then grow_paths t;
      t.by_id.(info.path_id) <- Some info;
      Hashtbl.replace t.by_links key info;
      info

let register t links =
  if links = [] then invalid_arg "Path_mib.register: empty path";
  if not (connected links) then invalid_arg "Path_mib.register: disconnected path";
  register_links t links

let register_segment t links =
  if links = [] then invalid_arg "Path_mib.register_segment: empty segment";
  register_links t links

let residual t info =
  if info.path_id < 0 || info.path_id >= t.next_id then
    invalid_arg "Path_mib.residual: unregistered path";
  Node_mib.min_residual t.node_mib info.links

let find t ~path_id =
  if path_id < 0 || path_id >= t.next_id then None else t.by_id.(path_id)

let find_links t ~links = Hashtbl.find_opt t.by_links links

let paths t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    match t.by_id.(id) with Some info -> acc := info :: !acc | None -> ()
  done;
  !acc
