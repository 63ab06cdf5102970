type sched_class = Rate_based | Delay_based

type link = {
  link_id : int;
  src : string;
  dst : string;
  src_ix : int;
  dst_ix : int;
  capacity : float;
  prop_delay : float;
  sched : sched_class;
  psi : float;
}

(* Router names to indices, compared with [String.equal]: a lookup in a
   polymorphic [Hashtbl] spends about half its time in [compare]. *)
module Names = Hashtbl.Make (String)

type t = {
  mutable node_order : string list;  (* reversed insertion order *)
  node_ix : int Names.t;  (* name -> dense index, insertion order *)
  mutable out : link list array;  (* node index -> out-links, insertion order *)
  mutable link_order : link list;  (* reversed insertion order *)
  mutable by_id : link option array;  (* dense: index = link_id *)
  by_endpoints : (string * string, link) Hashtbl.t;
  mutable next_id : int;
  mutable down : bool array;  (* link_id -> currently failed; sized as by_id *)
  mutable state_version : int;  (* bumped on every added link and up/down transition *)
}

let create () =
  {
    node_order = [];
    node_ix = Names.create 16;
    out = Array.make 8 [];
    link_order = [];
    by_id = Array.make 8 None;
    by_endpoints = Hashtbl.create 16;
    next_id = 0;
    down = Array.make 8 false;
    state_version = 0;
  }

(* Doubles a dense table, new cells set to [fill]. *)
let grow a fill =
  let g = Array.make (2 * Array.length a) fill in
  Array.blit a 0 g 0 (Array.length a);
  g

let mem_node t name = Names.mem t.node_ix name

let num_nodes t = Names.length t.node_ix

let node_ix t name = Names.find t.node_ix name

let add_node t name =
  if not (mem_node t name) then begin
    let ix = num_nodes t in
    Names.replace t.node_ix name ix;
    t.node_order <- name :: t.node_order;
    if ix >= Array.length t.out then t.out <- grow t.out []
  end

let mtu_bits = 12000.

let add_link t ~src ~dst ~capacity ?(prop_delay = 0.) ?psi sched =
  if capacity <= 0. then invalid_arg "Topology.add_link: capacity must be positive";
  if Hashtbl.mem t.by_endpoints (src, dst) then
    invalid_arg (Printf.sprintf "Topology.add_link: duplicate link %s -> %s" src dst);
  add_node t src;
  add_node t dst;
  let psi = match psi with Some p -> p | None -> mtu_bits /. capacity in
  let src_ix = node_ix t src and dst_ix = node_ix t dst in
  let link =
    { link_id = t.next_id; src; dst; src_ix; dst_ix; capacity; prop_delay; sched; psi }
  in
  t.next_id <- t.next_id + 1;
  t.link_order <- link :: t.link_order;
  t.out.(src_ix) <- t.out.(src_ix) @ [ link ];
  if link.link_id >= Array.length t.by_id then begin
    t.by_id <- grow t.by_id None;
    t.down <- grow t.down false
  end;
  t.by_id.(link.link_id) <- Some link;
  Hashtbl.replace t.by_endpoints (src, dst) link;
  t.state_version <- t.state_version + 1;
  link

let nodes t = List.rev t.node_order

let links t = List.rev t.link_order

let num_links t = t.next_id

let link_by_id t id =
  if id < 0 || id >= t.next_id then raise Not_found
  else match t.by_id.(id) with Some l -> l | None -> raise Not_found

let find_link t ~src ~dst = Hashtbl.find_opt t.by_endpoints (src, dst)

let out_links_ix t ix = t.out.(ix)

let out_links t name =
  match Names.find_opt t.node_ix name with Some ix -> t.out.(ix) | None -> []

let link_is_up t ~link_id = not (link_id >= 0 && link_id < t.next_id && t.down.(link_id))

let set_link_state t ~link_id ~up =
  if link_id < 0 || link_id >= t.next_id then
    invalid_arg (Printf.sprintf "Topology.set_link_state: unknown link id %d" link_id);
  let is_up = link_is_up t ~link_id in
  if is_up <> up then begin
    t.down.(link_id) <- not up;
    t.state_version <- t.state_version + 1
  end

let down_links t = List.filter (fun l -> not (link_is_up t ~link_id:l.link_id)) (links t)

let state_version t = t.state_version

let rec is_path_links = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a.dst = b.src && is_path_links rest

let is_path t = function
  | [] -> false
  | l :: _ as path -> mem_node t l.src && is_path_links path

let link_ids path = List.map (fun l -> l.link_id) path

let hop_count path = List.length path

let rate_based_hops path =
  List.length (List.filter (fun l -> l.sched = Rate_based) path)

let delay_based_hops path =
  List.length (List.filter (fun l -> l.sched = Delay_based) path)

let d_tot path =
  List.fold_left (fun acc l -> acc +. l.psi +. l.prop_delay) 0. path

(* A structurally independent replica: same nodes, same links (same ids,
   since ids follow insertion order), same up/down state.  Each broker
   shard works on its own copy so no mutable topology state is ever
   shared across domains. *)
let copy t =
  let c = create () in
  List.iter (add_node c) (nodes t);
  List.iter
    (fun l ->
      ignore
        (add_link c ~src:l.src ~dst:l.dst ~capacity:l.capacity
           ~prop_delay:l.prop_delay ~psi:l.psi l.sched))
    (links t);
  List.iter (fun l -> set_link_state c ~link_id:l.link_id ~up:false) (down_links t);
  c
