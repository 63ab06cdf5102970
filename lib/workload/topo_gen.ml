module Topology = Bbr_vtrs.Topology
module Prng = Bbr_util.Prng

let chain ?(prefix = "n") ?(capacity = 1.5e6) ?(sched = Topology.Rate_based) ~hops () =
  if hops < 1 then invalid_arg "Topo_gen.chain: at least one hop";
  let t = Topology.create () in
  let name i = Printf.sprintf "%s%d" prefix i in
  for i = 0 to hops - 1 do
    ignore (Topology.add_link t ~src:(name i) ~dst:(name (i + 1)) ~capacity sched)
  done;
  (t, name 0, name hops)

let star ?(capacity = 1.5e6) ~leaves () =
  if leaves < 2 then invalid_arg "Topo_gen.star: at least two leaves";
  let t = Topology.create () in
  for i = 0 to leaves - 1 do
    let n = Printf.sprintf "N%d" i in
    ignore (Topology.add_link t ~src:n ~dst:"C" ~capacity Topology.Rate_based);
    ignore (Topology.add_link t ~src:"C" ~dst:n ~capacity Topology.Rate_based)
  done;
  t

let random prng ~nodes ~extra_links ?(delay_fraction = 0.3) ?(capacity_lo = 1e6)
    ?(capacity_hi = 1e7) () =
  if nodes < 2 then invalid_arg "Topo_gen.random: at least two nodes";
  let t = Topology.create () in
  let name i = Printf.sprintf "N%d" i in
  let sched () =
    if Prng.float prng < delay_fraction then Topology.Delay_based
    else Topology.Rate_based
  in
  let capacity () = Prng.float_range prng ~lo:capacity_lo ~hi:capacity_hi in
  let add_pair a b =
    if Topology.find_link t ~src:a ~dst:b = None then begin
      let c = capacity () and s = sched () in
      ignore (Topology.add_link t ~src:a ~dst:b ~capacity:c s);
      ignore (Topology.add_link t ~src:b ~dst:a ~capacity:c s)
    end
  in
  (* Random spanning tree: attach each new node to a random earlier one. *)
  for i = 1 to nodes - 1 do
    add_pair (name (Prng.int prng ~bound:i)) (name i)
  done;
  for _ = 1 to extra_links do
    let a = Prng.int prng ~bound:nodes and b = Prng.int prng ~bound:nodes in
    if a <> b then add_pair (name a) (name b)
  done;
  t

(* Preferential attachment (Barabási–Albert): node i attaches to [m]
   distinct earlier nodes, each chosen by picking a uniform slot in the
   endpoint multiset — a node's probability is proportional to its degree.
   O(nodes * m) time and memory, so 10k+-node ISP graphs are cheap. *)
let power_law prng ~nodes ?(m = 2) ?(delay_fraction = 0.2) ?(capacity_lo = 1e6)
    ?(capacity_hi = 1e7) () =
  if nodes < 2 then invalid_arg "Topo_gen.power_law: at least two nodes";
  if m < 1 then invalid_arg "Topo_gen.power_law: m must be >= 1";
  let t = Topology.create () in
  let name i = Printf.sprintf "N%d" i in
  let add_pair a b =
    let capacity = Prng.float_range prng ~lo:capacity_lo ~hi:capacity_hi in
    let sched =
      if Prng.float prng < delay_fraction then Topology.Delay_based
      else Topology.Rate_based
    in
    ignore (Topology.add_link t ~src:(name a) ~dst:(name b) ~capacity sched);
    ignore (Topology.add_link t ~src:(name b) ~dst:(name a) ~capacity sched)
  in
  (* Endpoint multiset: every undirected edge contributes both ends, so
     membership count = degree. *)
  let ends = ref (Array.make (4 * nodes * m) 0) in
  let n_ends = ref 0 in
  let push e =
    if !n_ends = Array.length !ends then begin
      let bigger = Array.make (2 * !n_ends) 0 in
      Array.blit !ends 0 bigger 0 !n_ends;
      ends := bigger
    end;
    !ends.(!n_ends) <- e;
    incr n_ends
  in
  add_pair 0 1;
  push 0;
  push 1;
  for i = 2 to nodes - 1 do
    let targets = ref [] in
    let wanted = min m i in
    (* Rejection-sample distinct targets; duplicates are rare while the
       graph is sparse, so the loop terminates fast. *)
    while List.length !targets < wanted do
      let candidate = !ends.(Prng.int prng ~bound:!n_ends) in
      if not (List.mem candidate !targets) then targets := candidate :: !targets
    done;
    List.iter
      (fun target ->
        add_pair i target;
        push i;
        push target)
      (List.rev !targets)
  done;
  t

let digest topology =
  (* Canonical rendering of everything a generator decides: node set in
     insertion order, every link's endpoints, capacity, scheduler class
     and error term.  Two topologies digest equal iff a broker sees the
     same domain in both. *)
  let buf = Buffer.create 4096 in
  List.iter (fun n -> Buffer.add_string buf n; Buffer.add_char buf ';')
    (Topology.nodes topology);
  List.iter
    (fun (l : Topology.link) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s>%s:%.17g:%.17g:%s:%.17g|" l.Topology.link_id
           l.Topology.src l.Topology.dst l.Topology.capacity
           l.Topology.prop_delay
           (match l.Topology.sched with
           | Topology.Rate_based -> "R"
           | Topology.Delay_based -> "D")
           l.Topology.psi))
    (Topology.links topology);
  Bbr_util.Crc32.to_hex (Bbr_util.Crc32.string (Buffer.contents buf))

let degrees topology =
  let tbl = Hashtbl.create 64 in
  let bump n = Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)) in
  List.iter (fun (l : Topology.link) -> bump l.Topology.src) (Topology.links topology);
  List.map
    (fun n -> (n, Option.value ~default:0 (Hashtbl.find_opt tbl n)))
    (Topology.nodes topology)

let hubs topology =
  List.map fst
    (List.stable_sort
       (fun (a, da) (b, db) ->
         match compare db da with 0 -> compare a b | c -> c)
       (degrees topology))

let leaves topology = List.rev (hubs topology)

let random_endpoints prng topology =
  let nodes = Array.of_list (Topology.nodes topology) in
  let a = Prng.int prng ~bound:(Array.length nodes) in
  let rec pick_b () =
    let b = Prng.int prng ~bound:(Array.length nodes) in
    if b = a then pick_b () else b
  in
  (nodes.(a), nodes.(pick_b ()))

(* ------------------------------------------------------------------ *)
(* Regional domains for the sharded broker.                           *)

let region_prefix r = Printf.sprintf "R%d_" r

let region_of_node name =
  if String.length name < 3 || name.[0] <> 'R' then None
  else
    match String.index_opt name '_' with
    | None -> None
    | Some i -> int_of_string_opt (String.sub name 1 (i - 1))

let regions prng ~regions:k ~nodes_per_region ?(extra_links = nodes_per_region)
    ?(delay_fraction = 0.3) ?(capacity_lo = 1e6) ?(capacity_hi = 1e7)
    ?(inter_capacity = 5e7) () =
  if k < 1 then invalid_arg "Topo_gen.regions: at least one region";
  if nodes_per_region < 2 then
    invalid_arg "Topo_gen.regions: at least two nodes per region";
  let t = Topology.create () in
  let name r i = Printf.sprintf "%sN%d" (region_prefix r) i in
  let sched () =
    if Prng.float prng < delay_fraction then Topology.Delay_based
    else Topology.Rate_based
  in
  let capacity () = Prng.float_range prng ~lo:capacity_lo ~hi:capacity_hi in
  for r = 0 to k - 1 do
    let add_pair a b =
      if Topology.find_link t ~src:a ~dst:b = None then begin
        let c = capacity () and s = sched () in
        ignore (Topology.add_link t ~src:a ~dst:b ~capacity:c s);
        ignore (Topology.add_link t ~src:b ~dst:a ~capacity:c s)
      end
    in
    (* Intra-region random spanning tree plus extras, as in {!random}. *)
    for i = 1 to nodes_per_region - 1 do
      add_pair (name r (Prng.int prng ~bound:i)) (name r i)
    done;
    for _ = 1 to extra_links do
      let a = Prng.int prng ~bound:nodes_per_region
      and b = Prng.int prng ~bound:nodes_per_region in
      if a <> b then add_pair (name r a) (name r b)
    done
  done;
  (* Inter-region ring through each region's hub node N0: the hub is the
     region's only gateway, so a simple path between two same-region
     nodes can never detour through another region (it would have to
     leave and re-enter through the same hub).  Rate-based and wide, so
     cross-region admission is bounded by the regional links.  Two
     regions close the ring with a single pair. *)
  if k > 1 then
    for r = 0 to (if k = 2 then 0 else k - 1) do
      let next = (r + 1) mod k in
      ignore
        (Topology.add_link t ~src:(name r 0) ~dst:(name next 0)
           ~capacity:inter_capacity Topology.Rate_based);
      ignore
        (Topology.add_link t ~src:(name next 0) ~dst:(name r 0)
           ~capacity:inter_capacity Topology.Rate_based)
    done;
  t
