module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf
module Fp = Bbr_util.Fp

type entry = { link : Topology.link; edf : Vtedf.t option }

type state = { entry : entry; mutable reserved : float }

type t = { states : state array; mutable hooks : (link_id:int -> unit) list }

let create topology =
  let make (link : Topology.link) =
    let edf =
      match link.Topology.sched with
      | Topology.Delay_based -> Some (Vtedf.create ~capacity:link.Topology.capacity)
      | Topology.Rate_based -> None
    in
    { entry = { link; edf }; reserved = 0. }
  in
  let links = Topology.links topology in
  { states = Array.of_list (List.map make links); hooks = [] }

let state t ~link_id =
  if link_id < 0 || link_id >= Array.length t.states then
    invalid_arg (Printf.sprintf "Node_mib: unknown link id %d" link_id);
  t.states.(link_id)

let entry t ~link_id = (state t ~link_id).entry

let reserved t ~link_id = (state t ~link_id).reserved

let residual t ~link_id =
  let s = state t ~link_id in
  s.entry.link.Topology.capacity -. s.reserved

let notify t ~link_id = List.iter (fun hook -> hook ~link_id) t.hooks

let reserve t ~link_id amount =
  if amount < 0. then invalid_arg "Node_mib.reserve: negative amount";
  let s = state t ~link_id in
  let next = s.reserved +. amount in
  if not (Fp.leq next s.entry.link.Topology.capacity) then
    invalid_arg
      (Printf.sprintf "Node_mib.reserve: link %d over capacity (%g > %g)" link_id
         next s.entry.link.Topology.capacity);
  s.reserved <- next;
  notify t ~link_id

let release t ~link_id amount =
  if amount < 0. then invalid_arg "Node_mib.release: negative amount";
  let s = state t ~link_id in
  if not (Fp.leq amount s.reserved) then
    invalid_arg
      (Printf.sprintf "Node_mib.release: link %d releasing %g of %g reserved" link_id
         amount s.reserved);
  s.reserved <- Float.max 0. (s.reserved -. amount);
  notify t ~link_id

let on_change t hook = t.hooks <- hook :: t.hooks
