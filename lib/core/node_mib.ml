module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf

(* {!Bbr_util.Fp.leq}, restated so that it inlines: under -opaque a call
   into another module boxes its float arguments.  Same formula, same
   tolerance. *)
let[@inline] tol a b =
  Bbr_util.Fp.default_eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let[@inline] leq a b = a <= b +. tol a b

type entry = { link : Topology.link; edf : Vtedf.t option }

(* The reserved bandwidth of every link sits in one [Float.Array] indexed
   by link id, so a reservation writes its double in place; a mutable
   float field of a per-link record would box on every store. *)
type t = {
  entries : entry array;
  reserved : Float.Array.t;
  mutable hooks : (link_id:int -> unit) list;
}

let create topology =
  let make (link : Topology.link) =
    let edf =
      match link.Topology.sched with
      | Topology.Delay_based -> Some (Vtedf.create ~capacity:link.Topology.capacity)
      | Topology.Rate_based -> None
    in
    { link; edf }
  in
  let entries = Array.of_list (List.map make (Topology.links topology)) in
  { entries; reserved = Float.Array.make (Array.length entries) 0.; hooks = [] }

let check t ~link_id =
  if link_id < 0 || link_id >= Array.length t.entries then
    invalid_arg (Printf.sprintf "Node_mib: unknown link id %d" link_id)

let entry t ~link_id =
  check t ~link_id;
  t.entries.(link_id)

let reserved t ~link_id =
  check t ~link_id;
  Float.Array.get t.reserved link_id

let[@inline] capacity t link_id = t.entries.(link_id).link.Topology.capacity

let residual t ~link_id =
  check t ~link_id;
  capacity t link_id -. Float.Array.get t.reserved link_id

let rec notify hooks ~link_id =
  match hooks with
  | [] -> ()
  | hook :: rest ->
      hook ~link_id;
      notify rest ~link_id

let reserve t ~link_id amount =
  if amount < 0. then invalid_arg "Node_mib.reserve: negative amount";
  check t ~link_id;
  let next = Float.Array.get t.reserved link_id +. amount in
  if not (leq next (capacity t link_id)) then
    invalid_arg
      (Printf.sprintf "Node_mib.reserve: link %d over capacity (%g > %g)" link_id next
         (capacity t link_id));
  Float.Array.set t.reserved link_id next;
  notify t.hooks ~link_id

let release t ~link_id amount =
  if amount < 0. then invalid_arg "Node_mib.release: negative amount";
  check t ~link_id;
  let held = Float.Array.get t.reserved link_id in
  if not (leq amount held) then
    invalid_arg
      (Printf.sprintf "Node_mib.release: link %d releasing %g of %g reserved" link_id
         amount held);
  Float.Array.set t.reserved link_id (Float.max 0. (held -. amount));
  notify t.hooks ~link_id

let rec reserve_links t (links : Topology.link list) amount =
  match links with
  | [] -> ()
  | l :: rest ->
      reserve t ~link_id:l.Topology.link_id amount;
      reserve_links t rest amount

let rec release_links t (links : Topology.link list) amount =
  match links with
  | [] -> ()
  | l :: rest ->
      release t ~link_id:l.Topology.link_id amount;
      release_links t rest amount

(* The fold [List.fold_left (fun acc l -> Float.min acc (residual l))
   infinity], with the accumulator in a local so it is never boxed. *)
let min_residual t links =
  let acc = ref infinity and rest = ref links in
  while
    match !rest with
    | [] -> false
    | (l : Topology.link) :: tl ->
        let link_id = l.Topology.link_id in
        check t ~link_id;
        acc := Float.min !acc (capacity t link_id -. Float.Array.get t.reserved link_id);
        rest := tl;
        true
  do
    ()
  done;
  !acc

let on_change t hook = t.hooks <- hook :: t.hooks
