type record = {
  flow : Types.flow_id;
  request : Types.request;
  reservation : Types.reservation;
  path : Path_mib.info;
  admitted_at : float;
}

type t = { records : (Types.flow_id, record) Hashtbl.t; mutable next_id : int }

let create () = { records = Hashtbl.create 64; next_id = 0 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let reserve_ids t ~below = if below > t.next_id then t.next_id <- below

let next_id t = t.next_id

let add t record =
  if Hashtbl.mem t.records record.flow then
    invalid_arg (Printf.sprintf "Flow_mib.add: duplicate flow id %d" record.flow);
  reserve_ids t ~below:(record.flow + 1);
  Hashtbl.replace t.records record.flow record

let find t flow = Hashtbl.find_opt t.records flow

let remove t flow =
  let found = Hashtbl.find_opt t.records flow in
  if found <> None then Hashtbl.remove t.records flow;
  found

let count t = Hashtbl.length t.records

let fold t ~init ~f = Hashtbl.fold (fun _ r acc -> f acc r) t.records init

let by_flow_id (a : record) (b : record) = compare a.flow b.flow

let rec uses link_id = function
  | [] -> false
  | (l : Bbr_vtrs.Topology.link) :: rest ->
      l.Bbr_vtrs.Topology.link_id = link_id || uses link_id rest

let crossing t ~link_id =
  fold t ~init:[] ~f:(fun acc r -> if uses link_id r.path.Path_mib.links then r :: acc else acc)
  |> List.sort by_flow_id

let total_reserved_rate t =
  fold t ~init:[] ~f:(fun acc r -> r :: acc)
  |> List.sort by_flow_id
  |> List.fold_left (fun acc r -> acc +. r.reservation.Types.rate) 0.
