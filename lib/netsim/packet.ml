type t = {
  flow : int;
  seq : int;
  size : float;
  born : float;
  path : Bbr_vtrs.Topology.link array;
  mutable hop_ix : int;
  mutable edge_exit : float;
  mutable state : Bbr_vtrs.Packet_state.t option;
}

let make ~flow ~seq ~size ~born ~path =
  { flow; seq; size; born; path; hop_ix = 0; edge_exit = nan; state = None }

let current_link t =
  if t.hop_ix >= Array.length t.path then
    invalid_arg "Packet.current_link: past the last hop";
  t.path.(t.hop_ix)


let pp ppf t =
  Fmt.pf ppf "pkt(flow=%d seq=%d size=%g hop=%d/%d)" t.flow t.seq t.size t.hop_ix
    (Array.length t.path)
