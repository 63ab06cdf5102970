type flow_stats = {
  received : int;
  max_e2e : float;
  sum_e2e : float;
  max_core : float;
  max_edge : float;
}

type t = { engine : Engine.t; table : (int, flow_stats) Hashtbl.t; mutable total : int }

let create engine = { engine; table = Hashtbl.create 16; total = 0 }

let empty_stats =
  {
    received = 0;
    max_e2e = neg_infinity;
    sum_e2e = 0.;
    max_core = neg_infinity;
    max_edge = neg_infinity;
  }

let receive t pkt =
  let now = Engine.now t.engine in
  let prev =
    match Hashtbl.find_opt t.table pkt.Packet.flow with
    | Some s -> s
    | None -> empty_stats
  in
  let e2e = now -. pkt.Packet.born in
  let core, edge =
    if Float.is_nan pkt.Packet.edge_exit then (neg_infinity, neg_infinity)
    else (now -. pkt.Packet.edge_exit, pkt.Packet.edge_exit -. pkt.Packet.born)
  in
  Hashtbl.replace t.table pkt.Packet.flow
    {
      received = prev.received + 1;
      max_e2e = Float.max prev.max_e2e e2e;
      sum_e2e = prev.sum_e2e +. e2e;
      max_core = Float.max prev.max_core core;
      max_edge = Float.max prev.max_edge edge;
    };
  t.total <- t.total + 1

let stats t ~flow = Hashtbl.find_opt t.table flow

let flows t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

let total_received t = t.total

