module Topology = Bbr_vtrs.Topology

type t = {
  topology : Topology.t;  (* router-private copy *)
  owner : int array;  (* link_id -> owning shard *)
  shards : Shard.t array;
  path_mib : Path_mib.t;  (* router-side path registry (routing only) *)
  routing : Routing.t;
  policy : Policy.t;
  owners : (Types.flow_id, int list) Hashtbl.t;
      (* live flow -> the shards holding its bookings *)
  mutable next_flow : int;
  on_edge_config : flow:Types.flow_id -> Types.reservation -> unit;
}

let create ?(spawn = false) ?(journal_for = fun _ -> None)
    ?(on_edge_config = fun ~flow:_ _ -> ()) ~shards:n ~partition topology =
  if n < 1 then invalid_arg "Shard_router.create: need at least one shard";
  let topo = Topology.copy topology in
  let owner = Array.make (max 1 (Topology.num_links topo)) 0 in
  List.iter
    (fun (l : Topology.link) ->
      let s = partition l.Topology.src in
      if s < 0 || s >= n then
        invalid_arg
          (Printf.sprintf "Shard_router.create: partition(%s) = %d out of range"
             l.Topology.src s);
      owner.(l.Topology.link_id) <- s)
    (Topology.links topo);
  (* The router's own node MIB never holds reservations — it only feeds
     the path MIB / routing constructors.  All booking state lives on the
     shards. *)
  let node_mib = Node_mib.create topo in
  let path_mib = Path_mib.create node_mib in
  let routing = Routing.create topo path_mib in
  let shards =
    Array.init n (fun i ->
        Shard.create ?journal:(journal_for i) ~spawn ~id:i topology)
  in
  {
    topology = topo;
    owner;
    shards;
    path_mib;
    routing;
    policy = Policy.create ();
    owners = Hashtbl.create 256;
    next_flow = 0;
    on_edge_config;
  }

let shard t i = t.shards.(i)

let owner_of_link t ~link_id = t.owner.(link_id)

(* Group a path's links by owning shard, preserving path order inside each
   group and first-touch order across groups.  A path that alternates
   owners yields non-contiguous groups — booked as segments. *)
let links_by_shard t (info : Path_mib.info) =
  let groups = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun (l : Topology.link) ->
      let s = t.owner.(l.Topology.link_id) in
      (match Hashtbl.find_opt groups s with
      | Some r -> r := l :: !r
      | None ->
          Hashtbl.add groups s (ref [ l ]);
          order := s :: !order))
    info.Path_mib.links;
  List.rev_map (fun s -> (s, List.rev !(Hashtbl.find groups s))) !order

(* Multi-shard admission, two phases.  Phase 1 (read): every involved
   shard snapshots its links of the path — residuals plus independent
   VT-EDF replicas.  The router assembles the exact {!Admission.path_state}
   a single broker would see and runs the uncached Section-3.2 decision
   (decision-identical to the cached fast path, which is digest-neutral).
   Phase 2 (commit): each shard books its segment verbatim.  No abort leg
   is needed for consistency: the router is the only producer of every
   involved shard's mailbox and dispatches nothing else to them between
   the two phases, so the snapshots cannot go stale. *)
let two_phase t ~flow (req : Types.request) (info : Path_mib.info) groups =
  List.iter
    (fun (s, links) -> Shard.send t.shards.(s) (Shard.Prepare (Topology.link_ids links)))
    groups;
  let prepared = Hashtbl.create 8 in
  List.iter
    (fun (s, _) ->
      match Shard.recv t.shards.(s) with
      | Shard.Prepared ps ->
          List.iter (fun (p : Shard.prepared) -> Hashtbl.replace prepared p.Shard.p_link p) ps
      | _ -> assert false)
    groups;
  let snap (l : Topology.link) : Shard.prepared =
    Hashtbl.find prepared l.Topology.link_id
  in
  let ps =
    Admission.path_state_of info
      ~cres:
        (List.fold_left
           (fun acc l -> Float.min acc (snap l).Shard.p_residual)
           infinity info.Path_mib.links)
      ~edf:(List.filter_map (fun l -> (snap l).Shard.p_edf) info.Path_mib.links)
  in
  match Admission.admit ps req.Types.profile ~dreq:req.Types.dreq with
  | Error e -> Error e
  | Ok res ->
      List.iter
        (fun (s, links) ->
          Shard.send t.shards.(s)
            (Shard.Book_segment
               {
                 Broker.flow;
                 request = req;
                 links = Topology.link_ids links;
                 rate = res.Types.rate;
                 delay = res.Types.delay;
               }))
        groups;
      List.iter
        (fun (s, _) ->
          match Shard.recv t.shards.(s) with
          | Shard.Done -> ()
          | _ -> assert false)
        groups;
      Ok (flow, res)

(* The full pipeline under a pinned flow id, counter untouched: policy,
   routing (on the router's private topology — deterministic and identical
   to every shard's), then single-shard dispatch or two-phase commit.  An
   admission records the flow's owning shards for {!teardown}. *)
let admit_pinned t ~flow req =
  match Policy.check t.policy req with
  | Error rule -> Error (Types.Policy_denied rule)
  | Ok () -> (
      match
        Routing.path t.routing ~ingress:req.Types.ingress
          ~egress:req.Types.egress
      with
      | None -> Error Types.No_route
      | Some info -> (
          match links_by_shard t info with
          | [ (s, _) ] -> (
              match Shard.rpc t.shards.(s) (Shard.Admit { flow; request = req }) with
              | Shard.Admitted r ->
                  if Result.is_ok r then Hashtbl.replace t.owners flow [ s ];
                  r
              | _ -> assert false)
          | groups ->
              let r = two_phase t ~flow req info groups in
              if Result.is_ok r then Hashtbl.replace t.owners flow (List.map fst groups);
              (* Single-shard decisions are logged by the owning shard's
                 broker; the two-phase path decides here, so it logs
                 here. *)
              Obs_log.decision ~service:"perflow" ~at:0. req
                (Result.map
                   (fun (f, (res : Types.reservation)) -> (f, res.Types.rate))
                   r);
              r))

let request t req =
  let flow = t.next_flow in
  match admit_pinned t ~flow req with
  | Ok (f, res) ->
      (* The id is consumed only on admission, mirroring the single
         broker, whose [Flow_mib.fresh_id] runs after the admissibility
         test passes — so a sharded run reproduces its id sequence. *)
      t.next_flow <- flow + 1;
      t.on_edge_config ~flow:f res;
      Ok (f, res)
  | Error e -> Error e

let teardown t flow =
  match Hashtbl.find_opt t.owners flow with
  | None -> ()
  | Some owners ->
      Hashtbl.remove t.owners flow;
      List.iter (fun s -> Shard.send t.shards.(s) (Shard.Teardown flow)) owners;
      List.iter
        (fun s ->
          match Shard.recv t.shards.(s) with Shard.Done -> () | _ -> assert false)
        owners

type recovery = {
  link_id : int;
  rerouted : Types.flow_id list;
  dropped : Types.flow_id list;
}

let set_link t ~link_id ~up =
  ignore (Topology.link_by_id t.topology link_id);
  Topology.set_link_state t.topology ~link_id ~up;
  Array.iter (fun s -> Shard.send s (Shard.Set_link { link_id; up })) t.shards;
  Array.iter
    (fun s -> match Shard.recv s with Shard.Done -> () | _ -> assert false)
    t.shards

(* Stop-the-world link-failure cascade, replicating the single broker's
   [fail_link] order exactly: mark the link down everywhere, collect the
   victims (only the owner shard holds bookings on the link, but a
   multi-shard victim's other segments live elsewhere — teardown reaches
   every owner), tear all victims down in ascending flow-id order, then
   re-admit each over the surviving topology in the same order under its
   pinned id. *)
let fail_link t ~link_id =
  set_link t ~link_id ~up:false;
  let victims =
    match Shard.rpc t.shards.(t.owner.(link_id)) (Shard.Victims link_id) with
    | Shard.Victims_are vs -> vs
    | _ -> assert false
  in
  List.iter (fun (v : Shard.victim) -> teardown t v.Shard.v_flow) victims;
  let rerouted, dropped =
    List.partition_map
      (fun (v : Shard.victim) ->
        match admit_pinned t ~flow:v.Shard.v_flow v.Shard.v_request with
        | Ok (_, res) ->
            t.on_edge_config ~flow:v.Shard.v_flow res;
            Either.Left v.Shard.v_flow
        | Error _ -> Either.Right v.Shard.v_flow)
      victims
  in
  { link_id; rerouted; dropped }

let restore_link t ~link_id = set_link t ~link_id ~up:true

(* ----------------------------------------------------------------- *)
(* Merged views.                                                     *)

(* Reorder a (possibly segment-scattered) simple path's links into
   src→dst chain order: the head is the unique link whose source no link
   enters. *)
let stitch t link_ids =
  match link_ids with
  | [] | [ _ ] -> link_ids
  | _ ->
      let ls = List.map (Topology.link_by_id t.topology) link_ids in
      let by_src = Hashtbl.create 8 in
      List.iter
        (fun (l : Topology.link) -> Hashtbl.replace by_src l.Topology.src l)
        ls;
      let dsts =
        List.map (fun (l : Topology.link) -> l.Topology.dst) ls
      in
      let head =
        List.find
          (fun (l : Topology.link) -> not (List.mem l.Topology.src dsts))
          ls
      in
      let rec go acc (l : Topology.link) =
        let acc = l.Topology.link_id :: acc in
        match Hashtbl.find_opt by_src l.Topology.dst with
        | Some next -> go acc next
        | None -> List.rev acc
      in
      go [] head

let flows t =
  let tbl = Hashtbl.create 256 in
  Array.iter (fun s -> Shard.send s Shard.Dump) t.shards;
  Array.iter
    (fun s ->
      match Shard.recv s with
      | Shard.Flows fs ->
          List.iter
            (fun (f, rate, delay, links) ->
              match Hashtbl.find_opt tbl f with
              | None -> Hashtbl.replace tbl f (rate, delay, links)
              | Some (r0, d0, ls0) ->
                  (* Another shard's segment of the same flow: same
                     rate/delay by construction; the link union is
                     stitched below. *)
                  Hashtbl.replace tbl f (r0, d0, ls0 @ links))
            fs
      | _ -> assert false)
    t.shards;
  Hashtbl.fold
    (fun f (rate, delay, links) acc -> (f, rate, delay, stitch t links) :: acc)
    tbl []

let mib_digest t = Audit.digest_of_perflow ~topology:t.topology (flows t)

let audits_clean t =
  Array.iter (fun s -> Shard.send s Shard.Audit_ok) t.shards;
  Array.for_all
    (fun s -> match Shard.recv s with Shard.Flag ok -> ok | _ -> assert false)
    t.shards

let stop t = Array.iter Shard.stop t.shards
