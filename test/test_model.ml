(* The model-based property: one op stream drives every front end of the
   broker in lockstep with the history-free reference broker [Model].

   - The cached broker is the reference among the products.  The
     uncached broker, the inline shard router, a spawned two-shard router
     (one case in ten), a broker replayed from the cached broker's journal
     and one restored from its snapshot (each from a random op boundary
     on) must match it bit for bit: every decision and link-failure
     cascade, and the MIB digest at each cut and at the end.  Each of the
     inline router's shard journals replays to its shard's digest.
   - The cached broker must match the model: outcome, reject reason, flow
     id and path links exactly, rate and delay within [Fp.approx], every
     link's reserved rate within 1e-9 of its capacity of the model's sum,
     every delay-based link schedulable by the model's own check, and
     every VT-EDF scheduler empty after a full teardown.
   - Brownout's conservative test runs on its own broker beside its own
     model copy: it may refuse what the model admits, never admit what
     the model refuses; everything else is checked as above.

   The tolerances cover the product's ledgers, which are float running
   sums with history; the model's sums start afresh on every query. *)

(* ------------------------------------------------------------------ *)
(* Expiring holds *)

module Broker = Bbr_broker.Broker
module Flow_mib = Bbr_broker.Flow_mib
module Types = Bbr_broker.Types
module Topology = Bbr_vtrs.Topology
module Engine = Bbr_netsim.Engine
module Fig8 = Bbr_workload.Fig8

(* Targets are indices resolved when the op runs; every time is a
   multiple of 1/4 s, so expiries and clock steps add up exactly. *)
type hold_op =
  | Request of { flow_type : int; route : int; dreq : float }
  | Hold of int * float  (* a live unheld flow, held this far ahead *)
  | Renew of int * float  (* a live hold, moved to this far ahead *)
  | Convert of int
  | Teardown of int
  | Advance of float
  | Fail of int
  | Restore of int

let pp_hold_op ppf = function
  | Request { flow_type; route; dreq } -> Fmt.pf ppf "request type %d route %d dreq %g" flow_type route dreq
  | Hold (i, d) -> Fmt.pf ppf "hold %d +%g" i d
  | Renew (i, d) -> Fmt.pf ppf "renew %d +%g" i d
  | Convert i -> Fmt.pf ppf "convert %d" i
  | Teardown i -> Fmt.pf ppf "teardown %d" i
  | Advance d -> Fmt.pf ppf "advance %g" d
  | Fail i -> Fmt.pf ppf "fail %d" i
  | Restore i -> Fmt.pf ppf "restore %d" i

let hold_op_gen =
  QCheck.Gen.(
    let quarters lo hi = map (fun q -> float_of_int q /. 4.) (int_range (4 * lo) (4 * hi)) in
    let index = int_bound 1_000 in
    frequency
      [
        ( 5,
          map3
            (fun flow_type route dreq -> Request { flow_type; route; dreq })
            (int_bound 3) (int_bound 3) (quarters 1 6) );
        (4, map2 (fun i d -> Hold (i, d)) index (quarters 0 10));
        (3, map2 (fun i d -> Renew (i, d)) index (quarters 0 10));
        (2, map (fun i -> Convert i) index);
        (2, map (fun i -> Teardown i) index);
        (4, map (fun d -> Advance d) (quarters 0 4));
        (1, map (fun i -> Fail i) index);
        (1, map (fun i -> Restore i) index);
      ])

let arb_hold_ops =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.list ~sep:Fmt.semi pp_hold_op))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 20 120) hold_op_gen)

let routes =
  [|
    (Fig8.ingress1, Fig8.egress1);
    (Fig8.ingress2, Fig8.egress2);
    (Fig8.ingress1, Fig8.egress2);
    (Fig8.ingress2, Fig8.egress1);
  |]

(* One op stream through a Figure-8 broker on an engine clock and the
   reference broker, with the holds kept beside it as a plain list of
   (id, flow, expiry), ascending id.  An expiry is a teardown in the
   reference broker, so the ledgers must agree at every step. *)
let holds_expire_as_teardowns ops =
  let engine = Engine.create () in
  let time =
    {
      Broker.now = (fun () -> Engine.now engine);
      after = (fun delay f -> Engine.schedule_after engine ~delay f);
    }
  in
  let topology = Fig8.topology `Mixed in
  let broker = Broker.create ~time (Topology.copy topology) in
  let lane =
    {
      Lockstep.broker;
      model = Model.create topology;
      fronts = [ Lockstep.of_broker ~admission:`Exact "held" broker ];
      exact = true;
    }
  in
  let holds = ref [] and converted = ref [] in
  let now () = Engine.now engine in
  let nth xs i = List.nth xs (i mod List.length xs) in
  let forget flow =
    holds := List.filter (fun (_, f, _) -> f <> flow) !holds;
    converted := List.filter (fun (f, _) -> f <> flow) !converted
  in
  let step = function
    | Request { flow_type; route; dreq } ->
        let ingress, egress = routes.(route) in
        ignore
          (Lockstep.request lane
             { Types.profile = Bbr_workload.Profiles.profile flow_type; dreq; ingress; egress })
    | Hold (i, ahead) -> (
        match
          List.filter
            (fun f -> not (List.exists (fun (_, g, _) -> g = f) !holds))
            (List.map fst (Model.live lane.Lockstep.model))
        with
        | [] -> ()
        | unheld ->
            let flow = nth unheld i and expires = now () +. ahead in
            let id = Broker.hold broker ~owner:"property" ~expires flow in
            forget flow;
            holds := !holds @ [ (id, flow, expires) ])
    | Renew (i, ahead) -> (
        match !holds with
        | [] -> ()
        | hs ->
            let id, _, _ = nth hs i and expires = now () +. ahead in
            Broker.renew broker id ~expires;
            holds := List.map (fun (j, f, e) -> if j = id then (j, f, expires) else (j, f, e)) hs)
    | Convert i -> (
        match !holds with
        | [] -> ()
        | hs ->
            let id, flow, expires = nth hs i in
            Broker.convert broker id;
            holds := List.filter (fun (j, _, _) -> j <> id) hs;
            converted := (flow, expires) :: !converted)
    | Teardown i -> (
        match Model.live lane.Lockstep.model with
        | [] -> ()
        | live ->
            let flow = fst (nth live i) in
            Lockstep.teardown lane flow;
            forget flow)
    | Advance dt ->
        let until = now () +. dt in
        Engine.run ~until engine;
        List.iter
          (fun (_, flow, e) ->
            if e <= until then begin
              Model.teardown lane.Lockstep.model flow;
              forget flow
            end)
          !holds
    | Fail i -> (
        match
          List.filter
            (fun link_id -> Topology.link_is_up (Model.topology lane.Lockstep.model) ~link_id)
            (Lockstep.ids (Topology.links topology))
        with
        | [] -> ()
        | up ->
            let _, dropped = Lockstep.fail lane (nth up i) in
            List.iter forget dropped)
    | Restore i -> (
        match
          List.filter
            (fun link_id -> not (Topology.link_is_up (Model.topology lane.Lockstep.model) ~link_id))
            (Lockstep.ids (Topology.links topology))
        with
        | [] -> ()
        | down -> Lockstep.restore lane (nth down i))
  in
  List.iteri
    (fun k op ->
      step op;
      let what = Fmt.str "op %d (%a) at %g s" k pp_hold_op op (now ()) in
      List.iter
        (fun (h : Broker.hold) ->
          let pinned = Broker.pinned broker h in
          if h.Broker.expires < now () && pinned > 0. then
            Lockstep.failf "%s: hold %d expired at %g still pins %g" what h.Broker.id
              h.Broker.expires pinned)
        (Broker.holds broker);
      let table =
        List.map (fun (h : Broker.hold) -> (h.Broker.id, h.Broker.expires)) (Broker.holds broker)
      and listed = List.map (fun (id, _, e) -> (id, e)) !holds in
      if table <> listed then
        Lockstep.failf "%s: the broker holds [%a], the list [%a]" what
          Fmt.(list ~sep:semi (pair ~sep:(any "@") int float))
          table
          Fmt.(list ~sep:semi (pair ~sep:(any "@") int float))
          listed;
      Lockstep.ledgers_match ~what lane.Lockstep.model [ broker ];
      if Broker.per_flow_count broker <> List.length (Model.live lane.Lockstep.model) then
        Lockstep.failf "%s: %d flows booked, the model %d" what (Broker.per_flow_count broker)
          (List.length (Model.live lane.Lockstep.model));
      List.iter
        (fun (flow, old) ->
          if old < now () && Flow_mib.find (Broker.flow_mib broker) flow = None then
            Lockstep.failf "%s: converted flow %d gone after its old expiry %g" what flow old)
        !converted)
    ops;
  Lockstep.finish lane;
  if Broker.holds broker <> [] then Lockstep.failf "holds left after a full teardown";
  true

let () =
  Alcotest.run "model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"every front end decides what the reference broker decides"
               ~count:100 Gen.arb_storm (fun s -> Lockstep.run s));
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make
               ~name:"every hold expiry is a teardown, and a converted flow outlives its expiry"
               ~count:300 arb_hold_ops holds_expire_as_teardowns);
        ] );
    ]
