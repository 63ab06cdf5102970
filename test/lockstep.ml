(* Front ends of the broker driven in lockstep with the reference broker
   [Model].  A lane pairs a model with the front ends that must follow it:
   each op runs on every front end and on the model, and a front end's
   decision, link-failure cascade, bookings, ledgers and digest must match
   (see [test_model.ml] for what is checked and to what tolerance).
   Failures raise through [QCheck.Test.fail_reportf]. *)

module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Flow_mib = Bbr_broker.Flow_mib
module Path_mib = Bbr_broker.Path_mib
module Node_mib = Bbr_broker.Node_mib
module Audit = Bbr_broker.Audit
module Shard_router = Bbr_broker.Shard_router
module Fp = Bbr_util.Fp

(* A front end as the property drives it; [brokers] hold its ledgers (a
   router's shards), safe to read once it is idle. *)
type front = {
  name : string;
  request : Types.request -> (Types.flow_id * Types.reservation, Types.reject_reason) result;
  teardown : Types.flow_id -> unit;
  fail_link : int -> Types.flow_id list * Types.flow_id list;
  restore : int -> unit;
  digest : unit -> string;
  audit_clean : unit -> bool;
  brokers : unit -> Broker.t list;
}

let of_broker ~admission name b =
  {
    name;
    request = (fun req -> Broker.request b ~admission req);
    teardown = Broker.teardown b;
    fail_link =
      (fun link_id ->
        let r = Broker.fail_link b ~link_id in
        (r.Broker.perflow_rerouted, r.Broker.perflow_dropped));
    restore = (fun link_id -> Broker.restore_link b ~link_id);
    digest = (fun () -> Audit.mib_digest b);
    audit_clean = (fun () -> Audit.ok (Audit.check b));
    brokers = (fun () -> [ b ]);
  }

let of_router name ~shards r =
  {
    name;
    request = Shard_router.request r;
    teardown = Shard_router.teardown r;
    fail_link =
      (fun link_id ->
        let c = Shard_router.fail_link r ~link_id in
        (c.Shard_router.rerouted, c.Shard_router.dropped));
    restore = (fun link_id -> Shard_router.restore_link r ~link_id);
    digest = (fun () -> Shard_router.mib_digest r);
    audit_clean = (fun () -> Shard_router.audits_clean r);
    brokers =
      (fun () -> List.init shards (fun i -> Bbr_broker.Shard.broker (Shard_router.shard r i)));
  }

(* A model and the front ends that must follow it, the first of which,
   over [broker], the others must equal bit for bit.  An [exact] lane's
   decisions equal the model's; the conservative lane's admissions must
   be the model's too, and are booked into it as decided. *)
type lane = { broker : Broker.t; model : Model.t; mutable fronts : front list; exact : bool }

(* A lane over a fresh broker and model on copies of [topology]. *)
let lane ~admission name topology ~exact =
  let broker = Broker.create (Topology.copy topology) in
  { broker; model = Model.create topology; fronts = [ of_broker ~admission name broker ]; exact }

let failf fmt = QCheck.Test.fail_reportf fmt

(* A product scheduler as the model reads it: its classes. *)
let hop edf =
  {
    Model.capacity = Vtedf.capacity edf;
    classes =
      List.map
        (fun (k : Vtedf.klass) -> (k.Vtedf.delay, k.Vtedf.sum_rate, k.Vtedf.sum_lmax))
        (Vtedf.classes edf);
  }

let pp_outcome ppf = function
  | Ok (f, (r : Types.reservation)) ->
      Fmt.pf ppf "flow %d at (%h, %h)" f r.Types.rate r.Types.delay
  | Error e -> Types.pp_reject_reason ppf e

let bit_equal a b =
  let bits = Int64.bits_of_float in
  match (a, b) with
  | Ok (f, (r : Types.reservation)), Ok (g, (s : Types.reservation)) ->
      f = g && bits r.Types.rate = bits s.Types.rate && bits r.Types.delay = bits s.Types.delay
  | Error e, Error e' -> e = e'
  | _ -> false

let ids = List.map (fun (l : Topology.link) -> l.Topology.link_id)

(* The lane broker's booking of [flow] against the model's. *)
let same_booking lane flow =
  let booked =
    Flow_mib.find (Broker.flow_mib lane.broker) flow
    |> Option.map (fun (r : Flow_mib.record) ->
           let res = r.Flow_mib.reservation in
           (res.Types.rate, res.Types.delay, ids r.Flow_mib.path.Path_mib.links))
  and wanted =
    Model.find lane.model flow
    |> Option.map (fun (b : Model.booking) -> (b.Model.rate, b.Model.delay, ids b.Model.links))
  in
  match (booked, wanted) with
  | Some (r, d, ls), Some (r', d', ls') when Fp.approx r r' && Fp.approx d d' && ls = ls' -> ()
  | None, None -> ()
  | _ ->
      let pp ppf (r, d, ls) = Fmt.pf ppf "(%h, %h) on %a" r d Fmt.(Dump.list int) ls in
      let pp = Fmt.option ~none:(Fmt.any "nothing") pp in
      failf "flow %d: booked %a, the model %a" flow pp booked pp wanted

(* Every link's reserved rate, summed over [brokers], against the
   model's sum. *)
let ledgers_match ~what model brokers =
  List.iter
    (fun (l : Topology.link) ->
      let link_id = l.Topology.link_id in
      let got =
        List.fold_left
          (fun acc b -> acc +. Node_mib.reserved (Broker.node_mib b) ~link_id)
          0. brokers
      and want = Model.reserved model ~link_id in
      if Float.abs (got -. want) > 1e-9 *. l.Topology.capacity then
        failf "%s: link %d reserves %h, the model %h" what link_id got want)
    (Topology.links (Model.topology model))

let digests_match ~what lane =
  let want = Audit.mib_digest lane.broker in
  List.iter
    (fun f -> if f.digest () <> want then failf "%s: %s digest differs" what f.name)
    lane.fronts

let request lane req =
  let model = lane.model in
  let a = (List.hd lane.fronts).request req in
  List.iter
    (fun f ->
      let b = f.request req in
      if not (bit_equal a b) then failf "request: %a, %s %a" pp_outcome a f.name pp_outcome b)
    (List.tl lane.fronts);
  (match a with
  | _ when lane.exact -> (
      match (a, Model.request model req) with
      | Ok (f, _), Ok (g, _) when f = g -> same_booking lane f
      | Error e, Error e' when e = e' -> ()
      | _, m -> failf "request: %a, the model %a" pp_outcome a pp_outcome m)
  | Error _ -> ()
  | Ok (flow, res) -> (
      match Model.decide model req with
      | Ok (links, _) when flow = Model.next_id model ->
          Model.book model ~flow req links res;
          same_booking lane flow
      | _ -> failf "request: conservative %a beyond the model" pp_outcome a));
  a

let teardown lane flow =
  List.iter (fun f -> f.teardown flow) lane.fronts;
  Model.teardown lane.model flow

(* Every front end's cascade must be the model's, which is returned. *)
let fail lane link_id =
  let cascades = List.map (fun f -> (f, f.fail_link link_id)) lane.fronts in
  let cascade = Model.fail_link lane.model ~link_id in
  List.iter
    (fun (f, c) -> if c <> cascade then failf "fail %d: %s cascade differs" link_id f.name)
    cascades;
  List.iter (same_booking lane) (fst cascade);
  cascade

let restore lane link_id =
  List.iter (fun f -> f.restore link_id) lane.fronts;
  Model.restore_link lane.model ~link_id

(* One op, its target resolved against the lane's model: [Teardown i]
   the [i mod (n + 1)]-th of its [n] live flows by ascending id, the last
   choice the next id to be issued; [Fail i] / [Restore i] the [i mod n]-th
   of the [n] links up / down, by id, if any. *)
let step lane op =
  let model = lane.model in
  let nth xs i = List.nth xs (i mod List.length xs) in
  let link i ~up f =
    match
      List.filter
        (fun link_id -> Topology.link_is_up (Model.topology model) ~link_id = up)
        (ids (Topology.links (Model.topology model)))
    with
    | [] -> ()
    | links -> f (nth links i)
  in
  match op with
  | Gen.Request req -> ignore (request lane req)
  | Gen.Teardown i ->
      teardown lane (nth (List.map fst (Model.live model) @ [ Model.next_id model ]) i)
  | Gen.Fail i -> link i ~up:true (fun link_id -> ignore (fail lane link_id))
  | Gen.Restore i -> link i ~up:false (restore lane)

(* Every booking of the lane's broker meets its delay bound. *)
let bounds_met ~what lane =
  Flow_mib.fold (Broker.flow_mib lane.broker) ~init:() ~f:(fun () r ->
      let req = r.Flow_mib.request and res = r.Flow_mib.reservation in
      let path = r.Flow_mib.path in
      let bound =
        Bbr_vtrs.Delay.e2e_bound req.Types.profile ~q:path.Path_mib.rate_hops
          ~delay_hops:path.Path_mib.delay_hops ~rate:res.Types.rate ~delay:res.Types.delay
          ~d_tot:path.Path_mib.d_tot
      in
      if bound > req.Types.dreq +. 1e-6 then
        failf "%s: flow %d bound %g over its %g" what r.Flow_mib.flow bound req.Types.dreq)

(* The lane broker's bookings, loaded into a fresh model, pass its
   schedulability check on every delay-based link. *)
let schedulable ~what lane =
  let booked = Model.create (Broker.topology lane.broker) in
  Flow_mib.fold (Broker.flow_mib lane.broker) ~init:() ~f:(fun () r ->
      Model.book booked ~flow:r.Flow_mib.flow r.Flow_mib.request r.Flow_mib.path.Path_mib.links
        r.Flow_mib.reservation);
  List.iter (failf "%s: link %d is unschedulable" what) (Model.unschedulable booked)

(* At the end of a storm every front end audits clean, the ledgers equal
   the model's sums, and the lane's bookings meet their delay bounds and
   pass the model's schedulability check.  Then a full teardown. *)
let finish lane =
  List.iter
    (fun f -> if not (f.audit_clean ()) then failf "end: %s audit dirty" f.name)
    lane.fronts;
  ledgers_match ~what:"end" lane.model [ lane.broker ];
  bounds_met ~what:"end" lane;
  schedulable ~what:"end" lane;
  List.iter (fun (flow, _) -> teardown lane flow) (Model.live lane.model);
  digests_match ~what:"after a full teardown" lane

let check_empty lane =
  List.iter
    (fun f ->
      let what = f.name ^ " after a full teardown" and brokers = f.brokers () in
      ledgers_match ~what lane.model brokers;
      List.iter
        (fun b ->
          if Broker.per_flow_count b <> 0 then failf "%s: flows left" what;
          List.iter
            (fun (l : Topology.link) ->
              let link_id = l.Topology.link_id in
              match (Node_mib.entry (Broker.node_mib b) ~link_id).Node_mib.edf with
              | Some edf when Vtedf.flow_count edf <> 0 || Vtedf.class_count edf <> 0 ->
                  failf "%s: link %d keeps %d flows in %d classes" what link_id
                    (Vtedf.flow_count edf) (Vtedf.class_count edf)
              | _ -> ())
            (Topology.links (Broker.topology b)))
        brokers)
    lane.fronts

(* ------------------------------------------------------------------ *)
(* A storm through the lanes *)

(* The front ends that can join the cached broker's lane:
   - [Uncached]: a broker without the fast path;
   - [Inline_router]: a [Shard_router] of [shards] shards (by default
     1 + seed mod 3), each journaled; at the end every shard journal must
     replay to its shard's digest;
   - [Spawned_router]: a spawned two-shard router, in one case in ten;
   - [Replayed] / [Restored]: a broker replayed from the cached broker's
     journal / restored from its [Snapshot.save], each at a random op
     boundary, deciding from there on;
   - [Conservative]: brownout's conservative test, on its own lane. *)
type joiner = Uncached | Inline_router | Spawned_router | Replayed | Restored | Conservative

let every = [ Uncached; Inline_router; Spawned_router; Replayed; Restored; Conservative ]

(* Drive storm [s] through the cached broker, the front ends [fronts]
   and the model, calling [each] on the cached broker's lane after every
   op; end with [finish] and a full teardown, after which every front end
   must be empty (see [test_model.ml] for the checks). *)
let run ?(fronts = every) ?shards ?(each = ignore) (s : Gen.storm) =
  let module Journal = Bbr_broker.Journal in
  let module Snapshot = Bbr_broker.Snapshot in
  let module Shard = Bbr_broker.Shard in
  let joins j = List.mem j fronts in
  let topology = Gen.domain s in
  let pristine = Topology.copy topology in
  let prng = Bbr_util.Prng.create ~seed:(s.Gen.seed + 13) in
  let replay_at = Bbr_util.Prng.int prng ~bound:(s.Gen.length + 1) in
  let restore_at = Bbr_util.Prng.int prng ~bound:(s.Gen.length + 1) in
  let main = lane ~admission:`Exact "cached" topology ~exact:true in
  let conservative =
    if joins Conservative then
      Some (lane ~admission:`Conservative "conservative" topology ~exact:false)
    else None
  in
  let journal = Journal.create () in
  if joins Replayed then Journal.attach journal main.broker;
  let shards = Option.value shards ~default:(1 + (s.Gen.seed mod 3)) in
  let spawned =
    if joins Spawned_router && s.Gen.seed mod 10 = 0 then
      Some
        (Shard_router.create ~spawn:true ~shards:2
           ~partition:(fun n -> Hashtbl.hash n mod 2)
           topology)
    else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Shard_router.stop spawned) @@ fun () ->
  let journals = Array.init shards (fun _ -> Journal.create ()) in
  let inline =
    if joins Inline_router then
      Some
        (Shard_router.create ~journal_for:(fun i -> Some journals.(i)) ~shards
           ~partition:(fun n -> Hashtbl.hash n mod shards)
           topology)
    else None
  in
  main.fronts <-
    main.fronts
    @ (if joins Uncached then
         let uncached = Broker.create ~fast_path:false (Topology.copy topology) in
         [ of_broker ~admission:`Exact "uncached" uncached ]
       else [])
    @ Option.to_list (Option.map (of_router "inline router" ~shards) inline)
    @ Option.to_list (Option.map (of_router "spawned router" ~shards:2) spawned);
  (* A broker rebuilt at op [i] joins the lane from there on. *)
  let join i name b rebuild =
    let what = Printf.sprintf "cut at op %d" i in
    (match rebuild b with Ok _ -> () | Error e -> failf "%s: %s: %s" what name e);
    main.fronts <- main.fronts @ [ of_broker ~admission:`Exact name b ];
    digests_match ~what main;
    ledgers_match ~what main.model [ main.broker ]
  in
  let cut i =
    if joins Replayed && i = replay_at then
      join i "replayed" (Broker.create (Topology.copy pristine)) (fun b ->
          Result.map ignore (Journal.replay b (Journal.text journal)));
    if joins Restored && i = restore_at then
      join i "restored"
        (Broker.create (Topology.copy (Broker.topology main.broker)))
        (fun b -> Result.map ignore (Snapshot.restore b (Snapshot.save main.broker)))
  in
  List.iteri
    (fun i op ->
      cut i;
      step main op;
      each main;
      Option.iter (fun c -> step c op) conservative)
    (Gen.ops s topology);
  cut s.Gen.length;
  digests_match ~what:"end" main;
  (* Each shard's journal replays to the shard's digest. *)
  Option.iter
    (fun inline ->
      Array.iteri
        (fun i j ->
          let b = Broker.create (Topology.copy pristine) in
          let live = Shard.broker (Shard_router.shard inline i) in
          match Journal.replay b (Journal.text j) with
          | Ok _ when Audit.mib_digest b = Audit.mib_digest live && Audit.ok (Audit.check b) -> ()
          | _ -> failf "end: shard %d journal replay differs" i)
        journals)
    inline;
  finish main;
  Option.iter finish conservative;
  (* Stopped, a spawned router's shards are safe to read. *)
  Option.iter Shard_router.stop spawned;
  check_empty main;
  Option.iter check_empty conservative;
  true
