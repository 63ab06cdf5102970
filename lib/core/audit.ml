module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf

type kind =
  | Leaked_bandwidth
  | Missing_bandwidth
  | Orphan_flow
  | Dangling_membership
  | Aggregate_accounting
  | Expired_hold
  | Sla_mismatch
  | Stranded_segment
  | Unschedulable_link

let kind_label = function
  | Leaked_bandwidth -> "leaked_bandwidth"
  | Missing_bandwidth -> "missing_bandwidth"
  | Orphan_flow -> "orphan_flow"
  | Dangling_membership -> "dangling_membership"
  | Aggregate_accounting -> "aggregate_accounting"
  | Expired_hold -> "expired_hold"
  | Sla_mismatch -> "sla_mismatch"
  | Stranded_segment -> "stranded_segment"
  | Unschedulable_link -> "unschedulable_link"

type violation = { kind : kind; subject : string; detail : string }

type report = {
  violations : violation list;
  flows : int;
  members : int;
  macroflows : int;
  links : int;
}

let ok r = r.violations = []

let default_eps = 1e-3

let sorted_flows broker =
  Flow_mib.fold (Broker.flow_mib broker) ~init:[] ~f:(fun acc r -> r :: acc)
  |> List.sort (fun (a : Flow_mib.record) b ->
         compare a.Flow_mib.flow b.Flow_mib.flow)

let sorted_macros broker =
  let pm = Broker.path_mib broker in
  Aggregate.all_macroflows (Broker.aggregate broker)
  |> List.filter_map (fun (s : Aggregate.macro_stats) ->
         Option.map
           (fun info -> (s, info))
           (Path_mib.find pm ~path_id:s.Aggregate.path_id))
  |> List.sort (fun ((a : Aggregate.macro_stats), (ia : Path_mib.info)) (b, ib) ->
         compare
           (a.Aggregate.class_id, Topology.link_ids ia.Path_mib.links)
           (b.Aggregate.class_id, Topology.link_ids ib.Path_mib.links))

(* The per-link bandwidth deltas (actual reserved minus what the MIBs
   account for), after greedily attributing wholly-unbacked flows as
   orphans.  Shared between {!check} and {!repair}. *)
type reconciliation = {
  delta : (int, float) Hashtbl.t;  (* link_id -> actual - expected *)
  orphans : Flow_mib.record list;  (* ascending flow id *)
}

let reconcile ?(eps = default_eps) broker =
  let nm = Broker.node_mib broker in
  let topo = Broker.topology broker in
  let delta = Hashtbl.create 32 in
  List.iter
    (fun (l : Topology.link) ->
      Hashtbl.replace delta l.Topology.link_id
        (Node_mib.reserved nm ~link_id:l.Topology.link_id))
    (Topology.links topo);
  let subtract link_id amount =
    match Hashtbl.find_opt delta link_id with
    | Some d -> Hashtbl.replace delta link_id (d -. amount)
    | None -> Hashtbl.replace delta link_id (-.amount)
  in
  let flows = sorted_flows broker in
  List.iter
    (fun (r : Flow_mib.record) ->
      List.iter
        (fun (l : Topology.link) ->
          subtract l.Topology.link_id r.Flow_mib.reservation.Types.rate)
        r.Flow_mib.path.Path_mib.links)
    flows;
  List.iter
    (fun ((s : Aggregate.macro_stats), (info : Path_mib.info)) ->
      let amount = s.Aggregate.base_rate +. s.Aggregate.contingency in
      List.iter
        (fun (l : Topology.link) -> subtract l.Topology.link_id amount)
        info.Path_mib.links)
    (sorted_macros broker);
  (* A flow whose every link is short by at least the flow's rate has no
     backing reservations anywhere: an orphan record.  Attribute greedily
     in flow-id order, re-crediting its links so the remaining deltas
     reflect only genuine bandwidth drift. *)
  let orphans =
    List.filter
      (fun (r : Flow_mib.record) ->
        let rate = r.Flow_mib.reservation.Types.rate in
        rate > eps
        && List.for_all
             (fun (l : Topology.link) ->
               match Hashtbl.find_opt delta l.Topology.link_id with
               | Some d -> d <= -.rate +. eps
               | None -> false)
             r.Flow_mib.path.Path_mib.links
        &&
        (List.iter
           (fun (l : Topology.link) ->
             subtract l.Topology.link_id (-.rate))
           r.Flow_mib.path.Path_mib.links;
         true))
      flows
  in
  { delta; orphans }

let count_violation v =
  if Obs_log.active () then
    Obs_log.count "bb_audit_violations_total"
      ~labels:[ ("kind", kind_label v.kind) ]

let membership_violations broker =
  let agg = Broker.aggregate broker in
  let acc = ref [] in
  let add kind subject detail = acc := { kind; subject; detail } :: !acc in
  (* Each macroflow's members, folded once. *)
  let macros =
    List.map
      (fun (s : Aggregate.macro_stats) ->
        let key = (s.Aggregate.class_id, s.Aggregate.path_id) in
        (key, Aggregate.members agg ~class_id:(fst key) ~path_id:(snd key)))
      (Aggregate.all_macroflows agg)
  in
  let listed = Hashtbl.create 64 in
  List.iter
    (fun (key, members) ->
      List.iter (fun (flow, _) -> Hashtbl.replace listed (flow, key) ()) members)
    macros;
  (* Owner table entries must point at a live macroflow listing the flow. *)
  List.iter
    (fun (flow, ((class_id, path_id) as key)) ->
      if Aggregate.macroflow_stats agg ~class_id ~path_id = None then
        add Dangling_membership
          (Printf.sprintf "flow %d" flow)
          (Printf.sprintf "owner entry points at missing macroflow (class %d, path %d)"
             class_id path_id)
      else if not (Hashtbl.mem listed (flow, key)) then
        add Dangling_membership
          (Printf.sprintf "flow %d" flow)
          (Printf.sprintf "owner entry not backed by macroflow member list (class %d, path %d)"
             class_id path_id))
    (Aggregate.owners_alist agg);
  (* And conversely: every member must carry the matching owner entry. *)
  List.iter
    (fun (((class_id, path_id) as key), members) ->
      List.iter
        (fun (flow, _) ->
          match Aggregate.owner agg ~flow with
          | Some k when k = key -> ()
          | _ ->
              add Dangling_membership
                (Printf.sprintf "flow %d" flow)
                (Printf.sprintf "member of macroflow (class %d, path %d) without owner entry"
                   class_id path_id))
        members)
    macros;
  List.rev !acc

let accounting_violations ?(eps = default_eps) broker =
  let agg = Broker.aggregate broker in
  List.filter_map
    (fun (s : Aggregate.macro_stats) ->
      let subject =
        Printf.sprintf "macroflow (class %d, path %d)" s.Aggregate.class_id
          s.Aggregate.path_id
      in
      let grants =
        Aggregate.grant_amounts agg ~class_id:s.Aggregate.class_id
          ~path_id:s.Aggregate.path_id
      in
      let grant_sum = List.fold_left ( +. ) 0. grants in
      if s.Aggregate.base_rate < -.eps || s.Aggregate.contingency < -.eps then
        Some
          {
            kind = Aggregate_accounting;
            subject;
            detail =
              Printf.sprintf "negative allocation: base %.6g, contingency %.6g"
                s.Aggregate.base_rate s.Aggregate.contingency;
          }
      else if Float.abs (s.Aggregate.contingency -. grant_sum) > eps then
        Some
          {
            kind = Aggregate_accounting;
            subject;
            detail =
              Printf.sprintf
                "contingency pool %.6g b/s does not match its %d grants (sum %.6g)"
                s.Aggregate.contingency (List.length grants) grant_sum;
          }
      else None)
    (Aggregate.all_macroflows agg)

(* A hold past its expiry that still pins bandwidth: the broker's
   expiry timer failed or never ran. *)
let hold_violations broker =
  let now = Broker.now broker in
  List.filter_map
    (fun (h : Broker.hold) ->
      let pinned = Broker.pinned broker h in
      if h.Broker.expires >= now || pinned <= 0. then None
      else
        Some
          {
            kind = Expired_hold;
            subject = Printf.sprintf "hold %d (%s)" h.Broker.id h.Broker.owner;
            detail =
              Printf.sprintf "expired at %.6g (now %.6g) but still pins %.6g b/s"
                h.Broker.expires now pinned;
          })
    (Broker.holds broker)

(* Every delay-based link must still satisfy eq. (5) over the flows booked
   on it: admission may only book a pair the exact check accepts. *)
let schedulability_violations broker =
  let nm = Broker.node_mib broker in
  List.filter_map
    (fun (l : Topology.link) ->
      match (Node_mib.entry nm ~link_id:l.Topology.link_id).Node_mib.edf with
      | Some edf when not (Vtedf.schedulable edf) ->
          Some
            {
              kind = Unschedulable_link;
              subject = Printf.sprintf "link %d" l.Topology.link_id;
              detail =
                Printf.sprintf "%d flows in %d delay classes at %.6g b/s violate eq. (5)"
                  (Vtedf.flow_count edf) (Vtedf.class_count edf) (Vtedf.total_rate edf);
            }
      | _ -> None)
    (Topology.links (Broker.topology broker))

let check ?(eps = default_eps) broker =
  if Obs_log.active () then Obs_log.count "bb_audit_runs_total";
  let { delta; orphans } = reconcile ~eps broker in
  let orphan_violations =
    List.map
      (fun (r : Flow_mib.record) ->
        {
          kind = Orphan_flow;
          subject = Printf.sprintf "flow %d" r.Flow_mib.flow;
          detail =
            Printf.sprintf
              "flow-MIB record at %.6g b/s has no backing link reservations"
              r.Flow_mib.reservation.Types.rate;
        })
      orphans
  in
  let link_violations =
    Topology.links (Broker.topology broker)
    |> List.filter_map (fun (l : Topology.link) ->
           let d =
             Option.value ~default:0. (Hashtbl.find_opt delta l.Topology.link_id)
           in
           if d > eps then
             Some
               {
                 kind = Leaked_bandwidth;
                 subject = Printf.sprintf "link %d" l.Topology.link_id;
                 detail =
                   Printf.sprintf
                     "%.6g b/s reserved beyond what any flow or macroflow accounts for"
                     d;
               }
           else if d < -.eps then
             Some
               {
                 kind = Missing_bandwidth;
                 subject = Printf.sprintf "link %d" l.Topology.link_id;
                 detail =
                   Printf.sprintf
                     "%.6g b/s of booked reservations missing from the link"
                     (-.d);
               }
           else None)
  in
  let violations =
    orphan_violations @ link_violations
    @ membership_violations broker
    @ accounting_violations ~eps broker
    @ hold_violations broker
    @ schedulability_violations broker
  in
  List.iter count_violation violations;
  {
    violations;
    flows = Flow_mib.count (Broker.flow_mib broker);
    members = Aggregate.member_count (Broker.aggregate broker);
    macroflows = List.length (Aggregate.all_macroflows (Broker.aggregate broker));
    links = Topology.num_links (Broker.topology broker);
  }

type repair_outcome = { found : report; repaired : int; remaining : report }

let count_repair kind =
  if Obs_log.active () then
    Obs_log.count "bb_audit_repairs_total" ~labels:[ ("kind", kind_label kind) ]

let repair ?(eps = default_eps) broker =
  let found = check ~eps broker in
  let repaired = ref 0 in
  let fix kind = incr repaired; count_repair kind in
  (* Expired holds first, through the broker's own expiry path, so the
     reconciliation below sees their bandwidth freed. *)
  Broker.expire broker;
  List.iter (fun v -> if v.kind = Expired_hold then fix Expired_hold) found.violations;
  (* Orphan flow records are pure MIB garbage: the link bandwidth was
     never (or is no longer) reserved, so removal must not release. *)
  let { delta; orphans } = reconcile ~eps broker in
  List.iter
    (fun (r : Flow_mib.record) ->
      match Flow_mib.remove (Broker.flow_mib broker) r.Flow_mib.flow with
      | Some _ -> fix Orphan_flow
      | None -> ())
    orphans;
  (* Reconcile the aggregate owner/member tables. *)
  let fixed = Aggregate.repair_membership (Broker.aggregate broker) in
  for _ = 1 to fixed do
    fix Dangling_membership
  done;
  (* Finally settle the per-link bandwidth drift that survives orphan
     attribution: release leaks, re-reserve shortfalls (when they still
     fit — a shortfall beyond capacity is unrepairable and stays in
     [remaining]). *)
  let nm = Broker.node_mib broker in
  Hashtbl.fold (fun link_id d acc -> (link_id, d) :: acc) delta []
  |> List.sort compare
  |> List.iter (fun (link_id, d) ->
         if d > eps then (
           (try Node_mib.release nm ~link_id d
            with Invalid_argument _ -> ());
           fix Leaked_bandwidth)
         else if d < -.eps then
           try
             Node_mib.reserve nm ~link_id (-.d);
             fix Missing_bandwidth
           with Invalid_argument _ -> ());
  { found; repaired = !repaired; remaining = check ~eps broker }

(* ----------------------------------------------------------------- *)
(* Canonical digest.                                                 *)

let ids_str ids = String.concat "," (List.map string_of_int ids)

(* The flow-facing half of the digest text, shared with {!digest_of_perflow}
   so a merged sharded view and a single broker produce byte-identical
   digests.  [flows] must already be in ascending flow-id order; the
   per-link flow contributions are summed in that order (bit-exact). *)
let add_flow_lines buf flows =
  let pf = Printf.sprintf "%h" in
  List.iter
    (fun (flow, rate, delay, links) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d %s %s %s\n" flow (pf rate) (pf delay)
           (ids_str links)))
    flows

let flow_rate_sums flows =
  let sums = Hashtbl.create 32 in
  List.iter
    (fun (_flow, rate, _delay, links) ->
      List.iter
        (fun link_id ->
          Hashtbl.replace sums link_id
            (Option.value ~default:0. (Hashtbl.find_opt sums link_id) +. rate))
        links)
    flows;
  sums

let add_link_lines buf topo ~flow_sum ~macro_sum =
  let pf = Printf.sprintf "%h" in
  List.iter
    (fun (l : Topology.link) ->
      let id = l.Topology.link_id in
      Buffer.add_string buf
        (Printf.sprintf "link %d %s %s %s\n" id
           (if Topology.link_is_up topo ~link_id:id then "up" else "down")
           (pf (Option.value ~default:0. (Hashtbl.find_opt flow_sum id)))
           (pf (Option.value ~default:0. (Hashtbl.find_opt macro_sum id)))))
    (Topology.links topo)

let flow_tuple (r : Flow_mib.record) =
  ( r.Flow_mib.flow,
    r.Flow_mib.reservation.Types.rate,
    r.Flow_mib.reservation.Types.delay,
    Topology.link_ids r.Flow_mib.path.Path_mib.links )

let digest_of_perflow ~topology flows =
  let flows = List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) flows in
  let buf = Buffer.create 4096 in
  add_flow_lines buf flows;
  add_link_lines buf topology ~flow_sum:(flow_rate_sums flows)
    ~macro_sum:(Hashtbl.create 1);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let mib_digest broker =
  let buf = Buffer.create 4096 in
  let flow_tuples = List.map flow_tuple (sorted_flows broker) in
  add_flow_lines buf flow_tuples;
  let macros = sorted_macros broker in
  let agg = Broker.aggregate broker in
  List.iter
    (fun ((s : Aggregate.macro_stats), (info : Path_mib.info)) ->
      Buffer.add_string buf
        (Printf.sprintf "macro %d %s n=%d base=%h conting=%h edge=%h\n"
           s.Aggregate.class_id
           (ids_str (Topology.link_ids info.Path_mib.links))
           s.Aggregate.members s.Aggregate.base_rate s.Aggregate.contingency
           s.Aggregate.edge_bound))
    macros;
  List.iter
    (fun (flow, (class_id, path_id)) ->
      let links =
        match Path_mib.find (Broker.path_mib broker) ~path_id with
        | Some info -> ids_str (Topology.link_ids info.Path_mib.links)
        | None -> "?"
      in
      Buffer.add_string buf
        (Printf.sprintf "member %d %d %s\n" flow class_id links))
    (Aggregate.owners_alist agg);
  (* Per-link reserved rate, recomputed in canonical order on both sides
     of a comparison: flow contributions summed in flow-id order,
     aggregate contributions summed in macro order. *)
  let topo = Broker.topology broker in
  let flow_sum = flow_rate_sums flow_tuples in
  let macro_sum = Hashtbl.create 32 in
  List.iter
    (fun ((s : Aggregate.macro_stats), (info : Path_mib.info)) ->
      let amount = s.Aggregate.base_rate +. s.Aggregate.contingency in
      List.iter
        (fun (l : Topology.link) ->
          let id = l.Topology.link_id in
          Hashtbl.replace macro_sum id
            (Option.value ~default:0. (Hashtbl.find_opt macro_sum id) +. amount))
        info.Path_mib.links)
    macros;
  add_link_lines buf topo ~flow_sum ~macro_sum;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s: %s" (kind_label v.kind) v.subject v.detail

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "audit clean: %d flows, %d members, %d macroflows, %d links"
      r.flows r.members r.macroflows r.links
  else
    Fmt.pf ppf "audit found %d violation(s):@,%a"
      (List.length r.violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.violations
