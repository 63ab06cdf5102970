(* Path-oriented admission control at work (paper Section 3.2).

   Fills the mixed Figure-8 path with per-flow requests and prints, for
   every admission, the rate-delay pair the O(M) exact interval evaluation
   picked and the number of distinct delay values M it had to examine — contrast
   with the IntServ baseline, which runs one local test per hop and books
   per-flow state at every router.

   Run with: dune exec examples/perflow_path_admission.exe *)

module Topology = Bbr_vtrs.Topology
module Vtedf = Bbr_vtrs.Vtedf
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Admission = Bbr_broker.Admission
module Node_mib = Bbr_broker.Node_mib
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles
module Gs = Bbr_intserv.Gs_admission

let () =
  let dreq = 2.19 in
  let topo = Fig8.topology `Mixed in
  let broker = Broker.create topo in
  let req =
    { Types.profile = Profiles.profile 0; dreq; ingress = Fig8.ingress1; egress = Fig8.egress1 }
  in
  Fmt.pr "Per-flow BB/VTRS on the mixed Figure-8 path (bound %.2f s)@." dreq;
  Fmt.pr "%4s  %12s  %10s  %6s@." "n" "rate (b/s)" "delay (s)" "M";
  let continue = ref true in
  let n = ref 0 in
  while !continue do
    (* Peek at M: the distinct delay values across the path's VT-EDF
       schedulers, which bounds the admission algorithm's work. *)
    let distinct_delays =
      match Broker.route_of broker req with
      | None -> 0
      | Some path ->
          let module S = Set.Make (Float) in
          List.fold_left
            (fun acc (l : Topology.link) ->
              match (Node_mib.entry (Broker.node_mib broker) ~link_id:l.Topology.link_id).Node_mib.edf with
              | Some edf ->
                  List.fold_left
                    (fun acc (k : Vtedf.klass) -> S.add k.Vtedf.delay acc)
                    acc (Vtedf.classes edf)
              | None -> acc)
            S.empty path.Bbr_broker.Path_mib.links
          |> S.cardinal
    in
    match Broker.request broker req with
    | Ok (_, res) ->
        incr n;
        Fmt.pr "%4d  %12.1f  %10.4f  %6d@." !n res.Types.rate res.Types.delay
          distinct_delays
    | Error reason ->
        Fmt.pr "flow %d rejected: %a@." (!n + 1) Types.pp_reject_reason reason;
        continue := false
  done;
  Fmt.pr "@.admitted %d flows; broker holds all state, core routers none.@." !n;

  (* The same workload through the IntServ/GS baseline. *)
  let gs = Gs.create topo in
  let m = ref 0 in
  let continue = ref true in
  while !continue do
    match Gs.request gs req with Ok _ -> incr m | Error _ -> continue := false
  done;
  Fmt.pr "@.IntServ/GS baseline admitted %d flows,@." !m;
  Fmt.pr "  ran %d local hop tests,@." (Gs.hop_tests gs);
  Fmt.pr "  and left %d per-flow entries spread across the routers.@."
    (Gs.router_flow_state gs)
