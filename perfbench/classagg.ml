(* class-aggregate: one broker with the eight Table-1 delay classes and
   feedback contingency, on a single 5-hop VT-EDF chain.  Members join
   and leave a few large macroflows, and every few dozen decisions the
   edge reports each macroflow's queue empty.  There is one path, so
   routing and path bookkeeping are trivial: this is the control for any
   Path_mib or Routing change. *)

open Bbr_broker
module Prng = Bbr_util.Prng
module Topology = Bbr_vtrs.Topology
module Topo_gen = Bbr_workload.Topo_gen

let chain () = Topo_gen.chain ~capacity:200e6 ~sched:Topology.Delay_based ~hops:5 ()

let stream ~seed ~n =
  let _, ingress, egress = chain () in
  let prng = Prng.create ~seed in
  Array.init n (fun _ -> Harness.table1_request prng ~ingress ~egress)

let spec =
  {
    Single.name = "class-aggregate";
    service = Single.Class;
    make =
      (fun () ->
        let topo, _, _ = chain () in
        Broker.create ~classes:(Bbr_workload.Dynamic.service_classes 0.24)
          ~method_:Aggregate.Feedback topo);
    cap = 3000;
    warmup = 4000;
    every = 32;
    events = Single.Feedback;
  }

let run ~seed ~rounds ~ops ~trace ~spans_path =
  let reqs = stream ~seed ~n:(spec.Single.warmup + ops) in
  Single.run spec reqs ~rounds ~ops ~trace ~spans_path
