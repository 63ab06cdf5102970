(* Fault-tolerant control plane, end to end: churn workload over a lossy
   reliable COPS channel, a link failure rerouted by the broker onto a
   protection detour, and a broker crash recovered by promoting a warm
   standby from its checkpoint and journal.  Seeded, so every run prints
   the same numbers.

   Run: dune exec examples/failover_recovery.exe *)

module Scenario = Bbr_scenario.Scenario
module Runner = Bbr_scenario.Runner

(* The fig10-failover scenario: a protection detour R3 -> R6 -> R4
   parallel to the R3 -> R4 link.  It is one hop longer, so routing
   ignores it until R3 -> R4 dies at t = 600 s — then victims are
   re-admitted over it, keeping their flow ids.  The broker crashes at
   t = 1500 s; every journal record is fsynced, so the standby promoted
   0.5 s later recovers exactly the broker's state at the crash: with a
   loss-free channel, no flow is lost. *)
let scenario ~loss = { Bbr_scenario.Matrix.fig10_failover with Scenario.loss }

let () =
  Fmt.pr "=== Failover under a loss-free channel ===@.";
  let o = Runner.run (scenario ~loss:0.) in
  Fmt.pr "%a@.@." Runner.pp_outcome o;
  assert (o.Runner.unresolved = 0);
  assert (Runner.flows_lost o = 0);
  Fmt.pr "lossless journal + no loss: crash lost %d flows@.@." (Runner.flows_lost o);

  Fmt.pr "=== Same scenario, 10%% COPS message loss ===@.";
  let o = Runner.run (scenario ~loss:0.1) in
  Fmt.pr "%a@.@." Runner.pp_outcome o;
  (* Reliability at work: despite the loss every transaction resolved. *)
  assert (o.Runner.unresolved = 0);
  Fmt.pr "every request resolved despite loss: %d retransmissions covered it@."
    o.Runner.retransmissions
