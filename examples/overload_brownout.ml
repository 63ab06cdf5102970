(* Overload tour: the same 10x-overload churn run through a flat pipeline
   (no degradation) and through the brownout controller, then the
   lease-partition soak.  The flat run sheds more work at the deadline
   because every decision pays the O(M) service time; brownout trades
   admission precision (the conservative O(1) bound) for throughput while
   the exact oracle confirms nothing unsafe was ever admitted.

   Run: dune exec examples/overload_brownout.exe *)

module Matrix = Bbr_scenario.Matrix
module Runner = Bbr_scenario.Runner
module Ov = Bbr_broker.Overload
module Lease_soak = Bbr_workload.Lease_soak

let () =
  Fmt.pr "=== flat pipeline (no brownout), 10x offered load ===@.";
  let flat = Runner.run Matrix.fig10_overload_flat in
  Fmt.pr "%a@.@." Runner.pp_outcome flat;
  Fmt.pr "=== brownout pipeline, same workload ===@.";
  let brown = Runner.run Matrix.fig10_overload in
  Fmt.pr "%a@.@." Runner.pp_outcome brown;
  Fmt.pr "decided: flat %d vs brownout %d; p99 latency: %.3f s vs %.3f s@.@."
    flat.Runner.pipeline.Ov.decided brown.Runner.pipeline.Ov.decided
    flat.Runner.p99_latency brown.Runner.p99_latency;
  Fmt.pr "=== lease partition: edge broker silent at t=150 s ===@.";
  let part = Lease_soak.run Lease_soak.default_config in
  Fmt.pr "%a@." Lease_soak.pp_outcome part;
  if
    flat.Runner.pipeline.Ov.oracle_violations = 0
    && brown.Runner.pipeline.Ov.oracle_violations = 0
    && part.Lease_soak.reclaimed_within_period
  then Fmt.pr "@.all invariants held@."
  else begin
    Fmt.pr "@.INVARIANT VIOLATION@.";
    exit 1
  end
