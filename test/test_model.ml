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

let () =
  Alcotest.run "model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"every front end decides what the reference broker decides"
               ~count:100 Gen.arb_storm (fun s -> Lockstep.run s));
        ] );
    ]
