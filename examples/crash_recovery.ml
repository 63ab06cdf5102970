(* Crash-consistent recovery, end to end: the broker write-ahead journals
   every state mutation, a fault-injection hook kills it at an exact
   journal record boundary mid-churn, and the promoted standby replays
   checkpoint + journal tail.  The proof of correctness is the canonical
   MIB digest: with every record fsynced, the recovered broker must be
   bit-for-bit decision-equivalent to the one that died — zero lost, zero
   phantom reservations.  A second run with a lazy fsync shows the
   honest counterpart: the disk crash keeps only half of the unsynced
   bytes, so the unsynced tail is lost from a torn record on, and the
   replay stops cleanly at the cut with a warning.

   Run: dune exec examples/crash_recovery.exe *)

module Scenario = Bbr_scenario.Scenario
module Runner = Bbr_scenario.Runner

(* Kill the primary the instant journal record #150 is appended —
   deliberately long after the last checkpoint (period 333 s), so
   recovery has to combine the snapshot with a journal tail dozens of
   records deep. *)
let scenario ~fsync_every =
  { Bbr_scenario.Matrix.fig10_crash_at_record with Scenario.journal = Some fsync_every }

let () =
  Fmt.pr "=== Crash at a record boundary, fsync every record ===@.";
  let o = Runner.run (scenario ~fsync_every:1) in
  Fmt.pr "%a@.@." Runner.pp_outcome o;
  assert (o.Runner.promote_error = None);
  assert (o.Runner.unresolved = 0);
  (* Every record reached the disk, so recovery is exact: the standby's
     digest equals the dying primary's, and no flow was lost. *)
  assert (o.Runner.records_lost = 0);
  assert (Runner.flows_lost o = 0);
  if o.Runner.crash_digests_match <> Some true then begin
    Fmt.epr "the recovered broker's digest differs from the crashed one's@.";
    exit 1
  end;
  Fmt.pr "PASS: recovered broker is digest-identical to the crashed one@.@.";

  Fmt.pr "=== Same crash, fsync every 64 records ===@.";
  let o = Runner.run (scenario ~fsync_every:64) in
  Fmt.pr "%a@.@." Runner.pp_outcome o;
  assert (o.Runner.promote_error = None);
  assert (o.Runner.unresolved = 0);
  (* The journal is compacted at every checkpoint, so the fsync boundary
     runs over the records since the last compaction: 69 at the crash, 5
     of them past the boundary.  Those 5 sit in a fresh segment after its
     unsynced 13-byte header line, and their lines are 156, 42, 42, 155
     and 42 bytes long.  The crash keeps 225 of those 450 unsynced bytes:
     the header and the first two records fit whole, the third is torn,
     so exactly 3 records are lost and nothing before the boundary is. *)
  let unsynced = o.Runner.records_at_crash mod 64 in
  assert (o.Runner.records_at_crash = 69);
  assert (o.Runner.records_lost = 3);
  assert (o.Runner.storage_truncated <> None);
  Fmt.pr "PASS: lazy fsync lost %d of the %d unsynced records, from a torn one on@."
    o.Runner.records_lost unsynced
