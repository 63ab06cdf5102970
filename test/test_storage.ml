(* The storage-fault armor: the fault-injectable Vfs, the segmented
   journal store with scrub & quarantine, dual-generation verified
   checkpoints, and the headline robustness property — any single
   injected byte/bit corruption anywhere across journal segments and
   both checkpoint generations yields either a bit-identical recovery or
   a reported-loss clean-audit prefix state.  Never a silent wrong
   state, never an exception. *)

module Topology = Bbr_vtrs.Topology
module Types = Bbr_broker.Types
module Broker = Bbr_broker.Broker
module Aggregate = Bbr_broker.Aggregate
module Journal = Bbr_broker.Journal
module Snapshot = Bbr_broker.Snapshot
module Storage = Bbr_broker.Storage
module Failover = Bbr_broker.Failover
module Audit = Bbr_broker.Audit
module Profiles = Bbr_workload.Profiles
module Vfs = Bbr_util.Vfs

let type0 = Profiles.profile 0

let req ?(ingress = "A") ?(egress = "B") ?(dreq = 3.) ?(profile = type0) () =
  { Types.profile; dreq; ingress; egress }

let two_path () =
  let t = Topology.create () in
  ignore (Topology.add_link t ~src:"A" ~dst:"M1" ~capacity:2e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"M1" ~dst:"B" ~capacity:2e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"A" ~dst:"M2" ~capacity:2e6 Topology.Rate_based);
  ignore (Topology.add_link t ~src:"M2" ~dst:"B" ~capacity:2e6 Topology.Rate_based);
  t

let classes = [ { Aggregate.class_id = 0; dreq = 3.; cd = 0.24 } ]

let mk_broker topo = Broker.create ~classes topo

let fresh_replica () = mk_broker (two_path ())

let admit broker =
  match Broker.request broker (req ()) with
  | Ok (flow, _) -> flow
  | Error e -> Alcotest.failf "unexpected rejection: %a" Types.pp_reject_reason e

let admit_class broker =
  match Broker.request_class broker (req ()) with
  | Ok (flow, _) -> flow
  | Error e -> Alcotest.failf "unexpected rejection: %a" Types.pp_reject_reason e

(* ------------------------------------------------------------------ *)
(* Vfs units *)

let test_vfs_basics () =
  let v = Vfs.create () in
  Alcotest.(check bool) "append creates" true (Vfs.append v ~name:"f" "hello " = Ok ());
  Alcotest.(check bool) "append extends" true (Vfs.append v ~name:"f" "world" = Ok ());
  Alcotest.(check bool) "read back" true (Vfs.read v ~name:"f" = Ok "hello world");
  Alcotest.(check int) "size" 11 (Vfs.size v ~name:"f");
  Alcotest.(check bool) "missing read is Eio" true (Vfs.read v ~name:"g" = Error Vfs.Eio);
  Alcotest.(check bool) "rename" true (Vfs.rename v ~src:"f" ~dst:"g" = Ok ());
  Alcotest.(check bool) "gone after rename" false (Vfs.exists v ~name:"f");
  Alcotest.(check (list string)) "list" [ "g" ] (Vfs.list v)

let test_vfs_crash_truncates_to_durable () =
  let v = Vfs.create () in
  ignore (Vfs.append v ~name:"f" "durable-part\n");
  ignore (Vfs.fsync v ~name:"f");
  ignore (Vfs.append v ~name:"f" "volatile-part\n");
  Vfs.crash v;
  match Vfs.read v ~name:"f" with
  | Error _ -> Alcotest.fail "file vanished"
  | Ok s ->
      Alcotest.(check bool) "durable prefix kept" true
        (String.length s >= String.length "durable-part\n"
        && String.sub s 0 13 = "durable-part\n");
      Alcotest.(check bool) "volatile tail torn" true
        (String.length s < String.length "durable-part\nvolatile-part\n")

let test_vfs_write_is_volatile_replace () =
  let v = Vfs.create () in
  ignore (Vfs.append v ~name:"f" "old");
  ignore (Vfs.fsync v ~name:"f");
  ignore (Vfs.write v ~name:"f" "replacement-content");
  Vfs.crash v;
  (* Truncate-then-append semantics: the unfsynced replacement is torn
     and the old durable bytes are gone — the hazard shadow+rename
     exists to avoid. *)
  (match Vfs.read v ~name:"f" with
  | Ok s ->
      Alcotest.(check bool) "old content gone, new torn" true
        (String.length s < String.length "replacement-content")
  | Error _ -> Alcotest.fail "file vanished");
  let v2 = Vfs.create () in
  ignore (Vfs.write v2 ~name:"f" "replacement");
  ignore (Vfs.fsync v2 ~name:"f");
  Vfs.crash v2;
  Alcotest.(check bool) "fsynced replace survives" true
    (Vfs.read v2 ~name:"f" = Ok "replacement")

(* A handle acts on whatever file its name names now: across a rename
   away and a new file under the name, a remove, and a crash. *)
let test_vfs_handle_follows_name () =
  let v = Vfs.create () in
  let h = Vfs.handle v ~name:"f" in
  let put s = ignore (Vfs.handle_append h (Bytes.of_string s) ~len:(String.length s)) in
  Alcotest.(check bool) "absent" false (Vfs.handle_exists h);
  Alcotest.(check bool) "fsync of an absent file" true (Vfs.handle_fsync h = Error Vfs.Eio);
  put "one ";
  Alcotest.(check bool) "created" true (Vfs.read v ~name:"f" = Ok "one ");
  ignore (Vfs.append v ~name:"f" "two ");
  put "three";
  Alcotest.(check bool) "shares the name's file" true (Vfs.read v ~name:"f" = Ok "one two three");
  ignore (Vfs.rename v ~src:"f" ~dst:"g");
  Alcotest.(check bool) "gone with the rename" false (Vfs.handle_exists h);
  put "new";
  Alcotest.(check bool) "a new file under the name" true (Vfs.read v ~name:"f" = Ok "new");
  Alcotest.(check bool) "the renamed file untouched" true (Vfs.read v ~name:"g" = Ok "one two three");
  Alcotest.(check bool) "fsync through the handle" true (Vfs.handle_fsync h = Ok ());
  put "-volatile-tail";
  Vfs.crash v;
  Alcotest.(check bool) "crash tears the unsynced half" true
    (Vfs.read v ~name:"f" = Ok "new-volati");
  Vfs.remove v ~name:"f";
  Alcotest.(check bool) "gone with the remove" false (Vfs.handle_exists h);
  put "again";
  Alcotest.(check bool) "recreated" true (Vfs.read v ~name:"f" = Ok "again")

(* Appends and fsyncs through a handle draw the same faults as by name:
   two disks on one seed and plan end byte-identical. *)
let test_vfs_handle_same_faults () =
  let faults =
    { Vfs.short_write_p = 0.3; write_eio_p = 0.1; fsync_eio_p = 0.1; fsync_lie_p = 0.1;
      capacity = Some 6000 }
  in
  let by_name = Vfs.create ~seed:3 ~faults () and by_handle = Vfs.create ~seed:3 ~faults () in
  let handles = Array.init 3 (fun i -> Vfs.handle by_handle ~name:(Printf.sprintf "f%d" i)) in
  let b = Bytes.of_string (String.make 40 'r') in
  for i = 0 to 199 do
    let k = i mod 3 and len = 1 + (i mod 40) in
    let name = Printf.sprintf "f%d" k in
    let r1 = Vfs.append_bytes by_name ~name b ~len and r2 = Vfs.handle_append handles.(k) b ~len in
    Alcotest.(check bool) "same append outcome" true (r1 = r2);
    if i mod 7 = 0 then
      Alcotest.(check bool) "same fsync outcome" true
        (Vfs.fsync by_name ~name = Vfs.handle_fsync handles.(k));
    if i = 100 then begin
      Vfs.crash by_name;
      Vfs.crash by_handle
    end
  done;
  Alcotest.(check bool) "same files" true (Vfs.export by_name = Vfs.export by_handle);
  Alcotest.(check bool) "same faults" true (Vfs.injected by_name = Vfs.injected by_handle);
  Alcotest.(check bool) "faults were drawn" true (List.length (Vfs.injected by_name) >= 4)

let test_vfs_fault_injection () =
  let faults =
    { Vfs.short_write_p = 0.5; write_eio_p = 0.2; fsync_eio_p = 0.2;
      fsync_lie_p = 0.2; capacity = Some 2000 }
  in
  let v = Vfs.create ~seed:7 ~faults () in
  let payload = String.make 64 'x' in
  let errors = ref 0 in
  for i = 0 to 99 do
    let name = Printf.sprintf "f%d" (i mod 4) in
    (match Vfs.append v ~name payload with Ok () -> () | Error _ -> incr errors);
    ignore (Vfs.fsync v ~name)
  done;
  Alcotest.(check bool) "some writes failed" true (!errors > 0);
  Alcotest.(check bool) "capacity bounds the store" true (Vfs.total_bytes v <= 2000);
  let kinds = List.map fst (Vfs.injected v) in
  Alcotest.(check bool) "short writes injected" true (List.mem "short_write" kinds);
  Alcotest.(check bool) "enospc injected" true (List.mem "enospc" kinds);
  (* Determinism: the same seed injects the same faults. *)
  let v2 = Vfs.create ~seed:7 ~faults () in
  let errors2 = ref 0 in
  for i = 0 to 99 do
    let name = Printf.sprintf "f%d" (i mod 4) in
    (match Vfs.append v2 ~name payload with Ok () -> () | Error _ -> incr errors2);
    ignore (Vfs.fsync v2 ~name)
  done;
  Alcotest.(check int) "same seed, same faults" !errors !errors2;
  Alcotest.(check bool) "same contents" true (Vfs.export v = Vfs.export v2)

let test_vfs_copy_and_corrupt () =
  let v = Vfs.create () in
  ignore (Vfs.append v ~name:"f" "abcdef");
  let c = Vfs.copy v in
  Alcotest.(check bool) "corrupt flips a bit" true (Vfs.corrupt c ~name:"f" ~at:2 ~bit:0);
  Alcotest.(check bool) "clone diverged" true (Vfs.read c ~name:"f" <> Ok "abcdef");
  Alcotest.(check bool) "original untouched" true (Vfs.read v ~name:"f" = Ok "abcdef");
  Alcotest.(check bool) "out of range refused" false (Vfs.corrupt v ~name:"f" ~at:99 ~bit:0);
  let round = Vfs.import (Vfs.export v) in
  Alcotest.(check bool) "export/import round trip" true (Vfs.export round = Vfs.export v)

(* ------------------------------------------------------------------ *)
(* The storage fixture: a busy broker journaling through a segmented
   store, two checkpoint generations, several sealed segments and an
   active tail. *)

let fixture ?(seed = 42) ?(n = 42) ?(rotate_every = 5) () =
  let vfs = Vfs.create ~seed () in
  let st = Storage.create ~rotate_every ~vfs () in
  let j = Journal.create ~fsync_every:1 ~storage:st () in
  let broker = mk_broker (two_path ()) in
  let fw =
    Failover.create ~make_standby:fresh_replica ~journal:j broker
  in
  let per_flow = ref [] in
  let last_class = ref None in
  for i = 1 to n do
    if i mod 3 = 0 then last_class := Some (admit_class broker)
    else per_flow := admit broker :: !per_flow;
    (if i mod 7 = 0 then
       match !per_flow with
       | f :: rest ->
           Broker.teardown broker f;
           per_flow := rest
       | [] -> ());
    (* Sweep contingency periodically so class joins keep fitting. *)
    (if i mod 5 = 0 then
       match !last_class with
       | Some c -> (
           match Aggregate.owner (Broker.aggregate broker) ~flow:c with
           | Some (class_id, path_id) ->
               Broker.queue_empty broker ~class_id ~path_id
           | None -> ())
       | None -> ());
    if i = n / 3 || i = 2 * n / 3 then Failover.checkpoint fw
  done;
  (broker, fw, st, j, vfs)

(* Every digest the recovered broker is allowed to land on: the oldest
   retained generation's state, then every prefix of the record chain
   from its cover onward.  O(n): one restore, then one digest per
   record. *)
let prefix_digests vfs0 =
  let vfs = Vfs.copy vfs0 in
  let st = Storage.create ~vfs () in
  match List.rev (Storage.candidates st) with
  | [] -> Alcotest.fail "fixture has no verifiable checkpoint"
  | (_gen, cover, body) :: _ ->
      let replica = fresh_replica () in
      (match Snapshot.restore replica body with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pristine restore failed: %s" e);
      let digests = ref [ Audit.mib_digest replica ] in
      let tail = Storage.tail_from st ~cover in
      (match tail.Storage.truncated with
      | Some why -> Alcotest.failf "pristine tail truncated: %s" why
      | None -> ());
      (match Journal.parse (Journal.text_of_lines tail.Storage.lines) with
      | Error e -> Alcotest.failf "pristine tail does not parse: %s" e
      | Ok (entries, _) ->
          List.iter
            (fun (_at, m) ->
              (match Journal.apply replica m with
              | Ok () -> ()
              | Error e -> Alcotest.failf "pristine apply failed: %s" e);
              digests := Audit.mib_digest replica :: !digests)
            entries);
      !digests

let cold_recover vfs =
  let st = Storage.create ~vfs () in
  Failover.recover_from ~make:fresh_replica st

(* ------------------------------------------------------------------ *)
(* Store mechanics *)

let test_segments_and_rotation () =
  let _broker, _fw, _st, _j, vfs = fixture () in
  let segs =
    List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "seg-") (Vfs.list vfs)
  in
  Alcotest.(check bool) "several segments" true (List.length segs >= 3);
  Alcotest.(check bool) "both checkpoint slots live" true
    (Vfs.exists vfs ~name:"ckpt.a" && Vfs.exists vfs ~name:"ckpt.b");
  let st2 = Storage.create ~vfs () in
  let report = Storage.scrub st2 in
  Alcotest.(check bool) "pristine store scrubs clean" true (Storage.scrub_clean report);
  Alcotest.(check int) "two verifiable generations" 2
    (List.length (Storage.candidates st2));
  match Storage.candidates st2 with
  | (g1, c1, _) :: (g2, c2, _) :: _ ->
      Alcotest.(check bool) "newest generation first" true (g1 > g2);
      Alcotest.(check bool) "newest covers more" true (c1 > c2)
  | _ -> Alcotest.fail "expected two candidates"

let test_pruning_keeps_fallback_window () =
  let _broker, _fw, st, _j, vfs = fixture () in
  (* Records below the OLDER generation's cover are pruned; the window
     between the two covers must survive for generation fallback. *)
  match List.rev (Storage.candidates st) with
  | (_g, old_cover, _) :: _ ->
      let tail = Storage.tail_from st ~cover:old_cover in
      Alcotest.(check bool) "tail from the old cover is intact" true
        (tail.Storage.truncated = None);
      Alcotest.(check bool) "old generation still replayable" true
        (tail.Storage.records > 0);
      let min_seq =
        List.fold_left
          (fun acc l ->
            match Bbr_broker.Wal.seq_of_range (Bytes.of_string l) ~pos:0 ~len:(String.length l) with
            | Some s -> min acc s
            | None -> acc)
          max_int tail.Storage.lines
      in
      Alcotest.(check int) "chain starts exactly at the old cover" old_cover min_seq;
      ignore vfs
  | [] -> Alcotest.fail "no candidates"

let test_clean_cold_recovery_is_exact () =
  let broker, _fw, _st, _j, vfs = fixture () in
  match cold_recover (Vfs.copy vfs) with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok (recovered, _restored, r) ->
      Alcotest.(check string) "digest-identical" (Audit.mib_digest broker)
        (Audit.mib_digest recovered);
      Alcotest.(check bool) "no loss reported" false (Failover.recovery_loss r);
      Alcotest.(check bool) "no truncation" true (r.Failover.sr_truncated = None)

let test_corrupt_current_gen_falls_back () =
  let broker, _fw, _st, _j, vfs = fixture () in
  let v = Vfs.copy vfs in
  let st = Storage.create ~vfs:v () in
  (match Storage.bitrot_checkpoint st with
  | Some _ -> ()
  | None -> Alcotest.fail "no checkpoint to corrupt");
  match Failover.recover_from ~make:fresh_replica st with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok (recovered, _restored, r) ->
      (* The journal is intact (fsync_every = 1): the prior generation
         plus the longer replay reconstructs the full state exactly. *)
      Alcotest.(check string) "digest-identical via prior generation"
        (Audit.mib_digest broker) (Audit.mib_digest recovered);
      Alcotest.(check bool) "fallback reported" true r.Failover.sr_fallback;
      Alcotest.(check bool) "fewer candidates than slots" true
        (List.length (Storage.candidates st) < Storage.slots_present st)

let test_warm_promote_with_corrupt_checkpoint () =
  (* Through Failover.promote itself: crash, rot the current generation,
     promote — digest-exact on the standby, loss report says fallback. *)
  let broker, fw, st, _j, _vfs = fixture () in
  let oracle = Audit.mib_digest broker in
  Failover.crash fw;
  Storage.crash st;
  ignore (Storage.bitrot_checkpoint st);
  (match Failover.promote fw with
  | Error e -> Alcotest.failf "promote failed: %s" e
  | Ok _ -> ());
  Alcotest.(check string) "promoted standby digest-exact" oracle
    (Audit.mib_digest (Failover.active fw));
  match Failover.last_recovery fw with
  | None -> Alcotest.fail "no recovery report"
  | Some r -> Alcotest.(check bool) "fallback recorded" true r.Failover.sr_fallback

let test_sealed_corruption_quarantines () =
  let _broker, _fw, _st, _j, vfs = fixture () in
  let v = Vfs.copy vfs in
  let st = Storage.create ~vfs:v () in
  (* Rot a byte in the newest sealed segment — above both covers, so the
     damage is in replayable territory. *)
  let sealed =
    List.filter
      (fun f ->
        String.length f > 4 && String.sub f 0 4 = "seg-"
        && (match Vfs.read v ~name:f with
           | Ok c -> (
               match String.rindex_opt (String.trim c) '\n' with
               | Some i ->
                   let last = String.sub c (i + 1) (String.length c - i - 2) in
                   String.length last > 5 && String.sub last 0 5 = "seal "
               | None -> false)
           | Error _ -> false))
      (Vfs.list v)
  in
  (match List.rev sealed with
  | name :: _ ->
      let mid = Vfs.size v ~name / 2 in
      Alcotest.(check bool) "bit flipped" true (Vfs.corrupt v ~name ~at:mid ~bit:3)
  | [] -> Alcotest.fail "no sealed segment");
  let report = Storage.scrub st in
  Alcotest.(check bool) "scrub detects" false (Storage.scrub_clean report);
  Alcotest.(check bool) "segment quarantined" true
    (report.Storage.quarantined_files <> []);
  Alcotest.(check bool) "quarantine renamed the file" true
    (List.exists (fun f -> Filename.check_suffix f ".quar") (Vfs.list v))

let test_recovery_idempotent_after_quarantine () =
  let _broker, _fw, _st, _j, vfs = fixture () in
  let v = Vfs.copy vfs in
  (* Corrupt the newest sealed segment, recover (which quarantines),
     then recover again from what remains: both recoveries land on the
     same clean prefix digest — replay after quarantine is idempotent. *)
  let st0 = Storage.create ~vfs:v () in
  let seg_of_newest_records =
    match Storage.candidates st0 with
    | (_, cover, _) :: _ -> cover
    | [] -> Alcotest.fail "no candidates"
  in
  ignore seg_of_newest_records;
  let sealed =
    List.filter
      (fun f ->
        String.length f > 4 && String.sub f 0 4 = "seg-")
      (Vfs.list v)
  in
  (match List.rev sealed with
  | _active :: prev :: _ ->
      let mid = Vfs.size v ~name:prev / 2 in
      ignore (Vfs.corrupt v ~name:prev ~at:mid ~bit:1)
  | _ -> Alcotest.fail "need at least two segments");
  let d1 =
    match cold_recover v with
    | Error e -> Alcotest.failf "first recovery failed: %s" e
    | Ok (b, _, r) ->
        Alcotest.(check bool) "loss reported" true
          (Failover.recovery_loss r || r.Failover.sr_truncated <> None);
        Audit.mib_digest b
  in
  let d2 =
    match cold_recover v with
    | Error e -> Alcotest.failf "second recovery failed: %s" e
    | Ok (b, _, _) -> Audit.mib_digest b
  in
  Alcotest.(check string) "recovery after quarantine is idempotent" d1 d2;
  let audit_ok b = Audit.ok (Audit.check b) in
  (match cold_recover v with
  | Ok (b, _, _) -> Alcotest.(check bool) "audit clean" true (audit_ok b)
  | Error e -> Alcotest.failf "third recovery failed: %s" e)

(* ------------------------------------------------------------------ *)
(* Snapshot.restore edge inputs: typed errors, never raises. *)

let test_snapshot_restore_edges () =
  let b = fresh_replica () in
  (match Snapshot.restore b "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero-length input must be a typed error");
  let header_only =
    match String.index_opt (Snapshot.save (fresh_replica ())) '\n' with
    | Some i -> String.sub (Snapshot.save (fresh_replica ())) 0 (i + 1)
    | None -> Alcotest.fail "snapshot has no header line"
  in
  (match Snapshot.restore b header_only with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "header-only restored %d reservations" n
  | Error e -> Alcotest.failf "header-only must be an empty Ok restore: %s" e);
  let full = Snapshot.save (let br = fresh_replica () in ignore (admit br); br) in
  let truncated = String.sub full 0 (String.length full - String.length full / 3) in
  (match Snapshot.restore b truncated with
  | Error _ -> ()  (* typed error is the contract *)
  | Ok _ ->
      (* A cut that happens to land on a line boundary can restore a
         prefix; that is also acceptable — what matters is no raise. *)
      ());
  (* And the broker was not half-mutated by any failed restore. *)
  Alcotest.(check int) "broker untouched by failed restores" 0
    (Broker.per_flow_count b)

(* ------------------------------------------------------------------ *)
(* The headline property. *)

type verdict =
  | Exact
  | Prefix_reported
  | Silent of string
  | Raised of string
  | Unrecoverable of string

let verdict_label = function
  | Exact -> "exact"
  | Prefix_reported -> "prefix"
  | Silent s -> "SILENT: " ^ s
  | Raised s -> "RAISED: " ^ s
  | Unrecoverable s -> "UNRECOVERABLE: " ^ s

(* One trial: flip [bit] of byte [at] in [file] of a pristine clone,
   recover cold, classify. *)
let corruption_verdict ~digest_full ~digests vfs0 ~file ~at ~bit =
  let v = Vfs.copy vfs0 in
  if not (Vfs.corrupt v ~name:file ~at ~bit) then Exact (* out of range: no-op *)
  else
    match cold_recover v with
    | exception exn -> Raised (Printexc.to_string exn)
    | Error e -> Unrecoverable e
    | Ok (b, _, r) ->
        let d = Audit.mib_digest b in
        if d = digest_full then Exact
        else if not (List.mem d digests) then
          Silent
            (Printf.sprintf "%s@%d.%d: digest not a valid prefix state" file at bit)
        else if
          not
            (Failover.recovery_loss r
            || r.Failover.sr_truncated <> None)
        then Silent (Printf.sprintf "%s@%d.%d: loss not reported" file at bit)
        else if not (Audit.ok (Audit.check b)) then
          Silent (Printf.sprintf "%s@%d.%d: prefix state fails audit" file at bit)
        else Prefix_reported

let fixture_for_props = lazy (
  let broker, _fw, _st, _j, vfs = fixture () in
  let digest_full = Audit.mib_digest broker in
  let digests = prefix_digests vfs in
  (match digests with
  | newest :: _ ->
      if newest <> digest_full then
        Alcotest.fail "ground truth mismatch: full prefix digest <> live digest"
  | [] -> Alcotest.fail "no prefix digests");
  (vfs, digest_full, digests))

let prop_single_corruption =
  QCheck.Test.make ~count:160
    ~name:"single corruption -> exact or reported-loss clean prefix"
    QCheck.(triple (float_bound_exclusive 1.) (float_bound_exclusive 1.) (int_bound 7))
    (fun (ffile, foff, bit) ->
      let vfs, digest_full, digests = Lazy.force fixture_for_props in
      let files = Vfs.list vfs in
      let file = List.nth files (int_of_float (ffile *. float (List.length files))) in
      let size = max 1 (Vfs.size vfs ~name:file) in
      let at = int_of_float (foff *. float size) in
      match corruption_verdict ~digest_full ~digests vfs ~file ~at ~bit with
      | Exact | Prefix_reported -> true
      | v -> QCheck.Test.fail_report (verdict_label v))

(* Deterministic corners of the same property, pinned as named
   regressions (each once chased a real bug class during development:
   checkpoint metadata, segment footers, torn active tails). *)
let pinned_corruptions () =
  let vfs, digest_full, digests = Lazy.force fixture_for_props in
  let try_named name ~file ~at ~bit =
    match corruption_verdict ~digest_full ~digests vfs ~file ~at ~bit with
    | Exact | Prefix_reported -> ()
    | v -> Alcotest.failf "%s: %s" name (verdict_label v)
  in
  (* The cover digit of the newest checkpoint: a flip here must not
     silently shift the replay start (CRC covers the metadata line). *)
  let newest_slot =
    let st = Storage.create ~vfs:(Vfs.copy vfs) () in
    match Storage.candidates st with
    | (_, _, _) :: _ ->
        if Vfs.size vfs ~name:"ckpt.a" > 0 then "ckpt.a" else "ckpt.b"
    | [] -> Alcotest.fail "no checkpoints"
  in
  try_named "checkpoint metadata flip" ~file:newest_slot ~at:18 ~bit:0;
  try_named "checkpoint header flip" ~file:newest_slot ~at:1 ~bit:5;
  (* A sealed segment footer and a record in its middle. *)
  let segs =
    List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "seg-")
      (Vfs.list vfs)
  in
  (match segs with
  | first :: _ ->
      try_named "sealed footer flip" ~file:first
        ~at:(Vfs.size vfs ~name:first - 3) ~bit:2;
      try_named "sealed record flip" ~file:first
        ~at:(Vfs.size vfs ~name:first / 2) ~bit:7
  | [] -> Alcotest.fail "no segments");
  (* The active segment's final record — the torn-tail case. *)
  (match List.rev segs with
  | last :: _ ->
      try_named "active tail flip" ~file:last ~at:(Vfs.size vfs ~name:last - 2) ~bit:0
  | [] -> ())

let () =
  Alcotest.run "storage"
    [
      ( "vfs",
        [
          Alcotest.test_case "basics" `Quick test_vfs_basics;
          Alcotest.test_case "crash truncates to durable" `Quick
            test_vfs_crash_truncates_to_durable;
          Alcotest.test_case "write is a volatile replace" `Quick
            test_vfs_write_is_volatile_replace;
          Alcotest.test_case "fault injection is seeded" `Quick
            test_vfs_fault_injection;
          Alcotest.test_case "copy and corrupt" `Quick test_vfs_copy_and_corrupt;
          Alcotest.test_case "a handle follows its name" `Quick test_vfs_handle_follows_name;
          Alcotest.test_case "a handle draws the same faults" `Quick test_vfs_handle_same_faults;
        ] );
      ( "store",
        [
          Alcotest.test_case "segments, rotation, dual generations" `Quick
            test_segments_and_rotation;
          Alcotest.test_case "pruning keeps the fallback window" `Quick
            test_pruning_keeps_fallback_window;
          Alcotest.test_case "clean cold recovery is exact" `Quick
            test_clean_cold_recovery_is_exact;
          Alcotest.test_case "corrupt current generation falls back" `Quick
            test_corrupt_current_gen_falls_back;
          Alcotest.test_case "warm promote over corrupt checkpoint" `Quick
            test_warm_promote_with_corrupt_checkpoint;
          Alcotest.test_case "sealed corruption quarantines" `Quick
            test_sealed_corruption_quarantines;
          Alcotest.test_case "recovery idempotent after quarantine" `Quick
            test_recovery_idempotent_after_quarantine;
        ] );
      ( "snapshot-edges",
        [ Alcotest.test_case "restore edge inputs" `Quick test_snapshot_restore_edges ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_single_corruption;
          Alcotest.test_case "pinned corruption regressions" `Quick
            pinned_corruptions;
        ] );
    ]
