(* A single broker whose every decision is made durable: a [Journal]
   with [fsync_every:1] writing through a segmented [Storage] on an
   in-memory [Vfs].  Recovery and the correctness gates of the two
   single-broker workloads live here too. *)

open Bbr_broker
open Harness

type t = {
  broker : Broker.t;
  journal : Journal.t;
  store : Storage.t;
}

let create make =
  let store = Storage.create ~vfs:(Bbr_util.Vfs.create ()) () in
  let journal = Journal.create ~fsync_every:1 ~storage:store () in
  let broker = make () in
  Journal.attach journal broker;
  { broker; journal; store }

let store_bytes st =
  let vfs = Storage.vfs st in
  List.fold_left (fun acc name -> acc + Bbr_util.Vfs.size vfs ~name) 0 (Bbr_util.Vfs.list vfs)

(* The live half of the gates: the MIBs audit clean.  Returns the digest
   the recovered broker must reproduce. *)
let live_digest t =
  let report = Audit.check t.broker in
  if Audit.ok report then Ok (Audit.mib_digest t.broker)
  else Error (Fmt.str "audit: %a" Audit.pp_report report)

let matches digest recovered =
  if Audit.mib_digest recovered = digest then Ok ()
  else Error "recovered MIB digest differs from the live one"

(* Cold rebuild from the durable bytes.  The store holds the whole
   journal (no checkpoint), so this replays every record since genesis. *)
let recover ~make store =
  match Failover.recover_from ~make store with
  | Ok (b, _, sr) when not (Failover.recovery_loss sr) -> b
  | Ok _ -> failwith "recovery reported data loss"
  | Error e -> failwith ("recovery: " ^ e)

(* The same rebuild in its two halves, timed apart: [Storage.tail_from]
   of the record chain, and a [Journal.apply] loop over it.  Returns
   (tail_from ns, apply ns, records, recovered broker). *)
let recover_parts ~make store =
  let standby = make () in
  let t0 = now () in
  let tail = Storage.tail_from store ~cover:0 in
  let t1 = now () in
  let entries =
    match Journal.parse (Journal.text_of_lines tail.Storage.lines) with
    | Ok (entries, None) -> entries
    | Ok (_, Some w) -> failwith ("journal truncated: " ^ w)
    | Error e -> failwith ("journal: " ^ e)
  in
  let t2 = now () in
  List.iter
    (fun (_, mu) -> match Journal.apply standby mu with Ok () -> () | Error e -> failwith e)
    entries;
  let t3 = now () in
  (t1 - t0, t3 - t2, List.length entries, standby)
