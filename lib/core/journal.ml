module Traffic = Bbr_vtrs.Traffic
module Topology = Bbr_vtrs.Topology
module Trace = Bbr_obs.Trace
module Linebuf = Bbr_util.Linebuf

let header = "bbr-journal v1"

(* Payloads are written straight into the record buffer ({!Wal}), fields
   separated by single spaces: ints in decimal, floats in [%h] notation
   (full hex precision, as in {!Snapshot}), so a round trip is
   bit-exact. *)
let kind_label : Broker.mutation -> string = function
  | Broker.Admit _ -> "admit"
  | Broker.Admit_segment _ -> "admit_segment"
  | Broker.Admit_class _ -> "admit_class"
  | Broker.Teardown _ -> "teardown"
  | Broker.Teardown_class _ -> "teardown_class"
  | Broker.Queue_emptied _ -> "queue_empty"
  | Broker.Evacuated _ -> "evacuate"
  | Broker.Link_failed _ -> "link_failed"
  | Broker.Link_restored _ -> "link_restored"

let int b n =
  Linebuf.add_char b ' ';
  Linebuf.add_int b n

let float b x =
  Linebuf.add_char b ' ';
  Linebuf.add_hfloat b x

let str b s =
  Linebuf.add_char b ' ';
  Linebuf.add_string b s

(* A comma-separated link-id list; an empty list leaves an empty field. *)
let rec more_links b = function
  | [] -> ()
  | id :: tl ->
      Linebuf.add_char b ',';
      Linebuf.add_int b id;
      more_links b tl

let links b l =
  Linebuf.add_char b ' ';
  match l with
  | [] -> ()
  | id :: tl ->
      Linebuf.add_int b id;
      more_links b tl

(* The shared fields of [admit], [admitseg] and [admitc]. *)
let request b (r : Types.request) =
  let p = r.Types.profile in
  float b p.Traffic.sigma;
  float b p.Traffic.rho;
  float b p.Traffic.peak;
  float b p.Traffic.lmax;
  float b r.Types.dreq;
  str b r.Types.ingress;
  str b r.Types.egress

(* A record kind and its first int field. *)
let tagged b tag n =
  Linebuf.add_string b tag;
  int b n

let booking b tag ({ flow; request = r; rate; delay; links = l } : Broker.booking) =
  tagged b tag flow;
  request b r;
  float b rate;
  float b delay;
  links b l

let write_payload b (m : Broker.mutation) =
  match m with
  | Broker.Admit bk -> booking b "admit" bk
  | Broker.Admit_segment bk -> booking b "admitseg" bk
  | Broker.Admit_class { flow; class_id; request = r } ->
      tagged b "admitc" flow;
      int b class_id;
      request b r
  | Broker.Teardown flow -> tagged b "drop" flow
  | Broker.Teardown_class flow -> tagged b "dropc" flow
  | Broker.Queue_emptied { class_id; links = l } ->
      tagged b "qempty" class_id;
      links b l
  | Broker.Evacuated { class_id; links = l } ->
      tagged b "evac" class_id;
      links b l
  | Broker.Link_failed link_id -> tagged b "linkdown" link_id
  | Broker.Link_restored link_id -> tagged b "linkup" link_id

let payload m =
  let b = Linebuf.create 128 in
  write_payload b m;
  Linebuf.contents b

let encode ~seq ~at m =
  let b = Linebuf.create 128 in
  Wal.write_line b ~seq ~at write_payload m;
  Linebuf.contents b

(* --------------------------------------------------------------- *)
(* Decoding.  All helpers return options; nothing here may raise.  *)

let links_of_str s =
  if s = "" then Some []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
          match int_of_string_opt p with
          | Some id -> go (id :: acc) rest
          | None -> None)
    in
    go [] parts

let decode_payload fields : Broker.mutation option =
  let fl = float_of_string in
  match
    match fields with
    | [ (("admit" | "admitseg") as tag); flow; sigma; rho; peak; lmax; dreq; ingress; egress;
        rate; delay; links ] ->
        Option.map
          (fun links ->
            let b =
              {
                Broker.flow = int_of_string flow;
                request =
                  {
                    Types.profile =
                      Traffic.make ~sigma:(fl sigma) ~rho:(fl rho) ~peak:(fl peak)
                        ~lmax:(fl lmax);
                    dreq = fl dreq;
                    ingress;
                    egress;
                  };
                rate = fl rate;
                delay = fl delay;
                links;
              }
            in
            if tag = "admit" then Broker.Admit b else Broker.Admit_segment b)
          (links_of_str links)
    | [ "admitc"; flow; class_id; sigma; rho; peak; lmax; dreq; ingress; egress ] ->
        Some
          (Broker.Admit_class
             {
               flow = int_of_string flow;
               class_id = int_of_string class_id;
               request =
                 {
                   Types.profile =
                     Traffic.make ~sigma:(fl sigma) ~rho:(fl rho) ~peak:(fl peak)
                       ~lmax:(fl lmax);
                   dreq = fl dreq;
                   ingress;
                   egress;
                 };
             })
    | [ "drop"; flow ] -> Some (Broker.Teardown (int_of_string flow))
    | [ "dropc"; flow ] -> Some (Broker.Teardown_class (int_of_string flow))
    | [ "qempty"; class_id; links ] ->
        Option.map
          (fun links -> Broker.Queue_emptied { class_id = int_of_string class_id; links })
          (links_of_str links)
    | [ "evac"; class_id; links ] ->
        Option.map
          (fun links -> Broker.Evacuated { class_id = int_of_string class_id; links })
          (links_of_str links)
    | [ "linkdown"; link_id ] -> Some (Broker.Link_failed (int_of_string link_id))
    | [ "linkup"; link_id ] -> Some (Broker.Link_restored (int_of_string link_id))
    | _ -> None
  with
  | exception _ -> None
  | v -> v

let parse text = Wal.parse ~header ~decode_payload text

(* --------------------------------------------------------------- *)
(* Replay.                                                         *)

type replay_outcome = { applied : int; warning : string option }

let apply broker (m : Broker.mutation) =
  match m with
  | Broker.Admit b | Broker.Admit_segment b -> (
      (* Booked verbatim on the recorded links — never re-routed: the
         links a flow holds are what the primary decided, whatever state
         the topology (or this broker's routing) is in now. *)
      let book =
        match m with Broker.Admit _ -> Broker.book_path | _ -> Broker.book_segment
      in
      match book broker b with
      | () -> Ok ()
      | exception exn ->
          Error
            (Fmt.str "replaying admit of flow %d failed: %s" b.Broker.flow
               (Printexc.to_string exn)))
  | Broker.Admit_class { flow; class_id; request } -> (
      match Broker.request_class broker ~class_id ~flow request with
      | Ok _ -> Ok ()
      | Error r ->
          Error
            (Fmt.str "replaying class admit of flow %d failed: %a" flow
               Types.pp_reject_reason r))
  | Broker.Teardown flow ->
      Broker.teardown broker flow;
      Ok ()
  | Broker.Teardown_class flow ->
      Broker.teardown_class broker flow;
      Ok ()
  | Broker.Queue_emptied { class_id; links } -> (
      match Path_mib.find_links (Broker.path_mib broker) ~links with
      | Some info ->
          Broker.queue_empty broker ~class_id ~path_id:info.Path_mib.path_id;
          Ok ()
      | None -> Ok () (* the macroflow never re-formed; nothing to release *))
  | Broker.Evacuated { class_id; links } -> (
      match Path_mib.find_links (Broker.path_mib broker) ~links with
      | Some info ->
          ignore
            (Aggregate.evacuate (Broker.aggregate broker) ~class_id
               ~path_id:info.Path_mib.path_id);
          Ok ()
      | None -> Ok ())
  | Broker.Link_failed link_id ->
      (* Physical record: the teardown/re-admission cascade is journaled
         separately, so replay must not re-run {!Broker.fail_link}. *)
      Topology.set_link_state (Broker.topology broker) ~link_id ~up:false;
      Ok ()
  | Broker.Link_restored link_id ->
      Topology.set_link_state (Broker.topology broker) ~link_id ~up:true;
      Ok ()

let replay broker text =
  match parse text with
  | Error e -> Error e
  | Ok (entries, warning) ->
      (* A truncated tail is a countable event, not just prose: the
         fleet watches bb_journal_truncations_total, nobody greps warning
         strings. *)
      if warning <> None && Obs_log.active () then
        Obs_log.count "bb_journal_truncations_total";
      let rec go n = function
        | [] -> Ok { applied = n; warning }
        | (_at, m) :: rest -> (
            match (try apply broker m with exn -> Error (Printexc.to_string exn)) with
            | Ok () -> go (n + 1) rest
            | Error msg -> Error msg)
      in
      go 0 entries

(* --------------------------------------------------------------- *)
(* The writer: the generic {!Wal} machinery specialized to broker
   mutations and written through to a {!Storage}, plus the journal's
   metric families.                                                 *)

type t = { wal : Broker.mutation Wal.t; store : Storage.t }

let create ?fsync_every ?storage () =
  let store =
    match storage with
    | Some st -> st
    | None -> Storage.create ~vfs:(Bbr_util.Vfs.create ()) ()
  in
  let wal =
    try Wal.create ?fsync_every ~encode_payload:write_payload (Storage.sink store)
    with Invalid_argument _ ->
      invalid_arg "Journal.create: fsync_every must be >= 1"
  in
  { wal; store }

let storage t = t.store

let text_of_lines lines = Wal.text_of_lines ~header lines

let records t = Wal.records t.wal

let appended_total t = Wal.appended_total t.wal

let synced_records t = Wal.synced_records t.wal

let group t f =
  if Wal.in_group t.wal then Wal.group t.wal f
  else begin
    (* Only the outermost group is a commit boundary: one span (child of
       the enclosing batch/request span) covering everything that
       reaches the durability boundary together. *)
    let sp = Trace.start_span "bb.journal.group" in
    let before = appended_total t in
    let out =
      Fun.protect
        ~finally:(fun () ->
          Trace.finish_span
            ~attrs:[ ("records", string_of_int (appended_total t - before)) ]
            sp)
        (fun () -> Trace.with_ambient sp (fun () -> Wal.group t.wal f))
    in
    if Obs_log.active () then Obs_log.count "bb_journal_group_commits_total";
    out
  end

let on_record t f = Wal.on_record t.wal f

let append t ~at m =
  Wal.append t.wal ~at m;
  if Obs_log.active () then
    Obs_log.count "bb_journal_records_total" ~labels:[ ("kind", kind_label m) ]

let attach t broker =
  Broker.set_mutation_hook broker (fun m -> append t ~at:(Broker.now broker) m);
  (* Request batches commit as journal groups. *)
  Broker.set_batch_hook broker (fun body -> group t body)

let compact t =
  Wal.compact t.wal;
  if Obs_log.active () then Obs_log.count "bb_journal_compactions_total"

(* The first record since the last compaction has sequence number
   [appended_total - records]. *)
let tail t = Storage.tail_from t.store ~cover:(appended_total t - records t)

let text t = text_of_lines (tail t).Storage.lines

let records_on_disk t = (tail t).Storage.records
