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
(* Decoding.  Each field is read in place by {!Linebuf}'s reader,
   which turns a malformed one into [None]; nothing here may raise. *)

(* The reader's twins of the writers above: each field after the first
   follows a single space. *)
let get_int r =
  Linebuf.expect r ' ';
  Linebuf.read_int r

let get_float r =
  Linebuf.expect r ' ';
  Linebuf.read_hfloat r

let get_word r =
  Linebuf.expect r ' ';
  Linebuf.read_word r

let get_links r =
  Linebuf.expect r ' ';
  Linebuf.read_ints r

(* Fields are read in the order they were written: [let] fixes it. *)
let get_request r =
  let sigma = get_float r in
  let rho = get_float r in
  let peak = get_float r in
  let lmax = get_float r in
  let dreq = get_float r in
  let ingress = get_word r in
  let egress = get_word r in
  { Types.profile = Traffic.make ~sigma ~rho ~peak ~lmax; dreq; ingress; egress }

let get_booking r =
  let flow = get_int r in
  let request = get_request r in
  let rate = get_float r in
  let delay = get_float r in
  let links = get_links r in
  { Broker.flow; request; rate; delay; links }

let decode_payload r : Broker.mutation option =
  match
    match Linebuf.read_word r with
    | "admit" -> Some (Broker.Admit (get_booking r))
    | "admitseg" -> Some (Broker.Admit_segment (get_booking r))
    | "admitc" ->
        let flow = get_int r in
        let class_id = get_int r in
        Some (Broker.Admit_class { flow; class_id; request = get_request r })
    | "drop" -> Some (Broker.Teardown (get_int r))
    | "dropc" -> Some (Broker.Teardown_class (get_int r))
    | "qempty" ->
        let class_id = get_int r in
        Some (Broker.Queue_emptied { class_id; links = get_links r })
    | "evac" ->
        let class_id = get_int r in
        Some (Broker.Evacuated { class_id; links = get_links r })
    | "linkdown" -> Some (Broker.Link_failed (get_int r))
    | "linkup" -> Some (Broker.Link_restored (get_int r))
    | _ -> None
  with
  | v -> v
  (* A well-formed record of an impossible profile. *)
  | exception Invalid_argument _ -> None

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
      match Broker.book_class broker ~class_id ~flow request with
      | Ok () -> Ok ()
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

(* A truncated tail is a countable event, not just prose: the fleet
   watches bb_journal_truncations_total, nobody greps warning strings. *)
let count_truncation warning =
  if warning <> None && Obs_log.active () then Obs_log.count "bb_journal_truncations_total"

let apply_caught broker m = try apply broker m with exn -> Error (Printexc.to_string exn)

let replay broker text =
  match parse text with
  | Error e -> Error e
  | Ok (entries, warning) ->
      count_truncation warning;
      let rec go n = function
        | [] -> Ok { applied = n; warning }
        | (_at, m) :: rest -> (
            match apply_caught broker m with
            | Ok () -> go (n + 1) rest
            | Error msg -> Error msg)
      in
      go 0 entries

let replay_from broker store ~cover =
  let chain = Wal.chain ~decode_payload in
  let warning = ref None in
  let outcome, tail =
    Storage.fold_tail store ~cover ~init:(Ok 0) (fun acc b ~pos ~len ->
        match acc with
        | Ok n when !warning = None -> (
            match Wal.next_record chain b ~pos ~len with
            | Error w ->
                warning := Some w;
                acc
            | Ok (_at, m) -> (
                match apply_caught broker m with Ok () -> Ok (n + 1) | Error _ as e -> e))
        | _ -> acc)
  in
  count_truncation !warning;
  (tail, Result.map (fun applied -> { applied; warning = !warning }) outcome)

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
