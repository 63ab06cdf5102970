module Vfs = Bbr_util.Vfs
module Crc32 = Bbr_util.Crc32
module Flight = Bbr_obs.Flight

type t = {
  vfs : Vfs.t;
  rotate_every : int;
  mutable active : int;  (* segment number currently appended to *)
  mutable active_name : string;  (* [seg_name active], kept off the append path *)
  mutable active_records : int;  (* appends since the last rotation *)
  mutable next_gen : int;
}

let seg_prefix = "seg-"
let seg_suffix = ".log"
let seg_name n = Printf.sprintf "%s%06d%s" seg_prefix n seg_suffix
let slot_a = "ckpt.a"
let slot_b = "ckpt.b"
let shadow = "ckpt.tmp"

let seg_no name =
  if
    String.length name = String.length (seg_name 0)
    && String.sub name 0 (String.length seg_prefix) = seg_prefix
    && Filename.check_suffix name seg_suffix
  then
    int_of_string_opt
      (String.sub name (String.length seg_prefix)
         (String.length name - String.length seg_prefix - String.length seg_suffix))
  else None

(* Live segments, (number, file) sorted ascending; quarantined [*.quar]
   files never match. *)
let segments t =
  List.filter_map (fun name -> Option.map (fun n -> (n, name)) (seg_no name))
    (Vfs.list t.vfs)

let detect kind =
  if Obs_log.active () then
    Obs_log.count "bb_storage_scrub_errors_total" ~labels:[ ("kind", kind) ]

let write_error kind =
  if Obs_log.active () then
    Obs_log.count "bb_storage_write_errors_total" ~labels:[ ("kind", kind) ]

let absorb op =
  match op with
  | Ok () -> ()
  | Error e -> write_error (Vfs.error_label e)

(* ----------------------------------------------------------------- *)
(* Checkpoint slots *)

(* [Some (gen, cover, body)] iff the slot text is complete and CRC-clean.
   The CRC on line 1 covers everything after it — metadata included, so
   a flipped cover digit is as detectable as a flipped snapshot byte. *)
let parse_ckpt text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl -> (
      let first = String.sub text 0 nl in
      let payload = String.sub text (nl + 1) (String.length text - nl - 1) in
      match String.split_on_char ' ' first with
      | [ "bbr-ckpt"; "v1"; crc_s ] -> (
          match Crc32.of_hex crc_s with
          | Some crc when crc = Crc32.string payload -> (
              match String.index_opt payload '\n' with
              | None -> None
              | Some nl2 -> (
                  let meta = String.sub payload 0 nl2 in
                  let body =
                    String.sub payload (nl2 + 1) (String.length payload - nl2 - 1)
                  in
                  match String.split_on_char ' ' meta with
                  | [ "gen"; g; "cover"; c ] -> (
                      match (int_of_string_opt g, int_of_string_opt c) with
                      | Some g, Some c when g >= 0 && c >= 0 -> Some (g, c, body)
                      | _ -> None)
                  | _ -> None))
          | _ -> None)
      | _ -> None)

let slot_candidates t =
  List.filter_map
    (fun slot ->
      match Vfs.read t.vfs ~name:slot with
      | Error _ -> None
      | Ok text -> parse_ckpt text)
    [ slot_a; slot_b ]

let slots_present t =
  List.length (List.filter (fun s -> Vfs.exists t.vfs ~name:s) [ slot_a; slot_b ])

(* ----------------------------------------------------------------- *)

let create ?(rotate_every = 64) ~vfs () =
  if rotate_every < 1 then invalid_arg "Storage.create: rotate_every must be >= 1";
  let t =
    { vfs; rotate_every; active = 0; active_name = seg_name 0; active_records = 0;
      next_gen = 1 }
  in
  (match List.rev (segments t) with
  | (n, _) :: _ ->
      t.active <- n + 1;
      t.active_name <- seg_name t.active
  | [] -> ());
  List.iter
    (fun (g, _, _) -> if g >= t.next_gen then t.next_gen <- g + 1)
    (slot_candidates t);
  t

let vfs t = t.vfs


(* ----------------------------------------------------------------- *)
(* Append path *)

(* The segment's record region (everything after its header line) as it
   sits on disk: newline count and CRC, computed in place. *)
let seal_footer content =
  let len = String.length content in
  let start = match String.index_opt content '\n' with None -> len | Some nl -> nl + 1 in
  let count = ref 0 in
  for i = start to len - 1 do
    if String.unsafe_get content i = '\n' then incr count
  done;
  Printf.sprintf "seal %d %s\n" !count
    (Crc32.to_hex (Crc32.substring content ~pos:start ~len:(len - start)))

let seal_active t =
  let name = t.active_name in
  if Vfs.exists t.vfs ~name then begin
    let content =
      match Vfs.read t.vfs ~name with
      | Ok c when String.length c > 0 && c.[String.length c - 1] <> '\n' ->
          (* A torn final line must not merge with the footer; the repair
             append may itself be torn, so the footer covers what it
             left. *)
          absorb (Vfs.append t.vfs ~name "\n");
          Vfs.read t.vfs ~name
      | r -> r
    in
    (match content with
    | Error e -> write_error (Vfs.error_label e)
    | Ok content ->
        (* The footer checksums the record region exactly as it sits on
           disk: "has this segment changed since sealing?" is a separate
           question from "is every record in it valid?", which the
           per-record CRCs answer. *)
        absorb (Vfs.append t.vfs ~name (seal_footer content));
        absorb (Vfs.fsync t.vfs ~name));
    t.active <- t.active + 1;
    t.active_name <- seg_name t.active;
    t.active_records <- 0
  end

let put t b len =
  let name = t.active_name in
  if not (Vfs.exists t.vfs ~name) then
    absorb (Vfs.append t.vfs ~name (Printf.sprintf "bbr-seg v1 %d\n" t.active));
  absorb (Vfs.append_bytes t.vfs ~name b ~len);
  t.active_records <- t.active_records + 1;
  if t.active_records >= t.rotate_every then seal_active t

let sync t =
  let name = t.active_name in
  if Vfs.exists t.vfs ~name then
    match Vfs.fsync t.vfs ~name with
    | Ok () -> ()
    | Error e -> write_error ("fsync_" ^ Vfs.error_label e)

let sink t = { Wal.put = (fun b len -> put t b len); sync = (fun () -> sync t) }

(* ----------------------------------------------------------------- *)
(* Segment surveying *)

type seg_info = {
  sg_header_ok : bool;
  sg_sealed : bool;
  sg_seal_ok : bool;  (* meaningless unless [sg_sealed] *)
  sg_lines : string list;  (* record region, raw lines *)
}

let survey t (no, name) =
  match Vfs.read t.vfs ~name with
  | Error _ ->
      { sg_header_ok = false; sg_sealed = false; sg_seal_ok = false; sg_lines = [] }
  | Ok content ->
      let header_ok, rest =
        match String.index_opt content '\n' with
        | None -> (false, "")
        | Some nl ->
            ( String.sub content 0 nl = Printf.sprintf "bbr-seg v1 %d" no,
              String.sub content (nl + 1) (String.length content - nl - 1) )
      in
      (* The footer, if any, is the last newline-terminated line. *)
      let sealed, seal_ok, region =
        if String.length rest = 0 || rest.[String.length rest - 1] <> '\n' then
          (false, false, rest)
        else
          let wlen = String.length rest - 1 in
          let last_start =
            match String.rindex_from_opt rest (wlen - 1) '\n' with
            | Some i -> i + 1
            | None -> 0
            | exception Invalid_argument _ -> 0
          in
          let last = String.sub rest last_start (wlen - last_start) in
          match String.split_on_char ' ' last with
          | [ "seal"; count_s; crc_s ] -> (
              let region = String.sub rest 0 last_start in
              match (int_of_string_opt count_s, Crc32.of_hex crc_s) with
              | Some count, Some crc ->
                  let nls =
                    String.fold_left
                      (fun n ch -> if ch = '\n' then n + 1 else n)
                      0 region
                  in
                  (true, count = nls && crc = Crc32.string region, region)
              | _ -> (true, false, region))
          | _ -> (false, false, rest)
      in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' region)
      in
      { sg_header_ok = header_ok; sg_sealed = sealed; sg_seal_ok = seal_ok;
        sg_lines = lines }

let quarantine t name ~kind =
  ignore (Vfs.rename t.vfs ~src:name ~dst:(name ^ ".quar"));
  detect kind;
  if Obs_log.active () then Obs_log.count "bb_storage_quarantined_total";
  Flight.trigger
    ~reason:(Printf.sprintf "storage: sealed segment %s corrupt (%s)" name kind)

let max_seq_of t (no, name) =
  let info = survey t (no, name) in
  List.fold_left
    (fun acc line ->
      match Wal.seq_of_line line with Some s -> max acc s | None -> acc)
    (-1) info.sg_lines

(* ----------------------------------------------------------------- *)
(* Recovery suffix *)

type tail = {
  lines : string list;
  records : int;
  truncated : string option;
  quarantined : string list;
}

let tail_from t ~cover =
  let segs = segments t in
  let last_no = match List.rev segs with (n, _) :: _ -> n | [] -> -1 in
  let out = ref [] and nout = ref 0 in
  let truncated = ref None and quar = ref [] in
  let expected = ref cover in
  (* Corruption is not fatal at the point it is found.  Checkpoints sit
     on segment boundaries, so a rotted sealed segment — like a CRC-dead
     line — may hide only records every surviving checkpoint already
     absorbed.  A detection therefore becomes a {e pending hole}: if a
     later valid record resumes the chain exactly at [expected], the
     hole provably hid nothing the checkpoint lacks and replay
     continues; if the chain gaps, or the log ends, while a hole is
     pending, the tail truncates at the hole.  The accounting thunk runs
     only when the hole proves fatal — segment-level detections meter
     themselves eagerly (quarantine has already happened either way),
     torn lines only if they actually cut the replay. *)
  let pending = ref None in
  let hole descr account = if !pending = None then pending := Some (descr, account) in
  let cut (descr, account) =
    truncated := Some descr;
    account ()
  in
  let seg_corrupt reason kind ~sealed ~name =
    if sealed then begin
      quarantine t name ~kind;
      quar := name :: !quar
    end
    else detect kind;
    hole reason (fun () -> ())
  in
  (* [prev_no] tracks only surveyed segments: pruning always removes a
     contiguous segno prefix, so an interior gap among segments that
     matter means a quarantined or lost file. *)
  let prev_no = ref None in
  List.iter
    (fun (no, name) ->
      if !truncated = None then begin
        let info = survey t (no, name) in
        let is_last = no = last_no in
        (* Each line's CRC is checked once. *)
        let seqs = List.map Wal.seq_of_line info.sg_lines in
        let all_valid = List.for_all Option.is_some seqs in
        let max_seq =
          List.fold_left
            (fun acc s -> match s with Some s -> max acc s | None -> acc)
            (-1) seqs
        in
        if
          info.sg_header_ok && info.sg_sealed && info.sg_seal_ok && all_valid
          && max_seq < cover
        then
          (* Intact and wholly beneath the checkpoint: retained only for
             an older generation's sake; nothing here is replayed. *)
          ()
        else begin
          (match !prev_no with
          | Some p when no <> p + 1 ->
              detect "missing_segment";
              hole
                (Printf.sprintf "segment %d missing (quarantined or lost)" (p + 1))
                (fun () -> ())
          | _ -> ());
          prev_no := Some no;
          if not info.sg_header_ok then
            seg_corrupt
              (Printf.sprintf "segment %s: bad header" name)
              "header" ~sealed:(not is_last) ~name
          else if info.sg_sealed && not info.sg_seal_ok then
            seg_corrupt
              (Printf.sprintf
                 "segment %s: footer mismatch (bytes changed since seal)" name)
              "footer" ~sealed:true ~name
          else if (not info.sg_sealed) && not is_last then
            seg_corrupt
              (Printf.sprintf "segment %s: missing footer on non-active segment"
                 name)
              "footer" ~sealed:true ~name
          else
            List.iter2
              (fun line seq ->
                if !truncated = None then
                  match seq with
                  | Some seq when seq < cover -> ()
                  | Some seq when seq = !expected ->
                      pending := None;
                      expected := seq + 1;
                      out := line :: !out;
                      incr nout
                  | Some seq -> (
                      match !pending with
                      | Some p -> cut p
                      | None ->
                          truncated :=
                            Some
                              (Printf.sprintf
                                 "segment %s: sequence gap before record %d \
                                  (expected %d)"
                                 name seq !expected);
                          detect "seq_gap")
                  | None ->
                      (* A CRC-dead record inside a bytes-intact sealed
                         segment is still sealed-segment corruption
                         (torn at write time, sealed over). *)
                      let kind = if info.sg_sealed then "record_crc" else "torn" in
                      hole
                        (Printf.sprintf "segment %s: torn or corrupt record" name)
                        (fun () ->
                          detect kind;
                          if kind = "record_crc" then
                            Flight.trigger
                              ~reason:
                                (Printf.sprintf
                                   "storage: sealed segment %s holds a corrupt \
                                    record"
                                   name)))
              info.sg_lines seqs
        end
      end)
    segs;
  (match (!truncated, !pending) with
  | None, Some p -> cut p
  | _ -> ());
  { lines = List.rev !out; records = !nout; truncated = !truncated;
    quarantined = List.rev !quar }

(* ----------------------------------------------------------------- *)
(* Checkpoints *)

let candidates t =
  List.sort (fun (g1, _, _) (g2, _, _) -> compare g2 g1) (slot_candidates t)

let newest_slot t =
  let best = ref None in
  List.iter
    (fun slot ->
      match Vfs.read t.vfs ~name:slot with
      | Error _ -> ()
      | Ok text -> (
          match parse_ckpt text with
          | Some (g, _, _) -> (
              match !best with
              | Some (g', _) when g' >= g -> ()
              | _ -> best := Some (g, slot))
          | None -> ()))
    [ slot_a; slot_b ];
  Option.map snd !best

let prune t =
  match candidates t with
  | [] -> ()
  | cs ->
      let min_cover = List.fold_left (fun m (_, c, _) -> min m c) max_int cs in
      List.iter
        (fun (no, name) ->
          if no < t.active && max_seq_of t (no, name) < min_cover then
            Vfs.remove t.vfs ~name)
        (segments t)

let checkpoint t ~cover body =
  (* Rotate so checkpoints sit on segment boundaries and pruning can
     drop whole segments. *)
  seal_active t;
  let gen = t.next_gen in
  let payload = Printf.sprintf "gen %d cover %d\n%s" gen cover body in
  let text =
    Printf.sprintf "bbr-ckpt v1 %s\n%s" (Crc32.to_hex (Crc32.string payload)) payload
  in
  let wrote = Vfs.write t.vfs ~name:shadow text in
  let synced = match wrote with Ok () -> Vfs.fsync t.vfs ~name:shadow | e -> e in
  let verified =
    match (synced, Vfs.read t.vfs ~name:shadow) with
    | Ok (), Ok back -> back = text
    | _ -> false
  in
  if verified then begin
    let target =
      match newest_slot t with
      | Some s when s = slot_a -> slot_b
      | Some _ -> slot_a
      | None -> slot_a
    in
    match Vfs.rename t.vfs ~src:shadow ~dst:target with
    | Ok () ->
        t.next_gen <- gen + 1;
        prune t;
        if Obs_log.active () then Obs_log.count "bb_storage_checkpoints_total";
        Ok gen
    | Error e ->
        write_error (Vfs.error_label e);
        Error "checkpoint rename failed"
  end
  else begin
    (match wrote with Error e -> write_error (Vfs.error_label e) | Ok () -> ());
    Vfs.remove t.vfs ~name:shadow;
    if Obs_log.active () then Obs_log.count "bb_storage_checkpoint_failures_total";
    Error "checkpoint shadow failed verification; previous generations kept"
  end

(* ----------------------------------------------------------------- *)
(* Scrub *)

type scrub_report = {
  segments_checked : int;
  errors : (string * string) list;
  quarantined_files : string list;
  checkpoints_ok : int;
  checkpoints_bad : int;
}

let scrub_clean r = r.errors = [] && r.checkpoints_bad = 0

let scrub t =
  let segs = segments t in
  let last_no = match List.rev segs with (n, _) :: _ -> n | [] -> -1 in
  let errors = ref [] and quar = ref [] in
  let err name kind ~sealed =
    errors := (name, kind) :: !errors;
    if sealed then begin
      quar := name :: !quar;
      quarantine t name ~kind
    end
    else detect kind
  in
  List.iter
    (fun (no, name) ->
      let info = survey t (no, name) in
      let is_last = no = last_no in
      if not info.sg_header_ok then err name "header" ~sealed:(not is_last)
      else if info.sg_sealed && not info.sg_seal_ok then
        err name "footer" ~sealed:true
      else if (not info.sg_sealed) && not is_last then
        err name "footer" ~sealed:true
      else begin
        (* Bytes are as sealed (or this is the live tail): validate the
           records themselves.  Within one segment sequence numbers must
           be contiguous. *)
        let expected = ref None in
        let bad = ref false in
        List.iter
          (fun line ->
            if not !bad then
              match Wal.seq_of_line line with
              | Some seq -> (
                  match !expected with
                  | Some e when seq <> e -> bad := true
                  | _ -> expected := Some (seq + 1))
              | None -> bad := true)
          info.sg_lines;
        if !bad then begin
          let kind = if info.sg_sealed then "record_crc" else "torn" in
          errors := (name, kind) :: !errors;
          detect kind;
          if info.sg_sealed then
            Flight.trigger
              ~reason:
                (Printf.sprintf "storage: sealed segment %s corrupt (%s)" name kind)
        end
      end)
    segs;
  let ok = ref 0 and bad = ref 0 in
  List.iter
    (fun slot ->
      match Vfs.read t.vfs ~name:slot with
      | Error _ -> ()
      | Ok text -> (
          match parse_ckpt text with
          | Some _ -> incr ok
          | None ->
              incr bad;
              errors := (slot, "checkpoint") :: !errors;
              detect "checkpoint"))
    [ slot_a; slot_b ];
  {
    segments_checked = List.length segs;
    errors = List.rev !errors;
    quarantined_files = List.rev !quar;
    checkpoints_ok = !ok;
    checkpoints_bad = !bad;
  }

(* ----------------------------------------------------------------- *)

let crash t = Vfs.crash t.vfs

let bitrot_checkpoint t =
  match newest_slot t with
  | None -> None
  | Some slot ->
      ignore (Vfs.bitrot t.vfs ~name:slot);
      Some slot
