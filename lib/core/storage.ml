module Vfs = Bbr_util.Vfs
module Crc32 = Bbr_util.Crc32
module Flight = Bbr_obs.Flight
module Linebuf = Bbr_util.Linebuf

type t = {
  vfs : Vfs.t;
  rotate_every : int;
  mutable active : int;  (* segment number currently appended to *)
  mutable active_name : string;  (* [seg_name active] *)
  mutable active_h : Vfs.handle;  (* [active_name], resolved once a segment *)
  mutable active_records : int;  (* appends since the last rotation *)
  mutable next_gen : int;
}

let seg_prefix = "seg-"
let seg_suffix = ".log"

(* [seg-%06d.log]. *)
let seg_name n =
  let b = Linebuf.create 16 in
  Linebuf.add_string b seg_prefix;
  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
  for _ = digits n to 5 do
    Linebuf.add_char b '0'
  done;
  Linebuf.add_int b n;
  Linebuf.add_string b seg_suffix;
  Linebuf.contents b

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

(* Make segment [n] the one appended to. *)
let activate t n =
  t.active <- n;
  t.active_name <- seg_name n;
  t.active_h <- Vfs.handle t.vfs ~name:t.active_name;
  t.active_records <- 0

let create ?(rotate_every = 64) ~vfs () =
  if rotate_every < 1 then invalid_arg "Storage.create: rotate_every must be >= 1";
  let t =
    { vfs; rotate_every; active = 0; active_name = seg_name 0;
      active_h = Vfs.handle vfs ~name:(seg_name 0); active_records = 0; next_gen = 1 }
  in
  (match List.rev (segments t) with
  | (n, _) :: _ -> activate t (n + 1)
  | [] -> ());
  List.iter
    (fun (g, _, _) -> if g >= t.next_gen then t.next_gen <- g + 1)
    (slot_candidates t);
  t

let vfs t = t.vfs


(* ----------------------------------------------------------------- *)
(* Append path *)

(* A segment's first line, [bbr-seg v1 <n>], without its newline. *)
let seg_header n =
  let b = Linebuf.create 32 in
  Linebuf.add_string b "bbr-seg v1 ";
  Linebuf.add_int b n;
  b

let append_buf t b = absorb (Vfs.handle_append t.active_h (Linebuf.bytes b) ~len:(Linebuf.length b))

(* The footer of a segment's record region (everything after its header
   line) as it sits on disk, [seal <newlines> <crc32>]: count and CRC
   computed in place. *)
let seal_footer data len =
  let start = min len (Linebuf.index_newline data ~pos:0 ~stop:len + 1) in
  let rec count pos n =
    let e = Linebuf.index_newline data ~pos ~stop:len in
    if e = len then n else count (e + 1) (n + 1)
  in
  let b = Linebuf.create 32 in
  Linebuf.add_string b "seal ";
  Linebuf.add_int b (count start 0);
  Linebuf.add_string b " 00000000\n";
  Crc32.blit_hex (Crc32.bytes data ~pos:start ~len:(len - start)) (Linebuf.bytes b)
    ~pos:(Linebuf.length b - 9);
  b

let seal_active t =
  let name = t.active_name in
  if Vfs.handle_exists t.active_h then begin
    (match Vfs.view t.vfs ~name with
    | Some (data, len) when len > 0 && Bytes.get data (len - 1) <> '\n' ->
        (* A torn final line must not merge with the footer; the repair
           append may itself be torn, so the footer covers what it
           left. *)
        absorb (Vfs.append t.vfs ~name "\n")
    | _ -> ());
    (match Vfs.view t.vfs ~name with
    | None -> ()
    | Some (data, len) ->
        (* The footer checksums the record region exactly as it sits on
           disk: "has this segment changed since sealing?" is a separate
           question from "is every record in it valid?", which the
           per-record CRCs answer. *)
        append_buf t (seal_footer data len);
        absorb (Vfs.handle_fsync t.active_h));
    activate t (t.active + 1)
  end

let put t b len =
  if not (Vfs.handle_exists t.active_h) then begin
    let h = seg_header t.active in
    Linebuf.add_char h '\n';
    append_buf t h
  end;
  absorb (Vfs.handle_append t.active_h b ~len);
  t.active_records <- t.active_records + 1;
  if t.active_records >= t.rotate_every then seal_active t

let sync t =
  if Vfs.handle_exists t.active_h then
    match Vfs.handle_fsync t.active_h with
    | Ok () -> ()
    | Error e -> write_error ("fsync_" ^ Vfs.error_label e)

let sink t = { Wal.put = (fun b len -> put t b len); sync = (fun () -> sync t) }

(* ----------------------------------------------------------------- *)
(* Segment surveying *)

type seg_info = {
  sg_header_ok : bool;
  sg_sealed : bool;
  sg_seal_ok : bool;  (* meaningless unless [sg_sealed] *)
  sg_data : Bytes.t;  (* the file's bytes, in place: valid until it is next written *)
  sg_lines : (int * int * int) list;
      (* record region, non-empty lines: start, length, and sequence
         number if CRC-clean (else -1) *)
}

(* The last newline in [data] before [i] from [start], or [start - 1]. *)
let rec last_nl data i start =
  if i < start || Bytes.get data i = '\n' then i else last_nl data (i - 1) start

(* A segment's non-empty lines in [pos, stop), each with its sequence
   number if it is a CRC-clean record (else -1), and the count of
   newlines the walk passed. *)
let record_lines data ~pos ~stop =
  let rec go acc nls pos =
    if pos >= stop then (List.rev acc, nls)
    else
      let e = Linebuf.index_newline data ~pos ~stop in
      let nls = if e < stop then nls + 1 else nls in
      if e = pos then go acc nls (e + 1)
      else
        let seq = match Wal.seq_of_range data ~pos ~len:(e - pos) with Some s -> s | None -> -1 in
        go ((pos, e - pos, seq) :: acc) nls (e + 1)
  in
  go [] 0 pos

(* The segment checked where it sits: header, footer and every line's
   CRC, with no copy of the file and no split of it into strings. *)
let survey t (no, name) =
  match Vfs.view t.vfs ~name with
  | None ->
      { sg_header_ok = false; sg_sealed = false; sg_seal_ok = false; sg_data = Bytes.empty;
        sg_lines = [] }
  | Some (data, len) ->
      let nl = Linebuf.index_newline data ~pos:0 ~stop:len in
      let header_ok, rest =
        if nl = len then (false, len)
        else begin
          let h = seg_header no in
          let rec same i = i = nl || (Bytes.get data i = Bytes.get (Linebuf.bytes h) i && same (i + 1)) in
          (nl = Linebuf.length h && same 0, nl + 1)
        end
      in
      (* The footer, if any, is the last newline-terminated line: exactly
         three fields, the first [seal]. *)
      let footer =
        if rest = len || Bytes.get data (len - 1) <> '\n' then None
        else
          let last_start = last_nl data (len - 2) rest + 1 in
          match String.split_on_char ' ' (Bytes.sub_string data last_start (len - 1 - last_start)) with
          | [ "seal"; count_s; crc_s ] ->
              Some (last_start, int_of_string_opt count_s, Crc32.of_hex crc_s)
          | _ -> None
      in
      let region_end = match footer with Some (last_start, _, _) -> last_start | None -> len in
      let lines, nls = record_lines data ~pos:rest ~stop:region_end in
      let seal_ok =
        match footer with
        | Some (_, Some count, Some crc) ->
            count = nls && crc = Crc32.bytes data ~pos:rest ~len:(region_end - rest)
        | _ -> false
      in
      { sg_header_ok = header_ok; sg_sealed = footer <> None; sg_seal_ok = seal_ok;
        sg_data = data; sg_lines = lines }

let quarantine t name ~kind =
  ignore (Vfs.rename t.vfs ~src:name ~dst:(name ^ ".quar"));
  detect kind;
  if Obs_log.active () then Obs_log.count "bb_storage_quarantined_total";
  Flight.trigger
    ~reason:(Printf.sprintf "storage: sealed segment %s corrupt (%s)" name kind)

let max_seq_of t (no, name) =
  let info = survey t (no, name) in
  List.fold_left (fun acc (_, _, seq) -> max acc seq) (-1) info.sg_lines

(* ----------------------------------------------------------------- *)
(* Recovery suffix *)

type tail = {
  lines : string list;
  records : int;
  truncated : string option;
  quarantined : string list;
}

let fold_tail t ~cover ~init f =
  let segs = segments t in
  let last_no = match List.rev segs with (n, _) :: _ -> n | [] -> -1 in
  let acc = ref init and nout = ref 0 in
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
        (* Each line's CRC is checked once, by the survey. *)
        let all_valid = List.for_all (fun (_, _, seq) -> seq >= 0) info.sg_lines in
        let max_seq = List.fold_left (fun acc (_, _, seq) -> max acc seq) (-1) info.sg_lines in
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
            List.iter
              (fun (pos, len, seq) ->
                if !truncated = None then
                  match if seq >= 0 then Some seq else None with
                  | Some seq when seq < cover -> ()
                  | Some seq when seq = !expected ->
                      pending := None;
                      expected := seq + 1;
                      acc := f !acc info.sg_data ~pos ~len;
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
              info.sg_lines
        end
      end)
    segs;
  (match (!truncated, !pending) with
  | None, Some p -> cut p
  | _ -> ());
  (!acc, { lines = []; records = !nout; truncated = !truncated; quarantined = List.rev !quar })

let tail_from t ~cover =
  let lines, tail =
    fold_tail t ~cover ~init:[] (fun acc b ~pos ~len -> Bytes.sub_string b pos len :: acc)
  in
  { tail with lines = List.rev lines }

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
          (fun (_, _, seq) ->
            if not !bad then
              if seq < 0 then bad := true
              else
                match !expected with
                | Some e when seq <> e -> bad := true
                | _ -> expected := Some (seq + 1))
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
