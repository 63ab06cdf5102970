module Crc32 = Bbr_util.Crc32
module Linebuf = Bbr_util.Linebuf

type sink = { put : Bytes.t -> int -> unit; sync : unit -> unit }

type 'a t = {
  encode_payload : Linebuf.t -> 'a -> unit;
  buf : Linebuf.t;  (* the record being written, reused *)
  fsync_every : int;
  sink : sink;
  mutable records : int;  (* since the last compaction *)
  mutable seq : int;  (* records ever appended *)
  mutable record_hook : (int -> unit) option;
  mutable group_start : int option;  (* [records] when the open group began *)
  mutable synced_floor : int;  (* records made durable by a group commit *)
}

let create ?(fsync_every = 1) ~encode_payload sink =
  if fsync_every < 1 then invalid_arg "Wal.create: fsync_every must be >= 1";
  {
    encode_payload;
    buf = Linebuf.create 256;
    fsync_every;
    sink;
    records = 0;
    seq = 0;
    record_hook = None;
    group_start = None;
    synced_floor = 0;
  }

let records t = t.records

let appended_total t = t.seq

let synced_records t =
  let natural = t.records - (t.records mod t.fsync_every) in
  (* Records appended inside a still-open group await the group's single
     fsync: they are not durable yet, whatever the modulo boundary says. *)
  let natural =
    match t.group_start with Some g -> min natural g | None -> natural
  in
  min t.records (max natural t.synced_floor)

let in_group t = t.group_start <> None

(* The CRC covers the body after its 8-digit slot and the space, so the
   body is written first and the slot patched in place. *)
let write_line buf ~seq ~at encode_payload v =
  Linebuf.clear buf;
  Linebuf.add_string buf "00000000 ";
  Linebuf.add_int buf seq;
  Linebuf.add_char buf ' ';
  Linebuf.add_hfloat buf at;
  Linebuf.add_char buf ' ';
  encode_payload buf v;
  let b = Linebuf.bytes buf in
  Crc32.blit_hex (Crc32.bytes b ~pos:9 ~len:(Linebuf.length buf - 9)) b ~pos:0

let group t f =
  match t.group_start with
  | Some _ -> f () (* nested: joins the outer group *)
  | None ->
      t.group_start <- Some t.records;
      let out =
        try f ()
        with exn ->
          (* Aborted group: fall back to the per-record boundaries the
             unbatched writer would have had. *)
          t.group_start <- None;
          raise exn
      in
      t.group_start <- None;
      t.synced_floor <- t.records;
      t.sink.sync ();
      out

let on_record t f = t.record_hook <- Some f

let append t ~at v =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.records <- t.records + 1;
  (* Write-ahead to the sink before the record hook can observe the
     append: the disk (or its simulation) sees the record no later than
     any side effect keyed on it. *)
  write_line t.buf ~seq ~at t.encode_payload v;
  Linebuf.add_char t.buf '\n';
  t.sink.put (Linebuf.bytes t.buf) (Linebuf.length t.buf);
  if (not (in_group t)) && t.records mod t.fsync_every = 0 then t.sink.sync ();
  match t.record_hook with None -> () | Some f -> f t.seq

let compact t =
  t.records <- 0;
  t.synced_floor <- 0;
  t.group_start <- Option.map (fun _ -> 0) t.group_start

let text_of_lines ~header lines =
  String.concat "" (List.map (fun l -> l ^ "\n") (header :: lines))

(* --------------------------------------------------------------- *)
(* Decoding.  All helpers return options; nothing here may raise.  *)

(* The line's CRC field: 8 hex digits, then a space, then the body the
   checksum covers, checked in place. *)
let crc_ok line =
  let n = String.length line in
  n >= 9
  && line.[8] = ' '
  &&
  match Crc32.of_hex_at line ~pos:0 with
  | Some crc -> crc = Crc32.substring line ~pos:9 ~len:(n - 9)
  | None -> false

let checked_body line =
  if crc_ok line then Some (String.sub line 9 (String.length line - 9)) else None

(* The body's first field, a decimal record number, read in place. *)
let seq_of_line line =
  if not (crc_ok line) then None
  else
    let n = String.length line in
    let rec go i acc =
      if i = n || line.[i] = ' ' then if i = 9 then None else Some acc
      else
        match line.[i] with
        | '0' .. '9' as c when acc <= (max_int - 9) / 10 ->
            go (i + 1) ((acc * 10) + Char.code c - 48)
        | _ -> None
    in
    go 9 0

(* [Some (seq, at, v)] iff the line is a complete, CRC-clean record. *)
let decode_line ~decode_payload line =
  match checked_body line with
  | None -> None
  | Some body -> (
      match String.split_on_char ' ' body with
      | seq :: at :: rest -> (
          match (int_of_string_opt seq, float_of_string_opt at) with
          | Some seq, Some at ->
              Option.map (fun v -> (seq, at, v)) (decode_payload rest)
          | _ -> None)
      | _ -> None)

let parse ~header ~decode_payload text =
  match String.split_on_char '\n' text with
  | [] | [ "" ] -> Error "empty journal"
  | first :: rest when String.trim first = header ->
      let entries = ref [] in
      let warning = ref None in
      let expected_seq = ref None in
      List.iteri
        (fun i line ->
          if !warning = None && String.trim line <> "" then
            match decode_line ~decode_payload line with
            | Some (seq, at, v) -> (
                match !expected_seq with
                | Some e when seq <> e ->
                    warning :=
                      Some
                        (Printf.sprintf
                           "journal sequence gap at line %d (record %d, expected %d); \
                            dropping the tail"
                           (i + 2) seq e)
                | _ ->
                    expected_seq := Some (seq + 1);
                    entries := (at, v) :: !entries)
            | None ->
                warning :=
                  Some
                    (Printf.sprintf
                       "torn or corrupt journal record at line %d; dropping the tail"
                       (i + 2)))
        rest;
      Ok (List.rev !entries, !warning)
  | first :: _ -> Error (Printf.sprintf "bad journal header: %S" (String.trim first))
