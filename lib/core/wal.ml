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
(* Decoding.  Each record is read once, in place, from its line's byte
   range through {!Linebuf}'s reader; nothing here may raise.       *)

(* The line's CRC field: 8 hex digits, then a space, then the body the
   checksum covers, checked in place. *)
let crc_ok b ~pos ~len =
  len >= 9
  && Bytes.get b (pos + 8) = ' '
  &&
  (* The hex digits are only read. *)
  match Crc32.of_hex_at (Bytes.unsafe_to_string b) ~pos with
  | Some crc -> crc = Crc32.bytes b ~pos:(pos + 9) ~len:(len - 9)
  | None -> false

(* The body's first field, a record number, ends at a space or the end
   of the line. *)
let read_seq r =
  let seq = Linebuf.read_int r in
  if seq < 0 then None
  else if Linebuf.at_end r then Some seq
  else begin
    Linebuf.expect r ' ';
    Some seq
  end

let seq_of_range b ~pos ~len =
  if crc_ok b ~pos ~len then Linebuf.read_bytes b ~pos:(pos + 9) ~len:(len - 9) read_seq
  else None

(* A record's body: its number, its clock and a payload that fills the
   rest of the line. *)
let read_record decode_payload r =
  match read_seq r with
  | None -> None
  | Some seq -> (
      let at = Linebuf.read_hfloat r in
      Linebuf.expect r ' ';
      match decode_payload r with
      | Some v when Linebuf.at_end r -> Some (seq, at, v)
      | _ -> None)

(* The record chain both readers walk: line [line] (0 = the first after
   the header) decodes to the next record, which must carry sequence
   number [expected] (-1 = any, before the first). *)
type 'a chain = {
  decode_payload : Linebuf.reader -> 'a option;
  mutable line : int;
  mutable expected : int;
}

let chain ~decode_payload = { decode_payload; line = 0; expected = -1 }

let torn c =
  Printf.sprintf "torn or corrupt journal record at line %d; dropping the tail" (c.line + 2)

(* [Ok (at, v)] for the line's record, or the warning that cuts the
   chain there.  [crc] is false for lines whose CRC the store already
   checked. *)
let step c ~crc b ~pos ~len =
  let out =
    if crc && not (crc_ok b ~pos ~len) then Error (torn c)
    else
      match Linebuf.read_bytes b ~pos:(pos + 9) ~len:(len - 9) (read_record c.decode_payload) with
      | None -> Error (torn c)
      | Some (seq, _, _) when c.expected >= 0 && seq <> c.expected ->
          Error
            (Printf.sprintf
               "journal sequence gap at line %d (record %d, expected %d); dropping the tail"
               (c.line + 2) seq c.expected)
      | Some (seq, at, v) ->
          c.expected <- seq + 1;
          Ok (at, v)
  in
  c.line <- c.line + 1;
  out

let next_record c b ~pos ~len = step c ~crc:false b ~pos ~len

(* [String.trim]'s whitespace. *)
let blank s ~pos ~stop =
  let rec go i =
    i = stop || (match String.unsafe_get s i with ' ' | '\012' | '\n' | '\r' | '\t' -> go (i + 1) | _ -> false)
  in
  go pos

let parse ~header ~decode_payload text =
  let n = String.length text in
  (* The text is only read. *)
  let b = Bytes.unsafe_of_string text in
  let eol pos = Linebuf.index_newline b ~pos ~stop:n in
  let first = String.trim (String.sub text 0 (eol 0)) in
  if n = 0 then Error "empty journal"
  else if first <> header then Error (Printf.sprintf "bad journal header: %S" first)
  else
    let c = chain ~decode_payload in
    let rec go acc pos =
      if pos >= n then Ok (List.rev acc, None)
      else
        let stop = eol pos in
        if blank text ~pos ~stop then begin
          c.line <- c.line + 1;
          go acc (stop + 1)
        end
        else
          match step c ~crc:true b ~pos ~len:(stop - pos) with
          | Ok entry -> go (entry :: acc) (stop + 1)
          | Error warning -> Ok (List.rev acc, Some warning)
    in
    go [] (eol 0 + 1)
