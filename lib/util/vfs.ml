type error = Eio | Enospc

let error_label = function Eio -> "eio" | Enospc -> "enospc"

type faults = {
  short_write_p : float;
  write_eio_p : float;
  fsync_eio_p : float;
  fsync_lie_p : float;
  capacity : int option;
}

let no_faults =
  { short_write_p = 0.; write_eio_p = 0.; fsync_eio_p = 0.; fsync_lie_p = 0.;
    capacity = None }

type file = { mutable data : Bytes.t; mutable len : int; mutable durable : int }

type t = {
  files : (string, file) Hashtbl.t;
  prng : Prng.t;
  faults : faults;
  mutable injected : (string * int) list;
  mutable epoch : int;  (* bumped whenever a name may map to another file *)
}

let create ?(seed = 0) ?(faults = no_faults) () =
  { files = Hashtbl.create 16; prng = Prng.create ~seed; faults; injected = [];
    epoch = 0 }

(* Handles resolve their file again once the epoch moves. *)
let moved t = t.epoch <- t.epoch + 1

let faults t = t.faults

let record_fault t label =
  t.injected <-
    (match List.assoc_opt label t.injected with
    | Some n -> (label, n + 1) :: List.remove_assoc label t.injected
    | None -> (label, 1) :: t.injected)

let injected t = List.sort compare t.injected

(* Draw only when the probability is positive, so a zero-fault plan
   consumes nothing from the stream and determinism is unaffected by
   merely having the fault machinery present. *)
let roll t p = p > 0. && Prng.float t.prng < p

let find t name = Hashtbl.find_opt t.files name

let ensure t name =
  match find t name with
  | Some f -> f
  | None ->
      let f = { data = Bytes.create 256; len = 0; durable = 0 } in
      Hashtbl.replace t.files name f;
      moved t;
      f

let total_bytes t = Hashtbl.fold (fun _ f acc -> acc + f.len) t.files 0

let reserve f extra =
  let need = f.len + extra in
  if Bytes.length f.data < need then begin
    let cap = max need (2 * Bytes.length f.data) in
    let data = Bytes.create cap in
    Bytes.blit f.data 0 data 0 f.len;
    f.data <- data
  end

let blit_append f b n =
  reserve f n;
  Bytes.blit b 0 f.data f.len n;
  f.len <- f.len + n

(* A name resolved to its file once, again only after the epoch moves. *)
type handle = {
  fs : t;
  hname : string;
  mutable file : file option;  (* what [hname] named at [seen] *)
  mutable seen : int;
}

let handle t ~name = { fs = t; hname = name; file = find t name; seen = t.epoch }

let resolve h =
  if h.seen <> h.fs.epoch then begin
    h.file <- find h.fs h.hname;
    h.seen <- h.fs.epoch
  end;
  h.file

let handle_exists h = resolve h <> None

let handle_append h b ~len =
  let t = h.fs in
  if roll t t.faults.write_eio_p then begin
    record_fault t "eio";
    Error Eio
  end
  else
    match t.faults.capacity with
    | Some cap when total_bytes t + len > cap ->
        record_fault t "enospc";
        Error Enospc
    | _ ->
        let f = match resolve h with Some f -> f | None -> ensure t h.hname in
        let n =
          if len > 1 && roll t t.faults.short_write_p then begin
            record_fault t "short_write";
            1 + Prng.int t.prng ~bound:(len - 1)
          end
          else len
        in
        blit_append f b n;
        Ok ()

let append_bytes t ~name b ~len = handle_append (handle t ~name) b ~len

(* Appended bytes are only read. *)
let append t ~name s =
  append_bytes t ~name (Bytes.unsafe_of_string s) ~len:(String.length s)

let write t ~name s =
  (* Truncate-then-append: old durable contents are gone the moment the
     replace starts, which is exactly why callers must shadow+rename. *)
  (match find t name with
  | Some f ->
      f.len <- 0;
      f.durable <- 0
  | None -> ());
  append t ~name s

let handle_fsync h =
  let t = h.fs in
  match resolve h with
  | None -> Error Eio
  | Some f ->
      if roll t t.faults.fsync_eio_p then begin
        record_fault t "fsync_eio";
        Error Eio
      end
      else if roll t t.faults.fsync_lie_p then begin
        record_fault t "fsync_lie";
        Ok ()
      end
      else begin
        f.durable <- f.len;
        Ok ()
      end

let fsync t ~name = handle_fsync (handle t ~name)

let rename t ~src ~dst =
  match find t src with
  | None -> Error Eio
  | Some f ->
      Hashtbl.remove t.files src;
      Hashtbl.replace t.files dst f;
      moved t;
      Ok ()

let remove t ~name =
  Hashtbl.remove t.files name;
  moved t

let read t ~name =
  match find t name with
  | None -> Error Eio
  | Some f -> Ok (Bytes.sub_string f.data 0 f.len)

let view t ~name = Option.map (fun f -> (f.data, f.len)) (find t name)

let exists t ~name = Hashtbl.mem t.files name

let size t ~name = match find t name with Some f -> f.len | None -> 0

let list t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.files []
  |> List.sort compare

let crash t =
  moved t;
  Hashtbl.iter
    (fun _ f ->
      if f.durable < f.len then begin
        (* Half the unsynced suffix made it to the platter: a torn tail
           cutting through the middle of an in-flight record. *)
        let keep = f.durable + ((f.len - f.durable) / 2) in
        f.len <- keep
      end;
      f.durable <- f.len)
    t.files

let corrupt t ~name ~at ~bit =
  match find t name with
  | Some f when at >= 0 && at < f.len ->
      let b = Char.code (Bytes.get f.data at) in
      Bytes.set f.data at (Char.chr (b lxor (1 lsl (bit land 7))));
      true
  | _ -> false

let bitrot t ~name =
  match find t name with
  | Some f when f.len > 0 ->
      let at = Prng.int t.prng ~bound:f.len in
      let bit = Prng.int t.prng ~bound:8 in
      record_fault t "bitrot";
      ignore (corrupt t ~name ~at ~bit);
      Some at
  | _ -> None

let copy t =
  let files = Hashtbl.create (Hashtbl.length t.files) in
  Hashtbl.iter
    (fun name f ->
      Hashtbl.replace files name
        { data = Bytes.sub f.data 0 (max 1 f.len); len = f.len;
          durable = f.durable })
    t.files;
  { files; prng = Prng.of_state (Prng.state t.prng); faults = t.faults;
    injected = t.injected; epoch = 0 }

let export t =
  list t
  |> List.map (fun name ->
         match read t ~name with Ok s -> (name, s) | Error _ -> (name, ""))

let import entries =
  let t = create () in
  List.iter
    (fun (name, contents) ->
      let f = ensure t name in
      blit_append f (Bytes.unsafe_of_string contents) (String.length contents);
      f.durable <- f.len)
    entries;
  t
