(* Entries carry a sequence number so that equal-priority elements come out
   in insertion order: the event engine depends on this for determinism. *)
type 'a entry = { value : 'a; seq : int }

type 'a t = {
  leq : 'a -> 'a -> bool;
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create ~leq = { leq; data = [||]; len = 0; next_seq = 0 }

let is_empty t = t.len = 0

let size t = t.len

(* [before t a b] decides strict heap order including the seq tie-break. *)
let before t a b =
  if t.leq a.value b.value then
    if t.leq b.value a.value then a.seq < b.seq else true
  else false

(* [ensure_room t fill] guarantees one free slot, using [fill] to initialise
   fresh cells (they are overwritten before being read). *)
let ensure_room t fill =
  let cap = Array.length t.data in
  if cap = 0 then t.data <- Array.make 16 fill
  else if t.len = cap then begin
    let nd = Array.make (cap * 2) fill in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end

let push t v =
  let e = { value = v; seq = t.next_seq } in
  ensure_room t e;
  t.next_seq <- t.next_seq + 1;
  let i = ref t.len in
  t.len <- t.len + 1;
  t.data.(!i) <- e;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let peek t = if t.len = 0 then None else Some t.data.(0).value

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && before t t.data.(l) t.data.(!smallest) then smallest := l;
    if r < t.len && before t t.data.(r) t.data.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.data.(!smallest) in
      t.data.(!smallest) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t
    end;
    Some top.value
  end

let clear t =
  t.len <- 0;
  t.next_seq <- 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i).value :: acc) in
  go (t.len - 1) []
