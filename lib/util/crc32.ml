(* Standard reflected CRC-32 (polynomial 0xEDB88320), slice-by-8: eight
   table lookups per 8 input bytes, one per byte on the tail.  Results
   match zlib's crc32 / POSIX cksum -o 3. *)

(* Built at module initialisation, before any domain can be spawned: a
   [lazy] table forced by two domains at once raises
   [CamlinternalLazy.Undefined] in one of them.  One flat array of eight
   256-entry tables: [tables.(k * 256 + b)] is the CRC of byte [b]
   followed by [k] zero bytes. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let tab k b = Array.unsafe_get tables ((k lsl 8) lor b)

let byte s i = Char.code (Bytes.unsafe_get s i)

(* Native ints (at least 63 bits) hold every 32-bit intermediate, so the
   loop allocates nothing. *)
let bytes s ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length s - len then invalid_arg "Crc32.bytes";
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let c =
      !crc
      lxor (byte s j lor (byte s (j + 1) lsl 8) lor (byte s (j + 2) lsl 16)
           lor (byte s (j + 3) lsl 24))
    in
    crc :=
      tab 7 (c land 0xFF)
      lxor tab 6 ((c lsr 8) land 0xFF)
      lxor tab 5 ((c lsr 16) land 0xFF)
      lxor tab 4 (c lsr 24)
      lxor tab 3 (byte s (j + 4))
      lxor tab 2 (byte s (j + 5))
      lxor tab 1 (byte s (j + 6))
      lxor tab 0 (byte s (j + 7));
    i := j + 8
  done;
  for j = !i to pos + len - 1 do
    crc := tab 0 ((!crc lxor byte s j) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(* Strings are only read here. *)
let substring s ~pos ~len = bytes (Bytes.unsafe_of_string s) ~pos ~len

let string s = substring s ~pos:0 ~len:(String.length s)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let blit_hex v b ~pos =
  for k = 0 to 7 do
    Bytes.set b (pos + k) (hex_digit ((v lsr (28 - (4 * k))) land 0xF))
  done

let to_hex v =
  let b = Bytes.create 8 in
  blit_hex v b ~pos:0;
  Bytes.unsafe_to_string b

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

let of_hex_at s ~pos =
  if pos < 0 || pos > String.length s - 8 then None
  else begin
    let acc = ref 0 in
    for k = 0 to 7 do
      acc := (!acc lsl 4) lor nibble (String.unsafe_get s (pos + k))
    done;
    (* A non-digit's -1 sets every bit above the 32 a checksum can hold. *)
    if !acc lsr 32 = 0 then Some !acc else None
  end

let of_hex s = if String.length s <> 8 then None else of_hex_at s ~pos:0
