(* Standard reflected CRC-32 (polynomial 0xEDB88320), one table lookup
   per byte.  Results match zlib's crc32 / POSIX cksum -o 3. *)

(* Built at module initialisation, before any domain can be spawned: a
   [lazy] table forced by two domains at once raises
   [CamlinternalLazy.Undefined] in one of them. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Native ints (at least 63 bits) hold every 32-bit intermediate, so the
   loop allocates nothing. *)
let string s =
  let crc = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    crc :=
      table.((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let to_hex v = Printf.sprintf "%08x" (v land 0xFFFFFFFF)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 -> Some v
    | _ -> None
