type t = { mutable buf : Bytes.t; mutable len : int }

let create n = { buf = Bytes.create (max n 16); len = 0 }

let clear t = t.len <- 0

let length t = t.len

let bytes t = t.buf

let contents t = Bytes.sub_string t.buf 0 t.len

let reserve t extra =
  let need = t.len + extra in
  if Bytes.length t.buf < need then begin
    let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let add_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.unsafe_blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

(* Digits are produced from the non-positive magnitude, so [min_int]
   (whose negation overflows) needs no special case. *)
let add_int t n =
  if n < 0 then add_char t '-';
  let m = if n < 0 then n else -n in
  let rec ndigits m k = if m > -10 then k else ndigits (m / 10) (k + 1) in
  let nd = ndigits m 1 in
  reserve t nd;
  let m = ref m in
  for i = t.len + nd - 1 downto t.len do
    Bytes.unsafe_set t.buf i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  t.len <- t.len + nd

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let mantissa_mask = (1 lsl 52) - 1

(* The text of [Printf "%h"] (the runtime's [caml_hexstring_of_float]
   with no precision): a sign for a set sign bit, NaN and infinity spelt
   out, otherwise [0x<lead>.<fraction>p<exponent>] with the fraction's
   trailing zero nibbles (and an empty fraction's dot) dropped; a
   subnormal has lead digit 0 and exponent -1022, a zero exponent 0.
   The part up to the exponent, ["0x1.<13 digits>p"], is at most 18
   bytes, reserved up front so its digits are stored without further
   checks. *)
let add_hfloat t x =
  let bits = Int64.bits_of_float x in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let m = Int64.to_int bits land mantissa_mask in
  if Float.sign_bit x then add_char t '-';
  if biased = 0x7FF then add_string t (if m = 0 then "infinity" else "nan")
  else begin
    reserve t 18;
    let b = t.buf in
    let p = t.len in
    Bytes.unsafe_set b p '0';
    Bytes.unsafe_set b (p + 1) 'x';
    Bytes.unsafe_set b (p + 2) (if biased = 0 then '0' else '1');
    let p = ref (p + 3) in
    if m <> 0 then begin
      Bytes.unsafe_set b !p '.';
      incr p;
      let m = ref m in
      while !m <> 0 do
        Bytes.unsafe_set b !p (hex_digit (!m lsr 48));
        incr p;
        m := (!m lsl 4) land mantissa_mask
      done
    end;
    Bytes.unsafe_set b !p 'p';
    t.len <- !p + 1;
    let e = if biased <> 0 then biased - 1023 else if m = 0 then 0 else -1022 in
    if e >= 0 then add_char t '+';
    add_int t e
  end
