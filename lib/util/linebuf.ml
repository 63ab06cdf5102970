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

(* ----------------------------------------------------------------- *)
(* Reading *)

(* Eight bytes at a time: a word holds a newline iff, xored with eight
   newlines, it has a zero byte, which [(x - 0x01..) land (lnot x) land
   0x80..] detects exactly. *)
let newlines = 0x0A0A0A0A0A0A0A0AL

let index_newline b ~pos ~stop =
  let i = ref pos in
  while
    !i <= stop - 8
    &&
    let x = Int64.logxor (Bytes.get_int64_le b !i) newlines in
    Int64.equal
      (Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
         0x8080808080808080L)
      0L
  do
    i := !i + 8
  done;
  while !i < stop && Bytes.get b !i <> '\n' do
    incr i
  done;
  !i

type reader = { src : Bytes.t; mutable pos : int; stop : int }

(* Raised by the field readers, caught by [read_bytes] alone. *)
exception Malformed

let read_bytes src ~pos ~len f =
  if pos < 0 || len < 0 || pos > Bytes.length src - len then None
  else
    let r = { src; pos; stop = pos + len } in
    match f r with v -> v | exception Malformed -> None

(* The string is only read. *)
let read s ~pos ~len f = read_bytes (Bytes.unsafe_of_string s) ~pos ~len f

let at_end r = r.pos = r.stop

(* The next byte, or a newline past the end: a line's range holds none. *)
let peek r = if r.pos < r.stop then Bytes.unsafe_get r.src r.pos else '\n'

let expect r c =
  if peek r = c then r.pos <- r.pos + 1 else raise_notrace Malformed

(* The digits [add_int] writes for a magnitude: no leading zero unless
   the digit is alone.  Accumulated as the non-positive [- magnitude],
   refusing anything below [min_int], so [min_int] reads back. *)
let tenth = min_int / 10 and last_digit = -(min_int mod 10)

let neg_magnitude r =
  let src = r.src and start = r.pos and stop = r.stop in
  let acc = ref 0 and p = ref start in
  while
    !p < stop
    &&
    let d = Char.code (Bytes.unsafe_get src !p) - 48 in
    d >= 0 && d <= 9
    && begin
         if !acc < tenth || (!acc = tenth && d > last_digit) then
           raise_notrace Malformed;
         acc := (!acc * 10) - d;
         true
       end
  do
    incr p
  done;
  let n = !p - start in
  if n = 0 || (n > 1 && Bytes.unsafe_get src start = '0') then raise_notrace Malformed;
  r.pos <- !p;
  !acc

let read_int r =
  if peek r = '-' then begin
    r.pos <- r.pos + 1;
    let m = neg_magnitude r in
    if m = 0 then raise_notrace Malformed;
    m
  end
  else
    let m = neg_magnitude r in
    if m = min_int then raise_notrace Malformed;
    -m

let expect_word r w =
  let n = String.length w in
  if r.pos > r.stop - n then raise_notrace Malformed;
  for i = 0 to n - 1 do
    if Bytes.unsafe_get r.src (r.pos + i) <> String.unsafe_get w i then
      raise_notrace Malformed
  done;
  r.pos <- r.pos + n

(* The value of a lower-case hex digit, or -1. *)
let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> -1

(* [add_hfloat]'s forms and nothing else: the fraction's nibbles
   lower-case with no trailing zero, a zero's exponent [+0], a
   subnormal's [-1022], a normal's in [-1022, 1023].  The value is built
   exactly: the 53-bit significand is an exact float, scaled by a power
   of two that keeps it normal (or, for a subnormal, lands exactly on
   its grid). *)
let read_hfloat r =
  let neg = peek r = '-' in
  if neg then r.pos <- r.pos + 1;
  let x =
    match peek r with
    | 'i' ->
        expect_word r "infinity";
        infinity
    | 'n' ->
        expect_word r "nan";
        Float.nan
    | _ ->
        let p = r.pos in
        if p > r.stop - 3 || Bytes.unsafe_get r.src p <> '0' || Bytes.unsafe_get r.src (p + 1) <> 'x'
        then raise_notrace Malformed;
        let lead =
          match Bytes.unsafe_get r.src (p + 2) with
          | '0' -> 0
          | '1' -> 1
          | _ -> raise_notrace Malformed
        in
        r.pos <- p + 3;
        let m = ref 0 in
        if peek r = '.' then begin
          let src = r.src and start = r.pos + 1 in
          let stop = min r.stop (start + 14) in
          let p = ref start and d = ref 0 in
          while
            !p < stop
            &&
            (d := nibble (Bytes.unsafe_get src !p);
             !d >= 0)
          do
            m := (!m lsl 4) lor !d;
            incr p
          done;
          let k = !p - start in
          if k = 0 || k = 14 || !m land 15 = 0 then raise_notrace Malformed;
          m := !m lsl (4 * (13 - k));
          r.pos <- !p
        end;
        expect r 'p';
        let e =
          match peek r with
          | '+' ->
              r.pos <- r.pos + 1;
              -neg_magnitude r
          | '-' -> read_int r
          | _ -> raise_notrace Malformed
        in
        if lead = 1 then begin
          if e < -1022 || e > 1023 then raise_notrace Malformed;
          Float.ldexp (float_of_int (!m lor (1 lsl 52))) (e - 52)
        end
        else if !m = 0 then if e = 0 then 0. else raise_notrace Malformed
        else if e = -1022 then Float.ldexp (float_of_int !m) (-1074)
        else raise_notrace Malformed
  in
  if neg then Float.neg x else x

let read_word r =
  let start = r.pos in
  while r.pos < r.stop && Bytes.unsafe_get r.src r.pos <> ' ' do
    r.pos <- r.pos + 1
  done;
  Bytes.sub_string r.src start (r.pos - start)

let read_ints r =
  match peek r with
  | ' ' | '\n' -> []
  | _ ->
      let rec more acc =
        let acc = read_int r :: acc in
        if peek r = ',' then begin
          r.pos <- r.pos + 1;
          more acc
        end
        else List.rev acc
      in
      more []
