(* Minimal JSON codec: just enough for the observability artifacts —
   the flight-recorder black box, the Chrome trace_event export, and
   their round-trip through the critical-path analyzer.  No external
   JSON dependency exists in this repository, so the codec lives here.

   The parser is a plain recursive-descent reader over a string.  It
   accepts the full JSON grammar (RFC 8259) minus one liberty taken by
   our own writers: the exporter spells non-finite floats as the
   strings "+Inf"/"-Inf", which parse back as ordinary strings. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing --------------------------------------------------------- *)

let escape v =
  let b = Buffer.create (String.length v + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    v;
  Buffer.add_char b '"';
  Buffer.contents b

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec write_buf b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v ->
      if Float.is_nan v then Buffer.add_string b "null"
      else if v = infinity then Buffer.add_string b "1e999"
      else if v = neg_infinity then Buffer.add_string b "-1e999"
      else Buffer.add_string b (fnum v)
  | Str s -> Buffer.add_string b (escape s)
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write_buf b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (escape k);
          Buffer.add_char b ':';
          write_buf b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  write_buf b j;
  Buffer.contents b

(* --- parsing ---------------------------------------------------------- *)

type reader = { src : string; mutable pos : int }

let fail r msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg r.pos))

let peek r = if r.pos < String.length r.src then Some r.src.[r.pos] else None

let advance r = r.pos <- r.pos + 1

let rec skip_ws r =
  match peek r with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance r;
      skip_ws r
  | _ -> ()

let expect r c =
  match peek r with
  | Some d when d = c -> advance r
  | _ -> fail r (Printf.sprintf "expected '%c'" c)

let literal r word value =
  let n = String.length word in
  if r.pos + n <= String.length r.src && String.sub r.src r.pos n = word then begin
    r.pos <- r.pos + n;
    value
  end
  else fail r (Printf.sprintf "expected '%s'" word)

let parse_string_body r =
  let b = Buffer.create 16 in
  let rec go () =
    match peek r with
    | None -> fail r "unterminated string"
    | Some '"' -> advance r
    | Some '\\' -> (
        advance r;
        match peek r with
        | None -> fail r "unterminated escape"
        | Some c ->
            advance r;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if r.pos + 4 > String.length r.src then fail r "bad \\u escape";
                let hex = String.sub r.src r.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail r "bad \\u escape"
                in
                r.pos <- r.pos + 4;
                (* Encode the code point as UTF-8; surrogate pairs are not
                   recombined — our own writers never emit them. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail r "bad escape");
            go ())
    | Some c ->
        advance r;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number r =
  let start = r.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek r with Some c -> is_num_char c | None -> false) do
    advance r
  done;
  let s = String.sub r.src start (r.pos - start) in
  match float_of_string_opt s with
  | Some v -> Num v
  | None -> fail r (Printf.sprintf "bad number %S" s)

let rec parse_value r =
  skip_ws r;
  match peek r with
  | None -> fail r "unexpected end of input"
  | Some '"' ->
      advance r;
      Str (parse_string_body r)
  | Some '{' ->
      advance r;
      skip_ws r;
      if peek r = Some '}' then begin
        advance r;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws r;
          expect r '"';
          let k = parse_string_body r in
          skip_ws r;
          expect r ':';
          let v = parse_value r in
          skip_ws r;
          match peek r with
          | Some ',' ->
              advance r;
              members ((k, v) :: acc)
          | Some '}' ->
              advance r;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail r "expected ',' or '}'"
        in
        members []
      end
  | Some '[' ->
      advance r;
      skip_ws r;
      if peek r = Some ']' then begin
        advance r;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value r in
          skip_ws r;
          match peek r with
          | Some ',' ->
              advance r;
              elements (v :: acc)
          | Some ']' ->
              advance r;
              Arr (List.rev (v :: acc))
          | _ -> fail r "expected ',' or ']'"
        in
        elements []
      end
  | Some 't' -> literal r "true" (Bool true)
  | Some 'f' -> literal r "false" (Bool false)
  | Some 'n' -> literal r "null" Null
  | Some ('-' | '0' .. '9') -> parse_number r
  | Some c -> fail r (Printf.sprintf "unexpected '%c'" c)

let of_string s =
  let r = { src = s; pos = 0 } in
  let v = parse_value r in
  skip_ws r;
  if r.pos <> String.length s then fail r "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* --- accessors -------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

