type t = { sigma : float; rho : float; peak : float; lmax : float }

let make ~sigma ~rho ~peak ~lmax =
  if not (lmax > 0.) then invalid_arg "Traffic.make: lmax must be positive";
  if not (sigma >= lmax) then invalid_arg "Traffic.make: sigma must be >= lmax";
  if not (rho > 0.) then invalid_arg "Traffic.make: rho must be positive";
  if not (peak >= rho) then invalid_arg "Traffic.make: peak must be >= rho";
  { sigma; rho; peak; lmax }

let pp ppf p =
  Fmt.pf ppf "(sigma=%g rho=%g peak=%g lmax=%g)" p.sigma p.rho p.peak p.lmax

let equal a b =
  a.sigma = b.sigma && a.rho = b.rho && a.peak = b.peak && a.lmax = b.lmax

let t_on p =
  if p.peak <= p.rho then 0. else (p.sigma -. p.lmax) /. (p.peak -. p.rho)

let envelope p t =
  assert (t >= 0.);
  Float.min ((p.peak *. t) +. p.lmax) ((p.rho *. t) +. p.sigma)

module Sum = struct
  type profile = t

  (* A fixed-point binary integer over 60-bit limbs, least significant
     first: bit [i] weighs [2^(i - 1074)].  Every finite double is an
     integer multiple of 2^-1074 below 2^1024, so bits 0..2097 hold any
     one of them exactly; the limbs above absorb carries.  The top limb
     stays zero while the sum is in range: a non-zero top limb after an
     add is an overflow, after a remove a borrow out of the sum.  Limbs
     are kept normalised in [0, 2^60), so the limbs are a function of the
     summed multiset alone. *)
  let limb_bits = 60

  let limb_mask = (1 lsl limb_bits) - 1

  let nlimbs = 37

  type acc = {
    limbs : int array;
    mutable top : int;  (* highest non-zero limb, -1 when the sum is 0 *)
    mutable nonzero : int;  (* number of non-zero limbs *)
  }

  let acc () = { limbs = Array.make nlimbs 0; top = -1; nonzero = 0 }

  let[@inline] set a i v =
    let old = Array.unsafe_get a.limbs i in
    if old = 0 then (if v <> 0 then a.nonzero <- a.nonzero + 1)
    else if v = 0 then a.nonzero <- a.nonzero - 1;
    Array.unsafe_set a.limbs i v

  (* Carry (+1) or borrow (-1) into limb [i] and up, modulo the top
     limb; returns the last limb written. *)
  let rec propagate a i d =
    if i >= nlimbs then i - 1
    else
      let x = Array.unsafe_get a.limbs i + d in
      set a i (x land limb_mask);
      if x land limb_mask = x then i else propagate a (i + 1) d

  (* Add ([d = 1]) or subtract ([d = -1]) the component whose IEEE
     encoding, sign bit dropped (components are positive), is [bits]:
     the value [m * 2^p], [m < 2^53], in units of the lowest limb bit.
     It spans limbs [i] and [i + 1]; returns the highest limb it may
     have made non-zero. *)
  let[@inline] update a bits d =
    let e = bits lsr 52 in
    let m = if e = 0 then bits else bits land ((1 lsl 52) - 1) lor (1 lsl 52) in
    let p = if e = 0 then 0 else e - 1 in
    let i = p / limb_bits in
    let sh = p - (i * limb_bits) in
    let x = Array.unsafe_get a.limbs i + (d * ((m lsl sh) land limb_mask)) in
    set a i (x land limb_mask);
    (* [asr]: a borrow out of limb [i] reads as -1. *)
    let y =
      Array.unsafe_get a.limbs (i + 1) + (d * (m lsr (limb_bits - sh))) + (x asr limb_bits)
    in
    set a (i + 1) (y land limb_mask);
    let c = y asr limb_bits in
    if c <> 0 then propagate a (i + 2) c else if y land limb_mask <> 0 then i + 1 else i

  (* Taken at the call site, so no float is boxed to pass it. *)
  let[@inline] bits_of x = Int64.to_int (Int64.bits_of_float x)

  let add_bits a bits =
    if bits lsr 52 = 0x7ff then invalid_arg "Traffic.Sum.add: infinite component";
    let top = update a bits 1 in
    if Array.unsafe_get a.limbs (nlimbs - 1) <> 0 then begin
      ignore (update a bits (-1));
      invalid_arg "Traffic.Sum.add: sum out of range"
    end;
    (* The limb [top] is zero only when the component is. *)
    if top > a.top && Array.unsafe_get a.limbs top <> 0 then a.top <- top

  let remove_bits a bits =
    ignore (update a bits (-1));
    if Array.unsafe_get a.limbs (nlimbs - 1) <> 0 then begin
      ignore (update a bits 1);
      invalid_arg "Traffic.Sum.remove: more removed than added"
    end;
    (* The new top is at most a few limbs down: the gap is bounded by the
       spread of the summed magnitudes, not by the number of terms. *)
    if a.nonzero = 0 then a.top <- -1
    else
      while Array.unsafe_get a.limbs a.top = 0 do
        a.top <- a.top - 1
      done

  let bit_length x =
    let n = ref 1 and x = ref x in
    if !x lsr 32 <> 0 then (n := !n + 32; x := !x lsr 32);
    if !x lsr 16 <> 0 then (n := !n + 16; x := !x lsr 16);
    if !x lsr 8 <> 0 then (n := !n + 8; x := !x lsr 8);
    if !x lsr 4 <> 0 then (n := !n + 4; x := !x lsr 4);
    if !x lsr 2 <> 0 then (n := !n + 2; x := !x lsr 2);
    if !x lsr 1 <> 0 then n := !n + 1;
    !n

  (* Round the 54-bit window [w] (53 mantissa bits over one guard bit,
     its lowest bit at global bit [lsb]) half-to-even, [sticky] telling
     whether any bit below the window is set. *)
  let[@inline] round w ~sticky ~lsb =
    let m = w lsr 1 in
    let m = if w land 1 = 1 && (sticky || m land 1 = 1) then m + 1 else m in
    (* m * 2^(lsb + 1 - 1074) with 2^52 <= m <= 2^53 has the biased
       exponent lsb + 2: the hidden bit of [m] adds the last 1 to the
       exponent field, and a round-up to 2^53 carries one more. *)
    if lsb + 2 >= 0x7ff then Float.infinity
    else
      Int64.float_of_bits
        (Int64.add (Int64.shift_left (Int64.of_int (lsb + 1)) 52) (Int64.of_int m))

  let[@inline] to_float a =
    let t = a.top in
    if t < 0 then 0.
    else
      let hi = Array.unsafe_get a.limbs t in
      let b = bit_length hi in
      if b >= 54 then
        let drop = b - 54 in
        round (hi lsr drop)
          ~sticky:(hi land ((1 lsl drop) - 1) <> 0 || a.nonzero > 1)
          ~lsb:((t * limb_bits) + drop)
      else if t = 0 then
        (* Fewer than 54 significant bits in all: exact. *)
        Float.ldexp (float_of_int hi) (-1074)
      else
        let need = 54 - b and lo = Array.unsafe_get a.limbs (t - 1) in
        let keep = limb_bits - need in
        round
          ((hi lsl need) lor (lo lsr keep))
          ~sticky:
            (lo land ((1 lsl keep) - 1) <> 0
            || a.nonzero > (if lo <> 0 then 2 else 1))
          ~lsb:((t * limb_bits) - need)

  type t = { sigmas : acc; rhos : acc; peaks : acc; lmaxs : acc; mutable count : int }

  let create () =
    { sigmas = acc (); rhos = acc (); peaks = acc (); lmaxs = acc (); count = 0 }

  let add s (p : profile) =
    add_bits s.sigmas (bits_of p.sigma);
    add_bits s.rhos (bits_of p.rho);
    add_bits s.peaks (bits_of p.peak);
    add_bits s.lmaxs (bits_of p.lmax);
    s.count <- s.count + 1

  let remove s (p : profile) =
    if s.count = 0 then invalid_arg "Traffic.Sum.remove: empty sum";
    remove_bits s.sigmas (bits_of p.sigma);
    remove_bits s.rhos (bits_of p.rho);
    remove_bits s.peaks (bits_of p.peak);
    remove_bits s.lmaxs (bits_of p.lmax);
    s.count <- s.count - 1

  let value s : profile =
    if s.count = 0 then invalid_arg "Traffic.Sum.value: empty sum";
    {
      sigma = to_float s.sigmas;
      rho = to_float s.rhos;
      peak = to_float s.peaks;
      lmax = to_float s.lmaxs;
    }
end

let aggregate = function
  | [] -> invalid_arg "Traffic.aggregate: empty list"
  | ps ->
      let s = Sum.create () in
      List.iter (Sum.add s) ps;
      Sum.value s

let add a b = aggregate [ a; b ]

let conforms p ~rate = p.rho <= rate && rate <= p.peak
