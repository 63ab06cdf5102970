(* {!Bbr_util.Fp}'s comparisons, restated so that they inline: the dev
   profile compiles with -opaque, where every call into another module
   boxes its float arguments, and the checks below compare per class.
   Same formula, same tolerance. *)
module Fp = struct
  let[@inline] tol a b =
    Bbr_util.Fp.default_eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

  let[@inline] leq a b = a <= b +. tol a b

  let[@inline] geq a b = a >= b -. tol a b
end

type klass = {
  delay : float;
  sum_rate : float;
  sum_lmax : float;
  count : int;
}

(* The running total sits in an all-float record, stored flat, so an
   update writes the double in place; a mutable float field of [t] (a
   mixed record) would box on every store. *)
type sums = { mutable total : float }

(* Flat sorted parallel arrays, one slot per distinct delay class.  The
   admission hot path queries this structure once per hop per request, so
   class updates are in place and the query loops below allocate nothing.
   [version] counts mutations. *)
type t = {
  cap : float;
  mutable n : int;  (* live classes: the paper's M *)
  mutable keys : float array;  (* canonical delays: the matching identity *)
  mutable delays : float array;
  mutable rates : float array;  (* total reserved rate per class *)
  mutable lmaxs : float array;  (* total max packet size per class *)
  mutable counts : int array;
  sums : sums;
  mutable flows : int;
  mutable version : int;
}

let initial_slots = 8

let create ~capacity =
  if capacity <= 0. then invalid_arg "Vtedf.create: capacity must be positive";
  {
    cap = capacity;
    n = 0;
    keys = Array.make initial_slots 0.;
    delays = Array.make initial_slots 0.;
    rates = Array.make initial_slots 0.;
    lmaxs = Array.make initial_slots 0.;
    counts = Array.make initial_slots 0;
    sums = { total = 0. };
    flows = 0;
    version = 0;
  }

let capacity t = t.cap

let total_rate t = t.sums.total

let flow_count t = t.flows

let class_count t = t.n

let version t = t.version

let classes t =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ({
           delay = t.delays.(i);
           sum_rate = t.rates.(i);
           sum_lmax = t.lmaxs.(i);
           count = t.counts.(i);
         }
        :: acc)
  in
  go (t.n - 1) []

(* Class membership must be a {e pure function of the delay value}.
   Exact [=] grouping splits one logical class under float noise
   (inflating M, and a noisy [remove] misses the class it booked into);
   nearest-class-within-tolerance matching is worse — it makes membership
   depend on the class set {e at add time}, and a class created later
   between a member's delay and its class delay silently steals the
   member's [remove].  So matching goes through a canonical {e key}: the
   delay's mantissa rounded at 2^-36 relative precision.  Noise below
   ~7e-12 relative maps to the same key, keys are matched exactly — add
   and remove of the same float can never disagree — and the class keeps
   its first member's {e raw} delay for all arithmetic, so the demand
   curve is untouched by the quantization. *)
let canon_frexp d =
  if d = 0. then 0.
  else
    let m, e = Float.frexp d in
    Float.ldexp (Float.round (m *. 0x1p36) *. 0x1p-36) e

(* [canon_frexp] on the IEEE bits, without the [frexp] tuple, so it
   allocates nothing.  Keeping 36 of the 53 significant bits drops the
   low 17 stored ones: adding half their weight ([1 lsl 16]) and
   clearing them rounds half away from zero, and a carry out of the
   mantissa bumps the exponent, as [ldexp] of a mantissa rounded up to 1
   does.  The OCaml int holds the low 63 bits, all of a positive
   double's, and [Int64.of_int] sign-extends them, so the result is
   masked back to a positive [Int64].  Zero, subnormals (whose [frexp]
   mantissa is renormalised), the top exponent, negatives and NaN keep
   the [frexp] form. *)
let[@inline] canon d =
  if d >= 0x1p-1022 && d < 0x1p1023 then
    let b = Int64.to_int (Int64.bits_of_float d) in
    Int64.float_of_bits
      (Int64.logand (Int64.of_int ((b + 0x10000) land lnot 0x1ffff)) Int64.max_int)
  else canon_frexp d

(* [canon] is monotone and classes with equal keys merge, so the keys
   array is strictly increasing and parallel to the (also increasing) raw
   delays. *)
let[@inline] key_lower_bound t k =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* The slot of key [k], or [-1 - i] when it is absent and belongs at
   [i]: an int, so the lookup allocates no [result]. *)
let[@inline] locate t k =
  let i = key_lower_bound t k in
  if i < t.n && t.keys.(i) = k then i else -1 - i

let grow t =
  let len = Array.length t.delays in
  if t.n = len then begin
    let len' = 2 * len in
    let widen a =
      let b = Array.make len' 0. in
      Array.blit a 0 b 0 len;
      b
    in
    t.keys <- widen t.keys;
    t.delays <- widen t.delays;
    t.rates <- widen t.rates;
    t.lmaxs <- widen t.lmaxs;
    let c = Array.make len' 0 in
    Array.blit t.counts 0 c 0 len;
    t.counts <- c
  end

let insert_at t i ~key ~rate ~delay ~lmax =
  grow t;
  let m = t.n - i in
  if m > 0 then begin
    Array.blit t.keys i t.keys (i + 1) m;
    Array.blit t.delays i t.delays (i + 1) m;
    Array.blit t.rates i t.rates (i + 1) m;
    Array.blit t.lmaxs i t.lmaxs (i + 1) m;
    Array.blit t.counts i t.counts (i + 1) m
  end;
  t.keys.(i) <- key;
  t.delays.(i) <- delay;
  t.rates.(i) <- rate;
  t.lmaxs.(i) <- lmax;
  t.counts.(i) <- 1;
  t.n <- t.n + 1

let delete_at t i =
  let m = t.n - i - 1 in
  if m > 0 then begin
    Array.blit t.keys (i + 1) t.keys i m;
    Array.blit t.delays (i + 1) t.delays i m;
    Array.blit t.rates (i + 1) t.rates i m;
    Array.blit t.lmaxs (i + 1) t.lmaxs i m;
    Array.blit t.counts (i + 1) t.counts i m
  end;
  t.n <- t.n - 1

let check_flow what ~rate ~delay ~lmax =
  if rate <= 0. then invalid_arg (what ^ ": rate must be positive");
  if lmax <= 0. then invalid_arg (what ^ ": lmax must be positive");
  if delay < 0. then invalid_arg (what ^ ": delay must be non-negative")

let add t ~rate ~delay ~lmax =
  check_flow "Vtedf.add" ~rate ~delay ~lmax;
  let k = canon delay in
  let i = locate t k in
  if i >= 0 then begin
    t.rates.(i) <- t.rates.(i) +. rate;
    t.lmaxs.(i) <- t.lmaxs.(i) +. lmax;
    t.counts.(i) <- t.counts.(i) + 1
  end
  else insert_at t (-1 - i) ~key:k ~rate ~delay ~lmax;
  t.version <- t.version + 1;
  t.sums.total <- t.sums.total +. rate;
  t.flows <- t.flows + 1

let find_class what t delay =
  let k = canon delay in
  let i = locate t k in
  if i < 0 then invalid_arg (what ^ ": no flow with this delay");
  i

let remove t ~rate ~delay ~lmax =
  let i = find_class "Vtedf.remove" t delay in
  if t.counts.(i) = 1 then delete_at t i
  else begin
    t.rates.(i) <- t.rates.(i) -. rate;
    t.lmaxs.(i) <- t.lmaxs.(i) -. lmax;
    t.counts.(i) <- t.counts.(i) - 1
  end;
  t.version <- t.version + 1;
  t.sums.total <- t.sums.total -. rate;
  t.flows <- t.flows - 1

(* [remove] of [old_rate] then [add] of [new_rate], folded into one
   lookup: every float comes out as the pair computes it.  A class whose
   only flow this is would be deleted and re-inserted at the same slot
   with the flow's own raw delay; otherwise its sums take [-. old +. new]
   and [-. lmax +. lmax] in that order. *)
let resize t ~delay ~lmax ~old_rate ~new_rate =
  check_flow "Vtedf.resize" ~rate:new_rate ~delay ~lmax;
  let i = find_class "Vtedf.resize" t delay in
  if t.counts.(i) = 1 then begin
    t.delays.(i) <- delay;
    t.rates.(i) <- new_rate;
    t.lmaxs.(i) <- lmax
  end
  else begin
    t.rates.(i) <- t.rates.(i) -. old_rate +. new_rate;
    t.lmaxs.(i) <- t.lmaxs.(i) -. lmax +. lmax
  end;
  t.version <- t.version + 1;
  t.sums.total <- t.sums.total -. old_rate +. new_rate

let demand t ~at =
  let acc = ref 0. in
  let i = ref 0 in
  while !i < t.n && t.delays.(!i) <= at do
    acc := !acc +. (t.rates.(!i) *. (at -. t.delays.(!i))) +. t.lmaxs.(!i);
    incr i
  done;
  !acc

let rate_below t ~at =
  let acc = ref 0. in
  let i = ref 0 in
  while !i < t.n && t.delays.(!i) <= at do
    acc := !acc +. t.rates.(!i);
    incr i
  done;
  !acc

let residual_service t ~at = (t.cap *. at) -. demand t ~at

let breakpoints_into t ~d ~s =
  if Array.length d < t.n || Array.length s < t.n then
    invalid_arg "Vtedf.breakpoints_into: buffer shorter than class_count";
  let demand = ref 0. and rsum = ref 0. and prev = ref 0. in
  for i = 0 to t.n - 1 do
    let dd = t.delays.(i) in
    let dm = !demand +. (!rsum *. (dd -. !prev)) +. t.lmaxs.(i) in
    d.(i) <- dd;
    s.(i) <- (t.cap *. dd) -. dm;
    demand := dm;
    rsum := !rsum +. t.rates.(i);
    prev := dd
  done;
  t.n

let schedulable t =
  Fp.leq t.sums.total t.cap
  && begin
       let ok = ref true in
       let demand = ref 0. and rsum = ref 0. and prev = ref 0. in
       let i = ref 0 in
       while !ok && !i < t.n do
         let dd = t.delays.(!i) in
         let dm = !demand +. (!rsum *. (dd -. !prev)) +. t.lmaxs.(!i) in
         let s = (t.cap *. dd) -. dm in
         (* Compare demand against supply rather than the residual against
            zero: the relative tolerance then matches the one {!can_admit}
            admitted under, so boundary admissions remain schedulable. *)
         let supply = t.cap *. dd in
         if Fp.leq (supply -. s) supply then begin
           demand := dm;
           rsum := !rsum +. t.rates.(!i);
           prev := dd;
           incr i
         end
         else ok := false
       done;
       !ok
     end

(* The candidate's own constraint at [delay], a point strictly inside the
   segment beginning at [prev]: demand grows linearly there, with no jump
   at [delay] itself. *)
let[@inline] own_ok t ~delay ~lmax demand rate_sum prev =
  let at_delay = demand +. (rate_sum *. (delay -. prev)) in
  Fp.geq ((t.cap *. delay) -. at_delay) lmax

(* Single linear pass: walk the classes accumulating the demand, checking
   the candidate's own constraint at [t = delay] and the eq.-(5) constraint
   at every breakpoint >= [delay].  When [delay] coincides with a
   breakpoint, that breakpoint's constraint subsumes the own constraint
   (it reads residual >= rate*0 + lmax). *)
let[@inline] admits t ~total ~skip ~trim ~trim_rate ~trim_lmax ~rate ~delay ~lmax =
  Fp.leq (total +. rate) t.cap
  && begin
       let demand = ref 0. and rsum = ref 0. and prev = ref 0. in
       let own_done = ref false in
       let ok = ref true in
       let i = ref 0 in
       while !ok && !i < t.n do
         let dd = t.delays.(!i) in
         if !i = skip then incr i
         else if (not !own_done) && dd > delay then
           if own_ok t ~delay ~lmax !demand !rsum !prev then own_done := true
           else ok := false
         else begin
           let lmax_i = if !i = trim then t.lmaxs.(!i) -. trim_lmax else t.lmaxs.(!i) in
           let dm = !demand +. (!rsum *. (dd -. !prev)) +. lmax_i in
           let s = (t.cap *. dd) -. dm in
           if dd < delay || Fp.geq s ((rate *. (dd -. delay)) +. lmax) then begin
             demand := dm;
             rsum :=
               !rsum +. if !i = trim then t.rates.(!i) -. trim_rate else t.rates.(!i);
             prev := dd;
             if dd >= delay then own_done := true;
             incr i
           end
           else ok := false
         end
       done;
       !ok && (!own_done || own_ok t ~delay ~lmax !demand !rsum !prev)
     end

let can_admit t ~rate ~delay ~lmax =
  admits t ~total:t.sums.total ~skip:(-1) ~trim:(-1) ~trim_rate:0. ~trim_lmax:0. ~rate
    ~delay ~lmax

(* The state [remove] of [old_rate] would leave, read in place: the
   class is skipped when this is its only flow, and otherwise its sums
   are taken as [rates.(i) -. old_rate] and [lmaxs.(i) -. lmax] inside
   the scan, the values the removal would store. *)
let can_resize t ~delay ~lmax ~old_rate ~new_rate =
  let i = find_class "Vtedf.can_resize" t delay in
  let alone = t.counts.(i) = 1 in
  admits t ~total:(t.sums.total -. old_rate)
    ~skip:(if alone then i else -1)
    ~trim:(if alone then -1 else i)
    ~trim_rate:old_rate
    ~trim_lmax:lmax ~rate:new_rate ~delay ~lmax

let pp ppf t =
  Fmt.pf ppf "@[<v>VT-EDF capacity=%g total_rate=%g flows=%d" t.cap t.sums.total
    t.flows;
  for i = 0 to t.n - 1 do
    Fmt.pf ppf "@,  d=%g rate=%g lmax=%g n=%d S=%g" t.delays.(i) t.rates.(i)
      t.lmaxs.(i) t.counts.(i)
      (residual_service t ~at:t.delays.(i))
  done;
  Fmt.pf ppf "@]"

(* A deep replica of the scheduler state.  The sharded broker's 2PC
   coordinator admits multi-shard paths against copies gathered from the
   owning shards, so it can run the exact Section-3.2 decision procedure
   without touching another domain's live arrays. *)
let copy t =
  {
    cap = t.cap;
    n = t.n;
    keys = Array.copy t.keys;
    delays = Array.copy t.delays;
    rates = Array.copy t.rates;
    lmaxs = Array.copy t.lmaxs;
    counts = Array.copy t.counts;
    sums = { total = t.sums.total };
    flows = t.flows;
    version = t.version;
  }
