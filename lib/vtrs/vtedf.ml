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

(* Flat sorted parallel arrays, one slot per distinct delay class.  The
   admission hot path queries this structure once per hop per request, so
   class updates are in place and the query loops below allocate nothing.
   [version] counts mutations; [dirty_low]/[clean_version] describe the
   window of classes touched since the (single) incremental breakpoint
   consumer last called {!refresh_breakpoints}. *)
type t = {
  cap : float;
  mutable n : int;  (* live classes: the paper's M *)
  mutable keys : float array;  (* canonical delays: the matching identity *)
  mutable delays : float array;
  mutable rates : float array;  (* total reserved rate per class *)
  mutable lmaxs : float array;  (* total max packet size per class *)
  mutable counts : int array;
  mutable total : float;
  mutable flows : int;
  mutable version : int;
  mutable clean_version : int;
  mutable dirty_low : float;  (* infinity when no mutation is pending *)
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
    total = 0.;
    flows = 0;
    version = 0;
    clean_version = 0;
    dirty_low = infinity;
  }

let capacity t = t.cap

let total_rate t = t.total

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

(* First index whose delay is >= [d] ([t.n] when none). *)
let lower_bound t d =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.delays.(mid) < d then lo := mid + 1 else hi := mid
  done;
  !lo

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
let canon d =
  if d = 0. then 0.
  else
    let m, e = Float.frexp d in
    Float.ldexp (Float.round (m *. 0x1p36) *. 0x1p-36) e

(* [canon] is monotone and classes with equal keys merge, so the keys
   array is strictly increasing and parallel to the (also increasing) raw
   delays. *)
let key_lower_bound t k =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let locate t k =
  let i = key_lower_bound t k in
  if i < t.n && t.keys.(i) = k then Ok i else Error i

let mark t ~low =
  t.version <- t.version + 1;
  if low < t.dirty_low then t.dirty_low <- low

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

let add t ~rate ~delay ~lmax =
  if rate <= 0. then invalid_arg "Vtedf.add: rate must be positive";
  if lmax <= 0. then invalid_arg "Vtedf.add: lmax must be positive";
  if delay < 0. then invalid_arg "Vtedf.add: delay must be non-negative";
  (match locate t (canon delay) with
  | Ok i ->
      t.rates.(i) <- t.rates.(i) +. rate;
      t.lmaxs.(i) <- t.lmaxs.(i) +. lmax;
      t.counts.(i) <- t.counts.(i) + 1;
      mark t ~low:(Float.min t.delays.(i) delay)
  | Error i ->
      insert_at t i ~key:(canon delay) ~rate ~delay ~lmax;
      mark t ~low:delay);
  t.total <- t.total +. rate;
  t.flows <- t.flows + 1

let remove t ~rate ~delay ~lmax =
  match locate t (canon delay) with
  | Error _ -> invalid_arg "Vtedf.remove: no flow with this delay"
  | Ok i ->
      let low = Float.min t.delays.(i) delay in
      if t.counts.(i) = 1 then delete_at t i
      else begin
        t.rates.(i) <- t.rates.(i) -. rate;
        t.lmaxs.(i) <- t.lmaxs.(i) -. lmax;
        t.counts.(i) <- t.counts.(i) - 1
      end;
      mark t ~low;
      t.total <- t.total -. rate;
      t.flows <- t.flows - 1

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

let breakpoints t =
  let rec go i acc demand rate_sum prev =
    if i = t.n then List.rev acc
    else
      let dd = t.delays.(i) in
      let demand = demand +. (rate_sum *. (dd -. prev)) +. t.lmaxs.(i) in
      go (i + 1)
        ((dd, (t.cap *. dd) -. demand) :: acc)
        demand
        (rate_sum +. t.rates.(i))
        dd
  in
  go 0 [] 0. 0. 0.

let check_buffers name len arrays =
  List.iter
    (fun a ->
      if Array.length a < len then
        invalid_arg (name ^ ": buffer shorter than class_count"))
    arrays

let breakpoints_into t ~d ~s =
  check_buffers "Vtedf.breakpoints_into" t.n [ d; s ];
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

let refresh_breakpoints t ~since ~d ~s ~dem ~rcum =
  check_buffers "Vtedf.refresh_breakpoints" t.n [ d; s; dem; rcum ];
  let from =
    if since >= t.clean_version then
      if t.dirty_low = infinity then t.n else lower_bound t t.dirty_low
    else 0 (* the caller is staler than the dirty window: full rebuild *)
  in
  (* Classes below [from] are untouched, so the buffered prefix accumulators
     still equal what a full recompute would produce there. *)
  let demand = ref (if from = 0 then 0. else dem.(from - 1)) in
  let rsum = ref (if from = 0 then 0. else rcum.(from - 1)) in
  let prev = ref (if from = 0 then 0. else d.(from - 1)) in
  for i = from to t.n - 1 do
    let dd = t.delays.(i) in
    let dm = !demand +. (!rsum *. (dd -. !prev)) +. t.lmaxs.(i) in
    d.(i) <- dd;
    dem.(i) <- dm;
    s.(i) <- (t.cap *. dd) -. dm;
    rcum.(i) <- !rsum +. t.rates.(i);
    demand := dm;
    rsum := rcum.(i);
    prev := dd
  done;
  t.clean_version <- t.version;
  t.dirty_low <- infinity;
  (t.n, from)

let schedulable t =
  Fp.leq t.total t.cap
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
let can_admit t ~rate ~delay ~lmax =
  Fp.leq (t.total +. rate) t.cap
  && begin
       let demand = ref 0. and rsum = ref 0. and prev = ref 0. in
       let own_done = ref false in
       let ok = ref true in
       let i = ref 0 in
       while !ok && !i < t.n do
         let dd = t.delays.(!i) in
         if (not !own_done) && dd > delay then
           if own_ok t ~delay ~lmax !demand !rsum !prev then own_done := true
           else ok := false
         else begin
           let dm = !demand +. (!rsum *. (dd -. !prev)) +. t.lmaxs.(!i) in
           let s = (t.cap *. dd) -. dm in
           if dd < delay || Fp.geq s ((rate *. (dd -. delay)) +. lmax) then begin
             demand := dm;
             rsum := !rsum +. t.rates.(!i);
             prev := dd;
             if dd >= delay then own_done := true;
             incr i
           end
           else ok := false
         end
       done;
       !ok && (!own_done || own_ok t ~delay ~lmax !demand !rsum !prev)
     end

(* [residual_service] is piecewise linear in [at] with non-negative slope
   between breakpoints (slope = capacity minus the rates of earlier classes)
   and a downward jump of [sum_lmax] at each breakpoint; we scan segments in
   order for the first point where it reaches [lmax]. *)
let min_feasible_delay t ~lmax =
  let solve_segment ~start ~value ~slope ~limit =
    (* Smallest d in [start, limit) with value + slope (d - start) >= lmax;
       [limit = infinity] for the last segment. *)
    if Fp.geq value lmax then Some start
    else if slope <= 0. then None
    else
      let d = start +. ((lmax -. value) /. slope) in
      if d < limit then Some d else None
  in
  let rec scan i start value slope =
    if i = t.n then solve_segment ~start ~value ~slope ~limit:infinity
    else
      let dd = t.delays.(i) in
      match solve_segment ~start ~value ~slope ~limit:dd with
      | Some d -> Some d
      | None ->
          let at_bp = value +. (slope *. (dd -. start)) -. t.lmaxs.(i) in
          scan (i + 1) dd at_bp (slope -. t.rates.(i))
  in
  scan 0 0. 0. t.cap

let pp ppf t =
  Fmt.pf ppf "@[<v>VT-EDF capacity=%g total_rate=%g flows=%d" t.cap t.total
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
   without touching another domain's live arrays.  The copy starts with a
   clean dirty window: it is a fresh single-consumer cache root. *)
let copy t =
  {
    cap = t.cap;
    n = t.n;
    keys = Array.copy t.keys;
    delays = Array.copy t.delays;
    rates = Array.copy t.rates;
    lmaxs = Array.copy t.lmaxs;
    counts = Array.copy t.counts;
    total = t.total;
    flows = t.flows;
    version = t.version;
    clean_version = t.version;
    dirty_low = infinity;
  }
