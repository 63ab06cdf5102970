module Traffic = Bbr_vtrs.Traffic
module Delay = Bbr_vtrs.Delay
module Vtedf = Bbr_vtrs.Vtedf
module Topology = Bbr_vtrs.Topology

(* {!Bbr_util.Fp}'s comparisons, restated so that they inline: the dev
   profile compiles with -opaque, where every call into another module
   boxes its float arguments, and the loops below compare per class.
   Same formula, same tolerance. *)
module Fp = struct
  let[@inline] tol a b =
    Bbr_util.Fp.default_eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

  let[@inline] leq a b = a <= b +. tol a b

  let[@inline] geq a b = a >= b -. tol a b

  let[@inline] lt a b = a < b -. tol a b

  let[@inline] gt a b = a > b +. tol a b

  let[@inline] approx a b = Float.abs (a -. b) <= tol a b
end

type path_state = {
  hops : int;
  rate_hops : int;
  delay_hops : int;
  d_tot : float;
  cres : float;
  edf : Vtedf.t list;
}

let path_state node_mib path_mib (info : Path_mib.info) =
  let edf =
    List.filter_map
      (fun (l : Topology.link) ->
        (Node_mib.entry node_mib ~link_id:l.Topology.link_id).Node_mib.edf)
      info.Path_mib.links
  in
  {
    hops = info.Path_mib.hops;
    rate_hops = info.Path_mib.rate_hops;
    delay_hops = info.Path_mib.delay_hops;
    d_tot = info.Path_mib.d_tot;
    cres = Path_mib.residual path_mib info;
    edf;
  }

let rate_based ps (p : Traffic.t) ~dreq =
  if ps.delay_hops <> 0 then
    invalid_arg "Admission.rate_based: path has delay-based hops";
  match Delay.min_rate_rate_based p ~hops:ps.hops ~d_tot:ps.d_tot ~dreq with
  | None -> Error Types.Delay_unachievable
  | Some rmin ->
      let low = Float.max p.Traffic.rho rmin in
      let up = Float.min p.Traffic.peak ps.cres in
      if Fp.leq low up then Ok low
      else if Fp.gt rmin p.Traffic.peak then Error Types.Delay_unachievable
      else Error Types.Insufficient_bandwidth

let schedulable ps ~rate ~delay ~lmax =
  Fp.leq rate ps.cres
  && List.for_all (fun edf -> Vtedf.can_admit edf ~rate ~delay ~lmax) ps.edf

(* ------------------------------------------------------------------ *)
(* Mixed rate/delay-based paths (Section 3.2).                        *)

(* The merged breakpoint table: every distinct delay value [d^m] supported
   across the delay-based schedulers of the path, with the minimal residual
   service [S^m] of the path at [d^m] (paper, Section 3.2).  Kept as
   parallel arrays so an admission cache can maintain the table in place
   and hand it to {!mixed} without re-merging. *)
type merged = { m : int; md : float array; ms : float array }

let merge_breakpoints ps =
  let module M = Map.Make (Float) in
  let merge acc edf =
    List.fold_left
      (fun acc (d, s) ->
        M.update d (function None -> Some s | Some s0 -> Some (Float.min s0 s)) acc)
      acc (Vtedf.breakpoints edf)
  in
  let map = List.fold_left merge M.empty ps.edf in
  let m = M.cardinal map in
  let md = Array.make (max 1 m) 0. and ms = Array.make (max 1 m) 0. in
  let i = ref 0 in
  M.iter
    (fun d s ->
      md.(!i) <- d;
      ms.(!i) <- s;
      incr i)
    map;
  { m; md; ms }

(* Shared precomputation for [mixed] and [mixed_reference].  The request's
   constants sit in a float-only record, stored unboxed, so that the
   per-interval loops read them without boxing. *)
type consts = {
  tval : float;  (* t^nu *)
  xi : float;  (* Xi^nu *)
  lmax : float;
  rho : float;
  r_cap : float;  (* min(peak, cres) *)
  ub_tail : float;  (* upper bound on r from breakpoints with d >= t; can be < 0 *)
}

type mixed_ctx = {
  c : consts;
  mg : merged;
  n_lt : int;  (* number of breakpoints with d < t (index of interval count - 1) *)
}

let make_ctx ?bps ps (p : Traffic.t) ~dreq =
  if ps.delay_hops = 0 then invalid_arg "Admission.mixed: path has no delay-based hop";
  let dh = float_of_int ps.delay_hops in
  let ton = Traffic.t_on p in
  let tval = (dreq -. ps.d_tot +. ton) /. dh in
  if tval <= 0. then Error Types.Delay_unachievable
  else begin
    let xi =
      ((ton *. p.Traffic.peak) +. (float_of_int (ps.rate_hops + 1) *. p.Traffic.lmax))
      /. dh
    in
    let mg = match bps with Some mg -> mg | None -> merge_breakpoints ps in
    let n_lt =
      let count = ref 0 in
      for k = 0 to mg.m - 1 do
        if mg.md.(k) < tval then incr count
      done;
      !count
    in
    (* Constraints from flows whose delay parameter is >= t apply to every
       candidate: r (d^k - t) + Xi + lmax <= S^k. *)
    let ub_tail = ref infinity in
    let feasible = ref true in
    for k = n_lt to mg.m - 1 do
      let d = mg.md.(k) and s = mg.ms.(k) in
      if Fp.approx d tval then begin
        if Fp.lt s (xi +. p.Traffic.lmax) then feasible := false
      end
      else begin
        let bound = (s -. xi -. p.Traffic.lmax) /. (d -. tval) in
        if bound < !ub_tail then ub_tail := bound
      end
    done;
    if not !feasible then Error Types.Not_schedulable
    else
      Ok
        {
          c =
            {
              tval;
              xi;
              lmax = p.Traffic.lmax;
              rho = p.Traffic.rho;
              r_cap = Float.min p.Traffic.peak ps.cres;
              ub_tail = !ub_tail;
            };
          mg;
          n_lt;
        }
  end

(* Interval j (0-based, j in [0, n_lt]) covers candidate delays
   [lo_j, hi_j) with lo_j = d^{j-1} (0 for j = 0) and hi_j = d^j
   (t for j = n_lt). *)
let[@inline] interval_lo ctx j = if j = 0 then 0. else ctx.mg.md.(j - 1)

let[@inline] interval_hi ctx j = if j = ctx.n_lt then ctx.c.tval else ctx.mg.md.(j)

(* Lower bound on r from flows with delay parameter in [hi_j, t), for
   every interval j at once: r >= (Xi + lmax - S^k) / (t - d^k) for k in
   [j, n_lt), 0 when there is none.  One right-to-left pass, as a suffix
   max: max is exact, and starting from +0 and replacing only on a strict
   [>] gives the same bits as taking each interval's max on its own. *)
let del_lower ctx =
  let n = ctx.n_lt in
  let lb = Array.make (n + 1) 0. in
  for k = n - 1 downto 0 do
    let bound = (ctx.c.xi +. ctx.c.lmax -. ctx.mg.ms.(k)) /. (ctx.c.tval -. ctx.mg.md.(k)) in
    lb.(k) <- (if bound > lb.(k + 1) then bound else lb.(k + 1))
  done;
  lb

(* The corresponding published upper-bound term of eq. (11); vacuous for
   candidates inside interval j (see DESIGN.md) but kept as printed. *)
let del_upper ctx j =
  let ub = ref ctx.c.ub_tail in
  for k = j to ctx.n_lt - 1 do
    let bound = (ctx.c.xi +. ctx.c.lmax) /. (ctx.c.tval -. ctx.mg.md.(k)) in
    if bound < !ub then ub := bound
  done;
  !ub

let delay_for ctx rate = Float.max 0. (ctx.c.tval -. (ctx.c.xi /. rate))

(* Figure-4 scan: from the rightmost interval [m*] leftwards, maintaining
   the R_del edges incrementally — moving one interval left adds exactly
   one breakpoint's constraints, which keeps the whole scan O(M) as the
   paper claims.  Theorem 1 gives both the early-accept rule (the
   delay-constraint lower edge is globally minimal) and the early-reject
   rule.  Returns the minimal rate, [nan] when no interval yields one; the
   delay is [delay_for] of it. *)
let mixed_scan ctx =
  let rate = ref nan in
  let j = ref ctx.n_lt in
  let stop = ref false in
  let del_l_run = ref 0. and del_r_run = ref ctx.c.ub_tail in
  while (not !stop) && !j >= 0 do
    (* Entering interval j brings breakpoint j (delays in [d^j, t)) into
       the constraint set. *)
    if !j < ctx.n_lt then begin
      let gap = ctx.c.tval -. ctx.mg.md.(!j) in
      del_l_run := Float.max !del_l_run ((ctx.c.xi +. ctx.c.lmax -. ctx.mg.ms.(!j)) /. gap);
      del_r_run := Float.min !del_r_run ((ctx.c.xi +. ctx.c.lmax) /. gap)
    end;
    let lo_d = interval_lo ctx !j and hi_d = interval_hi ctx !j in
    let fea_l =
      let from_interval =
        if ctx.c.tval -. lo_d > 0. then ctx.c.xi /. (ctx.c.tval -. lo_d) else infinity
      in
      Float.max ctx.c.rho from_interval
    in
    let fea_r =
      if !j = ctx.n_lt then ctx.c.r_cap
      else if ctx.c.tval -. hi_d > 0. then
        Float.min ctx.c.r_cap (ctx.c.xi /. (ctx.c.tval -. hi_d))
      else ctx.c.r_cap
    in
    let del_l = !del_l_run in
    let del_r = !del_r_run in
    let lo = Float.max fea_l del_l and hi = Float.min fea_r del_r in
    if Fp.leq lo hi then begin
      if Fp.lt fea_l del_l then begin
        (* Theorem 1: r = r_del^{m,l} is the globally minimal rate. *)
        rate := del_l;
        stop := true
      end
      else begin
        (* The leftmost candidate so far. *)
        rate := fea_l;
        decr j
      end
    end
    else begin
      (* Empty intersection.  Moving left, [fea_r] and [del_r] only
         shrink while [del_l] only grows (the Figure-5 monotonicity), so
         emptiness caused by [del] or by the constant caps is final;
         emptiness caused by the interval membership edge
         [xi / (t - d^{m-1})] alone is recoverable further left. *)
      let break_now =
        Fp.gt del_l del_r || Fp.lt fea_r del_l || Fp.lt fea_r ctx.c.rho
      in
      if break_now then stop := true else decr j
    end
  done;
  !rate

(* ------------------------------------------------------------------ *)
(* Exact reference oracle: every constraint per interval.              *)

(* Smallest delay in [lo, hi) at which a packet of size [lmax] meets the
   candidate's own schedulability constraint at scheduler [edf]
   (residual_service >= lmax), [nan] when there is none; the residual
   service is linear within the interval. *)
let own_delay_in edf ~lmax ~lo ~hi =
  let g0 = Vtedf.residual_service edf ~at:lo in
  if Fp.geq g0 lmax then lo
  else begin
    let slope = Vtedf.capacity edf -. Vtedf.rate_below edf ~at:lo in
    if slope <= 0. then nan
    else
      let d = lo +. ((lmax -. g0) /. slope) in
      if d < hi then d else nan
  end

(* The smallest delay [>= acc] in [lo, hi) that meets the own-deadline
   constraint at every scheduler of [edfs], [nan] when there is none. *)
let rec own_delay edfs ~lmax ~lo ~hi acc =
  match edfs with
  | [] -> acc
  | edf :: rest ->
      let d = own_delay_in edf ~lmax ~lo ~hi in
      if Float.is_nan d then nan else own_delay rest ~lmax ~lo ~hi (Float.max acc d)

(* Interval j admits the least rate [r_lo_j = max (rho, xi / (t - dlo),
   del_lower_j)], where [dlo] is the least delay in [lo_j, hi_j) meeting
   the candidate's own deadline at every scheduler, provided [Fp.leq
   r_lo_j r_hi_j]; the answer is the first interval's of least rate.
   Evaluating every interval costs O(M^2 H).  This scan is O(M) in
   practice: [del_lower] of every interval in one pass, and the
   own-deadline search ([own_delay], O(M H)) only on intervals that can
   still win.

   [lb_j = max (rho, xi / (t - lo_j), del_lower_j)] is [<= r_lo_j] in
   floats: [dlo >= lo_j], and subtraction, division and [Float.max] round
   monotonically.  So interval j is skipped when an earlier interval's
   rate is [<= lb_j] (it cannot replace the first minimum), or when
   [Fp.leq lb_j r_hi_j] fails.  [Fp.leq a b] is [a <= b + eps max (1, |a|,
   |b|)], and [a - eps max (1, |a|, |b|)] strictly increases with [a], so
   it fails for [r_lo_j] too.  Rounding cannot undo that: the right side
   moves with [a] by only about [eps] per unit of [a], at most one
   rounding step between two floats an ulp apart, and two distinct floats
   failing and passing would need two.

   The tests keep the per-interval loop as the specification and check
   this scan against it bit for bit. *)
let mixed_reference_scan ps ctx =
  let n = ctx.n_lt in
  let del_lower = del_lower ctx in
  let found = ref false and best = ref 0. in
  for j = 0 to n do
    let lo_d = interval_lo ctx j and hi_d = interval_hi ctx j in
    let r_hi =
      let from_interval =
        if j = n then infinity
        else if ctx.c.tval -. hi_d > 0. then ctx.c.xi /. (ctx.c.tval -. hi_d)
        else infinity
      in
      Float.min ctx.c.r_cap (Float.min ctx.c.ub_tail from_interval)
    in
    let lb =
      let from_delay =
        if ctx.c.tval -. lo_d > 0. then ctx.c.xi /. (ctx.c.tval -. lo_d) else infinity
      in
      Float.max ctx.c.rho (Float.max from_delay del_lower.(j))
    in
    if (not (!found && !best <= lb)) && Fp.leq lb r_hi then begin
      let dlo = own_delay ps.edf ~lmax:ctx.c.lmax ~lo:lo_d ~hi:hi_d lo_d in
      if not (Float.is_nan dlo) then begin
        let r_lo =
          let from_delay =
            if ctx.c.tval -. dlo > 0. then ctx.c.xi /. (ctx.c.tval -. dlo) else infinity
          in
          Float.max ctx.c.rho (Float.max from_delay del_lower.(j))
        in
        if Fp.leq r_lo r_hi && not (!found && !best <= r_lo) then begin
          found := true;
          best := r_lo
        end
      end
    end
  done;
  if !found then Some (!best, delay_for ctx !best) else None

let classify_reject ps (p : Traffic.t) ctx =
  (* Distinguish "never admissible on this path" from load-dependent
     rejections.  Even an idle path cannot push the delay parameter below
     the per-scheduler floor lmax/C (the candidate's own constraint), so
     the load-independent minimal rate is Xi / (t - d_floor); if that
     exceeds the peak rate, no load relief can ever help. *)
  let d_floor =
    List.fold_left
      (fun acc edf -> Float.max acc (p.Traffic.lmax /. Vtedf.capacity edf))
      0. ps.edf
  in
  if
    ctx.c.tval <= d_floor
    || Fp.gt (ctx.c.xi /. (ctx.c.tval -. d_floor)) p.Traffic.peak
  then Types.Delay_unachievable
  else if Fp.lt ps.cres p.Traffic.rho then Types.Insufficient_bandwidth
  else Types.Not_schedulable

let reference ps p ctx =
  match mixed_reference_scan ps ctx with
  | Some pair -> Ok pair
  | None -> Error (classify_reject ps p ctx)

let mixed_reference ?bps ps p ~dreq =
  match make_ctx ?bps ps p ~dreq with
  | Error e -> Error e
  | Ok ctx -> reference ps p ctx

(* The Figure-4 formulas omit the candidate's own-deadline constraint, so
   the scan's pair can fail the exact check, and the scan can find none
   where one exists: both fall back to the oracle, on the same context. *)
let mixed ?bps ps p ~dreq =
  match make_ctx ?bps ps p ~dreq with
  | Error e -> Error e
  | Ok ctx ->
      let rate = mixed_scan ctx in
      let delay = delay_for ctx rate in
      if (not (Float.is_nan rate)) && schedulable ps ~rate ~delay ~lmax:ctx.c.lmax then
        Ok (rate, delay)
      else reference ps p ctx

type interval_view = {
  index : int;
  d_lo : float;
  d_hi : float;
  fea_l : float;
  fea_r : float;
  del_l : float;
  del_r : float;
}

let intervals ?bps ps p ~dreq =
  match make_ctx ?bps ps p ~dreq with
  | Error _ -> []
  | Ok ctx ->
      let del_lower = del_lower ctx in
      List.init (ctx.n_lt + 1) (fun j ->
          let lo_d = interval_lo ctx j and hi_d = interval_hi ctx j in
          let fea_l =
            Float.max ctx.c.rho
              (if ctx.c.tval -. lo_d > 0. then ctx.c.xi /. (ctx.c.tval -. lo_d) else infinity)
          in
          let fea_r =
            if j = ctx.n_lt then ctx.c.r_cap
            else if ctx.c.tval -. hi_d > 0. then
              Float.min ctx.c.r_cap (ctx.c.xi /. (ctx.c.tval -. hi_d))
            else ctx.c.r_cap
          in
          {
            index = j + 1;
            d_lo = lo_d;
            d_hi = hi_d;
            fea_l;
            fea_r;
            del_l = del_lower.(j);
            del_r = del_upper ctx j;
          })

let admit ?bps ps p ~dreq =
  if ps.delay_hops = 0 then
    match rate_based ps p ~dreq with
    | Ok rate -> Ok { Types.rate; delay = 0. }
    | Error e -> Error e
  else
    match mixed ?bps ps p ~dreq with
    | Ok (rate, delay) -> Ok { Types.rate; delay }
    | Error e -> Error e

(* Brownout fallback: the Section-3.1 closed form applied to a mixed path.
   Treat every hop as rate-based — r_min over all [hops] — and hand each
   delay-based scheduler the pair <r, lmax/r>, under which a VT-EDF server
   contributes exactly the lmax/r per-hop term a rate-based server would
   (eq. (2) with d = lmax/r collapses to eq. (4)'s all-rate-based form), so
   the end-to-end bound holds by construction.  The pair is still validated
   against the exact schedulability condition before being offered: the
   test can only refuse flows {!mixed} would have placed (no interval scan,
   no rate-delay trade-off), never admit one the exact oracle rejects. *)
let conservative ps (p : Traffic.t) ~dreq =
  if ps.delay_hops = 0 then
    match rate_based ps p ~dreq with
    | Ok rate -> Ok { Types.rate; delay = 0. }
    | Error e -> Error e
  else
    match Delay.min_rate_rate_based p ~hops:ps.hops ~d_tot:ps.d_tot ~dreq with
    | None -> Error Types.Delay_unachievable
    | Some rmin ->
        if Fp.gt rmin p.Traffic.peak then Error Types.Delay_unachievable
        else begin
          let rate = Float.max p.Traffic.rho rmin in
          if Fp.gt rate ps.cres then Error Types.Insufficient_bandwidth
          else begin
            let delay = p.Traffic.lmax /. rate in
            if schedulable ps ~rate ~delay ~lmax:p.Traffic.lmax then
              Ok { Types.rate; delay }
            else Error Types.Not_schedulable
          end
        end
