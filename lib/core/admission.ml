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

let path_state_of (info : Path_mib.info) ~cres ~edf =
  {
    hops = info.Path_mib.hops;
    rate_hops = info.Path_mib.rate_hops;
    delay_hops = info.Path_mib.delay_hops;
    d_tot = info.Path_mib.d_tot;
    cres;
    edf;
  }

let path_state node_mib path_mib (info : Path_mib.info) =
  path_state_of info
    ~cres:(Path_mib.residual path_mib info)
    ~edf:
      (List.filter_map
         (fun (l : Topology.link) ->
           (Node_mib.entry node_mib ~link_id:l.Topology.link_id).Node_mib.edf)
         info.Path_mib.links)

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

(* Breakpoint tables (Section 3.2): one per delay-based scheduler, and
   the path's merged one with every distinct delay [d^m] across them and
   the minimal residual service [S^m] at it.  The first [n] entries of the
   parallel arrays are the table; longer buffers let a cache refill them
   in place. *)
type table = { mutable n : int; mutable d : float array; mutable s : float array }

let table () = { n = 0; d = [||]; s = [||] }

let reserve a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0.

let fill tb edf =
  let n = Vtedf.class_count edf in
  tb.d <- reserve tb.d n;
  tb.s <- reserve tb.s n;
  tb.n <- Vtedf.breakpoints_into edf ~d:tb.d ~s:tb.s

(* Merges tables [a] and [b] into [into]'s buffers, which must hold
   [a.n + b.n] entries, in one tight pass: each delay once, [Float.min] of
   the two services at a delay both hold.  A scheduler's delays are
   strictly increasing, and so are the result's. *)
let merge2 a b into =
  let i = ref 0 and j = ref 0 and m = ref 0 in
  while !i < a.n && !j < b.n do
    let x = a.d.(!i) and y = b.d.(!j) in
    if x < y then begin
      into.d.(!m) <- x;
      into.s.(!m) <- a.s.(!i);
      incr i
    end
    else if y < x then begin
      into.d.(!m) <- y;
      into.s.(!m) <- b.s.(!j);
      incr j
    end
    else begin
      into.d.(!m) <- x;
      into.s.(!m) <- Float.min a.s.(!i) b.s.(!j);
      incr i;
      incr j
    end;
    incr m
  done;
  let m = !m in
  Array.blit a.d !i into.d m (a.n - !i);
  Array.blit a.s !i into.s m (a.n - !i);
  let m = m + a.n - !i in
  Array.blit b.d !j into.d m (b.n - !j);
  Array.blit b.s !j into.s m (b.n - !j);
  into.n <- m + b.n - !j

(* H - 1 successive two-way merges, alternating between [into] and
   [scratch] so the last lands in [into]; each pass grows its output's
   buffers to the sum of its inputs when short.  Without NaNs
   [Float.min] is associative and commutative, so the grouping does not
   change a bit of the result. *)
let merge tables ~scratch ~into =
  let h = Array.length tables in
  if h = 0 then into.n <- 0
  else if h = 1 then begin
    let tb = tables.(0) in
    into.d <- reserve into.d tb.n;
    into.s <- reserve into.s tb.n;
    Array.blit tb.d 0 into.d 0 tb.n;
    Array.blit tb.s 0 into.s 0 tb.n;
    into.n <- tb.n
  end
  else begin
    let acc = ref tables.(0) in
    for k = 1 to h - 1 do
      (* the k-th merge writes to [into] iff h - 1 - k is even *)
      let out = if (h - 1 - k) land 1 = 0 then into else scratch in
      let tb = tables.(k) in
      out.d <- reserve out.d (!acc.n + tb.n);
      out.s <- reserve out.s (!acc.n + tb.n);
      merge2 !acc tb out;
      acc := out
    done
  end

let merge_breakpoints ps =
  let tables =
    Array.of_list
      (List.map
         (fun edf ->
           let tb = table () in
           fill tb edf;
           tb)
         ps.edf)
  in
  let mg = table () in
  merge tables ~scratch:(table ()) ~into:mg;
  mg

(* Shared precomputation for [mixed] and [intervals].  The request's
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
  mg : table;
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
      for k = 0 to mg.n - 1 do
        if mg.d.(k) < tval then incr count
      done;
      !count
    in
    (* Constraints from flows whose delay parameter is >= t apply to every
       candidate: r (d^k - t) + Xi + lmax <= S^k. *)
    let ub_tail = ref infinity in
    let feasible = ref true in
    for k = n_lt to mg.n - 1 do
      let d = mg.d.(k) and s = mg.s.(k) in
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
let[@inline] interval_lo ctx j = if j = 0 then 0. else ctx.mg.d.(j - 1)

let[@inline] interval_hi ctx j = if j = ctx.n_lt then ctx.c.tval else ctx.mg.d.(j)

(* Lower bound on r from flows with delay parameter in [hi_j, t), for
   every interval j at once: r >= (Xi + lmax - S^k) / (t - d^k) for k in
   [j, n_lt), 0 when there is none.  One right-to-left pass, as a suffix
   max: max is exact, and starting from +0 and replacing only on a strict
   [>] gives the same bits as taking each interval's max on its own. *)
let del_lower ctx =
  let n = ctx.n_lt in
  let lb = Array.make (n + 1) 0. in
  for k = n - 1 downto 0 do
    let bound = (ctx.c.xi +. ctx.c.lmax -. ctx.mg.s.(k)) /. (ctx.c.tval -. ctx.mg.d.(k)) in
    lb.(k) <- (if bound > lb.(k + 1) then bound else lb.(k + 1))
  done;
  lb

(* The corresponding published upper-bound term of eq. (11); vacuous for
   candidates inside interval j (see DESIGN.md) but kept as printed. *)
let del_upper ctx j =
  let ub = ref ctx.c.ub_tail in
  for k = j to ctx.n_lt - 1 do
    let bound = (ctx.c.xi +. ctx.c.lmax) /. (ctx.c.tval -. ctx.mg.d.(k)) in
    if bound < !ub then ub := bound
  done;
  !ub

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

   The published interval formulas (eqs. (10) and (11), Figure 4) lack
   the own-deadline term, so their pair can fail eq. (5) and they can
   find none where one exists; they survive only as {!intervals}' table.
   The tests keep the per-interval loop as the specification and check
   this scan against it bit for bit. *)
let mixed ?bps ps p ~dreq =
  match make_ctx ?bps ps p ~dreq with
  | Error e -> Error e
  | Ok ctx ->
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
      if !found then Ok (!best, Float.max 0. (ctx.c.tval -. (ctx.c.xi /. !best)))
      else Error (classify_reject ps p ctx)

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
