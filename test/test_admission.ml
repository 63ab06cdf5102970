(* Tests for the path-oriented admission control algorithms (paper
   Section 3), including cross-validation of the O(M) Figure-4 algorithm
   against the exact oracle. *)

module Admission = Bbr_broker.Admission
module Types = Bbr_broker.Types
module Traffic = Bbr_vtrs.Traffic
module Vtedf = Bbr_vtrs.Vtedf
module Delay = Bbr_vtrs.Delay

let type0 = Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.

let psi = 12_000. /. 1.5e6

(* A synthetic path state: [q] rate-based and [dq] delay-based hops of
   1.5 Mb/s links, with the given VT-EDF populations. *)
let mk_state ?(capacity = 1.5e6) ~q ~dq ?(cres = 1.5e6) ?(edf = []) () =
  let edf =
    if edf = [] then List.init dq (fun _ -> Vtedf.create ~capacity) else edf
  in
  {
    Admission.hops = q + dq;
    rate_hops = q;
    delay_hops = dq;
    d_tot = float_of_int (q + dq) *. psi;
    cres;
    edf;
  }

(* ------------------------------------------------------------------ *)
(* Rate-based-only paths (Section 3.1) *)

let test_rate_based_table2_values () =
  let ps = mk_state ~q:5 ~dq:0 () in
  (match Admission.rate_based ps type0 ~dreq:2.44 with
  | Ok r -> Alcotest.(check (float 1e-6)) "2.44 -> rho" 50_000. r
  | Error _ -> Alcotest.fail "expected admission");
  match Admission.rate_based ps type0 ~dreq:2.19 with
  | Ok r -> Alcotest.(check (float 1e-3)) "2.19" (168_000. /. 3.11) r
  | Error _ -> Alcotest.fail "expected admission"

let test_rate_based_insufficient_bandwidth () =
  let ps = mk_state ~q:5 ~dq:0 ~cres:40_000. () in
  match Admission.rate_based ps type0 ~dreq:2.44 with
  | Error Types.Insufficient_bandwidth -> ()
  | _ -> Alcotest.fail "expected bandwidth rejection"

let test_rate_based_delay_unachievable () =
  let ps = mk_state ~q:5 ~dq:0 () in
  (* Even at peak rate the bound cannot be met. *)
  match Admission.rate_based ps type0 ~dreq:0.3 with
  | Error Types.Delay_unachievable -> ()
  | Ok r -> Alcotest.failf "unexpected admission at %g" r
  | Error _ -> Alcotest.fail "wrong rejection reason"

let test_rate_based_rejects_mixed_path () =
  let ps = mk_state ~q:3 ~dq:2 () in
  Alcotest.check_raises "wrong path kind"
    (Invalid_argument "Admission.rate_based: path has delay-based hops") (fun () ->
      ignore (Admission.rate_based ps type0 ~dreq:2.44))

let test_rate_based_meets_bound_exactly () =
  let ps = mk_state ~q:5 ~dq:0 () in
  match Admission.rate_based ps type0 ~dreq:2.19 with
  | Ok r ->
      let bound = Delay.e2e_bound type0 ~q:5 ~delay_hops:0 ~rate:r ~delay:0. ~d_tot:ps.Admission.d_tot in
      Alcotest.(check (float 1e-6)) "binding" 2.19 bound
  | Error _ -> Alcotest.fail "expected admission"

(* ------------------------------------------------------------------ *)
(* Mixed paths (Section 3.2, Figure 4) *)

let test_mixed_empty_schedulers () =
  let ps = mk_state ~q:3 ~dq:2 () in
  match Admission.mixed ps type0 ~dreq:2.19 with
  | Ok (r, d) ->
      Alcotest.(check (float 1e-6)) "min rate is rho" 50_000. r;
      (* d = t - Xi/r with t = (2.19 - 0.04 + 0.96)/2, Xi = 144000/2 *)
      Alcotest.(check (float 1e-6)) "delay" (1.555 -. (72_000. /. 50_000.)) d;
      Alcotest.(check bool) "pair is schedulable" true
        (Admission.schedulable ps ~rate:r ~delay:d ~lmax:12_000.)
  | Error _ -> Alcotest.fail "expected admission"

let test_mixed_rejects_rate_only_path () =
  let ps = mk_state ~q:5 ~dq:0 () in
  Alcotest.check_raises "wrong path kind"
    (Invalid_argument "Admission.mixed: path has no delay-based hop") (fun () ->
      ignore (Admission.mixed ps type0 ~dreq:2.19))

let test_mixed_delay_unachievable () =
  let ps = mk_state ~q:3 ~dq:2 () in
  match Admission.mixed ps type0 ~dreq:0.01 with
  | Error Types.Delay_unachievable -> ()
  | _ -> Alcotest.fail "expected delay rejection"

let test_mixed_respects_capacity () =
  let ps = mk_state ~q:3 ~dq:2 ~cres:30_000. () in
  match Admission.mixed ps type0 ~dreq:2.19 with
  | Error _ -> ()
  | Ok (r, _) -> Alcotest.failf "admitted %g over a 30k residual" r

let test_mixed_result_meets_e2e_bound () =
  let ps = mk_state ~q:3 ~dq:2 () in
  match Admission.mixed ps type0 ~dreq:2.19 with
  | Ok (r, d) ->
      let bound = Delay.e2e_bound type0 ~q:3 ~delay_hops:2 ~rate:r ~delay:d ~d_tot:ps.Admission.d_tot in
      Alcotest.(check bool) "meets requirement" true (bound <= 2.19 +. 1e-9)
  | Error _ -> Alcotest.fail "expected admission"

let test_mixed_fills_like_paper () =
  (* Sequential identical admissions on a shared mixed path should accept
     exactly 27 type-0 flows at the 2.19 bound (Table 2), with the rate
     rising as the EDF schedulers load up (Figure 9). *)
  let capacity = 1.5e6 in
  let edf = [ Vtedf.create ~capacity; Vtedf.create ~capacity ] in
  let reserved = ref 0. in
  let rates = ref [] in
  let admitted = ref 0 in
  let continue = ref true in
  while !continue && !admitted < 100 do
    let ps = mk_state ~q:3 ~dq:2 ~cres:(capacity -. !reserved) ~edf () in
    match Admission.mixed ps type0 ~dreq:2.19 with
    | Ok (r, d) ->
        incr admitted;
        reserved := !reserved +. r;
        rates := r :: !rates;
        List.iter (fun s -> Vtedf.add s ~rate:r ~delay:d ~lmax:12_000.) edf
    | Error _ -> continue := false
  done;
  Alcotest.(check int) "27 flows" 27 !admitted;
  (* first flow at the sustained rate, later flows above it *)
  Alcotest.(check (float 1e-6)) "first at rho" 50_000. (List.nth !rates 26);
  Alcotest.(check bool) "rates nondecreasing overall" true
    (List.hd !rates >= List.nth !rates 26)

let test_mixed_minimality_vs_oracle_on_fill () =
  (* At every step of the fill the fast algorithm must agree with the
     exact oracle. *)
  let capacity = 1.5e6 in
  let edf = [ Vtedf.create ~capacity; Vtedf.create ~capacity ] in
  let reserved = ref 0. in
  let continue = ref true in
  let step = ref 0 in
  while !continue && !step < 40 do
    incr step;
    let ps = mk_state ~q:3 ~dq:2 ~cres:(capacity -. !reserved) ~edf () in
    let fast = Admission.mixed ps type0 ~dreq:2.19 in
    let exact = Admission.mixed_reference ps type0 ~dreq:2.19 in
    (match (fast, exact) with
    | Ok (rf, df), Ok (re, _) ->
        Alcotest.(check (float 1.)) (Printf.sprintf "step %d minimal rate" !step) re rf;
        List.iter (fun s -> Vtedf.add s ~rate:rf ~delay:df ~lmax:12_000.) edf;
        reserved := !reserved +. rf
    | Error _, Error _ -> continue := false
    | Ok _, Error _ -> Alcotest.fail "fast admitted what oracle rejected"
    | Error _, Ok _ -> Alcotest.fail "fast rejected what oracle admitted")
  done

(* ------------------------------------------------------------------ *)
(* Randomized cross-validation: the Figure-4 algorithm against the exact
   oracle on random scheduler populations. *)

let random_state_gen =
  QCheck.Gen.(
    let* q = int_range 0 4 in
    let* dq = int_range 1 3 in
    let* n_flows = int_range 0 20 in
    let* flows =
      list_repeat n_flows
        (triple (float_range 10_000. 150_000.) (float_range 0.02 1.5)
           (float_range 1_000. 12_000.))
    in
    let* dreq = float_range 0.5 4. in
    return (q, dq, flows, dreq))

let build_state (q, dq, flows, _dreq) =
  let capacity = 1.5e6 in
  let edf = List.init dq (fun _ -> Vtedf.create ~capacity) in
  (* Load every scheduler with the subset of flows it can legally admit. *)
  let reserved = ref 0. in
  List.iter
    (fun (rate, delay, lmax) ->
      if List.for_all (fun s -> Vtedf.can_admit s ~rate ~delay ~lmax) edf then begin
        List.iter (fun s -> Vtedf.add s ~rate ~delay ~lmax) edf;
        reserved := !reserved +. rate
      end)
    flows;
  mk_state ~q ~dq ~cres:(capacity -. !reserved) ~edf ()

let arb_random_state =
  QCheck.make
    ~print:(fun (q, dq, flows, dreq) ->
      Printf.sprintf "q=%d dq=%d flows=%d dreq=%g" q dq (List.length flows) dreq)
    random_state_gen

let prop_mixed_sound =
  QCheck.Test.make ~name:"mixed: any admitted pair is exactly schedulable" ~count:500
    arb_random_state (fun ((_, _, _, dreq) as spec) ->
      let ps = build_state spec in
      match Admission.mixed ps type0 ~dreq with
      | Error _ -> true
      | Ok (rate, delay) ->
          Admission.schedulable ps ~rate ~delay ~lmax:12_000.
          && rate >= type0.Traffic.rho -. 1e-6
          && rate <= type0.Traffic.peak +. 1e-6
          && delay >= -1e-9
          && Delay.e2e_bound type0 ~q:ps.Admission.rate_hops
               ~delay_hops:ps.Admission.delay_hops ~rate ~delay ~d_tot:ps.Admission.d_tot
             <= dreq +. 1e-6)

let prop_mixed_agrees_with_oracle =
  QCheck.Test.make ~name:"mixed: decision and minimal rate match the oracle" ~count:500
    arb_random_state (fun ((_, _, _, dreq) as spec) ->
      let ps = build_state spec in
      match (Admission.mixed ps type0 ~dreq, Admission.mixed_reference ps type0 ~dreq) with
      | Ok (rf, _), Ok (re, _) -> Float.abs (rf -. re) <= 1e-3 *. Float.max 1. re
      | Error _, Error _ -> true
      | Ok _, Error _ -> false
      | Error _, Ok (re, de) ->
          (* The published interval formulas may be conservative; a
             disagreement is only acceptable if the fast path fell back —
             which it does internally — so this case must not occur. *)
          QCheck.Test.fail_reportf "fast rejected, oracle found (%g, %g)" re de)

let prop_mixed_sound_any_profile =
  QCheck.Test.make ~name:"mixed: sound for arbitrary candidate profiles" ~count:500
    (QCheck.pair arb_random_state Gen.arb_profile)
    (fun (((_, _, _, dreq) as spec), profile) ->
      let ps = build_state spec in
      match Admission.mixed ps profile ~dreq with
      | Error _ -> true
      | Ok (rate, delay) ->
          Admission.schedulable ps ~rate ~delay ~lmax:profile.Traffic.lmax
          && Traffic.conforms profile ~rate
          && delay >= -1e-9
          && Delay.e2e_bound profile ~q:ps.Admission.rate_hops
               ~delay_hops:ps.Admission.delay_hops ~rate ~delay
               ~d_tot:ps.Admission.d_tot
             <= dreq +. 1e-6)

let prop_mixed_matches_oracle_any_profile =
  QCheck.Test.make ~name:"mixed: matches oracle for arbitrary profiles" ~count:500
    (QCheck.pair arb_random_state Gen.arb_profile)
    (fun (((_, _, _, dreq) as spec), profile) ->
      let ps = build_state spec in
      match (Admission.mixed ps profile ~dreq, Admission.mixed_reference ps profile ~dreq)
      with
      | Ok (rf, _), Ok (re, _) -> Float.abs (rf -. re) <= 1e-3 *. Float.max 1. re
      | Error _, Error _ -> true
      | Ok _, Error _ -> false
      | Error _, Ok _ -> false)

let prop_oracle_sound =
  QCheck.Test.make ~name:"oracle: any admitted pair is exactly schedulable" ~count:500
    arb_random_state (fun ((_, _, _, dreq) as spec) ->
      let ps = build_state spec in
      match Admission.mixed_reference ps type0 ~dreq with
      | Error _ -> true
      | Ok (rate, delay) -> Admission.schedulable ps ~rate ~delay ~lmax:12_000.)

let prop_oracle_rate_not_improvable =
  QCheck.Test.make ~name:"oracle: rate cannot be reduced by 5%" ~count:300
    arb_random_state (fun ((_, _, _, dreq) as spec) ->
      let ps = build_state spec in
      match Admission.mixed_reference ps type0 ~dreq with
      | Error _ -> true
      | Ok (rate, _) ->
          let smaller = rate *. 0.95 in
          smaller < type0.Traffic.rho
          ||
          (* no delay in [0, t] can make the smaller rate feasible *)
          let dh = float_of_int ps.Admission.delay_hops in
          let ton = Traffic.t_on type0 in
          let tval = (dreq -. ps.Admission.d_tot +. ton) /. dh in
          let xi =
            ((ton *. type0.Traffic.peak)
            +. (float_of_int (ps.Admission.rate_hops + 1) *. type0.Traffic.lmax))
            /. dh
          in
          let dmax = tval -. (xi /. smaller) in
          dmax < 0.
          ||
          (* check a grid of candidate delays *)
          not
            (List.exists
               (fun frac ->
                 let d = dmax *. frac in
                 Admission.schedulable ps ~rate:smaller ~delay:d ~lmax:12_000.)
               [ 0.; 0.25; 0.5; 0.75; 1. ]))

(* ------------------------------------------------------------------ *)
(* The exact oracle's specification: every constraint evaluated on every
   interval, the own-deadline search included — O(M^2 H).  The library's
   {!Admission.mixed_reference} prunes intervals that cannot win and must
   agree with this bit for bit. *)

module Fp = Bbr_util.Fp

let naive_reference (ps : Admission.path_state) (p : Traffic.t) ~dreq =
  let dh = float_of_int ps.Admission.delay_hops in
  let ton = Traffic.t_on p in
  let tval = (dreq -. ps.Admission.d_tot +. ton) /. dh in
  let lmax = p.Traffic.lmax in
  if tval <= 0. then Error Types.Delay_unachievable
  else
    let xi =
      ((ton *. p.Traffic.peak) +. (float_of_int (ps.Admission.rate_hops + 1) *. lmax)) /. dh
    in
    let { Admission.m; md; ms } = Admission.merge_breakpoints ps in
    let n_lt = Array.fold_left (fun c d -> if d < tval then c + 1 else c) 0 (Array.sub md 0 m) in
    let ub_tail = ref infinity and feasible = ref true in
    for k = n_lt to m - 1 do
      if Fp.approx md.(k) tval then begin
        if Fp.lt ms.(k) (xi +. lmax) then feasible := false
      end
      else
        let bound = (ms.(k) -. xi -. lmax) /. (md.(k) -. tval) in
        if bound < !ub_tail then ub_tail := bound
    done;
    if not !feasible then Error Types.Not_schedulable
    else begin
      let r_cap = Float.min p.Traffic.peak ps.Admission.cres in
      let del_lower j =
        let lb = ref 0. in
        for k = j to n_lt - 1 do
          let bound = (xi +. lmax -. ms.(k)) /. (tval -. md.(k)) in
          if bound > !lb then lb := bound
        done;
        !lb
      in
      let own_delay_in edf ~lo ~hi =
        let g0 = Vtedf.residual_service edf ~at:lo in
        if Fp.geq g0 lmax then Some lo
        else
          let slope = Vtedf.capacity edf -. Vtedf.rate_below edf ~at:lo in
          if slope <= 0. then None
          else
            let d = lo +. ((lmax -. g0) /. slope) in
            if d < hi then Some d else None
      in
      let best = ref None in
      for j = 0 to n_lt do
        let lo_d = if j = 0 then 0. else md.(j - 1) in
        let hi_d = if j = n_lt then tval else md.(j) in
        let d_own =
          List.fold_left
            (fun acc edf ->
              match acc with
              | None -> None
              | Some d -> (
                  match own_delay_in edf ~lo:lo_d ~hi:hi_d with
                  | None -> None
                  | Some d' -> Some (Float.max d d')))
            (Some lo_d) ps.Admission.edf
        in
        match d_own with
        | None -> ()
        | Some dlo ->
            let r_lo =
              let from_delay = if tval -. dlo > 0. then xi /. (tval -. dlo) else infinity in
              Float.max p.Traffic.rho (Float.max from_delay (del_lower j))
            in
            let r_hi =
              let from_interval =
                if j = n_lt then infinity
                else if tval -. hi_d > 0. then xi /. (tval -. hi_d)
                else infinity
              in
              Float.min r_cap (Float.min !ub_tail from_interval)
            in
            if Fp.leq r_lo r_hi then begin
              match !best with
              | Some (r, _) when r <= r_lo -> ()
              | _ -> best := Some (r_lo, Float.max 0. (tval -. (xi /. r_lo)))
            end
      done;
      match !best with
      | Some pair -> Ok pair
      | None ->
          let d_floor =
            List.fold_left
              (fun acc edf -> Float.max acc (lmax /. Vtedf.capacity edf))
              0. ps.Admission.edf
          in
          if tval <= d_floor || Fp.gt (xi /. (tval -. d_floor)) p.Traffic.peak then
            Error Types.Delay_unachievable
          else if Fp.lt ps.Admission.cres p.Traffic.rho then Error Types.Insufficient_bandwidth
          else Error Types.Not_schedulable
    end

(* Populations where the Figure-4 scan's pair often fails the exact check,
   so that [mixed] falls back to the oracle: 50-250 flows of small rates
   with continuous (hence distinct) delays.  Each flow crosses its own
   subset of the delay-based hops (bit i of its mask: hop i), so the hops'
   residual curves differ, as on a mesh, and the own-deadline search can
   fail at one hop inside an interval another hop's breakpoints bound. *)
let crowded_state_gen =
  QCheck.Gen.(
    let* q = int_range 0 4 in
    let* dq = int_range 1 3 in
    let* n_flows = int_range 50 250 in
    let* flows =
      list_repeat n_flows
        (quad (float_range 500. 6_000.) (float_range 0.001 1.5) (float_range 100. 12_000.)
           (int_range 1 7))
    in
    let* dreq = float_range 0.5 4. in
    return (q, dq, flows, dreq))

let build_crowded (q, dq, flows, _dreq) =
  let capacity = 1.5e6 in
  let edf = List.init dq (fun _ -> Vtedf.create ~capacity) in
  List.iter
    (fun (rate, delay, lmax, mask) ->
      let hops = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) edf in
      if hops <> [] && List.for_all (fun s -> Vtedf.can_admit s ~rate ~delay ~lmax) hops then
        List.iter (fun s -> Vtedf.add s ~rate ~delay ~lmax) hops)
    flows;
  let cres =
    List.fold_left (fun acc s -> Float.min acc (capacity -. Vtedf.total_rate s)) capacity edf
  in
  mk_state ~q ~dq ~cres ~edf ()

let arb_crowded =
  QCheck.make
    ~print:(fun ((q, dq, flows, dreq), p) ->
      Fmt.str "q=%d dq=%d flows=%d dreq=%h profile=%a" q dq (List.length flows) dreq
        Traffic.pp p)
    QCheck.Gen.(pair crowded_state_gen (oneof [ return type0; Gen.profile_gen ]))

let prop_oracle_matches_spec =
  QCheck.Test.make ~name:"oracle: bit for bit the naive per-interval spec" ~count:1000
    arb_crowded (fun (((_, _, _, dreq) as spec), p) ->
      let ps = build_crowded spec in
      let bits (r, d) = (Int64.bits_of_float r, Int64.bits_of_float d) in
      match (Admission.mixed_reference ps p ~dreq, naive_reference ps p ~dreq) with
      | Ok a, Ok b -> bits a = bits b
      | Error a, Error b -> a = b
      | Ok (r, d), Error e ->
          QCheck.Test.fail_reportf "oracle (%h, %h), spec %a" r d Types.pp_reject_reason e
      | Error e, Ok (r, d) ->
          QCheck.Test.fail_reportf "oracle %a, spec (%h, %h)" Types.pp_reject_reason e r d)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_mixed_sound;
        prop_mixed_agrees_with_oracle;
        prop_mixed_sound_any_profile;
        prop_mixed_matches_oracle_any_profile;
        prop_oracle_sound;
        prop_oracle_rate_not_improvable;
        prop_oracle_matches_spec;
      ]
  in
  Alcotest.run "admission"
    [
      ( "rate-based",
        [
          Alcotest.test_case "Table-2 values" `Quick test_rate_based_table2_values;
          Alcotest.test_case "insufficient bandwidth" `Quick
            test_rate_based_insufficient_bandwidth;
          Alcotest.test_case "delay unachievable" `Quick test_rate_based_delay_unachievable;
          Alcotest.test_case "wrong path kind" `Quick test_rate_based_rejects_mixed_path;
          Alcotest.test_case "binding bound" `Quick test_rate_based_meets_bound_exactly;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "empty schedulers" `Quick test_mixed_empty_schedulers;
          Alcotest.test_case "wrong path kind" `Quick test_mixed_rejects_rate_only_path;
          Alcotest.test_case "delay unachievable" `Quick test_mixed_delay_unachievable;
          Alcotest.test_case "capacity" `Quick test_mixed_respects_capacity;
          Alcotest.test_case "meets e2e bound" `Quick test_mixed_result_meets_e2e_bound;
          Alcotest.test_case "27-flow fill (Table 2)" `Quick test_mixed_fills_like_paper;
          Alcotest.test_case "fill agrees with oracle" `Quick
            test_mixed_minimality_vs_oracle_on_fill;
        ] );
      ("properties", props);
    ]
