(* Tests for the path-oriented admission control algorithms (paper
   Section 3), including a bit-for-bit check of the O(M) mixed-path test
   against the reference broker's O(M^2 H) per-interval evaluation. *)

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
(* Mixed paths (Section 3.2) *)

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

(* ------------------------------------------------------------------ *)
(* Randomized properties of the mixed test on random scheduler
   populations. *)

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

let prop_mixed_rate_not_improvable =
  QCheck.Test.make ~name:"oracle: rate cannot be reduced by 5%" ~count:300
    arb_random_state (fun ((_, _, _, dreq) as spec) ->
      let ps = build_state spec in
      match Admission.mixed ps type0 ~dreq with
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
(* The mixed test against its specification: the reference broker's
   per-interval evaluation ({!Model.mixed}), every constraint on every
   interval, the own-deadline search included — O(M^2 H).
   {!Admission.mixed} prunes intervals that cannot win and must agree with
   it bit for bit. *)

(* What the model reads of a path state: its schedulers' classes. *)
let model_path (ps : Admission.path_state) =
  {
    Model.rate_hops = ps.Admission.rate_hops;
    delay_hops = ps.Admission.delay_hops;
    d_tot = ps.Admission.d_tot;
    cres = ps.Admission.cres;
    hops = List.map Lockstep.hop ps.Admission.edf;
  }

(* Populations where the own-deadline term often decides: 50-250 flows
   of small rates with continuous (hence distinct) delays; the published
   interval formulas, which omit it, pick a pair that fails the exact
   check on many of them.  Each flow crosses its own
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

let prop_mixed_matches_spec =
  QCheck.Test.make ~name:"oracle: bit for bit the naive per-interval spec" ~count:1000
    arb_crowded (fun (((_, _, _, dreq) as spec), p) ->
      let ps = build_crowded spec in
      let bits (r, d) = (Int64.bits_of_float r, Int64.bits_of_float d) in
      match (Admission.mixed ps p ~dreq, Model.mixed (model_path ps) p ~dreq) with
      | Ok a, Ok b -> bits a = bits b
      | Error a, Error b -> a = b
      | Ok (r, d), Error e ->
          QCheck.Test.fail_reportf "mixed (%h, %h), spec %a" r d Types.pp_reject_reason e
      | Error e, Ok (r, d) ->
          QCheck.Test.fail_reportf "mixed %a, spec (%h, %h)" Types.pp_reject_reason e r d)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_mixed_sound;
        prop_mixed_sound_any_profile;
        prop_mixed_rate_not_improvable;
        prop_mixed_matches_spec;
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
        ] );
      ("properties", props);
    ]
