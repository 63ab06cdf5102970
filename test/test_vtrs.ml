(* Unit and property tests for Bbr_vtrs: Traffic, Topology, Packet_state,
   Delay, Vtedf. *)

module Traffic = Bbr_vtrs.Traffic
module Topology = Bbr_vtrs.Topology
module Packet_state = Bbr_vtrs.Packet_state
module Delay = Bbr_vtrs.Delay
module Vtedf = Bbr_vtrs.Vtedf

let check_float = Alcotest.(check (float 1e-9))

let type0 = Traffic.make ~sigma:60_000. ~rho:50_000. ~peak:100_000. ~lmax:12_000.

(* ------------------------------------------------------------------ *)
(* Traffic *)

let test_traffic_validation () =
  Alcotest.check_raises "lmax <= 0"
    (Invalid_argument "Traffic.make: lmax must be positive") (fun () ->
      ignore (Traffic.make ~sigma:1. ~rho:1. ~peak:1. ~lmax:0.));
  Alcotest.check_raises "sigma < lmax"
    (Invalid_argument "Traffic.make: sigma must be >= lmax") (fun () ->
      ignore (Traffic.make ~sigma:10. ~rho:1. ~peak:2. ~lmax:20.));
  Alcotest.check_raises "peak < rho"
    (Invalid_argument "Traffic.make: peak must be >= rho") (fun () ->
      ignore (Traffic.make ~sigma:100. ~rho:5. ~peak:2. ~lmax:10.))

let test_t_on () =
  (* Table 1 type 0: (60000 - 12000) / (100000 - 50000) = 0.96 s. *)
  check_float "type0 t_on" 0.96 (Traffic.t_on type0)

let test_t_on_cbr () =
  let cbr = Traffic.make ~sigma:12_000. ~rho:1_000. ~peak:1_000. ~lmax:12_000. in
  check_float "cbr t_on" 0. (Traffic.t_on cbr)

let test_envelope () =
  (* At t = 0 the envelope is the packet burst; at large t the sustained
     line dominates. *)
  check_float "env(0)" 12_000. (Traffic.envelope type0 0.);
  check_float "env(0.96)" (100_000. *. 0.96 +. 12_000.) (Traffic.envelope type0 0.96);
  check_float "env(10)" (50_000. *. 10. +. 60_000.) (Traffic.envelope type0 10.)

let test_envelope_crossover () =
  (* The two envelope lines cross exactly at t_on. *)
  let t = Traffic.t_on type0 in
  let open Traffic in
  check_float "crossover" ((type0.peak *. t) +. type0.lmax) ((type0.rho *. t) +. type0.sigma)

let test_aggregate () =
  let agg = Traffic.aggregate [ type0; type0; type0 ] in
  let open Traffic in
  check_float "sigma" 180_000. agg.sigma;
  check_float "rho" 150_000. agg.rho;
  check_float "peak" 300_000. agg.peak;
  check_float "lmax" 36_000. agg.lmax

let test_aggregate_preserves_t_on_for_identical () =
  (* Aggregating identical flows leaves T_on unchanged. *)
  let agg = Traffic.aggregate [ type0; type0 ] in
  check_float "t_on invariant" (Traffic.t_on type0) (Traffic.t_on agg)

let test_conforms () =
  Alcotest.(check bool) "rho ok" true (Traffic.conforms type0 ~rate:50_000.);
  Alcotest.(check bool) "peak ok" true (Traffic.conforms type0 ~rate:100_000.);
  Alcotest.(check bool) "below rho" false (Traffic.conforms type0 ~rate:49_999.);
  Alcotest.(check bool) "above peak" false (Traffic.conforms type0 ~rate:100_001.)

let arb_profile = Gen.arb_profile

let prop_envelope_monotone =
  QCheck.Test.make ~name:"envelope is nondecreasing" ~count:200
    QCheck.(pair arb_profile (pair (float_bound_inclusive 50.) (float_bound_inclusive 50.)))
    (fun (p, (a, b)) ->
      let lo = Float.min a b and hi = Float.max a b in
      Traffic.envelope p lo <= Traffic.envelope p hi +. 1e-6)

let prop_envelope_subadditive_aggregate =
  QCheck.Test.make ~name:"aggregate envelope = sum of envelopes at 0" ~count:200
    (QCheck.pair arb_profile arb_profile) (fun (a, b) ->
      let agg = Traffic.add a b in
      Float.abs (Traffic.envelope agg 0. -. (Traffic.envelope a 0. +. Traffic.envelope b 0.))
      < 1e-6)

(* Traffic.Sum: the exact accumulator behind aggregate profiles, over
   non-integer profiles where a plain float fold would depend on the
   order of the terms. *)

let sum_of ps =
  let s = Traffic.Sum.create () in
  List.iter (Traffic.Sum.add s) ps;
  s

(* One term reads back as itself, at every binade of the double range
   (subnormals included) and across every limb offset. *)
let test_sum_single_terms () =
  for e = -1074 to 1023 do
    List.iter
      (fun frac ->
        let x = Float.max (Float.ldexp frac e) (Float.ldexp 1. (-1074)) in
        let p = Traffic.make ~sigma:x ~rho:x ~peak:x ~lmax:x in
        let s = sum_of [ p ] in
        if not (Traffic.equal (Traffic.Sum.value s) p) then
          Alcotest.failf "%h read back as %a" x Traffic.pp (Traffic.Sum.value s);
        Traffic.Sum.add s p;
        Traffic.Sum.remove s p;
        Traffic.Sum.remove s p;
        Alcotest.check_raises "emptied"
          (Invalid_argument "Traffic.Sum.value: empty sum") (fun () ->
            ignore (Traffic.Sum.value s)))
      [ 1.; 1.5; 1.9999999999999998; 0x1.123456789abcdp0 ]
  done

(* Round half to even, with the sticky bit read from limbs far below
   the top: 2^53 + 1 is a tie, a 2^-100 term breaks it upward. *)
let test_sum_rounding () =
  let term x = Traffic.make ~sigma:x ~rho:x ~peak:x ~lmax:x in
  let big = term 0x1p53 and one = term 1. and tiny = term 0x1p-100 in
  let s = sum_of [ big; one; tiny ] in
  Alcotest.(check (float 0.)) "above the tie rounds up" (0x1p53 +. 2.)
    (Traffic.Sum.value s).Traffic.sigma;
  Traffic.Sum.remove s tiny;
  Alcotest.(check (float 0.)) "the tie rounds to even" 0x1p53
    (Traffic.Sum.value s).Traffic.rho;
  Traffic.Sum.add s one;
  Traffic.Sum.add s one;
  Alcotest.(check (float 0.)) "2^53 + 3 is a tie to the even 2^53 + 4" (0x1p53 +. 4.)
    (Traffic.Sum.value s).Traffic.peak

let print_profiles = QCheck.Print.list (Fmt.str "%a" Traffic.pp)

let prop_sum_order_free =
  QCheck.Test.make ~name:"Sum: any order of adds reads the same" ~count:200
    (QCheck.make ~print:(QCheck.Print.pair print_profiles print_profiles)
       QCheck.Gen.(
         let* ps = list_size (int_range 1 40) Gen.profile_gen in
         let* shuffled = shuffle_l ps in
         return (ps, shuffled)))
    (fun (ps, shuffled) ->
      Traffic.equal (Traffic.Sum.value (sum_of ps)) (Traffic.Sum.value (sum_of shuffled)))

let prop_sum_remove_exact =
  QCheck.Test.make ~name:"Sum: adding all then removing some = adding the rest"
    ~count:200
    (QCheck.make
       ~print:(QCheck.Print.pair print_profiles print_profiles)
       QCheck.Gen.(
         pair
           (list_size (int_range 1 30) Gen.profile_gen)
           (list_size (int_range 0 30) Gen.profile_gen)))
    (fun (kept, dropped) ->
      let s = sum_of (dropped @ kept) in
      List.iter (Traffic.Sum.remove s) (List.rev dropped);
      Traffic.equal (Traffic.Sum.value s) (Traffic.Sum.value (sum_of kept)))

let int_profile_gen =
  QCheck.Gen.(
    let* rho = int_range 1_000 500_000 in
    let* peak = int_range rho 5_000_000 in
    let* lmax = int_range 100 20_000 in
    let* sigma = int_range lmax 400_000 in
    return
      (Traffic.make ~sigma:(float_of_int sigma) ~rho:(float_of_int rho)
         ~peak:(float_of_int peak) ~lmax:(float_of_int lmax)))

let prop_sum_integer_fold =
  QCheck.Test.make ~name:"Sum: integer sums equal the left fold" ~count:200
    (QCheck.make ~print:print_profiles
       QCheck.Gen.(list_size (int_range 1 60) int_profile_gen))
    (fun ps ->
      let fold f = List.fold_left (fun acc p -> acc +. f p) 0. ps in
      let v = Traffic.aggregate ps in
      let open Traffic in
      v.sigma = fold (fun p -> p.sigma)
      && v.rho = fold (fun p -> p.rho)
      && v.peak = fold (fun p -> p.peak)
      && v.lmax = fold (fun p -> p.lmax))

let prop_sum_two_terms_ieee =
  QCheck.Test.make ~name:"Sum: two terms read their IEEE sum" ~count:300
    (QCheck.pair arb_profile arb_profile) (fun (a, b) ->
      let v = Traffic.aggregate [ a; b ] in
      let open Traffic in
      v.sigma = a.sigma +. b.sigma
      && v.rho = a.rho +. b.rho
      && v.peak = a.peak +. b.peak
      && v.lmax = a.lmax +. b.lmax)

let prop_sum_valid =
  QCheck.Test.make ~name:"Sum: reads a valid profile" ~count:200
    (QCheck.make ~print:print_profiles
       QCheck.Gen.(list_size (int_range 1 40) Gen.profile_gen))
    (fun ps ->
      let v = Traffic.Sum.value (sum_of ps) in
      let open Traffic in
      Traffic.equal v (Traffic.make ~sigma:v.sigma ~rho:v.rho ~peak:v.peak ~lmax:v.lmax))

(* ------------------------------------------------------------------ *)
(* Topology *)

let mk_topology () =
  let t = Topology.create () in
  let l1 = Topology.add_link t ~src:"A" ~dst:"B" ~capacity:1e6 Topology.Rate_based in
  let l2 =
    Topology.add_link t ~src:"B" ~dst:"C" ~capacity:2e6 ~prop_delay:0.01
      Topology.Delay_based
  in
  (t, l1, l2)

let test_topology_nodes_links () =
  let t, l1, l2 = mk_topology () in
  Alcotest.(check (list string)) "nodes" [ "A"; "B"; "C" ] (Topology.nodes t);
  Alcotest.(check int) "num links" 2 (Topology.num_links t);
  Alcotest.(check int) "ids dense" 0 l1.Topology.link_id;
  Alcotest.(check int) "ids dense" 1 l2.Topology.link_id

let test_topology_default_psi () =
  let t, l1, _ = mk_topology () in
  ignore t;
  (* psi defaults to mtu/capacity *)
  check_float "psi" (12_000. /. 1e6) l1.Topology.psi

let test_topology_duplicate_link () =
  let t, _, _ = mk_topology () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.add_link: duplicate link A -> B") (fun () ->
      ignore (Topology.add_link t ~src:"A" ~dst:"B" ~capacity:1e6 Topology.Rate_based))

let test_topology_find_out_links () =
  let t, l1, l2 = mk_topology () in
  Alcotest.(check bool) "find A->B" true
    (Topology.find_link t ~src:"A" ~dst:"B" = Some l1);
  Alcotest.(check bool) "find missing" true
    (Topology.find_link t ~src:"C" ~dst:"A" = None);
  Alcotest.(check int) "out links of B" 1 (List.length (Topology.out_links t "B"));
  ignore l2

let test_topology_path_quantities () =
  let t, l1, l2 = mk_topology () in
  ignore t;
  let path = [ l1; l2 ] in
  Alcotest.(check int) "hops" 2 (Topology.hop_count path);
  Alcotest.(check int) "q" 1 (Topology.rate_based_hops path);
  Alcotest.(check int) "h-q" 1 (Topology.delay_based_hops path);
  check_float "d_tot" (l1.Topology.psi +. l2.Topology.psi +. 0.01) (Topology.d_tot path)

let test_topology_is_path () =
  let t, l1, l2 = mk_topology () in
  Alcotest.(check bool) "valid" true (Topology.is_path t [ l1; l2 ]);
  Alcotest.(check bool) "disconnected" false (Topology.is_path t [ l2; l1 ]);
  Alcotest.(check bool) "empty" false (Topology.is_path t [])

(* ------------------------------------------------------------------ *)
(* Packet_state *)

let test_packet_state_virtual_delay () =
  let st = Packet_state.init ~rate:50_000. ~delay:0.1 ~lmax:12_000. ~edge_departure:3. in
  (* omega is the edge departure, 3 s; d~ is lmax/rate or the delay. *)
  check_float "rate-based d~" (12_000. /. 50_000.)
    (Packet_state.virtual_finish st Topology.Rate_based -. 3.);
  check_float "delay-based d~" 0.1 (Packet_state.virtual_finish st Topology.Delay_based -. 3.)

let test_packet_state_advance () =
  let t = Topology.create () in
  let link =
    Topology.add_link t ~src:"A" ~dst:"B" ~capacity:1.5e6 ~prop_delay:0.002
      Topology.Rate_based
  in
  let st = Packet_state.init ~rate:50_000. ~delay:0. ~lmax:12_000. ~edge_departure:0. in
  let st' = Packet_state.advance st ~link in
  (* omega' = omega + lmax/r + psi + pi  (concatenation rule, eq. (1)) *)
  check_float "omega advance" (0.24 +. (12_000. /. 1.5e6) +. 0.002) st'.Packet_state.omega

let test_packet_state_advance_accumulates () =
  let t = Topology.create () in
  let mk i =
    Topology.add_link t ~src:(Printf.sprintf "N%d" i) ~dst:(Printf.sprintf "N%d" (i + 1))
      ~capacity:1.5e6 Topology.Rate_based
  in
  let links = List.init 5 mk in
  let st = Packet_state.init ~rate:50_000. ~delay:0. ~lmax:12_000. ~edge_departure:0. in
  let final = List.fold_left (fun st link -> Packet_state.advance st ~link) st links in
  let per_hop = 0.24 +. (12_000. /. 1.5e6) in
  check_float "five hops" (5. *. per_hop) final.Packet_state.omega

(* ------------------------------------------------------------------ *)
(* Delay bounds *)

let test_edge_bound () =
  (* eq. (3) at r = rho: T_on (P - r)/r + lmax/r *)
  let b = Delay.edge_bound type0 ~rate:50_000. in
  check_float "edge bound" ((0.96 *. 1.) +. 0.24) b

let test_edge_bound_at_peak () =
  (* At r = P the shaper adds only the packetisation delay. *)
  check_float "edge bound at peak" (12_000. /. 100_000.)
    (Delay.edge_bound type0 ~rate:100_000.)

let test_core_bound () =
  let b = Delay.core_bound ~q:3 ~delay_hops:2 ~lmax:12_000. ~rate:50_000. ~delay:0.1 ~d_tot:0.04 in
  check_float "core bound" ((3. *. 0.24) +. (2. *. 0.1) +. 0.04) b

let test_e2e_decomposition () =
  let q = 3 and delay_hops = 2 and rate = 60_000. and delay = 0.15 and d_tot = 0.04 in
  let total = Delay.e2e_bound type0 ~q ~delay_hops ~rate ~delay ~d_tot in
  let parts =
    Delay.edge_bound type0 ~rate
    +. Delay.core_bound ~q ~delay_hops ~lmax:12_000. ~rate ~delay ~d_tot
  in
  check_float "e2e = edge + core" parts total

let test_min_rate_rate_based_table2 () =
  (* The two closed-form rates behind Table 2's per-flow rows. *)
  let d_tot = 5. *. (12_000. /. 1.5e6) in
  (match Delay.min_rate_rate_based type0 ~hops:5 ~d_tot ~dreq:2.44 with
  | Some r -> Alcotest.(check (float 1e-6)) "2.44 -> mean rate" 50_000. r
  | None -> Alcotest.fail "expected a rate");
  match Delay.min_rate_rate_based type0 ~hops:5 ~d_tot ~dreq:2.19 with
  | Some r -> Alcotest.(check (float 1e-3)) "2.19 -> higher rate" (168_000. /. 3.11) r
  | None -> Alcotest.fail "expected a rate"

let test_min_rate_unachievable () =
  Alcotest.(check bool) "tiny dreq" true
    (Delay.min_rate_rate_based type0 ~hops:5 ~d_tot:10. ~dreq:1. = None)

let prop_min_rate_meets_bound =
  QCheck.Test.make ~name:"min rate achieves the requested e2e bound" ~count:300
    QCheck.(pair arb_profile (pair (int_range 1 10) (float_range 0.05 10.)))
    (fun (p, (hops, dreq)) ->
      let d_tot = float_of_int hops *. 0.008 in
      match Delay.min_rate_rate_based p ~hops ~d_tot ~dreq with
      | None -> true
      | Some r ->
          r <= 0.
          || Delay.e2e_bound p ~q:hops ~delay_hops:0 ~rate:r ~delay:0. ~d_tot
             <= dreq +. 1e-6)

let prop_e2e_decreasing_in_rate =
  QCheck.Test.make ~name:"e2e bound decreases with rate" ~count:300
    QCheck.(pair arb_profile (pair (float_range 0.1 0.9) (float_range 1.01 2.)))
    (fun (p, (frac, mult)) ->
      let open Traffic in
      let r1 = p.rho +. (frac *. (p.peak -. p.rho) /. 2.) in
      let r2 = Float.min p.peak (r1 *. mult) in
      r2 <= r1
      || Delay.e2e_bound p ~q:3 ~delay_hops:0 ~rate:r2 ~delay:0. ~d_tot:0.04
         <= Delay.e2e_bound p ~q:3 ~delay_hops:0 ~rate:r1 ~delay:0. ~d_tot:0.04 +. 1e-9)

let test_modified_core_bound () =
  (* eq. (18): across a rate change the worse of the two per-hop terms
     applies. *)
  let b =
    Delay.modified_core_bound ~q:5 ~delay_hops:0 ~path_lmax:12_000. ~rate_before:50_000.
      ~rate_after:100_000. ~delay:0. ~d_tot:0.04
  in
  check_float "uses smaller rate" ((5. *. 0.24) +. 0.04) b

(* ------------------------------------------------------------------ *)
(* Vtedf *)

let test_vtedf_empty_schedulable () =
  let s = Vtedf.create ~capacity:1.5e6 in
  Alcotest.(check bool) "empty ok" true (Vtedf.schedulable s);
  check_float "no demand" 0. (Vtedf.demand s ~at:1.)

let test_vtedf_add_remove () =
  let s = Vtedf.create ~capacity:1.5e6 in
  Vtedf.add s ~rate:50_000. ~delay:0.1 ~lmax:12_000.;
  Vtedf.add s ~rate:60_000. ~delay:0.1 ~lmax:12_000.;
  Vtedf.add s ~rate:70_000. ~delay:0.2 ~lmax:12_000.;
  Alcotest.(check int) "flows" 3 (Vtedf.flow_count s);
  Alcotest.(check int) "distinct delays" 2 (List.length (Vtedf.classes s));
  check_float "total" 180_000. (Vtedf.total_rate s);
  Vtedf.remove s ~rate:60_000. ~delay:0.1 ~lmax:12_000.;
  Alcotest.(check int) "flows after remove" 2 (Vtedf.flow_count s);
  check_float "total after remove" 120_000. (Vtedf.total_rate s)

let test_vtedf_remove_unknown () =
  let s = Vtedf.create ~capacity:1.5e6 in
  Alcotest.check_raises "unknown delay"
    (Invalid_argument "Vtedf.remove: no flow with this delay") (fun () ->
      Vtedf.remove s ~rate:1. ~delay:0.5 ~lmax:1.)

let test_vtedf_demand_formula () =
  let s = Vtedf.create ~capacity:1.5e6 in
  Vtedf.add s ~rate:50_000. ~delay:0.1 ~lmax:12_000.;
  Vtedf.add s ~rate:30_000. ~delay:0.3 ~lmax:12_000.;
  (* at t = 0.2 only the first flow counts: 50000*(0.2-0.1) + 12000 *)
  check_float "demand mid" 17_000. (Vtedf.demand s ~at:0.2);
  (* at t = 0.4 both count *)
  check_float "demand both"
    ((50_000. *. 0.3) +. 12_000. +. (30_000. *. 0.1) +. 12_000.)
    (Vtedf.demand s ~at:0.4)

let test_vtedf_can_admit_boundary () =
  let s = Vtedf.create ~capacity:100_000. in
  (* A flow with delay d needs lmax <= C*d at its own deadline. *)
  Alcotest.(check bool) "own constraint fails" false
    (Vtedf.can_admit s ~rate:10_000. ~delay:0.05 ~lmax:12_000.);
  Alcotest.(check bool) "own constraint passes" true
    (Vtedf.can_admit s ~rate:10_000. ~delay:0.12 ~lmax:12_000.)

let test_vtedf_can_admit_capacity () =
  let s = Vtedf.create ~capacity:100_000. in
  Vtedf.add s ~rate:90_000. ~delay:1. ~lmax:1_000.;
  Alcotest.(check bool) "slope violation" false
    (Vtedf.can_admit s ~rate:20_000. ~delay:2. ~lmax:1_000.)

(* A random population of admitted flows must keep eq. (5) holding — adding
   only via can_admit preserves schedulability. *)
let prop_vtedf_can_admit_sound =
  QCheck.Test.make ~name:"can_admit preserves schedulability" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 25) (triple (float_range 1_000. 200_000.) (float_range 0.01 2.) (float_range 500. 12_000.)))
    (fun candidates ->
      let s = Vtedf.create ~capacity:1.5e6 in
      List.iter
        (fun (rate, delay, lmax) ->
          if Vtedf.can_admit s ~rate ~delay ~lmax then Vtedf.add s ~rate ~delay ~lmax)
        candidates;
      Vtedf.schedulable s)

let prop_vtedf_residual_at_breakpoints =
  QCheck.Test.make ~name:"admitted population has non-negative residual service"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 25) (triple (float_range 1_000. 200_000.) (float_range 0.01 2.) (float_range 500. 12_000.)))
    (fun candidates ->
      let s = Vtedf.create ~capacity:1.5e6 in
      List.iter
        (fun (rate, delay, lmax) ->
          if Vtedf.can_admit s ~rate ~delay ~lmax then Vtedf.add s ~rate ~delay ~lmax)
        candidates;
      List.for_all
        (fun (k : Vtedf.klass) -> Vtedf.residual_service s ~at:k.Vtedf.delay >= -1e-6)
        (Vtedf.classes s))

let prop_vtedf_remove_restores =
  QCheck.Test.make ~name:"remove restores demand exactly" ~count:200
    QCheck.(pair (triple (float_range 1_000. 100_000.) (float_range 0.01 1.) (float_range 500. 12_000.)) (float_range 0.01 3.))
    (fun ((rate, delay, lmax), at) ->
      let s = Vtedf.create ~capacity:1.5e6 in
      Vtedf.add s ~rate:40_000. ~delay:0.5 ~lmax:9_000.;
      let before = Vtedf.demand s ~at in
      Vtedf.add s ~rate ~delay ~lmax;
      Vtedf.remove s ~rate ~delay ~lmax;
      Float.abs (Vtedf.demand s ~at -. before) < 1e-6)

(* The class key as [Vtedf] first computed it, through [frexp]. *)
let canon_frexp d =
  if d = 0. then 0.
  else
    let m, e = Float.frexp d in
    Float.ldexp (Float.round (m *. 0x1p36) *. 0x1p-36) e

(* Doubles built from their fields: [exp] the biased exponent, [mant]
   the 52 stored mantissa bits. *)
let double_gen =
  QCheck.Gen.(
    let mant = map (fun x -> Int64.logand x 0xF_FFFF_FFFF_FFFFL) ui64 in
    let of_fields ~exp m =
      Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int exp) 52) m)
    in
    let normal f = map2 (fun exp m -> of_fields ~exp (f m)) (int_range 1 0x7fe) mant in
    frequency
      [
        (3, map Int64.float_of_bits ui64);
        (3, normal Fun.id);
        (* exact halfway: bit 16 set, the bits below it clear *)
        (3, normal (fun m -> Int64.logor (Int64.logand m (-0x20000L)) 0x10000L));
        (* every bit from 16 up set: the rounding carries into the exponent *)
        (1, normal (fun m -> Int64.logor m 0xF_FFFF_FFFF_0000L));
        (1, map (fun exp -> of_fields ~exp 0L) (int_range 0 0x7fe));
        (2, map (fun m -> of_fields ~exp:0 m) mant);
        ( 1,
          oneofl
            [
              0.; -0.; max_float; min_float; 0x1p-1074; 0x1p1023;
              0x1p-1022 *. (1. -. epsilon_float); infinity; 0.24; 1.;
            ] );
      ])

let prop_canon_bits =
  QCheck.Test.make ~name:"canon on the bits equals the frexp form" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") double_gen)
    (fun d ->
      Int64.equal
        (Int64.bits_of_float (Vtedf.canon d))
        (Int64.bits_of_float (canon_frexp d)))

(* Every bit of a scheduler's observable state. *)
let fingerprint s =
  let b = Int64.bits_of_float in
  ( List.map
      (fun (k : Vtedf.klass) ->
        (b k.Vtedf.delay, b k.Vtedf.sum_rate, b k.Vtedf.sum_lmax, k.Vtedf.count))
      (Vtedf.classes s),
    b (Vtedf.total_rate s),
    Vtedf.flow_count s )

(* A population over five delays (each drawn as is or 1e-13 off, which
   shares its class key), admitted through [can_admit], of which some
   leave again (a class keeps its first member's raw delay, so a lone
   survivor may differ from it); then one booked flow is re-rated.  Both
   the query and the resize must answer as [remove] of the old rate
   followed by [can_admit] / [add] of the new one on a copy: the query
   changing nothing, the resize every bit as the pair and one version
   step. *)
let prop_resize_is_remove_then_add =
  let flow =
    QCheck.Gen.(
      pair
        (triple (float_range 1_000. 200_000.) (pair (int_bound 4) bool)
           (float_range 500. 12_000.))
        bool)
  in
  QCheck.Test.make ~name:"resize and can_resize are remove then add" ~count:500
    QCheck.(
      make
        ~print:
          Print.(triple (list (pair (triple float (pair int bool) float) bool)) int float)
        Gen.(
          triple (list_size (int_range 1 30) flow) (int_bound 1_000)
            (float_range 1. 800_000.)))
    (fun (flows, pick, new_rate) ->
      let s = Vtedf.create ~capacity:1.5e6 in
      let booked =
        List.filter_map
          (fun ((rate, (k, noisy), lmax), leaves) ->
            let delay = [| 0.02; 0.05; 0.1; 0.2; 0.4 |].(k) in
            let delay = if noisy then delay *. (1. +. 1e-13) else delay in
            if Vtedf.can_admit s ~rate ~delay ~lmax then begin
              Vtedf.add s ~rate ~delay ~lmax;
              Some ((rate, delay, lmax), leaves)
            end
            else None)
          flows
      in
      let booked =
        List.filter_map
          (fun ((rate, delay, lmax), leaves) ->
            if leaves then begin
              Vtedf.remove s ~rate ~delay ~lmax;
              None
            end
            else Some (rate, delay, lmax))
          booked
      in
      QCheck.assume (booked <> []);
      let old_rate, delay, lmax = List.nth booked (pick mod List.length booked) in
      let before = fingerprint s and v = Vtedf.version s in
      let removed () =
        let pair = Vtedf.copy s in
        Vtedf.remove pair ~rate:old_rate ~delay ~lmax;
        pair
      in
      let check new_rate =
        let expect = Vtedf.can_admit (removed ()) ~rate:new_rate ~delay ~lmax in
        let got = Vtedf.can_resize s ~delay ~lmax ~old_rate ~new_rate in
        if got <> expect then
          QCheck.Test.fail_reportf "rate %h: can_resize %b, the pair %b" new_rate got expect;
        expect
      in
      ignore (check new_rate);
      (* The answer is monotone in the new rate: bisect for the largest
         rate the pair admits, so the query is also asked at the edge,
         where whichever constraint binds decides. *)
      let lo = ref 0. and hi = ref 1.6e6 in
      for _ = 1 to 60 do
        let mid = (!lo +. !hi) /. 2. in
        if check mid then lo := mid else hi := mid
      done;
      if fingerprint s <> before || Vtedf.version s <> v then
        QCheck.Test.fail_report "can_resize changed the scheduler";
      let pair = removed () in
      Vtedf.add pair ~rate:new_rate ~delay ~lmax;
      Vtedf.resize s ~delay ~lmax ~old_rate ~new_rate;
      if fingerprint s <> fingerprint pair then
        QCheck.Test.fail_report "resize differs from remove then add";
      Vtedf.version s = v + 1)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_envelope_monotone;
        prop_envelope_subadditive_aggregate;
        prop_sum_order_free;
        prop_sum_remove_exact;
        prop_sum_integer_fold;
        prop_sum_two_terms_ieee;
        prop_sum_valid;
        prop_min_rate_meets_bound;
        prop_e2e_decreasing_in_rate;
        prop_vtedf_can_admit_sound;
        prop_vtedf_residual_at_breakpoints;
        prop_vtedf_remove_restores;
        prop_canon_bits;
        prop_resize_is_remove_then_add;
      ]
  in
  Alcotest.run "vtrs"
    [
      ( "traffic",
        [
          Alcotest.test_case "validation" `Quick test_traffic_validation;
          Alcotest.test_case "t_on" `Quick test_t_on;
          Alcotest.test_case "t_on cbr" `Quick test_t_on_cbr;
          Alcotest.test_case "envelope" `Quick test_envelope;
          Alcotest.test_case "envelope crossover" `Quick test_envelope_crossover;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "aggregate t_on" `Quick
            test_aggregate_preserves_t_on_for_identical;
          Alcotest.test_case "sum reads one term back" `Quick test_sum_single_terms;
          Alcotest.test_case "sum rounds half to even" `Quick test_sum_rounding;
          Alcotest.test_case "conforms" `Quick test_conforms;
        ] );
      ( "topology",
        [
          Alcotest.test_case "nodes and links" `Quick test_topology_nodes_links;
          Alcotest.test_case "default psi" `Quick test_topology_default_psi;
          Alcotest.test_case "duplicate link" `Quick test_topology_duplicate_link;
          Alcotest.test_case "find/out links" `Quick test_topology_find_out_links;
          Alcotest.test_case "path quantities" `Quick test_topology_path_quantities;
          Alcotest.test_case "is_path" `Quick test_topology_is_path;
        ] );
      ( "packet_state",
        [
          Alcotest.test_case "virtual delay" `Quick test_packet_state_virtual_delay;
          Alcotest.test_case "advance" `Quick test_packet_state_advance;
          Alcotest.test_case "advance accumulates" `Quick
            test_packet_state_advance_accumulates;
        ] );
      ( "delay",
        [
          Alcotest.test_case "edge bound" `Quick test_edge_bound;
          Alcotest.test_case "edge bound at peak" `Quick test_edge_bound_at_peak;
          Alcotest.test_case "core bound" `Quick test_core_bound;
          Alcotest.test_case "e2e decomposition" `Quick test_e2e_decomposition;
          Alcotest.test_case "Table-2 closed forms" `Quick test_min_rate_rate_based_table2;
          Alcotest.test_case "unachievable" `Quick test_min_rate_unachievable;
          Alcotest.test_case "modified core bound" `Quick test_modified_core_bound;
        ] );
      ( "vtedf",
        [
          Alcotest.test_case "empty schedulable" `Quick test_vtedf_empty_schedulable;
          Alcotest.test_case "add/remove" `Quick test_vtedf_add_remove;
          Alcotest.test_case "remove unknown" `Quick test_vtedf_remove_unknown;
          Alcotest.test_case "demand formula" `Quick test_vtedf_demand_formula;
          Alcotest.test_case "own-deadline boundary" `Quick test_vtedf_can_admit_boundary;
          Alcotest.test_case "capacity slope" `Quick test_vtedf_can_admit_capacity;
        ] );
      ("properties", props);
    ]
