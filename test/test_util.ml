(* Unit and property tests for Bbr_util: Prng, Stats, Heap, Fp,
   Linebuf. *)

module Prng = Bbr_util.Prng
module Stats = Bbr_util.Stats
module Heap = Bbr_util.Heap
module Fp = Bbr_util.Fp
module Linebuf = Bbr_util.Linebuf

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.bits64 a = Prng.bits64 b)

let test_prng_float_range () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Prng.float t in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_prng_float_mean () =
  let t = Prng.create ~seed:11 in
  let acc = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add acc (Prng.float t)
  done;
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (Stats.mean acc -. 0.5) < 0.01)

let test_prng_int_bounds () =
  let t = Prng.create ~seed:3 in
  let seen = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let v = Prng.int t ~bound:7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    seen.(v) <- seen.(v) + 1
  done;
  Array.iter
    (fun count ->
      Alcotest.(check bool) "roughly uniform" true (count > 8_000 && count < 12_000))
    seen

let test_prng_exponential_mean () =
  let t = Prng.create ~seed:5 in
  let acc = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add acc (Prng.exponential t ~mean:200.)
  done;
  Alcotest.(check bool) "mean near 200" true (Float.abs (Stats.mean acc -. 200.) < 5.)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:9 in
  let child = Prng.split parent in
  (* Drawing from the child must not perturb the parent's future stream. *)
  let parent2 = Prng.create ~seed:9 in
  let _child2 = Prng.split parent2 in
  let _ = Prng.bits64 child in
  Alcotest.(check int64) "parent unaffected by child draws" (Prng.bits64 parent)
    (Prng.bits64 parent2)

let test_prng_pick () =
  let t = Prng.create ~seed:13 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = Prng.pick t arr in
    Alcotest.(check bool) "picked element" true (Array.exists (( = ) v) arr)
  done

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  check_float "mean" 0. (Stats.mean s);
  check_float "variance" 0. (Stats.variance s)

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (Stats.mean s);
  Alcotest.(check (float 1e-6)) "variance" (32. /. 7.) (Stats.variance s);
  check_float "min" 2. (Stats.min s);
  check_float "max" 9. (Stats.max s)

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "p0" 1. (Stats.percentile a ~p:0.);
  check_float "p50" 3. (Stats.percentile a ~p:50.);
  check_float "p100" 5. (Stats.percentile a ~p:100.);
  check_float "p25" 2. (Stats.percentile a ~p:25.)

let test_stats_percentile_interpolates () =
  let a = [| 10.; 20. |] in
  check_float "p50 interpolated" 15. (Stats.percentile a ~p:50.)

let test_stats_percentile_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] ~p:50.))

let test_stats_ci_shrinks () =
  let wide = Stats.create () and narrow = Stats.create () in
  let p = Prng.create ~seed:21 in
  for _ = 1 to 10 do
    Stats.add wide (Prng.float p)
  done;
  for _ = 1 to 1000 do
    Stats.add narrow (Prng.float p)
  done;
  Alcotest.(check bool) "more samples, tighter CI" true
    (Stats.half_ci95 narrow < Stats.half_ci95 wide)

let test_stats_mean_of () =
  check_float "mean_of" 2. (Stats.mean_of [ 1.; 2.; 3. ])

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some v ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_heap_fifo_on_ties () =
  (* Equal priorities must come out in insertion order. *)
  let h = Heap.create ~leq:(fun (a, _) (b, _) -> (a : int) <= b) in
  List.iter (Heap.push h) [ (1, "first"); (1, "second"); (1, "third") ];
  Alcotest.(check (option string)) "first" (Some "first")
    (Option.map snd (Heap.pop h));
  Alcotest.(check (option string)) "second" (Some "second")
    (Option.map snd (Heap.pop h));
  Alcotest.(check (option string)) "third" (Some "third")
    (Option.map snd (Heap.pop h))

let test_heap_peek () =
  let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek h);
  Heap.push h 4;
  Heap.push h 2;
  Alcotest.(check (option int)) "peek min" (Some 2) (Heap.peek h);
  Alcotest.(check int) "peek does not remove" 2 (Heap.size h)

let test_heap_clear () =
  let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap size tracks pushes and pops" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~leq:(fun (a : int) b -> a <= b) in
      let expected = ref 0 in
      List.for_all
        (fun x ->
          if x mod 3 = 0 && not (Heap.is_empty h) then begin
            ignore (Heap.pop h);
            decr expected
          end
          else begin
            Heap.push h x;
            incr expected
          end;
          Heap.size h = !expected)
        xs)

(* ------------------------------------------------------------------ *)
(* Fp *)

let test_fp_basic () =
  Alcotest.(check bool) "leq exact" true (Fp.leq 1. 1.);
  Alcotest.(check bool) "leq below" true (Fp.leq 0.9 1.);
  Alcotest.(check bool) "leq above tolerance" false (Fp.leq 1.001 1.);
  Alcotest.(check bool) "leq within tolerance" true
    (Fp.leq (1_500_000. +. 1e-6) 1_500_000.);
  Alcotest.(check bool) "gt strict" true (Fp.gt 2. 1.);
  Alcotest.(check bool) "gt equal" false (Fp.gt 1. 1.);
  Alcotest.(check bool) "approx" true (Fp.approx 1. (1. +. 1e-12))

let test_fp_thirty_times_rate () =
  (* The motivating case: 30 flows of ~50 kb/s on a 1.5 Mb/s link. *)
  let r = 168_000. /. (2.44 -. 0.04 +. 0.96) in
  let sum = ref 0. in
  for _ = 1 to 30 do
    sum := !sum +. r
  done;
  Alcotest.(check bool) "30 * r_min fits capacity" true (Fp.leq !sum 1_500_000.)

(* ------------------------------------------------------------------ *)
(* Linebuf: the record writer's number forms *)

let written add x =
  let b = Linebuf.create 1 in
  Linebuf.add_string b "<";
  add b x;
  Linebuf.add_char b '>';
  Linebuf.contents b

let hfloat = written Linebuf.add_hfloat

let test_hfloat_specials () =
  List.iter
    (fun x ->
      Alcotest.(check string) (Printf.sprintf "%h" x) ("<" ^ Printf.sprintf "%h" x ^ ">")
        (hfloat x))
    [ 0.; -0.; infinity; neg_infinity; nan; Float.neg nan;
      Int64.float_of_bits 0x7FF0_0000_0000_0001L; Int64.float_of_bits 0xFFF8_0000_0000_0001L;
      Int64.float_of_bits 1L; Int64.float_of_bits 0x8000_0000_0000_0001L;
      Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL; Float.min_float; max_float; -.max_float;
      1.; -1.5; 0.1; 2.19; 1e300; 60000.; 1.5e6 ]

let test_int_specials () =
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) ("<" ^ string_of_int n ^ ">") (written Linebuf.add_int n))
    [ 0; 1; -1; 9; 10; -10; 99; 100; 1234567; max_int; min_int; min_int + 1 ]

let prop_hfloat_is_printf =
  QCheck.Test.make ~name:"add_hfloat = Printf %h on any bit pattern" ~count:2000
    QCheck.int64
    (fun bits ->
      let x = Int64.float_of_bits bits in
      hfloat x = "<" ^ Printf.sprintf "%h" x ^ ">")

let prop_int_is_string_of_int =
  QCheck.Test.make ~name:"add_int = string_of_int" ~count:2000 QCheck.int (fun n ->
      written Linebuf.add_int n = "<" ^ string_of_int n ^ ">")

(* Linebuf's reader: the writers' texts read back bit-exactly, and
   nothing else is read. *)

(* [read] applied to the whole of [s], or [None]. *)
let read_all read s =
  Linebuf.read s ~pos:0 ~len:(String.length s) (fun r ->
      let v = read r in
      if Linebuf.at_end r then Some v else None)

let same_float x y =
  if Float.is_nan x then Float.is_nan y && Float.sign_bit x = Float.sign_bit y
  else Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let float_specials =
  [ 0.; -0.; infinity; neg_infinity; nan; Float.neg nan; Int64.float_of_bits 1L;
    Int64.float_of_bits 0x8000_0000_0000_0001L; Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL;
    Float.min_float; max_float; -.max_float; 1.; -1.5; 0.1; 2.19; 1e300; 60000.; 1.5e6 ]

let int_specials = [ 0; 1; -1; 9; 10; -10; 99; 100; 1234567; max_int; min_int; min_int + 1 ]

let test_reader_specials () =
  List.iter
    (fun x ->
      let text = Printf.sprintf "%h" x in
      match read_all Linebuf.read_hfloat text with
      | Some y when same_float x y -> ()
      | _ -> Alcotest.failf "%s does not read back" text)
    float_specials;
  Alcotest.(check (option (float 0.))) "the smallest subnormal" (Some 4.9406564584124654e-324)
    (read_all Linebuf.read_hfloat "0x0.0000000000001p-1022");
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (string_of_int n) (Some n)
        (read_all Linebuf.read_int (string_of_int n)))
    int_specials;
  Alcotest.(check (option (list int))) "links" (Some [ 3; 0; 17 ])
    (read_all Linebuf.read_ints "3,0,17");
  Alcotest.(check (option (list int))) "no links" (Some []) (read_all Linebuf.read_ints "");
  Alcotest.(check (option string)) "a word stops at a space" (Some "ab")
    (Linebuf.read "ab cd" ~pos:0 ~len:5 (fun r -> Some (Linebuf.read_word r)))

let test_reader_refuses () =
  List.iter
    (fun s ->
      if read_all Linebuf.read_int s <> None then Alcotest.failf "int %S accepted" s)
    [ ""; "-"; "-0"; "00"; "01"; "+1"; " 1"; "1 "; "0x10"; "1_000"; "4611686018427387904";
      "-4611686018427387905"; "99999999999999999999" ];
  List.iter
    (fun s ->
      if read_all Linebuf.read_hfloat s <> None then Alcotest.failf "float %S accepted" s)
    [ ""; "-"; "1.5"; "1e3"; "inf"; "NaN"; "Infinity"; "0x1p0"; "0x1p-0"; "0x1p+01"; "0X1p+0";
      "0x1.0p+0"; "0x1.Ap+0"; "0x1.p+0"; "0x2p+0"; "0x0p+1"; "0x0p-0"; "0x0.8p-1021";
      "0x1p+1024"; "0x1p-1023"; "0x1.00000000000001p+0"; "0x1.fffffffffffff0p+0"; "--0x1p+0";
      "+0x1p+0"; "0x1p+1 " ];
  List.iter
    (fun s ->
      if read_all Linebuf.read_ints s <> None then Alcotest.failf "list %S accepted" s)
    [ ","; "1,"; ",1"; "1,,2"; "1;2"; "01" ];
  Alcotest.(check (option int)) "a range outside the buffer" None
    (Linebuf.read "12" ~pos:1 ~len:2 (fun r -> Some (Linebuf.read_int r)))

let prop_hfloat_reads_back =
  QCheck.Test.make ~name:"read_hfloat reads add_hfloat back on any bit pattern" ~count:2000
    QCheck.int64
    (fun bits ->
      let x = Int64.float_of_bits bits in
      match read_all Linebuf.read_hfloat (Printf.sprintf "%h" x) with
      | Some y -> same_float x y
      | None -> false)

let prop_int_reads_back =
  QCheck.Test.make ~name:"read_int reads add_int back" ~count:2000 QCheck.int (fun n ->
      read_all Linebuf.read_int (string_of_int n) = Some n)

(* A written number, then cut short, or with bytes replaced, inserted or
   dropped, from an alphabet close to the writers' own. *)
let arb_damaged =
  let open QCheck.Gen in
  let alphabet = "0123456789abcdefABCDEFxXp+-.,in \n" in
  let ch = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
  let text =
    oneof
      [ map (fun b -> Printf.sprintf "%h" (Int64.float_of_bits b)) ui64;
        map (fun x -> Printf.sprintf "%h" x) (oneofl float_specials);
        map string_of_int int;
        map string_of_int (oneofl int_specials) ]
  in
  let damage s =
    let n = String.length s in
    oneof
      [ map (fun k -> String.sub s 0 (k mod (n + 1))) nat;
        map2
          (fun k c -> String.mapi (fun i x -> if i = k mod max 1 n then c else x) s)
          nat ch;
        map2
          (fun k c ->
            let k = k mod (n + 1) in
            String.sub s 0 k ^ String.make 1 c ^ String.sub s k (n - k))
          nat ch;
        map
          (fun k ->
            if n = 0 then s
            else
              let k = k mod n in
              String.sub s 0 k ^ String.sub s (k + 1) (n - k - 1))
          nat ]
  in
  QCheck.make ~print:(Printf.sprintf "%S") (text >>= fun s -> list_size (int_range 1 3) unit >>= fun l -> List.fold_left (fun g () -> g >>= damage) (return s) l)

let prop_reader_refuses_the_rest =
  QCheck.Test.make ~name:"the reader accepts only what the writers write, never raises"
    ~count:3000 arb_damaged
    (fun s ->
      (match read_all Linebuf.read_hfloat s with
      | Some x -> Printf.sprintf "%h" x = s || QCheck.Test.fail_reportf "float %S read as %h" s x
      | None -> true)
      &&
      match read_all Linebuf.read_int s with
      | Some n -> string_of_int n = s || QCheck.Test.fail_reportf "int %S read as %d" s n
      | None -> true)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_heap_sorts; prop_heap_interleaved; prop_hfloat_is_printf; prop_int_is_string_of_int;
        prop_hfloat_reads_back; prop_int_reads_back; prop_reader_refuses_the_rest ]
  in
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "int bounds/uniformity" `Quick test_prng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "pick" `Quick test_prng_pick;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stats_percentile_interpolates;
          Alcotest.test_case "percentile empty" `Quick test_stats_percentile_empty;
          Alcotest.test_case "ci shrinks" `Quick test_stats_ci_shrinks;
          Alcotest.test_case "mean_of" `Quick test_stats_mean_of;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "clear" `Quick test_heap_clear;
        ] );
      ( "fp",
        [
          Alcotest.test_case "basics" `Quick test_fp_basic;
          Alcotest.test_case "capacity boundary" `Quick test_fp_thirty_times_rate;
        ] );
      ( "linebuf",
        [
          Alcotest.test_case "hex floats match Printf" `Quick test_hfloat_specials;
          Alcotest.test_case "ints match string_of_int" `Quick test_int_specials;
          Alcotest.test_case "reader reads the writers back" `Quick test_reader_specials;
          Alcotest.test_case "reader refuses other text" `Quick test_reader_refuses;
        ] );
      ("properties", qsuite);
    ]
