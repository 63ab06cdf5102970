(* Shared QCheck generators for the test suites, and the one op
   vocabulary every storm draws from. *)

module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Topo_gen = Bbr_workload.Topo_gen
module Profiles = Bbr_workload.Profiles
module Prng = Bbr_util.Prng

let profile_gen =
  QCheck.Gen.(
    let* rho = float_range 1_000. 500_000. in
    let* peak_mult = float_range 1.0 10. in
    let* lmax = float_range 100. 20_000. in
    let* burst_mult = float_range 1.0 20. in
    return
      (Traffic.make ~sigma:(lmax *. burst_mult) ~rho ~peak:(rho *. peak_mult) ~lmax))

let arb_profile = QCheck.make ~print:(Fmt.str "%a" Traffic.pp) profile_gen

(* ------------------------------------------------------------------ *)
(* Storms *)

(* An op names its target by an index that a driver resolves against its
   own state when the op runs, so one op list drives brokers whose
   populations differ. *)
type op =
  | Request of Types.request
  | Teardown of int  (* a live flow, or a flow that is not live *)
  | Fail of int  (* a link that is up *)
  | Restore of int  (* a link that is down *)

(* [ops] ops: teardowns take a share drawn from [0.20, 0.35], link
   failures one from [0.06, 0.10] and restores as many again; the rest
   request a Table-1 profile with [dreq] drawn from [0.3, 6] s between two
   distinct routers. *)
let draw prng topology ~ops =
  let teardowns = Prng.float_range prng ~lo:0.20 ~hi:0.35 in
  let fails = Prng.float_range prng ~lo:0.06 ~hi:0.10 in
  List.init ops (fun _ ->
      let c = Prng.float prng in
      let index () = Prng.int prng ~bound:1_000_000 in
      if c < teardowns then Teardown (index ())
      else if c < teardowns +. fails then Fail (index ())
      else if c < teardowns +. (2. *. fails) then Restore (index ())
      else
        let ingress, egress = Topo_gen.random_endpoints prng topology in
        let profile = Profiles.profile (Prng.int prng ~bound:4) in
        let dreq = Prng.float_range prng ~lo:0.3 ~hi:6. in
        Request { Types.profile; dreq; ingress; egress })

(* A storm case: a random domain of [nodes] routers and [extra] extra
   link pairs, half of its links delay-based and of 0.15 to 1 Mb/s, so a
   few to a few dozen Table-1 flows fill a link, and [length] ops, both
   drawn from [seed].  Shrinking shortens the op list, whose prefix stays the same. *)
type storm = { seed : int; nodes : int; extra : int; length : int }

let domain s =
  Topo_gen.random (Prng.create ~seed:s.seed) ~nodes:s.nodes ~extra_links:s.extra
    ~delay_fraction:0.5 ~capacity_lo:1.5e5 ~capacity_hi:1e6 ()

let ops s topology = draw (Prng.create ~seed:(s.seed + 7919)) topology ~ops:s.length

let arb_storm =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "seed=%d nodes=%d extra=%d ops=%d" s.seed s.nodes s.extra s.length)
    ~shrink:(fun s yield -> QCheck.Shrink.int s.length (fun length -> yield { s with length }))
    QCheck.Gen.(
      let* seed = int_range 1 1_000_000 in
      let* nodes = int_range 3 12 in
      let* extra = int_range 0 10 in
      let* length = int_range 10 150 in
      return { seed; nodes; extra; length })
