(* A reference bandwidth broker with no history: the executable
   specification the product's front ends are checked against.

   Its state is the live set of per-flow bookings and the up/down flags
   of its own topology copy.  Nothing is cached or kept as a running sum.
   Every query recomputes from the live set: a link's reservation is a
   sum over the live flows in flow-id order, a delay-based link's classes
   are grouped from the flows crossing it, a path's table is those
   classes' breakpoints merged through a [Float] map, and routes come from
   a plain breadth-first search.  The admission test is the per-interval
   evaluation of Section 3.2, every constraint on every interval,
   O(M^2 H).

   The model names none of the product's admission, cache, scheduler,
   MIB or routing modules, so a defect they share cannot hide from it. *)

module Topology = Bbr_vtrs.Topology
module Traffic = Bbr_vtrs.Traffic
module Types = Bbr_broker.Types
module Fp = Bbr_util.Fp
module Flows = Map.Make (Int)
module Delays = Map.Make (Float)

(* ------------------------------------------------------------------ *)
(* One delay-based scheduler and a path over such schedulers *)

(* A VT-EDF scheduler's classes: [(delay, rate sum, lmax sum)] by
   ascending delay, one per distinct delay. *)
type hop = { capacity : float; classes : (float * float * float) list }

(* What admission reads of a path: its hop counts, error terms, residual
   bandwidth and its delay-based schedulers in path order. *)
type path = { rate_hops : int; delay_hops : int; d_tot : float; cres : float; hops : hop list }

(* The demand at [at] of the classes with delay [<= at], and their rate. *)
let below hop ~at =
  let rec go dm rate = function
    | (d, r, l) :: rest when d <= at -> go (dm +. (r *. (at -. d)) +. l) (rate +. r) rest
    | _ -> (dm, rate)
  in
  go 0. 0. hop.classes

(* [(d^m, S at d^m)] for every class, ascending. *)
let breakpoints hop =
  let rec go acc dm rsum prev = function
    | [] -> List.rev acc
    | (d, r, l) :: rest ->
        let dm = dm +. (rsum *. (d -. prev)) +. l in
        go ((d, (hop.capacity *. d) -. dm) :: acc) dm (rsum +. r) d rest
  in
  go [] 0. 0. 0. hop.classes

(* The path's table: every scheduler's breakpoints folded into a [Float]
   map, equal delays combined with [Float.min]. *)
let merge tables =
  let add acc (d, s) =
    Delays.update d (function None -> Some s | Some s0 -> Some (Float.min s0 s)) acc
  in
  Delays.bindings (List.fold_left (List.fold_left add) Delays.empty tables)

(* Total rate within capacity and, at every breakpoint, demand within
   supply. *)
let schedulable hop =
  let supply d = hop.capacity *. d in
  Fp.leq (List.fold_left (fun acc (_, r, _) -> acc +. r) 0. hop.classes) hop.capacity
  && List.for_all (fun (d, s) -> Fp.leq (supply d -. s) (supply d)) (breakpoints hop)

(* ------------------------------------------------------------------ *)
(* Admissibility *)

(* Section 3.1: the least conforming rate that meets [dreq]. *)
let rate_based path (p : Traffic.t) ~dreq =
  let ton = Traffic.t_on p in
  let denom = dreq -. path.d_tot +. ton in
  if denom <= 0. then Error Types.Delay_unachievable
  else
    let rmin =
      ((ton *. p.Traffic.peak) +. (float_of_int (path.rate_hops + 1) *. p.Traffic.lmax))
      /. denom
    in
    let low = Float.max p.Traffic.rho rmin in
    if Fp.leq low (Float.min p.Traffic.peak path.cres) then Ok (low, 0.)
    else if Fp.gt rmin p.Traffic.peak then Error Types.Delay_unachievable
    else Error Types.Insufficient_bandwidth

(* Section 3.2, evaluated on every interval.  Interval j covers candidate
   delays [d^{j-1}, d^j) below t; on it the rate is bounded below by rho,
   by the delay bound at the interval's least own-deadline delay and by
   every breakpoint in [d^j, t), and above by the residual, the peak and
   every breakpoint at or beyond t.  The least rate wins, the first
   interval on a tie. *)
let mixed path (p : Traffic.t) ~dreq =
  let dh = float_of_int path.delay_hops in
  let ton = Traffic.t_on p in
  let tval = (dreq -. path.d_tot +. ton) /. dh in
  let lmax = p.Traffic.lmax in
  if tval <= 0. then Error Types.Delay_unachievable
  else
    let xi = ((ton *. p.Traffic.peak) +. (float_of_int (path.rate_hops + 1) *. lmax)) /. dh in
    let md, ms = List.split (merge (List.map breakpoints path.hops)) in
    let md = Array.of_list md and ms = Array.of_list ms in
    let m = Array.length md in
    let n_lt = Array.fold_left (fun c d -> if d < tval then c + 1 else c) 0 md in
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
      let r_cap = Float.min p.Traffic.peak path.cres in
      let del_lower j =
        let lb = ref 0. in
        for k = j to n_lt - 1 do
          let bound = (xi +. lmax -. ms.(k)) /. (tval -. md.(k)) in
          if bound > !lb then lb := bound
        done;
        !lb
      in
      (* The least delay in [lo, hi) where the candidate's own packet
         meets its deadline at [hop]; the residual service is linear
         there. *)
      let own_delay_in hop ~lo ~hi =
        let dm, rate = below hop ~at:lo in
        let g0 = (hop.capacity *. lo) -. dm in
        if Fp.geq g0 lmax then Some lo
        else
          let slope = hop.capacity -. rate in
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
            (fun acc hop ->
              Option.bind acc (fun d ->
                  Option.map (Float.max d) (own_delay_in hop ~lo:lo_d ~hi:hi_d)))
            (Some lo_d) path.hops
        in
        Option.iter
          (fun dlo ->
            let from_delay = if tval -. dlo > 0. then xi /. (tval -. dlo) else infinity in
            let r_lo = Float.max p.Traffic.rho (Float.max from_delay (del_lower j)) in
            let from_interval =
              if j = n_lt || tval -. hi_d <= 0. then infinity else xi /. (tval -. hi_d)
            in
            let r_hi = Float.min r_cap (Float.min !ub_tail from_interval) in
            match !best with
            | Some (r, _) when r <= r_lo -> ()
            | _ when Fp.leq r_lo r_hi ->
                best := Some (r_lo, Float.max 0. (tval -. (xi /. r_lo)))
            | _ -> ())
          d_own
      done;
      match !best with
      | Some pair -> Ok pair
      | None ->
          (* Even an idle path cannot push the delay below lmax/C at any
             scheduler, so beyond that no load relief helps. *)
          let d_floor =
            List.fold_left (fun acc hop -> Float.max acc (lmax /. hop.capacity)) 0. path.hops
          in
          if tval <= d_floor || Fp.gt (xi /. (tval -. d_floor)) p.Traffic.peak then
            Error Types.Delay_unachievable
          else if Fp.lt path.cres p.Traffic.rho then Error Types.Insufficient_bandwidth
          else Error Types.Not_schedulable
    end

let admit path p ~dreq =
  if path.delay_hops = 0 then rate_based path p ~dreq else mixed path p ~dreq

(* ------------------------------------------------------------------ *)
(* Routes *)

(* Breadth-first search over the links that are up, out-links in
   insertion order, each router reached by the first path to reach it. *)
let route topology ~ingress ~egress =
  let up =
    List.filter
      (fun (l : Topology.link) -> Topology.link_is_up topology ~link_id:l.Topology.link_id)
      (Topology.links topology)
  in
  let rec search seen = function
    | [] -> None
    | (node, rev) :: frontier ->
        visit seen frontier rev (List.filter (fun (l : Topology.link) -> l.Topology.src = node) up)
  and visit seen frontier rev = function
    | [] -> search seen frontier
    | (l : Topology.link) :: rest ->
        let dst = l.Topology.dst in
        if List.mem dst seen then visit seen frontier rev rest
        else if dst = egress then Some (List.rev (l :: rev))
        else visit (dst :: seen) (frontier @ [ (dst, l :: rev) ]) rev rest
  in
  let nodes = Topology.nodes topology in
  if ingress = egress || not (List.mem ingress nodes && List.mem egress nodes) then None
  else search [ ingress ] [ (ingress, []) ]

(* ------------------------------------------------------------------ *)
(* The broker *)

type booking = {
  request : Types.request;
  rate : float;
  delay : float;
  links : Topology.link list;
}

type t = { topology : Topology.t; mutable live : booking Flows.t; mutable next_id : int }

(* Over a copy of [topology], link states included. *)
let create topology = { topology = Topology.copy topology; live = Flows.empty; next_id = 0 }

let crosses link_id b =
  List.exists (fun (l : Topology.link) -> l.Topology.link_id = link_id) b.links

let reserved t ~link_id =
  Flows.fold (fun _ b acc -> if crosses link_id b then acc +. b.rate else acc) t.live 0.

let hop t (link : Topology.link) =
  let add _ b acc =
    let lmax = b.request.Types.profile.Traffic.lmax in
    if not (crosses link.Topology.link_id b) then acc
    else
      Delays.update b.delay
        (function None -> Some (b.rate, lmax) | Some (r, l) -> Some (r +. b.rate, l +. lmax))
        acc
  in
  let classes = Delays.bindings (Flows.fold add t.live Delays.empty) in
  { capacity = link.Topology.capacity; classes = List.map (fun (d, (r, l)) -> (d, r, l)) classes }

let is_delay_based (l : Topology.link) = l.Topology.sched = Topology.Delay_based

(* Route and admissibility, booking nothing. *)
let decide t (req : Types.request) =
  match route t.topology ~ingress:req.Types.ingress ~egress:req.Types.egress with
  | None -> Error Types.No_route
  | Some links ->
      let cres (l : Topology.link) =
        l.Topology.capacity -. reserved t ~link_id:l.Topology.link_id
      in
      let path =
        {
          rate_hops = Topology.rate_based_hops links;
          delay_hops = Topology.delay_based_hops links;
          d_tot = Topology.d_tot links;
          cres = List.fold_left (fun acc l -> Float.min acc (cres l)) infinity links;
          hops = List.map (hop t) (List.filter is_delay_based links);
        }
      in
      admit path req.Types.profile ~dreq:req.Types.dreq
      |> Result.map (fun (rate, delay) -> (links, { Types.rate; delay }))

let book t ~flow request links (res : Types.reservation) =
  let b = { request; rate = res.Types.rate; delay = res.Types.delay; links } in
  t.live <- Flows.add flow b t.live;
  t.next_id <- max t.next_id (flow + 1)

let request_as t ~flow req =
  Result.map
    (fun (links, res) ->
      book t ~flow req links res;
      (flow, res))
    (decide t req)

(* The next id is consumed only on admission. *)
let request t req = request_as t ~flow:t.next_id req

let teardown t flow = t.live <- Flows.remove flow t.live

(* The victims leave first, so survivors compete for what remains; then
   each is re-admitted in flow-id order under its own id. *)
let fail_link t ~link_id =
  Topology.set_link_state t.topology ~link_id ~up:false;
  let victims, survivors = Flows.partition (fun _ b -> crosses link_id b) t.live in
  t.live <- survivors;
  List.partition_map
    (fun (flow, b) ->
      if Result.is_ok (request_as t ~flow b.request) then Either.Left flow else Either.Right flow)
    (Flows.bindings victims)

let restore_link t ~link_id = Topology.set_link_state t.topology ~link_id ~up:true

let topology t = t.topology

let next_id t = t.next_id

(* The live flows by ascending id. *)
let live t = Flows.bindings t.live

let find t flow = Flows.find_opt flow t.live

(* The delay-based links whose classes fail {!schedulable}. *)
let unschedulable t =
  List.filter_map
    (fun (l : Topology.link) ->
      if is_delay_based l && not (schedulable (hop t l)) then Some l.Topology.link_id
      else None)
    (Topology.links t.topology)
