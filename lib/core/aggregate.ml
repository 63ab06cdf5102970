module Traffic = Bbr_vtrs.Traffic
module Delay = Bbr_vtrs.Delay
module Vtedf = Bbr_vtrs.Vtedf
module Topology = Bbr_vtrs.Topology
module Fp = Bbr_util.Fp

type method_ = Bounding | Feedback

type class_def = { class_id : int; dreq : float; cd : float }

type hooks = {
  now : unit -> float;
  hold : class_id:int -> path_id:int -> grant:int -> expires:float -> unit;
  rate_changed : class_id:int -> path_id:int -> total_rate:float -> unit;
}

(* A macroflow's mutable rates, in an all-float record: it is stored
   flat, so an update writes the double in place, where a mutable float
   field of the mixed [macroflow] record would box on every store. *)
type rates = {
  mutable base : float;  (* reserved rate excluding contingency *)
  mutable conting : float;  (* total active contingency bandwidth *)
  mutable edge_bound : float;  (* current worst-case edge-delay bound *)
}

type macroflow = {
  cls : class_def;
  path : Path_mib.info;
  edfs : Vtedf.t list;  (* the delay-based schedulers along [path] *)
  members : (Types.flow_id, Traffic.t) Hashtbl.t;
  sum : Traffic.Sum.t;  (* exact sum of the members' profiles *)
  mutable profile : Traffic.t option;  (* None when empty *)
  r : rates;
  (* The live contingency grants, in slots [ghead, gtail) of two parallel
     arrays: ids are issued in increasing order and appended, so the
     slots are in id order, oldest first. *)
  mutable gids : int array;
  mutable gamounts : Float.Array.t;
  mutable ghead : int;
  mutable gtail : int;
}

type macro_stats = {
  class_id : int;
  path_id : int;
  members : int;
  profile : Traffic.t option;
  base_rate : float;
  contingency : float;
  edge_bound : float;
}

type t = {
  node_mib : Node_mib.t;
  path_mib : Path_mib.t;
  classes : class_def list;
  method_ : method_;
  hooks : hooks;
  macros : (int * int, macroflow) Hashtbl.t;  (* (class_id, path_id) *)
  owners : (Types.flow_id, int * int) Hashtbl.t;
  (* Grant ids are unique across macroflows, so a hold names a grant by
     its id even after its macroflow was evacuated and re-formed. *)
  mutable next_grant : int;
}

let create node_mib path_mib ~classes ~method_ ~hooks =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c : class_def) ->
      if Hashtbl.mem seen c.class_id then
        invalid_arg "Aggregate.create: duplicate class id";
      if c.dreq <= 0. then invalid_arg "Aggregate.create: class bound must be positive";
      if c.cd < 0. then invalid_arg "Aggregate.create: negative class delay parameter";
      Hashtbl.replace seen c.class_id ())
    classes;
  {
    node_mib;
    path_mib;
    classes;
    method_;
    hooks;
    macros = Hashtbl.create 16;
    owners = Hashtbl.create 64;
    next_grant = 0;
  }

let classes t = t.classes

let find_class t ~class_id =
  List.find_opt (fun (c : class_def) -> c.class_id = class_id) t.classes

let best_class t ~dreq =
  List.fold_left
    (fun acc (c : class_def) ->
      if c.dreq <= dreq then
        match acc with
        | Some best when best.dreq >= c.dreq -> acc
        | _ -> Some c
      else acc)
    None t.classes

(* ------------------------------------------------------------------ *)
(* Per-macroflow helpers.                                             *)

let[@inline] total mf = mf.r.base +. mf.r.conting

(* The macroflow appears at every delay-based scheduler of its path as one
   flow with rate = total allocation, delay = cd and the path MTU as
   maximum packet size.  A resize is one {!Vtedf.resize} a scheduler.
   Both walks are top-level recursions passing on floats that are
   already boxed, so a hop allocates nothing. *)
let rec update_edfs edfs ~cd ~old_total ~new_total =
  match edfs with
  | [] -> ()
  | edf :: rest ->
      let lmax = Topology.mtu_bits in
      if old_total > 0. && new_total > 0. then
        Vtedf.resize edf ~delay:cd ~lmax ~old_rate:old_total ~new_rate:new_total
      else if old_total > 0. then Vtedf.remove edf ~rate:old_total ~delay:cd ~lmax
      else if new_total > 0. then Vtedf.add edf ~rate:new_total ~delay:cd ~lmax;
      update_edfs rest ~cd ~old_total ~new_total

(* A feasibility test asks each scheduler without changing it. *)
let rec edfs_can edfs ~cd ~old_total ~new_total =
  match edfs with
  | [] -> true
  | edf :: rest ->
      let lmax = Topology.mtu_bits in
      (new_total <= 0.
      ||
      if old_total > 0. then
        Vtedf.can_resize edf ~delay:cd ~lmax ~old_rate:old_total ~new_rate:new_total
      else Vtedf.can_admit edf ~rate:new_total ~delay:cd ~lmax)
      && edfs_can rest ~cd ~old_total ~new_total

let edf_update mf ~old_total ~new_total =
  update_edfs mf.edfs ~cd:mf.cls.cd ~old_total ~new_total

let edf_can mf ~old_total ~new_total = edfs_can mf.edfs ~cd:mf.cls.cd ~old_total ~new_total

let reserve_links t mf amount =
  if amount > 0. then Node_mib.reserve_links t.node_mib mf.path.Path_mib.links amount

let release_links t mf amount =
  if amount > 0. then Node_mib.release_links t.node_mib mf.path.Path_mib.links amount

let steady_edge_bound (mf : macroflow) =
  match mf.profile with
  | None -> 0.
  | Some p -> Delay.edge_bound p ~rate:mf.r.base

(* The grant slots.  A released grant is usually the oldest (a queue-empty
   signal releases them all, oldest first), which only advances [ghead];
   a Bounding grant whose hold expires may be released from the middle,
   which closes the gap. *)
let grant_count mf = mf.gtail - mf.ghead

let clear_grants mf =
  mf.ghead <- 0;
  mf.gtail <- 0

let push_grant mf gid amount =
  let cap = Array.length mf.gids in
  if mf.gtail = cap then begin
    let live = grant_count mf in
    let cap' = if 2 * live > cap then 2 * cap else cap in
    let gids = if cap' = cap then mf.gids else Array.make cap' 0 in
    let gamounts = if cap' = cap then mf.gamounts else Float.Array.make cap' 0. in
    Array.blit mf.gids mf.ghead gids 0 live;
    Float.Array.blit mf.gamounts mf.ghead gamounts 0 live;
    mf.gids <- gids;
    mf.gamounts <- gamounts;
    mf.ghead <- 0;
    mf.gtail <- live
  end;
  mf.gids.(mf.gtail) <- gid;
  Float.Array.set mf.gamounts mf.gtail amount;
  mf.gtail <- mf.gtail + 1

(* The slot of grant [gid], or [-1] when it was released already. *)
let find_grant mf gid =
  let lo = ref mf.ghead and hi = ref mf.gtail in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if mf.gids.(mid) < gid then lo := mid + 1 else hi := mid
  done;
  if !lo < mf.gtail && mf.gids.(!lo) = gid then !lo else -1

let drop_grant mf k =
  if k = mf.ghead then mf.ghead <- k + 1
  else begin
    let after = mf.gtail - k - 1 in
    Array.blit mf.gids (k + 1) mf.gids k after;
    Float.Array.blit mf.gamounts (k + 1) mf.gamounts k after;
    mf.gtail <- mf.gtail - 1
  end;
  if mf.ghead = mf.gtail then clear_grants mf

let notify_rate t mf =
  if Obs_log.active () then begin
    Obs_log.count "bb_agg_rate_changes_total"
      ~labels:[ ("class", string_of_int mf.cls.class_id) ];
    Obs_log.event ~at:(t.hooks.now ()) "bb.agg.rate_change"
      ~attrs:
        [
          ("class", string_of_int mf.cls.class_id);
          ("path", string_of_int mf.path.Path_mib.path_id);
          ("total", Printf.sprintf "%.6g" (total mf));
        ]
  end;
  t.hooks.rate_changed ~class_id:mf.cls.class_id ~path_id:mf.path.Path_mib.path_id
    ~total_rate:(total mf)

(* Release the contingency grant in slot [k]. *)
let release_slot t mf k =
  let amount = Float.Array.get mf.gamounts k in
  drop_grant mf k;
  if Obs_log.active () then begin
    Obs_log.count "bb_agg_contingency_releases_total"
      ~labels:[ ("class", string_of_int mf.cls.class_id) ];
    Obs_log.event ~at:(t.hooks.now ()) "bb.agg.contingency_release"
      ~attrs:
        [
          ("class", string_of_int mf.cls.class_id);
          ("path", string_of_int mf.path.Path_mib.path_id);
          ("amount", Printf.sprintf "%.6g" amount);
        ]
  end;
  let old_total = total mf in
  mf.r.conting <- Float.max 0. (mf.r.conting -. amount);
  release_links t mf amount;
  edf_update mf ~old_total ~new_total:(total mf);
  if grant_count mf = 0 then mf.r.edge_bound <- steady_edge_bound mf;
  notify_rate t mf

(* Grant [grant]'s slot, if it is live: a grant goes with an evacuated
   macroflow, and a queue-empty signal releases it early. *)
let grant_slot t ~class_id ~path_id ~grant =
  Option.bind (Hashtbl.find_opt t.macros (class_id, path_id)) (fun mf ->
      let k = find_grant mf grant in
      if k >= 0 then Some (mf, k) else None)

let release_grant t ~class_id ~path_id ~grant =
  Option.iter (fun (mf, k) -> release_slot t mf k) (grant_slot t ~class_id ~path_id ~grant)

let grant_amount t ~class_id ~path_id ~grant =
  Option.fold ~none:0. ~some:(fun (mf, k) -> Float.Array.get mf.gamounts k)
    (grant_slot t ~class_id ~path_id ~grant)

(* Register [amount] of contingency bandwidth, already reserved on the
   links by the caller; returns the grant id. *)
let register_grant t mf amount =
  let gid = t.next_grant in
  t.next_grant <- t.next_grant + 1;
  push_grant mf gid amount;
  mf.r.conting <- mf.r.conting +. amount;
  if Obs_log.active () then begin
    Obs_log.count "bb_agg_contingency_grants_total"
      ~labels:[ ("class", string_of_int mf.cls.class_id) ];
    Obs_log.event ~at:(t.hooks.now ()) "bb.agg.contingency_grant"
      ~attrs:
        [
          ("class", string_of_int mf.cls.class_id);
          ("path", string_of_int mf.path.Path_mib.path_id);
          ("amount", Printf.sprintf "%.6g" amount);
        ]
  end;
  gid

(* Under [Bounding] the grant is held for its period bound of eq. (17);
   under [Feedback] it waits for the queue-empty signal. *)
let hold_grant t (mf : macroflow) gid ~amount ~alloc_before =
  match t.method_ with
  | Feedback -> ()
  | Bounding ->
      let tau = mf.r.edge_bound *. alloc_before /. amount in
      t.hooks.hold ~class_id:mf.cls.class_id ~path_id:mf.path.Path_mib.path_id ~grant:gid
        ~expires:(t.hooks.now () +. Float.max 0. tau)

let add_grant t mf ~amount ~alloc_before =
  if amount > 0. then hold_grant t mf (register_grant t mf amount) ~amount ~alloc_before

(* Minimal aggregate reserved rate meeting the class end-to-end bound.
   [core_rate] is the rate used in the macroflow core bound (the smaller of
   the rates across the change, per eq. (19)); [None] means the core bound
   also runs at the rate being solved for (first microflow). *)
let min_class_rate mf profile ~core_rate =
  let cls = mf.cls in
  let q = mf.path.Path_mib.rate_hops
  and dh = mf.path.Path_mib.delay_hops
  and d_tot = mf.path.Path_mib.d_tot in
  let ton = Traffic.t_on profile in
  let numer_edge = (ton *. profile.Traffic.peak) +. profile.Traffic.lmax in
  let cd_part = (float_of_int dh *. cls.cd) +. d_tot in
  match core_rate with
  | Some r_core ->
      let core =
        Delay.macroflow_core_bound ~hops:q ~path_lmax:Topology.mtu_bits ~rate:r_core
          ~d_tot:cd_part
      in
      let budget = cls.dreq -. core +. ton in
      if budget <= 0. then None else Some (numer_edge /. budget)
  | None ->
      let budget = cls.dreq -. cd_part +. ton in
      if budget <= 0. then None
      else Some ((numer_edge +. (float_of_int q *. Topology.mtu_bits)) /. budget)

let empty_macro t cls path =
  {
    cls;
    path;
    edfs =
      List.filter_map
        (fun (l : Topology.link) ->
          (Node_mib.entry t.node_mib ~link_id:l.Topology.link_id).Node_mib.edf)
        path.Path_mib.links;
    members = Hashtbl.create 16;
    sum = Traffic.Sum.create ();
    profile = None;
    r = { base = 0.; conting = 0.; edge_bound = 0. };
    gids = Array.make 8 0;
    gamounts = Float.Array.make 8 0.;
    ghead = 0;
    gtail = 0;
  }

let get_macro t ~class_id ~path =
  let key = (class_id, path.Path_mib.path_id) in
  match Hashtbl.find_opt t.macros key with
  | Some mf -> Some mf
  | None -> (
      match find_class t ~class_id with
      | None -> None
      | Some cls ->
          let mf = empty_macro t cls path in
          Hashtbl.replace t.macros key mf;
          Some mf)

(* ------------------------------------------------------------------ *)

(* Admission of [profile] into [mf], whose sum already includes it. *)
let admit_member t mf ~class_id ~flow profile =
  let new_profile = Traffic.Sum.value mf.sum in
  (* The rate the class bound demands for the new aggregate; the core
     bound is evaluated at the pre-join rate when the macroflow already
     exists (eq. (19)). *)
  let core_rate = if Hashtbl.length mf.members = 0 then None else Some mf.r.base in
  match min_class_rate mf new_profile ~core_rate with
  | None -> Error Types.Delay_unachievable
  | Some r_delay ->
      (* Never below the aggregate sustained rate, never decreased by a
         join. *)
      let base' = Float.max mf.r.base (Float.max new_profile.Traffic.rho r_delay) in
      let increment = base' -. mf.r.base in
      let contingency = Float.max 0. (profile.Traffic.peak -. increment) in
      let extra = increment +. contingency in
      let cres = Path_mib.residual t.path_mib mf.path in
      if not (Fp.leq extra cres) then Error Types.Insufficient_bandwidth
      else if not (edf_can mf ~old_total:(total mf) ~new_total:(total mf +. extra))
      then Error Types.Not_schedulable
      else begin
        let alloc_before = total mf in
        let old_total = alloc_before in
        Hashtbl.replace mf.members flow profile;
        Hashtbl.replace t.owners flow (class_id, mf.path.Path_mib.path_id);
        mf.profile <- Some new_profile;
        mf.r.base <- base';
        reserve_links t mf extra;
        edf_update mf ~old_total ~new_total:(old_total +. extra);
        add_grant t mf ~amount:contingency ~alloc_before;
        (* eq. (13): the edge bound after the change is at most the max
           of the old bound and the steady bound of the new aggregate. *)
        mf.r.edge_bound <- Float.max mf.r.edge_bound (steady_edge_bound mf);
        notify_rate t mf;
        Ok ()
      end

let join t ~class_id ~path ~flow profile =
  match get_macro t ~class_id ~path with
  | None -> Error (Types.Policy_denied "unknown service class")
  | Some mf ->
      Traffic.Sum.add mf.sum profile;
      let decision = admit_member t mf ~class_id ~flow profile in
      (* Exact: the sum is back to what it was before the add. *)
      if Result.is_error decision then Traffic.Sum.remove mf.sum profile;
      decision

let leave t ~flow =
  match Hashtbl.find_opt t.owners flow with
  | None -> invalid_arg (Printf.sprintf "Aggregate.leave: unknown flow %d" flow)
  | Some key ->
      Hashtbl.remove t.owners flow;
      let mf = Hashtbl.find t.macros key in
      let profile =
        match Hashtbl.find_opt mf.members flow with Some p -> p | None -> assert false
      in
      Hashtbl.remove mf.members flow;
      Traffic.Sum.remove mf.sum profile;
      let alloc_before = total mf in
      let rest =
        if Hashtbl.length mf.members = 0 then None else Some (Traffic.Sum.value mf.sum)
      in
      let base' =
        match rest with
        | None -> 0.
        | Some p ->
            (* eq. (19) on a leave reduces to the steady condition at the
               new (smaller) rate, whose core bound is evaluated at that
               same rate — solved by [min_class_rate] with the closed
               form. *)
            let r_delay =
              match min_class_rate mf p ~core_rate:None with
              | Some r -> r
              | None -> mf.r.base
            in
            Float.min mf.r.base (Float.max p.Traffic.rho r_delay)
      in
      let decrement = mf.r.base -. base' in
      mf.profile <- rest;
      mf.r.base <- base';
      (* Theorem 3: keep serving at the old allocation; the decrement
         becomes contingency bandwidth and is only released after the
         contingency period (or the queue-empty signal). *)
      add_grant t mf ~amount:decrement ~alloc_before;
      mf.r.edge_bound <- Float.max mf.r.edge_bound (steady_edge_bound mf);
      notify_rate t mf

let evacuate t ~class_id ~path_id =
  match Hashtbl.find_opt t.macros (class_id, path_id) with
  | None -> []
  | Some mf ->
      let members =
        Hashtbl.fold (fun flow p acc -> (flow, p) :: acc) mf.members []
        |> List.sort compare
      in
      let old_total = total mf in
      (* Hard-release everything at once — base and contingency alike.  No
         contingency period applies: the path is gone, so there is no edge
         backlog left to drain through it.  Holds on its Bounding grants
         find them gone and expire as no-ops. *)
      clear_grants mf;
      mf.r.conting <- 0.;
      mf.r.base <- 0.;
      mf.profile <- None;
      mf.r.edge_bound <- 0.;
      release_links t mf old_total;
      edf_update mf ~old_total ~new_total:0.;
      Hashtbl.reset mf.members;
      List.iter (fun (flow, _) -> Hashtbl.remove t.owners flow) members;
      Hashtbl.remove t.macros (class_id, path_id);
      notify_rate t mf;
      members

let queue_empty t ~class_id ~path_id =
  match t.method_ with
  | Bounding -> ()
  | Feedback -> (
      match Hashtbl.find_opt t.macros (class_id, path_id) with
      | None -> ()
      | Some mf ->
          (* Oldest first.  A grant issued while these are released (a
             rate-change hook that joins) waits for the next signal. *)
          let last = t.next_grant - 1 in
          while mf.gtail > mf.ghead && mf.gids.(mf.ghead) <= last do
            release_slot t mf mf.ghead
          done)

(* ------------------------------------------------------------------ *)
(* Snapshot / journal support: verbatim booking of a saved macroflow,
   and anti-entropy repair of the membership tables.                  *)

let grant_amounts t ~class_id ~path_id =
  match Hashtbl.find_opt t.macros (class_id, path_id) with
  | None -> []
  | Some mf ->
      List.init (grant_count mf) (fun i -> Float.Array.get mf.gamounts (mf.ghead + i))

let restore_macroflow t ~class_id ~path ~members ~profile ~base ~conting ~edge_bound
    ~grants =
  let fail what =
    invalid_arg (Printf.sprintf "Aggregate.restore_macroflow: %s (class %d)" what class_id)
  in
  let cls = match find_class t ~class_id with Some c -> c | None -> fail "unknown class" in
  let key = (class_id, path.Path_mib.path_id) in
  if Hashtbl.mem t.macros key then fail "macroflow already exists";
  (* The running sum counts every line, so a repeated member would be
     summed twice. *)
  if List.length (List.sort_uniq compare (List.map fst members)) <> List.length members
  then fail "duplicate member";
  let mf = empty_macro t cls path in
  mf.profile <- profile;
  mf.r.base <- base;
  mf.r.edge_bound <- edge_bound;
  (* No admission test: these are the primary's bookings.  The links
     still refuse to go over capacity. *)
  reserve_links t mf (base +. conting);
  edf_update mf ~old_total:0. ~new_total:(base +. conting);
  Hashtbl.replace t.macros key mf;
  List.iter
    (fun (flow, p) ->
      Hashtbl.replace mf.members flow p;
      Traffic.Sum.add mf.sum p;
      Hashtbl.replace t.owners flow key)
    members;
  let gids = List.map (register_grant t mf) grants in
  (* The saved pool, not the sum of its grants: release arithmetic can
     leave a residue the primary still holds on its links. *)
  mf.r.conting <- conting;
  (* Grants are held only once the pool is whole, so a hold released at
     once releases from consistent state. *)
  ignore
    (List.fold_left2
       (fun alloc_before gid amount ->
         hold_grant t mf gid ~amount ~alloc_before;
         alloc_before +. amount)
       base gids grants);
  notify_rate t mf

let repair_membership t =
  let fixes = ref 0 in
  (* Owner entries pointing at a missing macroflow, or at one that does
     not list the flow as a member: drop them. *)
  let stale =
    Hashtbl.fold
      (fun flow key acc ->
        match Hashtbl.find_opt t.macros key with
        | Some mf when Hashtbl.mem mf.members flow -> acc
        | _ -> flow :: acc)
      t.owners []
  in
  List.iter
    (fun flow ->
      Hashtbl.remove t.owners flow;
      incr fixes)
    stale;
  (* Members with no (or a wrong) owner entry: re-adopt them — the member
     table is what the rate accounting is derived from, so it wins. *)
  Hashtbl.iter
    (fun key (mf : macroflow) ->
      let dangling =
        Hashtbl.fold
          (fun flow _ acc ->
            match Hashtbl.find_opt t.owners flow with
            | Some k when k = key -> acc
            | _ -> flow :: acc)
          mf.members []
      in
      List.iter
        (fun flow ->
          Hashtbl.replace t.owners flow key;
          incr fixes)
        dangling)
    t.macros;
  !fixes

let owners_alist t =
  Hashtbl.fold (fun flow key acc -> (flow, key) :: acc) t.owners []
  |> List.sort compare

let macroflow_stats t ~class_id ~path_id =
  Option.map
    (fun (mf : macroflow) ->
      {
        class_id;
        path_id;
        members = Hashtbl.length mf.members;
        profile = mf.profile;
        base_rate = mf.r.base;
        contingency = mf.r.conting;
        edge_bound = mf.r.edge_bound;
      })
    (Hashtbl.find_opt t.macros (class_id, path_id))

let all_macroflows t =
  Hashtbl.fold
    (fun (class_id, path_id) _ acc ->
      match macroflow_stats t ~class_id ~path_id with
      | Some s -> s :: acc
      | None -> acc)
    t.macros []
  |> List.sort compare

let member_count t = Hashtbl.length t.owners

let owner t ~flow = Hashtbl.find_opt t.owners flow

let members t ~class_id ~path_id =
  match Hashtbl.find_opt t.macros (class_id, path_id) with
  | None -> []
  | Some mf ->
      Hashtbl.fold (fun flow p acc -> (flow, p) :: acc) mf.members []
      |> List.sort compare

let path_endpoints t ~class_id ~path_id =
  match Hashtbl.find_opt t.macros (class_id, path_id) with
  | None -> None
  | Some mf -> (
      match mf.path.Path_mib.links with
      | [] -> None
      | first :: _ as links ->
          let last = List.nth links (List.length links - 1) in
          Some (first.Topology.src, last.Topology.dst))
