module Vtedf = Bbr_vtrs.Vtedf
module Topology = Bbr_vtrs.Topology

(* Per-link breakpoint cache, shared by every path crossing the link.  It
   is the single consumer of the link scheduler's incremental
   {!Vtedf.refresh_breakpoints} API: a flow add/remove recomputes only the
   suffix of the table starting at the touched delay class. *)
type link_cache = {
  edf : Vtedf.t;
  mutable synced : int;  (* Vtedf version at last refresh; -1 = cold *)
  mutable n : int;  (* valid breakpoints in the buffers *)
  mutable d : float array;
  mutable s : float array;
  mutable dem : float array;  (* demand prefix sums (refresh state) *)
  mutable rcum : float array;  (* cumulative-rate prefix sums (refresh state) *)
}

type entry = {
  info : Path_mib.info;
  lcaches : link_cache array;  (* delay-based links only, path order *)
  idx : int array;  (* merge cursors, one per lcache (scratch) *)
  vstamps : int array;  (* Vtedf versions at last merge *)
  mutable ps : Admission.path_state;  (* static fields; [cres] as last read *)
  mutable mg : Admission.merged;
}

type stats = { paths : int; hits : int; link_refreshes : int; merges : int }

type t = {
  node_mib : Node_mib.t;
  path_mib : Path_mib.t;
  entries : (int, entry) Hashtbl.t;  (* path_id -> entry *)
  links : (int, link_cache) Hashtbl.t;  (* link_id -> shared cache *)
  mutable hits : int;
  mutable link_refreshes : int;
  mutable merges : int;
}

let create node_mib path_mib =
  {
    node_mib;
    path_mib;
    entries = Hashtbl.create 64;
    links = Hashtbl.create 64;
    hits = 0;
    link_refreshes = 0;
    merges = 0;
  }

let link_cache_of t link_id edf =
  match Hashtbl.find_opt t.links link_id with
  | Some lc -> lc
  | None ->
      let lc =
        {
          edf;
          synced = -1;
          n = 0;
          d = Array.make 8 0.;
          s = Array.make 8 0.;
          dem = Array.make 8 0.;
          rcum = Array.make 8 0.;
        }
      in
      Hashtbl.replace t.links link_id lc;
      lc

let entry_of t (info : Path_mib.info) =
  match Hashtbl.find_opt t.entries info.Path_mib.path_id with
  | Some e -> e
  | None ->
      let lcaches =
        Array.of_list
          (List.filter_map
             (fun (l : Topology.link) ->
               let link_id = l.Topology.link_id in
               Option.map
                 (link_cache_of t link_id)
                 (Node_mib.entry t.node_mib ~link_id).Node_mib.edf)
             info.Path_mib.links)
      in
      let e =
        {
          info;
          lcaches;
          idx = Array.make (max 1 (Array.length lcaches)) 0;
          (* stale stamps: the first query merges *)
          vstamps = Array.map (fun _ -> -1) lcaches;
          ps = Admission.path_state t.node_mib t.path_mib info;
          mg = { Admission.m = 0; md = [||]; ms = [||] };
        }
      in
      Hashtbl.replace t.entries info.Path_mib.path_id e;
      e

let grow_f a n =
  let len = Array.length a in
  if len >= n then a
  else begin
    let b = Array.make (max n (2 * len)) 0. in
    (* preserve the prefix: the incremental refresh resumes from it *)
    Array.blit a 0 b 0 len;
    b
  end

let refresh_link t lc =
  let v = Vtedf.version lc.edf in
  if v <> lc.synced then begin
    t.link_refreshes <- t.link_refreshes + 1;
    let n = Vtedf.class_count lc.edf in
    lc.d <- grow_f lc.d n;
    lc.s <- grow_f lc.s n;
    lc.dem <- grow_f lc.dem n;
    lc.rcum <- grow_f lc.rcum n;
    let n, _from =
      Vtedf.refresh_breakpoints lc.edf ~since:lc.synced ~d:lc.d ~s:lc.s
        ~dem:lc.dem ~rcum:lc.rcum
    in
    lc.n <- n;
    lc.synced <- v
  end

(* H-way merge of the per-link tables into the path's merged table.  Equal
   delays combine with [Float.min] in path-link order — element-wise
   identical to the [Float Map] merge of {!Admission.merge_breakpoints}. *)
let remerge t e =
  t.merges <- t.merges + 1;
  let h = Array.length e.lcaches in
  let total = ref 0 in
  for i = 0 to h - 1 do
    total := !total + e.lcaches.(i).n;
    e.idx.(i) <- 0
  done;
  let md = grow_f e.mg.Admission.md !total in
  let ms = grow_f e.mg.Admission.ms !total in
  let m = ref 0 in
  let exhausted = ref false in
  while not !exhausted do
    (* smallest pending delay across the links *)
    let best = ref nan in
    for i = 0 to h - 1 do
      let lc = e.lcaches.(i) in
      if e.idx.(i) < lc.n then
        let d = lc.d.(e.idx.(i)) in
        if Float.is_nan !best || d < !best then best := d
    done;
    if Float.is_nan !best then exhausted := true
    else begin
      let d = !best in
      let s = ref infinity in
      for i = 0 to h - 1 do
        let lc = e.lcaches.(i) in
        if e.idx.(i) < lc.n && lc.d.(e.idx.(i)) = d then begin
          s := Float.min !s lc.s.(e.idx.(i));
          e.idx.(i) <- e.idx.(i) + 1
        end
      done;
      md.(!m) <- d;
      ms.(!m) <- !s;
      incr m
    end
  done;
  e.mg <- { Admission.m = !m; md; ms };
  for i = 0 to h - 1 do
    e.vstamps.(i) <- e.lcaches.(i).synced
  done

let merged_fresh e =
  let ok = ref true in
  let h = Array.length e.lcaches in
  let i = ref 0 in
  while !ok && !i < h do
    if e.vstamps.(!i) <> Vtedf.version e.lcaches.(!i).edf then ok := false;
    incr i
  done;
  !ok

(* The merged table keys on the schedulers' own version counters, checked
   at query time, so a burst of mutations costs one re-merge per path at
   its next query.  [C_res] is an O(h) min read on every query. *)
let query t info =
  let e = entry_of t info in
  if merged_fresh e then t.hits <- t.hits + 1
  else begin
    Array.iter (refresh_link t) e.lcaches;
    remerge t e
  end;
  let cres = Path_mib.residual t.path_mib e.info in
  if cres <> e.ps.Admission.cres then e.ps <- { e.ps with Admission.cres };
  (e.ps, e.mg)

let stats t =
  {
    paths = Hashtbl.length t.entries;
    hits = t.hits;
    link_refreshes = t.link_refreshes;
    merges = t.merges;
  }
