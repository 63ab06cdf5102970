module Vtedf = Bbr_vtrs.Vtedf
module Topology = Bbr_vtrs.Topology

(* Per-link breakpoint table, shared by every path crossing the link and
   refilled in full when the scheduler's version moved. *)
type link_cache = {
  edf : Vtedf.t;
  mutable synced : int;  (* Vtedf version at last fill; -1 = cold *)
  table : Admission.table;
}

type entry = {
  info : Path_mib.info;
  lcaches : link_cache array;  (* delay-based links only, path order *)
  tables : Admission.table array;  (* the lcaches' tables, same order *)
  vstamps : int array;  (* Vtedf versions at last merge *)
  mutable ps : Admission.path_state;  (* static fields; [cres] as last read *)
  mg : Admission.table;
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
  scratch : Admission.table;  (* every entry's merge scratch *)
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
    scratch = Admission.table ();
  }

let link_cache_of t link_id edf =
  match Hashtbl.find_opt t.links link_id with
  | Some lc -> lc
  | None ->
      let lc = { edf; synced = -1; table = Admission.table () } in
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
          tables = Array.map (fun lc -> lc.table) lcaches;
          (* stale stamps: the first query merges *)
          vstamps = Array.map (fun _ -> -1) lcaches;
          ps = Admission.path_state t.node_mib t.path_mib info;
          mg = Admission.table ();
        }
      in
      Hashtbl.replace t.entries info.Path_mib.path_id e;
      e

let refresh_link t lc =
  let v = Vtedf.version lc.edf in
  if v <> lc.synced then begin
    t.link_refreshes <- t.link_refreshes + 1;
    Admission.fill lc.table lc.edf;
    lc.synced <- v
  end

let remerge t e =
  t.merges <- t.merges + 1;
  Admission.merge e.tables ~scratch:t.scratch ~into:e.mg;
  for i = 0 to Array.length e.lcaches - 1 do
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
