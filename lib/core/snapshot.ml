module Traffic = Bbr_vtrs.Traffic
module Topology = Bbr_vtrs.Topology

let header = "bbr-snapshot v1"

(* Floats are printed in full hex precision so a round trip is
   bit-exact. *)
let pf = Printf.sprintf "%h"

(* A path named by its link ids, the identity that is stable across
   brokers. *)
let links_str links =
  String.concat ","
    (List.map (fun (l : Topology.link) -> string_of_int l.Topology.link_id) links)

let save broker =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  (* The primary's id horizon: a restored standby must never hand out an id
     the primary may already have given to an ingress router. *)
  Buffer.add_string buf
    (Printf.sprintf "next %d\n" (Flow_mib.next_id (Broker.flow_mib broker)));
  (* Per-flow reservations, in admission (flow-id) order so that a replay
     reproduces identical bookkeeping. *)
  let records =
    Flow_mib.fold (Broker.flow_mib broker) ~init:[] ~f:(fun acc r -> r :: acc)
    |> List.sort (fun (a : Flow_mib.record) b -> compare a.Flow_mib.flow b.Flow_mib.flow)
  in
  List.iter
    (fun (r : Flow_mib.record) ->
      let p = r.Flow_mib.request.Types.profile in
      let res = r.Flow_mib.reservation in
      Buffer.add_string buf
        (Printf.sprintf "flow %d %s %s %s %s %s %s %s %s %s %s\n" r.Flow_mib.flow
           (pf p.Traffic.sigma) (pf p.Traffic.rho) (pf p.Traffic.peak)
           (pf p.Traffic.lmax)
           (pf r.Flow_mib.request.Types.dreq)
           r.Flow_mib.request.Types.ingress r.Flow_mib.request.Types.egress
           (pf res.Types.rate) (pf res.Types.delay)
           (links_str r.Flow_mib.path.Path_mib.links)))
    records;
  (* Class-based memberships, macroflow by macroflow, member order by flow
     id. *)
  let agg = Broker.aggregate broker in
  List.iter
    (fun (s : Aggregate.macro_stats) ->
      match Aggregate.path_endpoints agg ~class_id:s.Aggregate.class_id
              ~path_id:s.Aggregate.path_id
      with
      | None -> ()
      | Some (ingress, egress) ->
          List.iter
            (fun (flow, (p : Traffic.t)) ->
              Buffer.add_string buf
                (Printf.sprintf "member %d %d %s %s %s %s %s %s\n" flow
                   s.Aggregate.class_id (pf p.Traffic.sigma) (pf p.Traffic.rho)
                   (pf p.Traffic.peak) (pf p.Traffic.lmax) ingress egress))
            (Aggregate.members agg ~class_id:s.Aggregate.class_id
               ~path_id:s.Aggregate.path_id))
    (Aggregate.all_macroflows agg);
  (* Auxiliary aggregate state.  Replaying the member joins above creates
     fresh contingency grants and recomputes edge-delay bounds from
     scratch, while the primary's actual pools may be smaller (grants
     already released) and its bounds decayed.  The [aux] marker tells
     the restore to sweep the join-created contingency and re-establish
     the exact saved grants and bounds; snapshots without it (older
     writers) keep the replay-synthesised — conservative — contingency.
     Paths are named by link-id sequences, the identity that is stable
     across brokers. *)
  Buffer.add_string buf "aux\n";
  let pm = Broker.path_mib broker in
  List.iter
    (fun (s : Aggregate.macro_stats) ->
      match Path_mib.find pm ~path_id:s.Aggregate.path_id with
      | None -> ()
      | Some info ->
          let links = links_str info.Path_mib.links in
          List.iter
            (fun amount ->
              Buffer.add_string buf
                (Printf.sprintf "grant %d %s %s\n" s.Aggregate.class_id links
                   (pf amount)))
            (Aggregate.grant_amounts agg ~class_id:s.Aggregate.class_id
               ~path_id:s.Aggregate.path_id);
          Buffer.add_string buf
            (Printf.sprintf "bound %d %s %s\n" s.Aggregate.class_id links
               (pf s.Aggregate.edge_bound)))
    (Aggregate.all_macroflows agg);
  Buffer.contents buf

type entry =
  [ `Next of int
  | `Flow of int * Traffic.t * float * string * string * float * float * int list
  | `Member of int * int * Traffic.t * string * string
  | `Aux
  | `Grant of int * int list * float
  | `Bound of int * int list * float ]

let links_of_str s = List.map int_of_string (String.split_on_char ',' s)

let parse_line line : ([ entry | `Blank ], string) result =
  let unparseable () = Error (Printf.sprintf "unparseable snapshot line: %S" line) in
  match String.split_on_char ' ' (String.trim line) with
  | exception _ -> unparseable ()
  | fields -> (
      (* Malformed numeric fields must yield a parse error, not an
         exception escaping [restore]. *)
      match
        match fields with
        | [ "next"; n ] -> `Next (int_of_string n)
        | [ "flow"; id; sigma; rho; peak; lmax; dreq; ingress; egress; rate; delay; links ]
          ->
            `Flow
              ( int_of_string id,
                Traffic.make ~sigma:(float_of_string sigma)
                  ~rho:(float_of_string rho) ~peak:(float_of_string peak)
                  ~lmax:(float_of_string lmax),
                float_of_string dreq,
                ingress,
                egress,
                float_of_string rate,
                float_of_string delay,
                links_of_str links )
        | [ "member"; id; class_id; sigma; rho; peak; lmax; ingress; egress ] ->
            `Member
              ( int_of_string id,
                int_of_string class_id,
                Traffic.make ~sigma:(float_of_string sigma)
                  ~rho:(float_of_string rho) ~peak:(float_of_string peak)
                  ~lmax:(float_of_string lmax),
                ingress,
                egress )
        | [ "aux" ] -> `Aux
        | [ "grant"; class_id; links; amount ] ->
            `Grant
              (int_of_string class_id, links_of_str links, float_of_string amount)
        | [ "bound"; class_id; links; bound ] ->
            `Bound
              (int_of_string class_id, links_of_str links, float_of_string bound)
        | [] | [ "" ] -> `Blank
        | _ -> `Malformed
      with
      | exception _ -> unparseable ()
      | `Malformed -> unparseable ()
      | #entry as e -> Ok e
      | `Blank -> Ok `Blank)

let parse text : (entry list, string) result =
  match String.split_on_char '\n' text with
  | first :: rest when String.trim first = header ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | line :: lines -> (
            match parse_line line with
            | Error e -> Error e
            | Ok `Blank -> go acc lines
            | Ok (#entry as e) -> go (e :: acc) lines)
      in
      go [] rest
  | first :: _ -> Error (Printf.sprintf "bad snapshot header: %S" (String.trim first))
  | [] -> Error "empty snapshot"

let replay broker entries =
  let restored = ref 0 in
  let rec go = function
    | [] -> Ok !restored
    | `Next below :: rest ->
        Flow_mib.reserve_ids (Broker.flow_mib broker) ~below;
        go rest
    | `Flow (flow, profile, dreq, ingress, egress, rate, delay, links) :: rest -> (
        (* Booked verbatim on the saved links, never re-routed: the
           topology may have changed since the flow was admitted. *)
        match
          Broker.book_path broker ~flow
            ~request:{ Types.profile; dreq; ingress; egress }
            ~links ~rate ~delay
        with
        | () ->
            incr restored;
            go rest
        | exception exn ->
            Error
              (Printf.sprintf "re-booking a per-flow reservation failed: %s"
                 (Printexc.to_string exn)))
    | `Member (flow, class_id, profile, ingress, egress) :: rest -> (
        match
          Broker.request_class broker ~class_id ~flow
            { Types.profile; dreq = infinity; ingress; egress }
        with
        | Ok _ ->
            incr restored;
            go rest
        | Error reason ->
            Error
              (Fmt.str "re-joining a class member failed: %a" Types.pp_reject_reason
                 reason))
    | `Aux :: rest ->
        (* Every member is joined by now; drop the contingency the joins
           synthesised so the grant/bound lines below re-establish the
           primary's exact pools. *)
        let agg = Broker.aggregate broker in
        List.iter
          (fun (s : Aggregate.macro_stats) ->
            Aggregate.sweep_contingency agg ~class_id:s.Aggregate.class_id
              ~path_id:s.Aggregate.path_id)
          (Aggregate.all_macroflows agg);
        go rest
    | `Grant (class_id, links, amount) :: rest -> (
        match Path_mib.find_links (Broker.path_mib broker) ~links with
        | None ->
            Error
              (Printf.sprintf
                 "contingency grant for class %d names an unknown path" class_id)
        | Some info -> (
            match
              Aggregate.restore_grant (Broker.aggregate broker) ~class_id
                ~path_id:info.Path_mib.path_id ~amount
            with
            | Ok () -> go rest
            | Error reason ->
                Error
                  (Fmt.str "re-establishing a contingency grant failed: %a"
                     Types.pp_reject_reason reason)))
    | `Bound (class_id, links, bound) :: rest ->
        (match Path_mib.find_links (Broker.path_mib broker) ~links with
        | Some info ->
            Aggregate.set_edge_bound (Broker.aggregate broker) ~class_id
              ~path_id:info.Path_mib.path_id bound
        | None -> ());
        go rest
  in
  go entries

let restore broker text =
  match parse text with
  | Error e -> Error e
  | Ok entries -> (
      (* Validate the whole replay against a scratch broker over the same
         topology and classes before touching the target.  The scratch
         holds every contingency grant for the duration of the replay
         (Feedback method, no queue-empty signals), which is the strictest
         admission the target can face — so a scratch success guarantees
         the commit below goes through on a fresh target. *)
      let scratch =
        Broker.create
          ~classes:(Aggregate.classes (Broker.aggregate broker))
          ~method_:Aggregate.Feedback ~time:Broker.immediate_time
          (Broker.topology broker)
      in
      match replay scratch entries with
      | Error e -> Error e
      | Ok _ -> replay broker entries)

let flows_in text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         String.starts_with ~prefix:"flow " l
         || String.starts_with ~prefix:"member " l)
  |> List.length
