module Traffic = Bbr_vtrs.Traffic
module Topology = Bbr_vtrs.Topology
module Linebuf = Bbr_util.Linebuf

let header = "bbr-snapshot v2"

(* Floats are printed in full hex precision ([%h], {!Bbr_util.Linebuf})
   so a round trip is bit-exact. *)
let float b x =
  Linebuf.add_char b ' ';
  Linebuf.add_hfloat b x

(* A comma-separated list as one field. *)
let csv b add xs =
  Linebuf.add_char b ' ';
  List.iteri
    (fun i x ->
      if i > 0 then Linebuf.add_char b ',';
      add b x)
    xs

(* A traffic profile as one field: [sigma,rho,peak,lmax]. *)
let profile b (p : Traffic.t) =
  csv b Linebuf.add_hfloat
    [ p.Traffic.sigma; p.Traffic.rho; p.Traffic.peak; p.Traffic.lmax ]

let save broker =
  let b = Linebuf.create 4096 in
  let nl () = Linebuf.add_char b '\n' in
  Linebuf.add_string b header;
  nl ();
  (* The primary's id horizon: a restored standby must never hand out an id
     the primary may already have given to an ingress router. *)
  Linebuf.add_string b "next ";
  Linebuf.add_int b (Flow_mib.next_id (Broker.flow_mib broker));
  nl ();
  (* Per-flow reservations as the journal's [admit] payloads, in flow-id
     order. *)
  Flow_mib.fold (Broker.flow_mib broker) ~init:[] ~f:(fun acc r -> r :: acc)
  |> List.sort (fun (a : Flow_mib.record) b -> compare a.Flow_mib.flow b.Flow_mib.flow)
  |> List.iter (fun (r : Flow_mib.record) ->
         let res = r.Flow_mib.reservation in
         Journal.write_payload b
           (Broker.Admit
              {
                Broker.flow = r.Flow_mib.flow;
                request = r.Flow_mib.request;
                rate = res.Types.rate;
                delay = res.Types.delay;
                links = Topology.link_ids r.Flow_mib.path.Path_mib.links;
              });
         nl ());
  (* Class state as booked: one line per macroflow — class, path links,
     aggregate profile, base rate, contingency pool, edge-delay bound and
     its live grants, oldest first — then one line per member. *)
  let agg = Broker.aggregate broker and pm = Broker.path_mib broker in
  List.iter
    (fun (s : Aggregate.macro_stats) ->
      let class_id = s.Aggregate.class_id and path_id = s.Aggregate.path_id in
      match Path_mib.find pm ~path_id with
      | None -> ()
      | Some info ->
          Linebuf.add_string b "macro ";
          Linebuf.add_int b class_id;
          csv b Linebuf.add_int (Topology.link_ids info.Path_mib.links);
          (match s.Aggregate.profile with
          | Some p -> profile b p
          | None -> Linebuf.add_string b " -");
          float b s.Aggregate.base_rate;
          float b s.Aggregate.contingency;
          float b s.Aggregate.edge_bound;
          List.iter (float b) (Aggregate.grant_amounts agg ~class_id ~path_id);
          nl ();
          List.iter
            (fun (flow, p) ->
              Linebuf.add_string b "member ";
              Linebuf.add_int b flow;
              profile b p;
              nl ())
            (Aggregate.members agg ~class_id ~path_id))
    (Aggregate.all_macroflows agg);
  Linebuf.contents b

type macro = {
  class_id : int;
  links : int list;
  profile : Traffic.t option;
  base : float;
  conting : float;
  edge_bound : float;
  grants : float list;
  members : (Types.flow_id * Traffic.t) list;
}

type entry = Next of int | Admit of Broker.mutation | Macro of macro

(* The reader's side of {!profile}, after its space: [sigma,rho,peak,lmax]. *)
let read_profile r =
  let sigma = Linebuf.read_hfloat r in
  Linebuf.expect r ',';
  let rho = Linebuf.read_hfloat r in
  Linebuf.expect r ',';
  let peak = Linebuf.read_hfloat r in
  Linebuf.expect r ',';
  let lmax = Linebuf.read_hfloat r in
  Traffic.make ~sigma ~rho ~peak ~lmax

let get_float r =
  Linebuf.expect r ' ';
  Linebuf.read_hfloat r

let get_int r =
  Linebuf.expect r ' ';
  Linebuf.read_int r

(* A decoder that must read the whole of [s]. *)
let whole s f =
  Linebuf.read s ~pos:0 ~len:(String.length s) (fun r ->
      match f r with Some _ as v when Linebuf.at_end r -> v | _ -> None)

let get_macro r =
  let class_id = get_int r in
  Linebuf.expect r ' ';
  let links = Linebuf.read_ints r in
  Linebuf.expect r ' ';
  let profile =
    match Linebuf.read_word r with
    | "-" -> Some None
    | w -> Option.map Option.some (whole w (fun r -> Some (read_profile r)))
  in
  match profile with
  | None -> None
  | Some profile ->
      let base = get_float r in
      let conting = get_float r in
      let edge_bound = get_float r in
      let rec grants acc = if Linebuf.at_end r then List.rev acc else grants (get_float r :: acc) in
      Some
        { class_id; links; profile; base; conting; edge_bound; grants = grants [];
          members = [] }

(* Prepend one line's entry to [acc] (newest first); a member line joins
   the macroflow above it.  [None] (or an exception) on a malformed
   line.  Per-flow lines are the journal's [admit] payloads, read by its
   decoder. *)
let parse_line acc line =
  let line = String.trim line in
  if line = "" then Some acc
  else if String.starts_with ~prefix:"admit " line then
    match whole line Journal.decode_payload with
    | Some (Broker.Admit _ as m) -> Some (Admit m :: acc)
    | _ -> None
  else
    whole line (fun r ->
        match Linebuf.read_word r with
        | "next" -> Some (Next (get_int r) :: acc)
        | "macro" -> Option.map (fun m -> Macro m :: acc) (get_macro r)
        | "member" -> (
            let flow = get_int r in
            Linebuf.expect r ' ';
            let p = read_profile r in
            match acc with
            | Macro m :: rest -> Some (Macro { m with members = (flow, p) :: m.members } :: rest)
            | _ -> None)
        | _ -> None)

let parse text : (entry list, string) result =
  match String.split_on_char '\n' text with
  | first :: rest when String.trim first = header ->
      let rec go acc = function
        | [] ->
            Ok
              (List.rev_map
                 (function Macro m -> Macro { m with members = List.rev m.members } | e -> e)
                 acc)
        | line :: lines -> (
            match parse_line acc line with
            | Some acc -> go acc lines
            | None | (exception _) ->
                Error (Printf.sprintf "unparseable snapshot line: %S" line))
      in
      go [] rest
  | first :: _ -> Error (Printf.sprintf "bad snapshot header: %S" (String.trim first))
  | [] -> Error "empty snapshot"

(* Book every entry as saved; no admission test runs.  Returns the number
   of reservations (per-flow and class members) booked. *)
let replay broker entries =
  let book restored = function
    | Next below ->
        Flow_mib.reserve_ids (Broker.flow_mib broker) ~below;
        Ok restored
    | Admit m -> Result.map (fun () -> restored + 1) (Journal.apply broker m)
    | Macro m -> (
        match
          let path =
            Path_mib.register (Broker.path_mib broker)
              (List.map (Topology.link_by_id (Broker.topology broker)) m.links)
          in
          Aggregate.restore_macroflow (Broker.aggregate broker) ~class_id:m.class_id ~path
            ~members:m.members ~profile:m.profile ~base:m.base ~conting:m.conting
            ~edge_bound:m.edge_bound ~grants:m.grants
        with
        | () -> Ok (restored + List.length m.members)
        | exception exn ->
            Error
              (Printf.sprintf "booking a class %d macroflow failed: %s" m.class_id
                 (Printexc.to_string exn)))
  in
  List.fold_left (fun acc e -> Result.bind acc (fun n -> book n e)) (Ok 0) entries

let restore broker text =
  match parse text with
  | Error e -> Error e
  | Ok entries -> (
      (* Book the whole snapshot into a scratch broker over the same
         topology and classes before touching the target, so a failure
         leaves the target as it was.  The scratch uses Feedback so that
         no Bounding timer fires during the dry run. *)
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
         String.starts_with ~prefix:"admit " l || String.starts_with ~prefix:"member " l)
  |> List.length
