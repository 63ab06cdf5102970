(* Structured event/trace layer: a fixed-capacity ring buffer of entries,
   each stamped with sim time and wall time.  Three entry payloads:

   - Event:    a point-in-time occurrence (link down, promotion, ...);
   - Span:     a named stage with its measured wall-clock duration;
   - Decision: one admission decision, the audit trail of every
               admit/reject and its reject reason.

   Entries optionally carry a causal context — (trace id, span id,
   parent span id) — so the spans of one request or one federation
   transaction assemble into a tree.  Spans are either scoped (the
   [span]/[with_span] combinators, for work that completes inside one
   call frame) or explicit handles ([start_span]/[finish_span], for work
   that crosses sim-time boundaries: an overload queue wait, a 2PC leg
   whose reply arrives in a later engine callback).  A finished span is
   recorded as ONE entry stamped with its start times, carrying both its
   wall duration and its sim-time duration.

   Like Metrics, a tracer is explicit state reached through a process-wide
   slot; with none installed every recording helper is a mutable read plus
   a branch. *)

type decision = {
  service : string;  (* "perflow" | "class" | "fixed" | caller-defined *)
  flow : int option;  (* assigned flow id on admit *)
  admitted : bool;
  reject_reason : string option;  (* None iff admitted *)
  ingress : string;
  egress : string;
  rate : float;  (* reserved rate on admit, 0 otherwise *)
}

type payload = Event | Span of { dur : float } | Decision of decision

type ctx = { trace_id : int; span_id : int; parent : int option }

type entry = {
  seq : int;  (* 0-based, monotonically increasing, never wraps *)
  name : string;
  sim_time : float;
  wall_time : float;
  payload : payload;
  attrs : (string * string) list;
  ctx : ctx option;
  sim_dur : float;  (* sim-time extent of a finished span; 0 elsewhere *)
}

(* The ring is stored as flat parallel arrays rather than an array of
   [entry] records: recording is the per-request hot path and a record
   ring retains every entry, so each one is promoted out of the minor
   heap and the whole ring is re-marked by every major GC cycle.  With
   unboxed float/int columns an entry write allocates nothing (the
   name is a shared pointer; attrs are usually [[]]); [entry] records
   are materialized only on extraction.  [e_trace = -1] encodes "no
   ctx", [e_parent = -1] a root span; [e_tag] is 0 event / 1 span /
   2 decision. *)
type t = {
  cap : int;
  e_seq : int array;  (* original seq — append keeps the source's *)
  e_name : string array;
  e_sim : float array;
  e_wall : float array;
  e_sim_dur : float array;
  e_dur : float array;  (* span wall duration; meaningful iff tag = 1 *)
  e_tag : int array;
  e_trace : int array;
  e_span : int array;
  e_parent : int array;
  e_attrs : (string * string) list array;
  e_decision : decision option array;  (* Some iff tag = 2 *)
  mutable total : int;
  mutable sim_clock : unit -> float;
  mutable wall_clock : unit -> float;
  mutable next_trace : int;
  mutable next_span : int;
  mutable ambient : span list;  (* innermost first *)
  mutable tee : (entry -> unit) option;  (* flight recorder tap *)
}

and span = {
  sp_tracer : t option;  (* None: the null handle, every op a no-op *)
  sp_trace : int;
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_start_sim : float;
  sp_start_wall : float;
  sp_attrs : (string * string) list;
  mutable sp_finished : bool;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    cap = capacity;
    e_seq = Array.make capacity 0;
    e_name = Array.make capacity "";
    e_sim = Array.make capacity 0.;
    e_wall = Array.make capacity 0.;
    e_sim_dur = Array.make capacity 0.;
    e_dur = Array.make capacity 0.;
    e_tag = Array.make capacity 0;
    e_trace = Array.make capacity (-1);
    e_span = Array.make capacity 0;
    e_parent = Array.make capacity (-1);
    e_attrs = Array.make capacity [];
    e_decision = Array.make capacity None;
    total = 0;
    sim_clock = (fun () -> 0.);
    wall_clock = Clock.wall;
    next_trace = 0;
    next_span = 0;
    ambient = [];
    tee = None;
  }

(* Domain-local, like the metrics slot: a tracer installed on the main
   domain is invisible to broker shard domains, so recording helpers never
   touch a ring another domain is writing. *)
let slot_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let slot () = Domain.DLS.get slot_key

let install t = slot () := Some t

let uninstall () = slot () := None

let current () = !(slot ())

let enabled () = !(slot ()) <> None

let set_sim_clock t f = t.sim_clock <- f

let set_wall_clock t f = t.wall_clock <- f

let set_tee t f = t.tee <- f

let capacity t = t.cap

let total t = t.total

let length t = min t.total t.cap

let evicted t = t.total - length t

let clear t =
  (* Only the pointer columns need clearing (so dead names/attrs are not
     retained); the numeric columns are overwritten before being read. *)
  Array.fill t.e_name 0 t.cap "";
  Array.fill t.e_attrs 0 t.cap [];
  Array.fill t.e_decision 0 t.cap None;
  t.total <- 0

(* Materialize the entry at ring slot [j] back into a record.  [j] is
   always [_ mod cap], so the unsafe accesses are in bounds. *)
let get t j =
  let payload =
    match Array.unsafe_get t.e_tag j with
    | 0 -> Event
    | 1 -> Span { dur = Array.unsafe_get t.e_dur j }
    | _ -> (
        match Array.unsafe_get t.e_decision j with
        | Some d -> Decision d
        | None -> Event)
  in
  let ctx =
    let tr = Array.unsafe_get t.e_trace j in
    if tr < 0 then None
    else
      Some
        {
          trace_id = tr;
          span_id = Array.unsafe_get t.e_span j;
          parent =
            (let p = Array.unsafe_get t.e_parent j in
             if p < 0 then None else Some p);
        }
  in
  {
    seq = Array.unsafe_get t.e_seq j;
    name = Array.unsafe_get t.e_name j;
    sim_time = Array.unsafe_get t.e_sim j;
    wall_time = Array.unsafe_get t.e_wall j;
    payload;
    attrs = Array.unsafe_get t.e_attrs j;
    ctx;
    sim_dur = Array.unsafe_get t.e_sim_dur j;
  }

(* The raw write: every column as a scalar, so the hot span path can
   record without building payload/ctx intermediates.  [tr = -1] means
   no ctx; [par = -1] a root span. *)
let put_raw t ~seq ~name ~sim_time ~wall_time ~attrs ~sim_dur ~tag ~dur ~tr
    ~spid ~par dec =
  let j = t.total mod t.cap in
  Array.unsafe_set t.e_seq j seq;
  Array.unsafe_set t.e_name j name;
  Array.unsafe_set t.e_sim j sim_time;
  Array.unsafe_set t.e_wall j wall_time;
  Array.unsafe_set t.e_sim_dur j sim_dur;
  Array.unsafe_set t.e_attrs j attrs;
  Array.unsafe_set t.e_tag j tag;
  Array.unsafe_set t.e_dur j dur;
  Array.unsafe_set t.e_trace j tr;
  Array.unsafe_set t.e_span j spid;
  Array.unsafe_set t.e_parent j par;
  if Array.unsafe_get t.e_decision j != dec then
    Array.unsafe_set t.e_decision j dec;
  t.total <- t.total + 1;
  match t.tee with None -> () | Some f -> f (get t j)

let put t ~seq ~name ~sim_time ~wall_time ~attrs ~ctx ~sim_dur payload =
  let tag, dur, dec =
    match payload with
    | Event -> (0, 0., None)
    | Span { dur } -> (1, dur, None)
    | Decision d -> (2, 0., Some d)
  in
  let tr, spid, par =
    match ctx with
    | None -> (-1, 0, -1)
    | Some c ->
        (c.trace_id, c.span_id, match c.parent with Some p -> p | None -> -1)
  in
  put_raw t ~seq ~name ~sim_time ~wall_time ~attrs ~sim_dur ~tag ~dur ~tr
    ~spid ~par dec

let record t ?sim_time ?wall_time ?(attrs = []) ?ctx ?(sim_dur = 0.) ~name
    payload =
  let sim_time = match sim_time with Some s -> s | None -> t.sim_clock () in
  let wall_time =
    match wall_time with Some w -> w | None -> t.wall_clock ()
  in
  put t ~seq:t.total ~name ~sim_time ~wall_time ~attrs ~ctx ~sim_dur payload

let append t (e : entry) =
  (* Used by the flight recorder's tee: keep the source entry (and its
     seq) intact, only re-home it in this ring. *)
  let tee = t.tee in
  t.tee <- None;
  put t ~seq:e.seq ~name:e.name ~sim_time:e.sim_time ~wall_time:e.wall_time
    ~attrs:e.attrs ~ctx:e.ctx ~sim_dur:e.sim_dur e.payload;
  t.tee <- tee

let entries t =
  let n = length t in
  let first = t.total - n in
  List.init n (fun i -> get t ((first + i) mod t.cap))

(* --- span contexts ---------------------------------------------------- *)

let null_span =
  {
    sp_tracer = None;
    sp_trace = 0;
    sp_id = 0;
    sp_parent = None;
    sp_name = "";
    sp_start_sim = 0.;
    sp_start_wall = 0.;
    sp_attrs = [];
    sp_finished = true;
  }

let is_null sp = sp.sp_tracer = None

let ambient () = match !(slot ()) with Some t -> t.ambient | None -> []

let start_span ?sim_time ?wall_time ?(attrs = []) ?parent name =
  match !(slot ()) with
  | None -> null_span
  | Some t ->
      let parent =
        match parent with
        | Some p when not (is_null p) -> Some p
        | Some _ -> None
        | None -> ( match t.ambient with sp :: _ -> Some sp | [] -> None)
      in
      let trace_id, parent_id =
        match parent with
        | Some p -> (p.sp_trace, Some p.sp_id)
        | None ->
            let id = t.next_trace in
            t.next_trace <- id + 1;
            (id, None)
      in
      let id = t.next_span in
      t.next_span <- id + 1;
      {
        sp_tracer = Some t;
        sp_trace = trace_id;
        sp_id = id;
        sp_parent = parent_id;
        sp_name = name;
        sp_start_sim =
          (match sim_time with Some s -> s | None -> t.sim_clock ());
        sp_start_wall =
          (match wall_time with Some w -> w | None -> t.wall_clock ());
        sp_attrs = attrs;
        sp_finished = false;
      }

let finish_span ?sim_time ?wall_time ?(attrs = []) sp =
  match sp.sp_tracer with
  | None -> ()
  | Some t ->
      if not sp.sp_finished then begin
        sp.sp_finished <- true;
        let end_sim =
          match sim_time with Some s -> s | None -> t.sim_clock ()
        in
        let end_wall =
          match wall_time with Some w -> w | None -> t.wall_clock ()
        in
        let attrs =
          match (sp.sp_attrs, attrs) with
          | [], a -> a
          | a, [] -> a
          | a, b -> a @ b
        in
        put_raw t ~seq:t.total ~name:sp.sp_name ~sim_time:sp.sp_start_sim
          ~wall_time:sp.sp_start_wall ~attrs
          ~sim_dur:(Float.max 0. (end_sim -. sp.sp_start_sim))
          ~tag:1
          ~dur:(Float.max 0. (end_wall -. sp.sp_start_wall))
          ~tr:sp.sp_trace ~spid:sp.sp_id
          ~par:(match sp.sp_parent with Some p -> p | None -> -1)
          None
      end

let push_ambient sp =
  match sp.sp_tracer with
  | None -> ()
  | Some t -> t.ambient <- sp :: t.ambient

let pop_ambient sp =
  match sp.sp_tracer with
  | None -> ()
  | Some t ->
      (* Robust to an unbalanced stack (a clear in between): drop
         everything up to and including [sp]. *)
      let rec go = function
        | x :: rest when x == sp -> rest
        | _ :: rest -> go rest
        | [] -> []
      in
      t.ambient <- go t.ambient

let with_ambient sp f =
  match sp.sp_tracer with
  | None -> f ()
  | Some _ -> (
      push_ambient sp;
      match f () with
      | r ->
          pop_ambient sp;
          r
      | exception e ->
          pop_ambient sp;
          raise e)

let with_span ?sim_time ?attrs ?parent name f =
  match !(slot ()) with
  | None -> f null_span
  | Some _ -> (
      let sp = start_span ?sim_time ?attrs ?parent name in
      push_ambient sp;
      match f sp with
      | r ->
          pop_ambient sp;
          finish_span sp;
          r
      | exception e ->
          pop_ambient sp;
          finish_span sp;
          raise e)

(* --- recording helpers on the installed tracer ----------------------- *)

let ctx_for t parent =
  match parent with
  | Some p when not (is_null p) ->
      Some { trace_id = p.sp_trace; span_id = p.sp_id; parent = p.sp_parent }
  | Some _ -> None
  | None -> (
      match t.ambient with
      | sp :: _ ->
          Some { trace_id = sp.sp_trace; span_id = sp.sp_id; parent = sp.sp_parent }
      | [] -> None)

let event ?sim_time ?attrs ?parent name =
  match !(slot ()) with
  | None -> ()
  | Some t -> record t ?sim_time ?attrs ?ctx:(ctx_for t parent) ~name Event

let span_record ?sim_time ?attrs ?parent name ~dur =
  match !(slot ()) with
  | None -> ()
  | Some t ->
      record t ?sim_time ?attrs ?ctx:(ctx_for t parent) ~name (Span { dur })

let decision ?sim_time ?attrs ?parent (d : decision) =
  match !(slot ()) with
  | None -> ()
  | Some t ->
      record t ?sim_time ?attrs
        ?ctx:(ctx_for t parent)
        ~name:"bb.decision" (Decision d)

let now_wall () =
  match !(slot ()) with Some t -> t.wall_clock () | None -> Clock.wall ()

let span ?sim_time ?attrs name f =
  match !(slot ()) with
  | None -> f ()
  | Some _ -> with_span ?sim_time ?attrs name (fun _ -> f ())

(* --- extraction ------------------------------------------------------ *)

let durations t ~name =
  entries t
  |> List.filter_map (fun e ->
         match e.payload with
         | Span { dur } when e.name = name -> Some dur
         | _ -> None)
  |> Array.of_list

let span_names t =
  entries t
  |> List.filter_map (fun e -> match e.payload with Span _ -> Some e.name | _ -> None)
  |> List.sort_uniq compare

let span_stats t =
  List.map
    (fun name ->
      let acc = Bbr_util.Stats.create () in
      Array.iter (Bbr_util.Stats.add acc) (durations t ~name);
      (name, acc))
    (span_names t)

let decisions t =
  entries t
  |> List.filter_map (fun e ->
         match e.payload with Decision d -> Some (e, d) | _ -> None)

let pp_payload ppf = function
  | Event -> Fmt.string ppf "event"
  | Span { dur } -> Fmt.pf ppf "span dur=%.3e s" dur
  | Decision d ->
      Fmt.pf ppf "decision %s %s%a %s->%s"
        d.service
        (if d.admitted then "admit" else "reject")
        Fmt.(option (fun ppf r -> Fmt.pf ppf " (%s)" r))
        d.reject_reason d.ingress d.egress;
      if d.admitted then
        Fmt.pf ppf " flow=%a rate=%.1f" Fmt.(option int) d.flow d.rate

let pp_entry ppf e =
  Fmt.pf ppf "#%d t=%.6f %s: %a" e.seq e.sim_time e.name pp_payload e.payload;
  (match e.ctx with
  | Some c ->
      Fmt.pf ppf " trace=%d span=%d" c.trace_id c.span_id;
      Option.iter (Fmt.pf ppf " parent=%d") c.parent
  | None -> ());
  if e.sim_dur > 0. then Fmt.pf ppf " sim_dur=%.6f" e.sim_dur;
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%s" k v) e.attrs

let dump t = Fmt.str "%a" Fmt.(list ~sep:(any "@\n") pp_entry) (entries t)
