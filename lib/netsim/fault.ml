module Prng = Bbr_util.Prng
module Metrics = Bbr_obs.Metrics
module Trace = Bbr_obs.Trace

type action =
  | Link_down of int
  | Link_up of int
  | Crash of string
  | Recover of string

type event = { at : float; id : int; action : action }

(* Injection ids are handed out process-wide in creation order: two events
   built at the same sim time always compare the same way, no matter how
   the lists holding them were later concatenated or reordered. *)
let next_id = ref 0

let event ~at action =
  let id = !next_id in
  incr next_id;
  { at; id; action }

let compare_events a b =
  match compare a.at b.at with 0 -> compare a.id b.id | c -> c

let pp_action ppf = function
  | Link_down id -> Fmt.pf ppf "link %d down" id
  | Link_up id -> Fmt.pf ppf "link %d up" id
  | Crash who -> Fmt.pf ppf "crash %s" who
  | Recover who -> Fmt.pf ppf "recover %s" who


type hooks = {
  on_link_down : int -> unit;
  on_link_up : int -> unit;
  on_crash : string -> unit;
  on_recover : string -> unit;
}

let hooks ?(on_link_down = fun _ -> ()) ?(on_link_up = fun _ -> ())
    ?(on_crash = fun _ -> ()) ?(on_recover = fun _ -> ()) () =
  { on_link_down; on_link_up; on_crash; on_recover }

let action_kind = function
  | Link_down _ -> "link_down"
  | Link_up _ -> "link_up"
  | Crash _ -> "crash"
  | Recover _ -> "recover"

let dispatch engine hooks action =
  let kind = action_kind action in
  Metrics.count "sim_fault_events_total" ~labels:[ ("kind", kind) ];
  if Trace.enabled () then
    Trace.event ~sim_time:(Engine.now engine) "sim.fault"
      ~attrs:[ ("kind", kind); ("what", Fmt.str "%a" pp_action action) ];
  match action with
  | Link_down id -> hooks.on_link_down id
  | Link_up id -> hooks.on_link_up id
  | Crash who -> hooks.on_crash who
  | Recover who -> hooks.on_recover who

let install engine hooks events =
  (* Coincident events dispatch in injection-id order regardless of how the
     caller assembled the list (the engine fires same-instant events in
     scheduling order, so scheduling order is dispatch order). *)
  List.iter
    (fun e ->
      Engine.schedule engine ~at:e.at (fun () -> dispatch engine hooks e.action))
    (List.stable_sort compare_events events)

let inject engine hooks action =
  let e = event ~at:(Engine.now engine) action in
  Engine.schedule engine ~at:e.at (fun () -> dispatch engine hooks e.action)

let drop prng ~p =
  if p < 0. || p >= 1. then invalid_arg "Fault.drop: p must be in [0, 1)";
  if p = 0. then fun () -> false else fun () -> Prng.float prng < p

let link_plan prng ~link_ids ~horizon ?(mtbf = horizon /. 2.) ?(mttr = horizon /. 20.) () =
  if horizon <= 0. then invalid_arg "Fault.link_plan: horizon must be positive";
  if mtbf <= 0. || mttr <= 0. then
    invalid_arg "Fault.link_plan: mtbf and mttr must be positive";
  (* Independent alternating renewal process per link: exponential time to
     failure, exponential time to repair.  Each link draws from its own
     split stream so adding a link never perturbs the others' schedules. *)
  let events =
    List.concat_map
      (fun link_id ->
        let stream = Prng.split prng in
        let rec walk t up acc =
          let dwell =
            Prng.exponential stream ~mean:(if up then mtbf else mttr)
          in
          let t = t +. dwell in
          if t >= horizon then List.rev acc
          else
            let action = if up then Link_down link_id else Link_up link_id in
            walk t (not up) (event ~at:t action :: acc)
        in
        walk 0. true [])
      link_ids
  in
  List.stable_sort compare_events events
