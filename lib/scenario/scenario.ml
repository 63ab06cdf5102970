module Ov = Bbr_broker.Overload
module Fig8 = Bbr_workload.Fig8

type topology_spec =
  | Fig8 of { setting : Fig8.setting; detour : bool }
  | Power_law of { nodes : int; m : int }

type load_shape =
  | Constant of float
  | Diurnal of { base : float; amplitude : float; period : float }
  | Flash of {
      shape : load_shape;
      at : float;
      mult : float;
      rise : float;
      hold : float;
      fall : float;
    }

type crash_point = At of float | At_record of int

type fault =
  | Regional_links of { at : float; duration : float; count : int }
  | Links of { at : float; duration : float; ends : (string * string) list }
  | Partition of { at : float; duration : float; leaves : int }
  | Broker_crash of { at : crash_point; promote_after : float }
  | Disk_fault of { at : float; duration : float }

type slo = {
  recover_goodput : float;
  goodput_frac : float;
  clean_audit : float;
  brownout_exit : float;
}

let default_slo =
  { recover_goodput = 30.; goodput_frac = 0.8; clean_audit = 10.; brownout_exit = 60. }

type t = {
  name : string;
  descr : string;
  seed : int;
  topology : topology_spec;
  load : load_shape;
  mean_holding : float;
  duration : float;
  horizon : float;
  latency : float;
  loss : float;
  pipeline : Ov.config;
  checkpoint_every : float option;
  journal : int option;
  faults : fault list;
  slo : slo;
}

let default =
  {
    name = "baseline";
    descr = "steady diurnal load, no faults";
    seed = 1;
    topology = Power_law { nodes = 400; m = 2 };
    load = Diurnal { base = 1.0; amplitude = 0.5; period = 400. };
    mean_holding = 60.;
    duration = 600.;
    horizon = 900.;
    latency = 0.005;
    loss = 0.;
    pipeline =
      {
        Ov.default_config with
        Ov.queue_limit = 64;
        deadline = 8.;
        service_exact = 0.25;
        service_conservative = 0.05;
        brownout_sustain = 4.;
        retry_after = 5.;
        batch_limit = 4;
      };
    checkpoint_every = Some 12.;
    journal = Some 1;
    faults = [];
    slo = default_slo;
  }

(* ------------------------------------------------------------------ *)
(* Load shapes. *)

let two_pi = 2. *. Float.pi

let rec rate_at shape t =
  match shape with
  | Constant r -> r
  | Diurnal { base; amplitude; period } ->
      Float.max 0. (base *. (1. +. (amplitude *. sin (two_pi *. t /. period))))
  | Flash { shape; at; mult; rise; hold; fall } ->
      let base = rate_at shape t in
      let factor =
        if t < at || t > at +. rise +. hold +. fall then 1.
        else if t < at +. rise then 1. +. ((mult -. 1.) *. (t -. at) /. rise)
        else if t < at +. rise +. hold then mult
        else 1. +. ((mult -. 1.) *. (at +. rise +. hold +. fall -. t) /. fall)
      in
      base *. factor

let rec peak_rate shape =
  match shape with
  | Constant r -> r
  | Diurnal { base; amplitude; _ } -> base *. (1. +. Float.abs amplitude)
  | Flash { shape; mult; _ } -> peak_rate shape *. Float.max 1. mult

(* ------------------------------------------------------------------ *)
(* Declared disturbances: every fault, and every flash phase of the load
   shape, is an event with an injection instant and a heal instant.  The
   SLO oracle measures recovery from [healed_at]; the invariant monitor
   treats the window [injected_at, healed_at + grace] as expected
   degradation. *)

type event = { label : string; injected_at : float; healed_at : float }

let rec flash_events = function
  | Constant _ | Diurnal _ -> []
  | Flash { shape; at; rise; hold; fall; mult } ->
      { label = Printf.sprintf "flash-x%g" mult; injected_at = at;
        healed_at = at +. rise +. hold +. fall }
      :: flash_events shape

let crash_event ~at ~promote_after =
  { label = "broker-crash"; injected_at = at; healed_at = at +. promote_after }

let fault_event = function
  | Regional_links { at; duration; count } ->
      Some
        { label = Printf.sprintf "regional-links-%d" count; injected_at = at;
          healed_at = at +. duration }
  | Links { at; duration; ends } ->
      Some
        { label = Printf.sprintf "links-%d" (List.length ends); injected_at = at;
          healed_at = at +. duration }
  | Partition { at; duration; leaves } ->
      Some
        { label = Printf.sprintf "partition-%d" leaves; injected_at = at;
          healed_at = at +. duration }
  | Broker_crash { at = At at; promote_after } -> Some (crash_event ~at ~promote_after)
  | Broker_crash { at = At_record _; _ } -> None
  | Disk_fault { at; duration } ->
      Some { label = "disk-fault"; injected_at = at; healed_at = at +. duration }

let events t = flash_events t.load @ List.filter_map fault_event t.faults

let grace slo =
  Float.max slo.recover_goodput (Float.max slo.clean_audit slo.brownout_exit)

let window slo e = (e.injected_at, e.healed_at +. grace slo)

let windows t = List.map (window t.slo) (events t)

let in_windows ws at = List.exists (fun (lo, hi) -> at >= lo && at <= hi) ws

(* ------------------------------------------------------------------ *)
(* Smoke-scale knob: shrink a scenario by [k] (durations, topology size,
   event instants) without changing its structure.  [k = 1.] is
   identity.  The checkpoint period floors at 5 s so a smoke run does not
   checkpoint every second. *)

let scale k t =
  if k <= 0. then invalid_arg "Scenario.scale: factor must be positive";
  if k = 1. then t
  else begin
    let f x = x /. k in
    let rec scale_load = function
      | Constant r -> Constant r
      | Diurnal { base; amplitude; period } ->
          Diurnal { base; amplitude; period = f period }
      | Flash { shape; at; mult; rise; hold; fall } ->
          Flash
            { shape = scale_load shape; at = f at; mult; rise = f rise;
              hold = f hold; fall = f fall }
    in
    let scale_fault = function
      | Regional_links { at; duration; count } ->
          Regional_links { at = f at; duration = f duration; count }
      | Links { at; duration; ends } -> Links { at = f at; duration = f duration; ends }
      | Partition { at; duration; leaves } ->
          Partition { at = f at; duration = f duration; leaves }
      | Broker_crash { at = At at; promote_after } ->
          Broker_crash { at = At (f at); promote_after }
      | Broker_crash { at = At_record _; _ } as crash -> crash
      | Disk_fault { at; duration } ->
          Disk_fault { at = f at; duration = f duration }
    in
    {
      t with
      topology =
        (match t.topology with
        | Fig8 _ as fig8 -> fig8
        | Power_law { nodes; m } ->
            Power_law { nodes = Stdlib.max 16 (int_of_float (float_of_int nodes /. k)); m });
      load = scale_load t.load;
      mean_holding = f t.mean_holding;
      duration = f t.duration;
      horizon = f t.horizon;
      checkpoint_every = Option.map (fun c -> Float.max 5. (f c)) t.checkpoint_every;
      faults = List.map scale_fault t.faults;
      slo =
        {
          recover_goodput = f t.slo.recover_goodput;
          goodput_frac = t.slo.goodput_frac;
          clean_audit = f t.slo.clean_audit;
          brownout_exit = f t.slo.brownout_exit;
        };
    }
  end
