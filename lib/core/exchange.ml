type faults = {
  drop : unit -> bool;
  duplicate : unit -> bool;
  extra_delay : unit -> float;
}

let no_faults =
  { drop = (fun () -> false); duplicate = (fun () -> false); extra_delay = (fun () -> 0.) }

type event = Sent | Dropped | Duplicated

let always () = true

let send faults ~after ~latency ?(reachable = always) ~note k =
  let copy () =
    note Sent;
    if faults.drop () || not (reachable ()) then note Dropped
    else after (latency +. faults.extra_delay ()) (fun () -> if reachable () then k ())
  in
  copy ();
  if faults.duplicate () then begin
    note Duplicated;
    copy ()
  end

let first_timeout = 0.05

let max_timeout = 1.

let next_timeout d = Float.min max_timeout (d *. 2.)

let jittered jitter d = match jitter with None -> d | Some j -> d *. (1. +. j ())
