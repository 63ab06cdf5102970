module Engine = Bbr_netsim.Engine
module Flight = Bbr_obs.Flight

type kind =
  | Audit_violation
  | Oracle_violation
  | Digest_mismatch
  | Goodput_floor

let kind_label = function
  | Audit_violation -> "audit_violation"
  | Oracle_violation -> "oracle_violation"
  | Digest_mismatch -> "digest_mismatch"
  | Goodput_floor -> "goodput_floor"

type anomaly = { at : float; kind : kind; detail : string; expected : bool }

type t = {
  now : unit -> float;
  mutable windows : (float * float) list;
  mutable anomalies : anomaly list;  (* newest first *)
  mutable sampling : bool;
  mutable samples : int;
}

let create ~now ~windows () =
  { now; windows; anomalies = []; sampling = false; samples = 0 }

let add_window t w = t.windows <- w :: t.windows

let note t kind detail =
  let at = t.now () in
  (* A digest mismatch is never expected: the runner notes one only
     under a lossless journal, where recovery must be digest-exact even
     inside a fault window. *)
  let expected =
    kind <> Digest_mismatch && Scenario.in_windows t.windows at
  in
  t.anomalies <- { at; kind; detail; expected } :: t.anomalies;
  (* A violation outside every declared fault window is a genuine bug:
     snapshot the black box at the first one. *)
  if not expected then
    Flight.trigger
      ~reason:(Printf.sprintf "monitor:%s at %.3f: %s" (kind_label kind) at detail)

let start_sampling t engine ~every ~probe =
  t.sampling <- true;
  let rec tick () =
    if t.sampling then begin
      t.samples <- t.samples + 1;
      List.iter (fun (kind, detail) -> note t kind detail) (probe ());
      Engine.schedule_after engine ~delay:every tick
    end
  in
  Engine.schedule_after engine ~delay:every tick

let stop t = t.sampling <- false

let anomalies t = List.rev t.anomalies

let genuine t = List.filter (fun a -> not a.expected) (anomalies t)

let expected t = List.filter (fun a -> a.expected) (anomalies t)

let samples t = t.samples

