type storage_recovery = {
  sr_gen : int option;
  sr_cover : int;
  sr_fallback : bool;
  sr_truncated : string option;
  sr_quarantined : int;
  sr_replayed : int;
}

let recovery_loss r =
  r.sr_fallback || r.sr_truncated <> None || r.sr_quarantined > 0

type t = {
  make_standby : unit -> Broker.t;
  time : Broker.time_hooks;
  journal : Journal.t option;
  store : Storage.t;
  mutable active : Broker.t;
  mutable up : bool;
  mutable last_at : float option;  (* when the last checkpoint was taken *)
  mutable checkpoints : int;
  mutable generation : int;
  mutable ticking : bool;
  mutable stopped : bool;
  mutable replay_warning : string option;
  mutable last_recovery : storage_recovery option;
}

let create ~make_standby ?time ?journal primary =
  let time = Option.value ~default:Broker.immediate_time time in
  (match journal with None -> () | Some j -> Journal.attach j primary);
  {
    make_standby;
    time;
    journal;
    store =
      (match journal with
      | Some j -> Journal.storage j
      | None -> Storage.create ~vfs:(Bbr_util.Vfs.create ()) ());
    active = primary;
    up = true;
    last_at = None;
    checkpoints = 0;
    generation = 0;
    ticking = false;
    stopped = false;
    replay_warning = None;
    last_recovery = None;
  }

let active t = t.active

let is_up t = t.up

let journal t = t.journal

let replay_warning t = t.replay_warning

let last_recovery t = t.last_recovery

let storage t = t.store

let checkpoint t =
  if t.up then begin
    let cover =
      match t.journal with Some j -> Journal.appended_total j | None -> 0
    in
    (* Shadow-write, verify, atomic rename; the previous generation
       survives.  On failure the journal must NOT compact — its records
       are the only durable copy of the uncovered tail. *)
    match Storage.checkpoint t.store ~cover (Snapshot.save t.active) with
    | Error _ ->
        if Obs_log.active () then Obs_log.count "bb_failover_checkpoint_failures_total"
    | Ok _gen ->
        t.last_at <- Some (t.time.Broker.now ());
        t.checkpoints <- t.checkpoints + 1;
        (* The checkpoint covers everything the journal rebuilt: the prefix
           is redundant, so the checkpoint is the compaction point. *)
        (match t.journal with None -> () | Some j -> Journal.compact j);
        if Obs_log.active () then begin
          Obs_log.count "bb_failover_checkpoints_total";
          Obs_log.event ~at:(t.time.Broker.now ()) "bb.failover.checkpoint"
            ~attrs:[ ("n", string_of_int t.checkpoints) ]
        end
  end

let start_checkpoints t ~every =
  if every <= 0. then invalid_arg "Failover.start_checkpoints: every must be positive";
  if not t.ticking then begin
    t.ticking <- true;
    let rec tick () =
      if not t.stopped then begin
        checkpoint t;
        t.time.Broker.after every tick
      end
    in
    t.time.Broker.after every tick
  end

let stop t = t.stopped <- true

let crash t =
  t.up <- false;
  if Obs_log.active () then begin
    Obs_log.count "bb_failover_crashes_total";
    Obs_log.event ~at:(t.time.Broker.now ()) "bb.failover.crash"
  end

(* Swap [standby] in as the new active broker and re-baseline: fresh
   checkpoint, compacted + re-attached journal. *)
let install t standby ~restored ~applied ~warning =
  t.replay_warning <- warning;
  Broker.clear_mutation_hook t.active;
  t.active <- standby;
  t.up <- true;
  t.generation <- t.generation + 1;
  (match t.journal with
  | None -> ()
  | Some j ->
      Journal.compact j;
      Journal.attach j standby);
  (* The promoted state is the new baseline: this seals the (possibly
     torn) pre-crash segment and writes a fresh generation covering
     everything replayed, so the gap between the disk's record chain and
     the writer's sequence counter is bridged by the new cover. *)
  checkpoint t;
  if Obs_log.active () then begin
    Obs_log.count "bb_failover_promotions_total";
    Obs_log.event ~at:(t.time.Broker.now ()) "bb.failover.promote"
      ~attrs:
        [
          ("generation", string_of_int t.generation);
          ("restored", string_of_int restored);
          ("replayed", string_of_int applied);
        ]
  end;
  Ok (restored + applied)

(* Cold recovery from a store: trust only the disk.  Walk the verifiable
   checkpoint generations newest first; for each, restore it into a
   fresh broker and replay the longest intact record suffix from its
   cover.  A corrupted current generation therefore degrades to the
   prior one plus a longer replay.  The final fallback (no verifiable
   generation at all) replays whatever intact chain starts at sequence
   0, or lands on the empty state with the loss reported.  Every
   degradation is visible in the returned {!storage_recovery}. *)
let recover_from ~make st =
  let candidates = Storage.candidates st in
  let slots = Storage.slots_present st in
  let attempts =
    List.mapi (fun i (g, c, b) -> (i, Some g, c, Some b)) candidates
    @ [ (List.length candidates, None, 0, None) ]
  in
  let rec go = function
    | [] -> Error "recovery fell through every candidate"
    | (idx, gen, cover, body) :: rest -> (
        let standby = make () in
        let restored =
          match body with None -> Ok 0 | Some b -> Snapshot.restore standby b
        in
        match restored with
        | Error _ -> go rest
        | Ok restored -> (
            match Journal.replay_from standby st ~cover with
            | _, Error _ -> go rest
            | tail, Ok { Journal.applied; warning } ->
                let truncated =
                  match tail.Storage.truncated with
                  | Some _ as why -> why
                  | None -> warning
                in
                Ok
                  ( standby,
                    restored,
                    {
                      sr_gen = gen;
                      sr_cover = cover;
                      sr_fallback = idx > 0 || List.length candidates < slots;
                      sr_truncated = truncated;
                      sr_quarantined = List.length tail.Storage.quarantined;
                      sr_replayed = applied;
                    } )))
  in
  go attempts

let promote t =
  if t.journal = None && t.last_at = None then Error "no checkpoint to promote from"
  else
    match recover_from ~make:t.make_standby t.store with
    | Error e -> Error e
    | Ok (standby, restored, recovery) ->
        t.last_recovery <- Some recovery;
        let warning = Option.map (fun w -> "storage: " ^ w) recovery.sr_truncated in
        install t standby ~restored ~applied:recovery.sr_replayed ~warning

let snapshot_age t = Option.map (fun at -> t.time.Broker.now () -. at) t.last_at

let checkpoints t = t.checkpoints

let generation t = t.generation
