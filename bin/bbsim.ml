(* bbsim — command-line front end for the bandwidth-broker reproduction.

   Subcommands:
     fill      static fill of the Figure-8 domain under one scheme
     simulate  one dynamic churn run (Figure-10 style); --shards N
               instead feeds one regional request stream to the sharded
               multi-core broker and to a single broker, and checks
               that both decide alike and end digest-identical
     sweep     blocking rate across offered loads
     admit     one-shot admission decision for a custom flow
     transient the Figure-7 edge transient
     metrics   run a static fill and print its telemetry snapshot
     recover   rebuild a broker from a snapshot + write-ahead journal,
               or cold-recover from an exported segmented store
     scrub     integrity-check an exported segmented store (segment
               footers, record CRCs, checkpoint generations)
     audit     run a workload and cross-check the MIB invariants
     overload  overload soak through the bounded admission pipeline
               (or, with --partition, the lease-reclaim soak)
     federation chaos soak of the inter-domain 2PC federation
               (loss, partition, domain crash, coordinator crash)
     trace     analyze a flight-recorder box: span trees and
               critical-path stage blame

   fill, simulate, overload and federation accept --metrics-out PATH
   (and --metrics-format) to dump the control-plane metrics snapshot
   after the run, --trace-out PATH for a Chrome trace_event export of
   the causal trace (load in Perfetto), and --flight-out PATH to arm
   the black-box flight recorder.

   Exit codes: 0 success, 1 domain failure (rejected audit, failed
   replay, store corruption), 2 file I/O error, 3 input parse error,
   4 recovered with data loss (a prefix state was rebuilt and is
   audit-clean, but records or a checkpoint generation were lost).

   Try: dune exec bin/bbsim.exe -- fill --scheme perflow --dreq 2.19 *)

open Cmdliner

module Types = Bbr_broker.Types
module Aggregate = Bbr_broker.Aggregate
module Broker = Bbr_broker.Broker
module Journal = Bbr_broker.Journal
module Storage = Bbr_broker.Storage
module Failover = Bbr_broker.Failover
module Snapshot = Bbr_broker.Snapshot
module Vfs = Bbr_util.Vfs
module Audit = Bbr_broker.Audit
module Telemetry = Bbr_broker.Telemetry
module Traffic = Bbr_vtrs.Traffic
module Static = Bbr_workload.Static
module Dynamic = Bbr_workload.Dynamic
module Fig8 = Bbr_workload.Fig8
module Profiles = Bbr_workload.Profiles
module Transient = Bbr_workload.Transient
module Shard_router = Bbr_broker.Shard_router
module Shard_load = Bbr_workload.Shard_load
module Metrics = Bbr_obs.Metrics
module Obs_trace = Bbr_obs.Trace
module Exporter = Bbr_obs.Exporter
module Trace_export = Bbr_obs.Trace_export
module Critical_path = Bbr_obs.Critical_path
module Flight = Bbr_obs.Flight

(* --- shared arguments ---------------------------------------------- *)

let setting_arg =
  let parse = function
    | "rate" | "rate-only" -> Ok `Rate_only
    | "mixed" -> Ok `Mixed
    | s -> Error (`Msg (Printf.sprintf "unknown setting %S (rate|mixed)" s))
  in
  let print ppf s =
    Fmt.string ppf (match s with `Rate_only -> "rate" | `Mixed -> "mixed")
  in
  Arg.conv (parse, print)

let setting =
  Arg.(
    value
    & opt setting_arg `Mixed
    & info [ "setting" ] ~docv:"SETTING"
        ~doc:"Scheduler setting: $(b,rate) (all rate-based) or $(b,mixed).")

let dreq =
  Arg.(
    value
    & opt float 2.19
    & info [ "dreq" ] ~docv:"SECONDS" ~doc:"End-to-end delay requirement.")

let cd =
  Arg.(
    value
    & opt float 0.24
    & info [ "cd" ] ~docv:"SECONDS"
        ~doc:"Fixed class delay parameter at delay-based schedulers.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc:"PRNG seed.")

let duration =
  Arg.(
    value
    & opt float 20_000.
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated horizon.")

(* --- error-path plumbing -------------------------------------------- *)

(* Distinct exit codes so scripts (and CI) can tell a missing file from a
   corrupt one without scraping stderr. *)
let exit_io = 2
let exit_parse = 3

(* "It worked, but not losslessly": recovery rebuilt a clean prefix
   state yet had to drop records, quarantine a segment, or skip a
   corrupt checkpoint generation.  Scripts must be able to tell this
   from both full success (0) and outright failure (1). *)
let exit_data_loss = 4

(* Bounding releases contingency on timers the journal does not record,
   and replay runs on a clock pinned at 0, so a recovered aggr-bounding
   broker would print a digest that is not the one that ran.  Refuse the
   whole durability path for it rather than print a wrong digest. *)
let refuse_bounding scheme =
  match scheme with
  | `Aggr Aggregate.Bounding ->
      Fmt.epr
        "error: aggr-bounding cannot be journaled or recovered: its contingency \
         releases run on timers the journal does not record@.";
      exit exit_parse
  | _ -> ()

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> text
  | exception Sys_error e ->
      Fmt.epr "error: %s@." e;
      exit exit_io

let write_file path text =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text)
  with
  | () -> ()
  | exception Sys_error e ->
      Fmt.epr "error: %s@." e;
      exit exit_io

(* --- store directories ----------------------------------------------- *)

(* A segmented store travels as a plain directory of files (segments,
   checkpoints, quarantined segments) — the Vfs export/import format. *)
let import_store dir =
  match Sys.readdir dir with
  | exception Sys_error e ->
      Fmt.epr "error: %s@." e;
      exit exit_io
  | names ->
      Array.sort compare names;
      let files =
        Array.to_list names
        |> List.filter (fun n -> not (Sys.is_directory (Filename.concat dir n)))
        |> List.map (fun n -> (n, read_file (Filename.concat dir n)))
      in
      Vfs.import files

let export_store vfs dir =
  (match Sys.mkdir dir 0o755 with
  | () -> ()
  | exception Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  | exception Sys_error e ->
      Fmt.epr "error: %s@." e;
      exit exit_io);
  List.iter
    (fun (name, contents) -> write_file (Filename.concat dir name) contents)
    (Vfs.export vfs)

(* --- metrics plumbing ----------------------------------------------- *)

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"PATH"
        ~doc:
          "Collect control-plane telemetry during the run and write the \
           snapshot to $(docv) afterwards ($(b,-) = stdout).")

let metrics_format_arg =
  let parse = function
    | "text" | "prometheus" -> Ok `Text
    | "json" -> Ok `Json
    | s -> Error (`Msg (Printf.sprintf "unknown metrics format %S (text|json)" s))
  in
  let print ppf f = Fmt.string ppf (match f with `Text -> "text" | `Json -> "json") in
  Arg.conv (parse, print)

let metrics_format =
  Arg.(
    value
    & opt metrics_format_arg `Text
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:
          "Snapshot format: $(b,text) (Prometheus exposition) or $(b,json).")

let render_metrics reg = function
  | `Text -> Exporter.to_prometheus reg
  | `Json -> Exporter.to_json reg

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Trace the run and write it as Chrome trace_event JSON to \
           $(docv) afterwards ($(b,-) = stdout); load in \
           chrome://tracing or Perfetto.")

let flight_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-out" ] ~docv:"PATH"
        ~doc:
          "Arm the black-box flight recorder.  The first anomaly (audit \
           violation, failed recovery digest, federation compensation \
           storm) dumps trace + metrics + MIB digest to $(docv); a clean \
           run writes an end-of-run box.  Analyze with $(b,bbsim trace).")

(* Install a fresh registry + tracer around [f] and export the requested
   artifacts afterwards; with none of --metrics-out / --trace-out /
   --flight-out, [f] runs uninstrumented. *)
let with_obs ~out ~format ~trace ~flight f =
  if out = None && trace = None && flight = None then f ()
  else begin
    let reg = Metrics.create () in
    Metrics.install reg;
    let tr = Obs_trace.create () in
    Obs_trace.install tr;
    Telemetry.register_tracer ();
    let recorder = Option.map (fun path -> Flight.arm ~out:path ()) flight in
    Fun.protect
      ~finally:(fun () ->
        Flight.disarm ();
        Metrics.uninstall ();
        Obs_trace.uninstall ())
      (fun () ->
        let r = f () in
        Option.iter
          (fun path -> Exporter.write ~path (render_metrics reg format))
          out;
        Option.iter
          (fun path ->
            Exporter.write ~path (Trace_export.chrome_string (Obs_trace.entries tr)))
          trace;
        Option.iter
          (fun rec_ -> Fmt.pr "flight box: %s@." (Flight.final rec_))
          recorder;
        r)
  end

(* --- fill ----------------------------------------------------------- *)

let scheme_arg =
  let parse = function
    | "intserv" -> Ok `Intserv
    | "perflow" -> Ok `Perflow
    | "aggr" | "aggr-feedback" -> Ok (`Aggr Aggregate.Feedback)
    | "aggr-bounding" -> Ok (`Aggr Aggregate.Bounding)
    | s ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown scheme %S (intserv|perflow|aggr|aggr-bounding)" s))
  in
  let print ppf = function
    | `Intserv -> Fmt.string ppf "intserv"
    | `Perflow -> Fmt.string ppf "perflow"
    | `Aggr Aggregate.Feedback -> Fmt.string ppf "aggr"
    | `Aggr Aggregate.Bounding -> Fmt.string ppf "aggr-bounding"
  in
  Arg.conv (parse, print)

let scheme =
  Arg.(
    value
    & opt scheme_arg `Perflow
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Admission scheme: $(b,intserv), $(b,perflow), $(b,aggr) \
           (feedback) or $(b,aggr-bounding).  An $(b,aggr-bounding) broker \
           cannot be journaled: $(b,simulate --journal-out), \
           $(b,simulate --store-dir) and $(b,recover) refuse it (exit 3).")

let run_fill setting dreq cd scheme verbose out format trace flight =
  let static_scheme =
    match scheme with
    | `Intserv -> Static.Intserv_gs
    | `Perflow -> Static.Perflow_bb
    | `Aggr method_ -> Static.Aggr_bb { cd; method_ }
  in
  let r =
    with_obs ~out ~format ~trace ~flight (fun () ->
        Static.fill ~setting ~dreq
          ~observe:(fun broker ->
            Telemetry.register_broker broker;
            Flight.set_digest (fun () -> Some (Audit.mib_digest broker)))
          static_scheme)
  in
  Fmt.pr "admitted %d flows before the first rejection@." r.Static.admitted;
  if verbose then begin
    Fmt.pr "%4s  %12s  %12s  %12s@." "n" "flow rate" "total" "mean/flow";
    List.iter
      (fun (s : Static.step) ->
        Fmt.pr "%4d  %12.1f  %12.1f  %12.1f@." s.Static.n s.Static.flow_rate
          s.Static.total_rate s.Static.mean_rate)
      r.Static.steps
  end
  else
    match List.rev r.Static.steps with
    | last :: _ ->
        Fmt.pr "total reserved %.1f b/s, mean per flow %.1f b/s@."
          last.Static.total_rate last.Static.mean_rate
    | [] -> ()

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every admission step.")

let fill_cmd =
  let doc = "Fill the Figure-8 domain with identical flows until rejection (Table 2)." in
  Cmd.v (Cmd.info "fill" ~doc)
    Term.(
      const run_fill $ setting $ dreq $ cd $ scheme $ verbose $ metrics_out
      $ metrics_format $ trace_out $ flight_out)

(* --- simulate ------------------------------------------------------- *)

let load =
  Arg.(
    value
    & opt float 0.2
    & info [ "load" ] ~docv:"FLOWS/S" ~doc:"Total flow arrival rate.")

let journal_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-out" ] ~docv:"PATH"
        ~doc:
          "Write-ahead journal every broker mutation during the run and \
           write the journal to $(docv) at the end of the arrival window \
           (simulated time $(b,--duration)), while flows are still live, \
           printing their count and the MIB digest (replayable with \
           $(b,recover)).")

let store_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Back the run's write-ahead journal with a segmented store \
           (CRC'd per-record framing, sealed segment footers) and export \
           it to $(docv) afterwards — recoverable with $(b,recover \
           --store), integrity-checkable with $(b,scrub --store).")

(* The sharded path of [simulate]: one seeded regional request stream
   (one request in ten crosses regions, so the two-phase path runs) fed in
   lockstep to the sharded broker and to a single broker, at most 64 live
   flows per shard (oldest torn down first).  Shards run on real OCaml
   domains when the machine has more than one core.  [load * duration]
   requests per shard (at least 100), the classic path's expected arrival
   count.  Equivalence is exact: every decision (flow id and reservation)
   and the final MIB digest. *)
let run_sharded ~shards ~seed ~load ~duration =
  let cfg = { Shard_load.default with Shard_load.seed } in
  let cores = Domain.recommended_domain_count () in
  let spawn = cores > 1 in
  let topology = Shard_load.topology cfg in
  let single = Broker.create (Bbr_vtrs.Topology.copy topology) in
  let router =
    Shard_router.create ~spawn ~shards
      ~partition:(Shard_load.partition ~nshards:shards) topology
  in
  let prng = Bbr_util.Prng.create ~seed in
  let n = shards * max 100 (int_of_float (load *. duration)) in
  let cap = 64 * shards in
  let live = Queue.create () in
  let admitted = ref 0 and rejected = ref 0 and torn = ref 0 in
  let rec go i =
    if i = n then None
    else
      let req = Shard_load.request cfg prng in
      match (Broker.request single req, Shard_router.request router req) with
      | Ok (f, r), Ok (g, q) when f = g && r = q ->
          incr admitted;
          Queue.push f live;
          if Queue.length live > cap then begin
            let old = Queue.pop live in
            Broker.teardown single old;
            Shard_router.teardown router old;
            incr torn
          end;
          go (i + 1)
      | Error _, Error _ ->
          incr rejected;
          go (i + 1)
      | _ -> Some i
  in
  let diverged = go 0 in
  let digests_equal = Shard_router.mib_digest router = Audit.mib_digest single in
  Shard_router.stop router;
  Fmt.pr "sharded broker: %d shard(s) on %d core(s), %s domains@." shards cores
    (if spawn then "real" else "inline");
  Fmt.pr "requests %d: admitted %d, rejected %d, torn down %d@."
    (!admitted + !rejected) !admitted !rejected !torn;
  match diverged with
  | Some i ->
      Fmt.pr "single-broker equivalence: DIVERGED at request %d@." i;
      exit 1
  | None when not digests_equal ->
      Fmt.pr "single-broker equivalence: DIVERGED (final MIB digest)@.";
      exit 1
  | None -> Fmt.pr "single-broker equivalence: exact@."

let print_flows broker =
  Fmt.pr "flows: %d per-flow, %d class members@."
    (Broker.per_flow_count broker)
    (Broker.class_flow_count broker)

let run_simulate setting cd scheme seed load duration journal_path store_dir out
    format trace flight shards =
  if journal_path <> None || store_dir <> None then refuse_bounding scheme;
  if shards > 1 then begin
    if journal_path <> None || store_dir <> None then begin
      Fmt.epr "error: --journal-out and --store-dir do not apply with --shards@.";
      exit exit_parse
    end;
    run_sharded ~shards ~seed ~load ~duration
  end
  else
  let dyn_scheme =
    match scheme with
    | `Perflow -> Dynamic.Perflow
    | `Aggr m -> Dynamic.Aggr m
    | `Intserv ->
        Fmt.epr "simulate supports perflow/aggr schemes only@.";
        exit 1
  in
  let cfg =
    { Dynamic.seed; setting; arrival_rate = load; mean_holding = 200.; duration; cd }
  in
  let journal =
    if journal_path <> None || store_dir <> None then Some (Journal.create ()) else None
  in
  let captured = ref None in
  let o =
    with_obs ~out ~format ~trace ~flight (fun () ->
        Dynamic.run
          ~observe:(fun engine broker ->
            Telemetry.register_broker broker;
            Flight.set_digest (fun () -> Some (Audit.mib_digest broker));
            captured := Some broker;
            Option.iter (fun j -> Journal.attach j broker) journal;
            (* After the arrival window every flow drains; a journal of
               the drained broker would rebuild an empty one. *)
            match (journal_path, journal) with
            | Some path, Some j ->
                Bbr_netsim.Engine.schedule engine ~at:duration (fun () ->
                    write_file path (Journal.text j);
                    Fmt.pr "journal: %d records -> %s@." (Journal.records j) path;
                    print_flows broker;
                    Fmt.pr "final mib digest: %s@." (Audit.mib_digest broker))
            | _ -> ())
          cfg dyn_scheme)
  in
  Fmt.pr "scheme: %a@." Dynamic.pp_scheme dyn_scheme;
  Fmt.pr "offered %d, blocked %d, completed %d@." o.Dynamic.offered o.Dynamic.blocked
    o.Dynamic.completed;
  Fmt.pr "blocking rate: %.4f@." o.Dynamic.blocking_rate;
  match (store_dir, journal, !captured) with
  | Some dir, Some j, Some broker ->
      let st = Journal.storage j in
      Storage.seal_active st;
      export_store (Storage.vfs st) dir;
      Fmt.pr "store: %d file(s) -> %s@."
        (List.length (Vfs.list (Storage.vfs st)))
        dir;
      if journal_path = None then
        Fmt.pr "final mib digest: %s@." (Audit.mib_digest broker)
  | _ -> ()

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Run the sharded multi-core broker with $(docv) shards over a \
           regional domain (on OCaml domains when the machine is \
           multi-core), fed the same request stream as a single broker \
           and checked against it decision by decision and by final MIB \
           digest.  Refuses $(b,--journal-out) and $(b,--store-dir) (exit \
           3).  1 (the default) keeps the classic single-broker churn run.")

let simulate_cmd =
  let doc = "One dynamic churn run: Poisson arrivals, exponential holding times." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run_simulate $ setting $ cd $ scheme $ seed $ load $ duration
      $ journal_out $ store_out $ metrics_out $ metrics_format $ trace_out
      $ flight_out $ shards_arg)

(* --- sweep ---------------------------------------------------------- *)

let loads =
  Arg.(
    value
    & opt (list float) [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.4 ]
    & info [ "loads" ] ~docv:"L1,L2,..." ~doc:"Arrival rates to sweep.")

let seeds =
  Arg.(
    value
    & opt (list int) [ 1; 2; 3; 4; 5 ]
    & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Seeds averaged per point.")

let run_sweep setting cd seeds loads duration =
  let base = { Dynamic.default_config with Dynamic.setting; cd; duration } in
  let schemes =
    [ Dynamic.Perflow; Dynamic.Aggr Aggregate.Feedback; Dynamic.Aggr Aggregate.Bounding ]
  in
  Fmt.pr "%-10s" "load(f/s)";
  List.iter (fun s -> Fmt.pr " %24s" (Fmt.str "%a" Dynamic.pp_scheme s)) schemes;
  Fmt.pr "@.";
  let curves = List.map (fun s -> Dynamic.blocking_vs_load ~seeds ~base ~loads s) schemes in
  List.iteri
    (fun i load ->
      Fmt.pr "%-10.3f" load;
      List.iter (fun curve -> Fmt.pr " %24.4f" (snd (List.nth curve i))) curves;
      Fmt.pr "@.")
    loads

let sweep_cmd =
  let doc = "Blocking rate vs offered load for all three schemes (Figure 10)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run_sweep $ setting $ cd $ seeds $ loads $ duration)

(* --- admit ---------------------------------------------------------- *)

let run_admit setting dreq sigma rho peak lmax =
  let topo = Fig8.topology setting in
  let broker = Broker.create topo in
  let profile = Traffic.make ~sigma ~rho ~peak ~lmax in
  let req = { Types.profile; dreq; ingress = Fig8.ingress1; egress = Fig8.egress1 } in
  match Broker.request broker req with
  | Ok (flow, res) ->
      Fmt.pr "admitted as flow %d on I1->E1@." flow;
      Fmt.pr "reserved rate:   %.1f b/s@." res.Types.rate;
      Fmt.pr "delay parameter: %.4f s@." res.Types.delay
  | Error reason -> Fmt.pr "rejected: %a@." Types.pp_reject_reason reason

let sigma =
  Arg.(value & opt float 60_000. & info [ "sigma" ] ~docv:"BITS" ~doc:"Burst size.")

let rho =
  Arg.(
    value & opt float 50_000. & info [ "rho" ] ~docv:"BITS/S" ~doc:"Sustained rate.")

let peak =
  Arg.(value & opt float 100_000. & info [ "peak" ] ~docv:"BITS/S" ~doc:"Peak rate.")

let lmax =
  Arg.(
    value & opt float 12_000. & info [ "lmax" ] ~docv:"BITS" ~doc:"Max packet size.")

let admit_cmd =
  let doc = "One-shot admission decision for a custom dual-token-bucket flow." in
  Cmd.v (Cmd.info "admit" ~doc)
    Term.(const run_admit $ setting $ dreq $ sigma $ rho $ peak $ lmax)

(* --- transient ------------------------------------------------------ *)

let run_transient () =
  let r = Transient.leave_scenario () in
  Fmt.pr "edge-delay bound:       %.3f s@." r.Transient.bound;
  Fmt.pr "naive rate reduction:   %.3f s%s@." r.Transient.naive
    (if r.Transient.naive > r.Transient.bound then "  (violation)" else "");
  Fmt.pr "Theorem-3 contingency:  %.3f s@." r.Transient.with_contingency

let transient_cmd =
  let doc = "The Figure-7 dynamic-aggregation transient and its repair." in
  Cmd.v (Cmd.info "transient" ~doc) Term.(const run_transient $ const ())

(* --- metrics --------------------------------------------------------- *)

let run_metrics setting dreq cd scheme format =
  let static_scheme =
    match scheme with
    | `Perflow -> Static.Perflow_bb
    | `Aggr method_ -> Static.Aggr_bb { cd; method_ }
    | `Intserv ->
        Fmt.epr "metrics supports perflow/aggr schemes only@.";
        exit 1
  in
  let reg = Metrics.create () in
  Metrics.install reg;
  Obs_trace.install (Obs_trace.create ());
  Fun.protect
    ~finally:(fun () ->
      Metrics.uninstall ();
      Obs_trace.uninstall ())
    (fun () ->
      ignore
        (Static.fill ~setting ~dreq ~observe:Telemetry.register_broker
           static_scheme);
      print_string (render_metrics reg format))

let metrics_cmd =
  let doc =
    "Run a Figure-8 static fill with telemetry on and print the snapshot \
     (admission counters, per-link utilization, stage latency histograms)."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const run_metrics $ setting $ dreq $ cd $ scheme $ metrics_format)

(* --- trace / replay -------------------------------------------------- *)

let run_trace_gen setting cd seed load duration =
  let cfg =
    { Dynamic.seed; setting; arrival_rate = load; mean_holding = 200.; duration; cd }
  in
  print_string (Bbr_workload.Trace.to_string (Bbr_workload.Trace.generate cfg))

let trace_gen_cmd =
  let doc = "Emit a synthetic flow-arrival trace on stdout (replayable with replay)." in
  Cmd.v (Cmd.info "trace-gen" ~doc)
    Term.(const run_trace_gen $ setting $ cd $ seed $ load $ duration)

let trace_file =
  Arg.(
    required
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH" ~doc:"Trace file (see trace-gen).")

let run_replay setting cd scheme file =
  let dyn_scheme =
    match scheme with
    | `Perflow -> Dynamic.Perflow
    | `Aggr m -> Dynamic.Aggr m
    | `Intserv ->
        Fmt.epr "replay supports perflow/aggr schemes only@.";
        exit 1
  in
  let text = read_file file in
  match Bbr_workload.Trace.of_string text with
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit exit_parse
  | Ok entries ->
      let o = Bbr_workload.Trace.replay ~setting ~cd entries dyn_scheme in
      Fmt.pr "scheme: %a@." Dynamic.pp_scheme dyn_scheme;
      Fmt.pr "offered %d, blocked %d, completed %d, blocking rate %.4f@."
        o.Dynamic.offered o.Dynamic.blocked o.Dynamic.completed o.Dynamic.blocking_rate

let replay_cmd =
  let doc = "Replay a flow-arrival trace through an admission scheme." in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run_replay $ setting $ cd $ scheme $ trace_file)

(* --- recover --------------------------------------------------------- *)

let classes_for scheme cd =
  match scheme with
  | `Perflow | `Intserv -> []
  | `Aggr _ -> Dynamic.service_classes cd

let method_for = function `Aggr m -> m | `Perflow | `Intserv -> Aggregate.Feedback

let journal_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:"Write-ahead journal to replay (see $(b,simulate --journal-out)).")

let store_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Segmented store directory (see $(b,simulate --store-dir)): cold \
           recovery from the newest verifiable checkpoint generation plus \
           the longest intact journal suffix, degrading rather than \
           failing.")

let snapshot_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"PATH"
        ~doc:
          "Checkpoint to restore before the journal tail; without it the \
           journal replays from an empty broker.")

(* Shared tail of both recovery paths: audit the rebuilt broker, print
   the digest, and pick the exit code — 1 for a dirty audit, 4 for a
   clean recovery that lost data, 0 for a lossless one. *)
let finish_recover broker ~lossy =
  print_flows broker;
  let report = Audit.check broker in
  Fmt.pr "%a@." Audit.pp_report report;
  Fmt.pr "final mib digest: %s@." (Audit.mib_digest broker);
  if not (Audit.ok report) then exit 1;
  if lossy then exit exit_data_loss

let run_recover setting cd scheme journal_path snapshot_path store_path =
  refuse_bounding scheme;
  let mk () =
    Broker.create
      ~classes:(classes_for scheme cd)
      ~method_:(method_for scheme) (Fig8.topology setting)
  in
  match (store_path, journal_path) with
  | Some _, Some _ ->
      Fmt.epr "error: --store and --journal are mutually exclusive@.";
      exit exit_parse
  | None, None ->
      Fmt.epr "error: one of --journal or --store is required@.";
      exit exit_parse
  | Some dir, None -> (
      let st = Storage.create ~vfs:(import_store dir) () in
      match Failover.recover_from ~make:mk st with
      | Error e ->
          Fmt.epr "error: store: %s@." e;
          exit 1
      | Ok (broker, restored, r) ->
          (match r.Failover.sr_gen with
          | Some g ->
              Fmt.pr "checkpoint: generation %d, %d reservations restored%s@." g
                restored
                (if r.Failover.sr_fallback then "  (FALLBACK: a newer generation failed verification)"
                 else "")
          | None -> Fmt.pr "checkpoint: none verifiable, replaying from empty@.");
          Fmt.pr "journal: %d records applied from sequence %d@."
            r.Failover.sr_replayed r.Failover.sr_cover;
          Option.iter (fun w -> Fmt.pr "warning: truncated: %s@." w)
            r.Failover.sr_truncated;
          if r.Failover.sr_quarantined > 0 then
            Fmt.pr "warning: %d sealed segment(s) quarantined@."
              r.Failover.sr_quarantined;
          finish_recover broker ~lossy:(Failover.recovery_loss r))
  | None, Some journal_path ->
      let broker = mk () in
      (match snapshot_path with
      | None -> ()
      | Some path -> (
          match Snapshot.restore broker (read_file path) with
          | Ok n -> Fmt.pr "snapshot: %d reservations restored@." n
          | Error e ->
              Fmt.epr "error: snapshot: %s@." e;
              exit exit_parse));
      (match Journal.replay broker (read_file journal_path) with
      | Error e ->
          Fmt.epr "error: journal: %s@." e;
          exit exit_parse
      | Ok { Journal.applied; warning } ->
          Fmt.pr "journal: %d records applied@." applied;
          Option.iter (fun w -> Fmt.pr "warning: %s@." w) warning;
          finish_recover broker ~lossy:(warning <> None))

let recover_cmd =
  let doc =
    "Rebuild a broker offline — from a checkpoint snapshot plus a \
     write-ahead journal tail ($(b,--journal)), or cold from a segmented \
     store directory ($(b,--store)) — audit it, and print its canonical \
     MIB digest.  Exits 4 when the rebuild is clean but lossy (truncated \
     tail, quarantined segment, or checkpoint-generation fallback)."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(
      const run_recover $ setting $ cd $ scheme $ journal_file $ snapshot_file
      $ store_dir)

(* --- scrub ------------------------------------------------------------ *)

let scrub_store_dir =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Segmented store directory to check.")

let run_scrub dir =
  let st = Storage.create ~vfs:(import_store dir) () in
  let r = Storage.scrub st in
  Fmt.pr "segments checked: %d@." r.Storage.segments_checked;
  Fmt.pr "checkpoints: %d ok, %d bad@." r.Storage.checkpoints_ok
    r.Storage.checkpoints_bad;
  List.iter (fun (file, kind) -> Fmt.pr "corrupt: %s (%s)@." file kind) r.Storage.errors;
  List.iter (fun f -> Fmt.pr "quarantined: %s@." f) r.Storage.quarantined_files;
  if Storage.scrub_clean r then Fmt.pr "store clean@."
  else begin
    Fmt.pr "%d corruption(s) detected@." (List.length r.Storage.errors);
    exit 1
  end

let scrub_cmd =
  let doc =
    "Integrity-check an exported segmented store: every sealed segment's \
     footer CRC, every record CRC and sequence chain, both checkpoint \
     generations.  Sealed segments whose bytes changed since sealing are \
     quarantined (renamed $(b,*.quar) inside the imported view; the \
     directory itself is not modified).  Exits 1 on any detection."
  in
  Cmd.v (Cmd.info "scrub" ~doc) Term.(const run_scrub $ scrub_store_dir)

(* --- audit ----------------------------------------------------------- *)

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Exit non-zero when the audit finds any violation.")

let run_audit setting cd scheme seed load duration strict =
  let dyn_scheme =
    match scheme with
    | `Perflow -> Dynamic.Perflow
    | `Aggr m -> Dynamic.Aggr m
    | `Intserv ->
        Fmt.epr "audit supports perflow/aggr schemes only@.";
        exit 1
  in
  let cfg =
    { Dynamic.seed; setting; arrival_rate = load; mean_holding = 200.; duration; cd }
  in
  let captured = ref None in
  let o =
    Dynamic.run ~observe:(fun _engine broker -> captured := Some broker) cfg dyn_scheme
  in
  match !captured with
  | None ->
      Fmt.epr "internal error: the workload never exposed its broker@.";
      exit 1
  | Some broker ->
      Fmt.pr "scheme: %a  (offered %d, blocked %d)@." Dynamic.pp_scheme dyn_scheme
        o.Dynamic.offered o.Dynamic.blocked;
      let report = Audit.check broker in
      Fmt.pr "%a@." Audit.pp_report report;
      Fmt.pr "final mib digest: %s@." (Audit.mib_digest broker);
      if strict && not (Audit.ok report) then exit 1

let audit_cmd =
  let doc =
    "Run a dynamic churn workload, then cross-check flow MIB, path MIB and \
     per-link reserved rates for leaks, orphans and dangling memberships."
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const run_audit $ setting $ cd $ scheme $ seed $ load $ duration $ strict)

(* --- lease -------------------------------------------------------------- *)

let lease_strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero unless the soak held its invariants: reclaim \
           within one lease period, zero stale leases, a clean audit.")

let run_lease seed strict =
  let module Lease_soak = Bbr_workload.Lease_soak in
  let o = Lease_soak.run { Lease_soak.default_config with Lease_soak.seed } in
  Fmt.pr "%a@." Lease_soak.pp_outcome o;
  let ok =
    o.Lease_soak.reclaimed_within_period && o.Lease_soak.stale_leases = 0
    && Audit.ok o.Lease_soak.audit
  in
  if strict && not ok then exit 1

let lease_cmd =
  let doc =
    "Run the lease-partition soak: two edge brokers admit from leased \
     quota, one falls silent mid-run, and its delegated quota must return \
     to the shared pool within one lease period."
  in
  Cmd.v (Cmd.info "lease" ~doc) Term.(const run_lease $ seed $ lease_strict)

(* --- federation ------------------------------------------------------- *)

let fed_domains =
  Arg.(
    value
    & opt int 12
    & info [ "domains" ] ~docv:"N" ~doc:"Number of domains in the federation graph.")

let fed_arrivals =
  Arg.(
    value
    & opt float 3.
    & info [ "arrivals" ] ~docv:"R" ~doc:"Flow arrivals per second (Poisson).")

let fed_duration =
  Arg.(
    value
    & opt float 120.
    & info [ "duration" ] ~docv:"S" ~doc:"Seconds of simulated arrivals.")

let fed_drop =
  Arg.(
    value
    & opt float 0.05
    & info [ "drop" ] ~docv:"P"
        ~doc:"Per-message-copy loss probability during the fault window.")

let fed_no_crash =
  Arg.(
    value & flag
    & info [ "no-coordinator-crash" ]
        ~doc:"Skip the mid-run coordinator crash + journal recovery.")

let fed_strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero unless the soak drained clean: every audit clean \
           (federation invariants and per-domain MIBs), an empty obligation \
           queue, zero stranded bandwidth, and a digest-exact coordinator \
           recovery when one was staged.")

let run_federation seed domains arrivals duration drop no_crash strict out format
    trace flight =
  let module Fs = Bbr_workload.Fed_soak in
  if domains < 3 then begin
    Fmt.epr "federation: need at least 3 domains@.";
    exit exit_parse
  end;
  let cfg =
    {
      Fs.default_config with
      Fs.seed;
      n_domains = domains;
      arrival_rate = arrivals;
      duration;
      drop_p = drop;
      crash_coordinator_at =
        (if no_crash then None else Fs.default_config.Fs.crash_coordinator_at);
    }
  in
  let o = with_obs ~out ~format ~trace ~flight (fun () -> Fs.run cfg) in
  Fmt.pr "%a@." Fs.pp_outcome o;
  if strict && not (Fs.ok o) then exit 1

let federation_cmd =
  let doc =
    "Chaos-soak the inter-domain federation: per-segment 2PC reservations \
     over a random 10+ domain graph under message loss, duplication, \
     delay, a partitioned transit domain, a crashed domain and a \
     journal-recovered coordinator crash — then drain and prove nothing \
     was stranded."
  in
  Cmd.v (Cmd.info "federation" ~doc)
    Term.(
      const run_federation $ seed $ fed_domains $ fed_arrivals $ fed_duration
      $ fed_drop $ fed_no_crash $ fed_strict $ metrics_out $ metrics_format
      $ trace_out $ flight_out)

(* --- scenario ---------------------------------------------------------- *)

let scenario_list =
  Arg.(
    value & flag
    & info [ "list" ]
        ~doc:"List the named scenarios (the matrix, then the Figure-10 ones) and exit.")

let scenario_names =
  Arg.(
    value
    & opt_all string []
    & info [ "name" ] ~docv:"NAME"
        ~doc:
          "Run one named scenario (repeatable; without it, the seven-scenario \
           matrix).  See $(b,--list).")

let scenario_scale =
  Arg.(
    value
    & opt (some float) None
    & info [ "scale" ] ~docv:"K"
        ~doc:
          "Shrink every scenario by $(docv) (durations, event instants, \
           topology size) — the smoke-run knob.  Defaults to the \
           $(b,BBR_BENCH_SCALE) environment variable, or 1 (full size).")

let scenario_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"PATH"
        ~doc:"Write the per-scenario results as BENCH_scenarios.json-style JSON.")

let scenario_strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero unless every scenario passed: zero invariant \
           violations outside declared fault windows, every recovery SLO \
           met, clean final audit, no unresolved transactions.")

let run_scenario list_ names scale out_path strict out format trace flight =
  let module Sc = Bbr_scenario.Scenario in
  let module Matrix = Bbr_scenario.Matrix in
  let module Runner = Bbr_scenario.Runner in
  if list_ then
    List.iter
      (fun s -> Fmt.pr "%-26s %s@." s.Sc.name s.Sc.descr)
      (Matrix.scenarios @ Matrix.fig10)
  else begin
    let scale =
      match scale with
      | Some k -> k
      | None -> (
          match Sys.getenv_opt "BBR_BENCH_SCALE" with
          | Some s -> (
              match float_of_string_opt s with
              | Some k when k > 0. -> k
              | _ ->
                  Fmt.epr "error: bad BBR_BENCH_SCALE %S@." s;
                  exit exit_parse)
          | None -> 1.)
    in
    (match List.filter (fun n -> Matrix.find n = None) names with
    | [] -> ()
    | unknown ->
        Fmt.epr "error: unknown scenario(s): %s (try --list)@."
          (String.concat ", " unknown);
        exit exit_parse);
    let outcomes =
      with_obs ~out ~format ~trace ~flight (fun () ->
          Matrix.run_all ~scale ~names ())
    in
    List.iter (fun o -> Fmt.pr "%a@.@." Runner.pp_outcome o) outcomes;
    Option.iter
      (fun path ->
        (try Matrix.write_json ~path ~scale outcomes
         with Sys_error e ->
           Fmt.epr "error: %s@." e;
           exit exit_io);
        Fmt.pr "wrote %s@." path)
      out_path;
    let failed = List.filter (fun o -> not (Runner.ok o)) outcomes in
    Fmt.pr "%d/%d scenarios passed@."
      (List.length outcomes - List.length failed)
      (List.length outcomes);
    if strict && failed <> [] then exit 1
  end

let scenario_cmd =
  let doc =
    "Execute composed chaos campaigns — diurnal and flash-crowd load, \
     regional link failures, broker crash + warm-standby promotion, \
     partitions — over power-law ISP topologies, or the paper's Figure-10 \
     churn under link failure, crash at a journal record and overload, \
     with a standing invariant monitor sampling MIB audit and \
     admission-oracle health throughout and a recovery-SLO oracle judging \
     every injected event's time-to-recovery."
  in
  Cmd.v (Cmd.info "scenario" ~doc)
    Term.(
      const run_scenario $ scenario_list $ scenario_names
      $ scenario_scale $ scenario_out $ scenario_strict $ metrics_out
      $ metrics_format $ trace_out $ flight_out)

(* --- trace (critical-path analysis) ----------------------------------- *)

let trace_input =
  Arg.(
    required
    & opt (some string) None
    & info [ "input" ] ~docv:"PATH"
        ~doc:"Flight-recorder box (JSON, see $(b,--flight-out)) to analyze.")

let trace_top =
  Arg.(
    value
    & opt int 5
    & info [ "top" ] ~docv:"N" ~doc:"Stages shown in each blame table.")

let trace_tree =
  Arg.(
    value & flag
    & info [ "tree" ] ~doc:"Also render each trace's span tree.")

let run_trace_analyze input top tree =
  let text = read_file input in
  match Flight.parse text with
  | Error e ->
      Fmt.epr "error: %s: %s@." input e;
      exit exit_parse
  | Ok d ->
      Fmt.pr "flight box: reason %S, %d trigger(s), %d entries, %d evicted@."
        d.Flight.reason d.Flight.triggers
        (List.length d.Flight.entries)
        d.Flight.dump_evicted;
      Option.iter (fun dg -> Fmt.pr "mib digest: %s@." dg) d.Flight.mib_digest;
      print_string (Critical_path.render ~top (Critical_path.analyze d.Flight.entries));
      if tree then print_string (Trace_export.span_tree d.Flight.entries)

let trace_cmd =
  let doc =
    "Analyze a flight-recorder box: per-trace span trees and the \
     critical-path stage blame (overall and across the p99-slowest \
     traces)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run_trace_analyze $ trace_input $ trace_top $ trace_tree)

(* -------------------------------------------------------------------- *)

let () =
  let doc = "bandwidth-broker / VTRS simulator (SIGCOMM 2000 reproduction)" in
  let info = Cmd.info "bbsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fill_cmd;
            simulate_cmd;
            sweep_cmd;
            admit_cmd;
            transient_cmd;
            metrics_cmd;
            trace_gen_cmd;
            replay_cmd;
            recover_cmd;
            scrub_cmd;
            audit_cmd;
            lease_cmd;
            federation_cmd;
            scenario_cmd;
            trace_cmd;
          ]))
