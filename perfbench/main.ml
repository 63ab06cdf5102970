(* Command line: --workload NAME --seed N --seconds S --trace 0|1.
   Prints human-readable notes, then one JSON result line. *)

let workloads = [ "mesh-perflow"; "sharded-front"; "class-aggregate" ]

(* A run is [rounds] rounds of one fixed, seeded sequence of decisions,
   each on fresh state, so every count in a run repeats exactly for a
   given seed, and the k-th decision of every round does the same work
   (see {!Harness.combine} for how rounds are combined).  A round
   measures [--seconds] times [rate] / [rounds] decisions: [rate] is
   about what a 2-core VM sustains, so the measured phases together last
   about [--seconds].  Each round also sets up and rebuilds its own
   broker, which bounds the history a rebuild replays and the memory the
   process holds.  Set-up and rebuild take as long as the measured phase
   or longer, so there are only as many rounds as end a run in well under
   a minute. *)
let rounds = function "mesh-perflow" -> 12 | "sharded-front" -> 12 | _ -> 16

let rate = function "mesh-perflow" -> 800 | "sharded-front" -> 2700 | _ -> 18000

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the request stream");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the measured phases");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
    (fun _ -> usage ())
    "perfbench";
  if (not (List.mem !workload workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1) then
    usage ();
  let rounds = rounds !workload in
  let ops = !seconds * rate !workload / rounds in
  let run =
    match !workload with
    | "mesh-perflow" -> Mesh.run
    | "sharded-front" -> Sharded.run
    | _ -> Classagg.run
  in
  Printf.printf "%s seed %d, %d rounds of %d measured decisions, %d cores, OCaml %s\n%!" !workload
    !seed rounds ops (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let o : Harness.outcome =
    run ~seed:!seed ~rounds ~ops ~trace:(!trace = 1)
      ~spans_path:(Printf.sprintf ".perfbench_out/spans-%s.txt" !workload)
  in
  List.iter print_endline o.Harness.errors;
  List.iter
    (fun (x : Harness.metric) -> Printf.printf "%-45s %14.4f %s\n" x.Harness.name x.value x.unit_)
    o.metrics;
  print_endline
    (Harness.result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics);
  if not o.correct then exit 1
