(* pbench: the end-to-end benchmark of bin/pstream_run.exe. See README.md
   in this directory for the workloads, metrics and commands. *)

open Cmdliner
open Pbench_lib

let workload_conv = Arg.enum (List.map (fun n -> (n, n)) Workloads.names)

let workloads =
  Arg.(
    value & opt_all workload_conv []
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Run only this workload (repeatable; default all): %s."
             (String.concat ", " Workloads.names)))

let seed =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Key offset and per-round permutation of the generated traces.")

let seconds =
  Arg.(
    value & opt float (float_of_int Workloads.run_seconds)
    & info [ "seconds" ] ~docv:"S"
        ~doc:
          "Measuring time per workload: runs repeat until it is spent (at least 3, \
           or 5 for tri_tiny and tri_lag_shards2). Every run has the workload's full \
           input.")

let repeats =
  Arg.(
    value
    & opt (some int) None
    & info [ "repeats" ] ~docv:"R" ~doc:"Make exactly R runs per workload instead.")

let trace =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~docv:"0|1"
        ~doc:
          "1 adds a traced in-process run after every untraced one: spans around every \
           pstream_run call and the per-layer metrics, checked against the untraced \
           wall time.")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Every workload at about 1% of its size, one untraced and one traced run \
           each, all reference checks, and the results file read back.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Results file (default in the work directory).")

let pstream_run =
  Arg.(
    value
    & opt string "_build/default/bin/pstream_run.exe"
    & info [ "pstream-run" ] ~docv:"PATH" ~doc:"The pstream_run executable to measure.")

let queries =
  Arg.(
    value & opt string "bench/e2e/queries"
    & info [ "queries" ] ~docv:"DIR" ~doc:"Directory of the benchmark's query files.")

let workdir =
  Arg.(
    value & opt string "bench/e2e/_work"
    & info [ "workdir" ] ~docv:"DIR" ~doc:"Where traces, child output and results go.")

let run ws seed seconds repeats trace smoke out pstream_run queries_dir workdir =
  let selected = List.filter (fun (w : Workloads.t) -> ws = [] || List.mem w.name ws) Workloads.all in
  Bench.main
    {
      Bench.workloads = selected;
      seed;
      seconds;
      repeats = (if smoke then Some 1 else repeats);
      traced = smoke || trace;
      smoke;
      out;
      pstream_run;
      queries_dir;
      workdir;
    }

let run_term =
  Term.(
    const run $ workloads $ seed $ seconds $ repeats $ trace $ smoke $ out $ pstream_run $ queries
    $ workdir)

let compare_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "BASE" else "NEW")) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two results files per (workload, metric): median and quartiles \
          against the bound; exits 1 on a regression.")
    Term.(const Compare.main $ file 0 $ file 1)

let child_cmd =
  let mode =
    Arg.(required & opt (some (enum [ ("open-loop", "open-loop"); ("traced", "traced") ])) None
         & info [ "mode" ])
  in
  let workload = Arg.(required & opt (some workload_conv) None & info [ "workload" ]) in
  let trace_file = Arg.(value & opt string "" & info [ "trace-file" ]) in
  let sample = Arg.(value & opt int 1000 & info [ "sample" ]) in
  let run_id = Arg.(value & opt string "" & info [ "run-id" ]) in
  let go mode name seed smoke queries_dir trace_path sample_every run_id =
    match Workloads.find name with
    | None -> 2
    | Some w -> Bench.child ~mode ~w ~seed ~smoke ~queries_dir ~trace_path ~sample_every ~run_id
  in
  Cmd.v
    (Cmd.info "child" ~doc:"One measured run in a fresh process (used by pbench itself).")
    Term.(const go $ mode $ workload $ seed $ smoke $ queries $ trace_file $ sample $ run_id)

let spec_cmd =
  Cmd.v
    (Cmd.info "spec" ~doc:"Print the BENCHMARK.json this benchmark defines.")
    Term.(
      const (fun () ->
          Fmt.pr "%a@." Obs.Json.pp (Workloads.benchmark_json ());
          0)
      $ const ())

let () =
  let info =
    Cmd.info "pbench" ~doc:"end-to-end benchmark of pstream_run over six workloads"
  in
  exit (Cmd.eval' (Cmd.group ~default:run_term info [ compare_cmd; spec_cmd; child_cmd ]))
