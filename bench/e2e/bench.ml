(* The benchmark's main loop: for each workload, write its seeded inputs, time
   its set-up in process, run it as child processes one at a time (closed
   loop: the next run starts when the previous one exits), check every run
   against the reference answer, and report the end-to-end metrics. The
   traced pass adds traced child runs and the per-layer numbers. *)

module J = Obs.Json

type config = {
  workloads : Workloads.t list;
  seed : int;
  seconds : float;  (** measuring time per workload *)
  repeats : int option;  (** fixed run count instead of [seconds] *)
  traced : bool;
  smoke : bool;
  out : string option;
  pstream_run : string;
  queries_dir : string;
  workdir : string;
}

let say fmt = Fmt.pr (fmt ^^ "@.")
let warn fmt = Fmt.epr (fmt ^^ "@.")
let sample_every cfg = if cfg.smoke then 50 else 1000
let shape cfg (w : Workloads.t) = if cfg.smoke then w.smoke else w.shape
let now_s () = float_of_int (Spans.now_ns ()) /. 1e9

(* --- inputs --------------------------------------------------------------- *)

type inputs = {
  deadline : float;  (** a child still running then is killed and fails *)
  expected : Reference.t list;  (** empty for the open loop *)
  mirror : Mirror.inputs;
  report_path : string;
  stderr_path : string;
}

let make_inputs cfg (w : Workloads.t) =
  let shape = shape cfg w in
  let file name = Filename.concat cfg.workdir name in
  let tag = Printf.sprintf "seed%d%s" cfg.seed (if cfg.smoke then "-smoke" else "") in
  let trace_path = file (Printf.sprintf "%s-%s.trace" w.trace_of tag) in
  (match w.kind with
  | Workloads.Replay { query; _ } ->
      let q = Query.Parser.parse_file (Filename.concat cfg.queries_dir query) in
      Streams.Trace_io.save ~path:trace_path
        (Gen.round_trace ~seed:cfg.seed (Query.Cjq.stream_defs q) shape)
  | Workloads.Multi _ | Workloads.Open_loop _ -> ());
  {
    (* 170 s after the workload started: one workload stays within 3 min *)
    deadline = Unix.gettimeofday () +. 170.;
    expected =
      (match w.kind with
      | Workloads.Open_loop _ -> []
      | _ -> Reference.expected ~queries_dir:cfg.queries_dir ~seed:cfg.seed ~shape w);
    mirror =
      { Mirror.queries_dir = cfg.queries_dir; trace_path; shape; sample_every = sample_every cfg };
    report_path = file (Printf.sprintf "%s-%s.report.json" w.name tag);
    stderr_path = file (Printf.sprintf "%s-%s.stderr" w.name tag);
  }

(* --- one run ---------------------------------------------------------------- *)

type sample = {
  problem : string option;
  wall_s : float;
  rss_mb : float;
  throughput : float;  (** input elements per second of engine time *)
  open_latency : (float * float) option;  (** open loop: this run's p50, p99 *)
  detail : (string * J.t) list;
  peak_state_bytes : float;
  peak_puncts : float;
}

(* A child's input is the workload's shape alone: how long or how often
   pbench measures never changes it. *)
let self_argv cfg ~mode ~(w : Workloads.t) ~run_id inp =
  [
    Sys.executable_name; "child"; "--mode"; mode; "--workload"; w.name; "--seed";
    string_of_int cfg.seed; "--queries"; cfg.queries_dir; "--trace-file";
    inp.mirror.Mirror.trace_path; "--sample"; string_of_int (sample_every cfg); "--run-id"; run_id;
  ]
  @ if cfg.smoke then [ "--smoke" ] else []

let pstream_argv cfg (w : Workloads.t) inp =
  let q f = Filename.concat cfg.queries_dir f in
  let sample = [ "--sample"; string_of_int (sample_every cfg) ] in
  match w.kind with
  | Workloads.Replay { query; shards; checkpoint_every } ->
      [ cfg.pstream_run; q query; "--replay"; inp.mirror.Mirror.trace_path ]
      @ sample
      @ (if shards > 1 then [ "--shards"; string_of_int shards ] else [])
      @ Option.fold ~none:[] ~some:(fun k -> [ "--checkpoint-every"; string_of_int k ]) checkpoint_every
  | Workloads.Multi { queries } ->
      let s = inp.mirror.Mirror.shape in
      (cfg.pstream_run :: List.concat_map (fun f -> [ "--query"; q f ]) queries)
      @ [ "--rounds"; string_of_int s.Gen.rounds; "--fanin"; string_of_int s.Gen.fanin;
          "--lag"; string_of_int s.Gen.lag ]
      @ sample @ [ "--report"; inp.report_path ]
  | Workloads.Open_loop _ -> invalid_arg "pstream_argv: the open loop runs in pbench"

let status_problem (o : Child.outcome) =
  if o.timed_out then Some "timed out"
  else
    match o.status with
    | Unix.WEXITED 0 -> None
    | st -> Some (Child.describe_status st)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let first_some l = List.find_map Fun.id l

let run_pstream cfg w inp =
  (try Sys.remove inp.report_path with Sys_error _ -> ());
  let o =
    Child.run ~stderr_path:inp.stderr_path ~deadline:inp.deadline
      (Array.of_list (pstream_argv cfg w inp))
  in
  let out = Run_output.parse o.stdout in
  let series_peaks =
    match w.kind with
    | Workloads.Multi _ -> (
        (* the multi-query mode prints no series; its report has one *)
        match Jsonw.read_file inp.report_path with
        | Ok j ->
            let rows = Jsonw.list (Jsonw.member "series" j) in
            let peak k =
              List.fold_left (fun a r -> Float.max a (Jsonw.num (Jsonw.member k r))) 0. rows
            in
            (peak "state_bytes", peak "punct_state")
        | Error _ | (exception Sys_error _) -> (0., 0.))
    | _ ->
        ( float_of_int (Run_output.peak (fun s -> s.Run_output.bytes) out.series),
          float_of_int (Run_output.peak (fun s -> s.Run_output.puncts) out.series) )
  in
  let answers =
    match w.kind with
    | Workloads.Multi _ ->
        List.map (fun q -> (q.Run_output.qid, q.q_hash, q.q_emitted)) out.queries
    | _ -> (
        match (out.hash, out.emitted) with
        | Some h, Some e -> [ ("", h, e) ]
        | _ -> [])
  in
  let consumed = Option.value out.consumed ~default:0 in
  {
    problem =
      first_some
        [
          status_problem o;
          (if out.alarms > 0 then Some "watchdog alarm" else None);
          (if consumed = 0 then Some "no consumed count" else None);
          Reference.mismatch inp.expected answers;
        ];
    wall_s = o.wall_s;
    rss_mb = float_of_int o.peak_rss_kb /. 1024.;
    throughput = float_of_int consumed /. o.wall_s;
    open_latency = None;
    detail = [ ("elements", J.Int consumed) ];
    peak_state_bytes = fst series_peaks;
    peak_puncts = snd series_peaks;
  }

(* Run [pbench child --mode MODE]: its last stdout line is one JSON object
   whose [ok] says whether the run passed its reference check. *)
let run_self cfg w inp ~mode ~run_id =
  let o =
    Child.run ~stderr_path:inp.stderr_path ~deadline:inp.deadline
      (Array.of_list (self_argv cfg ~mode ~w ~run_id inp))
  in
  let reply =
    match (status_problem o, J.parse (last_line o.stdout)) with
    | Some p, _ -> Error p
    | None, Error e -> Error ("unreadable child output: " ^ e)
    | None, Ok j when Jsonw.member "ok" j = J.Bool true -> Ok j
    | None, Ok j -> Error (Jsonw.str (Jsonw.member "problem" j))
  in
  (o, reply)

let run_open_loop cfg w inp =
  let o, reply = run_self cfg w inp ~mode:"open-loop" ~run_id:"" in
  match reply with
  | Ok j ->
      let f k = Jsonw.num (Jsonw.member k j) in
      {
        problem = None;
        wall_s = o.wall_s;
        rss_mb = float_of_int o.peak_rss_kb /. 1024.;
        throughput = f "elements" /. f "busy_s";
        open_latency = Some (f "p50_ms", f "p99_ms");
        detail =
          List.filter_map
            (fun k -> Option.map (fun v -> (k, v)) (J.member k j))
            [ "elements"; "results"; "n"; "p999_ms"; "gen_lag_max_ms"; "backlog_max"; "busy_s" ];
        peak_state_bytes = f "peak_state_bytes";
        peak_puncts = f "peak_puncts";
      }
  | Error p ->
      {
        problem = Some p;
        wall_s = o.wall_s;
        rss_mb = 0.;
        throughput = 0.;
        open_latency = None;
        detail = [];
        peak_state_bytes = 0.;
        peak_puncts = 0.;
      }

(* --- repetition --------------------------------------------------------- *)

(* Runs [one] at least [min_runs] times, then while another run of the
   mean length so far still ends within the budget; or exactly [repeats]
   times when that is set. *)
let repeat cfg ~min_runs ~budget one =
  let t0 = now_s () in
  let rec go acc i =
    let elapsed = now_s () -. t0 in
    let more =
      match cfg.repeats with
      | Some r -> i < r
      | None -> i < min_runs || elapsed +. (elapsed /. float_of_int i) <= budget
    in
    if more then go (one i :: acc) (i + 1) else List.rev acc
  in
  go [] 0

(* One batch of in-process set-ups: the calls pstream_run makes before the
   first element enters the engine, after one full major GC, repeated
   until 20 ms have passed (at least once, at most 200 times). A batch
   runs before every child run, so set-up samples span the same window of
   host noise as the runs they are compared with. *)
let setup_batch cfg w inp =
  Gc.full_major ();
  let t0 = now_s () in
  let rec go acc n =
    if n >= 1 && (cfg.smoke || n >= 200 || now_s () -. t0 > 0.02) then acc
    else begin
      let s = now_s () in
      ignore (Mirror.prepare Spans.untimed w inp.mirror);
      go ((now_s () -. s) :: acc) (n + 1)
    end
  in
  go [] 0

(* --- traced runs --------------------------------------------------------------- *)

type traced_run = {
  t_problem : string option;
  root_ms : float;
  t_metrics : (string * float) list;
  t_operators : J.t;
  t_spans : Spans.span list;
}

let run_traced_child cfg w inp ~run_id =
  match snd (run_self cfg w inp ~mode:"traced" ~run_id) with
  | Ok j ->
      {
        t_problem = None;
        root_ms = Jsonw.num (Jsonw.member "root_ms" j);
        t_metrics = List.map (fun (k, v) -> (k, Jsonw.num v)) (Jsonw.obj (Jsonw.member "metrics" j));
        t_operators = Jsonw.member "per_operator" j;
        t_spans = List.filter_map Spans.of_json (Jsonw.list (Jsonw.member "spans" j));
      }
  | Error p ->
      { t_problem = Some p; root_ms = Float.nan; t_metrics = []; t_operators = J.Null; t_spans = [] }

(* --- results --------------------------------------------------------------- *)

type result = {
  w : Workloads.t;
  runs : int;  (** untraced runs, the samples of the end-to-end metrics *)
  attempted : int;
  failed : int;
  problems : string list;
  wall_s : float;
  e2e : (Workloads.metric * float * float list) list;  (** metric, value, samples *)
  detail : (string * J.t) list;
  layers : (string * string * float) list;  (** traced pass: name, unit, value *)
  operators : J.t;  (** traced pass: per-operator times and counts of one run *)
  reconcile : (float * float) option;  (** traced root ms, untraced wall ms *)
  spans : Spans.span list;
}

(* A metric sampled once per child run reports its best run: the highest
   throughput, the lowest RSS. Host noise only slows a run, and on the
   reference host it comes as x1.7 slowdowns lasting up to ~12 s, which a
   median over one 15 s window does not reject (see README.md). *)
let best (m : Workloads.metric) samples =
  match samples with
  | [] -> Float.nan
  | x :: xs -> List.fold_left (match m.better with Higher -> Float.max | Lower -> Float.min) x xs

(* setup_s reports the fast decile of its hundreds of set-ups. Most of
   them run cold, right after a child run, so their median moved by up to
   58% between ten-seed passes; the fastest set-up falls as a faster host
   fits more of them into the measuring time (see README.md). *)
let setup_value samples = Stats.percentile 0.1 samples

let e2e_metrics (w : Workloads.t) ~setup samples =
  let good = List.filter (fun s -> s.problem = None) samples in
  let get f = List.map f good in
  let latency pick = get (fun s -> Option.fold ~none:Float.nan ~some:pick s.open_latency) in
  let per_run = function
    | "throughput_eps" -> get (fun s -> s.throughput)
    | "peak_rss_mb" -> get (fun s -> s.rss_mb)
    | "peak_state_bytes" -> get (fun s -> s.peak_state_bytes)
    | "peak_puncts" -> get (fun s -> s.peak_puncts)
    | "latency_p50_ms" -> latency fst
    | "latency_p99_ms" -> latency snd
    | m -> invalid_arg ("e2e_metrics: no samples for " ^ m)
  in
  List.map
    (fun (m : Workloads.metric) ->
      if m.m_name = "setup_s" then (m, setup_value setup, setup)
      else
        let samples = per_run m.m_name in
        (m, best m samples, samples))
    (Workloads.metrics_of w)

(* Per-layer values: the median over the traced runs; the reconciliation
   ratio compares their root span with the untraced wall time. *)
let layer_values traced ~root ~wall =
  List.map
    (fun (name, unit_, _) ->
      let v =
        if name = "trace.reconcile_ratio" then root /. wall
        else
          Stats.median
            (List.map (fun r -> Option.value ~default:0. (List.assoc_opt name r.t_metrics)) traced)
      in
      (name, unit_, v))
    (Workloads.per_layer @ Workloads.per_layer_local)

(* A workload's runs. Each step is a set-up batch and one untraced run,
   then, in the traced pass, one traced run: alternating the two keeps
   host-speed drift out of their comparison. *)
let run_workload cfg (w : Workloads.t) =
  let t0 = now_s () in
  let inp = make_inputs cfg w in
  let setup = ref [] in
  let step i =
    setup := setup_batch cfg w inp @ !setup;
    let u =
      match w.kind with
      | Workloads.Open_loop _ -> run_open_loop cfg w inp
      | _ -> run_pstream cfg w inp
    in
    let t =
      if cfg.traced then
        Some
          (run_traced_child cfg w inp
             ~run_id:(Printf.sprintf "%s#seed%d#%d" w.name cfg.seed (i + 1)))
      else None
    in
    (u, t)
  in
  let steps = repeat cfg ~min_runs:w.min_runs ~budget:cfg.seconds step in
  let untraced = List.map fst steps and traced = List.filter_map snd steps in
  let problems =
    List.concat
      (List.mapi
         (fun i (u, t) ->
           let tag kind p = Printf.sprintf "%s %d: %s" kind (i + 1) p in
           Option.to_list (Option.map (tag "run") u.problem)
           @ Option.to_list (Option.bind t (fun t -> Option.map (tag "traced run") t.t_problem)))
         steps)
  in
  let good_traced = List.filter (fun r -> r.t_problem = None) traced in
  let reconcile =
    if cfg.traced then
      Some
        ( Stats.median (List.map (fun r -> r.root_ms) good_traced),
          Stats.median
            (List.filter_map
               (fun s -> if s.problem = None then Some (s.wall_s *. 1e3) else None)
               untraced) )
    else None
  in
  {
    w;
    runs = List.length untraced;
    attempted = List.length untraced + List.length traced;
    failed = List.length problems;
    problems;
    wall_s = now_s () -. t0;
    e2e = e2e_metrics w ~setup:!setup untraced;
    detail =
      (match List.find_opt (fun s -> s.problem = None) untraced with
      | Some s -> s.detail
      | None -> []);
    layers =
      (match reconcile with
      | Some (root, wall) -> layer_values good_traced ~root ~wall
      | None -> []);
    operators =
      (match good_traced with r :: _ -> r.t_operators | [] -> J.Null);
    reconcile;
    spans = List.concat_map (fun r -> r.t_spans) traced;
  }

(* --- output ------------------------------------------------------------------- *)

let value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let print_result cfg r =
  let loop =
    match r.w.kind with
    | Workloads.Open_loop { rate; _ } -> Printf.sprintf "open loop at %d el/s" rate
    | _ -> "closed loop, 1 client"
  in
  say "%s (%s; %d runs, %d failed, seed %d, %.1f s)" r.w.name loop r.attempted r.failed cfg.seed
    r.wall_s;
  List.iter (fun p -> say "  FAILED %s" p) r.problems;
  List.iter
    (fun ((m : Workloads.metric), v, samples) ->
      let q1, _, q3 = Stats.quartiles samples in
      say "  %-18s %12s %-6s q1 %s  q3 %s  n %d  %s" m.m_name (value v) m.unit_ (value q1)
        (value q3) (List.length samples)
        (if m.gated then Printf.sprintf "bound %g%%" (100. *. m.bound) else "(not gated)"))
    r.e2e;
  if r.layers <> [] then begin
    (match r.reconcile with
    | Some (root, wall) ->
        let ratio = root /. wall in
        say "  reconcile: traced root %.1f ms vs untraced wall %.1f ms = %.3f (%s)" root wall ratio
          (if Float.abs (ratio -. 1.) <= 0.05 then "within 5%" else "OUTSIDE 5%")
    | None -> ());
    List.iter
      (fun (name, unit_, v) -> if v <> 0. then say "  %-32s %12s %s" name (value v) unit_)
      r.layers
  end

let metric_json ((m : Workloads.metric), v, samples) =
  let q1, q2, q3 = Stats.quartiles samples in
  ( m.m_name,
    J.Obj
      [
        ("unit", J.String m.unit_);
        ("better", J.String (Workloads.better_to_string m.better));
        ("bound", J.Float m.bound);
        ("gated", J.Bool m.gated);
        ("value", J.Float v);
        ("median", J.Float q2);
        ("q1", J.Float q1);
        ("q3", J.Float q3);
        ("samples", Jsonw.floats samples);
      ] )

let result_json r =
  let failed_share = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  J.Obj
    ([
       ("name", J.String r.w.name);
       ("why", J.String r.w.why);
       ("runs", J.Int r.runs);
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("problems", J.List (List.map (fun p -> J.String p) r.problems));
       ("wall_s", J.Float r.wall_s);
       ("detail", J.Obj r.detail);
       ( "metrics",
         J.Obj
           (List.map metric_json r.e2e
           @ [ metric_json (Workloads.failed_runs, failed_share, [ failed_share ]) ]) );
     ]
    @
    match r.reconcile with
    | None -> []
    | Some (root, wall) ->
        [
          ( "reconcile",
            J.Obj
              [
                ("root_ms", J.Float root);
                ("untraced_wall_ms", J.Float wall);
                ("ratio", J.Float (root /. wall));
                ("within_5pct", J.Bool (Float.abs ((root /. wall) -. 1.) <= 0.05));
              ] );
          ( "layers",
            J.Obj
              (List.map
                 (fun (n, u, v) -> (n, J.Obj [ ("unit", J.String u); ("value", J.Float v) ]))
                 r.layers) );
          ("operators", r.operators);
        ])

let results_json cfg ~wall_s results =
  J.Obj
    [
      ("schema", J.String "pbench/1");
      ("mode", J.String (if cfg.smoke then "smoke" else if cfg.traced then "traced" else "untraced"));
      ("seed", J.Int cfg.seed);
      ("seconds", J.Float cfg.seconds);
      ("repeats", match cfg.repeats with Some r -> J.Int r | None -> J.Null);
      ("host", Host.to_json ~pstream_run:cfg.pstream_run);
      ("wall_s", J.Float wall_s);
      ("workloads", J.List (List.map result_json results));
    ]

(* The last stdout line: one JSON object with [correct], [attempted],
   [failed] and the metrics — gated end-to-end ones untraced, per-layer
   ones traced — keyed by name (by workload/name when several workloads
   ran). *)
let summary_json cfg results =
  let single = List.length results = 1 in
  let key r n = if single then n else r.w.name ^ "/" ^ n in
  let entry v u = J.Obj [ ("value", J.Float v); ("unit", J.String u) ] in
  let metrics =
    List.concat_map
      (fun r ->
        if cfg.traced then
          List.filter_map
            (fun (n, u, _) ->
              Option.map
                (fun (_, _, v) -> (key r n, entry v u))
                (List.find_opt (fun (n', _, _) -> n' = n) r.layers))
            Workloads.per_layer
        else
          List.filter_map
            (fun ((m : Workloads.metric), v, _) ->
              if m.gated then Some (key r m.m_name, entry v m.unit_) else None)
            r.e2e)
      results
  in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  J.Obj
    [
      ("correct", J.Bool (failed = 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("metrics", J.Obj metrics);
    ]

(* The smoke's read-back: the written file parses and carries every metric
   of every workload as a number. *)
let check_results_file path cfg =
  match Jsonw.read_file path with
  | Error e -> Error ("results file does not parse: " ^ e)
  | Ok j ->
      let ws = Jsonw.list (Jsonw.member "workloads" j) in
      let missing =
        List.concat_map
          (fun (w : Workloads.t) ->
            match List.find_opt (fun o -> Jsonw.str (Jsonw.member "name" o) = w.name) ws with
            | None -> [ w.name ]
            | Some o ->
                let num_at section names field =
                  List.filter_map
                    (fun n ->
                      match J.to_float (Jsonw.member field (Jsonw.member n (Jsonw.member section o))) with
                      | Some f when Float.is_finite f -> None
                      | _ -> Some (w.name ^ "/" ^ n))
                    names
                in
                num_at "metrics"
                  (List.map (fun (m : Workloads.metric) -> m.m_name) (Workloads.metrics_of w))
                  "value"
                @
                if cfg.traced then num_at "layers" (List.map (fun (n, _, _) -> n) Workloads.per_layer) "value"
                else [])
          cfg.workloads
      in
      if missing = [] then Ok () else Error ("missing or non-numeric: " ^ String.concat ", " missing)

(* --- child processes of pbench itself ------------------------------------ *)

(* [pbench child --mode open-loop|traced ...]: one run in a fresh process,
   printing one JSON object as its last stdout line. *)
let child ~mode ~(w : Workloads.t) ~seed ~smoke ~queries_dir ~trace_path ~sample_every ~run_id =
  let shape = if smoke then w.smoke else w.shape in
  let problem = function
    | None -> [ ("ok", J.Bool true) ]
    | Some p -> [ ("ok", J.Bool false); ("problem", J.String p) ]
  in
  let json =
    match mode with
    | "open-loop" ->
        let o = Open_loop.run ~timer:Spans.untimed ~queries_dir ~seed ~shape ~sample_every w in
        let lat = Array.to_list o.Open_loop.latencies_ms in
        J.Obj
          (problem (if Open_loop.ok o then None else Some "open-loop answer differs from the reference")
          @ [
              ("elements", J.Int o.elements);
              ("results", J.Int o.results);
              ("busy_s", J.Float o.busy_s);
              ("n", J.Int (List.length lat));
              ("p50_ms", J.Float (Stats.percentile 0.5 lat));
              ("p99_ms", J.Float (Stats.percentile 0.99 lat));
              ("p999_ms", J.Float (Stats.percentile 0.999 lat));
              ("gen_lag_max_ms", J.Float o.gen_lag_max_ms);
              ("backlog_max", J.Int o.backlog_max);
              ("peak_state_bytes", J.Int o.peak_state_bytes);
              ("peak_puncts", J.Int o.peak_puncts);
            ])
    | "traced" ->
        let t = Traced.run ~queries_dir ~trace_path ~seed ~shape ~sample_every ~run_id w in
        J.Obj
          (problem t.Traced.problem
          @ [
              ("root_ms", J.Float t.root_ms);
              ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) t.metrics));
              ("per_operator", t.per_operator);
              ("spans", J.List (List.map Spans.to_json t.spans));
            ])
    | m -> invalid_arg ("unknown child mode " ^ m)
  in
  print_endline (Jsonw.to_string json);
  0

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  go dir

let main cfg =
  if not (Sys.file_exists cfg.pstream_run) then begin
    warn "pbench: %s not found; build it with: dune build bin/pstream_run.exe" cfg.pstream_run;
    2
  end
  else begin
    mkdir_p cfg.workdir;
    let t0 = now_s () in
    let results =
      List.map
        (fun w ->
          let r = run_workload cfg w in
          if cfg.smoke then begin
            say "%s: %d runs, %d failed" r.w.name r.attempted r.failed;
            List.iter (fun p -> say "  FAILED %s" p) r.problems
          end
          else print_result cfg r;
          r)
        cfg.workloads
    in
    let out =
      match cfg.out with
      | Some p -> p
      | None ->
          Filename.concat cfg.workdir
            (if cfg.smoke then "smoke.json" else if cfg.traced then "traced.json" else "results.json")
    in
    Jsonw.write_file out (results_json cfg ~wall_s:(now_s () -. t0) results);
    say "results written to %s" out;
    if cfg.traced then begin
      let spans_path = Filename.remove_extension out ^ ".spans.jsonl" in
      let oc = open_out spans_path in
      List.iter
        (fun r ->
          List.iter
            (fun s ->
              output_string oc (Jsonw.to_string (Spans.to_json s));
              output_char oc '\n')
            r.spans)
        results;
      close_out oc;
      say "spans written to %s" spans_path
    end;
    let failed = List.exists (fun r -> r.failed > 0) results in
    if cfg.smoke then
      match check_results_file out cfg with
      | Ok () when not failed ->
          say "smoke OK: every reference check passed and %s reads back" out;
          0
      | Ok () -> 1
      | Error e ->
          warn "pbench: %s" e;
          1
    else begin
      print_endline (Jsonw.to_string (summary_json cfg results));
      if failed then 1 else 0
    end
  end
