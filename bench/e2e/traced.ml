(* The traced pass: one workload run in process through Mirror, with a span
   around every call pstream_run makes, then the per-layer numbers the
   library already exposes. Sequential and multi-query runs get
   per-operator times from a telemetry handle on a monotonic clock
   ([push_ns], [purge_round_ns]); sharded shards keep their default CPU
   clock, so only their counts are reported. Comparison runs (telemetry
   off, sequential baseline, uninstrumented shards) happen after the root
   span closes and are not part of it. *)

module Executor = Engine.Executor
module Telemetry = Engine.Telemetry
module Operator = Engine.Operator
module Metrics = Engine.Metrics
module Parallel_executor = Engine.Parallel_executor
module Multi_executor = Engine.Multi_executor

type outcome = {
  problem : string option;  (** a failed reference check *)
  root_ms : float;
  metrics : (string * float) list;  (** every per-layer metric but reconciliation *)
  per_operator : Obs.Json.t;
  spans : Spans.span list;
}

let ms ns = float_of_int ns /. 1e6

let time_ms f =
  let t0 = Spans.now_ns () in
  let v = f () in
  (v, ms (Spans.now_ns () - t0))

let hist_sum reg name =
  match List.assoc_opt name (Obs.Registry.histograms reg) with
  | Some h -> Obs.Histogram.sum h
  | None -> 0

let stat name alists =
  List.fold_left (fun acc al -> acc + Option.value ~default:0 (List.assoc_opt name al)) 0 alists

let fi = float_of_int

let counts alists =
  let rounds = stat "purge_rounds" alists and purged = stat "tuples_purged" alists in
  [
    ("mjoin.purge_rounds", fi rounds);
    ("mjoin.tuples_purged", fi purged);
    ("mjoin.purge_yield", if rounds = 0 then 0. else fi purged /. fi rounds);
    ("mjoin.tuples_in", fi (stat "tuples_in" alists));
    ("mjoin.tuples_out", fi (stat "tuples_out" alists));
    ("mjoin.puncts_dropped", fi (stat "puncts_dropped" alists));
  ]

let peaks m =
  [
    ("join_state.live_peak", fi (Metrics.peak_data_state m));
    ("join_state.index_peak", fi (Metrics.peak_index_state m));
    ("join_state.bytes_peak", fi (Metrics.peak_state_bytes m));
    ("punct_store.size_peak", fi (Metrics.peak_punct_state m));
  ]

(* (op, push_ns, purge_round_ns) per operator, from a registry *)
let op_times reg names =
  List.map (fun n -> (n, hist_sum reg (n ^ ".push_ns"), hist_sum reg (n ^ ".purge_round_ns"))) names

let push_metrics times =
  let push = List.fold_left (fun a (_, p, _) -> a + p) 0 times in
  let purge = List.fold_left (fun a (_, _, q) -> a + q) 0 times in
  ( ms push,
    [
      ("mjoin.push_ms", ms push);
      ("mjoin.purge_ms", ms purge);
      ("mjoin.probe_insert_ms", ms (push - purge));
    ] )

(* One object per operator: its counts, and its times when measured. *)
let per_operator names ?times alists =
  Obs.Json.List
    (List.map2
       (fun name al ->
         let timed =
           match Option.bind times (List.find_opt (fun (n, _, _) -> n = name)) with
           | Some (_, push, purge) ->
               [ ("push_ms", Obs.Json.Float (ms push)); ("purge_ms", Obs.Json.Float (ms purge)) ]
           | None -> []
         in
         Obs.Json.Obj
           ((("op", Obs.Json.String name) :: timed)
           @ List.map (fun (k, v) -> (k, Obs.Json.Int v)) al))
       names alists)

let run_span_names = [ "executor.run"; "parallel_executor.run"; "multi_executor.run" ]

(* The shard count the router metrics use on every workload: the sharded
   workload's own. *)
let route_shards = 2

(* Route the workload's input from outside the engine: time per element,
   share broadcast, and max / mean elements per shard. *)
let routing router elements =
  let routes, route_ms =
    time_ms (fun () -> Array.map (Engine.Shard_router.route_element router) elements)
  in
  let shards = Engine.Shard_router.shards router in
  let per_shard = Array.make shards 0 and broadcast = ref 0 in
  Array.iter
    (function
      | Engine.Shard_router.Local i -> per_shard.(i) <- per_shard.(i) + 1
      | Engine.Shard_router.Broadcast ->
          incr broadcast;
          Array.iteri (fun i c -> per_shard.(i) <- c + 1) per_shard)
    routes;
  let n = max 1 (Array.length elements) in
  let mean_shard = fi (Array.fold_left ( + ) 0 per_shard) /. fi shards in
  [
    ("shard_router.route_ns", route_ms *. 1e6 /. fi n);
    ("shard_router.broadcast_share", fi !broadcast /. fi n);
    ("shard_router.skew", fi (Array.fold_left max 0 per_shard) /. Float.max 1. mean_shard);
  ]

(* The ingest layers on an input pstream_run generates instead of loading
   (multi-query mode, the open loop): the same elements saved, loaded and
   checked after the root span. *)
let ingest ~path queries trace =
  let defs =
    List.concat_map Query.Cjq.stream_defs queries
    |> List.sort_uniq (fun a b ->
           String.compare (Streams.Stream_def.name a) (Streams.Stream_def.name b))
  in
  Streams.Trace_io.save ~path trace;
  let loaded, load_ms = time_ms (fun () -> Streams.Trace_io.load ~defs ~path) in
  let schemes = Streams.Scheme.Set.of_list (List.concat_map Streams.Stream_def.schemes defs) in
  let _, check_ms = time_ms (fun () -> Streams.Trace.check ~schemes loaded) in
  [
    ("trace_io.load_ms", load_ms);
    ("trace_io.bytes", fi (Unix.stat path).Unix.st_size);
    ("trace.check_ms", check_ms);
  ]

let run ~queries_dir ~trace_path ~seed ~shape ~sample_every ~run_id (w : Workloads.t) =
  let r = Spans.recorder run_id in
  let minor_words = ref 0. in
  (* spans, plus the minor words allocated inside the run span *)
  let timer =
    {
      Spans.span =
        (fun name f ->
          if List.mem name run_span_names then begin
            let w0 = Gc.minor_words () in
            let v = Spans.with_span r name f in
            minor_words := Gc.minor_words () -. w0;
            v
          end
          else Spans.with_span r name f);
    }
  in
  (* [metrics] come first, so they override the span totals *)
  let finish ~root_name ~problem metrics per_operator =
    let spans = Spans.spans r in
    let root = List.find (fun s -> s.Spans.name = root_name) spans in
    let total name = Spans.total_ms name spans in
    let from_spans =
      [
        ("query.parse_ms", total "query.parse");
        ("checker.check_ms", total "checker.check");
        ("planner.plan_ms", total "planner.plan");
        ("trace_io.load_ms", total "trace_io.load");
        ("trace.check_ms", total "trace.check");
        ("executor.compile_ms", total "executor.compile");
        ("executor.hash_ms", total "executor.hash");
        ( "trace.unattributed_share",
          fi (Spans.self_ns spans root) /. fi (max 1 (Spans.duration_ns root)) );
      ]
    in
    let metrics = metrics @ from_spans in
    {
      problem;
      root_ms = ms (Spans.duration_ns root);
      metrics =
        List.map
          (fun (name, _, _) -> (name, Option.value ~default:0. (List.assoc_opt name metrics)))
          (Workloads.per_layer @ Workloads.per_layer_local);
      per_operator;
      spans;
    }
  in
  match w.kind with
  | Workloads.Open_loop _ ->
      let o =
        Spans.with_span r "open_loop" (fun () ->
            Open_loop.run ~timer ~queries_dir ~seed ~shape ~sample_every w)
      in
      let alists = List.map (fun (_, s) -> Operator.stats_to_alist s) o.Open_loop.stats in
      let calls = Array.length o.feed_us in
      finish ~root_name:"open_loop"
        ~problem:(if Open_loop.ok o then None else Some "open-loop answer differs from the reference")
        ([
           ("executor.run_ms", o.busy_s *. 1e3);
           ( "executor.feed_batch_us_p50",
             Stats.percentile 0.5 (Array.to_list o.feed_us) );
           ("executor.batch_mean", if calls = 0 then 0. else fi o.elements /. fi calls);
           ("open_loop.gen_lag_max_ms", o.gen_lag_max_ms);
           ("open_loop.backlog_max", fi o.backlog_max);
           ("join_state.live_peak", fi o.peak_live);
           ("join_state.index_peak", fi o.peak_index);
           ("join_state.bytes_peak", fi o.peak_state_bytes);
           ("punct_store.size_peak", fi o.peak_puncts);
         ]
        @ counts alists
        @ routing (Engine.Shard_router.create ~shards:route_shards o.query) o.input
        @ ingest ~path:trace_path [ o.query ] (Array.to_list o.input))
        (per_operator (List.map fst o.stats) alists)
  | Workloads.Replay _ | Workloads.Multi _ -> (
      let inp = { Mirror.queries_dir; trace_path; shape; sample_every } in
      let prepared, executed =
        Spans.with_span r "pstream_run" (fun () ->
            let p = Mirror.prepare ~time_ns:Spans.now_ns timer w inp in
            (p, Mirror.execute timer inp p))
      in
      let expected = Reference.expected ~queries_dir ~seed ~shape w in
      let trace_bytes () = ("trace_io.bytes", fi (Unix.stat trace_path).Unix.st_size) in
      let span_ms name = Spans.total_ms name (Spans.spans r) in
      match (prepared, executed) with
      | Mirror.Seq { query; trace; compiled }, Mirror.Seq_done { result; hash; _ } ->
          let reg = Telemetry.registry (Executor.telemetry compiled) in
          let ops = Executor.operators ~c:compiled in
          let times = op_times reg (List.map (fun (op : Operator.t) -> op.name) ops) in
          let alists = List.map (fun (op : Operator.t) -> Operator.stats_to_alist (op.stats ())) ops in
          let push_ms, push = push_metrics times in
          let run_ms = span_ms "executor.run" in
          let (), null_ms =
            let c = Executor.compile ~config:(Executor.Config.make ~policy:Mirror.policy ()) query (Gen.plan query) in
            time_ms (fun () -> ignore (Executor.run ~sample_every ~label:trace_path c (List.to_seq trace)))
          in
          finish ~root_name:"pstream_run"
            ~problem:(Reference.mismatch expected [ ("", hash, result.Executor.emitted) ])
            ([
               trace_bytes ();
               ("executor.run_ms", run_ms);
               ("executor.run_self_ms", run_ms -. push_ms);
               ("executor.minor_words_per_el", !minor_words /. fi (max 1 result.Executor.consumed));
               ("telemetry.overhead_ratio", run_ms /. null_ms);
             ]
            @ push @ counts alists @ peaks result.Executor.metrics
            @ routing
                (Engine.Shard_router.create ~shards:route_shards query)
                (Array.of_list trace))
            (per_operator (List.map (fun (n, _, _) -> n) times) ~times alists)
      | ( Mirror.Sharded { query; trace; _ },
          Mirror.Sharded_done { pexec; result; hash } ) ->
          let shards, checkpoint_every =
            match w.kind with
            | Workloads.Replay { shards; checkpoint_every; _ } -> (shards, checkpoint_every)
            | _ -> assert false
          in
          let par_ms = span_ms "parallel_executor.run" in
          let report = Parallel_executor.report pexec result in
          let alists = List.map (fun (o : Obs.Report.operator_entry) -> o.stats) report.operators in
          let cuts =
            List.filter_map
              (fun (_, e) ->
                match e with
                | Obs.Event.Checkpoint { bytes; duration_ns; _ } -> Some (fi bytes, ms duration_ns)
                | _ -> None)
              (Parallel_executor.events pexec)
          in
          let (), seq_ms =
            let c =
              Executor.compile
                ~config:
                  (Executor.Config.make ~policy:Mirror.policy
                     ~telemetry:(Mirror.telemetry ~time_ns:Spans.now_ns ()) ())
                query (Gen.plan query)
            in
            time_ms (fun () -> ignore (Executor.run ~sample_every ~label:trace_path c (List.to_seq trace)))
          in
          let (), bare_ms =
            let p = Mirror.parallel ~instrument:false ~shards ~checkpoint_every inp query in
            time_ms (fun () -> ignore (Parallel_executor.run ~sample_every p (List.to_seq trace)))
          in
          let mean l = if l = [] then 0. else Stats.mean l in
          finish ~root_name:"pstream_run"
            ~problem:(Reference.mismatch expected [ ("", hash, result.Parallel_executor.emitted) ])
            ([
               trace_bytes ();
               ("telemetry.overhead_ratio", par_ms /. bare_ms);
               ("executor.run_ms", par_ms);
               ("parallel_executor.run_ms", par_ms);
               ("parallel_executor.speedup_vs_seq", seq_ms /. par_ms);
               ("parallel_executor.restarts", fi (Parallel_executor.crash_count pexec));
               ("checkpoint.cuts", fi (List.length cuts));
               ("checkpoint.bytes_mean", mean (List.map fst cuts));
               ("checkpoint.ms_mean", mean (List.map snd cuts));
             ]
            @ counts alists @ peaks result.Parallel_executor.metrics
            @ routing (Engine.Shard_router.create ~shards query) (Array.of_list trace))
            (per_operator
               (List.map (fun (o : Obs.Report.operator_entry) -> o.name) report.operators)
               alists)
      | Mirror.Multi { trace; _ }, Mirror.Multi_done { multi; result; telemetry } ->
          let queries =
            List.map
              (fun (e : Query.Query_registry.entry) -> e.query)
              (Query.Query_registry.entries (Multi_executor.registry multi))
          in
          let report = Multi_executor.report multi result in
          let names = List.map (fun (o : Obs.Report.operator_entry) -> o.name) report.operators in
          let alists = List.map (fun (o : Obs.Report.operator_entry) -> o.stats) report.operators in
          let times = op_times (Telemetry.registry telemetry) names in
          let push_ms, push = push_metrics times in
          let owned shared =
            List.fold_left
              (fun a (n, p, _) ->
                if String.starts_with ~prefix:"shared:" n = shared then a + p else a)
              0 times
          in
          let run_ms = span_ms "multi_executor.run" in
          (* Multi_executor.run hashes each query's outputs inside the run
             span; the same hashing, timed on its own *)
          let (), hash_ms =
            time_ms (fun () ->
                List.iter
                  (fun (_, (q : Multi_executor.query_result)) ->
                    ignore (Executor.output_hash q.outputs))
                  result.Multi_executor.per_query)
          in
          let (), null_ms =
            let m =
              Multi_executor.create
                ~config:(Executor.Config.make ~policy:Mirror.policy ())
                ~share:true (Multi_executor.registry multi)
            in
            time_ms (fun () ->
                ignore (Multi_executor.run ~sample_every ~label:"multi-query" m (List.to_seq trace)))
          in
          finish ~root_name:"pstream_run"
            ~problem:
              (Reference.mismatch expected
                 (List.map
                    (fun (qid, (q : Multi_executor.query_result)) -> (qid, q.hash, q.emitted))
                    result.Multi_executor.per_query))
            ([
               ("executor.run_ms", run_ms);
               ("executor.hash_ms", hash_ms);
               ("executor.run_self_ms", run_ms -. push_ms);
               ("executor.minor_words_per_el", !minor_words /. fi (max 1 result.Multi_executor.consumed));
               ("telemetry.overhead_ratio", run_ms /. null_ms);
               ("multi_executor.shared_push_ms", ms (owned true));
               ("multi_executor.residual_push_ms", ms (owned false));
               ( "multi_executor.groups",
                 fi (List.length (Multi_executor.plan multi).Core.Planner.groups) );
             ]
            @ push @ counts alists @ peaks result.Multi_executor.metrics
            @ routing
                (Engine.Shard_router.create_multi ~shards:route_shards queries)
                (Array.of_list trace)
            @ ingest ~path:trace_path queries trace)
            (per_operator names ~times alists)
      | _ -> invalid_arg "Traced.run: prepared and executed shapes differ")
