(* The six workloads and the metrics the benchmark reports on them.

   Input axes: live-state size (lag 60 keeps ~900 live tuples, lag 0 keeps
   at most 3) and punctuation kind (per-key constants, which pile up in the
   punctuation store, against watermarks, which subsume each other). The
   sharded, shared and open-loop workloads each exercise one more layer
   with the same query family. *)

type kind =
  | Replay of { query : string; shards : int; checkpoint_every : int option }
      (** [pstream_run QUERY --replay TRACE], closed loop, one client *)
  | Multi of { queries : string list }
      (** [pstream_run --query A --query B --rounds .. --fanin .. --lag ..]:
          the multi-query mode has no replay and generates its own input *)
  | Open_loop of { query : string; rate : int; batch_cap : int }
      (** in a child process of pbench: elements fed on a fixed schedule to
          [Executor.feed_batch] *)

type t = {
  name : string;
  why : string;
  kind : kind;
  shape : Gen.shape;  (** full size: one run's input *)
  smoke : Gen.shape;  (** about 1% of the full size *)
  trace_of : string;  (** whose trace file a replay reads *)
  min_runs : int;
}

let tri_lag_shape = { Gen.rounds = 100; fanin = 5; lag = 60 }
let tri_lag_smoke = { Gen.rounds = 6; fanin = 5; lag = 1 }

let all =
  [
    {
      name = "tri_lag";
      why =
        "fig5 triangle replay with ~900 live tuples: probe, insert and purge \
         dominate; the single-threaded baseline for tri_lag_shards2";
      kind = Replay { query = "triangle.query"; shards = 1; checkpoint_every = None };
      shape = tri_lag_shape;
      smoke = tri_lag_smoke;
      trace_of = "tri_lag";
      min_runs = 3;
    };
    {
      name = "tri_tiny";
      why =
        "same query as tri_lag with at most 3 live tuples: ingest, trace \
         check and per-element overhead dominate; join-state work is \
         bypassed";
      kind = Replay { query = "triangle.query"; shards = 1; checkpoint_every = None };
      shape = { Gen.rounds = 1000; fanin = 1; lag = 0 };
      smoke = { Gen.rounds = 30; fanin = 1; lag = 0 };
      trace_of = "tri_tiny";
      min_runs = 5;
    };
    {
      name = "tri_wm";
      why =
        "tri_lag's join work with watermark punctuations, so the punctuation \
         store stays O(1): separates punctuation-store costs from join costs";
      kind =
        Replay { query = "triangle_wm.query"; shards = 1; checkpoint_every = None };
      shape = tri_lag_shape;
      smoke = tri_lag_smoke;
      trace_of = "tri_wm";
      min_runs = 3;
    };
    {
      name = "tri_lag_shards2";
      why =
        "tri_lag's trace on 2 shards with checkpoints every 2 grid points: \
         shard router, SPSC queues, barriers, merge and checkpoint cuts";
      kind =
        Replay { query = "triangle.query"; shards = 2; checkpoint_every = Some 2 };
      shape = tri_lag_shape;
      smoke = tri_lag_smoke;
      trace_of = "tri_lag";
      min_runs = 5;
    };
    {
      name = "star_shared";
      why =
        "two star queries sharing an R-S sub-join in the multi-query executor; \
         its cost grows quadratically with input length";
      kind = Multi { queries = [ "star_rst.query"; "star_rsu.query" ] };
      shape = { Gen.rounds = 70; fanin = 5; lag = 60 };
      smoke = { Gen.rounds = 6; fanin = 5; lag = 1 };
      trace_of = "star_shared";
      min_runs = 3;
    };
    {
      name = "tri_open_loop";
      why =
        "tri_lag's fanin and lag, 12000 elements fed open-loop at 5000 el/s in \
         batches of up to 256 with telemetry off: the only per-result latency \
         measurement";
      kind = Open_loop { query = "triangle.query"; rate = 5000; batch_cap = 256 };
      (* 12,000 elements: 2.4 s at 5000 el/s, whatever the measuring time *)
      shape = { tri_lag_shape with Gen.rounds = 400 };
      smoke = tri_lag_smoke;
      trace_of = "tri_open_loop";
      min_runs = 3;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

(* --- metrics ------------------------------------------------------------ *)

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

type metric = {
  m_name : string;
  unit_ : string;
  better : better;
  bound : float;
  gated : bool;
      (** a worsening beyond the bound is a regression; the gated
          end-to-end metrics are the ones BENCHMARK.json and the summary
          line list *)
}

(* End-to-end metrics of every workload, measured with tracing off.
   [bound] is the share of the parent's median by which the metric may
   worsen: the one bound BENCHMARK.json carries and [pbench compare]
   applies to every workload. Deterministic counts get 0. *)
let end_to_end =
  [
    { m_name = "throughput_eps"; unit_ = "el/s"; better = Higher; bound = 0.25; gated = true };
    { m_name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25; gated = true };
    { m_name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.15; gated = true };
    { m_name = "peak_state_bytes"; unit_ = "bytes"; better = Lower; bound = 0.; gated = true };
    { m_name = "peak_puncts"; unit_ = "count"; better = Lower; bound = 0.; gated = true };
  ]

(* Per-result latency, which only the open loop measures: a closed-loop
   run's latency would be its wall time, which throughput_eps already
   states. Reported, not gated: BENCHMARK.json can only gate a metric of
   every workload, and p99 spread 48-70% over ten seeds on a shared
   2-vCPU host (minor-GC pauses of 2-20 ms land on about 1% of results). *)
let latency =
  [
    { m_name = "latency_p50_ms"; unit_ = "ms"; better = Lower; bound = 0.25; gated = false };
    { m_name = "latency_p99_ms"; unit_ = "ms"; better = Lower; bound = 0.25; gated = false };
  ]

let metrics_of w =
  match w.kind with Open_loop _ -> end_to_end @ latency | Replay _ | Multi _ -> end_to_end

(* Reported beside the end-to-end metrics but carried by the summary
   line's [attempted]/[failed] counts rather than as a metric: it is 0 on
   every healthy run. *)
let failed_runs =
  { m_name = "failed_runs"; unit_ = "share"; better = Lower; bound = 0.; gated = true }

(* Per-layer metrics from the traced pass, named by module: (name, unit,
   which way is better). [per_layer] is measured on every workload — a
   timing whose layer a workload's path skips is taken on the same input
   after the root span — and is what BENCHMARK.json and the traced summary
   line list. Counts a workload cannot have read 0. *)
let per_layer =
  [
    ("query.parse_ms", "ms", Lower);
    ("checker.check_ms", "ms", Lower);
    ("trace_io.load_ms", "ms", Lower);
    ("trace_io.bytes", "bytes", Lower);
    ("trace.check_ms", "ms", Lower);
    ("executor.compile_ms", "ms", Lower);
    ("executor.run_ms", "ms", Lower);
    ("executor.hash_ms", "ms", Lower);
    ("executor.minor_words_per_el", "words/el", Lower);
    ("executor.batch_mean", "count", Higher);
    ("telemetry.overhead_ratio", "ratio", Lower);
    ("mjoin.purge_rounds", "count", Lower);
    ("mjoin.tuples_purged", "count", Lower);
    ("mjoin.purge_yield", "ratio", Higher);
    ("mjoin.tuples_in", "count", Lower);
    ("mjoin.tuples_out", "count", Lower);
    ("mjoin.puncts_dropped", "count", Lower);
    ("join_state.live_peak", "count", Lower);
    ("join_state.index_peak", "count", Lower);
    ("join_state.bytes_peak", "bytes", Lower);
    ("punct_store.size_peak", "count", Lower);
    ("shard_router.route_ns", "ns", Lower);
    ("shard_router.broadcast_share", "ratio", Lower);
    ("shard_router.skew", "ratio", Lower);
    ("parallel_executor.speedup_vs_seq", "ratio", Higher);
    ("parallel_executor.restarts", "count", Lower);
    ("checkpoint.cuts", "count", Lower);
    ("checkpoint.bytes_mean", "bytes", Lower);
    ("multi_executor.groups", "count", Lower);
    ("open_loop.backlog_max", "count", Lower);
    ("trace.unattributed_share", "ratio", Lower);
    ("trace.reconcile_ratio", "ratio", Lower);
  ]

(* Timings of layers only some workloads run, in the results file only:
   0 on every run of the others would read as a constant time. *)
let per_layer_local =
  [
    ("planner.plan_ms", "ms", Lower);
    ("executor.run_self_ms", "ms", Lower);
    ("executor.feed_batch_us_p50", "us", Lower);
    ("mjoin.push_ms", "ms", Lower);
    ("mjoin.purge_ms", "ms", Lower);
    ("mjoin.probe_insert_ms", "ms", Lower);
    ("parallel_executor.run_ms", "ms", Lower);
    ("checkpoint.ms_mean", "ms", Lower);
    ("multi_executor.shared_push_ms", "ms", Lower);
    ("multi_executor.residual_push_ms", "ms", Lower);
    ("open_loop.gen_lag_max_ms", "ms", Lower);
  ]

(* --- BENCHMARK.json ------------------------------------------------------ *)

let run_seconds = 15

(* The BENCHMARK.json this benchmark defines ([pbench spec] prints it; a
   test keeps the file at the repository root equal to it). *)
let benchmark_json () =
  let module J = Obs.Json in
  let metric name unit_ better extra =
    J.Obj
      ([
         ("name", J.String name);
         ("unit", J.String unit_);
         ("better", J.String (better_to_string better));
       ]
      @ extra)
  in
  J.Obj
    [
      ("command", J.List [ J.String "bash"; J.String "bench/e2e/run.sh" ]);
      ("paths", J.List [ J.String "bench/e2e" ]);
      ("run_seconds", J.Int run_seconds);
      ( "workloads",
        J.List
          (List.map (fun w -> J.Obj [ ("name", J.String w.name); ("why", J.String w.why) ]) all)
      );
      ( "end_to_end",
        J.List
          (List.filter_map
             (fun m ->
               if m.gated then Some (metric m.m_name m.unit_ m.better [ ("bound", J.Float m.bound) ])
               else None)
             end_to_end) );
      ("per_layer", J.List (List.map (fun (n, u, b) -> metric n u b []) per_layer));
    ]
