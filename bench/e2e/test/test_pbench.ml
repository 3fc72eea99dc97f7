(* Tests for the pure parts of the benchmark harness: statistics, span self
   time, the pstream_run stdout parser, the reference answers, and the
   compare verdicts. *)

open Pbench_lib
module Executor = Engine.Executor
module Cjq = Query.Cjq

let queries = "../queries"
let feq = Alcotest.float 1e-9

(* --- statistics ----------------------------------------------------------- *)

let test_quartiles () =
  (* values from Python's statistics.quantiles(xs, n=4) *)
  let check xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.(check (list feq)) "quartiles" [ a; b; c ] [ q1; q2; q3 ]
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 5.5, 8.25);
  check [ 4.; 1.; 3.; 2. ] (1.25, 2.5, 3.75);
  check [ 3.; 1.; 2. ] (1., 2., 3.);
  check [ 5.; 7. ] (4.5, 6., 7.5);
  check [ 9. ] (9., 9., 9.)

let test_spread () =
  Alcotest.check feq "rel iqr" (5.5 /. 5.5)
    (Stats.rel_iqr [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]);
  Alcotest.check feq "no spread" 0. (Stats.rel_iqr [ 2.; 2.; 2. ]);
  Alcotest.check feq "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "median odd" 2. (Stats.median [ 3.; 1.; 2. ])

let test_value_of () =
  let metric name = List.find (fun (m : Workloads.metric) -> m.m_name = name) Workloads.end_to_end in
  let runs = [ 30.; 10.; 20.; 12. ] in
  Alcotest.check feq "throughput: the fastest run" 30. (Bench.best (metric "throughput_eps") runs);
  Alcotest.check feq "rss: the smallest run" 10. (Bench.best (metric "peak_rss_mb") runs);
  Alcotest.check feq "setup: the fast decile" 2.
    (Bench.setup_value (List.init 20 (fun i -> float_of_int (20 - i))))

let test_percentile () =
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p99 of 1..100" 99. (Stats.percentile 0.99 hundred);
  Alcotest.check feq "p50 of 1..100" 50. (Stats.percentile 0.5 hundred);
  Alcotest.check feq "p99 of 3 is the max" 7. (Stats.percentile 0.99 [ 5.; 7.; 6. ]);
  Alcotest.check feq "p50 of 4" 2. (Stats.percentile 0.5 [ 4.; 1.; 3.; 2. ])

(* --- spans ------------------------------------------------------------------- *)

let span ?(run_id = "r") ?parent id start_ns end_ns =
  { Spans.id; parent; name = "s"; run_id; start_ns; end_ns }

let test_self_time () =
  let root = span 0 0 100 in
  let all =
    [
      root;
      span ~parent:0 1 10 30;
      span ~parent:0 2 20 50 (* overlaps the first child *);
      span ~parent:0 3 60 70;
      span ~parent:0 4 95 130 (* runs past the root: clipped *);
      span ~parent:1 5 12 14 (* a grandchild does not count *);
      span ~run_id:"other" ~parent:0 6 0 100 (* another run *);
    ]
  in
  Alcotest.(check int) "self = 100 - (40 + 10 + 5)" 45 (Spans.self_ns all root);
  Alcotest.(check int) "child self excludes its own child" 18
    (Spans.self_ns all (span ~parent:0 1 10 30));
  Alcotest.(check int) "leaf self = duration" 10 (Spans.self_ns all (span ~parent:0 3 60 70))

let test_recorder () =
  let r = Spans.recorder "run" in
  let v = Spans.with_span r "root" (fun () -> Spans.with_span r "child" (fun () -> 41) + 1) in
  Alcotest.(check int) "value passes through" 42 v;
  match Spans.spans r with
  | [ root; child ] ->
      Alcotest.(check string) "root first" "root" root.name;
      Alcotest.(check (option int)) "child's parent" (Some root.id) child.parent;
      Alcotest.(check bool) "nested" true
        (child.start_ns >= root.start_ns && child.end_ns <= root.end_ns)
  | _ -> Alcotest.fail "expected two spans"

(* --- stdout parser ----------------------------------------------------------- *)

let single_output =
  {|query: S1(A:int, B:int) ...
safe: true
policy: eager
consumed 9000 elements, emitted 1500 results
J1: tuples_in=4500 tuples_out=1500

state series:
tick   1000  state    910  index   1214  ~bytes   237888  puncts  1500  emitted    318
tick   2000  state    911  index   1215  ~bytes   238112  puncts  3000  emitted    485
tick   9000  state      0  index      0  ~bytes        0  puncts  4500  emitted   1500
growth slope (second half): -0.1811 tuples/element
index growth slope (second half): -0.2415 entries/element
output hash: 3b3ab4931a88f4842da5f8b9ec68ba66
|}

let multi_output =
  {|query star_rst: R(K:int, A:int) ...
  safe: true
query star_rsu: R(K:int, A:int) ...
  safe: true
shared group G1: streams {R, S} serving star_rst, star_rsu
  star_rst: G1 + residual {T}
policy: eager
consumed 6000 elements
query star_rst: emitted 750 results, output hash cabf40602505c62f4647a6368f17ead9
query star_rsu: emitted 750 results, output hash e50d26df06b2900946f27bd168191679
total state bytes: 0 (shared state counted once)
WATCHDOG ALARM: J1 slope 0.5
|}

let test_parse_single () =
  let o = Run_output.parse single_output in
  Alcotest.(check (option int)) "consumed" (Some 9000) o.consumed;
  Alcotest.(check (option int)) "emitted" (Some 1500) o.emitted;
  Alcotest.(check (option string)) "hash" (Some "3b3ab4931a88f4842da5f8b9ec68ba66") o.hash;
  Alcotest.(check int) "rows" 3 (List.length o.series);
  Alcotest.(check int) "peak bytes" 238112 (Run_output.peak (fun s -> s.Run_output.bytes) o.series);
  Alcotest.(check int) "peak puncts" 4500 (Run_output.peak (fun s -> s.Run_output.puncts) o.series);
  Alcotest.(check int) "no alarm" 0 o.alarms;
  Alcotest.(check int) "no query lines" 0 (List.length o.queries)

let test_parse_multi () =
  let o = Run_output.parse multi_output in
  Alcotest.(check (option int)) "consumed" (Some 6000) o.consumed;
  Alcotest.(check (option int)) "no single emitted" None o.emitted;
  Alcotest.(check (list (triple string int string)))
    "per query"
    [
      ("star_rst", 750, "cabf40602505c62f4647a6368f17ead9");
      ("star_rsu", 750, "e50d26df06b2900946f27bd168191679");
    ]
    (List.map (fun q -> (q.Run_output.qid, q.q_emitted, q.q_hash)) o.queries);
  Alcotest.(check int) "alarm" 1 o.alarms

(* --- reference answers --------------------------------------------------------- *)

(* About 600 elements per trace. *)
let small_shape name =
  match name with
  | "tri_tiny" -> { Gen.rounds = 100; fanin = 1; lag = 0 }
  | "star_shared" -> { Gen.rounds = 15; fanin = 5; lag = 3 }
  | _ -> { Gen.rounds = 20; fanin = 5; lag = 4 }

let workload name = Option.get (Workloads.find name)
let parse f = Query.Parser.parse_file (Filename.concat queries f)

let engine_hash (w : Workloads.t) q trace =
  match w.kind with
  | Workloads.Replay { shards = 1; _ } ->
      let c = Executor.compile q (Gen.plan q) in
      Executor.output_hash (Executor.run ~sample_every:50 c (List.to_seq trace)).Executor.outputs
  | Workloads.Replay { shards; checkpoint_every; _ } ->
      let inp = { Mirror.queries_dir = queries; trace_path = ""; shape = w.shape; sample_every = 50 } in
      let p = Mirror.parallel ~instrument:false ~shards ~checkpoint_every inp q in
      Executor.output_hash
        (Engine.Parallel_executor.run ~sample_every:50 p (List.to_seq trace))
          .Engine.Parallel_executor.outputs
  | Workloads.Open_loop _ ->
      (* the open loop's path: batches through feed_batch, then a flush *)
      let c = Executor.compile q (Gen.plan q) in
      let a = Array.of_list trace in
      let outs = ref [] and i = ref 0 in
      while !i < Array.length a do
        let n = min 7 (Array.length a - !i) in
        outs := Executor.feed_batch c (Array.sub a !i n) @ !outs;
        i := !i + n
      done;
      Executor.output_hash (Executor.flush_tree c @ !outs)
  | Workloads.Multi _ -> assert false

let test_reference_single name () =
  let w = workload name in
  let query =
    match w.kind with
    | Workloads.Replay { query; _ } | Workloads.Open_loop { query; _ } -> query
    | Workloads.Multi _ -> assert false
  in
  let q = parse query in
  let shape = small_shape name in
  List.iter
    (fun seed ->
      let trace = Gen.round_trace ~seed (Cjq.stream_defs q) shape in
      Alcotest.(check int) "about 600 elements" 600 (List.length trace);
      Alcotest.(check bool) "well-formed" true
        (Streams.Trace.check ~schemes:(Cjq.scheme_set q) trace = []);
      let keys = Gen.keys ~offset:(Gen.key_offset seed) shape in
      let reference = Gen.reference_hash (Gen.output_schema q) keys in
      (match w.kind with
      | Workloads.Replay _ ->
          let e = Reference.expected ~queries_dir:queries ~seed ~shape w in
          Alcotest.(check (list (pair string int)))
            "Reference.expected" [ (reference, List.length keys) ]
            (List.map (fun (r : Reference.t) -> (r.hash, r.count)) e)
      | _ -> ());
      Alcotest.(check string) "engine hash = reference" reference (engine_hash w q trace);
      Alcotest.(check int) "brute force = key count" (List.length keys)
        (Workload.Synth.brute_force_results q trace))
    [ 1; 7 ]

let test_reference_star () =
  let w = workload "star_shared" in
  let shape = small_shape "star_shared" in
  let files = match w.kind with Workloads.Multi { queries } -> queries | _ -> assert false in
  let qs = List.map (fun f -> (Filename.remove_extension f, parse f)) files in
  let reg =
    Query.Query_registry.create
      (List.map (fun (qid, query) -> { Query.Query_registry.qid; query }) qs)
  in
  let m = Engine.Multi_executor.create ~share:true reg in
  let trace =
    Workload.Synth.round_trace_defs (Engine.Multi_executor.stream_defs m)
      {
        Workload.Synth.rounds = shape.Gen.rounds;
        tuples_per_round = shape.Gen.fanin;
        punct_lag = shape.Gen.lag;
        trace_seed = 42;
      }
  in
  Alcotest.(check int) "about 600 elements" 600 (List.length trace);
  let r = Engine.Multi_executor.run ~sample_every:50 m (List.to_seq trace) in
  (* the multi-query mode takes no seed: any seed gives the same answer *)
  List.iter
    (fun seed ->
      let expected = Reference.expected ~queries_dir:queries ~seed ~shape w in
      List.iter
        (fun (e : Reference.t) ->
          let got = List.assoc e.qid r.Engine.Multi_executor.per_query in
          Alcotest.(check string) ("engine hash " ^ e.qid) e.hash got.Engine.Multi_executor.hash;
          Alcotest.(check int) ("brute force " ^ e.qid) e.count
            (Workload.Synth.brute_force_results (List.assoc e.qid qs) trace))
        expected)
    [ 1; 7 ]

let test_seed_changes_trace () =
  let q = parse "triangle.query" in
  let shape = small_shape "tri_lag" in
  let t1 = Gen.round_trace ~seed:1 (Cjq.stream_defs q) shape
  and t7 = Gen.round_trace ~seed:7 (Cjq.stream_defs q) shape in
  Alcotest.(check bool) "same seed, same trace" true
    (Streams.Trace_io.to_string t1
    = Streams.Trace_io.to_string (Gen.round_trace ~seed:1 (Cjq.stream_defs q) shape));
  Alcotest.(check bool) "another seed, another trace" true
    (Streams.Trace_io.to_string t1 <> Streams.Trace_io.to_string t7);
  Alcotest.(check int) "same size on disk"
    (String.length (Streams.Trace_io.to_string t1))
    (String.length (Streams.Trace_io.to_string t7))

(* --- the open loop's input is the workload's ----------------------------------- *)

let test_open_loop_size () =
  let w = workload "tri_open_loop" in
  let cfg repeats traced seconds =
    {
      Bench.workloads = [ w ];
      seed = 3;
      seconds;
      repeats;
      traced;
      smoke = false;
      out = None;
      pstream_run = "pstream_run.exe";
      queries_dir = queries;
      workdir = ".";
    }
  in
  let argv c = Bench.self_argv c ~mode:"open-loop" ~w ~run_id:"" (Bench.make_inputs c w) in
  let base = argv (cfg None false 15.) in
  List.iter
    (fun c -> Alcotest.(check (list string)) "child argv" base (argv c))
    [ cfg (Some 3) false 15.; cfg (Some 10) false 15.; cfg None true 15.; cfg (Some 10) true 60. ];
  (* the child runs the shape it is given: every key's three constant
     punctuations are stored at the end, run after run *)
  let shape = w.smoke in
  let q = parse "triangle.query" in
  let run () = Open_loop.run ~timer:Spans.untimed ~queries_dir:queries ~seed:3 ~shape ~sample_every:50 w in
  let a = run () and b = run () in
  Alcotest.(check bool) "answer" true (Open_loop.ok a);
  Alcotest.(check int) "elements" (Gen.elements (Cjq.stream_defs q) shape) a.elements;
  Alcotest.(check int) "peak puncts" (3 * shape.rounds * shape.fanin) a.peak_puncts;
  Alcotest.(check (pair int int)) "same peaks again" (a.peak_puncts, a.peak_state_bytes)
    (b.peak_puncts, b.peak_state_bytes)

(* --- compare ------------------------------------------------------------------ *)

let test_compare () =
  let side l = Compare.side_of ~value:(Stats.median l) l in
  let flat = List.init 10 (fun i -> 100. +. float_of_int (i mod 2)) in
  let verdict ~higher ~bound b n =
    let v, _, _, _ = Compare.judge ~higher ~bound (side b) (side n) in
    Compare.verdict_to_string v
  in
  Alcotest.(check string) "same" "same" (verdict ~higher:true ~bound:0.1 flat flat);
  Alcotest.(check string) "throughput down 30%" "REGRESSION"
    (verdict ~higher:true ~bound:0.1 flat (List.map (fun x -> x *. 0.7) flat));
  Alcotest.(check string) "latency up 30%" "REGRESSION"
    (verdict ~higher:false ~bound:0.1 flat (List.map (fun x -> x *. 1.3) flat));
  Alcotest.(check string) "ten pairs won" "GAIN"
    (verdict ~higher:true ~bound:0.1 flat (List.map (fun x -> x *. 1.3) flat));
  Alcotest.(check string) "three pairs are too few" "better (unconfirmed)"
    (verdict ~higher:true ~bound:0.1 [ 100.; 101.; 100. ] [ 130.; 131.; 130. ]);
  let noisy = [ 50.; 100.; 150.; 60.; 140.; 100.; 55.; 145. ] in
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (verdict ~higher:true ~bound:0.1 noisy (List.map (fun x -> x *. 0.95) noisy))

(* --- BENCHMARK.json ---------------------------------------------------------- *)

let test_benchmark_json () =
  match Jsonw.read_file "../../../BENCHMARK.json" with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check string)
        "BENCHMARK.json = pbench spec" (Jsonw.to_string (Workloads.benchmark_json ()))
        (Jsonw.to_string j)

let () =
  Alcotest.run "pbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "spread and median" `Quick test_spread;
          Alcotest.test_case "reported value per metric" `Quick test_value_of;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "stdout",
        [
          Alcotest.test_case "single-query run" `Quick test_parse_single;
          Alcotest.test_case "multi-query run" `Quick test_parse_multi;
        ] );
      ( "reference",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_reference_single name))
          [ "tri_lag"; "tri_tiny"; "tri_wm"; "tri_lag_shards2"; "tri_open_loop" ]
        @ [
            Alcotest.test_case "star_shared" `Quick test_reference_star;
            Alcotest.test_case "seeded traces" `Quick test_seed_changes_trace;
          ] );
      ( "open loop",
        [ Alcotest.test_case "size independent of repeats and tracing" `Quick test_open_loop_size ]
      );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_compare ]);
      ("spec", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
    ]
