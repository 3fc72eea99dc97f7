(* The telemetry subsystem: JSON/event codecs, histograms, the watchdog's
   degenerate-window guards, sinks, and the engine integration — null-sink
   identity, trace-replay verification, emitted-count accounting and the
   stats conservation laws. *)

open Relational
module Scheme = Streams.Scheme
module Element = Streams.Element
module Plan = Query.Plan
module Executor = Engine.Executor
module Metrics = Engine.Metrics
module Purge_policy = Engine.Purge_policy
module Telemetry = Engine.Telemetry
open Fixtures

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let samples =
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Int (-42);
      Obs.Json.Float 0.25;
      Obs.Json.String "he said \"hi\"\nand left \\ fast";
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Null; Obs.Json.Bool false ];
      Obs.Json.Obj
        [
          ("empty", Obs.Json.Obj []);
          ("xs", Obs.Json.List []);
          ("n", Obs.Json.Int 7);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Obs.Json.parse (Obs.Json.to_string v) with
      | Ok v' ->
          check_bool (Fmt.str "roundtrip %s" (Obs.Json.to_string v)) true
            (v = v')
      | Error e -> Alcotest.failf "parse error: %s" e)
    samples

let test_json_accessors () =
  let v = Obs.Json.parse_exn {| {"a": {"b": [1, 2, 3]}, "s": "x"} |} in
  check_bool "member chain" true
    (Option.bind (Obs.Json.member "a" v) (Obs.Json.member "b") <> None);
  check_bool "to_str" true
    (Option.bind (Obs.Json.member "s" v) Obs.Json.to_str = Some "x");
  check_bool "missing member" true (Obs.Json.member "zzz" v = None);
  check_bool "malformed rejected" true
    (match Obs.Json.parse "{\"a\": }" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Event codec *)

let all_events =
  [
    Obs.Event.Run_start { tick = 0; label = "t/\"quote\".query" };
    Obs.Event.Run_end { tick = 99; emitted = 12 };
    Obs.Event.Tuple_in { tick = 1; op = "J1"; input = "S1" };
    Obs.Event.Tuple_out { tick = 2; op = "J1"; count = 3 };
    Obs.Event.Punct_in { tick = 3; op = "J1"; input = "S2" };
    Obs.Event.Punct_out { tick = 4; op = "J1"; count = 1 };
    Obs.Event.Purge
      {
        tick = 5;
        op = "J2";
        input = "S3";
        trigger = "lazy(25)";
        victims = 7;
        lag = 13;
      };
    Obs.Event.Evict { tick = 6; op = "W1"; input = "S1"; victims = 2 };
    Obs.Event.Sample
      {
        tick = 7;
        data_state = 10;
        punct_state = 11;
        index_state = 12;
        state_bytes = 13;
        emitted = 14;
      };
    Obs.Event.Alarm
      {
        tick = 8;
        op = "J1";
        slope = 0.5;
        size = 640;
        unreachable = [ "S1"; "S2" ];
      };
  ]

let test_event_roundtrip () =
  List.iter
    (fun e ->
      match Obs.Event.of_line (Obs.Event.to_line e) with
      | Ok e' ->
          check_bool (Fmt.str "roundtrip %s" (Obs.Event.to_line e)) true
            (e = e')
      | Error msg -> Alcotest.failf "of_line: %s" msg)
    all_events;
  check_bool "garbage rejected" true
    (match Obs.Event.of_line {| {"ev": "warp"} |} with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Histogram / counters *)

let test_histogram_basics () =
  let h = Obs.Histogram.create () in
  check_int "empty count" 0 (Obs.Histogram.count h);
  check_int "empty percentile" 0 (Obs.Histogram.percentile h 0.99);
  List.iter (Obs.Histogram.observe h) [ 0; 0; 1; 3; 100 ];
  check_int "count" 5 (Obs.Histogram.count h);
  check_int "sum" 104 (Obs.Histogram.sum h);
  check_int "min" 0 (Obs.Histogram.min_value h);
  check_int "max" 100 (Obs.Histogram.max_value h);
  (* ranks: two 0s, a 1, a 3 (bucket [2,4)), a 100 (bucket [64,128)) *)
  check_int "p50 lands on the 1" 1 (Obs.Histogram.percentile h 0.5);
  check_int "p99 lands in [64,128)" 64 (Obs.Histogram.percentile h 0.99);
  check_bool "zero bucket distinct from [1,2)" true
    (List.mem_assoc 0 (Obs.Histogram.buckets h));
  Obs.Histogram.observe ~n:3 h 5;
  check_int "weighted observe" 8 (Obs.Histogram.count h);
  check_int "negative clamps to 0"
    (Obs.Histogram.min_value h)
    (let h' = Obs.Histogram.create () in
     Obs.Histogram.observe h' (-9);
     Obs.Histogram.min_value h')

let test_histogram_merge () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  Obs.Histogram.observe a 2;
  Obs.Histogram.observe ~n:2 b 50;
  let m = Obs.Histogram.merge a b in
  check_int "merged count" 3 (Obs.Histogram.count m);
  check_int "merged sum" 102 (Obs.Histogram.sum m);
  check_int "merged max" 50 (Obs.Histogram.max_value m);
  check_int "merged min" 2 (Obs.Histogram.min_value m)

let test_counters () =
  let c = Obs.Registry.create () in
  Obs.Registry.incr c "x";
  Obs.Registry.incr ~by:4 c "x";
  check_int "accumulates" 5 (Obs.Registry.counter c "x");
  check_int "absent reads 0" 0 (Obs.Registry.counter c "y");
  check_bool "negative increment rejected" true
    (match Obs.Registry.incr ~by:(-1) c "x" with
    | exception Invalid_argument _ -> true
    | () -> false);
  Obs.Registry.set_gauge c "level" 9;
  Obs.Registry.set_gauge ~agg:Obs.Registry.Min c "level" 3;
  check_int "gauge keeps latest" 3 (Obs.Registry.gauge c "level");
  check_bool "last declared aggregation wins" true
    (Obs.Registry.gauge_agg c "level" = Obs.Registry.Min);
  check_bool "undeclared gauge merges as max" true
    (Obs.Registry.gauge_agg c "absent" = Obs.Registry.Max);
  Obs.Registry.incr c "a";
  check_bool "views are name-sorted" true
    (Obs.Registry.counters c = [ ("a", 1); ("x", 5) ]
    && Obs.Registry.gauges c = [ ("level", 3) ])

(* ------------------------------------------------------------------ *)
(* Watchdog *)

let test_watchdog_slope_degenerate () =
  check_bool "no points" true (Obs.Watchdog.slope [] = 0.0);
  check_bool "one point" true (Obs.Watchdog.slope [ (10, 100) ] = 0.0);
  check_bool "two points, same tick" true
    (Obs.Watchdog.slope [ (10, 0); (10, 1000) ] = 0.0);
  check_bool "all points on one tick" true
    (Obs.Watchdog.slope [ (5, 1); (5, 2); (5, 3) ] = 0.0);
  let s = Obs.Watchdog.slope [ (0, 0); (10, 20); (20, 40) ] in
  check_bool "linear growth slope" true (Float.abs (s -. 2.0) < 1e-9)

let test_watchdog_alarm_and_latch () =
  let config =
    { Obs.Watchdog.default_config with min_ticks = 10; size_floor = 5 }
  in
  let w = Obs.Watchdog.create ~config () in
  let alarm = ref None in
  for i = 1 to 20 do
    match
      Obs.Watchdog.observe w ~op:"J1" ~tick:(i * 10) ~size:(i * 10)
        ~unreachable:[ "S9" ]
    with
    | Some a when !alarm = None -> alarm := Some a
    | Some _ -> Alcotest.fail "alarm must latch per operator"
    | None -> ()
  done;
  match !alarm with
  | None -> Alcotest.fail "growing series never tripped the watchdog"
  | Some a ->
      check_string "alarm names the operator" "J1" a.Obs.Watchdog.op;
      check_bool "alarm carries the diagnosis" true
        (a.Obs.Watchdog.unreachable = [ "S9" ]);
      check_bool "slope is the growth rate" true (a.Obs.Watchdog.slope > 0.5);
      check_int "one alarm total" 1 (List.length (Obs.Watchdog.alarms w))

let test_watchdog_quiet_on_plateau () =
  let w = Obs.Watchdog.create () in
  for i = 1 to 60 do
    (* bounded oscillation well above the size floor *)
    match
      Obs.Watchdog.observe w ~op:"J1" ~tick:(i * 25)
        ~size:(100 + (i mod 3))
        ~unreachable:[]
    with
    | Some _ -> Alcotest.fail "plateau tripped the watchdog"
    | None -> ()
  done;
  check_int "no alarms" 0 (List.length (Obs.Watchdog.alarms w));
  (* growth below the size floor is also quiet *)
  let w2 =
    Obs.Watchdog.create
      ~config:{ Obs.Watchdog.default_config with size_floor = 1000 } ()
  in
  for i = 1 to 60 do
    ignore (Obs.Watchdog.observe w2 ~op:"J1" ~tick:(i * 25) ~size:i ~unreachable:[])
  done;
  check_int "below floor: quiet" 0 (List.length (Obs.Watchdog.alarms w2))

(* ------------------------------------------------------------------ *)
(* Sinks *)

let ev tick = Obs.Event.Tuple_out { tick; op = "J1"; count = 1 }

let test_sink_memory_in_order () =
  let sink, all = Obs.Sink.memory () in
  for i = 1 to 5 do
    sink.Obs.Sink.emit (ev i)
  done;
  check_bool "keeps every event, in emission order" true
    (all () = List.init 5 (fun i -> ev (i + 1)))

(* ------------------------------------------------------------------ *)
(* Metrics degenerate slopes (satellite: all-same-tick guard) *)

let test_metrics_degenerate_slopes () =
  let m = Metrics.create () in
  check_bool "no samples" true (Metrics.growth_slope m = 0.0);
  Metrics.force m ~tick:10 ~data_state:5 ~punct_state:0 ~emitted:0 ();
  check_bool "one sample" true (Metrics.growth_slope m = 0.0);
  (* two same-tick samples via force: variance of ticks is zero *)
  Metrics.force m ~tick:10 ~data_state:500 ~punct_state:0 ~emitted:0 ();
  check_bool "two samples on one tick" true (Metrics.growth_slope m = 0.0);
  Metrics.force m ~tick:10 ~data_state:9999 ~punct_state:0 ~emitted:0 ();
  check_bool "three samples on one tick" true (Metrics.growth_slope m = 0.0)

(* ------------------------------------------------------------------ *)
(* Engine integration *)

let triangle_trace ?(rounds = 60) q =
  Workload.Synth.round_trace q
    { Workload.Synth.default_trace_config with rounds }

let render_outputs outs = List.map (Fmt.str "%a" Element.pp) outs

(* A compile with the default (null) handle must behave exactly like an
   instrumented one: same outputs, same emitted count, same state series. *)
let test_null_telemetry_identity () =
  let q = fig5_query () in
  let plan = Plan.mjoin [ "S1"; "S2"; "S3" ] in
  let trace = triangle_trace q in
  let run telemetry =
    let c =
      match telemetry with
      | None -> Executor.compile ~config:(Executor.Config.make ~policy:(Purge_policy.Lazy 7) ()) q plan
      | Some t ->
          Executor.compile ~config:(Executor.Config.make ~policy:(Purge_policy.Lazy 7) ~telemetry:t ()) q plan
    in
    Executor.run ~sample_every:25 c (List.to_seq trace)
  in
  let plain = run None in
  let sink, _events = Obs.Sink.memory () in
  let instrumented =
    run (Some (Telemetry.create ~sink ~watchdog:(Obs.Watchdog.create ()) ()))
  in
  check_bool "outputs identical" true
    (render_outputs plain.Executor.outputs
    = render_outputs instrumented.Executor.outputs);
  check_int "emitted identical" plain.Executor.emitted
    instrumented.Executor.emitted;
  check_int "consumed identical" plain.Executor.consumed
    instrumented.Executor.consumed;
  check_bool "metrics series identical" true
    (Metrics.samples plain.Executor.metrics
    = Metrics.samples instrumented.Executor.metrics)

(* The report's counters must match an independent replay of the event
   trace — and a tampered report must fail verification. *)
let test_report_matches_trace_replay () =
  let q = fig5_query () in
  let sink, events = Obs.Sink.memory () in
  let telemetry = Telemetry.create ~sink () in
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ~telemetry ()) q
      (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  let r = Executor.run ~sample_every:25 c (List.to_seq (triangle_trace q)) in
  let report_json = Obs.Report.to_json (Executor.report c r) in
  let events = events () in
  check_bool "trace is non-trivial" true (List.length events > 100);
  (match Obs.Report.verify ~report:report_json ~events with
  | Ok () -> ()
  | Error ps ->
      Alcotest.failf "verify failed:@.%a"
        Fmt.(list ~sep:cut string)
        ps);
  (* serialize + reparse the report (the CI path goes through a file) *)
  let reparsed = Obs.Json.parse_exn (Obs.Json.to_string report_json) in
  check_bool "verify after JSON roundtrip" true
    (Obs.Report.verify ~report:reparsed ~events = Ok ());
  (* tamper with one counter: verification must name the discrepancy *)
  let tampered =
    match report_json with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map
             (function
               | "counters", Obs.Json.Obj cs ->
                   ( "counters",
                     Obs.Json.Obj
                       (List.map
                          (function
                            | "J1.tuples_in", Obs.Json.Int n ->
                                ("J1.tuples_in", Obs.Json.Int (n + 1))
                            | kv -> kv)
                          cs) )
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  let contains_substring ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  match Obs.Report.verify ~report:tampered ~events with
  | Ok () -> Alcotest.fail "tampered report passed verification"
  | Error ps ->
      check_bool "discrepancy names the counter" true
        (List.exists (contains_substring ~needle:"J1.tuples_in") ps)

(* Regression: [emitted] counts data tuples *after* the sink operator. A
   sink that swallows everything must leave emitted at 0 (it used to count
   the pre-sink elements). *)
let test_emitted_counted_post_sink () =
  let q = fig5_query () in
  let plan = Plan.mjoin [ "S1"; "S2"; "S3" ] in
  let trace = triangle_trace q in
  let c = Executor.compile q plan in
  let out_schema = Executor.output_schema c in
  let swallow =
    {
      Engine.Operator.name = "swallow";
      out_schema;
      input_names = [];
      push = (fun _ -> []);
      flush = (fun () -> []);
      state = (fun () -> Engine.Operator.no_state);
      stats = (fun () -> Engine.Operator.empty_stats);
      persistence = Engine.Operator.Stateless;
    }
  in
  let r = Executor.run ~sink:swallow c (List.to_seq trace) in
  check_int "swallowing sink: emitted 0" 0 r.Executor.emitted;
  check_int "swallowing sink: no outputs" 0 (List.length r.Executor.outputs);
  (* without a sink the count equals the data tuples in outputs, and the
     final metrics sample agrees *)
  let c2 = Executor.compile q plan in
  let r2 = Executor.run c2 (List.to_seq trace) in
  check_int "no sink: emitted = data outputs"
    (List.length (List.filter Element.is_data r2.Executor.outputs))
    r2.Executor.emitted;
  match Metrics.final r2.Executor.metrics with
  | Some s -> check_int "metrics agree" r2.Executor.emitted s.Metrics.emitted
  | None -> Alcotest.fail "no final metrics sample"

(* Conservation laws, for the triangle and a binary join, across policies
   and punctuation lags:
     tuples_in  = data_state  + tuples_purged            (joins never drop;
                                                          dead-on-arrival
                                                          drops count as
                                                          purged)
     puncts_in  = punct_state + puncts_purged + puncts_dropped
   and the punct-store identity insertions = size + subsumed + removed. *)
let check_stats_conservation q =
  let plan = Plan.mjoin (Query.Cjq.stream_names q) in
  List.iter
    (fun (policy, punct_lag) ->
      let trace =
        Workload.Synth.round_trace q
          {
            Workload.Synth.default_trace_config with
            rounds = 50;
            punct_lag;
          }
      in
      let c = Executor.compile ~config:(Executor.Config.make ~policy ()) q plan in
      ignore (Executor.run c (List.to_seq trace));
      List.iter
        (fun (op : Engine.Operator.t) ->
          let s = op.stats () in
          let ctx =
            Fmt.str "%d-way %s under %a lag=%d"
              (List.length (Query.Cjq.stream_names q))
              op.Engine.Operator.name Purge_policy.pp policy punct_lag
          in
          check_int
            (ctx ^ ": tuples_in = data_state + tuples_purged")
            s.Engine.Operator.tuples_in
            ((op.state ()).data + s.Engine.Operator.tuples_purged);
          check_int
            (ctx ^ ": puncts_in = punct_state + purged + dropped")
            s.Engine.Operator.puncts_in
            ((op.state ()).puncts + s.Engine.Operator.puncts_purged
           + s.Engine.Operator.puncts_dropped))
        (Executor.operators ~c))
    [
      (Purge_policy.Eager, 0);
      (Purge_policy.Eager, 3);
      (Purge_policy.Lazy 7, 0);
      (Purge_policy.Lazy 7, 3);
      (Purge_policy.Never, 0);
      (Purge_policy.Adaptive { batch = 5; state_trigger = 40 }, 2);
    ]

let test_stats_conservation () = check_stats_conservation (fig5_query ())

(* The same conservation for the binary join of PJoin [6]: Mjoin applies
   its dead-on-arrival rule under Eager, and a tuple dropped on arrival
   counts as purged. *)
let test_stats_conservation_pjoin () =
  check_stats_conservation
    (Query.Cjq.make
       [
         Streams.Stream_def.make s1 [ Scheme.of_attrs s1 [ "B" ] ];
         Streams.Stream_def.make s2 [ Scheme.of_attrs s2 [ "B" ] ];
       ]
       [ Predicate.atom "S1" "B" "S2" "B" ])

(* Purge lag: eager purges in the same push (lag 0); a lazy batch defers
   (lag > 0). Read off the recorded histograms, as bench B1 does. *)
let test_purge_lag_eager_vs_lazy () =
  let q = fig5_query () in
  let plan = Plan.mjoin [ "S1"; "S2"; "S3" ] in
  let lag_stats policy =
    let telemetry = Telemetry.create () in
    let c = Executor.compile ~config:(Executor.Config.make ~policy ~telemetry ()) q plan in
    ignore (Executor.run c (List.to_seq (triangle_trace q)));
    match
      Obs.Registry.merged_histogram (Telemetry.registry telemetry) "purge_lag"
    with
    | Some h -> (Obs.Histogram.count h, Obs.Histogram.max_value h)
    | None -> (0, 0)
  in
  let eager_n, eager_max = lag_stats Purge_policy.Eager in
  let lazy_n, lazy_max = lag_stats (Purge_policy.Lazy 20) in
  check_bool "eager purges happened" true (eager_n > 0);
  check_int "eager lag is 0" 0 eager_max;
  check_bool "lazy purges happened" true (lazy_n > 0);
  check_bool "lazy lag is positive" true (lazy_max > 0)

(* The watchdog: silent on a safe run; on a forced unsafe run it raises an
   alarm naming the operator and its purge-unreachable inputs. *)
let unsafe_triangle () =
  (* the triangle with S1's scheme dropped — the checker rejects it *)
  triangle_query
    (Scheme.Set.of_list
       [ Scheme.of_attrs s2 [ "C" ]; Scheme.of_attrs s3 [ "A" ] ])

let run_with_watchdog ?(keep = fun _ -> true) q =
  let telemetry =
    Telemetry.create ~watchdog:(Obs.Watchdog.create ()) ()
  in
  let c =
    Executor.compile ~config:(Executor.Config.make ~telemetry ()) q (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  ignore
    (Executor.run ~sample_every:25 c
       (List.to_seq (List.filter keep (triangle_trace ~rounds:150 q))));
  (c, Telemetry.alarms telemetry)

let test_watchdog_silent_on_safe_run () =
  let q = fig5_query () in
  check_bool "query is safe" true (Core.Checker.is_safe q);
  let _, alarms = run_with_watchdog q in
  check_int "no alarms on a safe run" 0 (List.length alarms)

let test_watchdog_flags_unsafe_run () =
  let q = unsafe_triangle () in
  check_bool "query is unsafe" false (Core.Checker.is_safe q);
  let c, alarms = run_with_watchdog q in
  check_bool "watchdog tripped" true (alarms <> []);
  let a = List.hd alarms in
  check_string "alarm names the operator" "J1" a.Obs.Watchdog.op;
  check_bool "alarm names unreachable inputs" true
    (a.Obs.Watchdog.unreachable <> []);
  (* the diagnosis agrees with the compiler's static reachability map *)
  check_bool "diagnosis = compile-time unreachable set" true
    (sorted_strings a.Obs.Watchdog.unreachable
    = sorted_strings (Executor.unreachable_inputs c "J1"));
  check_bool "slope reflects the leak" true (a.Obs.Watchdog.slope > 0.0);
  (* an operator with a purge-unreachable input is watched from the start,
     stored punctuation or not *)
  let _, alarms = run_with_watchdog ~keep:Element.is_data q in
  check_bool "watchdog tripped without punctuations" true (alarms <> [])

(* A safe run with a long punctuation lag: for the first 60 rounds no
   punctuation arrives, so the state fills before anything can be purged,
   then holds at ~900 tuples. The fill is not a leak: the watchdog watches
   an operator only from its first grid point holding a stored
   punctuation. Same shape for the two-query star with a shared sub-join. *)
let test_watchdog_quiet_while_lag_fills () =
  let shape =
    { Workload.Synth.rounds = 300; tuples_per_round = 5; punct_lag = 60;
      trace_seed = 42 }
  in
  let q = fig5_query () in
  let telemetry = Telemetry.create ~watchdog:(Obs.Watchdog.create ()) () in
  let c =
    Executor.compile ~config:(Executor.Config.make ~telemetry ()) q
      (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  let r =
    Executor.run ~sample_every:100 c
      (List.to_seq (Workload.Synth.round_trace q shape))
  in
  check_int "no alarm on the lag-60 triangle" 0
    (List.length (Telemetry.alarms telemetry));
  check_bool "its state plateaus" true
    (Metrics.growth_slope r.Executor.metrics < 0.02);
  let star third =
    Query.Parser.parse
      (Printf.sprintf
         "stream R(K:int, A:int)\nstream S(K:int, B:int)\n\
          stream %s(K:int, C:int)\nscheme R(+, _)\nscheme S(+, _)\n\
          scheme %s(+, _)\njoin R.K = S.K\njoin S.K = %s.K\n"
         third third third)
  in
  let registry =
    Query.Query_registry.create
      [
        { Query.Query_registry.qid = "star_rst"; query = star "T" };
        { Query.Query_registry.qid = "star_rsu"; query = star "U" };
      ]
  in
  let telemetry = Telemetry.create ~watchdog:(Obs.Watchdog.create ()) () in
  let m =
    Engine.Multi_executor.create
      ~config:(Executor.Config.make ~telemetry ())
      registry
  in
  ignore
    (Engine.Multi_executor.run ~sample_every:100 m
       (List.to_seq
          (Workload.Synth.round_trace_defs
             (Engine.Multi_executor.stream_defs m)
             shape)));
  check_int "no alarm on the lag-60 star pair" 0
    (List.length (Telemetry.alarms telemetry))

(* [inserts] counts the tuples a join stores. Under the eager policy a
   tuple whose partner was already punctuated away probes and is dropped
   on arrival, so it counts in [tuples_in] but not in [inserts]; the anti
   join stores a left tuple in its pending state alone, and counts it. *)
let test_inserts_count_stored_tuples () =
  let q =
    Query.Parser.parse
      "stream R(K:int, A:int)\nstream S(K:int, B:int)\nscheme R(+, _)\n\
       scheme S(+, _)\njoin R.K = S.K\n"
  in
  let schema name =
    Streams.Stream_def.schema
      (List.find
         (fun d -> Streams.Stream_def.name d = name)
         (Query.Cjq.stream_defs q))
  in
  let r = schema "R" and s = schema "S" in
  let punct schema k =
    Element.Punct
      (Streams.Punctuation.of_bindings schema [ ("K", Value.Int k) ])
  in
  (* even keys: S's punctuation comes before R's tuple, which is then dead
     on arrival *)
  let trace =
    List.concat_map
      (fun k ->
        [ Element.Data (tuple s [ k; 0 ]) ]
        @ (if k mod 2 = 0 then [ punct s k ] else [])
        @ [ Element.Data (tuple r [ k; 0 ]); punct r k ])
      (List.init 30 (fun i -> i + 1))
  in
  let sink, events = Obs.Sink.memory () in
  let telemetry = Telemetry.create ~sink () in
  let c =
    Executor.compile ~config:(Executor.Config.make ~telemetry ()) q
      (Plan.mjoin [ "R"; "S" ])
  in
  let res = Executor.run ~sample_every:10 c (List.to_seq trace) in
  let events = events () in
  let drops =
    List.fold_left
      (fun acc -> function
        | Obs.Event.Purge { trigger = "dead_on_arrival"; victims; _ } ->
            acc + victims
        | _ -> acc)
      0 events
  in
  let counter = Obs.Registry.counter (Telemetry.registry telemetry) in
  check_int "even keys dropped on arrival" 15 drops;
  check_int "every tuple probed" 60 (counter "J1.probes");
  check_int "inserts = tuples_in - drops"
    (counter "J1.tuples_in" - drops)
    (counter "J1.inserts");
  check_bool "report = trace replay" true
    (Obs.Report.verify
       ~report:(Obs.Report.to_json (Executor.report c res))
       ~events
    = Ok ());
  let telemetry = Telemetry.create () in
  let anti =
    Engine.Outer_join.create ~name:"A1" ~telemetry
      ~semantics:Engine.Outer_join.Anti
      ~left:{ Engine.Outer_join.name = "S1"; schema = s1; schemes = [] }
      ~right:{ Engine.Outer_join.name = "S2"; schema = s2; schemes = [] }
      ~predicates:[ Predicate.atom "S1" "B" "S2" "B" ]
      ()
  in
  ignore
    (anti.Engine.Operator.push
       [|
         Element.Data (tuple s1 [ 1; 7 ]);
         Element.Data (tuple s1 [ 2; 8 ]);
         Element.Data (tuple s2 [ 9; 0 ]);
       |]);
  check_int "anti join: inserts = stored tuples"
    (anti.Engine.Operator.state ()).data
    (Obs.Registry.counter (Telemetry.registry telemetry) "A1.inserts")

(* Telemetry times a push on the monotonic wall clock of the domain that
   runs it: under four domains an operator that sleeps 2 ms per run
   reports at least 2 ms for every run, in every domain's handle. Process
   CPU time would read ~0 for a sleep and sum the domains' work. *)
let test_push_ns_is_wall_time_per_domain () =
  let sleeper () =
    let op = Engine.Select.create ~name:"sleeper" ~input:s1 ~conditions:[] () in
    {
      op with
      Engine.Operator.push =
        (fun arr ->
          Unix.sleepf 0.002;
          op.Engine.Operator.push arr);
    }
  in
  let push_ns =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let telemetry = Telemetry.create () in
            let op = Telemetry.wrap_op telemetry (sleeper ()) in
            for i = 1 to 5 do
              ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ i; i ]) |])
            done;
            Obs.Registry.histogram (Telemetry.registry telemetry)
              "sleeper.push_ns"))
    |> List.map Domain.join
  in
  List.iteri
    (fun d h ->
      check_int (Fmt.str "domain %d: five runs timed" d) 5
        (Obs.Histogram.count h);
      (* the exact minimum: every run, so also the median, took >= 2 ms *)
      check_bool
        (Fmt.str "domain %d: push_ns p50 >= 2 ms (min %d ns)" d
           (Obs.Histogram.min_value h))
        true
        (Obs.Histogram.min_value h >= 2_000_000))
    push_ns

(* Evict events: a window join reports its evictions through telemetry and
   the counter survives trace replay. *)
let test_window_evict_events () =
  let sink, events = Obs.Sink.memory () in
  let telemetry = Telemetry.create ~sink () in
  let op =
    Engine.Window_join.create ~name:"W1" ~telemetry
      ~window:(Engine.Window_join.Count 4)
      ~inputs:
        [
          { Engine.Window_join.name = "S1"; schema = s1 };
          { Engine.Window_join.name = "S2"; schema = s2 };
        ]
      ~predicates:[ Predicate.atom "S1" "B" "S2" "B" ]
      ()
  in
  for i = 1 to 20 do
    ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ i; i ]) |])
  done;
  let evicted =
    List.fold_left
      (fun acc -> function
        | Obs.Event.Evict { op = "W1"; input = "S1"; victims; _ } ->
            acc + victims
        | _ -> acc)
      0 (events ())
  in
  check_bool "evictions traced" true (evicted > 0);
  check_int "counter matches events" evicted
    (Obs.Registry.counter (Telemetry.registry telemetry) "W1.evicted_tuples");
  check_int "state capped at the window" 4
    (op.Engine.Operator.state ()).data

(* ------------------------------------------------------------------ *)
(* Gauge aggregation across registries (Registry.merged) *)

let test_gauge_agg_merge () =
  let r1 = Obs.Registry.create () and r2 = Obs.Registry.create () in
  Obs.Registry.set_gauge ~agg:Obs.Registry.Sum r1 "J1.state_bytes" 10;
  Obs.Registry.set_gauge ~agg:Obs.Registry.Sum r2 "J1.state_bytes" 32;
  Obs.Registry.set_gauge ~agg:Obs.Registry.Min r1 "J1.S1.punct_progress_min" 5;
  Obs.Registry.set_gauge ~agg:Obs.Registry.Min r2 "J1.S1.punct_progress_min" 3;
  Obs.Registry.set_gauge ~agg:Obs.Registry.Max r1 "J1.S1.punct_progress_max" 9;
  Obs.Registry.set_gauge ~agg:Obs.Registry.Max r2 "J1.S1.punct_progress_max" 12;
  (* declared by r1 only: a Min gauge absent from r2 must not be dragged
     toward an implicit 0 by the merge *)
  Obs.Registry.set_gauge ~agg:Obs.Registry.Min r1 "lonely_min" 7;
  let m = Obs.Registry.merged [ r1; r2 ] in
  check_int "sum gauges add" 42 (Obs.Registry.gauge m "J1.state_bytes");
  check_int "min gauges take the minimum" 3
    (Obs.Registry.gauge m "J1.S1.punct_progress_min");
  check_int "max gauges take the maximum" 12
    (Obs.Registry.gauge m "J1.S1.punct_progress_max");
  check_int "min gauge on one side survives" 7
    (Obs.Registry.gauge m "lonely_min");
  check_bool "agg declaration survives the merge" true
    (Obs.Registry.gauge_agg m "J1.state_bytes" = Obs.Registry.Sum
    && Obs.Registry.gauge_agg m "J1.S1.punct_progress_min" = Obs.Registry.Min)

(* Regression for the satellite audit: a 4-shard run's merged registry
   must report J1's state gauges as the *sum* over shards (a Max-merged
   gauge would undercount a partitioned join's state by ~4x). Policy
   Never keeps the final state non-trivial. *)
let test_sharded_gauge_sum () =
  let q = fig5_query () in
  let trace = triangle_trace ~rounds:80 q in
  let pexec =
    Engine.Parallel_executor.create ~config:(Engine.Executor.Config.make ~policy:Purge_policy.Never ())
      ~instrument:true ~shards:4 q
      (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  let result =
    Engine.Parallel_executor.run ~sample_every:25 pexec (List.to_seq trace)
  in
  let rep = Engine.Parallel_executor.report pexec result in
  let reg = rep.Obs.Report.registry in
  let (breakdown : Engine.Operator.state) =
    List.assoc "J1" (Engine.Parallel_executor.state_breakdown pexec)
  in
  check_bool "state survived to the end (Never policy)" true
    (breakdown.bytes > 0);
  check_int "merged state_bytes gauge = summed breakdown" breakdown.bytes
    (Obs.Registry.gauge reg "J1.state_bytes");
  check_int "merged data_state gauge = summed breakdown" breakdown.data
    (Obs.Registry.gauge reg "J1.data_state")

(* Every execution mode records the same grid point: a sequential
   triangle, a 2-shard triangle and a two-query star run each leave the
   GC families and the four state gauges of every operator in their
   registry. *)
let test_grid_family_parity () =
  let check_families mode reg ops =
    let counters = List.map fst (Obs.Registry.counters reg) in
    List.iter
      (fun c -> check_bool (mode ^ ": counter " ^ c) true (List.mem c counters))
      [
        "gc_minor_words";
        "gc_promoted_words";
        "gc_major_words";
        "gc_minor_collections";
        "gc_major_collections";
        "gc_compactions";
      ];
    let gauges = List.map fst (Obs.Registry.gauges reg) in
    List.iter
      (fun g -> check_bool (mode ^ ": gauge " ^ g) true (List.mem g gauges))
      ("gc_heap_words"
      :: List.concat_map
           (fun (o : Obs.Report.operator_entry) ->
             List.map
               (fun m -> o.name ^ "." ^ m)
               [ "data_state"; "punct_state"; "index_state"; "state_bytes" ])
           ops)
  in
  let q = fig5_query () in
  let plan = Plan.mjoin [ "S1"; "S2"; "S3" ] in
  let trace = triangle_trace ~rounds:40 q in
  let telemetry = Telemetry.create () in
  let c = Executor.compile ~config:(Executor.Config.make ~telemetry ()) q plan in
  let r = Executor.run ~sample_every:25 c (List.to_seq trace) in
  check_families "sequential" (Telemetry.registry telemetry)
    (Executor.report c r).Obs.Report.operators;
  let pexec =
    Engine.Parallel_executor.create ~instrument:true ~shards:2 q plan
  in
  let pr =
    Engine.Parallel_executor.run ~sample_every:25 pexec (List.to_seq trace)
  in
  let rep = Engine.Parallel_executor.report pexec pr in
  check_families "2 shards" rep.Obs.Report.registry rep.Obs.Report.operators;
  let star third =
    Query.Parser.parse
      (Printf.sprintf
         "stream R(K:int, A:int)\nstream S(K:int, B:int)\n\
          stream %s(K:int, C:int)\nscheme R(+, _)\nscheme S(+, _)\n\
          scheme %s(+, _)\njoin R.K = S.K\njoin S.K = %s.K\n"
         third third third)
  in
  let registry =
    Query.Query_registry.create
      [
        { Query.Query_registry.qid = "star_rst"; query = star "T" };
        { Query.Query_registry.qid = "star_rsu"; query = star "U" };
      ]
  in
  let telemetry = Telemetry.create () in
  let m =
    Engine.Multi_executor.create
      ~config:(Executor.Config.make ~telemetry ())
      registry
  in
  let mtrace =
    Workload.Synth.round_trace_defs
      (Engine.Multi_executor.stream_defs m)
      { Workload.Synth.default_trace_config with rounds = 40 }
  in
  let mr = Engine.Multi_executor.run ~sample_every:25 m (List.to_seq mtrace) in
  check_families "multi-query" (Telemetry.registry telemetry)
    (Engine.Multi_executor.report m mr).Obs.Report.operators

(* ------------------------------------------------------------------ *)
(* Histogram properties *)

let fill xs =
  let h = Obs.Histogram.create () in
  List.iter (fun x -> Obs.Histogram.observe h x) xs;
  h

let values_gen = QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 2_000_000))

let prop_hist_percentile_monotone =
  QCheck2.Test.make ~name:"percentile is monotone in p" ~count:100 values_gen
    (fun xs ->
      let h = fill xs in
      let ps = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ] in
      let qs = List.map (Obs.Histogram.percentile h) ps in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      (* percentile resolves to the containing bucket's lower bound, so
         p=1.0 lands within one log2 bucket below the true maximum *)
      let p100 = Obs.Histogram.percentile h 1.0 in
      let maxv = Obs.Histogram.max_value h in
      nondecreasing qs
      && p100 <= maxv
      && (if p100 = 0 then maxv = 0 else maxv < 2 * p100))

let hist_fingerprint h =
  ( Obs.Histogram.buckets h,
    Obs.Histogram.count h,
    Obs.Histogram.sum h,
    Obs.Histogram.min_value h,
    Obs.Histogram.max_value h )

let prop_hist_merge_commutes =
  QCheck2.Test.make ~name:"merge is commutative" ~count:100
    QCheck2.Gen.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = fill xs and b = fill ys in
      hist_fingerprint (Obs.Histogram.merge a b)
      = hist_fingerprint (Obs.Histogram.merge b a))

let prop_hist_observe_n =
  QCheck2.Test.make ~name:"observe ~n = n repeated observes" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 2_000_000) (int_range 1 20)))
    (fun pairs ->
      let bulk = Obs.Histogram.create () in
      let looped = Obs.Histogram.create () in
      List.iter
        (fun (v, n) ->
          Obs.Histogram.observe ~n bulk v;
          for _ = 1 to n do
            Obs.Histogram.observe looped v
          done)
        pairs;
      hist_fingerprint bulk = hist_fingerprint looped)

(* ------------------------------------------------------------------ *)
(* OpenMetrics codec *)

let find_sample samples name labels =
  List.find_opt
    (fun (s : Obs.Openmetrics.sample) ->
      s.Obs.Openmetrics.name = name
      && List.for_all
           (fun (k, v) -> Obs.Openmetrics.label s k = Some v)
           labels)
    samples
  |> Option.map (fun (s : Obs.Openmetrics.sample) -> s.Obs.Openmetrics.value)

let test_openmetrics_roundtrip () =
  let r = Obs.Registry.create () in
  Obs.Registry.incr ~by:3 r "J1.tuples_in";
  Obs.Registry.set_gauge ~agg:Obs.Registry.Sum r "J1.state_bytes" 64;
  Obs.Registry.set_gauge ~agg:Obs.Registry.Min r "J1.S1.punct_progress_min" 4;
  Obs.Registry.observe ~n:2 r "J1.result_latency" 0;
  Obs.Registry.observe r "J1.result_latency" 5;
  let text = Obs.Openmetrics.render ~tick:42 r in
  check_bool "terminated" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  match Obs.Openmetrics.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok samples ->
      let get name labels =
        match find_sample samples name labels with
        | Some v -> v
        | None ->
            Alcotest.failf "sample %s{%s} missing" name
              (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
      in
      check_bool "counter with op label and _total suffix" true
        (get "pstream_tuples_in_total" [ ("op", "J1") ] = 3.);
      check_bool "gauge carries agg label" true
        (get "pstream_state_bytes" [ ("op", "J1"); ("agg", "sum") ] = 64.);
      check_bool "two-segment prefix becomes op+input labels" true
        (get "pstream_punct_progress_min"
           [ ("op", "J1"); ("input", "S1"); ("agg", "min") ]
        = 4.);
      check_bool "tick gauge" true (get "pstream_tick" [] = 42.);
      (* histogram: cumulative buckets on the log2 grid; 0s land in le="0",
         5 lands in [4,8) whose integer upper edge is 7 *)
      check_bool "le=0 cumulative" true
        (get "pstream_result_latency_bucket" [ ("op", "J1"); ("le", "0") ] = 2.);
      check_bool "le=7 cumulative" true
        (get "pstream_result_latency_bucket" [ ("op", "J1"); ("le", "7") ] = 3.);
      check_bool "+Inf = count" true
        (get "pstream_result_latency_bucket" [ ("op", "J1"); ("le", "+Inf") ]
        = 3.
        && get "pstream_result_latency_count" [ ("op", "J1") ] = 3.);
      check_bool "sum" true
        (get "pstream_result_latency_sum" [ ("op", "J1") ] = 5.);
      List.iter
        (fun malformed ->
          check_bool (Printf.sprintf "%S rejected" malformed) true
            (match Obs.Openmetrics.parse malformed with
            | Error _ -> true
            | Ok _ -> false))
        [ "x 1\n"; "a} b{\n# EOF\n"; "}{\n# EOF\n" ]

(* ------------------------------------------------------------------ *)
(* Exporter *)

let temp_sock_path () =
  let path = Filename.temp_file "pstream" ".sock" in
  Sys.remove path;
  path

let test_exporter_roundtrip () =
  let path = temp_sock_path () in
  let addr = Obs.Exporter.Unix_path path in
  match Obs.Exporter.start addr with
  | Error e -> Alcotest.failf "start failed: %s" e
  | Ok ex ->
      check_bool "empty exposition before first publish" true
        (match Obs.Exporter.fetch addr with
        | Ok text -> Obs.Openmetrics.parse text = Ok []
        | Error _ -> false);
      let payload = "# TYPE x gauge\nx 1\n# EOF\n" in
      Obs.Exporter.publish ex payload;
      check_bool "fetch returns the published payload" true
        (Obs.Exporter.fetch addr = Ok payload);
      Obs.Exporter.publish ex "# TYPE x gauge\nx 2\n# EOF\n";
      check_bool "publish replaces" true
        (match Obs.Exporter.fetch addr with
        | Ok text -> text <> payload
        | Error _ -> false);
      Obs.Exporter.stop ex;
      Obs.Exporter.stop ex;
      check_bool "socket file unlinked on stop" true (not (Sys.file_exists path));
      check_bool "fetch fails after stop" true
        (match Obs.Exporter.fetch addr with Error _ -> true | Ok _ -> false)

let test_exporter_address_parsing () =
  check_bool "bare port" true
    (Obs.Exporter.address_of_string "9100"
    = Ok (Obs.Exporter.Tcp ("127.0.0.1", 9100)));
  check_bool "host:port" true
    (Obs.Exporter.address_of_string "0.0.0.0:9100"
    = Ok (Obs.Exporter.Tcp ("0.0.0.0", 9100)));
  check_bool "unix path" true
    (Obs.Exporter.address_of_string "unix:/tmp/m.sock"
    = Ok (Obs.Exporter.Unix_path "/tmp/m.sock"));
  check_bool "garbage rejected" true
    (match Obs.Exporter.address_of_string "not-a-port" with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* The live plane must not perturb the run it observes *)

let stable_counters reg =
  Obs.Registry.counters reg
  |> List.filter (fun (k, _) -> not (String.length k >= 3 && String.sub k 0 3 = "gc_"))

let test_exporter_identity () =
  let q = fig5_query () in
  let plan = Plan.mjoin [ "S1"; "S2"; "S3" ] in
  let trace = triangle_trace ~rounds:80 q in
  let run exporter =
    let sink, events = Obs.Sink.memory () in
    let telemetry = Telemetry.create ~sink ~watchdog:(Obs.Watchdog.create ()) () in
    let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ~telemetry ()) q plan in
    let r = Executor.run ~sample_every:25 ?exporter c (List.to_seq trace) in
    (r, events (), Telemetry.registry telemetry)
  in
  let r1, ev1, reg1 = run None in
  let path = temp_sock_path () in
  let ex =
    match Obs.Exporter.start (Obs.Exporter.Unix_path path) with
    | Ok ex -> ex
    | Error e -> Alcotest.failf "start failed: %s" e
  in
  let r2, ev2, reg2 = run (Some ex) in
  let last_scrape = Obs.Exporter.fetch (Obs.Exporter.Unix_path path) in
  Obs.Exporter.stop ex;
  check_bool "outputs identical" true
    (render_outputs r1.Executor.outputs = render_outputs r2.Executor.outputs);
  check_string "output hash identical"
    (Executor.output_hash r1.Executor.outputs)
    (Executor.output_hash r2.Executor.outputs);
  check_bool "metrics series identical" true
    (Metrics.samples r1.Executor.metrics = Metrics.samples r2.Executor.metrics);
  check_bool "event traces identical" true
    (List.map Obs.Event.to_line ev1 = List.map Obs.Event.to_line ev2);
  (* counters equal except the run-nondeterministic gc_* family; the
     deterministic histograms agree bucket for bucket *)
  check_bool "non-gc counters identical" true
    (stable_counters reg1 = stable_counters reg2);
  List.iter
    (fun name ->
      check_bool (name ^ " buckets identical") true
        (Obs.Histogram.buckets (Obs.Registry.histogram reg1 name)
        = Obs.Histogram.buckets (Obs.Registry.histogram reg2 name)))
    [ "J1.purge_lag"; "J1.result_latency"; "J1.purge_batch" ];
  (* the exporter serves the closing grid point's rendering of the live
     registry, which nothing writes after it *)
  check_string "final scrape renders the final registry"
    (Obs.Openmetrics.render ~tick:r2.Executor.consumed reg2)
    (match last_scrape with Ok text -> text | Error e -> e)

(* Every emitted result carries one end-to-end latency observation. *)
let test_result_latency_counts () =
  let q = fig5_query () in
  let sink, _ = Obs.Sink.memory () in
  let telemetry = Telemetry.create ~sink () in
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ~telemetry ()) q
      (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  let r = Executor.run ~sample_every:25 c (List.to_seq (triangle_trace q)) in
  let reg = Telemetry.registry telemetry in
  let h = Obs.Registry.histogram reg "J1.result_latency" in
  check_bool "results were emitted" true (r.Executor.emitted > 0);
  check_int "one latency span per emitted result"
    (Obs.Registry.counter reg "J1.tuples_out")
    (Obs.Histogram.count h);
  check_bool "latency spans the contributing tuples" true
    (Obs.Histogram.min_value h >= 0
    && Obs.Histogram.max_value h <= r.Executor.consumed)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "event",
        [ Alcotest.test_case "roundtrip" `Quick test_event_roundtrip ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ("counters", [ Alcotest.test_case "basics" `Quick test_counters ]);
      ( "watchdog",
        [
          Alcotest.test_case "degenerate slopes" `Quick
            test_watchdog_slope_degenerate;
          Alcotest.test_case "alarm + latch" `Quick
            test_watchdog_alarm_and_latch;
          Alcotest.test_case "quiet on plateau" `Quick
            test_watchdog_quiet_on_plateau;
        ] );
      ( "sink",
        [ Alcotest.test_case "memory in order" `Quick test_sink_memory_in_order ]
      );
      ( "metrics",
        [
          Alcotest.test_case "degenerate slopes" `Quick
            test_metrics_degenerate_slopes;
        ] );
      ( "engine",
        [
          Alcotest.test_case "null-sink identity" `Quick
            test_null_telemetry_identity;
          Alcotest.test_case "report = trace replay" `Quick
            test_report_matches_trace_replay;
          Alcotest.test_case "emitted post-sink" `Quick
            test_emitted_counted_post_sink;
          Alcotest.test_case "stats conservation (mjoin)" `Quick
            test_stats_conservation;
          Alcotest.test_case "stats conservation (pjoin)" `Quick
            test_stats_conservation_pjoin;
          Alcotest.test_case "purge lag eager vs lazy" `Quick
            test_purge_lag_eager_vs_lazy;
          Alcotest.test_case "watchdog silent when safe" `Quick
            test_watchdog_silent_on_safe_run;
          Alcotest.test_case "watchdog flags unsafe" `Quick
            test_watchdog_flags_unsafe_run;
          Alcotest.test_case "watchdog quiet while the lag fills" `Quick
            test_watchdog_quiet_while_lag_fills;
          Alcotest.test_case "inserts count stored tuples" `Quick
            test_inserts_count_stored_tuples;
          Alcotest.test_case "push_ns is wall time per domain" `Quick
            test_push_ns_is_wall_time_per_domain;
          Alcotest.test_case "window evict events" `Quick
            test_window_evict_events;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "merge honours declared aggregation" `Quick
            test_gauge_agg_merge;
          Alcotest.test_case "4-shard state gauges sum" `Quick
            test_sharded_gauge_sum;
          Alcotest.test_case "same families in every mode" `Quick
            test_grid_family_parity;
        ] );
      ( "histogram properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hist_percentile_monotone;
            prop_hist_merge_commutes;
            prop_hist_observe_n;
          ] );
      ( "openmetrics",
        [ Alcotest.test_case "render/parse roundtrip" `Quick test_openmetrics_roundtrip ] );
      ( "exporter",
        [
          Alcotest.test_case "address parsing" `Quick
            test_exporter_address_parsing;
          Alcotest.test_case "publish/fetch over unix socket" `Quick
            test_exporter_roundtrip;
          Alcotest.test_case "run identical with exporter on/off" `Quick
            test_exporter_identity;
          Alcotest.test_case "result-latency spans per emit" `Quick
            test_result_latency_counts;
        ] );
    ]
