(* The calls bin/pstream_run.exe makes, in its order, for each workload
   kind — made in process so they can be timed one by one. [prepare] is
   everything before the first element enters the engine (the benchmark's
   setup_s); [execute] is the run and the output hash. Printing is left
   out. The default GC settings are kept, as pstream_run keeps them.

   If pstream_run's call sequence changes, this module must follow: the
   traced pass checks that its root span stays within 5% of the untraced
   wall time, which is what catches drift. *)

module Executor = Engine.Executor
module Telemetry = Engine.Telemetry
module Parallel_executor = Engine.Parallel_executor
module Multi_executor = Engine.Multi_executor
module Cjq = Query.Cjq

type inputs = {
  queries_dir : string;
  trace_path : string;  (** replay workloads *)
  shape : Gen.shape;  (** the multi-query mode's generator shape *)
  sample_every : int;
}

type prepared =
  | Seq of { query : Cjq.t; trace : Streams.Trace.t; compiled : Executor.compiled }
  | Sharded of { query : Cjq.t; trace : Streams.Trace.t; pexec : Parallel_executor.t }
  | Multi of { trace : Streams.Trace.t; multi : Multi_executor.t; telemetry : Telemetry.t }
  | Open of { query : Cjq.t; compiled : Executor.compiled }

let policy = Engine.Purge_policy.Eager

(* pstream_run's telemetry handle; [time_ns] replaces its CPU-time clock
   with a monotonic one in the traced pass. *)
let telemetry ?time_ns () =
  Telemetry.create ~sink:Obs.Sink.null ~watchdog:(Obs.Watchdog.create ()) ?time_ns ()

let fail fmt = Printf.ksprintf failwith fmt

let parse (timer : Spans.timer) path =
  timer.span "query.parse" (fun () -> Query.Parser.parse_file path)

let check (timer : Spans.timer) q =
  if not (timer.span "checker.check" (fun () -> Core.Checker.is_safe_kind q)) then
    fail "query is not safe: %s" (Fmt.str "%a" Cjq.pp q)

let parse_checked timer path =
  let q = parse timer path in
  check timer q;
  q

let load (timer : Spans.timer) q path =
  let trace =
    timer.span "trace_io.load" (fun () ->
        Streams.Trace_io.load ~defs:(Cjq.stream_defs q) ~path)
  in
  let violations =
    timer.span "trace.check" (fun () -> Streams.Trace.check ~schemes:(Cjq.scheme_set q) trace)
  in
  if violations <> [] then fail "%s: trace is ill-formed" path;
  trace

(* pstream_run --shards N [--checkpoint-every K]: instrumented, with a
   watchdog, checkpoints kept in memory. *)
let parallel ~instrument ~shards ~checkpoint_every inp q =
  let fingerprint =
    Engine.Checkpoint.fingerprint
      [
        ("query", Fmt.str "%a" Cjq.pp q);
        ("policy", Fmt.str "%a" Engine.Purge_policy.pp policy);
        ("shards", string_of_int shards);
        ("sample_every", string_of_int inp.sample_every);
        ("replay", inp.trace_path);
      ]
  in
  let checkpoint =
    Option.map (fun every -> Engine.Checkpoint.config ~fingerprint ~every ()) checkpoint_every
  in
  Parallel_executor.create
    ~config:(Executor.Config.make ~policy ())
    ~watchdog:(Obs.Watchdog.create ()) ~instrument ~kills:[] ~max_restarts:2 ?checkpoint
    ~shards q (Gen.plan q)

let prepare ?time_ns (timer : Spans.timer) (w : Workloads.t) inp =
  let path f = Filename.concat inp.queries_dir f in
  match w.kind with
  | Workloads.Replay { query; shards = 1; _ } ->
      let q = parse_checked timer (path query) in
      let trace = load timer q inp.trace_path in
      let compiled =
        timer.span "executor.compile" (fun () ->
            Executor.compile
              ~config:(Executor.Config.make ~policy ~telemetry:(telemetry ?time_ns ()) ())
              q (Gen.plan q))
      in
      Seq { query = q; trace; compiled }
  | Workloads.Replay { query; shards; checkpoint_every } ->
      let q = parse_checked timer (path query) in
      let trace = load timer q inp.trace_path in
      let pexec =
        timer.span "executor.compile" (fun () ->
            parallel ~instrument:true ~shards ~checkpoint_every inp q)
      in
      Sharded { query = q; trace; pexec }
  | Workloads.Multi { queries } ->
      let qs = List.map (fun f -> (f, parse timer (path f))) queries in
      let entries =
        List.map
          (fun (f, q) ->
            { Query.Query_registry.qid = Filename.remove_extension f; query = q })
          qs
      in
      let reg =
        timer.span "query_registry.create" (fun () -> Query.Query_registry.create entries)
      in
      List.iter (fun (_, q) -> check timer q) qs;
      ignore (timer.span "planner.plan" (fun () -> Core.Planner.plan_shared ~share:true reg));
      let defs =
        let seen = Hashtbl.create 8 in
        List.concat_map (fun (_, q) -> Cjq.stream_defs q) qs
        |> List.filter (fun d ->
               let n = Streams.Stream_def.name d in
               (not (Hashtbl.mem seen n)) && (Hashtbl.add seen n (); true))
      in
      let trace =
        timer.span "workload.generate" (fun () ->
            Workload.Synth.round_trace_defs defs
              {
                Workload.Synth.rounds = inp.shape.Gen.rounds;
                tuples_per_round = inp.shape.Gen.fanin;
                punct_lag = inp.shape.Gen.lag;
                trace_seed = 42;
              })
      in
      let telemetry = telemetry ?time_ns () in
      let multi =
        timer.span "executor.compile" (fun () ->
            Multi_executor.create
              ~config:(Executor.Config.make ~policy ~telemetry ())
              ~share:true reg)
      in
      Multi { trace; multi; telemetry }
  | Workloads.Open_loop { query; _ } ->
      let q = parse_checked timer (path query) in
      let compiled =
        timer.span "executor.compile" (fun () ->
            Executor.compile ~config:(Executor.Config.make ~policy ()) q (Gen.plan q))
      in
      Open { query = q; compiled }

type executed =
  | Seq_done of { compiled : Executor.compiled; result : Executor.result; hash : string }
  | Sharded_done of {
      pexec : Parallel_executor.t;
      result : Parallel_executor.result;
      hash : string;
    }
  | Multi_done of {
      multi : Multi_executor.t;
      result : Multi_executor.result;
      telemetry : Telemetry.t;
    }

let execute (timer : Spans.timer) inp = function
  | Seq { compiled; trace; _ } ->
      let result =
        timer.span "executor.run" (fun () ->
            Executor.run ~sample_every:inp.sample_every ~label:inp.trace_path compiled
              (List.to_seq trace))
      in
      Telemetry.close (Executor.telemetry compiled);
      let hash =
        timer.span "executor.hash" (fun () -> Executor.output_hash result.Executor.outputs)
      in
      Seq_done { compiled; result; hash }
  | Sharded { pexec; trace; _ } ->
      let result =
        timer.span "parallel_executor.run" (fun () ->
            Parallel_executor.run ~sample_every:inp.sample_every ~label:inp.trace_path
              pexec (List.to_seq trace))
      in
      let hash =
        timer.span "executor.hash" (fun () ->
            Executor.output_hash result.Parallel_executor.outputs)
      in
      Sharded_done { pexec; result; hash }
  | Multi { multi; trace; telemetry } ->
      let result =
        timer.span "multi_executor.run" (fun () ->
            Multi_executor.run ~sample_every:inp.sample_every ~label:"multi-query" multi
              (List.to_seq trace))
      in
      Telemetry.close telemetry;
      Multi_done { multi; result; telemetry }
  | Open _ -> invalid_arg "Mirror.execute: the open loop drives its own run"
