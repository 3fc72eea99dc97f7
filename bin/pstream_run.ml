(* pstream-run: execute a query over a synthetic round-based workload and
   report results, purge activity and the join-state time series — the
   quickest way to watch a safe query stay bounded (or an unsafe one leak
   with --force). The fault flags turn the same binary into a chaos
   harness: a seeded injector perturbs the trace, the contract monitor
   decides what to do about it, and the exit code says how it ended. *)

open Cmdliner
module Element = Streams.Element
module Fault_injector = Streams.Fault_injector

(* The closing lines of every mode: watchdog alarms, the trace file, and
   the report built by [report]. Exit 3 when the watchdog latched an
   alarm. *)
let finish ~alarms ~trace_file ~report_file report =
  List.iter
    (fun a -> Fmt.pr "WATCHDOG ALARM: %a@." Obs.Watchdog.pp_alarm a)
    alarms;
  Option.iter (Fmt.pr "trace written to %s@.") trace_file;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Obs.Report.to_json (report ())));
      output_char oc '\n';
      close_out oc;
      Fmt.pr "report written to %s@." path)
    report_file;
  if alarms <> [] then 3 else 0

(* Sharded execution path, for one query or a registry: run the fleet,
   then print the same summary surface the sequential path does — plus the
   router's routing attributes over [streams] and a per-shard state table
   — so the modes are directly comparable; [print_answer] prints the
   answer lines. The merged event trace is written with each worker event
   tagged by its shard; injector events lead it, untagged, like the
   driver's own. *)
let run_sharded ~pexec ~streams ~policy ~sample_every ~label ~trace_file
    ~report_file ~meta ~fault_events ~exporter ~print_answer trace =
  let router = Engine.Parallel_executor.router pexec in
  Fmt.pr "shards: %d (%s partitioning)@."
    (Engine.Parallel_executor.n_shards pexec)
    (if Engine.Shard_router.exact router then "exact" else "key-aligned");
  List.iter
    (fun s ->
      match Engine.Shard_router.routing_attr router s with
      | Some a -> Fmt.pr "  %s routed on %s@." s a
      | None -> ())
    streams;
  let result =
    Engine.Parallel_executor.run ~sample_every ~label ?exporter pexec
      (List.to_seq trace)
  in
  (match trace_file with
  | Some path ->
      let oc = open_out path in
      List.iter
        (fun e ->
          output_string oc (Obs.Event.to_line e);
          output_char oc '\n')
        fault_events;
      List.iter
        (fun (shard, e) ->
          output_string oc (Obs.Event.to_line ?shard e);
          output_char oc '\n')
        (Engine.Parallel_executor.events pexec);
      close_out oc
  | None -> ());
  let n_results =
    List.length
      (List.filter Element.is_data result.Engine.Parallel_executor.outputs)
  in
  Fmt.pr "policy: %a@." Engine.Purge_policy.pp policy;
  Fmt.pr "consumed %d elements, emitted %d results@."
    result.Engine.Parallel_executor.consumed n_results;
  List.iter
    (fun (b : Engine.Executor.breakdown) ->
      Fmt.pr "%s: data=%d puncts=%d index=%d bytes=%d (summed over shards)@."
        b.Engine.Executor.op_name b.Engine.Executor.data
        b.Engine.Executor.puncts b.Engine.Executor.index
        b.Engine.Executor.bytes)
    (Engine.Parallel_executor.state_breakdown pexec);
  Array.iteri
    (fun i bl ->
      Fmt.pr "shard %d:%a@." i
        (fun ppf bl ->
          List.iter
            (fun (b : Engine.Executor.breakdown) ->
              Fmt.pf ppf " %s data=%d" b.Engine.Executor.op_name
                b.Engine.Executor.data)
            bl)
        bl)
    (Engine.Parallel_executor.shard_breakdowns pexec);
  Fmt.pr "@.state series:@.%a@." Engine.Metrics.pp_series
    result.Engine.Parallel_executor.metrics;
  Fmt.pr "growth slope (second half): %.4f tuples/element@."
    (Engine.Metrics.growth_slope result.Engine.Parallel_executor.metrics);
  print_answer result;
  let crashes = Engine.Parallel_executor.crash_count pexec in
  if crashes > 0 then begin
    let log = Engine.Parallel_executor.restarts_log pexec in
    let restored =
      List.length
        (List.filter
           (fun (r : Engine.Parallel_executor.restart) -> r.restored)
           log)
    in
    let max_replayed =
      List.fold_left
        (fun acc (r : Engine.Parallel_executor.restart) ->
          max acc r.replayed)
        0 log
    in
    Fmt.pr
      "shard restarts: %d (recovered by history replay; %d from checkpoint, \
       max %d elements replayed)@."
      crashes restored max_replayed;
    List.iter
      (fun (r : Engine.Parallel_executor.restart) ->
        Fmt.pr "  restart shard %d attempt %d: replayed %d element(s)%s@."
          r.shard r.attempt r.replayed
          (if r.restored then " after checkpoint restore" else ""))
      log
  end;
  finish
    ~alarms:(Engine.Parallel_executor.alarms pexec)
    ~trace_file ~report_file
    (fun () -> Engine.Parallel_executor.report ~meta pexec result)

let print_query_answer qid outputs =
  let a = Engine.Multi_executor.answer outputs in
  Fmt.pr "query %s: emitted %d results, output hash %s@." qid
    a.Engine.Multi_executor.emitted a.Engine.Multi_executor.hash

(* Multi-query mode: N --query files share one input and, where the
   shareability check admits it, one physical sub-join. The surface is the
   registry, the shared plan, per-query output hashes and the
   owner-labelled state breakdown; under --shards N the fleet runs the
   shared DAG. *)
let run_multi ~files ~no_share ~rounds ~tuples_per_round ~punct_lag ~policy
    ~force ~sample_every ~shards ~kills ~max_restarts ~trace_file
    ~report_file ~exporter =
  let parsed =
    List.map
      (fun f ->
        match Query.Parser.parse_file f with
        | exception Query.Parser.Parse_error { line; message } ->
            Error (Fmt.str "%s:%d: %s" f line message)
        | exception Query.Cjq.Invalid message ->
            Error (Fmt.str "%s: invalid query: %s" f message)
        | q -> Ok (f, q))
      files
  in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) parsed
  in
  if errors <> [] then begin
    List.iter (fun e -> Fmt.epr "%s@." e) errors;
    1
  end
  else
    let parsed = List.filter_map Result.to_option parsed in
    let base f = Filename.remove_extension (Filename.basename f) in
    let basenames = List.map (fun (f, _) -> base f) parsed in
    let entries =
      List.mapi
        (fun i (f, q) ->
          let b = base f in
          let qid =
            if List.length (List.filter (String.equal b) basenames) > 1 then
              Fmt.str "%s#%d" b (i + 1)
            else b
          in
          { Query.Query_registry.qid; query = q })
        parsed
    in
    match Query.Query_registry.create entries with
    | exception Invalid_argument m ->
        Fmt.epr "%s@." m;
        1
    | reg ->
        let unsafe_qids =
          List.filter_map
            (fun (e : Query.Query_registry.entry) ->
              if Core.Checker.is_safe_kind e.Query.Query_registry.query then
                None
              else Some e.Query.Query_registry.qid)
            entries
        in
        List.iter
          (fun (e : Query.Query_registry.entry) ->
            Fmt.pr "query %s: %a@.  safe: %b@." e.Query.Query_registry.qid
              Query.Cjq.pp e.Query.Query_registry.query
              (not (List.mem e.Query.Query_registry.qid unsafe_qids)))
          entries;
        if unsafe_qids <> [] && not force then begin
          Fmt.epr
            "refusing to run unsafe queries (%s); use --force to run anyway@."
            (String.concat ", " unsafe_qids);
          2
        end
        else
          let share = not no_share in
          let mplan = Core.Planner.plan_shared ~share reg in
          (if mplan.Core.Planner.groups = [] then
             Fmt.pr "shared sub-plans: none%s@."
               (if share then "" else " (--no-share)")
           else
             List.iter
               (fun (g : Core.Planner.shared_group) ->
                 Fmt.pr "shared group %s: streams {%s} serving %s@."
                   g.Core.Planner.gid
                   (String.concat ", " g.Core.Planner.streams)
                   (String.concat ", " (List.map fst g.Core.Planner.group_members)))
               mplan.Core.Planner.groups);
          List.iter
            (fun (qid, a) ->
              match a with
              | Core.Planner.Shared { gid; rest = [] } ->
                  Fmt.pr "  %s: fully covered by %s@." qid gid
              | Core.Planner.Shared { gid; rest } ->
                  Fmt.pr "  %s: %s + residual {%s}@." qid gid
                    (String.concat ", " rest)
              | Core.Planner.Independent _ -> Fmt.pr "  %s: independent@." qid)
            mplan.Core.Planner.assignments;
          let defs =
            Query.Cjq.union_defs
              (List.map
                 (fun (e : Query.Query_registry.entry) -> e.query)
                 entries)
          in
          let trace =
            Workload.Synth.round_trace_defs defs
              {
                Workload.Synth.rounds;
                tuples_per_round;
                punct_lag;
                trace_seed = 42;
              }
          in
          let meta =
            [
              ( "policy",
                Obs.Json.String (Fmt.str "%a" Engine.Purge_policy.pp policy) );
              ("share", Obs.Json.Bool share);
            ]
          in
          if shards > 1 then
            let pexec =
              Engine.Parallel_executor.create_multi
                ~config:(Engine.Executor.Config.make ~policy ())
                ~share ~watchdog:(Obs.Watchdog.create ()) ~instrument:true
                ~kills ~max_restarts ~shards reg
            in
            run_sharded ~pexec
              ~streams:(List.map Streams.Stream_def.name defs)
              ~policy ~sample_every ~label:"multi-query" ~trace_file
              ~report_file ~meta ~fault_events:[] ~exporter
              ~print_answer:(fun r ->
                List.iter
                  (fun (qid, outputs) -> print_query_answer qid outputs)
                  r.Engine.Parallel_executor.per_query)
              trace
          else begin
            Fmt.pr "policy: %a@." Engine.Purge_policy.pp policy;
            let sink =
              match trace_file with
              | Some path -> Obs.Sink.jsonl_file path
              | None -> Obs.Sink.null
            in
            let telemetry =
              Engine.Telemetry.create ~sink ~watchdog:(Obs.Watchdog.create ())
                ()
            in
            let m =
              Engine.Multi_executor.create
                ~config:(Engine.Executor.Config.make ~policy ~telemetry ())
                ~share reg
            in
            let result =
              Engine.Multi_executor.run ~sample_every ~label:"multi-query"
                ?exporter m (List.to_seq trace)
            in
            Engine.Telemetry.close telemetry;
            Fmt.pr "consumed %d elements@."
              result.Engine.Multi_executor.consumed;
            List.iter
              (fun (qid, (qr : Engine.Multi_executor.query_result)) ->
                print_query_answer qid qr.Engine.Multi_executor.outputs)
              result.Engine.Multi_executor.per_query;
            List.iter
              (fun (owner, ops) ->
                List.iter
                  (fun (b : Engine.Executor.breakdown) ->
                    Fmt.pr "%s %s: data=%d puncts=%d index=%d bytes=%d@." owner
                      b.Engine.Executor.op_name b.Engine.Executor.data
                      b.Engine.Executor.puncts b.Engine.Executor.index
                      b.Engine.Executor.bytes)
                  ops)
              (Engine.Multi_executor.state_breakdown m);
            Fmt.pr "total state bytes: %d (shared state counted once)@."
              (Engine.Multi_executor.total_state_bytes m);
            finish
              ~alarms:(Engine.Telemetry.alarms telemetry)
              ~trace_file ~report_file
              (fun () -> Engine.Multi_executor.report ~meta m result)
          end

let pp_contract_summary ct =
  Fmt.pr
    "contract: late=%d dup_puncts=%d stalls=%d quarantined=%d(+%d overflow) \
     shed=%d@."
    (Engine.Contract.late_count ct)
    (Engine.Contract.dup_count ct)
    (Engine.Contract.stall_count ct)
    (Engine.Contract.quarantined_count ct)
    (Engine.Contract.quarantine_overflow ct)
    (Engine.Contract.shed_count ct)

let run_single file rounds tuples_per_round punct_lag policy force sample_every
    replay save_trace report_file trace_file shards faults contract_config
    kills max_restarts checkpoint_every checkpoint_dir resume_dir exporter =
  match Query.Parser.parse_file file with
  | exception Query.Parser.Parse_error { line; message } ->
      Fmt.epr "%s:%d: %s@." file line message;
      1
  | exception Query.Cjq.Invalid message ->
      Fmt.epr "%s: invalid query: %s@." file message;
      1
  | query ->
      let kind = Query.Cjq.kind query in
      let safe = Core.Checker.is_safe_kind query in
      Fmt.pr "query: %a@.safe: %b@." Query.Cjq.pp query safe;
      if kind <> Query.Cjq.Inner then
        Fmt.pr "outer verdict: %a@." Core.Checker.pp_outer_report
          (Core.Checker.check_outer query kind);
      if (not safe) && not force then begin
        Fmt.epr
          "refusing to run an unsafe query (its state cannot be bounded, or \
           its unmatched-side emission is not punctuation-provable); use \
           --force to run it anyway@.";
        2
      end
      else
        let trace =
          match replay with
          | Some path ->
              Streams.Trace_io.load ~defs:(Query.Cjq.stream_defs query) ~path
          | None ->
              Workload.Synth.round_trace query
                {
                  Workload.Synth.rounds;
                  tuples_per_round;
                  punct_lag;
                  trace_seed = 42;
                }
        in
        let trace, injections =
          match faults with
          | None -> (trace, [])
          | Some cfg ->
              let faulted, injections = Fault_injector.apply cfg trace in
              Fmt.pr "chaos: seed %d injected %d faults@."
                cfg.Fault_injector.seed (List.length injections);
              List.iter
                (fun i -> Fmt.pr "  %a@." Fault_injector.pp_injection i)
                injections;
              (faulted, injections)
        in
        let fault_events = Fault_injector.events injections in
        (match save_trace with
        | Some path ->
            Streams.Trace_io.save ~path trace;
            Fmt.pr "trace saved to %s (%d elements)@." path (List.length trace)
        | None -> ());
        let violations =
          Streams.Trace.check ~schemes:(Query.Cjq.scheme_set query) trace
        in
        if violations <> [] then begin
          Fmt.epr "input trace is ill-formed:@.";
          List.iter
            (fun v -> Fmt.epr "  %a@." Streams.Trace.pp_violation v)
            violations
        end;
        let meta =
          [
            ("query", Obs.Json.String file);
            ( "policy",
              Obs.Json.String (Fmt.str "%a" Engine.Purge_policy.pp policy) );
            ("safe", Obs.Json.Bool safe);
          ]
        in
        let plan = Query.Plan.mjoin (Query.Cjq.stream_names query) in
        if shards > 1 then begin
          (* Everything the regenerated trace (and hence a checkpoint's
             validity) depends on; checkpoint/resume flags themselves are
             deliberately excluded so a resume run may differ in them. *)
          let fingerprint =
            Engine.Checkpoint.fingerprint
              [
                ("query", Fmt.str "%a" Query.Cjq.pp query);
                ("policy", Fmt.str "%a" Engine.Purge_policy.pp policy);
                ("shards", string_of_int shards);
                ("sample_every", string_of_int sample_every);
                ("rounds", string_of_int rounds);
                ("fanin", string_of_int tuples_per_round);
                ("lag", string_of_int punct_lag);
                ("replay", Option.value replay ~default:"");
                ( "chaos",
                  match faults with
                  | None -> ""
                  | Some c ->
                      Fmt.str "%d:%g:%g:%g:%d:%g:%a" c.Fault_injector.seed
                        c.Fault_injector.drop_punct c.Fault_injector.dup_punct
                        c.Fault_injector.delay_punct
                        c.Fault_injector.delay_ticks
                        c.Fault_injector.late_data
                        Fmt.(
                          option (fun ppf (s, a, t) ->
                              Fmt.pf ppf "%s:%d:%d" s a t))
                        c.Fault_injector.stall );
              ]
          in
          let checkpoint =
            match checkpoint_every with
            | None -> None
            | Some every ->
                let dir =
                  match checkpoint_dir with
                  | Some _ as d -> d
                  | None -> resume_dir
                in
                Some (Engine.Checkpoint.config ?dir ~fingerprint ~every ())
          in
          let resume =
            match resume_dir with
            | None -> None
            | Some dir ->
                let schema =
                  Engine.Executor.output_schema
                    (Engine.Executor.compile query plan)
                in
                let c =
                  Engine.Checkpoint.load_latest ~dir ~fingerprint ~schema
                in
                Fmt.pr
                  "resume: checkpoint at barrier %d, %d element(s) already \
                   consumed@."
                  c.Engine.Checkpoint.barrier c.Engine.Checkpoint.consumed;
                Some c
          in
          let pexec =
            Engine.Parallel_executor.create
              ~config:(Engine.Executor.Config.make ~policy ())
              ~watchdog:(Obs.Watchdog.create ()) ~instrument:true
              ?contract_config ~kills ~max_restarts ?checkpoint ?resume ~shards
              query plan
          in
          run_sharded ~pexec ~streams:(Query.Cjq.stream_names query) ~policy
            ~sample_every ~label:file ~trace_file ~report_file ~meta
            ~fault_events ~exporter
            ~print_answer:(fun r ->
              Fmt.pr "output hash: %s@."
                (Engine.Executor.output_hash
                   r.Engine.Parallel_executor.outputs))
            trace
        end
        else begin
          let sink =
            match trace_file with
            | Some path -> Obs.Sink.jsonl_file path
            | None -> Obs.Sink.null
          in
          let telemetry =
            Engine.Telemetry.create ~sink ~watchdog:(Obs.Watchdog.create ()) ()
          in
          List.iter (Engine.Telemetry.emit telemetry) fault_events;
          let contract = Option.map Engine.Contract.create contract_config in
          let compiled =
            Engine.Executor.compile
              ~config:
                (Engine.Executor.Config.make ~policy ~telemetry ?contract ())
              query plan
          in
          let result =
            Engine.Executor.run ~sample_every ~label:file ?exporter compiled
              (List.to_seq trace)
          in
          Engine.Telemetry.close telemetry;
          let n_results =
            List.length
              (List.filter Element.is_data result.Engine.Executor.outputs)
          in
          Fmt.pr "policy: %a@." Engine.Purge_policy.pp policy;
          Fmt.pr "consumed %d elements, emitted %d results@."
            result.Engine.Executor.consumed n_results;
          List.iter
            (fun (op : Engine.Operator.t) ->
              Fmt.pr "%s: %a@." op.Engine.Operator.name
                Engine.Operator.pp_stats
                (op.Engine.Operator.stats ()))
            (Engine.Executor.operators ~c:compiled);
          Fmt.pr "@.state series:@.%a@." Engine.Metrics.pp_series
            result.Engine.Executor.metrics;
          Fmt.pr "growth slope (second half): %.4f tuples/element@."
            (Engine.Metrics.growth_slope result.Engine.Executor.metrics);
          Fmt.pr "index growth slope (second half): %.4f entries/element@."
            (Engine.Metrics.index_growth_slope result.Engine.Executor.metrics);
          Fmt.pr "output hash: %s@."
            (Engine.Executor.output_hash result.Engine.Executor.outputs);
          Option.iter pp_contract_summary contract;
          finish
            ~alarms:(Engine.Telemetry.alarms telemetry)
            ~trace_file ~report_file
            (fun () -> Engine.Executor.report ~meta compiled result)
        end

(* A flag the chosen mode does not run is refused (exit 1) instead of
   ignored. Flags that only tune another flag (--chaos-seed, --delay-ticks,
   --quarantine-cap, --max-restarts) stay silent. *)
let refused_flag ~multi ~shards ~no_share ~replay ~save_trace ~faults
    ~contract_config ~kills ~checkpoint_every ~checkpoint_dir ~resume_dir =
  let given flags =
    List.filter_map (fun (flag, set) -> if set then Some flag else None) flags
  in
  let chaos =
    match faults with
    | None -> []
    | Some (f : Fault_injector.config) ->
        given
          [
            ("--drop-punct", f.drop_punct > 0.);
            ("--dup-punct", f.dup_punct > 0.);
            ("--delay-punct", f.delay_punct > 0.);
            ("--late-data", f.late_data > 0.);
            ("--stall", f.stall <> None);
          ]
  in
  let contract =
    match contract_config with
    | None -> []
    | Some (c : Engine.Contract.config) when c.grace <> None -> [ "--grace" ]
    | Some c when c.state_budget_bytes <> None -> [ "--state-budget" ]
    | Some _ -> [ "--on-violation" ]
  in
  let checkpoints =
    given
      [
        ("--checkpoint-every", checkpoint_every <> None);
        ("--checkpoint-dir", checkpoint_dir <> None);
        ("--resume", resume_dir <> None);
      ]
  in
  let single_only =
    given [ ("--replay", replay <> None); ("--save-trace", save_trace <> None) ]
    @ chaos @ contract @ checkpoints
  in
  if multi && single_only <> [] then
    Some (Fmt.str "%s applies only to single-query mode" (List.hd single_only))
  else if (not multi) && no_share then
    Some "--no-share applies only to multi-query mode (--query)"
  else if checkpoints <> [] && shards <= 1 then
    Some
      "--checkpoint-every / --checkpoint-dir / --resume require --shards > 1 \
       (checkpoints are cuts of the sharded executor)"
  else if checkpoint_dir <> None && checkpoint_every = None then
    Some "--checkpoint-dir requires --checkpoint-every"
  else if kills <> [] && shards <= 1 then
    Some "--kill-shard requires --shards > 1"
  else
    List.find_opt (fun (k : Fault_injector.kill) -> k.shard >= shards) kills
    |> Option.map (fun (k : Fault_injector.kill) ->
           Fmt.str "--kill-shard %d:%d: shard %d does not exist (--shards %d)"
             k.shard k.at_seq k.shard shards)

(* The exporter outlives the run (clients may connect between samples), so
   it is started and torn down here, once for both modes, as is the
   mapping from a fatal exception to its exit code. *)
let run_query file multi_files no_share rounds tuples_per_round punct_lag
    policy force sample_every replay save_trace report_file trace_file shards
    faults contract_config kills max_restarts checkpoint_every checkpoint_dir
    resume_dir listen =
  let usage_error =
    match (multi_files, file) with
    | _ :: _, Some _ ->
        Some "--query and the QUERY positional are mutually exclusive"
    | [], None -> Some "a QUERY file (or at least one --query) is required"
    | _ ->
        refused_flag ~multi:(file = None) ~shards ~no_share ~replay
          ~save_trace ~faults ~contract_config ~kills ~checkpoint_every
          ~checkpoint_dir ~resume_dir
  in
  let exporter =
    match (usage_error, listen) with
    | Some m, _ ->
        Fmt.epr "%s@." m;
        Error 1
    | None, None -> Ok None
    | None, Some address -> (
        match Obs.Exporter.start address with
        | Ok ex ->
            Fmt.epr "metrics: serving OpenMetrics on %s@."
              (Obs.Exporter.endpoint ex);
            Ok (Some ex)
        | Error e ->
            Fmt.epr "metrics: cannot listen: %s@." e;
            Error 1)
  in
  match exporter with
  | Error code -> code
  | Ok exporter -> (
      Fun.protect ~finally:(fun () -> Option.iter Obs.Exporter.stop exporter)
      @@ fun () ->
      match
        match file with
        | Some file ->
            run_single file rounds tuples_per_round punct_lag policy force
              sample_every replay save_trace report_file trace_file shards
              faults contract_config kills max_restarts checkpoint_every
              checkpoint_dir resume_dir exporter
        | None ->
            run_multi ~files:multi_files ~no_share ~rounds ~tuples_per_round
              ~punct_lag ~policy ~force ~sample_every ~shards ~kills
              ~max_restarts ~trace_file ~report_file ~exporter
      with
      | code -> code
      | exception Engine.Contract.Violation_failure v ->
          Fmt.epr "CONTRACT VIOLATION (fatal): %s at op %s input %s, tick %d@."
            v.Engine.Contract.kind v.Engine.Contract.op
            v.Engine.Contract.input v.Engine.Contract.tick;
          4
      | exception
          Engine.Parallel_executor.Shard_failed { shard; attempts; reason } ->
          Fmt.epr "SHARD FAILED: shard %d dead after %d restart(s): %s@." shard
            attempts reason;
          5
      | exception Engine.Checkpoint.Invalid m ->
          Fmt.epr "INVALID CHECKPOINT: %s@." m;
          6
      | exception Workload.Synth.Unkeyable_attribute { stream; attr } ->
          Fmt.epr
            "cannot generate a workload: %s.%s is bool, and a round key \
             populates only int, str and float attributes@."
            stream attr;
          1)

let file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"QUERY"
        ~doc:
          "Query description file (single-query mode; use repeated \
           $(b,--query) flags for multi-query mode).")

let multi_queries =
  Arg.(
    value & opt_all file []
    & info [ "query" ] ~docv:"FILE"
        ~doc:
          "Add a query to a multi-query run (repeatable). All queries share \
           one synthetic input; equivalent sub-joins execute as one shared \
           operator when the safety check admits the sharing (see \
           TUTORIAL.md §18). $(b,--report), $(b,--trace), $(b,--listen), \
           $(b,--shards), $(b,--kill-shard) and $(b,--max-restarts) apply \
           as in single-query mode; the replay, save-trace, chaos, \
           contract, checkpoint and resume flags are single-query only and \
           refused here (exit 1).")

let no_share =
  Arg.(
    value & flag
    & info [ "no-share" ]
        ~doc:
          "Multi-query mode only (refused with a single QUERY): compile \
           every query independently (the baseline sharing is measured \
           against). Per-query output hashes must not change.")

(* Numeric flags are range-checked when parsed, so an out-of-range value is
   a usage error (exit 124) instead of an exception deep inside the run. *)
let int_conv ~min ~expected : int Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected %s, got %S" expected s))
  in
  Arg.conv ~docv:"INT" (parse, Fmt.int)

let positive = int_conv ~min:1 ~expected:"a positive integer"
let non_negative = int_conv ~min:0 ~expected:"a non-negative integer"

let probability : float Arg.conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | _ -> Error (`Msg (Fmt.str "expected a probability in [0,1], got %S" s))
  in
  Arg.conv ~docv:"P" (parse, Fmt.float)

let rounds =
  Arg.(value & opt positive 200 & info [ "rounds" ] ~doc:"Workload rounds.")

let tuples_per_round =
  Arg.(
    value & opt positive 1
    & info [ "fanin" ] ~doc:"Tuples per stream per round.")

let punct_lag =
  Arg.(
    value & opt non_negative 0
    & info [ "lag" ] ~doc:"Rounds between data and its punctuations.")

(* A malformed --policy used to fall back to Eager silently; it is now a
   Cmdliner conversion error. *)
let policy_conv : Engine.Purge_policy.t Arg.conv =
  let parse s =
    let module P = Engine.Purge_policy in
    let positive what v =
      match int_of_string_opt v with
      | Some n when n > 0 -> Ok n
      | _ -> Error (`Msg (Fmt.str "%s must be a positive integer, got %S" what v))
    in
    let invalid () =
      Error
        (`Msg
           (Fmt.str
              "invalid purge policy %S: expected eager, never, a lazy batch \
               size N (or lazy:N), or adaptive:BATCH:TRIGGER"
              s))
    in
    match String.lowercase_ascii s with
    | "eager" -> Ok P.Eager
    | "never" -> Ok P.Never
    | spec -> (
        match String.split_on_char ':' spec with
        | [ n ] when int_of_string_opt n = None -> invalid ()
        | [ n ] | [ "lazy"; n ] ->
            Result.map (fun n -> P.Lazy n) (positive "lazy batch size" n)
        | [ "adaptive"; batch; trigger ] ->
            Result.bind (positive "adaptive batch" batch) (fun batch ->
                Result.map
                  (fun state_trigger -> P.Adaptive { batch; state_trigger })
                  (positive "adaptive state trigger" trigger))
        | _ -> invalid ())
  in
  Arg.conv (parse, Engine.Purge_policy.pp)

let policy =
  Arg.(
    value
    & opt policy_conv Engine.Purge_policy.Eager
    & info [ "policy" ]
        ~doc:
          "Purge policy: $(b,eager), $(b,never), a lazy batch size \
           ($(b,N) or $(b,lazy:N)), or $(b,adaptive:BATCH:TRIGGER).")

let force =
  Arg.(value & flag & info [ "force" ] ~doc:"Run even if the query is unsafe.")

let sample_every =
  Arg.(
    value & opt positive 100
    & info [ "sample" ] ~doc:"Metrics sampling period.")

let replay =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ]
        ~doc:"Replay a saved trace file instead of generating a workload.")

let save_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-trace" ]
        ~doc:
          "Write the input trace (after fault injection, if any) to this \
           file.")

let report_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ]
        ~doc:
          "Write the machine-readable JSON run report (per-operator stats, \
           counters, histograms, state series, watchdog alarms) to this \
           file.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:
          "Write the structured JSONL event trace (tuple/punctuation flow, \
           purges, samples, alarms) to this file; replaying it reproduces \
           the report's counters (see pstream-obs verify).")

let shards =
  Arg.(
    value & opt positive 1
    & info [ "shards" ]
        ~doc:
          "Hash-partition the join across N worker domains (see \
           docs/SHARDING.md). With 1 (the default) the classic sequential \
           executor runs; output hashes must agree between the two modes. \
           In multi-query mode the shards run the shared DAG, with \
           per-query hashes equal to the sequential run's.")

(* --- fault-injection flags (docs/FAULTS.md) --------------------------- *)

let chaos_seed =
  Arg.(
    value & opt int 42
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the deterministic fault injector: the same seed, fault \
           probabilities and workload always produce the same faulted trace \
           and injection log.")

let prob_flag name ~doc =
  Arg.(value & opt probability 0. & info [ name ] ~docv:"P" ~doc)

let drop_punct =
  prob_flag "drop-punct"
    ~doc:"Per-punctuation probability of silently dropping it."

let dup_punct =
  prob_flag "dup-punct"
    ~doc:"Per-punctuation probability of delivering it twice."

let delay_punct =
  prob_flag "delay-punct"
    ~doc:"Per-punctuation probability of sliding it later in the trace."

let delay_ticks =
  Arg.(
    value & opt positive 3
    & info [ "delay-ticks" ] ~docv:"N"
        ~doc:"Positions a delayed punctuation slides (with --delay-punct).")

let late_data =
  prob_flag "late-data"
    ~doc:
      "Per-constant-punctuation probability of injecting a contradicting \
       late tuple shortly after it — the contract violation --on-violation \
       reacts to."

let stall_conv : (string * int * int) Arg.conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ stream; at; ticks ] -> (
        match (int_of_string_opt at, int_of_string_opt ticks) with
        | Some at, Some ticks when at >= 0 && ticks > 0 ->
            Ok (stream, at, ticks)
        | _ -> Error (`Msg "expected STREAM:AT:TICKS with AT >= 0, TICKS > 0"))
    | _ -> Error (`Msg "expected STREAM:AT:TICKS")
  in
  Arg.conv (parse, fun ppf (s, a, t) -> Fmt.pf ppf "%s:%d:%d" s a t)

let stall =
  Arg.(
    value
    & opt (some stall_conv) None
    & info [ "stall" ] ~docv:"STREAM:AT:TICKS"
        ~doc:
          "Hold back STREAM's elements arriving at position >= AT for TICKS \
           positions, starving its punctuation progress (pair with --grace \
           to watch the stall monitor fire).")

let faults =
  let mk seed drop dup delay delay_ticks late stall =
    if drop = 0. && dup = 0. && delay = 0. && late = 0. && stall = None then
      None
    else
      Some
        {
          Fault_injector.seed;
          drop_punct = drop;
          dup_punct = dup;
          delay_punct = delay;
          delay_ticks;
          late_data = late;
          stall;
        }
  in
  Term.(
    const mk $ chaos_seed $ drop_punct $ dup_punct $ delay_punct $ delay_ticks
    $ late_data $ stall)

(* --- punctuation-contract flags --------------------------------------- *)

let action_conv : Engine.Contract.action Arg.conv =
  let parse s =
    match Engine.Contract.action_of_string s with
    | Ok a -> Ok a
    | Error m -> Error (`Msg m)
  in
  let print ppf a =
    Fmt.string ppf
      (match a with
      | Engine.Contract.Fail -> "fail"
      | Engine.Contract.Drop_late -> "drop-late"
      | Engine.Contract.Quarantine -> "quarantine"
      | Engine.Contract.Degrade -> "degrade"
      | Engine.Contract.Count -> "count")
  in
  Arg.conv (parse, print)

let on_violation =
  Arg.(
    value
    & opt (some action_conv) None
    & info [ "on-violation" ] ~docv:"ACTION"
        ~doc:
          "Arm the punctuation-contract monitor and pick its response to \
           violations: $(b,fail) (abort, exit 4), $(b,drop-late), \
           $(b,quarantine), $(b,degrade) (keep running, raise alarms, shed \
           state under --state-budget) or $(b,count) (detect only). Without \
           this flag violations are still counted in the report but never \
           acted on.")

let grace =
  Arg.(
    value
    & opt (some positive) None
    & info [ "grace" ] ~docv:"TICKS"
        ~doc:
          "Punctuation-stall grace window: flag a source whose punctuations \
           make no progress for TICKS input elements.")

let state_budget =
  Arg.(
    value
    & opt (some non_negative) None
    & info [ "state-budget" ] ~docv:"BYTES"
        ~doc:
          "Approximate join-state byte budget enforced under \
           --on-violation degrade: past it, operators shed oldest state \
           (counted as shed_tuples) until back under.")

let quarantine_cap =
  Arg.(
    value
    & opt non_negative
        Engine.Contract.default_config.Engine.Contract.quarantine_cap
    & info [ "quarantine-cap" ] ~docv:"N"
        ~doc:"Max quarantined late tuples kept (with --on-violation quarantine).")

let contract_config =
  let mk action grace budget cap =
    match (action, grace, budget) with
    | None, None, None -> None
    | _ ->
        let d = Engine.Contract.default_config in
        Some
          {
            Engine.Contract.action =
              Option.value action ~default:d.Engine.Contract.action;
            grace;
            state_budget_bytes = budget;
            quarantine_cap = cap;
          }
  in
  Term.(const mk $ on_violation $ grace $ state_budget $ quarantine_cap)

(* --- shard-supervision flags ------------------------------------------ *)

let kill_conv : Fault_injector.kill Arg.conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ shard; seq ] -> (
        match (int_of_string_opt shard, int_of_string_opt seq) with
        | Some shard, Some at_seq when shard >= 0 && at_seq >= 0 ->
            Ok { Fault_injector.shard; at_seq }
        | _ -> Error (`Msg "expected SHARD:SEQ with both >= 0"))
    | _ -> Error (`Msg "expected SHARD:SEQ")
  in
  Arg.conv
    (parse, fun ppf (k : Fault_injector.kill) ->
      Fmt.pf ppf "%d:%d" k.Fault_injector.shard k.Fault_injector.at_seq)

let kills =
  Arg.(
    value & opt_all kill_conv []
    & info [ "kill-shard" ] ~docv:"SHARD:SEQ"
        ~doc:
          "Deterministically kill worker domain SHARD when it reaches global \
           element sequence SEQ (requires --shards > 1 and SHARD below it; \
           exit 1 otherwise), in either mode. Repeatable — a kill storm may \
           hit several shards, or the same shard twice (budget permitting, \
           see --max-restarts). The supervisor restarts each victim from \
           checkpoint restore plus history replay; output must match the \
           fault-free run.")

let max_restarts =
  Arg.(
    value & opt non_negative 2
    & info [ "max-restarts" ] ~docv:"N"
        ~doc:
          "Restart budget per shard under --shards > 1, in either mode; a \
           shard crashing more than N times fails the run with exit 5.")

(* --- checkpoint / resume flags (docs/FAULTS.md) ------------------------ *)

let checkpoint_every =
  Arg.(
    value
    & opt (some positive) None
    & info [ "checkpoint-every" ] ~docv:"K"
        ~doc:
          "Take a punctuation-aligned checkpoint at every K-th \
           sampling-grid barrier (requires --shards > 1). Each shard's \
           crash-replay history is truncated at the cut, bounding recovery \
           to K grid intervals of input.")

let checkpoint_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Persist each checkpoint durably under DIR (atomic rename + \
           fsync, two most recent kept). Requires --checkpoint-every; a \
           later run with the same configuration and --resume DIR continues \
           from the newest checkpoint.")

let resume_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"DIR"
        ~doc:
          "Resume from the newest checkpoint in DIR: operator state is \
           restored at the cut and the already-consumed input prefix is \
           skipped. The run configuration must match the one the checkpoint \
           was taken under (fingerprint-checked); a corrupt, truncated, \
           version-mismatched or misconfigured checkpoint exits with 6. \
           With --checkpoint-every, checkpointing continues into DIR \
           (or --checkpoint-dir if given).")

(* --- live observability ------------------------------------------------ *)

let address_conv : Obs.Exporter.address Arg.conv =
  let parse s =
    match Obs.Exporter.address_of_string s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Obs.Exporter.pp_address)

let listen =
  Arg.(
    value
    & opt (some address_conv) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve live OpenMetrics snapshots while the run is in flight: \
           $(b,PORT), $(b,HOST:PORT) (port 0 picks a free one) or \
           $(b,unix:PATH). One exposition per sampling-grid point; scrape \
           with pstream-obs scrape or watch with pstream-top. Without this \
           flag the run is byte-identical to an unexported one.")

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success (bounded run, no fatal violation).";
    Cmd.Exit.info 1
      ~doc:
        "on query parse or validation errors, a flag the chosen mode does \
         not run, or a bool attribute the synthetic workload cannot key.";
    Cmd.Exit.info 2
      ~doc:"when refusing to run an unsafe query (re-run with --force).";
    Cmd.Exit.info 3
      ~doc:
        "when the run completed but the state-growth watchdog latched an \
         alarm (leak, or a punctuation stall under --grace).";
    Cmd.Exit.info 4
      ~doc:
        "when a punctuation-contract violation aborted the run \
         (--on-violation fail).";
    Cmd.Exit.info 5
      ~doc:
        "when a shard crashed and exhausted its --max-restarts budget \
         (sharded mode).";
    Cmd.Exit.info 6
      ~doc:
        "when --resume found no usable checkpoint (missing, corrupt, \
         truncated, wrong version, or taken under a different run \
         configuration).";
  ]
  @ Cmd.Exit.defaults

let cmd =
  let doc = "run a continuous join query over a synthetic punctuated workload" in
  Cmd.v
    (Cmd.info "pstream-run" ~doc ~exits)
    Term.(
      const run_query $ file $ multi_queries $ no_share $ rounds
      $ tuples_per_round $ punct_lag $ policy
      $ force $ sample_every $ replay $ save_trace $ report_file $ trace_file
      $ shards $ faults $ contract_config $ kills $ max_restarts
      $ checkpoint_every $ checkpoint_dir $ resume_dir $ listen)

let () = exit (Cmd.eval' cmd)
