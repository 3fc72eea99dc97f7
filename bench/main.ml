(* The benchmark harness: one experiment per row of EXPERIMENTS.md.

   The paper (VLDB 2006) is a theory paper with no empirical evaluation
   section — its "results" are worked examples (figures) and complexity
   claims. Each F* experiment below regenerates a figure's scenario, each
   C* experiment validates a complexity or behaviour claim. Run everything:

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- C1 C3 F7
*)

open Relational
module Scheme = Streams.Scheme
module Element = Streams.Element
module Cjq = Query.Cjq
module Plan = Query.Plan
module Checker = Core.Checker
module Executor = Engine.Executor
module Metrics = Engine.Metrics
module Purge_policy = Engine.Purge_policy
module Parallel_executor = Engine.Parallel_executor

(* ------------------------------------------------------------------ *)
(* Small toolkit                                                        *)

let section id title = Fmt.pr "@.=== %s: %s ===@." id title

let row fmt = Fmt.pr fmt

(* Nanoseconds per run of [f], measured with Bechamel (monotonic clock,
   ordinary-least-squares against the run count). *)
let time_ns ?(quota = 0.3) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = List.map (Benchmark.run cfg instances) (Test.elements test) in
  let tbl : (string, Benchmark.t) Hashtbl.t = Hashtbl.create 1 in
  List.iteri (fun i r -> Hashtbl.replace tbl (name ^ string_of_int i) r) raw;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock tbl in
  let estimate =
    Hashtbl.fold
      (fun _ v acc ->
        match Analyze.OLS.estimates v with Some (e :: _) -> Some e | _ -> acc)
      results None
  in
  match estimate with Some e -> e | None -> Float.nan

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let count_data outputs = List.length (List.filter Element.is_data outputs)

let final_state metrics =
  match Metrics.final metrics with Some s -> s.Metrics.data_state | None -> -1

(* Fixture: the Figure 3/5/8 triangle. *)
let schema name attrs =
  Schema.make ~stream:name
    (List.map (fun a -> { Schema.name = a; ty = Value.TInt }) attrs)

let s1 = schema "S1" [ "A"; "B" ]
let s2 = schema "S2" [ "B"; "C" ]
let s3 = schema "S3" [ "C"; "A" ]

let triangle_preds =
  [
    Predicate.atom "S1" "B" "S2" "B";
    Predicate.atom "S2" "C" "S3" "C";
    Predicate.atom "S3" "A" "S1" "A";
  ]

let triangle_query schemes =
  Cjq.make
    (List.map
       (fun schema ->
         Streams.Stream_def.make schema
           (List.filter
              (fun sch -> Scheme.stream_name sch = Schema.stream_name schema)
              schemes))
       [ s1; s2; s3 ])
    triangle_preds

let fig5_query () =
  triangle_query
    [
      Scheme.of_attrs s1 [ "B" ];
      Scheme.of_attrs s2 [ "C" ];
      Scheme.of_attrs s3 [ "A" ];
    ]

let fig8_query () =
  triangle_query
    [
      Scheme.of_attrs s1 [ "B" ];
      Scheme.of_attrs s2 [ "B" ];
      Scheme.of_attrs s2 [ "C" ];
      Scheme.of_attrs s3 [ "C"; "A" ];
    ]

let run_plan ?(policy = Purge_policy.Eager) ?(sample_every = 200) query plan
    trace =
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy ()) query plan
  in
  (c, Executor.run ~sample_every c (List.to_seq trace))

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1 / Example 1: the auction pipeline                      *)

let f1 () =
  section "F1" "auction join + group-by (Figure 1): punctuations bound state";
  let query = Workload.Auction.query () in
  row "%-8s %-8s %-10s %-12s %-12s %-10s %s@." "items" "bids" "elements"
    "peak(punct)" "peak(none)" "groups" "sums-ok";
  List.iter
    (fun n_items ->
      let cfg =
        { Workload.Auction.default_config with n_items; bids_per_item = 8 }
      in
      let with_punct = Workload.Auction.trace cfg in
      let without =
        Workload.Auction.trace
          { cfg with punct_items = false; punct_bid_close = false }
      in
      let run trace =
        let c =
          Executor.compile
            ~config:(Executor.Config.make ~policy:Purge_policy.Eager ())
            query
            (Plan.mjoin [ "item"; "bid" ])
        in
        let gb =
          Engine.Groupby.create
            ~input:(Executor.output_schema c)
            ~group_by:[ "bid.itemid" ]
            ~aggregate:(Engine.Groupby.Sum "bid.increase") ()
        in
        Executor.run ~sample_every:500 ~sink:gb c (List.to_seq trace)
      in
      let rp = run with_punct in
      let rn = run without in
      let groups =
        List.filter_map
          (function Element.Data t -> Some t | Element.Punct _ -> None)
          rp.Executor.outputs
      in
      let expected = Workload.Auction.expected_sums cfg in
      let ok =
        List.length groups = List.length expected
        && List.for_all
             (fun (itemid, total) ->
               List.exists
                 (fun t ->
                   Tuple.get_named t "bid.itemid" = Value.Int itemid
                   &&
                   match Tuple.get_named t "agg" with
                   | Value.Float f -> Float.abs (f -. total) < 1e-9
                   | _ -> false)
                 groups)
             expected
      in
      row "%-8d %-8d %-10d %-12d %-12d %-10d %b@." n_items
        (Streams.Trace.data_count with_punct - n_items)
        (List.length with_punct)
        (Metrics.peak_data_state rp.Executor.metrics)
        (Metrics.peak_data_state rn.Executor.metrics)
        (List.length groups) ok)
    [ 100; 400; 1600 ];
  row
    "(peak(punct) stays near the open-auction window; peak(none) is the \
     whole stream)@."

(* ------------------------------------------------------------------ *)
(* F3 — Figure 3 / §3.2: the chained purge derivation                   *)

let f3 () =
  section "F3" "chained purge strategy on the Figure 3 example";
  let path_preds =
    [ Predicate.atom "S1" "B" "S2" "B"; Predicate.atom "S2" "C" "S3" "C" ]
  in
  let schemes =
    Scheme.Set.of_list
      [ Scheme.of_attrs s2 [ "B" ]; Scheme.of_attrs s3 [ "C" ] ]
  in
  let plan =
    Option.get
      (Core.Chained_purge.derive [ "S1"; "S2"; "S3" ] path_preds schemes
         ~root:"S1")
  in
  Fmt.pr "%a@." Core.Chained_purge.pp_plan plan;
  let states = function
    | "S2" ->
        Relation.make s2
          [
            Tuple.make s2 [ Value.Int 1; Value.Int 10 ];
            Tuple.make s2 [ Value.Int 1; Value.Int 11 ];
            Tuple.make s2 [ Value.Int 2; Value.Int 99 ];
          ]
    | _ -> Relation.make s3 []
  in
  let required =
    Core.Chained_purge.required_punctuations plan ~states
      ~root_tuple:(Tuple.make s1 [ Value.Int 7; Value.Int 1 ])
  in
  row "for t = (a1=7, b1=1) with joinable S2 tuples {(1,10), (1,11)}:@.";
  List.iter
    (fun (stream, puncts) ->
      row "  P_t[%s] = {%s}@." stream
        (String.concat ", " (List.map Streams.Punctuation.to_string puncts)))
    required;
  row
    "(matches §3.2: one punctuation on S2.B, one per joinable C value on S3)@."

(* ------------------------------------------------------------------ *)
(* F5/F7 — Figures 5 and 7: plan-shape safety, statically and live      *)

let f7 () =
  section "F7"
    "Figure 5 is safe as one MJoin; every binary tree leaks (Figure 7)";
  let q = fig5_query () in
  row "static: PG strongly connected = %b; the %d candidate plans:@."
    (Checker.is_safe ~method_:Checker.Pg q)
    (Query.Plan_enum.count_all_plans 3);
  List.iter
    (fun p ->
      row "  %-24s safe=%b@." (Plan.to_string p) (Checker.plan_safe q p))
    (Query.Plan_enum.all_plans [ "S1"; "S2"; "S3" ]);
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 400 }
  in
  row "@.dynamic (400 rounds, eager purge):@.";
  row "%-28s %-9s %-10s %-10s %-8s@." "plan" "results" "peak" "final" "slope";
  List.iter
    (fun plan ->
      let _, r = run_plan q plan trace in
      row "%-28s %-9d %-10d %-10d %.4f@." (Plan.to_string plan)
        (count_data r.Executor.outputs)
        (Metrics.peak_data_state r.Executor.metrics)
        (final_state r.Executor.metrics)
        (Metrics.growth_slope r.Executor.metrics))
    [
      Plan.mjoin [ "S1"; "S2"; "S3" ];
      Plan.join [ Plan.join [ Plan.Leaf "S1"; Plan.Leaf "S2" ]; Plan.Leaf "S3" ];
    ];
  row
    "(same results; the MJoin's slope is ~0, the Figure 7 tree grows \
     forever)@."

(* ------------------------------------------------------------------ *)
(* F8 — §4.2 / Figures 8-10: multi-attribute schemes                    *)

let f8 () =
  section "F8"
    "Figure 8: plain PG says unsafe, GPG/TPG say safe — and purging works";
  let q = fig8_query () in
  row "PG verdict: %b | GPG verdict: %b | TPG verdict: %b@."
    (Checker.is_safe ~method_:Checker.Pg q)
    (Checker.is_safe ~method_:Checker.Gpg_closure q)
    (Checker.is_safe ~method_:Checker.Tpg q);
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 300 }
  in
  let _, r = run_plan q (Plan.mjoin [ "S1"; "S2"; "S3" ]) trace in
  row
    "runtime with (C,A)-pair punctuations from S3: results=%d peak=%d \
     final=%d slope=%.4f@."
    (count_data r.Executor.outputs)
    (Metrics.peak_data_state r.Executor.metrics)
    (final_state r.Executor.metrics)
    (Metrics.growth_slope r.Executor.metrics);
  row "(bounded: the generalized chained purge uses the multi-attribute \
       scheme)@."

(* ------------------------------------------------------------------ *)
(* C1 — §4.1: punctuation-graph construction is (near-)linear           *)

let c1 () =
  section "C1"
    "punctuation graph construction time vs query size (linear claim)";
  row "%-8s %-12s %-14s %s@." "streams" "predicates" "time" "time/stream";
  List.iter
    (fun n ->
      let q = Workload.Synth.chain_query ~n () in
      let names = Cjq.stream_names q in
      let preds = Cjq.predicates q in
      let schemes = Cjq.scheme_set q in
      let ns =
        time_ns
          (Printf.sprintf "pg-%d" n)
          (fun () -> Core.Punctuation_graph.of_streams names preds schemes)
      in
      row "%-8d %-12d %-14s %s@." n (List.length preds) (pretty_ns ns)
        (pretty_ns (ns /. float_of_int n)))
    [ 10; 50; 100; 500; 1000; 2000 ];
  row
    "(time/stream stays near-constant: construction is linear up to the \
     O(log n) of the persistent graph maps)@."

(* ------------------------------------------------------------------ *)
(* C2 — §4.3: polynomial TPG check vs the exponential enumeration       *)

let c2 () =
  section "C2"
    "safety-check time: TPG (Thm 5) vs GPG fixpoint (Def 9) vs enumeration";
  row "%-8s %-12s %-12s %-14s %s@." "streams" "tpg" "gpg" "enumeration"
    "plans considered";
  List.iter
    (fun n ->
      let q = Workload.Synth.cycle_query ~n () in
      let tpg =
        time_ns
          (Printf.sprintf "tpg-%d" n)
          (fun () -> Checker.is_safe ~method_:Checker.Tpg q)
      in
      let gpg =
        time_ns
          (Printf.sprintf "gpg-%d" n)
          (fun () -> Checker.is_safe ~method_:Checker.Gpg_closure q)
      in
      let enum, plans =
        if n <= 6 then
          ( time_ns ~quota:0.5
              (Printf.sprintf "enum-%d" n)
              (fun () -> Checker.exists_safe_plan_by_enumeration q),
            string_of_int (Query.Plan_enum.count_all_plans n) )
        else
          ( Float.nan,
            if n <= 14 then
              Printf.sprintf "%d (skipped)" (Query.Plan_enum.count_all_plans n)
            else "> 10^18 (skipped)" )
      in
      row "%-8d %-12s %-12s %-14s %s@." n (pretty_ns tpg) (pretty_ns gpg)
        (pretty_ns enum) plans)
    [ 3; 4; 5; 6; 7; 8; 16; 32; 64 ];
  row
    "(the cycle query is enumeration's worst case: only one safe plan \
     exists; TPG/GPG stay polynomial while the plan space explodes)@."

(* ------------------------------------------------------------------ *)
(* C3 — Theorems 1/3 operationally: safe bounded, unsafe unbounded      *)

let c3 () =
  section "C3" "state over time: safe query vs unsafe query vs no purging";
  let safe_q = Workload.Synth.cycle_query ~n:3 () in
  let unsafe_q =
    (* drop S1's scheme: some chains can no longer complete *)
    Cjq.make
      (List.map
         (fun def ->
           if Streams.Stream_def.name def = "S1" then
             Streams.Stream_def.make (Streams.Stream_def.schema def) []
           else def)
         (Cjq.stream_defs safe_q))
      (Cjq.predicates safe_q)
  in
  let rounds = 600 in
  let trace q =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds }
  in
  row "%-24s %-8s %-9s %-8s %-8s %-8s@." "configuration" "safe?" "results"
    "peak" "final" "slope";
  List.iter
    (fun (label, q, policy) ->
      let _, r =
        run_plan ~policy q (Plan.mjoin (Cjq.stream_names q)) (trace q)
      in
      row "%-24s %-8b %-9d %-8d %-8d %.4f@." label (Checker.is_safe q)
        (count_data r.Executor.outputs)
        (Metrics.peak_data_state r.Executor.metrics)
        (final_state r.Executor.metrics)
        (Metrics.growth_slope r.Executor.metrics))
    [
      ("safe + eager purge", safe_q, Purge_policy.Eager);
      ("safe + no purge", safe_q, Purge_policy.Never);
      ("unsafe + eager purge", unsafe_q, Purge_policy.Eager);
    ];
  (* The Theorem 1 witness: the unsafe state is not merely conservatively
     retained — it is genuinely needed forever. *)
  let w = Option.get (Core.Witness.build unsafe_q ~root:"S2") in
  let c, r =
    run_plan unsafe_q
      (Plan.mjoin (Cjq.stream_names unsafe_q))
      (Core.Witness.trace w ~rounds:10)
  in
  row
    "@.witness (Thm 1 construction) against S2: 10 revival rounds produced \
     %d late results; state still held: %d tuples@."
    (count_data r.Executor.outputs)
    (Executor.total_data_state c)

(* ------------------------------------------------------------------ *)
(* C4 — Theorem 5 at scale: TPG vs GPG agreement census                 *)

let c4 () =
  section "C4" "TPG vs GPG agreement over random queries (Theorem 5)";
  let total = ref 0 and safe = ref 0 and diverged = ref 0 in
  let t0 = Sys.time () in
  for seed = 0 to 1999 do
    let config =
      {
        Workload.Synth.n_streams = 2 + (seed mod 6);
        extra_edges = seed mod 4;
        attrs_per_stream = 3;
        single_scheme_prob = 0.2 +. (0.6 *. float_of_int (seed mod 5) /. 4.0);
        multi_scheme_prob = 0.4;
        ordered_scheme_prob = 0.2;
        seed;
      }
    in
    let q = Workload.Synth.random_query config in
    let a = Checker.is_safe ~method_:Checker.Tpg q in
    let b = Checker.is_safe ~method_:Checker.Gpg_closure q in
    incr total;
    if a then incr safe;
    if a <> b then incr diverged
  done;
  row "queries: %d | safe: %d (%.1f%%) | TPG/GPG divergences: %d | %.2f s@."
    !total !safe
    (100.0 *. float_of_int !safe /. float_of_int !total)
    !diverged (Sys.time () -. t0);
  row
    "(zero divergences = empirical confirmation of Theorem 5 under our \
     corrected Definition 11 reading)@."

(* ------------------------------------------------------------------ *)
(* C5 — §5.2 Plan Parameter I: all schemes vs a minimal subset          *)

let c5 () =
  section "C5"
    "scheme subset choice: all schemes vs a minimal strongly-connecting subset";
  (* the triangle with every join attribute punctuatable: six schemes
     declared, of which a directed 3-cycle suffices *)
  let q =
    triangle_query
      [
        Scheme.of_attrs s1 [ "A" ];
        Scheme.of_attrs s1 [ "B" ];
        Scheme.of_attrs s2 [ "B" ];
        Scheme.of_attrs s2 [ "C" ];
        Scheme.of_attrs s3 [ "C" ];
        Scheme.of_attrs s3 [ "A" ];
      ]
  in
  let all = Cjq.scheme_set q in
  let minimal = Option.get (Core.Planner.minimal_scheme_subset q) in
  row "declared schemes: %d; minimal safe subset: %d@."
    (Scheme.Set.cardinal all)
    (Scheme.Set.cardinal minimal);
  let rounds = 300 in
  row "%-18s %-10s %-12s %-12s %-12s@." "scheme set" "results" "peak data"
    "peak puncts" "purge rounds";
  List.iter
    (fun (label, schemes) ->
      (* rebuild the query so only the chosen schemes are declared (and
         hence generated by the workload and stored by the engine) *)
      let q' =
        Cjq.make
          (List.map
             (fun def ->
               let name = Streams.Stream_def.name def in
               Streams.Stream_def.make
                 (Streams.Stream_def.schema def)
                 (Scheme.Set.for_stream schemes name))
             (Cjq.stream_defs q))
          (Cjq.predicates q)
      in
      let trace =
        Workload.Synth.round_trace q'
          { Workload.Synth.default_trace_config with rounds }
      in
      let c, r = run_plan q' (Plan.mjoin (Cjq.stream_names q')) trace in
      let purge_rounds =
        List.fold_left
          (fun acc (op : Engine.Operator.t) ->
            acc + (op.Engine.Operator.stats ()).Engine.Operator.purge_rounds)
          0 (Executor.operators ~c)
      in
      row "%-18s %-10d %-12d %-12d %-12d@." label
        (count_data r.Executor.outputs)
        (Metrics.peak_data_state r.Executor.metrics)
        (Metrics.peak_punct_state r.Executor.metrics)
        purge_rounds)
    [ ("all (6 schemes)", all); ("minimal", minimal) ];
  row
    "(option (a): more punctuations to process and store, less data state; \
     option (b): the reverse — §5.2's trade-off)@."

(* ------------------------------------------------------------------ *)
(* C6 — §5.2 Plan Parameter II: eager vs lazy purging                   *)

let c6 () =
  section "C6" "runtime purge strategy: eager vs lazy batches vs never";
  let q = fig5_query () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 500 }
  in
  row "%-12s %-9s %-8s %-8s %-14s %-10s@." "policy" "results" "peak" "final"
    "purge rounds" "cpu time";
  List.iter
    (fun policy ->
      let t0 = Sys.time () in
      let c, r = run_plan ~policy q (Plan.mjoin [ "S1"; "S2"; "S3" ]) trace in
      let dt = Sys.time () -. t0 in
      let purge_rounds =
        List.fold_left
          (fun acc (op : Engine.Operator.t) ->
            acc + (op.Engine.Operator.stats ()).Engine.Operator.purge_rounds)
          0 (Executor.operators ~c)
      in
      row "%-12s %-9d %-8d %-8d %-14d %.3f s@."
        (Fmt.str "%a" Purge_policy.pp policy)
        (count_data r.Executor.outputs)
        (Metrics.peak_data_state r.Executor.metrics)
        (final_state r.Executor.metrics)
        purge_rounds dt)
    [
      Purge_policy.Eager;
      Purge_policy.Lazy 10;
      Purge_policy.Lazy 100;
      Purge_policy.Adaptive { batch = 100; state_trigger = 25 };
      Purge_policy.Never;
    ];
  row
    "(lazy purging trades a higher state high-water mark for fewer purge \
     rounds; adaptive caps the state while keeping purge rounds low; never \
     = the unbounded baseline)@."

(* ------------------------------------------------------------------ *)
(* C7 — §5.2: does the cost model's ranking match measured state?       *)

let c7 () =
  section "C7" "cost-model ranking vs measured peak state (chain of 4)";
  let q = Workload.Synth.chain_query ~n:4 () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 300; punct_lag = 1 }
  in
  let plans = Core.Planner.enumerate_safe_plans q in
  row "safe plans: %d@." (List.length plans);
  row "%-36s %-14s %-10s %-8s@." "plan" "est. total" "peak" "results";
  let measured =
    List.filter_map
      (fun plan ->
        match
          Core.Cost_model.plan_cost Core.Cost_model.default_params q plan
        with
        | None -> None
        | Some cost ->
            let _, r = run_plan q plan trace in
            Some
              ( plan,
                cost.Core.Cost_model.total,
                Metrics.peak_data_state r.Executor.metrics,
                count_data r.Executor.outputs ))
      plans
  in
  List.iter
    (fun (plan, est, peak, results) ->
      row "%-36s %-14.3g %-10d %-8d@." (Plan.to_string plan) est peak results)
    (List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) measured);
  (match Core.Planner.best_plan Core.Cost_model.default_params q with
  | Some (best, _) -> row "cost-model choice (default params): %a@." Plan.pp best
  | None -> ());
  (* re-rank with parameters measured from the trace itself (§5.2's "cost
     estimation" inputs: rates, punctuation intervals, selectivities) *)
  let measured_params = Core.Cost_model.estimate_params q trace in
  row "measured selectivity: %.2g@." measured_params.Core.Cost_model.selectivity;
  (match Core.Planner.best_plan measured_params q with
  | Some (best, _) -> row "cost-model choice (measured params): %a@." Plan.pp best
  | None -> ());
  row
    "(rows sorted by estimated cost; measured peaks should trend upward \
     with the estimates)@."

(* ------------------------------------------------------------------ *)
(* C8 — §5.1: keeping the punctuation store itself bounded              *)

let c8 () =
  section "C8" "punctuation-store maintenance: lifespans and partner purging";
  let q = Workload.Netmon.query () in
  let cfg = { Workload.Netmon.default_config with n_flows = 500 } in
  let trace = Workload.Netmon.trace cfg in
  row "%-26s %-12s %-12s %-9s@." "mechanism" "peak puncts" "final puncts"
    "results";
  let run ~lifespan ~partner =
    let c =
      Executor.compile
        ~config:
          (Executor.Config.make ~policy:Purge_policy.Eager
             ?punct_lifespan:lifespan ~punct_partner_purge:partner ())
        q
        (Plan.mjoin [ "inbound"; "outbound" ])
    in
    let r = Executor.run ~sample_every:500 c (List.to_seq trace) in
    ( Metrics.peak_punct_state r.Executor.metrics,
      (match Metrics.final r.Executor.metrics with
      | Some s -> s.Metrics.punct_state
      | None -> -1),
      count_data r.Executor.outputs )
  in
  List.iter
    (fun (label, lifespan, partner) ->
      let peak, final, results = run ~lifespan ~partner in
      row "%-26s %-12d %-12d %-9d@." label peak final results)
    [
      ("none (store forever)", None, false);
      ("partner purging", None, true);
      ("lifespan ttl=500", Some { Core.Punct_purge.ttl = 500 }, false);
      ("both", Some { Core.Punct_purge.ttl = 500 }, true);
    ];
  row
    "(results identical in all rows: §5.1's point that data purgeability \
     alone suffices for correctness)@."

(* ------------------------------------------------------------------ *)
(* W1 — extension: sliding windows vs punctuation purging               *)

let w1 () =
  section "W1"
    "windows vs punctuations on the auction workload (bounded vs exact)";
  let cfg =
    { Workload.Auction.default_config with n_items = 400; bids_per_item = 6 }
  in
  let q = Workload.Auction.query () in
  let trace = Workload.Auction.trace cfg in
  let exact = Workload.Synth.brute_force_results q trace in
  row "exact results: %d (from %d elements)@." exact (List.length trace);
  row "%-26s %-10s %-10s %-10s@." "mechanism" "results" "recall" "peak state";
  let _, r = run_plan q (Plan.mjoin [ "item"; "bid" ]) trace in
  let punct_results = count_data r.Executor.outputs in
  row "%-26s %-10d %-10s %-10d@." "punctuation purge" punct_results
    (Printf.sprintf "%.1f%%"
       (100.0 *. float_of_int punct_results /. float_of_int exact))
    (Metrics.peak_data_state r.Executor.metrics);
  List.iter
    (fun horizon ->
      let wj =
        Engine.Window_join.create
          ~window:(Engine.Window_join.Ticks horizon)
          ~inputs:
            [
              {
                Engine.Window_join.name = "item";
                schema = Workload.Auction.item_schema;
              };
              {
                Engine.Window_join.name = "bid";
                schema = Workload.Auction.bid_schema;
              };
            ]
          ~predicates:(Cjq.predicates q) ()
      in
      let found = ref 0 and peak = ref 0 in
      List.iter
        (fun e ->
          List.iter
            (fun out -> if Element.is_data out then incr found)
            (wj.Engine.Operator.push [| e |]);
          peak := max !peak (wj.Engine.Operator.state ()).data)
        trace;
      row "%-26s %-10d %-10s %-10d@."
        (Printf.sprintf "window (ticks=%d)" horizon)
        !found
        (Printf.sprintf "%.1f%%"
           (100.0 *. float_of_int !found /. float_of_int exact))
        !peak)
    [ 20; 60; 200; 1000 ];
  row
    "(windows bound state unconditionally but silently miss matches that \
     outlive the horizon; punctuations are exact at comparable state)@."

(* ------------------------------------------------------------------ *)
(* W2 — extension: watermarks (ordered punctuations)                    *)

let w2 () =
  section "W2" "watermark (ordered) punctuations on the order-fulfilment join";
  let q = Workload.Orders.query () in
  row "schemes: %a — ordered marks are punctuatable to the checker@."
    Scheme.Set.pp (Cjq.scheme_set q);
  row "safe: %b@." (Checker.is_safe q);
  row "%-9s %-8s %-10s %-10s %-12s %-12s@." "orders" "slack" "results"
    "expected" "peak state" "peak puncts";
  List.iter
    (fun (n_orders, slack) ->
      let cfg = { Workload.Orders.default_config with n_orders; slack } in
      let trace = Workload.Orders.trace cfg in
      let _, r = run_plan q (Plan.mjoin [ "orders"; "shipments" ]) trace in
      row "%-9d %-8d %-10d %-10d %-12d %-12d@." n_orders slack
        (count_data r.Executor.outputs)
        (Workload.Orders.expected_matches cfg)
        (Metrics.peak_data_state r.Executor.metrics)
        (Metrics.peak_punct_state r.Executor.metrics))
    [ (200, 2); (1000, 4); (4000, 8) ];
  row
    "(state tracks the reordering slack, not the stream length; the \
     punctuation store holds at most one advancing watermark per stream)@."

(* ------------------------------------------------------------------ *)
(* D1 — §1 / Figure 2: the register routes only useful punctuations     *)

let d1 () =
  section "D1" "multi-query DSMS: punctuation routing avoids useless deliveries";
  let item = schema "item" [ "itemid"; "price" ] in
  let bid = schema "bid" [ "bidderid"; "itemid"; "amount" ] in
  let promo = schema "promo" [ "bidderid"; "discount" ] in
  let reg = Core.Register.create () in
  Core.Register.declare_stream reg
    (Streams.Stream_def.make item [ Scheme.of_attrs item [ "itemid" ] ]);
  Core.Register.declare_stream reg
    (Streams.Stream_def.make bid
       [ Scheme.of_attrs bid [ "itemid" ]; Scheme.of_attrs bid [ "bidderid" ] ]);
  Core.Register.declare_stream reg
    (Streams.Stream_def.make promo [ Scheme.of_attrs promo [ "bidderid" ] ]);
  (match
     Core.Register.register_query reg ~name:"auction"
       ~streams:[ "item"; "bid" ]
       ~predicates:[ Predicate.atom "item" "itemid" "bid" "itemid" ]
   with
  | Ok plan -> row "auction admitted with plan %a@." Plan.pp plan
  | Error { reason; _ } -> row "auction rejected: %s@." reason);
  (match
     Core.Register.register_query reg ~name:"promos"
       ~streams:[ "bid"; "promo" ]
       ~predicates:[ Predicate.atom "bid" "bidderid" "promo" "bidderid" ]
   with
  | Ok plan -> row "promos admitted with plan %a@." Plan.pp plan
  | Error { reason; _ } -> row "promos rejected: %s@." reason);
  (* one entity per round: an item, its bid by bidder k, a promo for k,
     then every punctuation closing the round *)
  let d sch values = Element.Data (Tuple.make sch (List.map (fun v -> Value.Int v) values)) in
  let p sch bindings =
    Element.Punct
      (Streams.Punctuation.of_bindings sch
         (List.map (fun (a, v) -> (a, Value.Int v)) bindings))
  in
  let n = 2000 in
  let trace =
    List.concat_map
      (fun k ->
        [
          d item [ k; 100 ];
          p item [ ("itemid", k) ];
          d bid [ k; k; 10 ];
          d promo [ k; 5 ];
          p bid [ ("itemid", k) ];
          p bid [ ("bidderid", k) ];
          p promo [ ("bidderid", k) ];
        ])
      (List.init n (fun i -> i + 1))
  in
  let dsms = Engine.Dsms.of_register reg in
  let results = Engine.Dsms.run dsms (List.to_seq trace) in
  let stats = Engine.Dsms.stats dsms in
  let broadcast =
    (* without routing, every element goes to every query reading a stream
       of it: item -> 1, bid (data+3 puncts... ) -> 2, promo -> 1 *)
    List.fold_left
      (fun acc e ->
        acc + List.length (
          List.filter
            (fun q ->
              List.mem (Element.stream_name e)
                (Cjq.stream_names (Core.Register.query_of reg q)))
            (Core.Register.queries reg)))
      0 trace
  in
  row "%-28s %d@." "elements" stats.Engine.Dsms.elements_seen;
  row "%-28s %d@." "broadcast deliveries" broadcast;
  row "%-28s %d@." "routed deliveries" stats.Engine.Dsms.deliveries;
  row "%-28s %d (%.1f%% of broadcast)@." "punctuations skipped"
    stats.Engine.Dsms.punctuations_skipped
    (100.0 *. float_of_int stats.Engine.Dsms.punctuations_skipped
     /. float_of_int broadcast);
  List.iter
    (fun (name, tuples) ->
      row "%-28s %d results, final state %d@." name (List.length tuples)
        (Engine.Dsms.state_of dsms name))
    results;
  row "(the §1 point: each query only pays for the punctuations it can use)@."

(* ------------------------------------------------------------------ *)
(* X1 — future work (ii): disjunctive join predicates                   *)

let x1 () =
  section "X1" "disjunctive predicates: every disjunct must be punctuatable";
  let t1 = schema "T1" [ "a"; "b" ] in
  let t2 = schema "T2" [ "x"; "y" ] in
  let clause =
    Core.Disjunctive.clause
      [ Predicate.atom "T1" "a" "T2" "x"; Predicate.atom "T1" "b" "T2" "y" ]
  in
  let dq schemes2 =
    Core.Disjunctive.make
      [
        Streams.Stream_def.make t1
          [ Scheme.of_attrs t1 [ "a" ]; Scheme.of_attrs t1 [ "b" ] ];
        Streams.Stream_def.make t2 schemes2;
      ]
      [ clause ]
  in
  row "clause: %a@." Core.Disjunctive.pp_clause clause;
  row "%-42s %-8s@." "T2's scheme set" "safe?";
  List.iter
    (fun (label, schemes2) ->
      row "%-42s %-8b@." label (Core.Disjunctive.is_safe (dq schemes2)))
    [
      ("{x}, {y} (each disjunct covered)",
       [ Scheme.of_attrs t2 [ "x" ]; Scheme.of_attrs t2 [ "y" ] ]);
      ("{x} only", [ Scheme.of_attrs t2 [ "x" ] ]);
      ("{x,y} jointly (one two-attr scheme)", [ Scheme.of_attrs t2 [ "x"; "y" ] ]);
    ];
  (* runtime: the dual purge rule at work *)
  let op =
    Engine.Disjunctive_join.create
      ~left:{ Engine.Disjunctive_join.name = "T1"; schema = t1 }
      ~right:{ Engine.Disjunctive_join.name = "T2"; schema = t2 }
      ~clause ()
  in
  let peak = ref 0 and results = ref 0 in
  let n = 400 in
  for k = 1 to n do
    List.iter
      (fun e ->
        List.iter
          (fun out -> if Element.is_data out then incr results)
          (op.Engine.Operator.push [| e |]);
        peak := max !peak (op.Engine.Operator.state ()).data)
      [
        Element.Data (Tuple.make t1 [ Value.Int k; Value.Int (k + n) ]);
        Element.Data (Tuple.make t2 [ Value.Int k; Value.Int (k + n) ]);
        Element.Punct
          (Streams.Punctuation.of_bindings t1 [ ("a", Value.Int k) ]);
        Element.Punct
          (Streams.Punctuation.of_bindings t1 [ ("b", Value.Int (k + n)) ]);
        Element.Punct
          (Streams.Punctuation.of_bindings t2 [ ("x", Value.Int k) ]);
        Element.Punct
          (Streams.Punctuation.of_bindings t2 [ ("y", Value.Int (k + n)) ]);
      ]
  done;
  row
    "@.runtime over %d rounds: results=%d (one output per matching pair even when both disjuncts hold), peak state=%d, final=%d@."
    n !results !peak
    (op.Engine.Operator.state ()).data;
  row
    "(a tuple is purged only once punctuations rule out BOTH disjuncts —      the dual of the conjunctive rule)@."

(* ------------------------------------------------------------------ *)
(* B1 — bounded state, memory-true: the machine-readable trajectory     *)

(* Each scenario runs a query and records the full memory accounting:
   live tuples, secondary-index entries and approximate bytes, with their
   growth slopes. The result is written to BENCH_bounded_state.json so
   future PRs can diff the trajectory instead of scraping stdout. *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type bounded_row = {
  br_id : string;
  br_rounds : int;
  br_elements : int;
  br_results : int;
  br_peak_data : int;
  br_peak_index : int;
  br_peak_bytes : int;
  br_final_data : int;
  br_final_index : int;
  br_slope : float;
  br_index_slope : float;
  br_purges : int;  (** purge rounds observed (histogram sample count) *)
  br_lag_p50 : int;  (** purge lag, ticks: eager ≈ 0, lazy > 0 *)
  br_lag_p99 : int;
}

let bounded_row ~id ~rounds ~policy ?(sample_every = 50) query plan trace =
  (* An enabled telemetry handle (null sink) so the run records the
     per-operator purge-lag histograms — the §5 cost axis the eager/lazy
     scenarios are meant to expose. *)
  let telemetry = Engine.Telemetry.create () in
  let c =
    Executor.compile
      ~config:(Executor.Config.make ~policy ~telemetry ())
      query plan
  in
  let r = Executor.run ~sample_every c (List.to_seq trace) in
  let final field =
    match Metrics.final r.Executor.metrics with
    | Some s -> field s
    | None -> -1
  in
  let lag =
    Obs.Registry.merged_histogram
      (Engine.Telemetry.registry telemetry)
      "purge_lag"
  in
  let lag_stat f = match lag with Some h -> f h | None -> 0 in
  {
    br_id = id;
    br_rounds = rounds;
    br_elements = List.length trace;
    br_results = count_data r.Executor.outputs;
    br_peak_data = Metrics.peak_data_state r.Executor.metrics;
    br_peak_index = Metrics.peak_index_state r.Executor.metrics;
    br_peak_bytes = Metrics.peak_state_bytes r.Executor.metrics;
    br_final_data = final (fun s -> s.Metrics.data_state);
    br_final_index = final (fun s -> s.Metrics.index_state);
    br_slope = Metrics.growth_slope r.Executor.metrics;
    br_index_slope = Metrics.index_growth_slope r.Executor.metrics;
    br_purges = lag_stat Obs.Histogram.count;
    br_lag_p50 = lag_stat (fun h -> Obs.Histogram.percentile h 0.5);
    br_lag_p99 = lag_stat (fun h -> Obs.Histogram.percentile h 0.99);
  }

let write_bounded_state_json path rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    "  \"schema\": \"bounded_state/v2\",\n  \"generated_by\": \"dune exec \
     bench/main.exe -- B1\",\n  \"scenarios\": [\n";
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\": \"%s\", \"rounds\": %d, \"elements\": %d, \
            \"results\": %d, \"peak_data_state\": %d, \"peak_index_entries\": \
            %d, \"peak_state_bytes\": %d, \"final_data_state\": %d, \
            \"final_index_entries\": %d, \"growth_slope\": %.6f, \
            \"index_growth_slope\": %.6f, \"purge_rounds\": %d, \
            \"purge_lag_p50\": %d, \"purge_lag_p99\": %d}%s\n"
           (json_escape row.br_id) row.br_rounds row.br_elements row.br_results
           row.br_peak_data row.br_peak_index row.br_peak_bytes
           row.br_final_data row.br_final_index row.br_slope row.br_index_slope
           row.br_purges row.br_lag_p50 row.br_lag_p99
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* A two-stream join whose key domain never repeats: the adversarial
   workload for index maintenance. Every key is seen once, joined once and
   punctuated away — bounded state requires the indexes to forget it. *)
let monotone_key_scenario ~rounds =
  let sa = schema "S1" [ "A"; "B" ] in
  let sb = schema "S2" [ "B"; "C" ] in
  let q =
    Cjq.make
      [
        Streams.Stream_def.make sa [ Scheme.of_attrs sa [ "B" ] ];
        Streams.Stream_def.make sb [ Scheme.of_attrs sb [ "B" ] ];
      ]
      [ Predicate.atom "S1" "B" "S2" "B" ]
  in
  let trace =
    List.concat_map
      (fun k ->
        [
          Element.Data (Tuple.make sa [ Value.Int k; Value.Int k ]);
          Element.Data (Tuple.make sb [ Value.Int k; Value.Int (k + 1) ]);
          Element.Punct
            (Streams.Punctuation.of_bindings sa [ ("B", Value.Int k) ]);
          Element.Punct
            (Streams.Punctuation.of_bindings sb [ ("B", Value.Int k) ]);
        ])
      (List.init rounds (fun i -> i + 1))
  in
  (q, trace)

let b1 () =
  section "B1" "bounded state with memory-true accounting -> BENCH_bounded_state.json";
  let rounds = 400 in
  let triangle_trace q =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds }
  in
  let fig5 = fig5_query () and fig8 = fig8_query () in
  let mono_q, mono_trace = monotone_key_scenario ~rounds:2000 in
  let rows =
    [
      bounded_row ~id:"fig5_triangle_eager" ~rounds ~policy:Purge_policy.Eager
        fig5
        (Plan.mjoin [ "S1"; "S2"; "S3" ])
        (triangle_trace fig5);
      bounded_row ~id:"fig5_triangle_lazy25" ~rounds
        ~policy:(Purge_policy.Lazy 25) fig5
        (Plan.mjoin [ "S1"; "S2"; "S3" ])
        (triangle_trace fig5);
      bounded_row ~id:"fig8_multi_attr_eager" ~rounds
        ~policy:Purge_policy.Eager fig8
        (Plan.mjoin [ "S1"; "S2"; "S3" ])
        (triangle_trace fig8);
      bounded_row ~id:"fig5_triangle_never_unbounded_baseline" ~rounds
        ~policy:Purge_policy.Never fig5
        (Plan.mjoin [ "S1"; "S2"; "S3" ])
        (triangle_trace fig5);
      bounded_row ~id:"monotone_keys_eager" ~rounds:2000
        ~policy:Purge_policy.Eager mono_q
        (Plan.mjoin [ "S1"; "S2" ])
        mono_trace;
    ]
  in
  row "%-42s %-9s %-10s %-11s %-11s %-9s %-9s %-12s@." "scenario" "results"
    "peak" "peak(idx)" "~bytes" "slope" "idx-slope" "lag(p50/p99)";
  List.iter
    (fun r ->
      row "%-42s %-9d %-10d %-11d %-11d %-9.4f %-9.4f %5d/%d@." r.br_id
        r.br_results r.br_peak_data r.br_peak_index r.br_peak_bytes r.br_slope
        r.br_index_slope r.br_lag_p50 r.br_lag_p99)
    rows;
  let path = "BENCH_bounded_state.json" in
  write_bounded_state_json path rows;
  row "wrote %s@." path;
  row
    "(eager rows: index entries track live tuples, both slopes are ~0 and \
     purge lag is ~0 ticks; the lazy row trades a positive purge lag — \
     victims linger until the batch fires — for fewer purge rounds; the \
     'never' baseline is what an index leak used to look like even with \
     purging on)@."

(* ------------------------------------------------------------------ *)
(* T1 — engine throughput under the purge policies                       *)

let t1 () =
  section "T1" "engine throughput (elements/s) across purge policies";
  let q = Workload.Auction.query () in
  let cfg =
    { Workload.Auction.default_config with n_items = 3000; bids_per_item = 8 }
  in
  let trace = Workload.Auction.trace cfg in
  let n = List.length trace in
  row "auction workload: %d elements@." n;
  row "%-34s %-12s %-10s %-10s@." "configuration" "elements/s" "peak" "results";
  let bench label policy =
    let c =
      Executor.compile ~config:(Executor.Config.make ~policy ()) q
        (Plan.mjoin [ "item"; "bid" ])
    in
    let t0 = Sys.time () in
    let r = Executor.run ~sample_every:2000 c (List.to_seq trace) in
    let dt = Sys.time () -. t0 in
    row "%-34s %-12.0f %-10d %-10d@." label
      (float_of_int n /. Float.max 1e-9 dt)
      (Metrics.peak_data_state r.Executor.metrics)
      (count_data r.Executor.outputs)
  in
  bench "MJoin, eager" Purge_policy.Eager;
  bench "MJoin, lazy(50)" (Purge_policy.Lazy 50);
  bench "MJoin, adaptive(50,100)"
    (Purge_policy.Adaptive { batch = 50; state_trigger = 100 });
  bench "MJoin, never (unbounded)" Purge_policy.Never;
  row
    "(eager drops each bid on arrival — its item's punctuation is already \
     stored — so its peak is the open auctions; 'never' is fast only \
     because this workload's join keys never repeat across items)@."

(* ------------------------------------------------------------------ *)
(* B2 — sharded execution: sequential vs 2/4/8 hash-partitioned shards   *)

(* Wall-clock, not [Sys.time]: a sharded run spreads its work over
   several domains, and CPU time would sum them back together. *)
let wall = Unix.gettimeofday

type scaling_row = {
  sc_scenario : string;
  sc_shards : int;  (** 0 = the sequential executor *)
  sc_seconds : float;
  sc_throughput : float;  (** elements per wall second *)
  sc_speedup : float;  (** vs the sequential row of the same scenario *)
  sc_hash : string;
  sc_peak_data : int;
  sc_alarms : int;
}

let write_shard_scaling_json path rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"benchmark\": \"shard_scaling\",\n  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"scenario\": \"%s\", \"shards\": %d, \"seconds\": %.4f, \
            \"elements_per_s\": %.0f, \"speedup_vs_sequential\": %.2f, \
            \"output_hash\": \"%s\", \"peak_data_state\": %d, \"alarms\": \
            %d}%s\n"
           (json_escape r.sc_scenario) r.sc_shards r.sc_seconds r.sc_throughput
           r.sc_speedup (json_escape r.sc_hash) r.sc_peak_data r.sc_alarms
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let b2 () =
  section "B2"
    "punctuation-aligned sharded scaling -> BENCH_shard_scaling.json";
  (* The triangle workload keeps about a thousand tuples live (a long
     punctuation lag) and fires a purge round per value punctuation. Purge
     rounds re-check only the tuples a punctuation can free, so their cost
     no longer grows with the local state that hash partitioning divides.

     All rows run under the same GC settings the parallel executor would
     pick for itself (a large minor arena keeps the stop-the-world minor
     collections rare), so the comparison measures partitioning, not heap
     tuning. *)
  let gc = Gc.get () in
  Gc.set
    {
      gc with
      Gc.minor_heap_size = max gc.Gc.minor_heap_size (8 * 1024 * 1024);
      space_overhead = max gc.Gc.space_overhead 200;
    };
  (* Each scenario carries the sampling divisor: the first watchdog sample
     must land after the warm-up ramp (punct_lag rounds) finishes, or the
     ramp's genuine growth reads as a leak. *)
  let scenarios =
    [
      ( "fig5_triangle_eager",
        fig5_query (),
        Plan.mjoin [ "S1"; "S2"; "S3" ],
        5,
        fun q ->
          Workload.Synth.round_trace q
            {
              Workload.Synth.default_trace_config with
              rounds = 500;
              tuples_per_round = 5;
              punct_lag = 80;
            } );
      ( "monotone_keys_eager",
        fst (monotone_key_scenario ~rounds:10000),
        Plan.mjoin [ "S1"; "S2" ],
        10,
        fun _ -> snd (monotone_key_scenario ~rounds:10000) );
    ]
  in
  let rows =
    List.concat_map
      (fun (id, q, plan, sample_div, mk_trace) ->
        let trace = mk_trace q in
        let n = List.length trace in
        let sample_every = max 1 (n / sample_div) in
        let sequential () =
          let c =
            Executor.compile
              ~config:
                (Executor.Config.make ~policy:Purge_policy.Eager
                   ~telemetry:
                     (Engine.Telemetry.create
                        ~watchdog:(Obs.Watchdog.create ()) ())
                   ())
              q plan
          in
          let t0 = wall () in
          let r = Executor.run ~sample_every c (List.to_seq trace) in
          let dt = wall () -. t0 in
          {
            sc_scenario = id;
            sc_shards = 0;
            sc_seconds = dt;
            sc_throughput = float_of_int n /. Float.max 1e-9 dt;
            sc_speedup = 1.0;
            sc_hash = Executor.output_hash r.Executor.outputs;
            sc_peak_data = Metrics.peak_data_state r.Executor.metrics;
            sc_alarms = List.length (Engine.Telemetry.alarms (Executor.telemetry c));
          }
        in
        let sharded base k =
          let watchdog = Obs.Watchdog.create () in
          let pe =
            Parallel_executor.create
              ~config:(Executor.Config.make ~policy:Purge_policy.Eager ())
              ~watchdog ~shards:k q plan
          in
          let t0 = wall () in
          let r = Parallel_executor.run ~sample_every pe (List.to_seq trace) in
          let dt = wall () -. t0 in
          {
            sc_scenario = id;
            sc_shards = k;
            sc_seconds = dt;
            sc_throughput = float_of_int n /. Float.max 1e-9 dt;
            sc_speedup = base.sc_seconds /. Float.max 1e-9 dt;
            sc_hash =
              Executor.output_hash r.Parallel_executor.outputs;
            sc_peak_data =
              Metrics.peak_data_state r.Parallel_executor.metrics;
            sc_alarms = List.length (Parallel_executor.alarms pe);
          }
        in
        let base = sequential () in
        base :: List.map (sharded base) [ 1; 2; 4; 8 ])
      scenarios
  in
  row "%-24s %-8s %-9s %-12s %-9s %-10s %-7s %s@." "scenario" "shards"
    "seconds" "elements/s" "speedup" "peak" "alarms" "output hash";
  List.iter
    (fun r ->
      row "%-24s %-8s %-9.3f %-12.0f %-9.2f %-10d %-7d %s@." r.sc_scenario
        (if r.sc_shards = 0 then "seq" else string_of_int r.sc_shards)
        r.sc_seconds r.sc_throughput r.sc_speedup r.sc_peak_data r.sc_alarms
        r.sc_hash)
    rows;
  (* The whole point: every mode computes the same answer with flat state. *)
  List.iter
    (fun r ->
      let base =
        List.find (fun b -> b.sc_scenario = r.sc_scenario && b.sc_shards = 0)
          rows
      in
      if r.sc_hash <> base.sc_hash then
        failwith
          (Printf.sprintf "B2: output hash diverged at %s shards=%d"
             r.sc_scenario r.sc_shards);
      if r.sc_alarms > 0 then
        failwith
          (Printf.sprintf "B2: watchdog alarm on safe workload %s shards=%d"
             r.sc_scenario r.sc_shards))
    rows;
  let path = "BENCH_shard_scaling.json" in
  write_shard_scaling_json path rows;
  row "wrote %s@." path;
  row
    "(hashes are byte-equal across all shard counts — the sharded engine \
     computes the sequential answer; the sequential row feeds one element \
     at a time with telemetry on and the sharded rows feed batches without \
     it, so each speedup mixes that difference with sharding)@."

(* ------------------------------------------------------------------ *)
(* B3 — batched hot path: long runs + compiled probe programs         *)

(* Runs of one vs runs of [batch] through the same feeding path, with GC
   allocation accounting: long runs coalesce eager purge rounds and
   amortize per-call overhead, so both wall time and minor-heap churn per
   element should drop. Hash equality between the two cut sizes (and
   across shard counts) is asserted, not just reported.

   One timed run varies by half on a shared host, wider than
   scripts/bench_diff.sh's 30% gate, so every scenario is timed in
   [b3_rounds] interleaved rounds and each cut keeps its fastest run: a
   slowdown episode inflates some runs, never the best one. *)

let b3_rounds = 5

type hot_row = {
  hp_id : string;
  hp_elements : int;
  hp_results : int;
  hp_elem_s : float;
  hp_elem_tput : float;
  hp_batch_s : float;
  hp_batch_tput : float;
  hp_speedup : float;
  hp_elem_minor_w : float;  (** minor words allocated per input element *)
  hp_batch_minor_w : float;
  hp_elem_major_w : float;
  hp_batch_major_w : float;
  hp_hash : string;
}

let write_hot_path_json path ~batch ~shards_checked rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"benchmark\": \"hot_path\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"generated_by\": \"dune exec bench/main.exe -- B3\",\n\
       \  \"batch\": %d,\n\
       \  \"rounds\": %d,\n\
       \  \"shards_checked\": [%s],\n\
       \  \"runs\": [\n"
       batch b3_rounds
       (String.concat ", " (List.map string_of_int shards_checked)));
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"scenario\": \"%s\", \"elements\": %d, \"results\": %d, \
            \"element_seconds\": %.4f, \"element_per_s\": %.0f, \
            \"batch_seconds\": %.4f, \"batch_per_s\": %.0f, \"speedup\": \
            %.2f, \"element_minor_words_per_el\": %.1f, \
            \"batch_minor_words_per_el\": %.1f, \
            \"element_major_words_per_el\": %.1f, \
            \"batch_major_words_per_el\": %.1f, \"output_hash\": \"%s\"}%s\n"
           (json_escape r.hp_id) r.hp_elements r.hp_results r.hp_elem_s
           r.hp_elem_tput r.hp_batch_s r.hp_batch_tput r.hp_speedup
           r.hp_elem_minor_w r.hp_batch_minor_w r.hp_elem_major_w
           r.hp_batch_major_w (json_escape r.hp_hash)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let b3 () =
  section "B3" "batched hot path (runs of 256) -> BENCH_hot_path.json";
  let batch = 256 in
  let gc = Gc.get () in
  Gc.set
    {
      gc with
      Gc.minor_heap_size = max gc.Gc.minor_heap_size (8 * 1024 * 1024);
      space_overhead = max gc.Gc.space_overhead 200;
    };
  (* A 4-way chain whose punctuations lag far behind the data: thousands
     of live tuples per state, so probe/assembly cost dominates. *)
  let chain_large_state () =
    let q = Workload.Synth.chain_query ~n:4 () in
    let trace =
      Workload.Synth.round_trace q
        {
          Workload.Synth.default_trace_config with
          rounds = 400;
          tuples_per_round = 4;
          punct_lag = 120;
        }
    in
    (q, Plan.mjoin (Cjq.stream_names q), trace)
  in
  let scenarios =
    [
      ( "fig5_triangle_eager",
        (let q = fig5_query () in
         let trace =
           Workload.Synth.round_trace q
             {
               Workload.Synth.default_trace_config with
               rounds = 600;
               tuples_per_round = 5;
               punct_lag = 60;
             }
         in
         (q, Plan.mjoin [ "S1"; "S2"; "S3" ], trace)) );
      ( "monotone_keys_eager",
        (let q, trace = monotone_key_scenario ~rounds:20000 in
         (q, Plan.mjoin [ "S1"; "S2" ], trace)) );
      ("chain4_large_state_eager", chain_large_state ());
    ]
  in
  let timed_run ?batch q plan trace =
    let c =
      Executor.compile
        ~config:(Executor.Config.make ~policy:Purge_policy.Eager ())
        q plan
    in
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = wall () in
    let r = Executor.run ~sample_every:1000 ?batch c (List.to_seq trace) in
    let dt = wall () -. t0 in
    let g1 = Gc.quick_stat () in
    ( r,
      dt,
      g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.major_words -. g0.Gc.major_words )
  in
  (* Round-robin over the scenarios, element then batched run, keeping
     each cut's fastest run; every run's hash is checked. *)
  let fastest best ((_, t, _, _) as run) =
    match best with
    | Some ((_, t0, _, _) as b) when t0 <= t -> b
    | _ -> run
  in
  let best = Array.make (List.length scenarios) (None, None) in
  for _ = 1 to b3_rounds do
    List.iteri
      (fun i (id, (q, plan, trace)) ->
        let e = timed_run q plan trace in
        let b = timed_run ~batch q plan trace in
        let hash (r, _, _, _) = Executor.output_hash r.Executor.outputs in
        if hash e <> hash b then
          failwith
            (Printf.sprintf "B3: batch output hash diverged on %s" id);
        let be, bb = best.(i) in
        best.(i) <- (Some (fastest be e), Some (fastest bb b)))
      scenarios
  done;
  let rows =
    List.mapi
      (fun i (id, (_, _, trace)) ->
        let n = List.length trace in
        let _, te, e_minor, e_major = Option.get (fst best.(i)) in
        let rb, tb, b_minor, b_major = Option.get (snd best.(i)) in
        let hb = Executor.output_hash rb.Executor.outputs in
        let per x = x /. float_of_int (max 1 n) in
        {
          hp_id = id;
          hp_elements = n;
          hp_results = count_data rb.Executor.outputs;
          hp_elem_s = te;
          hp_elem_tput = float_of_int n /. Float.max 1e-9 te;
          hp_batch_s = tb;
          hp_batch_tput = float_of_int n /. Float.max 1e-9 tb;
          hp_speedup = te /. Float.max 1e-9 tb;
          hp_elem_minor_w = per e_minor;
          hp_batch_minor_w = per b_minor;
          hp_elem_major_w = per e_major;
          hp_batch_major_w = per b_major;
          hp_hash = hb;
        })
      scenarios
  in
  (* Sharded agreement on the triangle: the workers drive their operators
     through the same batched path; every shard count must reproduce the
     sequential multiset. *)
  let shards_checked = [ 1; 4 ] in
  let tri_q, tri_plan, tri_trace =
    List.assoc "fig5_triangle_eager" scenarios
  in
  let tri_hash = (List.hd rows).hp_hash in
  List.iter
    (fun k ->
      let pe =
        Parallel_executor.create
          ~config:(Executor.Config.make ~policy:Purge_policy.Eager ())
          ~shards:k tri_q
          tri_plan
      in
      let r = Parallel_executor.run ~sample_every:1000 pe (List.to_seq tri_trace) in
      let h = Executor.output_hash r.Parallel_executor.outputs in
      if h <> tri_hash then
        failwith
          (Printf.sprintf "B3: sharded output hash diverged at shards=%d" k))
    shards_checked;
  row "%-28s %-9s %-12s %-12s %-8s %-12s %-12s@." "scenario" "results"
    "elem el/s" "batch el/s" "speedup" "minor w/el" "(batched)";
  List.iter
    (fun r ->
      row "%-28s %-9d %-12.0f %-12.0f %-8.2f %-12.1f %-12.1f@." r.hp_id
        r.hp_results r.hp_elem_tput r.hp_batch_tput r.hp_speedup
        r.hp_elem_minor_w r.hp_batch_minor_w)
    rows;
  (* The PR's acceptance floor: the paper repo's pre-batching triangle
     baseline measured 1,580 elements/s on this workload shape; the
     batched path must clear 5x that even on a slow host. *)
  let tri = List.hd rows in
  let floor = 5.0 *. 1580.0 in
  if tri.hp_batch_tput < floor then
    failwith
      (Printf.sprintf
         "B3: fig5 triangle batched throughput %.0f el/s is below the %.0f \
          el/s floor (5x the 1,580 el/s pre-batching baseline)"
         tri.hp_batch_tput floor);
  let path = "BENCH_hot_path.json" in
  write_hot_path_json path ~batch ~shards_checked rows;
  row "wrote %s@." path;
  row
    "(hash-checked: batch = element on every run of every scenario, and \
     shards 1/4 reproduce the sequential triangle multiset; each cut's \
     figures are its fastest of %d interleaved rounds; the minor-words \
     column is what the compiled probe programs and the one key table, \
     whose Int keys hash unboxed, allocate per element)@."
    b3_rounds

(* ------------------------------------------------------------------ *)
(* B4 — multi-query shared execution                                    *)

(* Overlapping query families run twice through the same Multi_executor
   harness — once with sharing enabled, once with every query compiled
   independently (--no-share's engine path). Sharing executes each common
   sub-join once, so it must hold strictly less peak state and push more
   aggregate elements per second; per-query output hashes must not move
   at all. *)

type mq_row = {
  mq_scenario : string;
  mq_queries : int;
  mq_groups : int;
  mq_elements : int;
  mq_results : int;
  mq_shared_s : float;
  mq_shared_tput : float;
  mq_indep_s : float;
  mq_indep_tput : float;
  mq_speedup : float;
  mq_shared_peak_bytes : int;
  mq_indep_peak_bytes : int;
  mq_state_ratio : float;
  mq_hashes_equal : bool;
}

let write_multi_query_json path rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"benchmark\": \"multi_query\",\n";
  Buffer.add_string buf
    "  \"generated_by\": \"dune exec bench/main.exe -- B4\",\n  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"scenario\": \"%s\", \"queries\": %d, \"shared_groups\": \
            %d, \"elements\": %d, \"results\": %d, \"shared_seconds\": %.4f, \
            \"shared_per_s\": %.0f, \"independent_seconds\": %.4f, \
            \"independent_per_s\": %.0f, \"speedup\": %.2f, \
            \"shared_peak_state_bytes\": %d, \
            \"independent_peak_state_bytes\": %d, \"state_ratio\": %.3f, \
            \"hashes_equal\": %b}%s\n"
           (json_escape r.mq_scenario) r.mq_queries r.mq_groups r.mq_elements
           r.mq_results r.mq_shared_s r.mq_shared_tput r.mq_indep_s
           r.mq_indep_tput r.mq_speedup r.mq_shared_peak_bytes
           r.mq_indep_peak_bytes r.mq_state_ratio r.mq_hashes_equal
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let b4 () =
  section "B4" "multi-query shared execution -> BENCH_multi_query.json";
  let module Query_registry = Query.Query_registry in
  let module Multi_executor = Engine.Multi_executor in
  let module Synth = Workload.Synth in
  let gc = Gc.get () in
  Gc.set
    { gc with Gc.minor_heap_size = max gc.Gc.minor_heap_size (8 * 1024 * 1024) };
  (* The star family: a hub pair R(K,A) |x| S(K,B) plus one private spoke
     per query, everything equi-joined and punctuated on K. *)
  let kdef name extra =
    let sch = schema name ("K" :: extra) in
    Streams.Stream_def.make sch [ Scheme.of_attrs sch [ "K" ] ]
  in
  let star_query spoke attr =
    Cjq.make
      [ kdef "R" [ "A" ]; kdef "S" [ "B" ]; kdef spoke [ attr ] ]
      [ Predicate.atom "R" "K" "S" "K"; Predicate.atom "S" "K" spoke "K" ]
  in
  let registry_of qs =
    Query_registry.create
      (List.map (fun (qid, q) -> { Query_registry.qid; query = q }) qs)
  in
  let trace_config =
    { Synth.rounds = 400; tuples_per_round = 4; punct_lag = 60; trace_seed = 7 }
  in
  let union_defs reg =
    Cjq.union_defs
      (List.map
         (fun (e : Query_registry.entry) -> e.Query_registry.query)
         (Query_registry.entries reg))
  in
  let round_workload reg = Synth.round_trace_defs (union_defs reg) trace_config in
  (* The residually-shared scenarios want a *selective* shared sub-join:
     when every R matches every co-keyed S (the round workload), the
     residual trees re-materialize the shared output and give the savings
     back — the classic materialization tradeoff of multi-query
     optimization. Uniformly random keys keep the R |x| S output a
     fraction of its inputs, so sharing the bulky input state wins. *)
  let random_workload reg =
    let union_query =
      let defs = union_defs reg in
      let atoms =
        List.sort_uniq Predicate.atom_compare
          (List.concat_map
             (fun (e : Query_registry.entry) ->
               Cjq.predicates e.Query_registry.query)
             (Query_registry.entries reg))
      in
      Cjq.make defs atoms
    in
    (* Key density below one match per value: most R and S tuples never
       find a partner, so the shared block's output is a fraction of the
       input state it absorbs. *)
    Synth.random_trace union_query ~elements_per_stream:2000 ~value_range:4000
      ~punct_prob:0.15 ~seed:7
  in
  let scenarios =
    [
      ( "twin_triangle",
        registry_of [ ("left", fig8_query ()); ("right", fig8_query ()) ],
        round_workload );
      ( "overlap_star",
        registry_of
          [ ("rst", star_query "T" "C"); ("rsu", star_query "U" "D") ],
        random_workload );
      ( "fan4_star",
        registry_of
          (List.map
             (fun i ->
               ( Printf.sprintf "fan%d" i,
                 star_query (Printf.sprintf "X%d" i) "V" ))
             [ 1; 2; 3; 4 ]),
        round_workload );
    ]
  in
  let rows =
    List.map
      (fun (id, reg, workload) ->
        let trace = workload reg in
        let n = List.length trace in
        let sample_every = max 1 (n / 50) in
        let run share =
          let m = Multi_executor.create ~share reg in
          let t0 = wall () in
          let r = Multi_executor.run ~sample_every m (List.to_seq trace) in
          let dt = wall () -. t0 in
          (m, r, dt)
        in
        let _, ri, ti = run false in
        let ms, rs, ts = run true in
        let hashes r =
          List.map
            (fun (qid, (qr : Multi_executor.query_result)) ->
              (qid, qr.Multi_executor.hash))
            r.Multi_executor.per_query
        in
        let shared_peak = Metrics.peak_state_bytes rs.Multi_executor.metrics in
        let indep_peak = Metrics.peak_state_bytes ri.Multi_executor.metrics in
        {
          mq_scenario = id;
          mq_queries = List.length (Query_registry.entries reg);
          mq_groups = List.length (Multi_executor.plan ms).Core.Planner.groups;
          mq_elements = n;
          mq_results = rs.Multi_executor.emitted;
          mq_shared_s = ts;
          mq_shared_tput = float_of_int n /. Float.max 1e-9 ts;
          mq_indep_s = ti;
          mq_indep_tput = float_of_int n /. Float.max 1e-9 ti;
          mq_speedup = ti /. Float.max 1e-9 ts;
          mq_shared_peak_bytes = shared_peak;
          mq_indep_peak_bytes = indep_peak;
          mq_state_ratio =
            float_of_int shared_peak /. Float.max 1. (float_of_int indep_peak);
          mq_hashes_equal = hashes rs = hashes ri;
        })
      scenarios
  in
  row "%-16s %-8s %-7s %-9s %-12s %-12s %-9s %-12s %-12s %-7s@." "scenario"
    "queries" "groups" "elements" "shared el/s" "indep el/s" "speedup"
    "shared peak" "indep peak" "ratio";
  List.iter
    (fun r ->
      row "%-16s %-8d %-7d %-9d %-12.0f %-12.0f %-9.2f %-12d %-12d %-7.3f@."
        r.mq_scenario r.mq_queries r.mq_groups r.mq_elements r.mq_shared_tput
        r.mq_indep_tput r.mq_speedup r.mq_shared_peak_bytes
        r.mq_indep_peak_bytes r.mq_state_ratio)
    rows;
  List.iter
    (fun r ->
      if not r.mq_hashes_equal then
        failwith
          (Printf.sprintf "B4: per-query hashes diverged at %s" r.mq_scenario);
      if r.mq_groups = 0 then
        failwith
          (Printf.sprintf "B4: planner shared nothing at %s" r.mq_scenario);
      if r.mq_shared_peak_bytes >= r.mq_indep_peak_bytes then
        failwith
          (Printf.sprintf
             "B4: shared peak state %d B is not below independent %d B at %s"
             r.mq_shared_peak_bytes r.mq_indep_peak_bytes r.mq_scenario))
    rows;
  let faster = List.filter (fun r -> r.mq_speedup > 1.0) rows in
  if List.length faster < 2 then
    failwith
      (Printf.sprintf
         "B4: sharing sped up only %d of %d scenarios (expected >= 2)"
         (List.length faster) (List.length rows));
  let path = "BENCH_multi_query.json" in
  write_multi_query_json path rows;
  row "wrote %s@." path;
  row
    "(per-query hashes are byte-equal between shared and independent \
     execution on every scenario; the shared runs hold strictly less peak \
     state because each common sub-join keeps one copy of its hash tables \
     and punctuation store, and the saved probe work shows up as aggregate \
     throughput)@."

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* B5 — kill-storm soak: checkpointed crash recovery at scale           *)

(* Resident set from /proc/self/statm in kB (page size 4 KiB); -1 when
   the proc filesystem is unavailable. *)
let rss_kb () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> -1
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in ic)
      @@ fun () ->
      match String.split_on_char ' ' (input_line ic) with
      | _ :: rss :: _ -> (
          match int_of_string_opt rss with
          | Some pages -> pages * 4
          | None -> -1)
      | _ -> -1)

(* The soak workload: the fig5 triangle with never-repeating keys,
   generated as a constant-space Seq — the driver never holds the trace.
   Round [r] emits, per fan index [j], the matching tuples S1(A=k,B=k),
   S2(B=k,C=k), S3(C=k,A=k) with k = r*fanin+j (one triangle result
   each); [lag] rounds later a *watermark* per stream closes the round's
   keys. Watermarks (not per-key constants) matter for a soak: each new
   one subsumes the store's previous entry, so punctuation state — and
   with it the cut payload serialized at every checkpoint — stays O(1)
   however long the trace runs, while per-key constants would pile up
   forever on a never-repeating key domain. Live state is the lag-round
   window, independent of trace length. *)
let soak_trace ~rounds ~fanin ~lag =
  let vk k = Value.Int k in
  let data r =
    List.concat_map
      (fun j ->
        let k = (r * fanin) + j in
        [
          Element.Data (Tuple.make s1 [ vk k; vk k ]);
          Element.Data (Tuple.make s2 [ vk k; vk k ]);
          Element.Data (Tuple.make s3 [ vk k; vk k ]);
        ])
      (List.init fanin Fun.id)
  in
  let puncts r =
    if r < lag then []
    else
      (* every key of round [r - lag] is below this bound *)
      let hi = vk ((r - lag + 1) * fanin) in
      [
        Element.Punct (Streams.Punctuation.watermark s1 "B" hi);
        Element.Punct (Streams.Punctuation.watermark s2 "C" hi);
        Element.Punct (Streams.Punctuation.watermark s3 "A" hi);
      ]
  in
  Seq.concat_map
    (fun r ->
      List.to_seq (if r < rounds then data r @ puncts r else puncts r))
    (Seq.take (rounds + lag) (Seq.ints 0))

let soak_elements ~rounds ~fanin = 3 * rounds * (fanin + 1)

type soak_run = {
  so_id : string;
  so_seconds : float;
  so_results : int;
  so_digest : string;
  so_kills : int;
  so_restarts : int;
  so_restored : int;
  so_max_replayed : int;
  so_rss_samples : int list;  (** driver RSS in kB, one per cut *)
}

let median = function
  | [] -> 0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(Array.length a / 2)

(* Flat = the last quarter's median RSS has not drifted past the second
   quarter's by more than 25% + a 32 MB allocator slack (the first
   quarter is warm-up: heap and ring buffers still growing to size).
   Below 32 cuts the whole run *is* warm-up — the OCaml major heap is
   still expanding toward its steady working set — so short smoke
   configurations skip the verdict rather than report noise; the tracked
   full-scale artifact has hundreds of samples and is really checked. *)
let rss_flat samples =
  let n = List.length samples in
  if n < 32 then true
  else
    let slice lo hi = List.filteri (fun i _ -> i >= lo && i < hi) samples in
    let base = median (slice (n / 4) (n / 2)) in
    let late = median (slice (3 * n / 4) n) in
    base <= 0 || late <= base + max (base / 4) (32 * 1024)

let write_soak_json path ~rounds ~elements ~shards ~sample_every ~every
    ~interval ~hash_match ~replay_bounded ~flat runs =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"soak/v1\",\n";
  Buffer.add_string buf "  \"benchmark\": \"kill_storm_soak\",\n";
  Buffer.add_string buf
    "  \"generated_by\": \"dune exec bench/main.exe -- B5\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"rounds\": %d,\n  \"elements\": %d,\n  \"shards\": %d,\n\
       \  \"sample_every\": %d,\n  \"checkpoint_every\": %d,\n\
       \  \"interval_elements\": %d,\n  \"runs\": [\n"
       rounds elements shards sample_every every interval);
  List.iteri
    (fun i r ->
      let rss_start = match r.so_rss_samples with x :: _ -> x | [] -> -1 in
      let rss_end =
        match List.rev r.so_rss_samples with x :: _ -> x | [] -> -1
      in
      let rss_peak = List.fold_left max (-1) r.so_rss_samples in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\": \"%s\", \"seconds\": %.3f, \"results\": %d, \
            \"digest\": \"%s\", \"kills\": %d, \"restarts\": %d, \
            \"restored\": %d, \"max_replayed\": %d, \"rss_start_kb\": %d, \
            \"rss_end_kb\": %d, \"rss_peak_kb\": %d}%s\n"
           (json_escape r.so_id) r.so_seconds r.so_results
           (json_escape r.so_digest) r.so_kills r.so_restarts r.so_restored
           r.so_max_replayed rss_start rss_end rss_peak
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n  \"hash_match\": %b,\n  \"replay_bounded\": %b,\n\
       \  \"rss_flat\": %b\n}\n"
       hash_match replay_bounded flat);
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let b5 () =
  section "B5"
    "kill-storm soak with punctuation-aligned checkpoints -> BENCH_soak.json";
  let rounds =
    match Option.bind (Sys.getenv_opt "PSTREAM_SOAK_ROUNDS") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> 230_000 (* 2.07M elements *)
  in
  let fanin = 2 and lag = 40 and shards = 4 in
  let q = fig5_query () in
  let plan = Plan.mjoin [ "S1"; "S2"; "S3" ] in
  let elements = soak_elements ~rounds ~fanin in
  let sample_every = max 2000 (elements / 500) in
  let every = 2 in
  let interval = every * sample_every in
  let storm =
    Streams.Fault_injector.kill_schedule ~seed:7 ~shards ~kills:8
      ~span:(elements * 9 / 10)
  in
  row "workload: %d rounds = %d elements, %d shards, cut every %d elements@."
    rounds elements shards interval;
  List.iter
    (fun (k : Streams.Fault_injector.kill) ->
      row "  armed kill: shard %d at seq %d@." k.shard k.at_seq)
    storm;
  let run_one id kills =
    (* Committed outputs stream into a rolling multiset digest instead of
       accumulating — with the lazy trace and per-cut history truncation,
       the driver's footprint is independent of the trace length. *)
    let roll = Engine.Checkpoint.Rolling.create () in
    let rss = ref [] in
    let fold els =
      List.iter
        (fun el ->
          match Executor.render_data el with
          | Some s -> Engine.Checkpoint.Rolling.add_rendering roll s
          | None -> ())
        els
    in
    let on_commit els =
      fold els;
      rss := rss_kb () :: !rss
    in
    let pe =
      Parallel_executor.create
        ~config:(Executor.Config.make ~policy:Purge_policy.Eager ())
        ~kills
        ~max_restarts:(max 2 (List.length kills))
        ~checkpoint:(Engine.Checkpoint.config ~every ())
        ~shards q plan
    in
    let t0 = wall () in
    let r =
      Parallel_executor.run ~sample_every ~label:("soak-" ^ id) ~on_commit pe
        (soak_trace ~rounds ~fanin ~lag)
    in
    let dt = wall () -. t0 in
    fold r.Parallel_executor.outputs;
    row
      "  %s: peak live state %d bytes (%d tuples, %d puncts) — the cut \
       payload the checkpoints snapshot@."
      id
      (Metrics.peak_state_bytes r.Parallel_executor.metrics)
      (Metrics.peak_data_state r.Parallel_executor.metrics)
      (Metrics.peak_punct_state r.Parallel_executor.metrics);
    let log = Parallel_executor.restarts_log pe in
    {
      so_id = id;
      so_seconds = dt;
      so_results = Engine.Checkpoint.Rolling.count roll;
      so_digest = Engine.Checkpoint.Rolling.digest roll;
      so_kills = List.length kills;
      so_restarts = List.length log;
      so_restored =
        List.length
          (List.filter
             (fun (x : Parallel_executor.restart) -> x.restored)
             log);
      so_max_replayed =
        List.fold_left
          (fun a (x : Parallel_executor.restart) -> max a x.replayed)
          0 log;
      so_rss_samples = List.rev !rss;
    }
  in
  let clean = run_one "fault_free" [] in
  let faulted = run_one "kill_storm" storm in
  row "%-12s %-9s %-10s %-9s %-9s %-13s %-12s %s@." "run" "seconds" "results"
    "kills" "restarts" "max_replayed" "rss_end_kb" "digest";
  List.iter
    (fun r ->
      row "%-12s %-9.3f %-10d %-9d %-9d %-13d %-12d %s@." r.so_id r.so_seconds
        r.so_results r.so_kills r.so_restarts r.so_max_replayed
        (match List.rev r.so_rss_samples with x :: _ -> x | [] -> -1)
        r.so_digest)
    [ clean; faulted ];
  let hash_match = String.equal clean.so_digest faulted.so_digest in
  let replay_bounded = faulted.so_max_replayed <= interval in
  let flat = rss_flat clean.so_rss_samples && rss_flat faulted.so_rss_samples in
  if not hash_match then
    failwith "B5: kill-storm output digest diverged from the fault-free run";
  if faulted.so_restarts < faulted.so_kills then
    failwith
      (Printf.sprintf "B5: only %d of %d armed kills fired" faulted.so_restarts
         faulted.so_kills);
  if not replay_bounded then
    failwith
      (Printf.sprintf "B5: replay %d exceeded the checkpoint interval %d"
         faulted.so_max_replayed interval);
  if not flat then failwith "B5: driver RSS drifted across the soak";
  let path = "BENCH_soak.json" in
  write_soak_json path ~rounds ~elements ~shards ~sample_every ~every ~interval
    ~hash_match ~replay_bounded ~flat
    [ clean; faulted ];
  row "wrote %s@." path;
  row
    "(every kill restored from the last punctuation-aligned cut and \
     replayed at most one checkpoint interval; the storm's output multiset \
     digest is byte-equal to the fault-free run's and the driver's resident \
     set stays flat — recovery cost is bounded by the cut spacing, not the \
     stream length)@."

let experiments =
  [
    ("F1", f1);
    ("F3", f3);
    ("F7", f7);
    ("F8", f8);
    ("C1", c1);
    ("C2", c2);
    ("C3", c3);
    ("C4", c4);
    ("C5", c5);
    ("C6", c6);
    ("C7", c7);
    ("C8", c8);
    ("W1", w1);
    ("W2", w2);
    ("D1", d1);
    ("X1", x1);
    ("B1", b1);
    ("B2", b2);
    ("B3", b3);
    ("B4", b4);
    ("B5", b5);
    ("T1", t1);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst experiments
  in
  List.iter
    (fun id ->
      match List.assoc_opt (String.uppercase_ascii id) experiments with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown experiment %S; available: %s@." id
            (String.concat ", " (List.map fst experiments)))
    requested;
  Fmt.pr "@.all requested experiments completed.@."
