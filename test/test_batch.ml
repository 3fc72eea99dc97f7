(* Batched execution and null join-key semantics.

   - SQL null semantics: a Null join key matches nothing, regardless of
     which predicate atom the probe order picks as the hash key (the
     historical divergence: compare-keyed index buckets matched
     Null = Null while Predicate.eval rejected it) — sequential and
     sharded.
   - Cutting the input into longer runs (Executor.run ~batch) is
     output-equivalent to runs of one over policies and run sizes: data
     output sequence, output multiset, final state and metrics series.
   - The degrade-mode shedder evicts oldest-first by insertion tick.
   - Purge-round accounting: stats, registry counter and trace replay
     agree even for victim-less rounds. *)

open Relational
module Scheme = Streams.Scheme
module Punctuation = Streams.Punctuation
module Element = Streams.Element
module Stream_def = Streams.Stream_def
module Cjq = Query.Cjq
module Plan = Query.Plan
module Join_state = Engine.Join_state
module Purge_policy = Engine.Purge_policy
module Metrics = Engine.Metrics
module Mjoin = Engine.Mjoin
module Operator = Engine.Operator
module Contract = Engine.Contract
module Telemetry = Engine.Telemetry
module Executor = Engine.Executor
module Parallel_executor = Engine.Parallel_executor
module Synth = Workload.Synth
open Fixtures

let plan3 = Plan.mjoin [ "S1"; "S2"; "S3" ]

(* ------------------------------------------------------------------ *)
(* Null join keys *)

(* Two streams joined on BOTH attributes: whichever atom the probe order
   keys its hash lookup on, the other is an equality check — the two
   orders must agree on tuples carrying Null in either position. *)
let ta = int_schema "T1" [ "A"; "B" ]
let tb = int_schema "T2" [ "A"; "B" ]
let atom_a = Predicate.atom "T1" "A" "T2" "A"
let atom_b = Predicate.atom "T1" "B" "T2" "B"
let plan_t = Plan.mjoin [ "T1"; "T2" ]

(* The null cases run once per key type a join-state index keys on: the
   two input schemas with both attributes of that type, and how an
   integer becomes a key of it. *)
let null_key_types =
  let typed ty key =
    let schema name =
      Schema.make ~stream:name
        [ { Schema.name = "A"; ty }; { Schema.name = "B"; ty } ]
    in
    (schema "T1", schema "T2", key)
  in
  [
    (ta, tb, fun i -> Value.Int i);
    typed Value.TStr (fun i -> Value.Str (Printf.sprintf "k%d" i));
    typed Value.TFloat (fun i -> Value.Float (float_of_int i +. 0.5));
  ]

let null_query (ta, tb, _) preds =
  let defs =
    [
      Stream_def.make ta [ Scheme.of_attrs ta [ "A" ] ];
      Stream_def.make tb [ Scheme.of_attrs tb [ "A" ] ];
    ]
  in
  Cjq.make defs preds

let vtuple schema vs = Tuple.make schema vs

let vpunct schema bindings =
  Punctuation.of_bindings schema
    (List.map (fun (a, v) -> (a, Value.Int v)) bindings)

(* (7, Null) on both streams: A agrees, B is Null — SQL says no match.
   Keying the probe on A finds the candidate and must reject it on the B
   check; keying on B must find nothing at all. (3, 3) is the one real
   match. *)
let null_trace (ta, tb, key) =
  let punct schema i = Punctuation.of_bindings schema [ ("A", key i) ] in
  [
    Element.Data (vtuple ta [ key 7; Value.Null ]);
    Element.Data (vtuple tb [ key 7; Value.Null ]);
    Element.Data (vtuple ta [ key 3; key 3 ]);
    Element.Data (vtuple tb [ key 3; key 3 ]);
    Element.Punct (punct ta 7);
    Element.Punct (punct tb 7);
    Element.Punct (punct ta 3);
    Element.Punct (punct tb 3);
  ]

let test_null_key_matches_nothing () =
  List.iter
    (fun keys ->
      let run preds =
        let q = null_query keys preds in
        let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q plan_t in
        Executor.run ~sample_every:10 c (List.to_seq (null_trace keys))
      in
      let r1 = run [ atom_a; atom_b ] and r2 = run [ atom_b; atom_a ] in
      let data r = List.filter Element.is_data r.Executor.outputs in
      check_int "only the non-null pair joins" 1 (List.length (data r1));
      check_string "key-atom choice cannot change the answer"
        (Executor.output_hash r1.Executor.outputs)
        (Executor.output_hash r2.Executor.outputs))
    null_key_types

let test_null_key_sharded_agrees () =
  List.iter
    (fun keys ->
      List.iter
        (fun preds ->
          let q = null_query keys preds in
          let trace = null_trace keys in
          let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q plan_t in
          let sr = Executor.run ~sample_every:10 c (List.to_seq trace) in
          let seq_hash = Executor.output_hash sr.Executor.outputs in
          List.iter
            (fun shards ->
              let pe = Parallel_executor.create ~shards q plan_t in
              let pr =
                Parallel_executor.run ~sample_every:10 pe (List.to_seq trace)
              in
              check_string
                (Printf.sprintf "null semantics at %d shards" shards)
                seq_hash
                (Executor.output_hash pr.Parallel_executor.outputs))
            [ 2; 3 ])
        [ [ atom_a; atom_b ]; [ atom_b; atom_a ] ])
    null_key_types

let test_null_key_dead_on_arrival () =
  let op =
    Mjoin.create ~policy:Purge_policy.Never
      ~inputs:
        [
          { Mjoin.name = "T1"; schema = ta; schemes = [] };
          { Mjoin.name = "T2"; schema = tb; schemes = [] };
        ]
      ~predicates:[ atom_a; atom_b ] ()
  in
  let out =
    op.Operator.push [| Element.Data (vtuple ta [ Value.Int 1; Value.Null ]) |]
  in
  check_int "no results from a null-keyed tuple" 0 (List.length out);
  check_int "never stored" 0 (op.Operator.state ()).data;
  check_int "counted as purged" 1 (op.Operator.stats ()).Operator.tuples_purged;
  (* a later partner with the same values still finds nothing *)
  let out2 =
    op.Operator.push [| Element.Data (vtuple tb [ Value.Int 1; Value.Null ]) |]
  in
  check_int "Null = Null never matches" 0
    (List.length (List.filter Element.is_data out2))

(* ------------------------------------------------------------------ *)
(* Long runs = runs of one *)

let policies =
  [
    ("eager", Purge_policy.Eager);
    ("lazy4", Purge_policy.Lazy 4);
    ("adaptive", Purge_policy.Adaptive { batch = 3; state_trigger = 400 });
    ("never", Purge_policy.Never);
  ]

(* Runs of one are the reference: computed once per (trace, policy), then
   every longer cut must reproduce its data output sequence, multiset,
   counts, final state and metrics series. *)
let check_cuts_agree ~ctx q plan trace policy =
  let run ?batch () =
    let c = Executor.compile ~config:(Executor.Config.make ~policy ()) q plan in
    let r = Executor.run ~sample_every:50 ?batch c (List.to_seq trace) in
    (c, r)
  in
  let ce, re = run () in
  let data r =
    List.filter_map
      (function Element.Data t -> Some (Tuple.to_string t) | _ -> None)
      r.Executor.outputs
  in
  let ref_data = data re
  and ref_hash = Executor.output_hash re.Executor.outputs in
  List.iter
    (fun b ->
      let ctx = Printf.sprintf "%s/b=%d" ctx b in
      let cb, rb = run ~batch:b () in
      Alcotest.(check (list string))
        (ctx ^ ": data output sequence")
        ref_data (data rb);
      check_string
        (ctx ^ ": output multiset")
        ref_hash
        (Executor.output_hash rb.Executor.outputs);
      check_int (ctx ^ ": consumed") re.Executor.consumed rb.Executor.consumed;
      check_int (ctx ^ ": emitted") re.Executor.emitted rb.Executor.emitted;
      check_int
        (ctx ^ ": final data state")
        (Executor.total_data_state ce)
        (Executor.total_data_state cb);
      check_int
        (ctx ^ ": final index state")
        (Executor.total_index_state ce)
        (Executor.total_index_state cb);
      check_int
        (ctx ^ ": final punct state")
        (Executor.total_punct_state ce)
        (Executor.total_punct_state cb);
      check_bool
        (ctx ^ ": metrics series")
        true
        (Metrics.equal re.Executor.metrics rb.Executor.metrics))
    [ 7; 64 ]

let test_batch_equals_element_round_trace () =
  let q = fig5_query () in
  let trace =
    Synth.round_trace q
      { Synth.default_trace_config with rounds = 40; punct_lag = 3 }
  in
  List.iter
    (fun (pname, policy) ->
      check_cuts_agree ~ctx:(Printf.sprintf "fig5/%s" pname) q plan3 trace
        policy)
    policies

let test_batch_equals_element_random_traces () =
  let q = Synth.chain_query ~n:3 () in
  let plan = Plan.mjoin (Cjq.stream_names q) in
  List.iter
    (fun seed ->
      let trace =
        Synth.random_trace q ~elements_per_stream:250 ~value_range:12
          ~punct_prob:0.3 ~seed
      in
      List.iter
        (fun (pname, policy) ->
          check_cuts_agree
            ~ctx:(Printf.sprintf "chain3/seed=%d/%s" seed pname)
            q plan trace policy)
        policies)
    [ 1; 2; 3 ]

let test_batch_and_shards_agree () =
  (* The sharded workers drive their operators in long runs; the answer
     must be the sequential runs-of-one answer at every shard count. *)
  let q = fig5_query () in
  let trace =
    Synth.round_trace q
      { Synth.default_trace_config with rounds = 50; punct_lag = 4 }
  in
  let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q plan3 in
  let sr = Executor.run ~sample_every:50 c (List.to_seq trace) in
  let seq_hash = Executor.output_hash sr.Executor.outputs in
  let cb = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q plan3 in
  let br = Executor.run ~sample_every:50 ~batch:64 cb (List.to_seq trace) in
  check_string "sequential batch path" seq_hash
    (Executor.output_hash br.Executor.outputs);
  List.iter
    (fun shards ->
      let pe =
        Parallel_executor.create ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) ~shards q plan3
      in
      let pr = Parallel_executor.run ~sample_every:50 pe (List.to_seq trace) in
      check_string
        (Printf.sprintf "sharded batch path at %d shards" shards)
        seq_hash
        (Executor.output_hash pr.Parallel_executor.outputs))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Degrade-mode shedding is oldest-first *)

let test_evict_oldest_is_deterministic () =
  let st = Join_state.create ta in
  for i = 0 to 9 do
    Join_state.insert st (tuple ta [ i; i ])
  done;
  check_int "evicts exactly count" 4 (Join_state.evict_oldest st ~count:4);
  let survivors =
    Join_state.fold (fun acc (_, t) -> Tuple.get_named t "A" :: acc) [] st
    |> List.map (function Value.Int i -> i | _ -> -1)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "the newest survive" [ 4; 5; 6; 7; 8; 9 ] survivors

let test_shedder_sheds_oldest_first () =
  let inputs =
    [
      { Mjoin.name = "T1"; schema = ta; schemes = [] };
      { Mjoin.name = "T2"; schema = tb; schemes = [] };
    ]
  in
  let preds = [ atom_a ] in
  let n = 40 in
  (* dry run to size the byte budget at roughly half the loaded state *)
  let budget =
    let op = Mjoin.create ~policy:Purge_policy.Never ~inputs ~predicates:preds () in
    for i = 0 to n - 1 do
      ignore (op.Operator.push [| Element.Data (tuple ta [ i; i ]) |])
    done;
    (op.Operator.state ()).bytes / 2
  in
  let ct =
    Contract.create
      {
        Contract.default_config with
        action = Contract.Degrade;
        state_budget_bytes = Some budget;
      }
  in
  let op =
    Mjoin.create ~policy:Purge_policy.Never ~contract:ct ~inputs
      ~predicates:preds ()
  in
  for i = 0 to n - 1 do
    ignore (op.Operator.push [| Element.Data (tuple ta [ i; i ]) |])
  done;
  let shed =
    Contract.enforce_budget ct ~telemetry:Telemetry.null ~tick:n
      ~bytes_now:(fun () -> (op.Operator.state ()).bytes)
      ()
  in
  check_bool "shedding happened" true (shed > 0);
  let survivors = (op.Operator.state ()).data in
  check_bool "something survived" true (survivors > 0);
  (* probe every key: exactly the newest [survivors] keys may still match *)
  List.iter
    (fun i ->
      let out = op.Operator.push [| Element.Data (tuple tb [ i; 0 ]) |] in
      let hit = List.exists Element.is_data out in
      check_bool
        (Printf.sprintf "key %d %s" i
           (if i >= n - survivors then "survives (newest)" else "was shed (oldest)"))
        (i >= n - survivors) hit)
    (List.init n (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Purge-round accounting: stats = registry = replay, even victim-less *)

let test_purge_round_accounting_consistent () =
  let q = fig5_query () in
  let sink, events = Obs.Sink.memory () in
  let telemetry = Telemetry.create ~sink () in
  let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ~telemetry ()) q plan3 in
  (* a victim-less prefix: punctuations for keys no data ever carries, on
     empty state — each is informative, so each fires a round that purges
     nothing *)
  let prefix =
    [
      Element.Punct (vpunct s1 [ ("B", 901) ]);
      Element.Punct (vpunct s2 [ ("C", 902) ]);
      Element.Punct (vpunct s3 [ ("A", 903) ]);
    ]
  in
  let trace =
    prefix
    @ Synth.round_trace q
        { Synth.default_trace_config with rounds = 20; punct_lag = 2 }
  in
  let r = Executor.run ~sample_every:25 c (List.to_seq trace) in
  let op = List.hd (Executor.operators ~c) in
  let stats_rounds = (op.Operator.stats ()).Operator.purge_rounds in
  check_bool "rounds ran" true (stats_rounds > 0);
  let evs = events () in
  check_bool "victim-less rounds present" true
    (List.exists
       (function
         | Obs.Event.Purge_round { victims = 0; _ } -> true | _ -> false)
       evs);
  check_int "registry counter counts every round" stats_rounds
    (Obs.Registry.counter
       (Telemetry.registry telemetry)
       (op.Operator.name ^ ".purge_rounds"));
  let replay_rounds =
    match List.assoc_opt op.Operator.name (Obs.Report.replay evs) with
    | Some counters -> (
        match List.assoc_opt "purge_rounds" counters with
        | Some v -> v
        | None -> 0)
    | None -> 0
  in
  check_int "trace replay agrees" stats_rounds replay_rounds;
  match
    Obs.Report.verify ~report:(Obs.Report.to_json (Executor.report c r))
      ~events:evs
  with
  | Ok () -> ()
  | Error ps ->
      Alcotest.failf "verify failed:@.%a" Fmt.(list ~sep:cut string) ps

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "batch"
    [
      ( "null_keys",
        [
          Alcotest.test_case "null key matches nothing" `Quick
            test_null_key_matches_nothing;
          Alcotest.test_case "sharded agrees" `Quick
            test_null_key_sharded_agrees;
          Alcotest.test_case "dead on arrival" `Quick
            test_null_key_dead_on_arrival;
        ] );
      ( "batched",
        [
          Alcotest.test_case "round trace, all policies x batch sizes" `Quick
            test_batch_equals_element_round_trace;
          Alcotest.test_case "random traces, all policies x batch sizes"
            `Slow test_batch_equals_element_random_traces;
          Alcotest.test_case "batch and shards agree" `Quick
            test_batch_and_shards_agree;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "evict_oldest deterministic" `Quick
            test_evict_oldest_is_deterministic;
          Alcotest.test_case "shedder sheds oldest first" `Quick
            test_shedder_sheds_oldest_first;
        ] );
      ( "purge_rounds",
        [
          Alcotest.test_case "stats = registry = replay" `Quick
            test_purge_round_accounting_consistent;
        ] );
    ]
